"""lcm-lattices: construction, isomorphism testing, and the collapse map.

The lcm-lattice of a monomial ideal consists of all least common multiples
of subsets of the minimal generators (the empty subset contributing 1),
ordered by divisibility.  It is atomistic with the generators as atoms; the
join of two elements is their lcm, the meet is the greatest common lower
bound *within the lattice* (which may properly divide the gcd).

Polarization keeps the lcm-lattice (Gasharov, Peeva and Welker, "The
lcm-lattice in monomial resolutions", 1999), and after polarization an lcm
is a union of variables.  So each element is stored as a Python int, the set
of polarized variables of its exponent vector: the join is one OR and
divisibility is a subset test.  Elements are listed in increasing code
order, which is lexicographic order of the exponent vectors and puts every
divisor before its multiples.  Each element carries its atom support, an
int bitmask built by the constructor, which answers the order, the meet,
the isomorphism test and the collapse map.  Only the Hasse edges (covers)
read a second bitmask, the elements below each one, built for all
elements when first read.

Codes and rows are converted in bulk, a column at a time, by the one
encoder of lcm codes in taylor.py, which the Betti numbers share: the
threshold masks (taylor._columns), the atom codes made from them, the
decode fields and the decoder.  One transpose (taylor._transpose) reads bit
a of every int in a list as one int: it makes the atom codes from the
threshold masks and the atoms' up-sets from the atom supports.  Exponent
vectors are made only when asked for (taylor._decode): per distinct column
of the atom rows, one pass over all the codes reads each field's rank, and
one zip makes the rows.  A down-set, the code of a meet, the collapse
map's image of an element and an isomorphism's image of a support are ORs
over an atom support, read per 4 atoms from a table of the 16 subset ORs
(_subset_ors).

An atomistic lattice is fixed by its family of atom supports: u <= v iff
support(u) is contained in support(v), the meet is the element whose
support is support(u) & support(v) (see LcmLattice.meet), and an
isomorphism is a permutation of atoms carrying one family onto the other.
_atom_image finds one: it first tries the atom order it is given, as one
set comparison, and only failing that searches.  is_isomorphic gives it
the supports, the law harness the irreducible threshold masks, a smaller
family that decides the same (see _irreducible).

A map f out of an atomistic lattice with f(bottom) = bottom preserves all
joins iff f(s join a) = f(s) join f(a) for every element s and atom a (the
atom step): peeling the atoms b_1, ..., b_m of t off one at a time gives
f(s join t) = f(s) join f(b_1) join ... join f(b_m) = f(s) join f(t).
A LatticeMap is stored index-wise, image[k] the target index of source
element k, and verify_delta checks it that way on codes: onto is one set of
indices, and the atom step one list comparison of target codes per atom;
together they fix the bottom (see verify_delta).  Whether the collapse map
of a spread lattice onto its source exists is decided without either
lattice: it exists iff every atom support of the source is one of the
spread (the support lemma, proved at build_delta), and the supports are
the complements of the unions of threshold masks, so it exists iff every
threshold mask of the source is the OR of the spread's masks inside it
(_uncovered).  On "no", the first mask that is not names the witness, three
lcms made from the generators, the spread one from their spread indices as
spread_ideal makes them; only on "yes" are the two lattices built, and the
image is read off the spread supports, one OR of the source atom codes the
constructor kept per spread element.  No element is decoded until the Monomial map
`mapping` is read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Mapping, Sequence

from .errors import BadParameterError, TooLargeError, WellDefinednessViolation
from .monomials import (Monomial, MonomialIdeal, _check_ambient_cap, _image, _integer,
                        _spread_indices, spread_ideal)
from .smooth import _blocks
from .taylor import (MAX_TAYLOR_ATOMS, _atom_codes, _columns, _decode, _decode_fields,
                     _homology, _transpose)

MAX_ATOMS = 20
MAX_ELEMENTS = 1 << 14  # each element keeps a mask as long as the lattice


class LcmLattice:
    """The lcm-lattice of an antichain of monomials, the atoms kept in order.

    Each atom gets one int code, read off its threshold masks (see
    taylor._columns, and taylor._atom_codes, one taylor._transpose of the
    masks): per distinct nonzero column of exponents, in order of first
    occurrence, and per value v in it from the highest down, the mask of
    the atoms with exponent >= v.  Bit t of a code, the first mask the most
    significant, says whether the atom lies in mask t.  So within one column
    an atom sets the lowest r of the column's bits, r the rank of its
    exponent in {0} together with the column's values: the rank written in
    unary.  Within such a field, OR is max and a subset is a smaller rank,
    so the code of an lcm is the OR of the codes, u divides v iff code(u) is
    a subset of code(v), and the int order of codes is the lexicographic
    order of exponent vectors: two elements first differ in a column unlike
    every earlier one, as equal columns give them equal values.  The ranks
    (the rank step) change no lcm or divisibility, as they keep each
    column's order of exponents, and they keep a field at most as wide as
    the number of atoms: unary fields of raw exponents could be 2^16 bits
    wide per variable.

    The elements are the OR-closure of the atom codes, each one carrying
    its atom support.  The constructor makes only these ints and masks, and
    runs every check, so a bad input fails where it is built and not where
    an element is first read: antichain of non-units, the MAX_ELEMENTS cap,
    and the full Monomial check of the top, which the rest divide.  It keeps
    the atom codes (`_atom_code[a]`, the code of atom a) and the checked top
    (`top`); `bottom` is the unit, so neither end is decoded.  The other
    vectors are decoded on demand, all at once and column by column
    (`elements`, by taylor._decode on the fields `_fields` that
    taylor._decode_fields makes of the atom rows).  The down-set masks
    `_below` are built on first read too, all at once: one transpose of the
    supports gives the atoms' up-sets, and 4-atom OR tables of those give
    each down-set.  Only `covers` (so `hasse_dot`) reads them.  The order,
    the meet, the isomorphism test, the collapse map and the Betti numbers
    work on codes and supports alone.  `_columns` keeps the masks the codes
    come from, which the Betti table `_betti` passes to taylor._homology
    with the kept atom codes.  The masks, the transpose, the codes and the
    decode fields are made in taylor.py alone.
    """

    def __init__(self, ambient: int, atoms: tuple[Monomial, ...]):
        ambient = _integer(ambient, "ambient")
        if any(a.ambient != ambient for a in atoms):
            raise BadParameterError(f"every atom must lie in ambient {ambient}")
        self.ambient = ambient
        self.atoms = atoms
        rows = [a.exponents for a in atoms]
        self._columns = _columns(rows)
        self._atom_code = codes = _atom_codes(self._columns, len(atoms))
        support = {0: 0}  # code -> mask of the atoms below it
        for a, g in enumerate(codes):
            bit = 1 << a
            for e, s in list(support.items()):
                f = e | g
                if f in support:
                    support[f] |= s | bit
                else:
                    support[f] = s | bit
            if len(support) > MAX_ELEMENTS:
                raise TooLargeError(f"lcm-lattice exceeds the cap of {MAX_ELEMENTS} elements")
        if support[0] or any(support[g] != 1 << a for a, g in enumerate(codes)):
            raise BadParameterError("atoms must be pairwise incomparable non-units")
        self._codes = sorted(support)
        self._at = {c: k for k, c in enumerate(self._codes)}
        self._support = tuple(support[c] for c in self._codes)
        self._covers = None
        self.top = Monomial(_lcm(rows, ambient), ambient)  # the one full check: the rest divide it

    def __len__(self) -> int:
        return len(self._codes)

    def __contains__(self, u: Monomial) -> bool:
        return u in self._index

    def index(self, u: Monomial) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise BadParameterError(f"{u} is not a lattice element") from None

    @cached_property
    def _index(self) -> dict[Monomial, int]:
        return {e: k for k, e in enumerate(self.elements)}

    @cached_property
    def elements(self) -> tuple[Monomial, ...]:
        """Every element in code order, decoded column by column when first read."""
        rows = _decode(self._codes, *self._fields)
        return tuple(Monomial._trusted(row, self.ambient) for row in rows)

    @cached_property
    def _fields(self) -> tuple[list[tuple[int, int, list[int]]], list[int]]:
        """(fields, where) of the codes for taylor._decode, from the atom
        rows (taylor._decode_fields)."""
        # with no atoms every column is zero: one zero row keeps `where` whole
        return _decode_fields([a.exponents for a in self.atoms] or [(0,) * self.ambient])

    @cached_property
    def _below(self) -> list[int]:
        """below[k]: the elements v <= element k, built when first read.

        v <= u iff support(u) holds support(v), so below(u) is the complement
        of the union of the up-sets of the atoms outside support(u).  The
        up-set of atom a is bit a of each support, the last element's the
        most significant: one transpose."""
        m = len(self.atoms)
        full, atoms = (1 << len(self._codes)) - 1, (1 << m) - 1
        ups = _transpose(self._support[::-1], m)
        return [full ^ u for u in _subset_ors(ups, [atoms ^ s for s in self._support])]

    @cached_property
    def _betti(self) -> dict[int, dict[int, int]]:
        """element index -> {i: b_i}, its nonzero multigraded Betti numbers
        of the quotient, built when first read by one pass of the element
        matchings (taylor._homology) over the atom codes and the threshold
        masks; TooLargeError past MAX_TAYLOR_ATOMS atoms."""
        m = len(self.atoms)
        if m > MAX_TAYLOR_ATOMS:
            raise TooLargeError(f"{m} atoms exceed the Betti cap of {MAX_TAYLOR_ATOMS}")
        _, groups = _homology(self._columns, self._atom_code)
        return {self._at[c]: b for c, b in groups.items()}

    @property
    def bottom(self) -> Monomial:
        return Monomial.unit(self.ambient)

    def atom_support(self, u: Monomial) -> frozenset[int]:
        """Indices of the atoms lying below u (the maximal atom subset)."""
        mask = self._support[self.index(u)]
        return frozenset(a for a in range(len(self.atoms)) if mask >> a & 1)

    def leq(self, u: Monomial, v: Monomial) -> bool:
        """u <= v iff the atom support of u lies inside that of v."""
        return not self._support[self.index(u)] & ~self._support[self.index(v)]

    def join(self, u: Monomial, v: Monomial) -> Monomial:
        code = self._codes[self.index(u)] | self._codes[self.index(v)]
        return self.elements[self._at[code]]

    def meet(self, u: Monomial, v: Monomial) -> Monomial:
        """Greatest common lower bound inside the lattice (not the gcd): the
        element whose atom support is the common part S of the supports.

        Supports are closed under intersection: the atoms of S divide u and
        v, so they divide gcd(u, v), and so does their lcm w, whose support is
        therefore S exactly.  Every element below u and v has its support
        inside S, so it lies below w.  The code of w is the OR of the codes of
        the atoms of S."""
        common = self._support[self.index(u)] & self._support[self.index(v)]
        return self.elements[self._at[_subset_ors(self._atom_code, [common])[0]]]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges as (lower, upper) element index pairs."""
        if self._covers is None:
            edges = []
            for j, mask in enumerate(self._below):
                rest = mask ^ 1 << j
                while rest:  # the highest bit left is maximal below j
                    i = rest.bit_length() - 1
                    edges.append((i, j))
                    rest &= ~self._below[i]
            self._covers = tuple(sorted(edges))
        return self._covers


def _spread_columns(blocks: list[list[tuple[int, int]]], n: int) -> list[list[int]]:
    """The threshold masks of the n-spread in the form taylor._columns
    gives, from the generators' smooth._blocks alone.

    Generator g covers spread variable j + k*n iff p <= k < p + a, for (p, a)
    its block at j.  So the spread is squarefree, and a sweep over the 2m
    block ends of each j gives runs of k with one generator mask; each
    distinct nonzero mask, first met at the least (k, j), is a chain of one
    mask."""
    firsts = []  # (k, j, mask) at the start of each run
    for j in range(n):
        ends: dict[int, int] = {}  # k -> generators entering or leaving at k
        for g, row in enumerate(blocks):
            p, a = row[j]
            if a:
                ends[p] = ends.get(p, 0) ^ 1 << g
                ends[p + a] = ends.get(p + a, 0) ^ 1 << g
        mask = 0
        for k in sorted(ends):
            mask ^= ends[k]
            if mask:
                firsts.append((k, j, mask))
    return [[mask] for mask in dict.fromkeys(mask for _, _, mask in sorted(firsts))]


def _lcm(rows: list[tuple[int, ...]], ambient: int) -> tuple[int, ...]:
    return tuple(map(max, (0,) * ambient, *rows)) if rows else (0,) * ambient


def _subset_ors(values: list[int], masks: list[int]) -> list[int]:
    """Per mask, the OR of the values whose bits it sets (bit a picks
    values[a]), read per 4 values from a table of their 16 subset ORs."""
    tables = []
    for lo in range(0, len(values), 4):
        table = [0]
        for v in values[lo:lo + 4]:
            table += [x | v for x in table]
        tables.append(table)
    out = []
    for s in masks:
        union = 0
        for table in tables:
            union |= table[s & 15]
            s >>= 4
        out.append(union)
    return out


def build_lcm_lattice(I: MonomialIdeal) -> LcmLattice:
    """All subset lcms of the minimal generators, deduplicated and sorted."""
    if len(I.generators) > MAX_ATOMS:
        raise TooLargeError(
            f"{len(I.generators)} generators exceed the lattice cap of {MAX_ATOMS}"
        )
    return LcmLattice(I.ambient, I.generators)


@dataclass(frozen=True, init=False)
class LatticeMap:
    """A total map between two lcm-lattices, stored index-wise: image[k] is
    the target index of source element k, elements in code order.

    The public constructor takes the map on Monomials, `mapping`, and
    converts it to the image once; it raises BadParameterError for a map
    that is not total on the source elements, has a key outside them, or
    has a value outside the target.  build_delta makes the image itself and
    builds the map unchecked (_trusted).  `mapping` is decoded from the
    elements of both lattices when first read and then cached on this
    object, so a caller that never reads it, verify_delta among them,
    decodes no element.
    """

    source: LcmLattice
    target: LcmLattice
    image: tuple[int, ...]

    def __init__(self, source: LcmLattice, target: LcmLattice,
                 mapping: Mapping[Monomial, Monomial]):
        if set(mapping) != source._index.keys():
            raise BadParameterError("the map is not total on the source, or has keys outside it")
        index = target._index
        outside = [v for v in mapping.values() if v not in index]
        if outside:
            raise BadParameterError(f"{outside[0]} is not an element of the target lattice")
        vars(self).update(source=source, target=target,
                          image=tuple(index[mapping[e]] for e in source.elements))

    @classmethod
    def _trusted(cls, source: LcmLattice, target: LcmLattice,
                 image: tuple[int, ...]) -> LatticeMap:
        """The map of an image known to be total and into the target."""
        f = object.__new__(cls)
        vars(f).update(source=source, target=target, image=image)
        return f

    @cached_property
    def mapping(self) -> dict[Monomial, Monomial]:
        """The map on Monomials, decoded from both lattices when first read."""
        values = self.target.elements
        return dict(zip(self.source.elements, [values[d] for d in self.image]))


def _atom_step_holds(source: LcmLattice, target: LcmLattice, image: Sequence[int]) -> bool:
    """Whether image[s join a] = image[s] join image[a] for every source
    element s and atom a.  Each join is one OR of codes, so the step is
    checked on target codes, one list comparison per atom."""
    codes, tcodes = source._codes, target._codes
    timg = [tcodes[d] for d in image]
    f = dict(zip(codes, timg))  # source code -> target code of its image
    for ca in source._atom_code:
        ta = f[ca]
        if [f[c | ca] for c in codes] != [t | ta for t in timg]:
            return False
    return True


def is_isomorphic(L1: LcmLattice, L2: LcmLattice) -> dict[Monomial, Monomial] | None:
    """Search for a join- and meet-preserving bijection between two lattices.

    An isomorphism of atomistic lattices is a bijection of atoms carrying
    the family of atom supports of L1 onto that of L2, which _atom_image
    finds on the nonempty supports, the given atom order first.  Returns the
    witnessing element bijection, decoded only on a hit, or None.
    """
    m = len(L1.atoms)
    if len(L1) != len(L2) or m != len(L2.atoms):
        return None
    image = _atom_image(L1._support[1:], L2._support[1:], m)
    if image is None:
        return None
    target = dict(zip(L2._support, L2.elements))
    return {e: target[s] for e, s in zip(L1.elements, _subset_ors(image, L1._support))}


def _atom_image(A: Sequence[int], B: Sequence[int], m: int) -> list[int] | None:
    """A bijection of m atoms carrying the set family A onto B, each family
    a sequence of distinct nonempty atom sets as bitmasks.

    If the two families are equal as sets, atom a goes to atom a at once.
    That identity is also the first bijection the search below would
    return: at every level the identity is tried first, and it passes every
    partial check.

    The atoms of A are assigned in order, each to the first free atom of B
    for which the members made of assigned atoms correspond both ways: each
    member of A whose highest atom is a maps into B, and as many members of
    B hold the new atom and only assigned ones.  Summed over the atoms, the
    counts match the sizes of A and B, so a complete assignment carries A
    onto B.  Returns the first one, image[a] the bit of the B atom of atom
    a, or None.  is_isomorphic passes the nonempty atom supports of two
    lattices, the law harness their irreducible threshold masks, a family
    that decides the same (see _irreducible); both get the given order
    first.
    """
    if set(A) == set(B):
        return [1 << a for a in range(m)]
    closing: list[list[list[int]]] = [[] for _ in range(m)]
    for s in A:  # each member, under its highest atom
        closing[s.bit_length() - 1].append([a for a in range(m) if s >> a & 1])
    target = set(B)
    holding = [[t for t in B if t >> b & 1] for b in range(m)]
    image = [0] * m

    def place(a: int, used: int) -> bool:
        if a == m:
            return True
        for b in range(m):
            if used >> b & 1:
                continue
            image[a] = 1 << b
            assigned = used | image[a]
            if (
                all(sum(image[x] for x in s) in target for s in closing[a])
                and sum(1 for t in holding[b] if not t & ~assigned) == len(closing[a])
                and place(a + 1, assigned)
            ):
                return True
        return False

    return image if place(0, 0) else None


def _or_inside(x: int, masks: Sequence[int]) -> int:
    """The OR of the masks that lie inside the mask x."""
    return reduce(or_, (y for y in masks if y & x == y), 0)


def _uncovered(columns: list[list[int]], spread_columns: list[list[int]]) -> int | None:
    """The first threshold mask of `columns`, in their order, that is not
    the OR of the masks of `spread_columns` inside it; None if every one is.

    For an ideal's masks and its n-spread's, None says exactly that a
    collapse map exists, by the support lemma of build_delta and this fact:
    the complements of the atom supports of an lcm-lattice are the unions
    of its threshold masks.  Atom i lies outside the support of lcm(S) iff
    some x_j-exponent of it passes that of every member of S, that is, iff
    a mask (of x_j, at that exponent) holds i and misses S: the complement
    is the union of the masks missing S.  Conversely, a union U of masks,
    each of some x_j at some value v, is the complement of the support of
    lcm(S), S the atoms outside U: lcm(S) keeps each such x_j below its v,
    so no atom of U divides it.  So every source support is a spread one
    iff every union of source masks is a union of spread masks, iff every
    source mask is, iff it is the OR of the spread masks inside it.  Called
    both ways, the two calls decide a fixed-order isomorphism, support
    families equal.  Each takes O(|M| |M'|) ORs on the two mask lists."""
    masks = [y for chain in spread_columns for y in chain]
    return next((x for chain in columns for x in chain if _or_inside(x, masks) != x), None)


def _irreducible(columns: list[list[int]]) -> list[int]:
    """The distinct threshold masks that are not the OR of the masks
    strictly inside them: the union-irreducible members of the family of
    complements of the atom supports.

    The isomorphism verdict of the law harness rests on them.  The
    complements of the atom supports are the unions of threshold masks
    (proved at _uncovered).  An atom bijection therefore carries the
    supports of one lcm-lattice onto those of another, that is, is an
    isomorphism, iff it carries the union-closure of the first family of
    masks onto that of the second.  A bijection preserves unions, so this
    holds iff it carries the union-irreducible members onto each other
    (_atom_image on the two lists).  Such a member is the union of the masks
    inside it, so it is a single mask; and a mask is irreducible iff it is
    not the OR of the masks strictly inside it.  Once both characteristic
    posets of the harness fit invariants.MAX_POSET_POINTS, each side has at
    most 32 masks: each lies in one chain of the depolarization J, of length
    at most m <= 10, and the product of (length + 1) over the chains is at
    most 4,096, so the pairwise pass stays small.
    """
    masks = list(dict.fromkeys(itertools.chain.from_iterable(columns)))
    return [x for x in masks if x != reduce(or_, (y for y in masks if y != x and y & x == y), 0)]


def build_delta(I: MonomialIdeal) -> LatticeMap:
    """The collapse map from the lattice of the n-spread back onto L_I.

    delta(s) is the join of the source atoms whose spreads lie below s.  It
    is the collapse map, sending the lcm of any spread generators to the lcm
    of their originals, exactly when it preserves joins.  That fails for
    some ideals: the spread-side lcm only remembers, per variable, the union
    of offset intervals, and distinct source lcms can produce identical
    unions (e.g. (x2^3*x3, x1^2*x3, x1*x2*x3^2) in three variables, where
    the spread lattice has fewer elements than the source lattice).  Then no
    collapse map exists and WellDefinednessViolation is raised.

    The support lemma: delta preserves joins iff every atom support of the
    source lattice is one of the spread lattice.  Write cl(U) and cl'(U) for
    the least atom supports holding the atom set U in the source and in the
    spread lattice; a support is the closure of itself, and
    cl(cl(S) | cl(T)) = cl(S | T).  The element of support T maps to the
    source element of support cl(T).  So delta(s join t) has support
    cl(cl'(S | T)) and delta(s) join delta(t) has support cl(S | T), for s
    and t of supports S and T.  If cl'(U) <= cl(U) for every U, these agree,
    as S | T <= cl'(S | T) <= cl(S | T).  Conversely, if delta preserves
    joins, the spread join of the atoms in U, of support cl'(U), maps to the
    source join of those atoms, of support cl(U), so cl(cl'(U)) = cl(U) and
    cl'(U) <= cl(U).  Lastly, cl'(U) <= cl(U) for every U iff every source
    support C is a spread one: then cl(U) is a spread support holding U, so
    it holds cl'(U); and for a source support C, cl'(C) <= cl(C) = C.

    The verdict comes from the threshold masks alone (_uncovered): those of
    I (taylor._columns) and those of the n-spread, swept from the
    generators' blocks (_spread_columns), so a "no" builds no lattice and
    no spread, and is answered past the lattice caps; only the MAX_AMBIENT
    cap on n*d is checked first.  The witness: m is the first source mask
    not covered, C the generators outside m, a source support (the
    complement of a mask), and D the generators outside the OR of the
    spread masks inside m, the spread closure cl'(C), which holds C
    properly.  The spread lcm of C, equal to that of D, is named with the
    two different source lcms lcm(D) and lcm(C); the spread is squarefree,
    so its lcm is the union of the spread indices of C (_spread_indices, as
    spread_ideal builds a spread).  On "yes" both lattices are built, capped
    by MAX_ATOMS and MAX_ELEMENTS, and the image is read off the spread
    supports and the kept source atom codes; no element is decoded until
    `mapping` is read.

    Spread atom k is the spread of source atom k, as spreading by t >= n
    keeps the order of the generators (see spread_ideal).
    """
    n = I.ambient
    ambient = n * I.deg
    _check_ambient_cap(ambient)
    rows = [u.exponents for u in I.generators]
    spread_columns = _spread_columns([_blocks(u) for u in I.generators], n)
    m = _uncovered(_columns(rows), spread_columns)
    if m is not None:
        full = (1 << len(rows)) - 1
        C = full ^ m
        D = full ^ _or_inside(m, [y for [y] in spread_columns])
        spread = _image({i for g, u in enumerate(I.generators) if C >> g & 1
                         for i in _spread_indices(u, n)}, ambient)

        def lcm(S: int) -> Monomial:  # of degree at most n*d <= MAX_AMBIENT < MAX_DEGREE
            return Monomial._trusted(_lcm([r for g, r in enumerate(rows) if S >> g & 1], n), n)

        raise WellDefinednessViolation(
            f"spreading collapsed the lcm-lattice: {spread} is the lcm of spread generator "
            f"subsets with different source lcms {lcm(D)} and {lcm(C)}; no collapse map exists"
        )
    src, spr = build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, n))
    # the OR of the source codes of the atoms below each spread element
    image = tuple(src._at[c] for c in _subset_ors(src._atom_code, spr._support))
    return LatticeMap._trusted(spr, src, image)


def verify_delta(delta: LatticeMap) -> bool:
    """True iff the map is join-preserving, onto, and fixes the bottom.

    It reads the index-wise image alone and decodes no element; a LatticeMap
    is total by construction.  Onto: the image takes every target index.
    Joins are checked by the atom step f(s join a) = f(s) join f(a) for
    every source element s and atom a, on codes (_atom_step_holds).  Each
    element is the join of its atoms, so adding them one at a time gives
    f(s) >= f(bottom) for every s; as some s maps onto the target bottom,
    an onto map that passes the atom step fixes the bottom, which is
    therefore not checked on its own.  Then induction on the atoms of t
    gives f(s join t) = f(s) join f(t) for all s, t, as every lcm-lattice
    is atomistic.
    """
    src, tgt, image = delta.source, delta.target, delta.image
    return len(set(image)) == len(tgt) and _atom_step_holds(src, tgt, image)


def hasse_dot(L: LcmLattice) -> str:
    """DOT digraph of the Hasse diagram, edges from smaller to larger cover.

    Node statements come first (one per line, in the lattice's canonical
    element order, labeled by the monomials), then the cover edges sorted the
    same way, so the output is deterministic.
    """
    labels = [f'"{e}"' for e in L.elements]
    lines = ["digraph lcm_lattice {", *(f"  {x};" for x in labels)]
    lines += [f"  {labels[i]} -> {labels[j]};" for i, j in L.covers()]
    lines.append("}")
    return "\n".join(lines) + "\n"
