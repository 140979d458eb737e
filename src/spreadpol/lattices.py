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
divisor before its multiples.  Each element also carries two int bitmasks:
its atom support, built by the constructor, and the elements below it,
built for all elements when first read, as the isomorphism test and the
collapse map never read it.

Codes and rows are converted in bulk, a column at a time.  One transpose
(_transpose) reads bit a of every int in a list as one int: it makes the
atom codes from the threshold masks and the atoms' up-sets from the atom
supports.  Exponent vectors are made only when asked for, by one decoder
(taylor._decode, shared with the Betti numbers): per distinct column of
the atom rows, one pass over all the codes reads each field's rank, and
one zip makes the rows.  A down-set, the collapse map's image of an
element and an isomorphism's image of a support are ORs over an atom
support, read per 4 atoms from a table of the 16 subset ORs (_subset_ors).

An atomistic lattice is fixed by its family of atom supports: u <= v iff
support(u) is contained in support(v), and an isomorphism is a permutation
of atoms carrying one family onto the other.  The common lower bounds
below(u) & below(v) are the down-set of the meet, whose index is their
highest bit, so no gcd is needed.

A map f out of an atomistic lattice with f(bottom) = bottom preserves all
joins iff f(s join a) = f(s) join f(a) for every element s and atom a (the
atom step): peeling the atoms b_1, ..., b_m of t off one at a time gives
f(s join t) = f(s) join f(b_1) join ... join f(b_m) = f(s) join f(t).
verify_delta checks a given map that way.  The collapse map of a spread
lattice onto its source needs less: it exists iff every atom support of the
source is one of the spread as well (the support lemma, proved at
build_delta), so one set inclusion decides it, and the atom step is run
only on failure, to name an element and an atom it fails at.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .errors import (
    BadParameterError,
    InvariantViolation,
    TooLargeError,
    WellDefinednessViolation,
)
from .monomials import Monomial, MonomialIdeal, spread_ideal
from .taylor import MAX_TAYLOR_ATOMS, _decode, _homology, _keep

MAX_ATOMS = 20
MAX_ELEMENTS = 1 << 14  # each element keeps a mask as long as the lattice
# entry i maps each byte to the binary digit of its bit i, for bytes.translate:
# over the bytes 0..255, bit i runs 2^i zeros, then 2^i ones, and repeats
_BIT_DIGITS = [(b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8)]


class LcmLattice:
    """The lcm-lattice of an antichain of monomials, the atoms kept in order.

    Each atom gets one int code, read off its threshold masks (see
    _columns): per distinct nonzero column of exponents, in order of first
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
    and the full Monomial check of the top, which the rest divide.  Vectors
    are decoded on demand, column by column (taylor._decode, on the fields
    `_fields` of the atom rows): `_element(k)` one alone, `elements` all at
    once.  The down-set masks `_below` are built on first read too, all at
    once: one transpose of the supports gives the atoms' up-sets, and
    4-atom OR tables of those give each down-set.  Only `leq`, `meet` and
    `covers` (so `hasse_dot`) read them.  The isomorphism test, the
    collapse map and the Betti numbers work on codes and supports alone.
    `_columns` keeps the masks the codes come from, which the law harness
    depolarizes and the Betti table `_betti` matches on (see taylor.py),
    and `_of_columns` builds a lattice from masks alone, such as the
    n-spread's (_spread_columns).
    """

    def __init__(self, ambient: int, atoms: tuple[Monomial, ...]):
        if any(a.ambient != ambient for a in atoms):
            raise BadParameterError(f"every atom must lie in ambient {ambient}")
        self.ambient = ambient
        self.atoms = atoms
        rows = [a.exponents for a in atoms]
        self._close(_columns(rows), len(atoms))
        Monomial(_lcm(rows, ambient), ambient)  # the one full check: the rest divide the top

    @classmethod
    def _of_columns(cls, columns: list[list[int]], m: int) -> LcmLattice:
        """The lattice of m atoms with these threshold masks (see
        _columns), with no `ambient` or `atoms` to decode; the caller
        vouches for the top, the one check the columns cannot run."""
        L = cls.__new__(cls)
        L._close(columns, m)
        return L

    def _close(self, columns: list[list[int]], m: int) -> None:
        """Set the codes of m atoms from their columns, close them under OR
        and run the antichain and MAX_ELEMENTS checks.  The code of atom a
        is bit a of each mask in turn, after a leading 0 (_transpose)."""
        self._columns = columns
        masks = [0]
        for chain in columns:
            masks += chain
        codes = _transpose(masks, m)
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
        self._atom_at = tuple(self._at[g] for g in codes)
        self._support = tuple(support[c] for c in self._codes)
        self._covers = None

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
        """(fields, where) of the codes for taylor._decode: per distinct
        column of the atom rows, in order of first occurrence, the (shift,
        mask, values) of its field, the first field the most significant;
        and each variable's column."""
        # with no atoms every column is zero: one zero row keeps `where` whole
        rows = [a.exponents for a in self.atoms] or [(0,) * self.ambient]
        columns: dict[tuple[int, ...], int] = {}  # distinct column -> its place
        where = [columns.setdefault(c, len(columns)) for c in zip(*rows)]
        shift = sum(map(len, self._columns))
        fields = []
        for column in columns:
            vs = sorted({0, *column})
            shift -= len(vs) - 1
            fields.append((shift, (1 << len(vs) - 1) - 1, vs))
        return fields, where

    @cached_property
    def _below(self) -> list[int]:
        """below[k]: the elements v <= element k, built when first read.

        v <= u iff support(u) holds support(v), so below(u) is the complement
        of the union of the up-sets of the atoms outside support(u).  The
        up-set of atom a is bit a of each support, the last element's the
        most significant: one transpose."""
        m = len(self._atom_at)
        full, atoms = (1 << len(self._codes)) - 1, (1 << m) - 1
        ups = _transpose(self._support[::-1], m)
        return [full ^ u for u in _subset_ors(ups, [atoms ^ s for s in self._support])]

    @cached_property
    def _betti(self) -> dict[int, dict[int, int]]:
        """element index -> {i: b_i}, its nonzero multigraded Betti numbers
        of the quotient, built when first read by one pass of the element
        matchings (taylor._homology) over the atom codes and the threshold
        masks; TooLargeError past MAX_TAYLOR_ATOMS atoms."""
        m = len(self._atom_at)
        if m > MAX_TAYLOR_ATOMS:
            raise TooLargeError(f"{m} atoms exceed the Betti cap of {MAX_TAYLOR_ATOMS}")
        lcms = [0]  # lcms[S]: the code of the join of the atom subset S
        for i in self._atom_at:
            g = self._codes[i]
            lcms += [x | g for x in lcms]
        at = self._at
        return {at[c]: b for c, b in _homology(_keep(self._columns, m), lcms).items()}

    def _element(self, k: int) -> Monomial:
        """Element k alone, decoded from its code."""
        return Monomial._trusted(_decode([self._codes[k]], *self._fields)[0], self.ambient)

    @property
    def bottom(self) -> Monomial:
        return self._element(0)

    @property
    def top(self) -> Monomial:
        return self._element(len(self) - 1)

    def atom_support(self, u: Monomial) -> frozenset[int]:
        """Indices of the atoms lying below u (the maximal atom subset)."""
        mask = self._support[self.index(u)]
        return frozenset(a for a in range(len(self._atom_at)) if mask >> a & 1)

    def leq(self, u: Monomial, v: Monomial) -> bool:
        i, j = self.index(u), self.index(v)
        return bool(self._below[j] >> i & 1)

    def join(self, u: Monomial, v: Monomial) -> Monomial:
        return self.elements[self._join(self.index(u), self.index(v))]

    def meet(self, u: Monomial, v: Monomial) -> Monomial:
        """Greatest common lower bound inside the lattice (not the gcd)."""
        i, j = self.index(u), self.index(v)
        common = self._below[i] & self._below[j]
        w = common.bit_length() - 1
        if w < 0 or common != self._below[w]:
            raise InvariantViolation(f"meet of {u}, {v} escaped the lattice")
        return self.elements[w]

    def _join(self, i: int, j: int) -> int:
        return self._at[self._codes[i] | self._codes[j]]

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


def _columns(rows: list[tuple[int, ...]]) -> list[list[int]]:
    """The threshold masks of the generator rows: per distinct nonzero column
    of exponents, in order of first occurrence, the chain of masks of its
    values v > 0 (the rows with exponent >= v, bit i for row i), from the
    highest v down, each once: the distinct columns of the standard
    polarization.  The masks of a chain grow, as sets and as ints."""
    out = []
    for column in dict.fromkeys(zip(*rows)):
        at: dict[int, int] = {}  # nonzero exponent -> mask of the rows with it
        for i, e in enumerate(column):
            if e:
                at[e] = at.get(e, 0) | 1 << i
        chain, mask = [], 0
        for v in sorted(at, reverse=True):
            mask |= at[v]
            chain.append(mask)
        if chain:
            out.append(chain)
    return out


def _spread_columns(blocks: list[list[tuple[int, int]]], n: int) -> list[list[int]]:
    """The threshold masks of the n-spread in the form _columns gives, from
    the generators' smooth._blocks alone.

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


def _transpose(rows: list[int], m: int) -> list[int]:
    """Per a < m, bit a of each row in turn, the first row the most
    significant, read as one int.  One byte string per 8 bits holds those
    bits of every row, and translating it writes bit a of each as a binary
    digit, in time linear in the number of rows."""
    planes = [bytes([row >> lo & 255 for row in rows]) for lo in range(0, m, 8)]
    return [int(planes[a >> 3].translate(_BIT_DIGITS[a & 7]), 2) for a in range(m)]


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


@dataclass(frozen=True)
class LatticeMap:
    """A total map between two lcm-lattices, stored value-wise."""

    source: LcmLattice
    target: LcmLattice
    mapping: Mapping[Monomial, Monomial]


def _atom_step_failure(
    source: LcmLattice, target: LcmLattice, image: Sequence[int]
) -> tuple[int, int] | None:
    """The first (element s, atom a) index pair, elements and atoms in
    order, with image[s join a] != image[s] join image[a]; else None."""
    codes, at, tcodes, tat = source._codes, source._at, target._codes, target._at
    for k, d in enumerate(image):
        for a in source._atom_at:  # the two joins, each one OR of codes
            if image[at[codes[k] | codes[a]]] != tat[tcodes[d] | tcodes[image[a]]]:
                return k, a
    return None


def is_isomorphic(L1: LcmLattice, L2: LcmLattice) -> dict[Monomial, Monomial] | None:
    """Search for a join- and meet-preserving bijection between two lattices.

    Returns the witnessing element bijection, decoded only on a hit, or None.
    """
    image = _atom_image(L1, L2)
    if image is None:
        return None
    target = dict(zip(L2._support, L2.elements))
    return {e: target[s] for e, s in zip(L1.elements, _subset_ors(image, L1._support))}


def _atom_image(L1: LcmLattice, L2: LcmLattice) -> list[int] | None:
    """An atom bijection carrying the atom supports of L1 onto those of L2.

    An isomorphism of atomistic lattices is a bijection of atoms carrying
    the family of atom supports of L1 onto that of L2.  The atoms of L1 are
    assigned in order, each to the first free atom of L2 for which the
    supports made of assigned atoms correspond both ways.  Returns the first
    complete assignment, image[a] the bit of the L2 atom of atom a, or None.
    """
    m = len(L1._atom_at)
    if len(L1) != len(L2) or m != len(L2._atom_at):
        return None
    closing: list[list[list[int]]] = [[] for _ in range(m)]
    for s in L1._support:  # each nonempty support, under its highest atom
        if s:
            closing[s.bit_length() - 1].append([a for a in range(m) if s >> a & 1])
    target = set(L2._support)
    holding = [[t for t in L2._support if t >> b & 1] for b in range(m)]
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


def build_delta(I: MonomialIdeal) -> LatticeMap:
    """The collapse map from the lattice of the n-spread back onto L_I.

    delta(s) is the join of the source atoms whose spreads lie below s.  It
    is the collapse map, sending the lcm of any spread generators to the lcm
    of their originals, exactly when it preserves joins.  That fails for
    some ideals: the spread-side lcm only remembers, per variable, the union
    of offset intervals, and distinct source lcms can produce identical
    unions (e.g. (x2^3*x3, x1^2*x3, x1*x2*x3^2) in three variables, where
    the spread lattice has fewer elements than the source lattice).  Then no
    collapse map exists and WellDefinednessViolation is raised, naming the
    first element s and atom a, in order, with delta(s join a) !=
    delta(s) join delta(a).

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

    Spread atom k is the spread of source atom k, as spreading by t >= n
    keeps the order of the generators (see spread_ideal).
    """
    return _delta_on(build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, I.ambient)))


def _delta_on(src: LcmLattice, spr: LcmLattice) -> LatticeMap:
    """The collapse map of spr onto src, decided by the support lemma; a
    collapse decodes only the 3 elements it names."""
    codes = [src._codes[i] for i in src._atom_at]  # source code of each spread atom
    # the OR of the source codes of the atoms below each spread element
    delta = [src._at[c] for c in _subset_ors(codes, spr._support)]
    if not set(src._support) <= set(spr._support):  # the support lemma
        k, s = _atom_step_failure(spr, src, delta)  # the witness the lemma promises
        up, want = spr._join(k, s), src._join(delta[k], delta[s])
        raise WellDefinednessViolation(
            f"spreading collapsed the lcm-lattice: {spr._element(up)} is the "
            f"lcm of spread generator subsets with different source lcms "
            f"{src._element(delta[up])} and {src._element(want)}; "
            f"no collapse map exists"
        )
    mapping = {e: src.elements[d] for e, d in zip(spr.elements, delta)}
    return LatticeMap(source=spr, target=src, mapping=mapping)


def verify_delta(delta: LatticeMap) -> bool:
    """True iff the map is join-preserving, onto, and fixes the bottom.

    Joins are checked by the atom step f(s join a) = f(s) join f(a) for
    every source element s and atom a.  Each element is the join of its
    atoms, so adding them one at a time gives f(s) >= f(bottom) for every s;
    as some s maps onto the target bottom, an onto map that passes the atom
    step fixes the bottom, which is therefore not checked on its own.  Then
    induction on the atoms of t gives f(s join t) = f(s) join f(t) for all
    s, t, as every lcm-lattice is atomistic.
    """
    src, tgt, f = delta.source, delta.target, delta.mapping
    if set(f) != set(src.elements):
        return False
    if set(f.values()) != set(tgt.elements):
        return False
    image = [tgt.index(f[e]) for e in src.elements]
    return _atom_step_failure(src, tgt, image) is None


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
