"""lcm-lattices: construction, isomorphism testing, and the collapse map.

The lcm-lattice of a monomial ideal consists of all least common multiples
of subsets of the minimal generators (the empty subset contributing 1),
ordered by divisibility.  It is atomistic with the generators as atoms; the
join of two elements is their lcm, the meet is the greatest common lower
bound *within the lattice* (which may properly divide the gcd).

Polarization keeps the lcm-lattice (Gasharov, Peeva and Welker, "The
lcm-lattice in monomial resolutions", 1999), and after polarization an lcm
is a union of variables.  So each element is stored as a Python int, the
set of polarized variables of its exponent vector: the join is one OR and
divisibility is a subset test.  Elements are listed in increasing code
order, which is lexicographic order of the exponent vectors and puts every
divisor before its multiples.  Each element also carries two int bitmasks
built once in the constructor: its atom support and the elements below it.
An atomistic lattice is fixed by its family of atom supports: u <= v iff
support(u) is contained in support(v), and an isomorphism is a permutation
of atoms carrying one family onto the other.  The common lower bounds
below(u) & below(v) are the down-set of the meet, whose index is their
highest bit, so no gcd is needed.

A map f out of an atomistic lattice with f(bottom) = bottom preserves all
joins iff f(s join a) = f(s) join f(a) for every element s and atom a (the
atom step): peeling the atoms b_1, ..., b_m of t off one at a time gives
f(s join t) = f(s) join f(b_1) join ... join f(b_m) = f(s) join f(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Mapping, Sequence

from .errors import (
    BadParameterError,
    InvariantViolation,
    TooLargeError,
    WellDefinednessViolation,
)
from .monomials import Monomial, MonomialIdeal, spread_ideal

MAX_ATOMS = 20
MAX_ELEMENTS = 1 << 14  # each element keeps a mask as long as the lattice


class LcmLattice:
    """The lcm-lattice of an antichain of monomials, the atoms kept in order.

    Each atom gets one int code, the polarization of its exponent vector
    after a rank step.  Per column, an exponent is replaced by its rank in
    {0} together with that column's atom exponents, and the rank r is
    written in unary (r low bits set) in a field as wide as the number of
    distinct nonzero values.  Only the first occurrence of each distinct
    column gets a field, earlier ones more significant.  Within a field, OR
    is max and a subset is a smaller rank, so the code of an lcm is the OR
    of the codes, u divides v iff code(u) is a subset of code(v), and the
    int order of codes is the lexicographic order of exponent vectors: two
    elements first differ in a column unlike every earlier one, as equal
    columns give them equal values.  The rank step changes no lcm or
    divisibility, as the ranks keep each column's order of exponents, and
    it keeps a field at most as wide as the number of atoms: unary fields
    of raw exponents could be 2^16 bits wide per variable.

    The elements are the OR-closure of the atom codes, each one carrying
    its atom support; its exponent vector is computed once, when its code
    first appears.  BadParameterError is raised when the atoms are not an
    antichain of non-units, i.e. some atom lies below another or at 1.
    """

    __slots__ = (
        "ambient", "atoms", "elements", "_index", "_codes", "_at", "_below",
        "_atom_at", "_support", "_covers",
    )

    def __init__(self, ambient: int, atoms: tuple[Monomial, ...]):
        if any(a.ambient != ambient for a in atoms):
            raise BadParameterError(f"every atom must lie in ambient {ambient}")
        self.ambient = ambient
        self.atoms = atoms
        rows = [a.exponents for a in atoms]
        # a leading 0 per atom, then each distinct column's field: one join
        # per atom keeps this linear in the ambient, where shifting is not
        fields = [["0"] * len(atoms)]
        for column in dict.fromkeys(zip(*rows)):
            values = sorted(set(column) | {0})
            width = len(values) - 1
            unary = {v: "0" * (width - r) + "1" * r for r, v in enumerate(values)}
            fields.append([unary[v] for v in column])
        codes = [int("".join(f), 2) for f in zip(*fields)]
        exps = {0: (0,) * ambient}  # code -> exponent vector
        support = {0: 0}  # code -> mask of the atoms below it
        for a, (g, row) in enumerate(zip(codes, rows)):
            bit = 1 << a
            for e, s in list(support.items()):
                f = e | g
                if f in support:
                    support[f] |= s | bit
                else:
                    support[f] = s | bit
                    exps[f] = tuple(map(max, exps[e], row))
            if len(support) > MAX_ELEMENTS:
                raise TooLargeError(f"lcm-lattice exceeds the cap of {MAX_ELEMENTS} elements")
        if support[0] or any(support[g] != 1 << a for a, g in enumerate(codes)):
            raise BadParameterError("atoms must be pairwise incomparable non-units")
        self._codes = sorted(support)
        self._at = {c: k for k, c in enumerate(self._codes)}
        self._atom_at = tuple(self._at[g] for g in codes)
        self._support = tuple(support[c] for c in self._codes)
        *rest, top = self._codes
        self.elements = tuple(Monomial._trusted(exps[c], ambient) for c in rest) + (
            Monomial(exps[top], ambient),  # the one full check: the rest divide it
        )
        self._index = {e: k for k, e in enumerate(self.elements)}
        ups = [0] * len(atoms)  # ups[a]: the elements above atom a
        for k, s in enumerate(self._support):
            while s:
                low = s & -s
                ups[low.bit_length() - 1] |= 1 << k
                s ^= low
        # v <= u iff support(u) holds support(v): below(u) is the AND of the
        # complements of the up-sets of the atoms outside support(u), read
        # per 4 atoms from tables over the 16 subsets
        full = (1 << len(self._codes)) - 1
        tables = []
        for lo in range(0, len(atoms), 4):
            outside = [full]
            for up in ups[lo:lo + 4]:
                outside += [x & ~up for x in outside]
            tables.append((lo, outside[::-1]))
        self._below = []
        for s in self._support:
            below = full
            for lo, outside in tables:
                below &= outside[s >> lo & 15]
            self._below.append(below)
        self._covers = None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, u: Monomial) -> bool:
        return u in self._index

    def index(self, u: Monomial) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise BadParameterError(f"{u} is not a lattice element") from None

    @property
    def bottom(self) -> Monomial:
        return self.elements[0]

    @property
    def top(self) -> Monomial:
        return self.elements[-1]

    def atom_support(self, u: Monomial) -> frozenset[int]:
        """Indices of the atoms lying below u (the maximal atom subset)."""
        mask = self._support[self.index(u)]
        return frozenset(a for a in range(len(self.atoms)) if mask >> a & 1)

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

    def crosscut_faces(self, u: Monomial) -> tuple[int, list[int]]:
        """The smaller crosscut of [bottom, u] and the faces of its complex.

        The atoms below u form one crosscut, whose faces are the atom sets
        with join strictly below u; the lower covers of u form the other,
        whose faces are the cover sets with a common lower bound above the
        bottom.  Both complexes have the homology of the open interval
        (bottom, u).  The atoms are used unless u has fewer lower covers.
        An atom set joins to u iff the OR of its codes is the code of u, i.e.
        iff no bit of u's code lies outside all of them.
        Returns (k, faces): the crosscut's size k and its faces as masks over
        its members 0..k-1 in increasing mask order, the empty face included.
        """
        k = self.index(u)
        code, support = self._codes[k], self._support[k]
        rests = [code ^ self._codes[i] for a, i in enumerate(self._atom_at) if support >> a & 1]
        downs: list[int] = []  # the down-sets of the lower covers, while fewer
        rest = self._below[k] ^ 1 << k
        while rest and len(downs) < len(rests):  # the highest bit left is a cover
            i = rest.bit_length() - 1
            downs.append(self._below[i])
            rest &= ~self._below[i]
        if len(downs) < len(rests):
            return len(downs), _crosscut(downs, self._below[k], self._below[0])
        return len(rests), _crosscut(rests, code, 0)


def _crosscut(masks: list[int], start: int, trivial: int) -> list[int]:
    """The sets s of masks whose AND with `start` is not `trivial`, as bit sets.

    The AND only shrinks as a set grows, so a superset of a non-face is none
    either; faces come in increasing order.
    """
    common = [start]  # common[s]: the AND over s, or None once it is trivial
    for s in range(1, 1 << len(masks)):
        low = s & -s
        c = common[s ^ low]
        if c is not None:
            c &= masks[low.bit_length() - 1]
            if c == trivial:
                c = None
        common.append(c)
    return [s for s, c in enumerate(common) if c is not None]


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

    An isomorphism of atomistic lattices is a bijection of atoms carrying
    the family of atom supports of L1 onto that of L2.  The atoms of L1 are
    assigned in order, each to the first free atom of L2 for which the
    supports made of assigned atoms correspond both ways; the first complete
    assignment is extended to the elements.  Returns the witnessing element
    bijection, or None.
    """
    m = len(L1.atoms)
    if len(L1) != len(L2) or m != len(L2.atoms):
        return None
    closing: list[list[list[int]]] = [[] for _ in range(m)]
    for s in L1._support:  # each nonempty support, under its highest atom
        if s:
            closing[s.bit_length() - 1].append([a for a in range(m) if s >> a & 1])
    target = dict(zip(L2._support, L2.elements))
    holding = [[t for t in L2._support if t >> b & 1] for b in range(m)]
    image = [0] * m  # image[a]: the bit of the L2 atom assigned to atom a

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

    if not place(0, 0):
        return None
    return {
        e: target[sum(image[a] for a in range(m) if s >> a & 1)]
        for e, s in zip(L1.elements, L1._support)
    }


def build_delta(I: MonomialIdeal) -> LatticeMap:
    """The collapse map from the lattice of the n-spread back onto L_I.

    delta(s) is the join of the source atoms whose spreads lie below s.  It
    is the collapse map, sending the lcm of any spread generators to the lcm
    of their originals, exactly when delta(s join sigma(a)) = delta(s) join a
    for every element s and atom a, which is verified (the atom step, as
    spreading keeps generators incomparable and so delta(sigma(a)) = a).
    That fails for some ideals: the spread-side lcm only remembers, per
    variable, the union of offset intervals, and distinct source lcms can
    produce identical unions (e.g. (x2^3*x3, x1^2*x3, x1*x2*x3^2) in three
    variables, where the spread lattice has fewer elements than the source
    lattice).  Then no collapse map exists and WellDefinednessViolation is
    raised.

    Spread atom k is the spread of source atom k, as spreading by t >= n
    keeps the order of the generators (see spread_ideal).
    """
    src = build_lcm_lattice(I)
    spr = build_lcm_lattice(spread_ideal(I, I.ambient))
    codes = [src._codes[i] for i in src._atom_at]  # source code of each spread atom
    delta = [  # the OR of the source codes of the atoms below each spread element
        src._at[reduce(or_, (c for b, c in enumerate(codes) if s >> b & 1), 0)]
        for s in spr._support
    ]
    failure = _atom_step_failure(spr, src, delta)
    if failure is not None:
        k, s = failure
        up, want = spr._join(k, s), src._join(delta[k], delta[s])
        raise WellDefinednessViolation(
            f"spreading collapsed the lcm-lattice: {spr.elements[up]} is the "
            f"lcm of spread generator subsets with different source lcms "
            f"{src.elements[delta[up]]} and {src.elements[want]}; "
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
    lines = ["digraph lcm_lattice {"]
    for e in L.elements:
        lines.append(f'  "{e}";')
    for i, j in L.covers():
        lines.append(f'  "{L.elements[i]}" -> "{L.elements[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
