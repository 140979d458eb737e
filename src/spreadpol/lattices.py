"""lcm-lattices: construction, isomorphism testing, and the collapse map.

The lcm-lattice of a monomial ideal consists of all least common multiples
of subsets of the minimal generators (the empty subset contributing 1),
ordered by divisibility.  It is atomistic with the generators as atoms; the
join of two elements is their lcm, the meet is the greatest common lower
bound *within the lattice* (which may properly divide the gcd).

Elements are listed with every divisor before its multiples, and each one
carries three Python-int bitmasks built once in the constructor: the
elements below it and above it (from per-variable exponent slabs) and its
atom support.  In a lattice the common upper bounds above(u) & above(v) are
exactly the up-set of the join, so the join is their lowest bit; dually the
common lower bounds below(u) & below(v) are the down-set of the meet, their
highest bit, and no gcd is needed.  An atomistic lattice is fixed by its
family of atom supports, so an isomorphism is a permutation of atoms
carrying one family onto the other.

A map f out of an atomistic lattice with f(bottom) = bottom preserves all
joins iff f(s join a) = f(s) join f(a) for every element s and atom a (the
atom step): peeling the atoms b_1, ..., b_m of t off one at a time gives
f(s join t) = f(s) join f(b_1) join ... join f(b_m) = f(s) join f(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

from .errors import (
    BadParameterError,
    InvariantViolation,
    TooLargeError,
    WellDefinednessViolation,
)
from .monomials import Monomial, MonomialIdeal, spread_ideal, sigma_t

MAX_ATOMS = 20
MAX_ELEMENTS = 1 << 14  # each element keeps two masks as long as the lattice


class LcmLattice:
    """A finite lattice of monomials under divisibility, with its atoms.

    `elements` must be distinct and list every divisor before its multiples
    (build_lcm_lattice sorts them); every atom must be an element.
    """

    __slots__ = (
        "ambient", "atoms", "elements", "_index", "_below", "_above",
        "_atom_at", "_support", "_covers",
    )

    def __init__(self, ambient: int, atoms: tuple[Monomial, ...],
                 elements: tuple[Monomial, ...]):
        self.ambient = ambient
        self.atoms = atoms
        self.elements = elements
        self._index = {e: k for k, e in enumerate(elements)}
        full = (1 << len(elements)) - 1
        below, above = [full] * len(elements), [full] * len(elements)
        for column in zip(*(e.exponents for e in elements)):
            slab = dict.fromkeys(sorted(set(column)), 0)  # value -> elements at it
            for k, v in enumerate(column):
                slab[v] |= 1 << k
            at_most, acc = {}, 0
            for v, mask in slab.items():
                acc |= mask
                at_most[v] = acc
            for k, v in enumerate(column):
                below[k] &= at_most[v]
                above[k] &= full ^ at_most[v] ^ slab[v]
        if any(mask >> k != 1 for k, mask in enumerate(below)):
            raise BadParameterError("lattice elements must be distinct, divisors first")
        self._below, self._above = below, above
        self._atom_at = tuple(self.index(a) for a in atoms)
        self._support = tuple(
            sum(1 << a for a, i in enumerate(self._atom_at) if mask >> i & 1)
            for mask in below
        )
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
        common = self._above[i] & self._above[j]
        w = (common & -common).bit_length() - 1
        if w < 0 or common != self._above[w]:
            raise InvariantViolation(
                f"lattice not join-closed at {self.elements[i]}, {self.elements[j]}"
            )
        return w

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

    def crosscut_faces(self, u: Monomial) -> list[int]:
        """Faces of the atom crosscut complex of [bottom, u], as atom masks.

        A face is a set of atoms below u whose join lies strictly below u,
        the empty set included; faces come in increasing mask order.
        """
        k = self.index(u)
        support, top = self._support[k], self._above[k]
        upper = {0: self._above[0]}  # face -> its atoms' common upper bounds
        sub = 0
        while True:
            sub = (sub - support) & support  # next submask in increasing order
            if not sub:
                return list(upper)
            low = sub & -sub
            common = upper.get(sub ^ low)
            if common is not None:  # a superset of a non-face is none either
                common &= self._above[self._atom_at[low.bit_length() - 1]]
                if common != top:
                    upper[sub] = common


def build_lcm_lattice(I: MonomialIdeal) -> LcmLattice:
    """All subset lcms of the minimal generators, deduplicated and sorted."""
    atoms = I.generators
    if len(atoms) > MAX_ATOMS:
        raise TooLargeError(
            f"{len(atoms)} generators exceed the lattice cap of {MAX_ATOMS}"
        )
    elems = {(0,) * I.ambient}
    for atom in atoms:
        elems |= {tuple(map(max, e, atom.exponents)) for e in elems}
        if len(elems) > MAX_ELEMENTS:
            raise TooLargeError(f"lcm-lattice exceeds the cap of {MAX_ELEMENTS} elements")
    elements = tuple(Monomial(e, I.ambient) for e in sorted(elems))
    return LcmLattice(I.ambient, atoms, elements)


@dataclass(frozen=True)
class LatticeMap:
    """A total map between two lcm-lattices, stored value-wise."""

    source: LcmLattice
    target: LcmLattice
    mapping: Mapping[Monomial, Monomial]


def _require_atomistic(*lattices: LcmLattice) -> None:
    if any(len(set(L._support)) != len(L) for L in lattices):
        raise BadParameterError("lattice elements are not determined by their atom sets")


def _atom_step_failure(
    source: LcmLattice, target: LcmLattice, image: Sequence[int], atoms: Sequence[int]
) -> tuple[int, int] | None:
    """The first (element s, atom a) index pair, elements in order and atoms
    as given, with image[s join a] != image[s] join image[a]; else None."""
    for k, d in enumerate(image):
        for a in atoms:
            if image[source._join(k, a)] != target._join(d, image[a]):
                return k, a
    return None


def is_isomorphic(L1: LcmLattice, L2: LcmLattice) -> dict[Monomial, Monomial] | None:
    """Search for a join- and meet-preserving bijection between two lattices.

    An isomorphism of atomistic lattices is a bijection of atoms carrying
    the family of atom supports of L1 onto that of L2.  The atoms of L1 are
    assigned in order, each to the first free atom of L2 for which the
    supports made of assigned atoms correspond both ways; the first complete
    assignment is extended to the elements.  Returns the witnessing element
    bijection, or None.  Raises BadParameterError for a lattice whose
    elements are not determined by their atom supports.
    """
    _require_atomistic(L1, L2)
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
    """
    n = I.ambient
    src = build_lcm_lattice(I)
    spread = spread_ideal(I, n)
    spr = build_lcm_lattice(spread)
    lifted = [spr.index(sigma_t(g, n).in_ambient(spread.ambient)) for g in src.atoms]
    delta = [  # source atoms whose spreads lie below each spread element, joined
        reduce(src._join, (i for i, s in zip(src._atom_at, lifted) if below >> s & 1), 0)
        for below in spr._below
    ]
    failure = _atom_step_failure(spr, src, delta, lifted)
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
    every source element s and atom a.  Once f(bottom) = bottom, induction
    on the atoms of t gives f(s join t) = f(s) join f(t) for all s, t, as
    each element is the join of its atoms.  That needs an atomistic source:
    BadParameterError is raised for one whose elements are not determined
    by their atom supports.
    """
    src, tgt, f = delta.source, delta.target, delta.mapping
    _require_atomistic(src)
    if set(f) != set(src.elements):
        return False
    if f[src.bottom] != tgt.bottom:
        return False
    if set(f.values()) != set(tgt.elements):
        return False
    image = [tgt.index(f[e]) for e in src.elements]
    return _atom_step_failure(src, tgt, image, src._atom_at) is None


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
