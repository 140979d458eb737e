"""Exact desk-scale oracles for depth and Stanley depth, plus the law harness.

Depth is read off multigraded Betti numbers: at every lcm-lattice element m
above the bottom, b_{i,m} of the quotient equals the reduced homology (over
the two-element field) of the open interval (1, m), in dimension i-2
(Gasharov, Peeva and Welker, 1999).  The lattice holds b_{i,m} for every m
in one table (lattices.LcmLattice._betti), filled in one pass of the
element matchings of Batzies and Welker (J. reine angew. Math. 543, 2002)
on its atom codes and threshold masks (see taylor.py), and
order_complex_betti reads the homology of (1, m) back from it.  The
projective dimension is the largest i carrying a nonzero entry and depth is
the ambient count minus it.

Stanley depth is computed on the characteristic poset: all exponent vectors
c <= g (g the lcm of the generators), split by membership of x^c in the
ideal.  A partition of one side into boxes [a, b] is scored by the smallest
number of coordinates of any upper corner b that are saturated (b_j = g_j);
Stanley depth is the best score over all partitions, found by a
branch-and-bound search from the largest conceivable score downwards
(Herzog, Vladoiu and Zheng, J. Algebra 2009).  The grid cap bounds the
points but not the search, so the search raises TooLargeError once it has
memoized more than MAX_SDEPTH_STATES failed states.

Every point set of that search is a Python int used as a bitmask over the
grid, bit i standing for the i-th point in itertools.product order.  The
characteristic poset is that grid as one object: the table decoding bits to
points, the ideal side as one mask, and per coordinate j and value v the
slabs x_j >= v and x_j <= v.  The up-set and the down-set of a point, the
generator up-sets (whose union is the ideal side) and a box [a, c] =
up(a) & down(c) are intersections of slabs.  A box lies in a side exactly
when it has no bit outside the side's mask.  Grid order is lexicographic,
so "least uncovered point" is the lowest free bit and candidate upper
corners are tried from the highest bit down.

Two rules shrink the grid, each Stanley depth shifting by what they remove:
a free coordinate (g_j = 0) adds exactly 1 (Herzog, Vladoiu and Zheng, J.
Algebra 2009, Lemma 3.6), and so does each variable depolarization removes.
So the grid spans only the used coordinates and counts a free one as
saturated everywhere; a public report writes 0 there in each box corner.
The law harness works on threshold masks alone: per x_j and distinct value
v > 0 of it, the generators with x_j-exponent >= v, as a bitmask.  They are
the distinct columns of the standard polarization, whose repeats are copies
of one variable, so dropping them (the rank step, see taylor._columns)
keeps the lcm-lattice.  The harness builds no lattice from them: its
projective dimension is the largest size of a nonzero entry of
taylor._homology on the masks (the pass that fills LcmLattice._betti), its
isomorphism verdict compares irreducible masks (below), and it
depolarizes them for Stanley depth.  The masks of each x_j form a chain
under inclusion.
Chains whose union is a chain are merged as sets of masks, which never
enlarges the grid (a + b + 1 <= (a + 1)(b + 1)), and each chain is one
variable of an ideal J, where a generator's exponent is the number of the
chain's masks that hold it.  So pol(J) has the distinct columns of pol(I)
up to renaming variables, hence its lcm-lattice, and as Stanley depth minus
the number of variables depends on the lcm-lattice alone (Ichim, Katthan
and Moyano-Fernandez, J. Combin. Theory Ser. A 150, 2017; recalled, not
read offline: the tests' comparisons with the full-grid searches are the
check), each Stanley depth of I is that of J plus ambient(I) - ambient(J).
Depth needs neither rule: a free column adds nothing to an atom code (see
lattices.LcmLattice), and the ambient count minus the projective dimension
counts it.  The n-spread's masks come from a sweep over the generators'
blocks, without the spread (lattices._spread_columns).  The source and its
n-spread often depolarize to one J; equal ideals have one poset, so one
harness call searches each distinct J once and reads its scores for both.

The isomorphism lemma and its mask bound are at lattices._irreducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import BadParameterError, TooLargeError
from .lattices import LcmLattice, _atom_image, _irreducible, _spread_columns, build_lcm_lattice
from .monomials import Monomial, MonomialIdeal, _check_ambient_cap, _integer
from .smooth import _blocks, _first_violation
from .taylor import MAX_TAYLOR_ATOMS, _atom_codes, _columns, _homology
MAX_POSET_POINTS = 4096
MAX_SDEPTH_STATES = 1 << 18  # failed search states memoized by one Stanley-depth search


def order_complex_betti(L: LcmLattice, m: Monomial) -> dict[int, int]:
    """Reduced Betti numbers (over GF(2)) of the open interval (bottom, m).

    Read from the lattice's Betti table: b_{i,m} of the quotient is that
    homology in dimension i - 2.  Returns {dimension: rank} with zero ranks
    omitted; the empty interval yields {-1: 1}.  TooLargeError past
    MAX_TAYLOR_ATOMS atoms.
    """
    betti = L._betti
    k = L.index(m)
    if k == 0:
        raise BadParameterError("open interval below the bottom is undefined")
    return {i - 2: b for i, b in betti.get(k, {}).items()}


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers of a quotient, keyed (i, multidegree)."""

    ambient: int
    entries: Mapping[tuple[int, Monomial], int]

    @property
    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)


@dataclass(frozen=True)
class DepthReport:
    ambient: int
    value: int
    betti: BettiTable


@dataclass(frozen=True)
class SdepthReport:
    """A Stanley depth with the box partition that attains it.

    `bound` (the generator lcm g) and both corners of every interval are in
    the ambient of the ideal, with 0 in each free coordinate.
    """

    ambient: int
    value: int
    bound: tuple[int, ...]
    intervals: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def depth_quotient(I: MonomialIdeal) -> DepthReport:
    """Depth of the quotient ring, via lcm-lattice Betti numbers.

    The lattice is built on I itself, so each Betti multidegree is one of its
    elements, decoded once in the ambient of I.
    """
    _check_depth_cap(len(I.generators))
    L = build_lcm_lattice(I)
    entries: dict[tuple[int, Monomial], int] = {(0, L.bottom): 1}
    for e in (L.elements[k] for k in sorted(L._betti)[1:]):  # [0] is the bottom's
        for k, v in order_complex_betti(L, e).items():
            entries[(k + 2, e)] = v
    table = BettiTable(ambient=I.ambient, entries=entries)
    return DepthReport(I.ambient, I.ambient - table.projective_dimension, table)


def _check_depth_cap(m: int) -> None:
    if m > MAX_TAYLOR_ATOMS:
        raise TooLargeError(f"{m} generators exceed the depth cap of {MAX_TAYLOR_ATOMS}")


class CharacteristicPoset:
    """All exponent vectors below the generator lcm g, as one bitmask grid.

    `bound` is g in the ambient of the ideal.  The grid spans only the
    coordinates some generator uses, `used`, so `points` are tuples over
    those coordinates: bit i is points[i], the i-th point of
    itertools.product(range(g_j + 1) for j in used), and the point p sits at
    bit sum(p_j * stride_j); `points` is decoded when first read, as the
    searches read masks alone.  `corner(i)` is points[i] in the ambient of the
    ideal, with 0 in each free coordinate.  `ideal_mask` holds the points
    x^p in the ideal; per used coordinate j and value v, `at_least[j][v]`
    holds the points with p_j >= v, `ups[i]` and `downs[i]` the up-set and
    the down-set of points[i], and `levels` is saturated_at_least(): the
    tables of every search on the poset.
    """

    __slots__ = ("bound", "used", "_points", "full", "stride", "at_least", "ideal_mask",
                 "levels", "ups", "downs")

    def __init__(self, I: MonomialIdeal):
        columns = [(j, column)
                   for j, column in enumerate(zip(*(u.exponents for u in I.generators)))
                   if any(column)]
        self.used = tuple(j for j, _ in columns)
        g = [max(column) for _, column in columns]
        size = 1
        for gj in g:
            size *= gj + 1
            if size > MAX_POSET_POINTS:
                raise TooLargeError(
                    f"characteristic poset exceeds {MAX_POSET_POINTS} points"
                )
        bound = [0] * I.ambient
        for j, gj in zip(self.used, g):
            bound[j] = gj
        self.bound = tuple(bound)
        self.full = (1 << size) - 1
        self.stride: list[int] = []
        self.at_least: list[list[int]] = []
        self.ups, self.downs = [self.full], [self.full]
        stride = size
        for gj in g:
            stride //= gj + 1
            period = stride * (gj + 1)
            repeat = self.full // ((1 << period) - 1)
            self.stride.append(stride)
            least = [repeat * ((1 << period) - (1 << v * stride)) for v in range(gj + 1)]
            most = [repeat * ((1 << (v + 1) * stride) - 1) for v in range(gj + 1)]
            self.at_least.append(least)
            self.ups = [mask & slab for mask in self.ups for slab in least]
            self.downs = [mask & slab for mask in self.downs for slab in most]
        self.ideal_mask = 0
        for u in I.generators:
            bit = sum(u.exponents[j] * stride for j, stride in zip(self.used, self.stride))
            self.ideal_mask |= self.ups[bit]
        self.levels = self.saturated_at_least()

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        if not hasattr(self, "_points"):
            self._points = tuple(itertools.product(*(range(self.bound[j] + 1) for j in self.used)))
        return self._points

    def down_closure(self, mask: int) -> int:
        for stride, slabs in zip(self.stride, self.at_least):
            for _ in range(len(slabs) - 1):
                mask |= (mask & slabs[1]) >> stride
        return mask

    def saturated_at_least(self) -> list[int]:
        """Entry k: points with at least k coordinates saturated (p_j = g_j).

        A free coordinate is saturated at every point, so the first entries,
        one per free coordinate and one more, are the whole grid.
        """
        levels = [self.full] + [0] * len(self.used)
        for j, slabs in enumerate(self.at_least):
            for k in range(j + 1, 0, -1):
                levels[k] |= levels[k - 1] & slabs[-1]
        return [self.full] * (len(self.bound) - len(self.used)) + levels

    def side_mask(self, ideal_side: bool) -> int:
        return self.ideal_mask if ideal_side else self.full & ~self.ideal_mask

    def corner(self, i: int) -> tuple[int, ...]:
        """points[i] in the ambient of the ideal, with 0 in each free coordinate."""
        out = [0] * len(self.bound)
        for j, v in zip(self.used, self.points[i]):
            out[j] = v
        return tuple(out)


def build_characteristic_poset(I: MonomialIdeal) -> CharacteristicPoset:
    """The characteristic poset of I; TooLargeError past MAX_POSET_POINTS."""
    return CharacteristicPoset(I)


def _box_partition_value(
    poset: CharacteristicPoset, side: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Best achievable min-score over box partitions of the points in `side`,
    with the winning boxes as sorted (lower, upper) point-index pairs.

    Branch and bound on a target score k, high to low: repeatedly take the
    least uncovered point and try to close it off with a box whose upper
    corner saturates at least k coordinates of g.  The search starts at the
    largest k for which every point of the side has such a corner above it.
    """
    n = len(poset.bound)
    if not side:
        return n, ()
    start = n
    while side & ~poset.down_closure(side & poset.levels[start]):
        start -= 1

    outside = poset.full & ~side
    for k in range(start, -1, -1):
        result = _box_search(poset.full, outside, side & poset.levels[k], poset.ups, poset.downs)
        if result is not None:
            return k, tuple(sorted(result))
    raise AssertionError("score 0 partition into singletons always exists")


def _box_search(full, outside, uppers, ups, downs) -> list[tuple[int, int]] | None:
    """Depth-first search for a box partition of the grid minus `outside`.

    The state is the blocked set: points covered so far or outside the side,
    so a box is usable exactly when it meets no blocked bit.  Each stack
    frame holds [blocked, a, untried, c]: the least free point a, the upper
    corners in `uppers` above a not yet tried, and the corner c whose box
    led to the frame above it.  States that admit no partition are memoized;
    TooLargeError is raised once more than MAX_SDEPTH_STATES are.
    """
    failed: set[int] = set()

    def frame(blocked: int) -> list[int]:
        a = (~blocked & (blocked + 1)).bit_length() - 1
        return [blocked, a, ups[a] & uppers, -1]

    stack = [frame(outside)]
    while stack:
        top = stack[-1]
        blocked, a, untried, _ = top
        up_a = ups[a]
        while untried:
            c = untried.bit_length() - 1
            untried ^= 1 << c
            mask = up_a & downs[c]
            if mask & blocked:
                continue
            nxt = blocked | mask
            top[2], top[3] = untried, c
            if nxt == full:
                return [(f[1], f[3]) for f in stack]
            if nxt not in failed:
                stack.append(frame(nxt))
                break
        else:
            failed.add(blocked)
            if len(failed) > MAX_SDEPTH_STATES:
                raise TooLargeError(
                    f"Stanley-depth search exceeds {MAX_SDEPTH_STATES} failed states"
                )
            stack.pop()
    return None


def sdepth_quotient(I: MonomialIdeal) -> SdepthReport:
    """Stanley depth of the quotient ring, by exact partition search.

    The report's partition is one of I's own grid, which boxes found on a
    depolarization do not lift to; so verify_spreading_laws, which needs no
    partition, answers some inputs this and sdepth_ideal refuse."""
    return _sdepth_on(build_characteristic_poset(I), ideal_side=False)


def sdepth_ideal(I: MonomialIdeal) -> SdepthReport:
    """Stanley depth of the ideal itself, as sdepth_quotient does it."""
    return _sdepth_on(build_characteristic_poset(I), ideal_side=True)


def _sdepth_on(poset: CharacteristicPoset, ideal_side: bool) -> SdepthReport:
    value, boxes = _box_partition_value(poset, poset.side_mask(ideal_side))
    return SdepthReport(
        ambient=len(poset.bound),
        value=value,
        bound=poset.bound,
        intervals=tuple((poset.corner(a), poset.corner(c)) for a, c in boxes),
    )


@dataclass(frozen=True)
class LawCheck:
    name: str
    lhs: int
    relation: str
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs if self.relation == "<=" else self.lhs == self.rhs


@dataclass(frozen=True)
class SpreadingLawsReport:
    """All computed invariants of I and its spreads, with per-law verdicts."""

    ambient: int
    deg: int
    t_values: tuple[int, ...]
    source: tuple[int, int, int]  # depth, sdepth of quotient, sdepth of ideal
    spread: Mapping[int, tuple[int, int, int]]
    smooth: bool
    lattice_isomorphic: bool
    checks: tuple[LawCheck, ...] = field(default=())

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def _compress(columns: list[list[int]], m: int) -> MonomialIdeal:
    """The depolarization J of the ideal of m generators with these threshold
    masks (see taylor._columns and the module docstring): pol(J) has the
    ideal's distinct polarization columns, and no larger a grid."""
    chains: list[set[int]] = []
    for chain in columns:
        for other in chains:
            if all(a & b in (a, b) for a in other for b in chain):
                other.update(chain)
                break
        else:
            chains.append(set(chain))
    # an exponent counts at most m nested masks, so none passes the Monomial cap
    cols = [[0] * m for _ in chains]
    for col, chain in zip(cols, chains):
        for mask in chain:
            while mask:
                col[(mask & -mask).bit_length() - 1] += 1
                mask &= mask - 1
    n = len(chains)
    return MonomialIdeal._from_minimal(n, (Monomial._trusted(row, n) for row in zip(*cols)))


def _stats(what: str, ambient: int, searched: dict[MonomialIdeal, list[int]],
           columns: list[list[int]], m: int) -> tuple[int, int, int]:
    """Depth and both Stanley depths of the ideal in `ambient` of m
    generators with these threshold masks; each TooLargeError is prefixed
    with `what`.  The projective dimension is the largest size of a nonzero
    entry of taylor._homology on the masks.  Both Stanley depth searches run
    on one poset, of the depolarization J of the masks, and decode no box.
    `searched` maps each J already searched in this harness call to its two
    scores, so a J met again is not searched again: equal ideals have one
    poset."""
    try:
        _check_depth_cap(m)
        J = _compress(columns, m)
        if J not in searched:
            poset = build_characteristic_poset(J)
            searched[J] = [_box_partition_value(poset, poset.side_mask(ideal_side))[0]
                           for ideal_side in (False, True)]
        quotient, ideal = searched[J]
        pd = max(map(max, _homology(columns, _atom_codes(columns, m))[1].values()))
        shift = ambient - J.ambient
        return ambient - pd, quotient + shift, ideal + shift
    except TooLargeError as e:
        raise TooLargeError(f"{what}: {e}") from None


def verify_spreading_laws(
    I: MonomialIdeal, t_range: Iterable[int]
) -> SpreadingLawsReport:
    """Compute depth/sdepth across spreads and check every displayed law.

    Checked: the three inequalities comparing the n-spread against the
    source (with equality whenever the two lcm-lattices are isomorphic, in
    particular for smoothly spreadable ideals); the transfer equalities
    linking consecutive spreading steps t >= n; and, for smoothly spreadable
    ideals, the closed-form equalities pinning every spread to the source.

    Only the source and its n-spread are computed, each from its
    threshold masks alone, and no lcm-lattice is built: the projective
    dimension is read off taylor._homology on the masks, the isomorphism
    verdict off the irreducible masks (_irreducible, _atom_image), and the
    Stanley depths off scores; no lattice element, poset point or box
    corner is decoded.  Each Stanley depth is searched on the
    depolarization J of those masks, whose polarization has the
    lcm-lattice of the ideal's, plus the variables J lacks (see the module
    docstring); when the n-spread's J equals the source's, its poset and
    searches are not repeated, and each side adds its own shift.  The
    n-spread is never built: its columns come from the generators' blocks
    (_spread_columns), which also decide smoothness.  No top gets a
    Monomial check, and none can fail it: the source's top has degree at
    most n*d, and the n-spread's is squarefree in n*d variables, so once
    n*d passes _check_ambient_cap each degree is at most MAX_AMBIENT <
    MAX_DEGREE.  A padded t-spread with t > n is the image of the n-spread
    under the strictly increasing SpreadEmbedding.phi: the same generators
    on the used coordinates, with (t - n)*d more free variables.  So its
    invariants are the n-spread's plus (t - n)*d, derived without building
    it, and the transfer equalities hold by construction; the tests check
    them against spreads built in their own ambients.  t*d past MAX_AMBIENT
    is refused.
    """
    n, d = I.ambient, I.deg
    ts = sorted({_integer(t, "t") for t in t_range} | {n})
    if any(t < n for t in ts):
        raise BadParameterError(f"law harness needs t >= n = {n}, got {ts}")

    searched: dict[MonomialIdeal, list[int]] = {}
    m = len(I.generators)
    columns = _columns([u.exponents for u in I.generators])
    source = _stats(f"source ideal in T_{n}", n, searched, columns, m)
    _check_ambient_cap(n * d)
    blocks = [_blocks(u) for u in I.generators]
    spread_columns = _spread_columns(blocks, n)
    n_spread = _stats(f"{n}-spread in T_{n * d}", n * d, searched, spread_columns, m)
    spread_stats = {n: n_spread}
    for t in ts[1:]:
        _check_ambient_cap(t * d)
        spread_stats[t] = tuple(v + (t - n) * d for v in n_spread)

    smooth = _first_violation(blocks, n) is None
    iso = _atom_image(_irreducible(columns), _irreducible(spread_columns), m) is not None

    checks: list[LawCheck] = []

    def law(label, relation, lhs, rhs, step):  # one check per invariant
        checks.extend(
            LawCheck(name=f"{name}: {label}", lhs=x, relation=relation, rhs=y + step)
            for name, x, y in zip(
                ("depth of quotient", "sdepth of quotient", "sdepth of ideal"), lhs, rhs
            )
        )

    shift = n * (d - 1)
    law(f"n-spread bound (t={n})", "<=", spread_stats[n], source, shift)
    for t1, t2 in zip(ts, ts[1:]):
        law(f"transfer t={t1} -> t={t2}", "==", spread_stats[t2], spread_stats[t1],
            (t2 - t1) * d)
    if iso:
        law(f"equality from lattice isomorphism (t={n})", "==", spread_stats[n],
            source, shift)
    if smooth:
        for t in ts:
            law(f"smooth closed form (t={t})", "==", spread_stats[t], source, t * d - n)
    return SpreadingLawsReport(
        ambient=n,
        deg=d,
        t_values=tuple(ts),
        source=source,
        spread=spread_stats,
        smooth=smooth,
        lattice_isomorphic=iso,
        checks=tuple(checks),
    )
