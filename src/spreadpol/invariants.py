"""Exact desk-scale oracles for depth and Stanley depth, plus the law harness.

Depth is read off multigraded Betti numbers: at every lcm-lattice element m
above the bottom, b_{i,m} of the quotient equals the reduced homology (over
the two-element field) of the open interval (1, m), in dimension i-2
(Gasharov, Peeva and Welker, 1999).  By the crosscut theorem (Rota; Bjorner,
"Topological methods", Handbook of Combinatorics 1995, Thm 10.8) that
interval's order complex is homotopy equivalent to the crosscut complex on
the atoms below m: its faces are the atom sets whose join lies strictly
below m, at most 2^k of them for k atoms, so its homology is computed
instead.  The projective dimension is the largest i carrying a nonzero entry
and depth is the ambient count minus it.

Stanley depth is computed on the characteristic poset: all exponent vectors
c <= g (g the lcm of the generators), split by membership of x^c in the
ideal.  A partition of one side into boxes [a, b] is scored by the smallest
number of coordinates of any upper corner b that are saturated (b_j = g_j);
Stanley depth is the best score over all partitions, found by a
branch-and-bound search from the largest conceivable score downwards
(Herzog, Vladoiu and Zheng, J. Algebra 2009).

Every point set of that search is a Python int used as a bitmask over the
whole grid prod(g_j + 1), bit i standing for the i-th point in
itertools.product order.  The characteristic poset is that grid as one
object: the table decoding bits to points, the ideal side as one mask, and
per coordinate j and value v the slabs x_j >= v and x_j <= v.  The up-set
and the down-set of a point, the generator up-sets (whose union is the
ideal side) and a box [a, c] = up(a) & down(c) are intersections of slabs.
A box lies in a side exactly when it has no bit outside the side's mask.
Grid order is lexicographic, so "least uncovered point" is the lowest free
bit and candidate upper corners are tried from the highest bit down.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import BadParameterError, TooLargeError
from .lattices import LcmLattice, build_lcm_lattice, is_isomorphic
from .monomials import Monomial, MonomialIdeal, spread_ideal
from .smooth import is_smoothly_spreadable

MAX_DEPTH_ATOMS = 8
MAX_POSET_POINTS = 4096


def _gf2_rank(rows: Iterable[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def order_complex_betti(L: LcmLattice, m: Monomial) -> dict[int, int]:
    """Reduced Betti numbers (over GF(2)) of the open interval (bottom, m).

    Computed on the crosscut complex of [bottom, m], which has the same
    homology as the order complex of the open interval.  Returns
    {dimension: rank} with zero ranks omitted; the empty interval yields
    {-1: 1}.
    """
    if m == L.bottom:
        raise BadParameterError("open interval below the bottom is undefined")
    levels: list[dict[int, int]] = [{} for _ in range(len(L.atoms) + 1)]
    for face in L.crosscut_faces(m):  # by face size: face mask -> position
        level = levels[face.bit_count()]
        level[face] = len(level)
    ranks = [0]  # ranks[s]: boundary rank on the size-s faces
    for s in range(1, len(levels)):
        below = levels[s - 1]
        ranks.append(_gf2_rank(
            sum(1 << below[f ^ 1 << a] for a in range(f.bit_length()) if f >> a & 1)
            for f in levels[s]
        ))
    ranks.append(0)
    betti: dict[int, int] = {}
    for s, level in enumerate(levels):
        bk = len(level) - ranks[s] - ranks[s + 1]
        if bk:
            betti[s - 1] = bk
    return betti


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
    ambient: int
    value: int
    bound: tuple[int, ...]
    intervals: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def depth_quotient(I: MonomialIdeal) -> DepthReport:
    """Depth of the quotient ring, via lcm-lattice Betti numbers."""
    return _depth_on(_depth_lattice(I))


def _depth_lattice(I: MonomialIdeal) -> LcmLattice:
    if len(I.generators) > MAX_DEPTH_ATOMS:
        raise TooLargeError(
            f"{len(I.generators)} generators exceed the depth cap of {MAX_DEPTH_ATOMS}"
        )
    return build_lcm_lattice(I)


def _depth_on(L: LcmLattice) -> DepthReport:
    """Depth of the quotient by the ideal whose lcm-lattice is L."""
    entries: dict[tuple[int, Monomial], int] = {(0, L.bottom): 1}
    for e in L.elements:
        if e == L.bottom:
            continue
        for k, v in order_complex_betti(L, e).items():
            entries[(k + 2, e)] = v
    table = BettiTable(ambient=L.ambient, entries=entries)
    return DepthReport(
        ambient=L.ambient,
        value=L.ambient - table.projective_dimension,
        betti=table,
    )


class CharacteristicPoset:
    """All exponent vectors below the generator lcm, as one bitmask grid.

    Bit i is points[i], the i-th point of itertools.product(range(g_1 + 1),
    ...), so the point p sits at bit sum(p_j * stride_j).  `ideal_mask` holds
    the points x^p in the ideal; per coordinate j and value v, `at_least[j][v]`
    and `at_most[j][v]` hold the points with p_j >= v and p_j <= v.
    """

    __slots__ = ("bound", "points", "full", "stride", "at_least", "at_most",
                 "ideal_mask")

    def __init__(self, I: MonomialIdeal):
        g = I.lcm_of_generators.exponents
        size = 1
        for gj in g:
            size *= gj + 1
            if size > MAX_POSET_POINTS:
                raise TooLargeError(
                    f"characteristic poset exceeds {MAX_POSET_POINTS} points"
                )
        self.bound = g
        self.points = tuple(itertools.product(*(range(gj + 1) for gj in g)))
        self.full = (1 << size) - 1
        self.stride: list[int] = []
        self.at_least: list[list[int]] = []
        self.at_most: list[list[int]] = []
        stride = size
        for gj in g:
            stride //= gj + 1
            period = stride * (gj + 1)
            repeat = self.full // ((1 << period) - 1)
            self.stride.append(stride)
            self.at_least.append(
                [repeat * ((1 << period) - (1 << v * stride)) for v in range(gj + 1)]
            )
            self.at_most.append(
                [repeat * ((1 << (v + 1) * stride) - 1) for v in range(gj + 1)]
            )
        self.ideal_mask = 0
        for u in I.generators:
            self.ideal_mask |= self.up(u.exponents)

    def up(self, p: tuple[int, ...]) -> int:
        mask = self.full
        for slabs, v in zip(self.at_least, p):
            mask &= slabs[v]
        return mask

    def down(self, p: tuple[int, ...]) -> int:
        mask = self.full
        for slabs, v in zip(self.at_most, p):
            mask &= slabs[v]
        return mask

    def down_closure(self, mask: int) -> int:
        for gj, stride, slabs in zip(self.bound, self.stride, self.at_least):
            for _ in range(gj):
                mask |= (mask & slabs[1]) >> stride
        return mask

    def saturated_at_least(self) -> list[int]:
        """Entry k: points with at least k coordinates saturated (p_j = g_j)."""
        levels = [self.full] + [0] * len(self.bound)
        for j, gj in enumerate(self.bound):
            top = self.at_least[j][gj]
            for k in range(j + 1, 0, -1):
                levels[k] |= levels[k - 1] & top
        return levels

    def side_mask(self, ideal_side: bool) -> int:
        return self.ideal_mask if ideal_side else self.full & ~self.ideal_mask


def build_characteristic_poset(I: MonomialIdeal) -> CharacteristicPoset:
    """The characteristic poset of I; TooLargeError past MAX_POSET_POINTS."""
    return CharacteristicPoset(I)


def _box_partition_value(
    poset: CharacteristicPoset, side: int
) -> tuple[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """Best achievable min-score over box partitions of the points in `side`.

    Branch and bound on a target score k, high to low: repeatedly take the
    least uncovered point and try to close it off with a box whose upper
    corner saturates at least k coordinates of g.  The search starts at the
    largest k for which every point of the side has such a corner above it.
    """
    points = poset.points
    n = len(poset.bound)
    if not side:
        return n, ()
    levels = poset.saturated_at_least()
    start = n
    while side & ~poset.down_closure(side & levels[start]):
        start -= 1

    up = functools.cache(lambda a: poset.up(points[a]))
    down = functools.cache(lambda c: poset.down(points[c]))
    outside = poset.full & ~side
    for k in range(start, -1, -1):
        result = _box_search(poset.full, outside, side & levels[k], up, down)
        if result is not None:
            return k, tuple((points[a], points[c]) for a, c in sorted(result))
    raise AssertionError("score 0 partition into singletons always exists")


def _box_search(full, outside, uppers, up, down) -> list[tuple[int, int]] | None:
    """Depth-first search for a box partition of the grid minus `outside`.

    The state is the blocked set: points covered so far or outside the side,
    so a box is usable exactly when it meets no blocked bit.  Each stack
    frame holds [blocked, a, untried, c]: the least free point a, the upper
    corners in `uppers` above a not yet tried, and the corner c whose box
    led to the frame above it.  States that admit no partition are memoized.
    """
    failed: set[int] = set()

    def frame(blocked: int) -> list[int]:
        a = (~blocked & (blocked + 1)).bit_length() - 1
        return [blocked, a, up(a) & uppers, -1]

    stack = [frame(outside)]
    while stack:
        top = stack[-1]
        blocked, a, untried, _ = top
        up_a = up(a)
        while untried:
            c = untried.bit_length() - 1
            untried ^= 1 << c
            mask = up_a & down(c)
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
            stack.pop()
    return None


def sdepth_quotient(I: MonomialIdeal) -> SdepthReport:
    """Stanley depth of the quotient ring, by exact partition search."""
    return _sdepth_on(build_characteristic_poset(I), ideal_side=False)


def sdepth_ideal(I: MonomialIdeal) -> SdepthReport:
    """Stanley depth of the ideal itself, by exact partition search."""
    return _sdepth_on(build_characteristic_poset(I), ideal_side=True)


def _sdepth_on(poset: CharacteristicPoset, ideal_side: bool) -> SdepthReport:
    value, boxes = _box_partition_value(poset, poset.side_mask(ideal_side))
    return SdepthReport(
        ambient=len(poset.bound), value=value, bound=poset.bound, intervals=boxes
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


def _stats(I: MonomialIdeal, what: str) -> tuple[tuple[int, int, int], LcmLattice]:
    """Depth and both Stanley depths of I, and the lcm-lattice of I.

    One lattice serves the depth and is returned for the isomorphism test;
    one characteristic poset serves both Stanley depth searches.
    """
    try:
        L = _depth_lattice(I)
        poset = build_characteristic_poset(I)
    except TooLargeError as e:
        raise TooLargeError(f"{what}: {e}") from None
    return (
        _depth_on(L).value,
        _sdepth_on(poset, ideal_side=False).value,
        _sdepth_on(poset, ideal_side=True).value,
    ), L


def verify_spreading_laws(
    I: MonomialIdeal, t_range: Iterable[int]
) -> SpreadingLawsReport:
    """Compute depth/sdepth across spreads and check every displayed law.

    Checked: the three inequalities comparing the n-spread against the
    source (with equality whenever the two lcm-lattices are isomorphic, in
    particular for smoothly spreadable ideals); the transfer equalities
    linking consecutive spreading steps t >= n; and, for smoothly spreadable
    ideals, the closed-form equalities pinning every spread to the source.
    """
    n, d = I.ambient, I.deg
    ts = sorted(set(t_range) | {n})
    if any(t < n for t in ts):
        raise BadParameterError(f"law harness needs t >= n = {n}, got {ts}")

    source, source_lattice = _stats(I, f"source ideal in T_{n}")
    spread_stats: dict[int, tuple[int, int, int]] = {}
    for t in ts:
        spread = spread_ideal(I, t, pad=True)
        spread_stats[t], lattice = _stats(spread, f"{t}-spread in T_{t * d}")
        if t == n:
            n_spread_lattice = lattice

    smooth = is_smoothly_spreadable(I)
    iso = is_isomorphic(source_lattice, n_spread_lattice) is not None

    names = ("depth of quotient", "sdepth of quotient", "sdepth of ideal")
    checks: list[LawCheck] = []
    shift = n * (d - 1)
    for pos, name in enumerate(names):
        checks.append(
            LawCheck(
                name=f"{name}: n-spread bound (t={n})",
                lhs=spread_stats[n][pos],
                relation="<=",
                rhs=source[pos] + shift,
            )
        )
    for t1, t2 in zip(ts, ts[1:]):
        for pos, name in enumerate(names):
            checks.append(
                LawCheck(
                    name=f"{name}: transfer t={t1} -> t={t2}",
                    lhs=spread_stats[t2][pos],
                    relation="==",
                    rhs=spread_stats[t1][pos] + (t2 - t1) * d,
                )
            )
    if iso:
        for pos, name in enumerate(names):
            checks.append(
                LawCheck(
                    name=f"{name}: equality from lattice isomorphism (t={n})",
                    lhs=spread_stats[n][pos],
                    relation="==",
                    rhs=source[pos] + shift,
                )
            )
    if smooth:
        for t in ts:
            for pos, name in enumerate(names):
                checks.append(
                    LawCheck(
                        name=f"{name}: smooth closed form (t={t})",
                        lhs=spread_stats[t][pos],
                        relation="==",
                        rhs=source[pos] + t * d - n,
                    )
                )
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
