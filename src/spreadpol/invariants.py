"""Exact desk-scale oracles for depth and Stanley depth, plus the law harness.

Depth is read off multigraded Betti numbers: at every lcm-lattice element m
above the bottom, b_{i,m} of the quotient equals the reduced homology (over
the two-element field) of the open interval (1, m), in dimension i-2
(Gasharov, Peeva and Welker, 1999).  By the crosscut theorem (Rota; Bjorner,
"Topological methods", Handbook of Combinatorics 1995, Thm 10.8) that
interval's order complex is homotopy equivalent to the crosscut complex of
either of two crosscuts of [1, m]: the atoms below m, whose faces are the
atom sets with join strictly below m, or the lower covers of m, whose faces
are the cover sets with a common lower bound other than 1.  The smaller of
the two is used (the atoms on a tie), so an element with a atoms and c
lower covers costs at most 2^min(a, c) faces; neither kind alone is always
small (the top of the lattice of the pair lcms has m atoms but C(m, 2)
lower covers, and a top above many atoms may cover only two elements).
Before any face is listed, one walk over the lower covers of m ANDs their
down-sets.  If every lower cover lies above one common element other than
1, each set of covers is a face and the lower-cover complex is a full
simplex, which is contractible: every Betti number at m is 0, exactly, with
no face listed and no rank taken (the cone rule).  The walk stops early
only once the AND is down to 1 and it has passed as many covers as atoms,
as the rule then cannot fire and the atoms are the smaller crosscut.
A crosscut of at most 3 members takes no rank either: its complex has
homology in one degree at most, read off the reduced Euler characteristic.
The projective dimension is the largest i carrying a nonzero entry and
depth is the ambient count minus it.

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
of one variable, so dropping them (the rank step, see lattices._columns)
keeps the lcm-lattice.  The masks give the lattice codes, and the harness
depolarizes them.  The masks of each x_j form a chain under inclusion.
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
blocks, without the spread (lattices._spread_columns).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import BadParameterError, TooLargeError
from .lattices import LcmLattice, _atom_image, _spread_columns, build_lcm_lattice
from .monomials import Monomial, MonomialIdeal, _check_ambient_cap
from .smooth import _blocks, _first_violation

MAX_DEPTH_ATOMS = 8
MAX_POSET_POINTS = 4096
MAX_SDEPTH_STATES = 1 << 18  # failed search states memoized by one Stanley-depth search


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

    Computed on the complex of the smaller crosscut of [bottom, m], which
    has the same homology as the order complex of the open interval.  Returns
    {dimension: rank} with zero ranks omitted; the empty interval yields
    {-1: 1}.
    """
    k = L.index(m)
    if k == 0:
        raise BadParameterError("open interval below the bottom is undefined")
    return _betti_at(L, k)


def _betti_at(L: LcmLattice, k: int) -> dict[int, int]:
    """order_complex_betti at the element of index k > 0; {} on a cone.

    A crosscut of at most 3 members is answered from the Euler
    characteristic of its complex alone (_euler_betti), a larger one by
    ranks over GF(2) (_rank_betti)."""
    crosscut = L._crosscut_at(k, cones=False)
    if crosscut is None:
        return {}
    size, faces = crosscut
    return _euler_betti(faces) if size <= 3 else _rank_betti(size, faces)


def _euler_betti(faces: list[int]) -> dict[int, int]:
    """Reduced Betti numbers of a complex on at most 3 vertices, its faces
    listed as masks with the empty face, from its reduced Euler
    characteristic chi.  Such a complex has homology in at most one degree:
    a 2-sphere needs 4 vertices, and a 1-cycle on 3 vertices is the hollow
    triangle, which is connected.  That degree is -1 if the empty face is the
    only one, else 0 if chi > 0 and 1 if chi < 0; its Betti number is |chi|.
    """
    if len(faces) == 1:
        return {-1: 1}
    chi = sum(1 if f.bit_count() & 1 else -1 for f in faces)
    return {0 if chi > 0 else 1: abs(chi)} if chi else {}


def _rank_betti(size: int, faces: list[int]) -> dict[int, int]:
    """Reduced Betti numbers of a complex on the vertices 0..size-1, its
    faces listed as masks with the empty face, by boundary ranks over GF(2)."""
    levels: list[dict[int, int]] = [{} for _ in range(size + 1)]
    for face in faces:  # by face size: face mask -> position
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
    L = _depth_lattice(I)
    entries: dict[tuple[int, Monomial], int] = {(0, L.bottom): 1}
    for e in L.elements[1:]:
        for k, v in order_complex_betti(L, e).items():
            entries[(k + 2, e)] = v
    table = BettiTable(ambient=I.ambient, entries=entries)
    return DepthReport(I.ambient, I.ambient - table.projective_dimension, table)


def _depth_lattice(I: MonomialIdeal) -> LcmLattice:
    if len(I.generators) > MAX_DEPTH_ATOMS:
        raise TooLargeError(
            f"{len(I.generators)} generators exceed the depth cap of {MAX_DEPTH_ATOMS}"
        )
    return build_lcm_lattice(I)


def _projective_dimension(L: LcmLattice) -> int:
    """Projective dimension of the quotient by the ideal of L, by index.  As
    b_{i,m} != 0 needs i <= (atoms below m) (Taylor), elements go by
    decreasing atom count until that count cannot beat the best i found."""
    best = 0
    for atoms, k in sorted(zip(map(int.bit_count, L._support), itertools.count()), reverse=True):
        if atoms <= best:
            break
        best = max([best, *(i + 2 for i in _betti_at(L, k))])
    return best


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
    and `at_most[j][v]` hold the points with p_j >= v and p_j <= v, `ups[i]`
    and `downs[i]` the up-set and the down-set of points[i], and `levels`
    is saturated_at_least(): the tables of every search on the poset.
    """

    __slots__ = ("bound", "used", "_points", "full", "stride", "at_least", "at_most",
                 "ideal_mask", "levels", "ups", "downs")

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
        self.at_most: list[list[int]] = []
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
            self.at_most.append(most)
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
    masks (see lattices._columns and the module docstring): pol(J) has the
    ideal's distinct polarization columns, and no larger a grid."""
    chains: list[set[int]] = []
    for chain in columns:
        for other in chains:
            if all(a & b in (a, b) for a in other for b in chain):
                other.update(chain)
                break
        else:
            chains.append(set(chain))
    # a chain holds at most m nested masks, so no exponent passes the Monomial cap
    n = len(chains)
    return MonomialIdeal._from_minimal(n, (Monomial._trusted(tuple(
        sum(mask >> i & 1 for mask in chain) for chain in chains), n) for i in range(m)))


def _stats(
    what: str, ambient: int, lattice: Callable[..., LcmLattice], *args
) -> tuple[tuple[int, int, int], LcmLattice]:
    """Depth and both Stanley depths of the ideal in `ambient` whose
    lcm-lattice is lattice(*args), and that lattice for the isomorphism
    test; each TooLargeError is prefixed with `what`.  Both Stanley depth
    searches run on one poset, of the depolarization J of the lattice's
    threshold masks, and decode no box."""
    try:
        L = lattice(*args)
        J = _compress(L._columns, len(L._atom_at))
        poset, shift = build_characteristic_poset(J), ambient - J.ambient
        stats = (
            ambient - _projective_dimension(L),
            _box_partition_value(poset, poset.side_mask(ideal_side=False))[0] + shift,
            _box_partition_value(poset, poset.side_mask(ideal_side=True))[0] + shift,
        )
    except TooLargeError as e:
        raise TooLargeError(f"{what}: {e}") from None
    return stats, L


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
    threshold masks alone, and only values are read: the projective
    dimension from element indices, the isomorphism verdict from atom
    supports, the Stanley depths from scores; no lattice element, poset
    point or box corner is decoded.  Each Stanley depth is searched on the
    depolarization J of those masks, whose polarization has the
    lcm-lattice of the ideal's, plus the variables J lacks (see the module
    docstring).  The n-spread is never built: its columns come from the
    generators' blocks (_spread_columns), which also decide smoothness.  Its
    lattice needs no Monomial check of its top, which cannot fail once n*d
    passes _check_ambient_cap: the top is squarefree in at most MAX_AMBIENT
    < MAX_DEGREE variables.  A padded t-spread with
    t > n is the image of the n-spread under the strictly increasing
    SpreadEmbedding.phi: the same generators on the used coordinates, with
    (t - n)*d more free variables.  So its invariants are the n-spread's
    plus (t - n)*d, derived without building it, and the transfer equalities
    hold by construction; the tests check them against spreads built in
    their own ambients.  t*d past MAX_AMBIENT is refused.
    """
    n, d = I.ambient, I.deg
    ts = sorted(set(t_range) | {n})
    if any(t < n for t in ts):
        raise BadParameterError(f"law harness needs t >= n = {n}, got {ts}")

    source, source_lattice = _stats(f"source ideal in T_{n}", n, _depth_lattice, I)
    _check_ambient_cap(n * d)
    blocks = [_blocks(u) for u in I.generators]
    n_spread, n_spread_lattice = _stats(f"{n}-spread in T_{n * d}", n * d, LcmLattice._of_columns,
                                        _spread_columns(blocks, n), len(blocks))
    spread_stats = {n: n_spread}
    for t in ts[1:]:
        _check_ambient_cap(t * d)
        spread_stats[t] = tuple(v + (t - n) * d for v in n_spread)

    smooth = _first_violation(blocks, n) is None
    iso = _atom_image(source_lattice, n_spread_lattice) is not None

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
