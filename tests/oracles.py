"""Brute-force reference deciders, kept independent of the library internals.

The exhaustive smooth-spreadability oracle works straight from the
definitions: in the n-spread of u, variable j occupies offsets
prefix..prefix+a-1 of the residue class j (index = offset*n + j), in the
polarization offsets 0..a-1.  A residue-respecting permutation exists iff
each residue class admits its own bijection of {0, ..., d-1} sending every
spread block onto its polar block, so each class is searched exhaustively.

The box-partition reference runs the same Stanley-depth search point by
point, without the library's grid bitmasks: it lists, for every point, all
points above it and tests a box by walking its lattice points.  It is
quadratic in the number of points, so it serves small cases only.
"""

from __future__ import annotations

import itertools
import sys

from spreadpol import Monomial


def smooth_by_exhaustion(monomials: list[Monomial], n: int) -> bool:
    ms: list[Monomial] = []
    for u in monomials:
        if u not in ms:
            ms.append(u)
    d = max(sum(u.exponents) for u in ms)
    if d == 0:
        return True
    for j in range(1, n + 1):
        constraints = []
        for u in ms:
            prefix = sum(u.exponents[: j - 1])
            a = u.exponents[j - 1]
            constraints.append(
                (frozenset(range(prefix, prefix + a)), frozenset(range(a)))
            )
        if not any(
            all(
                frozenset(perm[s] for s in spread) == polar
                for spread, polar in constraints
            )
            for perm in itertools.permutations(range(d))
        ):
            return False
    return True


def box_partition_by_points(
    points: list[tuple[int, ...]], g: tuple[int, ...]
) -> tuple[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """Best min-score over box partitions of `points`, with the winning boxes.

    Branch and bound on a target score k, high to low: repeatedly take the
    lexicographically least uncovered point and try to close it off with a
    box whose upper corner saturates at least k coordinates of g.  Failed
    cover states are memoized as bitmasks.
    """
    n = len(g)
    if not points:
        return n, ()
    npts = len(points)
    index = {p: i for i, p in enumerate(points)}
    rho = [sum(1 for bj, gj in zip(p, g) if bj == gj) for p in points]
    above = [
        [c for c in range(npts) if all(x >= y for x, y in zip(points[c], points[a]))]
        for a in range(npts)
    ]
    start = min(min(n, max(rho[c] for c in above[a])) for a in range(npts))
    full = (1 << npts) - 1

    def box_mask(a: int, c: int) -> int | None:
        lo, hi = points[a], points[c]
        mask = 0
        for q in itertools.product(*(range(x, y + 1) for x, y in zip(lo, hi))):
            i = index.get(q)
            if i is None:
                return None  # box escapes the point set
            mask |= 1 << i
        return mask

    # the search recurses once per box; the old limit is put back on exit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * npts + 200))
    try:
        return _box_search(points, rho, above, start, full, box_mask)
    finally:
        sys.setrecursionlimit(limit)


def _box_search(points, rho, above, start, full, box_mask):
    npts = len(points)
    for k in range(start, -1, -1):
        cand = [[c for c in above[a] if rho[c] >= k] for a in range(npts)]
        if any(not c for c in cand):
            continue
        failed: set[int] = set()

        def search(covered: int) -> list[tuple[int, int]] | None:
            if covered == full:
                return []
            if covered in failed:
                return None
            uncovered = ~covered & full
            a = (uncovered & -uncovered).bit_length() - 1
            for c in reversed(cand[a]):
                mask = box_mask(a, c)
                if mask is None or mask & covered:
                    continue
                rest = search(covered | mask)
                if rest is not None:
                    return [(a, c)] + rest
            failed.add(covered)
            return None

        result = search(0)
        if result is not None:
            boxes = tuple((points[a], points[c]) for a, c in sorted(result))
            return k, boxes
    raise AssertionError("score 0 partition into singletons always exists")
