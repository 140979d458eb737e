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

The order-complex reference computes the reduced Betti numbers of an open
lattice interval from every chain in it, where the library uses the smaller
crosscut complex; the number of chains grows factorially, so it serves
small lattices only.  The isomorphism reference tries every atom
permutation in lexicographic order on plain exponent tuples.  The
collapse-map reference checks join preservation on every pair of source
elements, where the library checks one atom step per element and atom.
"""

from __future__ import annotations

import itertools
import sys
from typing import Iterable

from spreadpol import BadParameterError, LatticeMap, LcmLattice, Monomial


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


def order_complex_betti_by_chains(L: LcmLattice, m: Monomial) -> dict[int, int]:
    """Reduced Betti numbers (over GF(2)) of the open interval (bottom, m).

    The order complex has the elements strictly between the bottom and m as
    vertices and all chains as faces.  Returns {dimension: rank} with zero
    ranks omitted; the empty interval yields {-1: 1}.
    """
    if m == L.bottom:
        raise BadParameterError("open interval below the bottom is undefined")
    L.index(m)
    vertices = sorted(
        (e for e in L.elements if e != L.bottom and e != m and e.divides(m)),
        key=lambda e: (e.degree, e.exponents),
    )
    nv = len(vertices)
    succ = [
        [w for w in range(v + 1, nv) if vertices[v].divides(vertices[w])]
        for v in range(nv)
    ]

    faces: list[list[tuple[int, ...]]] = [[(v,) for v in range(nv)]]
    while faces[-1]:
        nxt = [chain + (w,) for chain in faces[-1] for w in succ[chain[-1]]]
        faces.append(nxt)
    faces.pop()

    betti: dict[int, int] = {}
    if nv == 0:
        betti[-1] = 1
        return betti
    ranks = [1]  # boundary C_0 -> C_{-1}: every vertex hits the empty face
    for k in range(1, len(faces)):
        index = {f: c for c, f in enumerate(faces[k - 1])}
        rows = []
        for f in faces[k]:
            mask = 0
            for drop in range(len(f)):
                mask |= 1 << index[f[:drop] + f[drop + 1 :]]
            rows.append(mask)
        ranks.append(_gf2_rank(rows))
    ranks.append(0)
    for k in range(len(faces)):
        bk = len(faces[k]) - ranks[k] - ranks[k + 1]
        if bk:
            betti[k] = bk
    return betti


def isomorphism_by_permutations(
    L1: LcmLattice, L2: LcmLattice
) -> dict[Monomial, Monomial] | None:
    """The element bijection of the first atom permutation that is an isomorphism.

    Permutations are tried in lexicographic order (entry a is the position in
    L2.atoms of the image of L1.atoms[a]).  Each element goes to the lcm of
    the images of the atoms dividing it; the permutation is accepted when
    that map is onto L2 and sends the lcm of every pair to the lcm of the
    images.  Only exponent tuples are used.
    """
    if len(L1) != len(L2) or len(L1.atoms) != len(L2.atoms):
        return None
    elems1 = [e.exponents for e in L1.elements]
    elems2 = {e.exponents: e for e in L2.elements}
    atoms1 = [a.exponents for a in L1.atoms]
    atoms2 = [a.exponents for a in L2.atoms]

    def lcm(u, v):
        return tuple(map(max, u, v))

    for perm in itertools.permutations(range(len(atoms2))):
        f = {}
        for e in elems1:
            image = (0,) * L2.ambient
            for a, p in zip(atoms1, perm):
                if all(x <= y for x, y in zip(a, e)):
                    image = lcm(image, atoms2[p])
            f[e] = image
        if set(f.values()) != set(elems2):
            continue
        pairs = itertools.combinations(elems1, 2)
        if all(f[lcm(u, v)] == lcm(f[u], f[v]) for u, v in pairs):
            return {u: elems2[f[u.exponents]] for u in L1.elements}
    return None


def delta_by_all_pairs(delta: LatticeMap) -> bool:
    """True iff the map is total, fixes the bottom, is onto, and f(u join v) =
    f(u) join f(v) for every pair of source elements."""
    src, tgt, f = delta.source, delta.target, delta.mapping
    if set(f) != set(src.elements) or f[src.bottom] != tgt.bottom:
        return False
    if set(f.values()) != set(tgt.elements):
        return False
    return all(
        f[src.join(u, v)] == tgt.join(f[u], f[v])
        for u, v in itertools.combinations_with_replacement(src.elements, 2)
    )
