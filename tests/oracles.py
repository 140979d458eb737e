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

The subset-resolution reference builds each subset lcm from scratch over
itertools.combinations and ranks over GF(2) on sets of column indices,
where the library shares lcms along subset bitmasks and ranks int rows.

The lattice-mask reference builds an lcm-lattice on exponent tuples: the
closure of the generators under max, sorted, then the order masks from
per-variable exponent slabs and the atom supports by transposing each
atom's up-set, where the library ORs rank-polarized atom codes and reads
the order off the supports.

The eager-decode reference is the lattice constructor as it was before
elements were decoded on demand: each element's exponent vector is made
when its code first appears in the OR-closure of the rank-polarized atom
codes, and only the top gets the full Monomial check.

The support reference computes a Stanley depth by restriction, where the
library's characteristic poset skips the free coordinates inside one grid:
it restricts the generators' exponent tuples to the variables they use,
runs the search on that ideal, adds 1 per free variable (Herzog, Vladoiu
and Zheng, J. Algebra 2009, Lemma 3.6) and lifts the bound and every box
corner back with 0 in each free coordinate.

The depolarization reference partitions the columns of the standard
polarization (per variable x_j and value v, the set of generators with
x_j-exponent >= v) one column at a time, first fit from the smallest set
up, on frozensets; the library seeds one chain per variable from grouped
bitmask columns and merges whole chains.  Both give an ideal whose
polarization is that of I up to renaming variables, but this one can have a
larger grid than I.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from typing import Iterable

from spreadpol import (
    BadParameterError,
    LatticeMap,
    LcmLattice,
    Monomial,
    MonomialIdeal,
    SdepthReport,
    sdepth_ideal,
    sdepth_quotient,
)


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


def _rank_mod2_sets(rows: list[frozenset[int]]) -> int:
    reduced: dict[int, set[int]] = {}
    rank = 0
    for row in rows:
        cur = set(row)
        while cur:
            pivot = min(cur)
            if pivot in reduced:
                cur ^= reduced[pivot]
            else:
                reduced[pivot] = cur
                rank += 1
                break
    return rank


def taylor_betti_by_combinations(I: MonomialIdeal) -> dict[tuple[int, Monomial], int]:
    """Nonzero multigraded Betti numbers of the quotient from the subset
    resolution, every subset lcm computed on its own; no input cap."""
    gens = I.generators
    m = len(gens)
    exps = [g.exponents for g in gens]
    zero = (0,) * I.ambient

    def subset_lcm(subset: tuple[int, ...]) -> tuple[int, ...]:
        out = zero
        for i in subset:
            out = tuple(map(max, out, exps[i]))
        return out

    by_degree: dict[tuple[int, ...], dict[int, list[tuple[int, ...]]]] = defaultdict(
        lambda: defaultdict(list)
    )
    lcm_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            deg = subset_lcm(subset)
            lcm_of[subset] = deg
            by_degree[deg][size].append(subset)

    betti: dict[tuple[int, Monomial], int] = {}
    for deg, strata in by_degree.items():
        index = {
            subset: col
            for subsets in strata.values()
            for col, subset in enumerate(subsets)
        }
        ranks: dict[int, int] = {}
        for size, subsets in strata.items():
            rows = []
            for subset in subsets:
                row = set()
                for drop in range(size):
                    smaller = subset[:drop] + subset[drop + 1 :]
                    if lcm_of[smaller] == deg:
                        row.add(index[smaller])
                rows.append(frozenset(row))
            ranks[size] = _rank_mod2_sets(rows)
        for size, subsets in strata.items():
            h = len(subsets) - ranks[size] - ranks.get(size + 1, 0)
            if h:
                betti[(size, Monomial(deg, I.ambient))] = h
    return betti


def lattice_masks_by_slabs(
    ambient: int, atoms: Iterable[Monomial]
) -> tuple[list[tuple[int, ...]], list[int], list[int], list[int], list[tuple[int, int]]]:
    """(elements, below, above, support, covers) of the lcm-lattice of `atoms`.

    Elements are the sorted exponent tuples of all subset lcms; below[k] and
    above[k] are bitmasks over element indices, support[k] one over atom
    indices, and covers the sorted Hasse edges (i, j), i below j.
    """
    atoms = [a.exponents for a in atoms]
    elems = {(0,) * ambient}
    for atom in atoms:
        elems |= {tuple(map(max, e, atom)) for e in elems}
    elements = sorted(elems)
    full = (1 << len(elements)) - 1
    below, above = [full] * len(elements), [full] * len(elements)
    for column in zip(*elements):
        slab = dict.fromkeys(sorted(set(column)), 0)  # value -> elements at it
        for k, v in enumerate(column):
            slab[v] |= 1 << k
        at_most, at_least, acc = {}, {}, 0
        for v, mask in slab.items():
            at_least[v] = full ^ acc
            acc |= mask
            at_most[v] = acc
        for k, v in enumerate(column):
            below[k] &= at_most[v]
            above[k] &= at_least[v]
    support = [0] * len(elements)
    for a, atom in enumerate(atoms):  # transpose each atom's up-set
        rest = above[elements.index(atom)]
        while rest:
            low = rest & -rest
            support[low.bit_length() - 1] |= 1 << a
            rest ^= low
    covers = [  # i < j with nothing strictly between
        (i, j)
        for i in range(len(elements))
        for j in range(len(elements))
        if i != j and below[j] >> i & 1 and below[j] & above[i] == 1 << i | 1 << j
    ]
    return elements, below, above, support, covers


def lattice_elements_eagerly(ambient: int, atoms: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The elements of the lcm-lattice of `atoms`, in code order, decoded
    while the closure of the atom codes is built."""
    rows = [a.exponents for a in atoms]
    fields = [["0"] * len(rows)]
    for column in dict.fromkeys(zip(*rows)):
        values = sorted(set(column) | {0})
        width = len(values) - 1
        unary = {v: "0" * (width - r) + "1" * r for r, v in enumerate(values)}
        fields.append([unary[v] for v in column])
    codes = [int("".join(f), 2) for f in zip(*fields)]
    exps = {0: (0,) * ambient}  # code -> exponent vector
    for g, row in zip(codes, rows):
        for e, x in list(exps.items()):
            if (e | g) not in exps:
                exps[e | g] = tuple(map(max, x, row))
    *rest, top = sorted(exps)
    return tuple(Monomial._trusted(exps[c], ambient) for c in rest) + (Monomial(exps[top], ambient),)


def sdepth_on_support(I: MonomialIdeal, ideal_side: bool) -> SdepthReport:
    """The Stanley-depth report of I (of the ideal if `ideal_side`, else of
    the quotient), searched on the variables the generators use and lifted
    back into the ambient of I."""
    rows = [g.exponents for g in I.generators]
    used = [j for j in range(I.ambient) if any(row[j] for row in rows)]
    J = MonomialIdeal.from_exponents(len(used), [[row[j] for j in used] for row in rows])
    rep = sdepth_ideal(J) if ideal_side else sdepth_quotient(J)

    def lift(p: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * I.ambient
        for j, v in zip(used, p):
            out[j] = v
        return tuple(out)

    return SdepthReport(
        ambient=I.ambient,
        value=rep.value + I.ambient - len(used),
        bound=lift(rep.bound),
        intervals=tuple((lift(a), lift(c)) for a, c in rep.intervals),
    )


def polarization_columns(I: MonomialIdeal) -> list[frozenset[int]]:
    """The generator set (indices into I.generators) of each variable of the
    standard polarization of I, one per (j, v) with 1 <= v <= max x_j-exponent,
    smallest sets first."""
    return sorted(
        (frozenset(i for i, u in enumerate(I.generators) if u.exponents[j] >= v)
         for j in range(I.ambient)
         for v in range(1, max(u.exponents[j] for u in I.generators) + 1)),
        key=lambda c: (len(c), sorted(c)),
    )


def depolarize_first_fit(I: MonomialIdeal) -> MonomialIdeal:
    """An ideal whose polarization is that of I up to renaming variables: each
    polarization column, smallest first, joins the first chain all of whose
    columns it contains or lies in, and each chain is one variable, where a
    generator's exponent is the number of the chain's columns it lies in."""
    chains: list[list[frozenset[int]]] = []
    for c in polarization_columns(I):
        for chain in chains:
            if all(c <= d or d <= c for d in chain):
                chain.append(c)
                break
        else:
            chains.append([c])
    rows = [[sum(i in c for c in chain) for chain in chains] for i in range(len(I.generators))]
    return MonomialIdeal.from_exponents(len(chains), rows)
