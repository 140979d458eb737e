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
lattice interval from every chain in it, where the library reads them from
element matchings on the subset resolution; the number of chains grows
factorially, so it serves small lattices only.  The crosscut reference
lists the faces of a crosscut complex of the interval from the covers or
the atoms and ranks its boundaries, a second homotopy-equivalent complex
(Rota's crosscut theorem).  The isomorphism reference tries every atom
permutation in lexicographic order on plain exponent tuples.  The
collapse-map reference checks join preservation on every pair of source
elements, where the library checks one atom step per element and atom.
The divisibility reference builds the collapse map itself from its
definition, on Monomials: the n-spread's lcm-lattice as the closure of its
generators under lcm, each element sent to the lcm of the source
generators whose spreads divide it, where the library ORs source atom codes
over spread atom supports and stores the map as element indices.

The subset-resolution reference builds each subset lcm from scratch over
itertools.combinations and ranks over GF(2) on sets of column indices,
where the library shares lcms along subset bitmasks and ranks int rows.
The per-group matching reference runs the element matchings one lcm group
at a time, on sets of subset bitmasks, along the generators of the group's
union and only until the unmatched subsets have one size, where the library
matches every group at once over subset masks and never stops early.  The
first-reached key order sorts Betti keys by the least subset bitmask that
reaches each multidegree, from exponent tuples.

The lattice-mask reference builds an lcm-lattice on exponent tuples: the
closure of the generators under max, sorted, then the order masks from
per-variable exponent slabs and the atom supports by transposing each
atom's up-set, where the library ORs rank-polarized atom codes and reads
the order off the supports.

The unary-code reference builds the lattice's atom codes as strings: per
distinct column, the rank of each exponent written in unary in a field of
'0' and '1' characters, the fields joined and read as one binary int, where
the library transposes the polarization threshold masks.

The eager-decode reference is the lattice constructor as it was before
elements were decoded on demand: each element's exponent vector is made
when its code first appears in the OR-closure of the unary atom codes, and
only the top gets the full Monomial check.

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

The mask-only depolarization reference does the same from the exponent
rows, on frozensets, with each threshold set counted once: per variable in
order, the set of its threshold sets, merged into the first earlier chain it
forms a chain with.  It is the rank-stepped form the library depolarizes,
where the dense law-harness reference keeps the multiplicities.

The generator-sum reference is the library's depolarization of threshold
masks as it was before it counted set bits per chain: the same merge of
whole chains, then each generator's exponent in a chain as a sum over the
chain's masks of that generator's bit, built through the validating
MonomialIdeal.from_exponents.

The dense law-harness reference is the harness as it was before it read
the n-spread from the generators' blocks: it builds the n-spread with
spread_ideal, reads depth off the public Betti table, depolarizes each
ideal from its own exponent rows and checks every law from those values.

The irreducible-mask reference takes the union-closure of the threshold
masks, every union of them, empty one included, and returns the members
that are not the union of the members strictly inside them, where the
library compares each mask only with the masks inside it.

The image references follow the definitions on plain index lists: the
k-th sorted index of the t-spread moves by (k-1)t, polarization writes
x_j^a as x_j x_{j+n} ... x_{j+(a-1)n}, and the embedding applies
phi(j) = floor((j-1)/n)(t-n) + j to the n-spread.  Each image is built
through the validating Monomial(...), where the library builds its images
unchecked.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter, defaultdict
from typing import Iterable

from spreadpol import (
    BadParameterError,
    LatticeMap,
    LawCheck,
    LcmLattice,
    Monomial,
    MonomialIdeal,
    SdepthReport,
    SpreadingLawsReport,
    build_lcm_lattice,
    depth_quotient,
    is_isomorphic,
    is_smoothly_spreadable,
    sdepth_ideal,
    sdepth_quotient,
    spread_ideal,
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


def crosscut_by_definition(L: LcmLattice, m: Monomial) -> tuple[int, list[int]]:
    """A crosscut complex of [bottom, m] as (size, faces), faces the member
    bitmasks: the lower covers of m, highest index first, if fewer than the
    atoms below m, faces the cover sets with a common lower bound above the
    bottom; else those atoms, faces the atom sets whose lcm is not m."""
    k = L.index(m)
    atoms = sorted(L.atom_support(m))
    covers = sorted((i for i, j in L.covers() if j == k), reverse=True)
    if len(covers) < len(atoms):
        def face(s: int) -> bool:
            picked = [L.elements[c] for b, c in enumerate(covers) if s >> b & 1]
            return any(all(L.leq(e, c) for c in picked) for e in L.elements[1:])
        size = len(covers)
    else:
        def face(s: int) -> bool:
            lcm = L.bottom
            for b, a in enumerate(atoms):
                if s >> b & 1:
                    lcm = lcm.lcm(L.atoms[a])
            return lcm != m
        size = len(atoms)
    return size, [s for s in range(1 << size) if face(s)]


def simplicial_betti(faces: list[int]) -> dict[int, int]:
    """Reduced Betti numbers (over GF(2)) of the simplicial complex whose
    faces, the empty face among them, are the given vertex bitmasks:
    {dimension: rank} with zero ranks omitted."""
    by_dim: dict[int, list[int]] = defaultdict(list)
    for f in faces:
        by_dim[f.bit_count() - 1].append(f)
    ranks = {}  # d -> rank of the boundary from dimension d to d - 1
    for d in by_dim:
        if d < 0:
            continue
        index = {f: c for c, f in enumerate(by_dim[d - 1])}
        rows = []
        for f in by_dim[d]:
            mask, rest = 0, f
            while rest:
                low = rest & -rest
                mask |= 1 << index[f ^ low]
                rest ^= low
            rows.append(mask)
        ranks[d] = _gf2_rank(rows)
    betti = {}
    for d, fs in by_dim.items():
        b = len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            betti[d] = b
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


def delta_by_divisibility(I: MonomialIdeal) -> dict[Monomial, Monomial]:
    """The collapse map of I as a Monomial dict: every lcm of a subset of
    the generators of spread_ideal(I, n), the empty one included, goes to
    the lcm of the source generators whose spreads (by definition) divide
    it.  It is a map whether or not it preserves joins."""
    spread = spread_ideal(I, I.ambient)
    spreads = [validated_image(spread_indices_by_definition(u, I.ambient), spread.ambient)
               for u in I.generators]
    assert sorted(spreads) == list(spread.generators), I
    elements = {Monomial.unit(spread.ambient)}
    for g in spread.generators:
        elements |= {e.lcm(g) for e in elements}
    out = {}
    for e in elements:
        image = Monomial.unit(I.ambient)
        for u, s in zip(I.generators, spreads):
            if s.divides(e):
                image = image.lcm(u)
        out[e] = image
    return out


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


def first_reached_keys(I: MonomialIdeal, betti: dict[tuple[int, Monomial], int]) -> list:
    """The keys of `betti` in the order of the least generator bitmask
    whose lcm is the multidegree, then of the least such one per size."""
    exps = [u.exponents for u in I.generators]
    first: dict = {}
    for S in range(1 << len(exps)):
        picked = [e for a, e in enumerate(exps) if S >> a & 1]
        deg = tuple(max(column, default=0) for column in zip(*picked)) or (0,) * I.ambient
        first.setdefault(deg, S)
        first.setdefault((deg, S.bit_count()), S)
    return sorted(betti, key=lambda key: (first[key[1].exponents],
                                          first[(key[1].exponents, key[0])]))


def critical_by_group(same: list[int]) -> set[int]:
    """The subsets of one lcm group, given in increasing order, that the
    element matchings leave unmatched; they stop once these have one size."""
    left = set(same)
    atoms = same[-1]  # the union of the group, itself a member
    while atoms and len({S.bit_count() for S in left}) > 1:
        a = atoms & -atoms
        atoms ^= a
        for S in [S for S in left if not S & a and S | a in left]:
            left -= {S, S | a}
    return left


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


def unary_atom_codes(rows: list[tuple[int, ...]]) -> list[int]:
    """The lcm-lattice code of each exponent row: per distinct column, in
    order of first occurrence, the rank r of the row's exponent in {0}
    together with the column's values, written as r low '1's in a field as
    wide as the column's distinct nonzero values; the fields joined after a
    leading '0' and read as one binary int."""
    fields = [["0"] * len(rows)]
    for column in dict.fromkeys(zip(*rows)):
        values = sorted(set(column) | {0})
        width = len(values) - 1
        unary = {v: "0" * (width - r) + "1" * r for r, v in enumerate(values)}
        fields.append([unary[v] for v in column])
    return [int("".join(f), 2) for f in zip(*fields)]


def lattice_elements_eagerly(ambient: int, atoms: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The elements of the lcm-lattice of `atoms`, in code order, decoded
    while the closure of the atom codes is built."""
    rows = [a.exponents for a in atoms]
    exps = {0: (0,) * ambient}  # code -> exponent vector
    for g, row in zip(unary_atom_codes(rows), rows):
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


def dense_spread_columns(I: MonomialIdeal) -> list[tuple[int, int]]:
    """The distinct nonzero columns of the n-spread built by spread_ideal,
    as (generator mask, copies) pairs in order of first occurrence."""
    rows = [u.exponents for u in spread_ideal(I, I.ambient).generators]
    masks = (sum(1 << g for g, e in enumerate(column) if e) for column in zip(*rows))
    return list(Counter(mask for mask in masks if mask).items())


def irreducible_by_closure(masks: Iterable[int]) -> set[int]:
    """The union-irreducible members of the union-closure of the masks."""
    closure = {0}
    for x in masks:
        closure |= {y | x for y in closure}
    irreducible = set()
    for x in closure:
        inside = 0
        for y in closure:
            if y != x and y & x == y:
                inside |= y
        if inside != x:
            irreducible.add(x)
    return irreducible


def depolarize_by_rows(I: MonomialIdeal) -> MonomialIdeal:
    """The depolarization of I from its own exponent rows: per distinct
    column, the chain of its threshold sets with their multiplicities, and
    each chain merged into the first earlier one it forms a chain with."""
    chains: list[dict[int, int]] = []  # column mask -> multiplicity
    columns = Counter(c for c in zip(*(u.exponents for u in I.generators)) if any(c))
    for column, copies in columns.items():
        chain, below = {}, 0
        for v in sorted(set(column) - {0}):
            chain[sum(1 << i for i, e in enumerate(column) if e >= v)] = (v - below) * copies
            below = v
        for other in chains:
            if all(a & b in (a, b) for a in other for b in chain):
                for mask, m in chain.items():
                    other[mask] = other.get(mask, 0) + m
                break
        else:
            chains.append(chain)
    rows = [[sum(m for mask, m in chain.items() if mask >> i & 1) for chain in chains]
            for i in range(len(I.generators))]
    return MonomialIdeal.from_exponents(len(chains), rows)


def depolarize_by_masks(I: MonomialIdeal) -> MonomialIdeal:
    """The depolarization of I with each distinct threshold set counted once:
    per variable x_j, the set of its threshold sets (the generators with
    x_j-exponent >= v, for each nonzero exponent v of x_j), merged into the
    first earlier chain it forms a chain with; each chain is one variable,
    where a generator's exponent is the number of the chain's sets holding it."""
    chains: list[set[frozenset[int]]] = []
    for j in range(I.ambient):
        values = {u.exponents[j] for u in I.generators} - {0}
        chain = {frozenset(i for i, u in enumerate(I.generators) if u.exponents[j] >= v)
                 for v in values}
        if not chain:
            continue
        for other in chains:
            if all(a <= b or b <= a for a in other for b in chain):
                other |= chain
                break
        else:
            chains.append(chain)
    rows = [[sum(i in c for c in chain) for chain in chains] for i in range(len(I.generators))]
    return MonomialIdeal.from_exponents(len(chains), rows)


def depolarize_by_sums(columns: list[list[int]], m: int) -> MonomialIdeal:
    """The depolarization of the ideal of m generators with these threshold
    masks (in the form taylor._columns gives): each chain merged into the
    first earlier one it forms a chain with, and generator i's exponent in a
    chain the number of its masks with bit i set."""
    chains: list[set[int]] = []
    for chain in columns:
        for other in chains:
            if all(a & b in (a, b) for a in other for b in chain):
                other.update(chain)
                break
        else:
            chains.append(set(chain))
    rows = [[sum(mask >> i & 1 for mask in chain) for chain in chains] for i in range(m)]
    return MonomialIdeal.from_exponents(len(chains), rows)


def dense_stats(I: MonomialIdeal) -> tuple[int, int, int]:
    """Depth and both Stanley depths of I, each Stanley depth that of its
    depolarization plus the variables it drops."""
    J = depolarize_by_rows(I)
    shift = I.ambient - J.ambient
    return (depth_quotient(I).value, sdepth_quotient(J).value + shift,
            sdepth_ideal(J).value + shift)


def dense_spreading_laws(I: MonomialIdeal, t_range: Iterable[int]) -> SpreadingLawsReport:
    """verify_spreading_laws on the dense n-spread, for inputs it answers."""
    n, d = I.ambient, I.deg
    ts = sorted(set(t_range) | {n})
    S = spread_ideal(I, n)
    source, spread = dense_stats(I), dense_stats(S)
    stats = {t: tuple(v + (t - n) * d for v in spread) for t in ts}
    smooth = is_smoothly_spreadable(I)
    iso = is_isomorphic(build_lcm_lattice(I), build_lcm_lattice(S)) is not None
    names = ("depth of quotient", "sdepth of quotient", "sdepth of ideal")
    checks: list[LawCheck] = []

    def law(label, relation, lhs, rhs, step):
        checks.extend(LawCheck(f"{name}: {label}", x, relation, y + step)
                      for name, x, y in zip(names, lhs, rhs))

    law(f"n-spread bound (t={n})", "<=", stats[n], source, n * (d - 1))
    for t1, t2 in zip(ts, ts[1:]):
        law(f"transfer t={t1} -> t={t2}", "==", stats[t2], stats[t1], (t2 - t1) * d)
    if iso:
        law(f"equality from lattice isomorphism (t={n})", "==", stats[n], source, n * (d - 1))
    if smooth:
        for t in ts:
            law(f"smooth closed form (t={t})", "==", stats[t], source, t * d - n)
    return SpreadingLawsReport(n, d, tuple(ts), source, stats, smooth, iso, tuple(checks))


def spread_indices_by_definition(u: Monomial, t: int) -> list[int]:
    """The sorted indices i_1 <= ... <= i_d of u with i_k moved by (k-1)t."""
    idx = [j for j, e in enumerate(u.exponents, 1) for _ in range(e)]
    return [i + (k - 1) * t for k, i in enumerate(idx, 1)]


def polar_indices_by_definition(u: Monomial) -> list[int]:
    """x_j^a written as x_j x_{j+n} ... x_{j+(a-1)n}, n the ambient of u."""
    n = u.ambient
    return [j + s * n for j, e in enumerate(u.exponents, 1) for s in range(e)]


def embedded_indices_by_definition(u: Monomial, t: int) -> list[int]:
    """phi(j) = floor((j-1)/n)(t-n) + j applied to the n-spread of u."""
    n = u.ambient
    return [(j - 1) // n * (t - n) + j for j in spread_indices_by_definition(u, n)]


def validated_image(indices: Iterable[int], ambient: int) -> Monomial:
    """The monomial of an index multiset, through the validating constructor."""
    exps = [0] * ambient
    for i in indices:
        exps[i - 1] += 1
    return Monomial(exps, ambient)
