import ast
import itertools
import math
import random
import sys
import time
from pathlib import Path

import pytest

from spreadpol import (
    BadParameterError,
    Monomial,
    MonomialIdeal,
    TooLargeError,
    WellDefinednessViolation,
    build_characteristic_poset,
    build_delta,
    build_lcm_lattice,
    depth_quotient,
    is_isomorphic,
    order_complex_betti,
    sdepth_ideal,
    sdepth_quotient,
    spread_ideal,
    verify_spreading_laws,
)
from spreadpol import invariants, taylor
from spreadpol.invariants import (
    CharacteristicPoset,
    _compress,
    _spread_columns,
)
from spreadpol import lattices
from spreadpol.lattices import LcmLattice, _irreducible
from spreadpol.monomials import MAX_AMBIENT, MAX_DEGREE, MAX_EXPONENT
from spreadpol.smooth import _blocks
from spreadpol.taylor import MAX_TAYLOR_ATOMS, _columns, taylor_betti
from genutils import (
    antichain_family,
    ideals_by_generator_count,
    pair_lcm_ideal,
    random_ci_ideal,
    random_equal_degree_ideal,
    random_ideal,
    small_family,
    staircase_ideal,
)
from oracles import (
    box_partition_by_points,
    critical_by_group,
    crosscut_by_definition,
    dense_spread_columns,
    dense_spreading_laws,
    depolarize_by_masks,
    depolarize_by_sums,
    depolarize_first_fit,
    first_reached_keys,
    irreducible_by_closure,
    order_complex_betti_by_chains,
    polarization_columns,
    sdepth_on_support,
    simplicial_betti,
    taylor_betti_by_combinations,
)


def M(*exps):
    return Monomial(exps)


def ideal(n, rows):
    return MonomialIdeal.from_exponents(n, rows)


def wide_fields() -> list[MonomialIdeal]:
    """Four ideals of 10 generators with 9 or 10 distinct nonzero values in
    a column, so a field is wider than one byte."""
    rng = random.Random(97)
    return [ideal(3, [(i, 9 - i, i % 3) for i in range(10)])] + [
        staircase_ideal(rng, 10) for _ in range(3)]


def compress(I):
    """_compress on the polarization columns of I."""
    return _compress(_columns([u.exponents for u in I.generators]), len(I.generators))


def mask_pd(columns, m):
    """The projective dimension as the law harness reads it: the largest
    size of a nonzero entry of taylor._homology on the threshold masks."""
    _, groups = taylor._homology(columns, taylor._atom_codes(columns, m))
    return max(size for sizes in groups.values() for size in sizes)


def lattice_pd(L):
    """The projective dimension read off the lattice's Betti table."""
    return max(i for betti in L._betti.values() for i in betti)


def in_ideal(poset):
    """Membership flags of the poset's points, decoded from its ideal mask."""
    return [bool(poset.ideal_mask >> i & 1) for i in range(len(poset.points))]


def side_points(I, ideal_side):
    """The exponent vectors c <= g of one side, walked over every coordinate
    of I from the definition, without the characteristic poset."""
    g = I.lcm_of_generators.exponents
    return [
        p for p in itertools.product(*(range(gj + 1) for gj in g))
        if I.contains(Monomial(p, I.ambient)) == ideal_side
    ]


# Five generators in 3 variables whose 3-spread defeats the Stanley-depth
# search of the quotient (see TestSdepth.test_failed_state_cap); the law
# harness answers it on the compressed ideal (see TestCompress).
HARD_SDEPTH = [(0, 3, 1), (1, 0, 2), (1, 2, 1), (2, 2, 0), (3, 1, 1)]
CYC4 = [(2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2)]
CI8 = [tuple(int(i == j) for j in range(8)) for i in range(8)]
# the CLI corpus's huge-exponent file: its n-spread lives in 393,207 variables
HUGE = [(65535, 1, 0), (65534, 0, 65535), (0, 65535, 65533)]


def grid_size(I):
    """Points of the characteristic poset of I: the product of g_j + 1."""
    return math.prod(g + 1 for g in I.lcm_of_generators.exponents)


def laws_shaped(rng, count):
    """`count` seeded coprime antichains of the law benchmark's shape (n = 2
    with 2-4 generators and exponents up to 4, or n = 3 with 3 generators
    and exponents up to 3) whose source and n-spread grids have at most 256
    points, so the uncompressed searches stay quick."""
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        m = rng.randint(2, 4) if n == 2 else 3
        I = random_ideal(rng, n, m, 4 if n == 2 else 3)
        coprime = not any(all(u.exponents[j] for u in I.generators) for j in range(n))
        if coprime and len(I.generators) == m and max(
                grid_size(I), grid_size(spread_ideal(I, n))) <= 256:
            out.append(I)
    return out


class TestOrderComplexBetti:
    def test_empty_interval(self):
        L = build_lcm_lattice(ideal(1, [(2,)]))
        assert order_complex_betti(L, L.top) == {-1: 1}

    def test_cone_is_acyclic(self):
        # path ideal (x1x2, x2x3, x3x4): the open top interval is the path
        # x1x2 < x1x2x3 > x2x3 < x2x3x4 > x3x4, contractible like a cone
        L = build_lcm_lattice(ideal(4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]))
        assert order_complex_betti(L, L.top) == {}

    def test_two_points(self):
        L = build_lcm_lattice(ideal(2, [(1, 0), (0, 1)]))
        assert order_complex_betti(L, L.top) == {0: 1}

    def test_hollow_hexagon(self):
        L = build_lcm_lattice(ideal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        assert order_complex_betti(L, L.top) == {1: 1}

    def test_bottom_rejected(self):
        L = build_lcm_lattice(ideal(2, [(1, 0), (0, 1)]))
        with pytest.raises(BadParameterError):
            order_complex_betti(L, L.bottom)


class TestOrderComplexReference:
    def test_crosscut_matches_chain_complex(self):
        """order_complex_betti equals the chain complex of the open interval
        and the smaller crosscut complex of the closed one, whichever of the
        atoms and the lower covers it is built on."""
        rng = random.Random(93)
        lattices = []
        for _ in range(60):
            n, k, d = rng.randint(2, 4), rng.randint(3, 6), rng.randint(2, 4)
            lattices.append(build_lcm_lattice(random_equal_degree_ideal(rng, n, k, d)))
        lattices += [build_lcm_lattice(pair_lcm_ideal(m)) for m in (4, 5)]
        dims, smaller = set(), set()  # which crosscut was strictly smaller
        for L in lattices:
            covers = [j for _, j in L.covers()]
            for m in L.elements[1:]:
                betti = order_complex_betti(L, m)
                assert betti == order_complex_betti_by_chains(L, m), (L.atoms, m)
                dims |= set(betti)
                atoms, lower = len(L.atom_support(m)), covers.count(L.index(m))
                size, faces = crosscut_by_definition(L, m)
                assert size == min(atoms, lower)
                assert simplicial_betti(faces) == betti, (L.atoms, m)
                if atoms != lower:
                    smaller.add("atoms" if size == atoms else "lower covers")
        assert dims == {-1, 0, 1, 2}
        assert smaller == {"atoms", "lower covers"}

    def test_cone_rule_answers_only_acyclic_intervals(self):
        """Where the lower covers of an element have a common lower bound
        above the bottom, the interval is a cone and its Betti numbers are
        {}: the chain complex agrees there.  On every element
        order_complex_betti equals the chain complex and the crosscut
        complex."""
        rng = random.Random(96)
        small = [J for I in small_family() for J in (I, spread_ideal(I, I.ambient))]
        more = []
        for _ in range(60):
            n, k, d = rng.randint(2, 4), rng.randint(3, 6), rng.randint(2, 4)
            more.append(random_equal_degree_ideal(rng, n, k, d))
        more += [pair_lcm_ideal(m) for m in (4, 5, 6)]
        answered = {}
        for family, ideals in (("small", small), ("more", more)):
            cones = elements = 0
            for I in ideals:
                L = build_lcm_lattice(I)
                lower = {}  # element index -> its lower covers
                for i, j in L.covers():
                    lower.setdefault(j, []).append(L.elements[i])
                for k, m in enumerate(L.elements[1:], 1):
                    reference = order_complex_betti_by_chains(L, m)
                    assert order_complex_betti(L, m) == reference, (I, m)
                    assert simplicial_betti(crosscut_by_definition(L, m)[1]) == reference, (I, m)
                    if any(all(L.leq(e, c) for c in lower[k]) for e in L.elements[1:]):
                        cones += 1
                        assert reference == {}, (I, m)
                    elements += 1
            answered[family] = cones, elements
        assert answered["small"] == (281, 5452)
        assert answered["more"][0] > 0

    def test_cone_needs_every_lower_cover(self):
        """Five of six lower covers sharing an atom make no cone.

        Generator i is the product of x_F over the facets F without i, so
        the lattice's top has atoms 1..5 and one lower cover per facet.  The
        five covers of the facets other than {2, 3, 4, 5} all hold atom 1,
        but that one does not, and the open interval below the top has
        homology in dimension 2."""
        facets = [{2, 3, 4, 5}, {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {1, 2, 5}, {1, 3, 5}]
        L = build_lcm_lattice(ideal(6, [[int(i not in F) for F in facets] for i in range(1, 6)]))
        assert order_complex_betti(L, L.top) == order_complex_betti_by_chains(L, L.top) == {2: 2}

    def test_crosscut_faces_of_both_kinds(self):
        # the pair-lcm top: faces are the atom sets of size at most 2
        L = build_lcm_lattice(pair_lcm_ideal(4))
        size, faces = crosscut_by_definition(L, L.top)
        assert size == 4 and faces == sorted(f for f in range(16) if f.bit_count() <= 2)
        assert simplicial_betti(faces) == order_complex_betti(L, L.top)
        # (x1^2, x1*x2, x2^2): the top has three atoms but two lower covers,
        # x1^2*x2 and x1*x2^2, with x1*x2 below both: one edge, no homology
        L = build_lcm_lattice(ideal(2, [(2, 0), (1, 1), (0, 2)]))
        assert crosscut_by_definition(L, L.top) == (2, [0, 1, 2, 3])
        assert order_complex_betti(L, L.top) == order_complex_betti_by_chains(L, L.top) == {}


class TestDepth:
    def test_principal(self):
        rep = depth_quotient(ideal(2, [(1, 1)]))
        assert rep.value == 1
        assert rep.betti.projective_dimension == 1

    def test_artinian_ci(self):
        assert depth_quotient(ideal(2, [(2, 0), (0, 2)])).value == 0

    def test_codim_two_ci_in_six_variables(self):
        I = ideal(6, [(1, 0, 1, 0, 0, 1), (0, 1, 0, 1, 0, 0)])
        assert depth_quotient(I).value == 4

    def test_betti_conventions(self):
        rep = depth_quotient(ideal(2, [(2, 1), (0, 2)]))
        unit = Monomial.unit(2)
        assert rep.betti.entries[(0, unit)] == 1
        for atom in (M(2, 1), M(0, 2)):
            assert rep.betti.entries[(1, atom)] == 1
        assert rep.betti.entries[(2, M(2, 2))] == 1
        assert rep.value == 0

    def test_depth_sanity_random(self):
        rng = random.Random(91)
        for _ in range(80):
            n = rng.randint(1, 5)
            principal = MonomialIdeal(
                n, [Monomial([rng.randint(0, 2) for _ in range(n)], n).lcm(
                    Monomial.variable(rng.randint(1, n), n)
                )]
            )
            assert depth_quotient(principal).value == n - 1
            k = rng.randint(1, min(3, n))
            ci = random_ci_ideal(rng, n, k, 3)
            assert depth_quotient(ci).value == n - k

    def test_ci8_at_the_cap(self):
        ci8 = MonomialIdeal(8, [Monomial.variable(j, 8) for j in range(1, 9)])
        rep = depth_quotient(ci8)
        assert rep.value == 0
        assert dict(rep.betti.entries) == taylor_betti(ci8)

    def test_nine_and_ten_generators(self):
        family = [ideal(m, [tuple(int(i == j) for j in range(m)) for i in range(m)])
                  for m in (9, 10)]
        family += [pair_lcm_ideal(m) for m in (9, 10)]
        family += [I for I in ideals_by_generator_count(random.Random(90), 40)
                   if len(I.generators) >= 9]
        family += wide_fields()
        assert sorted(len(I.generators) for I in family) == [9] * 6 + [10] * 10
        for I in family:
            assert dict(depth_quotient(I).betti.entries) == taylor_betti_by_combinations(I), I

    def test_generator_cap(self):
        n = MAX_TAYLOR_ATOMS + 1
        I = MonomialIdeal(n, [Monomial.variable(j, n) for j in range(1, n + 1)])
        with pytest.raises(TooLargeError, match="11 generators exceed the depth cap of 10"):
            depth_quotient(I)
        L = build_lcm_lattice(I)
        with pytest.raises(TooLargeError, match="11 atoms exceed the Betti cap of 10"):
            order_complex_betti(L, L.top)


class TestTaylorAgreement:
    def test_examples(self):
        for rows, n in [
            ([(1, 1)], 2),
            ([(2, 0), (0, 2)], 2),
            ([(2, 1), (0, 2)], 2),
            ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3),
            ([(0, 3, 1), (2, 0, 1), (1, 1, 2)], 3),
        ]:
            I = ideal(n, rows)
            assert dict(depth_quotient(I).betti.entries) == taylor_betti(I)

    def test_random_agreement(self):
        rng = random.Random(92)
        for _ in range(60):
            I = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 4), 3)
            assert dict(depth_quotient(I).betti.entries) == taylor_betti(I)

    def test_taylor_cap(self):
        n = 11
        gens = [Monomial.variable(j, n) for j in range(1, n + 1)]
        with pytest.raises(TooLargeError):
            taylor_betti(MonomialIdeal(n, gens))

    def test_bitmask_route_matches_combinations_reference(self):
        """Same entries as the reference, keys in first-reached order; the
        huge-exponent file's unary fields would be 2^16 bits wide unranked,
        and wide_fields() has fields wider than one byte."""
        rng = random.Random(94)
        counts = set()
        family = []
        for _ in range(60):
            n = rng.randint(1, 5)
            if rng.random() < 0.5:
                I = random_ideal(rng, n, rng.randint(1, 10), 3)
            else:
                I = random_equal_degree_ideal(rng, n + 1, rng.randint(1, 10), 3)
            counts.add(len(I.generators))
            family.append(I)
        assert counts == set(range(1, 11))
        family.append(ideal(3, [(65535, 1, 0), (65534, 0, 65535), (0, 65535, 65533)]))
        family += wide_fields()
        for I in family:
            betti = taylor_betti(I)
            assert betti == taylor_betti_by_combinations(I), I.generators
            assert list(betti) == first_reached_keys(I, betti), I.generators
        I = random_equal_degree_ideal(rng, 4, 11, 4)
        assert len(I.generators) == 11
        with pytest.raises(TooLargeError):
            taylor_betti(I)
        top, half = MAX_EXPONENT - 1, 20000  # the top's degree passes the cap
        u = Monomial((top,) * half + (0,) * half)
        v = Monomial((0,) * half + (top,) * half)
        with pytest.raises(TooLargeError, match="degree exceeds"):
            taylor_betti(MonomialIdeal(2 * half, [u, v]))

    @staticmethod
    def subset_lcms(exps):
        """lcms[S]: the lcm of the generator subset S, by tuple arithmetic."""
        zero = (0,) * len(exps[0])
        return [tuple(map(max, zip(zero, *(e for a, e in enumerate(exps) if S >> a & 1))))
                for S in range(1 << len(exps))]

    @staticmethod
    def matching_families():
        """The small family with its n-spreads, and 300 seeded ideals."""
        small = [J for I in small_family() for J in (I, spread_ideal(I, I.ambient))]
        assert len(small) == 2 * 522
        return small, ideals_by_generator_count(random.Random(95), 300)

    def test_matchings_match_combinations_reference(self, monkeypatch):
        """The element matchings settle every lcm group of the small family
        and its n-spreads, and all but a few of 300 seeded ideals with 1 to
        10 generators, whose groups fall back to ranks: the entries and their
        key order are the reference's either way."""
        ranked = []  # the codes of the lcm groups whose critical cells keep two sizes
        by_ranks = taylor._by_ranks

        def recorded(lcms, code):
            ranked.append(code)
            return by_ranks(lcms, code)

        monkeypatch.setattr(taylor, "_by_ranks", recorded)
        small, seeded = self.matching_families()
        for family, fallbacks in ((small, 0), (seeded, 14)):
            ranked.clear()
            for I in family:
                betti = taylor_betti(I)
                assert betti == taylor_betti_by_combinations(I), I.generators
                assert list(betti) == first_reached_keys(I, betti), I.generators
            assert len(ranked) == fallbacks

    def test_all_at_once_matching_is_per_group_matching(self):
        """The one pass over subset masks leaves unmatched exactly the subsets
        that matching each lcm group on its own leaves: a pair shares its lcm,
        a generator outside a group's union pairs nothing in that group, and
        no pair is left once a group's unmatched subsets have one size."""
        small, seeded = self.matching_families()
        for I in small + seeded:
            exps = [u.exponents for u in I.generators]
            groups = {}  # lcm -> its subsets, in increasing order
            for S, deg in enumerate(self.subset_lcms(exps)):
                groups.setdefault(deg, []).append(S)
            want = sum(1 << S for same in groups.values() for S in critical_by_group(same))
            chains = taylor._columns(exps)
            assert taylor._unmatched(taylor._keep(chains, len(exps))) == want, exps

    def test_mask_tables(self):
        """holding[a] is the mask of the subsets holding a, for every m up to
        the cap; keep[a] that of the subsets S without a whose lcm adding a
        leaves alone, on seeded ideals, the huge-exponent file and ideals
        whose codes pass one byte plane, from the threshold masks."""
        for m in range(1, MAX_TAYLOR_ATOMS + 1):
            holding = taylor._holding(m)
            assert len(holding) == m
            for a, h in enumerate(holding):
                assert h == sum(1 << S for S in range(1 << m) if S >> a & 1), (m, a)
        family = ideals_by_generator_count(random.Random(96), 60) + [ideal(3, HUGE)]
        for I in family + wide_fields():
            exps = [u.exponents for u in I.generators]
            m = len(exps)
            lcms = self.subset_lcms(exps)
            keep = taylor._keep(taylor._columns(exps), m)
            assert len(keep) == m
            for a in range(m):
                assert keep[a] == sum(1 << S for S in range(1 << m)
                                      if not S >> a & 1 and lcms[S | 1 << a] == lcms[S]), (exps, a)

    def test_taylor_imports_only_errors_and_monomials(self):
        """The layering is one-way: taylor.py, the one encoder of lcm codes,
        imports only errors and monomials, and lattices.py defines none of
        the encoder's helpers but imports them from taylor."""
        tree = ast.parse(Path(taylor.__file__).read_text())
        nodes = list(ast.walk(tree))
        assert not [node for node in nodes if isinstance(node, ast.Import)]
        imports = {(node.level, node.module) for node in nodes if isinstance(node, ast.ImportFrom)}
        assert imports == {(0, "__future__"), (1, "errors"), (1, "monomials")}
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        assert not names & {"__import__", "importlib"}
        encoder = {"_columns", "_transpose", "_BIT_DIGITS", "_atom_codes", "_decode_fields"}
        assert encoder <= set(vars(taylor))
        tree = ast.parse(Path(lattices.__file__).read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        assert not defined & encoder
        from_taylor = {alias.name for node in tree.body
                       if isinstance(node, ast.ImportFrom) and node.module == "taylor"
                       for alias in node.names}
        assert encoder - {"_BIT_DIGITS"} <= from_taylor

    def test_rank_fallback_on_two_critical_sizes(self, monkeypatch):
        """At x1^2x2^2x3^2x4, (x1x2^2x4, x1x2^2x3^2, x1^2x2x3^2x4, x1^2x2^2)
        keeps critical subsets of sizes 2 and 3 after every matching, and
        ranks on the whole group give b_2 = b_3 = 1."""
        I = ideal(4, [(1, 2, 0, 1), (1, 2, 2, 0), (2, 1, 2, 1), (2, 2, 0, 0)])
        top = (2, 2, 2, 1)
        exps = [u.exponents for u in I.generators]
        group = [S for S, deg in enumerate(self.subset_lcms(exps)) if deg == top]
        assert {S.bit_count() for S in critical_by_group(group)} == {2, 3}
        chains = taylor._columns(exps)
        left = taylor._unmatched(taylor._keep(chains, len(exps)))
        assert {S.bit_count() for S in group if left >> S & 1} == {2, 3}
        ranked = []
        by_ranks = taylor._by_ranks
        monkeypatch.setattr(taylor, "_by_ranks",
                            lambda lcms, code: ranked.append(by_ranks(lcms, code)) or ranked[-1])
        betti = taylor_betti(I)
        assert ranked == [{2: 1, 3: 1}]
        there = {i: v for (i, u), v in betti.items() if u.exponents == top}
        assert there == {2: 1, 3: 1}
        assert betti == taylor_betti_by_combinations(I) == dict(depth_quotient(I).betti.entries)

    @staticmethod
    def top_past_the_degree_cap():
        """(X^2e, X^e Y^e, Y^2e) in 2k variables, X^e raising each of the
        first k variables to e and Y^e each of the last k: every Betti
        multidegree passes the degree cap, the lcm of all three does not."""
        k, e = 20000, 32767
        X = (e,) * k + (0,) * k
        Y = (0,) * k + (e,) * k
        rows = [tuple(2 * x for x in X), tuple(x + y for x, y in zip(X, Y)),
                tuple(2 * y for y in Y)]
        return ideal(2 * k, rows)

    def test_top_past_the_degree_cap_checks_each_entry(self):
        I = self.top_past_the_degree_cap()
        betti = taylor_betti(I)
        assert betti == taylor_betti_by_combinations(I)
        assert sorted((i, u.degree) for (i, u) in betti) == [
            (0, 0), *[(1, 1310680000)] * 3, *[(2, 1966020000)] * 2]
        assert 4 * 32767 * 20000 >= 1 << 31  # the top's degree

    def test_lattice_route_refuses_a_top_past_the_degree_cap(self):
        """The lattice checks its top in full, so depth_quotient refuses an
        ideal the subset-resolution route answers."""
        with pytest.raises(TooLargeError, match="degree exceeds"):
            depth_quotient(self.top_past_the_degree_cap())

    def test_pair_lcm_family_stays_cheap(self):
        # every top has m atoms but C(m, 2) lower covers
        for m in range(5, 9):
            I = pair_lcm_ideal(m)
            start = time.perf_counter()
            assert dict(depth_quotient(I).betti.entries) == taylor_betti(I)
            if m == 8:
                assert time.perf_counter() - start < 1.0


class TestCharacteristicPoset:
    def test_size_and_membership(self):
        I = ideal(2, [(2, 1), (0, 2)])
        poset = build_characteristic_poset(I)
        assert poset.bound == (2, 2)
        assert len(poset.points) == 9
        for p, flag in zip(poset.points, in_ideal(poset)):
            assert flag == I.contains(Monomial(p, 2))

    def test_membership_monotone_upward(self):
        I = ideal(3, [(1, 1, 0), (0, 2, 1)])
        poset = build_characteristic_poset(I)
        flag = dict(zip(poset.points, in_ideal(poset)))
        for p in poset.points:
            for q in poset.points:
                if all(a <= b for a, b in zip(p, q)) and flag[p]:
                    assert flag[q]

    def test_free_coordinate_is_not_spanned(self):
        I = ideal(3, [(2, 0, 1), (0, 0, 2)])
        poset = build_characteristic_poset(I)
        assert poset.used == (0, 2) and poset.bound == (2, 0, 2)
        assert len(poset.points) == 9
        for i, (p, flag) in enumerate(zip(poset.points, in_ideal(poset))):
            assert poset.corner(i) == (p[0], 0, p[1])
            assert flag == I.contains(Monomial(poset.corner(i), 3))
        levels = poset.saturated_at_least()
        assert len(levels) == 4 and levels[0] == levels[1] == poset.full

    def test_poset_cap(self):
        with pytest.raises(TooLargeError):
            build_characteristic_poset(ideal(1, [(5000,)]))


class TestSdepth:
    def test_quotient_of_principal_squarefree(self):
        assert sdepth_quotient(ideal(2, [(1, 1)])).value == 1

    def test_ideal_of_two_variables(self):
        assert sdepth_ideal(ideal(2, [(1, 0), (0, 1)])).value == 1

    def test_power_quotient_in_one_variable(self):
        for k in (1, 2, 3):
            assert sdepth_quotient(ideal(1, [(k,)])).value == 0

    def test_principal_ideal_has_full_sdepth(self):
        assert sdepth_ideal(ideal(2, [(1, 1)])).value == 2
        assert sdepth_ideal(ideal(3, [(2, 1, 0)])).value == 3

    def test_free_variables_count(self):
        # an unused variable raises the quotient sdepth by exactly one
        assert sdepth_quotient(ideal(3, [(1, 1, 0)])).value == 2

    def test_failed_state_cap(self):
        # the 3-spread of HARD_SDEPTH has 2^11 grid points, within
        # MAX_POSET_POINTS, but its quotient search memoizes failed states
        # without end; the cap turns that into TooLargeError
        spread = spread_ideal(ideal(3, HARD_SDEPTH), 3)
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match="failed states"):
            sdepth_quotient(spread)
        assert time.perf_counter() - start < 5.0
        assert sdepth_ideal(spread).value == 13

    def _check_report(self, I, rep, side):
        points = set(side_points(I, side))
        covered = set()
        for lo, hi in rep.intervals:
            box = set(
                itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            )
            assert box <= points
            assert not box & covered
            covered |= box
            assert sum(1 for b, g in zip(hi, rep.bound) if b == g) >= rep.value
        assert covered == points

    def test_partition_evidence_random(self):
        rng = random.Random(93)
        for _ in range(40):
            I = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            rep_q = sdepth_quotient(I)
            self._check_report(I, rep_q, side=False)
            rep_i = sdepth_ideal(I)
            self._check_report(I, rep_i, side=True)
            assert 0 <= rep_q.value <= I.ambient
            assert 0 <= rep_i.value <= I.ambient


class TestSdepthReference:
    """The grid-bitmask search against the point-walking reference."""

    def test_same_partitions_as_reference(self):
        rng = random.Random(95)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 4)
            I = random_ideal(rng, n, rng.randint(2, 4), 3)
            family = [I, spread_ideal(I, n, pad=True), spread_ideal(I, n + 1, pad=True)]
            if max(grid_size(J) for J in family) > 256:
                continue
            checked += 1
            for J in family:
                g = J.lcm_of_generators.exponents
                for side, sdepth in ((False, sdepth_quotient), (True, sdepth_ideal)):
                    rep = sdepth(J)
                    expected = box_partition_by_points(side_points(J, side), g)
                    assert (rep.value, rep.intervals) == expected, (J, side)

    def test_leaves_the_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("sys.setrecursionlimit called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        S = spread_ideal(ideal(4, CYC4), 4, pad=True)
        assert sdepth_quotient(S).value == 8
        assert sdepth_ideal(S).value == 10


class TestCompress:
    """_compress against the uncompressed searches: pol(J) has the distinct
    columns of pol(I), up to renaming variables, so the two polarizations
    have one lcm-lattice and each Stanley depth of I is that of J plus the
    variables compression removes (Ichim, Katthan and Moyano-Fernandez,
    "Stanley depth and the lcm-lattice", JCTA 2017, as recalled; Herzog,
    Vladoiu and Zheng, J. Algebra 2009, Lemma 3.6).  The value comparisons
    with the public full-grid searches are the check of that rule."""

    @staticmethod
    def _same_polarization(I, J):
        # the distinct columns of pol(J) are those of pol(I) for some
        # matching of the generators of J to those of I
        want = sorted(map(sorted, set(polarization_columns(I))))
        cols = set(polarization_columns(J))
        return any(
            sorted(sorted(perm[i] for i in c) for c in cols) == want
            for perm in itertools.permutations(range(len(I.generators)))
        )

    def _check(self, I):
        J = compress(I)
        shift = I.ambient - J.ambient
        assert grid_size(J) <= grid_size(I), I
        assert self._same_polarization(I, J), I
        assert sdepth_quotient(J).value + shift == sdepth_quotient(I).value, I
        assert sdepth_ideal(J).value + shift == sdepth_ideal(I).value, I

    def test_small_family_and_its_spreads(self):
        for I in small_family():
            n = I.ambient
            for S in (I, spread_ideal(I, n), spread_ideal(I, n + 1, pad=True)):
                self._check(S)

    def test_laws_shaped_ideals(self):
        for I in laws_shaped(random.Random(97), 100):
            for S in (I, spread_ideal(I, I.ambient)):
                self._check(S)

    def test_seeded_ideals(self):
        # 80 ideals per n with exponents up to 5, on grids of at most 256
        # points, so the uncompressed searches stay quick
        rng = random.Random(96)
        for n in (2, 3, 4):
            checked = 0
            while checked < 80:
                I = random_ideal(rng, n, rng.randint(2, 4), 5)
                if grid_size(I) <= 256:
                    self._check(I)
                    checked += 1

    def test_bit_counts_match_generator_sums(self):
        # the source's masks, the n-spread's from the rows and from the blocks
        for I in small_family() + laws_shaped(random.Random(97), 100):
            S, m = spread_ideal(I, I.ambient), len(I.generators)
            for columns in (_columns([u.exponents for u in I.generators]),
                            _columns([u.exponents for u in S.generators]), spread_sweep(I)):
                assert _compress(columns, m) == depolarize_by_sums(columns, m), I

    def test_grid_never_grows_where_first_fit_does(self):
        # first fit over single columns, smallest first, splits the chain of
        # x1's three columns between two variables here; merging whole
        # chains cannot, and the rank step takes x1^3 down to x1^2
        I = ideal(3, [(0, 2, 0), (1, 1, 1), (3, 0, 0)])
        assert grid_size(I) == 24
        assert grid_size(depolarize_first_fit(I)) == 27
        assert compress(I) == ideal(3, [(0, 2, 0), (1, 1, 1), (2, 0, 0)])

    def test_repeated_thresholds_make_one_column(self):
        # x1^5000 has 5000 polarization columns, all the same generator set
        assert compress(ideal(1, [(5000,)])) == ideal(1, [(1,)])
        rep = verify_spreading_laws(ideal(1, [(5000,)]), [1])
        assert rep.source == (0, 0, 1) and rep.spread[1] == (4999, 4999, 5000)

    def test_hard_sdepth_spread_by_two_chain_partitions(self):
        # the public quotient search on this 3-spread passes the failed-state
        # cap; two different depolarizations agree on its Stanley depths
        I = ideal(3, HARD_SDEPTH)
        rep = verify_spreading_laws(I, [3])
        assert rep.spread[3] == (12, 12, 13) and rep.all_hold
        S = spread_ideal(I, 3)
        first_fit = depolarize_first_fit(S)
        assert first_fit != compress(S)
        for J in (compress(S), first_fit):
            assert self._same_polarization(S, J)
            shift = S.ambient - J.ambient
            assert sdepth_quotient(J).value + shift == 12
            assert sdepth_ideal(J).value + shift == 13


def refuse_spread_ideal(monkeypatch):
    """Make every spreadpol binding of spread_ideal raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("spread_ideal called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spreadpol" and getattr(module, "spread_ideal", None):
            monkeypatch.setattr(module, "spread_ideal", refuse)


def spread_sweep(I):
    """The n-spread's polarization columns from the generators' blocks."""
    return _spread_columns([_blocks(u) for u in I.generators], I.ambient)


class TestColumnRoute:
    """The law harness reads the n-spread off the generators' blocks, as
    polarization columns, where the dense route builds it."""

    @staticmethod
    def family():
        """The small family, 300 seeded ideals in n = 2..5, and HUGE."""
        rng = random.Random(31)
        seeded = [random_ideal(rng, n, rng.randint(1, 6), 4)
                  for n in (2, 3, 4, 5) for _ in range(75)]
        return small_family() + seeded + [ideal(3, HUGE)]

    def test_sweep_matches_dense_columns(self, monkeypatch):
        for I in self.family():
            sweep = spread_sweep(I)
            assert all(len(chain) == 1 for chain in sweep), I
            assert [mask for mask, in sweep] == [mask for mask, _ in dense_spread_columns(I)], I
        refuse_spread_ideal(monkeypatch)
        start = time.perf_counter()
        assert len(spread_sweep(ideal(3, HUGE))) == 5
        assert time.perf_counter() - start < 0.05

    def test_mask_lattice_matches_dense_lattice(self):
        # the harness's isomorphism test reads the sweep's irreducible masks
        for I in self.family():
            D = build_lcm_lattice(spread_ideal(I, I.ambient))
            assert set(_irreducible(spread_sweep(I))) == set(_irreducible(D._columns)), I

    def test_mask_lattice_betti_table_matches_dense_lattice(self):
        # the harness reads the n-spread's projective dimension off the sweep
        for I in small_family():
            D = build_lcm_lattice(spread_ideal(I, I.ambient))
            assert mask_pd(spread_sweep(I), len(I.generators)) == lattice_pd(D), I

    def test_irreducible_matches_closure_reference(self):
        rng = random.Random(26)
        family = [random_ideal(rng, n, rng.randint(1, 6), 4)
                  for n in (2, 3, 4, 5) for _ in range(75)]
        for I in small_family()[::5] + family:
            for columns in (_columns([u.exponents for u in I.generators]), spread_sweep(I)):
                masks = _irreducible(columns)
                assert len(set(masks)) == len(masks), I
                assert set(masks) == irreducible_by_closure(
                    mask for chain in columns for mask in chain), I

    def test_harness_builds_no_lattice(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LcmLattice built")

        monkeypatch.setattr(LcmLattice, "__init__", refuse)
        for I in small_family():
            verify_spreading_laws(I, [I.ambient, I.ambient + 1])
        assert verify_spreading_laws(ideal(3, HUGE), [3]).lattice_isomorphic

    def test_mask_verdict_matches_lattice_isomorphism(self):
        # a seeded slice of the n = 4 family; tests/iso_check.py runs all of it
        slice_ = random.Random(4).sample(antichain_family(4), 2000)
        isomorphic = 0
        for I in slice_:
            want = is_isomorphic(build_lcm_lattice(I),
                                 build_lcm_lattice(spread_ideal(I, 4))) is not None
            assert verify_spreading_laws(I, [4]).lattice_isomorphic == want, I
            isomorphic += want
        assert 0 < isomorphic < len(slice_)

    def test_columns_depolarize_as_the_rows_do(self):
        for I in small_family()[::3] + laws_shaped(random.Random(99), 30):
            for S in (I, spread_ideal(I, I.ambient)):
                assert compress(S) == depolarize_by_masks(S), S

    def test_harness_matches_dense_route(self, monkeypatch):
        cases = [(I, [I.ambient, I.ambient + 1])
                 for I in laws_shaped(random.Random(99), 60) + small_family()]
        cases.append((ideal(3, HARD_SDEPTH), [3]))
        want = [dense_spreading_laws(I, ts) for I, ts in cases]
        assert want[-1].spread[3] == (12, 12, 13)
        refuse_spread_ideal(monkeypatch)
        for (I, ts), rep in zip(cases, want):
            assert verify_spreading_laws(I, ts) == rep, I

    def test_huge_exponent_file(self, monkeypatch):
        # each column's repeated threshold masks count once, so the grids
        # are those of (x1^2x2, x1x3^2, x2^2x3) and (x2^2, x1x2x3, x1^2)
        refuse_spread_ideal(monkeypatch)
        rep = verify_spreading_laws(ideal(3, HUGE), [3])
        assert rep.source == (0, 0, 2) and rep.spread[3] == (393204, 393204, 393206)
        assert rep.lattice_isomorphic and rep.all_hold

    def test_spread_top_check_cannot_fail(self):
        # the n-spread's lattice skips the Monomial check of its top: that
        # top is squarefree in n*d <= MAX_AMBIENT variables
        assert MAX_EXPONENT > 1 and MAX_AMBIENT < MAX_DEGREE
        for I in self.family():
            S = spread_ideal(I, I.ambient)
            assert S.ambient == I.ambient * I.deg and S.lcm_of_generators.is_squarefree, I

    def test_harness_decodes_no_poset_point(self, monkeypatch):
        posets = []

        def recorded(I):
            posets.append(CharacteristicPoset(I))
            return posets[-1]

        monkeypatch.setattr(invariants, "build_characteristic_poset", recorded)
        for I in small_family()[::7]:
            verify_spreading_laws(I, [I.ambient, I.ambient + 1])
        assert posets and not any(hasattr(p, "_points") for p in posets)
        assert len(posets[0].points) == posets[0].full.bit_length()  # decoded on a read

    def test_one_search_per_distinct_depolarization(self, monkeypatch):
        # 522 calls whose source and n-spread have 168 depolarizations in
        # common: 1,044 posets if each side built its own
        built = []

        def recorded(J):
            built.append(J)
            return CharacteristicPoset(J)

        monkeypatch.setattr(invariants, "build_characteristic_poset", recorded)
        for I in small_family():
            start = len(built)
            verify_spreading_laws(I, [I.ambient, I.ambient + 1])
            mine = built[start:]
            assert len(set(mine)) == len(mine), I
            assert set(mine) == {compress(I), compress(spread_ideal(I, I.ambient))}, I
        assert len(built) == 876

    def test_refusals_keep_their_texts(self):
        # the n*d cap is raised unprefixed, the spread's own refusals prefixed
        rows = [(4,) + (0,) * 299999, (0, 3) + (0,) * 299998]
        with pytest.raises(TooLargeError) as exc:
            verify_spreading_laws(ideal(300000, rows), [300000])
        assert str(exc.value) == "ambient 1200000 exceeds 1048576 variables"
        with pytest.raises(TooLargeError) as exc:
            verify_spreading_laws(ideal(5, [(0, 1, 0, 3, 3), (0, 1, 3, 0, 2), (0, 3, 2, 1, 3),
                                            (1, 1, 1, 2, 3), (1, 1, 2, 1, 2), (2, 1, 0, 1, 3),
                                            (3, 1, 3, 3, 1)]), [5])
        assert str(exc.value) == "5-spread in T_55: characteristic poset exceeds 4096 points"

    def test_source_top_past_the_degree_cap_meets_the_ambient_cap(self):
        # no lattice checks the source's top: its degree is at most n*d, so
        # the n*d cap refuses such an ideal first
        u = Monomial((MAX_EXPONENT - 1,) * 20000 + (0,) * 20000)
        v = Monomial((0,) * 20000 + (MAX_EXPONENT - 1,) * 20000)
        I = MonomialIdeal(40000, [u, v])
        assert 40000 * (MAX_EXPONENT - 1) >= MAX_DEGREE  # the top's degree
        with pytest.raises(TooLargeError) as exc:
            verify_spreading_laws(I, [40000])
        assert str(exc.value) == "ambient 52428000000000 exceeds 1048576 variables"


class TestProjectiveDimension:
    """The harness's projective dimension, the largest size of a nonzero
    entry of taylor._homology on the threshold masks, against the lattice's
    Betti table, depth_quotient's table and taylor_betti."""

    def test_matches_both_betti_routes(self):
        family = [S for I in small_family() for S in (I, spread_ideal(I, I.ambient))]
        family += [pair_lcm_ideal(m) for m in range(5, 9)] + [ideal(8, CI8)]
        # a principal ideal, and ideals where pd is found only below the top
        rng = random.Random(98)
        family += [ideal(2, [(2, 0)])] + [
            random_ideal(rng, rng.randint(2, 5), rng.randint(2, 7), 3) for _ in range(200)]
        for I in family:
            pd = mask_pd(_columns([u.exponents for u in I.generators]), len(I.generators))
            assert pd == lattice_pd(build_lcm_lattice(I)), I
            assert pd == depth_quotient(I).betti.projective_dimension, I
            assert pd == max(i for i, _ in taylor_betti(I)), I


class TestSpreadingLaws:
    def test_smooth_equalities(self):
        rep = verify_spreading_laws(ideal(2, [(2, 0), (0, 3)]), [2, 3])
        assert rep.smooth and rep.lattice_isomorphic and rep.all_hold
        assert rep.source == (0, 0, 1)
        assert rep.spread[2] == (4, 4, 5)
        assert rep.spread[3] == (7, 7, 8)

    def test_equality_via_lattice_iso_without_smoothness(self):
        rep = verify_spreading_laws(ideal(2, [(2, 2), (0, 3)]), [2])
        assert not rep.smooth and rep.lattice_isomorphic and rep.all_hold

    def test_documented_bound_example(self):
        rep = verify_spreading_laws(ideal(2, [(2, 1), (0, 2)]), [2])
        assert rep.all_hold
        assert rep.spread[2][0] == 4 and rep.source[0] == 0

    def test_bad_t_range(self):
        with pytest.raises(BadParameterError):
            verify_spreading_laws(ideal(2, [(2, 1), (0, 2)]), [1])

    def test_too_large_names_the_culprit(self):
        I = ideal(5, [(2, 4, 6, 1, 3), (4, 1, 3, 6, 2), (6, 3, 1, 2, 4), (1, 6, 2, 4, 5),
                      (3, 2, 5, 5, 6)])
        with pytest.raises(TooLargeError) as exc:
            verify_spreading_laws(I, [5])
        assert str(exc.value) == "source ideal in T_5: characteristic poset exceeds 4096 points"

    def test_bound_violation_on_collapsing_ideal(self):
        # the additive depth/sdepth bounds fail when spreading collapses the
        # lcm-lattice; the transfer equalities between spreading steps survive
        rep = verify_spreading_laws(
            ideal(3, [(0, 3, 1), (2, 0, 1), (1, 1, 2)]), [3, 4]
        )
        assert not rep.all_hold
        failing = {c.name for c in rep.checks if not c.holds}
        assert failing == {
            "depth of quotient: n-spread bound (t=3)",
            "sdepth of quotient: n-spread bound (t=3)",
        }
        assert all(c.holds for c in rep.checks if "transfer" in c.name)

    def test_failing_bounds_only_without_collapse_map(self):
        # observed on the small family, not proved: the n-spread bounds fail
        # only where no collapse map exists, and every such ideal has a
        # variable dividing all its generators
        collapsing, failing = [], []
        for I in small_family():
            try:
                build_delta(I)
            except WellDefinednessViolation:
                collapsing.append(I)
            if not verify_spreading_laws(I, [I.ambient]).all_hold:
                failing.append(I)
        assert len(collapsing) == 15
        assert all(
            any(all(g.exponents[j] for g in I.generators) for j in range(I.ambient))
            for I in collapsing
        )
        assert len(failing) == 14
        assert all(I in collapsing for I in failing)

    def test_bounds_hold_on_small_spreads(self):
        rng = random.Random(94)
        for _ in range(25):
            n = rng.randint(1, 3)
            dcap = 6 // n
            I = random_ideal(rng, n, rng.randint(1, 3), min(3, dcap), max_deg=dcap)
            rep = verify_spreading_laws(I, [n])
            assert all(c.holds for c in rep.checks if c.relation == "<="), I

    def test_iso_transfer_of_depth(self):
        # isomorphic lcm-lattices force equal depth up to the ambient shift
        I = ideal(2, [(2, 2), (0, 3)])
        S = spread_ideal(I, 2)
        assert is_isomorphic(build_lcm_lattice(I), build_lcm_lattice(S)) is not None
        assert (
            depth_quotient(S).value - (S.ambient - I.ambient)
            == depth_quotient(I).value
        )

    def test_one_depth_computation_for_all_steps_t_at_least_n(self, monkeypatch):
        # only the source and the n-spread are computed; each t-spread with
        # t > n is derived from the n-spread, so six steps cost two
        calls = []

        def counted(columns, codes):
            calls.append(columns)
            return taylor._homology(columns, codes)

        monkeypatch.setattr(invariants, "_homology", counted)
        rep = verify_spreading_laws(ideal(2, [(2, 1), (0, 2)]), range(2, 8))
        assert rep.all_hold and rep.t_values == tuple(range(2, 8))
        assert len(calls) == 2  # the source and the 2-spread, nothing per t > 2


class TestSupportReference:
    """Free coordinates against the restrict-and-lift reference of oracles.py."""

    def test_reports_match_full_ambient(self):
        for I in small_family():
            n = I.ambient
            for S in [I] + [spread_ideal(I, t, pad=True) for t in (n, n + 1, n + 2)]:
                rep = depth_quotient(S)  # its lattice is built in the full ambient
                assert dict(rep.betti.entries) == taylor_betti(S), S
                assert rep.value == S.ambient - lattice_pd(build_lcm_lattice(S)), S
                assert sdepth_quotient(S) == sdepth_on_support(S, ideal_side=False), S
                assert sdepth_ideal(S) == sdepth_on_support(S, ideal_side=True), S

    def test_harness_matches_full_ambient(self):
        # the harness derives every t-spread past n from the n-spread; here
        # each spread is built in its own ambient t*d and computed by the
        # reference, so the transfer equalities and the isomorphism verdict
        # are tested, not assumed
        def full(S):
            return (
                depth_quotient(S).value,
                sdepth_on_support(S, ideal_side=False).value,
                sdepth_on_support(S, ideal_side=True).value,
            )

        for I in small_family():
            n = I.ambient
            rep = verify_spreading_laws(I, range(n, n + 3))
            assert rep.source == full(I), I
            iso = is_isomorphic(build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, n)))
            assert rep.lattice_isomorphic == (iso is not None), I
            for t in (n, n + 1, n + 2):
                assert rep.spread[t] == full(spread_ideal(I, t, pad=True)), (I, t)


class TestFreeCoordinates:
    """The grid never spans a free coordinate, and the harness decodes no
    box corner."""

    def test_grid_spans_only_used_coordinates(self):
        I = ideal(2, [(2, 1), (0, 2)])
        S2, S = spread_ideal(I, 2), spread_ideal(I, 3000, pad=True)
        assert S.ambient == 9000
        assert len(build_characteristic_poset(S).points) == len(
            build_characteristic_poset(S2).points
        )
        for sdepth in (sdepth_quotient, sdepth_ideal):
            assert sdepth(S).value == sdepth(S2).value + (3000 - 2) * 3

    def test_harness_decodes_no_corner(self, monkeypatch):
        def refuse(self, i):
            raise AssertionError("box corner decoded")

        monkeypatch.setattr(CharacteristicPoset, "corner", refuse)
        for I in small_family():
            verify_spreading_laws(I, [I.ambient, I.ambient + 1])
        with pytest.raises(AssertionError, match="box corner decoded"):
            sdepth_quotient(ideal(2, [(2, 1), (0, 2)]))  # the public report does
