import random
import time

import pytest

from spreadpol import (
    BadParameterError,
    LatticeMap,
    LcmLattice,
    Monomial,
    MonomialIdeal,
    TooLargeError,
    WellDefinednessViolation,
    build_delta,
    build_lcm_lattice,
    hasse_dot,
    is_isomorphic,
    is_smoothly_spreadable,
    sigma_t,
    spread_ideal,
    verify_delta,
)
from genutils import random_equal_degree_ideal, random_ideal, random_monomial
from oracles import delta_by_all_pairs, isomorphism_by_permutations


def M(*exps):
    return Monomial(exps)


def ideal(n, rows):
    return MonomialIdeal.from_exponents(n, rows)


class TestBuild:
    def test_boolean_square(self):
        L = build_lcm_lattice(ideal(2, [(1, 0), (0, 1)]))
        assert set(L.elements) == {M(0, 0), M(1, 0), M(0, 1), M(1, 1)}
        assert L.bottom == M(0, 0) and L.top == M(1, 1)
        assert len(L.covers()) == 4

    def test_top_from_two_atoms(self):
        L = build_lcm_lattice(ideal(2, [(4, 0), (2, 1), (0, 2)]))
        assert M(4, 0).lcm(M(0, 2)) == L.top == M(4, 2)
        assert len(L) == 7

    def test_pairwise_lcm_below_top(self):
        I = ideal(
            8,
            [
                (1, 0, 1, 0, 1, 0, 1, 0),
                (1, 0, 1, 0, 0, 1, 0, 0),
                (0, 1, 0, 1, 0, 0, 0, 0),
            ],
        )
        L = build_lcm_lattice(I)
        g = I.generators
        square = [x for x in g if x.degree == 4][0]
        pair = [x for x in g if x.degree == 2][0]
        assert square.lcm(pair) != L.top
        assert len(L) == 8

    def test_atom_support(self):
        I = ideal(2, [(2, 0), (0, 2)])
        L = build_lcm_lattice(I)
        assert L.atom_support(L.top) == {0, 1}
        assert L.atom_support(L.bottom) == frozenset()

    def test_cap(self):
        n = 21
        gens = [Monomial.variable(j, n) for j in range(1, n + 1)]
        with pytest.raises(TooLargeError):
            build_lcm_lattice(MonomialIdeal(n, gens))

    def test_element_cap(self):
        # the complete intersection x1, ..., x15 has 2^15 lcms; it is refused
        # while the subset lcms are collected, before any mask is built
        n = 15
        gens = [Monomial.variable(j, n) for j in range(1, n + 1)]
        start = time.perf_counter()
        with pytest.raises(TooLargeError):
            build_lcm_lattice(MonomialIdeal(n, gens))
        assert time.perf_counter() - start < 2.0
        # twenty atoms with few lcms stay under both caps
        staircase = [Monomial((a, 19 - a)) for a in range(20)]
        assert len(build_lcm_lattice(MonomialIdeal(2, staircase))) == 1 + 20 * 21 // 2

    def test_element_count_bound(self):
        rng = random.Random(21)
        for _ in range(50):
            I = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 4), 3)
            L = build_lcm_lattice(I)
            assert len(L) <= 2 ** len(I.generators)
            assert all(a in L.elements for a in L.atoms)


class TestJoinMeet:
    def test_join_table_laws(self):
        rng = random.Random(22)
        for _ in range(30):
            I = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
            L = build_lcm_lattice(I)
            for u in L.elements:
                assert L.join(u, u) == u
                assert L.join(L.bottom, u) == u
                assert L.join(L.top, u) == L.top
                for v in L.elements:
                    assert L.join(u, v) == L.join(v, u)
                    for w in L.elements:
                        assert L.join(L.join(u, v), w) == L.join(u, L.join(v, w))

    def test_meet_is_not_gcd(self):
        # gcd(x1x2, x2x3) = x2 lies outside the lattice; the meet is 1
        L = build_lcm_lattice(ideal(3, [(1, 1, 0), (0, 1, 1)]))
        assert L.meet(M(1, 1, 0), M(0, 1, 1)) == M(0, 0, 0)

    def test_meet_glb_property(self):
        rng = random.Random(23)
        for _ in range(20):
            I = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            L = build_lcm_lattice(I)
            for u in L.elements:
                for v in L.elements:
                    w = L.meet(u, v)
                    assert w.divides(u) and w.divides(v)
                    for c in L.elements:
                        if c.divides(u) and c.divides(v):
                            assert c.divides(w)


class TestIsomorphism:
    def test_spread_pair_isomorphic(self):
        I = ideal(2, [(2, 2), (0, 3)])
        L1 = build_lcm_lattice(I)
        L2 = build_lcm_lattice(spread_ideal(I, 2))
        bij = is_isomorphic(L1, L2)
        assert bij is not None
        atoms2 = set(L2.atoms)
        assert all(bij[a] in atoms2 for a in L1.atoms)

    def test_spread_pair_not_isomorphic(self):
        I = ideal(2, [(4, 0), (2, 1), (0, 2)])
        assert (
            is_isomorphic(
                build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, 2))
            )
            is None
        )

    def test_reflexive_identity(self):
        L = build_lcm_lattice(ideal(2, [(2, 1), (0, 2)]))
        bij = is_isomorphic(L, L)
        assert bij == {e: e for e in L.elements}

    def test_symmetric(self):
        rng = random.Random(24)
        for _ in range(40):
            I1 = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            I2 = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 3), 2)
            L1, L2 = build_lcm_lattice(I1), build_lcm_lattice(I2)
            assert (is_isomorphic(L1, L2) is None) == (is_isomorphic(L2, L1) is None)

    def test_same_shape_different_ambient(self):
        L1 = build_lcm_lattice(ideal(2, [(1, 0), (0, 1)]))
        L2 = build_lcm_lattice(ideal(4, [(0, 2, 0, 0), (0, 0, 0, 3)]))
        bij = is_isomorphic(L1, L2)
        assert bij is not None and bij[L1.top] == L2.top

    def test_smooth_ideals_have_isomorphic_spread_lattice(self):
        rng = random.Random(25)
        found = 0
        while found < 30:
            n = rng.randint(1, 3)
            I = random_ideal(rng, n, rng.randint(1, 3), 2)
            if not is_smoothly_spreadable(I):
                continue
            assert (
                is_isomorphic(
                    build_lcm_lattice(I),
                    build_lcm_lattice(spread_ideal(I, n)),
                )
                is not None
            )
            found += 1

    def test_ci8_self_isomorphism_is_the_identity(self):
        L = build_lcm_lattice(
            MonomialIdeal(8, [Monomial.variable(j, 8) for j in range(1, 9)])
        )
        assert is_isomorphic(L, L) == {e: e for e in L.elements}

    def test_lattice_not_fixed_by_atom_sets_is_rejected(self):
        chain = LcmLattice(1, (M(1),), (M(0), M(1), M(2)))
        two = build_lcm_lattice(ideal(1, [(1,)]))
        for pair in [(chain, chain), (chain, two), (two, chain)]:
            with pytest.raises(BadParameterError):
                is_isomorphic(*pair)


def _iso_pairs():
    """Spread pairs, and unrelated pairs with equal element and atom counts."""
    rng = random.Random(30)
    spread_pairs, seen = [], {}
    for _ in range(150):
        n, m, d = rng.randint(3, 4), rng.randint(4, 5), rng.randint(2, 4)
        I = random_equal_degree_ideal(rng, n, m, d)
        L = build_lcm_lattice(I)
        if len(spread_pairs) < 60:
            spread_pairs.append((L, build_lcm_lattice(spread_ideal(I, n))))
        seen.setdefault((len(L), len(L.atoms)), []).append(L)
    unrelated = [pair for same in seen.values() for pair in zip(same, same[1:])]
    return spread_pairs + unrelated


class TestIsomorphismReference:
    def test_same_verdict_and_witness_as_brute_force(self):
        pairs = _iso_pairs()
        found = 0
        for L1, L2 in pairs:
            bij = is_isomorphic(L1, L2)
            assert bij == isomorphism_by_permutations(L1, L2), (L1.atoms, L2.atoms)
            found += bij is not None
        assert found >= 30 and len(pairs) - found >= 30

    def test_witness_preserves_join_and_meet(self):
        for L1, L2 in _iso_pairs():
            bij = is_isomorphic(L1, L2)
            if bij is None:
                continue
            assert sorted(bij.values()) == list(L2.elements)
            for u in L1.elements:
                for v in L1.elements:
                    assert bij[L1.join(u, v)] == L2.join(bij[u], bij[v])
                    assert bij[L1.meet(u, v)] == L2.meet(bij[u], bij[v])


class TestDelta:
    def test_boolean_square_bijection(self):
        dmap = build_delta(ideal(2, [(1, 0), (0, 1)]))
        assert verify_delta(dmap)
        assert len(set(dmap.mapping.values())) == len(dmap.source.elements)

    def test_collapsing_surjection(self):
        dmap = build_delta(ideal(2, [(4, 0), (2, 1), (0, 2)]))
        assert verify_delta(dmap)
        assert len(dmap.source.elements) == 8
        assert len(dmap.target.elements) == 7
        preimages = {}
        for k, v in dmap.mapping.items():
            preimages.setdefault(v, []).append(k)
        assert len(preimages[dmap.target.top]) == 2

    def test_bijective_case(self):
        dmap = build_delta(ideal(2, [(2, 2), (0, 3)]))
        assert verify_delta(dmap)
        assert len(set(dmap.mapping.values())) == len(dmap.source.elements) == 4

    def test_random_delta_verifies_whenever_it_exists(self):
        rng = random.Random(26)
        built = 0
        for _ in range(80):
            I = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 4), 3)
            try:
                dmap = build_delta(I)
            except WellDefinednessViolation:
                continue  # see TestCollapseCounterexample
            assert verify_delta(dmap)
            built += 1
        assert built >= 60

    def test_smooth_ideals_always_admit_bijective_delta(self):
        rng = random.Random(28)
        found = 0
        while found < 40:
            n = rng.randint(1, 3)
            I = random_ideal(rng, n, rng.randint(1, 4), 3)
            if not is_smoothly_spreadable(I):
                continue
            dmap = build_delta(I)
            assert verify_delta(dmap)
            assert len(set(dmap.mapping.values())) == len(dmap.source.elements)
            found += 1

    def test_verify_delta_rejects_constant_map(self):
        L = build_lcm_lattice(ideal(2, [(1, 0), (0, 1)]))
        const = LatticeMap(
            source=L, target=L, mapping={e: L.top for e in L.elements}
        )
        assert not verify_delta(const)

    def test_verify_delta_identity(self):
        L = build_lcm_lattice(ideal(2, [(2, 1), (0, 2)]))
        ident = LatticeMap(
            source=L, target=L, mapping={e: e for e in L.elements}
        )
        assert verify_delta(ident)

    def test_verify_delta_rejects_lattice_not_fixed_by_atom_sets(self):
        chain = LcmLattice(1, (M(1),), (M(0), M(1), M(2)))
        ident = LatticeMap(source=chain, target=chain, mapping={e: e for e in chain.elements})
        with pytest.raises(BadParameterError):
            verify_delta(ident)

    def test_atom_step_agrees_with_all_pairs_reference(self):
        """Collapse maps, one-entry changes of them, and random self-maps."""
        rng = random.Random(27)
        verdicts = []

        def check(source, target, mapping):
            dmap = LatticeMap(source=source, target=target, mapping=mapping)
            verdicts.append(verify_delta(dmap))
            assert verdicts[-1] == delta_by_all_pairs(dmap), mapping

        while len(verdicts) < 2000:
            I = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 4), 3)
            try:
                dmap = build_delta(I)
            except WellDefinednessViolation:
                continue
            spr, src = dmap.source, dmap.target
            check(spr, src, dmap.mapping)
            for _ in range(6):
                changed = dict(dmap.mapping)
                changed[rng.choice(spr.elements)] = rng.choice(src.elements)
                check(spr, src, changed)
            rest = list(src.elements[1:])
            for _ in range(6):
                values = rng.sample(rest, len(rest)) if rng.random() < 0.5 else [
                    rng.choice(src.elements) for _ in rest
                ]
                check(src, src, dict(zip(src.elements, [src.bottom] + values)))
        assert verdicts.count(False) >= 500 and verdicts.count(True) >= 500

    def test_lcm_of_spreads_determines_prefix_maxima(self):
        # the spread-side lcm pins down, per variable, the largest prefix sum
        # over the family (the top of each offset-interval union); it does
        # NOT determine the source lcm itself (see TestCollapseCounterexample)
        rng = random.Random(27)
        for _ in range(60):
            n = rng.randint(1, 3)
            pool = [random_monomial(rng, n, 3) for _ in range(4)]
            big = n * max(u.degree for u in pool)
            spreads = [sigma_t(u, n).in_ambient(big) for u in pool]

            def prefix_maxima(idxs):
                return tuple(
                    max(sum(pool[i].exponents[:j]) for i in idxs)
                    for j in range(1, n + 1)
                )

            for _ in range(10):
                a = [i for i in range(4) if rng.random() < 0.5]
                b = [i for i in range(4) if rng.random() < 0.5]
                if not a or not b:
                    continue
                lcm_sa = lcm_list([spreads[i] for i in a])
                lcm_sb = lcm_list([spreads[i] for i in b])
                if lcm_sa == lcm_sb:
                    assert prefix_maxima(a) == prefix_maxima(b)

    def test_lcm_transfer_holds_for_singletons(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 4)
            u = random_monomial(rng, n, 4)
            v = random_monomial(rng, n, 4)
            big = n * max(u.degree, v.degree)
            if sigma_t(u, n).in_ambient(big) == sigma_t(v, n).in_ambient(big):
                assert u == v


def lcm_list(monomials):
    out = monomials[0]
    for u in monomials[1:]:
        out = out.lcm(u)
    return out


class TestCollapseCounterexample:
    """Spreading can identify subset lcms that differ at the source.

    For I = (x2^3*x3, x1^2*x3, x1*x2*x3^2) the 3-spread of x1*x2*x3^2
    divides the lcm of the other two spreads although the original does not
    divide the lcm of the other two originals.  The spread lattice therefore
    has 7 elements against the source's 8, no join-preserving surjection can
    exist, and the depth of the spread quotient exceeds the additive bound.
    """

    IDEAL = [(0, 3, 1), (2, 0, 1), (1, 1, 2)]

    def test_spread_lcm_collapses(self):
        u1, u2, u3 = (Monomial(e) for e in self.IDEAL)
        s1, s2, s3 = (sigma_t(u, 3).in_ambient(12) for u in (u1, u2, u3))
        assert s3.divides(s1.lcm(s2))
        assert not u3.divides(u1.lcm(u2))

    def test_lattice_sizes_differ(self):
        I = ideal(3, self.IDEAL)
        assert len(build_lcm_lattice(I)) == 8
        assert len(build_lcm_lattice(spread_ideal(I, 3))) == 7

    def test_delta_does_not_exist(self):
        with pytest.raises(WellDefinednessViolation):
            build_delta(ideal(3, self.IDEAL))


class TestHasseDot:
    def test_boolean_square(self):
        text = hasse_dot(build_lcm_lattice(ideal(2, [(1, 0), (0, 1)])))
        lines = text.strip().splitlines()
        assert lines[0] == "digraph lcm_lattice {" and lines[-1] == "}"
        nodes = [l for l in lines if ";" in l and "->" not in l]
        edges = [l for l in lines if "->" in l]
        assert len(nodes) == 4 and len(edges) == 4

    def test_chain_of_three(self):
        chain = LcmLattice(1, (M(1),), (M(0), M(1), M(2)))
        text = hasse_dot(chain)
        nodes = [l for l in text.splitlines() if ";" in l and "->" not in l]
        edges = [l for l in text.splitlines() if "->" in l]
        assert len(nodes) == 3 and len(edges) == 2

    def test_golden_text(self):
        text = hasse_dot(build_lcm_lattice(ideal(2, [(2, 2), (0, 3)])))
        assert text == (
            "digraph lcm_lattice {\n"
            '  "1";\n'
            '  "x2^3";\n'
            '  "x1^2*x2^2";\n'
            '  "x1^2*x2^3";\n'
            '  "1" -> "x2^3";\n'
            '  "1" -> "x1^2*x2^2";\n'
            '  "x2^3" -> "x1^2*x2^3";\n'
            '  "x1^2*x2^2" -> "x1^2*x2^3";\n'
            "}\n"
        )

    def test_element_order_is_lex(self):
        L = build_lcm_lattice(ideal(2, [(2, 2), (0, 3)]))
        assert list(L.elements) == sorted(L.elements)


class TestLatticeAccess:
    def test_index_errors(self):
        L = build_lcm_lattice(ideal(2, [(1, 0), (0, 1)]))
        with pytest.raises(BadParameterError):
            L.index(M(1, 2))

    def test_element_order_is_checked(self):
        with pytest.raises(BadParameterError):
            LcmLattice(1, (M(1),), (M(1), M(0)))  # multiple before divisor
        with pytest.raises(BadParameterError):
            LcmLattice(1, (M(1),), (M(0), M(1), M(1)))
        with pytest.raises(BadParameterError):
            LcmLattice(1, (M(3),), (M(0), M(1)))  # atom outside the lattice

    def test_leq(self):
        L = build_lcm_lattice(ideal(2, [(1, 0), (0, 1)]))
        assert L.leq(L.bottom, L.top)
        assert not L.leq(M(1, 0), M(0, 1))
