import random

import pytest

from spreadpol import (
    AmbientMismatchError,
    BadAmbientError,
    DegreeMismatchError,
    EmptySetError,
    Monomial,
    MonomialIdeal,
    NotMinimalError,
    NotSmoothInputError,
    ShapeMismatchError,
    SmoothCertificate,
    SmoothWitness,
    SupportOverlapError,
    T2Verdict,
    UnitGeneratorError,
    adjoin_disjoint,
    adjoin_pure_powers_condition,
    check_smooth,
    check_smooth_ideal,
    check_smooth_t2,
    is_smoothly_spreadable,
    product_construct,
    verify_certificate,
)
from genutils import random_ci_ideal, random_ideal, random_monomial_set, small_family
from oracles import smooth_by_exhaustion


def M(*exps):
    return Monomial(exps)


class TestCheckSmoothExamples:
    def test_triple_yes_with_known_tau(self):
        gens = [M(1, 1, 1), M(0, 2, 1)]
        res = check_smooth(gens, 3)
        assert isinstance(res, SmoothCertificate)
        assert res.tau == (1, 5, 6, 4, 2, 9, 7, 8, 3)
        assert res.cycles() == ((2, 5), (3, 6, 9))
        assert verify_certificate(gens, 3, res)

    def test_deep_no_with_witness(self):
        res = check_smooth([M(3, 1, 2), M(1, 2, 3)], 3)
        assert isinstance(res, SmoothWitness)
        assert (res.j, res.expected, res.found) == (2, 1, 0)
        assert {res.positions_i, res.positions_ell} == {
            frozenset({11}),
            frozenset({5, 8}),
        }

    def test_mixed_powers_yes(self):
        res = check_smooth([M(1, 2, 2), M(0, 3, 3)], 3)
        assert isinstance(res, SmoothCertificate)

    def test_mixed_powers_no(self):
        res = check_smooth([M(1, 1, 2), M(0, 3, 3)], 3)
        assert isinstance(res, SmoothWitness)
        assert (res.j, res.expected, res.found) == (3, 2, 1)
        assert {res.positions_i, res.positions_ell} == {
            frozenset({9, 12}),
            frozenset({12, 15, 18}),
        }

    def test_errors(self):
        with pytest.raises(EmptySetError):
            check_smooth([], 2)
        with pytest.raises(AmbientMismatchError):
            check_smooth([M(1, 0, 0)], 2)

    def test_single_monomial_always_smooth(self):
        assert isinstance(check_smooth([M(3, 1, 2)], 3), SmoothCertificate)


class TestVerifyCertificate:
    def test_identity_fails_on_triple(self):
        gens = [M(1, 1, 1), M(0, 2, 1)]
        identity = SmoothCertificate.from_permutation(3, 3, range(1, 10))
        assert not verify_certificate(gens, 3, identity)

    def test_identity_on_pure_powers(self):
        # for x_j^a the n-spread equals the polarization, so identity works
        gens = [M(2, 0), M(0, 2)]
        identity = SmoothCertificate.from_permutation(2, 2, range(1, 5))
        assert verify_certificate(gens, 2, identity)

    def test_shape_errors(self):
        gens = [M(1, 1, 1), M(0, 2, 1)]
        with pytest.raises(ShapeMismatchError):
            SmoothCertificate.from_permutation(3, 3, (2, 1) + tuple(range(3, 10)))
        cert = SmoothCertificate.from_permutation(3, 1, (1, 2, 3))
        with pytest.raises(ShapeMismatchError):
            verify_certificate(gens, 3, cert)
        with pytest.raises(ShapeMismatchError):
            verify_certificate([M(1, 1)], 2, check_smooth(gens, 3))

    def test_column_maps_match_tau(self):
        res = check_smooth([M(1, 1, 1), M(0, 2, 1)], 3)
        for j in range(1, 4):
            for s in range(3):
                assert res.tau[s * 3 + j - 1] == res.column_maps[j - 1][s] * 3 + j


class TestOracleAgreement:
    def test_small_random_sets(self):
        rng = random.Random(101)
        for _ in range(150):
            n = rng.randint(1, 3)
            ms = random_monomial_set(rng, n, rng.randint(1, 3), 3, max_deg=4)
            got = isinstance(check_smooth(ms, n), SmoothCertificate)
            assert got == smooth_by_exhaustion(ms, n)

    def test_certificate_soundness(self):
        # every certificate check_smooth returns passes the first-principles
        # check, over the small family and decide-shaped sets
        rng = random.Random(102)
        sets = [(I.generators, I.ambient) for I in small_family()]
        for _ in range(150):
            n = rng.randint(1, 3)
            sets.append((random_monomial_set(rng, n, rng.randint(1, 3), 3, max_deg=5), n))
        for _ in range(300):  # shaped like the benchmark's decide inputs
            n = rng.randint(2, 4)
            sets.append((random_monomial_set(rng, n, 5, 2), n))
        certified = 0
        for ms, n in sets:
            res = check_smooth(ms, n)
            if isinstance(res, SmoothCertificate):
                assert verify_certificate(ms, n, res), (ms, n)
                certified += 1
        assert certified > 100

    def test_verdict_without_certificate_matches_check_smooth(self):
        rng = random.Random(105)
        ideals = small_family()
        for _ in range(300):
            n = rng.randint(1, 4)
            ideals.append(random_ideal(rng, n, rng.randint(1, 5), 3))
        verdicts = []
        for I in ideals:
            verdicts.append(is_smoothly_spreadable(I))
            assert verdicts[-1] == isinstance(check_smooth_ideal(I), SmoothCertificate), I
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

    def test_witness_soundness(self):
        rng = random.Random(103)
        for _ in range(150):
            n = rng.randint(1, 3)
            ms = random_monomial_set(rng, n, rng.randint(2, 3), 3, max_deg=5)
            res = check_smooth(ms, n)
            if isinstance(res, SmoothWitness):
                u = ms[res.i - 1].exponents
                v = ms[res.ell - 1].exponents
                j = res.j
                pi, pl = sum(u[: j - 1]), sum(v[: j - 1])
                si = {(pi + s) * n + j for s in range(u[j - 1])}
                sl = {(pl + s) * n + j for s in range(v[j - 1])}
                assert si == res.positions_i and sl == res.positions_ell
                assert res.expected == min(u[j - 1], v[j - 1]) != len(si & sl)
                assert res.found == len(si & sl)

    def test_pairwise_subsumption(self):
        # the full verdict coincides with the conjunction over all pairs
        rng = random.Random(104)
        for _ in range(100):
            n = rng.randint(1, 3)
            ms = random_monomial_set(rng, n, 3, 3, max_deg=4)
            whole = isinstance(check_smooth(ms, n), SmoothCertificate)
            pairs = all(
                isinstance(check_smooth([u, v], n), SmoothCertificate)
                for k, u in enumerate(ms)
                for v in ms[k + 1 :]
            )
            assert whole == pairs


class TestClosureConstructions:
    def test_ci_ideals_are_smooth(self):
        rng = random.Random(105)
        for _ in range(100):
            n = rng.randint(1, 4)
            I = random_ci_ideal(rng, n, rng.randint(1, min(3, n)), 3)
            assert is_smoothly_spreadable(I)

    def test_adjoin_disjoint_examples(self):
        I = MonomialIdeal(1, [M(3)])
        J = adjoin_disjoint(I, Monomial((0, 1, 1)), 3)
        assert J == MonomialIdeal.from_exponents(3, [(3, 0, 0), (0, 1, 1)])
        assert is_smoothly_spreadable(J)
        K = adjoin_disjoint(J, Monomial.variable(4, 5, power=2), 5)
        assert is_smoothly_spreadable(K)
        bad = MonomialIdeal(2, [M(2, 1), M(0, 2)])
        grown = adjoin_disjoint(bad, Monomial.variable(3, 3, power=2), 3)
        assert not is_smoothly_spreadable(grown)

    def test_adjoin_disjoint_errors(self):
        I = MonomialIdeal(2, [M(2, 1), M(0, 2)])
        with pytest.raises(SupportOverlapError):
            adjoin_disjoint(I, Monomial((0, 1, 1)), 3)
        with pytest.raises(UnitGeneratorError):
            adjoin_disjoint(I, Monomial.unit(3), 3)

    def test_adjoin_disjoint_random_equivalence(self):
        rng = random.Random(106)
        for _ in range(80):
            n = rng.randint(1, 3)
            I = random_ideal(rng, n, rng.randint(1, 3), 3)
            extra = rng.randint(1, 2)
            n2 = n + extra
            exps = [0] * n + [rng.randint(0, 2) for _ in range(extra)]
            if not any(exps[n:]):
                exps[-1] = 1
            J = adjoin_disjoint(I, Monomial(exps, n2), n2)
            assert is_smoothly_spreadable(J) == is_smoothly_spreadable(I)

    def test_pure_power_condition_example(self):
        J = MonomialIdeal.from_exponents(3, [(1, 1, 1), (0, 2, 2)])
        assert adjoin_pure_powers_condition(J, [(1, 2), (2, 3), (3, 4)])
        L = MonomialIdeal(
            3,
            list(J.generators)
            + [
                Monomial.variable(1, 3, power=2),
                Monomial.variable(2, 3, power=3),
                Monomial.variable(3, 3, power=4),
            ],
        )
        assert is_smoothly_spreadable(L)

    def test_pure_power_condition_vacuous(self):
        I = MonomialIdeal.from_exponents(2, [(3, 0)])
        assert adjoin_pure_powers_condition(I, [(2, 1)])

    def test_pure_power_condition_not_minimal(self):
        I = MonomialIdeal.from_exponents(3, [(1, 1, 1), (0, 2, 2)])
        with pytest.raises(NotMinimalError):
            adjoin_pure_powers_condition(I, [(2, 1)])

    def test_pure_power_condition_false_when_degree_small(self):
        I = MonomialIdeal.from_exponents(3, [(1, 1, 1), (0, 2, 2)])
        assert not adjoin_pure_powers_condition(I, [(3, 3)])

    def test_pure_power_random_sufficiency(self):
        rng = random.Random(107)
        done = 0
        while done < 60:
            n = rng.randint(2, 3)
            I = random_ci_ideal(rng, n, rng.randint(1, 2), 2)
            usable = [
                j
                for j in range(1, n + 1)
                if all(g.support != {j} for g in I.generators)
            ]
            if not usable:
                continue
            powers = []
            for j in sorted(rng.sample(usable, rng.randint(1, len(usable)))):
                bound = max(
                    (
                        sum(g.exponents[:j])
                        for g in I.generators
                        if g.exponents[j - 1] > 0
                    ),
                    default=1,
                )
                # exceed every exponent at j so the power stays incomparable
                top = max(g.exponents[j - 1] for g in I.generators)
                powers.append((j, max(bound, top + 1) + rng.randint(0, 2)))
            assert adjoin_pure_powers_condition(I, powers)
            J = MonomialIdeal(
                n,
                list(I.generators)
                + [Monomial.variable(j, n, power=e) for j, e in powers],
            )
            assert is_smoothly_spreadable(J)
            done += 1

    def test_product_example(self):
        base = [M(2, 1), M(1, 2), M(0, 3)]
        factors = [Monomial((0, 0, 2, 0)), Monomial((0, 0, 1, 2))]
        out = product_construct(base, 2, factors, 4)
        assert len(out) == 6
        assert Monomial((2, 1, 1, 2)) in out

    def test_product_errors(self):
        base = [M(2, 1), M(1, 2)]
        with pytest.raises(UnitGeneratorError):
            product_construct(base, 2, [Monomial.unit(3)], 3)
        with pytest.raises(DegreeMismatchError):
            product_construct(
                [M(2, 1), M(0, 1)], 2, [Monomial((0, 0, 1))], 3
            )
        with pytest.raises(SupportOverlapError):
            product_construct(base, 2, [Monomial((0, 1, 1))], 3)
        with pytest.raises(NotSmoothInputError):
            product_construct(
                [Monomial((2, 1, 0)), Monomial((0, 2, 1))],
                3,
                [Monomial((0, 0, 0, 2))],
                4,
            )

    def test_product_random_smoothness(self):
        rng = random.Random(108)
        for _ in range(60):
            d = rng.randint(1, 3)
            count = rng.randint(1, min(3, d + 1))
            tops = sorted(rng.sample(range(d + 1), count), reverse=True)
            base = [M(a, d - a) for a in tops]
            extra = rng.randint(1, 2)
            n2 = 2 + extra
            factors = []
            for _ in range(rng.randint(1, 2)):
                exps = [0, 0] + [rng.randint(0, 2) for _ in range(extra)]
                if not any(exps[2:]):
                    exps[-1] = 1
                factors.append(Monomial(exps, n2))
            if not isinstance(check_smooth(factors, n2), SmoothCertificate):
                continue
            out = product_construct(base, 2, factors, n2)
            assert isinstance(check_smooth(list(out), n2), SmoothCertificate)


class TestT2Screen:
    def test_examples(self):
        assert (
            check_smooth_t2(MonomialIdeal.from_exponents(2, [(2, 1), (1, 2), (0, 3)]))
            is T2Verdict.SUFFICIENT_HOLDS
        )
        assert (
            check_smooth_t2(MonomialIdeal.from_exponents(2, [(2, 1), (0, 2)]))
            is T2Verdict.NECESSARY_FAILS
        )
        assert (
            check_smooth_t2(MonomialIdeal.from_exponents(2, [(2, 2), (0, 3)]))
            is T2Verdict.NECESSARY_FAILS
        )

    def test_indeterminate_pure_power_case(self):
        # (x1^3, x2): totals drop 3 -> 1 but the boundary conditions are
        # vacuous, so the screen cannot decide; the full check says smooth
        I = MonomialIdeal.from_exponents(2, [(3, 0), (0, 1)])
        assert check_smooth_t2(I) is T2Verdict.INDETERMINATE
        assert is_smoothly_spreadable(I)

    def test_single_generator(self):
        I = MonomialIdeal.from_exponents(2, [(2, 1)])
        assert check_smooth_t2(I) is T2Verdict.SUFFICIENT_HOLDS

    def test_bad_ambient(self):
        with pytest.raises(BadAmbientError):
            check_smooth_t2(MonomialIdeal.from_exponents(3, [(1, 1, 1)]))

    def test_screen_consistent_with_checker(self):
        rng = random.Random(109)
        for _ in range(200):
            I = random_ideal(rng, 2, rng.randint(1, 4), 4)
            verdict = check_smooth_t2(I)
            smooth = is_smoothly_spreadable(I)
            if verdict is T2Verdict.SUFFICIENT_HOLDS:
                assert smooth
            elif verdict is T2Verdict.NECESSARY_FAILS:
                assert not smooth

    def test_ideal_wrapper(self):
        I = MonomialIdeal.from_exponents(3, [(1, 1, 1), (0, 2, 1)])
        assert isinstance(check_smooth_ideal(I), SmoothCertificate)
