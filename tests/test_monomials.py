import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadpol import (
    AmbientMismatchError,
    BadParameterError,
    DegreeBoundError,
    ExponentOverflowError,
    Monomial,
    MonomialIdeal,
    TooLargeError,
    UnitGeneratorError,
    ZeroIdealError,
    build_lcm_lattice,
    embed_spread,
    is_complete_intersection,
    is_t_spread,
    minimalize,
    polarize,
    polarize_ideal,
    sigma,
    sigma_t,
    spread_ideal,
)
from spreadpol.monomials import MAX_AMBIENT, MAX_DEGREE, MAX_EXPONENT
from genutils import random_ci_ideal, random_ideal, random_monomial

exponent_vectors = st.lists(st.integers(0, 4), min_size=1, max_size=5)


def M(*exps):
    return Monomial(exps)


class TestMonomialBasics:
    @given(exponent_vectors)
    def test_index_form_roundtrip(self, exps):
        u = Monomial(exps)
        assert Monomial.from_indices(u.indices, u.ambient) == u
        assert len(u.indices) == u.degree

    @given(exponent_vectors)
    def test_support_and_degree(self, exps):
        u = Monomial(exps)
        assert u.degree == sum(exps)
        assert u.support == {j + 1 for j, e in enumerate(exps) if e}
        assert u.is_unit == (u.degree == 0)

    @given(exponent_vectors, exponent_vectors)
    def test_lcm_gcd_laws(self, e1, e2):
        n = max(len(e1), len(e2))
        u = Monomial(e1).in_ambient(n)
        v = Monomial(e2).in_ambient(n)
        assert u.lcm(v) == v.lcm(u)
        assert u.gcd(v) == v.gcd(u)
        assert u.gcd(u.lcm(v)) == u
        assert u.lcm(u.gcd(v)) == u
        assert u.divides(u.lcm(v)) and u.gcd(v).divides(u)
        assert u.gcd(v) * u.lcm(v) == u * v

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            M(1, 0).lcm(M(1, 0, 0))

    def test_lcm_with_unit(self):
        u = M(2, 0, 1)
        assert u.lcm(Monomial.unit(3)) == u

    def test_paper_gcd_values(self):
        u = Monomial.from_indices([1, 4, 7, 11, 2, 3, 6], 18)
        v = Monomial.from_indices([1, 2, 5, 3, 6, 9], 18)
        assert u.gcd(v) == Monomial.from_indices([1, 2, 3, 6], 18)
        assert M(4, 0).lcm(M(0, 2)) == M(4, 2)

    def test_overflow_guards(self):
        with pytest.raises(OverflowError):
            Monomial((1 << 16,))
        with pytest.raises(BadParameterError):
            Monomial((-1,))

    def test_overflow_is_too_large(self):
        with pytest.raises(TooLargeError):
            Monomial((1 << 16,))

    def test_degree_guard_on_derived_monomials(self):
        top = MAX_EXPONENT - 1
        assert Monomial((top,) * 32768).degree < MAX_DEGREE
        with pytest.raises(ExponentOverflowError, match="degree exceeds"):
            Monomial((top,) * 32769)
        # each factor is below the degree cap, their lcm (disjoint supports) is not
        half = 20000
        u = Monomial((top,) * half + (0,) * half)
        v = Monomial((0,) * half + (top,) * half)
        assert u.degree < MAX_DEGREE and v.degree < MAX_DEGREE
        assert u.degree + v.degree >= MAX_DEGREE
        with pytest.raises(TooLargeError, match="degree exceeds"):
            u.lcm(v)
        with pytest.raises(TooLargeError, match="degree exceeds"):
            build_lcm_lattice(MonomialIdeal(2 * half, [u, v]))

    def test_ambient_cap(self):
        # checked before the dense exponent vector is allocated
        wide = MAX_AMBIENT + 1
        for build in (
            lambda: Monomial.unit(wide),
            lambda: Monomial.variable(1, wide),
            lambda: Monomial.from_indices([1], wide),
            lambda: M(1, 0).in_ambient(wide),
            lambda: Monomial.from_indices([1], 10**12),
        ):
            with pytest.raises(TooLargeError):
                build()
        assert M(1, 0).in_ambient(MAX_AMBIENT).degree == 1

    def test_str(self):
        assert str(M(2, 1, 0)) == "x1^2*x2"
        assert str(Monomial.unit(4)) == "1"


class TestSigma:
    def test_sigma_on_square(self):
        assert sigma(M(2, 0)) == Monomial.from_indices([1, 2], 3)

    def test_sigma_on_unit(self):
        assert sigma(Monomial.unit(2)) == Monomial.unit(2)

    def test_sigma_twice(self):
        u = M(2, 1)
        assert sigma(sigma(u)) == Monomial.from_indices([1, 3, 6], 6)

    def test_sigma_t_examples(self):
        assert sigma_t(M(0, 2, 1), 3) == Monomial.from_indices([2, 5, 9], 9)
        u = M(3, 0)
        assert sigma_t(u, 0) == u
        assert sigma_t(M(3,), 3) == Monomial.from_indices([1, 4, 7], 7)

    @given(exponent_vectors, st.integers(0, 5))
    def test_closed_form_equals_iteration(self, exps, t):
        u = Monomial(exps)
        iterated = u
        for _ in range(t):
            iterated = sigma(iterated)
        assert sigma_t(u, t) == iterated

    @given(exponent_vectors, st.integers(0, 5))
    def test_bijectivity_onto_t_spread(self, exps, t):
        u = Monomial(exps)
        v = sigma_t(u, t)
        assert is_t_spread(v, t)
        back = [i - k * t for k, i in enumerate(v.indices)]
        assert Monomial.from_indices(back, u.ambient) == u

    @given(exponent_vectors)
    def test_zero_and_one_spread(self, exps):
        u = Monomial(exps)
        assert is_t_spread(u, 0)
        assert is_t_spread(u, 1) == u.is_squarefree

    def test_spread_gap_examples(self):
        assert is_t_spread(Monomial.from_indices([1, 5, 9], 9), 3)
        assert not is_t_spread(Monomial.from_indices([1, 2], 2), 2)


class TestCoprimalityTransfer:
    def test_random_coprime_pairs_stay_coprime(self):
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(2, 5)
            I = random_ci_ideal(rng, n, 2, 3)
            u, v = I.generators
            for t in range(n, n + 3):
                su, sv = sigma_t(u, t), sigma_t(v, t)
                big = max(su.ambient, sv.ambient)
                assert su.in_ambient(big).gcd(sv.in_ambient(big)).is_unit

    def test_random_ci_spreads_stay_ci(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(2, 5)
            I = random_ci_ideal(rng, n, rng.randint(1, min(3, n)), 3)
            assert is_complete_intersection(I)
            for t in range(n, n + 3):
                assert is_complete_intersection(spread_ideal(I, t))


class TestMonomialIdeal:
    def test_minimalization_and_canonical_order(self):
        I = MonomialIdeal(2, [M(1, 0), M(1, 1)])
        assert I.generators == (M(1, 0),)
        assert MonomialIdeal(2, [M(2, 1), M(0, 2)]).generators == (M(0, 2), M(2, 1))

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ZeroIdealError):
            MonomialIdeal(2, [])
        with pytest.raises(UnitGeneratorError):
            MonomialIdeal(2, [Monomial.unit(2)])

    def test_deg(self):
        assert MonomialIdeal(2, [M(2, 1), M(0, 2)]).deg == 3

    def test_minimalize_examples(self):
        assert minimalize([M(1, 0), M(1, 1)]) == (M(1, 0),)
        assert minimalize([M(2, 1), M(0, 2)]) == (M(0, 2), M(2, 1))
        big = [M(1, 1, 1), M(1, 1, 2), M(0, 2, 1), M(0, 2, 2)]
        assert set(minimalize(big)) == {M(1, 1, 1), M(0, 2, 1)}

    @given(st.lists(exponent_vectors.map(tuple), min_size=1, max_size=6))
    def test_minimalize_idempotent_and_incomparable(self, rows):
        gens = [Monomial(r + (1,)) for r in rows]  # force nonunit
        n = max(g.ambient for g in gens)
        gens = [g.in_ambient(n) for g in gens]
        out = minimalize(gens)
        assert minimalize(out) == out
        for u in out:
            for v in out:
                assert u == v or not u.divides(v)
        assert set(out) <= set(gens)
        assert all(any(v.divides(u) for v in out) for u in gens)


class TestSpreadIdeal:
    def test_two_squares(self):
        I = MonomialIdeal(2, [M(2, 0), M(0, 2)])
        assert spread_ideal(I, 1) == MonomialIdeal.from_exponents(
            3, [(1, 1, 0), (0, 1, 1)]
        )
        assert not is_complete_intersection(spread_ideal(I, 1))
        assert is_complete_intersection(spread_ideal(I, 2))

    def test_remark_pair(self):
        I = MonomialIdeal(2, [M(2, 1), M(0, 2)])
        assert spread_ideal(I, 2) == MonomialIdeal.from_exponents(
            6, [(1, 0, 1, 0, 0, 1), (0, 1, 0, 1, 0, 0)]
        )

    def test_t_zero_is_identity(self):
        I = MonomialIdeal(3, [M(1, 2, 0), M(0, 0, 3)])
        assert spread_ideal(I, 0) == I

    def test_padding(self):
        I = MonomialIdeal(2, [M(2, 1), M(0, 2)])
        assert spread_ideal(I, 3).ambient == 2 + 3 * 2
        assert spread_ideal(I, 3, pad=True).ambient == 9
        with pytest.raises(BadParameterError):
            spread_ideal(I, 1, pad=True)

    def test_nonminimal_image_is_reported(self):
        # x3 and x1*x2 are incomparable but their 1-spreads x3, x1*x3 are not
        I = MonomialIdeal(3, [M(0, 0, 1), M(1, 1, 0)])
        with pytest.raises(BadParameterError):
            spread_ideal(I, 1)

    def test_huge_step_is_too_large(self):
        I = MonomialIdeal(2, [M(2, 1), M(0, 2)])
        for t in (MAX_AMBIENT, 10**12):
            with pytest.raises(TooLargeError):
                spread_ideal(I, t)
        with pytest.raises(TooLargeError):
            spread_ideal(I, MAX_AMBIENT // 3 + 1, pad=True)
        # degree-one generators do not move, so no wide vector is needed
        linear = MonomialIdeal(2, [M(1, 0), M(0, 1)])
        assert spread_ideal(linear, 10**12) == linear

    def test_pure_power_staircase_becomes_intervals(self):
        # x_a^c with a + c strictly increasing spreads to the variable
        # intervals [a, a+c-1] under one application
        rng = random.Random(7)
        for _ in range(100):
            s = rng.randint(1, 4)
            pairs = []
            a = 0
            bound = 0
            for _ in range(s):
                a = a + rng.randint(1, 2)
                c = rng.randint(max(1, bound - a + 1), bound - a + 3)
                pairs.append((a, c))
                bound = a + c
            n = pairs[-1][0]
            J = MonomialIdeal(
                n, [Monomial.variable(a, n, power=c) for a, c in pairs]
            )
            out = spread_ideal(J, 1)
            expected = MonomialIdeal(
                out.ambient,
                [
                    Monomial.from_indices(range(a, a + c), out.ambient)
                    for a, c in pairs
                ],
            )
            assert out == expected


class TestPolarize:
    def test_examples(self):
        assert polarize(M(0, 2, 1), 3, 3) == Monomial.from_indices([2, 5, 3], 9)
        assert polarize(M(2, 2), 2, 4) == Monomial.from_indices([1, 3, 2, 4], 8)

    @given(exponent_vectors)
    def test_squarefree_fixed(self, exps):
        u = Monomial([min(e, 1) for e in exps])
        n, d = u.ambient, max(u.degree, 1)
        assert polarize(u, n, d) == u.in_ambient(n * d)

    @given(exponent_vectors, st.integers(0, 3))
    def test_degree_preserved_and_squarefree(self, exps, slack):
        u = Monomial(exps)
        d = u.degree + slack
        v = polarize(u, u.ambient, d)
        assert v.degree == u.degree
        assert v.is_squarefree
        assert v.ambient == u.ambient * d

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    def test_pure_powers_match_spreading(self, n, j, a):
        j = min(j, n)
        u = Monomial.variable(j, n, power=a)
        d = u.degree
        assert polarize(u, n, d).indices == sigma_t(u, n).indices

    def test_degree_bound_error(self):
        with pytest.raises(DegreeBoundError):
            polarize(M(2, 1), 2, 2)

    def test_polarize_ideal(self):
        I = MonomialIdeal(3, [M(1, 1, 1), M(0, 2, 1)])
        assert polarize_ideal(I) == MonomialIdeal(
            9,
            [
                Monomial.from_indices([1, 2, 3], 9),
                Monomial.from_indices([2, 5, 3], 9),
            ],
        )
        J = MonomialIdeal(2, [M(2, 2), M(0, 3)])
        assert polarize_ideal(J) == MonomialIdeal(
            8,
            [
                Monomial.from_indices([1, 3, 2, 4], 8),
                Monomial.from_indices([2, 4, 6], 8),
            ],
        )

    def test_squarefree_ideal_polarizes_to_itself(self):
        I = MonomialIdeal(3, [M(1, 1, 0), M(0, 1, 1)])
        P = polarize_ideal(I)
        assert P == I.in_ambient(3 * I.deg)


class TestEmbedSpread:
    def test_identity_at_t_equals_n(self):
        I = MonomialIdeal(2, [M(2, 0), M(0, 2)])
        image, emb = embed_spread(I, 2)
        assert emb.table == tuple(range(1, 5))
        assert image == spread_ideal(I, 2)

    def test_explicit_reembedding(self):
        I = MonomialIdeal(2, [M(2, 1), M(0, 2)])
        image, emb = embed_spread(I, 3)
        assert image == MonomialIdeal(
            9,
            [
                Monomial.from_indices([1, 4, 8], 9),
                Monomial.from_indices([2, 5], 9),
            ],
        )

    def test_rejects_small_t(self):
        I = MonomialIdeal(3, [M(1, 1, 1), M(0, 2, 1)])
        with pytest.raises(BadParameterError):
            embed_spread(I, 2)

    def test_images_are_t_spread_random(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 3)
            I = random_ideal(rng, n, rng.randint(1, 3), 3)
            for t in range(n, n + 3):
                image, _ = embed_spread(I, t)
                assert all(is_t_spread(g, t) for g in image.generators)
                assert image == spread_ideal(I, t, pad=True)


class TestCompleteIntersection:
    def test_examples(self):
        assert is_complete_intersection(
            MonomialIdeal(3, [M(3, 0, 0), M(0, 1, 1)])
        )
        assert not is_complete_intersection(
            MonomialIdeal(4, [M(1, 1, 1, 0), M(0, 1, 0, 1)])
        )
        assert is_complete_intersection(MonomialIdeal(2, [M(2, 1)]))
