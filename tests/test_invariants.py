import itertools
import random
import sys

import pytest

from spreadpol import (
    BadParameterError,
    LcmLattice,
    Monomial,
    MonomialIdeal,
    TooLargeError,
    build_characteristic_poset,
    build_lcm_lattice,
    depth_quotient,
    is_isomorphic,
    order_complex_betti,
    sdepth_ideal,
    sdepth_quotient,
    spread_ideal,
    verify_spreading_laws,
)
from spreadpol.invariants import MAX_DEPTH_ATOMS
from spreadpol.taylor import taylor_betti
from genutils import random_ci_ideal, random_equal_degree_ideal, random_ideal
from oracles import box_partition_by_points, order_complex_betti_by_chains


def M(*exps):
    return Monomial(exps)


def ideal(n, rows):
    return MonomialIdeal.from_exponents(n, rows)


def in_ideal(poset):
    """Membership flags of the poset's points, decoded from its ideal mask."""
    return [bool(poset.ideal_mask >> i & 1) for i in range(len(poset.points))]


def side_points(poset, ideal_side):
    return [p for p, flag in zip(poset.points, in_ideal(poset)) if flag == ideal_side]


CYC4 = [(2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2)]


class TestOrderComplexBetti:
    def test_empty_interval(self):
        L = build_lcm_lattice(ideal(1, [(2,)]))
        assert order_complex_betti(L, L.top) == {-1: 1}

    def test_cone_is_acyclic(self):
        chain = LcmLattice(1, (M(1),), (M(0), M(1), M(2)))
        assert order_complex_betti(chain, M(2)) == {}

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
        rng = random.Random(93)
        lattices = [LcmLattice(1, (M(1),), (M(0), M(1), M(2)))]
        for _ in range(60):
            n, k, d = rng.randint(2, 4), rng.randint(3, 6), rng.randint(2, 4)
            lattices.append(build_lcm_lattice(random_equal_degree_ideal(rng, n, k, d)))
        dims = set()
        for L in lattices:
            for m in L.elements[1:]:
                betti = order_complex_betti(L, m)
                assert betti == order_complex_betti_by_chains(L, m), (L.atoms, m)
                dims |= set(betti)
        assert dims == {-1, 0, 1, 2}


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
        assert len(ci8.generators) == MAX_DEPTH_ATOMS
        rep = depth_quotient(ci8)
        assert rep.value == 0
        assert dict(rep.betti.entries) == taylor_betti(ci8)

    def test_generator_cap(self):
        n = 9
        gens = [Monomial.variable(j, n) for j in range(1, n + 1)]
        with pytest.raises(TooLargeError):
            depth_quotient(MonomialIdeal(n, gens))


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

    def _check_report(self, I, rep, side):
        poset = build_characteristic_poset(I)
        points = set(side_points(poset, side))
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

    @staticmethod
    def _grid_size(I):
        size = 1
        for g in I.lcm_of_generators.exponents:
            size *= g + 1
        return size

    def test_same_partitions_as_reference(self):
        rng = random.Random(95)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 4)
            I = random_ideal(rng, n, rng.randint(2, 4), 3)
            family = [I, spread_ideal(I, n, pad=True), spread_ideal(I, n + 1, pad=True)]
            if max(self._grid_size(J) for J in family) > 256:
                continue
            checked += 1
            for J in family:
                poset = build_characteristic_poset(J)
                for side, sdepth in ((False, sdepth_quotient), (True, sdepth_ideal)):
                    rep = sdepth(J)
                    expected = box_partition_by_points(side_points(poset, side), poset.bound)
                    assert (rep.value, rep.intervals) == expected, (J, side)

    def test_leaves_the_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("sys.setrecursionlimit called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        S = spread_ideal(ideal(4, CYC4), 4, pad=True)
        assert sdepth_quotient(S).value == 8
        assert sdepth_ideal(S).value == 10


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
        I = ideal(1, [(5000,)])
        with pytest.raises(TooLargeError, match="source ideal"):
            verify_spreading_laws(I, [1])

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
