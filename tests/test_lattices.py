import itertools
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
    depth_quotient,
    hasse_dot,
    is_isomorphic,
    is_smoothly_spreadable,
    order_complex_betti,
    sigma_t,
    spread_ideal,
    verify_delta,
    verify_spreading_laws,
)
from spreadpol import invariants, lattices
from spreadpol.lattices import _atom_image, _atom_step_holds, _spread_columns, _uncovered
from spreadpol.monomials import MAX_EXPONENT
from spreadpol.smooth import _blocks
from spreadpol.taylor import _columns
from genutils import (
    collapse_past_the_cap,
    pair_lcm_ideal,
    random_equal_degree_ideal,
    random_ideal,
    random_monomial,
    small_family,
    staircase_ideal,
)
from oracles import (
    delta_by_all_pairs,
    delta_by_divisibility,
    isomorphism_by_permutations,
    lattice_elements_eagerly,
    lattice_masks_by_slabs,
    unary_atom_codes,
)


def M(*exps):
    return Monomial(exps)


def ideal(n, rows):
    return MonomialIdeal.from_exponents(n, rows)


def past_one_byte() -> list[MonomialIdeal]:
    """Lattices of 9 to 16 atoms, past one byte plane of atoms: pair_lcm_ideal(9),
    seeded ideals of 9 to 12 generators and their n-spreads, and staircases
    whose first two columns hold 9 to 16 distinct values, so their fields
    are wider than 8 bits."""
    rng = random.Random(45)
    family = [pair_lcm_ideal(9)]
    while len(family) < 7:
        I = random_equal_degree_ideal(rng, 3, rng.randint(9, 12), 4)
        if len(I.generators) >= 9:
            family += [I, spread_ideal(I, 3)]
    return family + [staircase_ideal(rng, m) for m in (9, 10, 12, 16)]


def order_family() -> list[MonomialIdeal]:
    """Seeded small ideals, the n-spreads of every fourth, and
    pair_lcm_ideal(5), where two disjoint pairs meet at the bottom although
    their gcd is not 1."""
    rng = random.Random(23)
    family = [random_ideal(rng, rng.randint(1, 3), rng.randint(1, 3), 2) for _ in range(20)]
    return family + [spread_ideal(I, I.ambient) for I in family[::4]] + [pair_lcm_ideal(5)]


class TestBuild:
    def test_elements_are_plain_monomials(self):
        """Elements built without the full check equal, and hash like, the
        checked monomials of the same exponents."""
        rng = random.Random(37)
        for _ in range(60):
            I = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 6), 3)
            for J in (I, spread_ideal(I, I.ambient)):
                L = build_lcm_lattice(J)
                for e in L.elements:
                    checked = Monomial(e.exponents, L.ambient)
                    assert e == checked and hash(e) == hash(checked)
                    assert type(e.exponents) is tuple
                    assert all(type(x) is int for x in e.exponents)

    def test_masks_match_slab_reference(self):
        """Elements, order masks, supports and covers equal those built on
        exponent tuples with per-variable slabs; the reference up-sets are
        checked against the transpose of the lattice's down-sets, and the
        atom codes against the unary-string reference."""
        rng = random.Random(38)
        family = []
        for _ in range(40):
            I = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 6), 3)
            n = I.ambient
            family += [I, spread_ideal(I, n), spread_ideal(I, n + 1, pad=True)]
        family.append(MonomialIdeal(8, [Monomial.variable(j, 8) for j in range(1, 9)]))
        family += [pair_lcm_ideal(m) for m in range(3, 7)]
        near_max = [0, MAX_EXPONENT - 3, MAX_EXPONENT - 2, MAX_EXPONENT - 1]
        for _ in range(10):
            n = rng.randint(2, 4)
            rows = [[rng.choice(near_max) for _ in range(n)] for _ in range(rng.randint(2, 5))]
            family.append(ideal(n, [r for r in rows if any(r)] or [[1] * n]))
        few_columns = ideal(3, [(300, 1, 0), (299, 0, 300), (0, 300, 298)])
        family += [few_columns, spread_ideal(few_columns, 3)]  # 6 distinct columns of 1797
        family += past_one_byte()
        for I in family:
            L = build_lcm_lattice(I)
            elements, below, above, support, covers = lattice_masks_by_slabs(
                I.ambient, I.generators
            )
            assert [e.exponents for e in L.elements] == elements, I
            assert L._below == below, I
            size = len(below)  # the up-sets are the transpose of the down-sets
            assert above == [
                sum(1 << j for j in range(size) if below[j] >> i & 1) for i in range(size)
            ], I
            assert list(L._support) == support, I
            assert list(L.covers()) == covers, I
            rows = [u.exponents for u in I.generators]  # the threshold masks, transposed
            assert L._atom_code == unary_atom_codes(rows), I

    def test_codes_match_unary_reference_on_wide_and_many_atoms(self):
        """Atom codes past one byte of atoms and over thousands of distinct
        columns, where each code is thousands of bits long."""
        rng = random.Random(39)
        wide = [tuple(j // 3**i % 3 for j in range(4096)) for i in range(8)]
        family = [MonomialIdeal.from_exponents(4096, wide)]
        while len(family) < 9:
            I = random_ideal(rng, 6, 16, 3)
            if len(I.generators) > 8:
                family.append(I)
        for I in family:
            L = build_lcm_lattice(I)
            rows = [u.exponents for u in I.generators]
            assert L._atom_code == unary_atom_codes(rows), I

    def test_rank_invariance(self):
        """Only each variable's order of exponents matters: swapping the
        exponent 2 for 60000 keeps the supports and covers, and both builds
        take milliseconds (fields are as wide as the distinct exponents)."""
        small = ideal(3, [(2, 1, 0), (1, 0, 2), (0, 2, 1), (1, 1, 1)])
        big = ideal(3, [(60000, 1, 0), (1, 0, 60000), (0, 60000, 1), (1, 1, 1)])
        start = time.perf_counter()
        L1, L2 = build_lcm_lattice(small), build_lcm_lattice(big)
        assert time.perf_counter() - start < 0.5
        assert len(L1) == len(L2) == 12
        assert L1._support == L2._support and L1.covers() == L2.covers()
        widened = [tuple(60000 if x == 2 else x for x in e.exponents) for e in L1.elements]
        assert widened == [e.exponents for e in L2.elements]

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
        for I in order_family():
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
        # the chain 1 < x < x^2 is not atomistic: its atoms x, x^2 are
        # comparable, so it cannot be built, in either atom order
        for atoms in [(M(1), M(2)), (M(2), M(1))]:
            with pytest.raises(BadParameterError, match="incomparable"):
                LcmLattice(1, atoms)


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

    def test_constructor_refuses_a_partial_or_outside_map(self):
        """The public constructor converts the map to its image once and
        refuses it unless it is a total map into the target."""
        L = build_lcm_lattice(ideal(2, [(1, 0), (0, 1)]))
        ident = {e: e for e in L.elements}
        partial = {e: e for e in L.elements[:-1]}
        with pytest.raises(BadParameterError, match="not total on the source"):
            LatticeMap(source=L, target=L, mapping=partial)
        with pytest.raises(BadParameterError, match="not total on the source"):
            LatticeMap(source=L, target=L, mapping={**ident, M(2, 0): L.top})
        with pytest.raises(BadParameterError, match="x1\\^2 is not an element of the target"):
            LatticeMap(source=L, target=L, mapping={**ident, L.top: M(2, 0)})
        f = LatticeMap(source=L, target=L, mapping=ident)
        assert f.image == (0, 1, 2, 3) and f.mapping == ident
        with pytest.raises(AttributeError):
            f.image = ()

    def test_mapping_matches_the_divisibility_oracle(self):
        """`mapping` equals the map built from Monomial divisibility, and
        the public constructor turns it back into the image, on the support
        family (the small family among it), the seeded sources of the lazy
        decode and the seeded ideals of the delta tests."""
        rng = random.Random(26)
        seeded = [random_ideal(rng, rng.randint(1, 3), rng.randint(1, 4), 3) for _ in range(80)]
        built = 0
        for I in support_family() + TestLazyDecode.sources()[522:] + seeded:
            try:
                d = build_delta(I)
            except WellDefinednessViolation:
                continue
            assert d.mapping == delta_by_divisibility(I), I
            assert LatticeMap(source=d.source, target=d.target, mapping=d.mapping).image == d.image
            built += 1
        assert built >= 3000

    def test_verify_delta_rejects_lattice_not_fixed_by_atom_sets(self):
        # x1*x2 divides x1^2*x2, wherever it stands among the atoms, so no
        # lattice, and no map out of one, is built on them
        for atoms in [(M(1, 1), M(0, 3), M(2, 1)), (M(2, 1), M(0, 3), M(1, 1))]:
            with pytest.raises(BadParameterError, match="incomparable"):
                LcmLattice(2, atoms)

    def test_atom_step_agrees_with_all_pairs_reference(self):
        """Collapse maps, one-entry changes of them, random self-maps, and
        onto self-maps that move the bottom (verify_delta has no bottom check
        of its own; the reference has one)."""
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
            moved = len(verdicts)
            for _ in range(2):
                values = rng.sample(rest, len(rest))
                values.insert(rng.randint(1, len(rest)), src.bottom)
                check(src, src, dict(zip(src.elements, values)))
            assert not any(verdicts[moved:])
        assert verdicts.count(False) >= 500 and verdicts.count(True) >= 500

    def test_support_inclusion_matches_the_atom_step(self):
        """The support lemma of build_delta: the map of atom-support joins
        passes the atom step iff every source support is a spread support,
        on the small family and 3000 seeded ideals in 4 variables."""
        verdicts = []
        for I in support_family():
            src, spr = build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, I.ambient))
            image = []
            for s in spr._support:  # the join of the source atoms in s
                code = 0
                for a, c in enumerate(src._atom_code):
                    if s >> a & 1:
                        code |= c
                image.append(src._at[code])
            verdicts.append(_atom_step_holds(spr, src, image))
            assert verdicts[-1] == (set(src._support) <= set(spr._support)), I
            try:
                build_delta(I)
            except WellDefinednessViolation:
                assert not verdicts[-1], I
            else:
                assert verdicts[-1], I
        assert verdicts.count(False) >= 30 and verdicts.count(True) >= 3000

    def test_mask_verdicts_match_the_support_families(self):
        """_uncovered on the threshold masks of I and of the sweep decides
        support inclusion (the collapse verdict) and, called both ways,
        support equality (a fixed-order isomorphism) of the two built
        lattices; on the family above, the seeded sources of the lazy decode
        and the lattices past one byte plane."""
        counts = [0, 0, 0]
        for I in support_family() + TestLazyDecode.sources()[522:] + past_one_byte():
            L, LS = build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, I.ambient))
            source = _columns([u.exponents for u in I.generators])
            spread = _spread_columns([_blocks(u) for u in I.generators], I.ambient)
            collapse = _uncovered(source, spread) is None
            fixed = collapse and _uncovered(spread, source) is None
            assert collapse == (set(L._support) <= set(LS._support)), I
            assert fixed == (set(L._support) == set(LS._support)), I
            counts[collapse + fixed] += 1
        assert min(counts) >= 30, counts

    def test_no_collapse_map_builds_no_lattice(self, monkeypatch):
        """A "no" constructs no LcmLattice and no spread ideal; a "yes"
        builds the two lattices."""
        built, spreads = [0], [0]
        init, spread = LcmLattice.__init__, lattices.spread_ideal

        def counted_init(self, *args):
            built[0] += 1
            init(self, *args)

        def counted_spread(*args):
            spreads[0] += 1
            return spread(*args)

        monkeypatch.setattr(LcmLattice, "__init__", counted_init)
        monkeypatch.setattr(lattices, "spread_ideal", counted_spread)
        collapsed = 0
        for I in small_family() + [collapse_past_the_cap()]:
            before = built[0], spreads[0]
            try:
                build_delta(I)
            except WellDefinednessViolation:
                assert (built[0], spreads[0]) == before, I
                collapsed += 1
            else:
                assert (built[0], spreads[0]) == (before[0] + 2, before[1] + 1), I
        assert collapsed >= 10

    def test_no_collapse_map_is_answered_past_the_lattice_cap(self):
        """24 generators: the lattices are refused, the mask verdict is not."""
        I = collapse_past_the_cap()
        assert len(I.generators) == 24
        with pytest.raises(TooLargeError, match="lattice cap"):
            build_lcm_lattice(I)
        with pytest.raises(WellDefinednessViolation) as exc:
            build_delta(I)
        assert str(exc.value) == collapse_witness(I)
        # with a collapse map, the lattices are still built, and capped
        J = MonomialIdeal(24, [Monomial.variable(j, 24) for j in range(1, 25)])
        with pytest.raises(TooLargeError, match="lattice cap"):
            build_delta(J)

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


def support_family() -> list[MonomialIdeal]:
    """The small family and 3000 seeded antichains of 2 or 3 exponent
    vectors with entries at most 2 in 4 variables."""
    rng = random.Random(31)
    vectors = [v for v in itertools.product(range(3), repeat=4) if any(v)]
    family = small_family()
    while len(family) < 522 + 3000:
        rows = rng.sample(vectors, rng.choice((2, 3)))
        if not any(u != v and all(a <= b for a, b in zip(u, v))
                   for u in rows for v in rows):
            family.append(ideal(4, rows))
    return family


def collapse_witness(I: MonomialIdeal) -> str | None:
    """The message of build_delta on I without a collapse map, from lcms of
    generators, or None if a map exists.

    Per threshold mask x of I in the order of taylor._columns, C is the set
    of generators outside x and D the generators whose spreads divide the
    spread lcm of C (divisibility in spread_ideal(I, n)).  The first x with
    D != C names the witness: that spread lcm, lcm(D) and lcm(C)."""
    gens, spread = I.generators, spread_ideal(I, I.ambient)
    one, spread_one = Monomial.unit(I.ambient), Monomial.unit(spread.ambient)
    everything = range(len(gens))
    for x in itertools.chain.from_iterable(_columns([u.exponents for u in gens])):
        C = [g for g in everything if not x >> g & 1]
        top = lcm_list([spread_one] + [spread.generators[g] for g in C])
        D = [g for g in everything if spread.generators[g].divides(top)]
        if D == C:
            continue
        lcm_C, lcm_D = (lcm_list([one] + [gens[g] for g in U]) for U in (C, D))
        assert [g for g in everything if gens[g].divides(lcm_C)] == C  # a source support
        assert lcm_list([spread_one] + [spread.generators[g] for g in D]) == top
        assert lcm_D != lcm_C
        return (f"spreading collapsed the lcm-lattice: {top} is the lcm of spread "
                f"generator subsets with different source lcms {lcm_D} and {lcm_C}; "
                f"no collapse map exists")
    return None


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

    def test_staircase_of_three_atoms(self):
        # (x1^2, x1*x2, x2^2): 1, three atoms, two pair lcms and the top;
        # x1^2 and x2^2 are each covered once, x1*x2 twice
        text = hasse_dot(build_lcm_lattice(ideal(2, [(2, 0), (1, 1), (0, 2)])))
        nodes = [l for l in text.splitlines() if ";" in l and "->" not in l]
        edges = [l for l in text.splitlines() if "->" in l]
        assert len(nodes) == 7 and len(edges) == 9

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
        # the constructor takes atoms only and orders the closure itself; it
        # refuses atoms that are not an antichain of non-units in its ambient
        for atoms in [(M(1), M(1)), (M(0),), (M(0), M(1))]:
            with pytest.raises(BadParameterError, match="incomparable"):
                LcmLattice(1, atoms)
        with pytest.raises(BadParameterError, match="ambient"):
            LcmLattice(2, (M(1, 0), M(1)))
        L = LcmLattice(2, (M(0, 1), M(1, 0)))
        assert L.elements == (M(0, 0), M(0, 1), M(1, 0), M(1, 1))
        assert L.atoms == (M(0, 1), M(1, 0)) and L.atom_support(M(0, 1)) == {0}

    def test_lattice_without_atoms_is_its_bottom(self):
        for n in (0, 3):
            L, unit = LcmLattice(n, ()), Monomial.unit(n)
            assert L.elements == (unit,) and L.bottom == L.top == unit
            assert L._below == [1] and L.covers() == ()

    def test_leq(self):
        L = build_lcm_lattice(ideal(2, [(1, 0), (0, 1)]))
        assert L.leq(L.bottom, L.top)
        assert not L.leq(M(1, 0), M(0, 1))
        for I in order_family():
            L = build_lcm_lattice(I)
            for u in L.elements:
                for v in L.elements:
                    assert L.leq(u, v) == u.divides(v), (I, u, v)


@pytest.fixture
def decoded(monkeypatch):
    """A counter of decoded lattice elements: each row that taylor._decode
    makes for a lattice."""
    count = [0]
    decode = lattices._decode

    def counted_decode(*args):
        rows = decode(*args)
        count[0] += len(rows)
        return rows

    monkeypatch.setattr(lattices, "_decode", counted_decode)
    return count


class TestLazyDecode:
    """Elements are decoded only at the API edge."""

    @staticmethod
    def sources():
        """The small family, 60 seeded ideals and three generators with
        exponents near 300; each is paired with its n-spread."""
        rng = random.Random(43)
        seeded = [random_ideal(rng, rng.randint(1, 4), rng.randint(1, 6), 3) for _ in range(60)]
        return small_family() + seeded + [ideal(3, [(300, 1, 0), (299, 0, 300), (0, 300, 298)])]

    def test_decode_past_one_byte_plane(self):
        """On lattices of 9 to 16 atoms, some with fields wider than 8 bits,
        the elements, the index, the bottom and the top equal the eager ones."""
        for I in past_one_byte():
            L, E = build_lcm_lattice(I), lattice_elements_eagerly(I.ambient, I.generators)
            assert len(L.atoms) >= 9
            assert L.elements == E and all(L.index(e) == k for k, e in enumerate(E)), I
            assert L.bottom == E[0] and L.top == E[-1], I

    def test_lazy_decode_matches_eager_reference(self):
        """Elements, index, bottom, top, and the depth, isomorphism and
        collapse-map outputs equal those keyed by the eagerly decoded elements."""
        for I in self.sources():
            S = spread_ideal(I, I.ambient)
            for J in (I, S):
                L, E = build_lcm_lattice(J), lattice_elements_eagerly(J.ambient, J.generators)
                assert L.bottom == E[0] and L.top == E[-1], J
                assert L.elements == E and all(L.index(e) == k for k, e in enumerate(E)), J
                entries = {(i, E[k]): v for k, betti in L._betti.items() for i, v in betti.items()}
                rep = depth_quotient(J)
                assert dict(rep.betti.entries) == entries, J
                assert rep.value == J.ambient - max(i for i, _ in entries), J
            L, LS = build_lcm_lattice(I), build_lcm_lattice(S)
            E, ES = L.elements, LS.elements
            image = _atom_image(L._support[1:], LS._support[1:], len(L.atoms))
            want = image and {
                e: ES[LS._support.index(sum(b for a, b in enumerate(image) if s >> a & 1))]
                for e, s in zip(E, L._support)
            }
            assert is_isomorphic(L, LS) == want, I
            # delta(s): the lcm of the source atoms whose spreads lie below s
            delta = [E.index(lcm_list([I.generators[a] for a in LS.atom_support(e)] or [E[0]]))
                     for e in ES]
            failure = next((
                (k, a) for k in range(len(ES)) for a in map(ES.index, LS.atoms)
                if delta[ES.index(ES[k].lcm(ES[a]))] != E.index(E[delta[k]].lcm(E[delta[a]]))
            ), None)
            witness = collapse_witness(I)
            assert (witness is None) == (failure is None), I
            if failure is None:
                assert build_delta(I).mapping == {ES[k]: E[d] for k, d in enumerate(delta)}, I
                continue
            with pytest.raises(WellDefinednessViolation) as exc:
                build_delta(I)
            assert str(exc.value) == witness, I

    def test_collapse_map_decodes_on_first_mapping_read(self, monkeypatch):
        """On "yes", build_delta and verify_delta decode no element: the only
        Monomials they make are the spread's generators.  The first
        `mapping` read decodes each lattice once; a second read, nothing."""
        decodes, trusted = [0], [0]
        decode, make = lattices._decode, Monomial._trusted.__func__

        def counted_decode(*args):
            decodes[0] += 1
            return decode(*args)

        def counted_trusted(cls, *args):
            trusted[0] += 1
            return make(cls, *args)

        monkeypatch.setattr(lattices, "_decode", counted_decode)
        monkeypatch.setattr(Monomial, "_trusted", classmethod(counted_trusted))
        built = 0
        for I in small_family():
            decodes[0] = trusted[0] = 0
            try:
                d = build_delta(I)
            except WellDefinednessViolation:
                continue
            assert verify_delta(d), I
            assert (decodes[0], trusted[0]) == (0, len(I.generators)), I
            mapping = d.mapping
            assert decodes[0] == 2, I
            assert trusted[0] == len(I.generators) + len(d.source) + len(d.target), I
            assert d.mapping is mapping and decodes[0] == 2, I
            built += 1
        assert built >= 400

    def test_checks_run_before_any_decode(self, decoded):
        top, half = MAX_EXPONENT - 1, 20000
        u = Monomial((top,) * half + (0,) * half)
        v = Monomial((0,) * half + (top,) * half)
        with pytest.raises(TooLargeError, match="degree exceeds"):
            build_lcm_lattice(MonomialIdeal(2 * half, [u, v]))
        with pytest.raises(BadParameterError, match="incomparable"):
            LcmLattice(1, (M(1), M(2)))
        with pytest.raises(TooLargeError, match="exceeds the cap"):
            build_lcm_lattice(MonomialIdeal(15, [Monomial.variable(j, 15) for j in range(1, 16)]))
        assert decoded[0] == 0

    def test_bottom_and_top_decode_nothing(self, decoded):
        """bottom is the unit and top the lcm the constructor checked: reading
        them decodes no element."""
        for I in small_family() + past_one_byte():
            L = build_lcm_lattice(I)
            bottom, top = L.bottom, L.top
            assert decoded[0] == 0, I
            assert (bottom, top) == (L.elements[0], L.elements[-1]), I
            decoded[0] = 0

    def test_law_harness_decodes_nothing(self, decoded):
        for I in small_family():
            verify_spreading_laws(I, [I.ambient, I.ambient + 1])
        assert decoded[0] == 0

    def test_collapse_decodes_no_lattice_element(self, decoded):
        I = ideal(3, TestCollapseCounterexample.IDEAL)
        assert is_isomorphic(build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, 3))) is None
        assert decoded[0] == 0
        with pytest.raises(WellDefinednessViolation):
            build_delta(I)
        assert decoded[0] == 0


class TestLazyMasks:
    """Down-set masks are built when first read, not by the constructor."""

    def test_build_iso_and_delta_leave_masks_unbuilt(self):
        collapsed = verified = 0
        for I in small_family()[::5] + [ideal(3, TestCollapseCounterexample.IDEAL)]:
            L, LS = build_lcm_lattice(I), build_lcm_lattice(spread_ideal(I, I.ambient))
            is_isomorphic(L, LS)
            lattices = [L, LS]
            try:
                delta = build_delta(I)
            except WellDefinednessViolation:
                collapsed += 1
            else:
                verified += verify_delta(delta)
                lattices += [delta.source, delta.target]
            assert all("_below" not in M.__dict__ for M in lattices), I
        assert collapsed and verified

    def test_first_read_builds_the_slab_masks(self, monkeypatch):
        # covers builds the down-sets; the order and the meet read supports
        rng = random.Random(44)
        family = [random_ideal(rng, rng.randint(2, 4), rng.randint(2, 6), 3) for _ in range(10)]
        family += [pair_lcm_ideal(5), spread_ideal(pair_lcm_ideal(4), 6)]
        for I in family:
            L = build_lcm_lattice(I)
            L.leq(L.bottom, L.top)
            L.meet(L.atoms[0], L.top)
            assert "_below" not in L.__dict__
            L.covers()
            assert L.__dict__["_below"] == lattice_masks_by_slabs(I.ambient, I.generators)[1], I
        # the Betti numbers read codes and masks alone
        built = []
        monkeypatch.setattr(invariants, "build_lcm_lattice",
                            lambda I: built.append(build_lcm_lattice(I)) or built[-1])
        for I in family:
            depth_quotient(I)
            L = build_lcm_lattice(I)
            order_complex_betti(L, L.top)
            built.append(L)
        assert len(built) == 2 * len(family)
        assert all("_betti" in L.__dict__ and "_below" not in L.__dict__ for L in built)
