"""Built-in worked examples with known outcomes, replayed end to end.

Every row recomputes a documented example from scratch through the public
API and compares against the expected result.  The CLI exposes the whole
table as the `verify-paper` subcommand; the acceptance tests run it too.
"""

from __future__ import annotations

from typing import Callable

from .invariants import verify_spreading_laws
from .lattices import build_lcm_lattice, is_isomorphic
from .monomials import (
    Monomial,
    MonomialIdeal,
    is_complete_intersection,
    minimalize,
    polarize_ideal,
    sigma_t,
    spread_ideal,
    embed_spread,
)
from .smooth import (
    SmoothCertificate,
    SmoothWitness,
    T2Verdict,
    adjoin_pure_powers_condition,
    check_smooth_ideal,
    check_smooth_t2,
    is_smoothly_spreadable,
    product_construct,
    verify_certificate,
)


def _ideal(n: int, rows) -> MonomialIdeal:
    return MonomialIdeal.from_exponents(n, rows)


def _row_triple_certificate() -> bool:
    I = _ideal(3, [(1, 1, 1), (0, 2, 1)])
    ok = is_smoothly_spreadable(I)
    ok &= spread_ideal(I, 3) == _ideal(
        9, [(1, 0, 0, 0, 1, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0, 0, 0, 1)]
    )
    ok &= polarize_ideal(I) == _ideal(
        9, [(1, 1, 1, 0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 1, 0, 0, 0, 0)]
    )
    explicit = SmoothCertificate.from_permutation(
        3, 3, (1, 5, 6, 4, 2, 9, 7, 8, 3)
    )
    ok &= verify_certificate(I.generators, 3, explicit)
    return bool(ok)


def _row_deep_witness() -> bool:
    I = _ideal(3, [(3, 1, 2), (1, 2, 3)])
    res = check_smooth_ideal(I)
    ok = isinstance(res, SmoothWitness)
    u1, u2 = Monomial((3, 1, 2)), Monomial((1, 2, 3))
    s1, s2 = sigma_t(u1, 3), sigma_t(u2, 3)
    ok &= s1.gcd(s2) == Monomial.from_indices([1, 15, 18], 18)
    d = 6
    p1 = Monomial.from_indices([1, 4, 7, 2, 3, 6], 18)
    p2 = Monomial.from_indices([1, 2, 5, 3, 6, 9], 18)
    ok &= p1.gcd(p2) == Monomial.from_indices([1, 2, 3, 6], 18)
    ok &= s1.ambient == 3 * d and s1.degree == d == s2.degree
    return bool(ok)


def _row_ci_spreads() -> bool:
    I = _ideal(3, [(3, 0, 0), (0, 1, 1)])
    ok = is_complete_intersection(I) and is_smoothly_spreadable(I)
    ok &= not is_complete_intersection(spread_ideal(I, 1))
    ok &= not is_complete_intersection(spread_ideal(I, 2))
    for t in (3, 4, 5):
        spread = spread_ideal(I, t)
        expected = MonomialIdeal(
            3 + 2 * t,
            [
                Monomial.from_indices([1, 1 + t, 1 + 2 * t], 3 + 2 * t),
                Monomial.from_indices([2, 3 + t], 3 + 2 * t),
            ],
        )
        ok &= spread == expected and is_complete_intersection(spread)
    return bool(ok)


def _row_late_ci() -> bool:
    I = _ideal(2, [(2, 1), (0, 2)])
    ok = not is_complete_intersection(I)
    ok &= not is_complete_intersection(spread_ideal(I, 1))
    s2 = spread_ideal(I, 2)
    ok &= s2 == _ideal(6, [(1, 0, 1, 0, 0, 1), (0, 1, 0, 1, 0, 0)])
    ok &= is_complete_intersection(s2)
    ok &= check_smooth_t2(I) is T2Verdict.NECESSARY_FAILS
    ok &= not is_smoothly_spreadable(I)
    return bool(ok)


def _row_product_split_variables() -> bool:
    base = [Monomial((2, 1)), Monomial((1, 2)), Monomial((0, 3))]
    factors = [Monomial((0, 0, 2, 0)), Monomial((0, 0, 1, 2))]
    products = product_construct(base, 2, factors, 4)
    expected = {
        Monomial((2, 1, 2, 0)),
        Monomial((1, 2, 2, 0)),
        Monomial((0, 3, 2, 0)),
        Monomial((2, 1, 1, 2)),
        Monomial((1, 2, 1, 2)),
        Monomial((0, 3, 1, 2)),
    }
    return set(products) == expected


def _row_product_subset_and_powers() -> bool:
    base = [Monomial((1, 1)), Monomial((0, 2))]
    factors = [Monomial((0, 0, 1)), Monomial((0, 0, 2))]
    products = product_construct(base, 2, factors, 3)
    expected = {
        Monomial((1, 1, 1)),
        Monomial((1, 1, 2)),
        Monomial((0, 2, 1)),
        Monomial((0, 2, 2)),
    }
    ok = set(products) == expected
    ok &= set(minimalize(products)) == {Monomial((1, 1, 1)), Monomial((0, 2, 1))}
    J = _ideal(3, [(1, 1, 1), (0, 2, 2)])
    ok &= is_smoothly_spreadable(J)
    powers = [(1, 2), (2, 3), (3, 4)]
    ok &= adjoin_pure_powers_condition(J, powers)
    L = MonomialIdeal(
        3,
        list(J.generators)
        + [Monomial.variable(j, 3, power=e) for j, e in powers],
    )
    ok &= len(L.generators) == 5 and is_smoothly_spreadable(L)
    return bool(ok)


def _row_mixed_powers_certificate() -> bool:
    return is_smoothly_spreadable(_ideal(3, [(1, 2, 2), (0, 3, 3)]))


def _row_mixed_powers_witness() -> bool:
    res = check_smooth_ideal(_ideal(3, [(1, 1, 2), (0, 3, 3)]))
    return (
        isinstance(res, SmoothWitness)
        and res.j == 3
        and res.expected == 2
        and res.found == 1
    )


def _row_lattice_iso_survives() -> bool:
    I = _ideal(2, [(2, 2), (0, 3)])
    spread = spread_ideal(I, 2)
    ok = spread == _ideal(
        8, [(1, 0, 1, 0, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1, 0, 0)]
    )
    ok &= check_smooth_t2(I) is T2Verdict.NECESSARY_FAILS and not is_smoothly_spreadable(I)
    ok &= is_isomorphic(build_lcm_lattice(I), build_lcm_lattice(spread)) is not None
    return bool(ok)


def _row_lattice_iso_fails() -> bool:
    I = _ideal(2, [(4, 0), (2, 1), (0, 2)])
    spread = spread_ideal(I, 2)
    g = I.generators
    ok = g[0].lcm(g[2]).lcm(g[1]) == g[0].lcm(g[2]) == Monomial((4, 2))
    s = spread.generators
    top = s[0].lcm(s[1]).lcm(s[2])
    pairwise = {a.lcm(b) for a, b in [(s[0], s[1]), (s[0], s[2]), (s[1], s[2])]}
    ok &= top not in pairwise
    ok &= is_isomorphic(build_lcm_lattice(I), build_lcm_lattice(spread)) is None
    return bool(ok)


def _row_smooth_transfer_laws() -> bool:
    report = verify_spreading_laws(_ideal(2, [(2, 0), (0, 3)]), [2, 3])
    return report.smooth and report.lattice_isomorphic and report.all_hold


def _row_nonsmooth_equality_laws() -> bool:
    I = _ideal(2, [(2, 1), (0, 2)])
    report = verify_spreading_laws(I, [2])
    ok = report.all_hold and not report.smooth and report.lattice_isomorphic
    ok &= report.spread[2][0] == 4 and report.source[0] == 0
    return bool(ok)


def _row_strict_inequality_laws() -> bool:
    I = _ideal(2, [(4, 0), (2, 1), (0, 2)])
    report = verify_spreading_laws(I, [2])
    return report.all_hold and not report.smooth and not report.lattice_isomorphic


def _row_reembedding() -> bool:
    I = _ideal(2, [(2, 1), (0, 2)])
    image, emb = embed_spread(I, 3)
    ok = image == spread_ideal(I, 3, pad=True)
    ok &= image == _ideal(
        9, [(1, 0, 0, 1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0, 0, 0, 0)]
    )
    ok &= emb.table == (1, 2, 4, 5, 7, 8)
    return bool(ok)


GOLDEN_ROWS: tuple[tuple[str, Callable[[], bool]], ...] = (
    ("certificate found for (x1*x2*x3, x2^2*x3)", _row_triple_certificate),
    ("witness against (x1^3*x2*x3^2, x1*x2^2*x3^3)", _row_deep_witness),
    ("complete-intersection spreads of (x1^3, x2*x3)", _row_ci_spreads),
    ("late complete intersections for (x1^2*x2, x2^2)", _row_late_ci),
    ("product of smooth sets in split variables", _row_product_split_variables),
    ("product subsets and pure-power extensions", _row_product_subset_and_powers),
    ("certificate found for (x1*x2^2*x3^2, x2^3*x3^3)", _row_mixed_powers_certificate),
    ("witness against (x1*x2*x3^2, x2^3*x3^3)", _row_mixed_powers_witness),
    ("lattice isomorphism survives for (x1^2*x2^2, x2^3)", _row_lattice_iso_survives),
    ("lattice isomorphism fails for (x1^4, x1^2*x2, x2^2)", _row_lattice_iso_fails),
    ("transfer laws for the smooth ideal (x1^2, x2^3)", _row_smooth_transfer_laws),
    ("equality laws for (x1^2*x2, x2^2)", _row_nonsmooth_equality_laws),
    ("inequality laws for (x1^4, x1^2*x2, x2^2)", _row_strict_inequality_laws),
    ("re-embedding the 2-spread into the 3-spread", _row_reembedding),
)


def run_golden() -> list[tuple[str, bool]]:
    """Execute every golden row, returning (description, passed) pairs."""
    return [(name, bool(fn())) for name, fn in GOLDEN_ROWS]
