"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import itertools
import random

from spreadpol import Monomial, MonomialIdeal


def random_monomial(
    rng: random.Random,
    n: int,
    max_exp: int,
    max_deg: int | None = None,
    nonunit: bool = True,
) -> Monomial:
    while True:
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        if nonunit and not any(exps):
            continue
        if max_deg is not None and sum(exps) > max_deg:
            continue
        return Monomial(exps, n)


def random_monomial_set(
    rng: random.Random,
    n: int,
    m: int,
    max_exp: int,
    max_deg: int | None = None,
) -> list[Monomial]:
    out: list[Monomial] = []
    seen = set()
    for _ in range(m):
        u = random_monomial(rng, n, max_exp, max_deg)
        if u not in seen:
            seen.add(u)
            out.append(u)
    return out


def random_ideal(
    rng: random.Random,
    n: int,
    m: int,
    max_exp: int,
    max_deg: int | None = None,
) -> MonomialIdeal:
    return MonomialIdeal(n, random_monomial_set(rng, n, m, max_exp, max_deg))


def random_ci_ideal(
    rng: random.Random, n: int, k: int, max_exp: int
) -> MonomialIdeal:
    """A complete intersection: k generators with pairwise disjoint supports."""
    variables = list(range(1, n + 1))
    rng.shuffle(variables)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    groups = []
    prev = 0
    for cut in cuts + [n]:
        groups.append(variables[prev:cut])
        prev = cut
    gens = []
    for group in groups:
        exps = [0] * n
        chosen = [j for j in group if rng.random() < 0.7] or [rng.choice(group)]
        for j in chosen:
            exps[j - 1] = rng.randint(1, max_exp)
        gens.append(Monomial(exps, n))
    return MonomialIdeal(n, gens)


def random_equal_degree_ideal(
    rng: random.Random, n: int, m: int, d: int
) -> MonomialIdeal:
    """Up to m distinct generators of degree d: an antichain, so all minimal."""
    gens: set[tuple[int, ...]] = set()
    for _ in range(20 * m):
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        gens.add(tuple(exps))
        if len(gens) == m:
            break
    return MonomialIdeal.from_exponents(n, sorted(gens))


def ideals_by_generator_count(rng: random.Random, count: int) -> list[MonomialIdeal]:
    """`count` ideals in 2 to 5 variables, the i-th with 1 + i % 10 generators."""
    out = []
    for i in range(count):
        m = 1 + i % 10
        while True:
            n = rng.randint(2, 5)
            I = (random_ideal(rng, n, m + rng.randint(0, 6), 3) if rng.random() < 0.5
                 else random_equal_degree_ideal(rng, n, m, rng.randint(2, 4)))
            if len(I.generators) == m:
                break
        out.append(I)
    return out


def pair_lcm_ideal(m: int) -> MonomialIdeal:
    """Generators g_i = product of x_P over the pairs P of {1..m} without i.

    Its lcm-lattice is the bottom, m atoms, one element per pair (the lcm of
    two atoms) and the top, which has m atoms but C(m, 2) lower covers.
    """
    pairs = list(itertools.combinations(range(m), 2))
    rows = [[int(i not in P) for P in pairs] for i in range(m)]
    return MonomialIdeal.from_exponents(len(pairs), rows)


def staircase_ideal(rng: random.Random, m: int, n: int = 3) -> MonomialIdeal:
    """m generators whose first exponents strictly increase and whose second
    ones strictly decrease, so they form an antichain whatever the other
    n - 2 exponents (0 to 2) are; each of the first two columns holds m
    distinct values, up to 60000."""
    firsts = sorted(rng.sample(range(1, 60000), m))
    seconds = sorted(rng.sample(range(1, 60000), m), reverse=True)
    rows = [(a, b, *(rng.randint(0, 2) for _ in range(n - 2))) for a, b in zip(firsts, seconds)]
    return MonomialIdeal.from_exponents(n, rows)


def collapse_past_the_cap(k: int = 21) -> MonomialIdeal:
    """The collapse counterexample (x2^3*x3, x1^2*x3, x1*x2*x3^2) with the
    squares of k new variables added: 3 + k generators in 3 + k variables,
    past the lattice cap of 20 generators for k = 21, and no collapse map."""
    rows = [(0, 3, 1), (2, 0, 1), (1, 1, 2)]
    n = 3 + k
    out = [row + (0,) * k for row in rows]
    out += [tuple(2 if j == i else 0 for j in range(n)) for i in range(3, n)]
    return MonomialIdeal.from_exponents(n, out)


def antichain_family(n: int) -> list[MonomialIdeal]:
    """Every antichain of 2 or 3 nonzero exponent vectors with entries at
    most 2, in n variables: 10 ideals for n = 2, 512 for n = 3 and 26,050
    for n = 4."""
    out = []
    vectors = [v for v in itertools.product(range(3), repeat=n) if any(v)]
    for m in (2, 3):
        for rows in itertools.combinations(vectors, m):
            if not any(
                u != v and all(a <= b for a, b in zip(u, v)) for u in rows for v in rows
            ):
                out.append(MonomialIdeal.from_exponents(n, rows))
    return out


def small_family() -> list[MonomialIdeal]:
    """The antichain families of n = 2 and n = 3: 522 ideals."""
    return antichain_family(2) + antichain_family(3)
