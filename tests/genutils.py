"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

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
