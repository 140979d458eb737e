"""Second, independent route to multigraded Betti numbers.

The free resolution built on all generator subsets (one basis element per
subset, graded by the subset lcm) computes the same Betti numbers as the
lattice route, but through a completely different complex: fixing a
multidegree, the surviving basis elements are the subsets whose lcm is
exactly that multidegree, and the boundary drops one generator at a time,
keeping only the drops that do not change the lcm.

Subsets are bitmasks S over the generators, and all 2^m subset lcms come
from one pass in increasing order: lcm(S) is lcm(S minus its lowest
generator) raised to that generator, on plain exponent tuples.  Within a
multidegree each boundary row is an int whose bits are the surviving
subsets one smaller, and homology is taken over the two-element field by
elimination on these rows.  Nothing here touches the lcm-lattice machinery,
so agreement of the two routes is a real cross-check.
"""

from __future__ import annotations

from .errors import TooLargeError
from .monomials import Monomial, MonomialIdeal

MAX_TAYLOR_ATOMS = 10


def _rank_mod2(rows: list[int]) -> int:
    pivots: dict[int, int] = {}  # lowest bit -> the reduced row it leads
    rank = 0
    for row in rows:
        while row:
            pivot = row & -row
            if pivot in pivots:
                row ^= pivots[pivot]
            else:
                pivots[pivot] = row
                rank += 1
                break
    return rank


def taylor_betti(I: MonomialIdeal) -> dict[tuple[int, Monomial], int]:
    """Nonzero multigraded Betti numbers of the quotient, subset-resolution route."""
    gens = I.generators
    m = len(gens)
    if m > MAX_TAYLOR_ATOMS:
        raise TooLargeError(
            f"{m} generators exceed the subset-resolution cap of {MAX_TAYLOR_ATOMS}"
        )
    lcms = [(0,) * I.ambient]  # lcms[S]: the lcm of the generator subset S
    for S in range(1, 1 << m):
        low = S & -S
        lcms.append(tuple(map(max, lcms[S ^ low], gens[low.bit_length() - 1].exponents)))
    subsets: dict[tuple[int, ...], list[int]] = {}  # multidegree -> its subsets
    for S, deg in enumerate(lcms):
        subsets.setdefault(deg, []).append(S)

    betti: dict[tuple[int, Monomial], int] = {}
    for deg, same in subsets.items():
        col = {S: c for c, S in enumerate(same)}
        rows: dict[int, list[int]] = {}  # size -> boundary rows, as column masks
        for S in same:
            row, rest = 0, S
            while rest:
                low = rest & -rest
                rest ^= low
                face = col.get(S ^ low)  # kept iff dropping the generator keeps deg
                if face is not None:
                    row |= 1 << face
            rows.setdefault(S.bit_count(), []).append(row)
        ranks = {size: _rank_mod2(r) for size, r in rows.items()}
        for size, r in rows.items():
            h = len(r) - ranks[size] - ranks.get(size + 1, 0)
            if h:
                betti[(size, Monomial(deg, I.ambient))] = h
    return betti
