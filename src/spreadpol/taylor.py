"""Second, independent route to multigraded Betti numbers.

The free resolution built on all generator subsets (one basis element per
subset, graded by the subset lcm) computes the same Betti numbers as the
lattice route, but through a completely different complex: fixing a
multidegree, the surviving basis elements are the subsets whose lcm is
exactly that multidegree, and the boundary drops one generator at a time,
keeping only the drops that do not change the lcm.

Subsets are bitmasks S over the generators, and all 2^m subset lcms come
from one pass in increasing order: lcm(S) is lcm(S minus its lowest
generator) raised to that generator.  A multidegree is an int code, so
raising is one OR: per distinct column of the generator matrix (equal
columns give every lcm equal values there) an exponent becomes its rank
among that column's values and 0, written in unary, so within a field OR
is max, and a field is at most as wide as the number of generators where
raw exponents could need 2^16 bits.  The subsets are grouped by code, and
a group's exponent vector, with its full Monomial check, is made only for
a nonzero entry, as the lcm of the group's first subset.  Within a
multidegree each boundary row is an int whose bits are the surviving
subsets one smaller, and homology is taken over the two-element field by
elimination on these rows.  The code is built here, apart from the
lcm-lattice's own: nothing here touches the lcm-lattice machinery, so
agreement of the two routes is a real cross-check.
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
    exps = [g.exponents for g in gens]
    # each generator's code: per distinct column, the rank of its exponent
    # among the column's values and 0, in unary; the OR of codes is the lcm
    columns: dict[tuple[int, ...], int] = {}  # distinct column -> its place
    where = [columns.setdefault(c, len(columns)) for c in zip(*exps)]
    short = list(zip(*columns))  # the generators on the distinct columns
    fields = []
    for column in columns:
        values = sorted(set(column) | {0})
        unary = {v: "0" * (len(values) - 1 - r) + "1" * r for r, v in enumerate(values)}
        fields.append([unary[v] for v in column])
    codes = [int("".join(f), 2) for f in zip(*fields)]
    lcms = [0]  # lcms[S]: the code of the lcm of the generator subset S
    for S in range(1, 1 << m):
        low = S & -S
        lcms.append(lcms[S ^ low] | codes[low.bit_length() - 1])
    subsets: dict[int, list[int]] = {}  # lcm code -> its subsets
    for S, code in enumerate(lcms):
        subsets.setdefault(code, []).append(S)

    betti: dict[tuple[int, Monomial], int] = {}
    for same in subsets.values():
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
        deg = None
        for size, r in rows.items():
            h = len(r) - ranks[size] - ranks.get(size + 1, 0)
            if h:
                if deg is None:  # the lcm of the group's first subset, per column
                    picked = [short[a] for a in range(m) if same[0] >> a & 1]
                    top = list(map(max, zip((0,) * len(columns), *picked)))
                    deg = Monomial(tuple(map(top.__getitem__, where)), I.ambient)
                betti[(size, deg)] = h
    return betti
