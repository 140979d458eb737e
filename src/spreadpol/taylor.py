"""Second, independent route to multigraded Betti numbers.

The free resolution built on all generator subsets (one basis element per
subset, graded by the subset lcm) computes the same Betti numbers as the
lattice route, but through a completely different complex: fixing a
multidegree, the surviving basis elements are the subsets whose lcm is
exactly that multidegree, and the boundary drops one generator at a time,
keeping only the drops that do not change the lcm.

Subsets are bitmasks S over the generators, and all 2^m subset lcms come
from one doubling pass: the subsets holding generator a are those without
it, 2^a further on, each raised to that generator.  A multidegree is an int
code, so raising is one OR: per distinct column of the generator matrix
(equal columns give every lcm equal values there) an exponent becomes its
rank among that column's values and 0, written in unary, so within a field
OR is max, and a field is at most as wide as the number of generators where
raw exponents could need 2^16 bits.  The subsets are grouped by code.  A
group of one subset S is one basis element with no boundary in or out of
the group, as every drop changes the lcm: it gives 1 in size |S| and no
rank is taken.  In a larger group the boundary row of S is an int with bit
T set for each surviving subset T one smaller, and homology is taken over
the two-element field by elimination on these rows.  A group's exponent
vector is made only for a nonzero entry, as the lcm of its first subset.
The lcm of all generators gets the full Monomial check once: as every entry
divides it, every entry is made unchecked if it passes, and each entry gets
the full check of its own if it fails.  The code is built here, apart
from the lcm-lattice's own: nothing here touches the lcm-lattice machinery,
so agreement of the two routes is a real cross-check.

The two routes refuse different inputs.  This one refuses more than
MAX_TAYLOR_ATOMS generators and an ideal with a nonzero entry whose
multidegree fails the Monomial check (its degree past MAX_DEGREE).  The
lattice route (invariants.depth_quotient) refuses more than MAX_DEPTH_ATOMS
generators, a lattice past MAX_ELEMENTS, and any ideal whose lcm of all
generators fails that check, even when no nonzero entry sits there: on
(X^2e, X^e Y^e, Y^2e), X^e the product of x_1^e, ..., x_k^e and Y^e that of
the next k variables, with k = 20000 and e = 32767, the top's degree passes
MAX_DEGREE but no entry's does, so this route answers and that one raises.
"""

from __future__ import annotations

from .errors import ExponentOverflowError, TooLargeError
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
    for code in codes:  # the subsets holding generator a sit 2^a past those without
        lcms += [x | code for x in lcms]
    subsets: dict[int, list[int]] = {}  # lcm code -> its subsets
    for S, code in enumerate(lcms):
        subsets.setdefault(code, []).append(S)

    def degree(S: int) -> tuple[int, ...]:  # the lcm of subset S, per column
        picked = [short[a] for a in range(m) if S >> a & 1]
        short_lcm = list(map(max, zip((0,) * len(columns), *picked)))
        return tuple(map(short_lcm.__getitem__, where))

    try:  # every entry divides the top: if the top passes, so do they all
        Monomial(degree((1 << m) - 1), I.ambient)
        decode = Monomial._trusted
    except ExponentOverflowError:
        decode = Monomial

    betti: dict[tuple[int, Monomial], int] = {}
    for code, same in subsets.items():
        if len(same) == 1:  # no drop keeps the lcm: one cycle, no boundary
            S = same[0]
            betti[(S.bit_count(), decode(degree(S), I.ambient))] = 1
            continue
        rows: dict[int, list[int]] = {}  # size -> boundary rows, as subset masks
        for S in same:
            row, rest = 0, S
            while rest:
                low = rest & -rest
                rest ^= low
                if lcms[S ^ low] == code:  # kept iff dropping the generator keeps deg
                    row |= 1 << (S ^ low)
            rows.setdefault(S.bit_count(), []).append(row)
        ranks = {size: _rank_mod2(r) for size, r in rows.items()}
        deg = None
        for size, r in rows.items():
            h = len(r) - ranks[size] - ranks.get(size + 1, 0)
            if h:
                if deg is None:  # the lcm of the group's first subset
                    deg = decode(degree(same[0]), I.ambient)
                betti[(size, deg)] = h
    return betti
