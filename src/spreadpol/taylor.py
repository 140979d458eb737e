"""Second, independent route to multigraded Betti numbers.

The free resolution built on all generator subsets (one basis element per
subset, graded by the subset lcm) computes the same Betti numbers as the
lattice route, but through a completely different complex: fixing a
multidegree, the surviving basis elements are the subsets whose lcm is
exactly that multidegree (its lcm group), and the boundary drops one
generator at a time, keeping only the drops that do not change the lcm.

A subset S of the m generators is a bitmask, and a set of subsets is a
subset mask: an int of 2^m bits with bit S set for each member.  The
subsets holding generator a are those without it, 2^a further on, so their
mask holding[a] repeats 2^a zeros then 2^a ones.

A multidegree is an int code.  Per distinct column of the generator matrix
(equal columns give every lcm equal values there) an exponent becomes its
rank among that column's values and 0, written in unary in that column's
field, so within a field OR is max: the code of an lcm is the OR of the
generators' codes, and all 2^m subset lcms come from one doubling pass.  A
field is at most as wide as the number of generators, where raw exponents
could need 2^16 bits.  An exponent is decoded from its field's popcount,
the rank, as the column's value of that rank.

The subset resolution is reduced by element matchings, the discrete-Morse
reduction of Batzies and Welker (J. reine angew. Math. 543, 2002): along
each generator a in turn, S without a is paired with S with a when both are
still unmatched and adding a keeps the lcm; the subsets left unmatched are
the critical cells.  keep[a] is the mask of the subsets S without a whose
lcm adding a leaves alone: per distinct column where a has a nonzero rank r,
S must hold a generator of rank at least r there, that is, lie in the OR of
holding[b] over those generators b.  One pass over a = 0, ..., m-1 then
matches every lcm group at once: the pairs are the unmatched S in keep[a]
whose partner S with a, 2^a bits on, is unmatched too.  This equals
matching each lcm group on its own along the generators of its union, and
stopping once its critical cells have one size: a pair shares its lcm, so
it stays in one group; a generator outside a group's union pairs nothing
there; and the two members of a pair differ in size by one, so no pair is
left in a group whose critical cells have one size.

A sequence of element matchings is acyclic (Jonsson, Simplicial Complexes
of Graphs, LNM 1928, 2008), so over the two-element field the Morse complex
on a group's critical cells has the group's homology, and its differential,
which lowers the size by one, is zero when they all have one size s: the
group gives b_s = their count.  Only a group whose critical cells keep two
sizes falls back to the whole group: the boundary row of S is an int with
bit T set for each surviving subset T one smaller, and homology is taken by
elimination on these rows.  Both cited facts are recalled, not read
offline: the tests' comparisons with a combinations oracle and the lattice
route are the check.  Groups are visited in the order their lcm is first
reached, and a group's exponent vector is decoded from its code only for a
nonzero entry.

The lcm of all generators gets the full Monomial check once: as every entry
divides it, every entry is made unchecked if it passes, and each entry gets
the full check of its own if it fails.  The masks here are built apart
from the lcm-lattice's own: nothing here touches the lcm-lattice machinery
(this module imports only errors and monomials, which a test pins), so
agreement of the two routes is a real cross-check.

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


def _holding(m: int) -> list[int]:
    """holding[a]: the mask of the subsets of m generators that hold a."""
    full = (1 << (1 << m)) - 1
    return [full // ((1 << (2 << a)) - 1) * (((1 << (1 << a)) - 1) << (1 << a))
            for a in range(m)]


def _ranked(exps: list[tuple[int, ...]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """(where, values, ranks) of the generator rows: the place of each column
    among the distinct columns, and per distinct column its values with 0 in
    increasing order and each generator's rank among them."""
    columns: dict[tuple[int, ...], int] = {}  # distinct column -> its place
    where = [columns.setdefault(c, len(columns)) for c in zip(*exps)]
    values, ranks = [], []
    for column in columns:
        vs = sorted(set(column) | {0})
        rank = {v: r for r, v in enumerate(vs)}
        values.append(vs)
        ranks.append([rank[v] for v in column])
    return where, values, ranks


def _keep(ranks: list[list[int]], m: int) -> list[int]:
    """keep[a]: the mask of the subsets S without a with lcm(S + a) = lcm(S)."""
    holding = _holding(m)
    full = (1 << (1 << m)) - 1
    keep = [full ^ h for h in holding]
    for rk in ranks:
        reach = [0] * (max(rk) + 1)  # reach[r]: the subsets holding a rank >= r
        for h, r in zip(holding, rk):
            reach[r] |= h
        for r in range(len(reach) - 2, 0, -1):
            reach[r] |= reach[r + 1]
        for a, r in enumerate(rk):
            if r:
                keep[a] &= reach[r]
    return keep


def _unmatched(keep: list[int]) -> int:
    """The mask of the subsets that the element matchings along the
    generators a = 0, 1, ... leave unmatched: the critical cells."""
    left = (1 << (1 << len(keep))) - 1
    for a, kept in enumerate(keep):
        step = 1 << a
        pairs = left & kept & (left >> step)
        left ^= pairs | pairs << step
    return left


def _by_ranks(lcms: list[int], code: int) -> dict[int, int]:
    """size -> nonzero homology of the whole lcm group of `code`, by ranks."""
    rows: dict[int, list[int]] = {}  # size -> boundary rows, as subset masks
    for S, c in enumerate(lcms):
        if c != code:
            continue
        row, rest = 0, S
        while rest:
            low = rest & -rest
            rest ^= low
            if lcms[S ^ low] == code:  # kept iff dropping the generator keeps deg
                row |= 1 << (S ^ low)
        rows.setdefault(S.bit_count(), []).append(row)
    ranks = {size: _rank_mod2(r) for size, r in rows.items()}
    homology = {size: len(r) - ranks[size] - ranks.get(size + 1, 0) for size, r in rows.items()}
    return {size: h for size, h in homology.items() if h}


def taylor_betti(I: MonomialIdeal) -> dict[tuple[int, Monomial], int]:
    """Nonzero multigraded Betti numbers of the quotient, subset-resolution route."""
    gens = I.generators
    m = len(gens)
    if m > MAX_TAYLOR_ATOMS:
        raise TooLargeError(
            f"{m} generators exceed the subset-resolution cap of {MAX_TAYLOR_ATOMS}"
        )
    where, values, ranks = _ranked([g.exponents for g in gens])
    # each generator's code: per distinct column, its rank in unary in the
    # column's field; the OR of codes is the lcm
    codes = [0] * m
    fields = []  # per distinct column: (shift, mask, values) of its field
    shift = 0
    for vs, rk in zip(values, ranks):
        for a, r in enumerate(rk):
            codes[a] |= ((1 << r) - 1) << shift
        fields.append((shift, (1 << (len(vs) - 1)) - 1, vs))
        shift += len(vs) - 1
    lcms = [0]  # lcms[S]: the code of the lcm of the generator subset S
    for code in codes:  # the subsets holding generator a sit 2^a past those without
        lcms += [x | code for x in lcms]

    def degree(code: int) -> tuple[int, ...]:  # the exponents of a code
        short = [vs[(code >> at & mask).bit_count()] for at, mask, vs in fields]
        return tuple(map(short.__getitem__, where))

    try:  # every entry divides the top: if the top passes, so do they all
        Monomial(degree(lcms[-1]), I.ambient)
        decode = Monomial._trusted
    except ExponentOverflowError:
        decode = Monomial

    sizes: dict[int, list[int]] = {}  # lcm code -> the sizes of its critical cells
    left = _unmatched(_keep(ranks, m))
    while left:
        low = left & -left
        left ^= low
        S = low.bit_length() - 1
        sizes.setdefault(lcms[S], []).append(S.bit_count())

    betti: dict[tuple[int, Monomial], int] = {}
    for code in dict.fromkeys(lcms):  # the groups in first-reached order
        cells = sizes.get(code)
        if cells is None:
            continue
        if min(cells) == max(cells):  # one size: the differential is zero
            betti[(cells[0], decode(degree(code), I.ambient))] = len(cells)
            continue
        homology = _by_ranks(lcms, code)
        if homology:
            deg = decode(degree(code), I.ambient)
        for size, h in homology.items():
            betti[(size, deg)] = h
    return betti
