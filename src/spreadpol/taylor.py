"""Multigraded Betti numbers by element matchings on the subset resolution.

The free resolution built on all generator subsets (Taylor's: one basis
element per subset, graded by the subset lcm) gives the multigraded Betti
numbers of the quotient: fixing a multidegree, the surviving basis elements
are the subsets whose lcm is exactly that multidegree (its lcm group), and
the boundary drops one generator at a time, keeping only the drops that do
not change the lcm.

A subset S of the m generators is a bitmask, and a set of subsets is a
subset mask: an int of 2^m bits with bit S set for each member.  The
subsets holding generator a are those without it, 2^a further on, so their
mask holding[a] repeats 2^a zeros then 2^a ones.

A multidegree is an int code.  Per distinct column of the generator matrix
(equal columns give every lcm equal values there) the threshold masks, the
generators with exponent >= v per value v > 0 from the highest down, form a
chain, and an exponent becomes its rank, the number of masks holding it,
written in unary in that column's field, so within a field OR is max: the
code of an lcm is the OR of the generators' codes, and all 2^m subset lcms
come from one doubling pass.  A field is at most as wide as the number of
generators, where raw exponents could need 2^16 bits.  An exponent is
decoded from its field's popcount, the rank, as the column's value of that
rank.  _decode turns a whole list of codes into exponent rows column by
column: one pass over all the codes per distinct column, then one zip.

The subset resolution is reduced by element matchings, the discrete-Morse
reduction of Batzies and Welker (J. reine angew. Math. 543, 2002): along
each generator a in turn, S without a is paired with S with a when both are
still unmatched and adding a keeps the lcm; the subsets left unmatched are
the critical cells.  keep[a] is the mask of the subsets S without a whose
lcm adding a leaves alone: per chain, S must meet the least mask holding a,
that is, lie in the OR of holding[b] over the generators b in that mask.
One pass over a = 0, ..., m-1 then matches every lcm group at once: the
pairs are the unmatched S in keep[a] whose partner S with a, 2^a bits on,
is unmatched too.  This equals matching each lcm group on its own along the
generators of its union, and stopping once its critical cells have one
size: a pair shares its lcm, so it stays in one group; a generator outside
a group's union pairs nothing there; and the two members of a pair differ
in size by one, so no pair is left in a group whose critical cells have one
size.

A sequence of element matchings is acyclic (Jonsson, Simplicial Complexes
of Graphs, LNM 1928, 2008), so over the two-element field the Morse complex
on a group's critical cells has the group's homology, and its differential,
which lowers the size by one, is zero when they all have one size s: the
group gives b_s = their count.  Only a group whose critical cells keep two
sizes falls back to the whole group: the boundary row of S is an int with
bit T set for each surviving subset T one smaller, and homology is taken by
elimination on these rows.  Both cited facts are recalled, not read
offline: the tests' comparisons with a combinations oracle and a chain
complex oracle are the check.

_homology and _decode need only keep, the codes and the fields, so they
serve two callers.  taylor_betti makes them from the generators'
exponents, lists the groups with a nonzero entry in the order their lcm is
first reached, and decodes their multidegrees in one call together with
the lcm of all generators, which gets the full Monomial check once: as
every entry divides it, every entry is made unchecked if it passes, and
each entry gets the full check of its own if it fails.  The lcm-lattice
(lattices.LcmLattice) passes its own threshold masks and atom codes for
its Betti table `_betti`, keyed by element index, and its own fields to
decode its elements.  This module imports only errors and monomials,
which a test pins, so taylor_betti's masks and codes are made apart from
the lattice's, and comparing the two keeps a check on the lattice's side.

Both read at most MAX_TAYLOR_ATOMS generators: invariants.depth_quotient and
invariants.order_complex_betti share the cap, and 2^MAX_TAYLOR_ATOMS
subsets stay below the lattice's MAX_ELEMENTS.  Within the cap, taylor_betti
refuses only an ideal with a nonzero entry whose multidegree fails the
Monomial check (its degree past MAX_DEGREE).  depth_quotient builds the
lcm-lattice, which checks its top in full, so it also refuses an ideal whose
top alone fails: on (X^2e, X^e Y^e, Y^2e), X^e the product of x_1^e, ...,
x_k^e and Y^e that of the next k variables, with k = 20000 and e = 32767,
the top's degree passes MAX_DEGREE but no entry's does, so taylor_betti
answers and depth_quotient raises.
"""

from __future__ import annotations

from .errors import ExponentOverflowError, TooLargeError
from .monomials import Monomial, MonomialIdeal

MAX_TAYLOR_ATOMS = 10


def _holding(m: int) -> list[int]:
    """holding[a]: the mask of the subsets of m generators that hold a."""
    full = (1 << (1 << m)) - 1
    return [full // ((1 << (2 << a)) - 1) * (((1 << (1 << a)) - 1) << (1 << a))
            for a in range(m)]


def _ranked(exps: list[tuple[int, ...]]) -> tuple[
        list[int], list[list[int]], list[list[int]], list[list[int]]]:
    """(where, values, ranks, chains) of the generator rows: the place of
    each column among the distinct columns, and per distinct column its
    values with 0 in increasing order, each generator's rank among them, and
    the threshold masks, the generators of rank >= r per rank r > 0 from the
    highest down (a chain: the masks grow)."""
    columns: dict[tuple[int, ...], int] = {}  # distinct column -> its place
    where = [columns.setdefault(c, len(columns)) for c in zip(*exps)]
    values, ranks, chains = [], [], []
    for column in columns:
        vs = sorted(set(column) | {0})
        rank = {v: r for r, v in enumerate(vs)}
        rk = [rank[v] for v in column]
        at = [0] * len(vs)  # at[r]: the generators of rank r
        for a, r in enumerate(rk):
            at[r] |= 1 << a
        chain, mask = [], 0
        for bits in at[:0:-1]:
            mask |= bits
            chain.append(mask)
        values.append(vs)
        ranks.append(rk)
        chains.append(chain)
    return where, values, ranks, chains


def _decode(codes: list[int], fields: list[tuple[int, int, list[int]]],
            where: list[int]) -> list[tuple[int, ...]]:
    """The exponent rows of int codes, given per distinct column the (shift,
    mask, values) of its field (a zero column's mask 0 and values [0]) and
    each variable's column: an exponent is the column's value of the
    field's popcount, its rank.  One list per distinct column over all the
    codes, then one zip makes the rows."""
    columns = [[vs[(c >> at & mask).bit_count()] for c in codes] for at, mask, vs in fields]
    return list(zip(*map(columns.__getitem__, where))) or [()] * len(codes)


def _keep(chains: list[list[int]], m: int) -> list[int]:
    """keep[a]: the mask of the subsets S without a with lcm(S + a) = lcm(S),
    from chains of threshold masks of the m generators: per chain, S must
    meet the least mask holding a."""
    holding = _holding(m)
    full = (1 << (1 << m)) - 1
    keep = [full ^ h for h in holding]
    for chain in chains:
        reach = seen = 0  # reach: the subsets meeting the current mask
        for mask in chain:
            new, seen = mask ^ seen, mask  # the generators whose least mask it is
            rest = new
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= holding[low.bit_length() - 1]
            while new:
                low = new & -new
                new ^= low
                keep[low.bit_length() - 1] &= reach
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


def _gf2_rank(rows: list[int]) -> int:
    """The rank over GF(2) of int rows, bit k of a row its entry in column k."""
    pivots: dict[int, int] = {}  # lowest bit -> the reduced row it leads
    for row in rows:
        while row:
            pivot = row & -row
            if pivot not in pivots:
                pivots[pivot] = row
                break
            row ^= pivots[pivot]
    return len(pivots)


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
    ranks = {size: _gf2_rank(r) for size, r in rows.items()}
    homology = {size: len(r) - ranks[size] - ranks.get(size + 1, 0) for size, r in rows.items()}
    return {size: h for size, h in homology.items() if h}


def _homology(keep: list[int], lcms: list[int]) -> dict[int, dict[int, int]]:
    """lcm code -> {size: nonzero homology} of each lcm group with a nonzero
    entry, given keep and lcms[S], the code of the lcm of the generator
    subset S."""
    out: dict[int, dict[int, int]] = {}  # lcm code -> size -> critical cells
    left = _unmatched(keep)
    while left:
        low = left & -left
        left ^= low
        S = low.bit_length() - 1
        cells = out.setdefault(lcms[S], {})
        size = S.bit_count()
        cells[size] = cells.get(size, 0) + 1
    # one size leaves the differential zero: only a group with two goes by ranks
    for code in [code for code, cells in out.items() if len(cells) > 1]:
        homology = _by_ranks(lcms, code)
        if homology:
            out[code] = homology
        else:
            del out[code]
    return out


def taylor_betti(I: MonomialIdeal) -> dict[tuple[int, Monomial], int]:
    """Nonzero multigraded Betti numbers of the quotient, subset-resolution route."""
    gens = I.generators
    m = len(gens)
    if m > MAX_TAYLOR_ATOMS:
        raise TooLargeError(
            f"{m} generators exceed the subset-resolution cap of {MAX_TAYLOR_ATOMS}"
        )
    where, values, ranks, chains = _ranked([g.exponents for g in gens])
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
    groups = _homology(_keep(chains, m), lcms)
    order = [code for code in dict.fromkeys(lcms) if code in groups]  # first reached first
    *rows, top = _decode([*order, lcms[-1]], fields, where)
    try:  # every entry divides the top: if the top passes, so do they all
        Monomial(top, I.ambient)
        decode = Monomial._trusted
    except ExponentOverflowError:
        decode = Monomial
    betti: dict[tuple[int, Monomial], int] = {}
    for code, row in zip(order, rows):
        deg = decode(row, I.ambient)
        for size, h in groups[code].items():
            betti[(size, deg)] = h
    return betti
