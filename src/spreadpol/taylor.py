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

A multidegree is an int code.  Per distinct nonzero column of the generator
matrix, in order of first occurrence (equal columns give every lcm equal
values there), the threshold masks, the generators with exponent >= v per
value v > 0 from the highest down, form a chain (_columns); these are the
distinct columns of the standard polarization.  Bit t of a generator's
code, the first mask the most significant, says whether the generator lies
in mask t (_atom_codes, one transpose of the masks).  So an exponent becomes
its rank, the number of masks holding it, written in unary in that column's
field, and within a field OR is max: the code of an lcm is the OR of the
generators' codes, and all 2^m subset lcms come from one doubling pass.  A
field is at most as wide as the number of generators, where raw exponents
could need 2^16 bits.  An exponent is decoded from its field's popcount,
the rank, as the column's value of that rank (_decode_fields makes each
field's shift, mask and values from the rows).  _decode turns a whole list
of codes into exponent rows column by column: one pass over all the codes
per distinct column, then one zip.

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

This module is the one encoder of lcm codes: the masks, the codes and the
fields are made here alone, and both Betti routes run one matching pass.
_homology needs only the threshold masks and the codes made from them, and
builds the subset lcms and keep itself.  taylor_betti makes the masks and
codes from the generators' exponents, lists the groups with a nonzero
entry in the order their lcm is first reached, and decodes their
multidegrees in one call together with the lcm of all generators, which
gets the full Monomial check once: as every entry divides it, every entry
is made unchecked if it passes, and each entry gets the full check of its
own if it fails.  The lcm-lattice (lattices.LcmLattice) makes its atom
codes and its decode fields with the same helpers, and passes its threshold
masks and atom codes for its Betti table `_betti`, keyed by element index;
the law harness (invariants._stats) passes the masks of an ideal and of its
n-spread, and reads the projective dimension off the sizes.
This module imports only errors and monomials, which a test pins, so the
layering stays one-way.  As both routes share the encoder, the independent
checks of either are the references in the tests: the combinations oracle,
the chain-complex oracle and the eager lattice.

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
# entry i maps each byte to the binary digit of its bit i, for bytes.translate:
# over the bytes 0..255, bit i runs 2^i zeros, then 2^i ones, and repeats
_BIT_DIGITS = [(b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8)]


def _holding(m: int) -> list[int]:
    """holding[a]: the mask of the subsets of m generators that hold a."""
    full = (1 << (1 << m)) - 1
    return [full // ((1 << (2 << a)) - 1) * (((1 << (1 << a)) - 1) << (1 << a))
            for a in range(m)]


def _columns(rows: list[tuple[int, ...]]) -> list[list[int]]:
    """The threshold masks of the generator rows: per distinct nonzero column
    of exponents, in order of first occurrence, the chain of masks of its
    values v > 0 (the rows with exponent >= v, bit i for row i), from the
    highest v down, each once: the distinct columns of the standard
    polarization.  The masks of a chain grow, as sets and as ints."""
    out = []
    for column in dict.fromkeys(zip(*rows)):
        at: dict[int, int] = {}  # nonzero exponent -> mask of the rows with it
        for i, e in enumerate(column):
            if e:
                at[e] = at.get(e, 0) | 1 << i
        chain, mask = [], 0
        for v in sorted(at, reverse=True):
            mask |= at[v]
            chain.append(mask)
        if chain:
            out.append(chain)
    return out


def _transpose(rows: list[int], m: int) -> list[int]:
    """Per a < m, bit a of each row in turn, the first row the most
    significant, read as one int.  One byte string per 8 bits holds those
    bits of every row, and translating it writes bit a of each as a binary
    digit, in time linear in the number of rows."""
    planes = [bytes([row >> lo & 255 for row in rows]) for lo in range(0, m, 8)]
    return [int(planes[a >> 3].translate(_BIT_DIGITS[a & 7]), 2) for a in range(m)]


def _atom_codes(columns: list[list[int]], m: int) -> list[int]:
    """The code of each of m generators from their threshold masks: bit a of
    each mask in turn, the first mask the most significant (_transpose),
    after a leading 0 mask, so that no masks still give codes 0."""
    return _transpose([0] + [mask for chain in columns for mask in chain], m)


def _decode_fields(rows: list[tuple[int, ...]]) -> tuple[
        list[tuple[int, int, list[int]]], list[int]]:
    """(fields, where) of the codes of these rows for _decode: per distinct
    column, in order of first occurrence, the (shift, mask, values) of its
    field, the first field the most significant; and each variable's
    column.  A field is as wide as its column's chain of masks."""
    columns: dict[tuple[int, ...], int] = {}  # distinct column -> its place
    where = [columns.setdefault(c, len(columns)) for c in zip(*rows)]
    values = [sorted({0, *column}) for column in columns]
    shift = sum(map(len, values)) - len(values)
    fields = []
    for vs in values:
        shift -= len(vs) - 1
        fields.append((shift, (1 << len(vs) - 1) - 1, vs))
    return fields, where


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


def _homology(columns: list[list[int]], codes: list[int]) -> tuple[
        list[int], dict[int, dict[int, int]]]:
    """(lcms, groups) of the generators with these threshold masks and their
    codes (_atom_codes): lcms[S] the code of the lcm of the generator subset
    S, and per lcm code of each group with a nonzero entry its {size:
    nonzero homology}."""
    lcms = [0]
    for code in codes:  # the subsets holding a sit 2^a past those without
        lcms += [x | code for x in lcms]
    out: dict[int, dict[int, int]] = {}  # lcm code -> size -> critical cells
    left = _unmatched(_keep(columns, len(codes)))
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
    return lcms, out


def taylor_betti(I: MonomialIdeal) -> dict[tuple[int, Monomial], int]:
    """Nonzero multigraded Betti numbers of the quotient, subset-resolution route."""
    gens = I.generators
    m = len(gens)
    if m > MAX_TAYLOR_ATOMS:
        raise TooLargeError(
            f"{m} generators exceed the subset-resolution cap of {MAX_TAYLOR_ATOMS}"
        )
    exps = [g.exponents for g in gens]
    columns = _columns(exps)
    lcms, groups = _homology(columns, _atom_codes(columns, m))
    order = [code for code in dict.fromkeys(lcms) if code in groups]  # first reached first
    *rows, top = _decode([*order, lcms[-1]], *_decode_fields(exps))
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
