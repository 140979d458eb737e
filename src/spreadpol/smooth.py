"""Deciding smooth spreadability, with certificates and counterexamples.

A set of monomials in n variables (all degrees <= d) is smoothly spreadable
when one single permutation tau of {1, ..., n*d}, moving every index only
within its residue class mod n, relabels the n-spread of every member into
its polarization simultaneously.

The decision rests on a pairwise criterion.  Write the exponent rows
a_{i,1..n} and the prefix sums p_{i,j} = a_{i,1} + ... + a_{i,j-1}.  In the
n-spread of u_i, variable j occupies the index block
{(p_{i,j}+s)*n + j : 0 <= s < a_{i,j}}, while in the polarization it
occupies {s*n + j : 0 <= s < a_{i,j}}.  The set is smoothly spreadable iff
for every generator pair and every j the two spread-side blocks overlap in
exactly min(a_{i,j}, a_{l,j}) indices.  For integer intervals that forces
the shorter block to sit inside the longer one, so per residue class the
blocks form a chain; mapping the chain inside-out onto prefixes yields an
explicit certificate.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatchError,
    BadAmbientError,
    BadParameterError,
    DegreeMismatchError,
    EmptySetError,
    InvariantViolation,
    NotMinimalError,
    NotSmoothInputError,
    ShapeMismatchError,
    SupportOverlapError,
    UnitGeneratorError,
)
from .monomials import Monomial, MonomialIdeal, _integer, _polar_indices, sigma_t


@dataclass(frozen=True)
class SmoothCertificate:
    """A residue-respecting permutation carrying every n-spread to its polarization.

    tau is stored 1-indexed: tau[k-1] is the image of index k.  column_maps
    holds, per residue class j, the permutation lam of the block offsets
    {0, ..., d-1} with tau(s*n + j) = lam[s]*n + j.
    """

    n: int
    d: int
    tau: tuple[int, ...]
    column_maps: tuple[tuple[int, ...], ...]

    @classmethod
    def from_permutation(
        cls, n: int, d: int, tau: Sequence[int]
    ) -> "SmoothCertificate":
        """Wrap a raw permutation of {1, ..., n*d}, deriving the column maps."""
        n, d = _integer(n, "n"), _integer(d, "d")
        try:  # as in Monomial: 2.0 is refused, not compared equal to 2
            tau = tuple(map(operator.index, tau))
        except TypeError:
            raise ShapeMismatchError(f"tau is not a permutation of 1..{n * d}") from None
        if sorted(tau) != list(range(1, n * d + 1)):
            raise ShapeMismatchError(f"tau is not a permutation of 1..{n * d}")
        if any((tau[k - 1] - k) % n for k in range(1, n * d + 1)):
            raise ShapeMismatchError("tau does not respect residues mod n")
        cols = []
        for j in range(1, n + 1):
            cols.append(tuple((tau[s * n + j - 1] - j) // n for s in range(d)))
        return cls(n=n, d=d, tau=tau, column_maps=tuple(cols))

    def apply(self, k: int) -> int:
        return self.tau[k - 1]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least element, sorted."""
        seen = set()
        out = []
        for start in range(1, len(self.tau) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            k = self.apply(start)
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self.apply(k)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)


@dataclass(frozen=True)
class SmoothWitness:
    """A concrete violation of the pairwise block-overlap identity.

    Generators i and ell (1-based positions in the checked sequence) disagree
    at variable j: their spread-side index blocks overlap in `found` indices
    instead of the required min(a_{i,j}, a_{ell,j}) = `expected`.
    """

    i: int
    ell: int
    j: int
    expected: int
    found: int
    positions_i: frozenset[int]
    positions_ell: frozenset[int]


class T2Verdict(enum.Enum):
    """Outcome of the two-variable screening test."""

    SUFFICIENT_HOLDS = "sufficient-holds"
    NECESSARY_FAILS = "necessary-fails"
    INDETERMINATE = "indeterminate"


def _normalize(monomials: Iterable[Monomial], n: int) -> list[Monomial]:
    out: list[Monomial] = []
    seen = set()
    for u in monomials:
        if u.ambient != n:
            raise AmbientMismatchError(
                f"monomial {u} has ambient {u.ambient}, expected {n}"
            )
        if u not in seen:
            seen.add(u)
            out.append(u)
    if not out:
        raise EmptySetError("no monomials to check")
    return out


def _blocks(u: Monomial) -> list[tuple[int, int]]:
    # per variable j: (prefix, exponent); block offsets are prefix..prefix+a-1
    out = []
    prefix = 0
    for a in u.exponents:
        out.append((prefix, a))
        prefix += a
    return out


def check_smooth(
    monomials: Iterable[Monomial], n: int
) -> SmoothCertificate | SmoothWitness:
    """Decide smooth spreadability of a monomial set in n variables.

    Returns a verified SmoothCertificate, or a SmoothWitness naming the first
    violating generator pair and variable (pairs scanned in input order,
    variables in increasing order).
    """
    n = _integer(n, "n")
    ms = _normalize(monomials, n)
    blocks = [_blocks(u) for u in ms]
    witness = _first_violation(blocks, n)
    if witness is not None:
        return witness
    cert = _build_certificate(n, max(u.degree for u in ms), blocks)
    if not verify_certificate(ms, n, cert):
        raise InvariantViolation(
            "constructed certificate failed verification despite the pairwise "
            "criterion holding"
        )
    return cert


def _first_violation(blocks: list[list[tuple[int, int]]], n: int) -> SmoothWitness | None:
    """The first pair and variable breaking the pairwise block criterion
    (pairs in input order, variables in increasing order), or None."""
    for (i, bi), (ell, bell) in itertools.combinations(enumerate(blocks, 1), 2):
        for j in range(1, n + 1):
            (pi, ai), (pl, al) = bi[j - 1], bell[j - 1]
            expected = min(ai, al)
            if ai and al:
                found = max(0, min(pi + ai, pl + al) - max(pi, pl))
            else:
                found = 0
            if expected != found:
                return SmoothWitness(
                    i=i,
                    ell=ell,
                    j=j,
                    expected=expected,
                    found=found,
                    positions_i=frozenset((pi + s) * n + j for s in range(ai)),
                    positions_ell=frozenset((pl + s) * n + j for s in range(al)),
                )
    return None


def _greedy_column(intervals: list[tuple[int, int]], d: int) -> list[int]:
    """Map a chain of nested offset intervals onto prefixes of {0, ..., d-1}.

    Each interval [lo, hi] must land set-wise on {0, ..., hi-lo}.  Process the
    chain inside-out, handing yet-unassigned offsets the next free prefix
    positions in ascending order; leftover offsets then fill the remaining
    positions, again ascending.  The pairwise criterion makes the intervals a
    chain, so every interval lands on its prefix; check_smooth verifies the
    assembled certificate from first principles, and acceptance criterion 04
    compares the verdicts with an exhaustive permutation search.
    """
    lam: list[int | None] = [None] * d
    assigned = 0
    for lo, hi in sorted(set(intervals), key=lambda iv: (iv[1] - iv[0], iv[0])):
        for s in range(lo, hi + 1):
            if lam[s] is None:
                lam[s] = assigned
                assigned += 1
    free = iter(range(assigned, d))
    for s in range(d):
        if lam[s] is None:
            lam[s] = next(free)
    return lam  # type: ignore[return-value]


def _build_certificate(
    n: int, d: int, blocks: list[list[tuple[int, int]]]
) -> SmoothCertificate:
    cols: list[tuple[int, ...]] = []
    for j in range(n):
        intervals = [(p, p + a - 1) for p, a in (row[j] for row in blocks) if a]
        cols.append(tuple(_greedy_column(intervals, d)))
    tau = [0] * (n * d)
    for j in range(1, n + 1):
        for s in range(d):
            tau[s * n + j - 1] = cols[j - 1][s] * n + j
    return SmoothCertificate(n=n, d=d, tau=tuple(tau), column_maps=tuple(cols))


def verify_certificate(
    monomials: Iterable[Monomial], n: int, cert: SmoothCertificate
) -> bool:
    """Check a certificate against a monomial set from first principles.

    True iff tau respects residues mod n and relabelling the n-spread of
    every monomial through tau gives exactly its polarization.
    """
    n = _integer(n, "n")
    ms = _normalize(monomials, n)
    if cert.n != n:
        raise ShapeMismatchError(f"certificate is for n={cert.n}, data has n={n}")
    size = n * cert.d
    if sorted(cert.tau) != list(range(1, size + 1)):
        raise ShapeMismatchError(f"tau is not a permutation of 1..{size}")
    if max(u.degree for u in ms) > cert.d:
        raise ShapeMismatchError("certificate degree bound below a monomial degree")
    if any((cert.tau[k - 1] - k) % n for k in range(1, size + 1)):
        return False
    for u in ms:
        mapped = {cert.tau[i - 1] for i in sigma_t(u, n).indices}
        if mapped != set(_polar_indices(u, n)):  # u's degree is at most cert.d
            return False
    return True


def check_smooth_ideal(I: MonomialIdeal) -> SmoothCertificate | SmoothWitness:
    """check_smooth applied to the minimal generators of an ideal."""
    return check_smooth(I.generators, I.ambient)


def is_smoothly_spreadable(I: MonomialIdeal) -> bool:
    """The verdict of check_smooth_ideal by the pairwise criterion alone,
    with no certificate built."""
    return _first_violation([_blocks(u) for u in I.generators], I.ambient) is None


def check_smooth_t2(I: MonomialIdeal) -> T2Verdict:
    """Screen a two-variable ideal by the total-degree chain conditions.

    Order the generators x_1^{a_i} x_2^{b_i} with a_1 > ... > a_m (then
    b_1 < ... < b_m by minimality).  Nondecreasing total degrees are
    sufficient for smooth spreadability.  Conversely, the pairwise
    block-overlap criterion forces a_i+b_i <= a_l+b_l for every pair i < l
    with b_i > 0; since only b_1 can vanish, a smooth ideal must satisfy
    a_2+b_2 <= ... <= a_m+b_m, extended to the first step when b_1 > 0.
    (The step up to a_m+b_m is gated by b_{m-1} > 0, never by a_m:
    (x1^4, x1^2*x2) is smoothly spreadable with decreasing totals.)
    When a necessary condition fails the ideal is certainly not smooth;
    anything else is INDETERMINATE and needs the full checker.
    """
    if I.ambient != 2:
        raise BadAmbientError(f"two-variable screen on ambient {I.ambient}")
    gens = sorted(I.generators, key=lambda g: -g.exponents[0])
    b = [g.exponents[1] for g in gens]
    totals = [g.degree for g in gens]
    if all(s <= t for s, t in zip(totals, totals[1:])):
        return T2Verdict.SUFFICIENT_HOLDS
    holds = all(
        totals[i] <= totals[i + 1]
        for i in range(len(gens) - 1)
        if b[i] > 0
    )
    return T2Verdict.INDETERMINATE if holds else T2Verdict.NECESSARY_FAILS


def adjoin_disjoint(I: MonomialIdeal, v: Monomial, n_prime: int) -> MonomialIdeal:
    """Adjoin a generator supported entirely in the fresh variables n+1..n'.

    The construction never changes the verdict of check_smooth;
    test_adjoin_disjoint_random_equivalence checks that on seeded ideals.
    """
    n, n_prime = I.ambient, _integer(n_prime, "n'")
    if n_prime < n:
        raise BadParameterError(f"target ambient {n_prime} below {n}")
    if v.is_unit:
        raise UnitGeneratorError("cannot adjoin the unit monomial")
    if v.ambient > n_prime:
        raise AmbientMismatchError(f"monomial ambient {v.ambient} exceeds {n_prime}")
    v = v.in_ambient(n_prime)
    if any(j <= n for j in v.support):
        raise SupportOverlapError(
            f"support of {v} meets the original variables 1..{n}"
        )
    J = MonomialIdeal(n_prime, [g.in_ambient(n_prime) for g in I.generators] + [v])
    if len(J.generators) != len(I.generators) + 1:
        raise InvariantViolation("disjoint adjunction broke minimality")
    return J


def adjoin_pure_powers_condition(
    I: MonomialIdeal, powers: Sequence[tuple[int, int]]
) -> bool:
    """Test the degree condition under which pure powers may be adjoined.

    powers lists (variable, exponent) pairs with strictly increasing
    variables.  For each x_j^e the condition compares e against the largest
    degree of a generator truncated to the variables 1..j, taken over the
    generators divisible by x_j.  When it holds and I is smoothly
    spreadable, so is the ideal extended by the pure powers.
    """
    n = I.ambient
    powers = [(_integer(j, "variable index"), _integer(e, "power exponent")) for j, e in powers]
    if any(j2 <= j1 for (j1, _), (j2, _) in zip(powers, powers[1:])):
        raise BadParameterError("power variables must be strictly increasing")
    for j, e in powers:
        if not 1 <= j <= n:
            raise BadParameterError(f"variable x_{j} outside ambient {n}")
        if e < 1:
            raise BadParameterError(f"power exponent {e} must be >= 1")
        for u in I.generators:
            if u.exponents[j - 1] >= e:
                raise NotMinimalError(f"x{j}^{e} divides generator {u}")
            if u.support == {j} and u.exponents[j - 1] <= e:
                raise NotMinimalError(f"generator {u} divides x{j}^{e}")
    for j, e in powers:
        truncated = [
            sum(u.exponents[:j])
            for u in I.generators
            if u.exponents[j - 1] > 0
        ]
        if truncated and e < max(truncated):
            return False
    return True


def product_construct(
    monomials: Iterable[Monomial],
    n: int,
    factors: Iterable[Monomial],
    n_prime: int,
) -> tuple[Monomial, ...]:
    """All pairwise products of two smooth sets in disjoint variable ranges.

    The first set must consist of equal-degree monomials in the variables
    1..n, the second of monomials supported in n+1..n'.  Both sets must be
    smoothly spreadable; the returned product set is again smoothly
    spreadable (test_product_random_smoothness and acceptance criterion 05
    check that on seeded sets), and it contains the minimal generators of
    the product ideal.
    """
    n, n_prime = _integer(n, "n"), _integer(n_prime, "n'")
    if n_prime <= n:
        raise BadParameterError(f"need n' > n, got n'={n_prime}, n={n}")
    ms = _normalize(monomials, n)
    vs = _normalize(factors, n_prime)
    if any(u.is_unit for u in ms) or any(v.is_unit for v in vs):
        raise UnitGeneratorError("product factors must be nonunit")
    degrees = {u.degree for u in ms}
    if len(degrees) != 1:
        raise DegreeMismatchError(f"mixed degrees {sorted(degrees)} in base set")
    for v in vs:
        if any(j <= n for j in v.support):
            raise SupportOverlapError(f"factor {v} touches the variables 1..{n}")
    if not isinstance(check_smooth(ms, n), SmoothCertificate):
        raise NotSmoothInputError("base set is not smoothly spreadable")
    if not isinstance(check_smooth(vs, n_prime), SmoothCertificate):
        raise NotSmoothInputError("factor set is not smoothly spreadable")
    return tuple(sorted({u.in_ambient(n_prime) * v for u in ms for v in vs}))
