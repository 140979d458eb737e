"""Monomials, monomial ideals, the spreading operator and polarization.

Monomials are exponent vectors over a fixed ambient variable count n; the
variables are 1-indexed everywhere (x_1, ..., x_n).  A monomial of degree d
can equivalently be written through its sorted index form
x_{i_1} x_{i_2} ... x_{i_d} with i_1 <= ... <= i_d, variable j repeated as
often as its exponent; both views round-trip.

The spreading operator sends x_{i_1}...x_{i_d} to x_{i_1} x_{i_2+t} ...
x_{i_d+(d-1)t} (the t-fold iterate of the squarefree operator), and
polarization replaces each x_j^a by the product x_j x_{j+n} ... x_{j+(a-1)n}.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatchError,
    BadParameterError,
    DegreeBoundError,
    ExponentOverflowError,
    InvariantViolation,
    TooLargeError,
    UnitGeneratorError,
    ZeroIdealError,
)

# Desk-scale guards: single exponents fit 16 bits, total degrees 32 bits,
# and a dense exponent vector has at most about a million entries.
MAX_EXPONENT = 1 << 16
MAX_DEGREE = 1 << 31
MAX_AMBIENT = 1 << 20


def _zeros(ambient: int) -> list[int]:
    """The zero exponent vector of length `ambient`, refused above MAX_AMBIENT."""
    if ambient > MAX_AMBIENT:
        raise TooLargeError(f"ambient {ambient} exceeds {MAX_AMBIENT} variables")
    return [0] * ambient


@functools.total_ordering
class Monomial:
    """An immutable monomial in the polynomial ring with `ambient` variables."""

    __slots__ = ("ambient", "exponents", "_hash")

    def __init__(self, exponents: Sequence[int], ambient: int | None = None):
        exps = tuple(map(int, exponents))
        if ambient is None:
            ambient = len(exps)
        if ambient < 0 or len(exps) != ambient:
            raise BadParameterError(
                f"exponent vector of length {len(exps)} does not fit ambient {ambient}"
            )
        if exps:  # derived monomials too: an lcm of two valid ones can pass MAX_DEGREE
            if min(exps) < 0:
                raise BadParameterError(f"negative exponent in {exps}")
            if max(exps) >= MAX_EXPONENT:
                raise ExponentOverflowError(f"exponent exceeds {MAX_EXPONENT - 1}")
            if sum(exps) >= MAX_DEGREE:
                raise ExponentOverflowError(f"degree exceeds {MAX_DEGREE - 1}")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "_hash", hash((ambient, exps)))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def unit(cls, ambient: int) -> "Monomial":
        return cls(_zeros(ambient), ambient)

    @classmethod
    def variable(cls, j: int, ambient: int, power: int = 1) -> "Monomial":
        """The monomial x_j^power inside `ambient` variables (j is 1-indexed)."""
        if not 1 <= j <= ambient:
            raise BadParameterError(f"variable index {j} outside 1..{ambient}")
        exps = _zeros(ambient)
        exps[j - 1] = power
        return cls(exps, ambient)

    @classmethod
    def from_indices(cls, indices: Iterable[int], ambient: int) -> "Monomial":
        """Build a monomial from its (1-indexed) variable index multiset."""
        exps = _zeros(ambient)
        for i in indices:
            if not 1 <= i <= ambient:
                raise BadParameterError(f"index {i} outside 1..{ambient}")
            exps[i - 1] += 1
        return cls(exps, ambient)

    @property
    def indices(self) -> tuple[int, ...]:
        """Sorted index form: variable j repeated exponent-of-j times."""
        out = []
        for j, e in enumerate(self.exponents, start=1):
            out.extend([j] * e)
        return tuple(out)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support(self) -> frozenset[int]:
        """The set of (1-indexed) variables dividing the monomial."""
        return frozenset(j for j, e in enumerate(self.exponents, start=1) if e)

    @property
    def is_unit(self) -> bool:
        return not any(self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def _check_ambient(self, other: "Monomial") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"ambients differ: {self.ambient} vs {other.ambient}"
            )

    def divides(self, other: "Monomial") -> bool:
        self._check_ambient(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_ambient(other)
        return Monomial(
            tuple(map(max, self.exponents, other.exponents)), self.ambient
        )

    def gcd(self, other: "Monomial") -> "Monomial":
        self._check_ambient(other)
        return Monomial(
            tuple(map(min, self.exponents, other.exponents)), self.ambient
        )

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_ambient(other)
        return Monomial(
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
            self.ambient,
        )

    def in_ambient(self, ambient: int) -> "Monomial":
        """The same monomial viewed inside a ring with more variables."""
        if ambient < self.ambient:
            used = max(self.support, default=0)
            if ambient < used:
                raise BadParameterError(
                    f"cannot restrict to ambient {ambient}: variable x_{used} in use"
                )
            return Monomial(self.exponents[:ambient], ambient)
        exps = _zeros(ambient)
        exps[: self.ambient] = self.exponents
        return Monomial(exps, ambient)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Monomial)
            and self.ambient == other.ambient
            and self.exponents == other.exponents
        )

    def __lt__(self, other: "Monomial") -> bool:
        return (self.ambient, self.exponents) < (other.ambient, other.exponents)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for j, e in enumerate(self.exponents, start=1):
            if e == 1:
                parts.append(f"x{j}")
            elif e > 1:
                parts.append(f"x{j}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({list(self.exponents)})"


def minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Drop every monomial strictly divisible by another one in the set.

    The result is the canonical minimal generating set of the ideal the input
    generates: pairwise incomparable, deduplicated, sorted by exponent vector.
    Raises UnitGeneratorError when the unit monomial is present (the unit
    ideal is not supported).
    """
    unique = sorted(set(gens))
    if any(u.is_unit for u in unique):
        raise UnitGeneratorError("the unit monomial generates the unit ideal")
    # a proper divisor sorts first, and a multiple of a dropped monomial is
    # also a multiple of the kept one that dropped it
    kept: list[Monomial] = []
    for u in unique:
        if not any(v.divides(u) for v in kept):
            kept.append(u)
    return tuple(kept)


class MonomialIdeal:
    """A nonzero proper monomial ideal, stored via its minimal generators.

    Generators are minimalized and canonically ordered at construction, so
    two ideals are equal iff their ambient and generator tuples agree.
    """

    __slots__ = ("ambient", "generators", "_hash")

    def __init__(self, ambient: int, generators: Iterable[Monomial]):
        gens = list(generators)
        if not gens:
            raise ZeroIdealError("no generators: the zero ideal is not supported")
        for g in gens:
            if g.ambient != ambient:
                raise AmbientMismatchError(
                    f"generator {g} has ambient {g.ambient}, ideal has {ambient}"
                )
        if ambient < 1:
            raise BadParameterError("ambient must be a positive integer")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", minimalize(gens))
        object.__setattr__(
            self, "_hash", hash((ambient, self.generators))
        )

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    @classmethod
    def from_exponents(
        cls, ambient: int, rows: Iterable[Sequence[int]]
    ) -> "MonomialIdeal":
        return cls(ambient, [Monomial(row, ambient) for row in rows])

    @property
    def deg(self) -> int:
        """Maximal degree of a minimal generator."""
        return max(g.degree for g in self.generators)

    @property
    def lcm_of_generators(self) -> Monomial:
        out = self.generators[0]
        for g in self.generators[1:]:
            out = out.lcm(g)
        return out

    def contains(self, u: Monomial) -> bool:
        """Membership of a monomial: some generator divides it."""
        v = u if u.ambient == self.ambient else u.in_ambient(self.ambient)
        return any(g.divides(v) for g in self.generators)

    def in_ambient(self, ambient: int) -> "MonomialIdeal":
        return MonomialIdeal(ambient, [g.in_ambient(ambient) for g in self.generators])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.ambient == other.ambient
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.ambient}, {self})"


def sigma(u: Monomial) -> Monomial:
    """One application of the squarefree operator.

    Sends x_{i_1} x_{i_2} ... x_{i_d} (sorted indices) to
    x_{i_1} x_{i_2+1} ... x_{i_d+d-1}; the result is squarefree and lives in
    ambient + max(d-1, 0) variables.  The unit maps to itself.
    """
    return sigma_t(u, 1)


def sigma_t(u: Monomial, t: int) -> Monomial:
    """The t-fold iterate of the squarefree operator (closed form).

    The k-th sorted index moves by (k-1)*t, so the image is t-spread.
    t = 0 returns u unchanged.
    """
    if t < 0:
        raise BadParameterError("spreading step t must be >= 0")
    if t == 0:
        return u
    ambient = u.ambient + max(u.degree - 1, 0) * t
    return Monomial.from_indices(_spread_indices(u, t), ambient)


def _spread_indices(u: Monomial, t: int) -> list[int]:
    """Sorted indices of the t-spread of u: the k-th index moves by k*t."""
    return [i + k * t for k, i in enumerate(u.indices)]


def is_t_spread(u: Monomial, t: int) -> bool:
    """True iff consecutive sorted indices differ by at least t."""
    if t < 0:
        raise BadParameterError("t must be >= 0")
    idx = u.indices
    return all(b - a >= t for a, b in zip(idx, idx[1:]))


def spread_ideal(I: MonomialIdeal, t: int, pad: bool = False) -> MonomialIdeal:
    """The ideal generated by the t-spread images of the minimal generators.

    The natural ambient is n + t*(d-1) with d = deg(I).  With pad=True (only
    allowed for t >= n) the result is re-embedded into ambient t*d, the
    indexing under which all spreads with t >= n are literally comparable.

    For t < n the images of incomparable generators can become comparable
    (the 1-spreads of x3 and x1*x2 in three variables are x3 and x1*x3);
    that step is refused with BadParameterError.  It cannot happen for
    t >= n.
    """
    if t < 0:
        raise BadParameterError("spreading step t must be >= 0")
    d = I.deg
    n = I.ambient
    ambient = n + t * (d - 1)
    if pad:
        if t < n:
            raise BadParameterError(f"padded ambient t*d requires t >= n ({t} < {n})")
        ambient = t * d
    images = [Monomial.from_indices(_spread_indices(g, t), ambient) for g in I.generators]
    out = MonomialIdeal(ambient, images)
    if len(out.generators) != len(I.generators):
        raise BadParameterError(
            f"spread images of a minimal generating set are not minimal "
            f"(t={t}, n={n}); got {out} from {I}"
        )
    return out


def polarize(u: Monomial, n: int, d: int) -> Monomial:
    """Polarization of u: each x_j^a becomes x_j x_{j+n} ... x_{j+(a-1)n}.

    n must be the ambient of u, and d >= deg(u) fixes the target ambient n*d
    so that a whole generator set can share one target ring.  The result is
    squarefree of the same degree.
    """
    if u.ambient != n:
        raise AmbientMismatchError(f"monomial has ambient {u.ambient}, not {n}")
    if u.degree > d:
        raise DegreeBoundError(f"deg {u.degree} exceeds bound {d}")
    exps = _zeros(n * d)
    for j, a in enumerate(u.exponents):
        exps[j : j + a * n : n] = [1] * a  # x_{j+1} x_{j+1+n} ... x_{j+1+(a-1)n}
    return Monomial(exps, n * d)


def polarize_ideal(I: MonomialIdeal) -> MonomialIdeal:
    """Polarization of the ideal, in ambient n*deg(I)."""
    d = I.deg
    images = [polarize(g, I.ambient, d) for g in I.generators]
    out = MonomialIdeal(I.ambient * d, images)
    if len(out.generators) != len(I.generators):
        raise InvariantViolation("polarization broke minimality")  # impossible
    return out


@dataclass(frozen=True)
class SpreadEmbedding:
    """The variable re-embedding x_j -> x_{phi(j)} of T_{n*d} into T_{t*d}.

    phi(j) = floor((j-1)/n)*(t-n) + j, strictly increasing, and carries the
    n-spread of an ideal onto its t-spread for every t >= n.
    """

    n: int
    t: int
    d: int

    def phi(self, j: int) -> int:
        if not 1 <= j <= self.n * self.d:
            raise BadParameterError(f"index {j} outside 1..{self.n * self.d}")
        return (j - 1) // self.n * (self.t - self.n) + j

    @property
    def table(self) -> tuple[int, ...]:
        return tuple(self.phi(j) for j in range(1, self.n * self.d + 1))


def embed_spread(I: MonomialIdeal, t: int) -> tuple[MonomialIdeal, SpreadEmbedding]:
    """Obtain the t-spread of I from its n-spread by re-embedding variables.

    Only meaningful for t >= n.  The result equals the directly computed
    t-spread in the padded ambient t*d; test_images_are_t_spread_random
    compares the two on seeded ideals.
    """
    n = I.ambient
    if t < n:
        raise BadParameterError(f"embedding requires t >= n ({t} < {n})")
    d = I.deg
    emb = SpreadEmbedding(n=n, t=t, d=d)
    images = [  # phi applied to the n-spread, whose natural ambient is n*d
        Monomial.from_indices([emb.phi(i) for i in _spread_indices(g, n)], t * d)
        for g in I.generators
    ]
    return MonomialIdeal(t * d, images), emb


def is_complete_intersection(I: MonomialIdeal) -> bool:
    """True iff all distinct generator pairs are coprime (disjoint supports)."""
    return all(
        u.gcd(v).is_unit for u, v in itertools.combinations(I.generators, 2)
    )
