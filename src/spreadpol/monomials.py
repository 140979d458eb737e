"""Monomials, monomial ideals, the spreading operator and polarization.

Monomials are exponent vectors over a fixed ambient variable count n; the
variables are 1-indexed everywhere (x_1, ..., x_n).  A monomial of degree d
can equivalently be written through its sorted index form
x_{i_1} x_{i_2} ... x_{i_d} with i_1 <= ... <= i_d, variable j repeated as
often as its exponent; both views round-trip.

The spreading operator sends x_{i_1}...x_{i_d} to x_{i_1} x_{i_2+t} ...
x_{i_d+(d-1)t} (the t-fold iterate of the squarefree operator), and
polarization replaces each x_j^a by the product x_j x_{j+n} ... x_{j+(a-1)n}.

Monomials are validated once, at the input edge: Monomial(...) and
Monomial.from_indices check every exponent, so user input (the CLI parser
builds its rows through them) never escapes the caps.  The spread,
polarization and embedding images are then built unchecked from their
index sets (_image): an image of a valid monomial is valid by construction,
so checking it again would only repeat work that cannot fail.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatchError,
    BadParameterError,
    DegreeBoundError,
    ExponentOverflowError,
    TooLargeError,
    UnitGeneratorError,
    ZeroIdealError,
)

# Desk-scale guards: single exponents fit 16 bits, total degrees 32 bits,
# and a dense exponent vector has at most about a million entries.
MAX_EXPONENT = 1 << 16
MAX_DEGREE = 1 << 31
MAX_AMBIENT = 1 << 20


def _check_ambient_cap(ambient: int) -> None:
    """Refuse an ambient whose dense exponent vectors pass MAX_AMBIENT entries."""
    if ambient > MAX_AMBIENT:
        raise TooLargeError(f"ambient {ambient} exceeds {MAX_AMBIENT} variables")


def _integer(value: int, what: str) -> int:
    """An int parameter read through operator.index, as exponents are: 2.0
    or "2" raises BadParameterError, never compared or truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParameterError(f"non-integer {what} {value!r}") from None


def _zeros(ambient: int) -> list[int]:
    """The zero exponent vector of length `ambient`, refused above MAX_AMBIENT."""
    _check_ambient_cap(ambient)
    return [0] * ambient


@functools.total_ordering
class Monomial:
    """An immutable monomial in the polynomial ring with `ambient` variables."""

    __slots__ = ("ambient", "exponents", "_hash")

    def __init__(self, exponents: Sequence[int], ambient: int | None = None):
        try:
            exps = tuple(map(operator.index, exponents))
        except TypeError:  # e.g. 2.5, "3", nan or None: never truncated or parsed
            raise BadParameterError(f"non-integer exponent in {exponents!r}") from None
        ambient = len(exps) if ambient is None else _integer(ambient, "ambient")
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
    def _trusted(cls, exps: tuple[int, ...], ambient: int) -> "Monomial":
        """The monomial of an int tuple known to pass the checks of __init__,
        e.g. one dividing a monomial that passed them, or a derived image
        (_image).  The rule: validate at the input edge, build what is
        derived from valid monomials trusted, and check a derived monomial
        only where a cap can fail (an lcm or product can pass MAX_DEGREE)."""
        u = object.__new__(cls)
        _set_ambient(u, ambient)
        _set_exponents(u, exps)
        _set_hash(u, hash((ambient, exps)))
        return u

    @classmethod
    def unit(cls, ambient: int) -> "Monomial":
        ambient = _integer(ambient, "ambient")
        return cls(_zeros(ambient), ambient)

    @classmethod
    def variable(cls, j: int, ambient: int, power: int = 1) -> "Monomial":
        """The monomial x_j^power inside `ambient` variables (j is 1-indexed)."""
        j, ambient = _integer(j, "variable index"), _integer(ambient, "ambient")
        if not 1 <= j <= ambient:
            raise BadParameterError(f"variable index {j} outside 1..{ambient}")
        exps = _zeros(ambient)
        exps[j - 1] = power
        return cls(exps, ambient)

    @classmethod
    def from_indices(cls, indices: Iterable[int], ambient: int) -> "Monomial":
        """Build a monomial from its (1-indexed) variable index multiset."""
        ambient = _integer(ambient, "ambient")
        exps = _zeros(ambient)
        try:  # as in __init__: a non-integer is never truncated or parsed
            indices = list(map(operator.index, indices))
        except TypeError:
            raise BadParameterError(f"non-integer index in {indices!r}") from None
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
        self._check_ambient(other)  # each exponent is at most an operand's
        return Monomial._trusted(
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
        ambient = _integer(ambient, "ambient")
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


# the slot descriptors' setters, bound once: Monomial.__setattr__ refuses writes
_set_ambient = Monomial.ambient.__set__
_set_exponents = Monomial.exponents.__set__
_set_hash = Monomial._hash.__set__


def _image(indices: Iterable[int], ambient: int) -> Monomial:
    """The monomial of a variable index multiset derived from a valid
    monomial (its spread, polarization or embedded spread), built unchecked.

    Only the ambient cap is checked (by _zeros), and no skipped check can
    fail: the indices lie in 1..ambient by construction; the exponents are
    0 and 1, or the source's own when the map is the identity (t = 0); and
    the degree is the source's, while a squarefree degree is at most
    MAX_AMBIENT, which is below MAX_DEGREE.
    """
    exps = _zeros(ambient)
    for i in indices:
        exps[i - 1] += 1
    return Monomial._trusted(tuple(exps), ambient)


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
        ambient = _integer(ambient, "ambient")
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
    def _from_minimal(cls, ambient: int, generators: Iterable[Monomial]) -> "MonomialIdeal":
        """The ideal of a nonempty antichain of non-units in `ambient`, known
        to be one (e.g. the images of minimal generators under a map that
        keeps divisibility both ways); only sorted, not minimalized."""
        I = object.__new__(cls)
        gens = tuple(sorted(generators))
        object.__setattr__(I, "ambient", ambient)
        object.__setattr__(I, "generators", gens)
        object.__setattr__(I, "_hash", hash((ambient, gens)))
        return I

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
    t = _integer(t, "spreading step t")
    if t < 0:
        raise BadParameterError("spreading step t must be >= 0")
    if t == 0:
        return u
    ambient = u.ambient + max(u.degree - 1, 0) * t
    return _image(_spread_indices(u, t), ambient)


def _spread_indices(u: Monomial, t: int) -> list[int]:
    """Sorted indices of the t-spread of u: the k-th index moves by k*t."""
    return [i + k * t for k, i in enumerate(u.indices)]


def is_t_spread(u: Monomial, t: int) -> bool:
    """True iff consecutive sorted indices differ by at least t."""
    t = _integer(t, "t")
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
    t >= n: the k-th index of an image lies in its own block of t variables,
    so one image divides another only when the first source's sorted indices
    are a prefix of the second's, i.e. when the first source divides the
    second.  There the images are taken as minimal without a check.  The
    blocks also keep the order: exponent vectors compare as their sorted
    indices do at the first position where these differ (the smaller index,
    or the only one present, marks the larger vector), and block by block
    two images meet the same first difference as their sources.  So for
    t >= n generator k of the result is the image of generator k of I.
    """
    t = _integer(t, "spreading step t")
    if t < 0:
        raise BadParameterError("spreading step t must be >= 0")
    d = I.deg
    n = I.ambient
    ambient = n + t * (d - 1)
    if pad:
        if t < n:
            raise BadParameterError(f"padded ambient t*d requires t >= n ({t} < {n})")
        ambient = t * d
    images = [_image(_spread_indices(g, t), ambient) for g in I.generators]
    if t >= n:
        return MonomialIdeal._from_minimal(ambient, images)
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
    n, d = _integer(n, "n"), _integer(d, "d")
    if u.ambient != n:
        raise AmbientMismatchError(f"monomial has ambient {u.ambient}, not {n}")
    if u.degree > d:
        raise DegreeBoundError(f"deg {u.degree} exceeds bound {d}")
    return _image(_polar_indices(u, n), n * d)


def _polar_indices(u: Monomial, n: int) -> list[int]:
    """The variable indices of the polarization of u in n variables, each
    once: x_j^a gives j, j + n, ..., j + (a-1)*n."""
    return [j + k * n for j, a in enumerate(u.exponents, 1) for k in range(a)]


def polarize_ideal(I: MonomialIdeal) -> MonomialIdeal:
    """Polarization of the ideal, in ambient n*deg(I)."""
    n, d = I.ambient, I.deg  # every generator lies in T_n with degree at most d
    images = [_image(_polar_indices(g, n), n * d) for g in I.generators]
    return MonomialIdeal._from_minimal(n * d, images)  # u | v iff pol(u) | pol(v)


@dataclass(frozen=True, init=False)
class SpreadEmbedding:
    """The variable re-embedding x_j -> x_{phi(j)} of T_{n*d} into T_{t*d}.

    phi(j) = floor((j-1)/n)*(t-n) + j, strictly increasing, and carries the
    n-spread of an ideal onto its t-spread for every t >= n.  The
    constructor reads n, t and d through _integer, as phi reads j.
    """

    n: int
    t: int
    d: int

    def __init__(self, n: int, t: int, d: int):
        vars(self).update(n=_integer(n, "n"), t=_integer(t, "t"), d=_integer(d, "d"))

    def phi(self, j: int) -> int:
        j = _integer(j, "index")
        if not 1 <= j <= self.n * self.d:
            raise BadParameterError(f"index {j} outside 1..{self.n * self.d}")
        return (j - 1) // self.n * (self.t - self.n) + j

    @property
    def table(self) -> tuple[int, ...]:
        return tuple(self.phi(j) for j in range(1, self.n * self.d + 1))


def embed_spread(I: MonomialIdeal, t: int) -> tuple[MonomialIdeal, SpreadEmbedding]:
    """Obtain the t-spread of I from its n-spread by re-embedding variables.

    Only meaningful for t >= n.  phi sends the k-th sorted index
    i_k + (k-1)*n of an n-spread image, with 1 <= i_k <= n, to
    i_k + (k-1)*t, the k-th index of the t-spread image: so the image is
    the t-spread in the padded ambient t*d, returned as such.  Tests compare
    it with phi applied to the n-spread index by index.
    """
    n, t = I.ambient, _integer(t, "spreading step t")
    if t < n:
        raise BadParameterError(f"embedding requires t >= n ({t} < {n})")
    return spread_ideal(I, t, pad=True), SpreadEmbedding(n=n, t=t, d=I.deg)


def is_complete_intersection(I: MonomialIdeal) -> bool:
    """True iff all distinct generator pairs are coprime (disjoint supports)."""
    return not any(
        any(map(min, u.exponents, v.exponents))
        for u, v in itertools.combinations(I.generators, 2)
    )
