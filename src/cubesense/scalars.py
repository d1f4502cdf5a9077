"""Exact scalar arithmetic: rationals and the real quadratic field Q(sqrt(d)).

Rationals are stdlib ``fractions.Fraction`` (arbitrary precision, canonical
``p/q`` form). ``QuadraticScalar`` adjoins a single square root: values
``x + y*sqrt(d)`` with rational ``x, y`` and squarefree ``d >= 1``.  One
radicand per computation suffices because all irrationality enters through
the one eigenvalue ``sqrt(lambda(v))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QuadraticScalar"]


class PositivityError(ValueError):
    """Raised when a quantity that must be positive is zero or negative.

    Covers radicands of square roots and the pairing lambda(v): a
    non-positive pairing would force complex eigenvalues, which this
    toolkit rejects by contract.
    """


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, integer, or decimal literals into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_rational(q: RationalLike) -> str:
    return str(Fraction(q))


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write ``m = r*r * d`` with ``d`` squarefree, for ``m >= 1``.

    Trial division by 2 and odd candidates; the loop runs while the
    candidate squared is at most the remaining cofactor, so the final
    cofactor is 1 or prime and therefore squarefree.
    """
    if m < 1:
        raise PositivityError(f"squarefree decomposition needs m >= 1, got {m}")
    r, d = 1, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            r *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= m
    return r, d


def is_squarefree(d: int) -> bool:
    return d >= 1 and squarefree_decompose(d)[0] == 1


def sqrt_decompose(q: RationalLike) -> tuple[Fraction, int]:
    """Express ``sqrt(q) = r * sqrt(d)`` exactly, with ``d`` squarefree.

    Requires ``q > 0``: a non-positive radicand signals the complex regime
    this toolkit refuses to enter.
    """
    q = Fraction(q)
    if q <= 0:
        raise PositivityError(f"cannot take a real square root of {q}")
    # sqrt(p/s) = sqrt(p*s)/s
    m = q.numerator * q.denominator
    r0, d = squarefree_decompose(m)
    return Fraction(r0, q.denominator), d


class QuadraticScalar:
    """An element ``x + y*sqrt(d)`` of Q(sqrt(d)).

    ``d`` is squarefree and >= 1; for ``d == 1`` the irrational part is
    folded into ``x`` so the representation is unique and equality is
    componentwise. Ordering and signs are decided by exact rational
    comparisons, never floating point.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, x: RationalLike, y: RationalLike = 0, d: int = 1) -> None:
        x, y = Fraction(x), Fraction(y)
        if d < 1:
            raise ValueError(f"radicand must be >= 1, got {d}")
        if d == 1:
            x, y = x + y, Fraction(0)
        elif y == 0:
            d = 1
        self._x, self._y, self._d = x, y, d

    @property
    def x(self) -> Fraction:
        return self._x

    @property
    def y(self) -> Fraction:
        return self._y

    @property
    def d(self) -> int:
        return self._d

    @classmethod
    def sqrt_of(cls, q: RationalLike) -> "QuadraticScalar":
        r, d = sqrt_decompose(q)
        return cls(0, r, d)

    @property
    def is_rational(self) -> bool:
        return self._y == 0

    @property
    def rational_value(self) -> Fraction:
        if self._y != 0:
            raise ValueError(f"{self} is irrational")
        return self._x

    def _coerce(self, other: object) -> "QuadraticScalar | None":
        """Bring ``other`` into this value's field, or None if impossible."""
        if isinstance(other, QuadraticScalar):
            if other._d == self._d or other._y == 0:
                return other
            if self._y == 0:
                return other  # we are rational; adopt the other radicand
            raise ValueError(f"mixed radicands sqrt({self._d}) and sqrt({other._d})")
        if isinstance(other, (int, Fraction)):
            return QuadraticScalar(other)
        return None

    def _parts(self, other: "QuadraticScalar") -> tuple[Fraction, Fraction, int]:
        d = self._d if self._y != 0 else other._d
        return other._x, other._y, d

    def __add__(self, other: object) -> "QuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ox, oy, d = self._parts(o)
        return QuadraticScalar(self._x + ox, self._y + oy, d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ox, oy, d = self._parts(o)
        return QuadraticScalar(self._x - ox, self._y - oy, d)

    def __rsub__(self, other: object) -> "QuadraticScalar":
        return (-self) + other

    def __neg__(self) -> "QuadraticScalar":
        return QuadraticScalar(-self._x, -self._y, self._d)

    def __mul__(self, other: object) -> "QuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ox, oy, d = self._parts(o)
        return QuadraticScalar(
            self._x * ox + d * self._y * oy,
            self._x * oy + self._y * ox,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticScalar":
        # (x + y*sqrt(d))^-1 = (x - y*sqrt(d)) / (x^2 - d*y^2)
        norm = self._x * self._x - self._d * self._y * self._y
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadraticScalar(self._x / norm, -self._y / norm, self._d)

    def __truediv__(self, other: object) -> "QuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ox, oy, d = self._parts(o)
        return self * QuadraticScalar(ox, oy, d).inverse()

    def __rtruediv__(self, other: object) -> "QuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "QuadraticScalar":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = QuadraticScalar(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def sign(self) -> int:
        """Exact sign of ``x + y*sqrt(d)`` in {-1, 0, 1} by rational comparison."""
        x, y = self._x, self._y
        if y == 0:
            return (x > 0) - (x < 0)
        if x == 0:
            return 1 if y > 0 else -1
        if x > 0 and y > 0:
            return 1
        if x < 0 and y < 0:
            return -1
        # opposite strict signs: compare x^2 against d*y^2
        square_cmp = (x * x > self._d * y * y) - (x * x < self._d * y * y)
        return square_cmp if x > 0 else -square_cmp

    def __bool__(self) -> bool:
        return self._x != 0 or self._y != 0

    def __abs__(self) -> "QuadraticScalar":
        return self if self.sign() >= 0 else -self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, float):
            return NotImplemented
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        ox, oy, _ = self._parts(o)
        return self._x == ox and self._y == oy

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __hash__(self) -> int:
        if self._y == 0:
            return hash(self._x)
        return hash((self._x, self._y, self._d))

    def __float__(self) -> float:
        return float(self._x) + float(self._y) * math.sqrt(self._d)

    def __repr__(self) -> str:
        return f"QuadraticScalar({self._x!r}, {self._y!r}, d={self._d})"

    def __str__(self) -> str:
        return format_exact(self)


def exact_sign(value: ScalarLike) -> int:
    if isinstance(value, QuadraticScalar):
        return value.sign()
    return (value > 0) - (value < 0)


def format_exact(value: ScalarLike) -> str:
    """Canonical exact string: ``<rat>`` or ``<rat>(+|-)<rat>*sqrt(<int>)``."""
    if isinstance(value, QuadraticScalar):
        if value.is_rational:
            return format_rational(value.x)
        sep = "-" if value.y < 0 else "+"
        return f"{format_rational(value.x)}{sep}{format_rational(abs(value.y))}*sqrt({value.d})"
    return format_rational(value)


def format_float(value: float) -> str:
    return format(float(value), ".17g")


@dataclass(frozen=True)
class ScalarMode:
    """Arithmetic regime: exact field arithmetic or binary64 with tolerance."""

    kind: str  # "exact" | "float"
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown scalar mode {self.kind!r}")
        if self.kind == "float" and not self.tol > 0:
            raise ValueError("float mode needs a positive tolerance")

    @classmethod
    def exact(cls) -> "ScalarMode":
        return cls("exact")

    @classmethod
    def floating(cls, tol: float = 1e-9) -> "ScalarMode":
        return cls("float", tol)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def convert(self, q: RationalLike) -> "Fraction | float":
        return Fraction(q) if self.is_exact else float(q)

    def sqrt(self, q: RationalLike) -> "QuadraticScalar | float":
        if self.is_exact:
            return QuadraticScalar.sqrt_of(q)
        q = Fraction(q)
        if q <= 0:
            raise PositivityError(f"cannot take a real square root of {q}")
        return math.sqrt(q)

    def within(self, deviation: float, scale: float) -> bool:
        """Tolerance test: deviation small relative to the structure's max entry."""
        if self.is_exact:
            return deviation == 0
        return abs(deviation) <= self.tol * max(1.0, abs(scale))

    def format(self, value: object) -> str:
        if self.is_exact:
            return format_exact(value)  # type: ignore[arg-type]
        return format_float(value)  # type: ignore[arg-type]

    def json_name(self) -> str:
        return self.kind
