"""Exact scalar arithmetic: rationals and the real quadratic field Q(sqrt(d)).

Rationals are stdlib ``fractions.Fraction`` (arbitrary precision, canonical
``p/q`` form). ``QuadraticScalar`` adjoins a single square root: values
``x + y*sqrt(d)`` with rational ``x, y`` and squarefree ``d >= 1``.  One
radicand per computation suffices because all irrationality enters through
the one eigenvalue ``sqrt(lambda(v))``.

A ``QuadraticScalar`` is stored over a common denominator as the integer
triple ``(a, b, c)`` with ``x = a/c`` and ``y = b/c``, kept canonical:
``c > 0``, ``gcd(a, b, c) == 1``, and ``b == 0`` exactly when ``d == 1``.
Arithmetic works on the triples with integer products and one gcd per
result. An int or Fraction operand is read in place as the integer parts
``(num, 0, den, 1)`` and never wrapped in a QuadraticScalar. Fractions are
built only at the API edge (``x``, ``y``, ``rational_value``, ``repr``,
``str``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

EXACT_DEFAULT_LIMIT = 12  # exact arithmetic is the default up to this n
DEFAULT_TOL = 1e-9  # float-mode tolerance, relative to the structure's max entry

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
    """An element ``(a + b*sqrt(d)) / c`` of Q(sqrt(d)), held as four ints.

    The triple is canonical: ``c > 0``, ``gcd(a, b, c) == 1``, and
    ``b == 0`` exactly when ``d == 1`` (for ``d == 1`` the irrational part
    folds into ``a``), so equality compares the triples and the radicand.
    ``d`` is squarefree and >= 1. ``x = a/c`` and ``y = b/c`` are built as
    Fractions only when asked for. Ordering and signs are decided by exact
    integer comparisons, never floating point.
    """

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(self, x: RationalLike, y: RationalLike = 0, d: int = 1) -> None:
        x, y = Fraction(x), Fraction(y)
        if d < 1:
            raise ValueError(f"radicand must be >= 1, got {d}")
        if d == 1:
            x, y = x + y, Fraction(0)
        # over the least common denominator gcd(a, b, c) is already 1
        c = math.lcm(x.denominator, y.denominator)
        a, b = x.numerator * (c // x.denominator), y.numerator * (c // y.denominator)
        self._a, self._b, self._c, self._d = a, b, c, d if b else 1

    @property
    def x(self) -> Fraction:
        return Fraction(self._a, self._c)

    @property
    def y(self) -> Fraction:
        return Fraction(self._b, self._c)

    @property
    def d(self) -> int:
        return self._d

    @classmethod
    def sqrt_of(cls, q: RationalLike) -> "QuadraticScalar":
        r, d = sqrt_decompose(q)
        # r is in lowest terms, so the triple is canonical as it stands
        if d == 1:
            return _reduced(r.numerator, 0, r.denominator, 1)
        return _reduced(0, r.numerator, r.denominator, d)

    @property
    def is_rational(self) -> bool:
        return not self._b

    @property
    def rational_value(self) -> Fraction:
        if self._b:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._a, self._c)

    def _parts(self, other: object) -> "tuple[int, int, int, int] | None":
        """``other`` as integer parts ``(a, b, c, d)`` in this value's field, or None."""
        if isinstance(other, QuadraticScalar):
            if self._b and other._b and other._d != self._d:
                raise ValueError(f"mixed radicands sqrt({self._d}) and sqrt({other._d})")
            return other._a, other._b, other._c, other._d
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, 1
        if isinstance(other, int):
            return other, 0, 1, 1
        return None

    def __add__(self, other: object) -> "QuadraticScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, c, d = o
        a1, b1, c1 = self._a, self._b, self._c
        return _reduced(a1 * c + a * c1, b1 * c + b * c1, c1 * c, self._d if b1 else d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadraticScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, c, d = o
        a1, b1, c1 = self._a, self._b, self._c
        return _reduced(a1 * c - a * c1, b1 * c - b * c1, c1 * c, self._d if b1 else d)

    def __rsub__(self, other: object) -> "QuadraticScalar":
        return (-self) + other

    def __neg__(self) -> "QuadraticScalar":
        return _reduced(-self._a, -self._b, self._c, self._d)

    def __mul__(self, other: object) -> "QuadraticScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a2, b2, c2, d2 = o
        a1, b1 = self._a, self._b
        d = self._d if b1 else d2
        return _reduced(a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2, self._c * c2, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticScalar":
        # c / (a + b*sqrt(d)) = c*(a - b*sqrt(d)) / (a^2 - d*b^2)
        a, b, c = self._a, self._b, self._c
        norm = a * a - self._d * b * b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        if norm < 0:  # the sign moves into the numerator: the denominator stays > 0
            c, norm = -c, -norm
        return _reduced(c * a, -c * b, norm, self._d)

    def __truediv__(self, other: object) -> "QuadraticScalar":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self * _reduced(*o).inverse()

    def __rtruediv__(self, other: object) -> "QuadraticScalar":
        if self._parts(other) is None:
            return NotImplemented
        return self.inverse() * other

    def sign(self) -> int:
        """Exact sign of ``(a + b*sqrt(d)) / c`` in {-1, 0, 1}; ``c > 0`` drops out."""
        a, b = self._a, self._b
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite strict signs: compare a^2 against d*b^2
        a2, db2 = a * a, self._d * b * b
        square_cmp = (a2 > db2) - (a2 < db2)
        return square_cmp if a > 0 else -square_cmp

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __abs__(self) -> "QuadraticScalar":
        return self if self.sign() >= 0 else -self

    def __eq__(self, other: object) -> bool:
        # canonical triples: equal values have equal (a, b, c, d)
        if isinstance(other, QuadraticScalar):
            return (self._a, self._b, self._c, self._d) == (other._a, other._b, other._c, other._d)
        if isinstance(other, int):
            return not self._b and self._c == 1 and self._a == other
        if isinstance(other, Fraction):
            return not self._b and self._a == other.numerator and self._c == other.denominator
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if self._parts(other) is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other: object) -> bool:
        if self._parts(other) is None:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other: object) -> bool:
        if self._parts(other) is None:
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other: object) -> bool:
        if self._parts(other) is None:
            return NotImplemented
        return (self - other).sign() >= 0

    def __hash__(self) -> int:
        if not self._b:
            return hash(Fraction(self._a, self._c))
        return hash((self.x, self.y, self._d))

    def __float__(self) -> float:
        # a / c is float(Fraction(a, c)): int true division rounds correctly
        return self._a / self._c + self._b / self._c * math.sqrt(self._d)

    def __repr__(self) -> str:
        return f"QuadraticScalar({self.x!r}, {self.y!r}, d={self._d})"

    def __str__(self) -> str:
        return format_exact(self)


def _reduced(a: int, b: int, c: int, d: int) -> QuadraticScalar:
    """``(a + b*sqrt(d)) / c`` for ``c > 0`` in canonical form: every arithmetic result."""
    g = math.gcd(a, b, c)
    if g != 1:
        a, b, c = a // g, b // g, c // g
    out = object.__new__(QuadraticScalar)
    out._a, out._b, out._c, out._d = a, b, c, d if b else 1
    return out


def magnitude_key(value: "ScalarLike | float") -> "ScalarLike | float":
    """A key ordered like ``|value|``: a float by its absolute value, an
    exact value by its square, which for ``(a + b*sqrt(d)) / c`` with
    ``a*b == 0`` is the Fraction ``(a^2 + d*b^2) / c^2``."""
    if isinstance(value, QuadraticScalar) and not (value._a and value._b):
        return Fraction(value._a ** 2 + value._d * value._b ** 2, value._c ** 2)
    return abs(value) if isinstance(value, float) else value * value


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
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown scalar mode {self.kind!r}")
        # at tol >= 1 a zero image passes against a unit target; NaN fails this test too
        if self.kind == "float" and not 0 < self.tol < 1:
            raise ValueError(f"float mode needs a tolerance in (0, 1), got {self.tol}")

    @classmethod
    def exact(cls) -> "ScalarMode":
        return cls("exact")

    @classmethod
    def floating(cls, tol: float = DEFAULT_TOL) -> "ScalarMode":
        return cls("float", tol)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def convert(self, q: RationalLike) -> "Fraction | float":
        if not self.is_exact:
            return float(q)
        return q if isinstance(q, Fraction) else Fraction(q)

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


@functools.lru_cache(maxsize=64)
def shared_sqrt(mode: ScalarMode, q: RationalLike) -> "QuadraticScalar | float":
    """``mode.sqrt(q)``, one object for each of the last 64 ``(mode, q)``
    asked for. Both kinds of value are immutable, so callers may share
    them: witness reports under equal weights hold one ``ratio`` and one
    ``bound_lhs`` between them."""
    return mode.sqrt(q)


def resolve_mode(n: int, mode: ScalarMode | None) -> ScalarMode:
    """The mode given, or by default exact up to ``EXACT_DEFAULT_LIMIT``
    and float beyond it."""
    if mode is not None:
        return mode
    return ScalarMode.exact() if n <= EXACT_DEFAULT_LIMIT else ScalarMode.floating()
