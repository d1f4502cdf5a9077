"""Multivectors over the dual basis and the degree-mixing operator A.

A basis form ``e*_S = e*_{i_1} ^ ... ^ e*_{i_k}`` (indices ascending) is
indexed by the cube vertex whose bits are S. Two antiderivations act on
coefficients: the interior product by a vector ``v`` lowers degree, the
wedge by a covector ``lambda`` raises it. Their sum ``A`` squares to the
scalar ``lambda(v)``, which is the whole engine of the degree bound.

Signs come from the defining formulas term by term: removing or inserting
a factor at 1-based position ``p`` inside the ascending wedge costs
``(-1)**(p-1)`` transpositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

from .cube import check_dimension, iter_bits
from .scalars import PositivityError, QuadraticScalar, ScalarMode

Scalar = Union[int, Fraction, QuadraticScalar, float]


class Multivector:
    """A sparse element of the exterior algebra: cube vertex -> coefficient."""

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, Scalar]) -> None:
        check_dimension(n)
        size = 1 << n
        store: Dict[int, Scalar] = {}
        for mask, c in coeffs.items():
            if not 0 <= mask < size:
                raise ValueError(f"basis index {mask} out of range for n={n}")
            if c != 0:
                store[mask] = c
        self.n = n
        self._coeffs = store

    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls(n, {})

    @classmethod
    def basis(cls, n: int, mask: int) -> "Multivector":
        return cls(n, {mask: Fraction(1)})

    @classmethod
    def from_dense(cls, n: int, values: Sequence[Scalar]) -> "Multivector":
        if len(values) != 1 << n:
            raise ValueError(f"dense coefficient vector must have length {1 << n}")
        return cls(n, dict(enumerate(values)))

    def to_dense(self) -> list:
        out: list = [0] * (1 << self.n)
        for mask, c in self._coeffs.items():
            out[mask] = c
        return out

    def coefficient(self, mask: int) -> Scalar:
        return self._coeffs.get(mask, 0)

    def items(self) -> list:
        return sorted(self._coeffs.items())

    def support(self) -> list:
        return sorted(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degrees(self) -> set:
        return {mask.bit_count() for mask in self._coeffs}

    def degree_component(self, k: int) -> "Multivector":
        return Multivector(
            self.n, {m: c for m, c in self._coeffs.items() if m.bit_count() == k}
        )

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_same(other)
        out = dict(self._coeffs)
        for mask, c in other._coeffs.items():
            _accumulate(out, mask, c)
        return Multivector(self.n, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.n, {m: -c for m, c in self._coeffs.items()})

    def scaled(self, factor: Scalar) -> "Multivector":
        return Multivector(self.n, {m: factor * c for m, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.items())))

    def sup_norm_float(self) -> float:
        return max((abs(float(c)) for c in self._coeffs.values()), default=0.0)

    def __repr__(self) -> str:
        terms = ", ".join(f"{m:0{self.n}b}: {c}" for m, c in self.items())
        return f"Multivector(n={self.n}, {{{terms}}})"

    def _check_same(self, other: "Multivector") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")


def _accumulate(store: Dict[int, Scalar], mask: int, value: Scalar) -> None:
    if mask in store:
        store[mask] = store[mask] + value
    else:
        store[mask] = value


def _check_coords(coords: Sequence[Scalar], omega: Multivector) -> None:
    if len(coords) != omega.n:
        raise ValueError(
            f"coordinate vector of length {len(coords)} does not match n={omega.n}"
        )


def interior_product(v: Sequence[Scalar], omega: Multivector) -> Multivector:
    """Contract a vector into the first slot: on a basis form,
    ``i_v e*_S = sum_{l in S} (-1)^(pos(l,S)-1) v_l e*_(S minus l)``."""
    _check_coords(v, omega)
    out: Dict[int, Scalar] = {}
    for mask, c in omega.items():
        for pos, b in enumerate(iter_bits(mask)):
            term = v[b] * c
            _accumulate(out, mask ^ (1 << b), -term if pos % 2 else term)
    return Multivector(omega.n, out)


def wedge_lambda(lam: Sequence[Scalar], omega: Multivector) -> Multivector:
    """Left-wedge by a covector: on a basis form,
    ``lambda ^ e*_S = sum_{k not in S} (-1)^#{i in S : i < k} lambda_k e*_(S plus k)``."""
    _check_coords(lam, omega)
    out: Dict[int, Scalar] = {}
    for mask, c in omega.items():
        transpositions = 0
        for b in range(omega.n):
            if mask & (1 << b):
                transpositions += 1
                continue
            term = lam[b] * c
            _accumulate(out, mask | (1 << b), -term if transpositions % 2 else term)
    return Multivector(omega.n, out)


def wedge(alpha: Multivector, beta: Multivector) -> Multivector:
    """Exterior product of two multivectors (bitmask disjointness plus
    transposition parity); provided for the derivation-law checks."""
    alpha._check_same(beta)
    out: Dict[int, Scalar] = {}
    for s, cs in alpha.items():
        for t, ct in beta.items():
            if s & t:
                continue
            inversions = sum((s >> (j + 1)).bit_count() for j in iter_bits(t))
            term = cs * ct
            _accumulate(out, s | t, -term if inversions % 2 else term)
    return Multivector(alpha.n, out)


@dataclass(frozen=True)
class WeightConfig:
    """The vector v and covector lambda defining A, with their pairing.

    Coordinates are exact rationals; the pairing ``lambda(v)`` must be
    positive so the eigenvalues ``+-sqrt(lambda(v))`` stay real.
    """

    n: int
    lam: Tuple[Fraction, ...]
    v: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_dimension(self.n)
        if len(self.lam) != self.n or len(self.v) != self.n:
            raise ValueError(f"need exactly {self.n} coordinates for lambda and v")
        object.__setattr__(self, "lam", tuple(Fraction(a) for a in self.lam))
        object.__setattr__(self, "v", tuple(Fraction(b) for b in self.v))
        if self.pairing <= 0:
            raise PositivityError(
                f"pairing lambda(v) = {self.pairing} must be positive"
            )

    @classmethod
    def uniform(cls, n: int, a: Fraction | int = 1, b: Fraction | int = 1) -> "WeightConfig":
        a, b = Fraction(a), Fraction(b)
        return cls(n, (a,) * n, (b,) * n)

    @classmethod
    def from_ratio(cls, n: int, ratio: Fraction | int) -> "WeightConfig":
        """Uniform weights a = C, b = 1/C, so the pairing is exactly n."""
        ratio = Fraction(ratio)
        if ratio <= 0:
            raise PositivityError(f"weight ratio must be positive, got {ratio}")
        return cls.uniform(n, ratio, 1 / ratio)

    @property
    def pairing(self) -> Fraction:
        return sum((a * b for a, b in zip(self.lam, self.v)), Fraction(0))

    def eigenvalue(self, mode: ScalarMode | None = None) -> "QuadraticScalar | float":
        """The positive eigenvalue ``sqrt(lambda(v))`` in the requested mode."""
        mode = mode or ScalarMode.exact()
        return mode.sqrt(self.pairing)

    @property
    def sup_lam(self) -> Fraction:
        return max(abs(a) for a in self.lam)

    @property
    def sup_v(self) -> Fraction:
        return max(abs(b) for b in self.v)

    @property
    def is_uniform(self) -> bool:
        return len(set(self.lam)) == 1 and len(set(self.v)) == 1

    def lam_in(self, mode: ScalarMode) -> tuple:
        return tuple(mode.convert(a) for a in self.lam)

    def v_in(self, mode: ScalarMode) -> tuple:
        return tuple(mode.convert(b) for b in self.v)


def apply_A(
    w: WeightConfig, omega: Multivector, mode: ScalarMode | None = None
) -> Multivector:
    """Apply ``A = i_v + lambda^`` coordinate-wise; the output support lies in
    the cube neighborhood of the input support. Given a ``mode``, the
    weights are converted into it once up front (in float mode each product
    is then the one ``Fraction * float`` would give, computed natively)."""
    if w.n != omega.n:
        raise ValueError(f"dimension mismatch: {w.n} vs {omega.n}")
    v, lam = (w.v, w.lam) if mode is None else (w.v_in(mode), w.lam_in(mode))
    return interior_product(v, omega) + wedge_lambda(lam, omega)
