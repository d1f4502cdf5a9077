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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Mapping, Sequence, Tuple, Union

from .cube import check_dimension, iter_bits
from .scalars import PositivityError, QuadraticScalar, ScalarMode, resolve_mode

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
    def basis(cls, n: int, mask: int) -> "Multivector":
        return cls(n, {mask: Fraction(1)})

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


def _antiderivation(coords: Sequence[Scalar], omega: Multivector, removes: bool) -> Multivector:
    """Remove (``i_v``) or insert (``lambda ^``) each factor ``b`` of every
    basis form ``e*_S`` with weight ``coords[b]``; either way the sign is
    ``(-1)^#{i in S : i < b}``. One walk visits the bits it acts on, lowest
    first: the set bits of S, or the clear ones."""
    if len(coords) != omega.n:
        raise ValueError(
            f"coordinate vector of length {len(coords)} does not match n={omega.n}"
        )
    full = (1 << omega.n) - 1
    out: Dict[int, Scalar] = {}
    for mask, c in omega.items():
        acts = mask if removes else full ^ mask
        while acts:
            low = acts & -acts  # 1 << b
            acts ^= low
            term = coords[low.bit_length() - 1] * c
            below = (mask & (low - 1)).bit_count()
            _accumulate(out, mask ^ low, -term if below & 1 else term)
    return Multivector(omega.n, out)


def _antiderivation_array(coords: Sequence[float], x, odd, removes: bool):
    """``_antiderivation`` on a dense float array ``x`` indexed by basis
    form along its last axis. Its sign ``(-1)^#{i in S : i < b}`` depends,
    for one direction b, only on the bits below b, whose parity ``odd``
    holds (``odd[S]`` is the parity of ``|S|``), so x is viewed as (high
    bits, bit b, low bits) and one pass per direction moves every term of
    every row. A target collects its terms in the order the dict walk adds
    them, lowest source form first (ascending b for ``i_v``, descending for
    ``lambda ^``), so both round alike."""
    import numpy as np

    n = x.shape[-1].bit_length() - 1
    src, dst = (1, 0) if removes else (0, 1)
    out = np.zeros(x.shape)
    for b in range(n) if removes else reversed(range(n)):
        half = 1 << b
        signed = np.where(odd[:half], -coords[b], coords[b])
        out.reshape(-1, 2, half)[:, dst] += signed * x.reshape(-1, 2, half)[:, src]
    return out


def interior_product(v: Sequence[Scalar], omega: Multivector) -> Multivector:
    """Contract a vector into the first slot: on a basis form,
    ``i_v e*_S = sum_{l in S} (-1)^(pos(l,S)-1) v_l e*_(S minus l)``."""
    return _antiderivation(v, omega, removes=True)


def wedge_lambda(lam: Sequence[Scalar], omega: Multivector) -> Multivector:
    """Left-wedge by a covector: on a basis form,
    ``lambda ^ e*_S = sum_{k not in S} (-1)^#{i in S : i < k} lambda_k e*_(S plus k)``."""
    return _antiderivation(lam, omega, removes=False)


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

    @cached_property  # in the instance's __dict__, outside repr and ==
    def pairing(self) -> Fraction:
        return sum((a * b for a, b in zip(self.lam, self.v)), Fraction(0))

    def eigenvalue(self, mode: ScalarMode | None = None) -> "QuadraticScalar | float":
        """The positive eigenvalue ``sqrt(lambda(v))`` in the requested mode."""
        return resolve_mode(self.n, mode).sqrt(self.pairing)

    @property
    def sup_lam(self) -> Fraction:
        return max(abs(a) for a in self.lam)

    @property
    def sup_v(self) -> Fraction:
        return max(abs(b) for b in self.v)

    def scaled_to_integers(self) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
        """``(den, den * lambda, den * v)`` as ints, ``den`` the lcm of the
        denominators of every coordinate; ``den^2 lambda(v)`` is then the
        integer pairing of the two scaled tuples."""
        den = math.lcm(*(x.denominator for x in self.lam + self.v))
        lam, v = (tuple(x.numerator * (den // x.denominator) for x in xs)
                  for xs in (self.lam, self.v))
        return den, lam, v

    def lam_in(self, mode: ScalarMode) -> tuple:
        return tuple(mode.convert(a) for a in self.lam)

    def v_in(self, mode: ScalarMode) -> tuple:
        return tuple(mode.convert(b) for b in self.v)


def apply_A(
    w: WeightConfig, omega: Multivector, mode: ScalarMode | None = None
) -> Multivector:
    """Apply ``A = i_v + lambda^`` coordinate-wise; the output support lies in
    the cube neighborhood of the input support. The weights are converted
    into the mode once up front (in float mode each product is then the one
    ``Fraction * float`` would give, computed natively)."""
    if w.n != omega.n:
        raise ValueError(f"dimension mismatch: {w.n} vs {omega.n}")
    mode = resolve_mode(w.n, mode)
    return interior_product(w.v_in(mode), omega) + wedge_lambda(w.lam_in(mode), omega)


def apply_A_array(w: WeightConfig, x, odd):
    """``apply_A`` in float mode on a dense numpy array of the ``2^n``
    coefficients indexed by basis form, or on a stack of such rows; returns
    ``A x`` the same way, each row equal to the dict walk's result bit for
    bit. ``odd`` is the bool array of the parities of ``|S|`` for every
    basis form S, built once by the caller. Memory stays O(size of x)."""
    if x.shape[-1] != 1 << w.n:
        raise ValueError(f"coefficient array of length {x.shape[-1]} does not match n={w.n}")
    mode = ScalarMode.floating()
    return (_antiderivation_array(w.v_in(mode), x, odd, removes=True)
            + _antiderivation_array(w.lam_in(mode), x, odd, removes=False))
