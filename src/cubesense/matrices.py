"""Signed cube matrices of the operator A and their spectral structure.

In the standard basis the operator is a signed, weighted adjacency matrix
of Q_n: the entry between ``gamma`` and ``gamma ^ (1 << b)`` has magnitude
``lambda_{b+1}`` (edge up) or ``v_{b+1}`` (edge down) and a sign given by
the parity of the set bits of ``gamma`` below ``b``. Entries live at fixed
XOR offsets, so the matrix is never materialized: a matrix is its
dimension plus a closed-form entry rule, and matvec is a bit loop.

The square identity ``M^2 = lambda(v) I`` pins the eigenvalues to
``+-sqrt(lambda(v))``; zero trace splits the space into eigenspaces of
equal dimension ``2^(n-1)``, realized here by the matrix-free projectors
``P_+- = (I +- M/s) / 2``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, TextIO, Tuple

from .cube import check_dimension
from .exterior import Multivector, Scalar, WeightConfig, apply_A
from .scalars import ScalarMode, resolve_mode

MATRIX_MAX_DIMENSION = 20  # n * 2^n nonzeros; beyond this matvec stops being sane


def _check_matrix_dimension(n: int) -> None:
    check_dimension(n)
    if n > MATRIX_MAX_DIMENSION:
        raise ValueError(f"matrix dimension capped at n={MATRIX_MAX_DIMENSION}")


class SignedCubeMatrix:
    """A 2^n x 2^n matrix supported on cube edges, defined by an entry rule.

    ``coeff(gamma, b)`` returns the entry in row ``gamma ^ (1 << b)``,
    column ``gamma``: every column has exactly n nonzeros at single-bit
    XOR offsets.
    """

    __slots__ = ("n", "_coeff")

    def __init__(self, n: int, coeff: Callable[[int, int], Scalar]) -> None:
        _check_matrix_dimension(n)
        self.n = n
        self._coeff = coeff

    @property
    def size(self) -> int:
        return 1 << self.n

    def entry(self, row: int, col: int) -> Scalar:
        diff = row ^ col
        if diff.bit_count() != 1:
            return 0
        return self._coeff(col, diff.bit_length() - 1)

    def column(self, col: int) -> List[Tuple[int, Scalar]]:
        """The n nonzero (row, value) pairs of one column, rows ascending."""
        pairs = [(col ^ (1 << b), self._coeff(col, b)) for b in range(self.n)]
        pairs.sort()
        return pairs

    def iter_entries(self) -> Iterator[Tuple[int, int, Scalar]]:
        """All nonzeros as (row, col, value), column-major, flipped bit ascending."""
        for col in range(self.size):
            for b in range(self.n):
                yield col ^ (1 << b), col, self._coeff(col, b)

    def apply(self, vec: Sequence[Scalar]) -> list:
        if len(vec) != self.size:
            raise ValueError(f"vector length {len(vec)} != {self.size}")
        coeff = self._coeff
        out = []
        for row in range(self.size):
            acc = None
            for b in range(self.n):
                col = row ^ (1 << b)
                term = vec[col] * coeff(col, b)
                acc = term if acc is None else acc + term
            out.append(acc)
        return out

    def dump(self, stream: TextIO, mode: ScalarMode) -> None:
        for row, col, value in self.iter_entries():
            stream.write(f"{row} {col} {mode.format(value)}\n")


def _entry_table(lam: tuple, v: tuple) -> tuple:
    """A's entries indexed ``[parity][bit set][b]``, as ``build_matrix``
    describes them, for the coordinates lambda and v."""
    return ((lam, v), (tuple(-x for x in lam), tuple(-x for x in v)))


def _signed_matrix(n: int, lam: tuple, v: tuple) -> SignedCubeMatrix:
    table = _entry_table(lam, v)

    def coeff(gamma: int, b: int) -> Scalar:
        return table[(gamma & ((1 << b) - 1)).bit_count() & 1][gamma >> b & 1][b]

    return SignedCubeMatrix(n, coeff)


def build_matrix(w: WeightConfig, mode: ScalarMode | None = None) -> SignedCubeMatrix:
    """Materialize A in the standard basis (as an entry rule).

    The sign of the entry at flipped bit ``b`` of column ``gamma`` is the
    parity of ``gamma``'s set bits below ``b``; the magnitude is ``v`` when
    the column loses the bit and ``lambda`` when it gains it. The entries
    are read from a table built once, indexed ``[parity][bit set][b]``, so
    a negative entry is not negated again on every call.
    """
    mode = resolve_mode(w.n, mode)
    return _signed_matrix(w.n, w.lam_in(mode), w.v_in(mode))


def integer_matrix(w: WeightConfig) -> Tuple[SignedCubeMatrix, int]:
    """``(den * M, den)``: ``build_matrix``'s entry rule read from the
    weights scaled to ints by ``den``, the lcm of their denominators, so
    every entry is an int."""
    den, lam, v = w.scaled_to_integers()
    return _signed_matrix(w.n, lam, v), den


def float_entries(w: WeightConfig, odd) -> Callable:
    """``build_matrix``'s entry rule in float mode, on numpy arrays:
    ``along(columns, b)`` gives ``M[gamma ^ (1 << b), gamma]`` for every
    vertex ``gamma`` of the integer array ``columns``, read from the same
    sign/magnitude table as ``coeff``. ``odd`` is the bool array of vertex
    parities over ``0 .. 2^n - 1``, built once by the caller; the sign
    parity of ``gamma`` below ``b`` is ``odd[gamma mod 2^b]``. The
    dimension is capped as for ``SignedCubeMatrix``."""
    _check_matrix_dimension(w.n)
    import numpy as np

    mode = ScalarMode.floating()
    table = np.array(_entry_table(w.lam_in(mode), w.v_in(mode)))

    def along(columns, b: int):
        # a bool index array would select, not index: read the parities as 0/1
        parity = odd[columns & ((1 << b) - 1)].view(np.uint8)
        return table[parity, columns >> b & 1, b]

    return along


def huang_matrix(n: int) -> SignedCubeMatrix:
    """The recursive +-1 signing B_1 = [[0,1],[1,0]],
    B_n = [[B_{n-1}, I], [I, -B_{n-1}]]; satisfies B_n^2 = n I.

    Unrolled, the sign at flipped bit ``b`` of column ``gamma`` is the
    parity of ``gamma``'s set bits above ``b``.
    """

    def coeff(gamma: int, b: int) -> Scalar:
        return -1 if (gamma >> (b + 1)).bit_count() & 1 else 1

    return SignedCubeMatrix(n, coeff)


@dataclass(frozen=True)
class SquareIdentityReport:
    expected: Scalar  # the pairing lambda(v)
    max_deviation: float
    ok: bool


def verify_square_identity(
    M: SignedCubeMatrix, w: WeightConfig, mode: ScalarMode | None = None
) -> SquareIdentityReport:
    """Check ``M^2 = lambda(v) I`` column by column through sparse composition:
    in exact mode of the integer matrix ``den * M`` for the M given, ``den``
    the lcm of its entries' denominators, against ``lambda(v) * den^2``."""
    mode = resolve_mode(w.n, mode)
    expected = mode.convert(w.pairing)
    scale = float(expected)
    column, target, den2 = M.column, expected, 1
    if mode.is_exact:
        entries = [M.column(gamma) for gamma in range(M.size)]
        den = math.lcm(*(val.denominator for col in entries for _, val in col))
        scaled = [[(row, val.numerator * (den // val.denominator)) for row, val in col]
                  for col in entries]
        column, den2, target = scaled.__getitem__, den * den, expected * den * den
    worst = 0.0
    ok = True
    for gamma in range(M.size):
        acc: dict = {}
        for mid, val in column(gamma):
            for row, val2 in column(mid):
                acc[row] = acc.get(row, 0) + val2 * val
        acc[gamma] = acc.get(gamma, 0) - target
        for dev in acc.values():
            if dev:
                dev = Fraction(dev, den2) if mode.is_exact else dev
                worst = max(worst, abs(float(dev)))
                ok = ok and mode.within(dev, scale)
    return SquareIdentityReport(expected=expected, max_deviation=worst, ok=ok)


def operator_trace(w: WeightConfig, mode: ScalarMode | None = None) -> Scalar:
    """Trace of A computed through the exterior-algebra path (independent of
    the matrix entry rule): A flips degree parity, so every diagonal
    coefficient vanishes."""
    mode = resolve_mode(w.n, mode)
    total: Scalar = mode.convert(0)
    for gamma in range(1 << w.n):
        image = apply_A(w, Multivector.basis(w.n, gamma), mode)
        total = total + image.coefficient(gamma)
    return total


class EigenSplit:
    """Matrix-free projectors P_+- = (I +- M/s)/2 onto the eigenspaces of M."""

    def __init__(self, M: SignedCubeMatrix, w: WeightConfig, mode: ScalarMode | None = None):
        self.matrix = M
        self.mode = resolve_mode(w.n, mode)
        self.s = w.eigenvalue(self.mode)
        self._half = self.mode.convert(Fraction(1, 2))
        self._s_inv = 1 / self.s

    def project(self, vec: Sequence[Scalar], sign: int) -> list:
        return self._combine(vec, self.matrix.apply(vec), sign)

    def _combine(self, vec: Sequence[Scalar], image: Sequence[Scalar], sign: int) -> list:
        """``P_+- vec = (+-image / s + vec) / 2`` for the eigen image ``M vec``."""
        half, s_inv = self._half, sign * self._s_inv
        return [(s_inv * y + x) * half for x, y in zip(vec, image)]

    def multiplicities(self, trace: Scalar) -> Tuple[Scalar, Scalar]:
        """trace(P_+-) = (2^n +- trace(M)/s) / 2."""
        size = self.matrix.size
        shift = self._s_inv * trace
        return self._half * (size + shift), self._half * (size - shift)


@dataclass(frozen=True)
class SpectralReport:
    n: int
    eigenvalue: Scalar
    trace: Scalar
    multiplicity_plus: Scalar
    multiplicity_minus: Scalar
    projector_max_deviation: float
    projector_ok: bool

    @property
    def ok(self) -> bool:
        half = 1 << (self.n - 1)
        return (
            self.trace == 0
            and self.multiplicity_plus == half
            and self.multiplicity_minus == half
            and self.projector_ok
        )


def spectral_report(
    M: SignedCubeMatrix,
    w: WeightConfig,
    mode: ScalarMode | None = None,
    num_vectors: int = 8,
    seed: int = 0,
) -> SpectralReport:
    """Zero trace, equal eigenvalue multiplicities via the trace of P_+,
    and projector idempotency checked matrix-free on random vectors."""
    mode = resolve_mode(w.n, mode)
    trace = operator_trace(w, mode)
    split = EigenSplit(M, w, mode)
    mult_plus, mult_minus = split.multiplicities(trace)

    rng = random.Random(seed)
    worst = 0.0
    ok = True
    for _ in range(num_vectors):
        vec = [
            mode.convert(Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)))
            for _ in range(M.size)
        ]
        scale = max(abs(float(x)) for x in vec)
        image = M.apply(vec)
        for sign in (1, -1):
            once = split._combine(vec, image, sign)
            eigen_image = M.apply(once)
            twice = split._combine(once, eigen_image, sign)
            signed_s = sign * split.s
            for a, b, c in zip(once, twice, eigen_image):
                # A P_+- = +-s P_+- alongside idempotency
                for dev in (a - b, c - signed_s * a):
                    if dev:
                        worst = max(worst, abs(float(dev)))
                        ok = ok and mode.within(dev, scale)
    return SpectralReport(
        n=M.n,
        eigenvalue=split.s,
        trace=trace,
        multiplicity_plus=mult_plus,
        multiplicity_minus=mult_minus,
        projector_max_deviation=worst,
        projector_ok=ok,
    )


def _unit_entries(M: SignedCubeMatrix) -> None:
    for u in range(M.size):
        for b in range(M.n):
            val = M.entry(u, u ^ (1 << b))
            if val != 1 and val != -1:
                raise ValueError("matrix is not a +-1 signing of the cube")


def four_cycle_products_negative(M: SignedCubeMatrix) -> bool:
    """Every 2-face of the cube carries edge-sign product -1; this is the
    off-diagonal shadow of M^2 = n I for +-1 signings."""
    _unit_entries(M)
    for i in range(M.n):
        for j in range(i + 1, M.n):
            lo, hi = 1 << i, 1 << j
            for base in range(M.size):
                if base & (lo | hi):
                    continue
                product = (
                    M.entry(base, base ^ lo)
                    * M.entry(base, base ^ hi)
                    * M.entry(base ^ lo, base ^ lo ^ hi)
                    * M.entry(base ^ hi, base ^ lo ^ hi)
                )
                if product != -1:
                    return False
    return True


def switching_equivalent(
    M1: SignedCubeMatrix, M2: SignedCubeMatrix
) -> Optional[List[int]]:
    """Search for a diagonal +-1 matrix D with D M1 D = M2.

    Fix d[0] = +1 and take each other d[u] from its parent
    ``u & (u - 1)`` (u without its lowest bit): these edges span the cube,
    and each forces the far sign. Then verify every edge; the tree alone is
    not enough because the cube has cycles. Returns the diagonal as a list,
    or None.
    """
    if M1.n != M2.n:
        raise ValueError("signings live on cubes of different dimension")
    _unit_entries(M1)
    _unit_entries(M2)
    size = M1.size
    diag: List[int] = [1] * size
    for u in range(1, size):
        p = u & (u - 1)
        # d[p] * M1[p,u] * d[u] = M2[p,u]  with +-1 entries
        diag[u] = int(diag[p] * M1.entry(p, u) * M2.entry(p, u))
    for u in range(size):
        for b in range(M1.n):
            w_ = u ^ (1 << b)
            if diag[u] * M1.entry(u, w_) * diag[w_] != M2.entry(u, w_):
                return None
    return diag
