"""Eigenvector witnesses for the degree bound on large induced subgraphs.

Any subgraph H on more than half the cube meets the positive eigenspace of
A, so some nonzero ``omega`` supported on H satisfies
``A omega = sqrt(lambda(v)) omega``. At the max-coordinate vertex ``beta``
the eigenvalue relation forces weighted in/out degrees of ``beta`` inside
H to cover ``sqrt(lambda(v))``; with uniform weights ``a, b`` this reads
``sqrt(n) <= C * indeg + (1/C) * outdeg`` for ``C = sqrt(a/b)``.

The eigenvector is a kernel vector of ``A - s I`` restricted to the
coordinate subspace of H, ``s = sqrt(lambda(v))``. Exact mode never
eliminates over Q(sqrt(d)): Q_n is bipartite by parity, so with
``D = diag(1 on even-weight vertices, s on odd)`` the conjugate
``D^-1 (M/s - I) D`` is rational (odd columns keep ``M``, even columns are
``M / lambda(v)``, the diagonal is ``-1``). Gaussian elimination over Q finds
its kernel vector ``y``, and ``x = D y`` is lifted into Q(sqrt(d)) only
afterwards. The diagonal scalings keep the pivot pattern, so the first free
column and the normalized vector are those of the direct elimination, and
the eigen-residual is still checked over Q(sqrt(d)) on every call.

Float mode, for large n, solves a smaller system. Split H into its even
vertices E and odd vertices O, and let E' be the even vertices outside H.
Since M only joins opposite parities, the restricted kernel is exactly
``{x : x_O in ker M[E', O], x_E = M[E, O] x_O / s}``: the rows of E' say
``(M x)_{E'} = 0``, the rows of E define ``x_E``, and the odd rows then
hold by ``M^2 = lambda(v) I``. ``M[E', O]`` has
``|O| - |E'| = |H| - 2^(n-1) >= 1`` more columns than rows, so a kernel
vector always exists; numpy's SVD of this |E'| x |O| matrix finds one, in
place of an SVD of the whole |N[H]| x |H| system. The eigen-residual of
the lifted vector is checked within tolerance on every call, and the dense
solve is refused before it allocates when it would exceed
``FLOAT_SOLVE_MAX_BYTES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cube import DegreeProfile, InducedSubgraph, format_vertex
from .exterior import Multivector, Scalar, WeightConfig, apply_A
from .matrices import SignedCubeMatrix, build_matrix
from .scalars import QuadraticScalar, ScalarMode, exact_sign

EXACT_DEFAULT_LIMIT = 12  # exact elimination is the default up to this n
FLOAT_SOLVE_MAX_BYTES = 1 << 29  # M[E', O] plus V of its SVD, float64, at most 512 MiB


class SubgraphTooSmallError(ValueError):
    """H has at most half the vertices: no eigenspace intersection is
    guaranteed, so the pipeline refuses to run."""


class DenseSolveTooLargeError(ValueError):
    """The float-mode dense solve would exceed ``FLOAT_SOLVE_MAX_BYTES``;
    it is refused before anything is allocated."""


class NumericalRankError(RuntimeError):
    """Float-mode kernel detection failed; rerun in exact mode."""


class InvariantViolation(RuntimeError):
    """A theorem-guaranteed property failed to verify: always a bug."""


def resolve_mode(n: int, mode: Optional[ScalarMode]) -> ScalarMode:
    if mode is not None:
        return mode
    return ScalarMode.exact() if n <= EXACT_DEFAULT_LIMIT else ScalarMode.floating()


@dataclass(frozen=True)
class WitnessReport:
    """The extracted vertex, its eigenvector coordinate, and the certified
    inequality `bound_rhs >= bound_lhs` at that vertex.

    ``marginal`` is a float-noise flag: float mode sets it when the two
    sides differ by no more than the tolerance, so the comparison could go
    either way. Exact mode decides the comparison exactly and always
    reports False, equality cases included.
    """

    n: int
    mode: ScalarMode
    ratio: Scalar  # C = sqrt(a/b)
    beta: int
    omega_beta: Scalar
    profile: DegreeProfile
    bound_lhs: Scalar  # sqrt(lambda(v) / (a*b)), i.e. sqrt(n) for uniform weights
    bound_rhs: Scalar  # C * indegree + (1/C) * outdegree
    certified: bool
    marginal: bool

    def to_json_dict(self) -> dict:
        fmt = self.mode.format
        return {
            "n": self.n,
            "mode": self.mode.json_name(),
            "C": fmt(self.ratio),
            "beta": format_vertex(self.beta, self.n),
            "omega_beta": fmt(self.omega_beta),
            "indegree": self.profile.indegree,
            "outdegree": self.profile.outdegree,
            "degree": self.profile.degree,
            "bound_lhs": fmt(self.bound_lhs),
            "bound_rhs": fmt(self.bound_rhs),
            "certified": self.certified,
            "marginal": self.marginal,
        }


def _require_large(H: InducedSubgraph) -> None:
    if not H.is_large:
        raise SubgraphTooSmallError(
            f"subgraph has {H.cardinality} <= 2^{H.n - 1} vertices; "
            "the eigenspace intersection argument needs more than half"
        )


def _restricted_rows(
    M: SignedCubeMatrix, s: Scalar, columns: Sequence[int]
) -> List[Dict[int, Scalar]]:
    """Rows of (A - s I) restricted to the given columns, keyed by column
    index; rows outside the closed neighborhood of H are identically zero
    and are dropped. The pipeline solves smaller systems; tests and the
    benchmark's reference recorder use this whole one as their oracle."""
    col_index = {gamma: j for j, gamma in enumerate(columns)}
    rows: Dict[int, Dict[int, Scalar]] = {}
    for gamma in columns:
        j = col_index[gamma]
        for beta, val in M.column(gamma):
            rows.setdefault(beta, {})[j] = val
        diag = rows.setdefault(gamma, {})
        diag[j] = diag.get(j, 0) - s
    return [rows[beta] for beta in sorted(rows)]


def _rational_rows(
    M: SignedCubeMatrix, lam: Fraction, columns: Sequence[int]
) -> List[Dict[int, Fraction]]:
    """Rows of ``D^-1 (M/s - I) D`` restricted to the given columns, where
    ``s^2 = lam`` and ``D = diag(1 on even vertices, s on odd)``: an odd
    column keeps ``M``, an even column is ``M / lam``, the diagonal is -1.
    Rows come in the order of ``_restricted_rows``, which this system is a
    row and column scaling of."""
    inv_lam = 1 / lam
    rows: Dict[int, Dict[int, Fraction]] = {}
    for j, gamma in enumerate(columns):
        odd = gamma.bit_count() & 1
        for beta, val in M.column(gamma):
            rows.setdefault(beta, {})[j] = val if odd else val * inv_lam
        diag = rows.setdefault(gamma, {})
        diag[j] = diag.get(j, 0) - 1
    return [rows[beta] for beta in sorted(rows)]


def _first_kernel_vector(
    rows: List[Dict[int, Scalar]], num_cols: int
) -> Optional[List[Scalar]]:
    """Exact kernel vector for the first free column, columns ascending.

    Forward elimination keeps rows sparse as dicts; when a column has no
    pivot among the remaining rows it is free, its coefficient is set to 1
    and the pivot columns are back-substituted. Returns None when every
    column carries a pivot (trivial restricted kernel).
    """
    active = [dict(r) for r in rows]
    pivots: List[Tuple[int, Dict[int, Scalar]]] = []
    for col in range(num_cols):
        pivot_row: Optional[Dict[int, Scalar]] = None
        for idx, row in enumerate(active):
            if row.get(col):
                pivot_row = active.pop(idx)
                break
        if pivot_row is None:
            solution: List[Scalar] = [Fraction(0)] * num_cols
            solution[col] = Fraction(1)
            for pcol, prow in reversed(pivots):
                acc: Scalar = Fraction(0)
                for c, val in prow.items():
                    if c > pcol and solution[c] != 0:
                        acc = acc + val * solution[c]
                solution[pcol] = -acc / prow[pcol]
            return solution
        pivots.append((col, pivot_row))
        pivot_val = pivot_row[col]
        for row in active:
            val = row.get(col)
            if not val:
                continue
            factor = val / pivot_val
            for c, pval in pivot_row.items():
                updated = row.get(c, 0) - factor * pval
                if updated == 0:
                    row.pop(c, None)
                else:
                    row[c] = updated
    return None


def _float_kernel_vector(
    rows: List[Dict[int, float]], num_cols: int, tol: float
) -> List[float]:
    """A unit kernel vector of the dense matrix with these sparse rows.

    The float path passes ``M[E', O]``, which has more columns than rows:
    the last row of the full ``V^T`` of its SVD then lies in the kernel, and
    with no rows at all any vector does, so the first unit vector is
    returned. A system with at least as many rows as columns has a kernel
    only if its smallest singular value is negligible; otherwise this
    raises ``NumericalRankError``.
    """
    if not rows:
        return [1.0] + [0.0] * (num_cols - 1)
    import numpy as np

    a = np.zeros((len(rows), num_cols))
    for i, row in enumerate(rows):
        for j, val in row.items():
            a[i, j] = val
    # full V: a wide matrix's kernel is spanned by the rows of V^T past its rank
    _, singular, vt = np.linalg.svd(a)
    if len(singular) == num_cols and singular[-1] > tol * max(singular[0], 1.0):
        raise NumericalRankError(
            f"smallest singular value {singular[-1]:.3e} is not negligible "
            f"against {singular[0]:.3e}; rerun in exact mode"
        )
    return [float(x) for x in vt[-1]]


def _even_vertices(n: int) -> int:
    """Bitset of the even-weight vertices of Q_n (the Thue-Morse pattern)."""
    mask = 1
    for b in range(n):
        width = 1 << b
        mask |= (~mask & ((1 << width) - 1)) << width
    return mask


def _check_float_solve_size(H: InducedSubgraph) -> None:
    """Refuse, before allocating, a dense ``M[E', O]`` whose matrix plus
    SVD factor ``V`` would exceed ``FLOAT_SOLVE_MAX_BYTES``. U, which is
    smaller than V, and LAPACK's workspace come on top."""
    even = _even_vertices(H.n)
    num_rows = (even & ~H.members).bit_count()
    num_cols = (H.members & ~even).bit_count()
    needed = 8 * (num_rows * num_cols + num_cols * num_cols)
    if needed > FLOAT_SOLVE_MAX_BYTES:
        raise DenseSolveTooLargeError(
            f"float solve needs a dense {num_rows} x {num_cols} matrix and its "
            f"{num_cols} x {num_cols} SVD factor, {needed / 2**20:.0f} MiB, over "
            f"the {FLOAT_SOLVE_MAX_BYTES / 2**20:.0f} MiB bound"
        )


def _float_parity_kernel(
    M: SignedCubeMatrix, s: float, H: InducedSubgraph, tol: float
) -> Dict[int, float]:
    """A kernel vector of ``(M - s I)`` restricted to H, by vertex: ``x_O``
    from ``ker M[E', O]`` and ``x_E = M[E, O] x_O / s``. Vertices of H
    absent from the result have coordinate 0."""
    odd = [gamma for gamma in H.vertices() if gamma.bit_count() & 1]
    members = H.members
    inside: Dict[int, Dict[int, float]] = {}  # rows of E
    outside: Dict[int, Dict[int, float]] = {}  # rows of E'; zero rows never appear
    for j, gamma in enumerate(odd):
        for beta, val in M.column(gamma):
            (inside if members >> beta & 1 else outside).setdefault(beta, {})[j] = val
    x_odd = _float_kernel_vector([outside[b] for b in sorted(outside)], len(odd), tol)
    coords = dict(zip(odd, x_odd))
    for beta, row in inside.items():
        coords[beta] = sum(val * x_odd[j] for j, val in row.items()) / s
    return coords


def _normalize_max_coordinate(values: List[Scalar]) -> List[Scalar]:
    """Scale so the max-magnitude coordinate (first, i.e. smallest column,
    on ties) becomes exactly +1."""
    best = None
    best_abs = None
    for val in values:
        mag = abs(val)
        if best_abs is None or mag > best_abs:
            best, best_abs = val, mag
    if best is None or best == 0:
        raise InvariantViolation("kernel vector is zero")
    return [val / best for val in values]


def positive_eigenvector_in_span(
    w: WeightConfig, H: InducedSubgraph, mode: Optional[ScalarMode] = None
) -> Multivector:
    """A nonzero ``omega`` supported on H with ``A omega = s omega``,
    normalized so its max-magnitude coordinate is +1.

    The restricted kernel is guaranteed nonzero by dimension counting
    whenever H is large; failure to find one is a bug, not an input error.
    """
    if w.n != H.n:
        raise ValueError(f"dimension mismatch: weights n={w.n}, subgraph n={H.n}")
    _require_large(H)
    mode = resolve_mode(H.n, mode)
    if not mode.is_exact:
        _check_float_solve_size(H)
    columns = list(H.vertices())
    M = build_matrix(w, mode)
    s = w.eigenvalue(mode)
    if mode.is_exact:
        y = _first_kernel_vector(_rational_rows(M, w.pairing, columns), len(columns))
        if y is None:
            raise InvariantViolation(
                "no kernel vector in span(H) although |H| > 2^(n-1)"
            )
        kernel = [
            s * val if gamma.bit_count() & 1 and val else val
            for gamma, val in zip(columns, y)
        ]
    else:
        coords = _float_parity_kernel(M, s, H, mode.tol)
        kernel = [coords.get(gamma, 0.0) for gamma in columns]
    kernel = _normalize_max_coordinate(kernel)
    omega = Multivector(H.n, dict(zip(columns, kernel)))
    _verify_eigenvector(w, H, omega, s, mode)
    return omega


def _verify_eigenvector(
    w: WeightConfig,
    H: InducedSubgraph,
    omega: Multivector,
    s: Scalar,
    mode: ScalarMode,
) -> None:
    if any(beta not in H for beta in omega.support()):
        raise InvariantViolation("eigenvector support escapes H")
    residual = apply_A(w, omega, mode) - omega.scaled(s)
    if mode.is_exact:
        if not residual.is_zero:
            raise InvariantViolation("exact eigenvector residual is nonzero")
    elif residual.sup_norm_float() > mode.tol * max(1.0, omega.sup_norm_float()):
        raise NumericalRankError(
            "float eigenvector residual exceeds tolerance; rerun in exact mode"
        )


def extract_witness(
    w: WeightConfig,
    H: InducedSubgraph,
    omega: Multivector,
    mode: Optional[ScalarMode] = None,
) -> WitnessReport:
    """Locate the max-coordinate vertex of ``omega`` and certify the
    weighted degree inequality there.

    The certified comparison is done on the unnormalized form
    ``a*indeg + b*outdeg >= sqrt(lambda(v))`` (a, b the sup norms), which
    is the reported inequality scaled by ``sqrt(a*b) > 0``; this keeps the
    exact comparison inside a single quadratic field.
    """
    mode = resolve_mode(H.n, mode)
    if w.n != H.n or omega.n != H.n:
        raise ValueError(
            f"dimension mismatch: weights n={w.n}, subgraph n={H.n}, omega n={omega.n}"
        )
    if omega.is_zero:
        raise ValueError("eigenvector is zero")
    support = omega.support()
    if any(beta not in H for beta in support):
        raise ValueError("eigenvector support is not contained in H")

    beta, coord = support[0], omega.coefficient(support[0])
    best_abs = abs(coord)
    for vertex in support[1:]:
        val = omega.coefficient(vertex)
        if abs(val) > best_abs:
            beta, coord, best_abs = vertex, val, abs(val)
    if _sign(coord) < 0:
        coord = -coord  # flip omega so the witness coordinate is positive

    profile = H.degree_profile(beta)
    a, b = w.sup_lam, w.sup_v

    if mode.is_exact:
        ratio = QuadraticScalar.sqrt_of(a / b)
        bound_lhs = QuadraticScalar.sqrt_of(w.pairing / (a * b))
        bound_rhs = ratio * profile.indegree + ratio.inverse() * profile.outdegree
        threshold = QuadraticScalar.sqrt_of(w.pairing)
        certified = a * profile.indegree + b * profile.outdegree >= threshold
        marginal = False
    else:
        ratio = math.sqrt(a / b)
        bound_lhs = math.sqrt(w.pairing / (a * b))
        bound_rhs = ratio * profile.indegree + profile.outdegree / ratio
        diff = bound_rhs - bound_lhs
        noise = mode.tol * max(1.0, abs(bound_lhs))
        marginal = abs(diff) <= noise
        certified = diff >= -noise

    return WitnessReport(
        n=H.n,
        mode=mode,
        ratio=ratio,
        beta=beta,
        omega_beta=coord,
        profile=profile,
        bound_lhs=bound_lhs,
        bound_rhs=bound_rhs,
        certified=certified,
        marginal=marginal,
    )


def _sign(value: Scalar) -> int:
    if isinstance(value, float):
        return (value > 0) - (value < 0)
    return exact_sign(value)


def run_pipeline(
    w: WeightConfig, H: InducedSubgraph, mode: Optional[ScalarMode] = None
) -> WitnessReport:
    """Eigenvector extraction followed by witness certification."""
    mode = resolve_mode(H.n, mode)
    omega = positive_eigenvector_in_span(w, H, mode)
    return extract_witness(w, H, omega, mode)


def weighted_scan(
    H: InducedSubgraph,
    ratios: Sequence[Fraction],
    mode: Optional[ScalarMode] = None,
) -> List[WitnessReport]:
    """Run the pipeline once per weight ratio C, with a = C, b = 1/C so the
    pairing is exactly n and the reported bound is
    ``sqrt(n) <= C*indeg + (1/C)*outdeg``. Different C may elect different
    witness vertices."""
    reports = []
    for ratio in ratios:
        w = WeightConfig.from_ratio(H.n, Fraction(ratio))
        reports.append(run_pipeline(w, H, mode))
    return reports
