"""Eigenvector witnesses for the degree bound on large induced subgraphs.

Any subgraph H on more than half the cube meets the positive eigenspace of
A, so some nonzero ``omega`` supported on H satisfies
``A omega = sqrt(lambda(v)) omega``. At the max-coordinate vertex ``beta``
the eigenvalue relation forces weighted in/out degrees of ``beta`` inside
H to cover ``sqrt(lambda(v))``; with uniform weights ``a, b`` this reads
``sqrt(n) <= C * indeg + (1/C) * outdeg`` for ``C = sqrt(a/b)``.

The eigenvector is a kernel vector of ``M - s I`` restricted to the
coordinate subspace of H, ``s = sqrt(lambda(v))``. M only joins vertices of
opposite parity, so split H into its even vertices E and odd vertices O,
and let E' be the even vertices outside H. The even rows of the system read
``M[E', O] x_O = 0`` and ``M[E, O] x_O = s x_E``; given those, the odd rows
hold by ``M^2 = lambda(v) I``. The restricted kernel is therefore exactly
``{x : x_O in ker M[E', O], x_E = M[E, O] x_O / s}``, and ``M[E', O]`` has
``|O| - |E'| = |H| - 2^(n-1) >= 1`` more columns than rows, so a kernel
vector always exists.

Both modes solve only these even rows for a parity pair ``y`` with
``y_O`` in ``ker M[E', O]`` and ``y_E = M[E, O] y_O``, so that
``x = y_E + s y_O``. Exact mode builds ``[M[E' u E, O] | -I_E]`` as dict
rows keyed by vertex (an odd vertex adds its column of M, an even one its
-1), eliminates it over Q with the weights as entries and the columns in
vertex order, and takes the first free column's kernel vector ``y``. Each
column pivots on the remaining row with the fewest nonzeros: the row
chosen changes only fill-in, while the pivot columns, and with them the
free column and ``y``, depend on the columns alone. Up to
scale, x is then the unique kernel vector whose last nonzero column comes
earliest: dropping implied rows keeps the kernel and the column scaling
moves no zero, so it is the vector a direct elimination of the whole
system over Q(sqrt(d)) finds.

Float mode works on numpy arrays indexed by vertex, one cube direction at
a time, through ``matrices.float_entries``. It counts |O| by a popcount
against the odd-vertex mask and refuses the solve, before it lists
anything, when it would exceed ``FLOAT_SOLVE_MAX_BYTES``. Otherwise it
reads O's n entry arrays once, fills the dense ``M[E', O]`` from them,
takes ``y_O`` from one Householder QR of its transpose, and gets ``y_E``
by one scatter-add per direction. The same mask, as a bool array, hands
both array rules their sign parities, so the parity rule lives here alone.
omega stays an array up to the report; only ``positive_eigenvector_in_span``
makes it a Multivector. Memory stays O(2^n) beside the dense block.

Normalization and the certificate never touch s. Write the normalized
eigenvector as ``omega = p + s q``, p on the max-coordinate vertex's
parity and q on the other. A swaps parity and ``s^2 = lambda(v)``, so
``A omega = s omega`` holds exactly when the two identities ``A q = p``
and ``A p = lambda(v) q`` do. Both are checked through the independent
exterior path on every call: exactly on Multivectors, or within
tolerance on q and p stacked through ``exterior.apply_A_array``, which
reads nothing of ``matrices``. s enters only in the returned sum.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cube import DegreeProfile, InducedSubgraph, format_vertex
from .exterior import Multivector, Scalar, WeightConfig, apply_A, apply_A_array
from .matrices import SignedCubeMatrix, build_matrix, float_entries
from .scalars import ScalarMode, magnitude_key, resolve_mode, shared_sqrt

FLOAT_SOLVE_MAX_BYTES = 1 << 29  # three float64 copies of M[E', O] for its QR, at most 512 MiB


class SubgraphTooSmallError(ValueError):
    """H has at most half the vertices: no eigenspace intersection is
    guaranteed, so the pipeline refuses to run."""


class DenseSolveTooLargeError(ValueError):
    """The float-mode dense solve would exceed ``FLOAT_SOLVE_MAX_BYTES``;
    it is refused before any dense allocation."""


class NumericalRankError(RuntimeError):
    """Float-mode kernel detection failed; rerun in exact mode."""


class InvariantViolation(RuntimeError):
    """A theorem-guaranteed property failed to verify: always a bug."""


class _FieldsAsDict:
    """A slotted dataclass's fields read as ``__dict__``, as they would be
    without slots, so that ``type(r)(**{**r.__dict__, name: value})``
    still copies an instance with one field changed (perfbench forges
    reports that way). Nothing is stored: each read builds the dict."""

    __slots__ = ()

    @property
    def __dict__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, slots=True)
class WitnessReport(_FieldsAsDict):
    """The extracted vertex, its eigenvector coordinate, and the certified
    inequality `bound_rhs >= bound_lhs` at that vertex.

    ``certified`` is decided exactly in both modes. ``marginal`` only flags
    float noise: float mode sets it when the two printed sides differ by
    no more than the tolerance, so the floats alone cannot order them.
    Exact mode always reports False, equality cases included.
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
            "mode": self.mode.kind,
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


def _check_solve_inputs(w: WeightConfig, H: InducedSubgraph) -> None:
    if w.n != H.n:
        raise ValueError(f"dimension mismatch: weights n={w.n}, subgraph n={H.n}")
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


def _first_kernel_vector(
    rows: List[Dict[int, Scalar]], columns: Sequence[int]
) -> Optional[Dict[int, Scalar]]:
    """Exact kernel vector ``{column: value}`` for the first free column,
    the columns taken in the order given. Forward elimination keeps the
    rows sparse as dicts keyed by column; a column with no pivot among the
    remaining rows is free, its coefficient is set to 1 and the pivot
    columns are back-substituted. Later columns are 0 and left out.
    Returns None when every column carries a pivot (trivial kernel).

    Each column pivots on the remaining row with the fewest nonzeros, the
    lowest row position on ties (Markowitz's rule on rows alone), found
    through an index from each column to the remaining rows that hold it.
    The row chosen changes only fill-in. Whichever row pivots, a column
    gets a pivot exactly when it is independent of the columns before it,
    so the free column is the same. The vector is then the unique kernel
    vector that is 1 there and 0 on every later column, so every pivot
    order returns the same dict.
    """
    active = [{c: v for c, v in r.items() if v} for r in rows]
    holding: Dict[int, Set[int]] = {}  # column -> the remaining rows with a nonzero there
    for i, row in enumerate(active):
        for c in row:
            holding.setdefault(c, set()).add(i)
    pivots: List[Tuple[int, Scalar, Dict[int, Scalar]]] = []
    for col in columns:
        candidates = holding.pop(col, None)
        if not candidates:
            solution: Dict[int, Scalar] = {col: Fraction(1)}
            for pcol, pivot_val, prow in reversed(pivots):
                acc: Scalar = Fraction(0)
                for c, val in prow.items():
                    if solution.get(c):
                        acc = acc + val * solution[c]
                solution[pcol] = -acc / pivot_val
            return solution
        p = min(candidates, key=lambda i: (len(active[i]), i))
        candidates.remove(p)
        pivot_row = active[p]
        pivot_val = pivot_row.pop(col)
        for c in pivot_row:
            holding[c].remove(p)
        pivots.append((col, pivot_val, pivot_row))
        for i in candidates:
            row = active[i]
            factor = row.pop(col) / pivot_val
            for c, pval in pivot_row.items():
                updated = row.get(c, 0) - factor * pval
                if updated == 0:
                    del row[c]
                    holding[c].remove(i)
                else:
                    if c not in row:
                        holding[c].add(i)
                    row[c] = updated
    return None


def _float_kernel_vector(a):
    """A unit kernel vector of the dense numpy matrix ``a``.

    The float path passes ``M[E', O]``, which has more columns than rows, so
    the last column of Q in one Householder QR ``a^T = Q R`` is a kernel
    vector whatever the rank: ``a Q e_last = R^T e_last = 0``, R's last row
    being zero. It is built by applying the reflectors to ``e_last``. With
    no rows the first unit vector is returned; a matrix with no more columns
    than rows raises ``NumericalRankError``. Nothing decides a rank, so no
    tolerance enters: the caller's eigen-residual check certifies.
    """
    import numpy as np

    num_rows, num_cols = a.shape
    x = np.zeros(num_cols)
    if not num_rows:
        x[0] = 1.0
        return x
    if num_rows >= num_cols:
        raise NumericalRankError("no more columns than rows; rerun in exact mode")
    # row j of h from column j on is reflector j once its head, R's diagonal, is set to 1
    h, tau = np.linalg.qr(a.T, mode="raw")
    np.fill_diagonal(h, 1.0)
    x[-1] = 1.0
    for j, t in reversed(list(enumerate(tau.tolist()))):  # Q e_last = H_0 ... H_{r-1} e_last
        v, tail = h[j, j:], x[j:]
        tail -= t * (v @ tail) * v
    return x


def _check_float_solve_size(H: InducedSubgraph, num_cols: int) -> None:
    """Refuse, before any dense allocation, a QR of the dense ``M[E', O]^T``
    that would exceed ``FLOAT_SOLVE_MAX_BYTES``: the block, numpy's working
    copy and LAPACK's column-major copy are alive at once. ``num_cols`` is
    |O|; half of Q_n is even, so ``|E'| = 2^(n-1) - |E| = 2^(n-1) - |H| + |O|``.
    With E' empty no QR runs and nothing dense is allocated."""
    num_rows = (1 << (H.n - 1)) - H.cardinality + num_cols
    needed = 3 * 8 * num_rows * num_cols
    if needed > FLOAT_SOLVE_MAX_BYTES:
        raise DenseSolveTooLargeError(
            f"float solve needs three copies of a dense {num_cols} x {num_rows} "
            f"matrix, {needed / 2**20:.0f} MiB, over the "
            f"{FLOAT_SOLVE_MAX_BYTES / 2**20:.0f} MiB bound"
        )


def positive_eigenvector_in_span(
    w: WeightConfig, H: InducedSubgraph, mode: Optional[ScalarMode] = None
) -> Multivector:
    """A nonzero ``omega`` supported on H with ``A omega = s omega``,
    normalized so its max-magnitude coordinate is +1: beta is the first
    vertex of largest ``|x_gamma|``, compared squared as
    ``y_gamma^2 lambda(v)`` on odd and ``y_gamma^2`` on even vertices, and
    ``omega = p + s q`` with ``p_beta = 1``.

    The restricted kernel is guaranteed nonzero by dimension counting
    whenever H is large; failure to find one is a bug, not an input error.
    """
    _check_solve_inputs(w, H)
    mode = resolve_mode(H.n, mode)
    if not mode.is_exact:
        omega = _float_eigenvector(w, H, mode)
        support = omega.nonzero()[0]
        return Multivector(H.n, dict(zip(support.tolist(), omega[support].tolist())))
    M = build_matrix(w, mode)
    columns = list(H.vertices())
    # row beta reads M[beta, O] y_O - y_beta = 0, for every even beta
    rows: Dict[int, Dict[int, Scalar]] = {}
    for gamma in columns:
        if gamma.bit_count() & 1:
            for beta, val in M.column(gamma):
                rows.setdefault(beta, {})[gamma] = val
        else:
            rows.setdefault(gamma, {})[gamma] = -1
    y = _first_kernel_vector([rows[b] for b in sorted(rows)], columns)
    if y is None:
        raise InvariantViolation(
            "no kernel vector in span(H) although |H| > 2^(n-1)"
        )
    lam = mode.convert(w.pairing)
    keys = ((g, y[g] * y[g] * (lam if g.bit_count() & 1 else 1)) for g in sorted(y))
    best = max(keys, key=itemgetter(1), default=None)
    if best is None or best[1] == 0:
        raise InvariantViolation("kernel vector is zero")
    beta = best[0]
    parity = beta.bit_count() & 1
    pivot = y[beta]
    q_pivot = pivot * lam if parity else pivot
    p = Multivector(H.n, {g: v / pivot for g, v in y.items() if g.bit_count() & 1 == parity})
    q = Multivector(H.n, {g: v / q_pivot for g, v in y.items() if g.bit_count() & 1 != parity})
    _certify_eigenpair(w, H, p, q, mode)
    return p + q.scaled(w.eigenvalue(mode))


def _certify_eigenpair(
    w: WeightConfig, H: InducedSubgraph, p: Multivector, q: Multivector, mode: ScalarMode
) -> None:
    """Raise unless p and q live on H and ``A q = p``, ``A p = lambda(v) q``
    hold exactly through the exterior path."""
    if any(beta not in H for beta in p.support() + q.support()):
        raise InvariantViolation("eigenvector support escapes H")
    lam = mode.convert(w.pairing)
    for image, target in ((apply_A(w, q, mode), p), (apply_A(w, p, mode), q.scaled(lam))):
        if image != target:
            raise InvariantViolation("exact eigenvector residual is nonzero")


def _odd_mask(n: int) -> int:
    """The 2^n-bit set of Q_n's odd vertices, in n doublings: the vertices
    with bit k set have the other parity of those below 2^k."""
    mask = 0
    for k in range(n):
        half = 1 << k
        mask |= (mask ^ ((1 << half) - 1)) << half
    return mask


def _bool_array(mask: int, size: int):
    """The bitset ``mask`` as a numpy bool array indexed by vertex."""
    import numpy as np

    raw = np.frombuffer(mask.to_bytes(-(-size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool)


def _float_eigenvector(w: WeightConfig, H: InducedSubgraph, mode: ScalarMode):
    """``positive_eigenvector_in_span`` in float mode, on numpy arrays
    indexed by vertex and one cube direction at a time: the block
    ``M[E', O]`` for the QR, ``y_E = M[E, O] y_O`` from the same entry
    arrays, the pick of beta, the split into p and q and their certificate.
    Returns omega as the dense array of its 2^n coordinates. |O| is counted
    and the solve size checked before anything is listed."""
    odd_mask = _odd_mask(H.n)
    _check_float_solve_size(H, (H.members & odd_mask).bit_count())
    import numpy as np

    n, size = H.n, 1 << H.n
    inside, odd_flag = _bool_array(H.members, size), _bool_array(odd_mask, size)
    along = float_entries(w, odd_flag)
    odd = np.flatnonzero(inside & odd_flag)
    entries = [along(odd, b) for b in range(n)]
    reached = np.zeros(size, dtype=bool)
    for b in range(n):
        reached[odd ^ (1 << b)] = True
    # E' in ascending order; an even vertex with no odd neighbour in H gets no row
    outside = np.flatnonzero(reached & ~inside)
    row_of = np.full(size, -1)
    row_of[outside] = np.arange(len(outside))
    block = np.zeros((len(outside), len(odd)))
    for b in range(n):
        rows = row_of[odd ^ (1 << b)]
        hit = rows >= 0
        block[rows[hit], np.flatnonzero(hit)] = entries[b][hit]
    y = np.zeros(size)
    y[odd] = _float_kernel_vector(block)
    # each even row adds its odd columns in ascending order, as the dict rows
    # did, so the sums round alike: the lower neighbours by descending b,
    # then the upper ones by ascending b
    image = np.zeros(size)
    for bit_set, directions in ((0, reversed(range(n))), (1, range(n))):
        for b in directions:
            picked = (odd >> b & 1) == bit_set
            cols = odd[picked]
            image[cols ^ (1 << b)] += entries[b][picked] * y[cols]
    y += np.where(inside, image, 0.0)

    lam = mode.convert(w.pairing)
    keys = y * y * np.where(odd_flag, lam, 1.0)
    beta = int(np.argmax(keys))
    if keys[beta] == 0:
        raise InvariantViolation("kernel vector is zero")
    pivot = y[beta]
    same = odd_flag == odd_flag[beta]
    p = np.where(same, y / pivot, 0.0)
    q = np.where(same, 0.0, y / (pivot * lam if odd_flag[beta] else pivot))
    _certify_float_eigenpair(w, inside, odd_flag, p, q, mode)
    return p + w.eigenvalue(mode) * q


def _certify_float_eigenpair(
    w: WeightConfig, inside, odd_flag, p, q, mode: ScalarMode
) -> None:
    """Raise unless the vertex-indexed arrays p and q vanish outside H
    (``inside``) and ``A q = p``, ``A p = lambda(v) q`` hold within ``tol``
    of each target's sup norm, through one call of the exterior path's
    array form on q and p stacked, which reads its signs from the vertex
    parities ``odd_flag``."""
    import numpy as np

    if np.any(((p != 0) | (q != 0)) & ~inside):
        raise InvariantViolation("eigenvector support escapes H")
    lam = mode.convert(w.pairing)
    images = apply_A_array(w, np.stack((q, p)), odd_flag)
    for image, target in zip(images, (p, lam * q)):
        if not mode.within(float(np.abs(image - target).max()), float(np.abs(target).max())):
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

    The verdict is the unnormalized form
    ``a*indeg + b*outdeg >= sqrt(lambda(v))`` (a, b the sup norms), the
    reported inequality scaled by ``sqrt(a*b) > 0``. Both sides are
    nonnegative, so it is squared and decided over Fractions in either
    mode; ``tol`` enters only ``marginal``.
    """
    mode = resolve_mode(H.n, mode)
    if w.n != H.n or omega.n != H.n:
        raise ValueError(
            f"dimension mismatch: weights n={w.n}, subgraph n={H.n}, omega n={omega.n}"
        )
    items = omega.items()
    if not items:
        raise ValueError("eigenvector is zero")
    if any(g not in H for g, _ in items):
        raise ValueError("eigenvector support is not contained in H")

    beta, coord = max(items, key=lambda item: magnitude_key(item[1]))
    return _report(w, H, mode, beta, -coord if coord < 0 else coord)


def _report(
    w: WeightConfig, H: InducedSubgraph, mode: ScalarMode, beta: int, coord: Scalar
) -> WitnessReport:
    """The report at the witness vertex beta, its coordinate made positive."""
    profile = H.degree_profile(beta)
    a, b = w.sup_lam, w.sup_v
    ratio = shared_sqrt(mode, a / b)
    bound_lhs = shared_sqrt(mode, w.pairing / (a * b))
    bound_rhs = ratio * profile.indegree + profile.outdegree / ratio
    certified = (a * profile.indegree + b * profile.outdegree) ** 2 >= w.pairing
    marginal = not mode.is_exact and mode.within(bound_rhs - bound_lhs, bound_lhs)

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


def run_pipeline(
    w: WeightConfig, H: InducedSubgraph, mode: Optional[ScalarMode] = None
) -> WitnessReport:
    """Eigenvector extraction followed by witness certification. A float
    report is read off the solve's array: beta is its first
    ``argmax(|omega|)``, the first maximum over ascending vertices, as
    ``extract_witness`` finds it."""
    mode = resolve_mode(H.n, mode)
    if mode.is_exact:
        return extract_witness(w, H, positive_eigenvector_in_span(w, H, mode), mode)
    _check_solve_inputs(w, H)
    omega = abs(_float_eigenvector(w, H, mode))
    beta = int(omega.argmax())
    return _report(w, H, mode, beta, float(omega[beta]))


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
