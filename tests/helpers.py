"""Independent oracles and random generators shared by the test suite.

Everything here recomputes expected values from first principles (explicit
loops, itertools enumeration, dense cofactor expansion) so the production
bit-twiddling paths are checked against genuinely different code.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from cubesense import (
    EnumerationPlan,
    InducedSubgraph,
    Multivector,
    ScalarMode,
    SignedCubeMatrix,
    WeightConfig,
    apply_A,
    build_matrix,
)
from cubesense import exhaustive
from cubesense.exterior import Scalar, _accumulate
from cubesense.scalars import RationalLike, format_rational, sqrt_decompose
from cubesense.witness import (
    InvariantViolation,
    NumericalRankError,
    _float_kernel_vector,
    _restricted_rows,
)


# -- exact arithmetic oracles -------------------------------------------------

def oracle_squarefree(m: int) -> Tuple[int, int]:
    """Largest square divisor by descending enumeration: m = r*r*d."""
    for r in range(math.isqrt(m), 0, -1):
        if m % (r * r) == 0:
            return r, m // (r * r)
    raise AssertionError("unreachable for m >= 1")


def oracle_sqrt_decompose(q: Fraction) -> Tuple[Fraction, int]:
    m = q.numerator * q.denominator
    r, d = oracle_squarefree(m)
    return Fraction(r, q.denominator), d


class OracleQuadraticScalar:
    """An element ``x + y*sqrt(d)`` of Q(sqrt(d)), held as two Fractions.

    This is the Fraction-pair ``QuadraticScalar`` that the integer-triple
    one replaced, kept unchanged except for its name and ``__str__`` (the
    Q(sqrt(d)) branch of ``format_exact``) as the differential-test oracle.

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
    def sqrt_of(cls, q: RationalLike) -> "OracleQuadraticScalar":
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

    def _coerce(self, other: object) -> "OracleQuadraticScalar | None":
        """Bring ``other`` into this value's field, or None if impossible."""
        if isinstance(other, OracleQuadraticScalar):
            if other._d == self._d or other._y == 0:
                return other
            if self._y == 0:
                return other  # we are rational; adopt the other radicand
            raise ValueError(f"mixed radicands sqrt({self._d}) and sqrt({other._d})")
        if isinstance(other, (int, Fraction)):
            return OracleQuadraticScalar(other)
        return None

    def _parts(self, other: "OracleQuadraticScalar") -> tuple[Fraction, Fraction, int]:
        d = self._d if self._y != 0 else other._d
        return other._x, other._y, d

    def __add__(self, other: object) -> "OracleQuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ox, oy, d = self._parts(o)
        return OracleQuadraticScalar(self._x + ox, self._y + oy, d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "OracleQuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ox, oy, d = self._parts(o)
        return OracleQuadraticScalar(self._x - ox, self._y - oy, d)

    def __rsub__(self, other: object) -> "OracleQuadraticScalar":
        return (-self) + other

    def __neg__(self) -> "OracleQuadraticScalar":
        return OracleQuadraticScalar(-self._x, -self._y, self._d)

    def __mul__(self, other: object) -> "OracleQuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ox, oy, d = self._parts(o)
        return OracleQuadraticScalar(
            self._x * ox + d * self._y * oy,
            self._x * oy + self._y * ox,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "OracleQuadraticScalar":
        # (x + y*sqrt(d))^-1 = (x - y*sqrt(d)) / (x^2 - d*y^2)
        norm = self._x * self._x - self._d * self._y * self._y
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return OracleQuadraticScalar(self._x / norm, -self._y / norm, self._d)

    def __truediv__(self, other: object) -> "OracleQuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ox, oy, d = self._parts(o)
        return self * OracleQuadraticScalar(ox, oy, d).inverse()

    def __rtruediv__(self, other: object) -> "OracleQuadraticScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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

    def __abs__(self) -> "OracleQuadraticScalar":
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
        return f"OracleQuadraticScalar({self._x!r}, {self._y!r}, d={self._d})"

    def __str__(self) -> str:
        # format_exact's Q(sqrt(d)) branch
        if self.is_rational:
            return format_rational(self.x)
        sep = "-" if self.y < 0 else "+"
        return f"{format_rational(self.x)}{sep}{format_rational(abs(self.y))}*sqrt({self.d})"


# -- combinatorial oracles ----------------------------------------------------

def full_cube(n: int) -> InducedSubgraph:
    """Every vertex of Q_n."""
    return InducedSubgraph(n, (1 << (1 << n)) - 1)


def complemented(H: InducedSubgraph) -> InducedSubgraph:
    """Flip every coordinate of every vertex (reverses all edge directions)."""
    full = (1 << H.n) - 1
    return InducedSubgraph.from_vertices(H.n, (u ^ full for u in H.vertices()))


def oracle_max_degree(n: int, subset: Iterable[int]) -> int:
    vertices = set(subset)
    return max(
        sum((u ^ (1 << b)) in vertices for b in range(n)) for u in vertices
    )


def oracle_exhaustive(n: int, size: int) -> Tuple[int, Dict[int, int], int]:
    """(min over subsets of max degree, histogram, violations of ceil(sqrt n))."""
    scan = oracle_scan(n, oracle_colex(n, size))
    return scan["min_max_degree"], dict(sorted(scan["histogram"].items())), scan["violations"]


def oracle_scan(n: int, masks: Sequence[int]) -> dict:
    """A scan report's statistics over the masks in scan order: the argmin
    is the first mask reaching the minimum max degree."""
    bound = math.isqrt(n - 1) + 1
    degrees = [oracle_max_degree(n, [u for u in range(1 << n) if m >> u & 1]) for m in masks]
    least = min(degrees)
    return {
        "subsets_checked": len(masks),
        "min_max_degree": least,
        "argmin_subset": masks[degrees.index(least)],
        "histogram": dict(Counter(degrees)),
        "violations": sum(d < bound for d in degrees),
    }


def oracle_iter_bits(mask: int) -> Iterator[int]:
    """Set bit positions in ascending order by clearing the lowest bit each
    step (quadratic in the mask's length)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def oracle_sample_mask(rng: random.Random, universe: int, size: int) -> int:
    """Floyd's sampling with the subset kept as an int and each draw ORed in
    (quadratic in the universe): the reference for the seeded draw."""
    if not 0 < size <= universe:
        raise ValueError(f"cannot sample {size} of {universe}")
    mask = 0
    for j in range(universe - size, universe):
        t = rng.randrange(j + 1)
        if mask >> t & 1:
            mask |= 1 << j
        else:
            mask |= 1 << t
    return mask


def oracle_random_masks(n: int, size: int, count: int, seed: int) -> List[int]:
    """A random plan's sample: ``count`` sequential draws from one seeded rng."""
    rng = random.Random(seed)
    return [oracle_sample_mask(rng, 1 << n, size) for _ in range(count)]


def oracle_colex(n: int, size: int) -> List[int]:
    """Every size-subset of Q_n's vertices as a bitmask, in colex order
    (colex order of subsets is the numeric order of their bitmasks)."""
    return sorted(sum(1 << u for u in subset) for subset in combinations(range(1 << n), size))


def colex_from(mask: int, pool: int) -> Iterator[int]:
    """Gosper's hack (HAKMEM item 175) over the vertex set ``pool``, a
    bitmask: mask, a subset of pool, then each next subset of pool of the
    same size, ascending. The carry runs through the vertices outside pool,
    and the run it clears, less one vertex, refills pool's lowest ones."""
    lowest = [0]
    for v in islice(oracle_iter_bits(pool), mask.bit_count()):
        lowest.append(lowest[-1] | 1 << v)
    while True:
        yield mask
        ripple = ((mask | ~pool) + (mask & -mask)) & pool
        mask = ripple | lowest[len(lowest) - 1 - ripple.bit_count()]


def next_combination(mask: int) -> int:
    """The next bitmask with the same popcount, ascending: one step of
    Gosper's iteration."""
    return next(islice(colex_from(mask, (2 << mask.bit_length()) - 1), 1, None))


def rank_combination(mask: int) -> int:
    """The colex rank of a bitmask, ``sum C(c_i, i)`` over its set bits
    ``c_1 < ... < c_k``: the inverse of ``unrank_combination``."""
    return sum(math.comb(c, i + 1) for i, c in enumerate(oracle_iter_bits(mask)))


def unrank_combination(rank: int, k: int) -> int:
    """The rank-th (0-based) k-element bitmask in colex order.

    Combinatorial number system: rank = sum C(c_i, i) over the descending
    bit positions c_k > ... > c_1.
    """
    mask = 0
    for i in range(k, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= rank:
            c += 1
        rank -= math.comb(c, i)
        mask |= 1 << c
    return mask


def oracle_first_argmin(plan: EnumerationPlan, least: int) -> int:
    """The subset of smallest colex rank whose max degree is ``least``, from
    the unpruned colex order in the scan's block schedule (blocks of 64,
    256 and 1024 subsets, then full blocks), with both of its checks."""
    n = plan.n
    pieces = exhaustive._pool_bytes(n, exhaustive._cube(n), plan.subset_size, 0, plan.universe_size)
    for block in exhaustive._scan(n, zip(pieces, repeat(1)), (64, 256, 1024)):
        degree, mask = block.best
        if degree < least:
            raise InvariantViolation("a subset's max degree is below the slice's minimum")
        if degree == least:
            return mask
    raise InvariantViolation("no subset reaches the slice's minimum max degree")


# -- dense linear-algebra oracles ----------------------------------------------

def to_dense(M: SignedCubeMatrix) -> List[List]:
    return [[M.entry(r, c) for c in range(M.size)] for r in range(M.size)]


def dense_coefficients(omega: Multivector) -> List:
    """The 2^n coefficients of ``omega``, indexed by basis form."""
    return [omega.coefficient(mask) for mask in range(1 << omega.n)]


def sup_norm(omega: Multivector) -> float:
    """The largest ``|coefficient|`` of ``omega`` as a float; 0 if it is zero."""
    return max((abs(float(c)) for _, c in omega.items()), default=0.0)


def max_coordinate(pairs: Iterable[Tuple[int, Scalar]]) -> Optional[Tuple[int, Scalar]]:
    """The first (vertex, value) pair of largest ``|value|``; None if empty."""
    best = best_abs = None
    for vertex, val in pairs:
        mag = abs(val)
        if best_abs is None or mag > best_abs:
            best, best_abs = (vertex, val), mag
    return best


def dense_matmul(A: Sequence[Sequence], B: Sequence[Sequence]) -> List[List]:
    size = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def dense_matvec(A: Sequence[Sequence], x: Sequence) -> List:
    return [sum(row[j] * x[j] for j in range(len(x))) for row in A]


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return out


def charpoly(matrix: Sequence[Sequence]) -> List[Fraction]:
    """Coefficients (ascending powers of t) of det(M - t I), by cofactor
    expansion with polynomial entries. Exponential; fine for 4x4."""
    size = len(matrix)
    entries = [
        [
            [Fraction(matrix[i][j]), Fraction(-1)] if i == j else [Fraction(matrix[i][j])]
            for j in range(size)
        ]
        for i in range(size)
    ]

    def det(rows: List[int], cols: List[int]) -> List[Fraction]:
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total: List[Fraction] = [Fraction(0)]
        r = rows[0]
        for idx, c in enumerate(cols):
            minor = det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = poly_mul(entries[r][c], minor)
            if idx % 2:
                term = [-t for t in term]
            total = poly_add(total, term)
        return total

    return det(list(range(size)), list(range(size)))


def _normalize_max_coordinate(values: List[Scalar]) -> List[Scalar]:
    """Scale so the max-magnitude coordinate (first, i.e. smallest column,
    on ties) becomes exactly +1."""
    best = max_coordinate(enumerate(values))
    if best is None or best[1] == 0:
        raise InvariantViolation("kernel vector is zero")
    return [val / best[1] for val in values]


def oracle_even_rows(M: SignedCubeMatrix, columns: Sequence[int]) -> Dict[int, Dict[int, Scalar]]:
    """Rows ``M[beta, O]`` for every even ``beta``, keyed by the odd
    columns' positions in ``columns``. An even vertex with no odd neighbour
    among the columns gets no row. This is the position-keyed row builder
    both witness modes once shared."""
    rows: Dict[int, Dict[int, Scalar]] = {}
    for j, gamma in enumerate(columns):
        if gamma.bit_count() & 1:
            for beta, val in M.column(gamma):
                rows.setdefault(beta, {})[j] = val
    return rows


def oracle_first_kernel_vector(
    rows: List[Dict[int, Scalar]], num_cols: int
) -> Optional[List[Scalar]]:
    """Exact kernel vector for the first free column, columns ascending,
    with rows keyed by column position and a dense solution: the
    eliminator the vertex-keyed one replaced.

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


def oracle_vertex_kernel_vector(
    rows: List[Dict[int, Scalar]], columns: Sequence[int]
) -> Optional[Dict[int, Scalar]]:
    """Exact kernel vector ``{column: value}`` for the first free column,
    the columns taken in the order given: the vertex-keyed eliminator that
    the sparsest-row one replaced, which pivots each column on the first
    remaining row with a nonzero there.

    Forward elimination keeps the rows sparse as dicts keyed by column; a
    column with no pivot among the remaining rows is free, its coefficient
    is set to 1 and the pivot columns are back-substituted. Later columns
    are 0 and left out. Returns None when every column carries a pivot.
    """
    active = [dict(r) for r in rows]
    pivots: List[Tuple[int, Dict[int, Scalar]]] = []
    for col in columns:
        pivot_row: Optional[Dict[int, Scalar]] = None
        for idx, row in enumerate(active):
            if row.get(col):
                pivot_row = active.pop(idx)
                break
        if pivot_row is None:
            solution: Dict[int, Scalar] = {col: Fraction(1)}
            for pcol, prow in reversed(pivots):
                acc: Scalar = Fraction(0)
                for c, val in prow.items():
                    if c != pcol and solution.get(c):
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


def at_free_column(y: Optional[Dict[int, int]]) -> Optional[Dict[int, Fraction]]:
    """``witness._first_kernel_vector``'s integer vector in the form the
    Fraction eliminators above return: divided by its value at the free
    column, its first key, with keys and their order kept. Fails unless
    every value it is given is an int."""
    if y is None:
        return None
    assert all(type(v) is int for v in y.values()), y
    free = y[next(iter(y))]
    return {c: Fraction(v, free) for c, v in y.items()}


def integer_rows(rows: List[Dict[int, RationalLike]]) -> List[Dict[int, int]]:
    """Rational rows as the integer rows ``witness._first_kernel_vector``
    takes: every entry times ``den``, the lcm of all their denominators,
    in new dicts with the keys and their order kept."""
    den = math.lcm(*(v.denominator for r in rows for v in r.values()))
    return [{c: v.numerator * (den // v.denominator) for c, v in r.items()} for r in rows]


def oracle_eigenpair(w: WeightConfig, y: Dict[int, int]) -> Tuple[Multivector, Multivector]:
    """p and q of ``omega = p + s q`` read off the integer parity pair y
    over Fractions, as the pipeline normalizes it: beta is the first vertex
    of largest ``|x_gamma|``, compared as ``y_gamma^2 lambda(v)`` on odd
    and ``y_gamma^2`` on even vertices, and (p, q) is (y_E, y_O), or
    (y_O, y_E / lambda(v)) when beta is odd, divided by ``y_beta``."""
    lam = w.pairing
    keys = {g: y[g] ** 2 * (lam if g.bit_count() & 1 else 1) for g in sorted(y)}
    beta = max(keys, key=keys.__getitem__)
    if not keys[beta]:
        raise InvariantViolation("kernel vector is zero")
    parity = beta.bit_count() & 1
    p = {g: Fraction(c, y[beta]) for g, c in y.items() if g.bit_count() & 1 == parity}
    q = {g: Fraction(c, y[beta]) / (lam if parity else 1)
         for g, c in y.items() if g.bit_count() & 1 != parity}
    return Multivector(w.n, p), Multivector(w.n, q)


def oracle_certify_eigenpair(
    w: WeightConfig, H: InducedSubgraph, p: Multivector, q: Multivector, mode: ScalarMode
) -> None:
    """Raise unless p and q live on H and ``A q = p``, ``A p = lambda(v) q``
    hold exactly through ``apply_A`` on Fractions: the certificate that the
    integer one on the parity pair replaced."""
    if any(beta not in H for beta in p.support() + q.support()):
        raise InvariantViolation("eigenvector support escapes H")
    lam = mode.convert(w.pairing)
    for image, target in ((apply_A(w, q, mode), p), (apply_A(w, p, mode), q.scaled(lam))):
        if image != target:
            raise InvariantViolation("exact eigenvector residual is nonzero")


def oracle_parity_rows(M: SignedCubeMatrix, columns: Sequence[int]) -> List[Dict[int, Scalar]]:
    """Exact mode's system ``[M[E' u E, O] | -I_E]`` as the position-keyed
    path built it: ``oracle_even_rows`` plus a -1 at each even column,
    sorted by row. Row beta reads ``M[beta, O] y_O - y_beta = 0``."""
    rows = oracle_even_rows(M, columns)
    for j, gamma in enumerate(columns):
        if not gamma.bit_count() & 1:
            rows.setdefault(gamma, {})[j] = -1
    return [rows[b] for b in sorted(rows)]


def oracle_parity_pair(w: WeightConfig, H: InducedSubgraph) -> Dict[int, Fraction]:
    """Exact mode's parity pair ``y`` as the position-keyed path found it,
    keyed back by vertex, its zero coordinates left out."""
    columns = list(H.vertices())
    solution = oracle_first_kernel_vector(oracle_parity_rows(build_matrix(w), columns), len(columns))
    assert solution is not None, "large H always meets the positive eigenspace"
    return {g: v for g, v in zip(columns, solution) if v}


def oracle_quadratic_eigenvector(w: WeightConfig, H: InducedSubgraph) -> Multivector:
    """The exact eigenvector by direct elimination of ``(M - s I)``
    restricted to H over Q(sqrt(d)), ``s = sqrt(lambda(v))``: the first free
    column's kernel vector, normalized like the pipeline's."""
    columns = list(H.vertices())
    rows = _restricted_rows(build_matrix(w), w.eigenvalue(), columns)
    kernel = oracle_first_kernel_vector(rows, len(columns))
    assert kernel is not None, "large H always meets the positive eigenspace"
    return Multivector(H.n, dict(zip(columns, _normalize_max_coordinate(kernel))))


def oracle_float_kernel_vector(
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


def oracle_reflector_kernel_vector(a):
    """``witness._float_kernel_vector`` with its reflectors applied as they
    first were: numpy-scalar ``tau[j]`` and ``x[j:]`` sliced twice per step.
    The product it computes is the same, so the fast loop must match it
    byte for byte."""
    import numpy as np

    num_rows, num_cols = a.shape
    x = np.zeros(num_cols)
    if not num_rows:
        x[0] = 1.0
        return x
    if num_rows >= num_cols:
        raise NumericalRankError("no more columns than rows; rerun in exact mode")
    h, tau = np.linalg.qr(a.T, mode="raw")
    np.fill_diagonal(h, 1.0)
    x[-1] = 1.0
    for j in range(len(tau) - 1, -1, -1):  # Q e_last = H_0 ... H_{r-1} e_last
        v = h[j, j:]
        x[j:] -= tau[j] * (v @ x[j:]) * v
    return x


def oracle_float_eigenvector(w: WeightConfig, H: InducedSubgraph, mode: ScalarMode) -> Multivector:
    """``positive_eigenvector_in_span``'s float branch on dict rows, as it
    was: ``M[E', O]`` and ``M[E, O]`` from ``oracle_even_rows``, the E' rows
    filled into a dense block for the same QR, then the pick, the split and
    the certificate over dicts, the certificate through the dict walk of
    ``apply_A``."""
    import numpy as np

    M = build_matrix(w, mode)
    odd = [gamma for gamma in H.vertices() if gamma.bit_count() & 1]
    rows = oracle_even_rows(M, odd)
    members = H.members
    outside = sorted(beta for beta in rows if not members >> beta & 1)
    block = np.zeros((len(outside), len(odd)))
    for i, beta in enumerate(outside):
        for j, val in rows[beta].items():
            block[i, j] = val
    y_odd = _float_kernel_vector(block).tolist()
    y = dict(zip(odd, y_odd))
    for beta, row in rows.items():
        if members >> beta & 1:
            y[beta] = sum(val * y_odd[j] for j, val in row.items())
    lam = mode.convert(w.pairing)
    best = max_coordinate((g, y[g] * y[g] * (lam if g.bit_count() & 1 else 1)) for g in sorted(y))
    if best is None or best[1] == 0:
        raise InvariantViolation("kernel vector is zero")
    beta = best[0]
    parity = beta.bit_count() & 1
    pivot = y[beta]
    q_pivot = pivot * lam if parity else pivot
    p = Multivector(H.n, {g: v / pivot for g, v in y.items() if g.bit_count() & 1 == parity})
    q = Multivector(H.n, {g: v / q_pivot for g, v in y.items() if g.bit_count() & 1 != parity})
    if any(g not in H for g in p.support() + q.support()):
        raise InvariantViolation("eigenvector support escapes H")
    for image, target in ((apply_A(w, q, mode), p), (apply_A(w, p, mode), q.scaled(lam))):
        if not mode.within(sup_norm(image - target), sup_norm(target)):
            raise NumericalRankError("float eigenvector residual exceeds tolerance")
    return p + q.scaled(w.eigenvalue(mode))


def as_array(omega: Multivector):
    """A float multivector as the dense numpy array of its 2^n coefficients."""
    import numpy as np

    x = np.zeros(1 << omega.n)
    for mask, c in omega.items():
        x[mask] = c
    return x


def oracle_rational_rows(
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


# -- the operator path before the sign table and the operand swap --------------

def oracle_entry_rule(w: WeightConfig, mode: ScalarMode) -> Callable[[int, int], Scalar]:
    """``build_matrix``'s entry rule as it was: the magnitude is looked up
    and negated on every call."""
    lam = w.lam_in(mode)
    v = w.v_in(mode)

    def coeff(gamma: int, b: int) -> Scalar:
        mag = v[b] if gamma >> b & 1 else lam[b]
        return -mag if (gamma & ((1 << b) - 1)).bit_count() & 1 else mag

    return coeff


def oracle_apply(n: int, coeff: Callable[[int, int], Scalar], vec: Sequence[Scalar]) -> list:
    """``SignedCubeMatrix.apply`` as it was: the entry on the left of each product."""
    out = []
    for row in range(1 << n):
        acc = None
        for b in range(n):
            col = row ^ (1 << b)
            term = coeff(col, b) * vec[col]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def oracle_combine(
    half: Scalar, s_inv: Scalar, vec: Sequence[Scalar], image: Sequence[Scalar], sign: int
) -> list:
    """``EigenSplit._combine`` as it was: ``half * (x +- s_inv * y)``."""
    if sign > 0:
        return [half * (x + s_inv * y) for x, y in zip(vec, image)]
    return [half * (x - s_inv * y) for x, y in zip(vec, image)]


def oracle_square_deviation(
    M: SignedCubeMatrix, expected: Scalar, mode: ScalarMode
) -> Tuple[float, bool]:
    """``verify_square_identity``'s (max_deviation, ok) as it was: M's own
    entries composed, every deviation converted and tested."""
    scale = float(expected)
    worst = 0.0
    ok = True
    for gamma in range(M.size):
        acc: dict = {}
        for mid, val in M.column(gamma):
            for row, val2 in M.column(mid):
                acc[row] = acc.get(row, 0) + val2 * val
        acc[gamma] = acc.get(gamma, 0) - expected
        for dev in acc.values():
            worst = max(worst, abs(float(dev)))
            ok = ok and mode.within(dev, scale)
    return worst, ok


def oracle_projector_checks(
    M: SignedCubeMatrix, w: WeightConfig, mode: ScalarMode, num_vectors: int = 8, seed: int = 0
) -> Tuple[float, bool]:
    """``spectral_report``'s (projector_max_deviation, projector_ok) as it
    was: ``s P vec`` built as its own list, and the eigen check forked on
    ``c - d`` against ``c + d``."""
    s = w.eigenvalue(mode)
    half, s_inv = mode.convert(Fraction(1, 2)), 1 / s
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
            once = oracle_combine(half, s_inv, vec, image, sign)
            eigen_image = M.apply(once)
            twice = oracle_combine(half, s_inv, once, eigen_image, sign)
            s_once = [s * x for x in once]
            for a, b, c, d in zip(once, twice, eigen_image, s_once):
                for dev in (a - b, c - d if sign > 0 else c + d):
                    if dev:
                        worst = max(worst, abs(float(dev)))
                        ok = ok and mode.within(dev, scale)
    return worst, ok


# -- the two antiderivations as separate loops ----------------------------------

def oracle_interior_product(v: Sequence[Scalar], omega: Multivector) -> Multivector:
    """``interior_product`` as it was: each set bit's position counted as
    the loop meets it."""
    out: Dict[int, Scalar] = {}
    for mask, c in omega.items():
        pos = 0
        for b in range(omega.n):
            if mask >> b & 1:
                term = v[b] * c
                _accumulate(out, mask ^ (1 << b), -term if pos % 2 else term)
                pos += 1
    return Multivector(omega.n, out)


def oracle_wedge_lambda(lam: Sequence[Scalar], omega: Multivector) -> Multivector:
    """``wedge_lambda`` as it was: a set bit counts one transposition and
    is skipped, a clear bit is inserted."""
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


# -- random generators ---------------------------------------------------------

def edge_subgraphs(n: int) -> List[InducedSubgraph]:
    """The two large subgraphs of size 2^(n-1) + 1 where a parity block of
    the system degenerates: E' empty and E a single vertex."""
    even = [g for g in range(1 << n) if g.bit_count() % 2 == 0]
    odd = [g for g in range(1 << n) if g.bit_count() % 2 == 1]
    return [
        InducedSubgraph.from_vertices(n, even + odd[-1:]),  # E' empty
        InducedSubgraph.from_vertices(n, odd + even[:1]),  # E a single vertex
    ]


def random_rational(rng: random.Random, positive: bool = False) -> Fraction:
    lo = 1 if positive else -9
    num = rng.randrange(lo, 10)
    if not positive and num == 0:
        num = 1
    return Fraction(num, rng.randrange(1, 10))


def random_coords(rng: random.Random, n: int, positive: bool = False) -> Tuple[Fraction, ...]:
    return tuple(random_rational(rng, positive) for _ in range(n))


def random_weights(rng: random.Random, n: int, positive: bool = True) -> WeightConfig:
    """A random config with lambda(v) > 0 (retrying for sign-mixed draws)."""
    while True:
        lam = random_coords(rng, n, positive)
        v = random_coords(rng, n, positive)
        if sum(a * b for a, b in zip(lam, v)) > 0:
            return WeightConfig(n, lam, v)


def mixed_weights(rng: random.Random, n: int) -> WeightConfig:
    """Positive weights whose coordinates are k, k/2 and k/3 in turn, k
    prime to 6, so that their denominators differ."""
    coords = [Fraction(rng.choice((1, 5, 7)), 1 + i % 3) for i in range(2 * n)]
    return WeightConfig(n, coords[:n], coords[n:])


def random_multivector(rng: random.Random, n: int, terms: int = 6) -> Multivector:
    coeffs = {}
    for _ in range(terms):
        coeffs[rng.randrange(1 << n)] = random_rational(rng)
    return Multivector(n, coeffs)


def random_homogeneous(rng: random.Random, n: int, degree: int, terms: int = 4) -> Multivector:
    masks = [m for m in range(1 << n) if m.bit_count() == degree]
    coeffs = {}
    for _ in range(min(terms, len(masks))):
        coeffs[rng.choice(masks)] = random_rational(rng)
    return Multivector(n, coeffs)
