"""Float kernel vector: one Householder QR of a dense A^T against the SVD
oracle. The systems are drawn as sparse rows and handed over dense.

Core claims:
    - for wide sparse systems (full rank, duplicate rows, zero rows, one
      row, one more column than rows, and the cube's own ``M[E', O]``
      blocks) the vector has unit norm and
      ``||A x|| <= tol * max(1, ||A||) * ||x||``
    - where the kernel is one-dimensional it is the vector of
      ``oracle_float_kernel_vector`` (the SVD path it replaced) up to scale
    - no rows give the first unit vector; a system with no more columns
      than rows raises ``NumericalRankError``, singular or not
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesense import InducedSubgraph, ScalarMode, WeightConfig, build_matrix
from cubesense.exhaustive import sample_mask
from cubesense.witness import NumericalRankError, _float_kernel_vector

from helpers import edge_subgraphs, oracle_even_rows, oracle_float_kernel_vector

FLOAT = ScalarMode.floating()
RESIDUAL_TOL = 1e-12  # QR's backward error is a small multiple of c * 2^-52
GAP = 1e-6  # smallest singular value, relative to the largest, for a one-dimensional kernel
VECTOR_TOL = 1e-8


def dense(rows, num_cols):
    a = np.zeros((len(rows), num_cols))
    for i, row in enumerate(rows):
        for j, val in row.items():
            a[i, j] = val
    return a


def check_against_oracle(rows, num_cols):
    """Returns True when the kernel is one-dimensional, so the vector was
    compared with the oracle's too."""
    a = dense(rows, num_cols)
    x = _float_kernel_vector(a)
    assert x.shape == (num_cols,)
    assert abs(np.linalg.norm(x) - 1.0) <= RESIDUAL_TOL
    norm_a = np.linalg.norm(a, 2) if rows else 0.0
    assert np.linalg.norm(a @ x) <= RESIDUAL_TOL * max(1.0, norm_a) * np.linalg.norm(x)

    if len(rows) != num_cols - 1:
        return False
    singular = np.linalg.svd(a, compute_uv=False) if rows else np.ones(1)
    if singular[-1] <= GAP * max(singular[0], 1.0):
        return False
    expected = np.array(oracle_float_kernel_vector(rows, num_cols, FLOAT.tol))
    top = int(np.argmax(np.abs(expected)))
    assert np.abs(x / x[top] - expected / expected[top]).max() <= VECTOR_TOL
    return True


def random_row(rng, num_cols, density):
    row = {j: rng.uniform(-2.0, 2.0) for j in range(num_cols) if rng.random() < density}
    return row or {rng.randrange(num_cols): 1.0}


def random_system(rng, kind, num_cols):
    density = rng.choice((0.1, 0.3, 1.0))
    if kind == "one row":
        return [random_row(rng, num_cols, density)]
    if kind == "one more column":
        return [random_row(rng, num_cols, density) for _ in range(num_cols - 1)]
    rows = [random_row(rng, num_cols, density) for _ in range(rng.randrange(1, num_cols))]
    if kind == "duplicate rows":
        rows += [dict(rng.choice(rows)) for _ in range(min(3, num_cols - 1 - len(rows)))]
    elif kind == "zero rows":
        for i in rng.sample(range(len(rows)), (len(rows) + 1) // 2):
            rows[i] = {}
    return rows


KINDS = ("full rank", "duplicate rows", "zero rows", "one row", "one more column")


@pytest.mark.parametrize("kind", KINDS)
def test_fixed_seed_systems_against_oracle(kind):
    one_dimensional = 0
    for seed in range(12):
        rng = random.Random(f"{kind}:{seed}")
        num_cols = rng.choice((2, 3, 7, 20, 60))
        one_dimensional += check_against_oracle(random_system(rng, kind, num_cols), num_cols)
    if kind == "one more column":
        assert one_dimensional >= 6  # the vector comparison is not vacuous


def test_benchmark_sized_system_against_oracle():
    rng = random.Random(0)
    rows = [random_row(rng, 300, 0.05) for _ in range(250)]
    check_against_oracle(rows, 300)
    rows = [random_row(rng, 300, 0.05) for _ in range(299)]
    assert check_against_oracle(rows, 300)


@pytest.mark.parametrize("n", range(2, 9))
def test_cube_blocks_against_oracle(n):
    """The blocks the pipeline solves: ``M[E', O]`` of large subgraphs."""
    rng = random.Random(n)
    subgraphs = edge_subgraphs(n) + [
        InducedSubgraph(n, sample_mask(rng, 1 << n, size))
        for size in ((1 << (n - 1)) + 1, (1 << (n - 1)) + 1, (1 << (n - 1)) + 2)
    ]
    one_dimensional = 0
    for H in subgraphs:
        for ratio in (Fraction(1, 2), Fraction(1), Fraction(3)):
            M = build_matrix(WeightConfig.from_ratio(n, ratio), FLOAT)
            odd = [g for g in H.vertices() if g.bit_count() & 1]
            rows = oracle_even_rows(M, odd)
            one_dimensional += check_against_oracle(
                [rows[b] for b in sorted(rows) if b not in H], len(odd)
            )
    assert one_dimensional >= 3


def test_no_rows_give_the_first_unit_vector():
    assert _float_kernel_vector(np.zeros((0, 4))).tolist() == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "rows, num_cols",
    [
        ([{0: 1.0, 1: 1.0}, {0: 1.0, 1: 1.0}], 2),  # square and singular
        ([{0: 1.0}, {1: 1.0}, {0: 1.0, 1: 1.0}], 2),  # tall
        ([{}], 1),
    ],
)
def test_no_more_columns_than_rows_is_refused(rows, num_cols):
    with pytest.raises(NumericalRankError):
        _float_kernel_vector(dense(rows, num_cols))


entry = st.sampled_from((0.0, 0.0, 0.0, 1.0, -1.0, 0.5, -2.0, 3.0))


@st.composite
def wide_systems(draw):
    num_cols = draw(st.integers(2, 12))
    num_rows = draw(st.integers(1, num_cols - 1))
    rows = []
    for _ in range(num_rows):
        values = draw(st.lists(entry, min_size=num_cols, max_size=num_cols))
        rows.append({j: val for j, val in enumerate(values) if val})
    if num_rows >= 2 and draw(st.booleans()):
        rows[-1] = dict(rows[0])  # a duplicate row
    return rows, num_cols


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(wide_systems())
def test_generated_systems_against_oracle(case):
    check_against_oracle(*case)
