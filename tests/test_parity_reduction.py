"""Parity reduction: the float witness comes from ker M[E', O] instead of the
whole restricted system, where E and O are the even and odd vertices of H
and E' the even vertices outside it.

Core claims:
    - exactly, over Q(sqrt(d)): the exact witness vector's odd part lies in
      ker M[E', O] and its even part is M[E, O] x_O / s (n <= 5)
    - the reduced system, the exact-mode even-row system and the whole
      rational one (``oracle_rational_rows``) have the same nullity, never
      below |H| - 2^(n-1) (exact ranks, n = 1..7)
    - the float vector the pipeline returns is a kernel vector of the whole
      float system; where that kernel is one-dimensional it is the whole
      system's SVD vector after normalization, and beta is exact mode's
      wherever exact mode's largest coordinate is unique
    - the edge cases E' empty (all even vertices plus one odd) and E empty
      but one (all odd vertices plus one even)
    - the size bound counts three copies of M[E', O] and refuses an
      oversized float solve before its QR runs, and before H's vertices
      are listed
"""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesense import (
    DenseSolveTooLargeError,
    InducedSubgraph,
    ScalarMode,
    WeightConfig,
    build_matrix,
    extract_witness,
    positive_eigenvector_in_span,
    run_pipeline,
)
from cubesense.exhaustive import sample_mask
from cubesense import witness
from cubesense.witness import _restricted_rows

from helpers import edge_subgraphs, oracle_parity_rows, oracle_rational_rows, random_weights

RATIOS = (Fraction(1, 2), Fraction(1), Fraction(2))
FLOAT = ScalarMode.floating()
VECTOR_TOL = 1e-8


def parity_split(H):
    """(E, O, E'): even and odd vertices of H, even vertices outside H."""
    even = [g for g in range(1 << H.n) if g.bit_count() % 2 == 0]
    inside = [g for g in even if g in H]
    odd = [g for g in H.vertices() if g.bit_count() % 2 == 1]
    outside = [g for g in even if g not in H]
    return inside, odd, outside


def exact_rank(rows, num_cols):
    """Rank over Q of sparse rows {column: Fraction}, by plain elimination."""
    active = [dict(r) for r in rows if r]
    rank = 0
    for col in range(num_cols):
        pivot = next((r for r in active if r.get(col)), None)
        if pivot is None:
            continue
        active.remove(pivot)
        rank += 1
        for row in active:
            factor = row.get(col)
            if factor:
                factor = factor / pivot[col]
                for c, val in pivot.items():
                    row[c] = row.get(c, 0) - factor * val
                    if row[c] == 0:
                        del row[c]
    return rank


def reduced_rows(M, H):
    """M[E', O] as sparse rows, built from the entry rule."""
    _, odd, outside = parity_split(H)
    rows = []
    for beta in outside:
        row = {j: M.entry(beta, gamma) for j, gamma in enumerate(odd)}
        rows.append({j: val for j, val in row.items() if val != 0})
    return rows


def dense(rows, num_cols):
    a = np.zeros((len(rows), num_cols))
    for i, row in enumerate(rows):
        for j, val in row.items():
            a[i, j] = val
    return a


def whole_float_system(w, H):
    columns = list(H.vertices())
    rows = _restricted_rows(build_matrix(w, FLOAT), w.eigenvalue(FLOAT), columns)
    return dense(rows, len(columns))


def unique_top(omega):
    mags = sorted((abs(float(c)) for _, c in omega.items()), reverse=True)
    return len(mags) == 1 or mags[0] - mags[1] > 1e-6 * mags[0]


def weight_configs(rng, n):
    return [WeightConfig.from_ratio(n, ratio) for ratio in RATIOS] + [random_weights(rng, n)]


def random_large(rng, n):
    size = rng.randrange((1 << (n - 1)) + 1, (1 << n) + 1)
    return InducedSubgraph(n, sample_mask(rng, 1 << n, size))


# -- the reduction over Q(sqrt(d)) ---------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_exact_witness_splits_by_parity(seed):
    rng = random.Random(seed)
    n = 1 + seed % 5
    for H in [random_large(rng, n)] + edge_subgraphs(n):
        inside, odd, outside = parity_split(H)
        for w in weight_configs(rng, n):
            M = build_matrix(w)
            s = w.eigenvalue()
            omega = positive_eigenvector_in_span(w, H, ScalarMode.exact())
            x_odd = [omega.coefficient(gamma) for gamma in odd]
            for beta in outside:
                image = sum((M.entry(beta, g) * x for g, x in zip(odd, x_odd)), Fraction(0))
                assert image == 0
            for beta in inside:
                image = sum((M.entry(beta, g) * x for g, x in zip(odd, x_odd)), Fraction(0))
                assert omega.coefficient(beta) == image / s


# -- nullity --------------------------------------------------------------------

def assert_same_nullity(w, H):
    n = H.n
    M = build_matrix(w)
    columns = list(H.vertices())
    _, odd, _ = parity_split(H)
    whole = len(columns) - exact_rank(oracle_rational_rows(M, w.pairing, columns), len(columns))
    reduced = len(odd) - exact_rank(reduced_rows(M, H), len(odd))
    even = len(columns) - exact_rank(oracle_parity_rows(M, columns), len(columns))
    assert whole == reduced == even >= H.cardinality - (1 << (n - 1))
    return whole


@pytest.mark.parametrize("seed", range(14))
def test_reduced_and_whole_nullity_agree(seed):
    rng = random.Random(100 + seed)
    n = 1 + seed % 7
    for H in [random_large(rng, n)] + edge_subgraphs(n):
        for w in weight_configs(rng, n):
            assert_same_nullity(w, H)


# -- the float path against the whole float system ---------------------------------

def check_float_against_whole(w, H):
    """Returns True when the whole kernel is one-dimensional, so the vector
    and (given a unique largest coordinate) beta were compared too."""
    columns = list(H.vertices())
    omega = positive_eigenvector_in_span(w, H, FLOAT)
    x = np.array([float(omega.coefficient(g)) for g in columns])
    a = whole_float_system(w, H)
    assert np.abs(a @ x).max() <= FLOAT.tol * max(1.0, np.abs(x).max())

    singular = np.linalg.svd(a, compute_uv=False)
    nullity = len(columns) - int((singular > FLOAT.tol * max(singular[0], 1.0)).sum())
    if nullity != 1:
        return False
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    top = int(np.argmax(np.abs(x)))  # x is normalized: x[top] == 1
    assert np.abs(vt[-1] / vt[-1][top] - x).max() <= VECTOR_TOL
    exact = positive_eigenvector_in_span(w, H, ScalarMode.exact())
    if unique_top(exact):
        expected = extract_witness(w, H, exact, ScalarMode.exact()).beta
        assert extract_witness(w, H, omega, FLOAT).beta == expected
    return True


def test_float_matches_whole_system():
    one_dimensional = 0
    for seed in range(21):
        rng = random.Random(200 + seed)
        n = 1 + seed % 7
        for H in [random_large(rng, n)] + edge_subgraphs(n):
            for w in weight_configs(rng, n):
                one_dimensional += check_float_against_whole(w, H)
    assert one_dimensional >= 100  # the vector comparison is not vacuous


@pytest.mark.parametrize("n", range(1, 8))
def test_edge_cases_are_one_dimensional(n):
    rng = random.Random(n)
    for H in edge_subgraphs(n):
        assert H.cardinality == (1 << (n - 1)) + 1
        for w in weight_configs(rng, n):
            assert assert_same_nullity(w, H) == 1
            assert check_float_against_whole(w, H)


positive_coord = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@st.composite
def weights_and_subgraph(draw):
    n = draw(st.integers(1, 6))
    size = draw(st.integers((1 << (n - 1)) + 1, 1 << n))
    vertices = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    coords = st.lists(positive_coord, min_size=n, max_size=n)
    w = draw(
        st.one_of(
            st.sampled_from(RATIOS).map(lambda ratio: WeightConfig.from_ratio(n, ratio)),
            st.tuples(coords, coords).map(lambda lv: WeightConfig(n, *lv)),
        )
    )
    return w, InducedSubgraph.from_vertices(n, vertices)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(weights_and_subgraph())
def test_float_matches_whole_system_generated(case):
    w, H = case
    assert_same_nullity(w, H)
    check_float_against_whole(w, H)


# -- the size bound -------------------------------------------------------------------

def test_size_bound_is_inclusive_and_checked_before_qr(monkeypatch):
    rng = random.Random(7)
    H = random_large(rng, 6)
    _, odd, outside = parity_split(H)
    needed = 3 * 8 * len(outside) * len(odd)
    w = WeightConfig.uniform(6)
    calls = []
    qr = np.linalg.qr

    def counted_qr(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(witness, "FLOAT_SOLVE_MAX_BYTES", needed)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    assert run_pipeline(w, H, FLOAT).certified
    assert calls == [(len(odd), len(outside))]  # the bound guards the QR that runs

    def no_qr(*args, **kwargs):
        raise AssertionError("the QR ran although the solve was refused")

    monkeypatch.setattr(witness, "FLOAT_SOLVE_MAX_BYTES", needed - 1)
    monkeypatch.setattr(np.linalg, "qr", no_qr)
    with pytest.raises(DenseSolveTooLargeError, match="bound"):
        run_pipeline(w, H, FLOAT)
    assert run_pipeline(w, H, ScalarMode.exact()).certified  # exact mode is not bounded


def test_refused_float_solve_lists_no_vertices():
    # |O| is counted from a stream of H's vertices: a list of H's 32769
    # vertices alone would take over 1 MiB, one pass of the stream ~130 KiB
    n = 16
    H = InducedSubgraph(n, sample_mask(random.Random(0), 1 << n, (1 << (n - 1)) + 1))
    w = WeightConfig.from_ratio(n, 1)
    tracemalloc.start()
    try:
        with pytest.raises(DenseSolveTooLargeError, match="bound"):
            positive_eigenvector_in_span(w, H, FLOAT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10
