"""Float witnesses on arrays against the dict-row path they replaced.

Core claims:
    - ``matrices.float_entries`` gives ``build_matrix(w, float).entry`` on
      every column and direction, bit for bit (n <= 8, uniform and
      non-uniform weights)
    - ``exterior.apply_A_array`` gives the dict walk ``apply_A`` on random
      float multivectors, sparse and dense; it adds the same products in
      the same order, so the agreement is bit for bit, not only within
      1e-15 relative
    - the float ``positive_eigenvector_in_span`` returns the dict-row
      path's omega (``helpers.oracle_float_eigenvector``) bit for bit, so
      ``extract_witness`` reports the same beta, degrees, ``certified``,
      ``marginal`` and ``omega_beta``: n = 2..10 on fixed seeds, uniform
      and non-uniform weights, ``edge_subgraphs``, and a derandomized
      hypothesis case
    - the odd-vertex mask behind the |O| count holds exactly the vertices
      of odd popcount, and a float solve past the matrix cap is refused as
      before
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesense import (
    InducedSubgraph,
    Multivector,
    ScalarMode,
    WeightConfig,
    apply_A,
    build_matrix,
    extract_witness,
    positive_eigenvector_in_span,
)
from cubesense.exhaustive import sample_mask
from cubesense.exterior import apply_A_array
from cubesense.matrices import float_entries
from cubesense.witness import _odd_mask

from helpers import as_array, edge_subgraphs, full_cube, oracle_float_eigenvector, random_weights

FLOAT = ScalarMode.floating()
RATIOS = (Fraction(1, 2), Fraction(1), Fraction(2))


def parities(n):
    """The bool array of vertex parities, from the scalar popcount."""
    return np.array([u.bit_count() & 1 for u in range(1 << n)], dtype=bool)


def weight_configs(rng, n):
    return [WeightConfig.from_ratio(n, ratio) for ratio in RATIOS] + [random_weights(rng, n)]


# -- the array rules against their scalar forms ------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_float_entries_match_build_matrix(n):
    rng = random.Random(n)
    columns = np.arange(1 << n)
    for w in weight_configs(rng, n):
        M = build_matrix(w, FLOAT)
        along = float_entries(w, parities(n))
        for b in range(n):
            expected = [M.entry(gamma ^ (1 << b), gamma) for gamma in range(1 << n)]
            assert along(columns, b).tolist() == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_A_array_matches_dict_walk(n):
    rng = random.Random(50 + n)
    for _ in range(6):
        w = random_weights(rng, n)
        sparse = {rng.randrange(1 << n): rng.uniform(-3.0, 3.0) for _ in range(6)}
        dense = {mask: rng.uniform(-3.0, 3.0) for mask in range(1 << n)}
        for coeffs in (sparse, dense):
            omega = Multivector(n, coeffs)
            fast = apply_A_array(w, as_array(omega), parities(n))
            assert fast.tolist() == as_array(apply_A(w, omega, FLOAT)).tolist()


# -- the pipeline against the dict-row path ---------------------------------------

def assert_matches_dict_rows(w, H):
    omega = positive_eigenvector_in_span(w, H, FLOAT)
    expected = oracle_float_eigenvector(w, H, FLOAT)
    assert omega.items() == expected.items()
    report = extract_witness(w, H, omega, FLOAT).to_json_dict()
    assert report == extract_witness(w, H, expected, FLOAT).to_json_dict()


@pytest.mark.parametrize("n", range(2, 11))
def test_matches_dict_rows(n):
    rng = random.Random(300 + n)
    half = 1 << (n - 1)
    sizes = (half + 1, half + 1, rng.randrange(half + 2, (1 << n) + 1))
    subgraphs = [InducedSubgraph(n, sample_mask(rng, 1 << n, k)) for k in sizes]
    for H in subgraphs + edge_subgraphs(n):
        for w in weight_configs(rng, n):
            assert_matches_dict_rows(w, H)


positive_coord = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@st.composite
def weights_and_subgraph(draw):
    n = draw(st.integers(2, 7))
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weights_and_subgraph())
def test_matches_dict_rows_generated(case):
    assert_matches_dict_rows(*case)


# -- counting and capping before anything is listed ---------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_odd_mask_holds_the_odd_vertices(n):
    mask = _odd_mask(n)
    assert mask < 1 << (1 << n)
    assert [mask >> u & 1 for u in range(1 << n)] == [u.bit_count() & 1 for u in range(1 << n)]


def test_float_solve_past_the_matrix_cap_is_refused():
    # the whole cube admits the solve (E' is empty), and the cap still holds
    with pytest.raises(ValueError, match="capped at n=20"):
        positive_eigenvector_in_span(WeightConfig.uniform(21), full_cube(21), FLOAT)
