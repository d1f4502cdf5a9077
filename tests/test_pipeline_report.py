"""The pipeline's report against the public two-step path.

In float mode ``run_pipeline`` takes beta as the first ``argmax(|omega|)``
of the solve's array and never hands omega to ``extract_witness``; exact
mode runs the two-step path itself, and is checked here so it stays so.

Core claims:
    - ``run_pipeline(w, H, mode)`` equals
      ``extract_witness(w, H, positive_eigenvector_in_span(w, H, mode), mode)``
      in every field, the type of ``omega_beta`` included, and in
      ``to_json_dict()``: float for n = 1..10 and exact for n = 1..7, on the
      full cube, ``edge_subgraphs`` and seeded random H, with
      C in {1/2, 1, 2} and ``random_weights``, plus a derandomized
      hypothesis case
    - float beta is the first of largest ``|omega|``, not the vertex the
      solve normalized at: a -1.0 that rounds level with the +1 and comes
      first is picked, as ``extract_witness`` picks it
    - it refuses the inputs the two-step path refuses, with the same error
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
    SubgraphTooSmallError,
    WeightConfig,
    extract_witness,
    positive_eigenvector_in_span,
    run_pipeline,
)
from cubesense import witness
from cubesense.exhaustive import sample_mask

from helpers import edge_subgraphs, full_cube, random_weights

EXACT, FLOAT = ScalarMode.exact(), ScalarMode.floating()
RATIOS = (Fraction(1, 2), Fraction(1), Fraction(2))
# Q_3 without 011: with OpenBLAS, the float omega at C = 1 is +1 at 111, where
# the solve normalized it, and -1.0 at 101
LEVEL_TIE = InducedSubgraph(3, 0b11110111)


def assert_report_off_the_solve(w, H, mode):
    report = run_pipeline(w, H, mode)
    expected = extract_witness(w, H, positive_eigenvector_in_span(w, H, mode), mode)
    assert report == expected
    assert type(report.omega_beta) is type(expected.omega_beta)
    assert report.to_json_dict() == expected.to_json_dict()


def cases(n, seed):
    rng = random.Random(seed)
    half = 1 << (n - 1)
    sizes = (half + 1, rng.randrange(half + 1, (1 << n) + 1))
    subgraphs = [full_cube(n)] + edge_subgraphs(n) + ([LEVEL_TIE] if n == 3 else [])
    subgraphs += [InducedSubgraph(n, sample_mask(rng, 1 << n, k)) for k in sizes]
    weights = [WeightConfig.from_ratio(n, ratio) for ratio in RATIOS] + [random_weights(rng, n)]
    return [(w, H) for H in subgraphs for w in weights]


@pytest.mark.parametrize("n", range(1, 11))
def test_float_report_matches_two_step_path(n):
    for w, H in cases(n, 900 + n):
        assert_report_off_the_solve(w, H, FLOAT)


@pytest.mark.parametrize("n", range(1, 8))
def test_exact_report_matches_two_step_path(n):
    for w, H in cases(n, 800 + n):
        assert_report_off_the_solve(w, H, EXACT)


def test_float_pick_is_the_first_largest_magnitude(monkeypatch):
    omega = np.array([0.25, 0.75, -0.25, 0.0, 0.0, -1.0, 0.75, 1.0])
    monkeypatch.setattr(witness, "_float_eigenvector", lambda w, H, mode: omega.copy())
    w = WeightConfig.uniform(3)
    report = run_pipeline(w, LEVEL_TIE, FLOAT)
    assert report.beta == 0b101 and report.omega_beta == 1.0
    assert report == extract_witness(w, LEVEL_TIE, Multivector(3, dict(enumerate(omega))), FLOAT)


def test_refuses_what_the_two_step_path_refuses():
    small = InducedSubgraph.from_vertices(3, [0, 1, 2, 3])
    for mode in (EXACT, FLOAT):
        with pytest.raises(SubgraphTooSmallError):
            run_pipeline(WeightConfig.uniform(3), small, mode)
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_pipeline(WeightConfig.uniform(4), full_cube(3), mode)


positive_coord = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@st.composite
def pipeline_cases(draw):
    mode = draw(st.sampled_from((EXACT, FLOAT)))
    n = draw(st.integers(1, 6 if mode.is_exact else 9))
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
    return w, InducedSubgraph.from_vertices(n, vertices), mode


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pipeline_cases())
def test_report_matches_two_step_path_generated(case):
    assert_report_off_the_solve(*case)
