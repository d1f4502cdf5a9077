"""Rational core: the exact eigenvector found over Q and lifted by D is the
one found by direct elimination over Q(sqrt(d)).

Core claims:
    - for random large H with n = 1..6, uniform weights at C in {1/2, 1, 2}
      and non-uniform weights, the normalized omega is identical to the
      oracle's, coordinate by coordinate and in printed form
    - the same holds when the pairing is a perfect square, so s is rational
      and Q(sqrt(d)) folds to d = 1
    - both also hold where the even-row system degenerates: the full cube,
      E' empty, and E a single vertex
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesense import (
    InducedSubgraph,
    ScalarMode,
    WeightConfig,
    positive_eigenvector_in_span,
)
from cubesense.exhaustive import sample_mask
from cubesense.scalars import format_exact

from helpers import edge_subgraphs, oracle_quadratic_eigenvector, random_weights

RATIOS = (Fraction(1, 2), Fraction(1), Fraction(2))


def assert_matches_oracle(w, H):
    omega = positive_eigenvector_in_span(w, H, ScalarMode.exact())
    expected = oracle_quadratic_eigenvector(w, H)
    assert omega == expected
    printed = [(m, format_exact(c)) for m, c in omega.items()]
    assert printed == [(m, format_exact(c)) for m, c in expected.items()]


@pytest.mark.parametrize("seed", range(12))
def test_matches_direct_elimination(seed):
    rng = random.Random(seed)
    n = 1 + seed % 6
    size = rng.randrange((1 << (n - 1)) + 1, (1 << n) + 1)
    full = InducedSubgraph(n, (1 << (1 << n)) - 1)
    for H in [InducedSubgraph(n, sample_mask(rng, 1 << n, size)), full] + edge_subgraphs(n):
        for ratio in RATIOS:
            assert_matches_oracle(WeightConfig.from_ratio(n, ratio), H)
        assert_matches_oracle(random_weights(rng, n), H)


def test_matches_direct_elimination_perfect_square_pairing():
    configs = [WeightConfig.from_ratio(4, ratio) for ratio in RATIOS]
    configs.append(WeightConfig(4, (1, 2, 3, 4), (2, 1, 1, Fraction(1, 2))))
    rng = random.Random(4)
    for w in configs:
        assert w.eigenvalue().d == 1  # pairing 4 or 9
        for size in (9, 12, 16):
            assert_matches_oracle(w, InducedSubgraph(4, sample_mask(rng, 16, size)))


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
def test_matches_direct_elimination_generated(case):
    assert_matches_oracle(*case)
