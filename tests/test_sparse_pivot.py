"""The sparsest-row integer eliminator against the first-row Fraction one.

``witness._first_kernel_vector`` takes integer rows, eliminates them
fraction-free and pivots each column on the remaining row with the fewest
nonzeros; ``helpers.oracle_vertex_kernel_vector`` is the eliminator it
replaced, which pivots on the first remaining row over Fractions. Each
test hands the oracle rational rows and the eliminator the same rows
scaled to integers by ``helpers.integer_rows``. The row choice changes
only fill-in, and each integer row is a nonzero multiple of the Fraction
row, so the integer vector divided by its value at the free column
(``helpers.at_free_column``) must be the oracle's.

Core claims:
    - every value returned is an int
    - on the exact parity systems ``[M[E' u E, O] | -I_E]`` that
      ``positive_eigenvector_in_span`` solves (integer rows of ``den * M``
      and ``-den``, read back as Fractions), the normalized vector is the
      oracle's dict: the same keys in the same order, equal values of the
      same types. Covered: seeded random H for n = 2..8 (the sizes
      2^(n-1) + 1 and one larger), the full cube and both
      ``edge_subgraphs``, with C in {1/2, 1, 2}, ``random_weights`` and
      weights whose coordinates mix the denominators 1, 2 and 3
    - on the same (w, H) cases for n = 2..5, the pipeline's exact omega is
      the one a direct elimination of ``A - s I`` over Q(sqrt(d)) finds
      (``helpers.oracle_quadratic_eigenvector``)
    - on sparse systems whose kernel has dimension above 1, with the
      columns in shuffled order, so that the first free column decides the
      vector; the vector returned lies in the kernel. Their entries mix
      the denominators 1, 2 and 3
    - a system with a trivial kernel returns None from both
    - a derandomized hypothesis case over small sparse systems, whose
      Fraction entries, mostly -1, 0 and 1, make rows cancel and fill in
    - the rows passed in, rational and integer, are left as they were
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesense import InducedSubgraph, ScalarMode, WeightConfig, positive_eigenvector_in_span
from cubesense import witness
from cubesense.exhaustive import sample_mask
from cubesense.witness import _first_kernel_vector

from helpers import (
    at_free_column,
    edge_subgraphs,
    integer_rows,
    full_cube,
    mixed_weights,
    oracle_quadratic_eigenvector,
    oracle_vertex_kernel_vector,
    random_weights,
)

RATIOS = (Fraction(1, 2), Fraction(1), Fraction(2))


def assert_same_vector(rows, columns):
    before, scaled = [dict(r) for r in rows], integer_rows(rows)
    scaled_before = [dict(r) for r in scaled]
    got = at_free_column(_first_kernel_vector(scaled, columns))
    expected = oracle_vertex_kernel_vector(rows, columns)
    assert rows == before and scaled == scaled_before
    if expected is None:
        assert got is None
        return None
    assert list(got.items()) == list(expected.items())
    assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]
    return got


def parity_system(w, H):
    """The (rows, columns) exact ``positive_eigenvector_in_span`` eliminates,
    its integer entries read as Fractions, as the oracle takes them."""
    caught = []

    def catch(rows, columns):
        assert all(type(v) is int for r in rows for v in r.values())
        caught.append(([{c: Fraction(v) for c, v in r.items()} for r in rows], list(columns)))
        return _first_kernel_vector(rows, columns)

    with mock.patch.object(witness, "_first_kernel_vector", catch):
        positive_eigenvector_in_span(w, H, ScalarMode.exact())
    [system] = caught
    return system


def subgraphs(n, rng):
    sizes = ((1 << (n - 1)) + 1, rng.randrange((1 << (n - 1)) + 2, (1 << n) + 1))
    random_h = [InducedSubgraph(n, sample_mask(rng, 1 << n, k)) for k in sizes]
    return random_h + [full_cube(n)] + edge_subgraphs(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_parity_systems_match_first_row_pivots(n):
    rng, mixed_rng = random.Random(260 + n), random.Random(280 + n)
    for H in subgraphs(n, rng):
        configs = [WeightConfig.from_ratio(n, ratio) for ratio in RATIOS]
        for w in configs + [random_weights(rng, n), mixed_weights(mixed_rng, n)]:
            assert assert_same_vector(*parity_system(w, H)) is not None, (H.members, w)


@pytest.mark.parametrize("n", range(2, 6))
def test_quadratic_systems_match_first_row_pivots(n):
    # the eliminator takes rational rows only: the Q(sqrt(d)) system of
    # A - s I is solved by the oracle, and its eigenvector must be the
    # pipeline's, found from the rational parity system
    rng = random.Random(270 + n)
    for H in subgraphs(n, rng):
        for w in (WeightConfig.from_ratio(n, Fraction(1, 2)), random_weights(rng, n)):
            omega = positive_eigenvector_in_span(w, H, ScalarMode.exact())
            assert omega == oracle_quadratic_eigenvector(w, H), (H.members, w)


def random_system(rng, num_rows, columns, density):
    entries = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(8)]
    return [
        {c: rng.choice(entries) for c in columns if rng.random() < density}
        for _ in range(num_rows)
    ]


def residual(rows, x):
    return [sum((v * x.get(c, 0) for c, v in row.items()), Fraction(0)) for row in rows]


@pytest.mark.parametrize("seed", range(40))
def test_wide_systems_match_first_row_pivots(seed):
    rng = random.Random(seed)
    num_cols = rng.randrange(3, 25)
    columns = [10 * c + 7 for c in range(num_cols)]
    rng.shuffle(columns)
    rows = random_system(rng, rng.randrange(0, num_cols - 1), columns, rng.choice((0.2, 0.4, 0.7)))
    rows += [dict(rows[0])] if rows else []  # a repeated row changes no pivot
    x = assert_same_vector(rows, columns)
    assert x is not None  # at least two more columns than independent rows
    assert x[next(c for c in reversed(columns) if c in x)] == 1  # the free column is last
    assert not any(residual(rows, x))


def test_trivial_kernel_is_none():
    rng = random.Random(5)
    columns = list(range(12))
    rows = [{c: Fraction(1)} for c in columns]  # the identity, then mixed with later rows
    for i in range(11, -1, -1):
        for j in range(i):
            if rng.random() < 0.5:
                factor = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                for c, v in rows[i].items():
                    rows[j][c] = rows[j].get(c, 0) + factor * v
    rng.shuffle(rows)
    assert assert_same_vector(rows, columns) is None


small_entry = st.sampled_from([Fraction(k, 2) for k in (-2, 0, 2, 1, -3)])


@st.composite
def small_systems(draw):
    num_cols = draw(st.integers(1, 9))
    columns = draw(st.permutations(range(num_cols)))
    row = st.dictionaries(st.integers(0, num_cols - 1), small_entry, max_size=num_cols)
    return draw(st.lists(row, max_size=10)), columns


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_systems())
def test_small_systems_match_first_row_pivots_generated(system):
    rows, columns = system
    x = assert_same_vector(rows, columns)
    if x is not None:
        assert not any(residual(rows, x))
