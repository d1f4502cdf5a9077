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
    - the parity pair ``y`` that the vertex-keyed system solves for is
      exactly the one the position-keyed rows and dense-solution
      eliminator it replaced find (``helpers.oracle_parity_pair``), for
      n = 2..7, C in {1/2, 1, 2}, non-uniform weights and the degenerate
      subgraphs
    - normalization and the certificate run no Q(sqrt(d)) arithmetic: an
      exact eigenvector at n = 6 costs no division or addition there, and
      at most one multiplication (by s) per irrational coordinate
    - each identity of the certificate is load-bearing: pairs that break
      one of ``A q = p`` and ``A p = lambda(v) q``, or drop the lambda(v)
      factor, are refused in both modes, on Multivectors in exact mode and
      on vertex-indexed arrays in float mode
    - a genuine eigenpair whose support leaves H is refused in both modes
"""

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesense import (
    InducedSubgraph,
    InvariantViolation,
    Multivector,
    NumericalRankError,
    QuadraticScalar,
    ScalarMode,
    WeightConfig,
    apply_A,
    positive_eigenvector_in_span,
)
from cubesense import witness
from cubesense.exhaustive import sample_mask
from cubesense.scalars import format_exact
from cubesense.witness import _certify_eigenpair, _certify_float_eigenpair

from helpers import (
    as_array,
    edge_subgraphs,
    oracle_parity_pair,
    oracle_quadratic_eigenvector,
    random_weights,
    sup_norm,
)

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


# -- the vertex-keyed system against the position-keyed one ----------------------

def solved_parity_pair(w, H):
    """The ``y`` exact ``positive_eigenvector_in_span`` solves for, caught on
    its way out of ``_first_kernel_vector``, its zero coordinates left out."""
    solve, solved = witness._first_kernel_vector, []

    def caught(rows, columns):
        solved.append(solve(rows, columns))
        return solved[-1]

    with mock.patch.object(witness, "_first_kernel_vector", caught):
        positive_eigenvector_in_span(w, H, ScalarMode.exact())
    [y] = solved
    return {g: v for g, v in y.items() if v}


@pytest.mark.parametrize("n", range(2, 8))
def test_vertex_keyed_pair_matches_position_keyed(n):
    rng = random.Random(70 + n)
    sizes = ((1 << (n - 1)) + 1, rng.randrange((1 << (n - 1)) + 1, (1 << n) + 1))
    subgraphs = [InducedSubgraph(n, sample_mask(rng, 1 << n, k)) for k in sizes]
    for H in subgraphs + edge_subgraphs(n):
        for w in [WeightConfig.from_ratio(n, ratio) for ratio in RATIOS] + [random_weights(rng, n)]:
            assert solved_parity_pair(w, H) == oracle_parity_pair(w, H), (H.members, w)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(weights_and_subgraph())
def test_vertex_keyed_pair_matches_position_keyed_generated(case):
    w, H = case
    assert solved_parity_pair(w, H) == oracle_parity_pair(w, H)


# -- no Q(sqrt(d)) arithmetic outside the final sum ----------------------------

QS_OPERATIONS = {
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__", "__rtruediv__", "inverse"),
    "addsub": ("__add__", "__radd__", "__sub__", "__rsub__"),
}


@pytest.mark.parametrize("ratio", RATIOS)
def test_exact_eigenvector_runs_no_quadratic_arithmetic(monkeypatch, ratio):
    counts = Counter()
    for kind, names in QS_OPERATIONS.items():
        for name in names:
            def counted(*args, _op=vars(QuadraticScalar)[name], _kind=kind):
                counts[_kind] += 1
                return _op(*args)

            monkeypatch.setattr(QuadraticScalar, name, counted)
    rng = random.Random(6)
    w = WeightConfig.from_ratio(6, ratio)
    sizes = (33, 33, 40, 48, 64)
    for H in [InducedSubgraph(6, sample_mask(rng, 64, k)) for k in sizes] + edge_subgraphs(6):
        counts.clear()
        omega = positive_eigenvector_in_span(w, H, ScalarMode.exact())
        # s = sqrt(6): the irrational coordinates are exactly q's, scaled by s
        irrational = sum(
            isinstance(c, QuadraticScalar) and not c.is_rational for _, c in omega.items()
        )
        assert counts["div"] == 0 and counts["addsub"] == 0, (H.members, counts)
        assert counts["mul"] <= irrational, (H.members, counts)


# -- the certificate ----------------------------------------------------------------

LOPSIDED = 1000  # lambda = 1000, v = 1/1000


def holds(mode, image, target):
    return mode.within(sup_norm(image - target), sup_norm(target))


def certify(w, H, p, q, mode):
    """The pipeline's certificate for the mode: on Multivectors in exact
    mode, on arrays indexed by vertex in float mode."""
    if mode.is_exact:
        _certify_eigenpair(w, H, p, q, mode)
    else:
        inside = np.array([u in H for u in range(1 << H.n)])
        odd = np.array([u.bit_count() & 1 for u in range(1 << H.n)], dtype=bool)
        _certify_float_eigenpair(w, inside, odd, as_array(p), as_array(q), mode)


@pytest.mark.parametrize("mode", [ScalarMode.exact(), ScalarMode.floating()], ids=["exact", "float"])
def test_certificate_identities_are_load_bearing(mode):
    """The second identity's residual is A applied to the first's (A^2 is
    lambda(v)), so exactly they fail together. Within a tolerance they need
    not: these weights make A stretch the empty-set form by 1000 and shrink
    the top form by 1000, so a perturbation of p at 00 breaks only
    ``A p = lambda(v) q`` and a larger one at 11 only ``A q = p``."""
    w = WeightConfig(2, (LOPSIDED,) * 2, (Fraction(1, LOPSIDED),) * 2)
    lam = mode.convert(w.pairing)  # 2
    H = InducedSubgraph(2, 0b1111)
    q = Multivector(2, {0b01: mode.convert(1), 0b10: mode.convert(1)})
    p = apply_A(w, q, mode)  # 2/1000 at 00: A(e_01 + e_10) cancels at 11
    certify(w, H, p, q, mode)
    small, large = mode.convert(Fraction(1, 2 * 10**9)), mode.convert(Fraction(1, 10**8))
    only_first = (p + Multivector(2, {0b00: small}), q)
    only_second = (p + Multivector(2, {0b11: large}), q)
    lam_dropped = (p, q.scaled(lam))
    if not mode.is_exact:  # the pairs are one-sided as named
        for (p_bad, q_bad), first, second in (
            (only_first, True, False),
            (only_second, False, True),
        ):
            assert holds(mode, apply_A(w, q_bad, mode), p_bad) is first
            assert holds(mode, apply_A(w, p_bad, mode), q_bad.scaled(lam)) is second
    error = InvariantViolation if mode.is_exact else NumericalRankError
    for p_bad, q_bad in (only_first, only_second, lam_dropped):
        with pytest.raises(error):
            certify(w, H, p_bad, q_bad, mode)


@pytest.mark.parametrize("mode", [ScalarMode.exact(), ScalarMode.floating()], ids=["exact", "float"])
def test_certificate_refuses_support_outside_h(mode):
    w = WeightConfig.uniform(2)
    q = Multivector(2, {0b01: mode.convert(1)})
    p = apply_A(w, q, mode)  # e_00 - e_11, and A p = 2 q
    certify(w, InducedSubgraph.from_vertices(2, [0b00, 0b01, 0b11]), p, q, mode)
    with pytest.raises(InvariantViolation, match="escapes"):
        certify(w, InducedSubgraph.from_vertices(2, [0b00, 0b01, 0b10]), p, q, mode)
