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
    - the parity pair ``y`` that the vertex-keyed system solves for, an
      integer vector divided by its value at the free column, is exactly
      the one the position-keyed rows and dense-solution Fraction
      eliminator find (``helpers.oracle_parity_pair``), for
      n = 2..7, C in {1/2, 1, 2}, non-uniform weights and the degenerate
      subgraphs
    - beta, p and q read off the integer pair break ties as the Fraction
      keys did: on n = 3 and 4, C in {1, 2}, mixed denominators,
      ``random_weights`` and n = 4 subgraphs that meet sqrt(4) = 2 with
      equality, omega is the Q(sqrt(d)) oracle's, with ties between
      coordinates of either sign among the cases; and any nonzero
      integer multiple of the pair gives the same omega
    - normalization and the certificate run no Q(sqrt(d)) arithmetic: an
      exact eigenvector at n = 6 costs no division or addition there, and
      at most one multiplication (by s) per irrational coordinate
    - each identity of the certificate is load-bearing: pairs that break
      one of ``A q = p`` and ``A p = lambda(v) q``, or drop the lambda(v)
      factor, are refused in both modes, as integer parity pairs with
      ``den = 1000`` in exact mode and on vertex-indexed arrays in float
      mode
    - a genuine eigenpair whose support leaves H is refused in both modes
    - the integer certificate on the parity pair and the Fraction one on p
      and q (``helpers.oracle_certify_eigenpair``) agree: both accept every
      pair the pipeline solves for and refuse the same one-sided
      corruptions, for n = 1..7, C in {1/2, 1, 2, 3/5}, mixed
      denominators, a negative v coordinate and the n = 4 equality case
    - the integer certificate checks each identity: under an A that does
      not square to lambda(v), a pair meeting only one of them is refused
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
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
    interior_product,
    positive_eigenvector_in_span,
    wedge_lambda,
)
from cubesense import witness
from cubesense.exhaustive import sample_mask
from cubesense.scalars import format_exact
from cubesense.witness import _certify_eigenpair, _certify_float_eigenpair

from helpers import (
    as_array,
    at_free_column,
    edge_subgraphs,
    integer_rows,
    max_coordinate,
    mixed_weights,
    oracle_certify_eigenpair,
    oracle_eigenpair,
    oracle_max_degree,
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

def caught_pair(w, H):
    """The integer ``y`` exact ``positive_eigenvector_in_span`` solves for,
    caught on its way out of ``_first_kernel_vector``."""
    solve, solved = witness._first_kernel_vector, []

    def caught(rows, columns):
        solved.append(solve(rows, columns))
        return solved[-1]

    with mock.patch.object(witness, "_first_kernel_vector", caught):
        positive_eigenvector_in_span(w, H, ScalarMode.exact())
    [y] = solved
    return y


def solved_parity_pair(w, H):
    """``caught_pair`` divided by its value at the free column, its zero
    coordinates left out."""
    return {g: v for g, v in at_free_column(caught_pair(w, H)).items() if v}


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


# -- beta from the integer pair ------------------------------------------------

def tie_cases():
    """(w, H) pairs at n = 3 and 4, one random H of each large size plus the
    full cube and ``edge_subgraphs``, under C in {1, 2}, mixed denominators
    and ``random_weights``. Many reach their largest ``|omega|`` more than
    once. At n = 4 also the first 12 of the 9-subsets of max degree 2: with
    C = 1 they meet the bound sqrt(4) = 2 with equality."""
    rng = random.Random(29)
    cases = []
    for n in (3, 4):
        subgraphs = [InducedSubgraph(n, (1 << (1 << n)) - 1)] + edge_subgraphs(n)
        subgraphs += [InducedSubgraph(n, sample_mask(rng, 1 << n, k))
                      for k in range((1 << (n - 1)) + 1, 1 << n)]
        if n == 4:
            tight = (s for s in combinations(range(16), 9) if oracle_max_degree(4, s) == 2)
            subgraphs += [InducedSubgraph.from_vertices(4, s) for s in islice(tight, 12)]
        configs = [WeightConfig.from_ratio(n, 1), WeightConfig.from_ratio(n, 2),
                   mixed_weights(rng, n), random_weights(rng, n)]
        cases += [(w, H) for w in configs for H in subgraphs]
    return cases


def test_integer_beta_keys_break_ties_as_before():
    tied = opposite = 0
    for w, H in tie_cases():
        omega = positive_eigenvector_in_span(w, H, ScalarMode.exact())
        assert omega == oracle_quadratic_eigenvector(w, H), (H.members, w)
        _, top = max_coordinate(omega.items())
        tied += sum(c * c == top * top for _, c in omega.items()) > 1
        opposite += any(c == -top for _, c in omega.items())
    # ties are really decided, also between coordinates of opposite sign,
    # where the first maximum fixes the sign of omega
    assert tied >= 10 and opposite >= 3, (tied, opposite)


@pytest.mark.parametrize("factor", [-3, 1, 7, 2**70])
def test_any_integer_multiple_of_the_pair_gives_the_same_eigenvector(factor):
    # nothing after the eliminator reads the pair normalized at its free column
    solve = witness._first_kernel_vector

    def scaled(rows, columns):
        return {c: factor * v for c, v in solve(rows, columns).items()}

    expected = {(H.members, w): positive_eigenvector_in_span(w, H, ScalarMode.exact())
                for w, H in tie_cases()}
    with mock.patch.object(witness, "_first_kernel_vector", scaled):
        for (members, w), omega in expected.items():
            H = InducedSubgraph(w.n, members)
            assert positive_eigenvector_in_span(w, H, ScalarMode.exact()) == omega


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


def parity_pair(p, q):
    """The integer parity pair with ``y_E = k p`` and ``y_O = k q``, for p
    on even and q on odd vertices and k the lcm of their denominators: the
    pair that ``A q = p`` and ``A p = lambda(v) q`` certify."""
    assert not any(g.bit_count() & 1 for g in p.support())
    assert all(g.bit_count() & 1 for g in q.support())
    [pair] = integer_rows([dict(p.items() + q.items())])
    return pair


def certify(w, H, p, q, mode):
    """The pipeline's certificate for the mode: on the integer parity pair
    of p and q in exact mode, on arrays indexed by vertex in float mode."""
    if mode.is_exact:
        _certify_eigenpair(w, H, parity_pair(p, q))
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
    ``A p = lambda(v) q`` and a larger one at 11 only ``A q = p``. In exact
    mode all three pairs reach the certificate as integer parity pairs,
    with weights scaled by ``den = 1000``, so that reading
    ``den^2 lambda(v)`` as ``den lambda(v)`` refuses the genuine pair."""
    w = WeightConfig(2, (LOPSIDED,) * 2, (Fraction(1, LOPSIDED),) * 2)
    assert w.scaled_to_integers() == (LOPSIDED, (LOPSIDED**2,) * 2, (1,) * 2)
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


def test_integer_certificate_checks_each_identity(monkeypatch):
    """Neither identity is taken as implied by the other through
    ``A^2 = lambda(v)``: with the certificate's wedge doubled, its A squares
    to ``2 lambda(v)``, and a pair that meets only one identity under that
    A is refused."""
    w = WeightConfig.uniform(2)  # den = 1, lambda(v) = 2
    H = InducedSubgraph(2, 0b1111)

    def doubled(lam, x):
        return wedge_lambda([2 * a for a in lam], x)

    def A(x):
        return interior_product(w.v, x) + doubled(w.lam, x)

    y_odd, y_even = Multivector(2, {0b01: 1}), Multivector(2, {0b00: 2})
    first_only = y_odd + A(y_odd)  # y_E = A y_O
    second_only = y_even + A(y_even).scaled(Fraction(1, 2))  # y_O = A y_E / lambda(v)
    # and each misses the other identity
    assert A(A(y_odd)) != y_odd.scaled(2) and A(A(y_even).scaled(Fraction(1, 2))) != y_even
    monkeypatch.setattr(witness, "wedge_lambda", doubled)
    for x in (first_only, second_only):
        with pytest.raises(InvariantViolation, match="residual"):
            _certify_eigenpair(w, H, {g: int(c) for g, c in x.items()})


@pytest.mark.parametrize("mode", [ScalarMode.exact(), ScalarMode.floating()], ids=["exact", "float"])
def test_certificate_refuses_support_outside_h(mode):
    w = WeightConfig.uniform(2)
    q = Multivector(2, {0b01: mode.convert(1)})
    p = apply_A(w, q, mode)  # e_00 - e_11, and A p = 2 q
    certify(w, InducedSubgraph.from_vertices(2, [0b00, 0b01, 0b11]), p, q, mode)
    with pytest.raises(InvariantViolation, match="escapes"):
        certify(w, InducedSubgraph.from_vertices(2, [0b00, 0b01, 0b10]), p, q, mode)


# -- the integer certificate against the Fraction one --------------------------

CERTIFICATE_RATIOS = RATIOS + (Fraction(3, 5),)


def negative_v_weights(rng, n):
    """``random_weights`` of either sign, drawn until a v coordinate is negative."""
    while True:
        w = random_weights(rng, n, positive=False)
        if min(w.v) < 0:
            return w


def certificate_cases():
    """(w, H) pairs for n = 1..7: one random H of size 2^(n-1) + 1, one of
    a random large size and ``edge_subgraphs``, under C in {1/2, 1, 2, 3/5},
    ``mixed_weights`` and ``negative_v_weights``; and the first 6 of the
    n = 4 9-subsets of max degree 2 at C = 1, which meet the bound
    sqrt(4) = 2 with equality."""
    rng = random.Random(30)
    cases = []
    for n in range(1, 8):
        sizes = ((1 << (n - 1)) + 1, rng.randrange((1 << (n - 1)) + 1, (1 << n) + 1))
        subgraphs = [InducedSubgraph(n, sample_mask(rng, 1 << n, k)) for k in sizes]
        configs = [WeightConfig.from_ratio(n, ratio) for ratio in CERTIFICATE_RATIOS]
        configs += [mixed_weights(rng, n), negative_v_weights(rng, n)]
        cases += [(w, H) for w in configs for H in subgraphs + edge_subgraphs(n)]
    tight = (s for s in combinations(range(16), 9) if oracle_max_degree(4, s) == 2)
    w = WeightConfig.from_ratio(4, 1)
    return cases + [(w, InducedSubgraph.from_vertices(4, s)) for s in islice(tight, 6)]


def one_sided_corruptions(y, H):
    """Parity pairs that differ from y on one side only: the first and the
    last coordinate of y_E, then of y_O, raised by 1; the whole of y_E, then
    of y_O, doubled; and a coordinate 1 added at the first vertex outside H."""
    sides = ([g for g in y if not g.bit_count() & 1], [g for g in y if g.bit_count() & 1])
    bad = []
    for side in sides:
        bad += [{**y, g: y[g] + 1} for g in dict.fromkeys((side[0], side[-1]))]
        bad.append({g: 2 * c if g in side else c for g, c in y.items()})
    outside = next((g for g in range(1 << H.n) if g not in H), None)
    return bad + ([{**y, outside: 1}] if outside is not None else [])


def verdict(check, *args):
    try:
        check(*args)
    except InvariantViolation as error:
        return str(error)
    return None


def test_integer_certificate_agrees_with_fraction_oracle():
    exact = ScalarMode.exact()
    cases, refused = certificate_cases(), Counter()
    for w, H in cases:
        y = caught_pair(w, H)
        p, q = oracle_eigenpair(w, y)
        # the oracle reads p and q off y as the pipeline does
        assert p + q.scaled(w.eigenvalue()) == positive_eigenvector_in_span(w, H, exact)
        for pair in [y] + one_sided_corruptions(y, H):
            got = verdict(_certify_eigenpair, w, H, pair)
            expected = verdict(oracle_certify_eigenpair, w, H, *oracle_eigenpair(w, pair), exact)
            assert got == expected, (H.members, w, pair)
            assert (got is None) == (pair is y), (H.members, w, pair)
            refused[got] += 1
    assert refused[None] == len(cases)
    # both refusals are reached: a residual inside H and support outside it
    assert refused["exact eigenvector residual is nonzero"] > 0, refused
    assert refused["eigenvector support escapes H"] > 0, refused
