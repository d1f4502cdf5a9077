"""Witness pipeline: kernel extraction, certification, weighted scans.

Core claims:
    - the extracted omega is a genuine eigenvector supported in H with its
      max coordinate normalized to +1 (verified by independent matvec)
    - certification bound_rhs >= bound_lhs holds on every valid run; a
      failure would falsify the theorem and is treated as a build bug
    - the hand-solved n=1 and n=2 systems match frozen coordinates
    - beta is the first vertex of largest |omega_beta|, also when a
      coordinate mixes a rational and an irrational part
    - every kernel vector certifies, not just the canonical one
    - weighted scans at C and 1/C relate through coordinate complement
    - float mode reproduces exact answers within tolerance
    - the equality cases at n=4 and n=9 certify in both modes; only float
      mode flags them as marginal
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cubesense import (
    EigenSplit,
    InducedSubgraph,
    Multivector,
    QuadraticScalar,
    ScalarMode,
    SubgraphTooSmallError,
    WeightConfig,
    apply_A,
    build_matrix,
    extract_witness,
    positive_eigenvector_in_span,
    run_pipeline,
    weighted_scan,
)
from cubesense.exhaustive import sample_mask
from cubesense.witness import (
    NumericalRankError,
    _first_kernel_vector,
    _float_kernel_vector,
)

from helpers import (
    complemented,
    dense_coefficients,
    dense_matvec,
    full_cube,
    max_coordinate,
    oracle_max_degree,
    to_dense,
)

ROOT2 = QuadraticScalar.sqrt_of(2)


def assert_is_eigenvector(w, omega, H):
    """Independent check: dense matvec equals s * omega, support inside H."""
    dense = to_dense(build_matrix(w))
    vec = dense_coefficients(omega)
    s = w.eigenvalue()
    image = dense_matvec(dense, vec)
    assert image == [s * x for x in vec]
    assert all(beta in H for beta in omega.support())
    assert max(abs(x) for x in vec) == 1


def test_one_dimensional_example():
    H = InducedSubgraph.from_vertices(1, [0, 1])
    w = WeightConfig.uniform(1, 1, 1)
    omega = positive_eigenvector_in_span(w, H)
    # s = 1; the kernel of [[-1, 1], [1, -1]] is spanned by (1, 1)
    assert dense_coefficients(omega) == [1, 1]
    report = extract_witness(w, H, omega)
    assert report.to_json_dict() == {
        "n": 1,
        "mode": "exact",
        "C": "1",
        "beta": "0",
        "omega_beta": "1",
        "indegree": 0,
        "outdegree": 1,
        "degree": 1,
        "bound_lhs": "1",
        "bound_rhs": "1",
        "certified": True,
        "marginal": False,
    }


def test_two_dimensional_example():
    # H = {00, 01, 11}: solving the exact 4x3 system over Q(sqrt(2)) gives
    # omega = (sqrt(2)/2, 1, -sqrt(2)/2) after max-coordinate normalization
    H = InducedSubgraph.from_vertices(2, [0b00, 0b01, 0b11])
    w = WeightConfig.uniform(2, 1, 1)
    omega = positive_eigenvector_in_span(w, H)
    root2 = QuadraticScalar.sqrt_of(2)
    half = Fraction(1, 2)
    assert omega == Multivector(
        2, {0b00: half * root2, 0b01: Fraction(1), 0b11: -half * root2}
    )
    assert_is_eigenvector(w, omega, H)

    report = extract_witness(w, H, omega)
    assert report.beta == 0b01
    assert report.profile.degree == 2
    assert report.certified and not report.marginal
    assert report.to_json_dict()["bound_lhs"] == "0+1*sqrt(2)"
    assert report.to_json_dict()["bound_rhs"] == "2"


def test_full_cube_uses_projector_image():
    # span(H) is everything: P_+ e*_0, rescaled, is itself a valid witness
    w = WeightConfig.uniform(3, 1, 1)
    H = full_cube(3)
    split = EigenSplit(build_matrix(w), w)
    basis0 = dense_coefficients(Multivector.basis(3, 0))
    image = split.project(basis0, +1)
    top = max(image, key=abs)
    omega = Multivector(3, {i: x / top for i, x in enumerate(image)})
    assert_is_eigenvector(w, omega, H)
    report = extract_witness(w, H, omega)
    assert report.certified

    pipeline = positive_eigenvector_in_span(w, H)
    assert_is_eigenvector(w, pipeline, H)


def test_weighted_four_dimensional_example():
    # a=4, b=1 (C=2) on the lower half plus one vertex: the witness sits at
    # 0000 and the bound holds with equality, 2*0 + (1/2)*4 = 2 = sqrt(4)
    H = InducedSubgraph.from_vertices(4, list(range(8)) + [8])
    w = WeightConfig.uniform(4, 4, 1)
    report = run_pipeline(w, H)
    assert report.to_json_dict() == {
        "n": 4,
        "mode": "exact",
        "C": "2",
        "beta": "0000",
        "omega_beta": "1",
        "indegree": 0,
        "outdegree": 4,
        "degree": 4,
        "bound_lhs": "2",
        "bound_rhs": "2",
        "certified": True,
        "marginal": False,
    }


def test_small_subgraph_refused():
    H = InducedSubgraph.from_vertices(2, [0b00, 0b01])
    with pytest.raises(SubgraphTooSmallError):
        positive_eigenvector_in_span(WeightConfig.uniform(2, 1, 1), H)


def test_extract_witness_validates_input():
    H = InducedSubgraph.from_vertices(2, [0b00, 0b01, 0b11])
    w = WeightConfig.uniform(2, 1, 1)
    with pytest.raises(ValueError):
        extract_witness(w, H, Multivector(2, {}))
    with pytest.raises(ValueError):
        extract_witness(w, H, Multivector.basis(2, 0b10))
    with pytest.raises(ValueError, match="support"):  # beta lies in H, a smaller coordinate not
        extract_witness(w, H, Multivector(2, {0b00: 2, 0b10: 1}))
    with pytest.raises(ValueError):
        extract_witness(WeightConfig.uniform(3, 1, 1), H, Multivector.basis(2, 0b00))


@pytest.mark.parametrize(
    "coords, beta",
    [
        # 1 + sqrt2 ~ 2.414 < 5/2, and 2 + sqrt2 ~ 3.414 > 3: x^2 + 2y^2 would
        # give 3 < 25/4 and 6 < 9, so a mixed coordinate needs the true square
        ({0b00: 1 + ROOT2, 0b01: Fraction(5, 2)}, 0b01),
        ({0b00: Fraction(5, 2), 0b01: 1 + ROOT2, 0b10: 3, 0b11: 2 + ROOT2}, 0b11),
        ({0b00: Fraction(1, 2), 0b01: 1 - ROOT2}, 0b00),
        ({0b00: -2 * ROOT2, 0b01: Fraction(-5, 2), 0b10: 2 + ROOT2}, 0b10),
        ({0b00: Fraction(1, 2) * ROOT2, 0b01: -1, 0b11: -Fraction(1, 2) * ROOT2}, 0b01),
        ({0b00: 2, 0b01: -2}, 0b00),  # ties go to the first vertex
        # floats are keyed by |value|: a signed key would pick 0b11 here
        ({0b00: 0.5, 0b01: -2.0, 0b11: 1.5}, 0b01),
        ({0b00: -2.0, 0b01: 2.0}, 0b00),
    ],
)
def test_extract_witness_picks_largest_magnitude(coords, beta):
    H = full_cube(2)
    omega = Multivector(2, coords)
    assert max_coordinate(omega.items())[0] == beta  # the abs rule it replaced
    mode = ScalarMode.floating() if isinstance(coords[beta], float) else None
    report = extract_witness(WeightConfig.uniform(2, 1, 1), H, omega, mode)
    assert report.beta == beta
    assert report.omega_beta == abs(coords[beta])


def test_random_runs_certify_and_verify():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(1, 5)
        size = (1 << (n - 1)) + 1 + rng.randrange(0, (1 << (n - 1)))
        H = InducedSubgraph(n, sample_mask(rng, 1 << n, size))
        w = WeightConfig.uniform(n, 1, 1)
        omega = positive_eigenvector_in_span(w, H)
        assert_is_eigenvector(w, omega, H)
        report = extract_witness(w, H, omega)
        assert report.certified
        assert report.beta == max_coordinate(omega.items())[0]
        # witness degree never beats the combinatorial maximum
        assert report.profile.degree <= H.max_degree()[1]


def test_nonuniform_weights_certify():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randrange(2, 5)
        lam = tuple(Fraction(rng.randrange(1, 6), rng.randrange(1, 4)) for _ in range(n))
        v = tuple(Fraction(rng.randrange(1, 6), rng.randrange(1, 4)) for _ in range(n))
        w = WeightConfig(n, lam, v)
        size = (1 << (n - 1)) + 1
        H = InducedSubgraph(n, sample_mask(rng, 1 << n, size))
        report = run_pipeline(w, H)
        assert report.certified


def test_every_kernel_vector_certifies():
    # the eigenvector is only unique up to the kernel dimension; with the
    # full cube the positive eigenspace has dimension 4 and each projected
    # basis vector is a distinct kernel vector
    w = WeightConfig.uniform(3, 1, 1)
    H = full_cube(3)
    split = EigenSplit(build_matrix(w), w)
    seen = set()
    for start in range(8):
        image = split.project(dense_coefficients(Multivector.basis(3, start)), +1)
        omega = Multivector(3, dict(enumerate(image)))
        if omega.is_zero:
            continue
        report = extract_witness(w, H, omega)
        assert report.certified
        assert report.beta == max_coordinate(omega.items())[0]
        seen.add(report.beta)
    assert len(seen) > 1  # genuinely different kernel vectors were certified


def test_scaled_weights_still_certify():
    H = InducedSubgraph.from_vertices(3, [0, 1, 2, 3, 5])
    for scale_lam, scale_v in [(1, 1), (3, 3), (2, 7), (Fraction(1, 2), 5)]:
        w = WeightConfig.uniform(3, Fraction(scale_lam), Fraction(scale_v))
        report = run_pipeline(w, H)
        assert report.certified


def test_weighted_scan_matches_single_runs():
    H = InducedSubgraph.from_vertices(3, [0b000, 0b001, 0b010, 0b011, 0b101])
    scans = weighted_scan(H, [Fraction(1, 2), Fraction(1), Fraction(2)])
    assert [r.to_json_dict() for r in scans] == [
        {
            "n": 3, "mode": "exact", "C": "1/2", "beta": "000", "omega_beta": "1",
            "indegree": 0, "outdegree": 2, "degree": 2,
            "bound_lhs": "0+1*sqrt(3)", "bound_rhs": "4",
            "certified": True, "marginal": False,
        },
        {
            "n": 3, "mode": "exact", "C": "1", "beta": "001", "omega_beta": "1",
            "indegree": 1, "outdegree": 2, "degree": 3,
            "bound_lhs": "0+1*sqrt(3)", "bound_rhs": "3",
            "certified": True, "marginal": False,
        },
        {
            "n": 3, "mode": "exact", "C": "2", "beta": "011", "omega_beta": "1",
            "indegree": 2, "outdegree": 0, "degree": 2,
            "bound_lhs": "0+1*sqrt(3)", "bound_rhs": "4",
            "certified": True, "marginal": False,
        },
    ]
    # C = 1 reduces to the plain unweighted pipeline
    plain = run_pipeline(WeightConfig.uniform(3, 1, 1), H)
    assert scans[1].to_json_dict() == plain.to_json_dict()


def test_weighted_scan_complement_symmetry():
    # complementing every vertex reverses all edges, so C on H plays the
    # role of 1/C on the complemented subgraph with in/out swapped
    rng = random.Random(47)
    H = InducedSubgraph(3, sample_mask(rng, 8, 5))
    for ratio in [Fraction(1, 2), Fraction(3), Fraction(5, 4)]:
        direct = weighted_scan(H, [ratio])[0]
        mirrored = weighted_scan(complemented(H), [1 / ratio])[0]
        assert direct.certified and mirrored.certified
        assert mirrored.beta == direct.beta ^ 0b111
        assert (mirrored.profile.indegree, mirrored.profile.outdegree) == (
            direct.profile.outdegree,
            direct.profile.indegree,
        )


def test_float_mode_matches_exact():
    rng = random.Random(53)
    mode = ScalarMode.floating()
    for _ in range(10):
        n = rng.randrange(2, 5)
        H = InducedSubgraph(n, sample_mask(rng, 1 << n, (1 << (n - 1)) + 1))
        w = WeightConfig.uniform(n, 1, 1)
        exact = run_pipeline(w, H, ScalarMode.exact())
        floaty = run_pipeline(w, H, mode)
        assert floaty.certified
        assert floaty.mode.kind == "float"
        assert abs(float(exact.bound_lhs) - floaty.bound_lhs) < 1e-9
        assert floaty.profile.degree ** 2 >= n


def test_float_rank_detection_failure():
    # a plainly full-rank system must be refused, pointing at exact mode
    with pytest.raises(NumericalRankError):
        _float_kernel_vector(np.identity(2))


def test_exact_kernel_of_full_rank_system_is_none():
    # every column carries a pivot, so no column is free
    assert _first_kernel_vector([{0: 1}, {1: 1}], [0, 1]) is None


def test_reports_serialize_deterministically():
    H = InducedSubgraph.from_vertices(2, [0b00, 0b01, 0b11])
    w = WeightConfig.uniform(2, 1, 1)
    first = json.dumps(run_pipeline(w, H).to_json_dict())
    second = json.dumps(run_pipeline(w, H).to_json_dict())
    assert first == second


def test_default_mode_switches_at_twelve():
    from cubesense.witness import resolve_mode

    assert resolve_mode(12, None).is_exact
    assert not resolve_mode(13, None).is_exact
    assert resolve_mode(13, ScalarMode.exact()).is_exact


@pytest.mark.parametrize("n, exact", [(12, True), (13, False)])
def test_library_default_mode_switches_at_twelve(n, exact):
    # without a mode, the matrix, exterior and witness layers all follow
    # the one default: exact up to n = 12, float beyond
    w = WeightConfig.uniform(n, 1, 1)
    M = build_matrix(w)
    rational = Fraction if exact else float
    assert isinstance(M.entry(1, 0), rational)
    assert isinstance(w.eigenvalue(), QuadraticScalar if exact else float)
    assert EigenSplit(M, w).mode.is_exact is exact
    image = apply_A(w, Multivector.basis(n, 0))
    assert all(isinstance(c, rational) for _, c in image.items())


@pytest.mark.parametrize("tol", [0.5, 0.49])
@pytest.mark.parametrize("vertex, degree", [(0b0100, 1), (0b0001, 2), (0b0000, 3)])
def test_float_tolerance_boundary(vertex, degree, tol):
    # at C = 1 on Q_4, bound_lhs = 2 and bound_rhs = degree, so diff is
    # exactly 0 or +-1, and the noise 2 * tol is exactly 1 at tol = 0.5:
    # marginal and certified follow the noise tol * max(1, |bound_lhs|)
    # on both sides of the boundary
    H = InducedSubgraph.from_vertices(4, [0b0000, 0b0001, 0b0010, 0b0100, 0b0011])
    assert H.degree_profile(vertex).degree == degree
    w = WeightConfig.uniform(4, 1, 1)
    report = extract_witness(w, H, Multivector.basis(4, vertex), ScalarMode.floating(tol))
    diff = report.bound_rhs - report.bound_lhs
    noise = tol * max(1.0, abs(report.bound_lhs))
    assert diff == degree - 2
    assert (report.marginal, report.certified) == (abs(diff) <= noise, diff >= -noise)
    assert report.marginal is (tol == 0.5 or degree == 2)
    assert report.certified is (tol == 0.5 or degree >= 2)


def test_equality_cases_at_n4():
    # the 9-subsets of Q_4 with max degree 2 = sqrt(4): at C = 1 the bound
    # holds with equality, which exact mode certifies outright and float
    # mode flags as marginal, because the float comparison is within noise
    subsets = [s for s in combinations(range(16), 9) if oracle_max_degree(4, s) == 2]
    assert len(subsets) == 48
    for subset in subsets:
        H = InducedSubgraph.from_vertices(4, subset)
        for ratio in (Fraction(1, 2), Fraction(1), Fraction(2)):
            w = WeightConfig.from_ratio(4, ratio)
            exact = run_pipeline(w, H, ScalarMode.exact())
            floaty = run_pipeline(w, H, ScalarMode.floating())
            assert exact.certified and floaty.certified
            assert exact.profile.degree == 2
            assert not exact.marginal
            assert (exact.bound_rhs == exact.bound_lhs) == (ratio == 1)
            assert floaty.marginal == (ratio == 1)


def test_equality_case_at_n9():
    # the sensitivity side of Chung-Furedi-Graham-Seymour: g is the OR over
    # the three 3-bit blocks of the AND of each block, and H = {g = parity}
    # has 2^8 + 1 vertices and max degree 3 = sqrt(9), so the bound is tight
    def g(x):
        return any(x >> (3 * k) & 0b111 == 0b111 for k in range(3))

    subset = [x for x in range(1 << 9) if g(x) == x.bit_count() % 2]
    assert len(subset) == 257
    assert oracle_max_degree(9, subset) == 3
    H = InducedSubgraph.from_vertices(9, subset)
    for ratio in (Fraction(1, 2), Fraction(1), Fraction(2)):
        w = WeightConfig.from_ratio(9, ratio)
        exact = run_pipeline(w, H, ScalarMode.exact())
        floaty = run_pipeline(w, H, ScalarMode.floating())
        assert exact.certified and floaty.certified
        assert exact.profile.degree == floaty.profile.degree == 3
        assert not exact.marginal
        assert (exact.bound_rhs == exact.bound_lhs) == (ratio == 1)
        assert floaty.marginal == (ratio == 1)
