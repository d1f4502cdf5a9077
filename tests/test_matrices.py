"""Signed cube matrices: structure, square identity, spectral split, signings.

Core claims:
    - build_matrix columns equal apply_A on basis forms (two code paths)
    - M^2 = lambda(v) I exactly, also against a dense-multiplication oracle;
      the check composes the matrix it is given, so a wrong one fails
    - trace is zero and the eigenvalue multiplicities are 2^(n-1) each
    - the n=2 characteristic polynomial is (t^2 - 2)^2 (cofactor oracle)
    - the recursive signing satisfies B_n^2 = n I and is switching
      equivalent to the operator matrix at a = b = 1
    - every 2-face of a +-1 signing carries edge-sign product -1
    - spectral_report applies M three times per spot-check vector
"""

import io
import random
from fractions import Fraction

import pytest

from cubesense import (
    EigenSplit,
    Multivector,
    ScalarMode,
    SignedCubeMatrix,
    WeightConfig,
    apply_A,
    build_matrix,
    four_cycle_products_negative,
    huang_matrix,
    operator_trace,
    spectral_report,
    switching_equivalent,
    verify_square_identity,
)

from helpers import charpoly, dense_matmul, random_weights, to_dense


def test_two_dimensional_golden_matrix():
    M = build_matrix(WeightConfig.uniform(2, 1, 1))
    # rows and columns ordered 00, 01, 10, 11
    assert to_dense(M) == [
        [0, 1, 1, 0],
        [1, 0, 0, -1],
        [1, 0, 0, 1],
        [0, -1, 1, 0],
    ]


def test_one_dimensional_matrix():
    M = build_matrix(WeightConfig(1, lam=(Fraction(3),), v=(Fraction(2),)))
    assert to_dense(M) == [[0, 2], [3, 0]]


def test_nonzero_count_and_support():
    for n in (1, 2, 3, 5):
        M = build_matrix(WeightConfig.uniform(n, 1, 1))
        entries = list(M.iter_entries())
        assert len(entries) == n * (1 << n) == M.nnz
        assert all((r ^ c).bit_count() == 1 for r, c, _ in entries)
        assert all(len(M.column(c)) == n for c in range(M.size))
    assert M.entry(0, 0) == 0
    assert M.entry(0, 3) == 0


def test_columns_match_exterior_path():
    rng = random.Random(21)
    for n in range(1, 7):
        w = random_weights(rng, n, positive=False)
        M = build_matrix(w)
        for gamma in range(1 << n):
            expected = apply_A(w, Multivector.basis(n, gamma))
            assert M.column(gamma) == expected.items()


def test_magnitude_pattern():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randrange(1, 7)
        w = random_weights(rng, n)
        M = build_matrix(w)
        for gamma in range(1 << n):
            for b in range(n):
                beta = gamma ^ (1 << b)
                entry = M.entry(beta, gamma)
                if beta & (1 << b):  # gamma -> beta: beta gained coordinate b+1
                    assert abs(entry) == abs(w.lam[b])
                else:  # beta -> gamma: the column lost coordinate b+1
                    assert abs(entry) == abs(w.v[b])


def test_square_identity_examples():
    assert verify_square_identity(
        build_matrix(WeightConfig.uniform(2, 1, 1)), WeightConfig.uniform(2, 1, 1)
    ).ok
    w = WeightConfig(2, lam=(Fraction(3), Fraction(4)), v=(Fraction(1), Fraction(2)))
    report = verify_square_identity(build_matrix(w), w)
    assert report.ok and report.expected == 11
    w4 = WeightConfig.uniform(4, 1, 1)
    report4 = verify_square_identity(build_matrix(w4), w4)
    assert report4.ok and report4.expected == 4


def test_square_identity_against_dense_oracle():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randrange(1, 5)
        w = random_weights(rng, n, positive=False)
        dense = to_dense(build_matrix(w))
        square = dense_matmul(dense, dense)
        for i in range(1 << n):
            for j in range(1 << n):
                assert square[i][j] == (w.pairing if i == j else 0)


def test_square_identity_composes_the_matrix_given():
    # M built for w1 squares to lambda1 I, so against w2 the deviation is
    # |lambda1 - lambda2| on the diagonal and zero elsewhere
    w1 = WeightConfig(3, lam=(Fraction(1, 3), Fraction(2), Fraction(5, 7)),
                      v=(Fraction(4, 9), Fraction(1), Fraction(3, 2)))
    w2 = WeightConfig(3, lam=(Fraction(2, 3), Fraction(2), Fraction(5, 7)),
                      v=(Fraction(4, 9), Fraction(1), Fraction(3, 2)))
    assert verify_square_identity(build_matrix(w1), w1).ok
    report = verify_square_identity(build_matrix(w1), w2)
    assert not report.ok
    assert report.max_deviation == float(abs(w1.pairing - w2.pairing)) == 0.14814814814814814
    float_mode = ScalarMode.floating()
    report = verify_square_identity(build_matrix(w1, float_mode), w2, float_mode)
    assert not report.ok
    assert report.max_deviation == pytest.approx(0.14814814814814814, rel=1e-12)


@pytest.mark.parametrize("weights", ["uniform", "non-uniform", "huang"])
@pytest.mark.parametrize("mode", [ScalarMode.exact(), ScalarMode.floating()], ids=["exact", "float"])
def test_square_identity_sees_one_flipped_sign(weights, mode):
    n = 4
    if weights == "huang":
        w = WeightConfig.uniform(n, 1, 1)
        base = huang_matrix(n)
    else:
        w = (WeightConfig.uniform(n, Fraction(2, 3), 3) if weights == "uniform"
             else random_weights(random.Random(5), n))
        base = build_matrix(w, mode)
    assert verify_square_identity(base, w, mode).ok

    def flipped(gamma, b):
        value = base.entry(gamma ^ (1 << b), gamma)
        return -value if (gamma, b) == (5, 2) else value

    report = verify_square_identity(SignedCubeMatrix(n, flipped), w, mode)
    assert not report.ok and report.max_deviation > 0


def test_square_identity_float_mode():
    mode = ScalarMode.floating()
    w = WeightConfig(3, lam=(Fraction(1, 3), Fraction(2), Fraction(5, 7)),
                     v=(Fraction(4, 9), Fraction(1), Fraction(3, 2)))
    report = verify_square_identity(build_matrix(w, mode), w, mode)
    assert report.ok
    assert report.max_deviation <= 1e-9 * float(w.pairing)


def test_trace_is_zero():
    rng = random.Random(24)
    for _ in range(20):
        n = rng.randrange(1, 7)
        w = random_weights(rng, n, positive=False)
        assert operator_trace(w) == 0


def test_spectral_report_examples():
    w3 = WeightConfig.uniform(3, 1, 1)
    report = spectral_report(build_matrix(w3), w3)
    assert report.ok
    assert report.trace == 0
    assert report.multiplicity_plus == 4 and report.multiplicity_minus == 4

    w1 = WeightConfig(1, lam=(Fraction(5),), v=(Fraction(2),))
    report1 = spectral_report(build_matrix(w1), w1)
    assert report1.ok
    assert report1.multiplicity_plus == 1 and report1.multiplicity_minus == 1
    assert report1.eigenvalue * report1.eigenvalue == 10


@pytest.mark.parametrize("num_vectors", [1, 8])
def test_spectral_report_one_image_per_vector(monkeypatch, num_vectors):
    # M v once per vector, shared by P_+ v and P_- v, then M P_+ v and M P_- v
    calls = []
    apply = SignedCubeMatrix.apply

    def counted(self, vec):
        calls.append(len(vec))
        return apply(self, vec)

    monkeypatch.setattr(SignedCubeMatrix, "apply", counted)
    w = WeightConfig.uniform(3, 1, 2)
    assert spectral_report(build_matrix(w), w, num_vectors=num_vectors).ok
    assert calls == [8] * (3 * num_vectors)


def test_two_dimensional_characteristic_polynomial():
    # det(M - tI) = (t^2 - 2)^2: eigenvalues +-sqrt(2), twice each
    M = build_matrix(WeightConfig.uniform(2, 1, 1))
    assert charpoly(to_dense(M)) == [
        Fraction(4), Fraction(0), Fraction(-4), Fraction(0), Fraction(1),
    ]
    report = spectral_report(M, WeightConfig.uniform(2, 1, 1))
    assert report.multiplicity_plus == 2 and report.multiplicity_minus == 2


def test_projectors_are_idempotent_exact():
    w = WeightConfig.uniform(4, 2, 3)
    split = EigenSplit(build_matrix(w), w)
    rng = random.Random(25)
    vec = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(16)]
    plus = split.project(vec, +1)
    minus = split.project(vec, -1)
    assert split.project(plus, +1) == plus
    assert split.project(minus, -1) == minus
    # P_+ + P_- = I
    assert [a + b for a, b in zip(plus, minus)] == vec


def test_huang_matrix_goldens():
    assert to_dense(huang_matrix(1)) == [[0, 1], [1, 0]]
    assert to_dense(huang_matrix(2)) == [
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, -1, 0],
    ]


def test_huang_square_identity():
    for n in range(1, 7):
        B = huang_matrix(n)
        assert verify_square_identity(B, WeightConfig.uniform(n, 1, 1)).ok
        dense = to_dense(B)
        square = dense_matmul(dense, dense)
        assert all(
            square[i][j] == (n if i == j else 0)
            for i in range(1 << n)
            for j in range(1 << n)
        )


def test_switching_identity_and_negation():
    B = huang_matrix(1)
    assert switching_equivalent(B, B) == [1, 1]
    negated = SignedCubeMatrix(1, lambda gamma, b: -1)
    assert switching_equivalent(B, negated) == [1, -1]


def test_switching_operator_to_huang():
    for n in range(1, 6):
        A = build_matrix(WeightConfig.uniform(n, 1, 1))
        B = huang_matrix(n)
        diag = switching_equivalent(A, B)
        assert diag is not None
        for u in range(1 << n):
            for b in range(n):
                v = u ^ (1 << b)
                assert diag[u] * A.entry(u, v) * diag[v] == B.entry(u, v)


def test_switching_rejects_weighted_matrices():
    M = build_matrix(WeightConfig.uniform(2, 2, 1))
    with pytest.raises(ValueError):
        switching_equivalent(M, huang_matrix(2))
    with pytest.raises(ValueError):
        switching_equivalent(huang_matrix(2), huang_matrix(3))


def test_switching_detects_inequivalence():
    # flip a single edge sign of B_2: the 2-face products break, so no
    # diagonal conjugation can restore the recursive signing
    B = huang_matrix(2)

    def tweaked(gamma, b):
        if (gamma, b) in ((0, 0), (1, 0)):
            return -B.entry(gamma ^ (1 << b), gamma)
        return B.entry(gamma ^ (1 << b), gamma)

    assert switching_equivalent(SignedCubeMatrix(2, tweaked), B) is None


def test_switching_checks_edges_off_the_spanning_tree():
    # B_3 on every tree edge (u & (u - 1), u), with the non-tree edge 1-3
    # flipped: the diagonal the tree forces is B_3's own, and only the
    # check over every edge can refuse it
    n = 3
    B = huang_matrix(n)
    edge = {1, 3}

    def tweaked(gamma, b):
        sign = B._coeff(gamma, b)
        return -sign if {gamma, gamma ^ (1 << b)} == edge else sign

    M = SignedCubeMatrix(n, tweaked)
    for u in range(1, 1 << n):
        p = u & (u - 1)
        assert M.entry(p, u) == B.entry(p, u) and M.entry(u, p) == B.entry(u, p)
    assert M.entry(1, 3) == -B.entry(1, 3) and M.entry(3, 1) == -B.entry(3, 1)
    assert switching_equivalent(M, B) is None
    assert switching_equivalent(B, M) is None


def test_four_cycle_products():
    for n in range(2, 7):
        assert four_cycle_products_negative(build_matrix(WeightConfig.uniform(n, 1, 1)))
        assert four_cycle_products_negative(huang_matrix(n))
    with pytest.raises(ValueError):
        four_cycle_products_negative(build_matrix(WeightConfig.uniform(2, 2, 2)))
    for n in (2, 3):  # the all-+1 signing: every 2-face has product +1
        assert not four_cycle_products_negative(SignedCubeMatrix(n, lambda gamma, b: 1))


def test_matrix_dump_format():
    M = build_matrix(WeightConfig.uniform(1, 1, 1))
    out = io.StringIO()
    M.dump(out, ScalarMode.exact())
    assert out.getvalue() == "1 0 1\n0 1 1\n"
    out = io.StringIO()
    M.dump(out, ScalarMode.floating())
    assert out.getvalue() == "1 0 1\n0 1 1\n"


def test_apply_validates_length():
    M = build_matrix(WeightConfig.uniform(2, 1, 1))
    with pytest.raises(ValueError):
        M.apply([1, 2, 3])


def test_matrix_dimension_cap():
    w = WeightConfig.uniform(21, 1, 1)  # cube allows it, matrices do not
    with pytest.raises(ValueError):
        build_matrix(w)
    with pytest.raises(ValueError):
        huang_matrix(21)
