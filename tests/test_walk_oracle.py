"""The one bit walk and the one projector formula against the loops they replaced.

Core claims:
    - interior_product and wedge_lambda, now one walk over each basis
      form's bits, give the old separate loops' results for n = 1..6:
      floats bit for bit (``float.hex``), exact values by ``==``, also on
      coefficients in Q(s); so does apply_A, their sum
    - spectral_report's eigen check ``c - (sign * s) * a`` reports the old
      ``s_once`` loop's (projector_max_deviation, projector_ok), bit for
      bit, for uniform, non-uniform and +-1 (``huang_matrix``) matrices,
      and for a matrix with one entry flipped, whose checks fail
"""

import random
from fractions import Fraction

import pytest

from cubesense import (
    Multivector,
    ScalarMode,
    SignedCubeMatrix,
    WeightConfig,
    apply_A,
    build_matrix,
    huang_matrix,
    interior_product,
    spectral_report,
    wedge_lambda,
)

from helpers import (
    oracle_interior_product,
    oracle_projector_checks,
    oracle_wedge_lambda,
    random_coords,
    random_rational,
    random_weights,
)

MODES = [ScalarMode.exact(), ScalarMode.floating()]
MODE_IDS = ["exact", "float"]


def same(got, want):
    if isinstance(want, float):
        return type(got) is float and got.hex() == want.hex()
    return type(got) is type(want) and got == want


def same_multivector(got, want):
    return got.support() == want.support() and all(
        same(got.coefficient(m), c) for m, c in want.items()
    )


def random_omega(rng, n, mode, s):
    """Up to 2^n random terms; in exact mode some coefficients lie in Q(s)."""
    coeffs = {}
    for _ in range(rng.randrange(1, (1 << n) + 1)):
        c = mode.convert(random_rational(rng))
        if mode.is_exact and rng.random() < 0.5:
            c = c + random_rational(rng) * s
        coeffs[rng.randrange(1 << n)] = c
    return Multivector(n, coeffs)


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_walk_matches_separate_loops(mode, n):
    for seed in range(8):
        rng = random.Random(100 * n + seed)
        w = random_weights(rng, n)
        omega = random_omega(rng, n, mode, w.eigenvalue(mode))
        v = tuple(mode.convert(x) for x in random_coords(rng, n))
        lam = tuple(mode.convert(x) for x in random_coords(rng, n))
        assert same_multivector(interior_product(v, omega), oracle_interior_product(v, omega))
        assert same_multivector(wedge_lambda(lam, omega), oracle_wedge_lambda(lam, omega))
        want = oracle_interior_product(w.v_in(mode), omega) + oracle_wedge_lambda(
            w.lam_in(mode), omega
        )
        assert same_multivector(apply_A(w, omega, mode), want)


def flipped_entry(M):
    """M with the entry in row 1, column 0 negated: M^2 = lambda(v) I fails."""
    def coeff(gamma, b):
        value = M._coeff(gamma, b)
        return -value if (gamma, b) == (0, 0) else value

    return SignedCubeMatrix(M.n, coeff)


@pytest.mark.parametrize("kind", ["uniform", "non-uniform", "huang", "flipped"])
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("n", [1, 3, 5])
def test_projector_checks_match_s_once_loop(kind, mode, n):
    for seed in range(3):
        if kind == "huang":
            w, M = WeightConfig.uniform(n, 1, 1), huang_matrix(n)
        else:
            if kind == "non-uniform":
                w = random_weights(random.Random(seed), n)
            else:
                w = WeightConfig.uniform(n, Fraction(2, 3), Fraction(5, 2))
            M = build_matrix(w, mode)
            if kind == "flipped":
                M = flipped_entry(M)
        report = spectral_report(M, w, mode, num_vectors=3, seed=seed)
        worst, ok = oracle_projector_checks(M, w, mode, num_vectors=3, seed=seed)
        assert report.projector_max_deviation.hex() == worst.hex()
        assert report.projector_ok is ok
        if kind == "flipped":
            assert not ok
