"""The operator path against the code it replaced, on seeded inputs.

Core claims:
    - build_matrix's sign table gives the entries the per-call negation gave
    - apply with the vector entry on the left of each product, and
      _combine as ``(s_inv * y + x) * half`` and ``(x - s_inv * y) * half``,
      give the old results: floats bit for bit (``float.hex``), exact values
      by ``==``
    - verify_square_identity's integer composition of ``den * M`` reports
      the old max_deviation and verdict, also for matrices that fail
    - the cases cover uniform and non-uniform weights and the +-1 signing
      ``huang_matrix``, in both modes
"""

import random
from fractions import Fraction

import pytest

from cubesense import (
    EigenSplit,
    ScalarMode,
    SignedCubeMatrix,
    WeightConfig,
    build_matrix,
    huang_matrix,
    verify_square_identity,
)

from helpers import (
    oracle_apply,
    oracle_combine,
    oracle_entry_rule,
    oracle_square_deviation,
    random_rational,
    random_weights,
)

MODES = [ScalarMode.exact(), ScalarMode.floating()]
MODE_IDS = ["exact", "float"]
MATRICES = ["uniform", "non-uniform", "huang"]


def case(kind, n, mode, seed):
    """(weights, matrix, entry rule of the replaced code) for one case."""
    if kind == "huang":
        M = huang_matrix(n)
        return WeightConfig.uniform(n, 1, 1), M, M._coeff
    if kind == "uniform":
        w = WeightConfig.uniform(n, Fraction(2, 3), Fraction(5, 2))
    else:
        w = random_weights(random.Random(seed), n)
    return w, build_matrix(w, mode), oracle_entry_rule(w, mode)


def same(got, want):
    if isinstance(want, float):
        return type(got) is float and got.hex() == want.hex()
    return type(got) is type(want) and got == want


def random_vector(rng, size, mode, s):
    """Rationals, and in exact mode also values ``x + y*s`` of Q(s)."""
    vec = [mode.convert(random_rational(rng)) for _ in range(size)]
    if mode.is_exact and rng.random() < 0.5:
        vec = [x + random_rational(rng) * s for x in vec]
    return vec


@pytest.mark.parametrize("kind", MATRICES)
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_entries_match_negation_per_call(kind, mode, n):
    for seed in range(3):
        _, M, old = case(kind, n, mode, seed)
        for gamma in range(M.size):
            for b in range(n):
                assert same(M._coeff(gamma, b), old(gamma, b)), (gamma, b)


@pytest.mark.parametrize("kind", MATRICES)
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("n", [1, 3, 5])
def test_apply_and_combine_match_replaced_code(kind, mode, n):
    for seed in range(4):
        rng = random.Random(1000 * n + seed)
        w, M, old = case(kind, n, mode, seed)
        split = EigenSplit(M, w, mode)
        vec = random_vector(rng, M.size, mode, split.s)
        image = M.apply(vec)
        want_image = oracle_apply(n, old, vec)
        assert all(same(g, o) for g, o in zip(image, want_image))
        for sign in (1, -1):
            got = split._combine(vec, image, sign)
            want = oracle_combine(split._half, split._s_inv, vec, want_image, sign)
            assert all(same(g, o) for g, o in zip(got, want))
            # a second round starts from Q(s) values in exact mode
            assert all(same(g, o) for g, o in zip(M.apply(got), oracle_apply(n, old, want)))


def flipped(M, at):
    """M with the entry at (column, flipped bit) ``at`` negated."""
    def coeff(gamma, b):
        value = M._coeff(gamma, b)
        return -value if (gamma, b) == at else value

    return SignedCubeMatrix(M.n, coeff)


@pytest.mark.parametrize("kind", MATRICES)
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_square_identity_matches_replaced_loop(kind, mode):
    n = 4
    for seed in range(3):
        w, M, _ = case(kind, n, mode, seed)
        other = random_weights(random.Random(50 + seed), n)
        rng = random.Random(seed)
        at = (rng.randrange(M.size), rng.randrange(n))
        for matrix, weights in ((M, w), (M, other), (flipped(M, at), w)):
            report = verify_square_identity(matrix, weights, mode)
            want = oracle_square_deviation(matrix, mode.convert(weights.pairing), mode)
            assert (report.max_deviation, report.ok) == want
            assert report.max_deviation.hex() == want[0].hex()
