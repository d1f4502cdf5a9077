"""Exact arithmetic: square-root decomposition and the quadratic field.

Core claims:
    - sqrt_decompose writes q = r^2 * d with d squarefree, exactly
    - non-positive radicands are rejected (no complexification)
    - Q(sqrt(d)) satisfies the field axioms with zero tolerance
    - signs and comparisons are decided by exact rational arithmetic
    - representation is canonical: d=1 folds into the rational part
"""

import random
from fractions import Fraction

import pytest

from cubesense import (
    PositivityError,
    QuadraticScalar,
    ScalarMode,
    format_exact,
    parse_rational,
    sqrt_decompose,
)
from cubesense.scalars import format_float, is_squarefree, squarefree_decompose

from helpers import oracle_sqrt_decompose


def test_sqrt_decompose_basics():
    assert sqrt_decompose(Fraction(2)) == (Fraction(1), 2)
    assert sqrt_decompose(Fraction(9)) == (Fraction(3), 1)
    # 8/27 = (2/9)^2 * 6, confirmed by the square-divisor oracle
    assert sqrt_decompose(Fraction(8, 27)) == (Fraction(2, 9), 6)
    assert oracle_sqrt_decompose(Fraction(8, 27)) == (Fraction(2, 9), 6)


def test_sqrt_decompose_rejects_nonpositive():
    with pytest.raises(PositivityError):
        sqrt_decompose(Fraction(0))
    with pytest.raises(PositivityError):
        sqrt_decompose(Fraction(-4, 9))
    with pytest.raises(PositivityError):
        squarefree_decompose(0)
    for q in (0, -1):
        with pytest.raises(PositivityError):
            ScalarMode.floating().sqrt(q)
    with pytest.raises(ValueError):
        QuadraticScalar(1, 1, 0)  # a radicand below 1


def test_sqrt_decompose_round_trip_random():
    rng = random.Random(20240801)
    for _ in range(1000):
        q = Fraction(rng.randrange(1, 5000), rng.randrange(1, 5000))
        r, d = sqrt_decompose(q)
        assert r * r * d == q
        assert is_squarefree(d)
        assert (r, d) == oracle_sqrt_decompose(q)


def test_field_basics():
    root2 = QuadraticScalar.sqrt_of(2)
    assert (1 + root2) * (1 - root2) == -1
    assert root2 * root2 == 2
    assert (3 - 2 * root2).sign() > 0
    assert (2 * root2 - 3).sign() < 0
    assert (root2 - root2).sign() == 0


def test_perfect_square_collapses_to_rational():
    s = QuadraticScalar.sqrt_of(Fraction(16))
    assert s.is_rational and s.rational_value == 4
    # d = 1 folds y into x
    assert QuadraticScalar(2, 3, 1) == 5
    # y = 0 normalizes the radicand away
    assert QuadraticScalar(2, 0, 7).d == 1


def test_mixed_radicands_rejected():
    a = QuadraticScalar.sqrt_of(2)
    b = QuadraticScalar.sqrt_of(3)
    with pytest.raises(ValueError):
        a + b
    assert not a == b
    # rational values mix freely regardless of nominal field
    assert a * 0 + b == b


def test_division():
    root2 = QuadraticScalar.sqrt_of(2)
    x = 3 + 2 * root2
    assert x * x.inverse() == 1
    assert (1 / root2) * root2 == 1
    assert x / x == 1
    with pytest.raises(ZeroDivisionError):
        (root2 * 0).inverse()


def test_field_axioms_random():
    rng = random.Random(99)
    d = 5
    def draw():
        return QuadraticScalar(
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)),
            d,
        )
    for _ in range(1000):
        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * a.inverse() == 1


def test_exact_sign_agrees_with_float():
    rng = random.Random(7)
    for _ in range(500):
        q = QuadraticScalar(
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 20)),
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 20)),
            rng.choice([2, 3, 5, 6, 7, 10]),
        )
        approx = float(q)
        if abs(approx) > 1e-9:  # binary64 resolves the sign comfortably here
            assert q.sign() == (1 if approx > 0 else -1)


def test_ordering_and_abs():
    root2 = QuadraticScalar.sqrt_of(2)
    assert root2 > 1
    assert root2 < Fraction(3, 2)
    assert abs(1 - root2) == root2 - 1
    values = [root2, -root2, QuadraticScalar(1), QuadraticScalar(0)]
    assert sorted(values) == [-root2, QuadraticScalar(0), QuadraticScalar(1), root2]


def test_hash_consistent_with_rational_equality():
    assert hash(QuadraticScalar(3, 0, 2)) == hash(Fraction(3))
    assert QuadraticScalar(3, 0, 2) == Fraction(3)


def test_parse_and_format():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("7") == 7
    assert parse_rational("0.5") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rational("abc")
    root2 = QuadraticScalar.sqrt_of(2)
    assert format_exact(Fraction(3, 2) + Fraction(1, 2) * root2) == "3/2+1/2*sqrt(2)"
    assert format_exact(Fraction(1, 2) * root2 - 2) == "-2+1/2*sqrt(2)"
    assert format_exact(-root2) == "0-1*sqrt(2)"
    assert format_exact(Fraction(-3, 4)) == "-3/4"
    assert format_float(0.1) == "0.10000000000000001"


def test_scalar_mode_validation():
    with pytest.raises(ValueError):
        ScalarMode("decimal")
    # 0 < tol < 1: a larger tol passes a zero image against a unit target
    for tol in (0.0, 1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ScalarMode.floating(tol)
    mode = ScalarMode.floating()
    assert mode.within(5e-10, 1.0)
    assert not mode.within(5e-9, 1.0)
    assert ScalarMode.exact().within(0, 123.0)
    assert not ScalarMode.exact().within(Fraction(1, 10**30), 1.0)

