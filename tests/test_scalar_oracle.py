"""The integer-triple QuadraticScalar against the Fraction-pair one it replaced.

Core claims:
    - every operator, with int, Fraction, float and QuadraticScalar operands
      on either side, gives the oracle's value or raises the oracle's
      exception; results agree in x, y, d, is_rational, rational_value,
      sign, bool, abs, hash, str, repr and float (bit for bit)
    - inverse, the four orderings and == agree, including d = 1
      folding, y = 0 resetting d, zero, negative-norm inverses, mixed
      radicands (ValueError on arithmetic, False on ==) and 200-bit
      numerators
    - the representation is canonical: values reached by different paths
      compare equal and hash equal
"""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesense import QuadraticScalar

from helpers import OracleQuadraticScalar

# 4, 9 and 12 are not squarefree, but the constructor accepts them, and only
# there can a^2 == d*b^2 hold with b != 0: the tie in sign's square comparison
RADICANDS = (1, 2, 3, 4, 5, 6, 7, 9, 12)

BINARY = (
    operator.add,
    operator.sub,
    operator.mul,
    operator.truediv,
    operator.eq,
    operator.ne,
    operator.lt,
    operator.le,
    operator.gt,
    operator.ge,
)


def outcome(fn, *args):
    """``('ok', value)`` or ``('raised', type, message)``."""
    try:
        return "ok", fn(*args)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        return "raised", type(exc), str(exc)


def rational_value_outcome(q):
    return outcome(lambda: q.rational_value)


def assert_agrees(new, old):
    """``new`` (QuadraticScalar) and ``old`` (oracle) hold the same value."""
    assert type(new) is QuadraticScalar and type(old) is OracleQuadraticScalar
    assert type(new.x) is Fraction and type(new.y) is Fraction
    assert (new.x, new.y, new.d) == (old.x, old.y, old.d)
    assert new.is_rational == old.is_rational
    assert rational_value_outcome(new) == rational_value_outcome(old)
    assert new.sign() == old.sign()
    assert bool(new) == bool(old)
    assert (abs(new).x, abs(new).y, abs(new).d) == (abs(old).x, abs(old).y, abs(old).d)
    assert hash(new) == hash(old)
    assert str(new) == str(old)
    assert repr(new) == repr(old).replace("OracleQuadraticScalar", "QuadraticScalar")
    assert float(new).hex() == float(old).hex()


def assert_same_outcome(new, old):
    if new[0] == "raised" or old[0] == "raised":
        assert new == old
        return
    new_value, old_value = new[1], old[1]
    if isinstance(old_value, OracleQuadraticScalar):
        assert_agrees(new_value, old_value)
    else:
        assert type(new_value) is type(old_value) and new_value == old_value


def as_pair(operand):
    """An operand spec -> (new-side value, oracle-side value)."""
    if isinstance(operand, tuple):
        return QuadraticScalar(*operand), OracleQuadraticScalar(*operand)
    return operand, operand


def check_unary(new, old):
    assert_agrees(new, old)
    assert_agrees(-new, -old)
    assert_same_outcome(outcome(lambda q: q.inverse(), new), outcome(lambda q: q.inverse(), old))


def check_binary(left, right):
    (l_new, l_old), (r_new, r_old) = as_pair(left), as_pair(right)
    for op in BINARY:
        got, want = outcome(op, l_new, r_new), outcome(op, l_old, r_old)
        if want[:2] == ("raised", TypeError):
            # the message of a TypeError names the operand types
            assert got[:2] == want[:2]
        else:
            assert_same_outcome(got, want)


def chain(steps, start):
    """Fold ``start`` through ``(op, operand)`` steps on both sides."""
    new, old = as_pair(start)
    for op, operand in steps:
        o_new, o_old = as_pair(operand)
        new_out, old_out = outcome(op, new, o_new), outcome(op, old, o_old)
        assert_same_outcome(new_out, old_out)
        if new_out[0] == "raised":
            break
        new, old = new_out[1], old_out[1]
    return new, old


def random_rational(rng, bits):
    return Fraction(rng.randrange(-(1 << bits), 1 << bits), rng.randrange(1, 1 << bits))


def random_operand(rng, bits):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.randrange(-(1 << bits), 1 << bits)
    if kind == 1:
        return random_rational(rng, bits)
    x = random_rational(rng, bits) if kind != 2 else 0
    y = random_rational(rng, bits) if kind != 3 else 0
    return (x, y, rng.choice(RADICANDS))


EDGE_OPERANDS = [
    (2, 3, 1),  # d = 1 folds y into x
    (2, 0, 7),  # y = 0 resets d
    (0, 0, 5),
    (0,),
    0,
    Fraction(0),
    (1, 1, 2),  # norm -1
    (0, 1, 2),  # norm -2
    (Fraction(1, 5), Fraction(2, 5), 3),  # norm -11/25
    (3, 2, 2),  # norm 1
    (2, -1, 4),  # 2 - sqrt(4): zero with y != 0
    (Fraction(3, 2), -1, 9),
    (Fraction(-7, 3), Fraction(5, 6), 2),
    (Fraction(1, 2), Fraction(-1, 2), 3),  # mixes with sqrt(2) values
    ((1 << 200) + 1, -(1 << 199) + 3, 5),
    (Fraction((1 << 200) - 1, 3), Fraction(1 << 201, (1 << 67) + 1), 5),
    Fraction(-(1 << 200) + 7, 9),
    1 << 200,
    1,
    -1,
    Fraction(1, 2),
    True,
    1.5,
]


@pytest.mark.parametrize("spec", [s for s in EDGE_OPERANDS if isinstance(s, tuple)])
def test_edge_values_agree(spec):
    check_unary(*as_pair(spec))


def test_edge_pairs_agree():
    for left in EDGE_OPERANDS:
        for right in EDGE_OPERANDS:
            if isinstance(left, tuple) or isinstance(right, tuple):
                check_binary(left, right)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("bits", (4, 200))
def test_random_values_agree(seed, bits):
    rng = random.Random(seed * 1000 + bits)
    for _ in range(150):
        left, right = random_operand(rng, bits), random_operand(rng, bits)
        if isinstance(left, tuple):
            check_unary(*as_pair(left))
        if isinstance(left, tuple) or isinstance(right, tuple):
            check_binary(left, right)


def test_mixed_radicands_match_oracle():
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt):
        got = outcome(op, QuadraticScalar(1, 1, 2), QuadraticScalar(1, 1, 3))
        assert got[:2] == ("raised", ValueError)
        assert got == outcome(op, OracleQuadraticScalar(1, 1, 2), OracleQuadraticScalar(1, 1, 3))
    assert not QuadraticScalar(1, 1, 2) == QuadraticScalar(1, 1, 3)
    assert QuadraticScalar(1, 1, 2) != QuadraticScalar(1, 1, 3)


rationals = st.builds(Fraction, st.integers(-(1 << 64), 1 << 64), st.integers(1, 1 << 64))
quadratic_specs = st.tuples(
    st.one_of(st.integers(-50, 50), rationals),
    st.one_of(st.just(0), st.integers(-50, 50), rationals),
    st.sampled_from(RADICANDS[:4]),
)
operands = st.one_of(st.integers(-(1 << 70), 1 << 70), rationals, quadratic_specs)
arithmetic = st.sampled_from((operator.add, operator.sub, operator.mul, operator.truediv))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(quadratic_specs, st.lists(st.tuples(arithmetic, operands), max_size=6), operands)
def test_generated_expressions_agree(start, steps, other):
    """A chain of operations on both classes, then every operator both ways."""
    new, old = chain(steps, start)
    if isinstance(new, QuadraticScalar):
        check_unary(new, old)
        o_new, o_old = as_pair(other)
        for op in BINARY:
            assert_same_outcome(outcome(op, new, o_new), outcome(op, old, o_old))
            assert_same_outcome(outcome(op, o_new, new), outcome(op, o_old, old))


# -- canonical form -------------------------------------------------------------

def assert_same_value(p, q):
    assert p == q and q == p and not p != q
    assert hash(p) == hash(q)


def test_different_paths_reach_one_representation():
    root3 = QuadraticScalar.sqrt_of(3)
    assert_same_value((2 + 2 * root3) / 2, 1 + root3)
    assert_same_value((6 * root3 - 4) / 4, Fraction(3, 2) * root3 - 1)
    assert_same_value(QuadraticScalar(Fraction(2, 4)), Fraction(1, 2))
    assert_same_value(QuadraticScalar(Fraction(2, 4)), QuadraticScalar(1) / 2)
    assert_same_value(QuadraticScalar(Fraction(6, 4), 0, 3), Fraction(3, 2))
    # the sum of two halves is a whole: the denominators reduce
    assert_same_value(QuadraticScalar(Fraction(1, 2), Fraction(1, 2), 3) * 2, 1 + root3)


def test_irrational_part_cancelling_resets_the_radicand():
    root3 = QuadraticScalar.sqrt_of(3)
    assert_same_value(root3 * root3, QuadraticScalar(3))
    assert (root3 * root3).d == 1
    assert_same_value((1 + root3) - root3, QuadraticScalar(1))
    assert ((1 + root3) - root3).d == 1
    assert_same_value(root3 * 0, QuadraticScalar.sqrt_of(2) * 0)
    # a rational value mixes with either field afterwards
    assert_same_value((root3 - root3) + QuadraticScalar.sqrt_of(2), QuadraticScalar.sqrt_of(2))


@pytest.mark.parametrize(
    "x, y, d",
    [
        (Fraction(1, 5), Fraction(2, 5), 3),  # norm -11/25 < 0
        (1, 1, 2),  # norm -1
        (0, Fraction(7, 3), 5),  # norm -245/9
        (Fraction(9, 2), Fraction(1, 3), 7),  # norm > 0
    ],
)
def test_value_times_inverse_is_one(x, y, d):
    q = QuadraticScalar(x, y, d)
    inv = q.inverse()
    assert inv.sign() == q.sign()
    assert_same_value(q * inv, 1)
    assert_same_value(inv * q, QuadraticScalar(1))
    assert_same_value(q / q, Fraction(1))
    assert_same_value(1 / inv, q)
