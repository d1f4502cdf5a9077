"""Exterior algebra: derivations, the operator A, and its square.

Core claims:
    - the interior product and covector wedge follow the defining sign
      formulas on basis forms
    - i_v(lambda ^ w) + lambda ^ (i_v w) = lambda(v) * w for every w
      (the anticommutator identity behind A^2 = lambda(v) I)
    - i_v is an antiderivation; i_v i_v = 0 and (lambda^)^2 = 0
    - A shifts each degree k into degrees k-1 and k+1 only
    - WeightConfig enforces positive pairing and carries the exact eigenvalue
"""

import random
from fractions import Fraction

import pytest

from cubesense import (
    Multivector,
    PositivityError,
    WeightConfig,
    apply_A,
    interior_product,
    wedge,
    wedge_lambda,
)

from helpers import random_coords, random_homogeneous, random_multivector, random_weights


def basis(n, mask):
    return Multivector.basis(n, mask)


def e(n, *coords):
    """Unit vector/covector with 1 at the given 1-based coordinates."""
    out = [Fraction(0)] * n
    for k in coords:
        out[k - 1] = Fraction(1)
    return out


def test_interior_product_examples():
    # v = e_3 against e*_1 ^ e*_3: position 2 forces the minus sign
    assert interior_product(e(3, 3), basis(3, 0b101)) == basis(3, 0b001).scaled(-1)
    # v = e_1 against e*_1 ^ e*_2: position 1, plus sign
    assert interior_product(e(3, 1), basis(3, 0b011)) == basis(3, 0b010)
    # degree 0 is annihilated
    assert interior_product(e(3, 1, 2, 3), basis(3, 0b000)).is_zero


def test_wedge_lambda_examples():
    # e*_2 ^ (e*_1 ^ e*_3) = -e*_1 ^ e*_2 ^ e*_3: one transposition past e*_1
    assert wedge_lambda(e(3, 2), basis(3, 0b101)) == basis(3, 0b111).scaled(-1)
    assert wedge_lambda(e(3, 1), basis(3, 0b010)) == basis(3, 0b011)
    # e*_1 ^ e*_1 = 0
    assert wedge_lambda(e(3, 1), basis(3, 0b001)).is_zero


def test_apply_on_one_dimension():
    w = WeightConfig(1, lam=(Fraction(5),), v=(Fraction(7),))
    # matrix [[0, v1], [lam1, 0]]
    assert apply_A(w, basis(1, 0)) == basis(1, 1).scaled(Fraction(5))
    assert apply_A(w, basis(1, 1)) == basis(1, 0).scaled(Fraction(7))


def test_apply_on_two_dimensions():
    w = WeightConfig.uniform(2, 1, 1)
    image = apply_A(w, basis(2, 0b01))
    assert image == basis(2, 0b00) - basis(2, 0b11)


def test_square_is_pairing_scalar():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randrange(1, 7)
        w = random_weights(rng, n)
        omega = random_multivector(rng, n)
        assert apply_A(w, apply_A(w, omega)) == omega.scaled(w.pairing)


def test_anticommutator_identity_any_signs():
    # holds for arbitrary v, lambda, including sign-mixed ones
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randrange(1, 9)
        v = random_coords(rng, n)
        lam = random_coords(rng, n)
        omega = random_multivector(rng, n)
        pairing = sum(a * b for a, b in zip(lam, v))
        lhs = interior_product(v, wedge_lambda(lam, omega)) + wedge_lambda(
            lam, interior_product(v, omega)
        )
        assert lhs == omega.scaled(pairing)


def test_interior_is_antiderivation():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 8)
        v = random_coords(rng, n)
        deg_a = rng.randrange(0, n + 1)
        deg_b = rng.randrange(0, n + 1)
        alpha = random_homogeneous(rng, n, deg_a)
        beta = random_homogeneous(rng, n, deg_b)
        lhs = interior_product(v, wedge(alpha, beta))
        rhs = wedge(interior_product(v, alpha), beta)
        signed = wedge(alpha, interior_product(v, beta))
        if deg_a % 2:
            signed = signed.scaled(-1)
        assert lhs == rhs + signed


def test_derivations_square_to_zero():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randrange(1, 9)
        v = random_coords(rng, n)
        lam = random_coords(rng, n)
        omega = random_multivector(rng, n)
        assert interior_product(v, interior_product(v, omega)).is_zero
        assert wedge_lambda(lam, wedge_lambda(lam, omega)).is_zero


def test_degree_shift():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randrange(1, 9)
        k = rng.randrange(0, n + 1)
        w = random_weights(rng, n)
        omega = random_homogeneous(rng, n, k)
        image = apply_A(w, omega)
        assert image.degrees() <= {k - 1, k + 1}


def test_multivector_validation_and_components():
    with pytest.raises(ValueError):
        Multivector(2, {4: Fraction(1)})
    with pytest.raises(ValueError):
        Multivector.basis(2, 0) + Multivector.basis(3, 0)
    omega = Multivector(2, {0b00: Fraction(1), 0b01: Fraction(2), 0b11: Fraction(3)})
    assert omega.coefficient(0b10) == 0
    assert (omega - omega).is_zero


def test_weight_config_contract():
    w = WeightConfig(2, lam=(Fraction(3), Fraction(4)), v=(Fraction(1), Fraction(2)))
    assert w.pairing == 11
    s = w.eigenvalue()
    assert s * s == 11
    assert w.sup_lam == 4 and w.sup_v == 2
    assert WeightConfig.from_ratio(4, Fraction(2)).pairing == 4

    with pytest.raises(PositivityError):
        WeightConfig(2, lam=(Fraction(1), Fraction(1)), v=(Fraction(1), Fraction(-2)))
    with pytest.raises(PositivityError):
        WeightConfig.from_ratio(3, Fraction(-1))
    with pytest.raises(ValueError):
        WeightConfig(2, lam=(Fraction(1),), v=(Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        apply_A(WeightConfig.uniform(2, 1, 1), Multivector.basis(3, 0))
