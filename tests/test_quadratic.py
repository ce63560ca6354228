import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from obstruct.quadratic import QuadraticNumber, exact_floor, golden_ratio

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def quad(D=5):
    return st.builds(QuadraticNumber, rationals, rationals, st.just(D))


def test_golden_ratio_identity():
    phi = golden_ratio()
    assert phi * phi == phi + 1
    assert 1 / phi == phi - 1
    assert float(phi) == pytest.approx((1 + math.sqrt(5)) / 2)


def test_sqrt_normalizes_square_factors():
    assert QuadraticNumber.sqrt(4) == 2
    assert QuadraticNumber.sqrt(8) == 2 * QuadraticNumber.sqrt(2)
    assert QuadraticNumber.sqrt(45) == 3 * QuadraticNumber.sqrt(5)


def test_mixed_field_rejected():
    with pytest.raises(ValueError):
        QuadraticNumber.sqrt(2) + QuadraticNumber.sqrt(3)


def test_rational_embedding_crosses_fields():
    two = QuadraticNumber(2, 0, 7)
    r3 = QuadraticNumber.sqrt(3)
    assert two + r3 == QuadraticNumber(2, 1, 3)


@given(quad(), quad())
def test_arithmetic_tracks_floats(x, y):
    assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-6)
    assert float(x - y) == pytest.approx(float(x) - float(y), abs=1e-6)
    assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-4)


@given(quad(), quad())
def test_division_inverts_multiplication(x, y):
    if not y:
        return
    assert (x / y) * y == x


@given(quad())
def test_floor_brackets_value(x):
    m = exact_floor(x)
    assert m <= x < m + 1


@given(quad(), quad())
def test_order_matches_floats(x, y):
    if abs(float(x) - float(y)) > 1e-6:
        assert (x < y) == (float(x) < float(y))


@given(quad(), st.integers(min_value=0, max_value=8))
def test_powers(x, n):
    expected = QuadraticNumber(1, 0, x.D)
    for _ in range(n):
        expected = expected * x
    assert x ** n == expected


def test_exact_floor_on_rationals():
    assert exact_floor(Fraction(7, 2)) == 3
    assert exact_floor(5) == 5
    with pytest.raises(TypeError):
        exact_floor(1.5)


@given(
    st.integers(min_value=-10**40, max_value=10**40),
    st.integers(min_value=-10**40, max_value=10**40),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([2, 3, 4, 5, 8, 12]),
)
def test_floor_is_exact_with_huge_coefficients(a, b, q, D):
    # far past float precision, and D = 4, 8, 12 are not square-free
    x = QuadraticNumber(Fraction(a, q), Fraction(b, q), D)
    m = math.floor(x)
    assert m <= x < m + 1


def test_sqrt5_expansion_past_float_precision():
    # the remainders' coefficients outgrow a float guess near digit 46
    from obstruct.beta import BetaSystem

    long = BetaSystem.from_beta(QuadraticNumber.sqrt(5), horizon=50)
    short = BetaSystem.from_beta(QuadraticNumber.sqrt(5), horizon=45)
    assert len(long.expansion.digits) == 50
    assert long.expansion.digits[:45] == short.expansion.digits
