import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def test_constructor_splits_square_factors():
    # 2 - sqrt(4) is 0: falsy, and one set element with 0
    zero = QuadraticNumber(2, -1, 4)
    assert zero == 0 and not zero
    assert hash(zero) == hash(0) and len({zero, 0}) == 1
    assert QuadraticNumber(Fraction(1, 3), 1, 9) == Fraction(10, 3)
    # b sqrt(s^2 d) = b s sqrt(d): one field with sqrt(d)
    assert QuadraticNumber(1, 1, 8) == QuadraticNumber(1, 2, 2)
    assert QuadraticNumber(1, 1, 8).D == 2
    assert QuadraticNumber(0, 1, 12) + QuadraticNumber.sqrt(3) == 3 * QuadraticNumber.sqrt(3)


@pytest.mark.parametrize("D", [5.9, 5.0, Fraction(5), "5", 1, 0, -3])
def test_constructor_refuses_a_non_integer_or_small_D(D):
    with pytest.raises(ValueError, match="D must be an integer > 1"):
        QuadraticNumber(1, 1, D)


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


# -- an oracle: a + b sqrt(D) as a pair of Fractions --------------------------


def _oracle_pair(x, y):
    """Normalize two operands into a common field; None if y is foreign."""
    if isinstance(y, (int, Fraction)):
        y = OracleQuadratic(y, 0, x.D)
    elif not isinstance(y, OracleQuadratic):
        return None
    if x.D == y.D:
        return x, y
    if x.b == 0:
        return OracleQuadratic(x.a, 0, y.D), y
    if y.b == 0:
        return x, OracleQuadratic(y.a, 0, x.D)
    raise ValueError(f"mixed fields sqrt({x.D}) and sqrt({y.D})")


class OracleQuadratic:
    """A plain reference for QuadraticNumber: a and b are Fractions."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D=5):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.D = int(D)
        if self.D <= 1:
            raise ValueError("D must be an integer > 1")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        p = _oracle_pair(self, other)
        if p is None:
            return NotImplemented
        x, y = p
        return OracleQuadratic(x.a + y.a, x.b + y.b, x.D)

    __radd__ = __add__

    def __neg__(self):
        return OracleQuadratic(-self.a, -self.b, self.D)

    def __sub__(self, other):
        p = _oracle_pair(self, other)
        if p is None:
            return NotImplemented
        x, y = p
        return OracleQuadratic(x.a - y.a, x.b - y.b, x.D)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        p = _oracle_pair(self, other)
        if p is None:
            return NotImplemented
        x, y = p
        return OracleQuadratic(
            x.a * y.a + x.b * y.b * x.D, x.a * y.b + x.b * y.a, x.D
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = _oracle_pair(self, other)
        if p is None:
            return NotImplemented
        x, y = p
        norm = y.a * y.a - y.b * y.b * y.D  # rational
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        num = x * OracleQuadratic(y.a, -y.b, y.D)
        return OracleQuadratic(num.a / norm, num.b / norm, num.D)

    def __rtruediv__(self, other):
        return OracleQuadratic(other, 0, self.D) / self

    def __pow__(self, n: int):
        if n < 0:
            return 1 / (self ** (-n))
        out = OracleQuadratic(1, 0, self.D)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact ordering -------------------------------------------------------

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: the sign is decided by comparing a^2 with b^2 D
        lhs, rhs = a * a, b * b * self.D
        if lhs == rhs:
            return 0  # unreachable for square-free D; kept for safety
        return (1 if lhs > rhs else -1) * (1 if a > 0 else -1)

    def _cmp(self, other):
        p = _oracle_pair(self, other)
        if p is None:
            return NotImplemented
        x, y = p
        return (x - y)._sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    # -- conversions ----------------------------------------------------------

    def __floor__(self) -> int:
        """Exact floor: with a = A/q and b = B/q, floor((A + B sqrt(D)) / q)
        is floor((A + f) / q) for f = floor(B sqrt(D)), an integer square
        root (when B sqrt(D) is not an integer, A + B sqrt(D) lies strictly
        between A + f and A + f + 1, and no multiple of q does)."""
        if self.b == 0:
            return math.floor(self.a)
        q = math.lcm(self.a.denominator, self.b.denominator)
        A, B = int(self.a * q), int(self.b * q)
        root = math.isqrt(B * B * self.D)
        if B >= 0:
            f = root
        else:
            f = -root if root * root == B * B * self.D else -root - 1
        return (A + f) // q

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return f"OracleQuadratic({self.a!s})"
        return f"OracleQuadratic({self.a!s}, {self.b!s}, D={self.D})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.D})"


_FIELDS = (2, 3, 5, 13)
_COEFFS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**20),
)


@st.composite
def _operands(draw, fields):
    """(new, oracle) for a number of a field drawn from `fields`, or for a
    rational (the same int or Fraction on both sides)."""
    if draw(st.integers(0, 3)) == 0:
        r = draw(st.one_of(st.integers(-40, 40), _COEFFS))
        return r, r
    a, b, D = draw(_COEFFS), draw(_COEFFS), draw(fields)
    return QuadraticNumber(a, b, D), OracleQuadratic(a, b, D)


def _assert_canonical(x):
    assert x.q > 0 and math.gcd(x.A, x.B, x.q) == 1
    assert isinstance(x.A, int) and isinstance(x.B, int) and isinstance(x.q, int)


def _assert_nearest_float(f, x):
    """f is a float nearest x: x lies between the midpoints from f to its
    float neighbours, compared in exact arithmetic."""
    exact = Fraction(f)
    below = (exact + Fraction(math.nextafter(f, -math.inf))) / 2
    above = (exact + Fraction(math.nextafter(f, math.inf))) / 2
    assert x >= below and x <= above, (f, x)


def _same(got, want):
    if isinstance(want, OracleQuadratic):
        assert isinstance(got, QuadraticNumber)
        _assert_canonical(got)
        assert (got.a, got.b, got.D) == (want.a, want.b, want.D)
        assert str(got) == str(want) and hash(got) == hash(want)
        assert repr(got) == repr(want).replace("OracleQuadratic", "QuadraticNumber")
        _assert_nearest_float(float(got), want)
        assert math.floor(got) == math.floor(want)
    else:
        assert type(got) is type(want) and got == want


def _agree(op, x, y):
    """op on the new operands gives what it gives on the oracle's, or
    raises the same error."""
    try:
        want = op(x[1], y[1])
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            op(x[0], y[0])
        return
    _same(op(x[0], y[0]), want)


_BINARY = (
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge,
)


@given(st.data(), st.sampled_from(_FIELDS), st.integers(-3, 4))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_matches_the_fraction_pair_oracle(data, D, n):
    x = data.draw(_operands(st.just(D)))
    # mostly the same field, sometimes another: rationals embed, and two
    # irrational fields raise ValueError on both sides
    y = data.draw(_operands(st.sampled_from((D, D, D) + _FIELDS)))
    if not isinstance(x[0], QuadraticNumber):
        x, y = y, x
    if not isinstance(x[0], QuadraticNumber):
        return
    _same(x[0], x[1])
    for op in _BINARY:
        _agree(op, x, y)
        _agree(op, y, x)
    _agree(lambda u, _: u ** n, x, y)
    _agree(lambda u, _: -u, x, y)
    _agree(lambda u, _: abs(u), x, y)


def test_float_keeps_the_digits_of_a_cancelling_difference():
    # phi^-n = (L_n - F_n sqrt 5) / 2 up to sign: the terms cancel to 1 part
    # in phi^(2n), past the float range from n = 738
    phi, oracle_phi = golden_ratio(), OracleQuadratic(Fraction(1, 2), Fraction(1, 2), 5)
    for n in (1, 10, 40, 100, 400, 800, 1500):
        x = phi ** -n
        _assert_nearest_float(float(x), oracle_phi ** -n)
        assert float(x) > 0
        ratio = (phi ** n * 5 + 1) / phi ** n  # cancels to 5 + phi^-n
        _assert_nearest_float(float(ratio), oracle_phi ** -n + 5)
    # the Parry mass of golden's state 0, 1 / sqrt 5
    assert float(1 / QuadraticNumber.sqrt(5)) == 0.44721359549995793


def test_float_operands_are_refused():
    phi = golden_ratio()
    for op in _BINARY[:4]:
        with pytest.raises(TypeError):
            op(0.1, phi)
        with pytest.raises(TypeError):
            op(phi, 0.1)
    for a, b in ((0.5, 1), (1, 0.5), ("1/2", 1)):
        with pytest.raises(TypeError):
            QuadraticNumber(a, b, 5)
