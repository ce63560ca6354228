"""Exact arithmetic in real quadratic fields.

A number (A + B*sqrt(D)) / q is held as integers in lowest terms, q > 0 and
gcd(A, B, q) = 1, with D > 1 fixed per number: each operation is a few
integer products and one gcd.  This holds the Perron eigendata of the small
flagship presentations (golden mean, silver mean, ...) exactly, so cylinder
masses and Gibbs constants come out as exact field elements, not floats.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d square-free."""
    if n <= 0:
        raise ValueError("expected a positive integer")
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def _new(A: int, B: int, q: int, D: int) -> "QuadraticNumber":
    """(A + B sqrt(D)) / q in lowest terms, for integers with q != 0."""
    g = math.gcd(A, B, q)
    if q < 0:
        g = -g
    x = object.__new__(QuadraticNumber)
    x.A, x.B, x.q, x.D = A // g, B // g, q // g, D
    return x


def _coords(x: "QuadraticNumber", y):
    """(D, A, B, q, A', B', q') of x and y over one field, None when y is
    neither rational nor quadratic.  A rational embeds in any field."""
    if isinstance(y, QuadraticNumber):
        D = x.D
        if y.D != D:
            if x.B == 0:
                D = y.D
            elif y.B != 0:
                raise ValueError(f"mixed fields sqrt({x.D}) and sqrt({y.D})")
        return D, x.A, x.B, x.q, y.A, y.B, y.q
    if isinstance(y, (int, Fraction)):
        return x.D, x.A, x.B, x.q, y.numerator, 0, y.denominator
    return None


def _order(test):
    """The comparison method that applies `test` to (sign of self - other, 0)."""
    def compare(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else test(c, 0)
    return compare


class QuadraticNumber:
    """An element a + b*sqrt(D) of the real quadratic field Q(sqrt(D)),
    for rational (int or Fraction) a and b."""

    __slots__ = ("A", "B", "q", "D")

    def __init__(self, a, b=0, D=5):
        if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))):
            raise TypeError("coefficients must be int or Fraction")
        D = int(D)
        if D <= 1:
            raise ValueError("D must be an integer > 1")
        A, B = a.numerator * b.denominator, b.numerator * a.denominator
        q = a.denominator * b.denominator
        g = math.gcd(A, B, q)
        self.A, self.B, self.q, self.D = A // g, B // g, q // g, D

    a = property(lambda self: Fraction(self.A, self.q), doc="rational part a")
    b = property(lambda self: Fraction(self.B, self.q), doc="coefficient b of sqrt(D)")

    @staticmethod
    def sqrt(n) -> "QuadraticNumber":
        s, d = _squarefree_split(int(n))
        return _new(s, 0, 1, 2) if d == 1 else _new(0, s, 1, d)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        c = _coords(self, other)
        if c is None:
            return NotImplemented
        D, A, B, q, a, b, r = c
        if q == r:
            return _new(A + a, B + b, q, D)
        return _new(A * r + a * q, B * r + b * q, q * r, D)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.A, -self.B, self.q, self.D)

    def __sub__(self, other):
        c = _coords(self, other)
        if c is None:
            return NotImplemented
        D, A, B, q, a, b, r = c
        return _new(A * r - a * q, B * r - b * q, q * r, D)

    def __rsub__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else -diff

    def __mul__(self, other):
        c = _coords(self, other)
        if c is None:
            return NotImplemented
        D, A, B, q, a, b, r = c
        return _new(A * a + B * b * D, A * b + B * a, q * r, D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _coords(self, other)
        if c is None:
            return NotImplemented
        D, _, _, _, a, b, r = c
        # 1 / y = (a - b sqrt(D)) r / (a^2 - b^2 D), times self
        norm = a * a - b * b * D
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return self * _new(a * r, -b * r, norm, D)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QuadraticNumber(other, 0, self.D) / self

    def __pow__(self, n: int):
        if n < 0:
            return 1 / (self ** (-n))
        out = _new(1, 0, 1, self.D)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact ordering -------------------------------------------------------

    def _cmp(self, other):
        """The sign of self - other, from integer squares."""
        c = _coords(self, other)
        if c is None:
            return NotImplemented
        D, A, B, q, a, b, r = c
        # self - other = (u + v sqrt(D)) / (q r) with q r > 0
        u, v = A * r - a * q, B * r - b * q
        if u == 0 or v == 0 or (u > 0) == (v > 0):
            s = u or v
        else:  # opposite signs: u^2 - v^2 D decides (never 0 for square-free D)
            d = u * u - v * v * D
            s = u if d > 0 else v if d < 0 else 0
        return (s > 0) - (s < 0)

    __eq__, __lt__, __le__, __gt__, __ge__ = map(
        _order, (operator.eq, operator.lt, operator.le, operator.gt, operator.ge)
    )

    def __hash__(self):
        return hash(self.a) if self.B == 0 else hash((self.a, self.b, self.D))

    # -- conversions ----------------------------------------------------------

    def __floor__(self) -> int:
        """Exact floor: floor((A + B sqrt(D)) / q) = floor((A + f) / q) for the
        integer f = floor(B sqrt(D)) (when B sqrt(D) is not an integer, A + B
        sqrt(D) lies strictly between A + f and A + f + 1, as no multiple of q does)."""
        B = self.B
        square = B * B * self.D
        root = math.isqrt(square)
        if B >= 0:
            f = root
        else:
            f = -root if root * root == square else -root - 1
        return (self.A + f) // self.q

    def __float__(self) -> float:
        # int / int rounds correctly, as float(Fraction) does
        return self.A / self.q + (self.B / self.q) * math.sqrt(self.D)

    def __abs__(self):
        return -self if self._cmp(0) < 0 else self

    def __bool__(self):
        return self.A != 0 or self.B != 0

    def __repr__(self):
        if self.B == 0:
            return f"QuadraticNumber({self.a!s})"
        return f"QuadraticNumber({self.a!s}, {self.b!s}, D={self.D})"

    def __str__(self):
        if self.B == 0:
            return str(self.a)
        sign = "+" if self.B >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.D})"


def golden_ratio() -> QuadraticNumber:
    return _new(1, 1, 2, 5)


def exact_floor(x) -> int:
    """Floor for the number types used by the greedy digit engine."""
    if isinstance(x, (QuadraticNumber, int, Fraction)):
        return math.floor(x)
    raise TypeError(f"no exact floor for {type(x).__name__}")
