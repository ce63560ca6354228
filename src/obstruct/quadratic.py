"""Exact arithmetic in real quadratic fields.

Numbers are stored as a + b*sqrt(D) with rational a, b and a fixed
square-free D > 1.  This is enough to hold Perron eigendata of the small
flagship presentations (golden mean, silver mean, ...) exactly, so that
cylinder masses and Gibbs constants come out as exact field elements
rather than floats.
"""

from __future__ import annotations

import math
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


def _pair(x, y):
    """Normalize two operands into a common field; None if y is foreign."""
    if isinstance(y, (int, Fraction)):
        y = QuadraticNumber(y, 0, x.D)
    elif not isinstance(y, QuadraticNumber):
        return None
    if x.D == y.D:
        return x, y
    if x.b == 0:
        return QuadraticNumber(x.a, 0, y.D), y
    if y.b == 0:
        return x, QuadraticNumber(y.a, 0, x.D)
    raise ValueError(f"mixed fields sqrt({x.D}) and sqrt({y.D})")


class QuadraticNumber:
    """An element a + b*sqrt(D) of the real quadratic field Q(sqrt(D))."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D=5):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.D = int(D)
        if self.D <= 1:
            raise ValueError("D must be an integer > 1")

    @staticmethod
    def sqrt(n) -> "QuadraticNumber":
        s, d = _squarefree_split(int(n))
        if d == 1:
            return QuadraticNumber(s, 0, 2)
        return QuadraticNumber(0, s, d)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        p = _pair(self, other)
        if p is None:
            return NotImplemented
        x, y = p
        return QuadraticNumber(x.a + y.a, x.b + y.b, x.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.D)

    def __sub__(self, other):
        p = _pair(self, other)
        if p is None:
            return NotImplemented
        x, y = p
        return QuadraticNumber(x.a - y.a, x.b - y.b, x.D)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        p = _pair(self, other)
        if p is None:
            return NotImplemented
        x, y = p
        return QuadraticNumber(
            x.a * y.a + x.b * y.b * x.D, x.a * y.b + x.b * y.a, x.D
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = _pair(self, other)
        if p is None:
            return NotImplemented
        x, y = p
        norm = y.a * y.a - y.b * y.b * y.D  # rational
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        num = x * QuadraticNumber(y.a, -y.b, y.D)
        return QuadraticNumber(num.a / norm, num.b / norm, num.D)

    def __rtruediv__(self, other):
        return QuadraticNumber(other, 0, self.D) / self

    def __pow__(self, n: int):
        if n < 0:
            return 1 / (self ** (-n))
        out = QuadraticNumber(1, 0, self.D)
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
        p = _pair(self, other)
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

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.D)

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return f"QuadraticNumber({self.a!s})"
        return f"QuadraticNumber({self.a!s}, {self.b!s}, D={self.D})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.D})"


def golden_ratio() -> QuadraticNumber:
    return QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)


def exact_floor(x) -> int:
    """Floor for the number types used by the greedy digit engine."""
    if isinstance(x, QuadraticNumber):
        return math.floor(x)
    if isinstance(x, (int, Fraction)):
        return math.floor(x)
    raise TypeError(f"no exact floor for {type(x).__name__}")
