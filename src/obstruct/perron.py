"""Perron eigendata of presentation adjacency matrices.

Three paths, tried in order on the essential part of a presentation:

1. Exact (at most EXACT_STATE_LIMIT states): the integer characteristic
   polynomial p comes from Faddeev-LeVerrier, and Newton from the maximum
   row sum descends to its largest real root, the spectral radius.  That
   root is rational only as an integer k with p(k) = 0, and quadratic only
   when some x^2 - a x - b with |a| <= 2 rho divides p exactly; then the
   eigenvalue and both eigenvectors are exact rationals or elements of a
   real quadratic field.
2. Renewal closed form: when row k of the adjacency matrix is
   c_k e_0 + e_{k+1} and the last row is c_{n-1} e_0 (truncated and purely
   periodic beta-shift presentations), the eigenvalue x is the root > 0 of
   sum_k c_k x^(-k-1) = 1, r_k = sum_{j>=k} c_j x^(k-1-j) and l_k = x^(-k)
   (Parry 1960; Hofbauer 1978), computed to POWER_DPS digits in O(n).
3. Otherwise (factor presentations, preperiodic wraps) a high-precision
   power iteration, with residual pushed below 1e-30.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .quadratic import QuadraticNumber, _squarefree_split

EXACT_STATE_LIMIT = 12
POWER_DPS = 60
POWER_RESIDUAL = mpmath.mpf("1e-30")
GUARD_DPS = 10


@dataclass(frozen=True)
class PerronData:
    """Spectral radius with positive right/left eigenvectors."""

    eigenvalue: object  # Fraction | QuadraticNumber | mpmath.mpf
    right: tuple
    left: tuple
    exact: bool
    residual: float | None = None  # max_k |(A r - x r)_k| of the stored data


def _kernel_vector(rows, one):
    """A nonzero kernel vector of a singular square matrix over a field."""
    n = len(rows)
    m = [list(r) for r in rows]
    zero = one - one
    pivots = {}  # column -> row
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, n) if m[i][col] != zero), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = one / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for i in range(n):
            if i != row and m[i][col] != zero:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots[col] = row
        row += 1
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        raise ArithmeticError("matrix is nonsingular; no kernel vector")
    v = [zero] * n
    v[free] = one
    for col, r in pivots.items():
        v[col] = -m[r][free] * one
    return v


def _power_iteration(matrix, dps=POWER_DPS, max_iter=200_000):
    """Dominant eigenpair of a non-negative integer matrix, high precision."""
    n = len(matrix)
    with mpmath.workdps(dps):
        # shift by I so the dominant eigenvalue is simple on each closed class
        a = [[mpmath.mpf(matrix[i][j] + (i == j)) for j in range(n)] for i in range(n)]
        v = [mpmath.mpf(1) for _ in range(n)]
        lam = mpmath.mpf(0)
        for _ in range(max_iter):
            w = [sum(a[i][j] * v[j] for j in range(n)) for i in range(n)]
            norm = max(w)
            if norm == 0:
                break
            w = [x / norm for x in w]
            lam_new = sum(
                sum(a[i][j] * w[j] for j in range(n)) * w[i] for i in range(n)
            ) / sum(x * x for x in w)
            res = max(
                abs(sum(a[i][j] * w[j] for j in range(n)) - lam_new * w[i])
                for i in range(n)
            )
            v, lam = w, lam_new
            if res < POWER_RESIDUAL:
                break
        return lam - 1, v, float(res)


def perron_eigendata(
    presentation, exact_state_limit=EXACT_STATE_LIMIT, cache: dict | None = None
) -> PerronData:
    """Eigendata of the adjacency matrix of the essential part.

    Exact when the matrix is small and its Perron root rational or
    quadratic, else the renewal closed form when the matrix has that shape,
    else power iteration (see the module docstring).  `cache`, a dict the
    caller owns (one per system), keeps each result under the essential
    part's adjacency matrix, so callers holding different views of one
    presentation (its live part, its essential part) compute it once.
    """
    matrix = presentation.essential_part().adjacency()
    key = (tuple(map(tuple, matrix)), exact_state_limit)
    if cache is not None and key in cache:
        return cache[key]
    data = _eigendata(matrix, exact_state_limit)
    if cache is not None:
        cache[key] = data
    return data


def _eigendata(matrix, exact_state_limit) -> PerronData:
    n = len(matrix)
    if n <= exact_state_limit:
        data = _exact_eigendata(matrix)
        if data is not None:
            return data
    data = _renewal_eigendata(matrix)
    if data is not None:
        return data
    lam, right, res = _power_iteration(matrix)
    transposed = [[matrix[j][i] for j in range(n)] for i in range(n)]
    _, left, res2 = _power_iteration(transposed)
    return PerronData(
        eigenvalue=lam,
        right=tuple(right),
        left=tuple(left),
        exact=False,
        residual=max(res, res2),
    )


def _renewal_eigendata(matrix) -> PerronData | None:
    """Closed-form eigendata of a renewal matrix; None for any other matrix.

    Row k must be c_k e_0 + e_{k+1} and the last row c_{n-1} e_0 with
    c_{n-1} > 0.  With r_0 = 1 the eigen-equations read
    r_{k+1} = x r_k - c_k and c_{n-1} = x r_{n-1}, so r follows by backward
    Horner once x solves sum_k c_k x^(-k-1) = 1; the left equations give
    l_k = l_0 x^(-k).
    """
    n = len(matrix)
    coeffs = [row[0] for row in matrix]
    for k, row in enumerate(matrix):
        if row[1:] != [int(j == k + 1) for j in range(1, n)]:
            return None
    if not coeffs[-1]:
        return None
    with mpmath.workdps(POWER_DPS + GUARD_DPS):
        def excess(x):
            """sum_k c_k x^(-k-1) - 1 and its derivative, by Horner in 1/x."""
            y = 1 / x
            f = df = mpmath.mpf(0)
            for k in range(n - 1, -1, -1):
                f = (f + coeffs[k]) * y
                df = (df + (k + 1) * coeffs[k]) * y
            return f - 1, -df * y

        # the excess decreases from sum(c) - 1 >= 0 at x = 1 to at most 0 at
        # x = sum(c); it is convex, so Newton from the left of the root
        # climbs to it monotonically
        lo, hi = mpmath.mpf(1), mpmath.mpf(max(1, sum(coeffs)))
        while hi - lo > 1e-6:
            mid = (lo + hi) / 2
            if excess(mid)[0] > 0:
                lo = mid
            else:
                hi = mid
        x = lo
        tol = mpmath.mpf(10) ** -(POWER_DPS + GUARD_DPS - 2)
        for _ in range(100):
            f, df = excess(x)
            step = f / df
            x -= step
            if abs(step) <= tol * x:
                break
        right = [coeffs[-1] / x]
        for c in reversed(coeffs[:-1]):
            right.append((c + right[-1]) / x)
        right.reverse()
        left = [mpmath.mpf(1)]
        for _ in range(n - 1):
            left.append(left[-1] / x)
    # products of stored values are exact at twice the digits, so this is
    # the residual of the stored vector, not rounding noise of the check
    with mpmath.workdps(2 * (POWER_DPS + GUARD_DPS)):
        residual = max(
            abs(c * right[0] + (right[k + 1] if k + 1 < n else 0) - x * right[k])
            for k, c in enumerate(coeffs)
        )
    return PerronData(
        eigenvalue=x,
        right=tuple(right),
        left=tuple(left),
        exact=False,
        residual=float(residual),
    )


def _charpoly(matrix) -> list[int]:
    """det(xI - A) of an integer matrix, leading coefficient first.

    Faddeev-LeVerrier: M_1 = I, c_k = -tr(A M_k) / k and
    M_{k+1} = A M_k + c_k I, where each division by k is exact.
    """
    n = len(matrix)
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        m = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in matrix]
        c = -sum(m[i][i] for i in range(n)) // k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs


def _value_and_slope(coeffs, x):
    """p(x) and p'(x) by Horner, coefficients leading first."""
    f = df = 0
    for c in coeffs:
        df = df * x + f
        f = f * x + c
    return f, df


def _largest_real_root(coeffs, start):
    """Largest real root of the characteristic polynomial of a non-negative
    matrix, by Newton from `start` >= the spectral radius rho.

    By Gauss-Lucas every root of p' and p'' has modulus <= rho, so p is
    increasing and convex on (rho, oo) and the iterates descend to rho.
    """
    with mpmath.workdps(POWER_DPS):
        x = mpmath.mpf(start)
        tol = mpmath.mpf(10) ** -(POWER_DPS // 2)
        while True:
            f, df = _value_and_slope(coeffs, x)
            if f <= 0 or df <= 0:  # at the root, or rounding noise past it
                break
            step = f / df
            x -= step
            if step <= tol * (1 + x):
                break
        return x


def _rational_or_quadratic_factor(coeffs, lam):
    """The monic linear or quadratic integer factor of p vanishing at lam.

    lam is an algebraic integer: rational only as an integer k with
    p(k) = 0, and quadratic only as a root of x^2 - a x - b whose other root
    mu has |mu| <= lam, so |a| <= 2 lam and b = lam^2 - a lam.
    """
    with mpmath.workdps(POWER_DPS):
        k = int(mpmath.nint(lam))
        if _value_and_slope(coeffs, k)[0] == 0:
            return [1, -k]
        top = 2 * int(mpmath.ceil(lam))
        for a in range(-top, top + 1):
            b = int(mpmath.nint(lam * (lam - a)))
            if abs(lam * (lam - a) - b) >= 1e-6 * (2 + abs(a) + abs(b)):
                continue
            rem = list(coeffs)  # divide by x^2 - a x - b
            for i in range(len(rem) - 2):
                rem[i + 1] += a * rem[i]
                rem[i + 2] += b * rem[i]
            if rem[-2] == rem[-1] == 0:
                return [1, -a, -b]
    return None


def _exact_eigendata(matrix) -> PerronData | None:
    poly = _charpoly(matrix)
    lam = _largest_real_root(poly, max(map(sum, matrix)))
    coeffs = _rational_or_quadratic_factor(poly, lam)
    return None if coeffs is None else _eigendata_from_factor(matrix, coeffs, float(lam))


def _eigendata_from_factor(matrix, coeffs, lam_f) -> PerronData | None:
    """Exact eigendata from the integer factor (leading coefficient first)
    whose root near lam_f is the Perron root; None unless both kernel
    vectors are positive."""
    n = len(matrix)
    if len(coeffs) == 2:  # a x + b, root -b/a
        a, b = coeffs
        lam = Fraction(-b, a)
    else:  # a x^2 + b x + c, larger root
        a, b, c = coeffs
        disc = b * b - 4 * a * c
        if disc <= 0:
            return None
        s, d = _squarefree_split(disc)
        if d == 1:
            lam = Fraction(-b + s, 2 * a)
        else:
            lam = QuadraticNumber(Fraction(-b, 2 * a), Fraction(s, 2 * a), d)
    if abs(float(lam) - lam_f) > 1e-6:
        return None
    one = lam / lam if isinstance(lam, QuadraticNumber) else Fraction(1)
    zero = one - one

    def shifted(transpose: bool):
        return [
            [
                (matrix[j][i] if transpose else matrix[i][j]) * one
                - (lam if i == j else zero)
                for j in range(n)
            ]
            for i in range(n)
        ]

    right = _make_positive(_kernel_vector(shifted(False), one))
    left = _make_positive(_kernel_vector(shifted(True), one))
    if right is None or left is None:
        return None
    return PerronData(
        eigenvalue=lam, right=tuple(right), left=tuple(left), exact=True, residual=0.0
    )


def _make_positive(vec):
    zero = vec[0] - vec[0]
    if all(x <= zero for x in vec):
        vec = [-x for x in vec]
    if any(x <= zero for x in vec):
        return None
    return vec
