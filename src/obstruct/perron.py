"""Perron eigendata of presentation adjacency matrices.

Each strongly connected component with a cycle (`Presentation.components`)
of the essential part of a presentation takes one of two paths:

1. Renewal closed form: when row k of the adjacency matrix is
   c_k e_0 + e_{k+1} and the last row is c_{n-1} e_0 (truncated and purely
   periodic beta-shift presentations), the eigenvalue x is the root > 0 of
   sum_k c_k x^(-k-1) = 1, the largest root of the characteristic
   polynomial x^n - sum_k c_k x^(n-1-k), r_k = sum_{j>=k} c_j x^(k-1-j) and
   l_k = x^(-k) (Parry 1960; Hofbauer 1978), in O(n).
2. Otherwise (factor presentations, preperiodic wraps) a power iteration.

Both work in Python integers only: roots to FIXED_BITS fractional bits by
fixed-point Newton, and vectors of positive integers in a common unit (only
their ratios matter).  Their eigenvalue is bounded by the Collatz-Wielandt
enclosure (Collatz 1942; Wielandt 1950): for a non-negative A and a
positive vector r, min_i (A r)_i / r_i <= rho <= max_i (A r)_i / r_i, an
exact rational interval here, taken for the right vector against A and the
left vector against A^T and intersected.

A component of at most EXACT_STATE_LIMIT states is then tested for an
exact root.  Its Perron root is an algebraic integer whose conjugates are
eigenvalues of modulus <= rho: it is rational only as an integer, and
quadratic only as (a + sqrt(a^2 + 4b)) / 2 with conjugate a - rho >= -rho,
so 0 <= a <= 2 rho.  Each such candidate in the enclosure is tried; one at
which A - lam I has positive kernel vectors on both sides is the Perron
root (Perron-Frobenius), and the eigenvalue and both eigenvectors are then
exact rationals or elements of a real quadratic field.

A reducible matrix reports the largest root of its components (Lind-Marcus
1995), enclosed by (max lo, max hi), and no vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .quadratic import QuadraticNumber

EXACT_STATE_LIMIT = 12
# fractional bits of every fixed-point root, and significant bits of the
# least entry of every integer eigenvector
FIXED_BITS = 256
# power-iteration steps between two rescalings and enclosure tests
CHECK_EVERY = 64
# power-iteration steps before the vector is returned as it stands
MAX_ITER = 200_000


class PerronData:
    """Spectral radius with positive right/left eigenvectors.

    Exact data hold field elements, and the enclosure is the eigenvalue
    twice.  Otherwise the vectors are positive integers, the enclosure
    (lo, hi) holds rationals with lo <= rho <= hi, and the eigenvalue is
    the float nearest their midpoint.  A reducible matrix has None vectors.
    """

    def __init__(self, eigenvalue: object, right: tuple, left: tuple,
                 exact: bool, enclosure: tuple):
        self.eigenvalue = eigenvalue  # Fraction | QuadraticNumber | float
        self.right = right
        self.left = left
        self.exact = exact
        self.enclosure = enclosure

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)


def _kernel_vector(rows, one):
    """A nonzero kernel vector of a square matrix over a field; None when
    the matrix is nonsingular."""
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
        return None
    v = [zero] * n
    v[free] = one
    for col, r in pivots.items():
        v[col] = -m[r][free] * one
    return v


def _adjacency_rows(presentation) -> tuple:
    """The adjacency matrix as sparse rows: (column, edge count) pairs in
    increasing column order, one tuple per state; O(edges)."""
    rows = []
    for targets in presentation.delta:
        counts: dict[int, int] = {}
        for t in targets.values():
            counts[t] = counts.get(t, 0) + 1
        rows.append(tuple(sorted(counts.items())))
    return tuple(rows)


def _columns(rows) -> list:
    """The sparse rows of the transpose."""
    cols: list[list] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, a in row:
            cols[j].append((i, a))
    return cols


def _dense(rows) -> list[list[int]]:
    matrix = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, a in row:
            matrix[i][j] = a
    return matrix


def _product(rows, v):
    """A v for a matrix given by sparse rows (plain loops: most rows hold
    one to three entries)."""
    out = []
    for row in rows:
        acc = 0
        for j, a in row:
            acc += a * v[j]
        out.append(acc)
    return out


def _enclosure(rows, v, av=None):
    """Collatz-Wielandt bounds (lo, hi) = min/max_i (A v)_i / v_i on rho of
    a non-negative matrix (sparse rows) from a positive integer vector v
    (av = A v if known), picked by integer cross-multiplication: only the
    two winning ratios become Fractions.
    """
    if av is None:
        av = _product(rows, v)
    lo = hi = None  # (numerator, denominator) of the extreme ratio so far
    for a, q in zip(av, v):
        if lo is None or a * lo[1] < lo[0] * q:
            lo = (a, q)
        if hi is None or a * hi[1] > hi[0] * q:
            hi = (a, q)
    return Fraction(*lo), Fraction(*hi)


def _power_iteration(rows):
    """Positive integer vector of an irreducible non-negative matrix
    (sparse rows) near its Perron vector.

    Iterates v <- (A + I) v on integers (the shift makes the matrix
    primitive).  Every CHECK_EVERY steps, and at MAX_ITER, v is cut by a
    power of two, rounding up so no entry reaches 0, to give its least
    entry FIXED_BITS bits.  The iteration stops once the enclosure of v is
    narrower than 2^-(3/4 FIXED_BITS).
    """
    shifted = [[*row, (i, 1)] for i, row in enumerate(rows)]
    v = [1 << FIXED_BITS] * len(rows)
    for step in range(MAX_ITER + 1):
        check = step % CHECK_EVERY == 0 or step == MAX_ITER
        if check:
            cut = min(v).bit_length() - FIXED_BITS
            if cut > 0:
                v = [-(-x >> cut) for x in v]
        w = _product(shifted, v)
        if check:
            lo, hi = _enclosure(shifted, v, w)
            if step == MAX_ITER or (hi - lo) * (1 << 3 * FIXED_BITS // 4) < 1:
                return v
        v = w


def _fixed_point_data(rows, cols, right, left) -> PerronData:
    """Integer eigendata, enclosed by the tighter of the Collatz-Wielandt
    bounds of A (sparse rows) from r and of A^T (sparse cols) from l."""
    r_lo, r_hi = _enclosure(rows, right)
    l_lo, l_hi = _enclosure(cols, left)
    lo, hi = max(r_lo, l_lo), min(r_hi, l_hi)
    return PerronData(
        eigenvalue=float((lo + hi) / 2),
        right=tuple(right),
        left=tuple(left),
        exact=False,
        enclosure=(lo, hi),
    )


def perron_eigendata(presentation) -> PerronData:
    """Eigendata of the adjacency matrix of the essential part.

    Per component: the renewal closed form when it has that shape, else
    power iteration, then exact data when it is small and its Perron root
    rational or quadratic (see the module docstring).  Kept on the essential
    part, which every view of a presentation (itself, its live part, its
    essential part) shares, so they compute it once.
    """
    core = presentation.essential_part()
    if core._perron is None:
        rows = _adjacency_rows(core)
        comps = core.components()
        parts = [_eigendata(_component_rows(rows, c)) for c in comps]
        core._perron = (parts[0] if len(comps[0]) == len(rows)
                        else _reducible_eigendata(parts))
    return core._perron


def _component_rows(rows, states) -> tuple:
    """The sparse rows of the submatrix on `states` (increasing), renumbered."""
    index = {s: i for i, s in enumerate(states)}
    return tuple(tuple((index[j], a) for j, a in rows[s] if j in index)
                 for s in states)


def _reducible_eigendata(parts) -> PerronData:
    """The largest root over the components' data, enclosed by (max lo,
    max hi); exact when that enclosure is a point.  Exact roots from two
    quadratic fields are compared through rational brackets."""
    bounds, unit = [p.enclosure for p in parts], 1 << FIXED_BITS
    try:
        lo, hi = (max(b[i] for b in bounds) for i in (0, 1))
    except ValueError:  # exact roots from two quadratic fields: round out
        lo = Fraction(max(math.floor(b[0] * unit) for b in bounds), unit)
        hi = Fraction(-min(math.floor(-b[1] * unit) for b in bounds), unit)
    return PerronData(eigenvalue=lo if lo == hi else float((lo + hi) / 2),
                      right=None, left=None, exact=lo == hi, enclosure=(lo, hi))


def _eigendata(rows) -> PerronData:
    """Eigendata of the matrix with these sparse rows; a dense copy is
    built only for the exactness test."""
    data = _renewal_eigendata(rows)
    if data is None:
        cols = _columns(rows)
        data = _fixed_point_data(rows, cols, _power_iteration(rows),
                                 _power_iteration(cols))
    if len(rows) <= EXACT_STATE_LIMIT:
        return _exact_eigendata(rows, *data.enclosure) or data
    return data


def _renewal_eigendata(rows) -> PerronData | None:
    """Closed-form eigendata of a renewal matrix; None for any other matrix.

    Row k must be c_k e_0 + e_{k+1} and the last row c_{n-1} e_0 with
    c_{n-1} > 0.  With r_0 = 1 the eigen-equations read
    r_{k+1} = x r_k - c_k and c_{n-1} = x r_{n-1}, so r follows by backward
    Horner, r_k = (c_k + r_{k+1}) / x, once x solves
    sum_k c_k x^(-k-1) = 1, that is x^n = sum_k c_k x^(n-1-k); the left
    equations give l_k = l_0 x^(-k).  Both vectors are kept in the unit
    2^-shift, and r_k >= c_{n-1} x^(k-n) >= x^-n and l_k >= x^-n give
    every entry at least FIXED_BITS bits.
    """
    n = len(rows)
    coeffs = []
    for k, row in enumerate(rows):
        entries = dict(row)
        coeffs.append(entries.get(0, 0))
        # entries are positive, so the sum leaves no other entry
        if (k + 1 < n and entries.get(k + 1) != 1) or (
            sum(entries.values()) != coeffs[-1] + (k + 1 < n)
        ):
            return None
    if not coeffs[-1]:
        return None
    x = _largest_root([1] + [-c for c in coeffs], _renewal_start(coeffs))
    shift = FIXED_BITS + math.ceil(n * math.log2(x / (1 << FIXED_BITS)))
    right = [0] * n
    acc = 0
    for k in range(n - 1, -1, -1):
        acc = (((coeffs[k] << shift) + acc) << FIXED_BITS) // x
        right[k] = acc
    left = [1 << shift]
    for _ in range(n - 1):
        left.append((left[-1] << FIXED_BITS) // x)
    return _fixed_point_data(rows, _columns(rows), right, left)


def _renewal_start(coeffs) -> int:
    """A fixed-point point above the renewal root, by float bisection.

    The excess sum_k c_k x^(-k-1) - 1 decreases from sum(c) - 1 >= 0 at
    x = 1 to at most 0 at x = sum(c); the bracket's upper end, moved up by
    its width, clears the rounding of the float excess.
    """
    def excess(x):
        y = 1 / x
        f = 0.0
        for c in reversed(coeffs):
            f = (f + c) * y
        return f - 1

    lo, hi = 1.0, float(max(1, sum(coeffs)))
    while hi - lo > 1e-9 * hi:
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return math.ceil(math.ldexp(2 * hi - lo, FIXED_BITS))


def _value_and_slope(coeffs, x):
    """p and p' at x 2^-FIXED_BITS, both times 2^FIXED_BITS and rounded
    down at each Horner step (exact when x is a multiple of 2^FIXED_BITS);
    coefficients leading first."""
    f = df = 0
    for c in coeffs:
        df = (df * x >> FIXED_BITS) + f
        f = (f * x >> FIXED_BITS) + (c << FIXED_BITS)
    return f, df


def _largest_root(coeffs, start: int) -> int:
    """Largest real root of the characteristic polynomial p of a
    non-negative matrix, as x with root ~ x 2^-FIXED_BITS, by fixed-point
    Newton from `start` >= 2^FIXED_BITS rho.

    By Gauss-Lucas every root of p' and p'' has modulus <= rho, so p is
    increasing and convex on (rho, oo) and the iterates descend to rho;
    they stop once p is no longer positive or the step rounds to 0.
    """
    x = start
    while True:
        f, df = _value_and_slope(coeffs, x)
        if f <= 0 or df <= 0:  # at the root, or rounding noise past it
            return x
        step = (f << FIXED_BITS) // df
        if not step:
            return x
        x -= step


def _candidates(lo, hi):
    """Every integer, and every quadratic integer (a + sqrt(a^2 + 4b)) / 2
    with 0 <= a <= 2 hi, in [lo, hi]."""
    yield from map(Fraction, range(math.ceil(lo), math.floor(hi) + 1))
    for a in range(math.floor(2 * hi) + 1):
        # b = lam (lam - a) increases with lam >= a / 2
        low = max(lo, Fraction(a, 2))
        for b in range(math.ceil(low * (low - a)), math.floor(hi * (hi - a)) + 1):
            disc = a * a + 4 * b
            if math.isqrt(disc) ** 2 != disc:  # else lam is an integer
                lam = QuadraticNumber(Fraction(a, 2), Fraction(1, 2), disc)
                if lo <= lam <= hi:
                    yield lam


def _exact_eigendata(rows, lo, hi) -> PerronData | None:
    """Exact eigendata of the matrix with these sparse rows, at the first
    candidate root in [lo, hi] with positive kernel vectors on both sides;
    None when there is none."""
    matrix = _dense(rows)
    for lam in _candidates(lo, hi):
        right = _positive_kernel_vector(matrix, lam)
        left = right and _positive_kernel_vector(list(zip(*matrix)), lam)
        if left:
            return PerronData(eigenvalue=lam, right=tuple(right), left=tuple(left),
                              exact=True, enclosure=(lam, lam))
    return None


def _positive_kernel_vector(matrix, lam):
    """A positive kernel vector of matrix - lam I, or None."""
    one = lam / lam if isinstance(lam, QuadraticNumber) else Fraction(1)
    zero = one - one
    shifted = [[a * one - (lam if i == j else zero) for j, a in enumerate(row)]
               for i, row in enumerate(matrix)]
    vec = _kernel_vector(shifted, one)
    if vec is None:
        return None
    if all(x <= zero for x in vec):
        vec = [-x for x in vec]
    if any(x <= zero for x in vec):
        return None
    return vec
