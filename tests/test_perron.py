import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from obstruct import perron
from obstruct.automata import Presentation
from obstruct.beta import BetaSystem
from obstruct.errors import HorizonError
from obstruct.factors import BlockCode, FactorSystem
from obstruct.measures import parry_measure
from obstruct.perron import (
    FIXED_BITS,
    PerronData,
    _eigendata,
    _enclosure,
    _exact_eigendata,
    _fixed_point_data,
    _largest_root,
    _power_iteration,
    _product,
    _renewal_eigendata,
    perron_eigendata,
)
from obstruct.quadratic import QuadraticNumber
from test_mass_classes import _GraphSystem

AGREE = Fraction(1, 10**40)


def _sparse(matrix):
    """[(column, entry)] of the nonzero entries of each row."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in matrix]


def _transpose(matrix):
    return [list(col) for col in zip(*matrix)]


def _renewal_matrix(coeffs):
    n = len(coeffs)
    rows = [[0] * n for _ in range(n)]
    for k, c in enumerate(coeffs):
        rows[k][0] += c
        if k + 1 < n:
            rows[k][k + 1] += 1
    return rows


def _by_power_iteration(matrix):
    rows, cols = _sparse(matrix), _sparse(_transpose(matrix))
    return _fixed_point_data(rows, cols, _power_iteration(rows), _power_iteration(cols))


def _max_gap(u, v):
    """Largest entry gap after scaling each vector to maximum entry 1."""
    mu, mv = max(u), max(v)
    return max(abs(Fraction(a, mu) - Fraction(b, mv)) for a, b in zip(u, v))


def _assert_agree(data, matrix):
    """The renewal data against the integer power iteration: overlapping
    enclosures and the same vectors up to scale."""
    other = _by_power_iteration(matrix)
    (lo, hi), (lo2, hi2) = data.enclosure, other.enclosure
    assert lo <= hi2 and lo2 <= hi
    assert _max_gap(data.right, other.right) < AGREE
    assert _max_gap(data.left, other.left) < AGREE


def _collatz_wielandt(matrix, data):
    """The enclosure recomputed from the stored vectors: the tighter of the
    bounds min/max_i (A r)_i / r_i and min/max_i (A^T l)_i / l_i."""
    def bounds(rows, v):
        ratios = [Fraction(sum(a * x for a, x in zip(row, v)), vi)
                  for row, vi in zip(rows, v)]
        return min(ratios), max(ratios)

    (a, b), (c, d) = bounds(matrix, data.right), bounds(_transpose(matrix), data.left)
    return max(a, c), min(b, d)


def _brackets_renewal_root(coeffs, lo, hi):
    """p(lo) <= 0 <= p(hi) exactly for p(x) = x^n - sum_k c_k x^(n-1-k),
    whose only positive root is the renewal root."""
    def p(x):
        f = Fraction(1)
        for c in coeffs:
            f = f * x - c
        return f

    return p(lo) <= 0 <= p(hi)


BETA_SYSTEMS = pytest.mark.parametrize(
    "system",
    [
        BetaSystem.from_beta(Fraction(3, 2), horizon=60),
        BetaSystem.from_beta(Fraction(9, 5), horizon=60),
        BetaSystem.from_beta(Fraction(5, 2), horizon=60),
        BetaSystem.from_expansion((1, 1, 0, 1, 0, 0, 1, 0, 0), period=9),
    ],
    ids=["3/2", "9/5", "5/2", "p9"],
)


@BETA_SYSTEMS
def test_beta_shift_closed_form_matches_power_iteration(system):
    matrix = system.presentation.essential_part().adjacency()
    data = _renewal_eigendata(_sparse(matrix))
    assert data is not None and not data.exact
    # r_0 = 1 = l_0 at the root, both in the same unit
    assert abs(Fraction(data.right[0], data.left[0]) - 1) < Fraction(1, 10**70)
    _assert_agree(data, matrix)
    assert perron_eigendata(system.presentation) == data


@BETA_SYSTEMS
def test_renewal_enclosure_contains_mpmath_root(system):
    mpmath = pytest.importorskip("mpmath")
    matrix = system.presentation.essential_part().adjacency()
    coeffs = [row[0] for row in matrix]
    lo, hi = _renewal_eigendata(_sparse(matrix)).enclosure
    assert 0 < hi - lo < Fraction(1, 10**70)
    assert _brackets_renewal_root(coeffs, lo, hi)
    with mpmath.workdps(100):
        # reference: a 100-digit root of sum_k c_k x^(-k-1) = 1 by mpmath's
        # secant solver from a float start; it is itself good to about 1e-100
        root = mpmath.findroot(
            lambda x: sum(c * x ** (-k - 1) for k, c in enumerate(coeffs)) - 1,
            mpmath.mpf(float(lo)),
        )
        slack = mpmath.mpf(10) ** -90
        assert mpmath.mpf(lo.numerator) / lo.denominator - slack <= root
        assert root <= mpmath.mpf(hi.numerator) / hi.denominator + slack


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=6),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_random_renewal_matrices(head, last):
    # zero c_k, n = 1 and the pure cycle (a single 1) all occur
    coeffs = head + [last]
    matrix = _renewal_matrix(coeffs)
    data = _renewal_eigendata(_sparse(matrix))
    assert data is not None
    _assert_agree(data, matrix)
    lo, hi = data.enclosure
    assert data.enclosure == _collatz_wielandt(matrix, data)
    assert hi - lo < Fraction(1, 2**200)
    assert _brackets_renewal_root(coeffs, lo, hi)
    assert data.eigenvalue == float((lo + hi) / 2)


def test_full_shift_is_one_state_renewal():
    data = _renewal_eigendata(_sparse([[3]]))
    assert data.eigenvalue == 3 and data.enclosure == (3, 3)
    assert len(data.right) == len(data.left) == 1


def test_enclosure_is_the_collatz_wielandt_bound(threehalf):
    matrix = threehalf.presentation.essential_part().adjacency()
    data = _renewal_eigendata(_sparse(matrix))
    lo, hi = data.enclosure
    assert (lo, hi) == _collatz_wielandt(matrix, data)
    assert 0 < hi - lo < Fraction(1, 10**70)


def _fraction_enclosure(rows, v):
    """The Collatz-Wielandt bounds with one Fraction per entry."""
    ratios = [Fraction(p, q) for p, q in zip(_product(rows, v), v)]
    return min(ratios), max(ratios)


@given(st.data(), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_cross_multiplied_enclosure_matches_fractions(data, n):
    rows = [
        [(j, a) for j in range(n)
         if (a := data.draw(st.integers(0, 3), label="entry"))]
        for _ in range(n)
    ]
    v = data.draw(st.lists(
        st.one_of(st.integers(1, 4), st.integers(1, 1 << FIXED_BITS + 8)),
        min_size=n, max_size=n,
    ), label="v")
    assert _enclosure(rows, v) == _fraction_enclosure(rows, v)


def _refuse_power_iteration(*args):
    raise AssertionError("power iteration reached")


def test_reducible_repeated_root_is_enclosed(monkeypatch):
    # a Jordan block at the Perron root 2: each of the two components has
    # root exactly 2, so the enclosure is the point 2 and no vector exists
    monkeypatch.setattr(perron, "_power_iteration", _refuse_power_iteration)
    data = perron_eigendata(_presentation(REDUCIBLE))
    assert data.exact and data.enclosure == (2, 2) and data.eigenvalue == 2
    assert data.right is None and data.left is None


def test_quadratic_roots_from_two_fields_are_bracketed():
    # block triangular: golden mean (root (1 + sqrt 5) / 2) feeding the
    # silver mean (root 1 + sqrt 2); the exact roots do not compare
    matrix = [[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 2, 1], [0, 0, 1, 0]]
    data = perron_eigendata(_presentation(matrix))
    lo, hi = data.enclosure
    assert not data.exact and data.right is None
    assert 0 < hi - lo <= Fraction(1, 2**FIXED_BITS)
    assert lo * lo < 2 * lo + 1 and hi * hi > 2 * hi + 1  # 1 + sqrt 2 inside
    assert data.eigenvalue == float((lo + hi) / 2)


def _strongly_connected(rows):
    """Every state reaches state 0 and is reached from it."""
    def reached(edges):
        seen, todo = {0}, [0]
        while todo:
            for j in edges[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        return len(seen) == len(rows)

    backward = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, _ in row:
            backward[j].append(i)
    return reached([[j for j, _ in row] for row in rows]) and reached(backward)


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_random_matrices_enclose_the_largest_root(matrix):
    # rho of the whole matrix, from its own characteristic polynomial (by
    # sympy): the states outside the essential part add only zero roots.
    # Fixed-point Newton stops within about 2^-(FIXED_BITS / m) of a root of
    # multiplicity m <= 7, hence the slack
    sympy = pytest.importorskip("sympy")
    presentation = _presentation(matrix)
    try:
        presentation.essential_part()
    except HorizonError:
        assume(False)
    poly = [int(c) for c in sympy.Matrix(matrix).charpoly().all_coeffs()]
    x = _largest_root(poly, max(map(sum, matrix)) << FIXED_BITS)
    rho, slack = Fraction(x, 1 << FIXED_BITS), Fraction(1, 2**32)

    def checked(rows):
        assert _strongly_connected(rows)
        return _power_iteration(rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(perron, "_power_iteration", checked)
        data = perron_eigendata(presentation)
    lo, hi = data.enclosure
    assert lo - slack <= rho <= hi + slack
    assert (data.right is None) == (data.left is None)


def test_wide_spread_vector_keeps_its_bits():
    # a preperiodic wrap after 300 zeros: the Perron vector spreads over
    # about 300 bits, more than FIXED_BITS, and still converges
    system = BetaSystem.from_expansion((2,) + (0,) * 300 + (1, 0), period=2)
    start = time.perf_counter()
    data = perron_eigendata(system.presentation)
    assert time.perf_counter() - start < 5
    lo, hi = data.enclosure
    assert not data.exact and lo < hi < lo + Fraction(1, 2**192)
    assert max(data.right).bit_length() - min(data.right).bit_length() > 256


@pytest.mark.parametrize(
    "presentation",
    [
        # preperiodic wrap: the last state returns to state p = 2, not 0
        BetaSystem.from_expansion((2, 1, 1, 0), period=2).presentation,
        # subset presentation of a factor image
        FactorSystem(
            BetaSystem.from_expansion((1, 1, 0, 1, 0, 0, 1, 0, 0), period=9),
            BlockCode.xor(),
        ).presentation,
    ],
    ids=["preperiodic", "factor"],
)
def test_non_renewal_keeps_power_iteration(presentation):
    matrices = _component_matrices(presentation)
    top = max(matrices, key=len)
    assert _renewal_eigendata(_sparse(top)) is None
    expected = _by_power_iteration(top)
    if len(matrices) > 1:
        # the factor image: its other two components, a loop and a 2-cycle,
        # have root 1, and a reducible matrix has no positive vectors
        expected = PerronData(expected.eigenvalue, None, None, False, expected.enclosure)
    assert perron_eigendata(presentation) == expected


def _presentation(matrix):
    """A presentation with this adjacency matrix: the edges out of each
    state labelled 0, 1, ... in column order."""
    edges = []
    for i, row in enumerate(matrix):
        targets = [j for j, a in enumerate(row) for _ in range(a)]
        edges += [(i, label, j) for label, j in enumerate(targets)]
    alphabet = max(sum(row) for row in matrix)
    return Presentation(len(matrix), alphabet, edges)


def _component_matrices(presentation):
    """The dense submatrix of each component of the essential part."""
    core = presentation.essential_part()
    matrix = core.adjacency()
    return [[[matrix[i][j] for j in c] for i in c] for c in core.components()]


def _dense_dispatch(presentation):
    """The renewal or power-iteration path on each component's dense
    matrix, then the exactness test in its enclosure on a small one; for
    more than one component, their enclosures joined, no vectors."""
    matrices, parts = _component_matrices(presentation), []
    for matrix in matrices:
        data = _renewal_eigendata(_sparse(matrix)) or _by_power_iteration(matrix)
        if len(matrix) <= perron.EXACT_STATE_LIMIT:
            data = _exact_eigendata(_sparse(matrix), *data.enclosure) or data
        parts.append(data)
    if [len(m) for m in matrices] == [presentation.essential_part().n_states]:
        return parts[0]
    lo = max(p.enclosure[0] for p in parts)
    hi = max(p.enclosure[1] for p in parts)
    mid = lo if lo == hi else float((lo + hi) / 2)
    return PerronData(mid, None, None, lo == hi, (lo, hi))


def _assert_computed_once(system, monkeypatch):
    # every view of the presentation reaches one essential part, which keeps
    # the data: one computation per component, equal to the dense dispatch
    calls = []
    compute = perron._eigendata
    monkeypatch.setattr(
        perron, "_eigendata", lambda *args: calls.append(args) or compute(*args)
    )
    presentation = system.presentation
    beta = system.beta_value()
    views = [presentation, presentation.essential_part()]
    data = [perron_eigendata(view) for view in views]
    if presentation.is_primitive():
        parry_measure(system, 3)
    assert system.beta_value() == beta == data[0].eigenvalue
    assert len(calls) == len(presentation.essential_part().components())
    assert all(d is data[0] for d in data)
    assert data[0] == _dense_dispatch(presentation)


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=6),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_random_renewal_matrices_computed_once(head, last):
    with pytest.MonkeyPatch.context() as monkeypatch:
        system = _GraphSystem(_presentation(_renewal_matrix(head + [last])))
        _assert_computed_once(system, monkeypatch)


def test_dense_matrix_only_for_the_exact_path(monkeypatch):
    # 301 states: the renewal path reads the sparse rows alone
    def refuse(rows):
        raise AssertionError(f"dense copy of {len(rows)} states")

    system = BetaSystem.from_beta(Fraction(3, 2), horizon=300)
    matrix = system.presentation.essential_part().adjacency()
    expected = _renewal_eigendata(_sparse(matrix))
    monkeypatch.setattr(perron, "_dense", refuse)
    assert perron_eigendata(system.presentation) == expected


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 2], [1, 0]],  # super-diagonal entry 2
        [[1, 1, 0], [1, 0, 1], [1, 1, 0]],  # last row leaves column 0
        [[1, 1], [0, 0]],  # last state has no return edge
        [[1, 0], [1, 1]],  # no edge 0 -> 1
    ],
)
def test_other_shapes_are_not_renewal(matrix):
    assert _renewal_eigendata(_sparse(matrix)) is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: BetaSystem.from_expansion((1, 1, 0, 1, 0, 0, 1, 0, 0), period=9),
        lambda: BetaSystem.from_expansion((2, 1, 0, 1)),
        lambda: FactorSystem(
            BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),
            BlockCode.identity(3),
        ),
        lambda: BetaSystem.from_expansion((2, 1, 1, 0), period=2),
        lambda: FactorSystem(
            BetaSystem.from_expansion((1, 1, 0, 1, 0, 0, 1, 0, 0), period=9),
            BlockCode.xor(),
        ),
        # x^3 - 2x^2 + x - 1: no rational or quadratic factor
        lambda: _GraphSystem(_presentation([[1, 1, 0], [0, 1, 1], [1, 0, 0]])),
    ],
    ids=["p9", "user-truncated", "identity(p5)", "preperiodic", "factor", "3x3"],
)
def test_eigendata_computed_once_per_system(make, monkeypatch):
    _assert_computed_once(make(), monkeypatch)


def _essential_matrix(expansion, period):
    system = BetaSystem.from_expansion(expansion, period=period)
    return system.presentation.essential_part().adjacency()


P5 = _essential_matrix((2, 1, 0, 0, 1), 5)
P9 = _essential_matrix((1, 1, 0, 1, 0, 0, 1, 0, 0), 9)
REDUCIBLE = [[2, 0, 0], [1, 2, 0], [2, 0, 0]]  # Perron root 2, twice


def _sympy_eigendata(matrix):
    """Reference: (bracket, data).  The bracket holds the largest real root
    of the characteristic polynomial, from sympy's `real_roots`, to within
    2^-200.  The data are None unless a linear or quadratic factor from
    sympy's factoring over Q vanishes there; then they are the kernel data
    at that factor's root, None unless both kernel vectors are positive."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.Matrix(matrix).charpoly(x).as_expr(), x)
    root = sympy.real_roots(poly)[-1]
    mid = sympy.Rational(root.evalf(80))
    mid, slack = Fraction(int(mid.p), int(mid.q)), Fraction(1, 2**200)
    bracket = (mid - slack, mid + slack)
    lam_f = float(root)
    best = None
    for fac, _ in sympy.factor_list(poly.as_expr())[1]:
        coeffs = [int(c) for c in sympy.Poly(fac, x).all_coeffs()]
        val = abs(sum(float(c) * lam_f ** k for k, c in enumerate(reversed(coeffs))))
        scale = 1 + sum(abs(c) for c in coeffs)
        if val / scale < 1e-6 and (best is None or val < best[0]):
            best = (val, coeffs)
    if best is None or len(best[1]) > 3:
        return bracket, None
    if len(best[1]) == 2:  # a x + b
        a, b = best[1]
        lam = Fraction(-b, a)
    else:  # a x^2 + b x + c, larger root
        a, b, c = best[1] if best[1][0] > 0 else [-c for c in best[1]]
        lam = QuadraticNumber(Fraction(-b, 2 * a), Fraction(1, 2 * a), b * b - 4 * a * c)
    assert bracket[0] <= lam <= bracket[1]
    return bracket, _kernel_data(matrix, lam)


def _kernel_data(matrix, lam):
    """Exact data at lam from kernel vectors of A - lam I and A^T - lam I,
    signed to a positive entry; None unless both are positive."""
    one = lam / lam if isinstance(lam, QuadraticNumber) else Fraction(1)
    vectors = []
    for m in (matrix, _transpose(matrix)):
        shifted = [[a * one - (lam if i == j else 0) for j, a in enumerate(row)]
                   for i, row in enumerate(m)]
        v = perron._kernel_vector(shifted, one)
        if max(v) <= 0:
            v = [-e for e in v]
        if min(v) <= 0:
            return None
        vectors.append(tuple(v))
    return PerronData(lam, *vectors, True, (lam, lam))


def _exact_or_none(data):
    return data if data.exact else None


@pytest.mark.parametrize(
    "matrix",
    [
        [[2]],
        [[3]],
        [[1, 1], [1, 0]],
        [[1, 2], [1, 0]],
        [[0, 1], [1, 0]],
        P5,
        P9,
        REDUCIBLE,
    ],
    ids=["full-2", "full-3", "golden", "rational", "periodic", "p5", "p9", "reducible"],
)
def test_exact_path_matches_sympy_factoring(matrix):
    # the exactness test in sympy's bracket, and on an irreducible matrix
    # the whole route: the two agree with sympy's factoring
    bracket, expected = _sympy_eigendata(matrix)
    assert _exact_eigendata(_sparse(matrix), *bracket) == expected
    if matrix is not REDUCIBLE:  # the power iteration needs irreducibility
        assert _exact_or_none(_eigendata(_sparse(matrix))) == expected


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_matrices_match_sympy_factoring(matrix):
    # each component of the essential part (an irreducible matrix) gets
    # exact data exactly when sympy finds a linear or quadratic factor at
    # its Perron root, and then the kernel data there
    try:
        components = _component_matrices(_presentation(matrix))
    except HorizonError:
        assume(False)
    for component in components:
        data = _eigendata(_sparse(component))
        assert _exact_or_none(data) == _sympy_eigendata(component)[1]


def test_exactness_needs_positive_kernel_vectors():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3: in the enclosure [1, 3] the
    # candidate 1 has a kernel vector of mixed sign, 2 none at all
    data = _exact_eigendata(_sparse([[2, 1], [1, 2]]), Fraction(1), Fraction(3))
    assert data.exact and data.eigenvalue == 3
    assert data.right == data.left == (1, 1)


@pytest.mark.parametrize(
    "matrix, eigenvalue",
    [
        ([[1, 1], [1, 0]], QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)),
        ([[2]], Fraction(2)),
        ([[2, 1], [1, 0]], QuadraticNumber(1, 1, 2)),
        (P5, None),
        (REDUCIBLE, Fraction(2)),
    ],
    ids=["golden", "full-2", "silver", "p5", "reducible"],
)
def test_exact_path_needs_no_power_iteration(matrix, eigenvalue, monkeypatch):
    # renewal-shaped components reach exact data, or learn they have none,
    # with no power-iteration step; REDUCIBLE's components are two [[2]]
    monkeypatch.setattr(perron, "_power_iteration", _refuse_power_iteration)
    data = perron_eigendata(_presentation(matrix))
    assert data.exact == (eigenvalue is not None)
    assert eigenvalue is None or data.eigenvalue == eigenvalue
