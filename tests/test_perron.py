from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from obstruct import perron
from obstruct.beta import BetaSystem
from obstruct.factors import BlockCode, FactorSystem
from obstruct.measures import parry_measure
from obstruct.perron import (
    _eigendata_from_factor,
    _exact_eigendata,
    _power_iteration,
    _renewal_eigendata,
    perron_eigendata,
)
from obstruct.quadratic import QuadraticNumber

AGREE = mpmath.mpf("1e-28")


def _renewal_matrix(coeffs):
    n = len(coeffs)
    rows = [[0] * n for _ in range(n)]
    for k, c in enumerate(coeffs):
        rows[k][0] += c
        if k + 1 < n:
            rows[k][k + 1] += 1
    return rows


def _by_power_iteration(matrix):
    n = len(matrix)
    lam, right, _ = _power_iteration(matrix)
    _, left, _ = _power_iteration([[matrix[j][i] for j in range(n)] for i in range(n)])
    return lam, right, left


def _max_gap(u, v):
    """Largest entry gap after scaling each vector to maximum entry 1."""
    with mpmath.workdps(60):
        mu, mv = max(u), max(v)
        return max(abs(a / mu - b / mv) for a, b in zip(u, v))


def _assert_agree(data, matrix):
    lam, right, left = _by_power_iteration(matrix)
    with mpmath.workdps(60):
        assert abs(data.eigenvalue - lam) < AGREE
    assert _max_gap(data.right, right) < AGREE
    assert _max_gap(data.left, left) < AGREE


def _true_residual(matrix, data):
    with mpmath.workdps(300):
        return max(
            abs(sum(a * r for a, r in zip(row, data.right)) - data.eigenvalue * ri)
            for row, ri in zip(matrix, data.right)
        )


@pytest.mark.parametrize(
    "system",
    [
        BetaSystem.from_beta(Fraction(3, 2), horizon=60),
        BetaSystem.from_beta(Fraction(9, 5), horizon=60),
        BetaSystem.from_beta(Fraction(5, 2), horizon=60),
        BetaSystem.from_expansion((1, 1, 0, 1, 0, 0, 1, 0, 0), period=9),
    ],
    ids=["3/2", "9/5", "5/2", "p9"],
)
def test_beta_shift_closed_form_matches_power_iteration(system):
    matrix = system.presentation.essential_part().adjacency()
    data = _renewal_eigendata(matrix)
    assert data is not None and not data.exact
    assert abs(data.right[0] - 1) < 1e-60
    _assert_agree(data, matrix)
    assert perron_eigendata(system.presentation) == data


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=6),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_random_renewal_matrices(head, last):
    # zero c_k, n = 1 and the pure cycle (a single 1) all occur
    matrix = _renewal_matrix(head + [last])
    data = _renewal_eigendata(matrix)
    assert data is not None
    _assert_agree(data, matrix)
    assert data.residual == pytest.approx(float(_true_residual(matrix, data)), rel=1e-6)
    assert data.residual < 1e-60


def test_full_shift_is_one_state_renewal():
    data = _renewal_eigendata([[3]])
    assert data.eigenvalue == 3 and data.right == (1,) and data.left == (1,)
    assert data.residual == 0


def test_residual_is_the_real_sup_norm(threehalf):
    matrix = threehalf.presentation.essential_part().adjacency()
    data = _renewal_eigendata(matrix)
    true = _true_residual(matrix, data)
    assert true > 0
    assert data.residual == pytest.approx(float(true), rel=1e-6)


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
    matrix = presentation.essential_part().adjacency()
    assert _renewal_eigendata(matrix) is None
    data = perron_eigendata(presentation)
    lam, right, left = _by_power_iteration(matrix)
    assert (data.eigenvalue, data.right, data.left) == (lam, tuple(right), tuple(left))


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
    assert _renewal_eigendata(matrix) is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: BetaSystem.from_expansion((1, 1, 0, 1, 0, 0, 1, 0, 0), period=9),
        lambda: BetaSystem.from_expansion((2, 1, 0, 1)),
        lambda: FactorSystem(
            BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),
            BlockCode.identity(3),
        ),
    ],
    ids=["p9", "user-truncated", "identity(p5)"],
)
def test_eigendata_computed_once_per_system(make, monkeypatch):
    # beta_value reads the live part, parry_measure the essential part: one
    # essential matrix, so one computation, equal to an uncached one
    system = make()
    calls = []
    compute = perron._eigendata
    monkeypatch.setattr(
        perron, "_eigendata", lambda *args: calls.append(args) or compute(*args)
    )
    beta = system.beta_value()
    measure = parry_measure(system, 3)
    assert system.beta_value() == beta
    assert len(calls) == 1 and len(system.perron_cache) == 1
    assert measure.meta["eigenvalue"] == float(beta)
    assert list(system.perron_cache.values()) == [perron_eigendata(make().presentation)]


def _essential_matrix(expansion, period):
    system = BetaSystem.from_expansion(expansion, period=period)
    return system.presentation.essential_part().adjacency()


P5 = _essential_matrix((2, 1, 0, 0, 1), 5)
P9 = _essential_matrix((1, 1, 0, 1, 0, 0, 1, 0, 0), 9)
REDUCIBLE = [[2, 0, 0], [1, 2, 0], [2, 0, 0]]  # Perron root 2, twice


def _sympy_eigendata(matrix):
    """Reference: factor p over Q with sympy and keep the factor that
    vanishes at lam, taken exactly from `real_roots`."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.Matrix(matrix).charpoly(x).as_expr(), x)
    lam_f = float(sympy.real_roots(poly)[-1])
    best = None
    for fac, _ in sympy.factor_list(poly.as_expr())[1]:
        coeffs = [int(c) for c in sympy.Poly(fac, x).all_coeffs()]
        val = abs(sum(float(c) * lam_f ** k for k, c in enumerate(reversed(coeffs))))
        scale = 1 + sum(abs(c) for c in coeffs)
        if val / scale < 1e-6 and (best is None or val < best[0]):
            best = (val, coeffs)
    if best is None or len(best[1]) > 3:
        return None
    coeffs = best[1] if best[1][0] > 0 else [-c for c in best[1]]
    return _eigendata_from_factor(matrix, coeffs, lam_f)


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
    assert _exact_eigendata(matrix) == _sympy_eigendata(matrix)


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_random_matrices_match_sympy_factoring(matrix):
    assert _exact_eigendata(matrix) == _sympy_eigendata(matrix)


@pytest.mark.parametrize(
    "matrix, eigenvalue",
    [
        ([[1, 1], [1, 0]], QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)),
        ([[2]], Fraction(2)),
        (P5, None),
        (REDUCIBLE, None),
    ],
    ids=["golden", "full-2", "p5", "reducible"],
)
def test_exact_path_needs_no_power_iteration(matrix, eigenvalue, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("power iteration reached")

    monkeypatch.setattr(perron, "_power_iteration", refuse)
    data = _exact_eigendata(matrix)
    assert (None if data is None else data.eigenvalue) == eigenvalue
    assert data is None or data.exact
