"""Invariants of the exact growth bounds and of whole `verify` reports.

Every comparison of a count with a power of beta is decided on the bounds
lo <= beta <= hi of `suites._growth`, and every reported constant is the
exact value at lo rounded once.  The property test checks the decisions
and the direction of each bound against a test-local root of the renewal
polynomial; the sweep runs `verify` in process on rational beta and checks
the invariants that hold for every beta.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from obstruct import cli, suites
from obstruct.beta import BetaSystem
from obstruct.cli import EXIT_INCONCLUSIVE, EXIT_INPUT, EXIT_PASS, main
from obstruct.decomposition import beta_decomposition
from obstruct.errors import InputError
from obstruct.measures import parry_measure
from obstruct.orbits import OrbitCollection, count_separated
from obstruct.reports import fmt_float, fmt_number
from test_cli import _BENCH
from test_mass_classes import naive_gibbs
from test_suites import _exact_joint, _tail_sums_per_head, reported_tails


def _renewal_root(digits):
    """A bracket (a, b), b - a <= 2^-400, of beta for the periodic expansion
    (digits)^oo: the root x > 1 of x^p - 1 = sum_k d_k x^(p-k), by bisection
    in `Fraction`s.  It is the only positive root, since x^-p + sum_k d_k x^-k
    decreases in x."""
    p = len(digits)

    def excess(x):
        return x ** p - 1 - sum(d * x ** (p - k) for k, d in enumerate(digits, 1))

    a, b = Fraction(1), Fraction(max(digits) + 2)
    while b - a > Fraction(1, 2 ** 400):
        mid = (a + b) / 2
        a, b = (mid, b) if excess(mid) < 0 else (a, mid)
    return a, b


def _bounds(system):
    """The exact lo and hi of `suites._growth`."""
    return tuple(suites._exact(q) for q in suites._growth(system))


def _truth(below, above):
    """count >= beta^e from the bracket: True when count >= b^e, False when
    count < a^e, None (the oracle cannot tell) in between."""
    return True if above else False if not below else None


def _assert_row_matches(row, truths):
    """The row fails at the first n the oracle calls false, and passes when
    it calls none false; an undecided row ("not run") is never a wrong
    verdict, but none is expected on the enclosure's width."""
    bad = next((n for n, t in truths.items() if t is False), None)
    assert row.passed is None or (row.passed, row.details["witness"]) == (
        bad is None, bad
    ), row.summary
    assert row.passed is not None, row.summary


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    digits=st.lists(st.integers(0, 3), min_size=1, max_size=6),
    tau=st.integers(0, 2),
)
def test_growth_decisions_and_bound_directions_match_the_renewal_root(digits, tau):
    try:
        system = BetaSystem.from_expansion(digits, period=len(digits))
        scheme = beta_decomposition(system)
        measure = parry_measure(system, 6)
    except InputError:
        assume(False)
    a, b = _renewal_root(digits)
    lo, hi = _bounds(system)
    if lo == hi:
        assert a <= lo <= b  # beta itself, rational or quadratic
        a = b = lo
    else:
        assert lo <= a and b <= hi  # the enclosure holds the bracket
    n_max = 24
    report = suites.counting_suite(system, scheme, n_max=n_max, tau=tau)
    full = OrbitCollection.full_language(system)
    lang = {n: count_separated(full, n, 0) for n in range(1, n_max + 1)}
    cores = {n: count_separated(scheme.cores(), n, 0) for n in range(1, n_max + 1)}

    # growth floor count >= beta^n, core ceiling count <= beta^(n + tau)
    _assert_row_matches(report.check("growth-floor"), {
        n: _truth(c >= a ** n, c >= b ** n) for n, c in lang.items()
    })
    _assert_row_matches(report.check("core-count-ceiling"), {
        n: _truth(c <= b ** (n + tau), c <= a ** (n + tau)) for n, c in cores.items()
    })

    # c1 and the tails, computed with lo, bound their values at beta, so at
    # a <= beta, from above
    window = range((n_max + 1) // 2, n_max + 1)
    c1 = max(Fraction(lang[n]) / lo ** n for n in window)
    assert report.c1 == float(c1)
    assert c1 >= max(Fraction(lang[n]) / a ** n for n in window)
    boundary = {n: count_separated(scheme.boundary(), n, 0) for n in range(1, n_max + 1)}
    tails, closed_form, _, _ = _tail_sums_per_head(boundary, lo, n_max)
    assert report.b_tails == reported_tails(tails, closed_form, lo == hi)
    at_a = _tail_sums_per_head(boundary, a, n_max)[0]
    assert all(tails[m] >= at_a[m] for m in tails)

    # the Gibbs and two-window constants, computed with lo^n, from below
    gibbs = suites.gibbs_check(measure, system, scheme, 1, range(1, 7))
    assert gibbs.constant == float(gibbs.constant_exact)
    if gibbs.passed:
        assert gibbs.constant_exact <= naive_gibbs(
            measure, system, scheme, 1, range(1, 7), 0, growth=a
        )[0]
    words = scheme.level_words(1, 1)
    pairs = [(u, v) for u in words for v in words]
    mixing = suites.mixing_check(measure, system, scheme, 1, pairs, q=2)
    assert mixing.constant == float(mixing.constant_exact)
    if mixing.passed:
        assert mixing.constant_exact <= min(
            _exact_joint(measure, u, 2, v) * a ** (len(u) + len(v)) for u, v in pairs
        )


def _verify_in_process(argv, monkeypatch):
    """Run `verify` in process: its exit code, payload, and the arguments
    and result of the battery and of each suite call in it, by name."""
    calls = {}
    for module, name in ((cli, "verify_battery"), (suites, "counting_suite"),
                         (suites, "gibbs_check"), (suites, "mixing_check")):
        def traced(*args, _name=name, _run=getattr(module, name), **kwargs):
            calls[_name] = (args, kwargs, _run(*args, **kwargs))
            return calls[_name][2]

        monkeypatch.setattr(module, name, traced)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, (json.loads(out.getvalue())["payload"] if code != EXIT_INPUT else None), calls


def _assert_verify_invariants(argv, monkeypatch):
    code, payload, calls = _verify_in_process(argv, monkeypatch)
    if code == EXIT_INPUT:
        return code
    rows = {c["name"]: c for c in payload["checks"]}
    # exit 0 only when every check passed
    assert (code == EXIT_PASS) <= all(c["passed"] for c in payload["checks"])
    # the battery's rows set the exit code: 3 exactly when one was not run or
    # is undecided, 0 exactly when all passed; the payload renders each
    battery_rows, _ = calls["verify_battery"][2]
    outcomes = [r.passed for r in battery_rows]
    assert (code == EXIT_INCONCLUSIVE) == (None in outcomes)
    assert (code == EXIT_PASS) == all(outcomes)
    assert [(c["name"], c["passed"]) for c in payload["checks"]] == [
        (r.name, bool(r.passed)) for r in battery_rows
    ]

    # lo^n <= |L_n| <= hi^(n+1) / (lo - 1) (Renyi 1957; Parry 1960)
    (system, scheme), kwargs, suite = calls["counting_suite"]
    lo, hi = _bounds(system)
    n_max, j = kwargs["n_max"], kwargs["j"]
    for n in range(1, n_max + 1):
        assert lo ** n <= system.count_language(n) <= hi ** (n + 1) / (lo - 1), n

    # every float in `constants` is its exact value at lo rounded once
    constants = payload["constants"]
    full = OrbitCollection.full_language(system)
    ratios = {n: Fraction(count_separated(full, n, j)) / lo ** n for n in range(1, n_max + 1)}
    assert constants["c1"] == fmt_float(max(ratios[n] for n in range((n_max + 1) // 2, n_max + 1)))
    assert constants["c1_sup"] == fmt_float(max(ratios.values()))
    boundary = {n: count_separated(scheme.boundary(), n, j) for n in range(1, n_max + 1)}
    tails, closed_form, _, _ = _tail_sums_per_head(boundary, lo, n_max)
    assert constants["tails"] == {
        str(m): fmt_number(v) if isinstance(v, Fraction) else fmt_float(v)
        for m, v in reported_tails(tails, closed_form, lo == hi).items()
    }

    # every floor constant is its exact value rounded once, and every proof
    # constant is at most the measured one, and is (4k C1_sup)^-1 hi^(-2k tau)
    # for k windows, at the level's gluing time, rounded once
    c1_sup = max(ratios.values())
    level_row = rows[f"gluing-level-{calls['verify_battery'][1]['level']}"]
    for k, name, call in ((1, "mass-floor", "gibbs_check"),
                          (2, "two-window-mass-floor", "mixing_check")):
        if "constant" in rows[name]:
            assert rows[name]["constant"] == fmt_float(calls[call][2].constant_exact)
            if rows[name]["proof_constant"] is not None:
                assert float(rows[name]["proof_constant"]) <= float(rows[name]["constant"])
                assert rows[name]["proof_constant"] == fmt_float(
                    1 / (4 * k * c1_sup * hi ** (2 * k * level_row["tau"])))

    # alpha = k' / (64 C1^2) from the exact two-window floor, rounded once
    c1 = max(ratios[n] for n in range((n_max + 1) // 2, n_max + 1))
    if rows["correlation-floor"]["alpha_constant"] is not None:
        assert rows["correlation-floor"]["alpha_constant"] == fmt_float(
            calls["mixing_check"][2].constant_exact / (64 * c1 ** 2))
    return code


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    beta=st.integers(1, 20).flatmap(
        lambda q: st.integers(q + 1, 4 * q).map(lambda p: Fraction(p, q))
    ),
    horizon=st.integers(24, 40),
    depth=st.integers(0, 1),
)
def test_verify_invariants_over_rational_beta(beta, horizon, depth):
    argv = ["verify", "--beta", str(beta), "--horizon", str(horizon),
            "--depth", str(depth)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_verify_invariants(argv, monkeypatch)


@pytest.mark.parametrize("op", [
    "verify --expansion-file @p5 --depth 2",
    "verify --beta 1.5 --horizon 60 --depth 3",
])
def test_verify_invariants_on_pinned_examples(op, tmp_path, monkeypatch):
    _BENCH.write_inputs(tmp_path)
    assert _assert_verify_invariants(_BENCH.argv_for(op, tmp_path), monkeypatch) != EXIT_INPUT
