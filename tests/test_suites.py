import functools
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from obstruct import suites
from obstruct.beta import BetaSystem
from obstruct.decomposition import beta_decomposition, degenerate_decomposition
from obstruct.errors import InputError, ObstructError
from obstruct.measures import CylinderMeasure, parry_measure
from obstruct.perron import perron_eigendata, simplest_between
from obstruct.quadratic import golden_ratio
from obstruct.reports import fmt_float
from obstruct.suites import (
    _compositions,
    _largest_products,
    counting_suite,
    gibbs_check,
    mixing_check,
    mixing_liminf_probe,
    positive_mass_constant,
    positive_mass_count,
    verify_battery,
)
from obstruct.words import overlay, word

PHI = (1 + math.sqrt(5)) / 2


def _battery_row(system, scheme, measure, name, level=2, j=0):
    """The battery's row of that name, and its counting suite."""
    rows, suite = verify_battery(system, scheme, measure, level=level, j=j, tau_max=4,
                                 n_max=24)
    return next(r for r in rows if r.name == name), suite


def _lower_bound(system):
    """beta when it is exact, else the lower growth bound of the checks: the
    simplest rational within the Perron enclosure's width below its lower
    end."""
    beta = system.beta_value()
    if isinstance(beta, float):
        a, b = perron_eigendata(system.presentation).enclosure
        return simplest_between(2 * a - b, a)
    return beta


def _exact_joint(m, u, q, v):
    """The unrounded joint mass: each matching word's class weight times
    the exact scale of its length, summed."""
    template = tuple(u) + (None,) * q + tuple(v)
    num, den = m.classes.scales[len(template)]
    total = 0
    for w in m.words_at(len(template)):
        if all(t is None or t == a for t, a in zip(template, w)):
            total = total + m.classes.weights[m.classes.class_of(w)]
    return total * num / Fraction(den)


class TestCountingSuite:
    def test_golden_all_pass(self, golden, golden_scheme):
        report = counting_suite(golden, golden_scheme, n_max=24)
        assert report.passed
        assert report.tau == 0

    def test_full_shift_all_pass(self, full2, full2_scheme):
        report = counting_suite(full2, full2_scheme, n_max=24)
        assert report.passed
        assert report.c1 == pytest.approx(1.0, abs=1e-12)
        assert report.c1_sup == pytest.approx(1.0, abs=1e-12)

    def test_golden_c1_matches_closed_form(self, golden, golden_scheme):
        report = counting_suite(golden, golden_scheme, n_max=24)
        assert abs(report.c1 - PHI ** 2 / math.sqrt(5)) < 1e-6

    def test_full_shift_tails_exact(self, full2, full2_scheme):
        report = counting_suite(full2, full2_scheme, n_max=24)
        for m, value in report.b_tails.items():
            assert value == Fraction(2) ** (1 - m)

    def test_tails_decrease(self, golden, golden_scheme):
        report = counting_suite(golden, golden_scheme, n_max=24)
        values = [float(report.b_tails[m]) for m in sorted(report.b_tails)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.02

    def test_c2_definition(self, golden, golden_scheme):
        report = counting_suite(golden, golden_scheme, n_max=24)
        assert report.c2 == pytest.approx(math.log(report.c1) + math.log(2))

    def test_threehalf_within_horizon(self, threehalf):
        report = counting_suite(threehalf, beta_decomposition(threehalf), n_max=24)
        for name in ("product-bound", "growth-floor", "gluing-product-bound",
                     "core-count-ceiling"):
            assert report.check(name).passed

    def test_degenerate_tail_not_summable(self, golden):
        report = counting_suite(golden, degenerate_decomposition(golden), n_max=20)
        assert not report.check("tail-summability").passed
        assert not report.passed

    def test_depth_one_suite(self, golden, golden_scheme):
        report = counting_suite(golden, golden_scheme, n_max=20, j=1)
        assert report.passed
        values = [float(report.b_tails[m]) for m in sorted(report.b_tails)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_requires_window(self, golden, golden_scheme):
        with pytest.raises(InputError):
            counting_suite(golden, golden_scheme, n_max=4)


class TestGibbs:
    def test_full_shift_constant_one_exact(self, full2, full2_scheme):
        m = parry_measure(full2, 13)
        report = gibbs_check(m, full2, full2_scheme, M=0, n_range=range(1, 13))
        assert report.passed
        assert report.constant_exact == 1

    def test_golden_cores_positive_and_flat(self, golden, golden_scheme):
        m = parry_measure(golden, 17)
        report = gibbs_check(m, golden, golden_scheme, M=0, n_range=range(1, 17))
        assert report.passed and report.constant > 0
        lo = min(report.per_length_min[n] for n in range(8, 13))
        hi = max(report.per_length_min[n] for n in range(12, 17))
        assert abs(hi - lo) < 0.1 * report.constant

    def test_golden_exact_constant_is_stationary_weight(self, golden, golden_scheme):
        m = parry_measure(golden, 13)
        report = gibbs_check(m, golden, golden_scheme, M=0, n_range=range(1, 13))
        # min over cores of mass * growth^n is the start-state weight
        assert report.constant == pytest.approx(0.7236067977499789, abs=1e-12)

    def test_suffix_words_also_bounded_below(self, golden):
        # the one-window estimate is only claimed on the level sets, but the
        # suffix ray happens to satisfy a floor here as well
        m = parry_measure(golden, 13)
        beta = float(golden.beta_value())
        floor = min(
            float(m.mass(golden.expansion_prefix(n))) * beta ** n
            for n in range(1, 13)
        )
        assert floor > 0.4

    def test_depth_offset(self, golden, golden_scheme):
        m = parry_measure(golden, 14)
        report = gibbs_check(m, golden, golden_scheme, M=0, n_range=range(1, 11), j=2)
        assert report.passed
        # the argmin is a length-n word read two symbols deeper
        n = len(report.argmin) - 2
        assert n in range(1, 11) and report.per_length_min[n] == report.constant

    def test_proof_constant_below_empirical(self, golden, golden_scheme):
        # level 0 on a depth-13 measure: the floor over n = 1..12, at the
        # cores' gluing time
        row, suite = _battery_row(golden, golden_scheme, parry_measure(golden, 13),
                                  "mass-floor", level=0)
        tau = suite.tau
        proof = 1 / (golden_ratio() ** (2 * tau) * 4 * suites._exact(suite.c1_sup_value))
        assert row.details["proof_constant"] == fmt_float(proof)
        assert float(row.details["proof_constant"]) <= float(row.details["constant"])


class TestMixing:
    def test_full_shift_joint_exact(self, full2, full2_scheme):
        m = parry_measure(full2, 12)
        for u, v in [(word("0"), word("1")), (word("01"), word("10"))]:
            for q in (2, 3):
                joint = m.joint_mass(u, q, v)
                assert joint == Fraction(1, 2 ** (len(u) + len(v)))
        report = mixing_check(
            m, full2, full2_scheme, M=2,
            pairs=[(word("0"), word("1")), (word("01"), word("10"))],
            q=2, tau=0,
        )
        assert report.constant_exact == 1

    def test_golden_adjacent_zeros_positive(self, golden, golden_scheme):
        m = parry_measure(golden, 6)
        joint = m.joint_mass(word("0"), 1, word("0"))
        direct = m.table[word("000")] + m.table[word("010")]
        assert joint == direct and float(joint) > 0

    def test_below_precondition_flagged(self, golden, golden_scheme):
        m = parry_measure(golden, 6)
        report = mixing_check(
            m, golden, golden_scheme, M=1,
            pairs=[(word("1"), word("1"))], q=0, tau=1,
        )
        assert not report.precondition_met
        assert (word("1"), word("1")) in report.violations

    @pytest.mark.parametrize("make", [
        BetaSystem.golden_mean,  # exact masses
        lambda: BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),  # enclosure
    ])
    def test_class_shared_joint_masses_match_each_pair(self, make):
        # words of lengths 1-3 in one list, so one class recurs at two lengths
        system = make()
        scheme = beta_decomposition(system)
        m = parry_measure(system, 8)
        words = [v for n in (1, 2, 3) for v in scheme.level_words(1, n)]
        pairs = [(u, v) for u in words for v in words]
        lo = _lower_bound(system)
        best, violations = None, []
        for u, v in pairs:
            value = _exact_joint(m, u, 2, v) * lo ** (len(u) + len(v))
            if value <= 0:
                violations.append((u, v))
            elif best is None or value < best[0]:
                best = (value, (u, v))
        report = mixing_check(m, system, scheme, M=1, pairs=pairs, q=2, tau=1)
        assert report.violations == tuple(violations)
        assert report.argmin == best[1]
        assert report.constant_exact == best[0]
        assert report.constant == float(best[0])

    def test_joint_masses_are_shared_within_one_length(self):
        # p5's exact masses of one class at two lengths, scaled, differ: a
        # word must not take the value of a shorter or longer word of its
        # class
        system = BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5)
        scheme = beta_decomposition(system)
        m = parry_measure(system, 8)
        lo = _lower_bound(system)
        words = [v for n in (1, 2, 3) for v in scheme.level_words(1, n)]

        def scaled(u, v):
            return _exact_joint(m, u, 2, v) * lo ** (len(u) + len(v))

        u1, u2, v = next(
            (u1, u2, v)
            for u1 in words for u2 in words for v in words
            if len(u1) != len(u2)
            and m.classes.class_of(u1) == m.classes.class_of(u2)
            and scaled(u1, v) > scaled(u2, v)
        )
        report = mixing_check(
            m, system, scheme, M=1, pairs=[(u1, v), (u2, v)], q=2, tau=1
        )
        assert report.argmin == (u2, v)
        assert report.constant_exact == scaled(u2, v)

    def test_wrong_level_rejected(self, golden, golden_scheme):
        m = parry_measure(golden, 6)
        with pytest.raises(InputError):
            mixing_check(
                m, golden, golden_scheme, M=0,
                pairs=[(word("1"), word("1"))], q=2, tau=0,
            )

    def test_proof_constant_below_empirical(self, golden, golden_scheme):
        row, suite = _battery_row(golden, golden_scheme, parry_measure(golden, 8),
                                  "two-window-mass-floor", level=1)
        assert row.passed
        tau = golden_scheme.gluing_time(1, 0, 4)[0]
        proof = 1 / (golden_ratio() ** (4 * tau) * 8 * suites._exact(suite.c1_sup_value))
        assert row.details["proof_constant"] == fmt_float(proof)
        assert float(row.details["proof_constant"]) <= float(row.details["constant"])


class TestPositiveMass:
    def test_uniform_exact(self, full2):
        m = parry_measure(full2, 10)
        assert positive_mass_count(m, Fraction(1, 2), 10) == 512

    def test_gamma_near_one_exhausts_support(self, full2):
        m = parry_measure(full2, 10)
        assert positive_mass_count(m, Fraction(1023, 1024), 10) == 1023

    def test_golden_bound(self, golden, golden_scheme):
        suite = counting_suite(golden, golden_scheme, n_max=24)
        m = parry_measure(golden, 14)
        for n in (10, 14):
            for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                count = positive_mass_count(m, gamma, n)
                bound = positive_mass_constant(suite.c1, suite.c2, gamma) * PHI ** n
                assert count >= bound

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40),
        st.fractions(min_value=0, max_value=1, max_denominator=10**20)
        | st.floats(min_value=0, max_value=1).map(Fraction),
        st.integers(min_value=-2, max_value=2),
    )
    @settings(max_examples=300)
    def test_float_sums_match_exact_comparison(self, masses, gamma, nudge):
        # the float masses are summed exactly; gamma is often exactly a float
        # or one unit away from it, so a sum equal to gamma is reached
        gamma += nudge * Fraction(1, 2**60)
        assume(0 < gamma < 1)
        table = {(): 1.0, **{(a,): m for a, m in enumerate(masses)}}
        measure = CylinderMeasure(len(masses), 1, table, "test", exact=False)
        masses = sorted(masses, reverse=True)
        expected, acc = len(masses), 0
        for count, m in enumerate(masses, start=1):
            acc += Fraction(m)
            if acc >= gamma:
                expected = count
                break
        assert positive_mass_count(measure, gamma, 1) == expected

    def test_gamma_validation(self, full2):
        m = parry_measure(full2, 4)
        with pytest.raises(InputError):
            positive_mass_count(m, Fraction(3, 2), 4)


def _probe_values(m, u_words, v_words, gaps):
    """mixing_liminf_probe with its quotients normalised to numbers."""
    return {
        gap: tuple(map(suites._exact, pair))
        for gap, pair in mixing_liminf_probe(m, u_words, v_words, gaps).items()
    }


class TestProbe:
    def test_full_shift_independence(self, full2):
        m = parry_measure(full2, 12)
        probe = _probe_values(m, [word("0")], [word("1")], range(1, 11))
        for gap, (value, running) in probe.items():
            assert value == Fraction(1, 4)
            assert running == Fraction(1, 4)

    def test_golden_ones_blocked_then_open(self, golden):
        m = parry_measure(golden, 8)
        probe = _probe_values(m, [word("1")], [word("1")], range(1, 4))
        assert float(probe[1][0]) == 0
        assert float(probe[2][0]) > 0
        assert float(probe[2][0]) == pytest.approx(
            float(m.mass(word("101"))), abs=1e-15
        )

    def test_golden_zeros_stay_above_two_window_floor(self, golden, golden_scheme):
        m = parry_measure(golden, 12)
        mix = mixing_check(
            m, golden, golden_scheme, M=1,
            pairs=[(word("0"), word("0")), (word("1"), word("1"))],
            q=2, tau=1,
        )
        probe = _probe_values(m, [word("0")], [word("0")], range(1, 11))
        running = float(probe[10][1])
        assert running >= mix.constant / PHI ** 2 - 1e-12

    def test_union_of_cylinders(self, golden):
        m = parry_measure(golden, 8)
        probe = _probe_values(
            m, [word("00"), word("01")], [word("0")], range(1, 5)
        )
        for gap, (value, _) in probe.items():
            assert 0 < float(value) <= 1


class TestBattery:
    @pytest.mark.parametrize("bounds, passed, summary", [
        # c1 = 1 at lo = 2: count >= 2^(-1/gamma) beta^10 holds at lo, not at hi
        (((2, 1), (4, 1)), None, "not run: undecided on the enclosure [2, 4] at gamma = 1/4"),
        # c1 = (2/3)^12 at lo = 3: the bound fails there already
        (((3, 1), (4, 1)), False, "at n = 10"),
        (((2, 1), (2, 1)), True, "at n = 10"),
    ])
    def test_positive_mass_count_is_decided_on_the_bounds(
        self, full2, full2_scheme, monkeypatch, bounds, passed, summary
    ):
        monkeypatch.setattr(full2, "growth_bounds", lambda: bounds)
        row, _ = _battery_row(full2, full2_scheme, parry_measure(full2, 10),
                              "positive-mass-count")
        assert (row.passed, row.summary) == (passed, summary)
        assert [r["count"] for r in row.details["rows"]] == [256, 512, 768]

    def test_growth_bounds_are_widened_once(self, threehalf, monkeypatch):
        # the mass floors read the counting suite's (lo, hi)
        calls = []
        growth = BetaSystem.growth_bounds
        monkeypatch.setattr(BetaSystem, "growth_bounds",
                            lambda system: calls.append(1) or growth(system))
        scheme = beta_decomposition(threehalf)
        verify_battery(threehalf, scheme, parry_measure(threehalf, 12),
                       level=1, j=1, tau_max=6, n_max=24)
        assert len(calls) == 1

    def test_rows_in_order_with_not_run_as_none(self, threehalf):
        # the certificate's gap at depth 3, 9, exceeds tau_max 4: no gluing
        # time, so the rows that need one are not run
        scheme = beta_decomposition(threehalf)
        rows, suite = verify_battery(threehalf, scheme, parry_measure(threehalf, 12),
                                     level=2, j=3, tau_max=4, n_max=24)
        names = [r.name for r in rows]
        assert names[:4] == ["gluing-level-0", "gluing-level-1", "gluing-level-2",
                             "gluing-cores"]
        assert names[-4:] == ["two-window-mass-floor", "positive-mass-count",
                              "correlation-floor", "obstruction-below-entropy"]
        not_run = {r.name for r in rows if r.passed is None}
        assert {"gluing-cores", "two-window-mass-floor", "counting:gluing-product-bound",
                "counting:core-count-ceiling"} <= not_run
        assert rows[-1].passed is None and suite.tau == 4
        assert rows[-1].summary == ("not run: gluing time not established "
                                    "at levels 0, 1, 2")


# systems whose measures carry exact quadratic, exact integer and
# enclosure-scaled integer class weights, and a listed table of rounded masses
_SWEEP_SYSTEMS = {
    "golden": BetaSystem.golden_mean,
    "2": lambda: BetaSystem.full_shift(2),
    "p5": lambda: BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),
    "1.5@20": lambda: BetaSystem.from_beta("1.5", horizon=20),
    "1.5@20-listed": lambda: BetaSystem.from_beta("1.5", horizon=20),
}


@functools.lru_cache(maxsize=None)
def _sweep_case(name):
    system = _SWEEP_SYSTEMS[name]()
    m = parry_measure(system, 8)
    if name.endswith("-listed"):
        m = CylinderMeasure(m.alphabet_size, m.depth, dict(m.table), m.provenance, m.exact)
    return system, beta_decomposition(system), m


def _outcome(call):
    """A call's result, or the type and text of the error it raised."""
    try:
        return call()
    except ObstructError as exc:
        return type(exc), str(exc)


def _probe_by_templates(m, u_words, v_words, gaps):
    """mixing_liminf_probe from one pattern_weight per overlaid template,
    the exact masses summed as numbers, the totals and infimum unrounded."""
    results, running = {}, None
    for gap in sorted(gaps):
        total = 0
        for u in u_words:
            for v in v_words:
                t = overlay(((0, u), (gap, v)), max(len(u), gap + len(v)))
                if t is not None:
                    weight = m.classes.pattern_weight(t) or 0
                    num, den = m.classes.scales[len(t)]
                    total += Fraction(1) * weight * num / den
        running = total if running is None else min(running, total)
        results[gap] = (total, running)
    return results


def _mixing_by_templates(m, system, pairs, q):
    """(constant, argmin, violations) of mixing_check from one pattern_weight
    per pair, each pair's own, the first least value on ties."""
    best, violations = None, []
    for u, v in pairs:
        t = u + (None,) * q + v
        weight = m.classes.pattern_weight(t) or 0
        num, den = m.classes.scales[len(t)]
        value = Fraction(1) * weight * num / den * _lower_bound(system) ** (len(u) + len(v))
        if value <= 0:
            violations.append((u, v))
        elif best is None or value < best[0]:
            best = (value, (u, v))
    value, argmin = best or (0, ())
    return float(value), argmin, tuple(violations)


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_probe_matches_the_template_sums(data):
    # multi-symbol words, gaps below |u| (overlaid windows) and past the
    # depth (a DepthError, for the same first template)
    system, _, m = _sweep_case(data.draw(st.sampled_from(sorted(_SWEEP_SYSTEMS))))
    words = st.lists(st.integers(0, m.alphabet_size - 1), min_size=1, max_size=3).map(tuple)
    u_words = data.draw(st.lists(words, min_size=1, max_size=3), label="u_words")
    v_words = data.draw(st.lists(words, min_size=1, max_size=3), label="v_words")
    gaps = data.draw(st.lists(st.integers(0, m.depth), min_size=1, max_size=6), label="gaps")
    assert _outcome(lambda: _probe_values(m, u_words, v_words, gaps)) == _outcome(
        lambda: _probe_by_templates(m, u_words, v_words, gaps)
    )


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mixing_check_matches_the_template_sums(data):
    system, scheme, m = _sweep_case(data.draw(st.sampled_from(sorted(_SWEEP_SYSTEMS))))
    M = data.draw(st.integers(0, 2), label="M")
    words = [v for n in (1, 2, 3) for v in scheme.level_words(M, n)]
    assume(words)
    pair = st.tuples(st.sampled_from(words), st.sampled_from(words))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=6), label="pairs")
    q = data.draw(st.integers(0, m.depth - 2), label="q")
    report = _outcome(lambda: mixing_check(m, system, scheme, M, pairs, q))
    if not isinstance(report, tuple):
        report = report.constant, report.argmin, report.violations
    assert report == _outcome(lambda: _mixing_by_templates(m, system, pairs, q))


@pytest.mark.parametrize("x", [(3, 2), (golden_ratio(), 1)], ids=["3/2", "golden"])
def test_powers_match_pow(x):
    # integers and field elements, each power of the same type as pow's
    power = suites._powers(x, 30)
    assert len(power) == 31
    for i in (5, 0, 17, 3, 30):
        for got, base in zip(power[i], x):
            assert got == base ** i and type(got) is type(base ** i)


@given(
    st.lists(st.integers(0, 10 ** 6), min_size=12, max_size=12),
    st.integers(2, 3),
)
@settings(max_examples=60, deadline=None)
def test_largest_products_match_every_composition(values, k):
    counts = dict(enumerate(values, start=1))
    best = _largest_products(counts, k, 12)
    for t in range(k, 13):
        parts = [p for p in product(range(1, t + 1), repeat=k) if sum(p) == t]
        assert list(_compositions(t, k)) == sorted(parts)
        assert best[t] == max(math.prod(counts[f] for f in p) for p in parts)


def test_failing_product_bound_reports_the_first_failing_composition(
    golden, golden_scheme, monkeypatch
):
    # inflate the core counts at lengths 4 and 6, so some products exceed
    # the language count; the witness is the first failure of the listing
    real = suites.count_separated

    def counts(collection, n, j=0):
        c = real(collection, n, j)
        return c * 50 if collection.label.endswith(":cores") and n in (4, 6) else c

    monkeypatch.setattr(suites, "count_separated", counts)
    report = suites.counting_suite(golden, golden_scheme, n_max=24, tau=1)
    check = report.check("gluing-product-bound")
    lang = {n: golden.count_language(n) for n in range(1, 25)}
    core = {n: counts(golden_scheme.cores(), n) for n in range(1, 25)}
    want = next(
        (parts, lang[t + k - 1], math.prod(core[p] for p in parts))
        for k in (2, 3) for t in range(k, 19) if t + k - 1 <= 24
        for parts in sorted(p for p in product(range(1, t + 1), repeat=k) if sum(p) == t)
        if lang[t + k - 1] < math.prod(core[p] for p in parts)
    )
    assert not check.passed and check.details["witness"] == want
    assert check.summary == f"violated at parts={want[0]}: {want[1]} < {want[2]}"


def _tail_sums_per_head(counts, x, n_max):
    """The tail sums at x, each head summed afresh from m upward in exact
    arithmetic: (tails, whether in closed form, verdict, note)."""
    inv = 1 / x
    period = None
    probe = range(max(1, n_max - 12), n_max + 1)
    for q in range(1, 7):
        if all(
            counts[i] == counts[i + q] for i in probe if i + q <= n_max
        ):
            period = q
            break
    m_top = min(12, n_max - 8)
    tails = {}
    if period is None:
        terms = {i: counts[i] * inv ** i for i in range(1, n_max + 1)}
        vanishing = (terms[n_max] < terms[max(1, n_max // 2)] / 2
                     and terms[n_max] < Fraction(1, 1000))
        for m in range(1, m_top + 1):
            tails[m] = sum(terms[i] for i in range(m, n_max + 1))
        note = (
            "no periodic boundary tail detected; partial sums only"
            if vanishing
            else "boundary terms do not vanish; tail is not summable"
        )
        return tails, False, vanishing, note
    anchor = max(1, n_max - 12)
    geom = 1 / (1 - inv ** period)
    for m in range(1, m_top + 1):
        start = max(m, anchor)
        head = sum(counts[i] * inv ** i for i in range(m, start))
        tail = sum(counts[start + r] * inv ** (start + r) for r in range(period))
        tails[m] = head + tail * geom
    decreasing = all(tails[m + 1] <= tails[m] for m in range(1, m_top))
    return (
        tails,
        True,
        decreasing,
        f"closed-form tails with eventual period {period}, decreasing to 0",
    )


def reported_tails(tails, closed_form, exact):
    """The tails as `counting_suite` reports them: closed-form ones exact
    when beta is, every other one correctly rounded."""
    return {m: v if closed_form and exact else float(v) for m, v in tails.items()}


_TAIL_SYSTEMS = {
    # exact Fraction beta, partial sums
    "1.5@60": lambda: BetaSystem.from_beta(Fraction(3, 2), horizon=60),
    "2.5@60": lambda: BetaSystem.from_beta(Fraction(5, 2), horizon=60),
    # quadratic beta, closed form
    "golden": BetaSystem.golden_mean,
    "silver": lambda: BetaSystem.from_expansion((2, 0), period=2),
    # beta of degree 5 and 9, so the lower end of the enclosure; p9's
    # period, 9, is longer than the probe's, so its depth-2 tails are
    # partial sums
    "p5": lambda: BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),
    "p9": lambda: BetaSystem.from_expansion((1, 1, 0, 1, 0, 0, 1, 0, 0), period=9),
}


# (n_max, depth): at n_max = 8 no head is summed; at depth 0 every boundary
# count is 1 (closed form), at depth 2 the truncated ones take partial sums,
# at depth 3 and n_max = 9 their terms do not vanish
@pytest.mark.parametrize(
    "n_max, j", [(8, 0), (9, 0), (24, 0), (60, 0), (8, 2), (9, 2), (24, 2), (9, 3)]
)
@pytest.mark.parametrize("name", sorted(_TAIL_SYSTEMS))
def test_tail_sums_match_the_sums_per_head(name, n_max, j):
    system = _TAIL_SYSTEMS[name]()
    boundary = beta_decomposition(system).boundary()
    counts = {n: suites.count_separated(boundary, n, j) for n in range(1, n_max + 1)}
    lo, hi = system.growth_bounds()
    assert (lo != hi) == (name in ("p5", "p9"))
    power = suites._powers(lo, n_max)
    unit = {n: power[n][1] * power[n_max - n][0] for n in range(1, n_max + 1)}
    got = suites._tail_sums(counts, unit, power, n_max, lo == hi)
    tails, closed_form, ok, note = _tail_sums_per_head(counts, _lower_bound(system), n_max)
    want = reported_tails(tails, closed_form, lo == hi)
    assert got[1:] == (ok, note)
    assert list(got[0]) == list(want) == list(range(1, min(12, n_max - 8) + 1))
    for m, value in want.items():
        assert type(got[0][m]) is type(value) and got[0][m] == value
