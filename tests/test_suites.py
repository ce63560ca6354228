import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from obstruct import suites
from obstruct.beta import BetaSystem
from obstruct.decomposition import beta_decomposition, degenerate_decomposition
from obstruct.errors import InputError
from obstruct.measures import CylinderMeasure, parry_measure
from obstruct.quadratic import golden_ratio
from obstruct.suites import (
    _compositions,
    _largest_products,
    _power_table,
    counting_suite,
    gibbs_check,
    gibbs_proof_constant,
    mixing_check,
    mixing_liminf_probe,
    mixing_proof_constant,
    positive_mass_constant,
    positive_mass_count,
)
from obstruct.words import word

PHI = (1 + math.sqrt(5)) / 2


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
        assert report.depth_offset == 2

    def test_proof_constant_below_empirical(self, golden, golden_scheme):
        suite = counting_suite(golden, golden_scheme, n_max=24)
        m = parry_measure(golden, 13)
        proof = gibbs_proof_constant(suite.c1_sup, suite.tau, golden.log_beta())
        report = gibbs_check(m, golden, golden_scheme, M=0, n_range=range(1, 13))
        assert proof <= report.constant


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
        lambda: BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),  # floats
    ])
    def test_class_shared_joint_masses_match_each_pair(self, make):
        # words of lengths 1-3 in one list, so one class recurs at two lengths
        system = make()
        scheme = beta_decomposition(system)
        m = parry_measure(system, 8)
        words = [v for n in (1, 2, 3) for v in scheme.level_words(1, n)]
        pairs = [(u, v) for u in words for v in words]
        beta = system.beta_value()
        best, violations = None, []
        for u, v in pairs:
            value = m.joint_mass(u, 2, v) * beta ** (len(u) + len(v))
            if float(value) <= 0:
                violations.append((u, v))
            elif best is None or value < best[0]:
                best = (value, (u, v))
        report = mixing_check(m, system, scheme, M=1, pairs=pairs, q=2, tau=1)
        assert report.violations == tuple(violations)
        assert report.argmin == best[1]
        assert report.constant == float(best[0])

    def test_joint_masses_are_shared_within_one_length(self):
        # p5's float masses of one class at two lengths, scaled, differ in
        # their last bits: a word must not take the value of a shorter or
        # longer word of its class
        system = BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5)
        scheme = beta_decomposition(system)
        m = parry_measure(system, 8)
        beta = float(system.beta_value())
        words = [v for n in (1, 2, 3) for v in scheme.level_words(1, n)]

        def scaled(u, v):
            return m.joint_mass(u, 2, v) * beta ** (len(u) + len(v))

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
        assert report.constant == scaled(u2, v)

    def test_wrong_level_rejected(self, golden, golden_scheme):
        m = parry_measure(golden, 6)
        with pytest.raises(InputError):
            mixing_check(
                m, golden, golden_scheme, M=0,
                pairs=[(word("1"), word("1"))], q=2, tau=0,
            )

    def test_proof_constant_below_empirical(self, golden, golden_scheme):
        suite = counting_suite(golden, golden_scheme, n_max=24)
        m = parry_measure(golden, 8)
        proof = mixing_proof_constant(suite.c1_sup, 1, golden.log_beta())
        report = mixing_check(
            m, golden, golden_scheme, M=1,
            pairs=[(word("1"), word("1")), (word("0"), word("0"))],
            q=2, tau=1,
        )
        assert proof <= report.constant


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
        # gamma is often exactly a float or one unit away from it, so the
        # acc == float(gamma) case is reached
        gamma += nudge * Fraction(1, 2**60)
        assume(0 < float(gamma) < 1)
        table = {(): 1.0, **{(a,): m for a, m in enumerate(masses)}}
        measure = CylinderMeasure(len(masses), 1, table, "test", exact=False)
        masses = sorted(masses, reverse=True)
        expected, acc = len(masses), None
        for count, m in enumerate(masses, start=1):
            acc = m if acc is None else acc + m
            if acc >= gamma:
                expected = count
                break
        assert positive_mass_count(measure, gamma, 1) == expected

    def test_gamma_validation(self, full2):
        m = parry_measure(full2, 4)
        with pytest.raises(InputError):
            positive_mass_count(m, Fraction(3, 2), 4)


class TestProbe:
    def test_full_shift_independence(self, full2):
        m = parry_measure(full2, 12)
        probe = mixing_liminf_probe(m, [word("0")], [word("1")], range(1, 11))
        for gap, (value, running) in probe.items():
            assert value == Fraction(1, 4)
            assert running == Fraction(1, 4)

    def test_golden_ones_blocked_then_open(self, golden):
        m = parry_measure(golden, 8)
        probe = mixing_liminf_probe(m, [word("1")], [word("1")], range(1, 4))
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
        probe = mixing_liminf_probe(m, [word("0")], [word("0")], range(1, 11))
        running = float(probe[10][1])
        assert running >= mix.constant / PHI ** 2 - 1e-12

    def test_union_of_cylinders(self, golden):
        m = parry_measure(golden, 8)
        probe = mixing_liminf_probe(
            m, [word("00"), word("01")], [word("0")], range(1, 5)
        )
        for gap, (value, _) in probe.items():
            assert 0 < float(value) <= 1


@pytest.mark.parametrize("x", [2.4608967, 1 / 1.7802, Fraction(3, 2), golden_ratio()])
def test_power_table_matches_pow(x):
    # floats bit for bit, exact values as field elements
    power = _power_table(x)
    for i in (5, 0, 17, 3, 30):
        assert power(i) == x ** i
        assert type(power(i)) is type(x ** i)


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


def _tail_sums_per_head(counts, beta, n_max):
    """The tail sums as computed before one running sum served every head:
    each head summed afresh from m upward, by the same branches."""
    if isinstance(beta, float):
        inv = 1.0 / beta
    else:
        inv = 1 / beta
    power = _power_table(inv)
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
        terms = {i: counts[i] * power(i) for i in range(1, n_max + 1)}
        vanishing = float(terms[n_max]) < 0.5 * float(terms[max(1, n_max // 2)]) and (
            float(terms[n_max]) < 1e-3
        )
        for m in range(1, m_top + 1):
            tails[m] = float(sum(terms[i] for i in range(m, n_max + 1)))
        note = (
            "no periodic boundary tail detected; partial sums only"
            if vanishing
            else "boundary terms do not vanish; tail is not summable"
        )
        return tails, vanishing, note
    anchor = max(1, n_max - 12)
    geom = 1 / (1 - power(period))
    for m in range(1, m_top + 1):
        start = max(m, anchor)
        head = sum((counts[i] * power(i) for i in range(m, start)), inv * 0)
        tail = sum(counts[start + r] * power(start + r) for r in range(period))
        tails[m] = head + tail * geom
    decreasing = all(
        float(tails[m + 1]) < float(tails[m]) + 1e-15 for m in range(1, m_top)
    )
    return (
        tails,
        decreasing,
        f"closed-form tails with eventual period {period}, decreasing to 0",
    )


_TAIL_SYSTEMS = {
    # exact Fraction beta, partial sums
    "1.5@60": lambda: BetaSystem.from_beta(Fraction(3, 2), horizon=60),
    "2.5@60": lambda: BetaSystem.from_beta(Fraction(5, 2), horizon=60),
    # quadratic beta, closed form
    "golden": BetaSystem.golden_mean,
    "silver": lambda: BetaSystem.from_expansion((2, 0), period=2),
    # float beta: each float must keep its bits; p9's period, 9, is longer
    # than the probe's, so its depth-2 tails are partial sums
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
    beta = suites._exact_beta(system)
    assert isinstance(beta, float) == (name in ("p5", "p9"))
    got = suites._tail_sums(counts, beta, n_max)
    want = _tail_sums_per_head(counts, beta, n_max)
    assert got[1:] == want[1:]
    assert list(got[0]) == list(want[0]) == list(range(1, min(12, n_max - 8) + 1))
    for m, value in want[0].items():
        assert type(got[0][m]) is type(value) and got[0][m] == value
        if isinstance(value, float):
            assert got[0][m].hex() == value.hex()
