import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from obstruct.decomposition import beta_decomposition, degenerate_decomposition
from obstruct.errors import InputError
from obstruct.measures import parry_measure
from obstruct.suites import (
    counting_suite,
    gibbs_check,
    gibbs_proof_constant,
    mass_floor_over_words,
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
        words_by_length = {
            n: [golden.expansion_prefix(n)] for n in range(1, 13)
        }
        best, per_length = mass_floor_over_words(m, golden, words_by_length)
        assert float(best[0]) > 0.4

    def test_depth_offset(self, golden, golden_scheme):
        m = parry_measure(golden, 14)
        report = gibbs_check(m, golden, golden_scheme, M=0, n_range=range(1, 11), j=2)
        assert report.passed
        assert report.depth_offset == 2

    def test_proof_constant_below_empirical(self, golden, golden_scheme):
        suite = counting_suite(golden, golden_scheme, n_max=24)
        m = parry_measure(golden, 13)
        proof = gibbs_proof_constant(suite.c1_sup, suite.tau, golden.log_beta())
        report = gibbs_check(
            m, golden, golden_scheme, M=0, n_range=range(1, 13),
            proof_constant=proof,
        )
        assert report.proof_constant <= report.constant


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
            q=2, tau=1, proof_constant=proof,
        )
        assert report.proof_constant <= report.constant


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
        masses = sorted(masses, reverse=True)

        class Table:
            def masses_descending(self, n):
                return masses

        expected, acc = len(masses), None
        for count, m in enumerate(masses, start=1):
            acc = m if acc is None else acc + m
            if acc >= gamma:
                expected = count
                break
        assert positive_mass_count(Table(), gamma, 1) == expected

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
