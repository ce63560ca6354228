import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from obstruct.beta import BetaSystem, greedy_expansion, parse_beta, quasi_greedy
from obstruct.errors import HorizonError, InputError
from obstruct.quadratic import QuadraticNumber, golden_ratio
from obstruct.words import word


def lex_admissible(system, v):
    """Parry's lexicographic oracle: every suffix of v is at most the
    matching prefix of the expansion."""
    if any(a >= system.alphabet_size or a < 0 for a in v):
        return False
    n = len(v)
    for t in range(n):
        for i in range(n - t):
            c = system.digit(i + 1)
            if v[t + i] > c:
                return False
            if v[t + i] < c:
                break
    return True


def brute_threehalf_digits(n):
    """Independent oracle: exact rational iteration x -> (3/2) x - floor."""
    x = Fraction(1)
    digits = []
    for _ in range(n):
        y = Fraction(3, 2) * x
        d = y.numerator // y.denominator
        digits.append(d)
        x = y - d
    return tuple(digits)


class TestGreedy:
    def test_golden_ratio_terminates(self):
        e = greedy_expansion(golden_ratio(), 10)
        assert e.digits == (1, 1)
        assert e.tail.kind == "finite"

    def test_integer_convention(self):
        for beta in (2, 3, 200):
            e = greedy_expansion(beta, 10)
            assert e.digits == (beta,)
            assert e.tail.kind == "finite"
            assert type(e.beta) is int

    def test_three_half_matches_oracle(self):
        e = greedy_expansion(Fraction(3, 2), 40)
        assert e.tail.kind == "truncated"
        assert e.digits == brute_threehalf_digits(40)
        assert e.digits[:9] == (1, 0, 1, 0, 0, 0, 0, 0, 1)

    def test_silver_mean(self):
        e = greedy_expansion(1 + QuadraticNumber.sqrt(2), 10)
        assert e.digits == (2, 1)
        assert e.tail.kind == "finite"

    def test_periodicity_detection(self):
        phi2 = golden_ratio() ** 2
        e = greedy_expansion(phi2, 12)
        assert e.tail.kind == "periodic"
        assert (e.tail.preperiod, e.tail.period) == (1, 1)
        assert e.digits == (2, 1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: greedy_expansion(1.5, 30),
            lambda: greedy_expansion((1 + math.sqrt(5)) / 2, 40),
            lambda: BetaSystem.from_beta(1.5, horizon=30),
        ],
        ids=["greedy-1.5", "greedy-golden", "from_beta-1.5"],
    )
    def test_float_beta_refused(self, make):
        # only exact numbers are expanded; a float's digits are not certified
        with pytest.raises(InputError, match="exact"):
            make()

    def test_mpf_input(self):
        mpmath = pytest.importorskip("mpmath")
        with pytest.raises(InputError, match="exact"):
            greedy_expansion(mpmath.mpf("1.5"), 20)

    def test_bad_beta(self):
        with pytest.raises(InputError):
            greedy_expansion(1, 5)
        with pytest.raises(InputError):
            greedy_expansion(Fraction(1, 2), 5)


def _greedy_by_fractions(beta, n):
    """The first n greedy digits of 1 and the tail kind, by iterating
    Fractions with termination and repetition detected on the remainders."""
    x, digits, seen = Fraction(1), [], {Fraction(1): 0}
    for i in range(1, n + 1):
        y = beta * x
        digits.append(math.floor(y))
        x = y - digits[-1]
        if x == 0:
            return tuple(digits), "finite"
        if x in seen:
            return tuple(digits), "periodic"
        seen[x] = i
    return tuple(digits), "truncated"


@given(
    st.integers(2, 60).flatmap(lambda q: st.tuples(st.integers(q + 1, 7 * q), st.just(q))),
    st.integers(1, 80),
)
@example((5, 4), 60)
@example((9, 4), 60)
@example((8, 7), 80)  # 1 + 1/q
@example((61, 60), 80)
@example((14, 2), 5)  # the integer 7
@settings(max_examples=80, deadline=None, derandomize=True)
def test_rational_digits_match_the_fraction_iteration(pq, n):
    beta = Fraction(*pq)
    e = greedy_expansion(beta, n)
    assert (e.digits, e.tail.kind) == _greedy_by_fractions(beta, n)
    assert e.beta == beta
    if beta.denominator > 1:
        assert (e.tail.horizon, e.tail.certificate) == (n, "exact-arithmetic")


class TestQuasiGreedy:
    def test_golden(self):
        q = quasi_greedy(greedy_expansion(golden_ratio(), 5))
        assert q.digits == (1, 0)
        assert (q.tail.preperiod, q.tail.period) == (0, 2)

    def test_integer(self):
        q = quasi_greedy(greedy_expansion(2, 5))
        assert q.digits == (1,)
        assert q.tail.period == 1

    def test_infinite_unchanged(self):
        e = greedy_expansion(Fraction(3, 2), 20)
        assert quasi_greedy(e) is e


def test_parse_beta():
    assert parse_beta("2") == 2
    assert parse_beta("1.5") == Fraction(3, 2)
    assert isinstance(parse_beta("2"), int)
    with pytest.raises(InputError):
        parse_beta("phi")


class TestMembership:
    def test_examples(self, golden):
        assert not golden.is_word(word("110"))
        assert golden.is_word(word("10100"))
        assert golden.is_word(())

    def test_lex_oracle_examples(self, golden):
        assert not lex_admissible(golden, word("110"))
        assert lex_admissible(golden, word("10100"))
        assert lex_admissible(golden, ())

    def test_automaton_agrees_with_oracle_exhaustive(self, golden):
        for n in range(1, 15):
            for cand in itertools.product(range(2), repeat=n):
                assert golden.is_word(cand) == lex_admissible(golden, cand)

    def test_automaton_agrees_on_threehalf(self, threehalf):
        for n in range(1, 11):
            for cand in itertools.product(range(2), repeat=n):
                assert threehalf.is_word(cand) == lex_admissible(threehalf, cand)

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=14))
    @settings(max_examples=200)
    def test_automaton_agrees_on_wider_alphabet(self, symbols):
        system = BetaSystem.from_expansion((2, 1), period=2)
        v = tuple(symbols)
        assert system.is_word(v) == lex_admissible(system, v)


class TestLanguage:
    def test_enumerate_examples(self, golden, full2):
        assert golden.enumerate_language(2) == [(0, 0), (0, 1), (1, 0)]
        assert full2.enumerate_language(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert len(golden.enumerate_language(4)) == 8

    def test_fibonacci_counts(self, golden):
        fib = [1, 1]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        for n in range(1, 25):
            assert golden.count_language(n) == fib[n + 1]

    def test_full_shift_counts(self, full2):
        assert full2.count_language(10) == 1024

    def test_counts_match_enumeration(self, golden, full2, threehalf):
        for system in (golden, full2, threehalf):
            for n in range(1, 13):
                assert system.count_language(n) == len(system.enumerate_language(n))

    def test_truncated_cross_oracle_at_20(self, threehalf):
        words = threehalf.presentation.enumerate_words(20, cap=None)
        assert threehalf.count_language(20) == len(words)

    def test_factorial_closure(self, golden, threehalf):
        for system in (golden, threehalf):
            for v in system.enumerate_language(12):
                for i in range(len(v)):
                    for k in range(i + 1, len(v) + 1):
                        assert system.is_word(v[i:k])

    def test_expansion_prefixes_admissible(self, golden, threehalf):
        for system in (golden, threehalf):
            for n in range(1, 20):
                assert system.is_word(system.expansion_prefix(n))

    def test_submultiplicative(self, golden, threehalf):
        for system in (golden, threehalf):
            counts = {n: system.count_language(n) for n in range(1, 25)}
            for m in range(1, 24):
                for n in range(1, 25 - m):
                    assert counts[m + n] <= counts[m] * counts[n]

    def test_growth_floor_exact(self, golden, full2):
        phi = golden_ratio()
        for n in range(1, 41):
            assert phi ** n <= golden.count_language(n)
            assert 2 ** n <= full2.count_language(n)

    def test_enumeration_cap(self, golden):
        with pytest.raises(Exception, match="cap"):
            golden.enumerate_language(25)


class TestTruncation:
    def test_count_beyond_horizon(self, threehalf):
        with pytest.raises(HorizonError):
            threehalf.count_language(61)

    def test_core_counts_stop_at_horizon(self, threehalf):
        # Z_60 needs digits up to d_60 only; Z_61 would read the marker state
        z = threehalf.core_counts(60)
        assert len(z) == 61
        assert sum(z) == threehalf.count_language(60)
        with pytest.raises(HorizonError):
            threehalf.core_counts(61)

    def test_membership_undecided(self, threehalf):
        prefix = threehalf.expansion_prefix(60)
        with pytest.raises(HorizonError):
            threehalf.is_word(prefix + (0,))

    def test_long_but_decided_words_ok(self, threehalf):
        # a long word that never tracks the expansion stays decidable
        assert threehalf.is_word((0,) * 70)

    def test_digit_beyond_horizon(self, threehalf):
        with pytest.raises(HorizonError):
            threehalf.digit(61)


class TestSilverMean:
    def test_end_to_end_in_another_quadratic_field(self):
        from obstruct.measures import parry_measure
        from obstruct.perron import perron_eigendata

        silver = 1 + QuadraticNumber.sqrt(2)
        system = BetaSystem.from_beta(silver)
        assert system.expansion.digits == (2, 0)
        assert system.alphabet_size == 3
        # counts obey a(n+1) = 2 a(n) + a(n-1), the growth of 1 + sqrt(2)
        counts = [system.count_language(n) for n in range(1, 12)]
        for i in range(2, len(counts)):
            assert counts[i] == 2 * counts[i - 1] + counts[i - 2]
        eigen = perron_eigendata(system.presentation)
        assert eigen.exact and eigen.eigenvalue == silver
        measure = parry_measure(system, 6)
        assert measure.exact
        for n in range(7):
            total = sum(
                (measure.table[w] for w in measure.words_at(n)),
                QuadraticNumber(0, 0, 2),
            )
            assert total == 1

    def test_count_cap_guard(self, golden):
        with pytest.raises(InputError):
            golden.count_language(10 ** 6 + 1)


class TestConstruction:
    def test_from_expansion_periodic(self):
        system = BetaSystem.from_expansion((1, 0), period=2)
        assert system.alphabet_size == 2
        assert [system.count_language(n) for n in range(1, 6)] == [2, 3, 5, 8, 13]

    def test_from_expansion_rejects_inadmissible(self):
        with pytest.raises(InputError):
            BetaSystem.from_expansion((1, 2), period=2)
        # shift 9 reads 2 1 1 1 1 1 ..., above d = 2 1 1 1 1 0 ... only at
        # offset 6: the comparison window must span preperiod + period
        with pytest.raises(InputError):
            BetaSystem.from_expansion((2, 1, 1, 1, 1, 0, 0, 0, 0, 2, 1), period=1)

    def test_size_caps(self):
        from obstruct.beta import MAX_ALPHABET, MAX_HORIZON

        BetaSystem.from_beta(MAX_ALPHABET, horizon=4)
        with pytest.raises(InputError):
            BetaSystem.from_beta(Fraction(2 * MAX_ALPHABET + 1, 2))
        with pytest.raises(InputError):
            BetaSystem.from_beta(Fraction(3, 2), horizon=MAX_HORIZON + 1)
        with pytest.raises(InputError):
            BetaSystem.from_expansion((MAX_ALPHABET,), period=1)
        with pytest.raises(InputError):
            BetaSystem.from_expansion((1,) + (0,) * MAX_HORIZON)

    def test_normalization_minimizes_period(self):
        a = BetaSystem.from_expansion((1, 0, 1, 0), period=4)
        b = BetaSystem.from_expansion((1, 0), period=2)
        assert a.presentation.n_states == b.presentation.n_states == 2

    def test_match_counts_total(self, golden, threehalf):
        # every n-word is u d_1..d_m with u in match 0: |L_n| = Z_0 + .. + Z_n
        for system in (golden, threehalf):
            z = system.core_counts(12)
            for n in range(1, 13):
                assert sum(z[: n + 1]) == system.count_language(n)

    def test_all_states_reachable(self, golden):
        wide = BetaSystem.from_expansion((2, 1, 0, 1), period=2)
        for system in (golden, wide):
            pres = system.presentation
            reached = {pres.start}
            frontier = [pres.start]
            while frontier:
                s = frontier.pop()
                for t in pres.delta[s].values():
                    if t not in reached:
                        reached.add(t)
                        frontier.append(t)
            assert reached == set(range(pres.n_states))

    def test_suffix_match_examples(self, golden, full2):
        assert golden.suffix_match_length(word("00101")) == 3
        assert golden.suffix_match_length(word("10")) == 2
        assert golden.suffix_match_length(word("00")) == 0
        assert full2.suffix_match_length(word("0111")) == 3

    def test_suffix_match_rejects(self, golden):
        with pytest.raises(InputError):
            golden.suffix_match_length(word("110"))


class TestPreperiodicQuotient:
    # expansions with a genuine preperiod exercise the wrapped states
    CASES = [((2, 1, 1, 0), 2), ((3, 2, 1), 1), ((2, 1), 1), ((2, 2, 1, 0), 2)]

    def test_membership_matches_oracle(self):
        for digits, period in self.CASES:
            system = BetaSystem.from_expansion(digits, period=period)
            b = system.alphabet_size
            for n in range(1, 11):
                for cand in itertools.product(range(b), repeat=n):
                    assert system.is_word(cand) == lex_admissible(system, cand), (
                        digits, cand,
                    )

    def test_counts_match_enumeration(self):
        for digits, period in self.CASES:
            system = BetaSystem.from_expansion(digits, period=period)
            for n in range(1, 10):
                assert system.count_language(n) == len(system.enumerate_language(n))

    def test_core_counts_match_brute_force(self):
        for digits, period in self.CASES:
            system = BetaSystem.from_expansion(digits, period=period)
            z = system.core_counts(9)
            for n in range(10):
                d = system.expansion_prefix(n)
                zeros = 0
                for v in system.enumerate_language(n):
                    longest = max(m for m in range(n + 1) if v[n - m:] == d[:m])
                    assert system.suffix_match_length(v) == longest, (digits, v)
                    zeros += longest == 0
                assert z[n] == zeros, (digits, n)


digit_blocks = st.integers(min_value=1, max_value=3).flatmap(
    lambda lead: st.lists(
        st.integers(min_value=0, max_value=lead), min_size=0, max_size=9
    ).map(lambda rest: (lead,) + tuple(rest))
)


@given(digit_blocks, st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_random_systems_are_consistent(block, period):
    period = min(period, len(block))
    try:
        system = BetaSystem.from_expansion(block, period=period)
    except InputError:
        return  # not self-admissible; rejected by construction
    z = system.core_counts(8)
    for n in range(1, 9):
        assert system.count_language(n) == len(system.enumerate_language(n))
        assert sum(z[: n + 1]) == system.count_language(n)
    for v in system.enumerate_language(6):
        assert lex_admissible(system, v)
