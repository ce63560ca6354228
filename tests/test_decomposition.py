import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from obstruct.beta import BetaSystem
from obstruct.decomposition import (
    DEFAULT_TUPLE_BUDGET,
    WITNESS_LIMIT,
    DegenerateDecomposition,
    SpecificationReport,
    _merge_template,
    _segment_pool,
    beta_decomposition,
    check_specification,
    degenerate_decomposition,
    filtration_coverage,
    min_gluing_time,
    obstruction_entropy_upper,
    zero_padding_to_core,
)
from obstruct.errors import (
    EnumerationCapError,
    HorizonError,
    InputError,
    SpecificationError,
)
from obstruct.factors import BlockCode, induced_decomposition
from obstruct.orbits import OrbitCollection, count_separated
from obstruct.quadratic import golden_ratio
from obstruct.words import word
from test_automata import presentations

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


class TestSplit:
    def test_examples(self, golden_scheme, full2_scheme):
        assert golden_scheme.suffix_length(word("00101")) == 3
        assert full2_scheme.suffix_length(word("0111")) == 3
        assert golden_scheme.suffix_length(word("10")) == 2
        assert golden_scheme.suffix_length(word("00")) == 0
        assert golden_scheme.suffix_length(()) == 0

    def test_inadmissible_rejected(self, golden_scheme):
        with pytest.raises(InputError):
            golden_scheme.suffix_length(word("110"))

    def test_totality_and_classes_exhaustive(self, golden, golden_scheme):
        for n in range(0, 15):
            for v in golden.enumerate_language(n):
                s = golden_scheme.suffix_length(v)
                assert 0 <= s <= len(v)
                assert golden_scheme.in_cores(v[: len(v) - s])
                assert golden_scheme.suffix_length(v[len(v) - s :]) == s

    def test_core_resplit_idempotent(self, golden, golden_scheme):
        for n in range(1, 12):
            for v in golden.enumerate_language(n):
                core = v[: len(v) - golden_scheme.suffix_length(v)]
                if core:
                    assert golden_scheme.suffix_length(core) == 0

    def test_suffix_resplit_idempotent(self, golden, golden_scheme):
        for n in range(1, 12):
            suffix = golden.expansion_prefix(n)
            assert golden_scheme.suffix_length(suffix) == n

    def test_levels_nested(self, golden, golden_scheme):
        for n in range(1, 11):
            for v in golden.enumerate_language(n):
                for M in range(n):
                    if golden_scheme.in_level(v, M):
                        assert golden_scheme.in_level(v, M + 1)

    def test_no_match_means_core(self, golden, golden_scheme):
        for v in golden.enumerate_language(8):
            if golden.presentation.walk(v) == 0 and golden.suffix_match_length(v) == 0:
                assert golden_scheme.suffix_length(v) == 0


class TestAppendZeros:
    def test_examples(self, golden):
        assert zero_padding_to_core(golden, word("00")) == 0
        assert zero_padding_to_core(golden, word("10")) == 1
        assert zero_padding_to_core(golden, word("1")) == 2

    def test_minimal_witness_exhaustive(self, golden):
        for n in range(1, 11):
            for v in golden.enumerate_language(n):
                k = zero_padding_to_core(golden, v)
                assert golden.suffix_match_length(v + (0,) * k) == 0
                for smaller in range(k):
                    assert golden.suffix_match_length(v + (0,) * smaller) != 0


class TestFreeConcatenation:
    def test_core_then_anything_exhaustive(self, golden, golden_scheme):
        for a in range(1, 14):
            cores = [
                v for v in golden.enumerate_language(a) if golden_scheme.in_cores(v)
            ]
            for b in range(0, 15 - a):
                for u in cores:
                    for v in golden.enumerate_language(b):
                        assert golden.is_word(u + v)


class TestSpecification:
    def test_cores_glue_with_no_gap(self, golden, golden_scheme):
        report = check_specification(
            golden, golden_scheme.cores(), j=0, tau=0, k_max=3,
            lengths=range(1, 7),
        )
        assert report.passed and report.exhaustive

    def test_full_language_fails_without_gap(self, golden):
        full = OrbitCollection.full_language(golden)
        report = check_specification(golden, full, j=0, tau=0, lengths=range(1, 5))
        assert not report.passed
        assert report.failures

    def test_specific_failure_witness(self, golden):
        full = OrbitCollection.full_language(golden)
        report = check_specification(golden, full, j=0, tau=0, lengths=[2])
        assert (word("01"), word("10")) in report.failures or any(
            segs == (word("01"), word("10")) for segs in report.failures
        )

    def test_full_language_glues_with_gap_one(self, golden):
        full = OrbitCollection.full_language(golden)
        report = check_specification(golden, full, j=0, tau=1, lengths=range(1, 5))
        assert report.passed

    def test_witnesses_are_admissible(self, golden, golden_scheme):
        report = check_specification(
            golden, golden_scheme.cores(), j=0, tau=0, lengths=range(1, 5)
        )
        for segments, glued in report.witnesses:
            assert golden.is_word(glued)

    def test_gap_words_zero_first(self, golden):
        full = OrbitCollection.full_language(golden)
        report = check_specification(golden, full, j=0, tau=2, lengths=[2])
        for segments, glued in report.witnesses:
            total = sum(len(s) for s in segments)
            fills = len(glued) - total
            assert fills == 2 * (len(segments) - 1)

    def test_min_gluing_times(self, golden, full2, golden_scheme):
        assert min_gluing_time(golden, golden_scheme.cores(), lengths=range(1, 6)).tau == 0
        full = OrbitCollection.full_language(golden)
        assert min_gluing_time(golden, full, lengths=range(1, 6)).tau == 1
        full_2 = OrbitCollection.full_language(full2)
        assert min_gluing_time(full2, full_2, lengths=range(1, 5)).tau == 0

    def test_gluing_failure_carries_witness(self, golden):
        full = OrbitCollection.full_language(golden)
        result = min_gluing_time(golden, full, tau_max=0, lengths=range(1, 4))
        assert result.tau is None
        assert result.reports[-1].failures

    def test_depth_one_needs_bigger_gap(self, golden, golden_scheme):
        result = min_gluing_time(
            golden, golden_scheme.cores(), j=1, tau_max=4, lengths=range(1, 5)
        )
        assert result.tau == 2

    def test_depth_one_agrees_with_direct_enumeration(self, golden, golden_scheme):
        # independent oracle: scan every admissible word of the glued length
        # for the window constraints instead of searching with the automaton
        cores = golden_scheme.cores()
        for tau in (1, 2):
            report = check_specification(
                golden, cores, j=1, tau=tau, lengths=range(1, 4)
            )
            pool = [
                v + ext
                for n in range(1, 4)
                for v in cores.at(n)
                for ext in golden.presentation.tails(
                    golden.presentation.walk(v), 1
                )
            ]
            oracle_fail = None
            for a in pool:
                for b in pool:
                    total = (len(a) - 1) + tau + len(b)
                    offset = (len(a) - 1) + tau
                    found = any(
                        z[: len(a)] == a and z[offset : offset + len(b)] == b
                        for z in golden.enumerate_language(total)
                    )
                    if not found:
                        oracle_fail = (a, b)
                        break
                if oracle_fail:
                    break
            assert report.passed == (oracle_fail is None), (tau, oracle_fail)

    def test_k_max_validation(self, golden):
        full = OrbitCollection.full_language(golden)
        with pytest.raises(InputError):
            check_specification(golden, full, j=0, tau=0, k_max=1)

    def test_over_budget_run_is_refused(self, golden):
        full = OrbitCollection.full_language(golden)
        report = check_specification(
            golden, full, j=0, tau=1, k_max=3, lengths=range(1, 7), budget=50
        )
        assert report.verdict == "inconclusive"
        assert not report.passed and not report.exhaustive
        assert report.tuples_checked == 0
        assert report.witnesses == () and report.failures == ()
        size = sum(count_separated(full, n) for n in range(1, 7))
        assert report.tuple_space == size ** 2 + size ** 3

    def test_over_budget_lists_no_segment(self, golden, golden_scheme, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an over-budget check listed or searched")

        monkeypatch.setattr("obstruct.decomposition._segment_pool", refuse)
        monkeypatch.setattr(golden.presentation, "completions", refuse)
        report = check_specification(
            golden, golden_scheme.cores(), j=2, tau=0, lengths=range(1, 6), budget=10
        )
        assert report.verdict == "inconclusive" and report.tuples_checked == 0

    def test_segment_pool_is_listed_once_per_scan(self, golden, monkeypatch):
        full = OrbitCollection.full_language(golden)
        result = min_gluing_time(golden, full, j=1, tau_max=4, lengths=range(1, 5))
        assert len(result.reports) > 1
        listed = []
        tails = golden.presentation.tails
        monkeypatch.setattr(
            golden.presentation, "tails",
            lambda state, depth: listed.append(state) or tails(state, depth),
        )
        again = min_gluing_time(golden, full, j=1, tau_max=4, lengths=range(1, 5))
        # one listing of each state's depth tails for the whole scan
        assert again == result and listed and sorted(listed) == sorted(set(listed))
        for tau, report in enumerate(result.reports):
            assert report == check_specification(golden, full, 1, tau, lengths=range(1, 5))

    def test_refused_gluing_search_stops_at_first_gap(self, golden, golden_scheme):
        result = min_gluing_time(
            golden, golden_scheme.cores(), tau_max=4, lengths=range(1, 6), budget=10
        )
        assert result.tau is None
        (report,) = result.reports
        assert report.verdict == "inconclusive"
        assert report == check_specification(
            golden, golden_scheme.cores(), 0, 0, lengths=range(1, 6), budget=10
        )
        assert report.failures == ()


def _literal_specification(system, collection, j, tau, k_max, lengths, budget):
    """The gluing search one tuple at a time: merge the template, then fill it."""
    witness_limit = 16
    lengths = tuple(sorted(set(lengths)))
    pool = [w for w, _ in _segment_pool(system, collection, lengths, j)]
    total = sum(len(pool) ** k for k in range(2, k_max + 1))
    exhaustive = total <= budget
    tuples = itertools.chain.from_iterable(
        itertools.product(pool, repeat=k) for k in range(2, k_max + 1)
    )
    witnesses, failures, checked = [], [], 0
    for elements in tuples if exhaustive else ():
        checked += 1
        template = _merge_template(elements, tau, j)
        glued = (
            None if template is None
            else next(system.presentation.completions(system.presentation.start,
                                                      template), None)
        )
        if glued is None:
            if len(failures) < witness_limit:
                failures.append(elements)
        elif len(witnesses) < witness_limit:
            witnesses.append((elements, glued))
    if not exhaustive:
        verdict = "inconclusive"
    else:
        verdict = "fail" if failures else "pass"
    return SpecificationReport(
        depth=j,
        k_max=k_max,
        lengths=lengths,
        verdict=verdict,
        exhaustive=exhaustive,
        tuple_space=total,
        tuples_checked=checked,
        witnesses=tuple(witnesses),
        failures=tuple(failures),
    )


class _GraphSystem:
    """Just enough of a system for the gluing search on a bare presentation."""

    def __init__(self, presentation):
        self.presentation = presentation

    def enumerate_language(self, n):
        return self.presentation.enumerate_words(n, None)

    def extensions(self, v, j):
        state = self.presentation.walk(v)
        return 0 if state is None else self.presentation.extensions_from(state, j)


_BETAS = [
    lambda: BetaSystem.from_beta("2"),
    BetaSystem.golden_mean,
    lambda: BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),
    lambda: BetaSystem.from_beta("1.5", horizon=60),
]


@st.composite
def _gluing_cases(draw):
    """(system, collection): beta-shifts, short truncations, bare graphs."""
    kind = draw(st.sampled_from(["beta", "truncated", "graph"]))
    if kind == "graph":
        system = _GraphSystem(draw(presentations()))
        pres = system.presentation
        collection = draw(st.sampled_from([
            OrbitCollection.full_language(system),
            OrbitCollection(system, "returns", at=lambda n: tuple(
                v for v in system.enumerate_language(n) if pres.walk(v) == pres.start
            )),
        ]))
        return system, collection
    if kind == "beta":
        system = draw(st.sampled_from(_BETAS))()
    else:
        beta = draw(st.sampled_from(["1.5", "1.8", "2.5"]))
        system = BetaSystem.from_beta(beta, horizon=draw(st.integers(2, 8)))
    scheme = beta_decomposition(system)
    collection = draw(st.sampled_from(
        [scheme.cores(), OrbitCollection.full_language(system)]
        + [scheme.level_collection(M) for M in range(3)]
    ))
    return system, collection


def _outcome(fn):
    # the type only: the check counts the segments before it lists them, so
    # its error may come from a counter where the oracle's comes from a walk
    try:
        return fn()
    except HorizonError as exc:
        return type(exc)


@given(
    _gluing_cases(),
    st.integers(0, 3),
    st.integers(0, 4),
    st.sampled_from([2, 3]),
    st.sampled_from([(1,), (1, 2), (2, 3), (1, 2, 3)]),
    st.sampled_from([100_000, 40, 0]),
)
@settings(max_examples=300, deadline=None)
def test_memoised_gluing_matches_literal_search(
    case, j, tau, k_max, lengths, budget
):
    system, collection = case
    try:
        pool = _segment_pool(system, collection, lengths, j)
    except HorizonError:
        pool = []
    # keep the literal oracle to a few thousand tuples
    assume(len(pool) ** k_max <= 4_000 or budget < len(pool) ** 2)
    want = _outcome(lambda: _literal_specification(
        system, collection, j, tau, k_max, lengths, budget
    ))
    got = _outcome(lambda: check_specification(
        system, collection, j, tau, k_max=k_max, lengths=lengths, budget=budget,
    ))
    assert got == want
    if isinstance(want, SpecificationReport):
        event(want.verdict)
    else:
        event("HorizonError")


def _count_searches(monkeypatch, presentation):
    """Record the template of every glued-word search on `presentation`:
    each `completions` call that fixes a symbol (a listing of depth tails
    fixes none)."""
    search = presentation.completions
    searched = []

    def counted(state, template):
        if any(a is not None for a in template):
            searched.append(template)
        return search(state, template)

    monkeypatch.setattr(presentation, "completions", counted)
    return searched


def test_word_search_runs_only_for_reported_witnesses(monkeypatch):
    # p5 has no truncation marker, so the only searches are for witnesses
    system = BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5)
    scheme = beta_decomposition(system)
    searched = _count_searches(monkeypatch, system.presentation)
    for M in range(3):
        del searched[:]
        report = check_specification(
            system, scheme.level_collection(M), j=1, tau=2, lengths=range(1, 5)
        )
        assert report.tuples_checked > 10 * WITNESS_LIMIT
        assert len(searched) <= len(report.witnesses) <= WITNESS_LIMIT
    assert report.witnesses and report.failures


def test_marker_met_but_search_passes_first(monkeypatch):
    # expansion 101: a tail ending in state 2 reads 1 into the marker in its
    # free symbol, but the search tries 0 first and glues past it
    system = BetaSystem.from_beta("1.5", horizon=3)
    cores = beta_decomposition(system).cores()
    searched = _count_searches(monkeypatch, system.presentation)
    report = check_specification(system, cores, j=2, tau=3, lengths=(1, 2))
    assert report.verdict == "pass"
    assert len(searched) > len(report.witnesses)  # tuples that met the marker
    assert report == _literal_specification(
        system, cores, 2, 3, 2, (1, 2), DEFAULT_TUPLE_BUDGET
    )


def test_marker_met_before_any_glue_raises():
    # expansion 10: after the segment 1 the gap symbol must be 0, which
    # leads into the marker before the next segment
    system = BetaSystem.from_beta("1.5", horizon=2)
    full = OrbitCollection.full_language(system)
    with pytest.raises(HorizonError):
        _literal_specification(system, full, 0, 1, 2, (1,), DEFAULT_TUPLE_BUDGET)
    with pytest.raises(HorizonError):
        check_specification(system, full, j=0, tau=1, lengths=(1,))


class TestObstruction:
    def test_golden_rate_zero(self, golden, golden_scheme):
        est = obstruction_entropy_upper(golden, golden_scheme, j=0, n_max=30)
        assert est.rate == 0.0

    def test_full_shift_rate_zero(self, full2, full2_scheme):
        est = obstruction_entropy_upper(full2, full2_scheme, j=0, n_max=30)
        assert est.rate == 0.0

    def test_degenerate_rate_is_full_entropy(self, golden):
        scheme = degenerate_decomposition(golden)
        est = obstruction_entropy_upper(golden, scheme, j=0, n_max=30)
        assert abs(est.rate - LOG_PHI) < 0.02

    def test_uncertifiable_level_raises(self, golden, golden_scheme):
        with pytest.raises(SpecificationError, match="no gluing time up to 0"):
            obstruction_entropy_upper(
                golden, golden_scheme, j=0, n_max=20, tau_max=0, certify_levels=(2,)
            )

    def test_refused_level_says_not_searched(self):
        # at depth 2 the tuple space of level 0 exceeds the budget, so the
        # check is refused, not failed
        system = BetaSystem.from_beta("3")
        scheme = beta_decomposition(system)
        with pytest.raises(SpecificationError) as info:
            obstruction_entropy_upper(system, scheme, j=2, n_max=8)
        message = str(info.value)
        assert "not searched:" in message and "no gluing time" not in message
        assert f"exceed the budget {DEFAULT_TUPLE_BUDGET}" in message


def test_coverage_fast_path_matches_enumeration_on_random_systems():
    from hypothesis import given, settings, strategies as st
    from obstruct.beta import BetaSystem
    from obstruct.decomposition import beta_decomposition as make_scheme
    from obstruct.errors import InputError as Bad

    blocks = st.integers(min_value=1, max_value=2).flatmap(
        lambda lead: st.lists(
            st.integers(min_value=0, max_value=lead), min_size=0, max_size=3
        ).map(lambda rest: (lead,) + tuple(rest))
    )

    @given(blocks, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def run(block, M, n):
        try:
            system = BetaSystem.from_expansion(block, period=len(block))
        except Bad:
            return
        scheme = make_scheme(system)
        brute = sum(
            1 for v in system.enumerate_language(n) if scheme.in_level(v, M)
        )
        assert count_separated(scheme.level_collection(M), n, 0) == brute

    run()


def test_obstruction_profile_flat(golden, golden_scheme):
    for j in range(3):
        assert obstruction_entropy_upper(golden, golden_scheme, j, 24).rate == 0.0


class TestCoverage:
    def test_full_shift_example(self, full2, full2_scheme):
        assert filtration_coverage(full2, full2_scheme, 3, 10) == Fraction(15, 16)

    def test_level_at_least_n_is_total(self, golden, golden_scheme):
        assert filtration_coverage(golden, golden_scheme, 12, 12) == 1

    def test_matches_enumeration(self, golden, golden_scheme):
        count = sum(
            1
            for v in golden.enumerate_language(12)
            if golden_scheme.in_level(v, 2)
        )
        expected = Fraction(count, golden.count_language(12))
        assert filtration_coverage(golden, golden_scheme, 2, 12) == expected

    def test_monotone_in_level(self, golden, golden_scheme):
        for n in (8, 14, 20):
            values = [
                filtration_coverage(golden, golden_scheme, M, n) for M in range(n + 1)
            ]
            assert values == sorted(values)
            assert values[-1] == 1

    def test_levels_cover_language(self, golden, golden_scheme):
        # every admissible word lies in some finite level
        for n in range(1, 9):
            for v in golden.enumerate_language(n):
                assert golden_scheme.in_level(v, n)


def core_count(system, n):
    """#{v in L_n ending in no prefix of the expansion}."""
    return system.core_counts(n)[n]


class TestCountingBounds:
    def test_gluing_product_bound(self, golden, golden_scheme):
        tau = min_gluing_time(golden, golden_scheme.cores(), lengths=range(1, 5)).tau
        core = {n: core_count(golden, n) for n in range(1, 19)}
        lang = {n: golden.count_language(n) for n in range(1, 23)}
        for k in (2, 3):
            for total in range(k, 19):
                for first in range(1, total - k + 2):
                    parts = (
                        [(first, total - first)]
                        if k == 2
                        else [
                            (first, second, total - first - second)
                            for second in range(1, total - first - k + 3)
                        ]
                    )
                    for p in parts:
                        if any(x < 1 for x in p):
                            continue
                        rhs = 1
                        for x in p:
                            rhs *= core[x]
                        assert lang[total + (k - 1) * tau] >= rhs

    def test_core_ceiling_exact_to_30(self, golden, full2):
        phi = golden_ratio()
        for n in range(1, 31):
            assert core_count(golden, n) <= phi ** n
            assert core_count(full2, n) <= 2 ** n


# -- level words with their states -------------------------------------------------


_LEVEL_SYSTEMS = {
    "golden": lambda: BetaSystem.from_expansion((1, 0), period=2),
    "p5": lambda: BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),
    "p9": lambda: BetaSystem.from_expansion((1, 1, 0, 1, 0, 0, 1, 0, 0), period=9),
    "2110-period2": lambda: BetaSystem.from_expansion((2, 1, 1, 0), period=2),
    "user-truncated": lambda: BetaSystem.from_expansion((2, 1, 0, 1)),
}


@st.composite
def _level_systems(draw):
    cap = draw(st.sampled_from([24] * 3 + [0, 3, 6]))
    if draw(st.booleans()):
        system = _LEVEL_SYSTEMS[draw(st.sampled_from(sorted(_LEVEL_SYSTEMS)))]()
    else:
        beta = draw(st.sampled_from(["1.5", "1.8", "2.5"]))
        system = BetaSystem.from_beta(beta, horizon=draw(st.integers(2, 8)))
    system.enumeration_cap = cap
    return system


@st.composite
def _level_schemes(draw):
    make = draw(st.sampled_from([beta_decomposition, degenerate_decomposition]))
    return make(draw(_level_systems()))


def _error_type(fn):
    try:
        return fn()
    except (HorizonError, EnumerationCapError) as exc:
        return type(exc)


@given(_level_schemes(), st.integers(0, 12), st.integers(1, 10), st.integers(0, 3))
# match 5 wraps to state 0
@example(beta_decomposition(_LEVEL_SYSTEMS["p5"]()), 5, 10, 1)
@settings(max_examples=200, deadline=None)
def test_level_counter_matches_level_words(scheme, M, n, j):
    # the closed-form count of a level against its listed words
    system = scheme.system
    counted = _error_type(lambda: count_separated(scheme.level_collection(M), n, j))
    listed = _error_type(
        lambda: sum(system.extensions(v, j) for v in scheme.level_words(M, n))
    )
    if listed is EnumerationCapError:
        # past the length cap only the count is made
        event("listing refused")
        return
    if isinstance(scheme, DegenerateDecomposition) and n > M:
        # the degenerate level holds no word longer than M, which the count
        # knows without the language (whose listing may meet the marker)
        assert counted == 0 and listed in (0, HorizonError)
        return
    assert counted == listed
    event(listed.__name__ if isinstance(listed, type) else "counted")


def _level_count_from_scratch(system, M, n, j):
    """The beta level count summed afresh from m = 0, as before the rows
    were kept: Z_(n-m) ext(match state m, j) over m <= min(M, n)."""
    z = system.core_counts(n)
    ext = system.presentation.extensions_from
    return sum(
        z[n - m] * ext(system.match_state(m), j)
        for m in range(min(M, n) + 1)
        if z[n - m]
    )


@st.composite
def _row_systems(draw):
    """Periodic, preperiodic and truncated expansions, with short horizons."""
    if draw(st.booleans()):
        return _LEVEL_SYSTEMS[draw(st.sampled_from(sorted(_LEVEL_SYSTEMS)))]()
    beta = draw(st.sampled_from(["1.5", "1.8", "2.5"]))
    return BetaSystem.from_beta(beta, horizon=draw(st.integers(2, 8)))


@given(
    _row_systems(),
    st.lists(st.tuples(st.integers(0, 16), st.integers(1, 30), st.integers(0, 2)),
             min_size=1, max_size=40),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_kept_level_rows_match_the_sums_from_scratch(system, queries):
    # one scheme answers every query from its kept rows, in random order
    scheme = beta_decomposition(system)
    oracle_system = BetaSystem(system.expansion)
    for M, n, j in queries:
        want = _error_type(
            lambda: _level_count_from_scratch(oracle_system, M, n, j))
        got = _error_type(lambda: scheme.level_counter(M)(n, j))
        assert got == want, (M, n, j)
        if n <= 10:
            listed = _error_type(lambda: sum(
                system.extensions(v, j) for v in scheme.level_words(M, n)))
            assert listed == want, (M, n, j)
        event(want.__name__ if isinstance(want, type) else "counted")


_CORE_SCHEMES = {
    "beta": lambda: beta_decomposition(BetaSystem.golden_mean()),
    "beta-truncated": lambda: beta_decomposition(
        BetaSystem.from_beta("1.8", horizon=12)
    ),
    "degenerate": lambda: degenerate_decomposition(BetaSystem.golden_mean()),
    "induced-xor": lambda: _induced(BetaSystem.golden_mean(), BlockCode.xor()),
}


def _induced(system, code):
    return induced_decomposition(system, code, beta_decomposition(system))


@pytest.mark.parametrize("name", sorted(_CORE_SCHEMES))
def test_cores_are_level_zero(name):
    scheme = _CORE_SCHEMES[name]()
    system = scheme.system
    cores, level0 = scheme.cores(), scheme.level_collection(0)
    assert cores.label == f"{scheme.name}:cores"
    for n in range(0, 9):
        listed = tuple(v for v in system.enumerate_language(n) if scheme.in_cores(v))
        assert cores.at(n) == level0.at(n) == listed
        if n:
            for j in range(3):
                assert count_separated(cores, n, j) == count_separated(level0, n, j)
    if name == "induced-xor":
        # an image core has a preimage that is a core upstairs
        source = scheme.source_scheme
        for n in range(1, 9):
            assert cores.at(n) == tuple(
                y for y in system.enumerate_language(n)
                if any(source.suffix_length(u) == 0 for u in system.preimages(y))
            )


def test_degenerate_empty_word_classes_match_predicates(golden):
    system = BetaSystem.from_beta("1.8", horizon=12)
    for source in (golden, system):
        scheme = degenerate_decomposition(source)
        closed = scheme.cores()
        literal = OrbitCollection(source, "literal", at=lambda n: tuple(
            v for v in source.enumerate_language(n) if scheme.in_cores(v)
        ))
        assert closed.at(0) == literal.at(0) == ((),)
        for n in range(1, 9):
            assert closed.at(n) == literal.at(n) == ()
            for j in range(3):
                assert count_separated(closed, n, j) == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: (BetaSystem.full_shift(2), BlockCode(
            3, {b: int(sum(b) >= 2) for b in itertools.product((0, 1), repeat=3)}, 2
        )),
        lambda: (BetaSystem.golden_mean(), BlockCode.xor()),
    ],
    ids=["maj3", "xor"],
)
def test_induced_level_listed_once_per_gluing_search(make):
    # the induced level class has no counter: each gap used to list it to
    # count its tuples and again for the pool
    system, code = make()
    induced = induced_decomposition(system, code, beta_decomposition(system))
    collection = induced.level_collection(2)
    listed = []
    at = collection._at
    collection._at = lambda n: listed.append(n) or at(n)
    lengths = range(1, 5)
    result = min_gluing_time(
        induced.factor, collection, j=0, tau_max=6, lengths=lengths
    )
    assert sorted(listed) == list(lengths)
    # the same reports as one unmemoised check per gap
    collection._at = at
    for tau, report in enumerate(result.reports):
        assert report == check_specification(
            induced.factor, collection, 0, tau, lengths=lengths
        )
    assert result.tau == 2


def test_empty_level_lists_nothing(monkeypatch):
    # the degenerate level 1 has no words of length 5, so nothing is listed,
    # though listing the truncated language at that length would raise
    system = BetaSystem.from_beta("1.5", horizon=3)
    level = degenerate_decomposition(system).level_collection(1)
    with pytest.raises(HorizonError):
        system.enumerate_language(5)

    def refuse(*args, **kwargs):
        raise AssertionError("an empty level listed the language")

    monkeypatch.setattr(system, "enumerate_language", refuse)
    assert count_separated(level, 5, 0) == 0
    assert level.at(5) == ()


# periodic expansions of 1 (digits, period): golden, p5 and p9
_PERIODIC = [((1, 0), 2), ((2, 1, 0, 0, 1), 5), ((1, 1, 0, 1, 0, 0, 1, 0, 0), 9)]


@st.composite
def _gluing_cells(draw):
    """(system, M, j): beta = p/q or a periodic expansion, exact or cut to a
    horizon of at most 40 digits, with M <= 2 and j <= 2."""
    kind = draw(st.sampled_from(["ratio", "periodic", "cut"]))
    if kind == "ratio":
        q = draw(st.integers(1, 50))
        beta = Fraction(draw(st.integers(q + 1, 6 * q)), q)
        system = BetaSystem.from_beta(beta, horizon=draw(st.integers(1, 40)))
    else:
        digits, period = draw(st.sampled_from(_PERIODIC))
        if kind == "periodic":
            system = BetaSystem.from_expansion(digits, period=period)
        else:
            system = BetaSystem.from_expansion((digits * 40)[: draw(st.integers(1, 40))])
    return system, draw(st.integers(0, 2)), draw(st.integers(0, 2))


@given(_gluing_cells())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_certificate_bounds_the_literal_gluing_time(cell):
    # the literal search over short segments may glue earlier than the
    # certificate, never later; and the certificate's gap passes the check
    system, M, j = cell
    scheme = beta_decomposition(system)
    tau, _ = scheme.gluing_time(M, j, tau_max=10 ** 6)
    event("not established" if tau is None else "established")
    if tau is None:
        return
    level = scheme.level_collection(M)
    lengths, budget = range(1, 4), 20_000
    try:
        literal = min_gluing_time(system, level, j=j, tau_max=tau,
                                  lengths=lengths, budget=budget)
        report = check_specification(system, level, j, tau,
                                     lengths=lengths, budget=budget)
    except HorizonError:
        event("search meets the marker")
        return
    if literal.reports[-1].exhaustive:
        assert literal.found and literal.tau <= tau
    if report.exhaustive:
        assert report.passed
