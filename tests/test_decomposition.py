import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from obstruct.beta import BetaSystem
from obstruct.decomposition import (
    DecompositionScheme,
    SpecificationReport,
    _fill_template,
    _merge_template,
    _segment_pool,
    beta_decomposition,
    check_specification,
    degenerate_decomposition,
    filtration_coverage,
    min_gluing_time,
    obstruction_entropy_upper,
    split,
    zero_padding_to_core,
)
from obstruct.errors import (
    EnumerationCapError,
    HorizonError,
    InputError,
    SpecificationError,
)
from obstruct.orbits import OrbitCollection, count_separated
from obstruct.quadratic import golden_ratio
from obstruct.words import word
from test_automata import presentations

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


class TestSplit:
    def test_examples(self, golden_scheme, full2_scheme):
        assert golden_scheme.split(word("00101")) == (0, 2, 3)
        assert full2_scheme.split(word("0111")) == (0, 1, 3)
        assert golden_scheme.split(word("10")) == (0, 0, 2)
        assert golden_scheme.split(word("00")) == (0, 2, 0)
        assert golden_scheme.split(()) == (0, 0, 0)
        assert split(golden_scheme, word("00101")) == (0, 2, 3)

    def test_inadmissible_rejected(self, golden_scheme):
        with pytest.raises(InputError):
            golden_scheme.split(word("110"))

    def test_totality_and_classes_exhaustive(self, golden, golden_scheme):
        for n in range(0, 15):
            for v in golden.enumerate_language(n):
                p, g, s = golden_scheme.split(v)
                assert p + g + s == len(v)
                assert golden_scheme.in_prefixes(v[:p])
                assert golden_scheme.in_cores(v[p : p + g])
                assert golden_scheme.in_suffixes(v[p + g :])

    def test_core_resplit_idempotent(self, golden, golden_scheme):
        for n in range(1, 12):
            for v in golden.enumerate_language(n):
                _, g, _ = golden_scheme.split(v)
                core = v[:g] if g else ()
                if core:
                    assert golden_scheme.split(core) == (0, len(core), 0)

    def test_suffix_resplit_idempotent(self, golden, golden_scheme):
        for n in range(1, 12):
            suffix = golden.expansion_prefix(n)
            assert golden_scheme.split(suffix) == (0, 0, n)

    def test_levels_nested(self, golden, golden_scheme):
        for n in range(1, 11):
            for v in golden.enumerate_language(n):
                for M in range(n):
                    if golden_scheme.in_level(v, M):
                        assert golden_scheme.in_level(v, M + 1)

    def test_no_match_means_core(self, golden, golden_scheme):
        for v in golden.enumerate_language(8):
            if golden.presentation.walk(v) == 0 and golden.suffix_match_length(v) == 0:
                assert golden_scheme.split(v) == (0, len(v), 0)


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
        assert result.best_failure is not None

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

    def test_sampled_run_reports_non_exhaustive(self, golden):
        full = OrbitCollection.full_language(golden)
        report = check_specification(
            golden, full, j=0, tau=1, k_max=3, lengths=range(1, 7), budget=50
        )
        assert not report.exhaustive
        assert report.tuples_checked <= 60


def _literal_specification(
    system, collection, j, tau, k_max, lengths, sample, budget, seed
):
    """The gluing search one tuple at a time: merge the template, then fill it."""
    witness_limit = 16
    pool = [w for w, _ in _segment_pool(system, collection, lengths, j)]
    total = sum(len(pool) ** k for k in range(2, k_max + 1))
    exhaustive = sample == "all" or total <= budget
    if exhaustive:
        tuples = itertools.chain.from_iterable(
            itertools.product(pool, repeat=k) for k in range(2, k_max + 1)
        )
    else:
        rng = random.Random(seed)
        per_k = max(1, budget // max(1, k_max - 1))
        tuples = (
            tuple(rng.choice(pool) for _ in range(k))
            for k in range(2, k_max + 1)
            for _ in range(min(per_k, len(pool) ** k))
        )
    witnesses, failures, checked = [], [], 0
    for elements in tuples:
        checked += 1
        template = _merge_template(elements, tau, j)
        glued = (
            None if template is None
            else _fill_template(system.presentation, template)
        )
        if glued is None:
            if len(failures) < witness_limit:
                failures.append(elements)
        elif len(witnesses) < witness_limit:
            witnesses.append((elements, glued))
    return SpecificationReport(
        collection=collection.label,
        depth=j,
        gap=tau,
        k_max=k_max,
        lengths=tuple(sorted(set(lengths))),
        verdict="fail" if failures else "pass",
        exhaustive=exhaustive,
        tuples_checked=checked,
        witnesses=tuple(witnesses),
        failures=tuple(failures),
    )


class _GraphSystem:
    """Just enough of a system for the gluing search on a bare presentation."""

    def __init__(self, presentation):
        self.presentation = presentation

    def enumerate_language(self, n, cap=None):
        return self.presentation.enumerate_words(n, cap)


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
            OrbitCollection.from_predicate(
                system, lambda v: pres.walk(v) == pres.start, "returns"
            ),
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
    try:
        return fn()
    except HorizonError as exc:
        return type(exc), str(exc)


@given(
    _gluing_cases(),
    st.integers(0, 3),
    st.integers(0, 4),
    st.sampled_from([2, 3]),
    st.sampled_from([(1,), (1, 2), (2, 3), (1, 2, 3)]),
    st.sampled_from([("exhaustive", 100_000), ("exhaustive", 40), ("all", 0)]),
    st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_memoised_gluing_matches_literal_search(
    case, j, tau, k_max, lengths, mode, seed
):
    system, collection = case
    sample, budget = mode
    try:
        pool = _segment_pool(system, collection, lengths, j)
    except HorizonError:
        pool = []
    # keep the literal oracle to a few thousand tuples
    assume(len(pool) ** k_max <= 4_000 or (sample != "all" and budget < 1000))
    want = _outcome(lambda: _literal_specification(
        system, collection, j, tau, k_max, lengths, sample, budget, seed
    ))
    got = _outcome(lambda: check_specification(
        system, collection, j, tau, k_max=k_max, lengths=lengths,
        sample=sample, budget=budget, seed=seed,
    ))
    assert got == want
    if isinstance(want, SpecificationReport):
        event(f"{want.verdict}, exhaustive={want.exhaustive}")
    else:
        event("HorizonError")


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
        with pytest.raises(SpecificationError):
            obstruction_entropy_upper(
                golden, golden_scheme, j=0, n_max=20, tau_max=0, certify_levels=(2,)
            )


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
        assert scheme.coverage_count(M, n) == brute

    run()


def test_obstruction_profile_flat(golden, golden_scheme):
    from obstruct.decomposition import obstruction_entropy_profile

    profile = obstruction_entropy_profile(golden, golden_scheme, range(3), 24)
    assert set(profile) == {0, 1, 2}
    assert all(est.rate == 0.0 for est in profile.values())


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


class TestCountingBounds:
    def test_gluing_product_bound(self, golden, golden_scheme):
        tau = min_gluing_time(golden, golden_scheme.cores(), lengths=range(1, 5)).tau
        core = {n: golden.core_count(n) for n in range(1, 19)}
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
            assert golden.core_count(n) <= phi ** n
            assert full2.core_count(n) <= 2 ** n


# -- level words with their states -------------------------------------------------


_LEVEL_SYSTEMS = {
    "golden": lambda cap: BetaSystem.from_expansion((1, 0), period=2,
                                                    enumeration_cap=cap),
    "p5": lambda cap: BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5,
                                                enumeration_cap=cap),
    "p9": lambda cap: BetaSystem.from_expansion(
        (1, 1, 0, 1, 0, 0, 1, 0, 0), period=9, enumeration_cap=cap
    ),
    "2110-period2": lambda cap: BetaSystem.from_expansion(
        (2, 1, 1, 0), period=2, enumeration_cap=cap
    ),
    "user-truncated": lambda cap: BetaSystem.from_expansion(
        (2, 1, 0, 1), enumeration_cap=cap
    ),
}


@st.composite
def _level_systems(draw):
    cap = draw(st.sampled_from([24] * 3 + [0, 3, 6]))
    if draw(st.booleans()):
        return _LEVEL_SYSTEMS[draw(st.sampled_from(sorted(_LEVEL_SYSTEMS)))](cap)
    beta = draw(st.sampled_from(["1.5", "1.8", "2.5"]))
    horizon = draw(st.integers(2, 8))
    return BetaSystem.from_beta(beta, horizon=horizon, enumeration_cap=cap)


def _enumeration_outcome(fn):
    try:
        return fn()
    except (HorizonError, EnumerationCapError) as exc:
        return type(exc), str(exc)


@given(_level_systems(), st.integers(0, 12), st.integers(0, 10))
@example(_LEVEL_SYSTEMS["p5"](24), 5, 10)  # match 5 wraps to state 0
@settings(max_examples=200, deadline=None)
def test_level_words_match_enumeration(system, M, n):
    scheme = beta_decomposition(system)
    # the generic fallback: enumerate the language, test each word, walk it
    want = _enumeration_outcome(
        lambda: DecompositionScheme.level_words(scheme, M, n)
    )
    got = _enumeration_outcome(lambda: scheme.level_words(M, n))
    assert got == want
    event(want[0].__name__ if isinstance(want, tuple) else "words")


def test_degenerate_empty_word_classes_match_predicates(golden):
    system = BetaSystem.from_beta("1.8", horizon=12)
    for source in (golden, system):
        scheme = degenerate_decomposition(source)
        pairs = [
            (scheme.prefixes(), scheme.in_prefixes),
            (scheme.cores(), scheme.in_cores),
        ]
        for closed, predicate in pairs:
            literal = OrbitCollection.from_predicate(source, predicate, "literal")
            assert closed.at(0) == literal.at(0) == ((),)
            for n in range(1, 9):
                assert closed.at(n) == literal.at(n) == ()
                for j in range(3):
                    assert count_separated(closed, n, j) == 0
