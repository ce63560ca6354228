import functools
import itertools
import math

import pytest
from hypothesis import event, example, given, settings, strategies as st

from obstruct.automata import MATRIX_POWER_CAP
from obstruct.beta import BetaSystem
from obstruct.decomposition import (
    SEARCH_LENGTHS,
    beta_decomposition,
    check_specification,
    degenerate_decomposition,
    min_gluing_time,
)
from obstruct.errors import EnumerationCapError, HorizonError, InputError
from obstruct.factors import (
    M_VERIFY,
    BlockCode,
    FactorSystem,
    apply_code,
    build_pair_automaton,
    factor_entropy_positive,
    factor_language,
    induced_decomposition,
    nonexpansive_growth,
)
from obstruct.orbits import upper_entropy
from obstruct.words import word

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


@pytest.fixture(scope="module")
def wide():
    # expansion (21) repeated: growth 1 + sqrt(3), alphabet {0, 1, 2}
    return BetaSystem.from_expansion((2, 1), period=2)


class TestApply:
    def test_identity(self, golden):
        code = BlockCode.identity(2)
        assert apply_code(code, word("010")) == word("010")

    def test_xor(self):
        assert apply_code(BlockCode.xor(), word("0110")) == word("101")

    def test_merge(self):
        code = BlockCode.merge_all(2)
        assert apply_code(code, word("010")) == (0, 0, 0)

    def test_short_word_rejected(self):
        with pytest.raises(InputError):
            apply_code(BlockCode.xor(), word("1"))

    def test_rule_validation(self, golden):
        partial = BlockCode(2, {(0, 0): 0, (0, 1): 1}, 2)
        with pytest.raises(InputError):
            partial.validate(golden)


class TestFactorLanguage:
    def test_xor_image_is_full(self, full2):
        for n in range(1, 11):
            assert len(factor_language(full2, BlockCode.xor(), n)) == 2 ** n

    def test_merge_single_word_per_length(self, golden):
        for n in range(1, 8):
            assert factor_language(golden, BlockCode.merge_all(2), n) == [(0,) * n]

    def test_identity_counts(self, golden):
        assert len(factor_language(golden, BlockCode.identity(2), 3)) == 5

    def test_cap(self, golden):
        with pytest.raises(EnumerationCapError):
            factor_language(golden, BlockCode.xor(), 24)

    def test_image_language_closure(self, golden, full2):
        for system, code in [
            (golden, BlockCode.identity(2)),
            (full2, BlockCode.xor()),
        ]:
            for n in range(1, 10):
                level = set(factor_language(system, code, n))
                above = factor_language(system, code, n + 1)
                sub = {w[i : i + n] for w in above for i in range(2)}
                assert sub == level

    def test_presentation_matches_brute_force(self, golden, full2, wide):
        cases = [
            (golden, BlockCode.identity(2)),
            (full2, BlockCode.xor()),
            (golden, BlockCode.merge_all(2)),
            (wide, BlockCode(1, {(0,): 0, (1,): 1, (2,): 1}, 2)),
        ]
        for system, code in cases:
            image = FactorSystem(system, code)
            for n in range(1, 9):
                brute = factor_language(system, code, n)
                assert image.enumerate_language(n) == brute
                assert image.count_language(n) == len(brute)


class TestInduced:
    def test_identity_matches_source(self, golden, golden_scheme):
        ind = induced_decomposition(golden, BlockCode.identity(2), golden_scheme)
        for n in range(0, 11):
            for v in golden.enumerate_language(n):
                assert ind.suffix_length(v) == golden_scheme.suffix_length(v)

    def test_xor_suffix_ray(self, full2, full2_scheme):
        ind = induced_decomposition(full2, BlockCode.xor(), full2_scheme)
        for n in range(1, 9):
            assert ind.suffix_word(n) == (0,) * n
            assert ind.suffixes().at(n) == ((0,) * n,)

    def test_totality_on_images(self, golden, full2, golden_scheme, full2_scheme):
        cases = [
            (golden, BlockCode.identity(2), golden_scheme),
            (full2, BlockCode.xor(), full2_scheme),
            (golden, BlockCode.merge_all(2), golden_scheme),
        ]
        for system, code, scheme in cases:
            ind = induced_decomposition(system, code, scheme)
            for n in range(0, 11 - code.window):
                for y in ind.factor.enumerate_language(n):
                    s = ind.suffix_length(y)
                    assert 0 <= s <= n
                    assert ind.in_cores(y[: n - s])
                    assert ind.suffix_length(y[n - s :]) == s

    def test_one_block_core_images_stay_cores(self, golden, golden_scheme):
        for code in (BlockCode.identity(2), BlockCode.merge_all(2)):
            ind = induced_decomposition(golden, code, golden_scheme)
            for n in range(1, 11):
                for v in golden.enumerate_language(n):
                    if golden_scheme.in_cores(v):
                        assert ind.in_cores(apply_code(code, v))

    def test_preimages(self, full2):
        image = FactorSystem(full2, BlockCode.xor())
        pre = image.preimages(word("10"))
        assert pre == [(0, 1, 1), (1, 0, 0)]
        for u in pre:
            assert apply_code(BlockCode.xor(), u) == word("10")

    def test_scheme_system_mismatch(self, golden, full2_scheme):
        with pytest.raises(InputError):
            induced_decomposition(golden, BlockCode.identity(2), full2_scheme)


class TestSuffixEntropy:
    def test_rate_zero_everywhere(self, golden, full2):
        cases = [
            (golden, BlockCode.identity(2)),
            (full2, BlockCode.xor()),
            (golden, BlockCode.merge_all(2)),
        ]
        for system, code in cases:
            ind = induced_decomposition(system, code, beta_decomposition(system))
            est = upper_entropy(ind.suffixes(), 0, 20)
            assert est.rate == 0.0

    def test_one_suffix_word_per_length(self, golden, golden_scheme):
        ind = induced_decomposition(golden, BlockCode.identity(2), golden_scheme)
        for n in range(1, 12):
            assert len(ind.suffixes().at(n)) == 1


def _separated_concatenations(system, code, report, j=0):
    """The distinct depth-j image prefixes of the 2^M_VERIFY concatenations
    of the report's core pair, each checked to be a word."""
    v1, v2, n = report.witness
    prefixes = set()
    for blocks in itertools.product((v1, v2), repeat=M_VERIFY):
        w = sum(blocks, ())
        assert system.is_word(w)
        prefixes.add(apply_code(code, w)[: (M_VERIFY - 1) * n + j + 1])
    return len(prefixes)


class TestEntropyPositive:
    def test_identity_on_golden(self, golden):
        report = factor_entropy_positive(golden, BlockCode.identity(2), j=0)
        assert report.positive
        v1, v2, n = report.witness
        assert report.rate_bound == pytest.approx(math.log(2) / n)
        assert _separated_concatenations(golden, BlockCode.identity(2), report) == 8

    def test_xor_rate_bound(self, full2):
        report = factor_entropy_positive(full2, BlockCode.xor(), j=0)
        assert report.positive
        assert report.rate_bound >= math.log(2) / 2 - 1e-12
        assert _separated_concatenations(full2, BlockCode.xor(), report) == 8

    def test_merge_single_point(self, golden):
        report = factor_entropy_positive(golden, BlockCode.merge_all(2), j=0)
        assert report.verdict == "single-point-at-scale"

    def test_inconclusive_on_budget(self, golden):
        # lengths past the enumeration cap cannot be searched
        report = factor_entropy_positive(
            golden, BlockCode.identity(2), j=0, lengths=range(30, 32)
        )
        assert report.verdict == "inconclusive"

    def test_empty_length_range_is_inconclusive(self, golden):
        # no length searched is no evidence of a single image point
        report = factor_entropy_positive(
            golden, BlockCode.identity(2), j=0, lengths=range(5, 5)
        )
        assert report.verdict == "inconclusive"
        assert report.witness is None

    def test_depth_one(self, golden):
        report = factor_entropy_positive(golden, BlockCode.identity(2), j=1)
        assert report.positive


class TestNonexpansive:
    def test_identity_expansive(self, golden):
        report = nonexpansive_growth(golden, BlockCode.identity(2))
        assert report.expansive
        assert report.growth_bound is None

    def test_merge_all_full_entropy(self, golden):
        report = nonexpansive_growth(golden, BlockCode.merge_all(2))
        assert not report.expansive
        assert report.growth_bound == pytest.approx(LOG_PHI, abs=1e-6)

    def test_xor_two_to_one_zero_growth(self, full2):
        report = nonexpansive_growth(full2, BlockCode.xor())
        assert not report.expansive
        assert report.growth_bound == pytest.approx(0.0, abs=1e-9)

    def test_partial_merge_strictly_between(self, wide):
        code = BlockCode(1, {(0,): 0, (1,): 1, (2,): 1}, 2)
        report = nonexpansive_growth(wide, code)
        assert not report.expansive
        log_beta = wide.log_beta()
        assert 1e-6 < report.growth_bound < log_beta - 1e-6

    def test_pair_counts_match_brute_force(self, golden, full2, wide):
        cases = [
            (golden, BlockCode.identity(2), 8),
            (golden, BlockCode.merge_all(2), 8),
            (full2, BlockCode.xor(), 8),
            (wide, BlockCode(1, {(0,): 0, (1,): 1, (2,): 1}, 2), 5),
        ]
        for system, code, top in cases:
            pair = build_pair_automaton(system, code)
            counts = [pair.count_words(n) for n in range(top + 1)]
            for n in range(code.window, top + 1):
                images = [apply_code(code, u) for u in system.enumerate_language(n)]
                grouped: dict = {}
                for y in images:
                    grouped[y] = grouped.get(y, 0) + 1
                brute = sum(c * c for c in grouped.values())
                assert counts[n] == brute

    def test_pair_dump(self, golden, tmp_path):
        pair = build_pair_automaton(golden, BlockCode.merge_all(2))
        path = tmp_path / "pairs.csv"
        pair.dump_edges_csv(path)
        rows = path.read_text().strip().split("\n")
        assert all(len(r.split(",")) == 5 for r in rows)


class TestInducedGluing:
    def test_image_gluing_bounded_by_window_and_source(
        self, golden, full2, golden_scheme, full2_scheme
    ):
        cases = [
            (golden, BlockCode.identity(2), golden_scheme),
            (full2, BlockCode.xor(), full2_scheme),
        ]
        for system, code, scheme in cases:
            ind = induced_decomposition(system, code, scheme)
            for j in (0, 1):
                tau_src = min_gluing_time(
                    system, scheme.cores(), j=j, tau_max=4, lengths=range(1, 5)
                ).tau
                tau_img = min_gluing_time(
                    ind.factor, ind.cores(), j=j, tau_max=6, lengths=range(1, 5)
                ).tau
                assert tau_img is not None
                assert tau_img <= (code.window - 1) + j + tau_src


_SOURCES = {
    "2": lambda: BetaSystem.full_shift(2),
    "golden": BetaSystem.golden_mean,
    "1.5@60": lambda: BetaSystem.from_beta("1.5", horizon=60),
    "1.8@40": lambda: BetaSystem.from_beta("1.8", horizon=40),
}
_CODES = {
    "xor": BlockCode.xor(),
    "maj3": BlockCode(
        3, {b: int(sum(b) >= 2) for b in itertools.product((0, 1), repeat=3)}, 2
    ),
}


@functools.lru_cache(maxsize=None)
def _induced(source, code):
    system = _SOURCES[source]()
    return induced_decomposition(system, _CODES[code], beta_decomposition(system))


@given(
    st.sampled_from(sorted(_SOURCES)),
    st.sampled_from(sorted(_CODES)),
    st.integers(0, 2),
    st.integers(0, 2),
)
# image level M lies in the image of source level M + 2, not M: pushed
# forward from level M these cells would read 4 and 5, the literal 8 and 9
@example("1.5@60", "maj3", 2, 0)
@example("1.5@60", "maj3", 1, 1)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_push_forward_bounds_the_literal_gluing_time(source, code, M, j):
    # the literal search over short segments may glue earlier than the
    # push-forward certificate, never later; and the certificate's gap
    # passes the check
    induced = _induced(source, code)
    w1 = induced.factor.code.window - 1
    tau, note = induced.gluing_time(M, j, 12)
    event("not established" if tau is None else "established")
    if tau is None:
        return
    assert note.startswith(f"push-forward of source level {M + w1} at depth {j}:")
    level = induced.level_collection(M)
    try:
        literal = min_gluing_time(induced.factor, level, j=j, tau_max=tau,
                                  lengths=SEARCH_LENGTHS)
        report = literal.reports[-1] if literal.tau == tau else check_specification(
            induced.factor, level, j, tau, lengths=SEARCH_LENGTHS)
    except HorizonError:
        event("search meets the marker")
        return
    if literal.reports[-1].exhaustive:
        assert literal.found and literal.tau <= tau
    if report.exhaustive:
        assert report.passed


def test_push_forward_notes_name_image_gaps_and_source_reasons():
    induced = _induced("1.5@60", "maj3")
    assert induced.gluing_time(2, 0, 8) == (
        8, "push-forward of source level 4 at depth 0: gap 6 + 2; "
        "all lengths, any number of segments"
    )
    # the source gap 6 passes any source cap; the image gap 8 is too large
    assert induced.gluing_time(2, 0, 7) == (
        None, "push-forward gap 8 exceeds --tau-max + window 7"
    )
    short = BetaSystem.from_beta("3/2", horizon=5)
    induced = induced_decomposition(short, BlockCode.xor(), beta_decomposition(short))
    assert induced.gluing_time(2, 2, 12) == (
        None, "source level 3 at depth 2 reaches the truncation marker"
    )


def test_push_forward_of_a_searched_source_gap(golden):
    # the degenerate source searches its level with the cap 6 - (2 - 1)
    # and the image gap is its gap plus one, no less than the image's
    # literal search
    induced = induced_decomposition(golden, BlockCode.xor(),
                                    degenerate_decomposition(golden))
    tau, note = induced.gluing_time(0, 0, 6)
    assert note.startswith("push-forward of source level 1 at depth 0:")
    # the note claims the source's coverage: a literal search over short
    # lengths, not every length
    assert note.endswith("; literal search: 2 segments, lengths [1, 2, 3, 4]")
    assert "all lengths" not in note
    literal = min_gluing_time(induced.factor, induced.level_collection(0), j=0,
                              tau_max=6, lengths=SEARCH_LENGTHS)
    assert literal.reports[-1].exhaustive and literal.tau <= tau


def test_code_file_roundtrip(tmp_path):
    code = BlockCode.xor()
    path = tmp_path / "xor.code"
    code.to_file(path)
    back = BlockCode.from_file(path)
    assert back.window == 2 and back.rule == code.rule


def test_code_file_errors(tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("0 0\n")
    with pytest.raises(InputError):
        BlockCode.from_file(bad)
    empty = tmp_path / "empty.code"
    empty.write_text("# nothing\n")
    with pytest.raises(InputError):
        BlockCode.from_file(empty)


class TestTruncatedSource:
    """The image and the pair automaton of a truncated source raise where
    the source does, instead of dropping the configurations at its marker."""

    @pytest.fixture(scope="class")
    def short(self):
        # 3/2 with five stored digits: the marker is reached at length 5
        return BetaSystem.from_beta("3/2", horizon=5)

    def test_image_counts_stop_with_the_source(self, short):
        image = FactorSystem(short, BlockCode.identity(2))
        assert image.count_language(5) == short.count_language(5) == 12
        with pytest.raises(HorizonError):
            short.count_language(6)
        with pytest.raises(HorizonError):
            image.count_language(6)

    def test_pair_counts_stop_at_the_horizon(self, short):
        pair = build_pair_automaton(short, BlockCode.identity(2))
        assert pair.count_words(5) == 12
        with pytest.raises(HorizonError):
            pair.count_words(8)

    def test_preimages_past_the_marker_raise(self, short):
        image = FactorSystem(short, BlockCode.identity(2))
        assert image.preimages(short.expansion_prefix(5)) == [
            short.expansion_prefix(5)
        ]
        with pytest.raises(HorizonError):
            image.preimages(short.expansion_prefix(5) + (0, 0))


def test_image_count_cap(golden):
    image = FactorSystem(golden, BlockCode.identity(2))
    with pytest.raises(InputError, match="count cap"):
        image.count_language(MATRIX_POWER_CAP + 1)
