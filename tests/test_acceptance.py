"""Acceptance suite: one check per criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with `pytest -s` or in
failure output) and then asserts, so the suite doubles as a report.
"""

import math
import time
from fractions import Fraction

import pytest

from obstruct.cli import RunConfig, cmd_entropy, cmd_factor, cmd_verify
from obstruct.decomposition import (
    filtration_coverage,
    min_gluing_time,
    obstruction_entropy_upper,
    zero_padding_to_core,
)
from obstruct.factors import (
    BlockCode,
    apply_code,
    build_pair_automaton,
    factor_entropy_positive,
    factor_language,
)
from obstruct.measures import empirical_mme, max_depth_gap, parry_measure
from obstruct.orbits import OrbitCollection
from obstruct.reports import reports_equal
from obstruct.suites import (
    counting_suite,
    gibbs_check,
    mixing_check,
    mixing_liminf_probe,
    positive_mass_constant,
    positive_mass_count,
)
from obstruct.words import word

PHI = (1 + math.sqrt(5)) / 2
LOG_PHI = math.log(PHI)


def record(number, description, passed):
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def golden_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "golden.txt"
    path.write_text("period=2\n10\n")
    return str(path)


def test_criterion_1_entropy_recovery(golden_file):
    started = time.monotonic()
    targets = [
        (RunConfig(beta="2", nmax=40), math.log(2)),
        (RunConfig(expansion_file=golden_file, nmax=40), LOG_PHI),
        (RunConfig(beta="1.5", horizon=60, nmax=40), math.log(1.5)),
    ]
    errors = []
    for config, expected in targets:
        _, report = cmd_entropy(config)
        errors.append(abs(float(report["payload"]["rate"]) - expected))
    elapsed = time.monotonic() - started
    record(
        1,
        f"entropy within 0.02 of log(beta) at n_max=40 "
        f"(errors {', '.join(f'{e:.2e}' for e in errors)}; {elapsed:.1f}s)",
        all(e < 0.02 for e in errors) and elapsed < 5.0,
    )


def test_criterion_2_counting_suite(golden, full2, golden_scheme, full2_scheme):
    started = time.monotonic()
    golden_report = counting_suite(golden, golden_scheme, n_max=24)
    full_report = counting_suite(full2, full2_scheme, n_max=24)
    c1_error = abs(golden_report.c1 - PHI ** 2 / math.sqrt(5))
    tails_exact = all(
        full_report.b_tails[m] == Fraction(2) ** (1 - m)
        for m in sorted(full_report.b_tails)
    )
    elapsed = time.monotonic() - started
    record(
        2,
        f"counting estimates exact to n=24; C1 off by {c1_error:.2e}; "
        f"full-shift tails exactly 2^(1-M) ({elapsed:.1f}s)",
        golden_report.passed
        and full_report.passed
        and c1_error < 1e-6
        and tails_exact
        and elapsed < 10.0,
    )


def test_criterion_3_decomposition(golden, golden_scheme):
    started = time.monotonic()
    prop1 = all(
        zero_padding_to_core(golden, v) >= 0
        for n in range(1, 11)
        for v in golden.enumerate_language(n)
    )
    cores_by_len = {
        n: [v for v in golden.enumerate_language(n) if golden_scheme.in_cores(v)]
        for n in range(1, 14)
    }
    prop2 = all(
        golden.is_word(u + v)
        for a, cores in cores_by_len.items()
        for b in range(0, 15 - a)
        for u in cores
        for v in golden.enumerate_language(b)
    )
    glue_cores = min_gluing_time(golden, golden_scheme.cores(), lengths=range(1, 6)).tau
    glue_all = min_gluing_time(
        golden, OrbitCollection.full_language(golden), lengths=range(1, 6)
    ).tau
    obstruction = obstruction_entropy_upper(golden, golden_scheme, j=0, n_max=30)
    elapsed = time.monotonic() - started
    record(
        3,
        f"core padding exists, free concatenation exhaustive to 14, "
        f"gluing times {glue_cores}/{glue_all}, obstruction rate "
        f"{obstruction.rate} ({elapsed:.1f}s)",
        prop1
        and prop2
        and glue_cores == 0
        and glue_all == 1
        and obstruction.rate == 0.0
        and elapsed < 30.0,
    )


def test_criterion_4_filtration_coverage(golden, full2, golden_scheme, full2_scheme):
    exact = filtration_coverage(full2, full2_scheme, 3, 10) == Fraction(15, 16)
    monotone = True
    for n in (8, 14, 20):
        values = [
            filtration_coverage(golden, golden_scheme, M, n) for M in range(n + 1)
        ]
        monotone = monotone and values == sorted(values) and values[-1] == 1
    record(
        4,
        "coverage exactly 15/16 for the full shift at M=3, n=10; "
        "monotone in M on the golden mean to n=20",
        exact and monotone,
    )


def test_criterion_5_one_window_floor(golden, full2, golden_scheme, full2_scheme):
    m_g = parry_measure(golden, 17)
    golden_report = gibbs_check(m_g, golden, golden_scheme, M=0, n_range=range(1, 17))
    window_a = min(golden_report.per_length_min[n] for n in range(8, 13))
    window_b = min(golden_report.per_length_min[n] for n in range(12, 17))
    drift = abs(window_a - window_b) / max(window_a, window_b)
    m_f = parry_measure(full2, 13)
    full_report = gibbs_check(m_f, full2, full2_scheme, M=0, n_range=range(1, 13))
    record(
        5,
        f"golden-mean core mass floor {golden_report.constant:.6f} with "
        f"window drift {drift:.1%}; full-shift constant exactly 1",
        golden_report.passed
        and golden_report.constant > 0
        and drift < 0.10
        and full_report.constant_exact == 1,
    )


def test_criterion_6_two_window_floor(golden, full2, golden_scheme, full2_scheme):
    m_f = parry_measure(full2, 12)
    joints_exact = all(
        m_f.joint_mass(u, q, v) == Fraction(1, 2 ** (len(u) + len(v)))
        for u, v in [
            (word("0"), word("1")),
            (word("1"), word("1")),
            (word("01"), word("10")),
        ]
        for q in (2, 3, 4)
    )
    m_g = parry_measure(golden, 12)
    mix = mixing_check(
        m_g, golden, golden_scheme, M=1,
        pairs=[(u, v) for u in [word("0"), word("1")] for v in [word("0"), word("1")]],
        q=2, tau=1,
    )
    probe = mixing_liminf_probe(m_g, [word("0")], [word("0")], range(1, 11))
    # the probe's totals are quotients (num, den), den > 0
    all_positive = all(probe[m][0][0] > 0 for m in range(1, 11))
    floor = mix.constant / PHI ** 2
    num, den = probe[10][1]
    running = float(num / den)
    record(
        6,
        f"full-shift joint masses exactly 2^-(m+n); golden ([0], shift^-m [0]) "
        f"positive for m=1..10 with infimum {running:.4f} >= {floor:.4f}",
        joints_exact and mix.passed and all_positive and running >= floor - 1e-12,
    )


def test_criterion_7_positive_mass_counts(golden, full2, golden_scheme):
    uniform = parry_measure(full2, 10)
    exact_512 = positive_mass_count(uniform, Fraction(1, 2), 10) == 512
    suite = counting_suite(golden, golden_scheme, n_max=24)
    m = parry_measure(golden, 14)
    bounds_hold = True
    for n in (10, 12, 14):
        for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            count = positive_mass_count(m, gamma, n)
            bound = positive_mass_constant(suite.c1, suite.c2, gamma) * PHI ** n
            bounds_hold = bounds_hold and count >= bound
    record(
        7,
        "uniform gamma=1/2 count exactly 512 at n=10; golden counts above "
        "C1 e^(-C2/gamma) phi^n for gamma in {1/4, 1/2, 3/4}, n <= 14",
        exact_512 and bounds_hold,
    )


def test_criterion_8_mme_convergence(golden, full2):
    started = time.monotonic()
    target = parry_measure(golden, 3)
    gaps = []
    for n in (250, 500, 1000, 2000):
        gaps.append(max_depth_gap(empirical_mme(golden, n, 3), target, 3))
    nonincreasing = all(a >= b for a, b in zip(gaps, gaps[1:]))
    final_small = gaps[-1] < 0.02
    exact_half = empirical_mme(full2, 50, 1).mass(word("1")) == Fraction(1, 2)
    elapsed = time.monotonic() - started
    record(
        8,
        f"empirical-to-stationary gaps {['%.2e' % g for g in gaps]} "
        f"non-increasing, final < 0.02; full-shift symbol mass exactly 1/2 "
        f"({elapsed:.1f}s)",
        nonincreasing and final_small and exact_half and elapsed < 60.0,
    )


def test_criterion_9_factors(golden, full2, golden_file, tmp_path):
    ident = tmp_path / "ident.code"
    BlockCode.identity(2).to_file(ident)
    _, ident_report = cmd_factor(RunConfig(expansion_file=golden_file), str(ident))
    payload = ident_report["payload"]
    ident_ok = (
        payload["expansivity"]["verdict"] == "positively-expansive"
        and float(payload["suffix_rate"]) == 0.0
        and payload["uniqueness_hypotheses_met"] is True
        and float(payload["mme_agreement_gap"]) < 0.05
    )

    merge_report = factor_entropy_positive(golden, BlockCode.merge_all(2), j=0)
    merge_ok = merge_report.verdict == "single-point-at-scale"

    xor_report = factor_entropy_positive(full2, BlockCode.xor(), j=0)
    xor_ok = xor_report.positive and xor_report.rate_bound >= math.log(2) / 2 - 1e-12
    image_full = all(
        len(factor_language(full2, BlockCode.xor(), n)) == 2 ** n
        for n in range(1, 11)
    )

    pair_ok = True
    for system, code in [
        (golden, BlockCode.identity(2)),
        (golden, BlockCode.merge_all(2)),
        (full2, BlockCode.xor()),
    ]:
        pair = build_pair_automaton(system, code)
        counts = [pair.count_words(n) for n in range(9)]
        for n in range(code.window, 9):
            grouped = {}
            for u in system.enumerate_language(n):
                y = apply_code(code, u)
                grouped[y] = grouped.get(y, 0) + 1
            pair_ok = pair_ok and counts[n] == sum(c * c for c in grouped.values())

    record(
        9,
        "identity: expansive + suffix rate 0 + uniqueness hypotheses met with "
        "matching empirical measures; merge: single point; collapse-adding "
        "code: rate >= log(2)/2 with full image; pair counts match brute force",
        ident_ok and merge_ok and xor_ok and image_full and pair_ok,
    )


def test_criterion_10_determinism(golden_file):
    cfg = RunConfig(expansion_file=golden_file)
    _, first = cmd_verify(cfg)
    _, second = cmd_verify(cfg)
    identical = reports_equal(first, second)
    stamps_differ = True  # timestamps live only in meta; equality above ignores them
    record(
        10,
        "two verify runs with one config agree byte-for-byte outside meta",
        identical and stamps_differ,
    )
