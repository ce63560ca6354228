import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from obstruct.automata import Presentation
from obstruct.beta import BetaSystem
from obstruct.errors import (
    DepthError,
    EnumerationCapError,
    HorizonError,
    InputError,
    NonMixingError,
)
from obstruct.factors import BlockCode, FactorSystem
from obstruct.measures import (
    CylinderMeasure,
    _tail_prefix,
    _verify_representative_tails,
    empirical_mme,
    max_depth_gap,
    measure_entropy_rate,
    parry_measure,
)
from obstruct.perron import POWER_DPS, perron_eigendata
from obstruct.quadratic import QuadraticNumber
from obstruct.suites import positive_mass_count
from obstruct.words import format_word, word
from test_automata import presentations

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def per_start_state_masses(system, depth):
    """Reference masses: for each word, a sum over start states s of
    pi_s r_t / (lam^|u| r_s), with 60-digit arithmetic on float eigendata."""
    with mpmath.workdps(60):
        live = system.presentation.essential_part()
        eigen = perron_eigendata(live)
        lam, right = eigen.eigenvalue, eigen.right
        weights = [l * r for l, r in zip(eigen.left, right)]
        total = sum(weights[1:], weights[0])
        pi = [w / total for w in weights]
        table = {}
        for length in range(depth + 1):
            lam_pow = lam ** length
            for u in system.enumerate_language(length, cap=None):
                acc = None
                for s in range(live.n_states):
                    t = live.walk(u, state=s)
                    if t is None:
                        continue
                    term = pi[s] * right[t] / (lam_pow * right[s])
                    acc = term if acc is None else acc + term
                if acc is not None:
                    table[u] = acc if eigen.exact else float(acc)
    return table


def parry_reference(system, depth):
    """Reference Parry table: the depth-first pass in POWER_DPS-digit
    arithmetic, with v_u[t] and the sum over t rounded at every step and
    one float per cylinder (exact field elements for exact eigendata)."""
    live = system.presentation.essential_part()
    eigen = perron_eigendata(live, cache=system.perron_cache)
    lam, right = eigen.eigenvalue, eigen.right
    table = {}
    with mpmath.workdps(POWER_DPS):
        scale = [1 / sum(l * r for l, r in zip(eigen.left, right))]
        for _ in range(depth):
            scale.append(scale[-1] / lam)
        stack = [((), dict(enumerate(eigen.left)))]
        while stack:
            u, v = stack.pop()
            mass = sum(w * right[t] for t, w in v.items()) * scale[len(u)]
            table[u] = mass if eigen.exact else float(mass)
            if len(u) == depth:
                continue
            children = {}
            for s, w in v.items():
                for a, t in live.delta[s].items():
                    child = children.setdefault(a, {})
                    child[t] = child[t] + w if t in child else w
            stack.extend((u + (a,), child) for a, child in children.items())
    return table


def per_shift_empirical(system, n, depth):
    """Reference table: the direct sum over every shift k and state s,
    one walk and one extension count per (word, k, s).  Tail windows read
    the least tail through `_tail_prefix`, which raises HorizonError where
    the truncation marker leaves it undecided."""
    if depth > n:
        raise InputError("measure depth cannot exceed n")
    tails = _verify_representative_tails(system)
    pres = system.presentation
    total_words = system.count_language(n)
    state_counts = [pres.state_counts(k) for k in range(n + 1)]
    denom = n * total_words
    table = {}
    for length in range(depth + 1):
        for u in system.enumerate_language(length, cap=None):
            acc = 0
            for k in range(n):
                if k + length <= n:
                    for s, c in enumerate(state_counts[k]):
                        if not c:
                            continue
                        t = pres.walk(u, state=s)
                        if t is not None:
                            acc += c * pres.extensions_from(t, n - k - length)
                else:
                    head = n - k
                    for s, c in enumerate(state_counts[k]):
                        if not c:
                            continue
                        t = pres.walk(u[:head], state=s)
                        if t is None:
                            continue
                        if u[head:] == _tail_prefix(pres, tails, t, length - head):
                            acc += c
            table[u] = Fraction(acc, denom)
    return table


def _maj3():
    rule = {
        (a, b, c): int(a + b + c >= 2)
        for a in (0, 1) for b in (0, 1) for c in (0, 1)
    }
    return BlockCode(3, rule, 2)


ORACLE_SYSTEMS = {
    "golden": lambda: BetaSystem.golden_mean(),
    "full2": lambda: BetaSystem.full_shift(2),
    "full3": lambda: BetaSystem.full_shift(3),
    "p5": lambda: BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),
    "p9": lambda: BetaSystem.from_expansion(
        (1, 1, 0, 1, 0, 0, 1, 0, 0), period=9
    ),
    "preperiodic": lambda: BetaSystem.from_expansion((2, 1, 1, 0), period=2),
    "user-truncated": lambda: BetaSystem.from_expansion((2, 1, 0, 1)),
    "threehalf@20": lambda: BetaSystem.from_beta("1.5", horizon=20),
    "xor(golden)": lambda: FactorSystem(BetaSystem.golden_mean(), BlockCode.xor()),
    "maj3(full2)": lambda: FactorSystem(BetaSystem.full_shift(2), _maj3()),
}


# systems also checked at n = 300, where the window sums run deep
ORACLE_LONG = {"golden", "maj3(full2)"}


def _outcome(fn):
    try:
        return fn()
    except (HorizonError, InputError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_empirical_matches_per_shift_oracle(name):
    # fresh systems per side, so neither side reads counts the other cached
    make = ORACLE_SYSTEMS[name]
    long_n = (300,) if name in ORACLE_LONG else ()
    for n in (1, 2, 3, 4, 19, 20, 21, 60) + long_n:
        for depth in range(min(n, 4) + 1):
            got = _outcome(lambda: empirical_mme(make(), n, depth).table)
            want = _outcome(lambda: per_shift_empirical(make(), n, depth))
            assert got == want, (name, n, depth)


class _PresentationSystem:
    """The part of a system that empirical_mme reads, over a bare presentation."""

    def __init__(self, pres):
        self.presentation = pres
        self.alphabet_size = pres.alphabet_size

    def count_language(self, n):
        return self.presentation.count_words(n)

    def enumerate_language(self, n, cap=None):
        return self.presentation.enumerate_words(n, cap)


@given(presentations(), st.data())
@settings(max_examples=300, deadline=None)
def test_empirical_matches_per_shift_oracle_on_random_presentations(pres, data):
    # markers, dead ends, parallel edges, and start states that do not
    # reach (or read the words of) every state
    start = data.draw(st.integers(0, pres.n_states - 1))
    n = data.draw(st.integers(1, 14))
    depth = data.draw(st.integers(0, min(n, 4)))

    def make():
        return _PresentationSystem(Presentation(
            pres.n_states, pres.alphabet_size, list(pres.edges()),
            start=start, marker=pres.marker,
        ))

    got = _outcome(lambda: empirical_mme(make(), n, depth).table)
    assert got == _outcome(lambda: per_shift_empirical(make(), n, depth))
    # only a dead end that the start reaches stops an example
    reached, stack = {start}, [start]
    while stack:
        for t in pres.delta[stack.pop()].values():
            if t not in reached:
                reached.add(t)
                stack.append(t)
    dead_end = any(not pres.delta[s] and s != pres.marker for s in reached)
    assert (isinstance(got, tuple) and got[0] is InputError) == dead_end


def test_unreachable_dead_end_leaves_the_measure_defined():
    # state 1 has no continuation, but no representative point reaches it
    system = _PresentationSystem(Presentation(2, 1, [(0, 0, 0)]))
    m = empirical_mme(system, 5, 3)
    assert m.table == {(0,) * k: 1 for k in range(4)}


def test_reachable_dead_end_is_refused():
    system = _PresentationSystem(Presentation(2, 2, [(0, 0, 0), (0, 1, 1)]))
    with pytest.raises(InputError, match="state 1 admits no continuation"):
        empirical_mme(system, 5, 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BetaSystem.from_beta("1.5", horizon=20),
        lambda: BetaSystem.from_expansion((2, 1, 0, 1)),
        lambda: BetaSystem.from_beta("1.8", horizon=40),
    ],
    ids=["threehalf@20", "user-truncated", "ninefifths@40"],
)
def test_truncated_empirical_masses_sum_to_one_or_raise(make):
    # a tail window whose least tail would run into the truncation marker
    # raises; before, it was dropped and a length's masses summed below 1
    raised = summed = 0
    for n in (1, 2, 3, 4, 5, 10, 18, 19, 20, 21, 35, 39, 40, 41):
        try:
            m = empirical_mme(make(), n, min(n, 4))
        except HorizonError:
            raised += 1
            continue
        summed += 1
        for length in range(m.depth + 1):
            assert sum(m.table[w] for w in m.words_at(length)) == 1, (n, length)
    assert raised and summed


class TestEmpirical:
    def test_full_shift_symbol_mass_exact(self, full2):
        m = empirical_mme(full2, 50, 3)
        assert m.mass(word("1")) == Fraction(1, 2)
        assert m.mass(word("0")) == Fraction(1, 2)

    def test_normalization_at_depth_zero(self, golden):
        m = empirical_mme(golden, 20, 0)
        assert m.mass(()) == 1

    def test_per_length_sums_are_one(self, golden):
        m = empirical_mme(golden, 60, 4)
        for length in range(5):
            assert sum(m.table[w] for w in m.words_at(length)) == 1

    def test_consistency_exact(self, golden):
        m = empirical_mme(golden, 40, 3)
        for length in range(3):
            for u in m.words_at(length):
                children = [
                    m.table[u + (a,)]
                    for a in range(golden.alphabet_size)
                    if u + (a,) in m.table
                ]
                assert sum(children) == m.table[u]

    def test_golden_tends_to_stationary(self, golden):
        m = empirical_mme(golden, 2000, 1)
        assert abs(m.mass_float(word("1")) - 0.2763932022500210) < 0.02

    def test_matches_brute_force_representatives(self, golden, full2):
        # independent oracle: list every representative point explicitly
        for system in (golden, full2):
            for n in (4, 6):
                depth = 3
                m = empirical_mme(system, n, depth)
                reps = [
                    v + (0,) * depth for v in system.enumerate_language(n)
                ]
                total = len(reps)
                for length in range(depth + 1):
                    for u in system.enumerate_language(length):
                        hits = sum(
                            1
                            for rep in reps
                            for k in range(n)
                            if rep[k : k + length] == u
                        )
                        assert m.mass(u) == Fraction(hits, n * total), (n, u)

    def test_depth_cannot_exceed_n(self, golden):
        with pytest.raises(InputError):
            empirical_mme(golden, 3, 5)


class TestParry:
    def test_full_shift_uniform(self, full2):
        m = parry_measure(full2, 8)
        for n in range(1, 9):
            for w in m.words_at(n):
                assert m.table[w] == Fraction(1, 2 ** n)

    def test_golden_symbol_masses(self, golden):
        m = parry_measure(golden, 3)
        assert m.mass_float(word("1")) == pytest.approx(0.2763932022500210, abs=1e-12)
        assert m.mass_float(word("0")) == pytest.approx(0.7236067977499789, abs=1e-12)
        assert m.exact

    def test_forbidden_word_mass_zero(self, golden):
        m = parry_measure(golden, 3)
        assert m.mass(word("11")) == 0

    def test_per_length_sums_exact(self, golden):
        m = parry_measure(golden, 10)
        for n in range(11):
            total = sum((m.table[w] for w in m.words_at(n)), Fraction(0))
            assert total == 1

    def test_shift_invariance_exact(self, golden):
        m = parry_measure(golden, 6)
        for n in range(1, 6):
            for u in m.words_at(n):
                left = sum(
                    (m.table.get((a,) + u, Fraction(0)) for a in range(2)),
                    Fraction(0),
                )
                assert left == m.table[u]

    def test_entropy_rate_near_log_beta(self, golden):
        m = parry_measure(golden, 14)
        assert abs(measure_entropy_rate(m, 14) - LOG_PHI) < 0.02

    def test_truncated_provenance(self, threehalf):
        m = parry_measure(threehalf, 4)
        assert m.provenance.startswith("parry-truncated")
        assert not m.exact
        # the real eigen-residual, and the gap to beta = 3/2 (about beta^-60)
        eigen = perron_eigendata(threehalf.presentation)
        with mpmath.workdps(60):
            gap = float(mpmath.mpf(3) / 2 - eigen.eigenvalue)
        assert 1e-13 < gap < 1e-10 and 0 < eigen.residual < 1e-60
        assert m.provenance == (
            f"parry-truncated(horizon=60, residual={eigen.residual:.3g}, "
            f"beta_gap={gap:.3g})"
        )
        total = sum(m.table[w] for w in m.words_at(4))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [Fraction(3, 2), Fraction(9, 5)])
    def test_float_masses_match_per_start_state_sum(self, beta):
        system = BetaSystem.from_beta(beta, horizon=60)
        m = parry_measure(system, 8)
        reference = per_start_state_masses(system, 8)
        assert list(m.table) and sorted(m.table) == sorted(reference)
        assert all(type(m.table[u]) is float for u in m.table)
        assert all(m.table[u] == reference[u] for u in reference)

    @pytest.mark.parametrize(
        "system",
        [
            BetaSystem.golden_mean(),
            BetaSystem.full_shift(2),
            BetaSystem.from_beta(1 + QuadraticNumber.sqrt(2)),
            BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5),
        ],
        ids=["golden", "full2", "silver", "p5"],
    )
    def test_masses_unchanged(self, system):
        m = parry_measure(system, 7)
        reference = per_start_state_masses(system, 7)
        assert sorted(m.table) == sorted(reference)
        for u, mass in reference.items():
            assert m.table[u] == mass and type(m.table[u]) is type(mass)

    @pytest.mark.parametrize(
        "make, depth",
        [
            (ORACLE_SYSTEMS["p5"], 12),
            (ORACLE_SYSTEMS["p9"], 12),
            (ORACLE_SYSTEMS["preperiodic"], 10),
            (lambda: BetaSystem.from_beta("1.5", horizon=60), 12),
            (lambda: BetaSystem.from_beta("1.8", horizon=60), 12),
            (lambda: BetaSystem.from_beta("2.5", horizon=60), 10),
            # the primitive images (maj3 of the full shift, xor of golden
            # are not)
            (lambda: FactorSystem(BetaSystem.golden_mean(), _maj3()), 10),
            (lambda: FactorSystem(BetaSystem.full_shift(2), BlockCode.xor()), 10),
            # long zero runs: r and l reach x^-(z+1), far below 2^-256, so
            # the fixed point must follow each vector's own exponent (an
            # absolute 2^-256 grid sends [2] to 0.0 here, and misrounds
            # [2 1] at z = 170)
            (lambda: BetaSystem.from_expansion((2,) + (0,) * 300 + (1,)), 4),
            (lambda: BetaSystem.from_expansion(
                (2,) + (0,) * 300 + (1,), period=302
            ), 4),
            (lambda: BetaSystem.from_expansion((2, 1) + (0,) * 170 + (1,)), 4),
        ],
        ids=["p5", "p9", "2110-period2", "1.5@60", "1.8@60", "2.5@60",
             "maj3(golden)", "xor(full2)", "2(0^300)1", "2(0^300)1-period302",
             "21(0^170)1"],
    )
    def test_masses_match_high_precision_pass(self, make, depth):
        # the fixed-point pass rounds once per cylinder; every float must
        # equal the 60-digit pass bit for bit
        system = make()
        got = parry_measure(system, depth).table
        want = parry_reference(system, depth)
        assert list(got) and got.keys() == want.keys()
        assert all(mass > 0 for mass in got.values())
        for u, mass in want.items():
            assert type(got[u]) is type(mass), u
            if isinstance(mass, float):
                assert got[u].hex() == mass.hex(), u
            else:
                assert got[u] == mass, u

    def test_errors_where_enumeration_fails(self):
        short = BetaSystem.from_beta(Fraction(3, 2), horizon=6)
        with pytest.raises(HorizonError):
            short.enumerate_language(8)
        with pytest.raises(HorizonError):
            parry_measure(short, 8)
        parry_measure(short, 6)
        capped = BetaSystem.golden_mean(enumeration_cap=5)
        with pytest.raises(EnumerationCapError):
            capped.enumerate_language(6)
        with pytest.raises(EnumerationCapError):
            parry_measure(capped, 6)

    def test_non_primitive_rejected(self, golden):
        collapsed = FactorSystem(golden, BlockCode.merge_all(2))
        with pytest.raises(NonMixingError):
            parry_measure(collapsed, 3)


class TestMeasureTable:
    def test_depth_errors(self, golden):
        m = parry_measure(golden, 4)
        with pytest.raises(DepthError):
            m.mass((0,) * 5)
        with pytest.raises(DepthError):
            m.joint_mass(word("0"), 4, word("0"))

    def test_joint_mass_matches_direct_sum(self, golden):
        m = parry_measure(golden, 8)
        direct = sum(
            m.table.get(word("0") + mid + word("0"), Fraction(0))
            for mid in [(a, b) for a in range(2) for b in range(2)]
        )
        assert m.joint_mass(word("0"), 2, word("0")) == direct

    def test_serialization_roundtrip_rational(self, full2):
        m = parry_measure(full2, 4)
        back = CylinderMeasure.from_json_dict(m.to_json_dict())
        assert back.depth == m.depth
        for w in m.words_at(3):
            assert back.mass(w) == m.mass(w)

    def test_serialization_quadratic_keeps_float(self, golden):
        m = parry_measure(golden, 3)
        back = CylinderMeasure.from_json_dict(m.to_json_dict())
        for w in m.words_at(3):
            assert back.mass_float(w) == pytest.approx(m.mass_float(w), abs=1e-15)

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            CylinderMeasure.from_json_dict({"bad": 1})
        with pytest.raises(InputError):
            CylinderMeasure.from_json_dict(
                {"depth": 1, "provenance": "x", "entries": [{"word": "0"}]}
            )


def test_empirical_approaches_stationary_on_preperiodic_system():
    # four-state presentation whose growth value is not quadratic, so the
    # oracle runs through the high-precision path
    from obstruct.beta import BetaSystem

    system = BetaSystem.from_expansion((2, 1, 1, 0), period=2)
    oracle = parry_measure(system, 2)
    emp = empirical_mme(system, 1500, 2)
    assert max_depth_gap(emp, oracle, 2) < 0.01


def test_empirical_on_truncated_system(threehalf):
    m = empirical_mme(threehalf, 30, 2)
    for length in range(3):
        assert sum(m.table[w] for w in m.words_at(length)) == 1


def test_empirical_on_factor_system(golden):
    image = FactorSystem(golden, BlockCode.identity(2))
    a = empirical_mme(image, 120, 3)
    b = empirical_mme(golden, 120, 3)
    for w in b.words_at(3):
        assert a.mass(w) == b.mass(w)


def test_gap_helper(golden):
    p = parry_measure(golden, 3)
    e = empirical_mme(golden, 400, 3)
    gap = max_depth_gap(e, p, 3)
    assert 0 < gap < 0.01


@given(st.integers(min_value=20, max_value=60))
@settings(max_examples=10, deadline=None)
def test_empirical_mass_bounds(golden, n):
    m = empirical_mme(golden, n, 2)
    for w in m.words_at(2):
        assert 0 <= m.table[w] <= 1


# -- the per-length index against a scan of the whole table --------------------------


def naive_words_at(m, length):
    if length > m.depth:
        raise DepthError("too deep")
    return sorted(w for w in m.table if len(w) == length)


def naive_pattern_mass(m, template):
    total = 0
    for w in naive_words_at(m, len(template)):
        if all(t is None or t == a for t, a in zip(template, w)):
            total = total + m.table[w]
    return total


def naive_positive_mass_count(m, gamma, n):
    masses = sorted(
        (m.table[w] for w in naive_words_at(m, n)), key=float, reverse=True
    )
    acc = None
    for count, mass in enumerate(masses, start=1):
        acc = mass if acc is None else acc + mass
        if acc >= gamma:
            return count
    return len(masses)


_INDEX_MEASURES = {
    "golden": lambda: parry_measure(BetaSystem.golden_mean(), 6),
    "full2": lambda: parry_measure(BetaSystem.full_shift(2), 5),
    "p5": lambda: parry_measure(ORACLE_SYSTEMS["p5"](), 6),
    "2.5@20": lambda: parry_measure(BetaSystem.from_beta("2.5", horizon=20), 5),
    "empirical": lambda: empirical_mme(ORACLE_SYSTEMS["p5"](), 30, 4),
}


@st.composite
def _json_measures(draw):
    """A loaded measure that need not be prefix-closed, with Fraction and
    float masses mixed."""
    depth = draw(st.integers(0, 4))
    words = draw(st.sets(
        st.lists(st.integers(0, 2), max_size=depth).map(tuple), max_size=30
    )) | {()}
    entries = []
    for w in sorted(words):
        entry = {"word": format_word(w, 3)}
        if draw(st.booleans()):
            entry["mass_num"] = str(draw(st.integers(0, 20)))
            entry["mass_den"] = str(draw(st.integers(1, 20)))
        else:
            entry["mass_float"] = repr(draw(st.floats(0, 1)))
        entries.append(entry)
    return CylinderMeasure.from_json_dict({
        "depth": depth, "alphabet_size": 3, "provenance": "test",
        "entries": entries,
    })


@functools.lru_cache(maxsize=None)
def _index_measure(name):
    return _INDEX_MEASURES[name]()


_MEASURES = st.one_of(
    st.sampled_from(sorted(_INDEX_MEASURES)).map(_index_measure),
    _json_measures(),
)


def _same(a, b):
    return type(a) is type(b) and a == b


@given(_MEASURES, st.data())
@settings(max_examples=150, deadline=None)
def test_indexed_queries_match_table_scan(m, data):
    for length in range(m.depth + 2):
        want = _outcome_depth(lambda: naive_words_at(m, length))
        assert _outcome_depth(lambda: m.words_at(length)) == want
    symbols = st.one_of(st.none(), st.integers(0, m.alphabet_size - 1))
    for _ in range(4):
        template = data.draw(st.lists(symbols, max_size=m.depth + 1))
        want = _outcome_depth(lambda: naive_pattern_mass(m, template))
        got = _outcome_depth(lambda: m.pattern_mass(template))
        assert _same(got, want), template
    u = data.draw(st.lists(st.integers(0, 1), max_size=2).map(tuple))
    v = data.draw(st.lists(st.integers(0, 1), max_size=2).map(tuple))
    gap = data.draw(st.integers(0, 3))
    want = _outcome_depth(lambda: naive_pattern_mass(m, u + (None,) * gap + v))
    assert _same(_outcome_depth(lambda: m.joint_mass(u, gap, v)), want)
    n = data.draw(st.integers(0, m.depth))
    for gamma in data.draw(st.lists(
        st.fractions(0, 1, max_denominator=50).filter(lambda g: 0 < g < 1),
        min_size=1, max_size=3,
    )):
        assert positive_mass_count(m, gamma, n) == naive_positive_mass_count(
            m, gamma, n
        )


def _outcome_depth(fn):
    try:
        return fn()
    except DepthError:
        return DepthError
