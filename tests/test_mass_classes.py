"""The measure checks on the Parry measure's mass classes, against the
same checks on the classes of its listed cylinder table and against
per-word oracles, on the benchmark systems, on factor images and on
random primitive presentations."""

import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from obstruct.automata import Presentation, PresentedShift
from obstruct.beta import BetaSystem
from obstruct.cli import EXIT_INPUT, EXIT_PASS, main
from obstruct.decomposition import (
    DecompositionScheme,
    beta_decomposition,
    degenerate_decomposition,
)
from obstruct.errors import DepthError, InputError, ObstructError
from obstruct.factors import BlockCode, FactorSystem, InducedDecomposition
from obstruct.measures import (
    MAX_TABLE_CYLINDERS,
    CylinderMeasure,
    MassClasses,
    empirical_mme,
    parry_measure,
)
from obstruct.perron import perron_eigendata
from obstruct.suites import (
    gibbs_check,
    mixing_check,
    positive_mass_count,
)
from test_measures import _maj3
from test_suites import _lower_bound, _probe_values

ULP = 2.0 ** -53

# name -> (system, measure depth)
BENCH = {
    "2": (lambda: BetaSystem.full_shift(2), 10),
    "golden": (BetaSystem.golden_mean, 12),
    "p5": (lambda: BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5), 8),
    "p9": (lambda: BetaSystem.from_expansion((1, 1, 0, 1, 0, 0, 1, 0, 0), period=9),
           10),
    "1.5@60": (lambda: BetaSystem.from_beta("1.5", horizon=60), 12),
    "1.8@60": (lambda: BetaSystem.from_beta("1.8", horizon=60), 10),
    "2.5@60": (lambda: BetaSystem.from_beta("2.5", horizon=60), 7),
}


def _listed(m):
    """The same measure as a plain cylinder table, with the classes of
    that table."""
    return CylinderMeasure(
        alphabet_size=m.alphabet_size, depth=m.depth, table=dict(m.table),
        provenance=m.provenance, exact=m.exact,
    )


@functools.lru_cache(maxsize=None)
def _bench(name):
    make, depth = BENCH[name]
    system = make()
    m = parry_measure(system, depth)
    return system, m, _listed(m)


class _GraphSystem(PresentedShift):
    """A shift given by a bare presentation, read through the protocol
    (its growth rate is the default Perron value)."""

    horizon = None

    def __init__(self, pres):
        self.presentation = pres
        self.alphabet_size = pres.alphabet_size


def _outcome(fn):
    try:
        return fn()
    except ObstructError as exc:
        return type(exc), str(exc)


def _exact_mass(measure, u):
    """The unrounded mass of [u]: its class weight times the exact scale
    of its length (0 off the table)."""
    k = measure.classes.class_of(u)
    return 0 if k is None else _class_mass(measure.classes, k, len(u))


@functools.lru_cache(maxsize=None)
def _class_mass(classes, k, n):
    num, den = classes.scales[n]
    return classes.weights[k] * num / Fraction(den)


def naive_gibbs(measure, system, scheme, M, n_range, j, growth=None):
    """The per-word Gibbs loop: each level-M word of each length, listed by
    `level_words`, with each of its depth-j tails, its exact mass scaled by
    growth^n (by default lo^n); (least value, its word, per-length minima,
    zero-mass words)."""
    lo = _lower_bound(system) if growth is None else growth
    tails = {}
    # (class, n) -> whether the class has mass <= 0; a word of a class met
    # before at its length ties an earlier word, so only the first is
    # scaled and compared
    zero = {}
    best, per_length, violations = None, {}, []
    for n in n_range:
        scale = lo ** n
        level_min = None
        for v in scheme.level_words(M, n):
            state = system.presentation.walk(v)
            if state not in tails:
                tails[state] = system.presentation.tails(state, j)
            for ext in tails[state]:
                if n + j > measure.depth:
                    raise DepthError(
                        f"cylinder depth {n + j} exceeds measure depth {measure.depth}"
                    )
                key = (measure.classes.class_of(v + ext), n)
                if key not in zero:
                    value = _exact_mass(measure, v + ext) * scale
                    zero[key] = value <= 0
                    if not zero[key] and (level_min is None or value < level_min[0]):
                        level_min = (value, v + ext)
                if zero[key]:
                    violations.append(v + ext)
        if level_min is not None:
            per_length[n] = float(level_min[0])
            if best is None or level_min[0] < best[0]:
                best = level_min
    if best is None:
        return 0, (), per_length, tuple(violations)
    return best[0], best[1], per_length, tuple(violations)


def _gibbs_fields(report):
    return (report.constant_exact, report.argmin, report.per_length_min,
            report.violations)


def _assert_gibbs_matches_oracle(measures, system, scheme, M, n_range, j):
    """Each measure's report against the oracle on its own exact masses
    (the classes' unrounded ones, or a listed table's rounded ones)."""
    for m in measures:
        want = _outcome(lambda: naive_gibbs(m, system, scheme, M, n_range, j))
        got = _outcome(lambda: _gibbs_fields(
            gibbs_check(m, system, scheme, M, n_range, j=j)
        ))
        assert got == want, (M, j, n_range)


def naive_positive_mass_count(m, gamma, n):
    """The greedy count over the exact masses of the length-n words, sorted
    by value and summed exactly, each divided by the scale S_n they share:
    their class weights, summed against gamma / S_n."""
    classes = m.classes
    num, den = classes.scales[n]
    gamma = Fraction(gamma) * den / num
    weights = sorted((classes.weights[classes.class_of(w)] for w in m.words_at(n)),
                     reverse=True)
    acc = 0
    for count, weight in enumerate(weights, start=1):
        acc += weight
        if acc >= gamma:
            return count
    return len(weights)


def _matching(listed, template):
    return sum(
        1 for w in listed.words_at(len(template))
        if all(t is None or t == a for t, a in zip(template, w))
    )


def _close(a, b, n_words):
    """A correctly rounded exact sum against the word-order float sum of n
    rounded masses: together at most n + 1 roundings of the mass apart."""
    return abs(float(a) - float(b)) <= (n_words + 2) * ULP * abs(float(a))


def _assert_pattern_masses_agree(m, listed, template):
    got, want = m.pattern_mass(template), listed.pattern_mass(template)
    if m.exact or want == 0:
        assert type(got) is type(want) and got == want, template
    else:
        assert type(got) is float, template
        assert _close(got, want, _matching(listed, template)), template


def _compare_checks(system, scheme, m, listed, data):
    M = data.draw(st.integers(0, 3), label="M")
    j = data.draw(st.integers(0, 2), label="j")
    top = data.draw(st.integers(0, max(0, m.depth - j)), label="n_top")
    _assert_gibbs_matches_oracle((m, listed), system, scheme, M, range(1, top + 1), j)

    n = data.draw(st.integers(0, m.depth), label="n")
    for gamma in data.draw(st.lists(
        st.fractions(0, 1, max_denominator=60).filter(lambda g: 0 < g < 1)
        | st.floats(0.01, 0.99), min_size=1, max_size=3,
    ), label="gammas"):
        for measure in (m, listed):
            assert positive_mass_count(measure, gamma, n) == naive_positive_mass_count(
                measure, gamma, n
            )

    symbols = st.one_of(st.none(), st.integers(0, m.alphabet_size - 1))
    for _ in range(3):
        template = data.draw(st.lists(symbols, max_size=m.depth), label="template")
        _assert_pattern_masses_agree(m, listed, template)

    level = _outcome(lambda: scheme.level_words(M, 1))
    if m.depth >= 2 and isinstance(level, list):
        pairs = [(u, v) for u in level for v in level]
        q = data.draw(st.integers(0, m.depth - 2), label="q")
        a = mixing_check(m, system, scheme, M, pairs, q)
        b = mixing_check(listed, system, scheme, M, pairs, q)
        if m.exact:
            assert a == b
        else:
            # the listed table sums its rounded masses exactly, the classes
            # their unrounded ones: at most one rounding per word apart
            n_words = max((_matching(listed, u + (None,) * q + v) for u, v in pairs),
                          default=0)
            assert a.violations == b.violations
            assert math.isclose(a.constant, b.constant, rel_tol=(n_words + 4) * ULP)
    words = [(a,) for a in range(m.alphabet_size)]
    gaps = range(1, m.depth)
    u = data.draw(st.sampled_from(words), label="u")
    v = data.draw(st.sampled_from(words), label="v")
    a = _probe_values(m, [u], [v], gaps)
    b = _probe_values(listed, [u], [v], gaps)
    if m.exact:
        assert a == b
    else:
        for gap in gaps:
            n_words = _matching(listed, [u[0]] + [None] * (gap - 1) + [v[0]])
            got, want = a[gap][0], b[gap][0]
            assert _close(got, want, n_words) if want else got == 0


@given(st.sampled_from(sorted(BENCH)), st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_bench_systems_classes_match_listed_table(name, degenerate, data):
    system, m, listed = _bench(name)
    scheme = (degenerate_decomposition if degenerate else beta_decomposition)(system)
    _compare_checks(system, scheme, m, listed, data)


@st.composite
def primitive_presentations(draw):
    """A strongly connected aperiodic core (a cycle on symbol 0 and a loop
    on symbol 1 at state 0) with random further edges, some into a dead
    end or a truncation marker outside the essential part; the words that
    end there fall in no mass class and have mass 0."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(2, 3))
    dead, marker = n, n + 1
    edges = {(s, 0): (s + 1) % n for s in range(n)}
    edges[0, 1] = 0
    for s in range(n):
        for a in range(k):
            if (s, a) not in edges:
                t = draw(st.one_of(st.none(), st.integers(0, n + 1)))
                if t is not None:
                    edges[s, a] = t
    start = draw(st.integers(0, n - 1))
    return Presentation(
        n + 2, k, [(s, a, t) for (s, a), t in edges.items()], start=start, marker=marker
    )


class _TrailingOnes(DecompositionScheme):
    """Suffix piece: the trailing run of 1s.  It installs no level
    automaton, so `gibbs_check` runs on the generic, word-carrying one."""

    name = "trailing-ones"

    def suffix_length(self, v):
        s = 0
        while s < len(v) and v[len(v) - 1 - s] == 1:
            s += 1
        return s


@given(primitive_presentations(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_random_presentations_classes_match_listed_table(pres, generic, data):
    assert pres.is_primitive()
    system = _GraphSystem(pres)
    depth = data.draw(st.integers(0, 6), label="depth")
    m = _outcome(lambda: parry_measure(system, depth))
    assume(isinstance(m, CylinderMeasure))
    scheme = (_TrailingOnes if generic else degenerate_decomposition)(system)
    _compare_checks(system, scheme, m, _listed(m), data)


@pytest.mark.parametrize(
    "source, code",
    [(BetaSystem.golden_mean, BlockCode.xor),
     (lambda: BetaSystem.full_shift(2), _maj3)],
    ids=["xor(golden)", "maj3(full2)"],
)
def test_factor_images_match_per_word_oracle(source, code):
    # the induced scheme has no level automaton of its own: the generic one
    # carries each word, and the checks read the empirical table's classes
    system = source()
    image = FactorSystem(system, code())
    scheme = InducedDecomposition(image, beta_decomposition(system))
    m = empirical_mme(image, 40, 5)
    for M in (0, 1, 2):
        for j in (0, 1):
            _assert_gibbs_matches_oracle((m,), image, scheme, M, range(1, 6 - j), j)
    for n in range(m.depth + 1):
        masses = sorted((m.table[w] for w in m.words_at(n)), reverse=True)
        for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            acc, want = 0, len(masses)
            for count, mass in enumerate(masses, start=1):
                acc += mass
                if acc >= gamma:
                    want = count
                    break
            assert positive_mass_count(m, gamma, n) == want


def test_cylinder_count_without_listing(monkeypatch):
    monkeypatch.setattr(MassClasses, "table", None)
    system = BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5)
    m = parry_measure(system, 12)
    # the 110 407 cylinders the per-word pass listed
    assert len(m.table) == 110_407
    assert len(m.table) == sum(system.count_language(n) for n in range(13))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--expansion-file", "@p5", "--depth", "1", "--tau-max", "6"], EXIT_PASS),
        # gluing times the tuple search refused: the certificate gives them
        (["--beta", "2.5", "--horizon", "60", "--depth", "2"], EXIT_PASS),
        (["--beta", "3", "--depth", "2"], EXIT_PASS),
        (["--beta", "10", "--measure-depth", "6"], EXIT_PASS),
        (["--beta", "50"], EXIT_PASS),
    ],
    ids=["p5", "2.5@60", "3", "10", "50"],
)
def test_verify_lists_no_cylinder_table(argv, code, monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError("the cylinder table was listed")

    monkeypatch.setattr(MassClasses, "table", refuse)
    (tmp_path / "p5").write_text("period=5\n21001\n")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert main(["verify", *argv]) == code
    checks = json.loads(capsys.readouterr().out)["payload"]["checks"]
    floors = {c["name"]: c["passed"] for c in checks}
    assert floors["mass-floor"] and floors["positive-mass-count"]


def test_large_table_refused_before_listing():
    m = parry_measure(BetaSystem.full_shift(40), 4)
    assert len(m.table) == sum(40 ** n for n in range(5)) > MAX_TABLE_CYLINDERS
    assert m.mass((0, 1, 2)) == Fraction(1, 40 ** 3)
    with pytest.raises(ObstructError, match="exceeds the cap"):
        m.table[()]


@pytest.mark.parametrize("beta", ["1000", "200"])
def test_mme_over_budget_exits_at_once(beta, monkeypatch, capsys):
    # 1000 is over the alphabet cap; 200 lists 200^4 words at depth 4
    from obstruct.automata import Presentation as Pres

    def refuse(*args, **kwargs):
        raise AssertionError("a word was listed")

    monkeypatch.setattr(Pres, "enumerate_words", refuse)
    monkeypatch.setattr(Pres, "lex_min_tail", refuse)
    assert main(["mme", "--beta", beta]) == EXIT_INPUT
    assert "cap" in capsys.readouterr().err


def test_exact_masses_with_equal_floats_sort_exactly():
    # m0 < m1 round to the same float; descending order puts every m1 first,
    # so two words reach m0 + m1 (word order would take 2 m0 < m0 + m1 first)
    m0, m1 = Fraction(1, 7), Fraction(1, 7) + Fraction(1, 2 ** 70)
    assert float(m0) == float(m1)
    masses = {(0,): m0, (1,): m0, (2,): m1, (3,): m1, (4,): m1}
    m = CylinderMeasure(5, 1, {(): 1, **masses}, "test", exact=True)
    runs = m.classes.runs_descending(1)
    assert [(m.classes.weights[k], c) for k, c in runs] == [(m1, 3), (m0, 2)]
    assert positive_mass_count(m, m0 + m1, 1) == 2


@pytest.mark.parametrize("gamma", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
@pytest.mark.parametrize("make", [
    BetaSystem.golden_mean,  # exact quadratic masses
    lambda: BetaSystem.from_beta("1.5", horizon=60),  # integer Parry data
], ids=["golden", "1.5@60"])
def test_positive_mass_count_rounds_no_mass(make, gamma):
    # the count reads exact weights and scales, so it scales no weight
    m = parry_measure(make(), 10)
    classes = m.classes
    scaled = []
    scale = classes.scaled
    classes.scaled = lambda weight, n: scaled.append(weight) or scale(weight, n)
    count = positive_mass_count(m, gamma, 10)
    assert scaled == []
    assert count == naive_positive_mass_count(m, gamma, 10)


def test_verify_beta_50_5_passes_without_listing_the_table(monkeypatch, capsys):
    # beta 50.5 is truncated, with integer Parry data; its depth-10 layer
    # holds about 10^17 words, counted class by class, none listed
    def refuse(self):
        raise AssertionError("the cylinder table was listed")

    monkeypatch.setattr(MassClasses, "table", refuse)
    assert main(["verify", "--beta", "50.5"]) == EXIT_PASS
    checks = json.loads(capsys.readouterr().out)["payload"]["checks"]
    assert {c["name"]: c["passed"] for c in checks}["positive-mass-count"]


# -- each length's least mass, from the least class weight -----------------------


def _gibbs_against_oracle(measure, system, scheme, M, n_range, j):
    """gibbs_check, checked against the per-word oracle."""
    _assert_gibbs_matches_oracle((measure,), system, scheme, M, n_range, j)
    return gibbs_check(measure, system, scheme, M, n_range, j=j)


@pytest.mark.parametrize(
    "make, depth",
    [
        (lambda: BetaSystem.from_beta("1.5", horizon=60), 12),
        (lambda: BetaSystem.from_beta("2.5", horizon=60), 10),
        (BetaSystem.golden_mean, 12),
    ],
    ids=["1.5@60", "2.5@60", "golden"],
)
def test_least_mass_path_matches_every_scaled_word_mass(make, depth):
    # integer Parry data and exact quadratic ones: the least class weight
    # against every word's mass, scaled
    system = make()
    m = parry_measure(system, depth)
    scheme = beta_decomposition(system)
    for M in (0, 1, 2):
        for j in (0, 1):
            _gibbs_against_oracle(m, system, scheme, M, range(1, depth + 1 - j), j)


def test_least_mass_path_on_float_and_exact_tables():
    # a float table read from a file, on its truncated system; and an exact
    # table on the p5 system, whose beta is enclosed
    system = BetaSystem.from_beta("1.8", horizon=60)
    floats = CylinderMeasure.from_json_dict(parry_measure(system, 8).to_json_dict())
    assert not floats.exact
    p5 = BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5)
    exact = empirical_mme(p5, 60, 6)
    assert exact.exact and isinstance(p5.beta_value(), float)
    for sys_, m in ((system, floats), (p5, exact)):
        scheme = beta_decomposition(sys_)
        for M in (0, 1, 2):
            for j in (0, 1):
                _gibbs_against_oracle(m, sys_, scheme, M, range(1, 7 - j), j)


def _p5_table(masses, exact, longer=None):
    """A depth-1 table on the p5 system's three symbols (depth 2 with
    `longer`, a map of two-symbol words to their masses)."""
    table = {(): 1, **{(a,): m for a, m in enumerate(masses)}, **(longer or {})}
    return CylinderMeasure(3, 2 if longer else 1, table, "test", exact=exact)


def _p5_and_scheme():
    system = BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5)
    return system, beta_decomposition(system)


def _least_at_length_1(m):
    return _gibbs_against_oracle(m, *_p5_and_scheme(), 2, range(1, 2), 0)


def _scaled_at_length_1(m):
    return {k for k, n in m.classes._masses if n == 1}


def test_weights_apart_whose_floats_tie_report_the_least_weight():
    lo = _lower_bound(_p5_and_scheme()[0])
    # floats one ulp apart whose products with lo round to one float
    low = 0.45
    while float(Fraction(low) * lo) != float(Fraction(math.nextafter(low, 1)) * lo):
        low = math.nextafter(low, 1)
    high = math.nextafter(low, 1)
    report = _least_at_length_1(_p5_table([high, low, 0.5], exact=False))
    assert report.argmin == (1,) and report.constant_exact == Fraction(low) * lo
    assert report.constant == float(Fraction(high) * lo)
    # exact masses whose floats tie
    low = Fraction(1, 3)
    high = low + Fraction(1, 2 ** 70)
    assert float(high) == float(low)
    report = _least_at_length_1(_p5_table([high, low, 2 * low], exact=True))
    assert report.argmin == (1,) and report.constant_exact == low * lo
    # equal weights of two classes (their children differ) tie: the least word
    m = _p5_table([low, low, 2 * low], exact=True,
                  longer={(0, 0): Fraction(1, 7), (1, 0): Fraction(1, 11)})
    assert m.classes.class_of((0,)) != m.classes.class_of((1,))
    assert _least_at_length_1(m).argmin == (0,)


def test_least_mass_path_scales_no_class():
    m = _p5_table([0.25, 0.2, 0.5], exact=False)
    assert gibbs_check(m, *_p5_and_scheme(), 2, range(1, 2)).argmin == (1,)
    assert _scaled_at_length_1(m) == set()


@pytest.mark.parametrize(
    "masses, exact",
    [([1e-310, 2e-310, 0.5], False), ([Fraction(1, 10 ** 400), Fraction(1, 3), 0], True)],
    ids=["subnormal", "exact-underflow"],
)
def test_least_mass_that_underflows_passes(masses, exact):
    system = _p5_and_scheme()[0]
    report = _least_at_length_1(_p5_table(masses, exact))
    assert report.argmin == (0,)
    assert report.constant_exact == Fraction(masses[0]) * _lower_bound(system)
    if exact:
        # (0,)'s scaled mass rounds to 0.0 but is positive: only (2,), of
        # mass 0, is a violation
        assert report.constant == 0.0 and report.violations == ((2,),)
    else:
        assert report.constant > 0 and report.passed


# -- the class walks against the word-carrying walk ------------------------------


def _carrying_extend(layer, moves):
    """The layer one symbol longer, each state with its word count and least
    word: the first word to reach a state is its least one, as the layer
    lists its states in increasing order of their least words."""
    out = {}
    for state, (count, word) in layer.items():
        for a, nxt in moves(state):
            entry = out.get(nxt)
            if entry is None:
                out[nxt] = (count, word + (a,))
            else:
                out[nxt] = (entry[0] + count, entry[1])
    return out


def _carrying_parry(system, depth):
    """The Parry classes by weight vector, each layer carrying every class's
    word count and least word: (layers, weights, children)."""
    live = system.presentation.essential_part()
    eigen = perron_eigendata(live)
    numbers, vectors, children = {}, [], {}

    def number(v):
        if v not in numbers:
            numbers[v] = len(vectors)
            vectors.append(v)
        return numbers[v]

    def moves(k):
        if k not in children:
            step = {}
            for s, w in vectors[k]:
                for a, t in live.moves(s):
                    child = step.setdefault(a, {})
                    child[t] = child[t] + w if t in child else w
            children[k] = {a: number(tuple(sorted(step[a].items())))
                           for a in sorted(step)}
        return children[k].items()

    layers = [{number(tuple(enumerate(eigen.left))): (1, ())}]
    for _ in range(depth):
        layers.append(_carrying_extend(layers[-1], moves))
    weights = [sum(w * eigen.right[t] for t, w in v) for v in vectors]
    return layers, weights, [children.get(k, {}) for k in range(len(vectors))]


def _carrying_gibbs(measure, system, scheme, M, n_range, j):
    """The mass floor along (level state, class) groups that carry their
    least words: (least value, its word, per-length minima, zero-mass
    words), as `naive_gibbs` returns them."""
    lo = _lower_bound(system)
    classes = measure.classes
    start, level_moves, member = scheme.level_automaton(M)

    def moves(group):
        state, k = group
        kids = {} if k is None else classes.children[k]
        return [(a, (after, kids.get(a))) for a, after in level_moves(state)]

    layers = [{(start, classes.root): (1, ())}]
    best, per_length, violations = None, {}, []
    for n in n_range:
        while len(layers) <= n:
            layers.append(_carrying_extend(layers[-1], moves))
        level = {g: e for g, e in layers[n].items() if member(g[0], n)}
        for _ in range(j):
            level = _carrying_extend(level, moves)
        level_min, zero = None, set()
        for (_, k), (_, w) in level.items():
            if k is None or classes.weights[k] <= 0:
                zero.add(k)
                continue
            value = _class_mass(classes, k, n + j) * lo ** n
            if level_min is None or value < level_min[0]:
                level_min = (value, w)
        if level_min is not None:
            per_length[n] = float(level_min[0])
            if best is None or level_min[0] < best[0]:
                best = level_min
        if zero:
            pres = system.presentation
            violations.extend(
                v + ext
                for v in scheme.level_words(M, n)
                for ext in pres.tails(pres.walk(v), j)
                if classes.class_of(v + ext) in zero
            )
    if best is None:
        return 0, (), per_length, tuple(violations)
    return best[0], best[1], per_length, tuple(violations)


@st.composite
def _expansion_systems(draw):
    """A periodic or preperiodic expansion of 1, or a truncated rational
    beta, with its kind."""
    kind = draw(st.sampled_from(["periodic", "preperiodic", "truncated"]))
    if kind == "truncated":
        q = draw(st.integers(2, 7))
        beta = Fraction(draw(st.integers(q + 1, 3 * q)), q)
        assume(beta.denominator > 1)
        return kind, BetaSystem.from_beta(beta, horizon=draw(st.integers(10, 40)))
    # an expansion of 1 starts with a nonzero digit
    digits = [draw(st.integers(1, 3))] + draw(st.lists(st.integers(0, 3), min_size=1,
                                                       max_size=5))
    period = len(digits) if kind == "periodic" else draw(st.integers(1, len(digits) - 1))
    try:
        return kind, BetaSystem.from_expansion(digits, period=period)
    except InputError:
        assume(False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_expansion_systems(), st.booleans(), st.integers(1, 6), st.integers(0, 2),
       st.integers(0, 3))
def test_class_walks_match_the_word_carrying_walk(case, degenerate, n_top, j, M):
    # the Parry layers keep word counts and gibbs_check keeps back-pointers;
    # the walk that carries each class's least word gives the same counts,
    # weights and report
    kind, system = case
    depth = n_top + j
    m = _outcome(lambda: parry_measure(system, depth))
    assume(isinstance(m, CylinderMeasure))
    classes = m.classes
    layers, weights, children = _carrying_parry(system, depth)
    assert [list(layer.items()) for layer in classes.layers] == [
        [(k, c) for k, (c, _) in layer.items()] for layer in layers
    ], kind
    assert classes.cylinders == sum(c for layer in layers for c, _ in layer.values())
    assert classes.weights == weights
    assert classes.children == children

    scheme = (degenerate_decomposition if degenerate else beta_decomposition)(system)
    n_range = range(1, n_top + 1)
    want = _outcome(lambda: _carrying_gibbs(m, system, scheme, M, n_range, j))
    got = _outcome(lambda: _gibbs_fields(gibbs_check(m, system, scheme, M, n_range, j=j)))
    assert got == want, (kind, M, j)
