import builtins
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from obstruct import automata
from obstruct.automata import MAX_CHECKPOINTS, Presentation
from obstruct.beta import BetaSystem
from obstruct.errors import EnumerationCapError, HorizonError
from obstruct.factors import BlockCode, FactorSystem, PairAutomaton


def _mat_mul(a, b):
    n = len(a)
    return [
        [int(any(a[i][k] and b[k][j] for k in range(n))) for j in range(n)]
        for i in range(n)
    ]


def _mat_pow(a, e):
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = _mat_mul(out, a)
    return out


def _reach(n, arcs, s):
    """Nodes reachable from s by a path with at least one edge."""
    seen, stack = set(), [s]
    while stack:
        u = stack.pop()
        for v in (v for (x, v) in arcs if x == u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


digraphs = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    )
)


@given(digraphs)
@settings(max_examples=300, deadline=None)
def test_is_primitive_matches_wielandt(graph):
    n, arcs = graph
    # label each edge by its target, so the presentation is deterministic
    pres = Presentation(n, n, [(s, t, t) for s, t in arcs], start=0)
    adj = [[int((i, j) in arcs) for j in range(n)] for i in range(n)]
    # essential states: those with paths of every length, i.e. of length n
    power = _mat_pow(adj, n)
    essential = [i for i in range(n) if any(power[i])]
    if 0 not in essential:
        expected = False
    else:
        k = len(essential)
        sub = [[adj[i][j] for j in essential] for i in essential]
        expected = all(all(row) for row in _mat_pow(sub, (k - 1) ** 2 + 1))
    assert pres.is_primitive() == expected


@given(digraphs, st.lists(st.booleans(), min_size=7, max_size=7))
@settings(max_examples=300, deadline=None)
def test_nondiagonal_cycle_matches_reachability(graph, flags):
    n, arcs = graph
    # label each edge by its target, so the presentation is deterministic
    pair = PairAutomaton(
        list(range(n)), tuple(flags[:n]), n, [(s, t, t) for s, t in arcs]
    )
    expected = any(not flags[s] and s in _reach(n, arcs, s) for s in range(n))
    assert pair.nondiagonal_cycle_exists() == expected


@given(digraphs)
@settings(max_examples=300, deadline=None)
def test_components_match_reachability(graph):
    n, arcs = graph
    pres = Presentation(n, n, [(s, t, t) for s, t in arcs])
    reach = [_reach(n, arcs, s) for s in range(n)]
    expected = {
        tuple(sorted(t for t in reach[s] if s in reach[t]))
        for s in range(n) if s in reach[s]
    }
    comps = pres.components()
    assert sorted(map(tuple, comps)) == sorted(expected)
    # reverse topological: no component reaches one listed after it
    for i, early in enumerate(comps):
        assert not any(late[0] in reach[early[0]] for late in comps[i + 1:])
    assert pres.components() is comps


@st.composite
def presentations(draw):
    """Random deterministic presentations, half of them with a marker."""
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=3))
    marker = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    edges = [
        (s, a, t)
        for s in range(n)
        for a in range(k)
        if s != marker
        for t in [draw(st.one_of(st.none(), st.integers(0, n - 1)))]
        if t is not None
    ]
    return Presentation(n, k, edges, start=0, marker=marker)


def _brute_extensions(pres, s, j):
    """Count the label sequences of length j readable from s, by listing
    every sequence; None when one of them reaches the marker early."""
    count = 0
    for labels in product(range(pres.alphabet_size), repeat=j):
        t = s
        for a in labels:
            if t == pres.marker:
                return None
            t = pres.delta[t].get(a)
            if t is None:
                break
        else:
            count += 1
    return count


@given(presentations(), st.lists(st.integers(0, 6), max_size=4))
@settings(max_examples=200, deadline=None)
def test_extension_counts_match_brute_force(pres, more):
    # large, then small, then larger, then whatever was drawn
    for j in [4, 1, 6] + more:
        counts = pres.extension_counts(j)
        assert len(counts) == pres.n_states
        for s in range(pres.n_states):
            want = _brute_extensions(pres, s, j)
            assert counts[s] == want, (s, j)
            if want is None:
                with pytest.raises(HorizonError):
                    pres.extensions_from(s, j)
            else:
                assert pres.extensions_from(s, j) == want
    with pytest.raises(ValueError):
        pres.extension_counts(-1)


def _brute_lex_min_tail(pres, s, j):
    """First readable label sequence of length j in lexicographic order;
    HorizonError when a sequence before it reaches the marker early."""
    for labels in product(range(pres.alphabet_size), repeat=j):
        t = s
        for a in labels:
            if t == pres.marker:
                raise HorizonError("marker")
            t = pres.delta[t].get(a)
            if t is None:
                break
        else:
            return labels
    return None


@given(presentations(), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_lex_min_tail_matches_brute_force(pres, j):
    for s in range(pres.n_states):
        try:
            want = _brute_lex_min_tail(pres, s, j)
        except HorizonError:
            with pytest.raises(HorizonError):
                pres.lex_min_tail(s, j)
        else:
            assert pres.lex_min_tail(s, j) == want, (s, j)


def _forward_state_counts(pres, n_max):
    """Path-count rows 0, 1, ... by a plain forward list, stopping at the
    first row that has a path ending on the marker (or at n_max)."""
    rows = [[int(s == pres.start) for s in range(pres.n_states)]]
    while len(rows) <= n_max:
        cur = rows[-1]
        if pres.marker is not None and cur[pres.marker]:
            break
        new = [0] * pres.n_states
        for s, _, t in pres.edges():
            new[t] += cur[s]
        rows.append(new)
    return rows


def _forward_extension_counts(pres, j_max):
    rows = [[1] * pres.n_states]
    for _ in range(j_max):
        prev = rows[-1]
        new = []
        for s in range(pres.n_states):
            targets = [prev[t] for t in pres.delta[s].values()]
            poisoned = s == pres.marker or None in targets
            new.append(None if poisoned else sum(targets))
        rows.append(new)
    return rows


@given(
    presentations(),
    st.sampled_from([2, 4, 6, MAX_CHECKPOINTS]),
    st.lists(st.tuples(st.booleans(), st.integers(0, 300)), min_size=1,
             max_size=25),
)
@settings(max_examples=200, deadline=None)
def test_row_store_matches_forward_lists(pres, cap, queries):
    # small caps halve the checkpoints many times within 300 rows
    counts = _forward_state_counts(pres, 300)
    ext = _forward_extension_counts(pres, 300)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "MAX_CHECKPOINTS", cap)
        for extension, n in queries:
            if extension:
                assert pres.extension_counts(n) == ext[n], n
            elif n < len(counts):
                assert pres.state_counts(n) == counts[n], n
            else:
                with pytest.raises(HorizonError) as info:
                    pres.state_counts(n)
                assert info.value.certified == len(counts) - 1
        for store in (pres._state_counts, pres._ext):
            assert store.rows_held() <= cap + 2


@pytest.mark.parametrize("jump", [False, True])
@given(presentations(), st.lists(st.integers(0, 300), min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_stepping_and_doubling_match_forward_lists(jump, pres, queries):
    # each path forced in turn; past the marker both raise as stepping does
    counts = _forward_state_counts(pres, 300)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "jump_pays", lambda *args: jump)
        for n in queries:
            if n < len(counts):
                assert pres.state_counts(n) == counts[n], n
            else:
                with pytest.raises(HorizonError) as info:
                    pres.state_counts(n)
                assert info.value.certified == len(counts) - 1
    if jump:  # a jump leaves the row store as it was
        assert pres._state_counts.base(10 ** 9) == 0


@given(presentations(), st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_count_rows_match_forward_lists(pres, first, last):
    counts = _forward_state_counts(pres, 80)
    ext = _forward_extension_counts(pres, 80)
    last = first + last
    assert list(pres.count_rows(last, first, extensions=True)) == ext[first:last + 1]
    rows = pres.count_rows(last, first)
    for n in range(first, last + 1):
        if n < len(counts):
            assert next(rows) == counts[n], n
        else:
            # the rows before the marker are yielded, then the step raises
            with pytest.raises(HorizonError) as info:
                next(rows)
            assert info.value.certified == len(counts) - 1
            break


def _fibonacci(n):
    """(F(n), F(n + 1)) by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = _fibonacci(n // 2)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n % 2 else (c, d)


def test_golden_far_count_is_a_fibonacci_number():
    # |L_n| of the golden mean shift is F(n + 2)
    assert BetaSystem.golden_mean().count_language(10 ** 5) == _fibonacci(10 ** 5 + 2)[0]


def test_wide_fan_in_compiles_and_counts():
    # 6 621 edges enter state 0, one sum of one item fetch; the extension
    # step is one run of copies plus multiples of c[0]
    system = BetaSystem.from_beta("2.5", horizon=10_000)
    pres = system.presentation
    assert sum(t == 0 for _, _, t in pres.edges()) == 6_621
    counts = _forward_state_counts(pres, 30)
    assert [pres.state_counts(n) for n in range(31)] == counts
    assert system.count_language(30) == sum(counts[30])
    ext = _forward_extension_counts(pres, 30)
    assert list(pres.count_rows(30, extensions=True)) == ext


def _step_sums():
    """Index lists for sum_step: runs d c[z] + c[s], d' c[z] + c[s + 1],
    ... (z possibly a copied index), and sums of any shape."""
    run = st.builds(
        lambda z, first, ds: [[z] * d + [first + i] for i, d in enumerate(ds)],
        st.integers(0, 11), st.integers(0, 6),
        st.lists(st.integers(0, 3), min_size=1, max_size=5),
    )
    other = st.lists(st.integers(0, 11), max_size=4).map(lambda terms: [terms])
    return st.lists(st.one_of(run, other), min_size=1, max_size=6).map(
        lambda parts: [terms for part in parts for terms in part]
    )


@given(_step_sums(), st.lists(st.integers(0, 2 ** 80), min_size=12, max_size=12))
@settings(max_examples=300, deadline=None)
def test_compiled_step_matches_the_sums(sums, row):
    step = automata.sum_step(sums)
    assert step(row, 0) == [sum(row[i] for i in terms) for terms in sums]


def test_copy_runs_compile_to_code_of_one_size():
    # entries d c[0] + c[s + 1], as in a beta presentation's extension step,
    # are one slice and one loop however many states there are
    def parts(n):
        sums = [[0] * (s % 3) + [s + 1] for s in range(n)]
        return list(map(len, automata.step_plan(sums)))

    assert parts(10) == parts(10_000) == [1, 0, 1]


@given(presentations(), st.lists(st.integers(1, 40), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_window_sums_match_forward_lists(pres, ns):
    # S_n[s][t] = sum over k < n of counts(k)[s] * (A^(n-1-k) 1)[t]; the
    # second factor is the extension count wherever that is not poisoned.
    # The lengths are asked in order on one presentation, so later ones
    # start from the chain the earlier ones left, and state_counts(n) may
    # read the chain's A^n
    adjacency = pres.adjacency()
    for n in ns:
        counts = _forward_state_counts(pres, n)
        if len(counts) < n:
            with pytest.raises(HorizonError) as info:
                pres.window_sums(n)
            assert info.value.certified == len(counts) - 1
            continue
        ones = [[1] * pres.n_states]
        for _ in range(n - 1):
            ones.append([sum(map(mul, row, ones[-1])) for row in adjacency])
        ext = _forward_extension_counts(pres, n - 1)
        sums = pres.window_sums(n)
        for s in range(pres.n_states):
            for t in range(pres.n_states):
                assert sums[s][t] == sum(
                    counts[k][s] * ones[n - 1 - k][t] for k in range(n)
                )
        for j, row in enumerate(ext):
            assert all(e is None or e == o for e, o in zip(row, ones[j]))
        if len(counts) > n:
            assert pres.state_counts(n) == counts[n]
        else:
            with pytest.raises(HorizonError) as info:
                pres.state_counts(n)
            assert info.value.certified == len(counts) - 1


def test_window_sums_chain_resumes_from_the_memo(monkeypatch):
    # 498 builds the recurrence, mu_c and mu_e by one elimination each;
    # 998 and 998 again reuse it
    built = []
    annihilator = automata.annihilator
    monkeypatch.setattr(
        automata, "annihilator", lambda *args: built.append(1) or annihilator(*args)
    )
    pres = BetaSystem.golden_mean().presentation
    first = pres.window_sums(498)
    assert len(built) == 2
    second = pres.window_sums(998)
    assert pres.window_sums(998) == second
    assert len(built) == 2
    fresh = BetaSystem.golden_mean().presentation
    assert second == fresh.window_sums(998)
    assert first == BetaSystem.golden_mean().presentation.window_sums(498)
    # the caller gets a copy: changing it changes no later call
    second[0][0] += 1
    assert pres.window_sums(998) != second
    assert pres.window_sums(998) == fresh.window_sums(998)


def _polynomial_kills(mu, rows):
    """Whether sum_i mu_i rows[m + i] = 0 for every m that rows cover."""
    return all(
        not any(sum(c * row[s] for c, row in zip(mu, rows[m:])) for s in range(len(rows[0])))
        for m in range(len(rows) - len(mu) + 1)
    )


def _rank(vectors):
    """Rank over the rationals, by Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@given(presentations(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_annihilators_are_monic_integer_and_kill_both_sequences(pres, marked):
    # e_start A^m and A^m 1, read off the adjacency matrix
    if not marked:
        pres = Presentation(pres.n_states, pres.alphabet_size, list(pres.edges()))
    k = pres.n_states
    adjacency = pres.adjacency()
    rows, columns = [[int(s == pres.start) for s in range(k)]], [[1] * k]
    for _ in range(3 * k):
        rows.append([sum(rows[-1][s] * adjacency[s][t] for s in range(k)) for t in range(k)])
        columns.append([sum(map(mul, row, columns[-1])) for row in adjacency])
    degrees = []
    for sequence in (rows, columns):
        mu = automata.annihilator(iter(sequence))
        degree = len(mu) - 1
        assert mu[-1] == 1 and all(type(c) is int for c in mu)
        assert 1 <= degree <= k
        assert _polynomial_kills(mu, sequence)
        # the least: the first D vectors are independent, so no nonzero
        # polynomial of lower degree kills the sequence
        assert _rank(sequence[:degree]) == degree
        degrees.append(degree)
    counts, window = pres._recurrence()[0], pres._recurrence(windows=True)[0]
    assert [len(counts.mu) - 1, len(window.mu) - 1] == [degrees[0], sum(degrees)]


def test_golden_count_rows_are_annihilated_by_x2_minus_x_minus_1():
    pres = BetaSystem.golden_mean().presentation
    step = automata.sum_step(pres.sources())
    rows = [[1, 0], step([1, 0], 0), step(step([1, 0], 0), 0)]
    assert automata.annihilator(rows) == [-1, -1, 1]
    assert pres._recurrence()[0].mu == [-1, -1, 1]


@given(presentations(), st.lists(st.integers(1, 300), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_far_rows_and_window_sums_match_forward_lists(pres, ns):
    # jumps forced; past the marker both raise HorizonError with the
    # certified length that stepping reports
    counts = _forward_state_counts(pres, 301)
    adjacency = pres.adjacency()
    ones = [[1] * pres.n_states]
    for _ in range(300):
        ones.append([sum(map(mul, row, ones[-1])) for row in adjacency])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "jump_pays", lambda *args: True)
        for n in ns:
            if n < len(counts):
                assert pres.state_counts(n) == counts[n], n
            else:
                with pytest.raises(HorizonError) as info:
                    pres.state_counts(n)
                assert info.value.certified == len(counts) - 1
            if n - 1 < len(counts):
                assert pres.window_sums(n) == [
                    [sum(counts[k][s] * ones[n - 1 - k][t] for k in range(n))
                     for t in range(pres.n_states)]
                    for s in range(pres.n_states)
                ], n
            else:
                with pytest.raises(HorizonError) as info:
                    pres.window_sums(n)
                assert info.value.certified == len(counts) - 1


def test_steps_compile_on_first_use():
    pres = BetaSystem.from_beta("1.5", horizon=60).presentation
    live = pres.essential_part()
    assert live._state_counts._step is None and live._ext._step is None
    live.state_counts(0)
    assert live._state_counts._step is None
    pres.state_counts(5)
    assert pres._state_counts._step is not None and pres._ext._step is None


def test_rows_are_stepped_without_code_generation(monkeypatch):
    # count rows, extension rows and window sums, each step built and run
    # with compile and exec refused
    maj3 = BlockCode(3, {b: int(sum(b) >= 2) for b in product((0, 1), repeat=3)}, 2)
    systems = [
        BetaSystem.from_beta("2.5", horizon=60),
        BetaSystem.golden_mean(),
        BetaSystem.from_beta("2.5", horizon=10_000),
        FactorSystem(BetaSystem.full_shift(2), maj3),
    ]
    lengths = (1, 6, 7, 13)

    def refuse(*args, **kwargs):
        raise AssertionError("code generation")

    for system in systems:
        pres = system.presentation
        counts = _forward_state_counts(pres, 30)
        ext = _forward_extension_counts(pres, 30)
        # a window sum is a k-by-k matrix: none on the 10 001 states
        windows = lengths if pres.n_states < 100 else ()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "compile", refuse)
            patch.setattr(builtins, "exec", refuse)
            rows = list(pres.count_rows(len(counts) - 1))
            ext_rows = list(pres.count_rows(30, extensions=True))
            sums = [pres.window_sums(n) for n in windows]
        assert rows == counts
        assert ext_rows == ext
        adjacency = pres.adjacency()
        ones = [[1] * pres.n_states]
        for n, got in zip(windows, sums):
            while len(ones) < n:
                ones.append([sum(map(mul, row, ones[-1])) for row in adjacency])
            assert got == [
                [sum(counts[k][s] * ones[n - 1 - k][t] for k in range(n))
                 for t in range(pres.n_states)]
                for s in range(pres.n_states)
            ]


def _outcome(fn):
    try:
        return fn()
    except HorizonError:
        return HorizonError


@given(presentations(), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_counted_enumeration_raises_where_the_listing_would(pres, n):
    # the count that precedes a listing meets the marker exactly when the
    # depth-first listing does
    listed = _outcome(lambda: list(pres.completions(pres.start, (None,) * n)))
    assert _outcome(lambda: pres.enumerate_words(n, None)) == listed


def _brute_completions(pres, state, template):
    """(fitting sequences in lexicographic order, whether the search stops
    at the marker): every sequence over the alphabet, walked one by one.
    Sequences are listed up to the first one whose walk would move on from
    the marker before it is decided; the search raises there."""
    found = []
    for labels in product(range(pres.alphabet_size), repeat=len(template)):
        if any(w is not None and a != w for a, w in zip(labels, template)):
            continue
        t = state
        for a in labels:
            if t == pres.marker:
                return found, True
            t = pres.delta[t].get(a)
            if t is None:
                break
        else:
            found.append(labels)
    return found, False


@given(presentations(), st.data())
@settings(max_examples=300, deadline=None)
def test_completions_match_brute_force(pres, data):
    state = data.draw(st.integers(0, pres.n_states - 1), label="state")
    template = data.draw(st.lists(
        st.one_of(st.none(), st.integers(0, pres.alphabet_size - 1)), max_size=5
    ), label="template")
    found, stops = _brute_completions(pres, state, template)
    got = []
    search = pres.completions(state, template)
    if stops:
        # every sequence before the marker is yielded, then the search raises
        with pytest.raises(HorizonError):
            for w in search:
                got.append(w)
    else:
        got = list(search)
    assert got == found
    # tails lists the free template's sequences, lex_min_tail takes the first
    free, free_stops = _brute_completions(pres, state, [None] * len(template))
    least = free[0] if free else HorizonError if free_stops else None
    assert _outcome(lambda: pres.lex_min_tail(state, len(template))) == least
    listed = HorizonError if free_stops else free
    assert _outcome(lambda: pres.tails(state, len(template))) == listed


def test_enumeration_over_the_budget_is_refused_before_listing(monkeypatch):
    pres = BetaSystem.full_shift(2).presentation
    monkeypatch.setattr(automata, "MAX_ENUMERATED_WORDS", 8)
    assert len(pres.enumerate_words(3)) == 8
    monkeypatch.setattr(pres, "completions", None)  # nothing may be listed
    with pytest.raises(EnumerationCapError, match="would list 16 words"):
        pres.enumerate_words(4)


def test_horizon_error_length_and_certified_unchanged():
    system = BetaSystem.from_beta("1.5", horizon=60)
    assert system.count_language(60) == 57029556495
    for n in (61, 62, 100):
        with pytest.raises(HorizonError) as info:
            system.count_language(n)
        assert info.value.certified == 60
    with pytest.raises(HorizonError) as info:
        system.core_counts(61)
    assert info.value.certified == 60
    # shorter lengths still answer after the error, in any order
    assert system.count_language(59) == 38019704357
    assert system.count_language(60) == 57029556495
    assert system.count_language(1) == 2


def test_count_memory_is_bounded():
    system = BetaSystem.golden_mean()
    last = system.count_language(20000)
    store = system.presentation._state_counts
    assert store.rows_held() <= MAX_CHECKPOINTS + 2
    # rows below the frontier are recounted from a checkpoint
    fib = [1, 2]
    for _ in range(150):
        fib.append(fib[-1] + fib[-2])
    assert system.count_language(150) == fib[150]
    assert system.count_language(20000) == last
    assert store.rows_held() <= MAX_CHECKPOINTS + 2


def test_start_at_the_marker_is_not_primitive():
    pres = Presentation(1, 1, [], start=0, marker=0)
    with pytest.raises(HorizonError, match="the start state is the truncation marker"):
        pres.essential_part()
    assert not pres.is_primitive()


def test_live_and_essential_parts_are_built_once():
    pres = BetaSystem.from_beta("1.5", horizon=60).presentation
    core = pres.essential_part()
    assert pres.essential_part() is core and core.essential_part() is core
    # d_55..d_60 are 0: states 54..59 lead only to the marker, state 60
    assert core.marker is None and core.n_states == 54
    fresh = BetaSystem.from_beta("1.5", horizon=60).presentation.essential_part()
    assert [core.count_words(n) for n in range(40)] == [
        fresh.count_words(n) for n in range(40)
    ]
    # without a marker: states 1 and 2 have no infinite continuation
    pres = Presentation(3, 2, [(0, 0, 0), (0, 1, 1), (1, 0, 2)])
    core = pres.essential_part()
    assert pres.essential_part() is core and core.essential_part() is core
    assert core.n_states == 1 and core.count_words(5) == 1


def test_essential_part_without_dead_ends_is_swept_once(monkeypatch):
    # no state is dropped, so the presentation is its own essential part:
    # that outcome is kept too, and a second call reads no edge
    truncated = BetaSystem.from_beta("2.5", horizon=300).presentation
    edges = [e for e in truncated.edges() if truncated.marker not in (e[0], e[2])]
    live = Presentation(truncated.n_states - 1, truncated.alphabet_size, edges)
    assert live.essential_part() is live
    monkeypatch.setattr(live, "delta", None)
    monkeypatch.setattr(live, "_moves", None)
    assert live.essential_part() is live


def _essential_by_fixpoint(pres):
    """The states kept by the set fixpoint: start from every state but the
    marker and drop those with no edge into the set until none is dropped."""
    keep, last = {s for s in range(pres.n_states) if s != pres.marker}, None
    while keep != last:
        last = keep
        keep = {s for s in last if any(t in last for t in pres.delta[s].values())}
    return sorted(keep)


@st.composite
def _presentations(draw):
    """A random graph on n states over symbols 0..k-1, a dead chain of c
    states entered on symbol k, and maybe a marker entered on symbol k + 1;
    the start state anywhere, the marker too."""
    n, k, c = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    targets = st.one_of(st.none(), st.integers(0, n - 1))
    edges = [(s, a, t) for s in range(n) for a in range(k)
             if (t := draw(targets)) is not None]
    edges += [(s, 0, s + 1) for s in range(n, n + c - 1)]
    if c:
        edges.append((draw(st.integers(0, n - 1)), k, n))
    marker = n + c if draw(st.booleans()) else None
    if marker is not None:
        edges += [(s, k + 1, marker) for s in draw(st.sets(st.integers(0, n + c - 1)))]
    size = n + c + (marker is not None)
    return Presentation(size, k + 2, edges, start=draw(st.integers(0, size - 1)),
                        marker=marker)


@given(_presentations())
@example(Presentation(3, 1, [(0, 0, 1), (1, 0, 2)], start=0))  # a dead chain
@example(Presentation(3, 2, [(0, 0, 0), (0, 1, 1), (1, 0, 2)], start=1, marker=2))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_essential_part_matches_the_set_fixpoint(pres):
    keep = _essential_by_fixpoint(pres)
    if pres.start == pres.marker:
        message = "the start state is the truncation marker"
    elif pres.start not in keep:
        message = "no infinite continuation from the start state"
    else:
        core = pres.essential_part()
        index = {s: i for i, s in enumerate(keep)}
        assert (core.n_states, core.start, core.marker) == (len(keep), index[pres.start], None)
        assert sorted(core.edges()) == sorted(
            (index[s], a, index[t]) for s, a, t in pres.edges() if s in index and t in index
        )
        assert (core is pres) == (len(keep) == pres.n_states)
        assert pres.essential_part() is core and core.essential_part() is core
        return
    with pytest.raises(HorizonError, match=message):
        pres.essential_part()
