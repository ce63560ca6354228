from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from obstruct import automata
from obstruct.automata import MAX_CHECKPOINTS, Presentation
from obstruct.beta import BetaSystem
from obstruct.errors import HorizonError
from obstruct.factors import PairAutomaton


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
    edges = {s: [(0, 0, t) for (x, t) in sorted(arcs) if x == s] for s in range(n)}
    pair = PairAutomaton(
        states=list(range(n)), edges=edges, initial=0, diagonal=tuple(flags[:n])
    )
    expected = any(not flags[s] and s in _reach(n, arcs, s) for s in range(n))
    assert pair.nondiagonal_cycle_exists() == expected


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
