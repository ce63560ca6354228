from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from obstruct.automata import Presentation
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
