"""Deterministic labeled-graph presentations of one-sided shift spaces.

A presentation is a right-resolving automaton: states 0..n-1, at most one
edge per (state, symbol), and a distinguished start state whose label
sequences are exactly the points of the shift.  Path counts, word
enumeration, and per-state extension counts are all exact big-integer
computations on this graph.

A presentation may carry a truncation marker: a state with no defined
outgoing edges, standing for "matched every stored symbol".  Any
computation that would have to move on from the marker fails loudly with
HorizonError instead of approximating.
"""

from __future__ import annotations

from functools import partial
from math import gcd

from .errors import EnumerationCapError, HorizonError
from .words import Word

DEFAULT_ENUMERATION_CAP = 24

# most checkpoint rows a RowStore keeps; even, so that halving keeps every
# other stride-th row
MAX_CHECKPOINTS = 128


def strongly_connected_components(successors) -> list[list[int]]:
    """SCCs of the digraph on 0..n-1 with successors[s] the targets of s.

    Iterative Tarjan; components come out in reverse topological order.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    work: list = []  # DFS path: (node, iterator over its unexplored targets)
    out = []

    def enter(s):
        index[s] = low[s] = len(index)
        stack.append(s)
        on_stack.add(s)
        work.append((s, iter(successors[s])))

    for root in range(len(successors)):
        if root in index:
            continue
        enter(root)
        while work:
            s, targets = work[-1]
            for t in targets:
                if t not in index:
                    enter(t)
                    break
                if t in on_stack:
                    low[s] = min(low[s], index[t])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[s])
                if low[s] == index[s]:
                    comp = []
                    while not comp or comp[-1] != s:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(comp)
    return out


def cycle_length_gcd(successors) -> int:
    """gcd of the cycle lengths reachable from node 0 (0 when there are none).

    With BFS levels from node 0, every edge s -> t in the reachable part
    contributes level[s] + 1 - level[t]; for a strongly connected graph the
    gcd of these is its period.
    """
    level = {0: 0}
    frontier = [0]
    g = 0
    while frontier:
        nxt = []
        for s in frontier:
            for t in successors[s]:
                if t not in level:
                    level[t] = level[s] + 1
                    nxt.append(t)
                else:
                    g = gcd(g, level[s] + 1 - level[t])
        frontier = nxt
    return g


def check_enumeration_cap(n: int, cap: int | None) -> None:
    """Refuse to list the words of length n when n exceeds the cap."""
    if cap is not None and n > cap:
        raise EnumerationCapError(
            f"enumeration of length {n} exceeds cap {cap}; "
            "count_language gives exact sizes without materializing words"
        )


class RowStore:
    """Rows 0, 1, 2, ... of a forward recurrence, held in memory linear in n.

    `step(row, k)` computes row k + 1 from row k and may raise.  The store
    keeps every `stride`-th row as a checkpoint, at most MAX_CHECKPOINTS of
    them (when full, every other one is dropped and the stride doubles),
    plus the frontier row (the longest computed) and the last row read
    below it.  A row below the frontier is recomputed from the nearer of its
    checkpoint and that last row, so rows read in increasing order cost one
    step each.
    """

    def __init__(self, first, step):
        self._step = step
        self._stride = 1
        self._checkpoints = [first]  # rows 0, stride, 2 * stride, ...
        self._frontier, self._frontier_row = 0, first
        self._last = (0, first)

    def __getitem__(self, n: int):
        k = self._frontier
        if n < k:
            base = n - n % self._stride
            k, row = self._last
            if not base <= k <= n:
                k, row = base, self._checkpoints[base // self._stride]
            while k < n:
                row = self._step(row, k)
                k += 1
            self._last = (n, row)
            return row
        row, step = self._frontier_row, self._step
        try:
            while k < n:
                row = step(row, k)
                k += 1
                if k % self._stride == 0:
                    if len(self._checkpoints) == MAX_CHECKPOINTS:
                        del self._checkpoints[1::2]
                        self._stride *= 2
                    self._checkpoints.append(row)
        finally:
            # when a step raises, the frontier is the last row it computed
            self._frontier, self._frontier_row = k, row
        return row

    def rows_held(self) -> int:
        """Number of distinct rows in memory."""
        rows = self._checkpoints + [self._frontier_row, self._last[1]]
        return len({id(row) for row in rows})


def _next_state_counts(delta, marker, cur, k):
    """Path counts of length k + 1 from those of length k."""
    if marker is not None and cur[marker]:
        raise HorizonError(
            "path counting would continue past the stored horizon",
            certified=k,
        )
    new = [0] * len(delta)
    for s, c in enumerate(cur):
        if c:
            for t in delta[s].values():
                new[t] += c
    return new


def _next_extension_counts(delta, marker, prev, j):
    """Per-state continuation counts of length j + 1 from those of length j."""
    new = []
    for s, targets in enumerate(delta):
        if s == marker:
            new.append(None)
            continue
        total = 0
        for t in targets.values():
            if prev[t] is None:
                total = None
                break
            total += prev[t]
        new.append(total)
    return new


class Presentation:
    """Immutable deterministic labeled graph with a start state."""

    def __init__(self, n_states, alphabet_size, edges, start=0, marker=None):
        """edges: iterable of (state, symbol, state) triples."""
        self.n_states = n_states
        self.alphabet_size = alphabet_size
        self.start = start
        self.marker = marker
        self.delta: list[dict[int, int]] = [dict() for _ in range(n_states)]
        for s, a, t in edges:
            if a in self.delta[s] and self.delta[s][a] != t:
                raise ValueError(f"nondeterministic edge at state {s}, symbol {a}")
            self.delta[s][a] = t
        if marker is not None and self.delta[marker]:
            raise ValueError("marker state must have no outgoing edges")
        # the steps hold the graph, not self: no reference cycle
        self._state_counts = RowStore(
            self._unit_vector(start),
            partial(_next_state_counts, self.delta, marker),
        )
        self._ext = RowStore(
            [1] * n_states, partial(_next_extension_counts, self.delta, marker)
        )

    def _unit_vector(self, s):
        v = [0] * self.n_states
        v[s] = 1
        return v

    # -- single-word queries ------------------------------------------------

    def step(self, state: int, symbol: int):
        """Next state, or None when the symbol is not readable."""
        if state == self.marker:
            raise HorizonError(
                "undecided at truncation: walk continues past the stored horizon"
            )
        return self.delta[state].get(symbol)

    def walk(self, word: Word, state: int | None = None):
        """Run `word` from `state` (default: start); None when rejected."""
        s = self.start if state is None else state
        for i, a in enumerate(word):
            if s == self.marker:
                raise HorizonError(
                    "undecided at truncation: "
                    f"{len(word) - i} symbols remain past the stored horizon"
                )
            s = self.delta[s].get(a)
            if s is None:
                return None
        return s

    def accepts(self, word: Word, state: int | None = None) -> bool:
        return self.walk(word, state) is not None

    # -- exact counting -------------------------------------------------------

    def state_counts(self, n: int) -> list[int]:
        """Vector of path counts of length n from the start state."""
        if n < 0:
            raise ValueError(f"negative path length {n}")
        return self._state_counts[n]

    def count_words(self, n: int) -> int:
        return sum(self.state_counts(n))

    def extension_counts(self, j: int) -> list:
        """Per-state counts of length-j continuations; None marks poisoned states."""
        if j < 0:
            raise ValueError(f"negative continuation length {j}")
        return self._ext[j]

    def extensions_from(self, state: int, j: int) -> int:
        c = self.extension_counts(j)[state]
        if c is None:
            raise HorizonError(
                "extension counting would continue past the stored horizon"
            )
        return c

    # -- enumeration ------------------------------------------------------------

    def enumerate_words(self, n: int, cap: int | None = DEFAULT_ENUMERATION_CAP):
        """All length-n label sequences from the start state, sorted."""
        check_enumeration_cap(n, cap)
        return self._dfs((), self.start, n)

    def _dfs(self, prefix, state, n):
        if len(prefix) == n:
            return [prefix]
        if state == self.marker:
            raise HorizonError(
                "enumeration would continue past the stored horizon"
            )
        out = []
        for a in sorted(self.delta[state]):
            out.extend(self._dfs(prefix + (a,), self.delta[state][a], n))
        return out

    def tails(self, state: int, length: int) -> list[Word]:
        """All length-`length` continuations from `state`, sorted."""
        return self._dfs((), state, length)

    def lex_min_tail(self, state: int, length: int) -> Word | None:
        """Lexicographically least length-`length` continuation from `state`.

        None when there is no continuation.  HorizonError when the search
        meets the truncation marker before it finds one: a continuation
        through the marker would come first, and it is unknown.
        """
        if length == 0:
            return ()
        if state == self.marker:
            raise HorizonError(
                "least-tail search would continue past the stored horizon"
            )
        for a in sorted(self.delta[state]):
            tail = self.lex_min_tail(self.delta[state][a], length - 1)
            if tail is not None:
                return (a,) + tail
        return None

    # -- graph structure ----------------------------------------------------------

    def edges(self):
        for s in range(self.n_states):
            for a in sorted(self.delta[s]):
                yield s, a, self.delta[s][a]

    def adjacency(self) -> list[list[int]]:
        m = [[0] * self.n_states for _ in range(self.n_states)]
        for s, _, t in self.edges():
            m[s][t] += 1
        return m

    def live_part(self) -> "Presentation":
        """Copy without the marker state and its incoming edges."""
        if self.marker is None:
            return self
        keep = [s for s in range(self.n_states) if s != self.marker]
        index = {s: i for i, s in enumerate(keep)}
        edges = [
            (index[s], a, index[t])
            for s, a, t in self.edges()
            if s != self.marker and t != self.marker
        ]
        return Presentation(len(keep), self.alphabet_size, edges,
                            start=index[self.start])

    def essential_part(self) -> "Presentation":
        """Iteratively drop states with no outgoing edge (marker first)."""
        live = self.live_part()
        dead: set[int] = set()
        changed = True
        while changed:
            changed = False
            for s in range(live.n_states):
                if s in dead:
                    continue
                if not any(t not in dead for t in live.delta[s].values()):
                    dead.add(s)
                    changed = True
        if live.start in dead:
            raise HorizonError("no infinite continuation from the start state")
        keep = [s for s in range(live.n_states) if s not in dead]
        index = {s: i for i, s in enumerate(keep)}
        edges = [
            (index[s], a, index[t])
            for s, a, t in live.edges()
            if s not in dead and t not in dead
        ]
        return Presentation(len(keep), self.alphabet_size, edges,
                            start=index[live.start])

    def is_primitive(self) -> bool:
        """Essential part strongly connected and aperiodic."""
        try:
            core = self.essential_part()
        except HorizonError:
            return False
        successors = [list(d.values()) for d in core.delta]
        return (
            len(strongly_connected_components(successors)) == 1
            and cycle_length_gcd(successors) == 1
        )

    def dump_edges_csv(self, path) -> None:
        """Edge list as `state,symbol,state` rows."""
        with open(path, "w", encoding="ascii") as fh:
            for s, a, t in self.edges():
                fh.write(f"{s},{a},{t}\n")

    def __repr__(self):
        n_edges = sum(len(d) for d in self.delta)
        extra = ", truncated" if self.marker is not None else ""
        return (
            f"Presentation({self.n_states} states, {n_edges} edges, "
            f"alphabet {self.alphabet_size}{extra})"
        )
