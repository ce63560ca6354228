"""Deterministic labeled-graph presentations of one-sided shift spaces.

A presentation is a right-resolving automaton: states 0..n-1, at most one
edge per (state, symbol), and a distinguished start state whose label
sequences are exactly the points of the shift.  Path counts, word
enumeration, and per-state extension counts are all exact big-integer
computations on this graph.  Count rows are stepped by a plan built once
from the edge list (`step_plan`: slices for runs of copies, one C-level
item fetch per wider sum); a far path-count row of a small presentation
is reached by doubling instead.  The window sums of count rows against
extension rows follow one left-to-right doubling chain, whose latest pairs
are kept (`Presentation.window_sums`).

A presentation may carry a truncation marker: a state with no defined
outgoing edges, standing for "matched every stored symbol".  Any
computation that would have to move on from the marker fails loudly with
HorizonError instead of approximating.  This module is the only one that
raises it for the marker: through `Presentation.moves`, `walk` and the
count rows.

`PresentedShift` is the protocol a shift given by a presentation answers:
exact counts, listings, membership and extension counts.  Beta-shifts and
their sliding-block images both answer it.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import repeat
from math import gcd, log
from operator import itemgetter, mul

from .errors import EnumerationCapError, HorizonError, InputError
from .perron import perron_eigendata
from .words import Word

DEFAULT_ENUMERATION_CAP = 24
# most words one listing may hold, counted before any is listed
MAX_ENUMERATED_WORDS = 10 ** 6
# longest word length count_language counts: a far row of a small
# presentation is reached by doubling, so the cap bounds the size of the
# integers (about 0.7 n bits on the golden mean), not a number of steps
MATRIX_POWER_CAP = 10 ** 6

# most checkpoint rows a RowStore keeps; even, so that halving keeps every
# other stride-th row
MAX_CHECKPOINTS = 128


def strongly_connected_components(successors) -> list[list[int]]:
    """SCCs of the digraph on 0..n-1 with successors[s] the targets of s.

    Iterative Tarjan; components come out in reverse topological order.
    The low link of a state whose component is out is n, so it lowers no
    other state's.
    """
    n = len(successors)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    work: list = []  # DFS path: (node, iterator over its unexplored targets)
    out = []

    def enter(s):
        index[s] = low[s] = len(index)
        stack.append(s)
        work.append((s, iter(successors[s])))

    for root in range(n):
        if root not in index:
            enter(root)
        while work:
            s, targets = work[-1]
            for t in targets:
                if t not in index:
                    enter(t)
                    break
                low[s] = min(low[s], low[t])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[s])
                if low[s] == index[s]:
                    comp = []
                    while not comp or comp[-1] != s:
                        comp.append(stack.pop())
                        low[comp[-1]] = n
                    out.append(comp)
    return out


def bfs_distances(successors, root: int) -> list:
    """Edge distance from root to each node (None: unreachable)."""
    dist = [None] * len(successors)
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for s in frontier:
            for t in successors[s]:
                if dist[t] is None:
                    dist[t] = dist[s] + 1
                    nxt.append(t)
        frontier = nxt
    return dist


def check_enumeration_cap(n: int, cap: int | None) -> None:
    """Refuse to list the words of length n when n exceeds the cap."""
    if cap is not None and n > cap:
        raise EnumerationCapError(
            f"enumeration of length {n} exceeds cap {cap}; "
            "count_language gives exact sizes without materializing words"
        )


class RowStore:
    """Rows 0, 1, 2, ... of a forward recurrence, held in memory linear in n.

    `make_step()` is called once, before the first step, and returns
    `step(row, k)`, which computes row k + 1 from row k and may raise.  The
    store keeps every `stride`-th row as a checkpoint, at most
    MAX_CHECKPOINTS of them (when full, every other one is dropped and the
    stride doubles), plus the frontier row (the longest computed) and the
    last row read below it.  A row below the frontier is recomputed from the
    nearer of its checkpoint and that last row, so rows read in increasing
    order cost one step each.
    """

    def __init__(self, first, make_step):
        self._make_step = make_step
        self._step = None
        self._stride = 1
        self._checkpoints = [first]  # rows 0, stride, 2 * stride, ...
        self._frontier, self._frontier_row = 0, first
        self._last = (0, first)

    @property
    def step(self):
        """The step, built on first use."""
        if self._step is None:
            self._step = self._make_step()
        return self._step

    def _below_frontier_start(self, n: int):
        """(k, row k) from which a row n below the frontier is recomputed."""
        base = n - n % self._stride
        k, row = self._last
        if not base <= k <= n:
            k, row = base, self._checkpoints[base // self._stride]
        return k, row

    def base(self, n: int) -> int:
        """The row that reading row n would step from."""
        if n >= self._frontier:
            return self._frontier
        return self._below_frontier_start(n)[0]

    def __getitem__(self, n: int):
        k = self._frontier
        if n < k:
            k, row = self._below_frontier_start(n)
            if k < n:
                step = self.step
                while k < n:
                    row = step(row, k)
                    k += 1
            self._last = (n, row)
            return row
        row = self._frontier_row
        if k == n:
            return row
        step = self.step
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


def _past_horizon(k):
    raise HorizonError(
        "path counting would continue past the stored horizon", certified=k
    )


def step_plan(sums):
    """The parts of the step `sum_step` runs for `sums`, built in one pass
    over the terms: (runs, fan_ins, fixes).

    `sums[t]` lists row indices, an index once per edge it stands for.  An
    entry of one term, or an entry d c[z] + c[s] (z its least term) beside
    one that copies c[s - 1] or c[s + 1], is a copy: `runs` holds a (slice
    of the row, slice of c) pair per run of copies, and `fixes` adds the
    d c[z] in place after, one (z, scales, (entry, index of its scale)
    pairs) per z.  Any other entry of several terms is the sum of one
    C-level item fetch (`fan_ins`, (t, itemgetter) pairs); an empty entry
    stays 0.
    """
    # (s, z, d) for an entry d c[z] + c[s]
    shapes = [
        (terms[0], terms[0], 0) if len(terms) == 1
        else (max(terms), min(terms), len(terms) - 1)
        if terms and terms.count(min(terms)) >= len(terms) - 1 else None
        for terms in sums
    ]
    # source[t + 1]: the index entry t would copy, None past either end
    source = [None, *(shape and shape[0] for shape in shapes), None]
    copies: list = []  # [first entry, first source, length] of each run
    fan_ins, fixes = [], {}  # z -> ({d: index of d}, [(entry, index)])
    after = None  # (entry, source) that would extend the last run
    for t, shape in enumerate(shapes):
        s, z, d = shape or (0, 0, 0)
        if shape is None or d and source[t] != s - 1 and source[t + 2] != s + 1:
            if len(sums[t]) > 1:
                fan_ins.append((t, itemgetter(*sums[t])))
            continue
        if d:
            scales, pairs = fixes.setdefault(z, ({}, []))
            pairs.append((t, scales.setdefault(d, len(scales))))
        if after == (t, s):
            copies[-1][2] += 1
        else:
            copies.append([t, s, 1])
        after = t + 1, s + 1
    return ([(slice(t, t + n), slice(s, s + n)) for t, s, n in copies], fan_ins,
            [(z, tuple(scales), tuple(pairs)) for z, (scales, pairs) in fixes.items()])


def sum_step(sums, marker=None):
    """`step(c, k)` returning the row [sum of c over sums[0], sum over
    sums[1], ...], run on the parts of `step_plan(sums)`.  With a marker,
    it first raises HorizonError(certified=k) when c[marker] is nonzero.
    """
    runs, fan_ins, fixes = step_plan(sums)
    width = len(sums)

    def step(c, k):
        if marker is not None and c[marker]:
            _past_horizon(k)
        row = [0] * width
        for to, of in runs:
            row[to] = c[of]
        for t, pick in fan_ins:
            row[t] = sum(pick(c))
        for z, scales, pairs in fixes:
            m = tuple(map(mul, scales, repeat(c[z])))
            for t, i in pairs:
                row[t] += m[i]
        return row

    return step


def _sources(delta) -> list:
    """Per state, the sources of the edges into it, once per edge."""
    sources = [[] for _ in delta]
    for s, targets in enumerate(delta):
        for t in targets.values():
            sources[t].append(s)
    return sources


def _state_step(delta, marker):
    """Path counts of length k + 1 from those of length k: row[t] sums the
    counts of the sources of the edges into t."""
    return sum_step(_sources(delta), marker)


def _extension_step(delta, order, dist):
    """Continuation counts of length j + 1 from those of length j.

    A row is the pair (sums, shown): sums[s] adds up the counts of the
    targets of the edges out of s, and `shown` is sums with None at the
    states that are poisoned at that length (see `_poisoned`).  A state not
    poisoned at j + 1 has no poisoned target at j, so its sum is exact.
    """
    kernel = sum_step([list(targets.values()) for targets in delta])

    def step(rows, j):
        sums = kernel(rows[0], j)
        return sums, _poisoned(order, dist, sums, j + 1)

    return step


def _poisoned(order, dist, row, j):
    """`row` with None at the states fewer than j edges from the marker,
    whose length-j continuations meet it before their end; `order` lists
    the states that reach the marker by distance, `dist` their distances."""
    stop = bisect_right(dist, j - 1)
    if not stop:
        return row
    row = list(row)
    for s in order[:stop]:
        row[s] = None
    return row


def distances_to(delta, target) -> list:
    """Edge distance from each state to `target` (None: no path)."""
    return bfs_distances(_sources(delta), target)


def doubling_pays(states: int, edges: int, n: int, base: int) -> bool:
    """Whether row n costs less by binary powering than by stepping from
    row `base`: states^3 * bit_length(n) < (n - base) * edges, a squaring
    against a step per row, with no tuned constant."""
    return states ** 3 * n.bit_length() < (n - base) * edges


def _vector_times(row, matrix):
    return [sum(map(mul, row, col)) for col in zip(*matrix)]


def _matrix_product(x, y):
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _window_join(sums_a, power_a, sums_b, power_b):
    """S_(a+b) = S_a (A^b)^T + (A^a)^T S_b from S_a, A^a, S_b and A^b (see
    `Presentation.window_sums`): the first a shifts read b more extension
    symbols, and the last b shifts start from the counts moved on by a."""
    cols_b = list(zip(*sums_b))
    return [
        [sum(map(mul, left, row_b)) + sum(map(mul, col_a, col_b))
         for row_b, col_b in zip(power_b, cols_b)]
        for left, col_a in zip(sums_a, zip(*power_a))
    ]


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
        self._moves = [tuple(sorted(d.items())) for d in self.delta]
        self._n_edges = sum(len(d) for d in self.delta)
        # the step makers hold the graph, not self: no reference cycle
        self._state_counts = RowStore(
            self._unit_vector(start),
            partial(_state_step, self.delta, marker),
        )
        self._squares: list = []  # adjacency matrix to the powers 2^i
        self._chain: list = []  # (a, S_a, A^a) of the latest window_sums chain
        self._out_sums = None  # built with the chain's first pair
        self._to_marker: int | None = None  # distance from start to marker
        self._essential: Presentation | None = None  # see essential_part
        self._all_essential = False  # no state dropped: self is the essential part
        self._components: list | None = None  # see components
        self._perron = None  # see perron.perron_eigendata
        # the states that reach the marker, by distance (see _poisoned)
        order, order_dist = [], []
        if marker is not None:
            dist = distances_to(self.delta, marker)
            self._to_marker = dist[start]
            order = sorted(
                (s for s in range(n_states) if dist[s] is not None),
                key=dist.__getitem__,
            )
            order_dist = [dist[s] for s in order]
        ones = [1] * n_states
        self._ext = RowStore(
            (ones, ones),
            partial(_extension_step, self.delta, order, order_dist),
        )

    def _unit_vector(self, s):
        v = [0] * self.n_states
        v[s] = 1
        return v

    # -- single-word queries ------------------------------------------------

    def moves(self, state: int) -> tuple:
        """The (symbol, next state) pairs readable from `state`, in symbol
        order; HorizonError at the truncation marker."""
        if state == self.marker:
            raise HorizonError("walk would continue past the stored horizon")
        return self._moves[state]

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

    # -- exact counting -------------------------------------------------------

    def state_counts(self, n: int) -> list[int]:
        """Vector of path counts of length n from the start state.

        Row n is the start row of A^n when the latest `window_sums` chain
        holds it; else e_start A^n by binary powering, from the cached
        squares of the adjacency matrix A, when `doubling_pays`; otherwise
        the step runs forward to it (see RowStore).  A jump is
        never stored and never crosses the marker.
        """
        if n < 0:
            raise ValueError(f"negative path length {n}")
        for a, _, power in self._chain:
            if a == n and (self._to_marker is None or n <= self._to_marker):
                return list(power[self.start])
        store = self._state_counts
        if doubling_pays(self.n_states, self._n_edges, n, store.base(n)):
            return self._power_row(n)
        return store[n]

    def _square(self, i: int) -> list[list[int]]:
        """A^(2^i) for the adjacency matrix A, squared once and cached."""
        squares = self._squares
        if not squares:
            squares.append(self.adjacency())
        while len(squares) <= i:
            squares.append(_matrix_product(squares[-1], squares[-1]))
        return squares[i]

    def _power_row(self, n: int) -> list[int]:
        """e_start A^n, multiplying in A^(2^i) for each set bit i of n."""
        if self._to_marker is not None and n > self._to_marker:
            _past_horizon(self._to_marker)
        row = self._unit_vector(self.start)
        i = 0
        while n:
            if n & 1:
                row = _vector_times(row, self._square(i))
            n >>= 1
            i += 1
        return row

    def window_sums(self, n: int) -> list[list[int]]:
        """The k-by-k matrix S_n[s][t] = sum over k < n of state_counts(k)[s]
        * (A^(n - 1 - k) 1)[t], for n >= 1: the last factor is the extension
        count where that is not poisoned (see `extension_counts`).

        Along a left-to-right chain from (S_0, A^0) = (0, I): a -> 2a is one
        join, S_(a+b) = S_a (A^b)^T + (A^a)^T S_b, and one square; a -> a + 1
        is S_a A^T + c_a 1^T (c_a the start row of A^a) and A A^a, k |E|
        additions.  The latest chain's pairs are kept, O(log n) of them, and
        a call resumes from the last one on its own chain: n' = 2n + 2 after
        n is one step and one join.  Like `_power_row`, it never crosses the
        marker: HorizonError as state_counts(n - 1) raises it.
        """
        if self._to_marker is not None and n - 1 > self._to_marker:
            _past_horizon(self._to_marker)
        chain, k = self._chain, self.n_states
        if not chain:
            # row -> row A^T, a sum over the edges out of each state
            self._out_sums = sum_step([list(d.values()) for d in self.delta])
            chain.append((0, [[0] * k] * k, [self._unit_vector(s) for s in range(k)]))
        values = [a for a, _, _ in chain]
        todo = []
        while n not in values:
            todo.append(n)
            n = n - 1 if n & 1 else n >> 1
        del chain[values.index(n) + 1:]
        _, sums, power = chain[-1]
        step = self._out_sums
        for a in reversed(todo):
            if a & 1:  # the step from a - 1: rows of S, columns of A A^(a-1)
                sums = [[w + c for w in step(row, 0)]
                        for row, c in zip(sums, power[self.start])]
                power = list(zip(*[step(col, 0) for col in zip(*power)]))
            else:
                sums = _window_join(sums, power, sums, power)
                power = _matrix_product(power, power)
            chain.append((a, sums, power))
        return [list(row) for row in sums]  # the chain stays unchanged

    def count_words(self, n: int) -> int:
        return sum(self.state_counts(n))

    def extension_counts(self, j: int) -> list:
        """Per-state counts of length-j continuations; None marks poisoned
        states, those fewer than j edges from the marker."""
        if j < 0:
            raise ValueError(f"negative continuation length {j}")
        return self._ext[j][1]

    def extensions_from(self, state: int, j: int) -> int:
        c = self.extension_counts(j)[state]
        if c is None:
            raise HorizonError(
                "extension counting would continue past the stored horizon"
            )
        return c

    def count_rows(self, last: int, first: int = 0, extensions: bool = False):
        """Rows first..last of `state_counts` (of `extension_counts` when
        `extensions`), in increasing order.

        Row `first` is read as `state_counts` (or the extension store) reads
        it; every later row costs one step and is not stored.  Rows are made
        as they are asked for, so a path-count row past the marker raises
        HorizonError only when it is reached.
        """
        if extensions:
            store, row = self._ext, self._ext[first]
        else:
            store, row = self._state_counts, self.state_counts(first)
        yield row[1] if extensions else row
        if first < last:
            step = store.step
            for k in range(first, last):
                row = step(row, k)
                yield row[1] if extensions else row

    # -- enumeration ------------------------------------------------------------

    def enumerate_words(self, n: int, cap: int | None = DEFAULT_ENUMERATION_CAP):
        """All length-n label sequences from the start state, sorted.

        The words are counted first: more than MAX_ENUMERATED_WORDS of them
        are refused before any is listed, and the count raises HorizonError
        where the listing would (a path of length below n meets the marker).
        """
        check_enumeration_cap(n, cap)
        count = self.count_words(n)
        if count > MAX_ENUMERATED_WORDS:
            raise EnumerationCapError(
                f"enumeration of length {n} would list {count} words, over the "
                f"budget {MAX_ENUMERATED_WORDS}; count_language counts them"
            )
        return list(self.completions(self.start, (None,) * n))

    def completions(self, state: int, template):
        """The label sequences from `state` that fit `template` (per position
        a symbol, or None for any), lazily and in lexicographic order.

        HorizonError where the walk would move on from the truncation
        marker: a sequence through it would come next, and it is unknown.
        """
        n = len(template)
        if n == 0:
            yield ()
            return
        word = [None] * n
        stack = [iter(self.moves(state))]
        while stack:
            pos = len(stack) - 1
            want = template[pos]
            for a, t in stack[-1]:
                if want is not None and a != want:
                    continue
                word[pos] = a
                if pos + 1 == n:
                    yield tuple(word)
                else:
                    stack.append(iter(self.moves(t)))
                    break
            else:
                stack.pop()

    def tails(self, state: int, length: int) -> list[Word]:
        """All length-`length` continuations from `state`, sorted."""
        return list(self.completions(state, (None,) * length))

    def lex_min_tail(self, state: int, length: int) -> Word | None:
        """Lexicographically least length-`length` continuation from `state`,
        or None; HorizonError when the search meets the marker first."""
        return next(self.completions(state, (None,) * length), None)

    # -- graph structure ----------------------------------------------------------

    def edges(self):
        for s, moves in enumerate(self._moves):
            for a, t in moves:
                yield s, a, t

    def adjacency(self) -> list[list[int]]:
        m = [[0] * self.n_states for _ in range(self.n_states)]
        for s, _, t in self.edges():
            m[s][t] += 1
        return m

    def essential_part(self) -> "Presentation":
        """Copy on the states with an infinite continuation, built once.

        One backward pass over predecessor lists: a state whose count of
        live out-edges reaches 0 is dropped, and each edge into it lowers
        its source's count (the marker has no out-edge, so it is dropped
        first).  HorizonError when the start state is the marker or is
        dropped; a presentation with no state to drop is its own essential
        part, and so is the copy.
        """
        if self._essential is None and not self._all_essential:
            if self.start == self.marker:
                raise HorizonError("the start state is the truncation marker")
            sources = _sources(self.delta)
            live = [len(moves) for moves in self._moves]
            dropped = [s for s, n in enumerate(live) if not n]
            for t in dropped:  # grows as states are dropped
                for s in sources[t]:
                    live[s] -= 1
                    if not live[s]:
                        dropped.append(s)
            if not live[self.start]:
                raise HorizonError("no infinite continuation from the start state")
            # a flag, not a reference: no presentation refers to itself
            self._all_essential = not dropped
            if dropped:  # the kept states, renumbered in increasing order
                kept = [s for s in range(self.n_states) if live[s]]
                index = {s: i for i, s in enumerate(kept)}
                edges = [(index[s], a, index[t]) for s, a, t in self.edges()
                         if s in index and t in index]
                self._essential = Presentation(len(index), self.alphabet_size, edges,
                                               start=index[self.start])
                self._essential._all_essential = True
        return self if self._all_essential else self._essential

    def components(self) -> list[list[int]]:
        """The strongly connected components that hold a cycle, each as its
        sorted states, in reverse topological order; computed once."""
        if self._components is None:
            successors = [list(d.values()) for d in self.delta]
            self._components = [
                sorted(c) for c in strongly_connected_components(successors)
                if len(c) > 1 or c[0] in successors[c[0]]
            ]
        return self._components

    def is_primitive(self) -> bool:
        """Essential part one component, and aperiodic: with BFS levels
        from state 0, the edges s -> t give level[s] + 1 - level[t] of gcd
        the period of a strongly connected graph."""
        try:
            core = self.essential_part()
        except HorizonError:
            return False
        if core.components() != [list(range(core.n_states))]:
            return False
        level = bfs_distances([list(d.values()) for d in core.delta], 0)
        return gcd(*(level[s] + 1 - level[t] for s, _, t in core.edges())) == 1

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


class PresentedShift:
    """A shift space read off its presentation: exact counts, listings,
    membership and continuation counts.

    A subclass sets `presentation` and `alphabet_size`.  Every shift lists
    words up to the one `enumeration_cap`.  `beta_value`, the growth rate
    of the language, defaults to the Perron value of the presentation.
    """

    enumeration_cap = DEFAULT_ENUMERATION_CAP

    def beta_value(self):
        """The Perron value of the presentation (computed once, see
        `perron_eigendata`)."""
        return perron_eigendata(self.presentation).eigenvalue

    def count_language(self, n: int) -> int:
        """|L_n| exactly, by path counting on the presentation."""
        if n > MATRIX_POWER_CAP:
            raise InputError(f"count cap exceeded ({n} > {MATRIX_POWER_CAP})")
        return self.presentation.count_words(n)

    def enumerate_language(self, n: int) -> list[Word]:
        """The n-words in lexicographic order, refused past the enumeration
        cap."""
        return self.presentation.enumerate_words(n, self.enumeration_cap)

    def is_word(self, v: Word) -> bool:
        """Automaton membership test; HorizonError past a truncation."""
        if any(a >= self.alphabet_size or a < 0 for a in v):
            return False
        return self.presentation.walk(v) is not None

    def extensions(self, v: Word, j: int) -> int:
        """#length-j continuations of v."""
        state = self.presentation.walk(v)
        if state is None:
            return 0
        return self.presentation.extensions_from(state, j)

    def log_beta(self) -> float:
        return log(float(self.beta_value()))
