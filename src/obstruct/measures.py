"""Cylinder measures: the empirical construction and the stationary oracle.

The empirical measure at time n puts uniform mass on one representative
point per admissible n-word (the word followed by zeros, which every
state of a digit-expansion presentation admits) and averages the first n
shift images.  Its cylinder masses are computed exactly from automaton
occurrence counts as rationals with denominator n * |L_n|: the sums of
every (state, state) pair at the deepest length at once, on a small
presentation as one jump along its integer recurrence (built once, so a
second n on the same presentation reuses it), else one n-term product sum
per pair; and additions for every shorter length (extension counts
satisfy e_j[t] = sum of e_{j-1} over the edges out of t).

The stationary oracle is the Parry (Markov) measure built from Perron
eigendata of the presentation (see `obstruct.perron` for its two paths,
renewal closed form and power iteration, and its exactness test on small
components): the mass of [u] sums l_s r_t over the walks s -> t of u,
divided by x^|u| sum_s l_s r_s.  With exact
eigendata (rational or quadratic) the masses are exact field elements;
otherwise the eigenvectors are positive integers, the eigenvalue is the
simplest rational in its Collatz-Wielandt enclosure, every mass is an exact
rational acc S_n of these (acc an integer class weight, S_n = num / den
fixed per length), and each is rounded to a float once, by the correctly
rounded integer division acc num / den.
A truncated system's provenance states the enclosure's width and, when
beta is exact, the gap beta - lo to the true beta-shift (lo the lower end
of the enclosure, so the gap bounds beta - rho from above).

Every measure is held as mass classes (`MassClasses`), and cylinder and
pattern masses, and the checks in `obstruct.suites`, read only the
classes.  The Parry mass of [u] depends only on u's weight vector, the
sum of l_s over the states s whose walk of u ends at each state, which is
a function of u's transition class on the right-resolving presentation
(Parry 1960); so the Parry measure has one class per distinct vector
(keyed by its sorted (state, weight) pairs), each with its children, its
word count at every length, and its exact weight.  The checks read the
weights and the per-length scales S_n unrounded; a report or `mass`
rounds a mass, or a pattern's exact sum, once, by the one rule of
`MassClasses.scaled`.  The per-word table is listed only when it is read
(reports, `max_depth_gap`), and is refused over MAX_TABLE_CYLINDERS words
before any word is listed.  A listed table (an empirical measure, or one
read from a file) must be closed under prefixes, and list a word at every
length to its depth; its classes are its minimal automaton, the words
merged bottom-up when their masses and child classes agree.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from operator import mul

from .automata import bfs_distances
from .errors import DepthError, EnumerationCapError, InputError, NonMixingError
from .perron import perron_eigendata, simplest_between
from .quadratic import QuadraticNumber
from .words import Word, format_word, parse_word

# largest n for empirical_mme: a jump along the recurrence reads count
# rows n - depth + 1..n, and the cap bounds only the size of the integers;
# otherwise it lists every count and extension row up to n and takes one
# n-term product sum per pair
MAX_EMPIRICAL_N = 10_000
# most cylinders a listed table may hold: sum over lengths n <= depth of
# |L_n|, counted exactly before any word is listed
MAX_TABLE_CYLINDERS = 1_000_000


class MassClasses:
    """The cylinders of a measure, grouped into mass classes.

    The words of a class have one weight, and their extensions by each
    symbol fall in one class again, so a class stands for all its words
    in every mass query.  Both constructors fill the same fields:

    - `root`, the class of the empty word;
    - `children[k]`, symbol -> class of u a for u in class k, in increasing
      symbol order; the symbols missing lead off the table (mass 0);
    - `weights[k]`, the weight of class k: a length-n cylinder of weight w
      has the exact mass w S_n, `scales[n]` = S_n as a quotient (num, den);
    - `exact`: `scaled(weight, n)`, that mass, is exact when this is true,
      else the float nearest it (so nondecreasing in the weight), for
      reports and `mass`;
    - `layers[n]`, each class met at length n with its word count;
    - `cylinders`, the word count of the table.

    The words themselves are listed only by `table`.
    """

    def __init__(self, root: int, children: list, weights: list, scales: list, exact, layers):
        self.root = root
        self.children = children
        self.weights = weights
        self.scales = scales
        self.exact = exact
        self.layers = layers
        self.depth = len(layers) - 1
        self.cylinders = sum(sum(layer.values()) for layer in layers)
        self._masses: dict[tuple[int, int], object] = {}
        self._runs: dict[int, list] = {}  # see runs_descending
        self._spreads: dict[int, dict] = {}  # see _spread

    @classmethod
    def parry(cls, live, left, right, scales, exact: bool, depth: int) -> "MassClasses":
        """Classes of a Parry measure, by weight vector.

        The vector of a word u is v_u[t] = sum of l_s over the states s
        whose walk of u ends at t, its weight is sum_t v_u[t] r_t, and the
        vectors of the words u a follow from v_u alone; so each distinct
        vector is numbered once, extended one symbol per length from the
        empty word, as its sorted (state, sum of l_s) pairs, which are also
        its key.  A class first met at `depth` gets no children.
        """
        numbers: dict[tuple, int] = {}
        vectors: list[tuple] = []
        children: dict[int, dict] = {}
        steps = [live.moves(s) for s in range(live.n_states)]

        def number(v: tuple) -> int:
            k = numbers.get(v)
            if k is None:
                k = numbers[v] = len(vectors)
                vectors.append(v)
            return k

        def moves(k):
            if k not in children:
                v = vectors[k]
                if len(v) == 1:
                    # one state: each symbol leads to one state, same weight
                    (s, w), = v
                    children[k] = {a: number(((t, w),)) for a, t in steps[s]}
                else:
                    step: dict[int, dict] = {}
                    for s, w in v:
                        for a, t in steps[s]:
                            child = step.setdefault(a, {})
                            child[t] = child[t] + w if t in child else w
                    children[k] = {a: number(tuple(sorted(step[a].items())))
                                   for a in sorted(step)}
            return children[k].values()

        root = number(tuple(enumerate(left)))
        layers = [{root: 1}]
        for _ in range(depth):
            layer: dict[int, int] = {}
            for k, count in layers[-1].items():
                for child in moves(k):
                    layer[child] = layer.get(child, 0) + count
            layers.append(layer)
        weights = [sum(w * right[t] for t, w in v) for v in vectors]
        kids = [children.get(k, {}) for k in range(len(vectors))]
        return cls(root, kids, weights, scales, exact, layers)

    @classmethod
    def of_table(cls, table: Mapping, depth: int, exact: bool) -> "MassClasses":
        """The minimal automaton of a listed table, up to `depth`.

        Words are merged bottom-up, deepest length first, when they have
        the same mass (of the same type) and the same child classes.  The
        children of a word are contiguous in the sorted longer words, so
        each length is one scan of its sorted words beside the sorted
        words one symbol longer.  The weights are the exact values of the
        masses and every scale is 1, so a mass is its weight, rounded once
        to a float where the table has a float mass.  A word listed without
        its prefix is refused.
        """
        by_length: list[list] = [[] for _ in range(depth + 1)]
        for w in table:
            if len(w) <= depth:
                by_length[len(w)].append(w)
        if not by_length[0]:
            raise InputError("cylinder table lists no empty word")
        numbers: dict[tuple, int] = {}
        children: list[dict] = []
        weights: list = []
        layers: list[dict] = []
        longer: list = []  # the sorted words one symbol longer
        below: list = []  # their classes
        for n in range(depth, -1, -1):
            words = sorted(by_length[n])
            here = []
            layer: dict = {}
            i, end = 0, len(longer)
            for w in words:
                kids = []
                while i < end and longer[i][:-1] == w:
                    kids.append((longer[i][-1], below[i]))
                    i += 1
                m = table[w]
                key = (type(m), m, tuple(kids))
                k = numbers.get(key)
                if k is None:
                    k = numbers[key] = len(weights)
                    children.append(dict(kids))
                    weights.append(m if exact else Fraction(m))
                here.append(k)
                layer[k] = layer.get(k, 0) + 1
            if i < end:
                # the scan stops at the first word whose prefix is missing
                raise InputError(
                    f"cylinder table lists {longer[i]} without its prefix"
                )
            layers.append(layer)
            longer, below = words, here
        layers.reverse()
        return cls(below[0], children, weights, [(1, 1)] * (depth + 1), exact, layers)

    def _spread(self, k: int) -> dict:
        """child class -> number of symbols that lead to it from class k."""
        if k not in self._spreads:
            spread: dict[int, int] = {}
            for child in self.children[k].values():
                spread[child] = spread.get(child, 0) + 1
            self._spreads[k] = spread
        return self._spreads[k]

    def class_of(self, u: Word) -> int | None:
        """The class of u; None when u is off the table."""
        k = self.root
        for a in u:
            k = self.children[k].get(a)
            if k is None:
                return None
        return k

    def scaled(self, weight, n: int):
        """The mass w S_n of weight w at length n, (num, den) = `scales[n]`:
        w num on exact data, whose scales are (S_n, 1), else the float
        nearest w num / den (int / int and `float` round correctly)."""
        num, den = self.scales[n]
        return weight * num if self.exact else float(weight * num / den)

    def mass(self, k: int | None, n: int):
        """Mass of the length-n cylinders of class k, scaled once; 0 off
        the table."""
        if k is None:
            return 0
        if (k, n) not in self._masses:
            self._masses[k, n] = self.scaled(self.weights[k], n)
        return self._masses[k, n]

    def runs_descending(self, n: int) -> list:
        """(class, word count) of the length-n classes, largest weight (so
        largest mass) first; no mass is rounded."""
        if n not in self._runs:
            weights = self.weights
            self._runs[n] = sorted(
                self.layers[n].items(),
                key=lambda run: weights[run[0]],
                reverse=True,
            )
        return self._runs[n]

    def paths(self, template, start=None) -> dict:
        """class -> number of words fitting a fixed/free position template
        (per position a symbol, or None for any) that lead there from the
        classes of `start` (class -> word count; default the empty word)."""
        paths = {self.root: 1} if start is None else start
        for want in template:
            nxt: dict[int, int] = {}
            for k, c in paths.items():
                if want is None:
                    for child, symbols in self._spread(k).items():
                        nxt[child] = nxt.get(child, 0) + c * symbols
                elif want in self.children[k]:
                    child = self.children[k][want]
                    nxt[child] = nxt.get(child, 0) + c
            paths = nxt
        return paths

    def weight(self, paths: dict, length: int):
        """The class path counts times the class weights, for patterns of
        `length` symbols; None when no path is left, DepthError past the
        depth."""
        if length > self.depth:
            raise DepthError(f"pattern length {length} exceeds measure depth {self.depth}")
        if not paths:
            return None
        return sum(c * self.weights[k] for k, c in paths.items())

    def pattern_weight(self, template):
        """Total weight of the words matching a fixed/free position template
        (their exact mass is this weight times S_len); None when no word
        matches."""
        return self.weight(self.paths(template), len(template))

    def table(self) -> dict:
        """Every cylinder's mass, listed in lexicographic preorder; refused
        over MAX_TABLE_CYLINDERS before any word is listed."""
        _check_table_size(self.cylinders)
        table = {}
        stack = [((), self.root)]
        while stack:
            u, k = stack.pop()
            table[u] = self.mass(k, len(u))
            if len(u) < self.depth:
                # largest symbol first, so words leave the stack in order
                kids = reversed(self.children[k].items())
                stack.extend((u + (a,), c) for a, c in kids)
        return table


def _check_table_size(count: int) -> None:
    if count > MAX_TABLE_CYLINDERS:
        raise InputError(
            f"cylinder table of {count} words exceeds the cap {MAX_TABLE_CYLINDERS}"
        )


class _ClassTable(Mapping):
    """The cylinder table of mass classes: listed on first use, except its
    length, which the class word counts give."""

    def __init__(self, classes: MassClasses):
        self.classes = classes
        self._table: dict | None = None

    def _listed(self) -> dict:
        if self._table is None:
            self._table = self.classes.table()
        return self._table

    def __len__(self) -> int:
        return self.classes.cylinders

    def __getitem__(self, u):
        return self._listed()[u]

    def __iter__(self):
        return iter(self._listed())


class CylinderMeasure:
    """Masses of every admissible cylinder up to a fixed depth.

    Every measure carries mass classes, which answer `mass`,
    `pattern_mass` and the checks in `obstruct.suites` without listing
    words.  A Parry measure's table is its classes, listed only when
    read; a listed table (read from a file, or built word by word) gets
    its classes from `MassClasses.of_table` on construction.
    """

    def __init__(self, alphabet_size: int, depth: int, table: Mapping,
                 provenance: str, exact: bool):
        self.alphabet_size = alphabet_size
        self.depth = depth
        self.table = table
        self.provenance = provenance
        self.exact = exact
        if isinstance(table, _ClassTable):
            self.classes = table.classes
        else:
            self.classes = MassClasses.of_table(table, depth, exact)
        # length -> the table's words of that length, sorted; built on first use
        self._by_length: dict | None = None

    def _index(self) -> dict:
        if self._by_length is None:
            by_length: dict[int, list] = {}
            for w in self.table:
                by_length.setdefault(len(w), []).append(w)
            for words in by_length.values():
                words.sort()
            self._by_length = by_length
        return self._by_length

    def mass(self, u: Word):
        """Exact-or-float mass of [u]; inadmissible and unseen words get 0."""
        u = tuple(u)
        if len(u) > self.depth:
            raise DepthError(
                f"cylinder depth {len(u)} exceeds measure depth {self.depth}"
            )
        return self.classes.mass(self.classes.class_of(u), len(u))

    def mass_float(self, u: Word) -> float:
        return float(self.mass(u))

    def words_at(self, length: int) -> list[Word]:
        if length > self.depth:
            raise DepthError(
                f"length {length} exceeds measure depth {self.depth}"
            )
        return list(self._index().get(length, ()))

    def pattern_mass(self, template):
        """Total mass of words matching a fixed/free position template: their
        weight scaled (so rounded, for float data) once; 0 when none does."""
        total = self.classes.pattern_weight(template)
        return 0 if total is None else self.classes.scaled(total, len(template))

    def joint_mass(self, u: Word, gap: int, v: Word):
        """Mass of [u] intersected with the gap-shifted cylinder of v."""
        return self.pattern_mass(tuple(u) + (None,) * gap + tuple(v))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        # the cylinders of a mass class share one mass object: each is
        # rendered once, keyed by identity (hashing a value costs more)
        rendered: dict = {}
        entries = []
        for w in sorted(self.table, key=lambda w: (len(w), w)):
            m = self.table[w]
            key = id(m)
            if key not in rendered:
                if isinstance(m, (int, Fraction)):
                    f = Fraction(m)
                    rendered[key] = {"mass_num": str(f.numerator),
                                     "mass_den": str(f.denominator)}
                else:
                    rendered[key] = {"mass_float": f"{float(m):.17g}"}
            entries.append({"word": format_word(w, self.alphabet_size), **rendered[key]})
        return {
            "depth": self.depth,
            "alphabet_size": self.alphabet_size,
            "provenance": self.provenance,
            "entries": entries,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CylinderMeasure":
        try:
            depth = int(data["depth"])
            alphabet = int(data.get("alphabet_size", 10))
            provenance = str(data["provenance"])
            entries = data["entries"]
            table = {}
            exact = True
            for entry in entries:
                w = parse_word(str(entry["word"]), alphabet)
                if "mass_num" in entry:
                    table[w] = Fraction(int(entry["mass_num"]), int(entry["mass_den"]))
                else:
                    table[w] = float(entry["mass_float"])
                    if not math.isfinite(table[w]):
                        raise ValueError(f"mass of {entry['word']!r} is not finite")
                    exact = False
            if () not in table:
                raise KeyError("entries")
            # a prefix-closed table lists a word at every length to its depth
            longest = max(map(len, table))
            if not 0 <= depth <= longest:
                raise ValueError(f"depth {depth} is not in 0..{longest}, the longest word's length")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed measure file: {exc}") from exc
        return cls(
            alphabet_size=alphabet,
            depth=depth,
            table=table,
            provenance=provenance,
            exact=exact,
        )


def _verify_representative_tails(system) -> list:
    """Check that every live state the start reaches extends, and return
    the edge distance from the start to each state (None: unreached).

    Only those states carry representative points.  On digit-expansion
    presentations the least continuation from any state is the zero tail,
    so representatives are word + 0^infinity there.
    """
    pres = system.presentation
    dist = bfs_distances([list(d.values()) for d in pres.delta], pres.start)
    for s, d in enumerate(dist):
        if d is not None and s != pres.marker and not pres.delta[s]:
            raise InputError(
                f"state {s} admits no continuation; representative points undefined"
            )
    return dist


def _tail_prefix(pres, cache, state, length):
    key = (state, length)
    if key not in cache:
        cache[key] = pres.lex_min_tail(state, length)
    return cache[key]


def window_jump_pays(states: int, pairs: int, n: int) -> bool:
    """Whether the deepest window sums cost fewer multiplications as one
    jump along the recurrence (`Presentation.window_sums`) than as one
    n-term product sum per (state, state) pair, pairs n: 4 states^3 for the
    two eliminations, x^n mod mu as in `automata.jump_pays` with D <= 2
    states, and D^2 states / 2 + D states^2 <= 4 states^3 for the vectors
    f_j and the sums over j; no tuned constant."""
    return 8 * states ** 3 + 16 * states ** 2 * n.bit_length() < pairs * n


def empirical_mme(system, n: int, depth: int) -> CylinderMeasure:
    """Time-n empirical measure with exact rational cylinder masses.

    Representative points are word + least admissible tail (the zero tail
    on digit-expansion systems; verified to exist).  The mass of [u] is
    (1/n) sum over shifts k < n of the fraction of length-n words whose
    representative lies in the k-fold shift preimage of [u]; window
    positions past n read the representative tail exactly, and a tail the
    truncation marker leaves undecided raises HorizonError.

    A full window (k + |u| <= n) contributes state_counts(k)[s] *
    extensions(n - k - |u|)[t] for each state s whose walk of u ends at t.
    The window sums W(l, s, t) = sum_k state_counts(k)[s] * extensions(n - k -
    l)[t] are shared by every word of length l.  extensions(j)[t] sums
    extensions(j - 1) over the edges t -> t', so W(l, s, t) is the sum of
    W(l + 1, s, t') over those edges, plus state_counts(n - l)[s] when
    l >= 1: a shorter length costs additions.  At the deepest length every
    pair's sum comes from `Presentation.window_sums(n - depth + 1)` when
    `window_jump_pays`, and only count rows n - depth + 1..n are read, the
    first off the same jump (see `Presentation.state_counts`; row n at
    depth 0); otherwise all rows up to n are listed and a pair takes one
    C-level sum over s's count column and t's reversed extension column.
    The first shift at which s is reached, first[s], is its distance from
    the start.  No sum reads a poisoned extension count (None: it meets the
    truncation marker), which would need j = n - l - k >= 1 + the distance
    from t to the marker: that gives a walk from the start to the marker of
    length first[s] + l + dist(t) < n, and reading count row n has then
    raised HorizonError already.  A word costs one walk from each state
    plus its at most depth - 1 tail windows.  n above MAX_EMPIRICAL_N is
    refused before any counting, and a table of more than
    MAX_TABLE_CYLINDERS words (counted) before any word is listed.
    """
    if depth > n:
        raise InputError("measure depth cannot exceed n")
    if n < 1:
        raise InputError("n must be >= 1")
    if n > MAX_EMPIRICAL_N:
        raise InputError(f"empirical n {n} exceeds the cap {MAX_EMPIRICAL_N}")
    pres = system.presentation
    reach = _verify_representative_tails(system)
    _check_table_size(sum(pres.count_words(k) for k in range(depth + 1)))
    tails: dict = {}  # (state, length) -> least tail, for `_tail_prefix`
    # first shift at which each state is reached (n + 1: never)
    first = [n + 1 if d is None else min(d, n + 1) for d in reach]
    successors = [list(pres.delta[t].values()) for t in range(pres.n_states)]
    # pairs at the deepest length read shifts k <= deep_last and extension
    # rows j = deep - k
    deep = n - depth
    deep_last = min(deep, n - 1)
    pairs = pres.n_states * sum(f <= deep_last for f in first)
    if window_jump_pays(pres.n_states, pairs, deep + 1):
        deepest = pres.window_sums(deep + 1)
        # count rows deep..n, |L_n| the last; row deep is read at depth 0 only
        first_row = deep + (depth > 0)
        counts = [None] * (depth > 0) + list(pres.count_rows(n, first=first_row))
        if deep_last < deep:  # depth 0: the shift k = n is no window
            deepest = [[w - c for w in row] for row, c in zip(deepest, counts[0])]

        def deepest_sum(s, t):
            return deepest[s][t]
    else:
        # rows in increasing order, one step each
        state_counts = list(pres.count_rows(n))
        counts = state_counts[deep:]
        ext_rows = list(pres.count_rows(deep, extensions=True))
        # columns of the states some deepest pair uses, built on first use
        count_columns: dict[int, list[int]] = {}
        ext_columns: dict[int, list] = {}

        def deepest_sum(s, t):
            lo = first[s]
            if lo > deep_last:
                return 0
            if s not in count_columns:
                count_columns[s] = [row[s] for row in state_counts]
            if t not in ext_columns:
                ext_columns[t] = [row[t] for row in ext_rows]
            # no entry read is None: see the docstring
            return sum(map(
                mul,
                count_columns[s][lo:deep_last + 1],
                reversed(ext_columns[t][deep - deep_last:deep - lo + 1]),
            ))
    denom = n * sum(counts[-1])
    window_sums: dict[tuple[int, int, int], int] = {}

    def window(length, s, t):
        """W(length, s, t), filling the deeper sums it needs first."""
        stack = [(length, t)]
        while stack:
            ell, x = stack[-1]
            if (ell, s, x) in window_sums:
                stack.pop()
            elif ell == depth:
                window_sums[ell, s, x] = deepest_sum(s, x)
                stack.pop()
            else:
                todo = [(ell + 1, y) for y in successors[x]
                        if (ell + 1, s, y) not in window_sums]
                if todo:
                    stack.extend(todo)
                    continue
                stack.pop()
                w = sum(window_sums[ell + 1, s, y] for y in successors[x])
                window_sums[ell, s, x] = w + counts[depth - ell][s] if ell else w
        return window_sums[length, s, t]

    table: dict[Word, Fraction] = {}
    for length in range(depth + 1):
        last_full = min(n - length, n - 1)
        starts = [s for s in range(pres.n_states) if first[s] <= last_full]
        for u in system.enumerate_language(length):
            acc = 0
            for s in starts:
                t = pres.walk(u, state=s)
                if t is None:
                    continue
                if (length, s, t) not in window_sums:
                    window(length, s, t)
                acc += window_sums[length, s, t]
            for k in range(n - length + 1, n):
                head = n - k
                for s, c in enumerate(counts[k - deep]):
                    if not c:
                        continue
                    t = pres.walk(u[:head], state=s)
                    if t is None:
                        continue
                    if u[head:] == _tail_prefix(pres, tails, t, length - head):
                        acc += c
            table[u] = Fraction(acc, denom)
    return CylinderMeasure(
        alphabet_size=system.alphabet_size,
        depth=depth,
        table=table,
        provenance=f"empirical({n})",
        exact=True,
    )


def parry_measure(system, depth: int) -> CylinderMeasure:
    """Stationary Markov measure from Perron eigendata of the presentation.

    With eigenvalue x, right/left vectors r, l on the essential part and
    v_u[t] = sum of l_s over the states s whose walk of u ends at t, the mass
    of [u] is sum_t v_u[t] r_t / (x^|u| sum_s l_s r_s).  The vectors of the
    children of [u] follow from v_u alone, so the words are grouped into
    mass classes (`MassClasses`), one per distinct vector, with each
    class's children and word count at each length computed once; a mass
    is rounded, and the cylinder table listed, only when read.
    Exact field arithmetic when the eigenvalue is rational or quadratic.
    Otherwise l and r are the integer vectors L, R of the eigendata (each
    in its own unit, which cancels: the mass is homogeneous of degree 0 in
    l and in r) and x = p / q is the simplest rational in the enclosure
    (`simplest_between`: least denominator, so the scales S_n below carry
    about half the bits the enclosure's ends or midpoint would), so V and
    the sum over t are exact integers and the float mass is the rational
    acc S_n, acc = sum_t V_u[t] R_t and S_n = q^n / (p^n sum_s L_s R_s),
    rounded once by the correctly rounded integer division
    acc q^n / (p^n sum_s L_s R_s).  An exact scale is the field element
    S_n over 1, so an exact mass costs one multiplication.
    Refuses non-primitive presentations, and raises where enumerating the
    language up to `depth` would.
    """
    pres = system.presentation
    if not pres.is_primitive():
        raise NonMixingError(
            "presentation is not primitive; no stationary construction"
        )
    # fail as enumerating L_0..L_depth would: HorizonError when a shorter
    # path meets the truncation marker, else EnumerationCapError past the cap
    cap = system.enumeration_cap
    pres.state_counts(min(depth, cap))
    if depth > cap:
        raise EnumerationCapError(
            f"measure depth {depth} exceeds enumeration cap {cap}"
        )
    live = pres.essential_part()
    eigen = perron_eigendata(live)
    left, right = eigen.left, eigen.right
    total = sum(map(mul, left, right))
    if eigen.exact:
        scales = [(1 / total, 1)]
        for _ in range(depth):
            scales.append((scales[-1][0] / eigen.eigenvalue, 1))
    else:
        # S_n = q^n / (p^n sum_s L_s R_s), p / q the simplest rational in the enclosure
        mid = simplest_between(*eigen.enclosure)
        scales = [(1, total)]
        for _ in range(depth):
            num, den = scales[-1]
            scales.append((num * mid.denominator, den * mid.numerator))
    classes = MassClasses.parry(live, left, right, scales, eigen.exact, depth)
    lo, hi = eigen.enclosure
    if system.horizon is None:
        provenance = "parry-exact" if eigen.exact else "parry-numeric"
    else:
        provenance = (
            f"parry-truncated(horizon={system.horizon}, "
            f"cw_width={float(hi - lo):.3g}{_beta_gap(system, lo)})"
        )
    return CylinderMeasure(
        alphabet_size=system.alphabet_size,
        depth=depth,
        table=_ClassTable(classes),
        provenance=provenance,
        exact=eigen.exact,
    )


def _beta_gap(system, lo) -> str:
    """`, beta_gap=...` when the system carries an exact beta: beta - lo,
    with lo the lower end of the enclosure, so at least beta - rho."""
    beta = getattr(getattr(system, "expansion", None), "beta", None)
    if not isinstance(beta, (int, Fraction, QuadraticNumber)):
        return ""
    return f", beta_gap={float(beta - lo):.3g}"


def max_depth_gap(a: CylinderMeasure, b: CylinderMeasure, length: int) -> float:
    """Largest absolute mass difference over cylinders of the given length."""
    words = set(a.words_at(length)) | set(b.words_at(length))
    return max(abs(a.mass_float(w) - b.mass_float(w)) for w in words)
