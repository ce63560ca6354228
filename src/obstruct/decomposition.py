"""Core/suffix schemes and specification checking.

A scheme reads one number off every admissible word: the length of its
suffix piece.  The rest of the word is its core, and every class and
filtration level is derived from that length (`DecompositionScheme`).  No
scheme here has a prefix piece: for beta-shifts and their factors it is
always empty.  The beta scheme's suffix piece is the longest trailing
prefix of the expansion of 1 (the exact follower value, so the split is
unique and O(|v|)), and its core by construction ends in no prefix of the
expansion.

A scheme also says how its levels' gluing times are established
(`DecompositionScheme.gluing_time`): by default with the literal search
below; on a beta-shift by a structural certificate read off the
synchronizing state 0, for every segment length and number of segments.

Specification of a collection at depth j with gap tau is checked
literally: for every tuple of depth-extended words, some single word must
carry all of them at offsets spaced by the gap.  The check is exhaustive or
refused: the tuples are counted before any segment is listed, and a tuple
space over the budget is reported inconclusive without a search.  Whether a
tuple glues is decided set-at-a-time: the head class of the first segment
(the state its base block reaches and its depth tail) gives the set of
states the presentation can be in where the next segment starts, and the
merged template of the remaining segments is walked forward from that set;
the tuple glues when the last set is non-empty.  Head classes with one
entry set share their row of outcomes.  The glued word itself, the
lexicographically least one (free positions filled left to right, smallest
symbol first, so the all-zero gap word comes first), is searched for only
for the witnesses a report keeps and for the tuples whose sets meet the
truncation marker, where only that search can tell a glued word from a
HorizonError; see `check_specification`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .automata import bfs_distances
from .errors import InputError, SpecificationError
from .orbits import EntropyEstimate, OrbitCollection, count_separated, upper_entropy
from .words import Word, overlay

DEFAULT_TUPLE_BUDGET = 100_000
# passing and failing tuples a specification report keeps, each
WITNESS_LIMIT = 16
# segment lengths of the literal gluing searches of the CLI and of
# `obstruction_entropy_upper`
SEARCH_LENGTHS = range(1, 5)


class DecompositionScheme:
    """Splits every admissible word into a core and a suffix, read off one
    number: the suffix length.

    A scheme defines four things: `suffix_length`; its suffix class,
    `suffixes()`; `level_automaton(M)`, which the Gibbs class DP walks (the
    base class gives a word-carrying one); and, optionally,
    `level_counter(M)`, a closed-form separated count of level M.  The rest
    is derived here from the suffix length: the level G(M) holds the words
    whose suffix is at most M long, and the cores, level 0, the words with
    an empty suffix (no word outside the language is a core).  The
    collections list their words from the language with these tests; the
    levels count with the level counter.
    """

    name = "scheme"

    def __init__(self, system):
        self.system = system

    def suffix_length(self, v: Word) -> int:
        raise NotImplementedError

    def suffixes(self) -> OrbitCollection:
        raise NotImplementedError

    def level_counter(self, M: int):
        """Closed-form `counter(n, j)` of level M, or None: count listed words.
        A counter may keep partial sums on the scheme, for all its levels."""
        return None

    def in_cores(self, v: Word) -> bool:
        try:
            return self.suffix_length(v) == 0
        except InputError:
            return False

    def in_level(self, v: Word, M: int) -> bool:
        return self.suffix_length(v) <= M

    def cores(self) -> OrbitCollection:
        out = self.level_collection(0)
        out.label = f"{self.name}:cores"
        return out

    def boundary(self) -> OrbitCollection:
        """The obstruction collection: with no prefix piece, the suffix
        class."""
        out = self.suffixes()
        out.label = f"{self.name}:boundary"
        return out

    def level_collection(self, M: int) -> OrbitCollection:
        counter = self.level_counter(M)

        def at(n):
            # a length the level counter rules out lists nothing (the
            # counter, like `count_separated`, counts lengths n >= 1)
            if n >= 1 and counter is not None and counter(n, 0) == 0:
                return ()
            return tuple(self.level_words(M, n))

        return OrbitCollection(
            self.system, f"{self.name}:level{M}", at=at, counter=counter
        )

    def level_words(self, M: int, n: int) -> list[Word]:
        """The level-M words of length n, in lexicographic order."""
        return [v for v in self.system.enumerate_language(n) if self.in_level(v, M)]

    def gluing_time(self, M: int, j: int, tau_max: int) -> tuple:
        """(tau, note): the gluing time of level M at depth j and how it
        was established; or (None, why not).  tau_max bounds a search only:
        a certificate may return a larger gap, which the caller refuses.
        By default the literal search over segments of SEARCH_LENGTHS, kept
        by the degenerate scheme, `decomp --op spec`, `counting_suite`
        without a tau and acceptance criterion 3; beta and factor schemes
        certify."""
        result = min_gluing_time(self.system, self.level_collection(M), j=j,
                                 tau_max=tau_max, lengths=SEARCH_LENGTHS)
        if not result.found:
            return None, result.no_gluing_summary
        last = result.reports[-1]
        return result.tau, (
            f"literal search: {last.k_max} segments, lengths {list(last.lengths)}")

    def level_automaton(self, M: int):
        """(start, moves, member): `moves(state)` lists (symbol, next state)
        in increasing symbol order for the symbols a word in that state can
        read next, and a length-n word is in level M exactly when
        member(its state, n).  Generically the state carries the word
        itself, (word, presentation state), and member is `in_level`;
        schemes whose level is read off a walk install a finite one."""
        pres = self.system.presentation

        def moves(state):
            v, s = state
            return [(a, (v + (a,), t)) for a, t in pres.moves(s)]

        return ((), pres.start), moves, lambda state, n: self.in_level(state[0], M)


class BetaDecomposition(DecompositionScheme):
    """The split driven by the expansion of 1.

    Suffix piece: the longest suffix equal to a prefix of the expansion.
    Core: whatever precedes it, which then ends in no prefix of the
    expansion.
    """

    name = "beta"

    def suffix_length(self, v: Word) -> int:
        return self.system.suffix_match_length(v)

    def suffixes(self) -> OrbitCollection:
        system = self.system

        def counter(n, j):
            return system.presentation.extensions_from(system.match_state(n), j)

        return OrbitCollection.one_word(system, f"{self.name}:suffixes",
                                        system.expansion_prefix, counter)

    def __init__(self, system):
        super().__init__(system)
        self._level_rows: dict = {}  # (n, j) -> prefix sums, see level_counter

    def level_counter(self, M: int):
        """The sum over m <= min(M, n) of Z_(n-m) ext(match state m, j) (the
        n-words with exact match m are u d_1..d_m, u counted by Z_(n-m)),
        read off its prefix sums over m, kept per (n, j) for all levels and
        extended only to the min(M, n) asked, zero Z terms skipped: a query
        reads only what the sum reads, and raises where it raises."""
        system = self.system
        rows = self._level_rows

        def counter(n, j):
            top = min(M, n)
            row = rows.setdefault((n, j), [])
            if len(row) <= top:
                z, ext = system.core_counts(n), system.presentation.extensions_from
                total = row[-1] if row else 0
                for m in range(len(row), top + 1):
                    if z[n - m]:
                        total += z[n - m] * ext(system.match_state(m), j)
                    row.append(total)
            return row[top]

        return counter

    def gluing_time(self, M: int, j: int, tau_max: int) -> tuple:
        """Gap with which level-M segments glue at depth j, from state 0.

        State 0 reads the whole language and loops on the symbol 0.  A
        level-M segment's base block ends in a match state <= M and its
        depth tail j steps later; from there d steps reach state 0, and
        zeros stay there, so the next segment can follow after every gap of
        at least j + d.  The certificate is j + the largest such d: it holds
        for every segment length and any number of segments (the
        synchronizing-state form of specification), whatever tau_max.  Not
        established when a state reached is the truncation marker or has no
        path to state 0.
        """
        system = self.system
        pres = system.presentation
        # a larger match wraps onto the period, or lies past the marker
        top = min(M, pres.n_states - 1)
        reached = {system.match_state(m) for m in range(top + 1)}
        for _ in range(j):
            if pres.marker in reached:
                break
            reached = {t for s in reached for _, t in pres.moves(s)}
        if pres.marker in reached:
            return None, f"level {M} at depth {j} reaches the truncation marker"
        to_zero = bfs_distances(pres.sources(), 0)
        if any(to_zero[s] is None for s in reached):
            return None, (f"level {M} at depth {j} reaches a state with no "
                          "path to state 0 inside the stored horizon")
        tau = j + max(to_zero[s] for s in reached)
        return tau, "state-0 certificate: all lengths, any number of segments"

    def level_automaton(self, M: int):
        # the state is the exact suffix match, the level test m <= M
        return 0, self.system.match_moves, lambda m, n: m <= M


class DegenerateDecomposition(DecompositionScheme):
    """Everything is suffix: the core class holds only the empty word.

    Splits are total and the level sets have specification for trivial
    reasons, but the obstruction collection is the whole language, so the
    upper bound this scheme yields is vacuous.
    """

    name = "degenerate"

    def suffix_length(self, v: Word) -> int:
        if not self.system.is_word(v):
            raise InputError("word is not in the language")
        return len(v)

    def suffixes(self) -> OrbitCollection:
        return OrbitCollection.full_language(self.system, f"{self.name}:suffixes")

    def level_counter(self, M: int):
        # every word of length n <= M, and no longer one, is in level M
        full = OrbitCollection.full_language(self.system)
        return lambda n, j: count_separated(full, n, j) if n <= M else 0

    def level_automaton(self, M: int):
        pres = self.system.presentation
        return pres.start, pres.moves, lambda s, n: n <= M


def beta_decomposition(system) -> BetaDecomposition:
    """The expansion-driven split of the system's language."""
    return BetaDecomposition(system)


def degenerate_decomposition(system) -> DegenerateDecomposition:
    return DegenerateDecomposition(system)


def zero_padding_to_core(system, v: Word, k_max: int = 64) -> int:
    """Minimal number of appended zeros after which v becomes a good core.

    Appending zeros eventually kills every trailing expansion-prefix match
    (the expansion has no infinite run of zeros), so the answer is bounded
    by one more than its longest zero run.
    """
    for k in range(k_max + 1):
        if system.suffix_match_length(v + (0,) * k) == 0:
            return k
    raise SpecificationError(f"no zero padding up to {k_max} lands in the cores")


def filtration_coverage(system, scheme, M: int, n: int) -> Fraction:
    """Exact fraction of length-n words in the level-M set of the scheme."""
    if M < 0 or n < 1:
        raise InputError("need M >= 0 and n >= 1")
    level = count_separated(scheme.level_collection(M), n, 0)
    return Fraction(level, system.count_language(n))


# -- specification -----------------------------------------------------------------


class SpecificationReport:
    """Outcome of a gluing search over every tuple of orbit segments, or of
    its refusal when the tuple space exceeds the budget."""

    def __init__(self, depth: int, k_max: int, lengths: tuple, verdict: str,
                 exhaustive: bool, tuple_space: int, tuples_checked: int,
                 witnesses: tuple, failures: tuple):
        self.depth = depth
        self.k_max = k_max
        self.lengths = lengths
        # "pass" | "fail" | "inconclusive" (refused, not searched)
        self.verdict = verdict
        self.exhaustive = exhaustive  # every tuple was searched
        self.tuple_space = tuple_space  # segment tuples of 2..k_max segments
        self.tuples_checked = tuples_checked
        # (segment words, glued word) for the first passing tuples
        self.witnesses = witnesses
        self.failures = failures  # segment tuples with no glued word

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _merge_template(elements, gap: int, depth: int):
    """Overlay depth-extended segments at gap-spaced offsets; None on clash."""
    *offsets, end = itertools.accumulate(
        (len(w) - depth + gap for w in elements), initial=0
    )
    return overlay(zip(offsets, elements), end - gap + depth)


def _segment_pool(system, collection, lengths, depth):
    """Depth-extended segments, each with the state its base block reaches.

    A memoized collection keeps the pool in its `derived` dict, so a gluing
    time scan builds it once for all gaps.
    """
    pres = system.presentation
    key = ("segment pool", pres, tuple(lengths), depth)
    if collection.derived is not None and key in collection.derived:
        return collection.derived[key]
    tails: dict = {}  # state -> its depth continuations
    pool = []
    for n in sorted(set(lengths)):
        base = collection.at(n)
        if not base:
            continue
        for v in base:
            state = pres.walk(v)
            if state is None:
                raise InputError(f"collection word {v} not in the language")
            if state not in tails:
                tails[state] = pres.tails(state, depth)
            for tail in tails[state]:
                pool.append((v + tail, state))
    if collection.derived is not None:
        collection.derived[key] = pool
    return pool


class _StateSets:
    """Sets of presentation states, numbered as they are met, with the set
    each one steps to on a template symbol (None: any symbol).

    Set 0 stands for a walk that met the truncation marker before the end of
    its template: a set holding the marker steps to it, and it to itself.
    Only sets without the marker are stepped, through `Presentation.moves`,
    so a walk never moves on from the marker.
    """

    MET_MARKER = 0

    def __init__(self, presentation):
        self.presentation = presentation
        self.numbers: dict[frozenset, int] = {}
        self.sets: list = [None]
        self.steps: list[dict] = [{}]

    def number(self, states) -> int:
        states = frozenset(states)
        n = self.numbers.get(states)
        if n is None:
            n = self.numbers[states] = len(self.sets)
            self.sets.append(states)
            self.steps.append({})
        return n

    def _step(self, n: int, want) -> int:
        states = self.sets[n]
        if states is None or self.presentation.marker in states:
            nxt = self.MET_MARKER
        else:
            moves = self.presentation.moves
            nxt = self.number(
                t for s in states for a, t in moves(s) if want is None or a == want
            )
        self.steps[n][want] = nxt
        return nxt

    def walk(self, n: int, template) -> int:
        """The set after walking the template from set n."""
        steps = self.steps
        for want in template:
            nxt = steps[n].get(want)
            n = self._step(n, want) if nxt is None else nxt
        return n


def check_specification(
    system,
    collection: OrbitCollection,
    j: int,
    tau: int,
    k_max: int = 2,
    lengths=range(1, 6),
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> SpecificationReport:
    """Check that every segment tuple glues with gap `tau` at depth `j`.

    Segments are the collection's base words over `lengths`, extended to
    depth n + j; a tuple passes when one admissible word realizes every
    extended segment at offsets spaced `tau` past each base block.  The
    tuples of 2..k_max segments are counted first, from the collection's
    separated counts; when there are more than `budget`, no segment is
    listed and the report is inconclusive, with nothing checked.  The count
    does not depend on `tau`, so such a collection is refused at every gap.

    Pass or fail is read off state sets, with the results of one search per
    tuple.  In the template of a tuple (a, *rest) the first h = |a| - j
    positions hold the base block of `a` alone, which reaches one state s;
    from there the head class of `a` (s and its depth tail) reads the tail
    and tau - j free symbols, or, when tau < j, only tail[:tau], and the
    first j - tau symbols of the rest's template must equal tail[tau:].
    The states it can be in after that form its entry set.  The rest's
    merged template is walked forward from the entry set, one set per
    position, and the tuple passes exactly when the last set is non-empty.
    Head classes with the same entry set (and tail symbols to match) share
    one row of results over all rests.

    The lexicographically least glued word is searched for (left to right,
    smallest symbol first) only for the witnesses the report keeps, and
    for the tuples whose sets hold the truncation marker before the end of
    the template: only those can meet the marker, so their search passes or
    raises HorizonError.  These searches run head class by head class, in
    the order the classes first appear in product order, so the first tuple
    whose search meets the marker raises as it would in product order.
    """
    if k_max < 2:
        raise InputError("k_max must be at least 2")
    if j < 0 or tau < 0:
        raise InputError("depth and gap must be non-negative")
    lengths = tuple(sorted(set(lengths)))
    # len(_segment_pool(...)) per length, counted without listing a segment
    sizes = {n: count_separated(collection, n, j) for n in lengths}
    total = sum(sum(sizes.values()) ** k for k in range(2, k_max + 1))
    if total > budget:
        return SpecificationReport(
            depth=j,
            k_max=k_max,
            lengths=lengths,
            verdict="inconclusive",
            exhaustive=False,
            tuple_space=total,
            tuples_checked=0,
            witnesses=(),
            failures=(),
        )
    # a length with no segments is not listed: a closed-form count of 0 can
    # stand for a whole language of words outside the collection
    pool = _segment_pool(system, collection, [n for n in lengths if sizes[n]], j)
    # head class of each segment: its base block's state and its depth tail
    heads: dict = {}
    head_of = [heads.setdefault((s, w[len(w) - j :]), len(heads)) for w, s in pool]
    head_list = list(heads)
    sets = _StateSets(system.presentation)

    def row_key(head):
        """(entry set, tail symbols the rest must start with) of a head class."""
        state, tail = head_list[head]
        start = sets.number((state,))
        if tau < j:
            return sets.walk(start, tail[:tau]), tail[tau:]
        return sets.walk(start, tail + (None,) * (tau - j)), ()

    def glue_tail(head, rest):
        """Glued word from the end of the first base block, or None."""
        state, tail = head_list[head]
        template = _merge_template((tail, *(pool[i][0] for i in rest)), tau, j)
        if template is None:
            return None
        return next(system.presentation.completions(state, template), None)

    witnesses, failures = [], []
    checked = 0
    for k in range(2, k_max + 1):
        rests = list(itertools.product(range(len(pool)), repeat=k - 1))
        if k == 2:
            templates = [w for w, _ in pool]  # a lone segment is its template
        else:
            templates = [_merge_template([pool[i][0] for i in rest], tau, j)
                         for rest in rests]
        rows = {}  # row key -> (failing, passing, undecided rests)
        by_head = {}  # head class -> (failing rests, passing rests, glued tails)
        for first, head in enumerate(head_of):
            if head not in by_head:
                key = row_key(head)
                if key not in rows:
                    failing, passing, undecided = rows[key] = [], [], []
                    entry, match = key
                    for i, template in enumerate(templates):
                        if template is None or template[: len(match)] != match:
                            failing.append(i)
                            continue
                        end = sets.walk(entry, template)
                        if end == sets.MET_MARKER:
                            undecided.append(i)
                        elif sets.sets[end]:
                            passing.append(i)
                        else:
                            failing.append(i)
                failing, passing, undecided = rows[key]
                # only these searches can meet the marker: each passes or raises
                glued = {i: glue_tail(head, rests[i]) for i in undecided}
                if undecided:
                    failing = sorted(
                        failing + [i for i in undecided if glued[i] is None]
                    )
                    passing = sorted(
                        passing + [i for i in undecided if glued[i] is not None]
                    )
                by_head[head] = (failing, passing, glued)
            failing, passing, glued = by_head[head]
            checked += len(rests)
            a = pool[first][0]
            for i in failing[: WITNESS_LIMIT - len(failures)]:
                failures.append((a,) + tuple(pool[r][0] for r in rests[i]))
            for i in passing[: WITNESS_LIMIT - len(witnesses)]:
                if i not in glued:
                    glued[i] = glue_tail(head, rests[i])
                elements = (a,) + tuple(pool[r][0] for r in rests[i])
                witnesses.append((elements, a[: len(a) - j] + glued[i]))
    return SpecificationReport(
        depth=j,
        k_max=k_max,
        lengths=lengths,
        verdict="fail" if failures else "pass",
        exhaustive=True,
        tuple_space=total,
        tuples_checked=checked,
        witnesses=tuple(witnesses),
        failures=tuple(failures),
    )


class GluingResult:
    """Smallest passing gap, with the report of each gap tried."""

    def __init__(self, tau: int | None, reports: tuple, budget: int):
        self.tau = tau
        self.reports = reports
        self.budget = budget  # the tuple budget each check had

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    @property
    def found(self) -> bool:
        return self.tau is not None

    @property
    def no_gluing_summary(self) -> str:
        """Why no gap was found: every gap failed, or the check was refused."""
        last = self.reports[-1]
        if last.exhaustive:
            # an exhaustive failing scan tried every gap 0..tau_max
            return f"no gluing time up to {len(self.reports) - 1}"
        return (
            f"not searched: {last.tuple_space} segment tuples exceed "
            f"the budget {self.budget}"
        )


def min_gluing_time(
    system,
    collection: OrbitCollection,
    j: int = 0,
    tau_max: int = 4,
    k_max: int = 2,
    lengths=range(1, 6),
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> GluingResult:
    """Smallest gap (up to tau_max) at which the collection glues.

    A refused check ends the scan with that one report: the tuple space
    does not depend on the gap, so every later gap would be refused too.
    The collection's words of each length, and its segment pool, are
    listed once for all gaps.
    """
    if tau_max < 0:
        raise InputError("tau_max must be >= 0")
    collection = collection.memoized()
    reports = []
    for tau in range(tau_max + 1):
        rep = check_specification(
            system, collection, j, tau, k_max=k_max, lengths=lengths, budget=budget
        )
        reports.append(rep)
        if rep.passed:
            return GluingResult(tau=tau, reports=tuple(reports), budget=budget)
        if not rep.exhaustive:
            break
    return GluingResult(tau=None, reports=tuple(reports), budget=budget)


def obstruction_entropy_upper(
    system,
    scheme: DecompositionScheme,
    j: int,
    n_max: int,
    certify_levels=(0, 1, 2),
    tau_max: int = 4,
) -> EntropyEstimate:
    """Growth rate of the scheme's obstruction collection at depth j.

    Each requested filtration level must first produce a gluing-time
    certificate; the returned exact rate (`upper_entropy`) then
    upper-bounds the infimum, over admissible schemes, of the obstruction
    growth at this scale.
    """
    for M in certify_levels:
        result = min_gluing_time(
            system,
            scheme.level_collection(M),
            j=j,
            tau_max=tau_max,
            lengths=SEARCH_LENGTHS,
        )
        if not result.found:
            raise SpecificationError(
                f"level {M} of scheme {scheme.name!r} at depth {j}: "
                f"{result.no_gluing_summary}"
            )
    return upper_entropy(scheme.boundary(), j, n_max)

