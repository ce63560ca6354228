"""Prefix/core/suffix splitters and specification checking.

Every admissible word is split into three pieces: here the split is the
one induced by the expansion of 1, with an empty prefix piece, a suffix
piece equal to the longest trailing prefix of the expansion (the exact
follower value, so the split is unique and O(|v|)), and a core that by
construction ends in no prefix of the expansion.

Specification of a collection at depth j with gap tau is checked
literally: for every sampled tuple of depth-extended words, some single
word must carry all of them at offsets spaced by the gap.  The search
fills the free positions left-to-right, smallest symbol first, so the
all-zero gap word is tried before anything else.  It is memoised on the
head class of the first segment (the state its base block reaches and its
depth tail) and the remaining segments, which fix everything the search
does past that base block, so each (head class, rest) is searched once;
see `check_specification`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import HorizonError, InputError, SpecificationError
from .orbits import EntropyEstimate, OrbitCollection, upper_entropy
from .words import EMPTY, Word

DEFAULT_TUPLE_BUDGET = 100_000


class DecompositionScheme:
    """Assigns to every admissible word a (prefix, core, suffix) length split."""

    name = "scheme"

    def __init__(self, system):
        self.system = system

    def split(self, v: Word) -> tuple[int, int, int]:
        raise NotImplementedError

    def in_prefixes(self, v: Word) -> bool:
        raise NotImplementedError

    def in_cores(self, v: Word) -> bool:
        raise NotImplementedError

    def in_suffixes(self, v: Word) -> bool:
        raise NotImplementedError

    def in_level(self, v: Word, M: int) -> bool:
        p, _, s = self.split(v)
        return p <= M and s <= M

    # collections; subclasses may install fast counters
    def prefixes(self) -> OrbitCollection:
        return OrbitCollection.from_predicate(
            self.system, self.in_prefixes, f"{self.name}:prefixes"
        )

    def cores(self) -> OrbitCollection:
        return OrbitCollection.from_predicate(
            self.system, self.in_cores, f"{self.name}:cores"
        )

    def suffixes(self) -> OrbitCollection:
        return OrbitCollection.from_predicate(
            self.system, self.in_suffixes, f"{self.name}:suffixes"
        )

    def boundary(self) -> OrbitCollection:
        """Prefix and suffix words together (the obstruction collection)."""
        return OrbitCollection.from_predicate(
            self.system,
            lambda v: self.in_prefixes(v) or self.in_suffixes(v),
            f"{self.name}:boundary",
        )

    def level(self, M: int) -> "FiltrationLevel":
        return FiltrationLevel(self, M)

    def level_collection(self, M: int) -> OrbitCollection:
        return OrbitCollection.from_predicate(
            self.system, lambda v: self.in_level(v, M), f"{self.name}:level{M}"
        )

    def level_words(self, M: int, n: int) -> list[tuple[Word, int]]:
        """(word, end state) for the level-M words of length n, in
        lexicographic order; generic enumeration fallback."""
        walk = self.system.presentation.walk
        return [
            (v, walk(v))
            for v in self.system.enumerate_language(n)
            if self.in_level(v, M)
        ]

    def coverage_count(self, M: int, n: int) -> int:
        """|level-M words of length n|; generic enumeration fallback."""
        return sum(1 for v in self.system.enumerate_language(n) if self.in_level(v, M))


@dataclass(frozen=True)
class FiltrationLevel:
    """Words whose prefix and suffix pieces both have length at most M."""

    scheme: DecompositionScheme
    M: int

    def member(self, v: Word) -> bool:
        return self.scheme.in_level(v, self.M)

    def collection(self) -> OrbitCollection:
        return self.scheme.level_collection(self.M)


class BetaDecomposition(DecompositionScheme):
    """The split driven by the expansion of 1.

    Prefix piece: always empty.  Suffix piece: the longest suffix equal to
    a prefix of the expansion.  Core: whatever precedes it, which then ends
    in no prefix of the expansion.
    """

    name = "beta"

    def split(self, v: Word) -> tuple[int, int, int]:
        s = self.system.suffix_match_length(v)
        return 0, len(v) - s, s

    def in_prefixes(self, v: Word) -> bool:
        return v == EMPTY

    def in_cores(self, v: Word) -> bool:
        if v == EMPTY:
            return True
        try:
            return self.system.suffix_match_length(v) == 0
        except InputError:
            return False

    def in_suffixes(self, v: Word) -> bool:
        return v == self.system.expansion_prefix(len(v))

    def cores(self) -> OrbitCollection:
        return OrbitCollection.from_match_predicate(
            self.system, lambda m, n: m == 0, f"{self.name}:cores"
        )

    def level_collection(self, M: int) -> OrbitCollection:
        return OrbitCollection.from_match_predicate(
            self.system, lambda m, n: m <= M, f"{self.name}:level{M}"
        )

    def suffixes(self) -> OrbitCollection:
        system = self.system

        def at(n):
            return (system.expansion_prefix(n),)

        def counter(n, j):
            return system.presentation.extensions_from(system.match_state(n), j)

        return OrbitCollection(
            system, f"{self.name}:suffixes", at=at, counter=counter
        )

    def boundary(self) -> OrbitCollection:
        # the prefix class holds only the empty word, so for n >= 1 the
        # obstruction collection is exactly the suffix class
        out = self.suffixes()
        out.label = f"{self.name}:boundary"
        return out

    def level_words(self, M: int, n: int) -> list[tuple[Word, int]]:
        # the level of a word is its exact match, which the walk carries
        system = self.system
        return [
            (v, system.match_state(m))
            for v, m in system.enumerate_matches(n)
            if m <= M
        ]

    def coverage_count(self, M: int, n: int) -> int:
        z = self.system.core_counts(n)
        return sum(z[n - m] for m in range(min(M, n) + 1))


class DegenerateDecomposition(DecompositionScheme):
    """Everything is suffix: core and prefix classes hold only the empty word.

    Splits are total and the level sets have specification for trivial
    reasons, but the obstruction collection is the whole language, so the
    upper bound this scheme yields is vacuous.
    """

    name = "degenerate"

    def split(self, v: Word) -> tuple[int, int, int]:
        if not self.system.is_word(v):
            raise InputError("word is not in the language")
        return 0, 0, len(v)

    def in_prefixes(self, v: Word) -> bool:
        return v == EMPTY

    def in_cores(self, v: Word) -> bool:
        return v == EMPTY

    def in_suffixes(self, v: Word) -> bool:
        return self.system.is_word(v)

    def prefixes(self) -> OrbitCollection:
        return _empty_word_class(self.system, f"{self.name}:prefixes")

    def cores(self) -> OrbitCollection:
        return _empty_word_class(self.system, f"{self.name}:cores")

    def suffixes(self) -> OrbitCollection:
        return OrbitCollection.full_language(self.system, f"{self.name}:suffixes")

    def boundary(self) -> OrbitCollection:
        return OrbitCollection.full_language(self.system, f"{self.name}:boundary")

    def level_collection(self, M: int) -> OrbitCollection:
        system = self.system

        def at(n):
            return tuple(system.enumerate_language(n)) if n <= M else ()

        def counter(n, j):
            if n > M:
                return 0
            counts = system.presentation.state_counts(n)
            ext = system.presentation.extensions_from
            return sum(c * ext(s, j) for s, c in enumerate(counts) if c)

        return OrbitCollection(system, f"{self.name}:level{M}", at=at, counter=counter)

    def coverage_count(self, M: int, n: int) -> int:
        return self.system.count_language(n) if n <= M else 0


def _empty_word_class(system, label) -> OrbitCollection:
    """The class holding only the empty word: no words of any length n >= 1."""
    return OrbitCollection(
        system,
        label,
        at=lambda n: (EMPTY,) if n == 0 else (),
        counter=lambda n, j: 0,
    )


def beta_decomposition(system) -> BetaDecomposition:
    """The expansion-driven split of the system's language."""
    return BetaDecomposition(system)


def degenerate_decomposition(system) -> DegenerateDecomposition:
    return DegenerateDecomposition(system)


def split(scheme: DecompositionScheme, v: Word) -> tuple[int, int, int]:
    """The (prefix, core, suffix) lengths of v under the scheme."""
    return scheme.split(v)


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
    return Fraction(scheme.coverage_count(M, n), system.count_language(n))


# -- specification -----------------------------------------------------------------


@dataclass(frozen=True)
class SpecificationReport:
    """Outcome of a gluing search over sampled tuples of orbit segments."""

    collection: str
    depth: int
    gap: int
    k_max: int
    lengths: tuple
    verdict: str  # "pass" | "fail"
    exhaustive: bool
    tuples_checked: int
    witnesses: tuple  # (segment words, glued word) for a sample of passing tuples
    failures: tuple  # segment tuples with no glued word

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _merge_template(elements, gap: int, depth: int):
    """Overlay depth-extended segments at gap-spaced offsets; None on clash."""
    total = sum(len(w) - depth for w in elements) + (len(elements) - 1) * gap + depth
    template: list[int | None] = [None] * total
    offset = 0
    for w in elements:
        for i, a in enumerate(w):
            cur = template[offset + i]
            if cur is not None and cur != a:
                return None
            template[offset + i] = a
        offset += (len(w) - depth) + gap
    return template


def _fill_template(presentation, template, state=None, pos=0):
    """Lexicographically least admissible completion of the template, or None."""
    if state is None:
        state = presentation.start
    if pos == len(template):
        return ()
    if state == presentation.marker:
        raise HorizonError("gluing search would continue past the stored horizon")
    want = template[pos]
    symbols = (
        (want,) if want is not None else tuple(sorted(presentation.delta[state]))
    )
    for a in symbols:
        nxt = presentation.delta[state].get(a)
        if nxt is None:
            continue
        rest = _fill_template(presentation, template, nxt, pos + 1)
        if rest is not None:
            return (a,) + rest
    return None


def _segment_pool(system, collection, lengths, depth):
    """Depth-extended segments, each with the state its base block reaches."""
    pool = []
    for n in sorted(set(lengths)):
        base = collection.at(n)
        if not base:
            continue
        for v in base:
            state = system.presentation.walk(v)
            if state is None:
                raise InputError(f"collection word {v} not in the language")
            for tail in system.presentation.tails(state, depth):
                pool.append((v + tail, state))
    return pool


def check_specification(
    system,
    collection: OrbitCollection,
    j: int,
    tau: int,
    k_max: int = 2,
    lengths=range(1, 6),
    sample: str = "exhaustive",
    budget: int = DEFAULT_TUPLE_BUDGET,
    seed: int = 0,
    witness_limit: int = 16,
) -> SpecificationReport:
    """Check that sampled segment tuples glue with gap `tau` at depth `j`.

    Segments are the collection's base words over `lengths`, extended to
    depth n + j; a tuple passes when one admissible word realizes every
    extended segment at offsets spaced `tau` past each base block.  The
    check is exhaustive when the tuple space fits the budget (or when
    `sample` forces it); otherwise tuples are sampled with a fixed seed and
    the report says so.

    The search is memoised, with the same results as one search per tuple.
    In the template of a tuple (a, *rest) the first h = |a| - j positions
    hold the base block of `a` alone (the next segment starts at h + tau),
    so the search walks them to the state s that the base block reaches,
    and from there it is the search on the template of (a[h:], *rest).  The
    glued word is a[:h] followed by the result for the key (s, a[h:], rest),
    the head class of `a` with `rest`, and each key is searched once.
    Exhaustively, one row of results over all rests is built per head class,
    the first time the class appears in product order, so the cost is one
    sub-search per (head class, rest), and the first tuple whose search
    meets the truncation marker raises as it would in product order;
    tuples and glued words are built only for the reported witnesses and
    failures.  Sampled tuples keep their seeded draws and go through the
    same memo one at a time.
    """
    if k_max < 2:
        raise InputError("k_max must be at least 2")
    if j < 0 or tau < 0:
        raise InputError("depth and gap must be non-negative")
    pool = _segment_pool(system, collection, lengths, j)
    # head class of each segment: its base block's state and its depth tail
    heads: dict = {}
    head_of = [heads.setdefault((s, w[len(w) - j :]), len(heads)) for w, s in pool]
    head_list = list(heads)
    sizes = [len(pool) ** k for k in range(2, k_max + 1)]
    total = sum(sizes)
    exhaustive = sample == "all" or total <= budget
    witnesses, failures = [], []
    checked = 0

    def glue_tail(head, rest):
        """Glued word from the end of the first base block, or None."""
        state, tail = head_list[head]
        template = _merge_template(
            (tail,) + tuple(pool[i][0] for i in rest), tau, j
        )
        if template is None:
            return None
        return _fill_template(system.presentation, template, state)

    def record(first, rest, tail):
        a = pool[first][0]
        elements = (a,) + tuple(pool[i][0] for i in rest)
        if tail is None:
            failures.append(elements)
        else:
            witnesses.append((elements, a[: len(a) - j] + tail))

    if exhaustive:
        for k in range(2, k_max + 1):
            rests = list(itertools.product(range(len(pool)), repeat=k - 1))
            rows = {}  # head class -> (glued tails, failing rests, passing rests)
            for first, head in enumerate(head_of):
                if head not in rows:
                    row = [glue_tail(head, rest) for rest in rests]
                    rows[head] = (
                        row,
                        [i for i, g in enumerate(row) if g is None],
                        [i for i, g in enumerate(row) if g is not None],
                    )
                row, failing, passing = rows[head]
                checked += len(rests)
                for i in failing[: witness_limit - len(failures)]:
                    record(first, rests[i], None)
                for i in passing[: witness_limit - len(witnesses)]:
                    record(first, rests[i], row[i])
    else:
        rng = random.Random(seed)
        per_k = max(1, budget // max(1, k_max - 1))
        memo = {}
        # choosing an index consumes the same draws as choosing the segment
        indices = range(len(pool))
        for k in range(2, k_max + 1):
            for _ in range(min(per_k, len(pool) ** k)):
                first, *rest = [rng.choice(indices) for _ in range(k)]
                key = (head_of[first], tuple(rest))
                if key not in memo:
                    memo[key] = glue_tail(*key)
                checked += 1
                found = failures if memo[key] is None else witnesses
                if len(found) < witness_limit:
                    record(first, key[1], memo[key])
    verdict = "fail" if failures else "pass"
    return SpecificationReport(
        collection=collection.label,
        depth=j,
        gap=tau,
        k_max=k_max,
        lengths=tuple(sorted(set(lengths))),
        verdict=verdict,
        exhaustive=exhaustive,
        tuples_checked=checked,
        witnesses=tuple(witnesses),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class GluingResult:
    """Smallest passing gap, or the best failing evidence."""

    tau: int | None
    reports: tuple

    @property
    def found(self) -> bool:
        return self.tau is not None

    @property
    def best_failure(self):
        if self.found or not self.reports:
            return None
        last = self.reports[-1]
        return last.failures[0] if last.failures else None


def min_gluing_time(
    system,
    collection: OrbitCollection,
    j: int = 0,
    tau_max: int = 4,
    k_max: int = 2,
    lengths=range(1, 6),
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> GluingResult:
    """Smallest gap (up to tau_max) at which the collection glues exhaustively."""
    if tau_max < 0:
        raise InputError("tau_max must be >= 0")
    reports = []
    for tau in range(tau_max + 1):
        rep = check_specification(
            system, collection, j, tau, k_max=k_max, lengths=lengths, budget=budget
        )
        reports.append(rep)
        if rep.passed and rep.exhaustive:
            return GluingResult(tau=tau, reports=tuple(reports))
    return GluingResult(tau=None, reports=tuple(reports))


def obstruction_entropy_upper(
    system,
    scheme: DecompositionScheme,
    j: int,
    n_max: int,
    certify_levels=(0, 1, 2),
    tau_max: int = 4,
    certify_lengths=range(1, 5),
    k_max: int = 2,
) -> EntropyEstimate:
    """Growth of the scheme's obstruction collection at depth j.

    Each requested filtration level must first produce a gluing-time
    certificate; the returned estimate then upper-bounds the infimum, over
    admissible schemes, of the obstruction growth at this scale.
    """
    for M in certify_levels:
        result = min_gluing_time(
            system,
            scheme.level_collection(M),
            j=j,
            tau_max=tau_max,
            k_max=k_max,
            lengths=certify_lengths,
        )
        if not result.found:
            raise SpecificationError(
                f"level {M} of scheme {scheme.name!r} has no gluing time "
                f"up to {tau_max} at depth {j}"
            )
    return upper_entropy(scheme.boundary(), j, n_max)


def obstruction_entropy_profile(
    system, scheme: DecompositionScheme, depths, n_max: int, **kwargs
) -> dict:
    """Fixed-scale obstruction bounds over a range of depths.

    The scale-free quantity is the limit of these values as the depth
    grows; the profile makes the (here: flat) dependence inspectable.
    """
    return {
        j: obstruction_entropy_upper(system, scheme, j, n_max, **kwargs)
        for j in depths
    }
