"""Sliding-block images of beta-shifts and their induced decompositions.

A window-k code maps admissible k-blocks to output symbols.  The image
shift is presented exactly by a subset construction over (state, window)
configurations.  `FactorSystem` answers the same `PresentedShift` protocol
as the source, so image languages, image measures, and gluing searches all
run on the same machinery.  A subset holding a configuration at the
source's truncation marker becomes the image's marker, so a truncated
source makes the image raise HorizonError where the source would.

The induced suffix length of an image word is the minimal suffix length
over its preimage words, so the good-core class downstairs is as large as
the upstairs structure allows.

Expansivity obstructions are probed through the agreeing-pair automaton,
a `Presentation` over pair symbols: its states are ordered pairs of source
configurations plus a flag recording whether the two label paths have
differed.  Its length-n word counts are exactly the ordered pairs of
source n-words with equal images; a reachable cycle through a flagged
state certifies two distinct points with the same image sequence.  At
symbolic output scales, agreement within any fixed scale at all orders
already forces full agreement, so one automaton answers every depth.
"""

from __future__ import annotations

import math

from .automata import (MAX_ENUMERATED_WORDS, Presentation, PresentedShift,
                       check_enumeration_cap)
from .decomposition import DecompositionScheme
from .errors import EnumerationCapError, InputError
from .orbits import OrbitCollection
from .words import EMPTY, Word, format_word, parse_word

PAIR_STATE_CAP = 20_000
SUBSET_STATE_CAP = 50_000
# blocks in each concatenation of the separated core pair that is checked
# literally to be a word, in all 2^M_VERIFY orders
M_VERIFY = 3


class BlockCode:
    """A total map from admissible k-blocks to output symbols."""

    def __init__(self, window: int, rule: dict, output_alphabet: int):
        if window < 1:
            raise InputError("window must be >= 1")
        for block, out in rule.items():
            if len(block) != window:
                raise InputError(f"rule block {block} has wrong length")
            if not 0 <= out < output_alphabet:
                raise InputError(f"output symbol {out} out of range")
        self.window = window
        self.rule = rule
        self.output_alphabet = output_alphabet

    def validate(self, system) -> None:
        """The rule must cover every admissible window of the system."""
        for block in system.enumerate_language(self.window):
            if block not in self.rule:
                raise InputError(
                    f"rule undefined on admissible block {block}"
                )

    def output(self, block: Word) -> int:
        try:
            return self.rule[block]
        except KeyError:
            raise InputError(f"rule undefined on block {block}") from None

    @property
    def is_constant(self) -> bool:
        return len(set(self.rule.values())) <= 1

    @classmethod
    def identity(cls, alphabet_size: int) -> "BlockCode":
        return cls(1, {(a,): a for a in range(alphabet_size)}, alphabet_size)

    @classmethod
    def merge_all(cls, alphabet_size: int) -> "BlockCode":
        return cls(1, {(a,): 0 for a in range(alphabet_size)}, 1)

    @classmethod
    def xor(cls) -> "BlockCode":
        return cls(2, {(a, b): a ^ b for a in (0, 1) for b in (0, 1)}, 2)

    @classmethod
    def from_file(cls, path, alphabet_size: int = 10) -> "BlockCode":
        rule = {}
        window = None
        try:
            with open(path, "r", encoding="ascii") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read code file: {exc}") from exc
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "->" not in line:
                raise InputError(f"bad code line {line!r}")
            left, right = line.split("->", 1)
            block = parse_word(left, alphabet_size)
            try:
                out = int(right.strip())
            except ValueError:
                raise InputError(f"bad output symbol in code line {line!r}") from None
            if window is None:
                window = len(block)
            elif window != len(block):
                raise InputError("mixed block lengths in code file")
            rule[block] = out
        if not rule:
            raise InputError("empty code file")
        return cls(window, rule, max(rule.values()) + 1)

    def to_file(self, path, alphabet_size: int = 10) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for block in sorted(self.rule):
                fh.write(
                    f"{format_word(block, alphabet_size)} -> {self.rule[block]}\n"
                )


def apply_code(code: BlockCode, v: Word) -> Word:
    """Slide the window over v; output length is len(v) - window + 1."""
    k = code.window
    if len(v) < k:
        raise InputError(f"word of length {len(v)} shorter than window {k}")
    return tuple(code.output(v[i : i + k]) for i in range(len(v) - k + 1))


def factor_language(system, code: BlockCode, n: int) -> list[Word]:
    """Sorted deduplicated images of the length-(n + k - 1) source words."""
    k = code.window
    if n + k - 1 > system.enumeration_cap:
        raise EnumerationCapError(
            f"image length {n} needs source enumeration at {n + k - 1}, "
            f"beyond cap {system.enumeration_cap}"
        )
    return sorted({apply_code(code, v) for v in system.enumerate_language(n + k - 1)})


# -- the image system ----------------------------------------------------------------


class FactorSystem(PresentedShift):
    """The image shift of a source system under a block code.

    Presented by the subset construction over (source state, window)
    configurations, so all exact counting applies downstairs too.
    """

    def __init__(self, source, code: BlockCode):
        code.validate(source)
        self.source = source
        self.code = code
        self.alphabet_size = code.output_alphabet
        self.presentation = self._build_presentation()
        self.horizon = getattr(source, "horizon", None)

    def _configurations(self):
        """All (state, window) pairs after reading k - 1 source symbols."""
        pres = self.source.presentation
        k = self.code.window
        configs = set()
        for u in self.source.enumerate_language(k - 1):
            s = pres.walk(u)
            if s is not None:
                configs.add((s, u))
        return configs

    def _build_presentation(self) -> Presentation:
        pres = self.source.presentation
        index: dict = {}  # subset -> state; None -> the marker
        edges = []
        stack = []

        def number(subset):
            # a configuration at the source's marker has unknown continuations
            if pres.marker is not None and any(s == pres.marker for s, _ in subset):
                subset = None
            if subset not in index:
                if len(index) >= SUBSET_STATE_CAP:
                    raise InputError("image presentation exceeds state cap")
                index[subset] = len(index)
                if subset is not None:
                    stack.append(subset)
            return index[subset]

        number(frozenset(self._configurations()))
        while stack:
            cur = stack.pop()
            here = index[cur]
            moves: dict[int, set] = {}
            for s, window in cur:
                for a, t in pres.moves(s):
                    block = window + (a,)
                    out = self.code.output(block)
                    moves.setdefault(out, set()).add((t, block[1:]))
            for out in sorted(moves):
                edges.append((here, out, number(frozenset(moves[out]))))
        return Presentation(
            len(index), self.alphabet_size, edges, start=0, marker=index.get(None)
        )

    def preimages(self, y: Word) -> list[Word]:
        """Source words of length len(y) + k - 1 mapping onto y, sorted."""
        pres = self.source.presentation
        k = self.code.window
        out = []

        def extend(word, state):
            pos = len(word)
            if pos == len(y) + k - 1:
                out.append(word)
                return
            for a, nxt in pres.moves(state):
                block_end = pos + 1
                if block_end >= k:
                    block = (word + (a,))[block_end - k :]
                    if self.code.output(block) != y[block_end - k]:
                        continue
                extend(word + (a,), nxt)

        extend((), pres.start)
        return out

    def __repr__(self):
        return f"FactorSystem(window={self.code.window}, alphabet={self.alphabet_size})"


# -- induced decomposition ------------------------------------------------------------


class InducedDecomposition(DecompositionScheme):
    """Suffix length of image words: the minimal one over their preimages.

    An image word is a good core when some preimage word is a good core
    upstairs.  Its suffix length is the smallest one any preimage allows,
    capped at the word length, so the core class is as large as possible.
    """

    name = "induced"

    def __init__(self, factor: FactorSystem, source_scheme):
        super().__init__(factor)
        self.factor = factor
        self.source_scheme = source_scheme

    def suffix_length(self, y: Word) -> int:
        if not self.factor.is_word(y):
            raise InputError("word is not in the image language")
        if y == EMPTY:
            return 0
        lengths = [self.source_scheme.suffix_length(u) for u in self.factor.preimages(y)]
        if not lengths:
            raise InputError("image word has no preimage")
        return min(min(lengths), len(y))

    def gluing_time(self, M: int, j: int, tau_max: int) -> tuple:
        """A window-w code maps source segments glued at gap T onto image
        segments glued at gap T + w - 1.  A word's suffix length is capped at
        its length, so level M lies in the image of source level M + w - 1,
        asked with the cap tau_max - (w - 1); an image gap past tau_max is
        refused."""
        w1 = self.factor.code.window - 1
        tau, why = self.source_scheme.gluing_time(M + w1, j, tau_max - w1)
        if tau is None:
            return None, f"source {why}"
        if tau + w1 > tau_max:
            return None, f"push-forward gap {tau + w1} exceeds --tau-max + window {tau_max}"
        # a certificate's note ends in what it covers; a search's names it
        cover = why.partition("certificate: ")[2] or why
        return tau + w1, (f"push-forward of source level {M + w1} at depth {j}: gap "
                          f"{tau} + {w1}; {cover}")

    def suffix_word(self, n: int) -> Word:
        src = self.source_scheme.system
        code = self.factor.code
        return apply_code(code, src.expansion_prefix(n + code.window - 1))

    def suffixes(self) -> OrbitCollection:
        factor = self.factor

        def counter(n, j):
            return factor.extensions(self.suffix_word(n), j)

        return OrbitCollection.one_word(factor, f"{self.name}:suffixes",
                                        self.suffix_word, counter)


def induced_decomposition(system, code: BlockCode, source_scheme) -> InducedDecomposition:
    """Push the source scheme down to the image shift of the code."""
    if source_scheme.system is not system:
        raise InputError("source scheme must belong to the given system")
    return InducedDecomposition(FactorSystem(system, code), source_scheme)


# -- positive entropy of the image ---------------------------------------------------


class FactorEntropyReport:
    """Outcome of the separated-core-pair search on the image."""

    def __init__(self, verdict: str, rate_bound: float | None = None,
                 witness: tuple | None = None):
        # "positive-entropy" | "single-point-at-scale" | "inconclusive"
        self.verdict = verdict
        self.rate_bound = rate_bound
        self.witness = witness  # (core word 1, core word 2, length)

    @property
    def positive(self) -> bool:
        return self.verdict == "positive-entropy"


def factor_entropy_positive(
    system,
    code: BlockCode,
    j: int = 0,
    lengths=None,
    source_scheme=None,
) -> FactorEntropyReport:
    """Search for two equal-length good cores with images split at depth j.

    A found pair (v1, v2) of length n gives, by free concatenation of good
    cores, at least 2^m image words of length n*m that are pairwise
    (n*m, 2^-j)-separated (for n >= k + j, each block's image starts with
    its core's first j + 1 image symbols), hence an image growth bound of
    log(2)/n; the concatenations are checked literally to be words for
    m = M_VERIFY.  Each length's source words are walked lazily, in
    lexicographic order.  When every
    length in the range is exhausted without a pair, the image cannot be
    separated at this scale by this search.  An empty range (by default,
    k + j past the enumeration cap) or a length walked past
    MAX_ENUMERATED_WORDS words instead returns an explicitly inconclusive
    verdict; a constant code maps onto one point whatever the range.
    """
    from .decomposition import beta_decomposition

    scheme = source_scheme or beta_decomposition(system)
    k = code.window
    if lengths is None:
        lengths = range(k + j, min(k + j + 8, system.enumeration_cap) + 1)
    if code.is_constant:
        return FactorEntropyReport("single-point-at-scale")
    if not lengths:
        return FactorEntropyReport("inconclusive")
    pres = system.presentation
    for n in lengths:
        try:
            check_enumeration_cap(n, system.enumeration_cap)
        except EnumerationCapError:
            return FactorEntropyReport("inconclusive")
        by_prefix: dict[Word, Word] = {}
        for visited, v in enumerate(pres.completions(pres.start, (None,) * n)):
            if visited == MAX_ENUMERATED_WORDS:
                return FactorEntropyReport("inconclusive")
            if not scheme.in_cores(v):
                continue
            key = apply_code(code, v)[: j + 1]
            by_prefix.setdefault(key, v)
            if len(by_prefix) >= 2:
                (v1, v2) = [by_prefix[key] for key in sorted(by_prefix)[:2]]
                _verify_free_concatenation(system, (v1, v2), M_VERIFY)
                return FactorEntropyReport(
                    "positive-entropy",
                    rate_bound=math.log(2) / n,
                    witness=(v1, v2, n),
                )
    return FactorEntropyReport("single-point-at-scale")


def _verify_free_concatenation(system, pair, m) -> None:
    """Concatenate the pair in all 2^m orders; each must be a word."""
    for bits in range(2 ** m):
        blocks = [pair[(bits >> i) & 1] for i in range(m)]
        if not system.is_word(sum(blocks, ())):
            raise InputError("good-core concatenation left the language")


# -- agreeing-pair automaton ----------------------------------------------------------


class PairAutomaton(Presentation):
    """Ordered pairs of source configurations with equal emitted outputs.

    The symbol a1 * A + a2 (A the source alphabet size) reads a1 in the
    first source word and a2 in the second.  `states[s]` is (cfg1, cfg2,
    differed), or None for the marker, which stands for every pair with a
    configuration past the source's horizon; `diagonal[s]` is True when the
    pair has never differed.
    """

    def __init__(self, states, diagonal, source_alphabet, edges, marker=None):
        super().__init__(len(states), source_alphabet ** 2, edges, marker=marker)
        self.states = states
        self.diagonal = diagonal
        self.source_alphabet = source_alphabet

    def nondiagonal_cycle_exists(self) -> bool:
        return any(not self.diagonal[s] for c in self.components() for s in c)

    def dump_edges_csv(self, path) -> None:
        """Edge list as `state,a1,a2,state,differed` rows."""
        with open(path, "w", encoding="ascii") as fh:
            for s, pair, t in self.edges():
                a1, a2 = divmod(pair, self.source_alphabet)
                fh.write(f"{s},{a1},{a2},{t},{int(not self.diagonal[s])}\n")


def build_pair_automaton(system, code: BlockCode) -> PairAutomaton:
    """The synchronized square of the source, filtered by output equality."""
    pres = system.presentation
    k = code.window
    size = system.alphabet_size

    def moves_from(cfg):
        s, window = cfg
        out = []
        for a, t in pres.moves(s):
            block = window + (a,)
            if len(block) == k:
                out.append((a, code.output(block), (t, block[1:])))
            else:
                out.append((a, None, (t, block)))
        return out

    start = ((pres.start, ()), (pres.start, ()), False)
    index = {}  # pair state -> number; None -> the marker
    states = []
    edges = []
    stack = []

    def number(target):
        if target not in index:
            if len(index) >= PAIR_STATE_CAP:
                raise InputError("pair automaton exceeds state cap")
            index[target] = len(index)
            states.append(target)
            if target is not None:
                stack.append(target)
        return index[target]

    number(start)
    while stack:
        cur = stack.pop()
        here = index[cur]
        cfg1, cfg2, differed = cur
        for a1, out1, nxt1 in moves_from(cfg1):
            for a2, out2, nxt2 in moves_from(cfg2):
                if out1 != out2:
                    continue
                if pres.marker in (nxt1[0], nxt2[0]):
                    target = None
                else:
                    target = (nxt1, nxt2, differed or a1 != a2)
                edges.append((here, a1 * size + a2, number(target)))
    diagonal = tuple(st is None or not st[2] for st in states)
    return PairAutomaton(states, diagonal, size, edges, marker=index.get(None))


class NonexpansiveReport:
    """Expansivity verdict plus growth data for the agreeing-pair system."""

    def __init__(self, verdict: str, growth_bound: float | None,
                 pair_counts: tuple, automaton: PairAutomaton):
        self.verdict = verdict  # "positively-expansive" | "nonexpansive-pairs"
        self.growth_bound = growth_bound
        self.pair_counts = pair_counts
        self.automaton = automaton

    @property
    def expansive(self) -> bool:
        return self.verdict == "positively-expansive"


def _regression_slope(points) -> float:
    """The least-squares slope of the (n, y) points; y / n for one point,
    0 for none."""
    if len(points) < 2:
        return points[0][1] / points[0][0] if points else 0.0
    nbar = sum(p[0] for p in points) / len(points)
    ybar = sum(p[1] for p in points) / len(points)
    sxy = sum((p[0] - nbar) * (p[1] - ybar) for p in points)
    sxx = sum((p[0] - nbar) ** 2 for p in points)
    return sxy / sxx


def nonexpansive_growth(system, code: BlockCode, n_max: int = 40) -> NonexpansiveReport:
    """Fiber-growth bound for points sharing an image, from pair-path counts.

    The verdict is positively expansive when no reachable cycle passes
    through a differed pair state.  Otherwise the reported bound is the
    pair-path growth rate minus the source growth rate: the per-point
    growth of forever-agreeing companions, which collapses to the full
    source entropy when every pair of points agrees.
    """
    pair = build_pair_automaton(system, code)
    counts = [sum(row) for row in pair.count_rows(n_max)]
    pair_counts = tuple(counts[: min(len(counts), 12)])
    if not pair.nondiagonal_cycle_exists():
        return NonexpansiveReport("positively-expansive", None, pair_counts, pair)
    window = range((n_max + 1) // 2, n_max + 1)
    pair_pts = [(n, math.log(counts[n])) for n in window if counts[n] > 0]
    src_pts = [(n, math.log(system.count_language(n))) for n in window]
    bound = _regression_slope(pair_pts) - _regression_slope(src_pts)
    return NonexpansiveReport("nonexpansive-pairs", max(bound, 0.0), pair_counts, pair)
