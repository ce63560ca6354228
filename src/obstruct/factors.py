"""Sliding-block images of beta-shifts and their induced decompositions.

A window-k code maps admissible k-blocks to output symbols.  The image
shift is presented exactly by a subset construction over (state, window)
configurations, so image languages, image measures, and gluing searches
all run on the same machinery as the source.

The induced split of an image word takes the minimal suffix length over
its preimage words, so the good-core class downstairs is as large as the
upstairs structure allows.

Expansivity obstructions are probed through the agreeing-pair automaton:
configurations are ordered pairs of source configurations plus a flag
recording whether the two label paths have differed.  Its length-n path
counts are exactly the ordered pairs of source n-words with equal images;
a reachable cycle through a flagged state certifies two distinct points
with the same image sequence.  At symbolic output scales, agreement within
any fixed scale at all orders already forces full agreement, so one
automaton answers every depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .automata import Presentation, strongly_connected_components
from .decomposition import DecompositionScheme
from .errors import EnumerationCapError, InputError
from .orbits import (
    EntropyEstimate,
    OrbitCollection,
    _regression_slope,
    upper_entropy,
)
from .words import EMPTY, Word, format_word, parse_word

PAIR_STATE_CAP = 20_000
SUBSET_STATE_CAP = 50_000


@dataclass(frozen=True)
class BlockCode:
    """A total map from admissible k-blocks to output symbols."""

    window: int
    rule: dict
    output_alphabet: int

    def __post_init__(self):
        if self.window < 1:
            raise InputError("window must be >= 1")
        for block, out in self.rule.items():
            if len(block) != self.window:
                raise InputError(f"rule block {block} has wrong length")
            if not 0 <= out < self.output_alphabet:
                raise InputError(f"output symbol {out} out of range")

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


class FactorSystem:
    """The image shift of a source system under a block code.

    Presented by the subset construction over (source state, window)
    configurations, so all exact counting applies downstairs too.
    """

    def __init__(self, source, code: BlockCode, enumeration_cap: int | None = None):
        code.validate(source)
        self.source = source
        self.code = code
        self.alphabet_size = code.output_alphabet
        self.enumeration_cap = (
            source.enumeration_cap if enumeration_cap is None else enumeration_cap
        )
        self.presentation = self._build_presentation()
        self.horizon = getattr(source, "horizon", None)
        self.perron_cache: dict = {}  # see perron.perron_eigendata

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
        initial = frozenset(self._configurations())
        index = {initial: 0}
        edges = []
        stack = [initial]
        while stack:
            cur = stack.pop()
            moves: dict[int, set] = {}
            for s, window in cur:
                if s == pres.marker:
                    continue
                for a, t in pres.delta[s].items():
                    block = window + (a,)
                    out = self.code.output(block)
                    moves.setdefault(out, set()).add((t, block[1:]))
            for out in sorted(moves):
                nxt = frozenset(moves[out])
                if nxt not in index:
                    if len(index) >= SUBSET_STATE_CAP:
                        raise InputError("image presentation exceeds state cap")
                    index[nxt] = len(index)
                    stack.append(nxt)
                edges.append((index[cur], out, index[nxt]))
        return Presentation(len(index), self.alphabet_size, edges, start=0)

    # same counting interface as the source systems
    def count_language(self, n: int) -> int:
        return self.presentation.count_words(n)

    def enumerate_language(self, n: int, cap: int | None = None) -> list[Word]:
        return self.presentation.enumerate_words(
            n, self.enumeration_cap if cap is None else cap
        )

    def is_word(self, v: Word) -> bool:
        if any(a < 0 or a >= self.alphabet_size for a in v):
            return False
        return self.presentation.accepts(v)

    def extensions(self, v: Word, j: int) -> int:
        state = self.presentation.walk(v)
        if state is None:
            return 0
        return self.presentation.extensions_from(state, j)

    def beta_value(self):
        from .perron import perron_eigendata

        return perron_eigendata(self.presentation, cache=self.perron_cache).eigenvalue

    def log_beta(self) -> float:
        return math.log(float(self.beta_value()))

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
            for a in sorted(pres.delta[state]):
                nxt = pres.delta[state][a]
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
    """Split of image words via minimal suffix length over their preimages.

    An image word is a good core when some preimage word is a good core
    upstairs; it is a suffix word when some preimage is a prefix of the
    expansion of 1.  The split assigns the smallest suffix length any
    preimage allows, capped at the word length, so the core class is as
    large as possible.
    """

    name = "induced"

    def __init__(self, factor: FactorSystem, source_scheme):
        super().__init__(factor)
        self.factor = factor
        self.source_scheme = source_scheme

    def split(self, y: Word) -> tuple[int, int, int]:
        if not self.factor.is_word(y):
            raise InputError("word is not in the image language")
        if y == EMPTY:
            return 0, 0, 0
        best = None
        for u in self.factor.preimages(y):
            s = self.source_scheme.split(u)[2]
            if best is None or s < best:
                best = s
        if best is None:
            raise InputError("image word has no preimage")
        return 0, len(y) - min(best, len(y)), min(best, len(y))

    def in_prefixes(self, y: Word) -> bool:
        return y == EMPTY

    def in_cores(self, y: Word) -> bool:
        if y == EMPTY:
            return True
        if not self.factor.is_word(y):
            return False
        return any(
            self.source_scheme.split(u)[2] == 0 for u in self.factor.preimages(y)
        )

    def in_suffixes(self, y: Word) -> bool:
        if y == EMPTY:
            return True
        return y == self.suffix_word(len(y))

    def suffix_word(self, n: int) -> Word:
        src = self.source_scheme.system
        code = self.factor.code
        return apply_code(code, src.expansion_prefix(n + code.window - 1))

    def suffixes(self) -> OrbitCollection:
        factor = self.factor

        def at(n):
            return (self.suffix_word(n),)

        def counter(n, j):
            state = factor.presentation.walk(self.suffix_word(n))
            if state is None:
                return 0
            return factor.presentation.extensions_from(state, j)

        return OrbitCollection(factor, f"{self.name}:suffixes", at=at, counter=counter)

    def boundary(self) -> OrbitCollection:
        out = self.suffixes()
        out.label = f"{self.name}:boundary"
        return out


def induced_decomposition(system, code: BlockCode, source_scheme) -> InducedDecomposition:
    """Push the source split down to the image shift of the code."""
    if source_scheme.system is not system:
        raise InputError("source scheme must belong to the given system")
    return InducedDecomposition(FactorSystem(system, code), source_scheme)


def factor_suffix_entropy(
    system, code: BlockCode, n_max: int, source_scheme=None, j: int = 0
) -> EntropyEstimate:
    """Growth of the induced suffix class on the image: one word per length."""
    from .decomposition import beta_decomposition

    scheme = induced_decomposition(
        system, code, source_scheme or beta_decomposition(system)
    )
    return upper_entropy(scheme.suffixes(), j, n_max)


# -- positive entropy of the image ---------------------------------------------------


@dataclass(frozen=True)
class FactorEntropyReport:
    """Outcome of the separated-core-pair search on the image."""

    verdict: str  # "positive-entropy" | "single-point-at-scale" | "inconclusive"
    depth: int
    rate_bound: float | None
    witness: tuple | None  # (core word 1, core word 2, length)
    checked_lengths: tuple
    separated_count_verified: int | None = None

    @property
    def positive(self) -> bool:
        return self.verdict == "positive-entropy"


def factor_entropy_positive(
    system,
    code: BlockCode,
    j: int = 0,
    lengths=None,
    m_verify: int = 3,
    source_scheme=None,
) -> FactorEntropyReport:
    """Search for two equal-length good cores with images split at depth j.

    A found pair (v1, v2) of length n gives, by free concatenation of good
    cores, at least 2^m image words of length n*m that are pairwise
    (n*m, 2^-j)-separated, hence an image growth bound of log(2)/n; the
    certificate is verified literally for m = m_verify.  When every length
    in the searched range is exhausted without a pair, the image cannot be
    separated at this scale by this search; a budget stop instead returns
    an explicitly inconclusive verdict.
    """
    from .decomposition import beta_decomposition

    scheme = source_scheme or beta_decomposition(system)
    k = code.window
    if lengths is None:
        lengths = range(k + j, min(k + j + 8, system.enumeration_cap) + 1)
    checked = []
    if code.is_constant:
        return FactorEntropyReport(
            verdict="single-point-at-scale",
            depth=j,
            rate_bound=None,
            witness=None,
            checked_lengths=tuple(lengths),
        )
    for n in lengths:
        try:
            cores = [
                v
                for v in system.enumerate_language(n)
                if scheme.in_cores(v)
            ]
        except EnumerationCapError:
            return FactorEntropyReport(
                verdict="inconclusive",
                depth=j,
                rate_bound=None,
                witness=None,
                checked_lengths=tuple(checked),
            )
        checked.append(n)
        by_prefix: dict[Word, Word] = {}
        for v in cores:
            key = apply_code(code, v)[: j + 1]
            by_prefix.setdefault(key, v)
            if len(by_prefix) >= 2:
                (v1, v2) = [by_prefix[key] for key in sorted(by_prefix)[:2]]
                count = _verify_free_concatenation(
                    system, code, (v1, v2), n, j, m_verify
                )
                return FactorEntropyReport(
                    verdict="positive-entropy",
                    depth=j,
                    rate_bound=math.log(2) / n,
                    witness=(v1, v2, n),
                    checked_lengths=tuple(checked),
                    separated_count_verified=count,
                )
    return FactorEntropyReport(
        verdict="single-point-at-scale",
        depth=j,
        rate_bound=None,
        witness=None,
        checked_lengths=tuple(checked),
    )


def _verify_free_concatenation(system, code, pair, n, j, m) -> int:
    """Concatenate the pair in all 2^m orders; count pairwise-separated images."""
    words = []
    for bits in range(2 ** m):
        blocks = [pair[(bits >> i) & 1] for i in range(m)]
        w = sum(blocks, ())
        if not system.is_word(w):
            raise InputError("good-core concatenation left the language")
        words.append(apply_code(code, w))
    distinct = set()
    for y in words:
        distinct.add(y[: (m - 1) * n + j + 1])
    return len(distinct)


# -- agreeing-pair automaton ----------------------------------------------------------


@dataclass
class PairAutomaton:
    """Ordered pairs of source configurations with equal emitted outputs."""

    states: list  # (cfg1, cfg2, differed)
    edges: dict  # state index -> list of (a1, a2, target index)
    initial: int
    diagonal: tuple  # per-state flag: True when the pair has never differed
    meta: dict = field(default_factory=dict)

    def pair_counts(self, n: int) -> list[int]:
        """Ordered pairs of length-t source words with equal images, t <= n."""
        vec = {self.initial: 1}
        out = [1]
        for _ in range(n):
            new: dict[int, int] = {}
            for s, c in vec.items():
                for _, _, t in self.edges[s]:
                    new[t] = new.get(t, 0) + c
            vec = new
            out.append(sum(vec.values()))
        return out

    def nondiagonal_cycle_exists(self) -> bool:
        successors = [
            [t for _, _, t in self.edges.get(s, ())] for s in range(len(self.states))
        ]
        for scc in strongly_connected_components(successors):
            has_cycle = len(scc) > 1 or scc[0] in successors[scc[0]]
            if has_cycle and any(not self.diagonal[s] for s in scc):
                return True
        return False

    def dump_edges_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in sorted(self.edges):
                for a1, a2, t in sorted(self.edges[s]):
                    fh.write(f"{s},{a1},{a2},{t},{int(not self.diagonal[s])}\n")


def build_pair_automaton(system, code: BlockCode) -> PairAutomaton:
    """The synchronized square of the source, filtered by output equality."""
    pres = system.presentation
    k = code.window

    def moves_from(cfg):
        s, window = cfg
        if s == pres.marker:
            return []
        out = []
        for a, t in pres.delta[s].items():
            block = window + (a,)
            if len(block) == k:
                out.append((a, code.output(block), (t, block[1:])))
            else:
                out.append((a, None, (t, block)))
        return out

    start = ((pres.start, ()), (pres.start, ()), False)
    index = {start: 0}
    states = [start]
    edges: dict[int, list] = {}
    stack = [start]
    while stack:
        cur = stack.pop()
        cfg1, cfg2, differed = cur
        moves = []
        for a1, out1, nxt1 in moves_from(cfg1):
            for a2, out2, nxt2 in moves_from(cfg2):
                if out1 != out2:
                    continue
                target = (nxt1, nxt2, differed or a1 != a2)
                if target not in index:
                    if len(index) >= PAIR_STATE_CAP:
                        raise InputError("pair automaton exceeds state cap")
                    index[target] = len(index)
                    states.append(target)
                    stack.append(target)
                moves.append((a1, a2, index[target]))
        edges[index[cur]] = sorted(moves)
    diagonal = tuple(not st[2] for st in states)
    return PairAutomaton(
        states=states,
        edges=edges,
        initial=0,
        diagonal=diagonal,
        meta={"window": k},
    )


@dataclass(frozen=True)
class NonexpansiveReport:
    """Expansivity verdict plus growth data for the agreeing-pair system."""

    verdict: str  # "positively-expansive" | "nonexpansive-pairs"
    depth: int
    pair_rate: float | None
    source_rate: float
    growth_bound: float | None
    pair_counts: tuple
    automaton: PairAutomaton

    @property
    def expansive(self) -> bool:
        return self.verdict == "positively-expansive"


def nonexpansive_growth(
    system, code: BlockCode, j: int = 0, n_max: int = 40
) -> NonexpansiveReport:
    """Fiber-growth bound for points sharing an image, from pair-path counts.

    The verdict is positively expansive when no reachable cycle passes
    through a differed pair state.  Otherwise the reported bound is the
    pair-path growth rate minus the source growth rate: the per-point
    growth of forever-agreeing companions, which collapses to the full
    source entropy when every pair of points agrees.
    """
    pair = build_pair_automaton(system, code)
    counts = pair.pair_counts(n_max)
    if not pair.nondiagonal_cycle_exists():
        return NonexpansiveReport(
            verdict="positively-expansive",
            depth=j,
            pair_rate=None,
            source_rate=system.log_beta(),
            growth_bound=None,
            pair_counts=tuple(counts[: min(len(counts), 12)]),
            automaton=pair,
        )
    window = range((n_max + 1) // 2, n_max + 1)
    pair_pts = [(n, math.log(counts[n])) for n in window if counts[n] > 0]
    src_pts = [(n, math.log(system.count_language(n))) for n in window]
    pair_rate = _regression_slope(pair_pts)
    source_rate = _regression_slope(src_pts)
    return NonexpansiveReport(
        verdict="nonexpansive-pairs",
        depth=j,
        pair_rate=pair_rate,
        source_rate=source_rate,
        growth_bound=max(pair_rate - source_rate, 0.0),
        pair_counts=tuple(counts[: min(len(counts), 12)]),
        automaton=pair,
    )
