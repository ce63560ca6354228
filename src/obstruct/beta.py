"""Digit expansions of 1, beta-shift languages, and follower automata.

The expansion of 1 is produced by the greedy iteration x -> beta*x - floor(beta*x)
started at x = 1.  Exact engines (integers, rationals, real quadratic
numbers) certify every digit, detect exact termination, and detect eventual
periodicity by remainder repetition; an interval engine handles inexact
inputs and refuses to emit any digit it cannot certify.

A finite greedy expansion d_1..d_k is replaced, before any language
machinery runs, by the infinite word (d_1 .. d_{k-1} (d_k - 1)) repeated.
Under that form, a sequence belongs to the shift exactly when every shifted
tail is lexicographically at most the expansion, and the membership test is
realized by a deterministic follower automaton whose state is the longest
suffix of the input agreeing with a prefix of the expansion (wrapped onto
the period for eventually periodic expansions; truncated with a marker
state otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .automata import Presentation, check_enumeration_cap
from .errors import HorizonError, InputError, PrecisionError
from .quadratic import QuadraticNumber, exact_floor
from .words import Word

DEFAULT_HORIZON = 64
DEFAULT_PRECISION = 128
MAX_PRECISION = 4096
MATRIX_POWER_CAP = 10 ** 6
# size caps, checked before any digit is computed or state built
MAX_ALPHABET = 256
MAX_HORIZON = 10_000


@dataclass(frozen=True)
class Tail:
    """How the stored digits continue: exactly, periodically, or not known."""

    kind: str  # "finite" | "periodic" | "truncated"
    preperiod: int = 0
    period: int = 0
    horizon: int = 0
    certificate: str = ""

    def describe(self) -> str:
        if self.kind == "finite":
            return "finite"
        if self.kind == "periodic":
            return f"eventually-periodic(preperiod={self.preperiod}, period={self.period})"
        return f"truncated(horizon={self.horizon}, via {self.certificate})"


@dataclass(frozen=True)
class BetaExpansion:
    """Digit string of 1 in base beta, with its continuation law.

    For a periodic tail, `digits` holds preperiod + period digits; for a
    truncated tail, the first `horizon` digits; for a finite expansion, all
    of them.
    """

    digits: Word
    tail: Tail
    beta: object = None  # exact value when known; float estimate otherwise

    def __post_init__(self):
        if not self.digits:
            raise InputError("empty digit string")
        if self.digits[0] < 1:
            raise InputError("leading digit must be >= 1")
        if any(d < 0 for d in self.digits):
            raise InputError("negative digit")

    @property
    def is_finite(self) -> bool:
        return self.tail.kind == "finite"

    @property
    def is_periodic(self) -> bool:
        return self.tail.kind == "periodic"

    @property
    def horizon(self) -> int | None:
        """Largest certified digit index; None when every index is certified."""
        return self.tail.horizon if self.tail.kind == "truncated" else None

    def digit(self, i: int) -> int:
        """The i-th digit, 1-based."""
        if i < 1:
            raise InputError("digit index is 1-based")
        if self.tail.kind == "periodic":
            p, q = self.tail.preperiod, self.tail.period
            if i <= p:
                return self.digits[i - 1]
            return self.digits[p + (i - p - 1) % q]
        if i <= len(self.digits):
            return self.digits[i - 1]
        if self.tail.kind == "finite":
            return 0
        raise HorizonError(
            f"digit {i} undecided at truncation (horizon {len(self.digits)})",
            certified=len(self.digits),
        )

    def digit_prefix(self, n: int) -> Word:
        return tuple(self.digit(i) for i in range(1, n + 1))

    def describe(self) -> str:
        from .words import format_word

        return f"{format_word(self.digits)} [{self.tail.describe()}]"


# -- greedy digit engines --------------------------------------------------------


def _greedy_exact(beta, n: int):
    """Greedy digits for an exactly represented beta > 1."""
    if isinstance(beta, int):
        one = Fraction(1)
        beta = Fraction(beta)
    elif isinstance(beta, Fraction):
        one = Fraction(1)
    elif isinstance(beta, QuadraticNumber):
        one = QuadraticNumber(1, 0, beta.D)
    else:
        raise TypeError(f"no exact engine for {type(beta).__name__}")
    x = one
    digits = []
    seen = {x: 0}
    for i in range(1, n + 1):
        y = beta * x
        d = exact_floor(y)
        x = y - d
        digits.append(d)
        if x == 0:
            return tuple(digits), Tail("finite")
        if x in seen:
            pre = seen[x]
            return tuple(digits), Tail("periodic", preperiod=pre, period=i - pre)
        seen[x] = i
    return tuple(digits), Tail("truncated", horizon=n, certificate="exact-arithmetic")


def _greedy_interval(beta_value, n: int, precision: int, max_precision: int):
    """Greedy digits via outward-rounded interval arithmetic.

    Each digit requires the interval image of beta*x to avoid straddling an
    integer; on failure the working precision is doubled up to the cap.
    """
    prec = precision
    while True:
        saved = mpmath.iv.prec
        mpmath.iv.prec = prec
        try:
            b = mpmath.iv.mpf(beta_value)
            x = mpmath.iv.mpf(1)
            digits = []
            failed_at = None
            for i in range(1, n + 1):
                y = b * x
                lo = int(mpmath.floor(y.a))
                hi = int(mpmath.floor(y.b))
                if lo != hi:
                    failed_at = i
                    break
                digits.append(lo)
                x = y - lo
                if x.b < 0 or x.a >= 1:
                    failed_at = i  # remainder escaped [0, 1): not certifiable
                    break
            if failed_at is None:
                return (
                    tuple(digits),
                    Tail(
                        "truncated",
                        horizon=n,
                        certificate=f"interval-arithmetic({prec} bits)",
                    ),
                )
        finally:
            mpmath.iv.prec = saved
        if prec >= max_precision:
            raise PrecisionError(failed_at, prec)
        prec = min(2 * prec, max_precision)


def greedy_expansion(
    beta,
    n: int,
    precision: int = DEFAULT_PRECISION,
    max_precision: int = MAX_PRECISION,
) -> BetaExpansion:
    """First n greedy digits of 1 in base beta.

    Exact inputs (int, Fraction, decimal-literal str, QuadraticNumber) are
    iterated exactly, with termination and eventual periodicity detected;
    float / mpf inputs go through the certified interval engine and always
    come back truncated.
    """
    if n < 1:
        raise InputError("need at least one digit")
    if isinstance(beta, str):
        beta = parse_beta(beta)
    exact = isinstance(beta, (int, Fraction, QuadraticNumber))
    if exact:
        if not beta > 1:
            raise InputError("beta must exceed 1")
        digits, tail = _greedy_exact(beta, n)
    else:
        if not float(beta) > 1:
            raise InputError("beta must exceed 1")
        digits, tail = _greedy_interval(beta, n, precision, max_precision)
    return BetaExpansion(digits=digits, tail=tail, beta=beta)


def parse_beta(text: str):
    """Parse a decimal literal into an exact number (int when integral)."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse beta literal {text!r}") from exc
    if value.denominator == 1:
        return int(value)
    return value


def quasi_greedy(e: BetaExpansion) -> BetaExpansion:
    """Replace a finite expansion d_1..d_k by (d_1 .. d_{k-1} (d_k - 1)) repeated.

    Infinite expansions are returned unchanged.  The replacement is the
    lexicographically largest infinite expansion of 1 and is the form under
    which the tail-comparison membership test is correct.
    """
    if not e.is_finite:
        return e
    digits = e.digits
    if digits[-1] < 1:
        raise InputError("finite expansion must end in a positive digit")
    block = digits[:-1] + (digits[-1] - 1,)
    pre, per = _normalize_periodic((), block)
    return BetaExpansion(
        digits=pre + per,
        tail=Tail("periodic", preperiod=len(pre), period=len(per)),
        beta=e.beta,
    )


def _normalize_periodic(pre: Word, per: Word) -> tuple[Word, Word]:
    """Minimal preperiod/period form of pre + per^infinity."""
    if not per:
        raise InputError("empty period")
    q = len(per)
    for d in range(1, q + 1):
        if q % d == 0 and per == per[:d] * (q // d):
            per = per[:d]
            q = d
            break
    while pre and pre[-1] == per[-1]:
        per = (per[-1],) + per[:-1]
        pre = pre[:-1]
    return pre, per


def _check_caps(beta, horizon: int) -> None:
    """Refuse a beta needing more than MAX_ALPHABET symbols or a long horizon.

    The alphabet of a beta-shift has ceil(beta) symbols, so it exceeds the
    cap exactly when beta does (the alphabet size itself may stand in for
    beta); the horizon bounds digits, states and counting depth.
    """
    if horizon > MAX_HORIZON:
        raise InputError(f"horizon {horizon} exceeds the cap {MAX_HORIZON}")
    if beta > MAX_ALPHABET:
        raise InputError(
            f"beta needs more than {MAX_ALPHABET} symbols (the alphabet cap)"
        )


# -- the beta-shift ---------------------------------------------------------------


class BetaSystem:
    """A one-sided beta-shift: expansion of 1 plus its follower automaton."""

    def __init__(self, expansion: BetaExpansion, enumeration_cap: int = 24):
        if expansion.is_finite:
            expansion = quasi_greedy(expansion)
        if expansion.is_periodic:
            pre = expansion.digits[: expansion.tail.preperiod]
            per = expansion.digits[expansion.tail.preperiod :]
            pre, per = _normalize_periodic(pre, per)
            expansion = BetaExpansion(
                digits=pre + per,
                tail=Tail("periodic", preperiod=len(pre), period=len(per)),
                beta=expansion.beta,
            )
        _check_caps(expansion.digits[0] + 1, len(expansion.digits))
        self.expansion = expansion
        self.alphabet_size = expansion.digits[0] + 1
        self.enumeration_cap = enumeration_cap
        self._core_counts = [1]  # Z_t for t = 0, 1, ...
        self.perron_cache: dict = {}  # see perron.perron_eigendata
        self._check_self_admissible()
        self.presentation = self._build_presentation()

    # -- construction -------------------------------------------------------------

    def _check_self_admissible(self) -> None:
        """Every shifted tail of the expansion must be <= the expansion itself.

        A periodic expansion stores p + q digits, and two tails with
        preperiod <= p and period q that agree on p + q positions agree
        forever, so each shift is compared over that whole window.
        """
        e = self.expansion
        n = len(e.digits)
        for t in range(1, n):
            for i in range(1, (n if e.is_periodic else n - t) + 1):
                a, b = e.digit(t + i), e.digit(i)
                if a > b:
                    raise InputError(
                        f"digit string is not self-admissible: tail at {t} "
                        f"exceeds the expansion at offset {i}"
                    )
                if a < b:
                    break

    def _advance(self, m: int, a: int) -> int | None:
        """Exact match after reading `a` with exact match m; None = reject.

        A digit below d_{m+1} resets the match to 0: for a self-admissible
        expansion no suffix of d_1..d_m a can agree with a prefix of d.
        """
        c = self.digit(m + 1)
        if a > c:
            return None
        return m + 1 if a == c else 0

    def _canonical(self, k: int) -> int:
        e = self.expansion
        if not e.is_periodic:
            return k
        p, q = e.tail.preperiod, e.tail.period
        return k if k < p + q else p + (k - p) % q

    def _build_presentation(self) -> Presentation:
        e = self.expansion
        if e.is_periodic:
            n_states = e.tail.preperiod + e.tail.period
            marker = None
        else:
            n_states = len(e.digits) + 1  # last state is the truncation marker
            marker = n_states - 1
        edges = []
        for k in range(n_states if marker is None else n_states - 1):
            for a in range(self.digit(k + 1) + 1):
                edges.append((k, a, self._canonical(self._advance(k, a))))
        return Presentation(
            n_states, self.alphabet_size, edges, start=0, marker=marker
        )

    @classmethod
    def from_beta(
        cls,
        beta,
        horizon: int = DEFAULT_HORIZON,
        precision: int = DEFAULT_PRECISION,
        max_precision: int = MAX_PRECISION,
        enumeration_cap: int = 24,
    ) -> "BetaSystem":
        if isinstance(beta, str):
            beta = parse_beta(beta)
        _check_caps(beta, horizon)
        e = greedy_expansion(beta, horizon, precision, max_precision)
        return cls(quasi_greedy(e), enumeration_cap=enumeration_cap)

    @classmethod
    def from_expansion(
        cls, digits, period: int | None = None, beta=None, enumeration_cap: int = 24
    ) -> "BetaSystem":
        digits = tuple(int(d) for d in digits)
        if period is not None:
            if not 1 <= period <= len(digits):
                raise InputError("period must be between 1 and the digit count")
            tail = Tail("periodic", preperiod=len(digits) - period, period=period)
        else:
            tail = Tail("truncated", horizon=len(digits), certificate="user-supplied")
        return cls(
            BetaExpansion(digits=digits, tail=tail, beta=beta),
            enumeration_cap=enumeration_cap,
        )

    @classmethod
    def golden_mean(cls, enumeration_cap: int = 24) -> "BetaSystem":
        from .quadratic import golden_ratio

        return cls.from_beta(golden_ratio(), enumeration_cap=enumeration_cap)

    @classmethod
    def full_shift(cls, symbols: int = 2, enumeration_cap: int = 24) -> "BetaSystem":
        if symbols < 2:
            raise InputError("need at least two symbols")
        return cls.from_beta(symbols, enumeration_cap=enumeration_cap)

    # -- basic queries -------------------------------------------------------------

    @property
    def is_sofic(self) -> bool:
        return self.expansion.is_periodic

    @property
    def horizon(self) -> int | None:
        return self.expansion.horizon

    def digit(self, i: int) -> int:
        return self.expansion.digit(i)

    def expansion_prefix(self, n: int) -> Word:
        return self.expansion.digit_prefix(n)

    def beta_value(self):
        """Exact beta when known, else the Perron value of the presentation."""
        if self.expansion.beta is not None:
            return self.expansion.beta
        from .perron import perron_eigendata

        return perron_eigendata(
            self.presentation.live_part(), cache=self.perron_cache
        ).eigenvalue

    def log_beta(self) -> float:
        import math

        return math.log(float(self.beta_value()))

    def is_word(self, v: Word) -> bool:
        """Automaton membership test; HorizonError past a truncation."""
        if any(a >= self.alphabet_size or a < 0 for a in v):
            return False
        return self.presentation.accepts(v)

    def lex_admissible(self, v: Word) -> bool:
        """Direct oracle: every suffix at most the matching expansion prefix."""
        if any(a >= self.alphabet_size or a < 0 for a in v):
            return False
        n = len(v)
        for t in range(n):
            for i in range(n - t):
                c = self.digit(i + 1)
                if v[t + i] > c:
                    return False
                if v[t + i] < c:
                    break
        return True

    def suffix_match_length(self, v: Word) -> int:
        """Length of the longest suffix of v equal to a prefix of the expansion.

        This is the exact (unwrapped) follower value; it drives splits and
        per-match counting.  Raises on inadmissible words.
        """
        m = 0
        for a in v:
            m = self._advance(m, a)
            if m is None:
                raise InputError("word is not in the language")
        return m

    def match_state(self, m: int) -> int:
        """Automaton state of any word whose exact suffix-match value is m."""
        return self._canonical(m)

    # -- language counting and enumeration ----------------------------------------

    def count_language(self, n: int) -> int:
        """|L_n| exactly, by path counting on the follower automaton."""
        if n > MATRIX_POWER_CAP:
            raise InputError(f"count cap exceeded ({n} > {MATRIX_POWER_CAP})")
        return self.presentation.count_words(n)

    def enumerate_language(self, n: int, cap: int | None = None) -> list[Word]:
        """The admissible n-words in lexicographic order."""
        return self.presentation.enumerate_words(
            n, self.enumeration_cap if cap is None else cap
        )

    def enumerate_matches(self, n: int) -> list[tuple[Word, int]]:
        """The admissible n-words in lexicographic order, each with its exact
        suffix-match value.

        Extends the words one symbol at a time from the empty word at match
        0, carrying the match through `_advance` (asked once per match
        value); the cap and the errors are those of `enumerate_language`.
        """
        check_enumeration_cap(n, self.enumeration_cap)
        # only a truncated presentation has a marker, and its states are the
        # matches themselves
        marker = self.presentation.marker
        moves: dict[int, list] = {}  # match -> [(symbol, match after it)]
        words = [((), 0)]
        for _ in range(n):
            longer = []
            for v, m in words:
                if m not in moves:
                    if m == marker:
                        raise HorizonError(
                            "enumeration would continue past the stored horizon"
                        )
                    moves[m] = []
                    for a in range(self.alphabet_size):
                        after = self._advance(m, a)
                        if after is None:
                            break
                        moves[m].append((a, after))
                longer.extend((v + (a,), after) for a, after in moves[m])
            words = longer
        return words

    def core_counts(self, n: int) -> list[int]:
        """Z_0..Z_n, where Z_t = #{v in L_t : suffix_match_length(v) = 0}.

        Z_0 = 1 and Z_t = sum_k state_counts(t - 1)[k] * d_{k+1}: a t-word
        ends in match 0 exactly when its last digit is below the next
        expansion digit.  The admissible n-words with exact match m are
        u d_1..d_m with u counted by Z_{n-m}.  Needs expansion digits up to
        n: past a truncation at h, Z_{h+1} reads d_{h+1} and raises.
        """
        return self._fill_core_counts(n)[: n + 1]

    def core_count(self, n: int) -> int:
        """#{v in L_n ending in no prefix of the expansion}."""
        return self._fill_core_counts(n)[n]

    def _fill_core_counts(self, n: int) -> list[int]:
        """The cached Z_0, Z_1, ..., extended through Z_n.

        Reads the count rows in increasing order, so each costs one step.
        """
        pres = self.presentation
        while len(self._core_counts) <= n:
            prev = pres.state_counts(len(self._core_counts) - 1)
            self._core_counts.append(
                sum(c * self.digit(k + 1) for k, c in enumerate(prev) if c)
            )
        return self._core_counts

    def extensions(self, v: Word, j: int) -> int:
        """#length-j admissible continuations of v."""
        state = self.presentation.walk(v)
        if state is None:
            return 0
        return self.presentation.extensions_from(state, j)

    def describe(self) -> str:
        return (
            f"beta-shift on {self.alphabet_size} symbols, "
            f"expansion {self.expansion.describe()}"
        )

    def __repr__(self):
        return f"BetaSystem({self.expansion.describe()})"
