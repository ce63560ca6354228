"""Digit expansions of 1, beta-shift languages, and follower automata.

The expansion of 1 is produced by the greedy iteration x -> beta*x - floor(beta*x)
started at x = 1, in exact arithmetic: on integer remainders for a rational
beta, whose tail is decided up front (finite for an integer, truncated
otherwise), and on real quadratic numbers, whose termination and eventual
periodicity are detected by remainder repetition.  Every digit is
certified; inexact inputs are refused.

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

from fractions import Fraction

from .automata import Presentation, PresentedShift
from .errors import HorizonError, InputError
from .quadratic import QuadraticNumber, exact_floor
from .words import Word

DEFAULT_HORIZON = 64
# size caps, checked before any digit is computed or state built
MAX_ALPHABET = 256
MAX_HORIZON = 10_000


class Tail:
    """How the stored digits continue: exactly, periodically, or not known."""

    def __init__(self, kind: str, preperiod: int = 0, period: int = 0,
                 horizon: int = 0, certificate: str = ""):
        self.kind = kind  # "finite" | "periodic" | "truncated"
        self.preperiod = preperiod
        self.period = period
        self.horizon = horizon
        self.certificate = certificate

    def describe(self) -> str:
        if self.kind == "finite":
            return "finite"
        if self.kind == "periodic":
            return f"eventually-periodic(preperiod={self.preperiod}, period={self.period})"
        return f"truncated(horizon={self.horizon}, via {self.certificate})"


class BetaExpansion:
    """Digit string of 1 in base beta, with its continuation law.

    For a periodic tail, `digits` holds preperiod + period digits; for a
    truncated tail, the first `horizon` digits; for a finite expansion, all
    of them.
    """

    def __init__(self, digits: Word, tail: Tail, beta: object = None):
        if not digits:
            raise InputError("empty digit string")
        if digits[0] < 1:
            raise InputError("leading digit must be >= 1")
        if any(d < 0 for d in digits):
            raise InputError("negative digit")
        self.digits = digits
        self.tail = tail
        self.beta = beta  # exact value when known; float estimate otherwise

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


# -- the greedy digit engine -----------------------------------------------------


def greedy_expansion(beta, n: int) -> BetaExpansion:
    """First n greedy digits of 1 in base beta.

    Inputs must be exact (int, Fraction, decimal-literal str,
    QuadraticNumber); any other number (a float) is refused.  A rational
    beta = p/q in lowest terms is iterated on integers: T^k(1) = r_k / q^k,
    with d_(k+1), r_(k+1) = divmod(p r_k, q^(k+1)) from r_0 = 1.  As q is
    prime to p, q divides r_(k+1) only when it divides r_k; so for q > 1 no
    r_k is divisible by q, no T^k(1) is 0 and none repeats (T^k(1) q^j =
    r_k / q^(k-j) is an integer for no j < k), and the tail is truncated.
    An integer beta gives one digit and a finite tail.  A quadratic beta is
    iterated exactly, with termination and eventual periodicity detected by
    remainder repetition.
    """
    if n < 1:
        raise InputError("need at least one digit")
    if isinstance(beta, str):
        beta = parse_beta(beta)
    if not isinstance(beta, (int, Fraction, QuadraticNumber)):
        raise InputError(
            f"beta must be exact (int, Fraction, decimal literal or "
            f"QuadraticNumber), not {type(beta).__name__}"
        )
    if not beta > 1:
        raise InputError("beta must exceed 1")
    tail = Tail("truncated", horizon=n, certificate="exact-arithmetic")
    if not isinstance(beta, QuadraticNumber):
        p, q = beta.numerator, beta.denominator
        if q == 1:
            return BetaExpansion(digits=(p,), tail=Tail("finite"), beta=beta)
        digits, r, scale = [], 1, 1
        for _ in range(n):
            scale *= q
            d, r = divmod(p * r, scale)
            digits.append(d)
        return BetaExpansion(digits=tuple(digits), tail=tail, beta=beta)
    x = QuadraticNumber(1, 0, beta.D)
    digits = []
    seen = {x: 0}
    for i in range(1, n + 1):
        y = beta * x
        d = exact_floor(y)
        x = y - d
        digits.append(d)
        if x == 0:
            tail = Tail("finite")
            break
        if x in seen:
            tail = Tail("periodic", preperiod=seen[x], period=i - seen[x])
            break
        seen[x] = i
    return BetaExpansion(digits=tuple(digits), tail=tail, beta=beta)


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


class BetaSystem(PresentedShift):
    """A one-sided beta-shift: expansion of 1 plus its follower automaton."""

    def __init__(self, expansion: BetaExpansion):
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
        self._core_counts = [1]  # Z_t for t = 0, 1, ...
        self._match_moves: dict[int, list] = {}  # see match_moves
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
    def from_beta(cls, beta, horizon: int = DEFAULT_HORIZON) -> "BetaSystem":
        if isinstance(beta, str):
            beta = parse_beta(beta)
        _check_caps(beta, horizon)
        return cls(greedy_expansion(beta, horizon))

    @classmethod
    def from_expansion(
        cls, digits, period: int | None = None, beta=None
    ) -> "BetaSystem":
        digits = tuple(int(d) for d in digits)
        if period is not None:
            if not 1 <= period <= len(digits):
                raise InputError("period must be between 1 and the digit count")
            tail = Tail("periodic", preperiod=len(digits) - period, period=period)
        else:
            tail = Tail("truncated", horizon=len(digits), certificate="user-supplied")
        return cls(BetaExpansion(digits=digits, tail=tail, beta=beta))

    @classmethod
    def golden_mean(cls) -> "BetaSystem":
        from .quadratic import golden_ratio

        return cls.from_beta(golden_ratio())

    @classmethod
    def full_shift(cls, symbols: int = 2) -> "BetaSystem":
        if symbols < 2:
            raise InputError("need at least two symbols")
        return cls.from_beta(symbols)

    # -- basic queries -------------------------------------------------------------

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
        return super().beta_value()

    def suffix_match_length(self, v: Word) -> int:
        """Length of the longest suffix of v equal to a prefix of the expansion.

        This is the exact (unwrapped) follower value: the beta scheme's
        suffix length, and the match that per-match counting reads.  Raises
        on inadmissible words.
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

    def match_moves(self, m: int) -> list[tuple[int, int]]:
        """(symbol, exact match after it) for each symbol readable at exact
        match m, in increasing symbol order; computed once per m from the
        moves of its state, so HorizonError at the truncation marker.
        """
        if m not in self._match_moves:
            self._match_moves[m] = [
                (a, self._advance(m, a))
                for a, _ in self.presentation.moves(self.match_state(m))
            ]
        return self._match_moves[m]

    def core_counts(self, n: int) -> list[int]:
        """Z_0..Z_n, where Z_t = #{v in L_t : suffix_match_length(v) = 0}.

        Z_0 = 1 and Z_t = sum_k state_counts(t - 1)[k] * d_{k+1}: a t-word
        ends in match 0 exactly when its last digit is below the next
        expansion digit.  The admissible n-words with exact match m are
        u d_1..d_m with u counted by Z_{n-m}.  Needs expansion digits up to
        n: past a truncation at h, Z_{h+1} reads d_{h+1} and raises.
        """
        return self._fill_core_counts(n)[: n + 1]

    def _fill_core_counts(self, n: int) -> list[int]:
        """The cached Z_0, Z_1, ..., extended through Z_n.

        Reads the count rows in increasing order, one step each.
        """
        have = len(self._core_counts)
        if have <= n:
            rows = self.presentation.count_rows(n - 1, first=have - 1)
            for prev in rows:
                self._core_counts.append(
                    sum(c * self.digit(k + 1) for k, c in enumerate(prev) if c)
                )
        return self._core_counts

    def describe(self) -> str:
        return (
            f"beta-shift on {self.alphabet_size} symbols, "
            f"expansion {self.expansion.describe()}"
        )

    def __repr__(self):
        return f"BetaSystem({self.expansion.describe()})"
