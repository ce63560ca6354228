"""Collections of orbit segments, their separated-set counts and growth rates.

A collection assigns to each length n a set of admissible n-words, the
initial blocks of the points paired with time n.  Two points are
(n, 2^-j)-separated exactly when their depth-(n + j) prefixes differ, so
the maximal separated-set size of a collection is the number of distinct
depth-(n + j) extensions of its base words: an exact integer.

A growth rate is not fitted to the counts, which are kept as evidence: it
follows from how the collection is built (`OrbitCollection.growth`).  One
base word per length has at most |A|^j depth-j extensions, so its rate is
exactly 0.  The whole language has beta^n <= |L_n| <= beta^(n+1) /
(beta - 1) (Renyi 1957; Parry 1960), so its rate is exactly log beta.
"""

from __future__ import annotations

import math

from .errors import EmptyCollectionError, InputError

# how a collection's growth rate follows from its structure
ONE_WORD = "one-word"  # one base word per length: rate 0
LANGUAGE = "language"  # the whole language: rate log beta


class EntropyEstimate:
    """An exact growth rate in nats per symbol, with the counts behind it:
    0 when `bounds` is None, else log beta for lo <= beta <= hi, `bounds`
    being (lo, hi) as quotients (num, den)."""

    def __init__(self, rate: float, evidence: str, samples: tuple, depth: int,
                 bounds: tuple | None = None):
        if not math.isfinite(rate) or rate < 0:
            raise ValueError("rate must be finite and non-negative")
        self.rate = rate
        self.evidence = evidence
        self.samples = samples  # (n, log count) pairs, strictly increasing in n
        self.depth = depth
        self.bounds = bounds


class OrbitCollection:
    """Per-length word sets, with optional exact fast counting."""

    def __init__(self, system, label, at, counter=None, growth=None):
        """at(n) -> sorted tuple of the base words of length n (possibly
        empty).  `counter(n, j)` may supply the separated count without
        enumeration.  `growth` is ONE_WORD, LANGUAGE, or None: no rate.
        """
        self.system = system
        self.label = label
        self._at = at
        self._counter = counter
        self.growth = growth
        # values callers derive from the listed words, kept with them; only
        # a memoized collection keeps any (see `memoized`)
        self.derived: dict | None = None

    def at(self, n: int):
        """Base words of length n."""
        return self._at(n)

    def __repr__(self):
        return f"OrbitCollection({self.label!r})"

    def memoized(self) -> "OrbitCollection":
        """The same collection, with the words of each length listed once,
        and a `derived` dict for what callers compute from them."""
        listed: dict = {}

        def at(n):
            if n not in listed:
                listed[n] = self._at(n)
            return listed[n]

        memo = OrbitCollection(self.system, self.label, at, self._counter, self.growth)
        memo.derived = {}
        return memo

    # -- constructors ----------------------------------------------------------

    @classmethod
    def full_language(cls, system, label="all"):
        def counter(n, j):
            # the count row dotted with the extension counts; a reached
            # poisoned state raises in `extensions_from`
            pres = system.presentation
            ext = pres.extension_counts(j)
            return sum(c * (pres.extensions_from(s, j) if ext[s] is None else ext[s])
                       for s, c in enumerate(pres.state_counts(n)) if c)

        return cls(system, label, at=lambda n: tuple(system.enumerate_language(n)),
                   counter=counter, growth=LANGUAGE)

    @classmethod
    def one_word(cls, system, label, word, counter):
        """The collection of the one word `word(n)` at each length n."""
        return cls(system, label, at=lambda n: (word(n),), counter=counter,
                   growth=ONE_WORD)


def count_separated(collection: OrbitCollection, n: int, j: int = 0) -> int:
    """Maximal (n, 2^-j)-separated cardinality within the collection at length n.

    Counts the distinct depth-(n + j) prefixes over the collection's base
    words.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if j < 0:
        raise InputError("depth must be >= 0")
    if collection._counter is not None:
        return collection._counter(n, j)
    return sum(collection.system.extensions(v, j) for v in collection.at(n))


def upper_entropy(collection: OrbitCollection, j: int, n_max: int) -> EntropyEstimate:
    """The exact growth rate of the collection at depth j, with its depth-j
    counts for n <= n_max as evidence.

    The rate is 0 for one base word per length, whose count is at most
    |A|^j at every n, and log beta for the whole language, on the bounds
    of `growth_bounds`.  Any other collection is refused.
    """
    if n_max < 8:
        raise InputError("n_max must be at least 8")
    samples = tuple((n, math.log(c)) for n in range(1, n_max + 1)
                    if (c := count_separated(collection, n, j)) > 0)
    if not samples:
        raise EmptyCollectionError(f"empty collection {collection.label!r}")
    system = collection.system
    if collection.growth == ONE_WORD:
        return EntropyEstimate(0.0, f"count <= {system.alphabet_size}^{j} at every n",
                               samples, j)
    if collection.growth == LANGUAGE:
        bounds = system.growth_bounds()
        evidence = "log beta, beta exact"
        if bounds[0] != bounds[1]:
            (p, q), (r, s) = bounds
            evidence = (f"log beta, beta in the enclosure [lo, lo + w], lo = {p / q:.17g}, "
                        f"w = {(r * q - p * s) / (q * s):.3g}")
        return EntropyEstimate(system.log_beta(), evidence, samples, j, bounds)
    raise InputError(f"collection {collection.label!r} has no rate that follows "
                     "from its structure")
