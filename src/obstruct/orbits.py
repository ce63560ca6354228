"""Collections of orbit segments and their separated-set growth.

A collection assigns to each length n a set of admissible n-words, the
initial blocks of the points paired with time n.  Two points are
(n, 2^-j)-separated exactly when their depth-(n + j) prefixes differ, so
the maximal separated-set size of a collection is the number of distinct
depth-(n + j) extensions of its base words: an exact integer.

Growth rates are estimated two ways from the exact counts and reported
together: a least-squares slope of log-count over the tail half of the
sample window (the headline figure), and the extremal value of
log(count)/n over the same window.
"""

from __future__ import annotations

import math

from .errors import EmptyCollectionError, InputError

METHOD_REGRESSION = "regression"


class EntropyEstimate:
    """A growth-rate estimate in nats per symbol."""

    def __init__(self, rate: float, method: str, samples: tuple, depth: int,
                 tail_rate: float):
        if not math.isfinite(rate) or rate < 0:
            raise ValueError("rate must be finite and non-negative")
        self.rate = rate
        self.method = method
        self.samples = samples  # (n, log count) pairs, strictly increasing in n
        self.depth = depth
        self.tail_rate = tail_rate


class OrbitCollection:
    """Per-length word sets, with optional exact fast counting."""

    def __init__(self, system, label, at, counter=None):
        """at(n) -> sorted tuple of the base words of length n (possibly
        empty).  `counter(n, j)` may supply the separated count without
        enumeration.
        """
        self.system = system
        self.label = label
        self._at = at
        self._counter = counter
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

        memo = OrbitCollection(self.system, self.label, at=at, counter=self._counter)
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

        return cls(
            system,
            label,
            at=lambda n: tuple(system.enumerate_language(n)),
            counter=counter,
        )


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
    words = collection.at(n)
    total = 0
    for v in words:
        total += collection.system.extensions(v, j)
    return total


def _regression_slope(points) -> float:
    if len(points) < 2:
        return points[0][1] / points[0][0] if points else 0.0
    nbar = sum(p[0] for p in points) / len(points)
    ybar = sum(p[1] for p in points) / len(points)
    sxy = sum((p[0] - nbar) * (p[1] - ybar) for p in points)
    sxx = sum((p[0] - nbar) ** 2 for p in points)
    return sxy / sxx


def _collect_samples(collection, j, n_max):
    samples = []
    for n in range(1, n_max + 1):
        c = count_separated(collection, n, j)
        if c > 0:
            samples.append((n, math.log(c)))
    return samples


def upper_entropy(
    collection: OrbitCollection, j: int, n_max: int, tail_start: int | None = None
) -> EntropyEstimate:
    """Upper growth estimate of the collection at depth j.

    The headline rate is the least-squares slope of log-count over the tail
    window; the attached tail_rate is the window supremum of log(count)/n,
    which is non-increasing as the window start moves right.
    """
    if n_max < 8:
        raise InputError("n_max must be at least 8")
    samples = _collect_samples(collection, j, n_max)
    if not samples:
        raise EmptyCollectionError(f"empty collection {collection.label!r}")
    start = tail_start if tail_start is not None else (n_max + 1) // 2
    window = [p for p in samples if p[0] >= start] or samples[-1:]
    tail_rate = max(y / n for n, y in window)
    slope = _regression_slope(window)
    return EntropyEstimate(
        rate=max(slope, 0.0),
        method=METHOD_REGRESSION,
        samples=tuple(samples),
        depth=j,
        tail_rate=max(tail_rate, 0.0),
    )

