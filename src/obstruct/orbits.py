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
import warnings
from dataclasses import dataclass

from .errors import EmptyCollectionError, InputError

METHOD_REGRESSION = "regression"
METHOD_TAIL = "limsup-tail"


@dataclass(frozen=True)
class EntropyEstimate:
    """A growth-rate estimate in nats per symbol."""

    rate: float
    method: str
    samples: tuple  # (n, log count) pairs, strictly increasing in n
    depth: int
    tail_rate: float
    warning: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.rate) or self.rate < 0:
            raise ValueError("rate must be finite and non-negative")


class OrbitCollection:
    """Per-length word sets, with optional exact fast counting."""

    def __init__(self, system, label, at, lengths=None, counter=None):
        """at(n) -> sorted tuple of base words, or None when D_n is undefined.

        `lengths`: None means every n >= 1 carries a (possibly empty) set;
        otherwise only the given lengths are defined.  `counter(n, j)` may
        supply the separated count without enumeration.
        """
        self.system = system
        self.label = label
        self._at = at
        self.lengths = None if lengths is None else frozenset(lengths)
        self._counter = counter

    def defined_at(self, n: int) -> bool:
        return n >= 0 and (self.lengths is None or n in self.lengths)

    def at(self, n: int):
        """Base words of length n; None when the length is undefined."""
        if not self.defined_at(n):
            return None
        return self._at(n)

    def __repr__(self):
        return f"OrbitCollection({self.label!r})"

    # -- constructors ----------------------------------------------------------

    @classmethod
    def full_language(cls, system, label="all"):
        def counter(n, j):
            counts = system.presentation.state_counts(n)
            ext = system.presentation.extensions_from
            return sum(c * ext(s, j) for s, c in enumerate(counts) if c)

        return cls(
            system,
            label,
            at=lambda n: tuple(system.enumerate_language(n)),
            counter=counter,
        )

    @classmethod
    def from_sets(cls, system, sets: dict, label):
        table = {n: tuple(sorted(ws)) for n, ws in sets.items()}
        return cls(system, label, at=lambda n: table.get(n, ()), lengths=table)

    @classmethod
    def from_predicate(cls, system, predicate, label, lengths=None):
        def at(n):
            return tuple(v for v in system.enumerate_language(n) if predicate(v))

        return cls(system, label, at=at, lengths=lengths)

    @classmethod
    def from_match_predicate(cls, system, match_predicate, label):
        """Words selected by their exact suffix-match value; counted by DP."""

        def at(n):
            return tuple(
                v
                for v in system.enumerate_language(n)
                if match_predicate(system.suffix_match_length(v), n)
            )

        def counter(n, j):
            z = system.core_counts(n)
            ext = system.presentation.extensions_from
            return sum(
                z[n - m] * ext(system.match_state(m), j)
                for m in range(n + 1)
                if z[n - m] and match_predicate(m, n)
            )

        return cls(system, label, at=at, counter=counter)


def count_separated(collection: OrbitCollection, n: int, j: int = 0) -> int:
    """Maximal (n, 2^-j)-separated cardinality within the collection at length n.

    Counts the distinct depth-(n + j) prefixes over the collection's base
    words; lengths the collection does not define count as 0 with a warning.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if j < 0:
        raise InputError("depth must be >= 0")
    if not collection.defined_at(n):
        warnings.warn(
            f"collection {collection.label!r} is undefined at length {n}; counting 0",
            stacklevel=2,
        )
        return 0
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
    gaps = []
    for n in range(1, n_max + 1):
        if not collection.defined_at(n):
            gaps.append(n)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c = count_separated(collection, n, j)
        if c > 0:
            samples.append((n, math.log(c)))
        else:
            gaps.append(n)
    return samples, gaps


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
    samples, gaps = _collect_samples(collection, j, n_max)
    if not samples:
        raise EmptyCollectionError(f"empty collection {collection.label!r}")
    start = tail_start if tail_start is not None else (n_max + 1) // 2
    window = [p for p in samples if p[0] >= start] or samples[-1:]
    tail_rate = max(y / n for n, y in window)
    slope = _regression_slope(window)
    warning = f"no members at lengths {gaps[:4]}..." if gaps else None
    return EntropyEstimate(
        rate=max(slope, 0.0),
        method=METHOD_REGRESSION,
        samples=tuple(samples),
        depth=j,
        tail_rate=max(tail_rate, 0.0),
        warning=warning,
    )


def lower_entropy(
    collection: OrbitCollection, j: int, n_max: int, tail_start: int | None = None
) -> EntropyEstimate:
    """Lower growth estimate: the tail-window infimum of log(count)/n.

    Lengths at which the collection is empty or undefined contribute 0, so
    gapped collections are driven to rate 0 while the upper estimate can
    stay positive.
    """
    if n_max < 8:
        raise InputError("n_max must be at least 8")
    samples, gaps = _collect_samples(collection, j, n_max)
    if not samples:
        raise EmptyCollectionError(f"empty collection {collection.label!r}")
    start = tail_start if tail_start is not None else (n_max + 1) // 2
    values = {n: y for n, y in samples}
    window_rates = [
        values[n] / n if n in values else 0.0 for n in range(start, n_max + 1)
    ]
    tail_rate = min(window_rates) if window_rates else 0.0
    warning = f"no members at lengths {gaps[:4]}..." if gaps else None
    return EntropyEstimate(
        rate=max(tail_rate, 0.0),
        method=METHOD_TAIL,
        samples=tuple(samples),
        depth=j,
        tail_rate=max(tail_rate, 0.0),
        warning=warning,
    )
