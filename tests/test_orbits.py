import itertools
import math
from fractions import Fraction

import pytest

from obstruct.beta import BetaSystem
from obstruct.decomposition import beta_decomposition
from obstruct.errors import EmptyCollectionError, InputError
from obstruct.orbits import (
    OrbitCollection,
    count_separated,
    upper_entropy,
)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def brute_golden_words(n):
    """Independent oracle: binary words with no adjacent ones."""
    return [
        w
        for w in itertools.product(range(2), repeat=n)
        if all(not (a and b) for a, b in zip(w, w[1:]))
    ]


class TestCountSeparated:
    def test_full_shift_trivial(self, full2):
        assert count_separated(OrbitCollection.full_language(full2), 3, 0) == 8

    def test_golden_matches_brute_force(self, golden):
        full = OrbitCollection.full_language(golden)
        assert count_separated(full, 3, 0) == len(brute_golden_words(3)) == 5

    def test_depth_offset_identity(self, golden):
        full = OrbitCollection.full_language(golden)
        assert count_separated(full, 2, 1) == golden.count_language(3) == 5

    def test_depth_identity_exhaustive(self, golden, full2, threehalf):
        for system in (golden, full2, threehalf):
            full = OrbitCollection.full_language(system)
            for n in range(1, 13):
                for j in range(0, 13 - n):
                    assert count_separated(full, n, j) == system.count_language(n + j)

    def test_depth_identity_spot_checks_to_20(self, golden):
        full = OrbitCollection.full_language(golden)
        for n, j in [(16, 4), (18, 2), (19, 1), (20, 0), (10, 10)]:
            assert count_separated(full, n, j) == golden.count_language(n + j)

    def test_monotone_in_depth(self, golden):
        full = OrbitCollection.full_language(golden)
        cores = beta_decomposition(golden).cores()
        for coll in (full, cores):
            for n in (2, 5, 8):
                counts = [count_separated(coll, n, j) for j in range(5)]
                assert counts == sorted(counts)

    def test_monotone_in_nesting(self, golden):
        scheme = beta_decomposition(golden)
        full = OrbitCollection.full_language(golden)
        cores = scheme.cores()
        level1 = scheme.level_collection(1)
        for n in range(1, 10):
            for j in (0, 1):
                a = count_separated(cores, n, j)
                b = count_separated(level1, n, j)
                c = count_separated(full, n, j)
                assert a <= b <= c

    def test_empty_length_counts_zero(self, golden):
        coll = OrbitCollection(
            golden, "spotty", at=lambda n: ((0, 0),) if n == 2 else ()
        )
        assert count_separated(coll, 3, 0) == 0
        assert count_separated(coll, 2, 0) == 1

    def test_bad_arguments(self, golden):
        full = OrbitCollection.full_language(golden)
        with pytest.raises(InputError):
            count_separated(full, 0, 0)
        with pytest.raises(InputError):
            count_separated(full, 3, -1)


class TestUpperEntropy:
    def test_full_shift_exact(self, full2):
        est = upper_entropy(OrbitCollection.full_language(full2), 0, 30)
        assert est.rate == math.log(2)
        assert est.bounds == ((2, 1), (2, 1))
        assert est.evidence == "log beta, beta exact"

    def test_golden_fibonacci_oracle(self, golden):
        est = upper_entropy(OrbitCollection.full_language(golden), 0, 40)
        assert est.rate == pytest.approx(LOG_PHI, abs=1e-15)
        assert est.bounds[0] == est.bounds[1]
        # the samples are the Fibonacci counts |L_n| = F_(n+2)
        fib = [1, 2]
        while len(fib) < 41:
            fib.append(fib[-1] + fib[-2])
        assert est.samples == tuple((n, math.log(fib[n])) for n in range(1, 41))

    def test_enclosed_beta_reads_its_enclosure(self):
        # p5's Perron root is neither rational nor quadratic
        p5 = BetaSystem.from_expansion((2, 1, 0, 0, 1), period=5)
        est = upper_entropy(OrbitCollection.full_language(p5), 0, 10)
        (p, q), (r, s) = est.bounds
        assert Fraction(p, q) < Fraction(r, s) < Fraction(p, q) + Fraction(1, 2 ** 128)
        assert est.rate == p5.log_beta()
        assert est.evidence.startswith(
            f"log beta, beta in the enclosure [lo, lo + w], lo = {p / q:.17g}, w = ")

    def test_suffix_collection_rate_zero(self, golden):
        suffixes = beta_decomposition(golden).suffixes()
        est = upper_entropy(suffixes, 0, 40)
        assert est.rate == 0.0

    def test_requires_window(self, golden):
        with pytest.raises(InputError):
            upper_entropy(OrbitCollection.full_language(golden), 0, 7)

    def test_empty_collection(self, golden):
        empty = OrbitCollection(golden, "void", at=lambda n: ())
        with pytest.raises(EmptyCollectionError):
            upper_entropy(empty, 0, 10)


class TestLowerEntropy:
    def test_alternating_gaps(self, golden):
        # a collection whose rate does not follow from its structure (here
        # the even lengths of the language) is refused, not estimated
        coll = OrbitCollection(
            golden,
            "even-only",
            at=lambda n: tuple(golden.enumerate_language(n)) if n % 2 == 0 else (),
        )
        with pytest.raises(InputError, match="even-only"):
            upper_entropy(coll, 0, 20)

    def test_upper_dominates_lower(self, golden, full2, threehalf):
        # the exact rate is below every sample log(count)/n, and the samples
        # come down to it: count <= |A|^j for one word per length, and
        # beta^n <= |L_n| <= beta^(n+1) / (beta - 1) for the language
        for system in (golden, full2, threehalf):
            lo = float(system.beta_value())
            for coll in (OrbitCollection.full_language(system),
                         beta_decomposition(system).suffixes()):
                for j in (0, 1):
                    up = upper_entropy(coll, j, 24)
                    if up.bounds is None:
                        excess = j * math.log(system.alphabet_size)
                    else:
                        excess = (j + 1) * up.rate - math.log(lo - 1)
                    for n, y in up.samples:
                        assert up.rate - 1e-12 <= y / n <= up.rate + (excess + 1e-12) / n

    def test_scale_independence(self, golden):
        full = OrbitCollection.full_language(golden)
        rates = {upper_entropy(full, j, 40).rate for j in range(5)}
        assert rates == {math.log(float(golden.beta_value()))}


def test_estimate_invariants(golden):
    est = upper_entropy(OrbitCollection.full_language(golden), 0, 20)
    ns = [n for n, _ in est.samples]
    assert ns == sorted(set(ns)) == list(range(1, 21))
    assert est.rate >= 0 and math.isfinite(est.rate)
    assert est.depth == 0
    suffix = upper_entropy(beta_decomposition(golden).suffixes(), 2, 20)
    assert (suffix.rate, suffix.bounds) == (0.0, None)
    assert suffix.evidence == "count <= 2^2 at every n"
