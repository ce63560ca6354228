import itertools
import math

import pytest

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
        assert est.rate == pytest.approx(math.log(2), abs=1e-12)
        assert est.method == "regression"

    def test_golden_fibonacci_oracle(self, golden):
        est = upper_entropy(OrbitCollection.full_language(golden), 0, 40)
        assert abs(est.rate - LOG_PHI) < 0.02

    def test_suffix_collection_rate_zero(self, golden):
        suffixes = beta_decomposition(golden).suffixes()
        est = upper_entropy(suffixes, 0, 40)
        assert est.rate == 0.0

    def test_tail_sup_monotone_in_window_start(self, golden):
        full = OrbitCollection.full_language(golden)
        sups = [
            upper_entropy(full, 0, 30, tail_start=t).tail_rate for t in range(5, 28)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(sups, sups[1:]))

    def test_requires_window(self, golden):
        with pytest.raises(InputError):
            upper_entropy(OrbitCollection.full_language(golden), 0, 7)

    def test_empty_collection(self, golden):
        empty = OrbitCollection(golden, "void", at=lambda n: ())
        with pytest.raises(EmptyCollectionError):
            upper_entropy(empty, 0, 10)


class TestLowerEntropy:
    def test_alternating_gaps(self, golden):
        coll = OrbitCollection(
            golden,
            "even-only",
            at=lambda n: tuple(golden.enumerate_language(n)) if n % 2 == 0 else (),
        )
        upper = upper_entropy(coll, 0, 20)
        assert upper.rate > 0.3

    def test_upper_dominates_lower(self, golden, full2):
        # compared on the same tail window: the window supremum of
        # log(count)/n is above its infimum (empty lengths count 0); the
        # headline upper estimate is a regression and is not pointwise above
        # the window infimum at finite n
        collections = [
            OrbitCollection.full_language(golden),
            beta_decomposition(golden).cores(),
            OrbitCollection.full_language(full2),
            beta_decomposition(full2).level_collection(2),
        ]
        for coll in collections:
            for j in (0, 1):
                up = upper_entropy(coll, j, 24)
                counts = [count_separated(coll, n, j) for n in range(12, 25)]
                low = min(math.log(c) / n if c else 0.0
                          for n, c in zip(range(12, 25), counts))
                assert up.tail_rate >= low - 1e-12

    def test_scale_independence(self, golden):
        full = OrbitCollection.full_language(golden)
        n_max = 40
        rates = [upper_entropy(full, j, n_max).rate for j in range(5)]
        tol = 2 * math.log(2) * 4 / n_max
        assert max(rates) - min(rates) <= tol


def test_estimate_invariants(golden):
    est = upper_entropy(OrbitCollection.full_language(golden), 0, 20)
    ns = [n for n, _ in est.samples]
    assert ns == sorted(set(ns))
    assert est.rate >= 0 and math.isfinite(est.rate)
    assert est.depth == 0
