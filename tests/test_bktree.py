"""Tests for the Burkhard–Keller tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.dictionaries import synthetic_dictionary
from repro.index import BKTree, LinearScan
from repro.metrics import (
    EuclideanDistance,
    LevenshteinDistance,
    PrefixDistance,
)


@pytest.fixture(scope="module")
def dictionary():
    return synthetic_dictionary("English", 400, np.random.default_rng(0))


@pytest.fixture(scope="module")
def oracle(dictionary):
    return LinearScan(dictionary, LevenshteinDistance())


class TestExactness:
    def test_range_matches_linear(self, dictionary, oracle):
        tree = BKTree(dictionary, LevenshteinDistance())
        for query in ("hello", "aaa", dictionary[17]):
            for radius in (0, 1, 2, 4):
                got = [(n.index, n.distance)
                       for n in tree.range_query(query, radius)]
                want = [(n.index, n.distance)
                        for n in oracle.range_query(query, radius)]
                assert got == want

    def test_knn_matches_linear(self, dictionary, oracle):
        tree = BKTree(dictionary, LevenshteinDistance())
        for query in ("hello", "zzz"):
            for k in (1, 5, 25):
                got = sorted(n.distance for n in tree.knn_query(query, k))
                want = sorted(n.distance for n in oracle.knn_query(query, k))
                assert got == want

    def test_duplicates_handled(self):
        words = ["abc", "abd", "abc", "xyz", "abc"]
        tree = BKTree(words, LevenshteinDistance())
        result = tree.range_query("abc", 0)
        assert {n.index for n in result} == {0, 2, 4}

    def test_prefix_metric_supported(self):
        words = ["a", "ab", "abc", "b", "ba"]
        tree = BKTree(words, PrefixDistance())
        oracle = LinearScan(words, PrefixDistance())
        for radius in (1, 2, 3):
            got = [(n.index, n.distance) for n in tree.range_query("ab", radius)]
            want = [(n.index, n.distance) for n in oracle.range_query("ab", radius)]
            assert got == want


class TestCostAndValidation:
    def test_prunes_versus_linear(self, dictionary, oracle):
        tree = BKTree(dictionary, LevenshteinDistance())
        tree.reset_stats()
        for query in ("hello", "query", "test"):
            tree.range_query(query, 1)
        assert tree.stats.distances_per_query < 0.8 * len(dictionary)

    def test_rejects_continuous_metric(self, rng):
        points = rng.random((10, 2))
        with pytest.raises(ValueError):
            BKTree(list(points), EuclideanDistance())

    def test_build_cost_counted(self, dictionary):
        tree = BKTree(dictionary, LevenshteinDistance())
        # Each insertion walks at least one comparison.
        assert tree.stats.build_distances >= len(dictionary) - 1
