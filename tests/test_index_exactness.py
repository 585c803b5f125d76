"""Cross-index exactness: every index returns the linear-scan answers.

This is the core integration guarantee of the index substrate: range
queries agree element-for-element and kNN queries agree on the distance
multiset (tie-broken index choices may differ between algorithms).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index import (
    AESA,
    DistPermIndex,
    IAESA,
    LinearScan,
    PivotIndex,
    VPTree,
)
from repro.metrics import EuclideanDistance, LevenshteinDistance

INDEX_FACTORIES = {
    "pivots": lambda pts, m: PivotIndex(
        pts, m, n_pivots=6, rng=np.random.default_rng(1)
    ),
    "aesa": lambda pts, m: AESA(pts, m),
    "iaesa": lambda pts, m: IAESA(pts, m),
    "distperm": lambda pts, m: DistPermIndex(
        pts, m, n_sites=6, rng=np.random.default_rng(2)
    ),
    "vptree": lambda pts, m: VPTree(pts, m, rng=np.random.default_rng(3)),
}


def _range_signature(index, query, radius):
    return [(n.index, round(n.distance, 9)) for n in index.range_query(query, radius)]


def _knn_distances(index, query, k):
    return sorted(round(n.distance, 9) for n in index.knn_query(query, k))


@pytest.fixture(scope="module")
def vector_setup():
    rng = np.random.default_rng(42)
    points = rng.random((250, 3))
    queries = rng.random((8, 3))
    metric = EuclideanDistance()
    return points, queries, metric, LinearScan(points, metric)


@pytest.fixture(scope="module")
def string_setup():
    rng = np.random.default_rng(43)
    letters = "abcde"
    words = list({
        "".join(letters[i] for i in rng.integers(0, 5, size=rng.integers(2, 8)))
        for _ in range(200)
    })
    queries = ["abc", "edcba", "aaaa"]
    metric = LevenshteinDistance()
    return words, queries, metric, LinearScan(words, metric)


@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestVectorExactness:
    def test_range_queries_match_linear(self, name, vector_setup):
        points, queries, metric, oracle = vector_setup
        index = INDEX_FACTORIES[name](points, metric)
        for query in queries:
            for radius in (0.05, 0.2, 0.6, 2.0):
                assert _range_signature(index, query, radius) == _range_signature(
                    oracle, query, radius
                )

    def test_knn_queries_match_linear(self, name, vector_setup):
        points, queries, metric, oracle = vector_setup
        index = INDEX_FACTORIES[name](points, metric)
        for query in queries:
            for k in (1, 3, 10, 40):
                assert _knn_distances(index, query, k) == _knn_distances(
                    oracle, query, k
                )

    def test_radius_zero(self, name, vector_setup):
        points, _, metric, oracle = vector_setup
        index = INDEX_FACTORIES[name](points, metric)
        # Query sitting exactly on a database point.
        query = points[17]
        result = index.range_query(query, 0.0)
        assert any(n.index == 17 and n.distance == 0.0 for n in result)

    def test_k_larger_than_database(self, name, vector_setup):
        points, queries, metric, oracle = vector_setup
        index = INDEX_FACTORIES[name](points, metric)
        result = index.knn_query(queries[0], len(points) + 50)
        assert len(result) == len(points)


@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestStringExactness:
    """Discrete metrics are tie-heavy: the hard case for pruning logic."""

    def test_range_queries_match_linear(self, name, string_setup):
        words, queries, metric, oracle = string_setup
        index = INDEX_FACTORIES[name](words, metric)
        for query in queries:
            for radius in (0, 1, 2, 4):
                assert _range_signature(index, query, radius) == _range_signature(
                    oracle, query, radius
                )

    def test_knn_queries_match_linear(self, name, string_setup):
        words, queries, metric, oracle = string_setup
        index = INDEX_FACTORIES[name](words, metric)
        for query in queries:
            for k in (1, 5, 20):
                assert _knn_distances(index, query, k) == _knn_distances(
                    oracle, query, k
                )


@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestCommonBehaviour:
    def test_rejects_empty_database(self, name):
        with pytest.raises(ValueError):
            INDEX_FACTORIES[name]([], EuclideanDistance())

    def test_rejects_negative_radius(self, name, vector_setup):
        points, queries, metric, _ = vector_setup
        index = INDEX_FACTORIES[name](points, metric)
        with pytest.raises(ValueError):
            index.range_query(queries[0], -1.0)

    def test_rejects_k_zero(self, name, vector_setup):
        points, queries, metric, _ = vector_setup
        index = INDEX_FACTORIES[name](points, metric)
        with pytest.raises(ValueError):
            index.knn_query(queries[0], 0)

    def test_stats_accumulate(self, name, vector_setup):
        points, queries, metric, _ = vector_setup
        index = INDEX_FACTORIES[name](points, metric)
        index.reset_stats()
        index.knn_query(queries[0], 3)
        index.range_query(queries[1], 0.2)
        assert index.stats.queries == 2
        assert index.stats.query_distances > 0
        assert index.stats.distances_per_query > 0

    def test_len_and_repr(self, name, vector_setup):
        points, _, metric, _ = vector_setup
        index = INDEX_FACTORIES[name](points, metric)
        assert len(index) == len(points)
        assert str(len(points)) in repr(index)
