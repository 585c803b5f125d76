"""Batch/single equivalence: the core contract of the batched query engine.

For every index and for both a vectorized metric (Euclidean) and a
loop-fallback metric (Levenshtein, tie-heavy), the batched API must return
exactly what the looped single-query API returns — same neighbor indices,
same distances, same ``(distance, index)`` tie-breaking — and must keep
the :class:`~repro.index.base.SearchStats` accounts identical: one query
entry per element of the batch and the same total distance evaluations.
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
from repro.metrics import (
    EuclideanDistance,
    LevenshteinDistance,
    PrefixDistance,
)

INDEX_FACTORIES = {
    "linear": lambda pts, m: LinearScan(pts, m),
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


def _signature(neighbors):
    return [(n.index, round(n.distance, 9)) for n in neighbors]


@pytest.fixture(scope="module")
def vector_setup():
    rng = np.random.default_rng(77)
    points = rng.random((180, 3))
    queries = rng.random((9, 3))
    return points, queries, EuclideanDistance


@pytest.fixture(scope="module")
def string_setup():
    rng = np.random.default_rng(78)
    letters = "abc"
    words = list({
        "".join(letters[i] for i in rng.integers(0, 3, size=rng.integers(2, 7)))
        for _ in range(150)
    })
    queries = ["ab", "cba", "aaaa", "bc"]
    return words, queries, LevenshteinDistance


def _string_database():
    """A tie-heavy, mixed-length word database and queries.

    The lengths vary so the Levenshtein banded range path and prefix LCP
    both see length variation.
    """
    rng = np.random.default_rng(78)
    letters = "abc"
    words = list({
        "".join(
            letters[i] for i in rng.integers(0, 3, size=rng.integers(2, 7))
        )
        for _ in range(150)
    })
    queries = ["ab", "cba", "aaaa", "bc"]
    return words, queries


STRING_METRICS = {
    "levenshtein": LevenshteinDistance,
    "prefix": PrefixDistance,
}


def _assert_batch_matches_loop(index_factory, points, queries, metric_cls, k, radius):
    index = index_factory(points, metric_cls())
    index.reset_stats()
    looped_knn = [index.knn_query(query, k) for query in queries]
    looped_knn_stats = (index.stats.queries, index.stats.query_distances)
    index.reset_stats()
    batched_knn = index.knn_batch(queries, k)
    batched_knn_stats = (index.stats.queries, index.stats.query_distances)

    assert len(batched_knn) == len(queries)
    for single, batch in zip(looped_knn, batched_knn):
        assert _signature(batch) == _signature(single)
    assert batched_knn_stats == looped_knn_stats

    index.reset_stats()
    looped_range = [index.range_query(query, radius) for query in queries]
    looped_range_stats = (index.stats.queries, index.stats.query_distances)
    index.reset_stats()
    batched_range = index.range_batch(queries, radius)
    batched_range_stats = (index.stats.queries, index.stats.query_distances)

    for single, batch in zip(looped_range, batched_range):
        assert _signature(batch) == _signature(single)
    assert batched_range_stats == looped_range_stats


@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestVectorizedMetricEquivalence:
    def test_batch_matches_loop(self, name, vector_setup):
        points, queries, metric_cls = vector_setup
        _assert_batch_matches_loop(
            INDEX_FACTORIES[name], points, queries, metric_cls,
            k=7, radius=0.35,
        )

    def test_knn_approx_batch_matches_loop(self, name, vector_setup):
        points, queries, metric_cls = vector_setup
        index = INDEX_FACTORIES[name](points, metric_cls())
        index.reset_stats()
        looped = [index.knn_approx(q, 5, budget=40) for q in queries]
        looped_stats = (index.stats.queries, index.stats.query_distances)
        index.reset_stats()
        batched = index.knn_approx_batch(queries, 5, budget=40)
        batched_stats = (index.stats.queries, index.stats.query_distances)
        for single, batch in zip(looped, batched):
            assert _signature(batch) == _signature(single)
        assert batched_stats == looped_stats


@pytest.mark.parametrize("metric_name", STRING_METRICS)
@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestTieHeavyMetricEquivalence:
    """Discrete distances make ties pervasive: the hard tie-breaking case.

    Every string metric runs through every index: the batched path routes
    through the encoded kernels (including Levenshtein's banded range
    matrix), the looped path through the scalar metric, and the two must
    agree answer for answer and in the evaluation accounts.
    """

    def test_batch_matches_loop(self, name, metric_name):
        metric_cls = STRING_METRICS[metric_name]
        words, queries = _string_database()
        _assert_batch_matches_loop(
            INDEX_FACTORIES[name], words, queries, metric_cls,
            k=9, radius=2,
        )


@pytest.mark.parametrize("name", ["distperm", "vptree"])
class TestMyersPathEquivalence:
    """Batch/single equivalence with the Myers kernel demonstrably armed.

    Gene-like strings (4-letter alphabet, lengths 40–90) make the cost
    model pick the bit-parallel blocked kernel for every matrix the index
    computes; DistPermIndex plus one tree then exercise build, k-NN,
    range, and approximate queries end to end on that path.
    """

    @staticmethod
    def _genes():
        rng = np.random.default_rng(81)
        letters = "acgt"
        words = [
            "".join(letters[i] for i in rng.integers(0, 4, size=n))
            for n in rng.integers(40, 90, size=120)
        ]
        queries = [words[5][:50] + "tt", words[30], "acgt" * 12, ""]
        return words, queries

    def test_plan_picks_myers(self, name):
        from repro.metrics.encoding import _myers_plan, encode_strings

        words, queries = self._genes()
        plan = _myers_plan(
            encode_strings(queries), encode_strings(words), bounded=False
        )
        assert plan is not None and plan[0] in ("x", "y")

    def test_batch_matches_loop(self, name):
        words, queries = self._genes()
        _assert_batch_matches_loop(
            INDEX_FACTORIES[name], words, queries, LevenshteinDistance,
            k=7, radius=30,
        )

    def test_knn_approx_batch_matches_loop(self, name):
        words, queries = self._genes()
        index = INDEX_FACTORIES[name](words, LevenshteinDistance())
        looped = [index.knn_approx(q, 5, budget=40) for q in queries]
        batched = index.knn_approx_batch(queries, 5, budget=40)
        for single, batch in zip(looped, batched):
            assert _signature(batch) == _signature(single)


@pytest.mark.parametrize("name", INDEX_FACTORIES)
class TestSelfQueryEquivalence:
    """Queries drawn from the database itself: the vectorized Euclidean
    path must report an exact 0.0 self-distance (the dot-product matrix
    formula cancels catastrophically there), matching the scalar path."""

    def test_database_points_as_queries(self, name, vector_setup):
        points, _, metric_cls = vector_setup
        index = INDEX_FACTORIES[name](points, metric_cls())
        queries = points[[3, 57, 121]]
        batched = index.knn_batch(queries, 4)
        looped = [index.knn_query(query, 4) for query in queries]
        for qi, (single, batch) in enumerate(zip(looped, batched)):
            assert batch[0].distance == 0.0
            assert _signature(batch) == _signature(single)


class TestBatchEdgeCases:
    def test_empty_query_batch(self, vector_setup):
        points, _, metric_cls = vector_setup
        index = LinearScan(points, metric_cls())
        assert index.knn_batch(np.empty((0, 3)), 3) == []
        assert index.range_batch(np.empty((0, 3)), 0.5) == []
        assert index.stats.queries == 0

    def test_k_larger_than_database(self, vector_setup):
        points, queries, metric_cls = vector_setup
        index = LinearScan(points, metric_cls())
        results = index.knn_batch(queries, len(points) + 10)
        assert all(len(r) == len(points) for r in results)

    def test_rejects_bad_arguments(self, vector_setup):
        points, queries, metric_cls = vector_setup
        index = LinearScan(points, metric_cls())
        with pytest.raises(ValueError):
            index.knn_batch(queries, 0)
        with pytest.raises(ValueError):
            index.range_batch(queries, -0.5)
        with pytest.raises(ValueError):
            index.knn_approx_batch(queries, 0)

    def test_stats_one_entry_per_query(self, vector_setup):
        points, queries, metric_cls = vector_setup
        index = LinearScan(points, metric_cls())
        index.reset_stats()
        index.knn_batch(queries, 3)
        assert index.stats.queries == len(queries)
        index.range_batch(queries, 0.2)
        assert index.stats.queries == 2 * len(queries)


class TestDistPermBudgetedBatch:
    """The permutation index's batch path replaces the per-candidate heap
    with argpartition selection — the budgeted candidate *set* and the
    final answers must still match the single-query scan exactly."""

    @pytest.fixture(scope="class")
    def string_index(self, string_setup):
        words, queries, metric_cls = string_setup
        index = DistPermIndex(
            words, metric_cls(), n_sites=5, rng=np.random.default_rng(11)
        )
        return index, queries

    @pytest.mark.parametrize("budget", [1, 5, 30, 10_000])
    def test_budgeted_batch_matches_loop_on_ties(self, string_index, budget):
        index, queries = string_index
        index.reset_stats()
        looped = [index.knn_approx(q, 6, budget=budget) for q in queries]
        looped_stats = (index.stats.queries, index.stats.query_distances)
        index.reset_stats()
        batched = index.knn_approx_batch(queries, 6, budget=budget)
        batched_stats = (index.stats.queries, index.stats.query_distances)
        for single, batch in zip(looped, batched):
            assert _signature(batch) == _signature(single)
        assert batched_stats == looped_stats

    def test_full_budget_equals_exact_including_tie_indices(self, string_index):
        """Regression for budget-scan tie-breaking: with budget = n the
        approximate scan (max-heap over the proximity order) must return
        the *same indices* as exact knn_query, not just the same
        distances — discrete metrics tie constantly, so any divergence
        between the ``(-d, -i)`` heap order and the ``sorted(Neighbor)``
        order would show up here."""
        index, queries = string_index
        n = len(index)
        for query in queries:
            exact = index.knn_query(query, 8)
            approx = index.knn_approx(query, 8, budget=n)
            batch = index.knn_approx_batch([query], 8, budget=n)[0]
            assert _signature(approx) == _signature(exact)
            assert _signature(batch) == _signature(exact)

    def test_approx_batch_budget_caps_evaluations(self, string_index):
        index, queries = string_index
        index.reset_stats()
        index.knn_approx_batch(queries, 3, budget=20)
        per_query = (20 + index.n_sites) * len(queries)
        assert index.stats.query_distances == per_query

