"""Tests for the metric base classes and instrumentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import (
    CityblockDistance,
    CountingMetric,
    EuclideanDistance,
    LevenshteinDistance,
)
from repro.metrics.base import Metric


class _Discrete(Metric):
    """Minimal metric implementing only the scalar method."""

    name = "discrete"

    def distance(self, x, y) -> float:
        return 0.0 if x == y else 1.0


class TestDefaultBatchMethods:
    def test_matrix_falls_back_to_loops(self):
        metric = _Discrete()
        out = metric.matrix(["a", "b"], ["a", "b", "c"])
        np.testing.assert_array_equal(
            out, [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
        )

    def test_pairwise_symmetric_zero_diagonal(self):
        metric = _Discrete()
        out = metric.pairwise(["a", "b", "c", "a"])
        np.testing.assert_allclose(out, out.T)
        assert out[0, 3] == 0.0
        assert out[0, 1] == 1.0
        np.testing.assert_array_equal(np.diag(out), np.zeros(4))

    def test_to_sites_shape(self):
        metric = _Discrete()
        out = metric.to_sites(list("abcd"), list("xy"))
        assert out.shape == (4, 2)

    def test_to_sites_compact_defaults_to_to_sites(self):
        metric = _Discrete()
        [(start, stop, block)] = metric.to_sites_compact(
            list("abcd"), list("ay")
        )
        assert (start, stop) == (0, 4)
        np.testing.assert_array_equal(
            block, metric.to_sites(list("abcd"), list("ay"))
        )

    def test_minkowski_blocks_equal_to_sites_bit_for_bit(self, rng):
        from repro.metrics.minkowski import _CHUNK_ROWS

        points = rng.random((2 * _CHUNK_ROWS + 5, 3))
        sites = points[:4]
        for metric in (EuclideanDistance(), CityblockDistance()):
            blocks = list(metric.to_sites_compact(points, sites))
            assert [(start, stop) for start, stop, _ in blocks] == [
                (0, _CHUNK_ROWS),
                (_CHUNK_ROWS, 2 * _CHUNK_ROWS),
                (2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 5),
            ]
            whole = np.concatenate([block for _, _, block in blocks])
            assert whole.tobytes() == metric.to_sites(points, sites).tobytes()

    def test_callable(self):
        assert _Discrete()("a", "b") == 1.0

    def test_batch_distances_falls_back_to_matrix(self):
        metric = _Discrete()
        out = metric.batch_distances(["a", "b"], ["a", "b", "c"])
        np.testing.assert_array_equal(
            out, metric.matrix(["a", "b"], ["a", "b", "c"])
        )

    def test_batch_distances_vectorized_matches_scalar(self, rng):
        metric = EuclideanDistance()
        queries = rng.random((5, 3))
        points = rng.random((7, 3))
        out = metric.batch_distances(queries, points)
        assert out.shape == (5, 7)
        for i, q in enumerate(queries):
            for j, p in enumerate(points):
                assert out[i, j] == pytest.approx(metric.distance(q, p))


class _VectorizedMatrix(Metric):
    """Metric overriding ``matrix`` but not ``pairwise``."""

    name = "vectorized"

    def __init__(self):
        self.matrix_calls = 0

    def distance(self, x, y) -> float:
        return abs(float(x) - float(y))

    def matrix(self, xs, ys) -> np.ndarray:
        self.matrix_calls += 1
        a = np.asarray(xs, dtype=np.float64)
        b = np.asarray(ys, dtype=np.float64)
        return np.abs(a[:, None] - b[None, :])


class TestPairwiseDelegation:
    def test_delegates_to_overridden_matrix(self):
        metric = _VectorizedMatrix()
        out = metric.pairwise([0.0, 1.0, 3.0])
        assert metric.matrix_calls == 1
        np.testing.assert_allclose(
            out, [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
        )

    def test_delegated_pairwise_is_symmetric_with_zero_diagonal(self, rng):
        metric = _VectorizedMatrix()
        out = metric.pairwise(rng.random(10))
        np.testing.assert_array_equal(out, out.T)
        np.testing.assert_array_equal(np.diag(out), np.zeros(10))

    def test_loop_fallback_without_matrix_override(self):
        metric = _Discrete()
        out = metric.pairwise(["a", "b", "a"])
        np.testing.assert_array_equal(
            out, [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )


class TestCountingMetric:
    def test_counts_scalar_calls(self):
        counter = CountingMetric(_Discrete())
        counter.distance("a", "b")
        counter.distance("a", "a")
        assert counter.count == 2

    def test_counts_matrix_entries(self):
        counter = CountingMetric(_Discrete())
        counter.matrix(list("abc"), list("xy"))
        assert counter.count == 6

    def test_counts_to_sites(self):
        counter = CountingMetric(_Discrete())
        counter.to_sites(list("abcd"), list("xyz"))
        assert counter.count == 12

    def test_counts_to_sites_compact(self):
        counter = CountingMetric(_Discrete())
        blocks = counter.to_sites_compact(list("abcd"), list("xyz"))
        # Charged once, at the call, before any block is drawn.
        assert counter.count == 12
        [(_, _, out)] = blocks
        assert counter.count == 12 and out.shape == (4, 3)

    def test_counts_batch_distances(self):
        counter = CountingMetric(_Discrete())
        counter.batch_distances(list("ab"), list("xyz"))
        assert counter.count == 6

    def test_counts_pairwise_half_matrix(self):
        counter = CountingMetric(_Discrete())
        counter.pairwise(list("abcde"))
        assert counter.count == 10

    def test_reset(self):
        counter = CountingMetric(_Discrete())
        counter.distance("a", "b")
        counter.reset()
        assert counter.count == 0

    def test_values_pass_through(self, rng):
        inner = EuclideanDistance()
        counter = CountingMetric(inner)
        x, y = rng.random(3), rng.random(3)
        assert counter.distance(x, y) == inner.distance(x, y)

    def test_wraps_name(self):
        assert CountingMetric(LevenshteinDistance()).name == "levenshtein"

    def test_repr_shows_count(self):
        counter = CountingMetric(_Discrete())
        counter.distance("a", "b")
        assert "count=1" in repr(counter)
