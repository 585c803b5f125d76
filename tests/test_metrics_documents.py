"""Tests for document-vector metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import check_metric_axioms

from repro.metrics import AngularDistance


class TestAngularDistance:
    def test_orthogonal_vectors(self):
        metric = AngularDistance()
        assert metric.distance([1, 0], [0, 1]) == pytest.approx(math.pi / 2)

    def test_parallel_vectors(self):
        metric = AngularDistance()
        assert metric.distance([1, 2], [2, 4]) == pytest.approx(0.0, abs=1e-7)

    def test_opposite_vectors(self):
        metric = AngularDistance()
        assert metric.distance([1, 0], [-1, 0]) == pytest.approx(math.pi)

    def test_scale_invariant(self, rng):
        metric = AngularDistance()
        x = rng.random(5) + 0.1
        y = rng.random(5) + 0.1
        assert metric.distance(x, y) == pytest.approx(
            metric.distance(3.7 * x, 0.2 * y)
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            AngularDistance().distance([0, 0], [1, 0])

    def test_matrix_matches_scalar(self, rng):
        metric = AngularDistance()
        a = rng.random((8, 4)) + 0.01
        b = rng.random((5, 4)) + 0.01
        matrix = metric.matrix(a, b)
        for i in range(8):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(
                    metric.distance(a[i], b[j]), abs=1e-9
                )

    def test_axioms_on_random_sample(self, rng):
        # Positive vectors avoid antipodal pairs, which are legitimately
        # at distance pi but never identical.
        points = [row for row in rng.random((10, 4)) + 0.05]
        violation = check_metric_axioms(AngularDistance(), points, tol=1e-7)
        assert violation is None, str(violation)

    def test_pairwise_symmetric(self, rng):
        metric = AngularDistance()
        points = rng.random((12, 6)) + 0.01
        matrix = metric.pairwise(points)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_array_equal(np.diag(matrix), np.zeros(12))

