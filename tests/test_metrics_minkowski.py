"""Tests for the Minkowski L_p metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from oracles import check_metric_axioms

from repro.metrics import (
    ChebyshevDistance,
    CityblockDistance,
    EuclideanDistance,
    MinkowskiMetric,
    minkowski_distance,
)

finite_floats = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)


def vectors(dim: int, count: int):
    return hnp.arrays(
        np.float64, (count, dim), elements=finite_floats
    )


class TestScalarDistance:
    def test_known_l1(self):
        assert minkowski_distance([0, 0], [3, 4], 1) == 7.0

    def test_known_l2(self):
        assert minkowski_distance([0, 0], [3, 4], 2) == 5.0

    def test_known_linf(self):
        assert minkowski_distance([0, 0], [3, 4], math.inf) == 4.0

    def test_known_l3(self):
        expected = (3**3 + 4**3) ** (1 / 3)
        assert minkowski_distance([0, 0], [3, 4], 3) == pytest.approx(expected)

    def test_identity(self):
        assert minkowski_distance([1.5, -2.5], [1.5, -2.5], 2) == 0.0

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            minkowski_distance([0], [1], 0.5)

    def test_metric_class_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            MinkowskiMetric(0.9)

    def test_empty_vectors(self):
        assert minkowski_distance([], [], math.inf) == 0.0


class TestMatrixAgainstScipy:
    """The vectorized matrix must agree with scipy's reference cdist."""

    @pytest.mark.parametrize(
        "p,scipy_metric",
        [(1, "cityblock"), (2, "euclidean"), (math.inf, "chebyshev")],
    )
    def test_matches_cdist(self, rng, p, scipy_metric):
        a = rng.random((40, 5))
        b = rng.random((17, 5))
        ours = MinkowskiMetric(p).matrix(a, b)
        reference = cdist(a, b, metric=scipy_metric)
        np.testing.assert_allclose(ours, reference, atol=1e-12)

    def test_matches_cdist_general_p(self, rng):
        a = rng.random((20, 4))
        b = rng.random((11, 4))
        ours = MinkowskiMetric(3).matrix(a, b)
        reference = cdist(a, b, metric="minkowski", p=3)
        np.testing.assert_allclose(ours, reference, atol=1e-12)

    def test_chunked_path_consistent(self, rng, monkeypatch):
        """Forcing tiny chunks must not change the result."""
        import repro.metrics.minkowski as mod

        a = rng.random((30, 3))
        b = rng.random((7, 3))
        full = MinkowskiMetric(2).matrix(a, b)
        monkeypatch.setattr(mod, "_CHUNK_ROWS", 4)
        chunked = MinkowskiMetric(2).matrix(a, b)
        np.testing.assert_allclose(full, chunked)

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            MinkowskiMetric(2).matrix(rng.random((3, 2)), rng.random((3, 4)))


class TestPairwise:
    def test_symmetric_zero_diagonal(self, rng, lp_metric):
        points = rng.random((25, 4))
        matrix = lp_metric.pairwise(points)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_array_equal(np.diag(matrix), np.zeros(25))

    def test_matches_scalar(self, rng, lp_metric):
        points = rng.random((10, 3))
        matrix = lp_metric.pairwise(points)
        for i in range(10):
            for j in range(10):
                assert matrix[i, j] == pytest.approx(
                    lp_metric.distance(points[i], points[j]), abs=1e-12
                )


class TestAxioms:
    @pytest.mark.parametrize("p", [1, 1.5, 2, 4, math.inf])
    def test_axioms_on_random_sample(self, rng, p):
        points = list(rng.random((12, 3)))
        violation = check_metric_axioms(MinkowskiMetric(p), points, tol=1e-9)
        assert violation is None, str(violation)

    @given(vectors(3, 3))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality_property(self, pts):
        metric = EuclideanDistance()
        x, y, z = pts
        dxz = metric.distance(x, z)
        dxy = metric.distance(x, y)
        dyz = metric.distance(y, z)
        assert dxz <= dxy + dyz + 1e-7


class TestNames:
    def test_names(self):
        assert CityblockDistance().name == "L1"
        assert EuclideanDistance().name == "L2"
        assert ChebyshevDistance().name == "Linf"
        assert MinkowskiMetric(2.5).name == "L2.5"

    def test_repr(self):
        assert "p=2" in repr(MinkowskiMetric(2))
