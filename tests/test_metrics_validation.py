"""Tests for the metric axiom checkers themselves."""

from __future__ import annotations

import numpy as np

from oracles import (
    MetricViolation,
    check_identity,
    check_metric_axioms,
    check_symmetry,
    check_triangle_inequality,
)

from repro.metrics import EuclideanDistance
from repro.metrics.base import Metric


class _Asymmetric(Metric):
    name = "asymmetric"

    def distance(self, x, y) -> float:
        return float(max(y - x, 0.0))


class _NoIdentity(Metric):
    name = "no-identity"

    def distance(self, x, y) -> float:
        return 1.0


class _SquaredEuclidean(Metric):
    """Violates the triangle inequality (the classic near-miss)."""

    name = "sq-euclidean"

    def distance(self, x, y) -> float:
        return float(np.sum((np.asarray(x) - np.asarray(y)) ** 2))


class TestCheckers:
    def test_identity_violation_detected(self):
        violation = check_identity(_NoIdentity(), [1.0, 2.0])
        assert violation is not None
        assert violation.axiom == "identity"

    def test_positivity_violation_detected(self):
        class Zero(Metric):
            name = "zero"

            def distance(self, x, y) -> float:
                return 0.0

        violation = check_identity(Zero(), [1.0, 2.0])
        assert violation is not None
        assert violation.axiom == "positivity"

    def test_symmetry_violation_detected(self):
        violation = check_symmetry(_Asymmetric(), [0.0, 1.0])
        assert violation is not None
        assert violation.axiom == "symmetry"

    def test_triangle_violation_detected(self):
        points = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
        violation = check_triangle_inequality(_SquaredEuclidean(), points)
        assert violation is not None
        assert violation.axiom == "triangle"

    def test_clean_metric_passes_all(self, rng):
        points = list(rng.random((8, 3)))
        assert check_metric_axioms(EuclideanDistance(), points) is None

    def test_check_all_reports_first_failure(self):
        violation = check_metric_axioms(_NoIdentity(), [1.0, 2.0])
        assert violation is not None
        assert violation.axiom == "identity"

    def test_violation_str_is_informative(self):
        violation = MetricViolation("triangle", (1, 2, 3), "slack -0.5")
        text = str(violation)
        assert "triangle" in text
        assert "slack" in text

    def test_numpy_points_identity(self, rng):
        # Distinct numpy arrays must not trip the ambiguous-truth path.
        points = [rng.random(3) for _ in range(5)]
        assert check_identity(EuclideanDistance(), points) is None

    def test_duplicate_numpy_points_skipped(self):
        x = np.array([1.0, 2.0])
        assert check_identity(EuclideanDistance(), [x, x.copy()]) is None
