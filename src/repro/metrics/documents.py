"""Document-vector metrics.

The SISAP sample databases ``long`` and ``short`` hold feature vectors
extracted from news articles, compared by the angle between vectors.  The
angular distance ``arccos(cos_similarity)`` is a true metric on the unit
sphere (it is the geodesic distance), unlike raw cosine dissimilarity
``1 - cos``, which violates the triangle inequality.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import Metric

__all__ = ["AngularDistance"]


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("angular distance is undefined for the zero vector")
    cos = (a @ b.T) / np.outer(na, nb)
    return np.clip(cos, -1.0, 1.0)


class AngularDistance(Metric):
    """Angle between vectors, in radians — the geodesic sphere metric."""

    name = "angular"

    def distance(self, x, y) -> float:
        return float(np.arccos(_cosine_matrix(x, y)[0, 0]))

    def matrix(self, xs, ys) -> np.ndarray:
        return np.arccos(_cosine_matrix(xs, ys))

    def pairwise(self, xs) -> np.ndarray:
        out = self.matrix(xs, xs)
        out = 0.5 * (out + out.T)
        np.fill_diagonal(out, 0.0)
        return out
