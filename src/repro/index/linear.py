"""Naive linear scan: the correctness oracle and cost baseline.

"The naive algorithm for proximity search measures the distance from the
query point to each object in the database in turn" — every other index is
validated against this one and judged by how many of those ``n`` distance
evaluations it avoids.

The batched query path has a direct distance-matrix formulation: one
chunked :meth:`~repro.metrics.base.Metric.batch_distances` call per query
block plus ``np.argpartition`` top-k extraction, which on vectorized
metrics replaces ``n`` Python-level metric calls per query with a handful
of array operations for the whole batch.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.index.base import Index, Neighbor, NeighborArrays
from repro.index.batching import (
    exhaustive_knn_batch,
    exhaustive_range_batch,
    scan_knn,
)

__all__ = ["LinearScan"]


class LinearScan(Index):
    """Exhaustive scan; exact by construction."""

    def _build(self) -> None:
        pass  # nothing to precompute

    # Both surfaces keep a traversal although the matrix path is faster
    # even for one row: the scalar metric.distance loop below is the
    # reference every exactness test compares the other indexes (and this
    # class's own batch path) against, and a reference must not share
    # kernels with what it checks.

    def _range_impl(self, query: Any, radius: float) -> List[Neighbor]:
        results = []
        for i, point in enumerate(self.points):
            d = self.metric.distance(query, point)
            if d <= radius:
                results.append(Neighbor(d, i))
        return results

    def _knn_impl(self, query: Any, k: int) -> List[Neighbor]:
        return scan_knn(self.metric, query, self.points, k)

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        return exhaustive_range_batch(self.metric, queries, self.points, radius)

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        return exhaustive_knn_batch(self.metric, queries, self.points, k)
