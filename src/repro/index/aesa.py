"""AESA: the full pairwise-matrix baseline of Vidal Ruiz.

Stores all ``n(n-1)/2`` pairwise distances.  At query time candidates are
eliminated through the triangle-inequality lower bound
``lb(x) = max_used |d(q, c) - d(c, x)|``; the next candidate evaluated is
always the one with the smallest bound.  Search cost per query is famously
close to constant — paid for with quadratic storage, which is why the
paper calls pure AESA impractical and why LAESA and permutation indexes
exist.

There is no batched traversal: each query's pivot trajectory is
determined by its own history and trajectories fragment within a few
rounds, so grouping queries by shared pivot measured slower than looping
this per-query algorithm at every batch size (2-3x on vectors, 14-18x on
strings, identical evaluation counts).  The batch API is the base
class's loop.
"""

from __future__ import annotations

import heapq
from typing import Any, List

import numpy as np

from repro.index.base import Index, Neighbor

__all__ = ["AESA"]

#: Float-safety slack on elimination: stored matrix entries and freshly
#: computed distances may differ in the last ulp (different summation
#: orders), so a bound exceeding the radius by less than this is not
#: trusted.  Slack only admits extra candidates; results stay exact.
_SAFETY = 1e-9


class AESA(Index):
    """Approximating–Eliminating Search Algorithm with full distance matrix."""

    def _build(self) -> None:
        self.matrix = self.metric.pairwise(self.points)

    def _range_impl(self, query: Any, radius: float) -> List[Neighbor]:
        n = len(self.points)
        lower = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        results: List[Neighbor] = []
        threshold = radius + _SAFETY * (1.0 + radius)
        while alive.any():
            candidates = np.flatnonzero(alive)
            pivot = int(candidates[np.argmin(lower[candidates])])
            alive[pivot] = False
            d = self.metric.distance(query, self.points[pivot])
            if d <= radius:
                results.append(Neighbor(d, pivot))
            np.maximum(lower, np.abs(d - self.matrix[pivot]), out=lower)
            alive &= lower <= threshold
        return results

    def _knn_impl(self, query: Any, k: int) -> List[Neighbor]:
        n = len(self.points)
        lower = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        heap: List[tuple] = []
        while alive.any():
            candidates = np.flatnonzero(alive)
            pivot = int(candidates[np.argmin(lower[candidates])])
            alive[pivot] = False
            d = self.metric.distance(query, self.points[pivot])
            item = (-d, -pivot)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
            np.maximum(lower, np.abs(d - self.matrix[pivot]), out=lower)
            if len(heap) == k:
                kth = -heap[0][0]
                alive &= lower <= kth + _SAFETY * (1.0 + kth)
        return [Neighbor(-nd, -ni) for nd, ni in heap]

    def storage_floats(self) -> int:
        """Stored scalars: the full ``n x n`` matrix (upper triangle counted once)."""
        n = len(self.points)
        return n * (n - 1) // 2
