"""LAESA: the pivot table of Micó, Oncina, and Vidal.

Stores the distances from every database element to ``k`` chosen pivots
(``Θ(kn)`` space instead of AESA's ``Θ(n²)``).  At query time the triangle
inequality gives the lower bound ``max_i |d(q, p_i) - d(x, p_i)| <=
d(q, x)``, and any element whose bound exceeds the radius is skipped
without evaluating the metric.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.permutation import footrule_matrix, ranked_permutations
from repro.index.base import Index, Neighbor
from repro.metrics.base import Metric

__all__ = ["PivotIndex", "select_pivots"]

#: Float-safety slack on pruning: stored table entries and fresh query
#: distances may disagree in the last ulp.  Slack only admits extra
#: candidates; results stay exact.
_SAFETY = 1e-9


def select_pivots(
    points: Sequence[Any],
    metric: Metric,
    k: int,
    strategy: str = "maxmin",
    rng: Optional[np.random.Generator] = None,
) -> List[int]:
    """Choose ``k`` pivot indices from the database.

    ``"random"`` samples uniformly; ``"maxmin"`` (default) greedily picks
    the element farthest from the pivots chosen so far, the usual outlier
    heuristic; ``"first"`` takes the first ``k`` elements (the SISAP
    library's default, useful for reproducibility).
    """
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if strategy == "first":
        return list(range(k))
    rng = rng if rng is not None else np.random.default_rng()
    if strategy == "random":
        return [int(i) for i in rng.choice(n, size=k, replace=False)]
    if strategy != "maxmin":
        raise ValueError(f"unknown strategy {strategy!r}")
    pivots = [int(rng.integers(0, n))]
    minimum_distance = np.array(
        [metric.distance(points[pivots[0]], x) for x in points]
    )
    while len(pivots) < k:
        candidate = int(np.argmax(minimum_distance))
        pivots.append(candidate)
        new_distances = np.array(
            [metric.distance(points[candidate], x) for x in points]
        )
        np.minimum(minimum_distance, new_distances, out=minimum_distance)
    return pivots


class PivotIndex(Index):
    """LAESA pivot table supporting exact range and kNN queries.

    ``candidate_order`` selects the kNN evaluation order:

    - ``"lower_bound"`` (classic LAESA): ascending triangle-inequality
      bound, which also enables early loop exit;
    - ``"permutation"``: ascending Spearman footrule between each
      element's distance permutation *of the pivots* (free from the
      stored table) and the query's — the paper's observation that
      iAESA's "enhanced pivot selection ... seems applicable even to the
      older LAESA data structure by computing the distance permutations
      on demand".  Results stay exact; only the evaluation order (and
      hence the pruning rate) changes.
    """

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        n_pivots: int = 8,
        pivot_strategy: str = "maxmin",
        candidate_order: str = "lower_bound",
        rng: Optional[np.random.Generator] = None,
    ):
        if n_pivots < 1:
            raise ValueError("need at least one pivot")
        if candidate_order not in ("lower_bound", "permutation"):
            raise ValueError(
                f"unknown candidate_order {candidate_order!r}"
            )
        self.n_pivots = min(n_pivots, len(points))
        self.candidate_order = candidate_order
        self._pivot_strategy = pivot_strategy
        self._rng = rng
        super().__init__(points, metric)

    def _build(self) -> None:
        self.pivot_indices = select_pivots(
            self.points,
            self.metric,
            self.n_pivots,
            strategy=self._pivot_strategy,
            rng=self._rng,
        )
        pivot_points = [self.points[i] for i in self.pivot_indices]
        self.table = self.metric.matrix(self.points, pivot_points)
        if self.candidate_order == "permutation":
            # Distance permutations of the pivots, derived from the table
            # at no metric cost (the paper's on-demand computation).
            self.pivot_permutations = ranked_permutations(self.table)

    def _query_pivot_distances(self, query: Any) -> np.ndarray:
        pivot_points = [self.points[i] for i in self.pivot_indices]
        return self.metric.matrix([query], pivot_points)[0]

    def _lower_bounds(self, query_distances: np.ndarray) -> np.ndarray:
        return np.abs(self.table - query_distances[None, :]).max(axis=1)

    def _range_impl(self, query: Any, radius: float) -> List[Neighbor]:
        query_distances = self._query_pivot_distances(query)
        bounds = self._lower_bounds(query_distances)
        results = []
        for pivot_rank, i in enumerate(self.pivot_indices):
            # Pivot distances are already known exactly; reuse them.
            if query_distances[pivot_rank] <= radius:
                results.append(Neighbor(float(query_distances[pivot_rank]), i))
        pivot_set = set(self.pivot_indices)
        threshold = radius + _SAFETY * (1.0 + radius)
        for i in range(len(self.points)):
            if i in pivot_set or bounds[i] > threshold:
                continue
            d = self.metric.distance(query, self.points[i])
            if d <= radius:
                results.append(Neighbor(d, i))
        return results

    def _knn_impl(self, query: Any, k: int) -> List[Neighbor]:
        query_distances = self._query_pivot_distances(query)
        bounds = self._lower_bounds(query_distances)
        # Seed the result heap with the pivots (their distances are free).
        heap: List[tuple] = []

        def offer(distance: float, index: int) -> None:
            item = (-distance, -index)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)

        for pivot_rank, i in enumerate(self.pivot_indices):
            offer(float(query_distances[pivot_rank]), i)
        pivot_set = set(self.pivot_indices)
        if self.candidate_order == "permutation":
            # Proximity-preserving order: likely-close candidates first,
            # shrinking the k-th distance early.  Bounds are not sorted,
            # so candidates are skipped (not break) when they fail.
            query_perm = ranked_permutations(query_distances)[0]
            footrules = footrule_matrix(self.pivot_permutations, query_perm)
            order = np.argsort(footrules, kind="stable")
            early_exit = False
        else:
            # Classic LAESA: ascending lower bound; once the bound exceeds
            # the current k-th distance, nothing later can qualify.
            order = np.argsort(bounds, kind="stable")
            early_exit = True
        for i in order:
            i = int(i)
            if i in pivot_set:
                continue
            kth = -heap[0][0] if len(heap) == k else float("inf")
            if bounds[i] > kth + _SAFETY * (1.0 + kth):
                if early_exit:
                    break
                continue
            offer(self.metric.distance(query, self.points[i]), i)
        return [Neighbor(-nd, -ni) for nd, ni in heap]

    def storage_floats(self) -> int:
        """Stored scalars: the ``n x k`` pivot-distance table."""
        return self.table.size
