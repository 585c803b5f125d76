"""LAESA: the pivot table of Micó, Oncina, and Vidal.

Stores the distances from every database element to ``k`` chosen pivots
(``Θ(kn)`` space instead of AESA's ``Θ(n²)``).  At query time the triangle
inequality gives the lower bound ``max_i |d(q, p_i) - d(x, p_i)| <=
d(q, x)``, and any element whose bound exceeds the radius is skipped
without evaluating the metric.

The table is the ``k`` columns its maxmin pivot selection computes
anyway, so a build costs ``n * k`` evaluations.  :class:`PivotTable`
holds what LAESA shares with AESA and iAESA (:mod:`repro.index.aesa`):
range and kNN search as two uses of one elimination loop.  LAESA's range
bound never shrinks, so its range search evaluates the loop's survivors
in one ``batch_distances`` call instead.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Index, Neighbor
from repro.index.batching import PRUNE_SAFETY, heap_neighbors, offer
from repro.metrics.base import Metric, take_points

__all__ = ["PivotIndex", "PivotTable", "select_pivots"]


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
    return _maxmin_pivots(points, metric, k, rng)[0]


def _maxmin_pivots(
    points: Sequence[Any],
    metric: Metric,
    k: int,
    rng: np.random.Generator,
) -> Tuple[List[int], np.ndarray]:
    """Maxmin pivots and the ``(n, k)`` table of distances to them.

    The first pivot is drawn at random; each next one is the element
    farthest from the pivots so far.  Every pivot costs one
    ``metric.matrix(points, [pivot])`` column, and column ``j`` of the
    table is pivot ``j``'s.
    """
    n = len(points)
    table = np.empty((n, k))
    pivots = [int(rng.integers(0, n))]
    table[:, 0] = metric.matrix(points, [points[pivots[0]]])[:, 0]
    minimum_distance = table[:, 0].copy()
    for j in range(1, k):
        pivots.append(int(np.argmax(minimum_distance)))
        table[:, j] = metric.matrix(points, [points[pivots[j]]])[:, 0]
        np.minimum(minimum_distance, table[:, j], out=minimum_distance)
    return pivots, table


class PivotTable(Index):
    """Exact search by triangle-inequality elimination over stored
    distances: the AESA / iAESA / LAESA family.

    A subclass supplies :meth:`_eliminate`; range and kNN search differ
    only in what they do with an evaluated candidate and in the bound
    past which the rest are skipped.
    """

    @abstractmethod
    def _eliminate(
        self,
        query: Any,
        visit: Callable[[float, int], None],
        bound: Callable[[], float],
    ) -> None:
        """Pass each evaluated candidate to ``visit(distance, index)``
        and never evaluate an element whose lower bound exceeds
        ``bound()``, read afresh after every visit."""

    def _range_impl(self, query: Any, radius: float) -> List[Neighbor]:
        results: List[Neighbor] = []

        def visit(d: float, index: int) -> None:
            if d <= radius:
                results.append(Neighbor(d, index))

        # Stored and fresh distances may differ in the last ulp; slack
        # only admits extra candidates, so results stay exact.
        threshold = radius + PRUNE_SAFETY * (1.0 + radius)
        self._eliminate(query, visit, lambda: threshold)
        return results

    def _knn_impl(self, query: Any, k: int) -> List[Neighbor]:
        heap: List[tuple] = []

        def bound() -> float:
            if len(heap) < k:
                return math.inf
            kth = -heap[0][0]
            return kth + PRUNE_SAFETY * (1.0 + kth)

        self._eliminate(query, lambda d, i: offer(heap, k, d, i), bound)
        return heap_neighbors(heap)


class PivotIndex(PivotTable):
    """LAESA pivot table supporting exact range and kNN queries.

    kNN candidates are evaluated in ascending lower-bound order, so the
    first bound past the current k-th distance ends the scan; a range
    query evaluates every element whose bound is within the radius at
    once.
    """

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        n_pivots: int = 8,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_pivots < 1:
            raise ValueError("need at least one pivot")
        self.n_pivots = min(n_pivots, len(points))
        self._rng = rng if rng is not None else np.random.default_rng()
        super().__init__(points, metric)

    def _build(self) -> None:
        self.pivot_indices, self.table = _maxmin_pivots(
            self.points, self.metric, self.n_pivots, self._rng
        )

    def _pivot_bounds(self, query: Any) -> Tuple[np.ndarray, np.ndarray]:
        """The query's pivot distances and every element's lower bound."""
        pivots = [self.points[i] for i in self.pivot_indices]
        query_distances = self.metric.matrix([query], pivots)[0]
        return query_distances, np.abs(self.table - query_distances).max(axis=1)

    def _range_impl(self, query: Any, radius: float) -> List[Neighbor]:
        # The bound never shrinks, so the survivors the elimination loop
        # would visit one by one take one batch call: same set, same count.
        query_distances, bounds = self._pivot_bounds(query)
        bounds[self.pivot_indices] = np.inf  # already evaluated
        ids = np.flatnonzero(bounds <= radius + PRUNE_SAFETY * (1.0 + radius))
        found = self.metric.batch_distances([query], take_points(self.points, ids))
        return [
            Neighbor(float(d), int(i))
            for d, i in zip(np.r_[query_distances, found[0]],
                            np.r_[self.pivot_indices, ids])
            if d <= radius
        ]

    def _eliminate(self, query: Any, visit: Callable[[float, int], None],
                   bound: Callable[[], float]) -> None:
        query_distances, bounds = self._pivot_bounds(query)
        for d, i in zip(query_distances, self.pivot_indices):
            visit(float(d), i)  # pivot distances are already known
        pivot_set = set(self.pivot_indices)
        # Iterated lazily: the scan usually stops long before the end.
        for i in np.argsort(bounds, kind="stable"):
            i = int(i)
            if i in pivot_set:
                continue
            if bounds[i] > bound():
                break
            visit(self.metric.distance(query, self.points[i]), i)
