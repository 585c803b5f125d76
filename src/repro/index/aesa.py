"""AESA: the full pairwise-matrix baseline of Vidal Ruiz.

Stores all ``n(n-1)/2`` pairwise distances.  At query time candidates are
eliminated through the triangle-inequality lower bound
``lb(x) = max_used |d(q, c) - d(c, x)|``; the next candidate evaluated is
the one the query's :meth:`AESA._selector` picks — for AESA, the one
with the smallest bound (iAESA, :mod:`repro.index.iaesa`, overrides only
that rule).  Search cost per query is famously close to constant — paid for
with quadratic storage, which is why the paper calls pure AESA
impractical and why LAESA and permutation indexes exist.

There is no batched traversal: each query's pivot trajectory is
determined by its own history and trajectories fragment within a few
rounds, so grouping queries by shared pivot measured slower than looping
this per-query algorithm at every batch size (2-3x on vectors, 14-18x on
strings, identical evaluation counts).  The batch API is the base
class's loop.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List

import numpy as np

from repro.index.pivots import PivotTable

__all__ = ["AESA"]

#: A query's next-candidate rule: ``(alive, lower, used, query_distances)``
#: to the element to evaluate next.
Selector = Callable[[np.ndarray, np.ndarray, List[int], List[float]], int]


class AESA(PivotTable):
    """Approximating–Eliminating Search Algorithm with full distance matrix."""

    def _build(self) -> None:
        self.matrix = self.metric.pairwise(self.points)

    def _selector(self) -> Selector:
        """A fresh next-candidate rule for one query (iAESA's keeps state
        from one pick to the next)."""
        return self._select_next

    def _select_next(
        self,
        alive: np.ndarray,
        lower: np.ndarray,
        used: List[int],
        query_distances: List[float],
    ) -> int:
        """The next candidate to evaluate among ``alive``, given the ones
        ``used`` so far and their ``query_distances``: the smallest bound."""
        candidates = np.flatnonzero(alive)
        return int(candidates[np.argmin(lower[candidates])])

    def _eliminate(self, query: Any, visit: Callable[[float, int], None],
                   bound: Callable[[], float]) -> None:
        n = len(self.points)
        lower = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        used: List[int] = []
        query_distances: List[float] = []
        select = self._selector()
        while alive.any():
            pivot = select(alive, lower, used, query_distances)
            alive[pivot] = False
            d = self.metric.distance(query, self.points[pivot])
            used.append(pivot)
            query_distances.append(d)
            visit(d, pivot)
            np.maximum(lower, np.abs(d - self.matrix[pivot]), out=lower)
            threshold = bound()
            if threshold < math.inf:
                alive &= lower <= threshold
