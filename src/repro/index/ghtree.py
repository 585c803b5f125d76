"""GH-tree: generalized-hyperplane partitioning (Uhlmann).

The other classic tree structure from the paper's introduction: each node
holds two centres, points go to the closer centre, and a subtree is pruned
when the query ball cannot cross the generalized hyperplane (the bisector
of Definition 1) separating the two halves — which is what ties these
trees to the paper's bisector story.

Nodes live in flat arrays (centre ids and left/right child ids); the
build is iterative and batched, splitting each node's point set with two
:meth:`~repro.metrics.base.Metric.batch_distances` rows instead of two
Python-level metric calls per point.  Queries run level-synchronously
over an explicit ``(query, node)`` frontier — each level is two grouped
:func:`~repro.index.batching.frontier_distances` evaluations (one per
centre) and a vectorized hyperplane prune.  This is the only traversal —
a single query is a batch of one row — and a row's answer and evaluation
count do not depend on the rest of the batch.

kNN traversal is level-synchronous rather than best-first: the
pruning radius converges once per level instead of once per node, so
a kNN query evaluates some 25-60% more distances than the classic
bound-ordered descent did — the price of a traversal whose every level
is a handful of vectorized calls.  Range queries visit the same node set
either way.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Index, NeighborArrays
from repro.index.batching import (
    PRUNE_SAFETY,
    BatchKnnState,
    frontier_distances,
    rows_from_pairs,
    take_points,
)
from repro.metrics.base import Metric

__all__ = ["GHTree"]


class GHTree(Index):
    """Generalized-hyperplane tree; exact range and kNN search."""

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        rng: Optional[np.random.Generator] = None,
    ):
        self._rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(points, metric)

    def _build(self) -> None:
        center_a: List[int] = []
        center_b: List[int] = []
        left: List[int] = []
        right: List[int] = []
        # Work list of (members, parent node, is_right_child).
        pending: List[Tuple[List[int], int, bool]] = [
            (list(range(len(self.points))), -1, False)
        ]
        head = 0
        while head < len(pending):
            members, parent, is_right = pending[head]
            head += 1
            node = len(center_a)
            center_b.append(-1)
            left.append(-1)
            right.append(-1)
            if parent >= 0:
                if is_right:
                    right[parent] = node
                else:
                    left[parent] = node
            if len(members) == 1:
                center_a.append(members[0])
                continue
            picks = self._rng.choice(len(members), size=2, replace=False)
            a = members[int(picks[0])]
            b = members[int(picks[1])]
            center_a.append(a)
            center_b[node] = b
            rest = [i for i in members if i != a and i != b]
            if rest:
                rest_ids = np.asarray(rest, dtype=np.int64)
                rest_points = take_points(self.points, rest_ids)
                da = self.metric.batch_distances([self.points[a]], rest_points)[0]
                db = self.metric.batch_distances([self.points[b]], rest_points)[0]
                # Tie-break toward the first centre, like the paper's
                # lower-index rule for distance permutations.
                closer_a = da <= db
                left_members = [i for i, near in zip(rest, closer_a) if near]
                right_members = [i for i, near in zip(rest, closer_a) if not near]
                if left_members:
                    pending.append((left_members, node, False))
                if right_members:
                    pending.append((right_members, node, True))
        self._center_a = np.asarray(center_a, dtype=np.int64)
        self._center_b = np.asarray(center_b, dtype=np.int64)
        self._left = np.asarray(left, dtype=np.int64)
        self._right = np.asarray(right, dtype=np.int64)

    # ------------------------------------------------------------------
    # Traversal: level-synchronous over a (query, node) frontier.
    # ------------------------------------------------------------------

    def _level_distances(
        self, queries: Sequence[Any], query_ids: np.ndarray, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frontier distances to both centres; ``db`` is NaN where absent."""
        da = frontier_distances(
            self.metric, queries, self.points,
            query_ids, self._center_a[nodes],
        )
        db = np.full(query_ids.shape[0], np.nan)
        has_b = np.flatnonzero(self._center_b[nodes] >= 0)
        db[has_b] = frontier_distances(
            self.metric, queries, self.points,
            query_ids[has_b], self._center_b[nodes[has_b]],
        )
        return da, db, has_b

    def _surviving_children(
        self,
        query_ids: np.ndarray,
        nodes: np.ndarray,
        da: np.ndarray,
        db: np.ndarray,
        has_b: np.ndarray,
        bounds: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        query_ids = query_ids[has_b]
        nodes = nodes[has_b]
        da, db, bounds = da[has_b], db[has_b], bounds[has_b]
        # Hyperplane bound: for x in the left half, d(q, x) >=
        # (da - db) / 2; symmetric for the right half.  PRUNE_SAFETY
        # slack covers last-ulp drift between the build-time side
        # assignment and the query-time kernel.
        eps = PRUNE_SAFETY * (1.0 + bounds)
        left_ok = (self._left[nodes] >= 0) & ((da - db) / 2.0 <= bounds + eps)
        right_ok = (self._right[nodes] >= 0) & ((db - da) / 2.0 <= bounds + eps)
        query_next = np.concatenate([query_ids[left_ok], query_ids[right_ok]])
        node_next = np.concatenate(
            [self._left[nodes[left_ok]], self._right[nodes[right_ok]]]
        )
        return query_next, node_next

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        n_queries = len(queries)
        hit_queries: List[np.ndarray] = []
        hit_indices: List[np.ndarray] = []
        hit_distances: List[np.ndarray] = []
        query_ids = np.arange(n_queries, dtype=np.int64)
        nodes = np.zeros(n_queries, dtype=np.int64)
        while query_ids.size:
            da, db, has_b = self._level_distances(queries, query_ids, nodes)
            hits_a = np.flatnonzero(da <= radius)
            if hits_a.shape[0]:
                hit_queries.append(query_ids[hits_a])
                hit_indices.append(self._center_a[nodes[hits_a]])
                hit_distances.append(da[hits_a])
            hits_b = has_b[db[has_b] <= radius]
            if hits_b.shape[0]:
                hit_queries.append(query_ids[hits_b])
                hit_indices.append(self._center_b[nodes[hits_b]])
                hit_distances.append(db[hits_b])
            query_ids, nodes = self._surviving_children(
                query_ids, nodes, da, db, has_b,
                np.full(query_ids.shape[0], radius),
            )
        if not hit_queries:
            return NeighborArrays.empty(n_queries)
        return rows_from_pairs(
            n_queries,
            np.concatenate(hit_queries),
            np.concatenate(hit_indices),
            np.concatenate(hit_distances),
        )

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        n_queries = len(queries)
        state = BatchKnnState(n_queries, k)
        query_ids = np.arange(n_queries, dtype=np.int64)
        nodes = np.zeros(n_queries, dtype=np.int64)
        while query_ids.size:
            da, db, has_b = self._level_distances(queries, query_ids, nodes)
            state.offer_pairs(query_ids, self._center_a[nodes], da)
            state.offer_pairs(
                query_ids[has_b], self._center_b[nodes[has_b]], db[has_b]
            )
            query_ids, nodes = self._surviving_children(
                query_ids, nodes, da, db, has_b, state.radii[query_ids]
            )
        return state.results()
