"""VP-tree (Uhlmann / Yianilos): ball partitioning with triangle pruning.

One of the tree structures the paper's introduction cites as the classic
approach: organise points into a tree and exclude whole subtrees with the
triangle inequality.  Included as a substrate baseline for the search
benchmark.

Nodes live in flat arrays (vantage id, ball radius, inside/outside child
ids) rather than linked objects, and the build is iterative and batched:
each node computes its whole split vector in one
:meth:`~repro.metrics.base.Metric.batch_distances` call, so degenerate
tie-heavy chains neither recurse past the interpreter limit nor pay a
Python-level metric call per pair.  Queries run level-synchronously over
an explicit ``(query, node)`` frontier: each level's frontier is
evaluated with a few grouped
:func:`~repro.index.batching.frontier_distances` calls and the ball
bounds apply vectorized.  This is the only traversal — a single query is
a batch of one row — and a row's answer and evaluation count do not
depend on the rest of the batch.

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

__all__ = ["VPTree"]


class VPTree(Index):
    """Vantage-point tree with median ball splits; exact search."""

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        leaf_size: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = leaf_size
        self._rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(points, metric)

    def _build(self) -> None:
        vantages: List[int] = []
        radii: List[float] = []
        inside: List[int] = []
        outside: List[int] = []
        # Work list of (members, parent node, is_outside_child).
        pending: List[Tuple[List[int], int, bool]] = [
            (list(range(len(self.points))), -1, False)
        ]
        head = 0
        while head < len(pending):
            members, parent, is_outside = pending[head]
            head += 1
            node = len(vantages)
            vantage = members[int(self._rng.integers(0, len(members)))]
            vantages.append(vantage)
            radii.append(0.0)
            inside.append(-1)
            outside.append(-1)
            if parent >= 0:
                if is_outside:
                    outside[parent] = node
                else:
                    inside[parent] = node
            rest = [i for i in members if i != vantage]
            if not rest:
                continue
            row = self.metric.batch_distances(
                [self.points[vantage]],
                take_points(self.points, np.asarray(rest, dtype=np.int64)),
            )[0]
            radius = float(np.median(row))
            radii[node] = radius
            in_members = [i for i, d in zip(rest, row) if d <= radius]
            out_members = [i for i, d in zip(rest, row) if d > radius]
            if not in_members or not out_members:
                # Degenerate split (many equal distances): keep both lists
                # in a chain to guarantee progress.
                in_members, out_members = in_members or out_members, []
            pending.append((in_members, node, False))
            if out_members:
                pending.append((out_members, node, True))
        self._vantage = np.asarray(vantages, dtype=np.int64)
        self._radius = np.asarray(radii, dtype=np.float64)
        self._inside = np.asarray(inside, dtype=np.int64)
        self._outside = np.asarray(outside, dtype=np.int64)

    # ------------------------------------------------------------------
    # Traversal: level-synchronous over a (query, node) frontier.
    # ------------------------------------------------------------------

    def _surviving_children(
        self,
        query_ids: np.ndarray,
        nodes: np.ndarray,
        distances: np.ndarray,
        bounds: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Inside holds points with d(v, x) <= node radius: reachable
        # only if d(q, v) - bound <= node radius; outside holds points
        # with d(v, x) > node radius.  Ball radii are medians of a
        # build-time distance row that the query-time kernel may not
        # reproduce to the last ulp, hence the PRUNE_SAFETY slack.
        node_radius = self._radius[nodes]
        eps = PRUNE_SAFETY * (1.0 + bounds)
        inside_ok = (self._inside[nodes] >= 0) & (
            distances - bounds <= node_radius + eps
        )
        outside_ok = (self._outside[nodes] >= 0) & (
            distances + bounds > node_radius - eps
        )
        query_next = np.concatenate(
            [query_ids[inside_ok], query_ids[outside_ok]]
        )
        node_next = np.concatenate(
            [self._inside[nodes[inside_ok]], self._outside[nodes[outside_ok]]]
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
            distances = frontier_distances(
                self.metric, queries, self.points,
                query_ids, self._vantage[nodes],
            )
            hits = np.flatnonzero(distances <= radius)
            if hits.shape[0]:
                hit_queries.append(query_ids[hits])
                hit_indices.append(self._vantage[nodes[hits]])
                hit_distances.append(distances[hits])
            query_ids, nodes = self._surviving_children(
                query_ids, nodes, distances,
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
            distances = frontier_distances(
                self.metric, queries, self.points,
                query_ids, self._vantage[nodes],
            )
            state.offer_pairs(query_ids, self._vantage[nodes], distances)
            query_ids, nodes = self._surviving_children(
                query_ids, nodes, distances, state.radii[query_ids]
            )
        return state.results()
