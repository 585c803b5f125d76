"""Burkhard–Keller tree: the classic index for integer-valued metrics.

Dictionaries under edit distance — half of the paper's Table 2 — are the
canonical BK-tree workload: children of a node are keyed by their integer
distance to the node's element, and the triangle inequality prunes every
child bucket ``b`` with ``|b - d(q, v)| > r``.  Included as a substrate
baseline alongside the vector-oriented trees.

The tree lives on a flat array substrate: node elements in one vector and
children in a CSR table of ``(bucket key, child node)`` pairs, not linked
Python objects.  The build is bulk — each node evaluates one batched
distance vector from its element to its whole point set and partitions by
integer distance, producing exactly the tree the classic one-insert-at-a-
time loop builds (every point is compared once against each ancestor
element) without the per-pair Python overhead.  Queries traverse
level-synchronously over an explicit frontier of ``(query, node)`` pairs,
which :meth:`_range_batch_impl` / :meth:`_knn_batch_impl` evaluate with a
few :func:`~repro.index.batching.frontier_distances` calls per level.
This is the only traversal — a single query is a batch of one row — and
a row's answer and evaluation count do not depend on the rest of the
batch.

kNN traversal is level-synchronous rather than best-first: the
pruning radius converges once per level instead of once per node, so
a kNN query evaluates some 25-60% more distances than the classic
bound-ordered descent did — the price of a traversal whose every level
is a handful of vectorized calls.  Range queries visit the same node set
either way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.index.base import Index, NeighborArrays
from repro.index.batching import (
    BatchKnnState,
    frontier_distances,
    rows_from_pairs,
    take_points,
)

__all__ = ["BKTree"]


class BKTree(Index):
    """Burkhard–Keller tree over an integer-valued metric.

    Raises at build time if the metric produces a non-integer distance:
    the bucket structure is only correct for discrete metrics (edit
    distance, Hamming, prefix, tree metrics with integer weights).
    """

    def _build(self) -> None:
        elements: List[int] = []
        child_lists: List[List[Tuple[int, int]]] = []
        # Work list of (members, parent node, bucket key); members keep
        # insertion order, so node elements match the incremental build.
        pending: List[Tuple[List[int], int, int]] = [
            (list(range(len(self.points))), -1, 0)
        ]
        head = 0
        while head < len(pending):
            members, parent, bucket = pending[head]
            head += 1
            node = len(elements)
            elements.append(members[0])
            child_lists.append([])
            if parent >= 0:
                child_lists[parent].append((bucket, node))
            rest = members[1:]
            if not rest:
                continue
            # One distance vector partitions the node's whole point set.
            row = self.metric.batch_distances(
                [self.points[members[0]]],
                take_points(self.points, np.asarray(rest, dtype=np.int64)),
            )[0]
            buckets: Dict[int, List[int]] = {}
            for index, d in zip(rest, self._integer_distances(row)):
                buckets.setdefault(int(d), []).append(index)
            for key in sorted(buckets):
                pending.append((buckets[key], node, key))

        offsets = np.zeros(len(elements) + 1, dtype=np.int64)
        flat_buckets: List[int] = []
        flat_nodes: List[int] = []
        for i, children in enumerate(child_lists):
            children.sort()
            offsets[i + 1] = offsets[i] + len(children)
            flat_buckets.extend(bucket for bucket, _ in children)
            flat_nodes.extend(child for _, child in children)
        self._element = np.asarray(elements, dtype=np.int64)
        self._child_offsets = offsets
        self._child_buckets = np.asarray(flat_buckets, dtype=np.int64)
        self._child_nodes = np.asarray(flat_nodes, dtype=np.int64)

    @staticmethod
    def _integer_distances(row: np.ndarray) -> np.ndarray:
        """Round a distance vector, rejecting non-integer metrics."""
        rounded = np.rint(row)
        if row.size:
            gap = np.abs(row - rounded)
            worst = int(np.argmax(gap))
            if gap[worst] > 1e-9:
                raise ValueError(
                    "BKTree requires an integer-valued metric, "
                    f"got d={float(row[worst])}"
                )
        return rounded.astype(np.int64)

    # ------------------------------------------------------------------
    # Traversal: per level, one frontier_distances evaluation of every
    # surviving (query, node) pair, then a vectorized bucket prune over
    # the CSR child table.
    # ------------------------------------------------------------------

    def _surviving_children(
        self,
        query_ids: np.ndarray,
        nodes: np.ndarray,
        distances: np.ndarray,
        bounds: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand each pair's CSR children, keeping intersecting buckets."""
        counts = self._child_offsets[nodes + 1] - self._child_offsets[nodes]
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        pair = np.repeat(np.arange(nodes.shape[0]), counts)
        within = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        slots = np.repeat(self._child_offsets[nodes], counts) + within
        # Triangle inequality: any x in a child subtree satisfies
        # |d(q, v) - bucket| <= d(q, x).  kNN passes the post-level
        # radius as the bound.
        keep = (
            np.abs(distances[pair] - self._child_buckets[slots])
            <= bounds[pair]
        )
        return query_ids[pair[keep]], self._child_nodes[slots[keep]]

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
            distances = self._integer_distances(
                frontier_distances(
                    self.metric, queries, self.points,
                    query_ids, self._element[nodes],
                )
            )
            hits = np.flatnonzero(distances <= radius)
            if hits.shape[0]:
                hit_queries.append(query_ids[hits])
                hit_indices.append(self._element[nodes[hits]])
                hit_distances.append(distances[hits].astype(np.float64))
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
            distances = self._integer_distances(
                frontier_distances(
                    self.metric, queries, self.points,
                    query_ids, self._element[nodes],
                )
            )
            state.offer_pairs(
                query_ids, self._element[nodes], distances.astype(np.float64)
            )
            query_ids, nodes = self._surviving_children(
                query_ids, nodes, distances, state.radii[query_ids]
            )
        return state.results()
