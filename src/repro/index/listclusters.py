"""List of Clusters (Chávez & Navarro): compact exact index.

A sequence of (center, covering-radius, bucket) clusters built greedily:
each center absorbs its ``bucket_size`` nearest remaining elements.  At
query time a cluster is scanned only if the query ball intersects its
covering ball, and — the structure's signature trick — the search *stops*
if the query ball lies entirely inside the cluster ball, because
construction order guarantees later elements are outside it.  Designed for
the same high-dimensional regime the paper's databases live in.

The cluster list lives in flat arrays (center ids, covering radii, and a
CSR bucket table of element ids with their stored center distances); the
build evaluates each greedy step as one batched distance row.  Queries
proceed cluster-by-cluster — the structure's levels — offering each
cluster's center to every still-active query in one grouped call, then
evaluating the triangle-filtered (query, bucket element) pairs with
:func:`~repro.index.batching.frontier_distances`.  Within a cluster the
kNN pruning radius is fixed at its post-center value (the bucket filter
is one vectorized comparison), so the batched and single-query paths are
answer-for-answer and count-for-count identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Index, Neighbor, NeighborArrays
from repro.index.batching import (
    PRUNE_SAFETY,
    BatchKnnState,
    frontier_distances,
    heap_neighbors,
    heap_radius,
    offer,
    rows_from_pairs,
    take_points,
)
from repro.metrics.base import Metric

__all__ = ["ListOfClusters"]


@dataclass
class _Cluster:
    """Read-only view of one cluster, materialized from the flat arrays."""

    center: int
    radius: float
    bucket: List[int]
    bucket_distances: List[float]  # distances center -> bucket element


class ListOfClusters(Index):
    """List of Clusters with fixed bucket size; exact range and kNN."""

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        bucket_size: int = 16,
        rng: Optional[np.random.Generator] = None,
    ):
        if bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        self.bucket_size = bucket_size
        self._rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(points, metric)

    def _build(self) -> None:
        remaining = list(range(len(self.points)))
        centers: List[int] = []
        radii: List[float] = []
        offsets: List[int] = [0]
        bucket_items: List[int] = []
        bucket_dists: List[float] = []
        while remaining:
            # Next center: the element farthest from the previous center
            # (first center random) — the heuristic of the original paper.
            if not centers:
                pick = int(self._rng.integers(0, len(remaining)))
            else:
                row = self.metric.batch_distances(
                    [self.points[centers[-1]]],
                    take_points(
                        self.points, np.asarray(remaining, dtype=np.int64)
                    ),
                )[0]
                pick = int(np.argmax(row))
            center = remaining.pop(pick)
            centers.append(center)
            if not remaining:
                radii.append(0.0)
                offsets.append(len(bucket_items))
                break
            distances = self.metric.batch_distances(
                [self.points[center]],
                take_points(self.points, np.asarray(remaining, dtype=np.int64)),
            )[0]
            take = min(self.bucket_size, len(remaining))
            order = np.argsort(distances, kind="stable")[:take]
            bucket = [remaining[int(i)] for i in order]
            bucket_items.extend(bucket)
            bucket_dists.extend(float(distances[int(i)]) for i in order)
            radii.append(float(distances[int(order[-1])]))
            offsets.append(len(bucket_items))
            chosen = set(bucket)
            remaining = [i for i in remaining if i not in chosen]
        self._centers = np.asarray(centers, dtype=np.int64)
        self._radii = np.asarray(radii, dtype=np.float64)
        self._bucket_offsets = np.asarray(offsets, dtype=np.int64)
        self._bucket_items = np.asarray(bucket_items, dtype=np.int64)
        self._bucket_dists = np.asarray(bucket_dists, dtype=np.float64)

    @property
    def clusters(self) -> List[_Cluster]:
        """The cluster sequence as materialized read-only views."""
        views = []
        for c in range(self._centers.shape[0]):
            start = int(self._bucket_offsets[c])
            stop = int(self._bucket_offsets[c + 1])
            views.append(
                _Cluster(
                    int(self._centers[c]),
                    float(self._radii[c]),
                    [int(i) for i in self._bucket_items[start:stop]],
                    [float(d) for d in self._bucket_dists[start:stop]],
                )
            )
        return views

    def _bucket_slice(self, c: int) -> Tuple[np.ndarray, np.ndarray]:
        start = int(self._bucket_offsets[c])
        stop = int(self._bucket_offsets[c + 1])
        return self._bucket_items[start:stop], self._bucket_dists[start:stop]

    # ------------------------------------------------------------------
    # Single-query scan: the same cluster-by-cluster algorithm the
    # batched path vectorizes, with scalar metric calls.  Both stay
    # because each wins one side of a measured crossing
    # (benchmarks/bench_batch.py --single): this scan is 5-14x faster at
    # a batch of one — the batched scan sets up arrays for every cluster
    # it passes, whatever the batch size — and the batched scan 2-7x
    # faster at 256 rows, crossing between 8 and 64 rows (64 and 256 for
    # dictionary range search).  The surface the caller used selects the
    # path.
    # ------------------------------------------------------------------

    def _range_impl(self, query: Any, radius: float) -> List[Neighbor]:
        results: List[Neighbor] = []
        for c in range(self._centers.shape[0]):
            d_center = self.metric.distance(
                query, self.points[self._centers[c]]
            )
            if d_center <= radius:
                results.append(Neighbor(d_center, int(self._centers[c])))
            # Stored radii and bucket distances come from the vectorized
            # build, so every bound carries PRUNE_SAFETY slack against
            # ulp drift from the scalar query-time formula.
            eps = PRUNE_SAFETY * (1.0 + radius)
            # Scan the bucket only if the query ball meets the cluster ball.
            if d_center <= self._radii[c] + radius + eps:
                items, dists = self._bucket_slice(c)
                for i, d_ci in zip(items, dists):
                    # Cheap triangle filter from the stored center distance.
                    if abs(d_center - d_ci) > radius + eps:
                        continue
                    d = self.metric.distance(query, self.points[i])
                    if d <= radius:
                        results.append(Neighbor(d, int(i)))
            # Containment cut: everything after this cluster lies outside
            # its ball; if the query ball is inside, nothing later matches.
            if d_center + radius < self._radii[c] - eps:
                break
        return results

    def _knn_impl(self, query: Any, k: int) -> List[Neighbor]:
        heap: List[tuple] = []
        for c in range(self._centers.shape[0]):
            d_center = self.metric.distance(
                query, self.points[self._centers[c]]
            )
            offer(heap, k, d_center, int(self._centers[c]))
            # The pruning radius is fixed for the whole bucket at its
            # post-center value, so the filtered element set is one
            # vectorized comparison in the batched path.
            r = heap_radius(heap, k)
            eps = PRUNE_SAFETY * (1.0 + r)
            if d_center <= self._radii[c] + r + eps:
                items, dists = self._bucket_slice(c)
                for i, d_ci in zip(items, dists):
                    if abs(d_center - d_ci) > r + eps:
                        continue
                    offer(
                        heap, k,
                        self.metric.distance(query, self.points[i]),
                        int(i),
                    )
            r = heap_radius(heap, k)
            if d_center + r < self._radii[c] - PRUNE_SAFETY * (1.0 + r):
                break
        return heap_neighbors(heap)

    # ------------------------------------------------------------------
    # Batched scan.
    # ------------------------------------------------------------------

    def _center_distances(
        self, queries: Sequence[Any], active: np.ndarray, c: int
    ) -> np.ndarray:
        return self.metric.batch_distances(
            take_points(queries, active), [self.points[self._centers[c]]]
        )[:, 0]

    def _bucket_pairs(
        self,
        active: np.ndarray,
        d_center: np.ndarray,
        bounds: np.ndarray,
        c: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Triangle-filtered (query, bucket element) pairs of one cluster."""
        items, dists = self._bucket_slice(c)
        eps = PRUNE_SAFETY * (1.0 + bounds)
        scanning = np.flatnonzero(d_center <= self._radii[c] + bounds + eps)
        if scanning.size == 0 or items.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        keep = (
            np.abs(d_center[scanning, None] - dists[None, :])
            <= (bounds + eps)[scanning, None]
        )
        rows, cols = np.nonzero(keep)
        return active[scanning[rows]], items[cols]

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        n_queries = len(queries)
        hit_queries: List[np.ndarray] = []
        hit_indices: List[np.ndarray] = []
        hit_distances: List[np.ndarray] = []
        active = np.arange(n_queries, dtype=np.int64)
        for c in range(self._centers.shape[0]):
            if active.size == 0:
                break
            d_center = self._center_distances(queries, active, c)
            hits = np.flatnonzero(d_center <= radius)
            if hits.shape[0]:
                hit_queries.append(active[hits])
                hit_indices.append(
                    np.full(hits.shape[0], self._centers[c], dtype=np.int64)
                )
                hit_distances.append(d_center[hits])
            pair_queries, pair_items = self._bucket_pairs(
                active, d_center, np.full(active.shape[0], radius), c
            )
            if pair_queries.size:
                pair_d = frontier_distances(
                    self.metric, queries, self.points, pair_queries, pair_items
                )
                hits = np.flatnonzero(pair_d <= radius)
                if hits.shape[0]:
                    hit_queries.append(pair_queries[hits])
                    hit_indices.append(pair_items[hits])
                    hit_distances.append(pair_d[hits])
            eps = PRUNE_SAFETY * (1.0 + radius)
            active = active[~(d_center + radius < self._radii[c] - eps)]
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
        active = np.arange(n_queries, dtype=np.int64)
        for c in range(self._centers.shape[0]):
            if active.size == 0:
                break
            d_center = self._center_distances(queries, active, c)
            state.offer_pairs(
                active,
                np.full(active.shape[0], self._centers[c], dtype=np.int64),
                d_center,
            )
            pair_queries, pair_items = self._bucket_pairs(
                active, d_center, state.radii[active], c
            )
            if pair_queries.size:
                pair_d = frontier_distances(
                    self.metric, queries, self.points, pair_queries, pair_items
                )
                state.offer_pairs(pair_queries, pair_items, pair_d)
            bounds = state.radii[active]
            eps = PRUNE_SAFETY * (1.0 + bounds)
            active = active[~(d_center + bounds < self._radii[c] - eps)]
        return state.results()
