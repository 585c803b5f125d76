"""Vectorized batch-query helpers shared by index implementations.

The batched query path works on full query-to-database distance matrices:
one :meth:`~repro.metrics.base.Metric.batch_distances` call per chunk of
queries instead of one Python-level metric call per (query, point) pair.
Top-k extraction uses ``np.argpartition`` with an explicit boundary-tie
repair so that results are *identical* to a scalar scan, which keeps the
``k`` smallest ``(distance, index)`` pairs lexicographically; the sort
touches only the entries at or under the k-th value, never the whole row.

Chunking bounds peak memory: a chunk never materializes more than about
``_TARGET_CHUNK_BYTES`` of query-by-point matrix, so a million-point
database queried with a hundred thousand queries still runs in bounded
space.  The budget is in bytes, so a caller whose matrix is narrower than
``float64`` (the ``uint8`` footrule matrix of the permutation index) gets
proportionally more rows per chunk for the same memory.

The VP-tree has a different shape of batch work: a *sparse frontier* of
surviving (query, vantage) pairs per traversal level rather than a dense
block.  :func:`frontier_distances`
evaluates such a frontier by grouping pairs on whichever side has fewer
distinct members — one ``batch_distances`` call per group, so vectorized
metric kernels fire while the evaluation count charged to
:class:`~repro.metrics.base.CountingMetric` stays exactly one per pair,
whatever else rides in the batch.  :class:`BatchKnnState`
carries the per-query bounded heaps and pruning radii such a traversal
maintains, with the same ``(-distance, -index)`` tie-breaking as
:func:`scan_knn`.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Neighbor, NeighborArrays
from repro.metrics.base import Metric, take_points

__all__ = [
    "query_chunks",
    "scan_knn",
    "offer",
    "heap_neighbors",
    "heaps_to_arrays",
    "top_k_arrays",
    "range_arrays",
    "rows_from_pairs",
    "exhaustive_knn_batch",
    "exhaustive_range_batch",
    "take_points",
    "frontier_distances",
    "BatchKnnState",
    "PRUNE_SAFETY",
]


def offer(heap: List[tuple], k: int, distance: float, index: int) -> None:
    """Offer one ``(distance, index)`` pair to a bounded max-heap.

    The heap keeps the ``k`` lexicographically smallest pairs as
    ``(-distance, -index)`` items, so ties break exactly as in the
    ``sorted(Neighbor)`` order of the public API regardless of offer
    order.
    """
    item = (-distance, -index)
    if len(heap) < k:
        heapq.heappush(heap, item)
    elif item > heap[0]:
        heapq.heapreplace(heap, item)


def heap_neighbors(heap: List[tuple]) -> List[Neighbor]:
    """Convert a bounded max-heap back into ``Neighbor`` objects."""
    return [Neighbor(-nd, -ni) for nd, ni in heap]


def heaps_to_arrays(heaps: Sequence[List[tuple]]) -> NeighborArrays:
    """Convert per-query bounded max-heaps into CSR result columns."""
    counts = np.asarray([len(heap) for heap in heaps], dtype=np.int64)
    offsets = np.zeros(len(heaps) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    distances = np.empty(total, dtype=np.float64)
    indices = np.empty(total, dtype=np.int64)
    pos = 0
    for heap in heaps:
        for nd, ni in heap:
            distances[pos] = -nd
            indices[pos] = -ni
            pos += 1
    return NeighborArrays(distances, indices, offsets)


def scan_knn(
    metric: Metric,
    query: Any,
    points: Sequence[Any],
    k: int,
    indices: Optional[Sequence[int]] = None,
) -> List[Neighbor]:
    """Exact kNN of one query by scanning candidates with a bounded heap.

    The ``(-distance, -index)`` max-heap keeps the ``k`` lexicographically
    smallest ``(distance, index)`` pairs regardless of visit order, so
    ties break exactly as in the ``sorted(Neighbor)`` order of the public
    API.  ``indices`` restricts (and orders) the candidates scanned; the
    default scans the whole database.  This is the scalar reference scan:
    :class:`~repro.index.linear.LinearScan`'s oracle path, and what tests
    replay a candidate list through.
    """
    heap: List[tuple] = []
    if indices is None:
        candidates = enumerate(points)
    else:
        candidates = ((int(i), points[int(i)]) for i in indices)
    for i, point in candidates:
        offer(heap, k, metric.distance(query, point), i)
    return heap_neighbors(heap)

#: Float-safety slack for prune bounds (VP-tree balls, pivot tables):
#: build-time distances come from vectorized kernels whose last-ulp
#: rounding can differ from the scalar query-time formula, so comparisons
#: against stored distances get ``PRUNE_SAFETY * (1 + bound)`` of slack.
#: Slack only ever admits extra candidates; results stay exact.
PRUNE_SAFETY = 1e-9

#: Upper bound on the bytes of query-by-point matrix materialized per
#: chunk of queries: 32 MiB, i.e. 4 Mi ``float64`` distances.
_TARGET_CHUNK_BYTES = 1 << 25


def query_chunks(
    n_queries: int,
    n_points: int,
    itemsize: int = 8,
    chunk_bytes: Optional[int] = None,
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` query ranges bounding matrix-chunk memory.

    A chunk's ``rows x n_points`` matrix of ``itemsize``-byte entries
    stays within ``chunk_bytes`` (default ``_TARGET_CHUNK_BYTES``; one row
    at least).  The default ``itemsize`` is a ``float64`` distance; pass
    the matrix dtype's own when it is narrower.
    """
    if chunk_bytes is None:
        chunk_bytes = _TARGET_CHUNK_BYTES
    rows = max(1, chunk_bytes // (max(1, n_points) * itemsize))
    for start in range(0, n_queries, rows):
        yield start, min(start + rows, n_queries)


def rows_from_pairs(
    n_queries: int,
    query_ids: np.ndarray,
    db_ids: np.ndarray,
    distances: np.ndarray,
) -> NeighborArrays:
    """Group flat ``(query, database, distance)`` triplets into CSR rows.

    The VP-tree range traversal accumulates hits level by level as parallel
    arrays in no particular order; this groups them by query with one
    stable argsort.  Rows come back unsorted within — the public API's
    ``sorted_rows`` pass imposes the ``(distance, index)`` order.
    """
    query_ids = np.asarray(query_ids, dtype=np.int64)
    counts = np.bincount(query_ids, minlength=n_queries)
    offsets = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.argsort(query_ids, kind="stable")
    return NeighborArrays(
        np.asarray(distances, dtype=np.float64)[order],
        np.asarray(db_ids, dtype=np.int64)[order],
        offsets,
    )


def top_k_arrays(
    distances: np.ndarray,
    k: int,
    ids: Optional[np.ndarray] = None,
    lengths: Optional[np.ndarray] = None,
) -> NeighborArrays:
    """Per-row exact top-k of a distance matrix, as sorted columns.

    Per row, the ``k`` lexicographically smallest ``(value, id)`` pairs,
    sorted by ``(value, id)`` — ``np.lexsort((ids, values))[:k]`` on each
    row, NaNs last as there.  ``ids`` (the shape of ``distances``) names
    each entry: the candidate ids of a refine step, in whatever order
    they were gathered; by default an entry's id is its column.  Only the
    first ``lengths[r]`` entries of row ``r`` take part (default: all),
    so ragged candidate rows can share one padded matrix.

    ``np.argpartition`` finds each row's k-th value but breaks ties at it
    arbitrarily.  A row whose (k + 1)-th value is above its k-th (the
    usual case for real distances) keeps the partition's ``k`` picks,
    all rows at once.  The others — boundary ties (the usual case for
    integer distances), NaNs, rows of at most ``k`` entries — are each
    sorted alone, over only the entries not above the row's boundary, so
    their cost grows with the rows that tie and the entries that reach,
    not with the matrix.
    """
    n_rows, n = distances.shape
    if n_rows == 0:
        return NeighborArrays.empty(0)
    if ids is None:
        ids = np.broadcast_to(np.arange(n), distances.shape)
    width = min(k, n)
    if k < n:
        rows = np.arange(n_rows)[:, None]
        if lengths is not None and (np.asarray(lengths) < n).any():
            # Padding sorts after every real value but NaN, so it never
            # sets a boundary below a real entry.
            valid = np.arange(n) < np.asarray(lengths)[:, None]
            distances = np.where(valid, distances, np.inf)
        # Partitioned at column k, the first k columns are each row's k
        # smallest values and column k its (k + 1)-th: the picks are the
        # row's whole top k unless that next value ties the boundary (or
        # either is a NaN, or the boundary is a pad's inf).
        part = distances.argpartition(k, axis=1)
        picks = part[:, :k]
        vals, names = distances[rows, picks], ids[rows, picks]
        boundary = vals.max(axis=1)
        tied = (~(distances[rows[:, 0], part[:, k]] > boundary)).nonzero()[0]
        if tied.shape[0] < n_rows:
            order = np.lexsort((names, vals), axis=1)
            vals, names = vals[rows, order], names[rows, order]
    else:
        vals = np.empty((n_rows, width), dtype=np.float64)
        names = np.empty((n_rows, width), dtype=ids.dtype)
        tied = range(n_rows)
    counts = None
    for r in tied:
        stop = n if lengths is None else lengths[r]
        row, row_ids = distances[r, :stop], ids[r, :stop]
        if k < n:
            # "Not above" rather than "at or below": NaNs sort last in
            # both lexsort and argpartition, and this keeps them reachable.
            reach = (~(row > boundary[r])).nonzero()[0]
            row, row_ids = row[reach], row_ids[reach]
        order = np.lexsort((row_ids, row))[:width]
        found = order.shape[0]
        vals[r, :found], names[r, :found] = row[order], row_ids[order]
        if found < width:
            if counts is None:
                counts = np.full(n_rows, width, dtype=np.int64)
            counts[r] = found
    if counts is None:
        return NeighborArrays(vals, names, np.arange(n_rows + 1) * width)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    cells = np.arange(width) < counts[:, None]
    return NeighborArrays(vals[cells], names[cells], offsets)


def range_arrays(distances: np.ndarray, radius: float) -> NeighborArrays:
    """Per-row range hits (``distance <= radius``) of a matrix as columns."""
    n_queries = distances.shape[0]
    rows, cols = np.nonzero(distances <= radius)
    vals = distances[rows, cols]
    counts = np.bincount(rows, minlength=n_queries)
    offsets = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return NeighborArrays(vals, cols, offsets)


def exhaustive_knn_batch(
    metric: Metric, queries: Sequence[Any], points: Sequence[Any], k: int
) -> NeighborArrays:
    """Exact batched kNN by chunked exhaustive distance matrices."""
    parts: List[NeighborArrays] = []
    for start, stop in query_chunks(len(queries), len(points)):
        block = metric.batch_distances(queries[start:stop], points)
        parts.append(top_k_arrays(block, k))
    return NeighborArrays.concat(parts)


def exhaustive_range_batch(
    metric: Metric,
    queries: Sequence[Any],
    points: Sequence[Any],
    radius: float,
) -> NeighborArrays:
    """Exact batched range search by chunked exhaustive distance matrices.

    Uses :meth:`~repro.metrics.base.Metric.batch_distances_within`, whose
    contract fits range filtering exactly: every entry at or under the
    radius is the true distance, and entries beyond it only need to stay
    beyond it — which lets metrics with a banded kernel (Levenshtein)
    skip the full DP on pairs the query discards.
    """
    parts: List[NeighborArrays] = []
    for start, stop in query_chunks(len(queries), len(points)):
        block = metric.batch_distances_within(
            queries[start:stop], points, radius
        )
        parts.append(range_arrays(block, radius))
    return NeighborArrays.concat(parts)


def _groups(keys: np.ndarray) -> Iterator[Tuple[np.ndarray, int]]:
    """Yield ``(positions, key)`` for each distinct value of ``keys``."""
    if keys.shape[0] == 0:
        return
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    )
    stops = np.r_[starts[1:], keys.shape[0]]
    for start, stop in zip(starts, stops):
        yield order[start:stop], int(sorted_keys[start])


def frontier_distances(
    metric: Metric,
    queries: Sequence[Any],
    points: Sequence[Any],
    query_ids: np.ndarray,
    point_ids: np.ndarray,
) -> np.ndarray:
    """Distances for a sparse frontier of ``(query, point)`` pairs.

    ``query_ids[i]`` indexes ``queries`` and ``point_ids[i]`` indexes
    ``points``; the result holds ``d(queries[query_ids[i]],
    points[point_ids[i]])`` per pair.  Pairs are grouped on whichever
    side repeats more (early tree levels share a handful of vantage
    points across every query; deep fragmented levels share each query
    across many nodes) and every group becomes one
    :meth:`~repro.metrics.base.Metric.batch_distances` call, so the
    evaluation count stays exactly the number of pairs — a query is
    charged the same alone or in any batch — while vectorized kernels do
    the work.
    """
    query_ids = np.asarray(query_ids, dtype=np.int64)
    point_ids = np.asarray(point_ids, dtype=np.int64)
    out = np.empty(query_ids.shape[0], dtype=np.float64)
    if out.shape[0] == 0:
        return out
    if np.unique(point_ids).shape[0] <= np.unique(query_ids).shape[0]:
        for positions, point in _groups(point_ids):
            block = metric.batch_distances(
                take_points(queries, query_ids[positions]),
                [points[point]],
            )
            out[positions] = block[:, 0]
    else:
        for positions, query in _groups(query_ids):
            block = metric.batch_distances(
                [queries[query]],
                take_points(points, point_ids[positions]),
            )
            out[positions] = block[0]
    return out


class BatchKnnState:
    """Per-query bounded heaps and pruning radii for batched kNN.

    A level-synchronous tree traversal offers every frontier distance of
    a level, then prunes the next level with the post-level radii.  The
    heaps are the same ``(-distance, -index)`` bounded max-heaps as
    :func:`scan_knn`, so final contents are independent of offer order
    and tie-break identically to the scalar scan.
    """

    def __init__(self, n_queries: int, k: int):
        self.k = k
        self.heaps: List[List[tuple]] = [[] for _ in range(n_queries)]
        #: Per-query k-th best distance so far (inf while unfilled).
        self.radii = np.full(n_queries, np.inf)

    def offer_pairs(
        self,
        query_ids: np.ndarray,
        db_ids: np.ndarray,
        distances: np.ndarray,
    ) -> None:
        """Offer one ``(distance, database index)`` candidate per pair.

        Pairs whose distance already exceeds a full heap's k-th best are
        skipped wholesale (their offers would be no-ops); pairs tied with
        the boundary still go through the heap so index tie-breaking
        stays exact.
        """
        k = self.k
        query_ids = np.asarray(query_ids, dtype=np.int64)
        for positions, qi in _groups(query_ids):
            heap = self.heaps[qi]
            group_d = distances[positions]
            if len(heap) == k:
                positions = positions[group_d <= -heap[0][0]]
                group_d = distances[positions]
            group_i = db_ids[positions]
            for d, i in zip(group_d, group_i):
                offer(heap, k, float(d), int(i))
            if len(heap) == k:
                self.radii[qi] = -heap[0][0]

    def results(self) -> NeighborArrays:
        """The accumulated answers as CSR columns (rows unsorted)."""
        return heaps_to_arrays(self.heaps)
