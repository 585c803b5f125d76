"""Common index interface: exact range / kNN queries with cost accounting.

Two query surfaces are exposed, and an index implements each operation
on **one** of them:

**Single-query** — :meth:`Index.range_query`, :meth:`Index.knn_query`, and
:meth:`Index.knn_approx` answer one query at a time, through the
``_range_impl`` / ``_knn_impl`` hooks.

**Batched** — :meth:`Index.range_batch`, :meth:`Index.knn_batch`, and
:meth:`Index.knn_approx_batch` answer a whole query set in one call,
through the ``_range_batch_impl`` / ``_knn_batch_impl`` /
``_knn_approx_batch_impl`` hooks.

The rule for subclasses: implement a hook only where you have a
traversal; the other surface is derived.  A per-query hook defaults to
the batch hook with one row, a batch hook defaults to looping the
per-query hook, and ``_knn_approx_batch_impl`` defaults to the exact
``_knn_batch_impl`` (budget ignored).  Every concrete subclass must
define at least one hook of ``range`` and one of ``knn`` — checked when
the class is created, so the two defaults can never call each other.
Whichever side an index implements, both surfaces return the same
neighbor sets with the same ``(distance, index)`` tie-breaking and keep
:class:`SearchStats` accounting correct with one entry per query, so
distance-evaluation costs reported by experiments do not depend on which
surface drove the search.

An index with one traversal answers a single query and a batch row from
the same code, so the two surfaces agree bit for bit.  A last-ulp
caveat remains only between *different* traversals — an index with
vectorized kernels against the scalar :class:`~repro.index.linear.LinearScan`
oracle, or the two hooks of an index that keeps both: vectorized metrics
may compute a distance through a different floating-point formula than
``metric.distance`` (the Euclidean dot-product identity).  Candidate
*sets* and tie-breaking on equal computed distances are unaffected, but
two distinct points at *exactly* equal true distance can resolve to
either equidistant neighbor.  Discrete metrics (strings, trees, matrices)
share one code path and are bit-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.metrics.base import CountingMetric, Metric

__all__ = [
    "Neighbor",
    "NeighborArrays",
    "csr_columns_error",
    "SearchStats",
    "Index",
]


@dataclass(frozen=True, order=True)
class Neighbor:
    """One query answer: database index plus its distance to the query."""

    distance: float
    index: int


class NeighborArrays:
    """Columnar neighbor results for a ragged batch of queries.

    The internal result plane of every index: three flat arrays in CSR
    layout instead of per-row ``list[Neighbor]`` objects.  Row ``q``'s
    neighbors live at ``[offsets[q], offsets[q + 1])`` of the parallel
    ``distances`` (float64) and ``indices`` (int64) columns; ``offsets``
    has ``n_queries + 1`` entries starting at 0.  Columns stay array-
    native end to end — through the batched index kernels, the sharded
    column merge, and the worker IPC channel — and are converted to
    ``Neighbor`` lists only at the public API boundary.
    """

    __slots__ = ("distances", "indices", "offsets")

    def __init__(
        self,
        distances: np.ndarray,
        indices: np.ndarray,
        offsets: np.ndarray,
    ):
        self.distances = np.asarray(distances, dtype=np.float64).reshape(-1)
        self.indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        self.offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)

    def __reduce__(self):
        return (type(self), (self.distances, self.indices, self.offsets))

    def __repr__(self) -> str:
        return (
            f"NeighborArrays(n_queries={self.n_queries}, "
            f"n_results={self.indices.shape[0]})"
        )

    @property
    def n_queries(self) -> int:
        return self.offsets.shape[0] - 1

    def counts(self) -> np.ndarray:
        """Per-query result counts (``np.diff`` of the offsets)."""
        return np.diff(self.offsets)

    @classmethod
    def empty(cls, n_queries: int) -> "NeighborArrays":
        return cls(
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.zeros(n_queries + 1, dtype=np.int64),
        )

    @classmethod
    def from_lists(
        cls, rows: Sequence[Sequence[Neighbor]]
    ) -> "NeighborArrays":
        """Build columns from per-query ``Neighbor`` lists."""
        counts = np.asarray([len(row) for row in rows], dtype=np.int64)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        distances = np.empty(total, dtype=np.float64)
        indices = np.empty(total, dtype=np.int64)
        pos = 0
        for row in rows:
            for neighbor in row:
                distances[pos] = neighbor.distance
                indices[pos] = neighbor.index
                pos += 1
        return cls(distances, indices, offsets)

    def row_list(self, row: int) -> List[Neighbor]:
        """Row ``row`` as a ``Neighbor`` list, in stored order."""
        start, stop = int(self.offsets[row]), int(self.offsets[row + 1])
        return [
            Neighbor(float(d), int(i))
            for d, i in zip(self.distances[start:stop],
                            self.indices[start:stop])
        ]

    def to_lists(self) -> List[List[Neighbor]]:
        """The public-API boundary view: per-query ``Neighbor`` lists."""
        return [self.row_list(q) for q in range(self.n_queries)]

    def row_ids(self) -> np.ndarray:
        """Query id of each stored entry (``repeat`` of the CSR counts)."""
        return np.repeat(
            np.arange(self.n_queries, dtype=np.int64), self.counts()
        )

    def sorted_rows(self) -> "NeighborArrays":
        """Each row sorted by ``(distance, index)`` — the public order."""
        order = np.lexsort((self.indices, self.distances, self.row_ids()))
        return NeighborArrays(
            self.distances[order], self.indices[order], self.offsets
        )

    def trim(self, k: int) -> "NeighborArrays":
        """Keep the first ``k`` stored entries of each row."""
        counts = self.counts()
        rank = np.arange(self.indices.shape[0], dtype=np.int64)
        rank -= np.repeat(self.offsets[:-1], counts)
        keep = rank < k
        offsets = np.zeros_like(self.offsets)
        np.cumsum(np.minimum(counts, k), out=offsets[1:])
        return NeighborArrays(
            self.distances[keep], self.indices[keep], offsets
        )

    @classmethod
    def concat(
        cls, parts: Sequence["NeighborArrays"]
    ) -> "NeighborArrays":
        """Stack batches along the query axis (row-wise concatenation)."""
        if not parts:
            return cls.empty(0)
        distances = np.concatenate([p.distances for p in parts])
        indices = np.concatenate([p.indices for p in parts])
        pieces = [np.zeros(1, dtype=np.int64)]
        base = 0
        for p in parts:
            pieces.append(p.offsets[1:] + base)
            base += int(p.offsets[-1])
        return cls(distances, indices, np.concatenate(pieces))


def csr_columns_error(
    arrays: Sequence[np.ndarray], n_queries: Optional[int] = None
) -> Optional[str]:
    """Why ``arrays`` is not a :class:`NeighborArrays` column triple.

    The one column contract both byte boundaries (worker pipes, query
    socket) check before trusting a reply: three 1-d arrays — float64
    distances, int64 indices, int64 CSR offsets starting at 0, never
    decreasing, ending at the column length, with ``n_queries + 1``
    entries when the receiver knows how many rows it asked for.
    Returns ``None`` for a well-formed triple, else a short reason.
    """
    if len(arrays) != 3 or any(a.ndim != 1 for a in arrays):
        return "expected three 1-d columns"
    distances, indices, offsets = arrays
    if (distances.dtype, indices.dtype, offsets.dtype) != (
        np.float64, np.int64, np.int64
    ):
        return "columns must be float64 distances, int64 indices and offsets"
    if indices.shape[0] != distances.shape[0]:
        return "distance and index columns differ in length"
    if n_queries is not None and offsets.shape[0] != n_queries + 1:
        return f"offsets must have {n_queries + 1} entries"
    if (
        offsets.shape[0] < 1
        or offsets[0] != 0
        or offsets[-1] != distances.shape[0]
        or bool(np.any(np.diff(offsets) < 0))
    ):
        return "offsets must rise monotonically from 0 to the column length"
    return None


#: An approximate-kNN budget: one scalar cap for the whole batch, or a
#: per-query int array (the sharded global-footrule split allocates one
#: candidate budget per query per shard).
Budget = Union[None, int, np.ndarray]


def _per_query_budgets(budget: np.ndarray, n_queries: int) -> np.ndarray:
    """Validate a per-query budget array before any work is charged."""
    if (
        budget.shape != (n_queries,)
        or budget.dtype.kind not in "iu"
        or (budget < 0).any()
    ):
        raise ValueError(
            "a per-query budget must be a nonnegative integer array with "
            f"one entry per query (shape ({n_queries},)), got shape "
            f"{budget.shape} dtype {budget.dtype}"
        )
    return budget.astype(np.int64, copy=False)


@dataclass
class SearchStats:
    """Distance evaluations spent building and querying an index.

    The fields past ``queries`` report on *resilience* and worker IPC
    and are populated by every pooled sharded query
    (:class:`~repro.index.sharded.ShardedIndex` over its supervised
    worker pool): ``shards_answered`` counts the shards whose answers made the
    most recent merge, ``degraded`` is ``True`` when any query since the
    last :meth:`~Index.reset_stats` returned without all shards (a
    partial answer under ``on_partial="degrade"``), and
    ``shard_latencies_s`` holds the most recent fan-out's per-shard wall
    latencies (``None`` entries for shards that never answered).
    Elsewhere they stay at their defaults.
    """

    build_distances: int = 0
    query_distances: int = 0
    queries: int = 0
    shards_answered: Optional[int] = None
    degraded: bool = False
    shard_latencies_s: Optional[Tuple[Optional[float], ...]] = None
    #: Total bytes of worker replies (inline pickles plus shared-memory
    #: payloads) received since the last reset; pooled execution only.
    reply_bytes: int = 0
    #: The most recent fan-out's per-shard reply sizes in bytes (``None``
    #: entries for shards that never answered); pooled execution only.
    shard_reply_bytes: Optional[Tuple[Optional[int], ...]] = None

    @property
    def distances_per_query(self) -> float:
        return self.query_distances / self.queries if self.queries else 0.0


class Index(ABC):
    """Base class for proximity-search indexes.

    Subclasses implement :meth:`_build` and, per operation, the hook of
    the surface they have a traversal for — ``_range_impl`` *or*
    ``_range_batch_impl``, ``_knn_impl`` *or* ``_knn_batch_impl`` — and
    inherit the other surface from the defaults below.  A budgeted index
    also overrides ``_knn_approx_batch_impl``.  The public methods
    validate arguments and keep the distance-evaluation accounts.
    ``self.metric`` is a :class:`~repro.metrics.base.CountingMetric`
    wrapping the supplied metric, so every evaluation anywhere in the
    index is counted.
    """

    #: (per-query hook, batch hook) of each exact operation: the two
    #: defaults derive each from the other, so a concrete class must
    #: override at least one of every pair.
    _HOOK_PAIRS = (
        ("_range_impl", "_range_batch_impl"),
        ("_knn_impl", "_knn_batch_impl"),
    )

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if getattr(cls._build, "__isabstractmethod__", False):
            return  # still abstract: a later subclass supplies the hooks
        for pair in Index._HOOK_PAIRS:
            if all(getattr(cls, name) is getattr(Index, name) for name in pair):
                raise TypeError(
                    f"{cls.__name__} must override {pair[0]} or {pair[1]}"
                )

    def __init__(self, points: Sequence[Any], metric: Metric):
        if len(points) == 0:
            raise ValueError("cannot index an empty database")
        self.points = points
        self.metric = CountingMetric(metric)
        self.stats = SearchStats()
        self._build()
        self.stats.build_distances = self.metric.count
        self.metric.reset()

    @abstractmethod
    def _build(self) -> None:
        """Construct the index; metric evaluations are charged to build."""

    # ------------------------------------------------------------------
    # Implementation hooks.  Results need not be sorted (the public
    # methods sort and cut); batch hooks return :class:`NeighborArrays`.
    # ------------------------------------------------------------------

    def _range_impl(self, query: Any, radius: float) -> List[Neighbor]:
        """All points within ``radius`` of ``query`` (inclusive)."""
        return self._range_batch_impl([query], radius).row_list(0)

    def _knn_impl(self, query: Any, k: int) -> List[Neighbor]:
        """The ``k`` nearest points to ``query``."""
        return self._knn_batch_impl([query], k).row_list(0)

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        return NeighborArrays.from_lists(
            [self._range_impl(query, radius) for query in queries]
        )

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        return NeighborArrays.from_lists(
            [self._knn_impl(query, k) for query in queries]
        )

    def _knn_approx_batch_impl(
        self, queries: Sequence[Any], k: int, budget: Budget
    ) -> NeighborArrays:
        """Default approximate kNN: exact search, ``budget`` ignored.

        Budget-aware indexes (the permutation index) override this with a
        real recall-versus-evaluations trade-off.
        """
        return self._knn_batch_impl(queries, k)

    # ------------------------------------------------------------------
    # Public single-query API.
    # ------------------------------------------------------------------

    def range_query(self, query: Any, radius: float) -> List[Neighbor]:
        """Return every database element within ``radius`` of ``query``.

        Results are sorted by distance (ties by index) and *exact*: the
        same set a linear scan returns.
        """
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        before = self.metric.count
        results = sorted(self._range_impl(query, radius))
        self.stats.query_distances += self.metric.count - before
        self.stats.queries += 1
        return results

    def knn_query(self, query: Any, k: int) -> List[Neighbor]:
        """Return the ``k`` nearest database elements, sorted by distance."""
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, len(self.points))
        before = self.metric.count
        results = sorted(self._knn_impl(query, k))[:k]
        self.stats.query_distances += self.metric.count - before
        self.stats.queries += 1
        return results

    def knn_approx(
        self, query: Any, k: int, budget: Optional[int] = None
    ) -> List[Neighbor]:
        """Return (approximately) the ``k`` nearest elements under a budget.

        ``budget`` caps the number of true distance evaluations spent on
        candidates.  An index without a budgeted mode answers exactly,
        as :meth:`knn_query` does; one with a genuine approximate mode
        (the permutation index) answers as a batch of one.
        """
        if type(self)._knn_approx_batch_impl is Index._knn_approx_batch_impl:
            return self.knn_query(query, k)
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, len(self.points))
        before = self.metric.count
        rows = self._knn_approx_batch_impl([query], k, budget)
        results = sorted(rows.row_list(0))[:k]
        self.stats.query_distances += self.metric.count - before
        self.stats.queries += 1
        return results

    # ------------------------------------------------------------------
    # Public batched API.  The array methods are the primary surface —
    # results stay columnar from the kernels out — and the list methods
    # are thin boundary views over them.
    # ------------------------------------------------------------------

    def range_batch_arrays(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        """Batched range search as columns, rows sorted by (d, index)."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        before = self.metric.count
        arrays = self._range_batch_impl(queries, radius).sorted_rows()
        self.stats.query_distances += self.metric.count - before
        self.stats.queries += arrays.n_queries
        return arrays

    def knn_batch_arrays(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        """Batched kNN as columns: ``k`` sorted entries per row."""
        if k < 1:
            raise ValueError("k must be >= 1")
        k = min(k, len(self.points))
        before = self.metric.count
        arrays = self._knn_batch_impl(queries, k).sorted_rows().trim(k)
        self.stats.query_distances += self.metric.count - before
        self.stats.queries += arrays.n_queries
        return arrays

    def knn_approx_batch_arrays(
        self, queries: Sequence[Any], k: int, budget: Budget = None
    ) -> NeighborArrays:
        """Batched approximate kNN as columns under an evaluation budget.

        ``budget`` may be a scalar cap shared by every query or a
        per-query int array (one nonnegative entry per query, else
        ``ValueError``); the sharded global-footrule split drives the
        latter.  Indexes without a budgeted mode ignore it either way.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if isinstance(budget, np.ndarray):
            budget = _per_query_budgets(budget, len(queries))
        k = min(k, len(self.points))
        before = self.metric.count
        arrays = (
            self._knn_approx_batch_impl(queries, k, budget)
            .sorted_rows()
            .trim(k)
        )
        self.stats.query_distances += self.metric.count - before
        self.stats.queries += arrays.n_queries
        return arrays

    def range_batch(
        self, queries: Sequence[Any], radius: float
    ) -> List[List[Neighbor]]:
        """Batched :meth:`range_query`: one sorted result list per query.

        Equivalent to ``[self.range_query(q, radius) for q in queries]``
        — including :class:`SearchStats` accounting, which records one
        query per element of ``queries`` — but vectorized subclasses
        answer the whole batch with a few ``batch_distances`` calls.
        """
        return self.range_batch_arrays(queries, radius).to_lists()

    def knn_batch(
        self, queries: Sequence[Any], k: int
    ) -> List[List[Neighbor]]:
        """Batched :meth:`knn_query`: one sorted ``k``-list per query."""
        return self.knn_batch_arrays(queries, k).to_lists()

    def knn_approx_batch(
        self, queries: Sequence[Any], k: int, budget: Budget = None
    ) -> List[List[Neighbor]]:
        """Batched :meth:`knn_approx` under a per-query evaluation budget."""
        return self.knn_approx_batch_arrays(queries, k, budget).to_lists()

    def reset_stats(self) -> None:
        """Zero the query-cost accounts (build cost is preserved)."""
        self.stats.query_distances = 0
        self.stats.queries = 0
        self.stats.shards_answered = None
        self.stats.degraded = False
        self.stats.shard_latencies_s = None
        self.stats.reply_bytes = 0
        self.stats.shard_reply_bytes = None
        self.metric.reset()

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self.points)})"
