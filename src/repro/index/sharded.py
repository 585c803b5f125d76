"""Sharded index: partition the database, fan queries out, merge answers.

:class:`ShardedIndex` splits a database into ``S`` balanced contiguous
shards, builds any inner index type over each shard, and answers every
query in the :class:`~repro.index.base.Index` API — ``knn`` / ``range`` /
``knn_approx``, single and batched — by fanning the query set out to the
shards and merging the per-shard answers.  Shard-local neighbor indices
are offset back into global database positions, and because the shards
are contiguous ranges, per-shard ``(distance, index)`` orderings merge
into exactly the global ordering: exact queries return answers identical
to the unsharded index — same neighbor sets, same tie-breaking — for any
shard count and any worker count.  The one caveat is inherited from the
batched engine (see :mod:`repro.index.base`): vectorized *float* metrics
compute through matrix kernels whose rounding can depend on the matrix
width, so Euclidean distances can differ from the unsharded index in the
last ulp; discrete metrics (strings, trees, matrices) share one integer
code path and are bit-identical.

Cost accounting is aggregated: every inner index wraps its own
:class:`~repro.metrics.base.CountingMetric`, and the fan-out charges the
sum of per-shard evaluation deltas to the sharded index's own counter, so
:class:`~repro.index.base.SearchStats` reads the same totals the
unsharded equivalent would report for exhaustive inner indexes (the sum
over a partition of the database is the whole database).  Budgeted
``knn_approx`` splits the budget across shards under one of two
policies (``budget_split``): *proportional* to shard size (rounding up,
each shard keeping at least ``k``), or — for distance-permutation
inners — a *global footrule split* that merges every shard's candidate
ranks into one ordering and budgets each shard exactly its share of the
global top (see :meth:`ShardedIndex._global_fanout`).  Averaged over
four site draws the two splits reach recall within 0.004 of each other
(``BENCH_parallel.json``); the global one answers in one round trip by
refining each shard's first ``min(budget, shard size)`` candidates, not
only its share.  So on a *float* metric its distances can differ in the
last ulp from a replay of the split that refines only the allocation:
Euclidean's ``a @ b.T`` rounding depends on how many candidates one
``batch_distances`` call scores (2 of 4000 distances, by at most 7e-16,
over 40 random 2–9-d draws).  Discrete metrics are exact either way.

Answers move as columns, not objects: every shard returns a
:class:`~repro.index.base.NeighborArrays` (or its ranked candidates),
the merge is a vectorized CSR scatter with one scalar index rebase per
shard, and resident workers ship those same arrays across the process
boundary — inline for small replies, via one-shot shared-memory
segments for large ones — so no pickled ``Neighbor`` list ever crosses
the query path.

Execution has two engines, chosen by one switch (``resident``).
*In-process* builds and queries the shards in order in the owner —
zero overhead, the reference semantics.  *Pooled* (``resident=True``)
is the supervised worker runtime (:mod:`repro.parallel.workerpool`):
one pinned process per shard builds its shard from a zero-copy
shared-memory view of the database, holds it resident, and answers
under the index's :class:`~repro.parallel.workerpool.QueryPolicy`
(deadlines, crash detection, respawn-and-retry, visible partial
answers).  The pool is one process per shard, so there is no worker
count to size.  Both engines run each per-shard op through one dispatch
(``workerpool._run_shard_op``) and merge in shard order, so answers are
identical across engines.

Inner factories of a pooled index are shipped to its workers: they must
be picklable (a class, ``functools.partial``, or module-level function,
not a lambda — checked before any process is spawned) and deterministic
(seed randomness inside the factory, or the owner's mirror, a respawned
worker and the in-process engine diverge).  Nesting a ``ShardedIndex``
inside a ``ShardedIndex`` is unsupported.
"""

from __future__ import annotations

import math
import pickle
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Budget, Index, NeighborArrays
from repro.index.batching import top_k_arrays
from repro.index.linear import LinearScan
from repro.metrics.base import Metric
from repro.parallel.census import shard_ranges
from repro.parallel.faults import FaultSpec
from repro.parallel.sharedmem import SharedDataset
from repro.parallel.workerpool import (
    BuildShardSource,
    FileShardSource,
    QueryPolicy,
    WorkerPool,
    _run_shard_op,
)

__all__ = ["ShardedIndex"]

InnerFactory = Callable[[Sequence[Any], Metric], Index]


class ShardedIndex(Index):
    """Partition any database across per-shard inner indexes.

    ``inner_factory(points, metric) -> Index`` builds each shard's index
    (default: :class:`~repro.index.linear.LinearScan`); ``n_shards``
    bounds the shard count (capped at ``len(points)``).

    ``resident=False`` (default) runs in-process; ``resident=True`` runs
    one supervised, pinned worker process per shard (see
    :mod:`repro.parallel.workerpool`), and ``inner_factory`` must then
    be picklable (``TypeError`` otherwise).  ``policy`` is the
    :class:`~repro.parallel.workerpool.QueryPolicy` pooled fan-outs
    enforce (default: unbounded deadline, one retry, exact answers) and
    ``faults`` injects deterministic worker failures for tests and
    benches (default: read from ``REPRO_FAULTS``).  Close a pooled index
    (or use it as a context manager) to release its workers and
    shared-memory payloads.

    ``budget_split`` picks how a ``knn_approx`` budget is divided across
    shards: ``"proportional"`` gives each shard a share proportional to
    its size, ``"global"`` ranks every shard's candidates by their
    distance-permutation footrule in one merged ordering and budgets
    each shard its share of the global top (see :meth:`_global_fanout`),
    and ``"auto"`` (default) uses the global split whenever every inner
    index supports it (exposes ``ranked_candidates``) and falls back to
    proportional otherwise; it is no recall gain (module docstring).
    """

    def __init__(
        self,
        points: Sequence[Any],
        metric: Metric,
        inner_factory: InnerFactory = LinearScan,
        *,
        n_shards: int = 4,
        resident: bool = False,
        policy: Optional[QueryPolicy] = None,
        faults: Optional[Sequence[FaultSpec]] = None,
        budget_split: str = "auto",
    ):
        self._init_runtime(resident, policy, faults, budget_split)
        if n_shards < 1:
            raise ValueError(f"need n_shards >= 1, got {n_shards}")
        self._inner_factory = inner_factory
        self._requested_shards = n_shards
        try:
            super().__init__(points, metric)
        except BaseException:
            # A failed build (or a worker-pool spawn failure) must not
            # strand shared-memory segments or child processes behind a
            # half-constructed object only ``__del__`` might reap.
            self.close()
            raise

    def _init_runtime(
        self, resident=False, policy=None, faults=None, budget_split="auto"
    ) -> None:
        """Set the execution-state attributes (also used by the loader)."""
        # What close() reads comes first, before any check can raise:
        # close() may run on a half-initialized object, and under the
        # query service the drain path and teardown reach it concurrently.
        self._close_lock = threading.Lock()
        self._worker_pool: Optional[WorkerPool] = None
        self._points_payload: Optional[SharedDataset] = None
        #: The one engine switch: pinned worker pool, or in-process.
        self._pooled = bool(resident)
        if policy is not None and not isinstance(policy, QueryPolicy):
            raise TypeError(
                f"policy must be a QueryPolicy, got {type(policy).__name__}"
            )
        if budget_split not in ("auto", "proportional", "global"):
            raise ValueError(
                "budget_split must be 'auto', 'proportional', or "
                f"'global', got {budget_split!r}"
            )
        self._policy = policy if policy is not None else QueryPolicy()
        self._faults = faults
        self._budget_split = budget_split
        #: Set by the loader for disk-backed indexes; pooled workers
        #: then load shard state from this payload file on every spawn.
        self._payload_path: Optional[str] = None
        #: How loaded shards (and their pinned workers) hold the
        #: packed code section: decoded in RAM or memory-mapped.
        self._payload_backing: str = "ram"
        self._payload_cache_bytes: Optional[int] = None

    # ------------------------------------------------------------------
    # Build.
    # ------------------------------------------------------------------

    def _build(self) -> None:
        ranges = shard_ranges(len(self.points), self._requested_shards)
        self.shard_offsets = [start for start, _ in ranges] + [len(self.points)]
        raw_metric = self.metric.inner
        if self._pooled:
            self._build_resident(ranges, raw_metric)
        else:
            self.shards: List[Index] = [
                self._inner_factory(self.points[start:stop], raw_metric)
                for start, stop in ranges
            ]
        # Charge aggregate shard build cost to this index's own counter,
        # which Index.__init__ is about to read into stats.
        self.metric.count += sum(s.stats.build_distances for s in self.shards)
        # budget_split='global' over inners that cannot rank raises now,
        # not at the first budgeted query.
        self._use_global_split(0)

    def _build_resident(
        self, ranges: Sequence[Tuple[int, int]], raw_metric: Metric
    ) -> None:
        """Build the shards inside their pinned workers (pooled engine).

        Each worker constructs its own shard from a zero-copy
        publication of the database and ships the finished structure
        back through the supervised ``"state"`` op — so a worker that
        crashes mid-build is respawned (deterministically rebuilding its
        shard) and the collection retried.  Collection always runs under
        the default exact-answer policy, never ``on_partial="degrade"``:
        a missing shard is acceptable in a query answer, not in the
        index structure.  The parent keeps a mirror of every shard for
        budget planning and serialization; workers keep theirs resident
        for queries.
        """
        try:
            pickle.dumps(self._inner_factory)
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            raise TypeError(
                f"inner_factory {self._inner_factory!r} cannot be pickled "
                f"({error}); a pooled ShardedIndex (resident=True) ships "
                "its factory to the shard workers, "
                "so it must be a class, a functools.partial, or a "
                "module-level function, not a lambda or a local function"
            ) from error
        self._points_payload = SharedDataset.publish(self.points)
        sources = [
            BuildShardSource(
                self._points_payload, start, stop,
                self._inner_factory, raw_metric,
            )
            for start, stop in ranges
        ]
        self._worker_pool = WorkerPool(sources, faults=self._faults)
        blobs, _, _, _ = self._worker_pool.query(
            "state", (), 0, [None] * len(ranges), QueryPolicy()
        )
        self.shards = []
        for (start, stop), blob in zip(ranges, blobs):
            cls, state = pickle.loads(blob.tobytes())
            shard = cls.__new__(cls)
            shard.__dict__.update(state)
            shard.points = self.points[start:stop]
            self.shards.append(shard)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Fan-out execution.
    # ------------------------------------------------------------------

    def _ensure_worker_pool(self) -> WorkerPool:
        """The pinned pool; spawned here for a loaded index's first query.

        A fresh pooled index got its pool at build.  A ``load_sharded``
        one gives each worker a *source* to load its shard from on every
        (re)spawn: the Corollary-8 payload file plus a shared-memory
        view of the point set, so respawns reread (or re-map) only the
        packed codes, never the database.
        """
        if self._worker_pool is None:
            if self._payload_path is None:
                raise RuntimeError(
                    "this ShardedIndex is closed; its worker pool is gone"
                )
            if self._points_payload is None:
                self._points_payload = SharedDataset.publish(self.points)
            raw_metric = self.metric.inner
            sources = [
                FileShardSource(
                    self._payload_path,
                    s,
                    self._points_payload,
                    self.shard_offsets[s],
                    self.shard_offsets[s + 1],
                    raw_metric,
                    backing=self._payload_backing,
                    cache_bytes=self._payload_cache_bytes,
                )
                for s in range(self.n_shards)
            ]
            self._worker_pool = WorkerPool(sources, faults=self._faults)
        return self._worker_pool

    def _split_budget(self, k: int, budget: Optional[int]) -> List[Optional[int]]:
        """Per-shard budgets, proportional to shard size (rounded up).

        Each shard keeps at least ``min(k, shard size)`` so every shard
        can still surface ``k`` candidates for the global merge; the
        ceiling rounding over-allocates by at most one evaluation per
        shard.  ``None`` (exact) stays ``None`` everywhere.
        """
        if budget is None:
            return [None] * self.n_shards
        n = len(self.points)
        out: List[Optional[int]] = []
        for s in range(self.n_shards):
            size = self.shard_offsets[s + 1] - self.shard_offsets[s]
            out.append(max(min(k, size), math.ceil(budget * size / n)))
        return out

    def _execute(
        self,
        op: str,
        queries: Sequence[Any],
        arg: Any,
        budgets: Sequence[Budget],
    ) -> Tuple[
        List[Optional[Any]],
        Optional[List[Optional[float]]],
        Optional[List[Optional[int]]],
    ]:
        """Run one batched op on every shard through the engine.

        Returns ``(per_shard, latencies, reply_bytes)``.  ``per_shard``
        holds shard-local results — ``None``, in pooled degrade mode, for
        shards that failed past the policy's bounds.  ``latencies`` /
        ``reply_bytes`` are per-shard lists from the pool and ``None`` for
        the in-process engine (which has no wire).  Evaluation deltas from
        every shard are charged to this index's counter.
        """
        if self._pooled:
            pool = self._ensure_worker_pool()
            per_shard, deltas, latencies, reply_bytes = pool.query(
                op, queries, arg, budgets, self._policy
            )
            self.metric.count += sum(deltas)
            return per_shard, latencies, reply_bytes
        per_shard = []
        for s, shard in enumerate(self.shards):
            before = shard.metric.count
            per_shard.append(
                _run_shard_op(shard, op, queries, arg, budgets[s])
            )
            self.metric.count += shard.metric.count - before
        return per_shard, None, None

    def _note_resident(
        self,
        per_shard: Sequence[Optional[Any]],
        latencies: Sequence[Optional[float]],
        reply_bytes: Sequence[Optional[int]],
    ) -> None:
        """Record resilience and IPC observability from a pooled fan-out.

        Shards that failed past the policy's retry/deadline bounds are
        ``None`` in ``per_shard`` (possible only under
        ``on_partial="degrade"``) and are simply absent from the merge —
        a *subset* answer, flagged via ``stats.degraded`` /
        ``stats.shards_answered`` rather than returned silently.
        """
        answered = sum(1 for r in per_shard if r is not None)
        self.stats.shards_answered = answered
        self.stats.shard_latencies_s = tuple(latencies)
        self.stats.shard_reply_bytes = tuple(reply_bytes)
        self.stats.reply_bytes += sum(
            b for b in reply_bytes if b is not None
        )
        if answered < self.n_shards:
            self.stats.degraded = True

    def _merge_columns(
        self, per_shard: Sequence[Optional[NeighborArrays]], n_queries: int
    ) -> NeighborArrays:
        """Vectorized column merge of per-shard answers into global rows.

        One scatter per shard places its distance/index columns into the
        merged CSR layout — the global position of shard ``s``'s
        ``i``-th entry for query ``q`` is the merged row start, plus the
        entries already placed by earlier shards, plus ``i`` — and a
        single scalar add rebases shard-local indices into global
        database positions.  Rows keep shard-major order; the public
        API's final sort restores the global ``(distance, index)``
        order, identical to the unsharded index.
        """
        answered = [
            (s, rows) for s, rows in enumerate(per_shard) if rows is not None
        ]
        if not answered:
            return NeighborArrays.empty(n_queries)
        merged_counts = np.zeros(n_queries, dtype=np.int64)
        for _, rows in answered:
            merged_counts += rows.counts()
        offsets = np.zeros(n_queries + 1, dtype=np.int64)
        np.cumsum(merged_counts, out=offsets[1:])
        distances = np.empty(int(offsets[-1]), dtype=np.float64)
        indices = np.empty(int(offsets[-1]), dtype=np.int64)
        placed = np.zeros(n_queries, dtype=np.int64)
        for s, rows in answered:
            counts = rows.counts()
            within = np.arange(rows.indices.shape[0], dtype=np.int64)
            within -= np.repeat(rows.offsets[:-1], counts)
            target = np.repeat(offsets[:-1] + placed, counts) + within
            distances[target] = rows.distances
            indices[target] = rows.indices + self.shard_offsets[s]
            placed += counts
        return NeighborArrays(distances, indices, offsets)

    def _fanout(
        self,
        op: str,
        queries: Sequence[Any],
        arg: Any,
        budget: Optional[int] = None,
    ) -> NeighborArrays:
        """Run one batched operation on every shard and merge the answers.

        Per-shard results arrive as sorted columns with shard-local
        indices; :meth:`_merge_columns` rebases and concatenates them.
        ``knn-approx`` budgets split proportionally here; the global
        footrule split routes through :meth:`_global_fanout` instead.
        """
        budgets: Sequence[Budget] = (
            self._split_budget(arg, budget)
            if op == "knn-approx"
            else [None] * self.n_shards
        )
        per_shard, latencies, reply_bytes = self._execute(
            op, queries, arg, budgets
        )
        if latencies is not None:
            self._note_resident(per_shard, latencies, reply_bytes)
        return self._merge_columns(per_shard, len(queries))

    def _use_global_split(self, budget: Optional[int]) -> bool:
        """Whether this ``knn_approx`` call takes the global footrule split."""
        if budget is None or self._budget_split == "proportional":
            return False
        supported = all(
            hasattr(shard, "ranked_candidates") for shard in self.shards
        )
        if self._budget_split == "global":
            if not supported:
                raise TypeError(
                    "budget_split='global' needs inner indexes that rank "
                    "candidates by footrule (distance-permutation "
                    f"indexes); got {type(self.shards[0]).__name__}"
                )
            return True
        return supported  # "auto"

    def _allocate_budget(
        self,
        footrules: Sequence[Optional[np.ndarray]],
        survivors: Sequence[int],
        cap: int,
        n_queries: int,
    ) -> Dict[int, np.ndarray]:
        """Rank candidates globally by footrule and split the budget.

        Every surviving shard shipped its per-query ascending centered
        footrule values (see ``DistPermIndex.query_footrules`` for why
        centering makes the values comparable across shards' distinct
        site sets); concatenating them and keeping the ``cap`` smallest
        per query yields the global candidate set the answer is drawn
        from.  Exact value ties resolve by the stable sort to the
        lower shard id and lower within-shard rank — a fixed total
        order, so the allocation is deterministic across engines.  A
        shard's allocation is the number of its candidates in that set,
        a per-query int array: the prefix of its ranked candidates the
        answer reads.  Shards that failed the fan-out are absent from the
        merge, so their share flows to the survivors — degrade-mode
        budget redistribution falls out of the ranking rather than
        needing a separate code path.
        """
        allocations: Dict[int, np.ndarray] = {}
        if not survivors:
            return allocations
        values = np.concatenate(
            [footrules[s] for s in survivors], axis=1
        )
        labels = np.concatenate(
            [
                np.full(footrules[s].shape[1], s, dtype=np.int64)
                for s in survivors
            ]
        )
        take = min(cap, values.shape[1])
        if take < values.shape[1]:
            chosen = np.argsort(values, axis=1, kind="stable")[:, :take]
            chosen_labels = labels[chosen]
        else:
            chosen_labels = np.broadcast_to(labels, values.shape)
        for s in survivors:
            allocations[s] = (chosen_labels == s).sum(axis=1).astype(np.int64)
        return allocations

    def _global_fanout(
        self, queries: Sequence[Any], k: int, budget: int
    ) -> NeighborArrays:
        """Budgeted ``knn_approx`` under the global footrule split.

        One supervised fan-out of the ``"ranked"`` op: every shard ships,
        per query, its first ``min(budget', shard size)`` candidates in
        footrule order with their raw footrules, the query's mean
        footrule and the candidates' refined distances (``budget'`` is
        the usual clamp ``max(k, min(budget, n))``).  The owner centers
        the footrules, merges them into one global ordering and
        allocates each shard the portion of the top ``budget'``
        candidates that live in it (:meth:`_allocate_budget`); a shard's
        answer is then the top ``k`` of its allocated prefix — exactly
        its budgeted scan with that per-query budget.  A shard that
        failed the fan-out is absent from the ranking, so its budget
        share redistributes to the survivors, whose replies already hold
        every candidate that share can reach.
        """
        n_queries = len(queries)
        cap = max(k, min(int(budget), len(self.points)))
        limits = [
            min(cap, self.shard_offsets[s + 1] - self.shard_offsets[s])
            for s in range(self.n_shards)
        ]
        replies, latencies, reply_bytes = self._execute(
            "ranked", queries, None, limits
        )
        survivors = [s for s, reply in enumerate(replies) if reply is not None]
        centered = [None if r is None else r[0] - r[1][:, None] for r in replies]
        allocations = self._allocate_budget(centered, survivors, cap, n_queries)
        per_shard: List[Optional[NeighborArrays]] = [None] * self.n_shards
        for s in survivors:
            _, _, ids, distances = replies[s]
            # The top k of each row's allocated prefix, the refine step's
            # own selection and tie rule.
            per_shard[s] = top_k_arrays(distances, k, ids, allocations[s])
        if latencies is not None:
            self._note_resident(per_shard, latencies, reply_bytes)
        return self._merge_columns(per_shard, n_queries)

    # ------------------------------------------------------------------
    # Index implementation hooks: the fan-out is batched, and the base
    # class answers a single query as a batch of one.
    # ------------------------------------------------------------------

    def _range_batch_impl(
        self, queries: Sequence[Any], radius: float
    ) -> NeighborArrays:
        return self._fanout("range", queries, radius)

    def _knn_batch_impl(
        self, queries: Sequence[Any], k: int
    ) -> NeighborArrays:
        return self._fanout("knn", queries, k)

    def _knn_approx_batch_impl(
        self, queries: Sequence[Any], k: int, budget: Budget
    ) -> NeighborArrays:
        if isinstance(budget, np.ndarray):
            raise TypeError(
                "ShardedIndex takes a scalar knn_approx budget; per-query "
                "budget arrays are the *output* of its budget split"
            )
        if self._use_global_split(budget):
            return self._global_fanout(queries, k, budget)
        return self._fanout("knn-approx", queries, k, budget)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release workers and shared-memory payloads (idempotent).

        Safe on partially-built indexes: a constructor that failed
        mid-build calls this before re-raising.  Re-entrant by
        construction: every resource is detached from the instance
        before it is released (a second close sees ``None``), calls are
        serialized by a lock (the query service's drain path closes from
        the event-loop thread while test teardown or ``__del__`` may
        close from another), and the payload is unlinked under
        ``try/finally`` — a worker pool that fails to shut down cannot
        leave shared-memory segments stranded behind it.
        """
        with self._close_lock:
            pool, self._worker_pool = self._worker_pool, None
            payload, self._points_payload = self._points_payload, None
            try:
                if pool is not None:
                    pool.close()
            finally:
                if payload is not None:
                    payload.unlink()
            # Loaded mmap-backed shards hold open file mappings; release
            # them with the rest of the runtime.  (A failed build has no
            # ``shards`` yet.)
            for shard in getattr(self, "shards", ()):
                shard_close = getattr(shard, "close", None)
                if callable(shard_close):
                    shard_close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        inner = type(self.shards[0]).__name__ if self.shards else "?"
        engine = "pool" if self._pooled else "in-process"
        return (
            f"ShardedIndex(n={len(self.points)}, shards={self.n_shards}, "
            f"inner={inner}, engine={engine})"
        )

