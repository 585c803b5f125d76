"""Micro-batching scheduler: coalesce concurrent requests into engine calls.

One batch call answers many queries for the per-call cost of one, but
only if someone actually *forms* batches.  :class:`MicroBatcher` is that
someone: every admitted request joins the current **batching window**,
and when the window closes — its company target of requests pending
(see below), ``max_batch`` query rows pending, or ``max_wait_ms``
elapsed since it opened, whichever first — the whole window is
dispatched as a handful of ``*_batch_arrays`` engine calls
(one per compatible *group*, see below), and the result columns scatter
back to per-request futures as CSR slices: no per-row ``Neighbor``
lists, no per-request engine calls.

**Population window.**  Each window has a company target: the requests
the previous dispatch answered plus the requests queued when it returned
(admitted while it ran).  The window closes as soon as that many
requests are pending, ``max_batch`` query rows are pending, or
``max_wait_ms`` after it opened, whichever comes first; before the first
dispatch only the rows and the timer close it, so a fresh batcher's
first window waits out the timer unless it fills.  Under closed-loop
load that count is the population: the callers just answered can come
back, the queued ones are already here, so each window dispatches the
moment its callers are back instead of idling on the timer (a lone
sequential caller waits for nobody, whatever its requests' sizes).
Out-of-phase caller groups do not fragment: a group that arrived while
the other's batch ran is in the target, so the next window waits for
both.  Under open-loop arrivals answered callers do not come back: a
sparse stream has targets of a request or two and dispatches on
arrival, and as the rate rises each target (the last batch plus what
queued during its dispatch) outgrows what one window collects, so
``max_wait_ms`` closes the windows as a plain timer would.

**Grouping.**  Requests in one window coalesce into a single engine
call when the merged call provably returns byte-identical rows for
every member:

- ``knn`` requests all coalesce: the call runs at the window's largest
  ``k`` and each request's rows are trimmed back to its own ``k`` —
  identical because exact kNN rows are sorted by ``(distance, index)``
  and a prefix of the exact ``max-k`` answer *is* the exact ``k``
  answer;
- ``range`` requests all coalesce: the call runs at the largest radius
  and each request keeps its prefix with ``distance <= its own
  radius`` — the same predicate the engine applied;
- ``knn-approx`` requests coalesce only per exact ``(k, budget)``: the
  candidate set depends on both (the budget clamp has a ``k`` floor),
  so mixing them would change answers, not just costs.

**Backpressure.**  Admission is bounded by ``max_queue`` query rows
(queued plus in-flight).  Past that, :meth:`submit` raises
:class:`RejectedError` with a ``retry_after`` estimate derived from the
backlog and recent engine latency — the server turns that into a
REJECTED (429-style) response instead of letting latency grow without
bound.

The engine runs on a single worker thread: index objects are not
thread-safe (shared stats counters, scratch buffers), one thread
serializes calls, and numpy kernels plus resident-pool pipe waits
release the GIL, so the event loop keeps admitting and coalescing the
next window while the current one computes.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Index, NeighborArrays
from repro.serve.stats import ServerStats

__all__ = ["BatchConfig", "RejectedError", "MicroBatcher"]


@dataclass(frozen=True)
class BatchConfig:
    """Tuning knobs of the micro-batching scheduler.

    ``max_batch`` caps the query rows per batching window; a window also
    closes at its company target (the requests the previous dispatch
    answered plus those queued when it returned, so closed-loop callers
    dispatch as soon as they are all back, out-of-phase groups
    included).  ``max_wait_ms`` caps any window's wait: the fallback
    that closes windows under busy open-loop arrivals, whose answered
    callers never come back.  ``max_queue`` bounds admitted query rows (queued +
    in-flight) — the backpressure limit.
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue: int = 4096

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError("window bounds must be >= 0")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")


class RejectedError(Exception):
    """Admission refused: the queue is full (or the server is draining).

    ``retry_after`` is the server's estimate of when capacity frees up,
    in seconds — the body of the 429-style REJECTED response.
    """

    def __init__(self, message: str, *, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class _PendingRequest:
    """One admitted request waiting for (or riding) a batching window."""

    __slots__ = (
        "op", "queries", "n_queries", "k", "radius", "budget",
        "future", "submitted_at",
    )

    def __init__(self, op, queries, n_queries, k, radius, budget, future):
        self.op = op
        self.queries = queries
        self.n_queries = n_queries
        self.k = k
        self.radius = radius
        self.budget = budget
        self.future = future
        self.submitted_at = time.monotonic()

    def group_key(self) -> tuple:
        if self.op == "knn-approx":
            return (self.op, self.k, self.budget)
        return (self.op,)


def _concat_queries(parts: Sequence[Any]) -> Any:
    """Stack the member requests' query rows into one engine query set."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    merged: List[Any] = []
    for part in parts:
        merged.extend(part)
    return merged


def _filter_radius(rows: NeighborArrays, radius: float) -> NeighborArrays:
    """Keep each row's prefix within ``radius`` (rows sorted by distance)."""
    keep = rows.distances <= radius
    counts = np.bincount(
        rows.row_ids()[keep], minlength=rows.n_queries
    ).astype(np.int64)
    offsets = np.zeros(rows.n_queries + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return NeighborArrays(rows.distances[keep], rows.indices[keep], offsets)


class MicroBatcher:
    """Admit requests, form batching windows, scatter column results.

    Call :meth:`start` inside a running event loop before submitting;
    :meth:`drain` stops admission, flushes every in-flight window, and
    resolves all accepted futures before returning.  The batcher never
    closes ``index`` — the server owns that.
    """

    def __init__(
        self,
        index: Index,
        config: Optional[BatchConfig] = None,
        stats: Optional[ServerStats] = None,
    ):
        self.index = index
        self.config = config if config is not None else BatchConfig()
        self.stats = stats if stats is not None else ServerStats()
        self._pending: List[_PendingRequest] = []
        self._pending_queries = 0
        self._inflight_queries = 0
        self._max_wait_s = self.config.max_wait_ms / 1000.0
        self._engine_latency_s = max(self._max_wait_s, 1e-3)
        self._draining = False
        self._wake: Optional[asyncio.Event] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._engine: Optional[ThreadPoolExecutor] = None
        self.stats.current_window_s = self._max_wait_s

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the scheduler task and engine thread (idempotent)."""
        if self._scheduler is not None:
            return
        self._wake = asyncio.Event()
        self._engine = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._scheduler = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-batcher"
        )

    async def drain(self) -> None:
        """Stop admitting, flush every accepted request, stop the engine.

        Idempotent; afterwards :meth:`submit` rejects immediately.  No
        accepted (admitted) request is dropped: the scheduler loop only
        exits once the pending list is empty and every engine call has
        scattered its results.
        """
        self._draining = True
        if self._scheduler is None:
            return
        if self._wake is not None:
            self._wake.set()
        await self._scheduler
        self._scheduler = None
        if self._engine is not None:
            self._engine.shutdown(wait=True)
            self._engine = None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Admitted query rows not yet answered (queued + in-flight)."""
        return self._pending_queries + self._inflight_queries

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------

    def _retry_after(self) -> float:
        """Estimated seconds until the backlog clears one window's worth."""
        backlog_windows = self.queue_depth / self.config.max_batch
        return max(self._max_wait_s, backlog_windows * self._engine_latency_s)

    async def submit(
        self,
        op: str,
        queries: Any,
        *,
        k: int = 0,
        radius: float = 0.0,
        budget: Optional[int] = None,
    ) -> Tuple[NeighborArrays, bool]:
        """Admit one request; await its ``(columns, degraded)`` answer.

        ``queries`` is the decoded query set (float64 matrix or list of
        strings).  Raises :class:`RejectedError` when the admission
        queue is full or the batcher is draining, and re-raises any
        exception the engine call hit (the server turns that into an
        ERROR response for exactly the affected requests).
        """
        if op not in ("knn", "range", "knn-approx"):
            raise ValueError(f"unknown batch op {op!r}")
        n_queries = len(queries)
        if self._draining:
            self.stats.note_rejected()
            raise RejectedError(
                "server is draining", retry_after=self._retry_after()
            )
        if self._scheduler is None:
            raise RuntimeError("MicroBatcher.start() was never called")
        if self.queue_depth + n_queries > self.config.max_queue:
            self.stats.note_rejected()
            raise RejectedError(
                f"admission queue full ({self.queue_depth} of "
                f"{self.config.max_queue} queries)",
                retry_after=self._retry_after(),
            )
        if n_queries == 0:
            return NeighborArrays.empty(0), False
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        pending = _PendingRequest(
            op, queries, n_queries, k, radius, budget, future
        )
        self._pending.append(pending)
        self._pending_queries += n_queries
        self.stats.note_admitted(n_queries)
        self.stats.note_queue_depth(self.queue_depth)
        self._wake.set()
        return await future

    # ------------------------------------------------------------------
    # The scheduler loop.
    # ------------------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        max_batch = self.config.max_batch
        # The company target, in requests.  Before the first dispatch
        # only the rows and the timer close a window: max_batch requests
        # carry at least max_batch rows.
        target = max_batch
        while True:
            # Wait for the first arrival (or drain of an empty queue).
            while not self._pending:
                if self._draining:
                    return
                self._wake.clear()
                await self._wake.wait()
            # The batching window: collect company until the target
            # population (or a full batch of rows) is pending or the
            # wait cap runs out.
            deadline = loop.time() + self._max_wait_s
            while (
                len(self._pending) < target
                and self._pending_queries < max_batch
                and not self._draining
            ):
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), remaining)
                except asyncio.TimeoutError:
                    break
            batch = self._take_batch()
            await self._dispatch(batch)
            target = len(batch) + len(self._pending)

    def _take_batch(self) -> List[_PendingRequest]:
        """Pop whole requests off the queue, up to ``max_batch`` rows.

        Requests are never split across engine calls; the first request
        is always taken even if it alone exceeds ``max_batch`` (large
        client batches still get answered — admission already bounded
        them against ``max_queue``).
        """
        batch: List[_PendingRequest] = []
        taken = 0
        while self._pending:
            request = self._pending[0]
            if batch and taken + request.n_queries > self.config.max_batch:
                break
            batch.append(self._pending.pop(0))
            taken += request.n_queries
        self._pending_queries -= taken
        self._inflight_queries += taken
        self.stats.note_queue_depth(self.queue_depth)
        return batch

    async def _dispatch(self, batch: List[_PendingRequest]) -> None:
        """Run each coalesced group of the window and scatter results."""
        loop = asyncio.get_running_loop()
        groups: Dict[tuple, List[_PendingRequest]] = {}
        for request in batch:
            groups.setdefault(request.group_key(), []).append(request)
        try:
            for members in groups.values():
                dispatch_at = time.monotonic()
                for request in members:
                    self.stats.note_coalesce_latency(
                        dispatch_at - request.submitted_at
                    )
                group_rows = sum(r.n_queries for r in members)
                self.stats.note_batch(group_rows)
                started = time.monotonic()
                try:
                    rows, degraded = await loop.run_in_executor(
                        self._engine, self._execute_group, members
                    )
                except Exception as error:
                    for request in members:
                        if not request.future.done():
                            request.future.set_exception(error)
                    self.stats.note_error()
                    continue
                self._engine_latency_s = time.monotonic() - started
                self._scatter(members, rows, degraded)
        finally:
            self._inflight_queries -= sum(r.n_queries for r in batch)
            self.stats.note_queue_depth(self.queue_depth)

    # ------------------------------------------------------------------
    # Engine execution (worker thread) and scatter (event loop).
    # ------------------------------------------------------------------

    def _execute_group(
        self, members: Sequence[_PendingRequest]
    ) -> Tuple[NeighborArrays, bool]:
        """One coalesced engine call for a group (runs on the engine
        thread)."""
        op = members[0].op
        queries = _concat_queries([m.queries for m in members])
        # Engine calls are serialized on this thread, so the cumulative
        # reply_bytes counter only moves between these two reads — the
        # delta is exactly this batch's reply volume.
        reply_bytes_before = self.index.stats.reply_bytes
        if op == "knn":
            rows = self.index.knn_batch_arrays(
                queries, max(m.k for m in members)
            )
        elif op == "range":
            rows = self.index.range_batch_arrays(
                queries, max(m.radius for m in members)
            )
        else:
            rows = self.index.knn_approx_batch_arrays(
                queries, members[0].k, budget=members[0].budget
            )
        engine_delta = self.index.stats.reply_bytes - reply_bytes_before
        if engine_delta <= 0:
            # Unsharded engines do no worker IPC, so their fan-out
            # counter never moves; the columnar result itself is the
            # reply volume then.
            engine_delta = (
                rows.distances.nbytes
                + rows.indices.nbytes
                + rows.offsets.nbytes
            )
        self.stats.note_reply_bytes(
            engine_delta, self.index.stats.shard_reply_bytes
        )
        shards_answered = self.index.stats.shards_answered
        n_shards = getattr(self.index, "n_shards", None)
        degraded = (
            shards_answered is not None
            and n_shards is not None
            and shards_answered < n_shards
        )
        return rows, degraded

    def _scatter(
        self,
        members: Sequence[_PendingRequest],
        rows: NeighborArrays,
        degraded: bool,
    ) -> None:
        """Slice the group's CSR columns back to per-request futures."""
        group_k = max((m.k for m in members), default=0)
        group_radius = max((m.radius for m in members), default=0.0)
        row = 0
        now = time.monotonic()
        for request in members:
            start = int(rows.offsets[row])
            stop = int(rows.offsets[row + request.n_queries])
            offsets = rows.offsets[row : row + request.n_queries + 1] - start
            answer = NeighborArrays(
                rows.distances[start:stop], rows.indices[start:stop], offsets
            )
            if request.op == "knn" and request.k < group_k:
                answer = answer.trim(request.k)
            elif request.op == "range" and request.radius < group_radius:
                answer = _filter_radius(answer, request.radius)
            row += request.n_queries
            self.stats.note_answered(
                request.n_queries, now - request.submitted_at, degraded
            )
            if not request.future.done():
                request.future.set_result((answer, degraded))
