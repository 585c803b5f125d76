"""Supervised shard-resident worker runtime: pinned processes, deadlines,
crash recovery.

The one multi-process engine of :class:`~repro.index.sharded.ShardedIndex`:
one **pinned** worker process per shard, each holding exactly one shard
resident (bounding memory to one shard copy per worker), fed over a
private duplex pipe and watched by a supervisor in the owner process.
(The order-preserving task pool of :mod:`repro.parallel.executor` stays
for the census/trial ``map`` seam; it serves no queries.)

Supervision is part of the query path, not a side thread: every fan-out
waits on each pending worker's pipe *and* its ``Process.sentinel``
(:func:`multiprocessing.connection.wait`), so a crashed worker is
detected the moment the kernel reaps it, a hung worker is detected when
the :class:`QueryPolicy` deadline expires, and a corrupt reply is
detected by wire validation.  Any failure retires the worker
(SIGKILL + reap), respawns it with bounded exponential backoff —
rebuilding the shard from the owner's shared-memory publication of the
database (:class:`BuildShardSource`, fresh indexes) or re-reading /
re-mapping the Corollary-8 serialized payload on disk
(:class:`FileShardSource`, loaded indexes) — and then either *retries*
the request on the fresh worker or *degrades* to the surviving shards,
per the policy:

- ``on_partial="raise"`` keeps exact-answer semantics: retry up to
  ``retries`` times, then raise :class:`ShardTimeoutError` /
  :class:`ShardCrashError` (the pool stays healthy — the failed shard
  has already been respawned);
- ``on_partial="degrade"`` returns whatever shards answered, with the
  missing ones reported to the caller so degradation is *visible*
  (:class:`~repro.index.base.SearchStats` carries ``degraded`` /
  ``shards_answered`` / per-shard latencies upstream).

Every op runs through :func:`_run_shard_op`, the dispatch the in-process
engine also calls.  Replies are columnar: a worker answers every query
op with the ``(distances, indices, offsets)`` arrays of a
:class:`~repro.index.base.NeighborArrays` — never a pickled
``Neighbor`` list — sent inline through the pipe when small and as
one-shot shared-memory segments (descriptors on the pipe, payload in
``/dev/shm``) past ``_INLINE_REPLY_BYTES``; the supervisor validates
each op's exact shape contract (:func:`_validate_arrays`; the column
check is shared with the query socket, the codec deliberately is not —
see :mod:`repro.serve.protocol`) and accounts the shipped bytes per
shard into ``SearchStats.reply_bytes``.  Two more ops ride the same
wire: ``"ranked"`` answers ``ShardedIndex``'s global budget split in one
round trip — each query's first ``limit`` candidates in footrule order,
their raw footrules plus the query's mean footrule, and their refined
distances, from which the supervisor ranks every shard's centered
values, allocates each shard its share of the global top-``budget`` and
keeps that share's best ``k`` (a dead shard is left out of the ranking,
so its share flows to the survivors under ``on_partial="degrade"``) —
and ``"state"`` ships a freshly built shard's pickled state back to the
owner, so a pooled index builds its shards *in* the pinned workers.

Heartbeats ride the same wire: :meth:`WorkerPool.ping` round-trips a
tiny message through every worker, and :meth:`WorkerPool.check`
additionally respawns the workers that failed it — the monitor loop a
serving front end would run between requests.

Failures are rehearsed, not hoped for: :mod:`repro.parallel.faults`
injects deterministic kill / stall / corrupt-reply faults into chosen
workers on chosen requests, and the test suite plus
``benchmarks/bench_resilience.py`` drive every path above on each run.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.executor import _default_context
from repro.parallel.faults import FaultInjector, FaultSpec, faults_from_env
from repro.parallel.sharedmem import (
    SharedArray,
    SharedDataset,
    consume_array,
    discard_array,
)

__all__ = [
    "QueryPolicy",
    "ShardFaultError",
    "ShardCrashError",
    "ShardTimeoutError",
    "FileShardSource",
    "BuildShardSource",
    "WorkerPool",
]

#: Replies whose payload is at or under this many bytes ship inline
#: through the pipe; larger ones go through a one-shot shared-memory
#: segment and only the descriptors cross the pipe.
_INLINE_REPLY_BYTES = 1 << 18


def _ship_arrays(
    arrays: Sequence[np.ndarray],
) -> Tuple[Tuple[str, tuple], int]:
    """Package reply arrays for the wire (worker side).

    Returns ``(payload, nbytes)`` where ``payload`` is
    ``("inline", (ndarray, ...))`` for small replies or
    ``("shm", (SharedArray, ...))`` for large ones, and ``nbytes`` is
    the total payload size either way — the per-shard figure surfaced as
    ``SearchStats.reply_bytes`` upstream.
    """
    nbytes = sum(int(a.nbytes) for a in arrays)
    if nbytes <= _INLINE_REPLY_BYTES:
        return ("inline", tuple(arrays)), nbytes
    return ("shm", tuple(SharedArray.publish(a) for a in arrays)), nbytes


def _consume_payload(payload: Any) -> Optional[Tuple[np.ndarray, ...]]:
    """Materialize a reply payload (supervisor side).

    Returns the array tuple, or ``None`` when the wire format is off —
    including a shm descriptor whose segment has vanished.
    """
    if not (isinstance(payload, tuple) and len(payload) == 2):
        return None
    mode, items = payload
    if not isinstance(items, tuple):
        return None
    if mode == "inline":
        if not all(isinstance(item, np.ndarray) for item in items):
            return None
        return items
    if mode == "shm":
        if not all(isinstance(item, SharedArray) for item in items):
            return None
        try:
            return tuple(consume_array(item) for item in items)
        except FileNotFoundError:
            return None
    return None


def _discard_payload(reply: Any) -> None:
    """Free the shm segments of a reply that will never be consumed.

    Stale replies (to requests the supervisor already abandoned) are
    dropped without reading; their segments must still be unlinked here,
    because the publishing worker has already closed its own mapping.
    """
    if not (isinstance(reply, tuple) and len(reply) >= 3):
        return
    payload = reply[2]
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and payload[0] == "shm"
        and isinstance(payload[1], tuple)
    ):
        for item in payload[1]:
            if isinstance(item, SharedArray):
                discard_array(item)


def _validate_arrays(
    op: str,
    n_queries: int,
    arrays: Tuple[np.ndarray, ...],
    budget: Any,
    size: int,
) -> Optional[Any]:
    """Check a decoded payload against the op's shape contract.

    Query ops must ship the three result columns
    (:func:`~repro.index.base.csr_columns_error`, ``n_queries`` known);
    ``ranked`` an unsigned footrule matrix, a float64 mean per query, an
    int32 id matrix whose ids lie in the shard's ``[0, size)`` and a
    float64 distance matrix, every matrix ``(n_queries, limit)`` with
    ``limit`` the request's (the ``budget`` slot); ``state`` one uint8
    blob.  Returns the materialized result (``NeighborArrays``, the
    ``ranked`` tuple, or the blob) or ``None`` on any mismatch — the
    caller treats ``None`` as a corrupt reply.
    """
    from repro.index.base import NeighborArrays, csr_columns_error

    if op in ("range", "knn", "knn-approx"):
        if csr_columns_error(arrays, n_queries) is not None:
            return None
        return NeighborArrays(*arrays)
    if op == "ranked":
        shape = (n_queries, budget)
        if [a.shape for a in arrays] != [shape, shape[:1], shape, shape]:
            return None
        footrules, means, ids, distances = arrays
        if footrules.dtype.kind != "u" or ids.dtype != np.int32 or not (
            means.dtype == distances.dtype == np.float64
        ) or (ids.size and (ids.min() < 0 or ids.max() >= size)):
            return None
        return arrays
    if op == "state":
        if len(arrays) != 1:
            return None
        blob = arrays[0]
        if blob.dtype != np.uint8 or blob.ndim != 1:
            return None
        return blob
    return None


@dataclass(frozen=True)
class QueryPolicy:
    """How a fan-out call behaves when a shard worker fails.

    ``deadline`` bounds the whole call in seconds (``None``: unbounded);
    ``retries`` is the number of *extra* attempts a failed shard gets on
    a freshly respawned worker; ``backoff`` seeds the bounded
    exponential respawn delay (no delay on a worker's first consecutive
    failure, then ``backoff``, ``2*backoff``, ... capped at
    ``backoff_cap``); ``on_partial`` picks the endgame once retries or
    time run out — ``"raise"`` (exact-answer semantics) or
    ``"degrade"`` (answer from the surviving shards, reported as such).
    """

    deadline: Optional[float] = None
    retries: int = 1
    backoff: float = 0.05
    backoff_cap: float = 1.0
    on_partial: str = "raise"

    def __post_init__(self):
        if self.deadline is not None and not self.deadline > 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff and backoff_cap must be >= 0")
        if self.on_partial not in ("raise", "degrade"):
            raise ValueError(
                f"on_partial must be 'raise' or 'degrade', "
                f"got {self.on_partial!r}"
            )


class ShardFaultError(RuntimeError):
    """A shard could not answer within the policy's retry/deadline bounds."""

    def __init__(self, message: str, *, shard: int):
        super().__init__(message)
        self.shard = shard


class ShardCrashError(ShardFaultError):
    """A shard's worker died (or replied garbage) and retries ran out."""


class ShardTimeoutError(ShardFaultError):
    """A shard missed the query deadline and retries/time ran out."""


class FileShardSource:
    """Load a worker's shard from a saved Corollary-8 payload on disk.

    For indexes reloaded via
    :func:`repro.index.serialize.load_sharded`: the worker reads shard
    ``shard`` of the payload at ``path`` (one bit-packed code payload,
    no build distances) and attaches its database slice
    ``[start:stop)`` from the owner's shared-memory publication of the
    full point set.

    With ``backing="mmap"`` the worker maps its shard's code section
    instead of decoding it: respawn recovery skips the unpack entirely
    and the worker's resident footprint is the decoded-position cache
    (``cache_bytes``), not the shard.
    """

    def __init__(
        self,
        path: str,
        shard: int,
        dataset: SharedDataset,
        start: int,
        stop: int,
        metric: Any,
        backing: str = "ram",
        cache_bytes: Any = None,
    ):
        self.path = path
        self.shard = shard
        self.dataset = dataset
        self.start = start
        self.stop = stop
        self.metric = metric
        self.backing = backing
        self.cache_bytes = cache_bytes

    def load(self):
        from repro.index.serialize import load_shard

        return load_shard(
            self.path,
            self.shard,
            self.dataset.resolve()[self.start : self.stop],
            self.metric,
            backing=self.backing,
            cache_bytes=self.cache_bytes,
        )


class BuildShardSource:
    """Build a worker's shard from scratch inside the worker itself.

    For freshly built pooled indexes: the owner publishes the *raw*
    point set once and each worker constructs its own slice's index
    in-process, so the shard builds run concurrently instead of serially
    in the owner.  The
    owner collects the finished structures over the wire with the
    ``"state"`` op (one pickled ``(class, state-dict)`` blob per shard,
    shipped like any other array reply); a respawned worker rebuilds the
    same shard from the same publication, which is why inner factories
    must be deterministic — and recovery costs one shard build
    (:class:`FileShardSource` is the fast-recovery configuration).
    """

    def __init__(
        self,
        dataset: SharedDataset,
        start: int,
        stop: int,
        factory: Any,
        metric: Any,
    ):
        self.dataset = dataset
        self.start = start
        self.stop = stop
        self.factory = factory
        self.metric = metric

    def load(self):
        points = self.dataset.resolve()[self.start : self.stop]
        return self.factory(points, self.metric)


def _run_shard_op(
    shard: Any, op: str, queries: Sequence[Any], arg: Any, budget: Any
) -> Any:
    """Run one batched op on one shard, returning its column result.

    The single dispatch of both engines (``ShardedIndex``'s in-process
    loop and every pinned worker): :class:`~repro.index.base.NeighborArrays`
    for the query ops, the array tuple of ``DistPermIndex.ranked_candidates``
    for ``"ranked"`` (whose per-shard candidate limit rides the budget slot).
    """
    if op == "range":
        return shard.range_batch_arrays(queries, arg)
    if op == "knn":
        return shard.knn_batch_arrays(queries, arg)
    if op == "knn-approx":
        return shard.knn_approx_batch_arrays(queries, arg, budget=budget)
    if op == "ranked":
        return shard.ranked_candidates(queries, budget)
    raise ValueError(f"unknown shard op {op!r}")


def _state_blob(index: Any) -> np.ndarray:
    """A built shard minus its points, pickled into a uint8 array.

    The points' refine encoding (``_resident``) stays behind too: it is
    derived from the points and rebuilt on the first refine.
    """
    state = {
        key: value
        for key, value in index.__dict__.items()
        if key not in ("points", "_resident")
    }
    blob = pickle.dumps((type(index), state), protocol=pickle.HIGHEST_PROTOCOL)
    return np.frombuffer(blob, dtype=np.uint8)


def _worker_main(conn, shard_id, source, fault_specs, generation) -> None:
    """Body of one pinned worker: load the shard, answer until shutdown.

    Loading happens before the request loop; requests sent meanwhile
    simply wait in the pipe.  A load failure exits the process — the
    supervisor sees the sentinel and treats it like any crash.  Replies
    are ``(request_id, "ok", payload, metric_delta, reply_bytes)`` with
    the result *columns* packaged by :func:`_ship_arrays` — never
    pickled ``Neighbor`` lists — or ``(request_id, "error",
    traceback)`` / ``(request_id, "pong", generation)``; anything else a
    worker might emit (see the corrupt injector) fails supervisor-side
    validation.
    """
    injector = FaultInjector(
        fault_specs, shard=shard_id, generation=generation
    )
    index = source.load()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "shutdown":
            break
        if kind == "ping":
            try:
                conn.send((message[1], "pong", generation))
            except (BrokenPipeError, OSError):
                break
            continue
        # kind == "query"
        _, request_id, op, queries, arg, budget = message
        if op != "state":
            # State collection is build-path plumbing, not a query;
            # keeping it off the injector's counter keeps ``request=N``
            # fault specs aligned with the N-th actual query request.
            action = injector.next_action()
            if action is not None:
                if action.kind == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                if action.kind == "stall":
                    time.sleep(action.stall_s)
                if action.kind == "corrupt":
                    try:
                        conn.send((request_id, "ok", "corrupt-reply"))
                    except (BrokenPipeError, OSError):
                        break
                    continue
        before = index.metric.count
        payload = None
        try:
            if op == "state":
                arrays = (_state_blob(index),)
            else:
                result = _run_shard_op(index, op, queries, arg, budget)
                arrays = (
                    result
                    if op == "ranked"
                    else (result.distances, result.indices, result.offsets)
                )
            payload, reply_bytes = _ship_arrays(arrays)
            reply = (
                request_id, "ok", payload,
                index.metric.count - before, reply_bytes,
            )
        except Exception:
            reply = (request_id, "error", traceback.format_exc())
        send_failed = False
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            send_failed = True
        if payload is not None and payload[0] == "shm":
            # The descriptors are on the wire; the supervisor unlinks
            # the segments after reading.  Drop this side's mapping now
            # so a long-lived worker holds no reply memory.
            for shipped in payload[1]:
                shipped.close_local()
        if send_failed:
            break


class _Worker:
    """Supervisor-side record of one pinned worker process."""

    __slots__ = ("process", "conn", "generation")

    def __init__(self, process, conn, generation):
        self.process = process
        self.conn = conn
        self.generation = generation


class WorkerPool:
    """One supervised, pinned worker process per shard.

    ``sources[s].load()`` reconstructs shard ``s``'s index inside its
    worker (and inside every respawn); its ``start`` / ``stop`` give the
    shard size a reply's ids are checked against.  ``faults`` takes
    :class:`~repro.parallel.faults.FaultSpec` items for deterministic
    failure injection; when omitted, specs are read from the
    ``REPRO_FAULTS`` environment variable.  The pool must be
    :meth:`close`'d (the owning index's ``close()`` does this).
    """

    def __init__(
        self,
        sources: Sequence[Any],
        *,
        faults: Optional[Sequence[FaultSpec]] = None,
    ):
        if not sources:
            raise ValueError("need at least one shard source")
        self._sources = list(sources)
        self._faults = (
            tuple(faults) if faults is not None else faults_from_env()
        )
        self._context = _default_context()
        self._request_ids = itertools.count(1)
        self._workers: List[Optional[_Worker]] = [None] * len(self._sources)
        self._generations = [0] * len(self._sources)
        self._failures = [0] * len(self._sources)
        self._closed = False
        #: Total respawns over the pool's lifetime (observability).
        self.respawns = 0
        #: Wall seconds the most recent retire+respawn took.
        self.last_respawn_s = 0.0
        try:
            for shard in range(len(self._sources)):
                self._spawn(shard)
        except BaseException:
            self.close()
            raise

    @property
    def n_shards(self) -> int:
        return len(self._sources)

    # ------------------------------------------------------------------
    # Process lifecycle.
    # ------------------------------------------------------------------

    def _spawn(self, shard: int) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                shard,
                self._sources[shard],
                self._faults,
                self._generations[shard],
            ),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers[shard] = _Worker(
            process, parent_conn, self._generations[shard]
        )

    def _retire(self, shard: int) -> None:
        """Kill and reap shard's worker (safe on already-dead workers)."""
        worker = self._workers[shard]
        if worker is None:
            return
        self._workers[shard] = None
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)

    def _respawn(self, shard: int, policy: QueryPolicy) -> None:
        """Retire + restart one worker, with bounded exponential backoff.

        The first consecutive failure respawns immediately; the ``f``-th
        sleeps ``min(backoff_cap, backoff * 2**(f-2))`` first, so a
        crash-looping shard cannot hot-spin the supervisor.
        """
        start = time.perf_counter()
        self._retire(shard)
        failures = self._failures[shard]
        if failures > 1 and policy.backoff > 0:
            time.sleep(
                min(policy.backoff_cap, policy.backoff * 2 ** (failures - 2))
            )
        self._generations[shard] += 1
        self._spawn(shard)
        self.respawns += 1
        self.last_respawn_s = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Heartbeat.
    # ------------------------------------------------------------------

    def ping(self, timeout: float = 1.0) -> List[bool]:
        """Heartbeat every worker; ``True`` per shard that answered.

        A dead worker fails immediately (broken pipe / EOF); a hung one
        fails after ``timeout`` seconds.  Stale replies left over from
        abandoned requests are drained and ignored.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        alive = []
        for shard in range(self.n_shards):
            worker = self._workers[shard]
            if worker is None or not worker.process.is_alive():
                alive.append(False)
                continue
            request_id = next(self._request_ids)
            try:
                worker.conn.send(("ping", request_id))
            except (BrokenPipeError, OSError):
                alive.append(False)
                continue
            deadline_at = time.perf_counter() + timeout
            answered = False
            while True:
                remaining = deadline_at - time.perf_counter()
                if remaining <= 0 or not worker.conn.poll(remaining):
                    break
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    break
                if (
                    isinstance(reply, tuple)
                    and len(reply) >= 2
                    and reply[0] == request_id
                    and reply[1] == "pong"
                ):
                    answered = True
                    break
                # Stale reply from an abandoned request: free any shm
                # payload it carries, drain it, and retry.
                _discard_payload(reply)
            alive.append(answered)
        return alive

    def check(
        self, timeout: float = 1.0, policy: Optional[QueryPolicy] = None
    ) -> List[bool]:
        """Heartbeat, then respawn every worker that failed it.

        Returns the pre-respawn liveness per shard; afterwards every
        shard has a live (possibly still shard-loading) worker.
        """
        policy = policy if policy is not None else QueryPolicy()
        alive = self.ping(timeout)
        for shard, ok in enumerate(alive):
            if not ok:
                self._failures[shard] += 1
                self._respawn(shard, policy)
        return alive

    # ------------------------------------------------------------------
    # Supervised fan-out.
    # ------------------------------------------------------------------

    def query(
        self,
        op: str,
        queries: Sequence[Any],
        arg: Any,
        budgets: Sequence[Any],
        policy: QueryPolicy,
    ) -> Tuple[
        List[Optional[Any]],
        List[int],
        List[Optional[float]],
        List[Optional[int]],
    ]:
        """Fan one batched operation out to every shard, supervised.

        Returns ``(results, deltas, latencies, reply_bytes)``, one entry
        per shard; a shard that failed past the policy's bounds has
        ``None`` results (only with ``on_partial="degrade"``; the
        ``"raise"`` policy raises instead, after respawning the failed
        worker so the pool stays serviceable).  Query-op results come
        back as :class:`~repro.index.base.NeighborArrays` columns,
        ``ranked`` as its four arrays, ``state`` as one uint8 blob; every
        reply crosses the process boundary as arrays (inline or through a
        one-shot shared-memory segment), never as pickled ``Neighbor``
        lists.  ``reply_bytes`` is each shard's payload size.

        ``budgets`` is per-shard and op-specific: the ``knn-approx``
        budget (a scalar or a per-query int array), or the ``ranked``
        candidate limit.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        n = self.n_shards
        n_queries = len(queries)
        deadline_at = (
            None
            if policy.deadline is None
            else time.perf_counter() + policy.deadline
        )
        results: List[Optional[Any]] = [None] * n
        deltas = [0] * n
        latencies: List[Optional[float]] = [None] * n
        reply_bytes: List[Optional[int]] = [None] * n
        request_ids = [0] * n
        started = [0.0] * n
        attempts = [0] * n
        pending = set(range(n))

        def send(shard: int) -> bool:
            attempts[shard] += 1
            request_ids[shard] = next(self._request_ids)
            started[shard] = time.perf_counter()
            try:
                self._workers[shard].conn.send((
                    "query", request_ids[shard], op,
                    queries, arg, budgets[shard],
                ))
                return True
            except (BrokenPipeError, OSError):
                return False  # died between spawn and send: a crash

        def fail(shard: int, kind: str, detail: str) -> None:
            """Retire+respawn a failed shard, then retry, degrade, or raise."""
            self._failures[shard] += 1
            self._respawn(shard, policy)
            time_left = (
                deadline_at is None
                or deadline_at - time.perf_counter() > 0
            )
            if attempts[shard] <= policy.retries and time_left:
                if send(shard):
                    return
                # The respawn itself is dying (e.g. a crash-looping
                # shard): fall through with retries spent.
                detail = "respawned worker died before accepting work"
            pending.discard(shard)
            if policy.on_partial == "degrade":
                return
            if kind == "timeout":
                raise ShardTimeoutError(
                    f"shard {shard} missed the {policy.deadline}s query "
                    f"deadline ({detail})", shard=shard,
                )
            raise ShardCrashError(
                f"shard {shard} worker failed beyond "
                f"retries={policy.retries} ({detail})", shard=shard,
            )

        for shard in sorted(pending):
            if not send(shard):
                fail(shard, "crash", "worker pipe closed at send")
        while pending:
            waitables: Dict[Any, int] = {}
            for shard in pending:
                worker = self._workers[shard]
                waitables[worker.conn] = shard
                waitables[worker.process.sentinel] = shard
            timeout = (
                None
                if deadline_at is None
                else max(0.0, deadline_at - time.perf_counter())
            )
            ready = connection.wait(list(waitables), timeout)
            if not ready:
                # Deadline expired with these shards still pending; every
                # one of them is stalled (or too slow, which the policy
                # cannot distinguish).  `fail` raises unless degrading.
                for shard in sorted(pending):
                    fail(shard, "timeout", "no reply before the deadline")
                continue
            handled = set()
            for waitable in ready:
                shard = waitables[waitable]
                if shard in handled or shard not in pending:
                    continue
                handled.add(shard)
                worker = self._workers[shard]
                if not worker.conn.poll(0):
                    # Sentinel fired with nothing buffered: the worker
                    # died before replying.
                    fail(shard, "crash", "worker process died")
                    continue
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    fail(shard, "crash", "worker pipe broke mid-reply")
                    continue
                if (
                    isinstance(reply, tuple)
                    and len(reply) >= 2
                    and isinstance(reply[0], int)
                    and reply[0] != request_ids[shard]
                ):
                    # Stale reply to a request this pool already
                    # abandoned (an earlier raise left it in flight);
                    # free its shm payload, drop it, and keep waiting
                    # for the current one.
                    _discard_payload(reply)
                    continue
                if (
                    isinstance(reply, tuple)
                    and len(reply) == 3
                    and reply[1] == "error"
                ):
                    # The query itself raised in the worker: an
                    # application error, deterministic across retries —
                    # propagate, pool left healthy.
                    raise RuntimeError(
                        f"shard {shard} query raised in its worker:\n"
                        f"{reply[2]}"
                    )
                if not (
                    isinstance(reply, tuple)
                    and len(reply) == 5
                    and reply[1] == "ok"
                    and isinstance(reply[3], int)
                    and isinstance(reply[4], int)
                ):
                    fail(shard, "corrupt", f"malformed reply {reply!r:.80}")
                    continue
                arrays = _consume_payload(reply[2])
                decoded = (
                    None
                    if arrays is None
                    else _validate_arrays(
                        op, n_queries, arrays, budgets[shard],
                        self._sources[shard].stop - self._sources[shard].start,
                    )
                )
                if decoded is None:
                    fail(
                        shard, "corrupt",
                        f"malformed {op} reply payload from shard {shard}",
                    )
                    continue
                results[shard] = decoded
                deltas[shard] = reply[3]
                latencies[shard] = time.perf_counter() - started[shard]
                reply_bytes[shard] = reply[4]
                self._failures[shard] = 0
                pending.discard(shard)
        return results, deltas, latencies, reply_bytes

    # ------------------------------------------------------------------
    # Shutdown.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker (idempotent): polite shutdown, then SIGKILL.

        A worker mid-stall (or mid-query) ignores the shutdown message;
        the bounded join makes sure close() never hangs on it.
        """
        if self._closed:
            return
        self._closed = True
        workers = [w for w in self._workers if w is not None]
        self._workers = [None] * len(self._sources)
        for worker in workers:
            try:
                worker.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"WorkerPool(shards={self.n_shards}, {state}, "
            f"respawns={self.respawns})"
        )
