"""The query service's observability plane.

:class:`ServerStats` is the single mutable record the server, batcher,
and clients-via-``STATS`` all read: counters for admitted / rejected /
degraded / errored requests, a per-window batch-size histogram (how well
micro-batching is actually coalescing — the whole point of the service),
the live admission-queue depth, coalesce latency (submit to engine
start, the time a request spends waiting for its window), and end-to-end
latency percentiles (p50/p99/p999) over a bounded ring of recent
requests.  ``snapshot()`` renders everything as one JSON-friendly dict;
the server ships it verbatim on the ``STATS`` op.

Latencies live in a fixed-size ring (the most recent 65536
requests), so a long-running server's stats cost constant memory and
percentiles reflect recent behavior rather than the whole lifetime.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["ServerStats"]


#: Requests in the latency ring.
LATENCY_WINDOW = 65536


class ServerStats:
    """Counters, histograms, and latency percentiles for one server."""

    def __init__(self):
        self.started_at = time.monotonic()
        #: Requests admitted to the batching queue.
        self.requests_admitted = 0
        #: Requests refused with a 429-style REJECTED response.
        self.requests_rejected = 0
        #: Requests answered (OK responses sent, degraded included).
        self.requests_answered = 0
        #: Requests that raised in the engine (ERROR responses).
        self.requests_errored = 0
        #: OK responses flagged degraded (merged from < all shards).
        self.degraded_responses = 0
        #: Queries admitted (a request may carry several query rows).
        self.queries_admitted = 0
        self.queries_answered = 0
        #: Engine calls (one per coalesced group per window).
        self.batches_executed = 0
        #: Live depth of the admission queue, in queries.
        self.queue_depth = 0
        #: High-water mark of the admission queue, in queries.
        self.queue_depth_peak = 0
        #: Per-window batch-size histogram: batch size -> windows.
        self.batch_size_histogram: Dict[int, int] = {}
        #: Cap on any batching window's wait, seconds (``max_wait_ms``;
        #: batcher-owned).  A window closes earlier once its company
        #: target — the requests the previous dispatch answered plus
        #: those queued when it returned — is pending, so closed-loop callers
        #: (out-of-phase groups included) dispatch as soon as they are
        #: back; under busy open-loop arrivals, whose answered callers
        #: never come back, this cap closes the windows.
        self.current_window_s = 0.0
        #: Result bytes shipped by the index engine since the server
        #: started (columnar reply payloads; for sharded indexes this is
        #: the worker-to-supervisor IPC volume — the memory/IPC pressure
        #: signal for out-of-core serving).
        self.reply_bytes = 0
        #: Per-shard reply bytes of the last sharded fan-out (None for
        #: unsharded engines; None entries mark shards that sent no
        #: reply in that fan-out).
        self.shard_reply_bytes: Optional[Tuple[Optional[int], ...]] = None
        self._coalesce_sum = 0.0
        self._coalesce_count = 0
        self._latencies = np.zeros(LATENCY_WINDOW, dtype=np.float64)
        self._latency_pos = 0
        self._latency_count = 0

    # ------------------------------------------------------------------
    # Recording (called by the server / batcher).
    # ------------------------------------------------------------------

    def note_admitted(self, n_queries: int) -> None:
        self.requests_admitted += 1
        self.queries_admitted += n_queries

    def note_rejected(self) -> None:
        self.requests_rejected += 1

    def note_queue_depth(self, depth: int) -> None:
        self.queue_depth = depth
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def note_batch(self, batch_queries: int) -> None:
        """One engine call dispatched with ``batch_queries`` query rows."""
        self.batches_executed += 1
        self.batch_size_histogram[batch_queries] = (
            self.batch_size_histogram.get(batch_queries, 0) + 1
        )

    def note_coalesce_latency(self, seconds: float) -> None:
        """Submit-to-engine-start wait of one request."""
        self._coalesce_sum += seconds
        self._coalesce_count += 1

    def note_answered(
        self, n_queries: int, latency_s: float, degraded: bool
    ) -> None:
        self.requests_answered += 1
        self.queries_answered += n_queries
        if degraded:
            self.degraded_responses += 1
        self._latencies[self._latency_pos] = latency_s
        self._latency_pos = (self._latency_pos + 1) % self._latencies.shape[0]
        if self._latency_count < self._latencies.shape[0]:
            self._latency_count += 1

    def note_error(self) -> None:
        self.requests_errored += 1

    def note_reply_bytes(
        self,
        delta: int,
        shard_reply_bytes: Optional[Tuple[Optional[int], ...]] = None,
    ) -> None:
        """Engine reply volume of one batch (delta since the last call)."""
        self.reply_bytes += int(delta)
        if shard_reply_bytes is not None:
            self.shard_reply_bytes = tuple(shard_reply_bytes)

    # ------------------------------------------------------------------
    # Derived figures.
    # ------------------------------------------------------------------

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_at

    @property
    def qps(self) -> float:
        """Answered queries per second over the server's lifetime."""
        elapsed = self.uptime_s
        return self.queries_answered / elapsed if elapsed > 0 else 0.0

    @property
    def coalesce_latency_mean_s(self) -> float:
        if not self._coalesce_count:
            return 0.0
        return self._coalesce_sum / self._coalesce_count

    @property
    def mean_batch_size(self) -> float:
        if not self.batches_executed:
            return 0.0
        total = sum(
            size * count for size, count in self.batch_size_histogram.items()
        )
        return total / self.batches_executed

    def latency_percentiles(self) -> Optional[Dict[str, float]]:
        """p50/p99/p999 end-to-end seconds over the recent-request ring."""
        if not self._latency_count:
            return None
        window = self._latencies[: self._latency_count]
        p50, p99, p999 = np.percentile(window, (50.0, 99.0, 99.9))
        return {"p50_s": float(p50), "p99_s": float(p99),
                "p999_s": float(p999)}

    def snapshot(self) -> dict:
        """One JSON-friendly view of the whole plane (the STATS op body)."""
        return {
            "uptime_s": self.uptime_s,
            "requests_admitted": self.requests_admitted,
            "requests_rejected": self.requests_rejected,
            "requests_answered": self.requests_answered,
            "requests_errored": self.requests_errored,
            "degraded_responses": self.degraded_responses,
            "queries_admitted": self.queries_admitted,
            "queries_answered": self.queries_answered,
            "batches_executed": self.batches_executed,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(self.batch_size_histogram.items())
            },
            "queue_depth": self.queue_depth,
            "queue_depth_peak": self.queue_depth_peak,
            "current_window_s": self.current_window_s,
            "coalesce_latency_mean_s": self.coalesce_latency_mean_s,
            "latency": self.latency_percentiles(),
            "qps": self.qps,
            "reply_bytes": self.reply_bytes,
            "shard_reply_bytes": (
                None
                if self.shard_reply_bytes is None
                else list(self.shard_reply_bytes)
            ),
        }

    def json(self) -> str:
        """The snapshot rendered as one JSON object (the STATS reply)."""
        return json.dumps(self.snapshot())
