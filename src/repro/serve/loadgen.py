"""Open-loop load generation for the query service.

The honest way to measure a service's sustainable throughput is an
*open-loop* driver: arrivals come from a Poisson process at a fixed
offered rate, independent of how fast the server answers.  A
closed-loop client (send, wait, send) self-throttles when the server
slows down, hiding queueing collapse; the open loop keeps offering
load, so latency percentiles blow up exactly when the offered rate
passes the service's capacity — which is the number we want.

:func:`run_open_loop` drives one :class:`~repro.serve.client.AsyncClient`
connection with one asyncio task per arrival (requests multiplex on the
socket by id) and returns a :class:`LoadReport`: achieved qps, rejected
and errored counts, degraded responses, and end-to-end latency
percentiles over every completed request.  A request's latency runs
from the instant it was **due** on the arrival schedule, not from when
its task first got to run: a stalled server (or event loop) delays the
arrivals behind the stall, and that wait is exactly what an open loop
exists to expose.  How late the generator itself sent each request is
kept beside it (``lateness_s``), so a latency tail made by the driver
can be told from one made by the service.  Inter-arrival gaps are drawn
from a seeded generator, so a sweep's points differ only in the knob
under study.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.serve.client import AsyncClient, ServerBusyError, ServerError

__all__ = ["LoadReport", "run_open_loop"]


@dataclass
class LoadReport:
    """One open-loop run: offered vs achieved rate + latency tails."""

    offered_qps: float
    duration_s: float
    sent: int = 0
    answered: int = 0
    rejected: int = 0
    errored: int = 0
    degraded: int = 0
    #: Reply time minus the request's due time, answered requests.
    latencies_s: List[float] = field(default_factory=list)
    #: Send time minus due time, every request sent: the generator's own
    #: share of the latencies above.
    lateness_s: List[float] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.answered / self.duration_s

    def percentile_s(self, q: float) -> Optional[float]:
        if not self.latencies_s:
            return None
        return float(np.percentile(np.asarray(self.latencies_s), q))

    @property
    def lateness_p99_s(self) -> Optional[float]:
        if not self.lateness_s:
            return None
        return float(np.percentile(np.asarray(self.lateness_s), 99.0))

    def to_dict(self) -> dict:
        return {
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "duration_s": self.duration_s,
            "sent": self.sent,
            "answered": self.answered,
            "rejected": self.rejected,
            "errored": self.errored,
            "degraded": self.degraded,
            "p50_s": self.percentile_s(50.0),
            "p99_s": self.percentile_s(99.0),
            "p999_s": self.percentile_s(99.9),
            "lateness_p99_s": self.lateness_p99_s,
        }


async def run_open_loop(
    *,
    unix_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    queries,
    op: str = "knn",
    k: int = 5,
    radius: float = 0.0,
    budget: Optional[int] = None,
    qps: float = 100.0,
    duration_s: float = 5.0,
    seed: int = 0,
    connections: int = 1,
) -> LoadReport:
    """Offer ``qps`` Poisson arrivals for ``duration_s``; report tails.

    ``queries`` is the pool each arrival samples one query from — a
    float64 matrix for vector indexes, a list of strings for string
    indexes.  Rejected (busy) and errored arrivals are counted, not
    retried: an open loop measures what the service absorbs at this
    offered rate, so resubmitting would double-count load.
    """
    if qps <= 0:
        raise ValueError("qps must be > 0")
    if connections < 1:
        raise ValueError("connections must be >= 1")
    rng = np.random.default_rng(seed)
    n_pool = len(queries)
    if n_pool == 0:
        raise ValueError("query pool is empty")
    clients = [
        await AsyncClient.connect(unix_path=unix_path, host=host, port=port)
        for _ in range(connections)
    ]
    report = LoadReport(offered_qps=qps, duration_s=duration_s)
    loop = asyncio.get_event_loop()

    async def _one(client: AsyncClient, row: int, due: float) -> None:
        if isinstance(queries, np.ndarray):
            payload = queries[row : row + 1]
        else:
            payload = [queries[row]]
        report.lateness_s.append(loop.time() - due)
        try:
            if op == "knn":
                result = await client.knn(payload, k)
            elif op == "range":
                result = await client.range_search(payload, radius)
            elif op == "knn-approx":
                result = await client.knn_approx(payload, k, budget=budget)
            else:
                raise ValueError(f"unknown op {op!r}")
        except ServerBusyError:
            report.rejected += 1
            return
        except (ServerError, ConnectionError):
            report.errored += 1
            return
        report.latencies_s.append(loop.time() - due)
        report.answered += 1
        if result.degraded:
            report.degraded += 1

    try:
        tasks: List[asyncio.Task] = []
        started = loop.time()
        deadline = started + duration_s
        next_at = started
        i = 0
        while True:
            # Exponential inter-arrival gaps: a Poisson offered load.
            next_at += rng.exponential(1.0 / qps)
            if next_at >= deadline:
                break
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            row = int(rng.integers(0, n_pool))
            client = clients[i % connections]
            tasks.append(asyncio.ensure_future(_one(client, row, next_at)))
            report.sent += 1
            i += 1
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        report.duration_s = loop.time() - started
    finally:
        for client in clients:
            await client.close()
    return report
