"""Benchmark-owned load drivers for the query service.

Built on :class:`repro.serve.client.AsyncClient`: one process, one
asyncio thread, a couple of multiplexed connections.

*Closed loop*: a fixed number of callers, each sending its next request
when the previous one returns — callers that wait.  A slow server gets
less load, so this measures capacity, not latency under load.

*Open loop*: Poisson arrivals on a schedule drawn before the phase starts
— independent users.  Each request's latency runs from the instant it was
**due**, so the wait a stall imposes on later arrivals counts, and how
late the generator itself sent is reported beside it.
(``repro.serve.loadgen.run_open_loop`` stamps the start when the request's
task first runs, which hides exactly that wait; ``src/`` is not this
change's to patch.)

Every answer is kept (first per query) or compared with the one kept, so
the workload can check each served answer against the library's.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.client import AsyncClient, ServerBusyError, ServerError

from benchmarks.e2e.trace import Tracer

__all__ = ["Phase", "Load"]

#: After a phase's last arrival, how long stragglers may take before they
#: are cancelled and counted as errors.
_STRAGGLER_TIMEOUT_S = 10.0


@dataclass
class Phase:
    """Counts and latencies of one load phase."""

    name: str
    offered_qps: float = 0.0
    elapsed_s: float = 0.0
    sent: int = 0
    answered: int = 0
    rejected: int = 0
    errored: int = 0
    degraded: int = 0
    #: Answers that differed from an earlier answer to the same query.
    wrong: int = 0
    #: (due offset in the phase, latency from due), answered requests.
    samples: List[Tuple[float, float]] = field(default_factory=list)
    lateness_s: List[float] = field(default_factory=list)

    @property
    def latencies_s(self) -> np.ndarray:
        return np.asarray([latency for _, latency in self.samples])

    @property
    def failed(self) -> int:
        return self.rejected + self.errored + self.degraded + self.wrong

    @property
    def achieved_qps(self) -> float:
        return self.answered / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        if not self.samples:
            return 0.0
        return float(np.percentile(self.latencies_s, q)) * 1e3

    def slo_share(self, slo_s: float) -> float:
        """Requests *sent* that came back in time; anything else misses.

        Degraded and wrong answers are a subset of the answered ones and
        are taken off again: they are not service.
        """
        if not self.sent:
            return 0.0
        in_time = int(np.sum(self.latencies_s <= slo_s))
        return max(0, in_time - self.degraded - self.wrong) / self.sent

    def latency_grew(self) -> bool:
        """A backlog building up shows as latency rising over the phase."""
        if len(self.samples) < 30:
            return False
        ordered = sorted(self.samples)
        third = len(ordered) // 3
        first = np.mean([latency for _, latency in ordered[:third]])
        last = np.mean([latency for _, latency in ordered[-third:]])
        return bool(last > 1.5 * first + 0.020)


class Load:
    """Connections, a query pool, and the answers seen so far."""

    def __init__(
        self,
        clients: Sequence[AsyncClient],
        pool: Sequence[str],
        *,
        k: int,
        budget: int,
        tracer: Optional[Tracer] = None,
    ):
        self.clients = list(clients)
        self.pool = pool
        self.k = k
        self.budget = budget
        self.tracer = tracer
        #: query row -> (indices, distances) of its first OK answer.
        self.answers: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._request_ids = 0
        self.lost: Optional[ConnectionError] = None

    async def _one(self, phase: Phase, client: AsyncClient, row: int,
                   due: float, sent_at: float, started: float) -> None:
        loop = asyncio.get_running_loop()
        try:
            result = await client.knn_approx(
                [self.pool[row]], self.k, budget=self.budget
            )
        except ServerBusyError:
            phase.rejected += 1
            return
        except ServerError:
            phase.errored += 1
            return
        except ConnectionError as lost:
            # The server is gone; nothing sent from now on can succeed.
            # The phase raises instead of spinning on a dead socket.
            self.lost = lost
            raise
        done = loop.time()
        phase.answered += 1
        phase.samples.append((due - started, done - due))
        if result.degraded:
            phase.degraded += 1
        answer = (result.rows.indices, result.rows.distances)
        first = self.answers.setdefault(row, answer)
        if first is not answer and not (
            np.array_equal(first[0], answer[0])
            and np.array_equal(first[1], answer[1])
        ):
            phase.wrong += 1
        if self.tracer is not None:
            self._request_ids += 1
            rid = self._request_ids
            parent = self.tracer.record(f"{phase.name}.request", due, done,
                                        trace_id=rid)
            self.tracer.record("loadgen.wait_send", due, sent_at, parent, rid)
            self.tracer.record("serve.roundtrip", sent_at, done, parent, rid)

    async def closed_loop(self, name: str, seconds: float, in_flight: int,
                          seed: int) -> Phase:
        """``in_flight`` callers; each sends again when its reply is in."""
        loop = asyncio.get_running_loop()
        phase = Phase(name)
        rows = np.random.default_rng(seed).integers(0, len(self.pool),
                                                    size=1 << 16)
        started = loop.time()
        deadline = started + seconds

        async def caller(slot: int) -> None:
            client = self.clients[slot % len(self.clients)]
            i = slot
            while loop.time() < deadline:
                now = loop.time()
                phase.sent += 1
                await self._one(phase, client, int(rows[i % len(rows)]),
                                now, now, started)
                i += in_flight

        await asyncio.gather(*(caller(slot) for slot in range(in_flight)))
        phase.elapsed_s = loop.time() - started
        return phase

    async def open_loop(self, name: str, seconds: float, rate_qps: float,
                        seed: int) -> Phase:
        """Poisson arrivals at ``rate_qps``, sent on schedule regardless."""
        loop = asyncio.get_running_loop()
        phase = Phase(name, offered_qps=rate_qps)
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate_qps,
                               size=int(rate_qps * seconds * 1.5) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        rows = rng.integers(0, len(self.pool), size=len(offsets))
        tasks: List[asyncio.Task] = []
        started = loop.time()
        for i, offset in enumerate(offsets):
            if self.lost is not None:
                raise self.lost
            due = started + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent_at = loop.time()
            phase.lateness_s.append(sent_at - due)
            phase.sent += 1
            client = self.clients[i % len(self.clients)]
            tasks.append(asyncio.ensure_future(
                self._one(phase, client, int(rows[i]), due, sent_at, started)
            ))
        if tasks:
            _, pending = await asyncio.wait(
                tasks, timeout=_STRAGGLER_TIMEOUT_S
            )
            for task in pending:
                task.cancel()
                phase.errored += 1
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            if self.lost is not None:
                raise self.lost
            # Anything _one did not expect (a protocol error, say) is an
            # errored request, not a silently missing one.
            phase.errored += sum(isinstance(o, Exception) for o in outcomes)
        phase.elapsed_s = loop.time() - started
        return phase
