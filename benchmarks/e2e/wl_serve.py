"""Workload ``serve_strings``: the whole served path under load.

client -> protocol -> batcher -> fan-out -> resident mmap worker ->
decode -> footrule -> refine -> merge -> reply, over a unix socket, with
single-query ``knn-approx`` requests drawn from a pool of words that are
not in the database.

Untraced pass: closed-loop windows over 2 connections, 16 in flight for
the capacity and 4 in flight for the latency.  Traced pass: client-side
spans, ``STATS`` deltas per phase, the three open-loop rates, and the same
payload loaded resident *in this process* to split a fan-out into
supervisor, IPC and shard time.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.io import load_strings
from repro.index import DistPermIndex, ShardedIndex
from repro.index.base import NeighborArrays
from repro.index.serialize import load_sharded, save_sharded
from repro.metrics import LevenshteinDistance
from repro.serve import protocol
from repro.serve.client import AsyncClient, SyncClient

from benchmarks.e2e import catalog
from benchmarks.e2e.common import (
    Context,
    Outcome,
    edit_distance,
    median,
    tie_aware_recall,
)
from benchmarks.e2e.loadgen import Load, Phase
from benchmarks.e2e.machine import peak_rss_mb, process_tree

__all__ = ["run"]

PAYLOAD = "sharded.v3"
SOCKET = "serve.sock"
SERVER_LOG = "server.log"
K = catalog.SERVE_K
BUDGET = catalog.SERVE_BUDGET
DRAINED = "drained; all accepted requests answered"


def _make_shard(points, metric, seed: int) -> DistPermIndex:
    """Inner-index factory: module-level and seeded, as ShardedIndex asks."""
    return DistPermIndex(points, metric, n_sites=catalog.N_SITES,
                         rng=np.random.default_rng(seed))


class Server:
    """The launcher subprocess and everything it starts."""

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def start(self) -> float:
        """Start the launcher; return seconds until ``PING`` answered."""
        started = time.perf_counter()
        self._log = open(SERVER_LOG, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.server_main",
             "--db", "words.txt", "--payload", PAYLOAD, "--socket", SOCKET],
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = started + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("launcher died during start-up:\n"
                                   + self.log())
            try:
                with SyncClient(unix_path=SOCKET, timeout=5.0) as client:
                    client.ping()
                return time.perf_counter() - started
            except (OSError, ConnectionError):
                time.sleep(0.02)
        raise RuntimeError("server did not answer PING within 60 s")

    def log(self) -> str:
        with open(SERVER_LOG, "r", encoding="utf-8") as handle:
            return handle.read()

    def peak_rss_mb(self) -> float:
        """Launcher + forkserver + workers + trackers, summed."""
        return sum(peak_rss_mb(pid) for pid in process_tree(self.proc.pid))

    def stop(self, out: Optional[Outcome] = None) -> None:
        """SIGTERM; the launcher must drain and exit 0.  Always reaps."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            self._log.close()
        if out is not None:
            out.check(proc.returncode == 0 and DRAINED in self.log(),
                      f"server exit code {proc.returncode}; log:\n"
                      + self.log()[-2000:])
            out.check(not os.path.exists(SOCKET),
                      "the server left its socket file behind")


def _setup(ctx: Context, db, pool, metric, server: Server,
           layers: Dict[str, float]) -> float:
    """Build, save, launch until PING, warm the served path."""
    t0 = time.perf_counter()
    built = ShardedIndex(db, metric, partial(_make_shard, seed=ctx.seed),
                         n_shards=catalog.SERVE_SHARDS)
    t1 = time.perf_counter()
    save_sharded(PAYLOAD, built)
    t2 = time.perf_counter()
    built.close()
    layers["parallel.workerpool.spawn_s"] = server.start()
    with SyncClient(unix_path=SOCKET) as client:
        for word in pool[:20]:
            client.knn_approx([word], K, budget=BUDGET)
    layers["index.distperm.build_s"] = t1 - t0
    layers["index.serialize.save_s"] = t2 - t1
    return time.perf_counter() - t0


async def _connect() -> List[AsyncClient]:
    return [await AsyncClient.connect(unix_path=SOCKET)
            for _ in range(catalog.SERVE_CONNECTIONS)]


async def _untraced(ctx: Context, load: Load
                    ) -> Tuple[List[Phase], List[Phase]]:
    """Alternate closed-loop windows at 16 and at 4 callers in flight.

    16 in flight saturates the engine (capacity); 4 in flight keeps one
    small window in the engine at a time, so its latency is one fan-out
    plus the server around it.  Both numbers are medians over windows that
    each sample a different slice of the run.  Closed loops on purpose: a
    box that runs 10% slower makes open-loop latency 13-19% worse (the
    batcher's queue amplifies it), and on a shared 2-core box that alone
    spread the number 22-60% over ten seeds.  The open loop, at all three
    frozen rates, is in the traced pass.
    """
    saturated, light = [], []
    share = 1.0 / catalog.SERVE_WINDOWS
    for window in range(catalog.SERVE_WINDOWS):
        saturated.append(await load.closed_loop(
            "closed16", ctx.seconds * 0.4 * share,
            catalog.SERVE_IN_FLIGHT, ctx.seed * 16 + window))
        light.append(await load.closed_loop(
            "closed4", ctx.seconds * 0.6 * share,
            catalog.SERVE_IN_FLIGHT_LIGHT, ctx.seed * 16 + 8 + window))
    return saturated, light


async def _traced(ctx: Context, load: Load, stats_of) -> Dict[str, object]:
    """All traced-pass phases; ``stats_of()`` fetches a STATS snapshot."""
    seconds = ctx.seconds
    tracer, load.tracer = load.tracer, None
    solo = await load.closed_loop("closed1", seconds * 0.1, 1, ctx.seed)
    untraced = await load.closed_loop(
        "closed16", seconds * 0.15, catalog.SERVE_IN_FLIGHT, ctx.seed)
    load.tracer = tracer
    traced = await load.closed_loop(
        "closed16", seconds * 0.15, catalog.SERVE_IN_FLIGHT, ctx.seed + 1)
    opens: Dict[str, Phase] = {}
    deltas: Dict[str, Tuple[dict, dict]] = {}
    for i, (name, rate) in enumerate(catalog.RATES_QPS.items()):
        before = await stats_of()
        opens[name] = await load.open_loop(name, seconds * 0.2, rate,
                                           seed=ctx.seed * 16 + 8 + i)
        deltas[name] = (before, await stats_of())
    return {"solo": solo, "untraced": untraced, "traced": traced,
            "opens": opens, "deltas": deltas}


def _count(out: Outcome, phases: Sequence[Phase]) -> None:
    for phase in phases:
        out.ops(phase.sent)
        if phase.failed:
            out.fail(
                f"phase {phase.name}: {phase.rejected} rejected, "
                f"{phase.errored} errored, {phase.degraded} degraded, "
                f"{phase.wrong} inconsistent of {phase.sent} sent",
                phase.failed,
            )


def run(ctx: Context) -> Outcome:
    out = Outcome()
    db = load_strings("words.txt")
    pool = load_strings("queries.txt")
    kth = np.load("gt_kth.npy")
    metric = LevenshteinDistance()
    server = Server()
    layers: Dict[str, float] = {}
    setups: List[float] = []
    try:
        for rep in range(ctx.setup_reps):
            if rep:
                server.stop(out)
            setups.append(_setup(ctx, db, pool, metric, server, layers))

        async def drive():
            clients = await _connect()
            load = Load(clients, pool, k=K, budget=BUDGET,
                        tracer=ctx.tracer if ctx.trace else None)
            try:
                if ctx.trace:
                    return load, await _traced(ctx, load, clients[0].stats)
                return load, await _untraced(ctx, load)
            finally:
                for client in clients:
                    await client.close()

        load, phases = asyncio.run(drive())
        rss = server.peak_rss_mb()
    finally:
        server.stop(out)

    if ctx.trace:
        _report_traced(ctx, out, phases, layers, db, pool, metric)
    else:
        saturated, light = phases
        _count(out, saturated + light)
        out.metrics.update({
            "setup_s": median(setups),
            "throughput_per_s": median([p.achieved_qps for p in saturated]),
            "latency_p50_ms": median([p.percentile_ms(50) for p in light]),
            "peak_rss_mb": rss,
        })
        out.notes.update({
            "closed16_qps": [round(p.achieved_qps, 1) for p in saturated],
            "closed4_p50_ms": [round(p.percentile_ms(50), 2) for p in light],
            "closed4_p95_ms": [round(p.percentile_ms(95), 2) for p in light],
            "closed4_answered": [p.answered for p in light],
        })
    _verify(ctx, out, load, db, pool, kth, metric)
    return out


def _library_answers(db, pool, rows: Sequence[int], metric
                     ) -> Tuple[float, NeighborArrays]:
    """The same payload in this process, serial, RAM: the reference."""
    t0 = time.perf_counter()
    library = load_sharded(PAYLOAD, db, metric)
    load_ram_s = time.perf_counter() - t0
    try:
        expected = library.knn_approx_batch_arrays(
            [pool[row] for row in rows], K, BUDGET)
    finally:
        library.close()
    return load_ram_s, expected


def _verify(ctx: Context, out: Outcome, load: Load, db, pool, kth,
            metric) -> None:
    """Every served answer against the in-process library's."""
    rows = sorted(load.answers)
    load_ram_s, expected = _library_answers(db, pool, rows, metric)
    wrong = 0
    for i, row in enumerate(rows):
        lo, hi = expected.offsets[i], expected.offsets[i + 1]
        indices, distances = load.answers[row]
        wrong += not (np.array_equal(indices, expected.indices[lo:hi])
                      and np.array_equal(distances,
                                         expected.distances[lo:hi]))
    out.ops(len(rows))
    if wrong:
        out.fail(f"{wrong} of {len(rows)} served answers differ from the "
                 "library's answer to the same query", wrong)

    # Reported distances are true edit distances (scalar recomputation).
    sample = rows[:: max(1, len(rows) // 40)]
    untrue = sum(
        int(d) != edit_distance(pool[row], db[int(i)])
        for row in sample
        for i, d in zip(*load.answers[row])
    )
    out.check(untrue == 0, f"{untrue} reported distances are not the edit "
                           "distance to the reported word")

    recall = tie_aware_recall(
        expected.distances, expected.offsets, kth[rows], K)
    out.check(recall >= catalog.RECALL_FLOOR["serve"],
              f"recall@{K} {recall:.4f} below the floor")
    out.notes["recall_at_10"] = recall
    if ctx.trace:
        out.metrics["index.serialize.load_ram_s"] = load_ram_s
        out.metrics["quality.recall_at_10"] = recall
        out.metrics["quality.index_bits_per_element"] = (
            os.path.getsize(PAYLOAD) * 8 / len(db))


# ---------------------------------------------------------------------------
# Traced pass: per-layer numbers.
# ---------------------------------------------------------------------------


def _stats_delta(before: dict, after: dict, elapsed_s: float
                 ) -> Dict[str, float]:
    """Batcher figures of one phase from two STATS snapshots."""
    batches = after["batches_executed"] - before["batches_executed"]
    queries = after["queries_answered"] - before["queries_answered"]
    # STATS carries the running mean of submit -> engine-start waits, one
    # per dispatched request; requests_answered stands in for that count.
    wait_sum = (after["coalesce_latency_mean_s"] * after["requests_answered"]
                - before["coalesce_latency_mean_s"]
                * before["requests_answered"])
    requests = after["requests_answered"] - before["requests_answered"]
    return {
        "serve.batcher.mean_batch_size": queries / max(1, batches),
        "serve.batcher.coalesce_wait_ms": 1e3 * wait_sum / max(1, requests),
        "serve.batcher.windows_per_s": batches / elapsed_s,
        "serve.batcher.queue_depth_peak": float(after["queue_depth_peak"]),
    }


def _protocol_probe(word: str) -> Dict[str, float]:
    """The four public codec functions on one representative message."""
    arrays = protocol.encode_string_queries([word])
    kind = protocol.KIND_STRINGS
    answer = (np.arange(K, dtype=np.float64), np.arange(K, dtype=np.int64),
              np.array([0, K], dtype=np.int64))

    def timed(call, repeats: int = 2000) -> float:
        t0 = time.perf_counter()
        for _ in range(repeats):
            call()
        return 1e6 * (time.perf_counter() - t0) / repeats

    def encode_request():
        return protocol.encode_request(
            protocol.OP_KNN_APPROX, 7, k=K, budget=BUDGET, queries=arrays,
            kind=kind)

    def encode_response():
        return protocol.encode_response(7, protocol.STATUS_OK, arrays=answer)

    # Frames carry a 4-byte length prefix the decoders do not take.
    request, response = encode_request()[4:], encode_response()[4:]
    return {
        "serve.protocol.encode_request_us": timed(encode_request),
        "serve.protocol.decode_request_us":
            timed(lambda: protocol.decode_request(request)),
        "serve.protocol.encode_response_us": timed(encode_response),
        "serve.protocol.decode_response_us":
            timed(lambda: protocol.decode_response(response)),
    }


def _allocate(footrules: List[np.ndarray], cap: int) -> List[np.ndarray]:
    """The global budget split, from its description: merge every shard's
    ascending centred footrules, keep the ``cap`` smallest per query
    (stable: ties to the lower shard, then the lower rank), and give each
    shard the number of its candidates that made the cut."""
    values = np.concatenate(footrules, axis=1)
    labels = np.concatenate([
        np.full(f.shape[1], s, dtype=np.int64)
        for s, f in enumerate(footrules)
    ])
    chosen = np.argsort(values, axis=1, kind="stable")[:, :cap]
    return [(labels[chosen] == s).sum(axis=1).astype(np.int64)
            for s in range(len(footrules))]


def _replica_probe(ctx: Context, out: Outcome, db, pool, metric
                   ) -> Dict[str, float]:
    """Split one fan-out: supervisor / IPC / shard work.

    The payload is loaded twice in this process, mmap-backed both times
    with the launcher's cache size: *resident* (one worker process per
    shard, exactly what the launcher serves from) and *serial* (the shard
    objects themselves).  The resident fan-out is timed from outside and
    read through ``stats``; the same two shard ops are then run on the
    in-process shards with the same budgets.  Same backing on both sides,
    so the difference is pipes, pickling and scheduling, not decoding.
    """
    span = ctx.tracer.span
    resident = load_sharded(
        PAYLOAD, db, metric, resident=True, backing="mmap",
        cache_bytes=catalog.SERVE_CACHE_BYTES)
    t0 = time.perf_counter()
    serial = load_sharded(
        PAYLOAD, db, metric, backing="mmap",
        cache_bytes=catalog.SERVE_CACHE_BYTES)
    load_mmap_s = time.perf_counter() - t0
    try:
        resident.knn_approx_batch_arrays(pool[:1], K, BUDGET)  # spawn
        resident.reset_stats()
        cap = max(K, min(BUDGET, len(db)))
        fanout: Dict[int, List[float]] = {1: [], 8: []}
        slowest: List[float] = []
        supervisor: List[float] = []
        ipc: List[float] = []
        mismatches = 0
        calls = 0
        for size, repeats in ((1, 30), (8, 10)):
            for i in range(repeats):
                queries = pool[(i * size) % (len(pool) - size):][:size]
                with span(f"index.sharded.fanout_b{size}", trace_id=calls):
                    t0 = time.perf_counter()
                    answer = resident.knn_approx_batch_arrays(
                        queries, K, BUDGET)
                    elapsed = time.perf_counter() - t0
                calls += 1
                fanout[size].append(elapsed)
                if size != 1:
                    continue
                latencies = resident.stats.shard_latencies_s
                slowest.append(max(latencies))
                supervisor.append(elapsed - max(latencies))
                # The same two ops on the in-process shards.
                shard_s = [0.0] * serial.n_shards
                footrules = []
                for s, shard in enumerate(serial.shards):
                    t0 = time.perf_counter()
                    footrules.append(shard.query_footrules(
                        queries, min(cap, len(shard.points))))
                    shard_s[s] += time.perf_counter() - t0
                parts = []
                for s, (shard, budget) in enumerate(
                        zip(serial.shards, _allocate(footrules, cap))):
                    if not budget.any():
                        continue
                    t0 = time.perf_counter()
                    rows = shard.knn_approx_batch_arrays(
                        queries, K, budget=budget)
                    shard_s[s] += time.perf_counter() - t0
                    parts.append((rows.distances,
                                  rows.indices + serial.shard_offsets[s]))
                ipc.append(max(latencies) - max(shard_s))
                distances = np.concatenate([p[0] for p in parts])
                indices = np.concatenate([p[1] for p in parts])
                order = np.lexsort((indices, distances))[:K]
                mismatches += not (
                    np.array_equal(indices[order], answer.indices)
                    and np.array_equal(distances[order], answer.distances))
        out.ops(calls)
        if mismatches:
            out.fail(f"{mismatches} resident fan-outs differ from the two "
                     "shard ops replayed in-process", mismatches)
        reply_bytes = resident.stats.reply_bytes / resident.stats.queries
    finally:
        resident.close()
        serial.close()
    return {
        "index.serialize.load_mmap_s": load_mmap_s,
        "index.sharded.fanout_ms": 1e3 * median(fanout[1]),
        "index.sharded.fanout_b8_ms": 1e3 * median(fanout[8]),
        "index.sharded.supervisor_self_ms": 1e3 * median(supervisor),
        "parallel.workerpool.shard_latency_max_ms": 1e3 * median(slowest),
        "parallel.workerpool.ipc_overhead_ms": 1e3 * median(ipc),
        "parallel.workerpool.reply_bytes_per_query": reply_bytes,
    }


def _report_traced(ctx: Context, out: Outcome, phases: Dict[str, object],
                   layers: Dict[str, float], db, pool, metric) -> None:
    solo: Phase = phases["solo"]
    untraced: Phase = phases["untraced"]
    traced: Phase = phases["traced"]
    opens: Dict[str, Phase] = phases["opens"]
    everything = [solo, untraced, traced] + list(opens.values())
    _count(out, everything)
    slo_s = catalog.SLO_MS / 1e3

    metrics = out.metrics
    metrics.update(layers)
    metrics.update(_protocol_probe(db[len(db) // 2]))
    before, after = phases["deltas"]["R_mid"]
    metrics.update(_stats_delta(before, after, opens["R_mid"].elapsed_s))
    metrics.update(_replica_probe(ctx, out, db, pool, metric))
    metrics.update({
        "serve.server.overhead_ms":
            solo.percentile_ms(50) - metrics["index.sharded.fanout_ms"],
        "serve.server.rejected": float(sum(p.rejected for p in everything)),
        "serve.server.errored": float(sum(p.errored for p in everything)),
        "serve.server.degraded": float(sum(p.degraded for p in everything)),
        "serve.p50_ms.R_lo": opens["R_lo"].percentile_ms(50),
        "serve.p99_ms.R_lo": opens["R_lo"].percentile_ms(99),
        "serve.p50_ms.R_mid": opens["R_mid"].percentile_ms(50),
        "serve.p99_ms.R_mid": opens["R_mid"].percentile_ms(99),
        "serve.p50_ms.R_hi": opens["R_hi"].percentile_ms(50),
        "serve.p99_ms.R_hi": opens["R_hi"].percentile_ms(99),
        "serve.achieved_qps.R_hi": opens["R_hi"].achieved_qps,
        "serve.slo_share.R_mid": opens["R_mid"].slo_share(slo_s),
        "serve.loadgen.lateness_p99_ms": 1e3 * max(
            float(np.percentile(p.lateness_s, 99)) for p in opens.values()),
        "bench.trace_overhead_share":
            (traced.achieved_qps - untraced.achieved_qps)
            / untraced.achieved_qps,
    })
    sustained = [
        phase.offered_qps for phase in opens.values()
        if phase.slo_share(slo_s) >= 0.98
        and phase.answered >= 0.95 * phase.sent
        and not phase.latency_grew()
    ]
    metrics["serve.sustained_rate_qps"] = float(max(sustained, default=0.0))
    out.notes.update({
        "phase_sent": {p.name: p.sent for p in everything},
        "R_mid_p50_ms": round(opens["R_mid"].percentile_ms(50), 2),
        "closed1_p50_ms": round(solo.percentile_ms(50), 2),
        "closed16_qps": round(untraced.achieved_qps, 1),
        "generator_bound": [
            name for name, p in opens.items()
            if np.percentile(p.lateness_s, 99) > 0.005],
    })
