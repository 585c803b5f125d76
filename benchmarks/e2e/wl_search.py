"""Workloads ``search_vectors_ram`` and ``search_vectors_mmap``.

One payload, one query pool, two ways of holding the codes.  A batch
phase times ``knn_approx_batch_arrays`` over 80-query batches, a single
phase loops ``knn_approx``; both read the same pool, so the answers of the
two query paths (and of the two backings) can be compared row for row.
The traced pass replays each batch through the public stage functions and
requires the replay's columns to equal the index's own answer.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.permutation import (
    compact_position_dtype,
    decode_permutations,
    footrule_matrix_batch,
    permutation_positions,
    permutations_from_distances,
)
from repro.index import DistPermIndex
from repro.index.base import NeighborArrays
from repro.index.batching import query_chunks
from repro.index.serialize import load_distperm, save_distperm
from repro.metrics import EuclideanDistance

from benchmarks.e2e import catalog
from benchmarks.e2e.common import (
    Context,
    Outcome,
    median,
    percentile,
    run_for,
    tie_aware_recall,
)
from benchmarks.e2e.machine import peak_rss_mb

__all__ = ["run"]

PAYLOAD = "index.v3"
K = catalog.SEARCH_K
BUDGET = catalog.SEARCH_BUDGET
BATCH = catalog.SEARCH_BATCH


def _load(points, metric, backing: str) -> DistPermIndex:
    cache = catalog.MMAP_CACHE_BYTES if backing == "mmap" else None
    return load_distperm(PAYLOAD, points, metric, backing=backing,
                         cache_bytes=cache)


def _setup(points, queries, metric, backing: str, seed: int,
           layers: Dict[str, float]) -> DistPermIndex:
    """Build, save v3, reload with ``backing``, warm both query paths."""
    t0 = time.perf_counter()
    built = DistPermIndex(points, metric, n_sites=catalog.N_SITES,
                          rng=np.random.default_rng(seed))
    t1 = time.perf_counter()
    save_distperm(PAYLOAD, built)
    t2 = time.perf_counter()
    del built
    index = _load(points, metric, backing)
    t3 = time.perf_counter()
    index.knn_approx_batch_arrays(queries[:20], K, BUDGET)
    index.knn_approx(queries[0], K, BUDGET)
    index.reset_stats()
    layers["index.distperm.build_s"] = t1 - t0
    layers["index.serialize.save_s"] = t2 - t1
    layers[f"index.serialize.load_{backing}_s"] = t3 - t2
    layers["setup_s"] = time.perf_counter() - t0
    return index


def _digest(answer: NeighborArrays) -> str:
    h = hashlib.sha256()
    for column in (answer.distances, answer.indices, answer.offsets):
        h.update(column.tobytes())
    return h.hexdigest()


def _same(a: NeighborArrays, b: NeighborArrays) -> bool:
    return (np.array_equal(a.offsets, b.offsets)
            and np.array_equal(a.indices, b.indices)
            and a.distances.tobytes() == b.distances.tobytes())


def _select(footrules: np.ndarray, budget: int) -> np.ndarray:
    """The ``budget`` smallest (footrule, index) pairs, in the order the
    index evaluates them: strictly-below-boundary entries by index, then
    boundary ties by index.  Same order => bit-identical refinement."""
    n = footrules.shape[0]
    if budget >= n:
        return np.arange(n)
    part = np.argpartition(footrules, budget - 1)[:budget]
    boundary = footrules[part].max()
    strict = np.flatnonzero(footrules < boundary)
    ties = np.flatnonzero(footrules == boundary)
    return np.concatenate([strict, ties[: budget - strict.shape[0]]])


class _Replay:
    """A batch through the public stage functions, one span per layer."""

    def __init__(self, ctx: Context, index: DistPermIndex, points):
        self.span = ctx.tracer.span
        self.index = index
        self.points = points
        self.metric = EuclideanDistance()  # uncounted: stats stay the index's
        self.k_sites = index.n_sites
        self.dtype = compact_position_dtype(self.k_sites)
        self.workspace: dict = {}
        self.positions: Optional[np.ndarray] = None
        if index.backing == "ram":
            self.positions = permutation_positions(
                index.permutations
            ).astype(self.dtype)

    def _footrules(self, query_perms: np.ndarray) -> np.ndarray:
        span = self.span
        if self.positions is not None:
            with span("core.permutation.footrule"):
                return footrule_matrix_batch(
                    None, query_perms, positions=self.positions,
                    workspace=self.workspace,
                )
        store = self.index.code_store
        out = np.empty((query_perms.shape[0], store.count), dtype=np.int64)
        blocks = store.iter_blocks()
        while True:
            with span("core.storage.codes_block"):
                block = next(blocks, None)
            if block is None:
                return out
            start, stop, codes = block
            with span("core.permutation.decode"):
                positions = permutation_positions(
                    decode_permutations(codes, self.k_sites)
                ).astype(self.dtype, copy=False)
            with span("core.permutation.footrule"):
                out[:, start:stop] = footrule_matrix_batch(
                    None, query_perms, positions=positions,
                    workspace=self.workspace,
                )

    def batch(self, queries: np.ndarray) -> NeighborArrays:
        span = self.span
        n = len(self.points)
        budget = max(K, min(BUDGET, n))
        with span("metrics.to_sites_query"):
            distances = self.metric.to_sites(queries, self.index.sites)
        with span("core.permutation.argsort_query"):
            query_perms = permutations_from_distances(distances)
        dist_parts: List[np.ndarray] = []
        index_parts: List[np.ndarray] = []
        for start, stop in query_chunks(len(queries), n):
            footrules = self._footrules(query_perms[start:stop])
            for offset, row in enumerate(footrules):
                with span("index.distperm.select"):
                    candidates = _select(row, budget)
                with span("metrics.refine"):
                    refined = self.metric.batch_distances(
                        [queries[start + offset]], self.points[candidates]
                    )[0]
                with span("index.distperm.lexsort"):
                    order = np.lexsort((candidates, refined))[:K]
                    dist_parts.append(refined[order])
                    index_parts.append(candidates[order])
        with span("index.distperm.assemble"):
            offsets = np.arange(len(queries) + 1, dtype=np.int64) * K
            return NeighborArrays(
                np.concatenate(dist_parts),
                np.concatenate(index_parts).astype(np.int64),
                offsets,
            )


def run(ctx: Context) -> Outcome:
    out = Outcome()
    backing = "mmap" if ctx.workload.endswith("mmap") else "ram"
    points = np.load("points.npy")
    queries = np.load("queries.npy")
    kth = np.load("gt_kth.npy")
    n, pool = len(points), len(queries)
    metric = EuclideanDistance()
    batches = [queries[i:i + BATCH] for i in range(0, pool, BATCH)]

    setups: List[float] = []
    layers: Dict[str, float] = {}
    index = None
    for _ in range(ctx.setup_reps):
        if index is not None:
            index.close()
        index = _setup(points, queries, metric, backing, ctx.seed, layers)
        setups.append(layers.pop("setup_s"))
    store = index.code_store

    # ---- untraced pass: the end-to-end numbers ---------------------------
    share = 0.35 if ctx.trace else 1.0
    answers: List[NeighborArrays] = []
    singles: List[list] = []
    cache = {"misses": 0, "hits": 0}  # over the batch calls only
    batch_times: List[float] = []
    single_times: List[float] = []

    def round_(i: int) -> None:
        """One batch, then a few single calls: both phases sample the
        whole run, so a slow spell of the box lands on both alike."""
        before = (store.cache_misses, store.cache_hits) if store else None
        t0 = time.perf_counter()
        answers.append(index.knn_approx_batch_arrays(
            batches[i % len(batches)], K, BUDGET))
        t1 = time.perf_counter()
        batch_times.append(t1 - t0)
        if store:
            cache["misses"] += store.cache_misses - before[0]
            cache["hits"] += store.cache_hits - before[1]
        # About a third of the round goes to singles.
        while time.perf_counter() - t1 < 0.5 * (t1 - t0):
            t2 = time.perf_counter()
            singles.append(index.knn_approx(
                queries[len(singles) % pool], K, BUDGET))
            single_times.append(time.perf_counter() - t2)

    run_for(ctx.seconds * share, round_, min_steps=len(batches))
    rss = peak_rss_mb(os.getpid())
    batch_queries = sum(answer.n_queries for answer in answers)
    evals = index.stats.query_distances / index.stats.queries
    out.ops(batch_queries + len(single_times))
    qps = batch_queries / sum(batch_times)
    out.metrics.update({
        "setup_s": median(setups),
        "throughput_per_s": qps,
        "latency_p50_ms": median(single_times) * 1e3,
        "peak_rss_mb": rss,
    })
    out.notes.update({
        "batches": len(batch_times), "singles": len(single_times),
        "batch_median_ms": median(batch_times) * 1e3,
    })

    if ctx.trace:
        per_query_batch_s = sum(batch_times) / batch_queries
        out.metrics.update(layers)
        out.metrics.update({
            "index.distperm.batch_call_ms": median(batch_times) * 1e3,
            "index.distperm.single_over_batch":
                median(single_times) / per_query_batch_s,
            "index.distperm.single_query_p95_ms":
                percentile(single_times, 95) * 1e3,
            "quality.distance_evals_per_query": evals,
            "quality.index_bits_per_element":
                os.path.getsize(PAYLOAD) * 8 / n,
        })
        if store is not None:
            out.metrics.update({
                "core.storage.block_decodes_per_query":
                    cache["misses"] / batch_queries,
                "core.storage.cache_hit_ratio":
                    cache["hits"] / max(1, sum(cache.values())),
            })
        _traced(ctx, out, index, points, batches, qps)

    _verify(ctx, out, index, points, queries, kth, batches, answers,
            singles, backing, metric)
    index.close()
    return out


def _traced(ctx: Context, out: Outcome, index, points, batches,
            untraced_qps: float) -> None:
    tracer = ctx.tracer
    replay = _Replay(ctx, index, points)
    mismatches = []

    def traced_batch(i: int) -> None:
        queries = batches[i % len(batches)]
        with tracer.span("batch", trace_id=i):
            with tracer.span("real"):
                real = index.knn_approx_batch_arrays(queries, K, BUDGET)
            with tracer.span("replay"):
                replayed = replay.batch(queries)
        if not _same(real, replayed):
            mismatches.append(i)

    count = len(run_for(ctx.seconds * 0.45, traced_batch, min_steps=2))
    n_queries = sum(len(batches[i % len(batches)]) for i in range(count))
    out.ops(n_queries)
    if mismatches:
        out.fail(f"staged replay differs from the index on batches "
                 f"{mismatches[:5]}", len(mismatches))
    totals = tracer.totals()
    stage_names = [
        "metrics.to_sites_query", "core.permutation.argsort_query",
        "core.permutation.footrule", "core.storage.codes_block",
        "core.permutation.decode", "index.distperm.select",
        "metrics.refine", "index.distperm.lexsort",
        "index.distperm.assemble",
    ]
    stage = {name: totals.get(name, 0.0) for name in stage_names}
    other_layers = sum(stage[name] for name in (
        "metrics.to_sites_query", "core.permutation.footrule",
        "core.storage.codes_block", "core.permutation.decode",
        "metrics.refine"))
    budget = max(K, min(BUDGET, len(points)))
    out.metrics.update({
        "metrics.to_sites_query_us":
            1e6 * stage["metrics.to_sites_query"] / n_queries,
        "metrics.refine_us_per_candidate":
            1e6 * stage["metrics.refine"] / (n_queries * budget),
        "core.permutation.footrule_ns_per_pair":
            1e9 * stage["core.permutation.footrule"]
            / (n_queries * len(points)),
        "index.distperm.self_us_per_query":
            1e6 * (totals["real"] - other_layers) / n_queries,
        "index.distperm.replay_coverage":
            sum(stage.values()) / totals["real"],
        "bench.trace_overhead_share":
            (n_queries / totals["real"] - untraced_qps) / untraced_qps,
    })
    out.notes["replay_stage_share"] = {
        name: seconds / totals["real"] for name, seconds in stage.items()
    }

    # Layer probes on one block of codes.
    store = index.code_store
    codes = store.codes_block(0) if store else index.codes[:8192]
    decode_times = []
    for _ in range(5):
        t0 = time.perf_counter()
        permutation_positions(decode_permutations(codes, index.n_sites))
        decode_times.append(time.perf_counter() - t0)
    out.metrics["core.permutation.decode_ns_per_code"] = (
        1e9 * median(decode_times) / len(codes)
    )
    if store is not None:
        store.clear_cache()
        block_times = []
        for block in range(store.n_blocks):
            t0 = time.perf_counter()
            store.codes_block(block)
            block_times.append(time.perf_counter() - t0)
        out.metrics["core.storage.codes_block_us"] = (
            1e6 * median(block_times)
        )


def _verify(ctx: Context, out: Outcome, index, points, queries, kth,
            batches, answers, singles, backing: str, metric) -> None:
    """Output checks; every failing row counts in ``failed``."""
    n_batches = len(batches)
    pool_answer = NeighborArrays.concat(answers[:n_batches])
    out.notes["answer_digest"] = _digest(pool_answer)

    repeats_wrong = sum(
        not _same(answer, answers[i % n_batches])
        for i, answer in enumerate(answers[n_batches:], n_batches)
    )
    out.check(repeats_wrong == 0,
              f"{repeats_wrong} repeated batches changed their answer")

    # Shape and order of every row; distances are the true distances.
    counts = pool_answer.counts()
    rows = pool_answer.row_ids()
    order = np.lexsort((pool_answer.indices, pool_answer.distances, rows))
    true = np.sqrt(
        ((points[pool_answer.indices] - queries[rows]) ** 2).sum(axis=1)
    )
    bad_rows = int(np.sum(counts != K))
    out.check(bad_rows == 0, f"{bad_rows} rows do not hold {K} neighbours")
    out.check(bool(np.array_equal(order, np.arange(order.shape[0]))),
              "rows are not sorted by (distance, index)")
    wrong = int(np.sum(~np.isclose(pool_answer.distances, true,
                                   rtol=1e-9, atol=1e-12)))
    out.check(wrong == 0, f"{wrong} reported distances are not the true "
                          "distance to the reported point")
    pairs = np.unique(np.stack([rows, pool_answer.indices]), axis=1)
    out.check(pairs.shape[1] == rows.shape[0],
              "a row names the same point twice")

    # The single-query path must agree with the batch path row for row
    # (indices exactly; Euclidean distances to the last ulp or so, see
    # repro.index.base on vectorized float kernels).
    disagree = 0
    for i, neighbours in enumerate(singles):
        q = i % len(queries)
        lo, hi = pool_answer.offsets[q], pool_answer.offsets[q + 1]
        same = (
            [nb.index for nb in neighbours]
            == pool_answer.indices[lo:hi].tolist()
            and np.allclose([nb.distance for nb in neighbours],
                            pool_answer.distances[lo:hi], rtol=1e-12)
        )
        disagree += not same
    if disagree:
        out.fail(f"{disagree} single-query answers differ from the batch "
                 "path", disagree)

    recall = tie_aware_recall(pool_answer.distances, pool_answer.offsets,
                              kth, K)
    out.check(recall >= catalog.RECALL_FLOOR["search"],
              f"recall@{K} {recall:.4f} below the floor")
    if ctx.trace:
        out.metrics["quality.recall_at_10"] = recall
    out.notes["recall_at_10"] = recall

    store = index.code_store
    if store is not None:
        out.check(store.peak_cache_bytes <= store.cache_bytes,
                  f"decoded-block cache peaked at {store.peak_cache_bytes} "
                  f"bytes, over its {store.cache_bytes} budget")
        if ctx.trace:
            out.metrics["core.storage.peak_cache_bytes"] = float(
                store.peak_cache_bytes
            )
        # Same payload, RAM codes: the answers must match byte for byte.
        t0 = time.perf_counter()
        reference = _load(points, metric, "ram")
        if ctx.trace:
            out.metrics["index.serialize.load_ram_s"] = (
                time.perf_counter() - t0
            )
        expected = NeighborArrays.concat([
            reference.knn_approx_batch_arrays(batch, K, BUDGET)
            for batch in batches
        ])
        out.check(_same(pool_answer, expected),
                  "mmap answers differ from the RAM answers")
