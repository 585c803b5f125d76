"""Workload ``census_strings``: the paper's Table-2 path as a batch job.

Each trial is one serial ``sharded_census`` of the whole dictionary
against a seeded draw of 12 sites, for every prefix length 3..12.  Trial 0
(cold string encoding + Myers pattern build) is set-up.  The traced pass
replays every trial through the public stage functions and checks the
replay counts the same permutations.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List

import numpy as np

from repro.core.estimate import StreamingCensus
from repro.core.permutation import (
    permutations_from_distances,
    prefix_permutation_codes,
)
from repro.datasets.io import iter_string_chunks, load_strings
from repro.metrics import LevenshteinDistance
from repro.metrics import bitparallel
from repro.metrics.encoding import clear_encoding_cache
from repro.parallel.census import sharded_census, streaming_census

from benchmarks.e2e import catalog
from benchmarks.e2e.common import (
    Context,
    Outcome,
    edit_distance,
    median,
    run_for,
)
from benchmarks.e2e.machine import peak_rss_mb

__all__ = ["run"]

KS = list(catalog.CENSUS_KS)
#: Prefix widths the independent oracle recounts (argsort + unique rows).
ORACLE_KS = (3, 7, 12)


def _distincts(censuses: Dict[int, StreamingCensus]) -> Dict[int, int]:
    return {k: censuses[k].distinct for k in KS}


def _check_trials(out: Outcome, n: int, trials: List[Dict[int, int]],
                  totals: List[int]) -> None:
    """Every trial: all points counted, never more permutations than
    min(n, k!) (the paper's trivial bound)."""
    for t, (distinct, total) in enumerate(zip(trials, totals), 1):
        ok = total == n and all(
            1 <= distinct[k] <= min(n, math.factorial(k)) for k in KS
        )
        if not ok:
            out.fail(f"trial {t}: census counts out of bounds: {distinct}")


def _oracle(out: Outcome, words, sites, metric, distinct: Dict[int, int],
            rng: np.random.Generator) -> None:
    """Recount trial 1 without the code engine: stable argsort of each
    site prefix, distinct rows by ``np.unique(axis=0)``; the distance
    matrix itself is spot-checked against a scalar edit distance."""
    distances = metric.to_sites(words, sites)
    rows = rng.integers(0, len(words), size=200)
    cols = rng.integers(0, len(sites), size=200)
    wrong = sum(
        int(distances[r, c]) != edit_distance(words[r], sites[c])
        for r, c in zip(rows, cols)
    )
    out.check(wrong == 0, f"{wrong} of 200 sampled site distances differ "
                          "from the scalar edit distance")
    for k in ORACLE_KS:
        perms = np.argsort(distances[:, :k], axis=1, kind="stable")
        expected = np.unique(perms, axis=0).shape[0]
        out.check(
            expected == distinct[k],
            f"trial 1, k={k}: census says {distinct[k]} distinct "
            f"permutations, np.unique oracle says {expected}",
        )


def _replay(ctx: Context, words, sites, metric) -> Dict[int, int]:
    """One trial through the public stage functions, one span per layer."""
    span = ctx.tracer.span
    with span("metrics.to_sites_db"):
        distances = metric.to_sites(words, sites)
    with span("core.permutation.argsort"):
        perms = permutations_from_distances(distances)
    with span("core.permutation.encode"):
        codes = prefix_permutation_codes(perms, KS)
    with span("parallel.census.unique_merge"):
        merged = {}
        for k, column in codes.items():
            census = StreamingCensus()
            census.update_codes(column, k, coding="prefix")
            merged[k] = StreamingCensus.merged([census])
    return _distincts(merged)


def run(ctx: Context) -> Outcome:
    out = Outcome()
    words = load_strings("words.txt")
    draws = np.load("sites.npy")
    n = len(words)
    metric = LevenshteinDistance()

    def sites_of(trial: int) -> List[str]:
        return [words[i] for i in draws[trial % len(draws)]]

    setups = []
    for _ in range(ctx.setup_reps):
        clear_encoding_cache()
        t0 = time.perf_counter()
        sharded_census(words, sites_of(0), metric, KS)
        setups.append(time.perf_counter() - t0)
    builds_before = bitparallel.build_count()

    trials: List[Dict[int, int]] = []
    totals: List[int] = []

    def trial(i: int) -> None:
        censuses, _ = sharded_census(words, sites_of(i + 1), metric, KS)
        trials.append(_distincts(censuses))
        totals.append(censuses[KS[-1]].total)

    untraced_share = 0.35 if ctx.trace else 1.0
    times = run_for(ctx.seconds * untraced_share, trial)
    rss = peak_rss_mb(os.getpid())
    builds = bitparallel.build_count() - builds_before
    out.ops(len(times))
    throughput = n * len(times) / sum(times)
    out.metrics.update({
        "setup_s": median(setups),
        "throughput_per_s": throughput,
        "latency_p50_ms": median(times) * 1e3,
        "peak_rss_mb": rss,
    })
    out.notes["trials"] = len(times)

    if ctx.trace:
        _traced(ctx, out, words, sites_of, metric, throughput,
                first_trial=len(times) + 1)
        out.metrics["metrics.myers_builds"] = builds / len(times)
        out.metrics["parallel.census.distinct_k12"] = float(
            trials[0][KS[-1]]
        )

    _check_trials(out, n, trials, totals)
    _oracle(out, words, sites_of(1), metric, trials[0],
            np.random.default_rng(ctx.seed))
    return out


def _traced(ctx: Context, out: Outcome, words, sites_of, metric,
            untraced_throughput: float, first_trial: int) -> None:
    tracer = ctx.tracer
    n = len(words)
    mismatches = []

    def traced_trial(i: int) -> None:
        sites = sites_of(first_trial + i)
        with tracer.span("trial", trace_id=first_trial + i):
            with tracer.span("real"):
                censuses, _ = sharded_census(words, sites, metric, KS)
            with tracer.span("replay"):
                replayed = _replay(ctx, words, sites, metric)
        if replayed != _distincts(censuses):
            mismatches.append(first_trial + i)

    count = len(run_for(ctx.seconds * 0.5, traced_trial))
    out.ops(count)
    if mismatches:
        out.fail(f"staged replay counted differently on trials "
                 f"{mismatches[:5]}", len(mismatches))
    totals = tracer.totals()
    per_trial_ms = {name: 1e3 * seconds / count
                    for name, seconds in totals.items()}
    staged = sum(totals[name] for name in (
        "metrics.to_sites_db", "core.permutation.argsort",
        "core.permutation.encode", "parallel.census.unique_merge"))
    out.metrics.update({
        "metrics.to_sites_db_ms": per_trial_ms["metrics.to_sites_db"],
        "core.permutation.argsort_ms":
            per_trial_ms["core.permutation.argsort"],
        "core.permutation.encode_ms":
            per_trial_ms["core.permutation.encode"],
        "parallel.census.unique_merge_ms":
            per_trial_ms["parallel.census.unique_merge"],
        "index.distperm.replay_coverage": staged / totals["real"],
        "bench.trace_overhead_share":
            (n * count / totals["real"] - untraced_throughput)
            / untraced_throughput,
    })

    # Layer probes: paths no workload gates but a census change can break.
    genes = load_strings("genes.txt")
    gene_sites = genes[:: max(1, len(genes) // catalog.N_SITES)][
        : catalog.N_SITES]
    metric.to_sites(genes, gene_sites)  # cold build is not the probe
    gene_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        metric.to_sites(genes, gene_sites)
        gene_times.append(time.perf_counter() - t0)
    out.metrics["metrics.to_sites_genes_ms"] = median(gene_times) * 1e3

    sites = sites_of(1)
    t0 = time.perf_counter()
    streamed = streaming_census(
        iter_string_chunks("words.txt", catalog.CHUNK_ROWS), sites, metric,
        KS,
    )
    elapsed = time.perf_counter() - t0
    out.metrics["datasets.io.chunk_read_mb_s"] = (
        os.path.getsize("words.txt") / 1e6 / elapsed
    )
    in_memory, _ = sharded_census(words, sites, metric, KS)
    out.check(
        _distincts(streamed) == _distincts(in_memory),
        "disk-streamed census differs from the in-memory census",
    )
