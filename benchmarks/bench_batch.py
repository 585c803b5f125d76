"""Bench: the batch query surface versus the single-query surface.

**Pytest benchmarks**: the same workload (same answers, same
distance-evaluation counts) through ``*_batch`` and through a loop of
single-query calls.  ``LinearScan`` keeps a scalar ``metric.distance``
traversal as the test oracle, so its row measures vectorisation;
``DistPermIndex`` answers a single query as a batch of one, so its row
measures what one call amortises over a batch (one ``to_sites``, one
footrule matrix, one chunk loop) and guards that batching never loses.
The looped baselines are timed on a query subsample (their per-query
cost is flat, so queries/sec is unaffected) to keep the bench fast at
100k points.

**Standalone single-vs-batch ladder** (``--single``): the evidence for
which traversal each index keeps.  Public API only — ``knn_query(q, k)``
against ``knn_batch([q], k)`` and the range / ``knn_approx`` equivalents
— so the identical script runs at any commit.  Per index and dataset it
prints the median milliseconds of one single-query call and of one
batch-of-one call, and for the index whose batch traversal is not
simply faster (``AESA``) the total time of a single-query loop against
one batch call at growing batch sizes.  Every row asserts equal answers
and equal ``stats.query_distances`` on both surfaces.  ``IAESA`` and ``PivotIndex`` have one traversal and no twin to
compare, so they are not listed.

    PYTHONPATH=src python benchmarks/bench_batch.py --single          # full
    PYTHONPATH=src python benchmarks/bench_batch.py --single --smoke  # CI sizes
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np
from conftest import write_result

from repro.datasets.dictionaries import synthetic_dictionary
from repro.datasets.vectors import uniform_vectors
from repro.experiments.harness import run_query_workload
from repro.index import (
    AESA,
    DistPermIndex,
    LinearScan,
    VPTree,
)
from repro.metrics import EuclideanDistance, LevenshteinDistance

DIM = 8
N_QUERIES = 1000
LOOP_SAMPLE = 30


def _speedup(index, queries, **workload):
    batched = run_query_workload(index, queries, batched=True, **workload)
    looped = run_query_workload(
        index, queries[:LOOP_SAMPLE], batched=False, **workload
    )
    # Same answers either way on the overlapping prefix.
    for single, batch in zip(looped.results, batched.results):
        assert [n.index for n in batch] == [n.index for n in single]
    return batched, looped, batched.queries_per_second / looped.queries_per_second


def test_distperm_knn_approx_batch_speedup(benchmark, results_dir):
    """Approximate kNN on 10k Euclidean points: batching must not lose."""

    def run():
        rng = np.random.default_rng(31)
        points = uniform_vectors(10_000, DIM, rng)
        queries = rng.random((N_QUERIES, DIM))
        index = DistPermIndex(points, EuclideanDistance(), n_sites=16,
                              rng=np.random.default_rng(32))
        return _speedup(index, queries, kind="knn-approx", k=10, budget=500)

    batched, looped, speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert batched.distances_per_query == looped.distances_per_query
    # A single query is a batch of one, so the ratio is per-call
    # amortisation, not a second algorithm: it only has to stay >= 1.
    assert speedup >= 1.0
    lines = [
        "distperm knn_approx, n=10000, d=8, 16 sites, budget=500, k=10:",
        f"  looped batch-of-one: {looped.queries_per_second:10.1f} q/s "
        f"({looped.n_queries} queries timed)",
        f"  one batch call:      {batched.queries_per_second:10.1f} q/s "
        f"({batched.n_queries} queries)",
        f"  amortisation:        {speedup:10.1f}x",
        f"  distances/query:     {batched.distances_per_query:10.1f} "
        "(identical either way)",
    ]
    write_result(results_dir, "batch_distperm_speedup", "\n".join(lines))


def test_linear_scan_batch_speedup(benchmark, results_dir):
    """Exhaustive kNN: the distance-matrix formulation at three scales."""

    def run():
        rows = []
        for n_points in (1_000, 10_000, 100_000):
            rng = np.random.default_rng(41)
            points = uniform_vectors(n_points, DIM, rng)
            queries = rng.random((N_QUERIES, DIM))
            index = LinearScan(points, EuclideanDistance())
            batched, looped, speedup = _speedup(
                index, queries, kind="knn", k=10
            )
            rows.append((n_points, looped.queries_per_second,
                         batched.queries_per_second, speedup))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # Vectorization must win at every scale on Euclidean vectors.
    assert all(speedup > 1.0 for _, _, _, speedup in rows)
    lines = [f"linear-scan exact 10-NN, d={DIM}, {N_QUERIES} queries "
             f"(loop timed on {LOOP_SAMPLE}):"]
    for n_points, loop_qps, batch_qps, speedup in rows:
        lines.append(
            f"  n={n_points:>6}: loop {loop_qps:10.1f} q/s   "
            f"batch {batch_qps:10.1f} q/s   speedup {speedup:6.1f}x"
        )
    write_result(results_dir, "batch_linear_speedup", "\n".join(lines))


# ----------------------------------------------------------------------
# Standalone single-vs-batch ladder (python benchmarks/bench_batch.py
# --single).
# ----------------------------------------------------------------------


def _same_answers(singles, batched):
    """Indices exactly; distances to float noise (the surfaces of an
    index with two traversals may compute Euclidean through different
    formulas, which moves the last ulp)."""
    if len(singles) != len(batched):
        return False
    for single, batch in zip(singles, batched):
        if [n.index for n in single] != [n.index for n in batch]:
            return False
        if not np.allclose([n.distance for n in single],
                           [n.distance for n in batch], rtol=1e-9, atol=0):
            return False
    return True


def _evals(index, call):
    """``call()``'s answer and the distance evaluations it was charged."""
    before = index.stats.query_distances
    answer = call()
    return answer, index.stats.query_distances - before


def _operations(index, k, radius, budget):
    """``name -> (single-query call, batch call)`` for one index."""
    ops = {
        "knn": (lambda q: index.knn_query(q, k),
                lambda qs: index.knn_batch(qs, k)),
        "range": (lambda q: index.range_query(q, radius),
                  lambda qs: index.range_batch(qs, radius)),
    }
    if budget is not None:
        ops["knn_approx"] = (
            lambda q: index.knn_approx(q, k, budget),
            lambda qs: index.knn_approx_batch(qs, k, budget),
        )
    return ops


def _single_vs_batch_of_one(name, index, queries, k, radius, budget):
    """Median ms of one single-query call and of one batch-of-one call."""
    lines = []
    for op, (single, batch) in _operations(index, k, radius, budget).items():
        single(queries[0])  # warm both surfaces
        batch(queries[:1])
        seconds = {"single": [], "batch": []}
        for i in range(len(queries)):
            calls = {
                "single": lambda: [single(queries[i])],
                "batch": lambda: batch(queries[i:i + 1]),
            }
            # Alternate which surface meets this query first, so neither
            # always pays for the other's cold metric caches.
            order = ("single", "batch") if i % 2 == 0 else ("batch", "single")
            seen = {}
            for surface in order:
                start = time.perf_counter()
                seen[surface] = _evals(index, calls[surface])
                seconds[surface].append(time.perf_counter() - start)
            (one, one_evals), (rows, row_evals) = seen["single"], seen["batch"]
            assert _same_answers(one, rows), (name, op, i, "answers differ")
            assert one_evals == row_evals, (name, op, i, one_evals, row_evals)
        single_ms = statistics.median(seconds["single"]) * 1e3
        batch_ms = statistics.median(seconds["batch"]) * 1e3
        lines.append(
            f"  {name:15s} {op:10s} single {single_ms:9.3f} ms   "
            f"batch-of-1 {batch_ms:9.3f} ms   single/batch "
            f"{single_ms / batch_ms:7.2f}x   evals(last query) {one_evals}"
        )
    return lines


def _loop_vs_batch(name, index, queries, k, radius, sizes):
    """Total ms of a single-query loop against one batch call of B rows."""
    lines = []
    for op, (single, batch) in _operations(index, k, radius, None).items():
        for size in sizes:
            rows = queries[:size]
            t0 = time.perf_counter()
            looped, loop_evals = _evals(
                index, lambda: [single(q) for q in rows])
            t1 = time.perf_counter()
            batched, batch_evals = _evals(index, lambda: batch(rows))
            t2 = time.perf_counter()
            assert _same_answers(looped, batched), (name, op, size)
            assert loop_evals == batch_evals, (name, op, size)
            lines.append(
                f"  {name:15s} {op:10s} B={len(rows):<4d} "
                f"loop {(t1 - t0) * 1e3:10.1f} ms   "
                f"batch {(t2 - t1) * 1e3:10.1f} ms   loop/batch "
                f"{(t1 - t0) / (t2 - t1):7.2f}x"
            )
    return lines


def _ladder_dataset(title, points, small, queries, metric, k, radius,
                    budget, n_timed, sizes):
    """One dataset's rows: every index, then AESA's loop-vs-batch ladder."""
    factories = {
        "DistPermIndex": lambda: DistPermIndex(
            points, metric(), n_sites=12, rng=np.random.default_rng(1)),
        "VPTree": lambda: VPTree(
            points, metric(), rng=np.random.default_rng(2)),
        "LinearScan": lambda: LinearScan(points, metric()),
        # Quadratic storage: AESA gets a sample of the database.
        "AESA": lambda: AESA(small, metric()),
    }
    lines = [
        f"{title}: n={len(points)} (AESA n={len(small)}), k={k}, "
        f"radius={radius}, knn_approx budget={budget}; median of "
        f"{n_timed} queries"
    ]
    ladders = []
    for name, factory in factories.items():
        index = factory()
        lines += _single_vs_batch_of_one(
            name, index, queries[:n_timed], k, radius,
            budget if name == "DistPermIndex" else None,
        )
        if name == "AESA":
            ladders += _loop_vs_batch(name, index, queries, k, radius, sizes)
    lines.append(f"{title}: single-query loop vs one batch call of B rows")
    return lines + ladders


def run_single_ladder(smoke):
    rng = np.random.default_rng(20080415)
    if smoke:
        n_vectors, n_words, n_small = 400, 300, (120, 100)
        n_timed, sizes, budgets = 3, (1, 8), (60, 40)
    else:
        n_vectors, n_words, n_small = 20_000, 5_000, (2_000, 1_000)
        n_timed, sizes, budgets = 40, (1, 8, 64, 256), (2_000, 500)
    n_queries = max(sizes)
    vectors = uniform_vectors(n_vectors, DIM, rng)
    # The dictionary comes back sorted; sample it so AESA and the query
    # set see the whole alphabet.
    words = synthetic_dictionary("English", n_words, rng)
    picks = rng.permutation(len(words))
    lines = _ladder_dataset(
        "uniform-8d L2", vectors, vectors[:n_small[0]],
        rng.random((n_queries, DIM)), EuclideanDistance, 10, 0.2,
        budgets[0], n_timed, sizes,
    )
    lines.append("")
    lines += _ladder_dataset(
        "dictionary Levenshtein", words,
        [words[int(i)] for i in picks[:n_small[1]]],
        [words[int(i)] for i in picks[-n_queries:]], LevenshteinDistance,
        10, 2, budgets[1], n_timed, sizes,
    )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Single-query surface vs batch surface, per index"
    )
    parser.add_argument(
        "--single", action="store_true", required=True,
        help="run the single-vs-batch ladder (the pytest benchmarks in "
        "this file run under pytest)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI: answers-equal and evals-equal guards "
        "armed, timings printed but meaningless",
    )
    args = parser.parse_args(argv)
    print("\n".join(run_single_ladder(args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
