"""Bench: vectorized discrete-metric kernels versus the scalar loop.

Measures the string-metric hot paths the paper's Tables 2–3 run on —
site-distance matrices (``to_sites``), full index builds, the permutation
census, and budgeted batched kNN — on a dictionary analogue (English,
n=10k, k=12 sites: the acceptance workload) and a gene-sequence analogue,
comparing the encoded batched kernels against the scalar double loop and
recording the numbers in ``BENCH_metrics.json`` as the start of the
metric-kernel perf trajectory.

Each row also carries a kernel ablation: the same ``to_sites`` matrix
computed by the Wagner–Fischer fallback (called directly) and by the
Myers bit-parallel dispatch (warm encodings, so the ablation isolates
kernel compute), plus the loop side the Myers plan picks.  The headline
``to_sites_vectorized_s`` is the *minimum over several cold runs* — every
rep clears the encoding cache, so each one is a genuine cold call
(encode + layout build + kernel) and the minimum denoises the timing.

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_metrics.py            # full
    PYTHONPATH=src python benchmarks/bench_metrics.py --smoke    # CI sizes

A ``refine_pairs`` row times the refine step of a budgeted string query
on its own: 250 dictionary candidates per query for chunks of 1 and 8
queries, one ``grouped_distances`` call (the pairwise lock-step Myers
driver over the resident database encoding) against one
``batch_distances`` call per query over its gathered candidate strings.
Both must return the same distances.

The full run asserts the ≥20x ``to_sites`` speedup over the scalar loop
on the dictionary workload and the ≥5x Myers speedup over the committed
Wagner–Fischer baselines on both workloads, exiting nonzero if a kernel
regression loses either.  Smoke mode asserts Myers beats Wagner–Fischer
outright.  Both modes assert the pair driver beats the per-query route
at 8 queries (the always-armed CI guards).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.estimate import StreamingCensus  # noqa: E402
from repro.datasets.dictionaries import synthetic_dictionary  # noqa: E402
from repro.datasets.sequences import genome_prefix_sequences  # noqa: E402
from repro.index import DistPermIndex  # noqa: E402
from repro.index.batching import take_points  # noqa: E402
from repro.metrics import LevenshteinDistance  # noqa: E402
from repro.metrics.base import Metric  # noqa: E402
from repro.metrics.encoding import (  # noqa: E402
    _myers_plan,
    _wf_matrix_into,
    clear_encoding_cache,
    levenshtein_matrix,
)

#: Acceptance floor for the dictionary ``to_sites`` speedup (full mode).
REQUIRED_SPEEDUP = 20.0

#: The committed Wagner–Fischer ``to_sites`` rows this PR's Myers kernel
#: is measured against (PR 5's BENCH_metrics.json), and the acceptance
#: floor over them (full mode, both workloads).
WF_BASELINE_S = {"dictionary-en": 0.0418, "gene-sequences": 0.9927}
REQUIRED_KERNEL_SPEEDUP = 5.0

#: Cold ``to_sites`` repetitions; the minimum is reported.
COLD_REPS = 5

#: The ``refine_pairs`` row: candidates per query (a served
#: ``knn_approx`` shard's share of budget 500), query-chunk sizes, and
#: alternating repetitions per route.
REFINE_CANDIDATES = 250
REFINE_QUERIES = (1, 8)
REFINE_REPS = 31


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _scalar_to_sites_seconds(metric, points, sites, sample_size):
    """Extrapolate the scalar double loop from a point subsample.

    Per-point cost is flat across the database, so timing ``sample_size``
    points and scaling by ``n / sample_size`` is faithful — and keeps the
    bench from spending minutes inside the loop being replaced.
    """
    sample = points[:sample_size]
    reference, elapsed = _timed(lambda: Metric.matrix(metric, sample, sites))
    return reference, elapsed * len(points) / len(sample)


def run_workload(name, points, n_sites, n_queries, budget, sample_size, rng):
    metric = LevenshteinDistance()
    site_indices = rng.choice(len(points), size=n_sites, replace=False)
    sites = [points[int(i)] for i in site_indices]

    # Cold vectorized to_sites: includes the one-time dataset encoding
    # and layout build.  Every rep clears the cache, so each is a genuine
    # cold run; the minimum denoises the measurement.
    vectorized, t_vectorized = None, float("inf")
    for _ in range(COLD_REPS):
        clear_encoding_cache()
        vectorized, t_rep = _timed(lambda: metric.to_sites(points, sites))
        t_vectorized = min(t_vectorized, t_rep)
    reference, t_scalar = _scalar_to_sites_seconds(
        metric, points, sites, sample_size
    )
    if not np.array_equal(reference, vectorized[: len(reference)]):
        raise AssertionError(f"{name}: kernel disagrees with scalar loop")
    speedup = t_scalar / t_vectorized

    # Kernel ablation on warm encodings: the Wagner–Fischer fallback
    # called directly against the Myers dispatch, isolating kernel
    # compute from encoding.
    enc_points = metric.encode(points)
    enc_sites = metric.encode(sites)
    plan_kernel = "myers"
    plan_side, _ = _myers_plan(enc_points, enc_sites, bounded=False)
    wf_matrix = np.empty((len(points), len(sites)), dtype=np.int64)
    _, t_wf = _timed(
        lambda: _wf_matrix_into(enc_points, enc_sites, wf_matrix)
    )
    myers_matrix, t_myers = _timed(
        lambda: levenshtein_matrix(enc_points, enc_sites)
    )
    if not np.array_equal(wf_matrix, myers_matrix):
        raise AssertionError(f"{name}: Myers disagrees with Wagner–Fischer")
    kernel_speedup = t_wf / t_myers

    # Full index build through the unchanged call sites (warm encoding).
    index, t_build = _timed(
        lambda: DistPermIndex(
            points,
            LevenshteinDistance(),
            site_indices=[int(i) for i in site_indices],
        )
    )

    # The paper's census, streamed in batches over the same sites.
    def census_run():
        census = StreamingCensus()
        for start in range(0, len(points), 2048):
            census.update_points(
                points[start : start + 2048], sites, metric
            )
        return census

    census, t_census = _timed(census_run)
    assert census.distinct == index.unique_permutations()

    # Budgeted batched kNN straight through the batch query engine.
    queries = [
        points[int(i)]
        for i in rng.choice(len(points), size=n_queries, replace=False)
    ]
    _, t_knn = _timed(
        lambda: index.knn_approx_batch(queries, 10, budget=budget)
    )

    result = {
        "dataset": name,
        "n": len(points),
        "k": n_sites,
        "mean_length": round(float(np.mean([len(p) for p in points])), 2),
        "to_sites_scalar_s": round(t_scalar, 4),
        "to_sites_scalar_sample": sample_size,
        "to_sites_vectorized_s": round(t_vectorized, 4),
        "to_sites_cold_reps": COLD_REPS,
        "to_sites_speedup": round(speedup, 1),
        "kernel": plan_kernel,
        "kernel_loop_side": plan_side,
        "to_sites_wf_s": round(t_wf, 4),
        "to_sites_myers_s": round(t_myers, 4),
        "kernel_speedup": round(kernel_speedup, 1),
        "index_build_s": round(t_build, 4),
        "census_distinct": census.distinct,
        "census_s": round(t_census, 4),
        "knn_approx_queries": n_queries,
        "knn_approx_budget": budget,
        "knn_approx_qps": round(n_queries / t_knn, 1),
    }
    print(
        f"{name}: to_sites {t_scalar * 1e3:8.1f} ms scalar -> "
        f"{t_vectorized * 1e3:7.1f} ms vectorized ({speedup:.1f}x), "
        f"build {t_build * 1e3:.1f} ms, census {census.distinct} distinct "
        f"in {t_census * 1e3:.1f} ms, knn_approx {result['knn_approx_qps']} q/s"
    )
    print(
        f"{name}: kernel ablation wf {t_wf * 1e3:.1f} ms vs myers "
        f"{t_myers * 1e3:.1f} ms ({kernel_speedup:.1f}x), plan picks "
        f"{plan_kernel}/{plan_side}"
    )
    return result


def refine_pairs(points, rng, n_candidates=REFINE_CANDIDATES):
    """The refine step on its own: pair driver vs the per-query route.

    Each query brings ``n_candidates`` random database ids, as a budgeted
    ``knn_approx`` refine does.  The pair route is the one
    ``grouped_distances`` call the index makes per query chunk, reading
    candidates from the database encoding it holds resident; the
    per-query route is what refine ran before — one ``batch_distances``
    call per query over its gathered candidate strings, which re-encodes
    them and pushes them through the encoding cache.  Every repetition
    draws fresh queries and candidates, as a server sees them (a repeated
    candidate list would hit the encoding cache and time a warm path no
    served query takes); both routes score the same draw, in alternating
    order, and must agree.  The median of each route is kept.
    """
    metric = LevenshteinDistance()
    resident = metric.encode(points)
    rows = {}
    for n_queries in REFINE_QUERIES:
        offsets = np.arange(n_queries + 1) * n_candidates
        times = {"pair": [], "looped": []}
        for rep in range(REFINE_REPS):
            # Fresh words, as served queries are: not in the database.
            queries = [
                points[int(i)] + "e"
                for i in rng.choice(len(points), n_queries, replace=False)
            ]
            ids = np.concatenate(
                [
                    rng.choice(len(points), n_candidates, replace=False)
                    for _ in queries
                ]
            )
            routes = {
                "pair": lambda: metric.grouped_distances(
                    queries, resident, ids, offsets
                ),
                "looped": lambda: np.concatenate(
                    [
                        metric.batch_distances(
                            [q], take_points(points, ids[a:b])
                        )[0]
                        for q, a, b in zip(
                            queries, offsets[:-1], offsets[1:]
                        )
                    ]
                ),
            }
            order = ("pair", "looped") if rep % 2 else ("looped", "pair")
            results = {}
            for name in order:
                results[name], elapsed = _timed(routes[name])
                times[name].append(elapsed)
            if not np.array_equal(results["pair"], results["looped"]):
                raise AssertionError(
                    "pair driver disagrees with batch_distances"
                )
        t_pair = float(np.median(times["pair"]))
        t_looped = float(np.median(times["looped"]))
        row = rows[str(n_queries)] = {
            "pair_us_per_query": round(t_pair / n_queries * 1e6, 1),
            "looped_us_per_query": round(t_looped / n_queries * 1e6, 1),
            "speedup": round(t_looped / t_pair, 2),
        }
        print(
            f"refine_pairs: {n_queries} x {n_candidates} candidates: "
            f"{row['looped_us_per_query']} -> {row['pair_us_per_query']} "
            f"us/query ({row['speedup']}x)"
        )
    return {
        "dataset": "dictionary-en",
        "n": len(points),
        "candidates": n_candidates,
        "reps": REFINE_REPS,
        "by_queries": rows,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: exercises every kernel, skips the "
        "speedup assertion, writes no JSON unless --output is given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"result JSON path (default: {REPO_ROOT / 'BENCH_metrics.json'})",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(20080415)  # the paper's conference date
    if args.smoke:
        dictionary = synthetic_dictionary("English", 300, rng)
        genes = genome_prefix_sequences(200, rng=rng)
        workloads = [
            run_workload("dictionary-en", dictionary, 4, 10, 50, 100, rng),
            run_workload("gene-sequences", genes, 4, 10, 50, 50, rng),
        ]
    else:
        dictionary = synthetic_dictionary("English", 10_000, rng)
        genes = genome_prefix_sequences(5_000, rng=rng)
        workloads = [
            run_workload("dictionary-en", dictionary, 12, 200, 500, 500, rng),
            run_workload("gene-sequences", genes, 12, 100, 500, 100, rng),
        ]
    refine = refine_pairs(dictionary, rng)

    report = {
        "bench": "bench_metrics",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "workloads": workloads,
        "refine_pairs": refine,
    }
    output = args.output
    if output is None and not args.smoke:
        output = REPO_ROOT / "BENCH_metrics.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    # Always-armed guard: one pair-driver call per 8-query chunk must
    # beat eight per-query batch_distances calls.
    refine_speedup = refine["by_queries"]["8"]["speedup"]
    if refine_speedup <= 1.0:
        print(
            f"FAIL: refine_pairs at 8 queries: pair driver is "
            f"{refine_speedup}x the per-query route, need > 1"
        )
        return 1
    print(f"OK: refine_pairs at 8 queries {refine_speedup}x > 1")

    if args.smoke:
        # Always-armed guard: the Myers kernel must beat Wagner–Fischer
        # outright even at smoke sizes.
        failed = False
        for row in workloads:
            if row["to_sites_myers_s"] >= row["to_sites_wf_s"]:
                print(
                    f"FAIL: {row['dataset']}: myers "
                    f"{row['to_sites_myers_s'] * 1e3:.1f} ms is not faster "
                    f"than wagner-fischer {row['to_sites_wf_s'] * 1e3:.1f} ms"
                )
                failed = True
        if failed:
            return 1
        print("OK: myers beats wagner-fischer on both smoke workloads")
        return 0

    dict_speedup = workloads[0]["to_sites_speedup"]
    if dict_speedup < REQUIRED_SPEEDUP:
        print(
            f"FAIL: dictionary to_sites speedup {dict_speedup:.1f}x "
            f"< required {REQUIRED_SPEEDUP}x"
        )
        return 1
    print(
        f"OK: dictionary to_sites speedup {dict_speedup:.1f}x "
        f">= {REQUIRED_SPEEDUP}x"
    )
    failed = False
    for row in workloads:
        baseline = WF_BASELINE_S[row["dataset"]]
        gain = baseline / row["to_sites_vectorized_s"]
        if gain < REQUIRED_KERNEL_SPEEDUP:
            print(
                f"FAIL: {row['dataset']}: cold to_sites "
                f"{row['to_sites_vectorized_s'] * 1e3:.1f} ms is only "
                f"{gain:.1f}x over the committed Wagner–Fischer row "
                f"({baseline * 1e3:.1f} ms), need "
                f"{REQUIRED_KERNEL_SPEEDUP}x"
            )
            failed = True
        else:
            print(
                f"OK: {row['dataset']}: {gain:.1f}x over the committed "
                f"Wagner–Fischer row >= {REQUIRED_KERNEL_SPEEDUP}x"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
