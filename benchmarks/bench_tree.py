"""Bench: trees, twice over.

**Pytest benchmarks** (Theorem 4 / Corollary 5 / Figure 5 — tree metrics):

- random trees never exceed ``C(k,2) + 1`` distance permutations;
- the Corollary 5 path construction achieves the bound exactly for every k;
- the prefix metric (Fig 5) is a tree metric realizing the same bound on
  string data.

**Standalone tree-index benchmark** (run directly): build and
batched-query throughput of the VP-tree, the one tree *index*, on its
array-backed substrate, versus looping the single-query API — the
paper's classic baseline on the dictionary Levenshtein workload and an
8-d Euclidean workload.  The VP-tree has one traversal (a single query
is a batch of one row), so the looped column measures what one call
amortises over a batch.  Results go to ``BENCH_trees.json``; the full
run asserts that one batch call is never slower than the loop, and that
the looped single-query throughput, as a multiple of ``LinearScan``'s
scalar kNN loop timed in the same run (``*_looped_over_linear``), has not
fallen below what the deleted scalar traversal reached
(``*_looped_over_linear_parent``) — reported but not enforced on the
radius-1 dictionary range cell, where the scalar traversal was at parity
(``SCALAR_AT_PARITY``).

    PYTHONPATH=src python benchmarks/bench_tree.py            # full
    PYTHONPATH=src python benchmarks/bench_tree.py --smoke    # CI sizes
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
from conftest import write_result  # noqa: E402

from repro.core.constructions import corollary5_path_space  # noqa: E402
from repro.core.counting import tree_permutation_bound  # noqa: E402
from repro.core.permutation import (  # noqa: E402
    count_distinct_permutations,
    distance_permutations,
)
from repro.datasets.dictionaries import synthetic_dictionary  # noqa: E402
from repro.index import LinearScan, VPTree  # noqa: E402
from repro.metrics import (  # noqa: E402
    EuclideanDistance,
    LevenshteinDistance,
    PrefixDistance,
    random_tree_metric,
)


def test_corollary5_achieves_bound_for_all_k(benchmark, results_dir):
    def run():
        achieved = {}
        for k in range(2, 11):
            metric, sites = corollary5_path_space(k)
            perms = distance_permutations(metric.vertices, sites, metric)
            achieved[k] = count_distinct_permutations(perms)
        return achieved

    achieved = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Corollary 5 path construction: k, C(k,2)+1, achieved"]
    for k, count in achieved.items():
        bound = tree_permutation_bound(k)
        assert count == bound, (k, count, bound)
        lines.append(f"  k={k:>2}  bound={bound:>3}  achieved={count:>3}")
    write_result(results_dir, "tree_corollary5", "\n".join(lines))


def test_random_trees_respect_theorem4(benchmark):
    def run():
        rng = np.random.default_rng(5)
        worst_ratio = 0.0
        for trial in range(20):
            n = int(rng.integers(50, 400))
            tree = random_tree_metric(n, rng=rng, weighted=bool(trial % 2))
            k = int(rng.integers(2, 8))
            sites = [int(i) for i in rng.choice(n, size=k, replace=False)]
            perms = distance_permutations(tree.vertices, sites, tree)
            count = count_distinct_permutations(perms)
            bound = tree_permutation_bound(k)
            assert count <= bound
            worst_ratio = max(worst_ratio, count / bound)
        return worst_ratio

    worst = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0 < worst <= 1.0


def test_prefix_metric_achieves_bound(benchmark, results_dir):
    """Fig 5's prefix metric: binary-counter strings embed the Corollary 5
    path, so the bound is achieved on actual string data."""

    def run():
        k = 6
        # Strings "", "a", "aa", ... embed a path of 2^(k-1) equal edges.
        path_strings = ["a" * i for i in range(2 ** (k - 1) + 1)]
        site_labels = [0] + [2**i for i in range(1, k)]
        sites = [path_strings[label] for label in site_labels]
        perms = distance_permutations(path_strings, sites, PrefixDistance())
        return k, count_distinct_permutations(perms)

    k, count = benchmark.pedantic(run, rounds=1, iterations=1)
    assert count == tree_permutation_bound(k)
    write_result(
        results_dir,
        "tree_prefix_metric",
        f"prefix metric, k={k} sites on an 'aaaa...' path: "
        f"{count} permutations = C({k},2)+1 = {tree_permutation_bound(k)}",
    )


# ----------------------------------------------------------------------
# Standalone tree-index benchmark (python benchmarks/bench_tree.py).
# ----------------------------------------------------------------------

#: Looped single-query q/s (range, kNN) of the scalar traversal the
#: VP-tree had until a single query became a batch of one (commit
#: 6ad1b35), each divided by the q/s of ``LinearScan``'s scalar kNN loop
#: (one ``metric.distance`` call per point) on the same data in the same
#: run.  Both loops run on the box at hand, so the ratio, unlike an
#: absolute q/s, travels between machines.  Recorded at that commit on a
#: 2-vCPU x86-64 box (median of three runs).  The full run fails when
#: today's looped q/s over the same-run ``LinearScan`` loop falls below
#: them: deleting that traversal must not cost single-query throughput.
PARENT_LOOPED_OVER_LINEAR = {
    ("dictionary-levenshtein", "vptree"): (3.05, 0.89),
    ("euclidean-8d", "vptree"): (1.52, 1.37),
}

#: Cells where that comparison is reported but not enforced, because the
#: scalar traversal was at parity there when it was deleted (commit
#: 6ad1b35, 100 queries, scalar time / batch-of-one time: 1.02).  A
#: radius-1 dictionary query meets ~50 strings per level, and the string
#: kernels' per-call set-up cancels what vectorising so few saves.  The
#: traversal went anyway: every other cell, and this one at radius >= 2,
#: is 1.5-10x faster as a batch of one.
SCALAR_AT_PARITY = {
    ("dictionary-levenshtein", "vptree", "range"),
}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _looped_seconds(run_one, queries, sample_size):
    """Time the single-query loop on a subsample, scaled to the full set.

    Per-query cost is flat across a homogeneous query sample, so timing
    ``sample_size`` queries and scaling is faithful while keeping the
    loop being replaced from dominating the bench's wall clock.
    """
    sample = queries[: min(sample_size, len(queries))]
    _, elapsed = _timed(lambda: [run_one(q) for q in sample])
    return elapsed * len(queries) / len(sample)


def _bench_index(name, factory, queries, radius, k, loop_sample, parent,
                 linear):
    """One cell; ``linear`` is the same-run ``LinearScan`` reference."""
    index, t_build = _timed(factory)

    index.reset_stats()
    batched_range, t_range_batch = _timed(
        lambda: index.range_batch(queries, radius)
    )
    range_distances = index.stats.query_distances
    _, t_knn_batch = _timed(lambda: index.knn_batch(queries, k))

    t_range_loop = _looped_seconds(
        lambda q: index.range_query(q, radius), queries, loop_sample
    )
    t_knn_loop = _looped_seconds(
        lambda q: index.knn_query(q, k), queries, loop_sample
    )
    t_linear = _looped_seconds(
        lambda q: linear.knn_query(q, k), queries, max(2, loop_sample // 4)
    )

    n_queries = len(queries)
    result = {
        "index": name,
        "build_s": round(t_build, 4),
        "build_distances": index.stats.build_distances,
        "range_radius": radius,
        "range_hits": sum(len(r) for r in batched_range),
        "range_distances_per_query": round(range_distances / n_queries, 1),
        "range_batched_qps": round(n_queries / t_range_batch, 1),
        "range_looped_qps": round(n_queries / t_range_loop, 1),
        "range_speedup": round(t_range_loop / t_range_batch, 1),
        "knn_k": k,
        "knn_batched_qps": round(n_queries / t_knn_batch, 1),
        "knn_looped_qps": round(n_queries / t_knn_loop, 1),
        "knn_speedup": round(t_knn_loop / t_knn_batch, 1),
        "linear_scalar_knn_qps": round(n_queries / t_linear, 2),
        "range_looped_over_linear": round(t_linear / t_range_loop, 3),
        "knn_looped_over_linear": round(t_linear / t_knn_loop, 3),
        "range_looped_over_linear_parent": parent[0],
        "knn_looped_over_linear_parent": parent[1],
    }
    print(
        f"  {name:12s} build {t_build * 1e3:8.1f} ms | "
        f"range {result['range_looped_qps']:8.1f} -> "
        f"{result['range_batched_qps']:8.1f} q/s "
        f"({result['range_speedup']:5.1f}x) | "
        f"knn {result['knn_looped_qps']:8.1f} -> "
        f"{result['knn_batched_qps']:8.1f} q/s "
        f"({result['knn_speedup']:5.1f}x)"
    )
    return result


def run_dictionary_workload(n, n_queries, loop_sample, rng):
    """The paper's Table 2 regime: a dictionary under edit distance."""
    words = synthetic_dictionary("English", n, rng)
    queries = [
        words[int(i)]
        for i in rng.choice(len(words), size=n_queries, replace=False)
    ]
    print(f"dictionary-levenshtein: n={len(words)}, {n_queries} queries")
    row = _bench_index(
        "vptree",
        lambda: VPTree(
            words, LevenshteinDistance(), rng=np.random.default_rng(1)
        ),
        queries, 1, 10, loop_sample,
        PARENT_LOOPED_OVER_LINEAR[("dictionary-levenshtein", "vptree")],
        LinearScan(words, LevenshteinDistance()),
    )
    return {"dataset": "dictionary-levenshtein", "n": n, "indexes": [row]}


def run_euclidean_workload(n, n_queries, loop_sample, rng):
    """An 8-d uniform vector workload under L2."""
    points = rng.random((n, 8))
    queries = rng.random((n_queries, 8))
    print(f"euclidean-8d: n={n}, {n_queries} queries")
    row = _bench_index(
        "vptree",
        lambda: VPTree(
            points, EuclideanDistance(), rng=np.random.default_rng(4)
        ),
        queries, 0.45, 10, loop_sample,
        PARENT_LOOPED_OVER_LINEAR[("euclidean-8d", "vptree")],
        LinearScan(points, EuclideanDistance()),
    )
    return {"dataset": "euclidean-8d", "n": n, "indexes": [row]}


def _guard_failures(workloads):
    """Rows of a full run that break what the bench guards."""
    failures = []
    for workload in workloads:
        for row in workload["indexes"]:
            cell = f"{workload['dataset']} {row['index']}"
            for op in ("range", "knn"):
                looped = row[f"{op}_looped_qps"]
                if row[f"{op}_batched_qps"] < looped:
                    failures.append(
                        f"{cell} {op}: one batch call "
                        f"{row[f'{op}_batched_qps']} q/s < looped {looped}"
                    )
                ratio = row[f"{op}_looped_over_linear"]
                parent = row[f"{op}_looped_over_linear_parent"]
                verdict = (
                    f"{cell} {op}: looped {looped} q/s = {ratio}x the "
                    f"LinearScan loop, parent {parent}x"
                )
                if (workload["dataset"], row["index"], op) in SCALAR_AT_PARITY:
                    print(f"  not enforced (scalar was at parity): {verdict}")
                elif ratio < parent:
                    failures.append(verdict)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Tree-index substrate benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: exercises the VP-tree's batched build "
        "and query paths, skips the throughput guards, writes no JSON "
        "unless --output is given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"result JSON path (default: {REPO_ROOT / 'BENCH_trees.json'})",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(20080415)  # the paper's conference date
    if args.smoke:
        workloads = [
            run_dictionary_workload(300, 20, 10, rng),
            run_euclidean_workload(300, 20, 10, rng),
        ]
    else:
        workloads = [
            run_dictionary_workload(5_000, 500, 40, rng),
            run_euclidean_workload(5_000, 500, 40, rng),
        ]

    report = {
        "bench": "bench_tree",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "workloads": workloads,
    }
    output = args.output
    if output is None and not args.smoke:
        output = REPO_ROOT / "BENCH_trees.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    if not args.smoke:
        failures = _guard_failures(workloads)
        if failures:
            print("FAIL:\n  " + "\n  ".join(failures))
            return 1
        print(
            "OK: one batch call >= the single-query loop on every row; "
            "VP looped q/s over the same-run LinearScan loop >= the "
            "deleted scalar traversal's on every enforced cell"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
