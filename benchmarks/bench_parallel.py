"""Bench: the sharded multi-core execution layer.

:class:`~repro.index.sharded.ShardedIndex` has two engines — the
in-process loop and the supervised pool of one pinned worker per shard
(``resident=True``) — and this bench compares them on
the paper's headline dictionary-Levenshtein workload and an 8-d
Euclidean control: sharded index *builds* and warm batched
fan-out/merge *queries* (exact kNN through a VP-tree, budgeted kNN
through the permutation index), in-process versus pooled over the same
shard layout, batches alternating between the two engines and every
pooled answer checked column-for-column against the in-process one (and
the exact ones against the unsharded index).  Builds are reported, not
gated: a 13 ms DistPerm build cannot amortise a process spawn.

The mergeable permutation *census* of Tables 2–3 rides a different
seam (:mod:`repro.parallel.executor`'s task pool), measured at the
tables' own scale in the one configuration where a pool can win — a
reused pool over a **pre-published** dataset, the Table 2/3 loop — with
the cold figure (pool spawn + publication inside the call) beside it.

The dictionary workload additionally records a recall-versus-budget
curve for ``knn_approx`` — unsharded versus both sharded budget splits
(per-shard proportional and global footrule), averaged over several site
draws, with the distance evaluations per query each one spends.

Results go to ``BENCH_parallel.json`` with the machine's CPU count
recorded alongside: the committed file must come from a machine with at
least two CPUs (a single core cannot show what a pool does, and CI
rejects such a file), and on such a machine the bench fails unless the
pooled batch query rate is at least the in-process one on every config.

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke    # CI sizes
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.datasets.dictionaries import synthetic_dictionary  # noqa: E402
from repro.datasets.vectors import uniform_vectors  # noqa: E402
from repro.index import (  # noqa: E402
    DistPermIndex,
    LinearScan,
    ShardedIndex,
    VPTree,
)
from repro.metrics import EuclideanDistance, LevenshteinDistance  # noqa: E402
from repro.parallel import get_executor, sharded_census  # noqa: E402

CPUS = os.cpu_count() or 1
#: Shards (= pinned workers) of the timed engine cells: one per core up
#: to four, the regime the pool is built for.
ENGINE_SHARDS = max(2, min(4, CPUS))
#: Shard layout of the recall curve and the reply-bytes check — recall
#: depends on the layout, so it stays fixed across machines (and equal
#: to ``bench_resilience.py``'s, which reads this curve).
SHARDS = 4
#: Task-pool size of the census cells.
CENSUS_WORKERS = max(2, min(4, CPUS))
#: Timed warm batches per engine (after one untimed warm-up each).
ROUNDS = 3
#: Site draws the knn_approx recall curve averages over.
RECALL_DRAWS = 4
#: Budgets for the knn_approx recall-versus-budget curve.
RECALL_BUDGETS = (100, 250, 500, 1000, 2000)
RECALL_BUDGETS_SMOKE = (25, 50, 100, 200)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _vptree_shard(points, metric):
    """Deterministic per-shard VP-tree (identical serial and pooled)."""
    return VPTree(points, metric, rng=np.random.default_rng(20080415))


def _signature(rows):
    return [[(n.index, round(n.distance, 9)) for n in row] for row in rows]


def _columns(rows):
    return (
        rows.distances.tobytes(), rows.indices.tobytes(),
        rows.offsets.tobytes(),
    )


def _bench_sharded(
    name, points, metric, queries, inner_factory, k,
    budget=None, reference=None,
):
    """Build + query one sharded configuration, in-process and pooled.

    Both indexes are built first, then warm batches alternate between
    them (this VM's timings drift between minutes, so the two engines
    are never compared across time).  Pooled columns must equal the
    in-process ones byte for byte, and ``reference`` (unsharded answers,
    by rounded signature) is checked too, so a speedup can never come
    from a wrong answer.
    """
    op = "knn" if budget is None else "knn-approx"
    serial, build_serial = _timed(lambda: ShardedIndex(
        points, metric, inner_factory, n_shards=ENGINE_SHARDS,
    ))
    pooled, build_pooled = _timed(lambda: ShardedIndex(
        points, metric, inner_factory, n_shards=ENGINE_SHARDS,
        resident=True,
    ))

    def run(index):
        if op == "knn":
            return index.knn_batch_arrays(queries, k)
        return index.knn_approx_batch_arrays(queries, k, budget=budget)

    with serial, pooled:
        answers = run(serial)
        if _columns(run(pooled)) != _columns(answers):
            raise AssertionError(
                f"{name}: pooled answers diverge from the in-process engine"
            )
        if reference is not None and _signature(answers.to_lists()) != reference:
            raise AssertionError(
                f"{name}: sharded answers diverge from the unsharded index"
            )
        times = {"serial": [], "pooled": []}
        for _ in range(ROUNDS):
            for label, index in (("serial", serial), ("pooled", pooled)):
                times[label].append(_timed(lambda: run(index))[1])
    query_serial = statistics.median(times["serial"])
    query_pooled = statistics.median(times["pooled"])
    return {
        "config": name,
        "mode": op,
        "k": k,
        "budget": budget,
        "n_queries": len(queries),
        "shards": ENGINE_SHARDS,
        "rounds": ROUNDS,
        "build_serial_s": round(build_serial, 4),
        "build_pooled_s": round(build_pooled, 4),
        "build_speedup": round(build_serial / build_pooled, 2),
        "query_serial_qps": round(len(queries) / query_serial, 1),
        "query_pooled_qps": round(len(queries) / query_pooled, 1),
        "query_pooled_qps_range": [
            round(len(queries) / max(times["pooled"]), 1),
            round(len(queries) / min(times["pooled"]), 1),
        ],
        "query_speedup": round(query_serial / query_pooled, 2),
    }


def _bench_census(points, metric, sites):
    """The mergeable census at table scale: serial, cold pool, reused pool.

    *Cold* pays the pool spawn and the dataset publication inside the
    call (what a one-off ``workers=`` census costs); *reused* is the
    Table 2/3 loop — one pool, the dataset published once, many site
    draws — and is the only configuration where the pool can win.
    Counts are checked equal on every path.
    """
    k = len(sites)
    (serial, _), _ = _timed(lambda: sharded_census(points, sites, metric))
    serial_s = statistics.median(
        _timed(lambda: sharded_census(points, sites, metric))[1]
        for _ in range(ROUNDS)
    )
    (cold, _), cold_s = _timed(lambda: sharded_census(
        points, sites, metric, workers=CENSUS_WORKERS,
    ))
    with get_executor(CENSUS_WORKERS) as executor, \
            executor.share(points) as dataset:

        def reused_census():
            return sharded_census(
                points, sites, metric, executor=executor, dataset=dataset,
            )

        (reused, _), _ = _timed(reused_census)  # workers attach once
        reused_s = statistics.median(
            _timed(reused_census)[1] for _ in range(ROUNDS)
        )
    if not serial[k].distinct == cold[k].distinct == reused[k].distinct:
        raise AssertionError("pooled census diverges from serial")
    return {
        "n": len(points),
        "k": k,
        "workers": CENSUS_WORKERS,
        "distinct": serial[k].distinct,
        "census_serial_s": round(serial_s, 4),
        "census_pooled_cold_s": round(cold_s, 4),
        "census_pooled_reused_s": round(reused_s, 4),
        "census_cold_speedup": round(serial_s / cold_s, 2),
        "census_speedup": round(serial_s / reused_s, 2),
    }


def _draw_factory(draw):
    """Inner DistPerm factory of site draw ``draw``.

    Draw 0 takes the first 12 elements of each shard; every later draw
    samples 12 sites at random from a generator seeded with the draw
    number.  Called once per index, so the shards of one sharded index
    take successive samples.
    """
    if draw == 0:
        return partial(DistPermIndex, n_sites=12, site_strategy="first")
    return partial(
        DistPermIndex, n_sites=12, site_strategy="random",
        rng=np.random.default_rng(draw),
    )


def _bench_recall(points, metric, queries, exact_results, k, budgets):
    """Recall-versus-budget for ``knn_approx``: unsharded vs both splits.

    ``recall_sharded`` is the proportional split (each shard ranks its
    own candidates and keeps a size-proportional share of the budget);
    ``recall_sharded_global`` is the global footrule split
    (``budget_split="global"``), which merges the per-shard footrule
    rankings in the supervisor and allocates the budget to the globally
    best candidates.  Each recall is the mean over :data:`RECALL_DRAWS`
    site draws, because the ranking of the splits changes from draw to
    draw, and ``evals_*`` beside it is the mean distance evaluations per
    query, site distances included — the global split refines each
    shard's first ``min(budget, shard size)`` candidates, not only its
    share, to answer in one round trip.  ``per_draw`` keeps each draw's
    figures.
    Recall is measured against the exact kNN answer; shards run
    in-process (recall depends on the shard layout, not the engine).
    """
    exact_ids = [{neighbor.index for neighbor in row} for row in exact_results]
    fields = ("unsharded", "sharded", "sharded_global")

    def measure(index, budget):
        index.reset_stats()
        results = index.knn_approx_batch(queries, k, budget=budget)
        hits = [
            len({neighbor.index for neighbor in row} & ids) / max(1, len(ids))
            for row, ids in zip(results, exact_ids)
        ]
        return float(np.mean(hits)), index.stats.distances_per_query

    per_draw = {budget: [] for budget in budgets}
    for draw in range(RECALL_DRAWS):
        unsharded = _draw_factory(draw)(points, metric)
        with ShardedIndex(
            points, metric, _draw_factory(draw), n_shards=SHARDS,
            budget_split="proportional",
        ) as sharded, ShardedIndex(
            points, metric, _draw_factory(draw), n_shards=SHARDS,
            budget_split="global",
        ) as sharded_global:
            for budget in budgets:
                point = {"draw": draw}
                for field, index in zip(
                    fields, (unsharded, sharded, sharded_global)
                ):
                    recall, evals = measure(index, budget)
                    point[f"recall_{field}"] = round(recall, 4)
                    point[f"evals_{field}"] = round(evals, 1)
                per_draw[budget].append(point)

    curve = []
    for budget in budgets:
        draws = per_draw[budget]
        point = {"budget": budget}
        for field in fields:
            for key in (f"recall_{field}", f"evals_{field}"):
                mean = float(np.mean([d[key] for d in draws]))
                point[key] = round(mean, 4 if key.startswith("recall") else 1)
        point["per_draw"] = draws
        curve.append(point)
    return curve


def _bench_reply_bytes(points, metric, queries):
    """Reply bytes of the pooled engine's array IPC vs pickled lists.

    Armed on every invocation (smoke included): the columnar
    ``(distances, indices, offsets)`` replies must cost fewer wire
    bytes than pickling each shard's ``Neighbor`` lists — the reply
    format the worker runtime shipped before the columnar result
    plane.
    """
    import pickle

    with ShardedIndex(
        points, metric, LinearScan, n_shards=SHARDS, resident=True,
    ) as index:
        index.knn_batch(queries, 10)
        shipped = index.stats.reply_bytes
        baseline = sum(
            len(pickle.dumps(shard.knn_batch(queries, 10),
                             pickle.HIGHEST_PROTOCOL))
            for shard in index.shards
        )
    if not 0 < shipped < baseline:
        raise AssertionError(
            f"array replies shipped {shipped} bytes against a "
            f"pickled-Neighbor baseline of {baseline}"
        )
    return {
        "n_queries": len(queries),
        "k": 10,
        "reply_bytes_arrays": shipped,
        "reply_bytes_pickled_baseline": baseline,
        "reply_bytes_ratio": round(shipped / baseline, 4),
    }


def run_dictionary_workload(n, n_queries, census_n, rng, recall_budgets):
    """The acceptance workload: synthetic English words, Levenshtein."""
    words = synthetic_dictionary("English", n, rng=rng)
    picks = rng.choice(n, size=n_queries, replace=False)
    queries = [words[int(i)] for i in picks]
    metric = LevenshteinDistance()

    baseline = LinearScan(words, metric)
    exact_results = baseline.knn_batch(queries, 10)
    knn_ref = _signature(exact_results)

    configs = [
        _bench_sharded(
            "vptree-knn", words, metric, queries, _vptree_shard, 10,
            reference=knn_ref,
        ),
        _bench_sharded(
            "distperm-knn-approx", words, metric, queries,
            partial(DistPermIndex, n_sites=12, site_strategy="first"),
            10, budget=500,
        ),
    ]
    census_words = synthetic_dictionary("English", census_n, rng=rng)
    sites = [
        census_words[int(i)]
        for i in rng.choice(census_n, size=12, replace=False)
    ]
    return {
        "dataset": "dictionary-en",
        "metric": "levenshtein",
        "n": n,
        "configs": configs,
        "census": _bench_census(census_words, metric, sites),
        "recall_shards": SHARDS,
        "recall_draws": RECALL_DRAWS,
        "recall_curve": _bench_recall(
            words, metric, queries, exact_results, 10, recall_budgets
        ),
        "reply_bytes": _bench_reply_bytes(words, metric, queries),
    }


def run_vector_workload(n, n_queries, census_n, rng):
    """8-d Euclidean control: cheap metric, shipping-overhead bound."""
    points = uniform_vectors(n, 8, rng)
    queries = points[rng.choice(n, size=n_queries, replace=False)]
    metric = EuclideanDistance()

    baseline = LinearScan(points, metric)
    knn_ref = _signature(baseline.knn_batch(queries, 10))

    configs = [
        _bench_sharded(
            "vptree-knn", points, metric, queries, _vptree_shard, 10,
            reference=knn_ref,
        ),
        _bench_sharded(
            "distperm-knn-approx", points, metric, queries,
            partial(DistPermIndex, n_sites=12, site_strategy="first"),
            10, budget=2000,
        ),
    ]
    census_points = uniform_vectors(census_n, 8, rng)
    sites = census_points[rng.choice(census_n, size=8, replace=False)]
    return {
        "dataset": "uniform-8d",
        "metric": "l2",
        "n": n,
        "configs": configs,
        "census": _bench_census(census_points, metric, sites),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Sharded multi-core execution layer benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: exercises pooled builds, fan-out "
        "queries, and census merging end to end, skips the speedup "
        "guard, writes no JSON unless --output is given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"result JSON path (default: {REPO_ROOT / 'BENCH_parallel.json'})",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(20080415)
    # Warm the fork server once so per-workload timings measure work,
    # not its first start.
    with get_executor(CENSUS_WORKERS) as executor:
        executor.map(len, [((),)])
    if args.smoke:
        workloads = [
            run_dictionary_workload(400, 40, 2_000, rng,
                                    RECALL_BUDGETS_SMOKE),
            run_vector_workload(2_000, 100, 5_000, rng),
        ]
    else:
        workloads = [
            run_dictionary_workload(10_000, 500, 200_000, rng,
                                    RECALL_BUDGETS),
            run_vector_workload(50_000, 1_000, 1_000_000, rng),
        ]

    # Any acceptance floor this run does NOT assert is declared here,
    # recorded in the JSON, and annotated in the CI log — a skipped
    # guard must never look like a passed one.
    guard = "pooled batch query rate >= in-process on every config"
    guards_skipped = []
    if args.smoke:
        guards_skipped.append({
            "guard": guard,
            "reason": "--smoke sizes exercise the machinery end to end "
                      "but are too small to claim a speedup",
        })
    elif CPUS < 2:
        guards_skipped.append({
            "guard": guard,
            "reason": "1 CPU available; a pool cannot beat the in-process "
                      "loop on one core (do not commit this run)",
        })

    report = {
        "bench": "bench_parallel",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "guards_skipped": guards_skipped,
        "workloads": workloads,
    }
    output = args.output
    if output is None and not args.smoke:
        output = REPO_ROOT / "BENCH_parallel.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    slower = []
    for workload in workloads:
        for config in workload["configs"]:
            print(
                f"{workload['dataset']}/{config['config']} "
                f"({config['shards']} shards): "
                f"build {config['build_serial_s']}s in-process vs "
                f"{config['build_pooled_s']}s pooled, "
                f"query {config['query_speedup']}x "
                f"({config['query_serial_qps']} -> "
                f"{config['query_pooled_qps']} q/s)"
            )
            if config["query_speedup"] < 1.0:
                slower.append(f"{workload['dataset']}/{config['config']}")
        census = workload["census"]
        print(
            f"{workload['dataset']}/census n={census['n']}: reused pool "
            f"{census['census_speedup']}x, cold pool "
            f"{census['census_cold_speedup']}x "
            f"({census['distinct']} distinct)"
        )
        reply = workload.get("reply_bytes")
        if reply is not None:
            print(
                f"{workload['dataset']}/reply-bytes: arrays "
                f"{reply['reply_bytes_arrays']} < pickled baseline "
                f"{reply['reply_bytes_pickled_baseline']} "
                f"({reply['reply_bytes_ratio']}x)"
            )
        for point in workload.get("recall_curve", ()):
            print(
                f"{workload['dataset']}/recall@budget={point['budget']} "
                f"(mean of {RECALL_DRAWS} site draws, evals/query): "
                f"unsharded {point['recall_unsharded']} "
                f"({point['evals_unsharded']}), "
                f"proportional {point['recall_sharded']} "
                f"({point['evals_sharded']}), "
                f"global split {point['recall_sharded_global']} "
                f"({point['evals_sharded_global']})"
            )

    if not guards_skipped:
        if slower:
            print(
                f"FAIL: pooled batch query rate below in-process on "
                f"{', '.join(slower)} ({CPUS} CPUs)"
            )
            return 1
        print(f"OK: {guard} ({CPUS} CPUs)")
    for skipped in guards_skipped:
        # The ::notice form surfaces as a GitHub Actions annotation, so
        # a skipped floor is visible on the workflow summary, not just
        # buried in a step's stdout.
        print(f"GUARD SKIPPED: {skipped['guard']} ({skipped['reason']})")
        print(
            "::notice file=benchmarks/bench_parallel.py::"
            f"guard skipped: {skipped['guard']} — {skipped['reason']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
