"""Bench: crash recovery and degraded-mode recall of the worker runtime.

Measures what failure actually costs under the supervised shard-resident
worker pool (:mod:`repro.parallel.workerpool`), with every failure
*injected* deterministically (:mod:`repro.parallel.faults`) so the
numbers are reproducible:

- **Recovery time** — a pinned worker is SIGKILL'd mid-batch under
  ``on_partial="raise"``; the fan-out must return answers identical to
  the unsharded index after the transparent respawn+retry.  Reported:
  the respawn cost itself and the end-to-end overhead versus the same
  batch unharmed, asserted against a 2-second budget.
- **Degraded-mode recall** — one of ``S`` shards is killed with
  ``on_partial="degrade"`` at each point of the committed
  recall-versus-budget curve (``BENCH_parallel.json``), quantifying the
  recall a partial answer from ``S-1`` shards gives up relative to the
  full sharded index at the same budget.
- **Deadline enforcement** — a worker stalls far past the deadline; the
  degraded answer must still return in roughly deadline time, not stall
  time.

The kill-injection path is armed in *every* mode, including ``--smoke``
(CI): recovery code that only runs when something breaks is recovery
code that does not work.

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.datasets.dictionaries import synthetic_dictionary  # noqa: E402
from repro.index import DistPermIndex, LinearScan, ShardedIndex  # noqa: E402
from repro.metrics import LevenshteinDistance  # noqa: E402
from repro.parallel.faults import FaultSpec  # noqa: E402
from repro.parallel.workerpool import QueryPolicy  # noqa: E402

SHARDS = 4
K = 10
#: Hard ceiling on kill-to-recovered time (the ISSUE acceptance budget).
RECOVERY_BUDGET_S = 2.0
#: Budgets matching the committed BENCH_parallel.json recall curve.
RECALL_BUDGETS = (100, 250, 500, 1000, 2000)
RECALL_BUDGETS_SMOKE = (25, 100)
STALL_DEADLINE_S = 0.5
#: A stall far longer than the deadline: only supervision can end it.
STALL_S = 30.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _repro_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}
    except OSError:
        return set()


def _mean_recall(results, exact_ids):
    hits = [
        len({neighbor.index for neighbor in row} & ids) / max(1, len(ids))
        for row, ids in zip(results, exact_ids)
    ]
    return round(float(np.mean(hits)), 4)


def _committed_sharded_curve():
    """budget -> recall_sharded from the committed BENCH_parallel.json."""
    path = REPO_ROOT / "BENCH_parallel.json"
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    for workload in report.get("workloads", ()):
        if workload.get("dataset") == "dictionary-en":
            return {
                point["budget"]: point["recall_sharded"]
                for point in workload.get("recall_curve", ())
            }
    return {}


def bench_recovery(words, metric, queries, expected):
    """SIGKILL one pinned worker mid-batch; answers must come back whole."""
    # Unharmed resident pass: the overhead baseline.
    with ShardedIndex(
        words, metric, LinearScan, n_shards=SHARDS, resident=True,
        policy=QueryPolicy(retries=1),
    ) as index:
        plain, _ = _timed(lambda: index.knn_batch(queries, K))  # pool warmup
        if plain != expected:
            raise AssertionError("resident answers diverge before any fault")
        plain, plain_s = _timed(lambda: index.knn_batch(queries, K))
    # Killed pass: warm the pool on request 1, SIGKILL shard 1 on the
    # timed request 2 — so the overhead is recovery, not pool spawn.
    with ShardedIndex(
        words, metric, LinearScan, n_shards=SHARDS, resident=True,
        policy=QueryPolicy(retries=1),
        faults=[FaultSpec("kill", shard=1, request=2)],
    ) as index:
        index.knn_batch(queries[:1], K)
        killed, killed_s = _timed(lambda: index.knn_batch(queries, K))
        pool = index._worker_pool
        respawns = pool.respawns
        respawn_s = pool.last_respawn_s
    if killed != expected:
        raise AssertionError(
            "answers after kill+respawn+retry diverge from the "
            "unsharded index"
        )
    if respawns != 1:
        raise AssertionError(f"expected exactly one respawn, saw {respawns}")
    overhead_s = max(0.0, killed_s - plain_s)
    if overhead_s > RECOVERY_BUDGET_S:
        raise AssertionError(
            f"recovery overhead {overhead_s:.2f}s exceeds the "
            f"{RECOVERY_BUDGET_S}s budget"
        )
    return {
        "n_queries": len(queries),
        "answers_identical": True,
        "plain_query_s": round(plain_s, 4),
        "killed_query_s": round(killed_s, 4),
        "recovery_overhead_s": round(overhead_s, 4),
        "respawn_s": round(respawn_s, 4),
        "budget_s": RECOVERY_BUDGET_S,
    }


def bench_degraded_recall(words, metric, queries, exact_ids, budgets, smoke):
    """Recall of S-1-shard degraded answers along the budget curve.

    Runs under the default (global footrule) budget split, where the
    killed shard's budget share is redistributed to the survivors by
    the merged ranking; ``committed_recall_sharded`` carries the
    committed *proportional*-split full-shard recall from
    ``BENCH_parallel.json`` for comparison across PRs.  A batch is one
    fan-out, so one request per worker: generation ``g`` of shard 0 dies
    on its first request, budget point ``g``'s batch, which leaves the
    shard out of that batch's allocation and burns exactly one worker
    generation per budget point.
    """
    inner = partial(DistPermIndex, n_sites=12, site_strategy="first")
    # The committed curve was measured at full size; comparing smoke's
    # tiny dataset against it would just mislead.
    committed = {} if smoke else _committed_sharded_curve()
    # One generation-g kill per budget point, on the generation's first
    # request: every batch (one fan-out) loses shard 0, freshly respawned
    # between batches.
    faults = [
        FaultSpec("kill", shard=0, request=1, generation=g)
        for g in range(len(budgets))
    ]
    curve = []
    with ShardedIndex(
        words, metric, inner, n_shards=SHARDS, resident=True,
        policy=QueryPolicy(retries=0, on_partial="degrade"),
    ) as full:
        with ShardedIndex(
            words, metric, inner, n_shards=SHARDS, resident=True,
            policy=QueryPolicy(retries=0, on_partial="degrade"),
            faults=faults,
        ) as degraded:
            for budget in budgets:
                recall_full = _mean_recall(
                    full.knn_approx_batch(queries, K, budget=budget),
                    exact_ids,
                )
                if full.stats.degraded:
                    raise AssertionError(
                        "un-faulted resident index reported degradation"
                    )
                answers = degraded.knn_approx_batch(
                    queries, K, budget=budget
                )
                if degraded.stats.shards_answered != SHARDS - 1:
                    raise AssertionError(
                        f"degraded pass answered from "
                        f"{degraded.stats.shards_answered} shards, "
                        f"expected {SHARDS - 1}"
                    )
                recall_degraded = _mean_recall(answers, exact_ids)
                point = {
                    "budget": budget,
                    "recall_full_shards": recall_full,
                    "recall_degraded": recall_degraded,
                    "degraded_fraction": round(
                        recall_degraded / recall_full, 4
                    ) if recall_full else None,
                }
                if budget in committed:
                    point["committed_recall_sharded"] = committed[budget]
                curve.append(point)
    return curve


def bench_deadline(words, metric, queries):
    """A stalled worker must cost ~deadline, not ~stall, under degrade."""
    with ShardedIndex(
        words, metric, LinearScan, n_shards=SHARDS, resident=True,
        policy=QueryPolicy(
            deadline=STALL_DEADLINE_S, retries=0, on_partial="degrade"
        ),
        faults=[FaultSpec("stall", shard=2, request=2, stall_s=STALL_S)],
    ) as index:
        index.knn_batch(queries[:1], K)  # request 1 warms the pool
        _, elapsed = _timed(lambda: index.knn_batch(queries, K))
        degraded = index.stats.degraded
        shards_answered = index.stats.shards_answered
    if not degraded or shards_answered != SHARDS - 1:
        raise AssertionError(
            "stalled shard was not reported as degraded "
            f"(degraded={degraded}, shards_answered={shards_answered})"
        )
    # Deadline + respawn slack, never anywhere near the stall.
    if elapsed > STALL_DEADLINE_S + RECOVERY_BUDGET_S:
        raise AssertionError(
            f"degraded answer took {elapsed:.2f}s against a "
            f"{STALL_DEADLINE_S}s deadline"
        )
    return {
        "deadline_s": STALL_DEADLINE_S,
        "stall_s": STALL_S,
        "degraded_latency_s": round(elapsed, 4),
        "shards_answered": shards_answered,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Worker-runtime crash-recovery and degradation benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI; the kill/stall injection paths still "
        "run and still assert, only the JSON write is skipped unless "
        "--output is given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="result JSON path "
        f"(default: {REPO_ROOT / 'BENCH_resilience.json'})",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(20080415)
    n = 400 if args.smoke else 10_000
    n_queries = 40 if args.smoke else 500
    budgets = RECALL_BUDGETS_SMOKE if args.smoke else RECALL_BUDGETS

    words = synthetic_dictionary("English", n, rng=rng)
    picks = rng.choice(n, size=n_queries, replace=False)
    queries = [words[int(i)] for i in picks]
    metric = LevenshteinDistance()
    baseline = LinearScan(words, metric)
    expected = baseline.knn_batch(queries, K)
    exact_ids = [{neighbor.index for neighbor in row} for row in expected]

    segments_before = _repro_segments()
    try:
        recovery = bench_recovery(words, metric, queries, expected)
        degraded_curve = bench_degraded_recall(
            words, metric, queries, exact_ids, budgets, args.smoke
        )
        deadline = bench_deadline(words, metric, queries)
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        return 1
    leaked = _repro_segments() - segments_before
    if leaked:
        print(f"FAIL: leaked shared-memory segments {sorted(leaked)}")
        return 1

    report = {
        "bench": "bench_resilience",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "dataset": "dictionary-en",
        "metric": "levenshtein",
        "n": n,
        "shards": SHARDS,
        "k": K,
        "recovery": recovery,
        "degraded_recall_curve": degraded_curve,
        "deadline": deadline,
    }
    output = args.output
    if output is None and not args.smoke:
        output = REPO_ROOT / "BENCH_resilience.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    print(
        f"recovery: kill+respawn+retry overhead "
        f"{recovery['recovery_overhead_s']}s "
        f"(respawn {recovery['respawn_s']}s, budget "
        f"{RECOVERY_BUDGET_S}s), answers identical"
    )
    for point in degraded_curve:
        committed = point.get("committed_recall_sharded")
        suffix = f", committed full-shard {committed}" if committed else ""
        print(
            f"degraded recall@budget={point['budget']}: "
            f"{point['recall_degraded']} vs full-shards "
            f"{point['recall_full_shards']} "
            f"({point['degraded_fraction']} of full{suffix})"
        )
    print(
        f"deadline: stalled shard degraded in "
        f"{deadline['degraded_latency_s']}s against a "
        f"{STALL_DEADLINE_S}s deadline ({SHARDS - 1}/{SHARDS} shards)"
    )
    print("OK: recovery, degradation, and deadline paths all held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
