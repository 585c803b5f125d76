"""Shared experiment machinery: site draws, trials, query workloads, tables.

Besides the permutation-census helpers, this module hosts the search
workload runner used by the benches and the ``repro search`` CLI: a query
set is pushed through an index's *batched* API (or, for baseline
comparisons, the looped single-query API) and both cost measures are
reported — distance evaluations per query, the literature's metric, and
queries per second, the production measure the batch engine optimizes.

The census trials take ``workers=`` (:mod:`repro.parallel`): they shard
the database over a task pool, one shard per worker, and merge exact
partial counts.  The workload runner drives whatever index it is given;
to run sharded, in-process or on pinned shard workers, pass a
:class:`~repro.index.sharded.ShardedIndex`.  Results are identical for
every setting.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import Index, Neighbor
from repro.metrics.base import Metric
from repro.parallel.census import sharded_census
from repro.parallel.executor import get_executor
from repro.parallel.sharedmem import SharedDataset

__all__ = [
    "permutation_count_trials",
    "TrialResult",
    "QueryWorkloadReport",
    "run_query_workload",
    "format_table",
]


@dataclass(frozen=True)
class TrialResult:
    """Aggregate of repeated random-site permutation counts."""

    counts: Tuple[int, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.counts))

    @property
    def max(self) -> int:
        return int(np.max(self.counts))

    @property
    def min(self) -> int:
        return int(np.min(self.counts))


def permutation_count_trials(
    points: Sequence[Any],
    metric: Metric,
    k: int,
    n_trials: int = 10,
    rng: Optional[np.random.Generator] = None,
    *,
    workers: Optional[int] = None,
    executor=None,
    dataset: Optional[SharedDataset] = None,
) -> TrialResult:
    """Repeat the permutation census with fresh random site draws.

    Sites are drawn uniformly without replacement from the database, as in
    the SISAP pivots code the paper's ``distperm`` index modifies.  Returns
    the per-trial counts (Table 3 reports their mean and max).

    With ``workers`` the trial censuses run on a process pool: every
    trial's site draw happens up front (so draws match the serial order
    exactly), the database is shared with the pool once, and each trial's
    census shards over the rows and merges.  Counts are identical for
    every ``workers`` setting.  Callers looping many cells over one pool
    (Table 3) pass ``executor=`` (and optionally the executor's
    :meth:`~repro.parallel.executor.Executor.share` of ``points`` as
    ``dataset=``) to amortize pool startup and dataset publication; both
    stay owned by the caller.
    """
    n = len(points)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= {n}, got k={k}")
    if n_trials < 1:
        raise ValueError(f"need n_trials >= 1, got {n_trials}")
    rng = rng if rng is not None else np.random.default_rng()
    trial_sites = [
        [points[int(i)] for i in rng.choice(n, size=k, replace=False)]
        for _ in range(n_trials)
    ]
    counts = []
    with ExitStack() as owned:
        if executor is None:
            executor = owned.enter_context(get_executor(workers))
        if dataset is None:
            dataset = owned.enter_context(executor.share(points))
        for sites in trial_sites:
            censuses, _ = sharded_census(
                points, sites, metric, executor=executor, dataset=dataset,
            )
            counts.append(censuses[k].distinct)
    return TrialResult(tuple(counts))


@dataclass(frozen=True)
class QueryWorkloadReport:
    """Outcome of one query workload over an index.

    ``results[i]`` is the answer list for ``queries[i]``; the two cost
    measures are distance evaluations per query (hardware-independent)
    and queries per second (wall clock).  ``degraded`` /
    ``shards_answered`` mirror the index's resilience stats after the
    workload (pooled sharded execution only — ``shards_answered`` is
    ``None`` elsewhere): whether any answer in this workload was merged
    from fewer than all shards, and how many shards the last fan-out
    heard from.  ``reply_bytes`` totals the result-payload bytes shipped
    from the pinned workers over the workload (0 when no worker wire was
    involved) and ``shard_reply_bytes`` is the last fan-out's per-shard
    breakdown, ``None`` per shard that never replied.
    """

    kind: str
    n_queries: int
    elapsed_seconds: float
    distance_evaluations: int
    results: Tuple[Tuple[Neighbor, ...], ...]
    degraded: bool = False
    shards_answered: Optional[int] = None
    reply_bytes: int = 0
    shard_reply_bytes: Optional[Tuple[Optional[int], ...]] = None

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.n_queries / self.elapsed_seconds

    @property
    def distances_per_query(self) -> float:
        return (
            self.distance_evaluations / self.n_queries
            if self.n_queries
            else 0.0
        )


def run_query_workload(
    index: Index,
    queries: Sequence[Any],
    *,
    kind: str = "knn",
    k: int = 10,
    radius: float = 1.0,
    budget: Optional[int] = None,
    batched: bool = True,
) -> QueryWorkloadReport:
    """Drive a query set through an index and report both cost measures.

    ``kind`` selects the operation: ``"knn"`` (exact), ``"range"``, or
    ``"knn-approx"`` (budgeted).  With ``batched=True`` the batch API
    answers the whole set in one call; with ``batched=False`` the
    single-query API is looped — the baseline the batch engine is
    benchmarked against.  The index's query stats are reset first so the
    report reflects exactly this workload.  A pooled
    :class:`~repro.index.sharded.ShardedIndex` reports whether any answer
    was partial (``degraded`` / ``shards_answered``) and its reply
    volume; the index stays open for the caller to close.
    """
    if kind not in ("knn", "range", "knn-approx"):
        raise ValueError(f"unknown workload kind {kind!r}")
    index.reset_stats()
    start = time.perf_counter()
    if batched:
        if kind == "knn":
            results = index.knn_batch(queries, k)
        elif kind == "range":
            results = index.range_batch(queries, radius)
        else:
            results = index.knn_approx_batch(queries, k, budget=budget)
    else:
        if kind == "knn":
            results = [index.knn_query(query, k) for query in queries]
        elif kind == "range":
            results = [index.range_query(query, radius) for query in queries]
        else:
            results = [
                index.knn_approx(query, k, budget=budget) for query in queries
            ]
    elapsed = time.perf_counter() - start
    return QueryWorkloadReport(
        kind=kind,
        n_queries=len(queries),
        elapsed_seconds=elapsed,
        distance_evaluations=index.stats.query_distances,
        results=tuple(tuple(r) for r in results),
        degraded=index.stats.degraded,
        shards_answered=index.stats.shards_answered,
        reply_bytes=index.stats.reply_bytes,
        shard_reply_bytes=index.stats.shard_reply_bytes,
    )


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], min_width: int = 6
) -> str:
    """Render an aligned plain-text table (right-aligned numeric style)."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(min_width, max(len(row[col]) for row in cells))
        for col in range(len(headers))
    ]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
