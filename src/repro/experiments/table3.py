"""Table 3: distance permutations for uniform random vectors.

For each metric in {L1, L2, L∞}, dimension ``d = 1..10`` and permutation
length ``k`` in {4, 8, 12}, draw a uniform database in the unit cube,
repeat the census over fresh random site draws, and report mean and max —
the paper used ``n = 10^6`` points and 100 runs; the defaults here are
scaled down to ``n = 20000`` and 5 runs (``n_points`` / ``n_runs``, or
``repro table3 --n / --runs``, restore full scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dimension import intrinsic_dimensionality
from repro.datasets.vectors import uniform_vectors
from repro.experiments.harness import format_table, permutation_count_trials
from repro.metrics.minkowski import MinkowskiMetric
from repro.parallel.executor import get_executor

__all__ = ["Table3Row", "table3_rows", "format_table3"]

#: Table 3 metrics in paper order.
METRIC_PS: Tuple[float, ...] = (1.0, 2.0, math.inf)


@dataclass
class Table3Row:
    """One (metric, dimension) row: per-``k`` mean and max counts plus ρ."""

    p: float
    d: int
    rho: float
    mean_counts: Dict[int, float]
    max_counts: Dict[int, int]

    @property
    def metric_name(self) -> str:
        return "Linf" if self.p == math.inf else f"L{int(self.p)}"


def table3_rows(
    dims: Iterable[int] = range(1, 11),
    ks: Sequence[int] = (4, 8, 12),
    ps: Sequence[float] = METRIC_PS,
    n_points: int = 20000,
    n_runs: int = 5,
    seed: int = 20080411,
    workers: Optional[int] = None,
) -> List[Table3Row]:
    """Regenerate Table 3 (optionally restricted to fewer cells).

    ``workers`` parallelizes each cell's census trials
    (:mod:`repro.parallel`); site draws and counts are identical to the
    serial run.
    """
    rows = []
    # One pool serves every (metric, d, k) cell; each dimension's database
    # is published to the workers once, not once per cell.
    with get_executor(workers) as executor:
        for p in ps:
            metric = MinkowskiMetric(p)
            for d in dims:
                rng = np.random.default_rng(
                    [seed, int(p if p != math.inf else 99), d]
                )
                points = uniform_vectors(n_points, d, rng)
                # rho of the uniform cube under this metric, sampled cheaply.
                pair_count = min(2000, n_points * (n_points - 1) // 2)
                first = rng.integers(0, n_points, size=pair_count)
                second = rng.integers(0, n_points, size=pair_count)
                keep = first != second
                sample = np.array(
                    [
                        metric.distance(points[i], points[j])
                        for i, j in zip(first[keep], second[keep])
                    ]
                )
                rho = intrinsic_dimensionality(sample)
                mean_counts: Dict[int, float] = {}
                max_counts: Dict[int, int] = {}
                with executor.share(points) as dataset:
                    for k in ks:
                        result = permutation_count_trials(
                            points, metric, k, n_trials=n_runs, rng=rng,
                            executor=executor, dataset=dataset,
                        )
                        mean_counts[k] = result.mean
                        max_counts[k] = result.max
                rows.append(Table3Row(p, d, rho, mean_counts, max_counts))
    return rows


def format_table3(rows: List[Table3Row], ks: Sequence[int] = (4, 8, 12)) -> str:
    """Render measured rows in the paper's Table 3 layout."""
    headers = (
        ["metric", "d", "rho"]
        + [f"mean k={k}" for k in ks]
        + [f"max k={k}" for k in ks]
    )
    body = []
    for row in rows:
        body.append(
            [row.metric_name, row.d, f"{row.rho:.2f}"]
            + [f"{row.mean_counts[k]:.2f}" for k in ks]
            + [row.max_counts[k] for k in ks]
        )
    return format_table(headers, body)
