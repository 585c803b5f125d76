"""Bench: regenerate Table 3 — permutation counts for uniform vectors.

The paper ran 10^6 points and 100 site draws per cell; the default here is
scaled to 20 000 points and 5 draws (``table3_rows(n_points=..., n_runs=...)``
or ``repro table3 --n / --runs`` restore any scale).
Shape criteria asserted:

- the d = 1 row equals ``C(k,2) + 1`` exactly: 7 / 29 / 67;
- counts saturate at ``k!`` when ``d >= k - 1`` (the 24s in the k = 4 column);
- mean <= max per cell; counts grow with d and k;
- the broad L1 >= L2 >= L∞ trend the paper reports, in aggregate.
"""

from __future__ import annotations

import math

from conftest import write_result

from repro.core.counting import euclidean_permutation_count, tree_permutation_bound
from repro.experiments.table3 import format_table3, table3_rows


def test_table3_full_sweep(benchmark, results_dir):
    rows = benchmark.pedantic(table3_rows, rounds=1, iterations=1)
    assert len(rows) == 30  # 3 metrics x 10 dimensions

    for row in rows:
        for k in (4, 8, 12):
            assert row.mean_counts[k] <= row.max_counts[k]
            assert row.max_counts[k] <= math.factorial(k)
            if row.p == 2:
                assert row.max_counts[k] <= euclidean_permutation_count(row.d, k)

    # d = 1: every metric degenerates to the line; C(k,2)+1 exactly.
    for row in rows:
        if row.d == 1:
            for k in (4, 8, 12):
                assert row.max_counts[k] == tree_permutation_bound(k), (
                    row.metric_name, k,
                )

    # k = 4 saturates at 4! = 24 once d >= 3 (Theorem 6 regime).
    for row in rows:
        if row.d >= 3:
            assert row.max_counts[4] == 24, (row.metric_name, row.d)

    # Counts increase with dimension (within each metric and k).
    by_metric = {}
    for row in rows:
        by_metric.setdefault(row.metric_name, []).append(row)
    for metric_rows in by_metric.values():
        metric_rows.sort(key=lambda r: r.d)
        for k in (8, 12):
            means = [r.mean_counts[k] for r in metric_rows]
            # Allow small local noise; the overall trend must rise.
            assert means[-1] > means[0]
            assert means[5] > means[1]

    # Aggregate L1 >= L∞ trend over the unsaturated regime (d >= 3, k = 12):
    # the paper reports "a general downward trend in number of permutations
    # from L1 to L2 and from L2 to L∞".
    l1_total = sum(
        r.mean_counts[12] for r in by_metric["L1"] if r.d >= 3
    )
    l2_total = sum(
        r.mean_counts[12] for r in by_metric["L2"] if r.d >= 3
    )
    linf_total = sum(
        r.mean_counts[12] for r in by_metric["Linf"] if r.d >= 3
    )
    assert l1_total > linf_total
    assert l2_total > 0.8 * l1_total  # L2 close below L1

    write_result(results_dir, "table3", format_table3(rows))


def test_table3_single_cell_speed(benchmark):
    """Benchmark one census cell (L2, d = 4, k = 8) at reduced n."""
    rows = benchmark.pedantic(
        lambda: table3_rows(dims=(4,), ks=(8,), ps=(2.0,), n_points=10_000,
                            n_runs=3),
        rounds=1,
        iterations=1,
    )
    assert rows[0].max_counts[8] <= euclidean_permutation_count(4, 8)
