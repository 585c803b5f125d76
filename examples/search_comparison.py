#!/usr/bin/env python
"""Proximity search: comparing every index in the library.

Builds all six index structures on one database and reports the number
of distance evaluations per 5-NN query — the cost model of the similarity
search literature — plus the permutation index's recall/budget trade-off.

Run:  python examples/search_comparison.py
"""

from __future__ import annotations

import numpy as np

from repro.datasets.vectors import uniform_vectors
from repro.index import (
    AESA,
    DistPermIndex,
    IAESA,
    LinearScan,
    PivotIndex,
    VPTree,
)
from repro.metrics import EuclideanDistance


def main() -> None:
    rng = np.random.default_rng(3)
    n, d, k_nn = 2000, 4, 5
    points = uniform_vectors(n, d, rng)
    queries = rng.random((30, d))
    metric = EuclideanDistance()

    indexes = {
        "LinearScan": LinearScan(points, metric),
        "VPTree": VPTree(points, metric, rng=np.random.default_rng(1)),
        "LAESA (16 pivots)": PivotIndex(points, metric, n_pivots=16,
                                        rng=np.random.default_rng(3)),
        "AESA": AESA(points, metric),
        "iAESA": IAESA(points, metric),
    }

    print(f"exact {k_nn}-NN over n={n}, d={d} "
          f"(mean distance evaluations per query / build cost):\n")
    for name, index in indexes.items():
        index.reset_stats()
        for query in queries:
            index.knn_query(query, k_nn)
        print(f"  {name:>18}: {index.stats.distances_per_query:8.1f} "
              f"(build: {index.stats.build_distances})")

    # The permutation index trades exactness for budgeted cost.
    print("\ndistperm (16 sites) approximate search, recall vs budget:")
    distperm = DistPermIndex(points, metric, n_sites=16,
                             rng=np.random.default_rng(4))
    oracle = indexes["LinearScan"]
    truth = {
        tuple(q): {nb.index for nb in oracle.knn_query(q, k_nn)}
        for q in queries
    }
    for budget in (20, 50, 100, 250, 500):
        hits = sum(
            len(truth[tuple(q)]
                & {nb.index for nb in distperm.knn_approx(q, k_nn, budget=budget)})
            for q in queries
        )
        recall = hits / (k_nn * len(queries))
        print(f"  budget {budget:>4} evaluations: recall {recall:5.2f}")
    report = distperm.storage()
    print(f"\n  distperm storage: {report.bits_permutation_table} bits/elt "
          f"vs LAESA {report.bits_laesa} bits/elt")


if __name__ == "__main__":
    main()
