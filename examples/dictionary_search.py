#!/usr/bin/env python
"""Dictionary workload: edit-distance search over a synthetic word list.

The Table 2 dictionaries are the paper's discrete-metric workload.  This
example builds a VP-tree, LAESA, and the permutation index over one
synthetic dictionary and runs spelling-correction-style queries,
reporting distance evaluations — plus the permutation census that makes
the dictionaries "effectively high-dimensional".

Run:  python examples/dictionary_search.py
"""

from __future__ import annotations

import math

import numpy as np

from repro import permutation_dimension
from repro.datasets import synthetic_dictionary
from repro.index import DistPermIndex, LinearScan, PivotIndex, VPTree
from repro.metrics import LevenshteinDistance


def main() -> None:
    rng = np.random.default_rng(8)
    words = synthetic_dictionary("English", 3000, rng)
    metric = LevenshteinDistance()
    print(f"synthetic English dictionary: {len(words)} words "
          f"(sample: {words[100]}, {words[1500]}, {words[-1]})")

    # Spelling-correction queries: words with a couple of random edits.
    queries = []
    for word in rng.choice(words, size=10, replace=False):
        chars = list(word)
        position = int(rng.integers(0, len(chars)))
        chars[position] = "abcdefghijklmnopqrstuvwxyz"[int(rng.integers(0, 26))]
        queries.append("".join(chars))

    indexes = {
        "LinearScan": LinearScan(words, metric),
        "VPTree": VPTree(words, metric, rng=np.random.default_rng(2)),
        "LAESA (12 pivots)": PivotIndex(words, metric, n_pivots=12,
                                        rng=np.random.default_rng(1)),
    }
    print("\nrange queries (radius 2) — distance evaluations per query:")
    for name, index in indexes.items():
        index.reset_stats()
        found = 0
        for query in queries:
            found += len(index.range_query(query, 2))
        print(f"  {name:>18}: {index.stats.distances_per_query:8.1f} "
              f"({found} matches total)")

    # The permutation census: dictionaries behave high-dimensionally.
    print("\npermutation census (why Table 2's dictionaries are hard):")
    for k in (4, 6, 8):
        index = DistPermIndex(words, metric, n_sites=k,
                              rng=np.random.default_rng(k))
        observed = index.unique_permutations()
        estimate = permutation_dimension(observed, k)
        print(f"  k={k}: {observed:>5} of k! = {math.factorial(k):>6} "
              f"permutations -> Euclidean-equivalent dimension {estimate:.1f}")
    print("\nedit-distance ties make the stable lower-index tie-break "
          "essential (see bench_ablation.py).")


if __name__ == "__main__":
    main()
