"""repro — reproduction of "Counting distance permutations" (Skala, 2008/2009).

Distance permutation indexes store, for each database element, the
permutation of ``k`` reference sites ordered by distance.  This library
implements the paper's theory (exact Euclidean counts, tree-metric and
L1/L∞ bounds, the all-``k!`` construction), the metric-space and index
substrates its experiments run on (an analogue of the SISAP library), and
benchmark harnesses regenerating every table and figure.

Quickstart::

    import numpy as np
    from repro import distance_permutations, euclidean_permutation_count
    from repro.metrics import EuclideanDistance

    rng = np.random.default_rng(0)
    points = rng.random((1000, 3))
    sites = rng.random((5, 3))
    perms = distance_permutations(points, sites, EuclideanDistance())
    assert len(np.unique(perms, axis=0)) <= euclidean_permutation_count(3, 5)
"""

from repro.core import (
    cake_number,
    corollary5_path_space,
    count_distinct_permutations,
    count_euclidean_cells_exact,
    distance_permutation,
    distance_permutations,
    euclidean_permutation_count,
    euclidean_table,
    intrinsic_dimensionality,
    lp_permutation_bound,
    max_permutations,
    permutation_dimension,
    storage_report,
    theorem6_sites,
    theorem6_witnesses,
    tree_permutation_bound,
)

__version__ = "1.1.0"

__all__ = [
    "cake_number",
    "corollary5_path_space",
    "count_distinct_permutations",
    "count_euclidean_cells_exact",
    "distance_permutation",
    "distance_permutations",
    "euclidean_permutation_count",
    "euclidean_table",
    "intrinsic_dimensionality",
    "lp_permutation_bound",
    "max_permutations",
    "permutation_dimension",
    "storage_report",
    "theorem6_sites",
    "theorem6_witnesses",
    "tree_permutation_bound",
]
