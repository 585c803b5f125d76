"""Core contribution: distance permutations and how many can occur.

This package implements the paper's primary objects:

- :mod:`repro.core.permutation` — computing ``Π_y`` with the paper's
  tie-breaking rule, batch counting, permutation codecs and dissimilarities;
- :mod:`repro.core.counting` — the exact Euclidean count ``N_{d,2}(k)``
  (Theorem 7), cake numbers, and the L1/L∞/tree bounds;
- :mod:`repro.core.voronoi` — generalized Voronoi cell counting through
  bisector arrangements (Figures 1–4);
- :mod:`repro.core.constructions` — the all-``k!`` construction of
  Theorem 6 and the path construction of Corollary 5;
- :mod:`repro.core.storage` — index storage accounting (Corollary 8);
- :mod:`repro.core.dimension` — permutation-based dimensionality
  estimation and intrinsic dimensionality ``ρ`` (Section 5).
"""

from repro.core.arrangement import (
    arrangement_census,
    count_arrangement_cells,
    count_euclidean_cells_arrangement,
    euclidean_bisector_lines,
)
from repro.core.bitpack import pack_ids, unpack_ids
from repro.core.constructions import (
    corollary5_path_space,
    theorem6_sites,
    theorem6_witnesses,
)
from repro.core.entropy import (
    EntropyReport,
    entropy_report,
)
from repro.core.estimate import (
    StreamingCensus,
    chao1_estimate,
    sampled_census_estimate,
)
from repro.core.counting import (
    cake_number,
    euclidean_leading_term,
    euclidean_permutation_count,
    euclidean_table,
    l1_hyperplanes_per_bisector,
    linf_hyperplanes_per_bisector,
    lp_permutation_bound,
    max_permutations,
    tree_permutation_bound,
)
from repro.core.dimension import (
    intrinsic_dimensionality,
    permutation_dimension,
    sample_distances,
)
from repro.core.permutation import (
    MAX_CODE_SITES,
    count_distinct_permutations,
    decode_permutations,
    decode_positions,
    distance_permutation,
    distance_permutations,
    encode_permutations,
    permutation_code_dtype,
    prefix_codes_from_distances,
    prefix_permutation_codes,
    ranks_from_distances,
    site_ranks,
    spearman_footrule,
)
from repro.core.storage import (
    StorageReport,
    bits_for_count,
    bits_full_permutation,
    bits_laesa_element,
    storage_report,
)
from repro.core.truncated import (
    prefix_census_curve,
)
from repro.core.voronoi import (
    count_euclidean_cells_exact,
    count_order_cells_grid,
    realized_permutations_euclidean_exact,
    realized_permutations_grid,
)

__all__ = [
    "EntropyReport",
    "MAX_CODE_SITES",
    "StorageReport",
    "StreamingCensus",
    "decode_permutations",
    "decode_positions",
    "encode_permutations",
    "permutation_code_dtype",
    "prefix_codes_from_distances",
    "prefix_permutation_codes",
    "ranks_from_distances",
    "site_ranks",
    "chao1_estimate",
    "sampled_census_estimate",
    "arrangement_census",
    "bits_for_count",
    "bits_full_permutation",
    "bits_laesa_element",
    "cake_number",
    "count_arrangement_cells",
    "count_euclidean_cells_arrangement",
    "entropy_report",
    "euclidean_bisector_lines",
    "pack_ids",
    "prefix_census_curve",
    "unpack_ids",
    "corollary5_path_space",
    "count_distinct_permutations",
    "count_euclidean_cells_exact",
    "count_order_cells_grid",
    "distance_permutation",
    "distance_permutations",
    "euclidean_leading_term",
    "euclidean_permutation_count",
    "euclidean_table",
    "intrinsic_dimensionality",
    "l1_hyperplanes_per_bisector",
    "linf_hyperplanes_per_bisector",
    "lp_permutation_bound",
    "max_permutations",
    "permutation_dimension",
    "realized_permutations_euclidean_exact",
    "realized_permutations_grid",
    "sample_distances",
    "spearman_footrule",
    "storage_report",
    "theorem6_sites",
    "theorem6_witnesses",
    "tree_permutation_bound",
]
