"""Experiment harnesses regenerating every table and figure of the paper."""

from repro.experiments.counterexample import (
    FOUND_LINF_COUNTEREXAMPLE_SITES,
    PAPER_COUNTEREXAMPLE_SITES,
    counterexample_census,
    search_counterexamples,
)
from repro.experiments.figures import (
    cells_hit_experiment,
    figure_cell_counts,
    paperlike_sites,
)
from repro.experiments.harness import (
    format_table,
    permutation_count_trials,
)
from repro.experiments.scaling import ScalingResult, census_scaling
from repro.experiments.table1 import format_table1, generate_table1
from repro.experiments.table2 import format_table2, table2_rows
from repro.experiments.table3 import format_table3, table3_rows

__all__ = [
    "FOUND_LINF_COUNTEREXAMPLE_SITES",
    "PAPER_COUNTEREXAMPLE_SITES",
    "ScalingResult",
    "cells_hit_experiment",
    "census_scaling",
    "counterexample_census",
    "figure_cell_counts",
    "format_table",
    "format_table1",
    "format_table2",
    "format_table3",
    "generate_table1",
    "paperlike_sites",
    "permutation_count_trials",
    "search_counterexamples",
    "table2_rows",
    "table3_rows",
]
