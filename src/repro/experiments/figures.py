"""Figure reproductions: the cell counts behind Figures 1–4 and 7.

The paper's figures are drawings; what they *assert* is combinatorial:

- Fig 1: the first-order Euclidean Voronoi diagram of 4 sites has 4 cells;
- Fig 2: its second-order refinement has more cells, one per realized
  unordered nearest-pair;
- Fig 3: the full bisector system of 4 generic sites in the L2 plane cuts
  it into 18 cells (``N_{2,2}(4) = 18``);
- Fig 4: the same count arises for 4 sites in the L1 plane, but the
  *set* of 18 permutations differs;
- Fig 7: a range-limited database can never realize the permutations of
  cells lying wholly outside its box, no matter how many points it has.

These functions compute those quantities so the benches can assert them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimate import StreamingCensus
from repro.core.voronoi import (
    count_order_cells_grid,
    realized_permutations_euclidean_exact,
    realized_permutations_grid,
)
from repro.metrics.minkowski import MinkowskiMetric

__all__ = [
    "paperlike_sites",
    "figure_cell_counts",
    "cells_hit_experiment",
    "CellsHitResult",
]


def paperlike_sites(seed: int = 32) -> np.ndarray:
    """Four plane sites reproducing the Figure 3 / Figure 4 cell counts.

    The paper's Figures 1–4 use four sites (A–D) in general position: the
    L2 bisector system cuts the plane into 18 cells, the L1 system *also*
    yields 18 cells, "but they are not the same 18 distance permutations".
    The default seed realizes exactly that configuration (verified by the
    test suite): 18 cells under each metric, with six permutations on each
    side not realized by the other.
    """
    rng = np.random.default_rng(seed)
    return rng.random((4, 2))


def figure_cell_counts(
    sites: Optional[np.ndarray] = None,
    resolution: int = 512,
    margin: float = 4.0,
) -> Dict[str, object]:
    """Compute every figure's cell census for one site layout.

    Returns a dict with the order-1 and order-2 Voronoi cell counts (L2),
    the full distance-permutation cell counts for L2 (exact and grid) and
    L1 (grid), and the two permutation sets whose difference the paper
    points out ("they are not the same 18 distance permutations").
    """
    sites = paperlike_sites() if sites is None else np.asarray(sites)
    l2 = MinkowskiMetric(2)
    l1 = MinkowskiMetric(1)
    exact_l2 = realized_permutations_euclidean_exact(sites)
    grid_l2 = realized_permutations_grid(
        sites, l2, resolution=resolution, margin=margin
    )
    grid_l1 = realized_permutations_grid(
        sites, l1, resolution=resolution, margin=margin
    )
    return {
        "order1_cells": count_order_cells_grid(
            sites, l2, order=1, resolution=resolution, margin=margin
        ),
        "order2_cells": count_order_cells_grid(
            sites, l2, order=2, resolution=resolution, margin=margin
        ),
        "l2_cells_exact": len(exact_l2),
        "l2_cells_grid": len(grid_l2),
        "l1_cells_grid": len(grid_l1),
        "l2_permutations": exact_l2,
        "l1_permutations": grid_l1,
        "l1_only": grid_l1 - exact_l2,
        "l2_only": exact_l2 - grid_l1,
    }


@dataclass
class CellsHitResult:
    """Figure 7 data: permutations realized by boxed databases of growing size."""

    realizable_in_space: int
    realizable_in_box: int
    hits_by_size: Dict[int, int]


def cells_hit_experiment(
    sites: Optional[np.ndarray] = None,
    box: Tuple[float, float] = (0.35, 0.65),
    sizes: Sequence[int] = (10, 100, 1000, 10000, 100000),
    p: float = 2.0,
    seed: int = 7,
    resolution: int = 768,
) -> CellsHitResult:
    """Reproduce Figure 7: range-limited data misses whole cells forever.

    ``realizable_in_space`` counts cells over an unbounded (wide-margin)
    region; ``realizable_in_box`` counts cells intersecting the data box;
    ``hits_by_size`` shows databases of growing size saturating at the box
    count, strictly below the space count.
    """
    sites = paperlike_sites() if sites is None else np.asarray(sites)
    metric = MinkowskiMetric(p)
    space_perms = realized_permutations_grid(
        sites, metric, resolution=resolution, margin=4.0
    )
    lo, hi = box
    bounds = [(lo, hi)] * sites.shape[1]
    box_perms = realized_permutations_grid(
        sites, metric, bounds=bounds, resolution=resolution
    )
    rng = np.random.default_rng(seed)
    hits: Dict[int, int] = {}
    for size in sizes:
        points = lo + (hi - lo) * rng.random((size, sites.shape[1]))
        census = StreamingCensus().update_points(points, sites, metric)
        hits[size] = census.distinct
    return CellsHitResult(
        realizable_in_space=len(space_perms),
        realizable_in_box=len(box_perms),
        hits_by_size=hits,
    )
