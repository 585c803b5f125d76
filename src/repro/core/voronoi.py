"""Bisector systems and generalized Voronoi cell counting (Figures 1–4).

A system of ``C(k,2)`` bisectors divides the space into cells, one per
realizable distance permutation (Section 2 of the paper).  Two counting
engines are provided:

- a metric-agnostic **grid census** that samples the plane (or ``R^d``) on
  progressively finer grids until the set of realized permutations
  stabilizes — works for every ``L_p`` including the kinked L1/L∞
  bisectors of Figure 4.  Its grids fold Lehmer codes into a
  :class:`~repro.core.estimate.StreamingCensus` — the census engine of
  Tables 2–3 — and only the ``N`` distinct codes are decoded;
- an **exact Euclidean census** that tests each candidate permutation's
  cell (an open polyhedron defined by the chain of halfspace constraints
  ``d(z, x_{π(1)}) < ... < d(z, x_{π(k)})``) for nonempty interior with a
  linear program — the ground truth the grid engine is validated against.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.estimate import StreamingCensus
from repro.core.permutation import decode_permutations
from repro.metrics.base import Metric

__all__ = [
    "realized_permutations_grid",
    "realized_permutations_euclidean_exact",
    "count_euclidean_cells_exact",
    "count_order_cells_grid",
]


def _grid_points(bounds: Sequence[Tuple[float, float]], resolution: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _default_bounds(
    sites: np.ndarray, margin: float
) -> Tuple[Tuple[float, float], ...]:
    lo = sites.min(axis=0)
    hi = sites.max(axis=0)
    span = float(np.max(hi - lo))
    if span == 0.0:
        span = 1.0
    pad = margin * span
    return tuple((float(l) - pad, float(h) + pad) for l, h in zip(lo, hi))


def _grid_permutations(
    sites,
    metric: Metric,
    bounds: Optional[Sequence[Tuple[float, float]]],
    resolution: int,
    margin: float,
    max_refinements: int,
) -> np.ndarray:
    """The ``(N, k)`` distinct permutations realized on a stabilizing grid.

    Every refinement's grid folds into one census, and the loop stops
    once a grid adds no distinct code; only the ``N`` codes are decoded.
    """
    sites = np.asarray(sites, dtype=np.float64)
    if bounds is None:
        bounds = _default_bounds(sites, margin)
    census = StreamingCensus()
    for _ in range(max_refinements + 1):
        before = census.distinct
        census.update_points(_grid_points(bounds, resolution), sites, metric)
        if census.distinct == before:
            break
        resolution *= 2
    return decode_permutations(census.codes, len(sites))


def realized_permutations_grid(
    sites,
    metric: Metric,
    bounds: Optional[Sequence[Tuple[float, float]]] = None,
    resolution: int = 256,
    margin: float = 3.0,
    max_refinements: int = 3,
) -> Set[Tuple[int, ...]]:
    """Return the distance permutations realized on a stabilizing grid.

    The grid spans ``bounds`` (default: the sites' bounding box padded by
    ``margin`` times its span, so that unbounded cells are sampled too) and
    doubles in resolution until two consecutive refinements find no new
    permutation, or ``max_refinements`` is exhausted.
    """
    perms = _grid_permutations(
        sites, metric, bounds, resolution, margin, max_refinements
    )
    return {tuple(row) for row in perms.tolist()}


def _chain_is_feasible(sites: np.ndarray, perm: Sequence[int], tol: float) -> bool:
    """Test whether ``{z : d(z,x_{π(1)}) < ... < d(z,x_{π(k)})}`` is nonempty.

    In Euclidean space each consecutive constraint
    ``|z - a|^2 < |z - b|^2`` is the open halfspace
    ``2 (b - a) . z < |b|^2 - |a|^2``.  Strict feasibility is decided by
    maximizing a shared slack ``t`` subject to
    ``2 (b - a) . z + t <= |b|^2 - |a|^2`` and ``t <= 1``: the open region
    is nonempty iff the optimum has ``t > 0``.
    """
    # Deferred: scipy.optimize costs ≈ 0.6 s and ≈ 43 MB per process,
    # and this LP is its only user, so ``import repro`` stays scipy-free.
    from scipy.optimize import linprog

    d = sites.shape[1]
    rows = []
    rhs = []
    for first, second in zip(perm, perm[1:]):
        a = sites[first]
        b = sites[second]
        rows.append(np.concatenate([2.0 * (b - a), [1.0]]))
        rhs.append(float(b @ b - a @ a))
    a_ub = np.asarray(rows)
    b_ub = np.asarray(rhs)
    # Maximize t  ==  minimize -t; z free, t <= 1 keeps the LP bounded.
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * d + [(None, 1.0)],
        method="highs",
    )
    if not result.success:
        return False
    return float(result.x[-1]) > tol


def realized_permutations_euclidean_exact(
    sites, tol: float = 1e-9
) -> Set[Tuple[int, ...]]:
    """Return exactly the permutations whose Euclidean cell has interior.

    Enumerates all ``k!`` candidate permutations and keeps those whose
    constraint chain is strictly feasible.  Intended for small ``k``
    (``k! `` linear programs); validates the grid engine and regenerates
    the 18-cell count of Figure 3.
    """
    sites = np.asarray(sites, dtype=np.float64)
    k = sites.shape[0]
    if k > 8:
        raise ValueError(f"exact census solves k! LPs; k={k} is too large")
    return {
        perm
        for perm in itertools.permutations(range(k))
        if _chain_is_feasible(sites, perm, tol)
    }


def count_euclidean_cells_exact(sites, tol: float = 1e-9) -> int:
    """Count Euclidean generalized Voronoi cells exactly (LP census)."""
    return len(realized_permutations_euclidean_exact(sites, tol=tol))


def count_order_cells_grid(
    sites,
    metric: Metric,
    order: int = 1,
    bounds: Optional[Sequence[Tuple[float, float]]] = None,
    resolution: int = 512,
    margin: float = 3.0,
) -> int:
    """Count cells of the order-``j`` Voronoi diagram on a grid.

    ``order=1`` gives the classic nearest-site diagram (Figure 1);
    ``order=2`` the diagram whose cells share the same *unordered* pair of
    two nearest sites (Figure 2).  Counted as distinct ``order``-subsets
    realized over the sampled region.
    """
    if not 1 <= order <= len(sites):
        raise ValueError(f"order must be in 1..{len(sites)}")
    perms = _grid_permutations(sites, metric, bounds, resolution, margin, 0)
    return len({frozenset(row) for row in perms[:, :order].tolist()})
