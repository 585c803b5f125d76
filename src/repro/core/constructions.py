"""Constructive results: Theorem 6 and Corollary 5.

- :func:`theorem6_sites` / :func:`theorem6_witnesses` realize **all k!**
  distance permutations with ``k`` sites in ``(k-1)``-dimensional ``L_p``
  space, following the paper's induction: sites sit near unit distance
  from the origin (one per coordinate axis plus one opposite on the first
  axis, Figure 6), and every permutation has a witness point within ``ε``
  of the origin.
- :func:`corollary5_path_space` builds the path tree metric whose
  ``2^(k-1)`` equal-weight edges make the ``C(k,2)+1`` bound of Theorem 4
  tight: sites at labels ``0, 2, 4, 8, ..., 2^(k-1)`` have all midpoints
  distinct.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.core.permutation import ranked_permutations
from repro.metrics.minkowski import MinkowskiMetric
from repro.metrics.trees import TreeMetric, path_tree_metric

__all__ = [
    "theorem6_sites",
    "theorem6_witnesses",
    "corollary5_sites",
    "corollary5_path_space",
]


def theorem6_sites(k: int, epsilon: float = 0.25) -> np.ndarray:
    """Return the ``k`` sites of the Theorem 6 construction in ``R^(k-1)``.

    Basis: ``x_1 = <-1>, x_2 = <1>``.  Inductive step: append a zero
    component to the previous sites and add the new site at
    ``(0, ..., 0, 1 + ε/4)`` on the new axis, where ``ε`` shrinks by a
    factor of 4 at each level exactly as in the proof.
    """
    if k < 2:
        raise ValueError("the construction needs k >= 2")
    if not 0 < epsilon < 0.5:
        raise ValueError("the proof requires 0 < epsilon < 1/2")
    sites = np.array([[-1.0], [1.0]])
    # The innermost level of the induction uses epsilon / 4^(k-2).
    levels = [epsilon / (4.0**i) for i in range(k - 2, -1, -1)]
    for level_epsilon in levels[1:]:
        extended = np.hstack([sites, np.zeros((sites.shape[0], 1))])
        new_site = np.zeros((1, extended.shape[1]))
        new_site[0, -1] = 1.0 + level_epsilon / 4.0
        sites = np.vstack([extended, new_site])
    return sites


def _sweep_witnesses(
    perm_at, z_lo: float, z_hi: float, samples: int, max_depth: int = 48
) -> Dict[Tuple[int, ...], float]:
    """Collect every permutation realized along a 1-d sweep, mid-cell.

    Starts from a uniform sample, bisects every pair of adjacent samples
    with differing permutations until the gap shrinks below float-scale
    tolerance (localizing all cell boundaries), then returns the midpoint
    of each cell's sampled extent.  Mid-cell witnesses keep site distances
    well separated, which the next induction level relies on (condition
    (4) of the proof).
    """
    tol = (z_hi - z_lo) * 2.0**-max_depth
    entries: Dict[float, Tuple[int, ...]] = {
        float(z): perm_at(float(z)) for z in np.linspace(z_lo, z_hi, samples)
    }
    ordered = sorted(entries.items())
    stack = [
        (ordered[i][0], ordered[i][1], ordered[i + 1][0], ordered[i + 1][1])
        for i in range(len(ordered) - 1)
        if ordered[i][1] != ordered[i + 1][1]
    ]
    while stack:
        z0, p0, z1, p1 = stack.pop()
        if z1 - z0 <= tol:
            continue
        zm = 0.5 * (z0 + z1)
        if zm <= z0 or zm >= z1:  # ran out of float resolution
            continue
        pm = perm_at(zm)
        entries[zm] = pm
        if pm != p0:
            stack.append((z0, p0, zm, pm))
        if pm != p1:
            stack.append((zm, pm, z1, p1))
    # Each cell is an interval of z; report the midpoint of its extent.
    found: Dict[Tuple[int, ...], float] = {}
    ordered = sorted(entries.items())
    run_start = 0
    for i in range(1, len(ordered) + 1):
        if i == len(ordered) or ordered[i][1] != ordered[run_start][1]:
            perm = ordered[run_start][1]
            midpoint = 0.5 * (ordered[run_start][0] + ordered[i - 1][0])
            if perm not in found:
                found[perm] = midpoint
            run_start = i
    return found


def _witnesses_recursive(
    k: int, epsilon: float, p: float, samples: int
) -> Dict[Tuple[int, ...], np.ndarray]:
    """Witness points for every permutation, following the induction."""
    if k == 2:
        return {
            (0, 1): np.array([-epsilon / 2.0]),
            (1, 0): np.array([epsilon / 2.0]),
        }
    metric = MinkowskiMetric(p)
    inner = _witnesses_recursive(k - 1, epsilon / 4.0, p, samples)
    sites = theorem6_sites(k, epsilon)
    witnesses: Dict[Tuple[int, ...], np.ndarray] = {}
    for inner_point in inner.values():
        # Sweep the new coordinate z; the first k-1 site order stays fixed
        # at the inner permutation while site k-1 slides from last place
        # (z = -ε/2) to first place (z = 3ε/4).
        base = np.append(inner_point, 0.0)

        def perm_at(z: float) -> Tuple[int, ...]:
            point = base.copy()
            point[-1] = z
            distances = metric.to_sites(point.reshape(1, -1), sites)
            return tuple(int(v) for v in ranked_permutations(distances)[0])

        swept = _sweep_witnesses(
            perm_at, -epsilon / 2.0, 3.0 * epsilon / 4.0, samples
        )
        for perm, z in swept.items():
            if perm not in witnesses:
                point = base.copy()
                point[-1] = z
                witnesses[perm] = point
    return witnesses


def theorem6_witnesses(
    k: int, p: float = 2, epsilon: float = 0.25, samples: int = 64
) -> Dict[Tuple[int, ...], np.ndarray]:
    """Return a witness point for every one of the ``k!`` permutations.

    For each inner-level witness the new coordinate is swept over
    ``[-ε/2, 3ε/4]`` with adaptive bisection between differing samples;
    the proof guarantees the new site passes through every rank along the
    sweep, so every permutation acquires a witness.  Raises if any
    permutation is missed (indicates ``samples`` or float resolution is
    insufficient for this ``k``).
    """
    witnesses = _witnesses_recursive(k, epsilon, p, samples)
    expected = math.factorial(k)
    if len(witnesses) != expected:
        raise RuntimeError(
            f"construction realized {len(witnesses)} of {expected} permutations; "
            f"increase samples (got samples={samples})"
        )
    return witnesses


def corollary5_sites(k: int) -> List[int]:
    """Return the Corollary 5 site labels ``0, 2, 4, 8, ..., 2^(k-1)``."""
    if k < 2:
        raise ValueError("need k >= 2 sites")
    return [0] + [2**i for i in range(1, k)]


def corollary5_path_space(k: int) -> Tuple[TreeMetric, List[int]]:
    """Return the path tree metric and sites achieving ``C(k,2)+1`` permutations.

    The path has vertices labelled ``0 .. 2^(k-1)`` (``2^(k-1)`` edges of
    equal weight); the sites are the vertices of :func:`corollary5_sites`.
    Counting the distance permutations of *all* vertices yields exactly
    ``C(k,2) + 1`` distinct values (the paper's midpoint argument).
    """
    metric = path_tree_metric(2 ** (k - 1) + 1)
    return metric, corollary5_sites(k)
