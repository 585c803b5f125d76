"""Every distinct-permutation count runs on the census engine.

The grid, order-``j``, truncated-prefix, counterexample and Figure-7
counts fold the rank kernel's Lehmer codes into a
:class:`~repro.core.estimate.StreamingCensus` and decode only the
distinct codes.  Each must equal the route it replaced, rebuilt here
from the reference implementations — a stable argsort
(:func:`permutations_from_distances`) and row dedup
(:func:`distinct_permutations`, :func:`count_distinct_permutations`) —
on the same points: L1, L2 and L∞, in 2-D and 3-D, on random sites and
on symmetric ones whose dyadic grid points land exactly on bisectors,
where the lower-index tie-break decides every permutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import count_distinct_prefixes, distinct_permutations

from repro.core.permutation import (
    count_distinct_permutations,
    permutations_from_distances,
)
from repro.core.truncated import prefix_census_curve
from repro.core.voronoi import (
    _grid_points,
    count_order_cells_grid,
    realized_permutations_grid,
)
from repro.experiments.counterexample import counterexample_census
from repro.experiments.figures import cells_hit_experiment
from repro.metrics.minkowski import MinkowskiMetric

P_VALUES = [1.0, 2.0, np.inf]

#: Symmetric layouts: a square or cube's corners and centre.  Bisectors
#: of such sites are axis- and diagonal-aligned, so the dyadic grids
#: below put many points on them exactly.
SYMMETRIC = {
    2: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                 [0.5, 0.5]]),
    3: np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                 [0.0, 0.0, 1.0], [0.5, 0.5, 0.5]]),
}

#: Grid bounds and resolution whose step is a power of two (0.25), so
#: grid coordinates — and the distances to the sites — are exact.
BOUNDS = (-1.0, 2.0)
RESOLUTION = {2: 13, 3: 9}


def _sites(kind, d):
    if kind == "symmetric":
        return SYMMETRIC[d]
    return np.random.default_rng(40 + d).random((5, d))


def _reference_perms(points, sites, metric):
    return permutations_from_distances(metric.to_sites(points, sites))


def _reference_grid(sites, metric, bounds, resolution, refinements):
    """The argsort + row-dedup grid census the engine replaced."""
    found = set()
    for _ in range(refinements + 1):
        points = _grid_points(bounds, resolution)
        new = distinct_permutations(_reference_perms(points, sites, metric))
        if new <= found:
            break
        found |= new
        resolution *= 2
    return found


CASES = [
    pytest.param(p, d, kind, id=f"L{p}-{d}d-{kind}")
    for p in P_VALUES
    for d in (2, 3)
    for kind in ("symmetric", "random")
]


@pytest.mark.parametrize("p, d, kind", CASES)
class TestEqualsReference:
    def test_grid_census(self, p, d, kind):
        sites, metric = _sites(kind, d), MinkowskiMetric(p)
        bounds = [BOUNDS] * d
        want = _reference_grid(sites, metric, bounds, RESOLUTION[d], 1)
        got = realized_permutations_grid(
            sites, metric, bounds=bounds, resolution=RESOLUTION[d],
            max_refinements=1,
        )
        assert got == want

    def test_order_cells_every_order(self, p, d, kind):
        sites, metric = _sites(kind, d), MinkowskiMetric(p)
        bounds = [BOUNDS] * d
        perms = _reference_perms(
            _grid_points(bounds, RESOLUTION[d]), sites, metric
        )
        for order in range(1, len(sites) + 1):
            want = count_distinct_permutations(
                np.sort(perms[:, :order], axis=1)
            )
            assert count_order_cells_grid(
                sites, metric, order=order, bounds=bounds,
                resolution=RESOLUTION[d],
            ) == want, order

    def test_prefix_census_curve(self, p, d, kind):
        sites, metric = _sites(kind, d), MinkowskiMetric(p)
        points = _grid_points([BOUNDS] * d, RESOLUTION[d])
        perms = _reference_perms(points, sites, metric)
        want = {
            m: count_distinct_permutations(perms[:, :m])
            for m in range(1, len(sites) + 1)
        }
        assert prefix_census_curve(points, sites, metric) == want
        assert {
            m: count_distinct_prefixes(perms, m) for m in want
        } == want

    def test_counterexample_census(self, p, d, kind):
        sites = _sites(kind, d)
        result = counterexample_census(sites, p=p, n_points=20_000, seed=3)
        points = np.random.default_rng(3).random((20_000, d))
        want = count_distinct_permutations(
            _reference_perms(points, sites, MinkowskiMetric(p))
        )
        assert result.observed == want

    def test_cells_hit_experiment(self, p, d, kind):
        sites, metric = _sites(kind, d), MinkowskiMetric(p)
        box, sizes, seed = (0.25, 0.75), (10, 300, 3000), 11
        result = cells_hit_experiment(
            sites, box=box, sizes=sizes, p=p, seed=seed,
            resolution=RESOLUTION[d],
        )
        rng = np.random.default_rng(seed)
        for size in sizes:
            points = box[0] + (box[1] - box[0]) * rng.random((size, d))
            want = count_distinct_permutations(
                _reference_perms(points, sites, metric)
            )
            assert result.hits_by_size[size] == want, size
        assert result.realizable_in_box == len(_reference_grid(
            sites, metric, [box] * d, RESOLUTION[d], 3
        ))


def test_empty_database_counts_nothing():
    sites = SYMMETRIC[2]
    curve = prefix_census_curve(np.empty((0, 2)), sites, MinkowskiMetric(2))
    assert curve == {m: 0 for m in range(1, 6)}
    assert count_distinct_prefixes(np.empty((0, 5), dtype=np.int64), 2) == 0


def test_prefix_heads_past_the_uint64_codes():
    # k = 22 sites: Lehmer codes are Python ints in an object array.
    rng = np.random.default_rng(9)
    points, sites = rng.random((500, 2)), rng.random((22, 2))
    metric = MinkowskiMetric(2)
    perms = _reference_perms(points, sites, metric)
    curve = prefix_census_curve(points, sites, metric)
    for m in (1, 2, 5, 21, 22):
        assert curve[m] == count_distinct_permutations(perms[:, :m]), m
