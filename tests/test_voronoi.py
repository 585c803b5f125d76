"""Tests for bisector systems and cell counting."""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.counting import euclidean_permutation_count
from repro.core.voronoi import (
    count_euclidean_cells_exact,
    count_order_cells_grid,
    realized_permutations_euclidean_exact,
    realized_permutations_grid,
)
from repro.metrics import (
    CityblockDistance,
    EuclideanDistance,
)


class TestExactEuclideanCensus:
    def test_two_sites_two_cells(self, rng):
        sites = rng.random((2, 2))
        assert count_euclidean_cells_exact(sites) == 2

    def test_collinear_sites_on_line(self):
        sites = np.array([[0.0], [1.0], [3.0]])
        # 1-d, 3 sites: C(3,2) + 1 = 4 cells.
        assert count_euclidean_cells_exact(sites) == 4

    def test_generic_plane_sites_hit_maximum(self):
        rng = np.random.default_rng(32)
        sites = rng.random((4, 2))
        assert count_euclidean_cells_exact(sites) == 18

    def test_never_exceeds_theorem7(self, rng):
        for trial in range(5):
            k = int(rng.integers(3, 6))
            d = int(rng.integers(1, 4))
            sites = rng.random((k, d))
            count = count_euclidean_cells_exact(sites)
            assert count <= euclidean_permutation_count(d, k)

    def test_square_is_degenerate(self):
        """Four cocircular sites have coincident bisector intersections and
        realize strictly fewer than 18 cells."""
        sites = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert count_euclidean_cells_exact(sites) < 18

    def test_every_returned_permutation_is_valid(self, rng):
        sites = rng.random((4, 3))
        perms = realized_permutations_euclidean_exact(sites)
        for perm in perms:
            assert sorted(perm) == list(range(4))

    def test_rejects_large_k(self, rng):
        with pytest.raises(ValueError):
            realized_permutations_euclidean_exact(rng.random((9, 2)))

    def test_high_dim_all_factorial(self, rng):
        """d >= k - 1 generic sites realize all k! permutations (Thm 6)."""
        sites = rng.random((4, 3))
        assert count_euclidean_cells_exact(sites) == 24


class TestGridCensus:
    def test_grid_subset_of_exact(self, rng):
        sites = rng.random((4, 2))
        exact = realized_permutations_euclidean_exact(sites)
        grid = realized_permutations_grid(
            sites, EuclideanDistance(), resolution=128, max_refinements=1
        )
        assert grid <= exact

    def test_grid_converges_to_exact_generic(self):
        rng = np.random.default_rng(32)
        sites = rng.random((4, 2))
        exact = realized_permutations_euclidean_exact(sites)
        grid = realized_permutations_grid(
            sites, EuclideanDistance(), resolution=384, max_refinements=2
        )
        assert grid == exact

    def test_l1_counterexample_exceeds_euclidean(self):
        """The Eq. 12 sites must beat N_{3,2}(5) = 96 on a grid census."""
        from repro.experiments.counterexample import PAPER_COUNTEREXAMPLE_SITES

        count = len(realized_permutations_grid(
            PAPER_COUNTEREXAMPLE_SITES,
            CityblockDistance(),
            bounds=[(0.0, 1.0)] * 3,
            resolution=96,
            max_refinements=1,
        ))
        assert count > 96

    def test_explicit_bounds_respected(self, rng):
        sites = rng.random((3, 2))
        inside = realized_permutations_grid(
            sites,
            EuclideanDistance(),
            bounds=[(0.4, 0.6), (0.4, 0.6)],
            resolution=64,
            max_refinements=0,
        )
        everywhere = realized_permutations_grid(
            sites, EuclideanDistance(), resolution=256, max_refinements=1
        )
        assert inside <= everywhere

    def test_one_dimensional_grid(self):
        sites = np.array([[0.0], [0.3], [0.9]])
        count = len(realized_permutations_grid(
            sites, EuclideanDistance(), resolution=512
        ))
        assert count == 4  # C(3,2) + 1 on the line


class TestOrderCells:
    def test_order1_is_site_count_for_generic_sites(self):
        rng = np.random.default_rng(32)
        sites = rng.random((4, 2))
        assert count_order_cells_grid(
            sites, EuclideanDistance(), order=1, resolution=256
        ) == 4

    def test_order2_at_least_order1(self):
        rng = np.random.default_rng(32)
        sites = rng.random((4, 2))
        order1 = count_order_cells_grid(
            sites, EuclideanDistance(), order=1, resolution=256
        )
        order2 = count_order_cells_grid(
            sites, EuclideanDistance(), order=2, resolution=256
        )
        assert order2 >= order1

    def test_full_order_bounded_by_cells(self):
        rng = np.random.default_rng(32)
        sites = rng.random((4, 2))
        # order = k counts unordered k-subsets: always 1.
        assert count_order_cells_grid(
            sites, EuclideanDistance(), order=4, resolution=64
        ) == 1

    def test_rejects_bad_order(self, rng):
        sites = rng.random((3, 2))
        with pytest.raises(ValueError):
            count_order_cells_grid(sites, EuclideanDistance(), order=0)
        with pytest.raises(ValueError):
            count_order_cells_grid(sites, EuclideanDistance(), order=4)
