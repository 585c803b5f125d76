"""Tests for truncated distance permutations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import count_distinct_prefixes, truncate_permutations

from repro.core.counting import euclidean_permutation_count
from repro.core.permutation import permutations_from_distances
from repro.core.truncated import prefix_census_curve, prefix_storage_bits
from repro.datasets.vectors import uniform_vectors
from repro.metrics import EuclideanDistance


@pytest.fixture
def perms(rng):
    distances = rng.random((400, 6))
    return permutations_from_distances(distances)


class TestTruncation:
    def test_shapes(self, perms):
        assert truncate_permutations(perms, 1).shape == (400, 1)
        assert truncate_permutations(perms, 6).shape == (400, 6)

    def test_rejects_bad_m(self, perms):
        with pytest.raises(ValueError):
            truncate_permutations(perms, 0)
        with pytest.raises(ValueError):
            truncate_permutations(perms, 7)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            truncate_permutations(np.arange(5), 2)

    def test_prefix_is_prefix(self, perms):
        np.testing.assert_array_equal(
            truncate_permutations(perms, 3), perms[:, :3]
        )


class TestCounting:
    def test_m1_counts_nearest_sites(self, perms):
        count = count_distinct_prefixes(perms, 1)
        assert 1 <= count <= 6

    def test_monotone_in_m(self, perms):
        counts = [count_distinct_prefixes(perms, m) for m in range(1, 7)]
        assert counts == sorted(counts)

    def test_last_position_is_free(self, perms):
        """The (k-1)-prefix determines the full permutation, so the
        censuses at m = k-1 and m = k coincide."""
        assert count_distinct_prefixes(perms, 5) == count_distinct_prefixes(
            perms, 6
        )

    def test_full_prefix_bounded_by_unrestricted(self, perms):
        for m in range(1, 7):
            assert count_distinct_prefixes(perms, m) <= math.perm(6, m)

    def test_storage_bits(self):
        assert prefix_storage_bits(1) == 0
        assert prefix_storage_bits(30) == 5


class TestCensusCurve:
    def test_curve_on_uniform_data(self, rng):
        points = uniform_vectors(5000, 2, rng)
        sites = points[rng.choice(5000, size=8, replace=False)]
        curve = prefix_census_curve(points, sites, EuclideanDistance())
        assert set(curve) == set(range(1, 9))
        values = [curve[m] for m in range(1, 9)]
        assert values == sorted(values)
        # m = 1 counts order-1 Voronoi cells: all 8 sites own a cell.
        assert curve[1] == 8
        # Full-length census respects Theorem 7.
        assert curve[8] <= euclidean_permutation_count(2, 8)
        # Low-dimensional saturation: most information arrives early
        # ("once we have about twice as many sites as dimensions, there is
        # little value in adding more").
        assert curve[5] >= 0.7 * curve[8]

    def test_curve_last_two_equal(self, rng):
        points = uniform_vectors(2000, 3, rng)
        sites = points[rng.choice(2000, size=6, replace=False)]
        curve = prefix_census_curve(points, sites, EuclideanDistance())
        assert curve[5] == curve[6]

    def test_prefix_bits_below_full_bits(self, rng):
        """Truncation's storage payoff: fewer realized prefixes, fewer
        bits."""
        points = uniform_vectors(5000, 4, rng)
        sites = points[rng.choice(5000, size=10, replace=False)]
        curve = prefix_census_curve(points, sites, EuclideanDistance())
        assert prefix_storage_bits(curve[3]) < prefix_storage_bits(curve[10])
