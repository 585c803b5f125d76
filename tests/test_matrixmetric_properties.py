"""Random finite metric spaces + library-wide property tests.

The paper's general-metric claim — "for any k there always exists a
metric space ... such that every permutation ... has some point" — makes
arbitrary finite metric spaces the right fuzz substrate: no vector or
string structure, only the axioms.  These tests sweep the library's core
invariants over shortest-path-closure metrics.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MatrixMetric,
    check_metric_axioms,
    is_permutation,
    kendall_tau,
    metric_closure,
    random_metric_space,
)

from repro.core.counting import tree_permutation_bound
from repro.core.permutation import (
    count_distinct_permutations,
    distance_permutations,
    spearman_footrule,
)
from repro.index import AESA, LinearScan, PivotIndex

seeds = st.integers(0, 10_000)
sizes = st.integers(3, 24)


class TestMetricClosure:
    @given(seeds, sizes)
    @settings(max_examples=60, deadline=None)
    def test_closure_is_a_metric(self, seed, n):
        space = random_metric_space(n, np.random.default_rng(seed))
        violation = check_metric_axioms(space, list(range(n)))
        assert violation is None, str(violation)

    @given(seeds, sizes)
    @settings(max_examples=40, deadline=None)
    def test_closure_below_input(self, seed, n):
        rng = np.random.default_rng(seed)
        raw = rng.random((n, n)) + 1e-3
        raw = 0.5 * (raw + raw.T)
        np.fill_diagonal(raw, 0.0)
        closed = metric_closure(raw)
        assert np.all(closed <= raw + 1e-12)

    def test_closure_idempotent(self, rng):
        raw = rng.random((10, 10)) + 1e-3
        raw = 0.5 * (raw + raw.T)
        np.fill_diagonal(raw, 0.0)
        once = metric_closure(raw)
        twice = metric_closure(once)
        np.testing.assert_allclose(once, twice)

    def test_closure_rejects_non_square(self):
        with pytest.raises(ValueError):
            metric_closure(np.zeros((2, 3)))

    def test_matrix_metric_validates(self):
        with pytest.raises(ValueError):
            MatrixMetric(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
        with pytest.raises(ValueError):
            MatrixMetric(np.array([[1.0, 1.0], [1.0, 0.0]]))  # diagonal
        with pytest.raises(ValueError):
            # Triangle violation: d(0,2) = 10 > 1 + 1.
            MatrixMetric(
                np.array(
                    [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
                )
            )

    def test_random_space_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_metric_space(1)


class TestPermutationInvariants:
    @given(seeds, st.integers(6, 20), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_census_bounded_by_factorial(self, seed, n, k):
        rng = np.random.default_rng(seed)
        space = random_metric_space(n, rng)
        sites = [int(i) for i in rng.choice(n, size=k, replace=False)]
        perms = distance_permutations(list(range(n)), sites, space)
        assert all(is_permutation(list(row)) for row in perms)
        assert count_distinct_permutations(perms) <= math.factorial(k)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_site_itself_ranks_first(self, seed):
        """Every site's own distance permutation starts with a
        zero-distance site (itself, modulo duplicate-distance ties to a
        lower index)."""
        rng = np.random.default_rng(seed)
        n, k = 12, 4
        space = random_metric_space(n, rng)
        sites = [int(i) for i in rng.choice(n, size=k, replace=False)]
        perms = distance_permutations(sites, sites, space)
        for rank, site_index in enumerate(sites):
            first = perms[rank][0]
            assert space.distance(sites[first], site_index) == 0.0

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_relabeling_sites_permutes_census(self, seed):
        """Renaming sites must not change the census size."""
        rng = np.random.default_rng(seed)
        n, k = 15, 5
        space = random_metric_space(n, rng)
        sites = [int(i) for i in rng.choice(n, size=k, replace=False)]
        shuffled = list(sites)
        rng.shuffle(shuffled)
        points = list(range(n))
        count_a = count_distinct_permutations(
            distance_permutations(points, sites, space)
        )
        count_b = count_distinct_permutations(
            distance_permutations(points, shuffled, space)
        )
        assert count_a == count_b


class TestPermutationMetricAxioms:
    """Footrule and Kendall tau are metrics on the permutation group —
    the structural fact behind using them as index orderings."""

    @given(st.permutations(list(range(6))), st.permutations(list(range(6))),
           st.permutations(list(range(6))))
    @settings(max_examples=100, deadline=None)
    def test_footrule_triangle(self, a, b, c):
        assert spearman_footrule(a, c) <= (
            spearman_footrule(a, b) + spearman_footrule(b, c)
        )

    @given(st.permutations(list(range(6))), st.permutations(list(range(6))),
           st.permutations(list(range(6))))
    @settings(max_examples=100, deadline=None)
    def test_kendall_triangle(self, a, b, c):
        assert kendall_tau(a, c) <= kendall_tau(a, b) + kendall_tau(b, c)

    @given(st.permutations(list(range(7))))
    @settings(max_examples=50, deadline=None)
    def test_identity_of_indiscernibles(self, a):
        assert spearman_footrule(a, a) == 0
        assert kendall_tau(a, a) == 0


class TestIndexesOnRandomSpaces:
    """Exactness holds with no geometric structure at all."""

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_pivot_index_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        space = random_metric_space(n, rng)
        points = list(range(n))
        oracle = LinearScan(points, space)
        index = PivotIndex(points, space, n_pivots=4,
                           rng=np.random.default_rng(seed + 1))
        query = int(rng.integers(0, n))
        for radius in (0.1, 0.5, 2.0):
            got = [(x.index, round(x.distance, 12))
                   for x in index.range_query(query, radius)]
            want = [(x.index, round(x.distance, 12))
                    for x in oracle.range_query(query, radius)]
            assert got == want

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_aesa_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        space = random_metric_space(n, rng)
        points = list(range(n))
        oracle = LinearScan(points, space)
        index = AESA(points, space)
        query = int(rng.integers(0, n))
        for k in (1, 5):
            got = sorted(round(x.distance, 12)
                         for x in index.knn_query(query, k))
            want = sorted(round(x.distance, 12)
                          for x in oracle.knn_query(query, k))
            assert got == want

    def test_tree_bound_on_metric_closure_of_tree(self, rng):
        """A tree metric passed through MatrixMetric keeps Theorem 4."""
        from repro.metrics import random_tree_metric

        n, k = 40, 5
        tree = random_tree_metric(n, rng=rng)
        matrix = np.array(
            [[tree.distance(u, v) for v in range(n)] for u in range(n)]
        )
        space = MatrixMetric(matrix)
        sites = [int(i) for i in rng.choice(n, size=k, replace=False)]
        perms = distance_permutations(list(range(n)), sites, space)
        assert count_distinct_permutations(perms) <= tree_permutation_bound(k)
