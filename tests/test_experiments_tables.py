"""Tests for the table-regeneration harnesses."""

from __future__ import annotations

import math

import pytest

from repro.core.counting import PAPER_TABLE1, tree_permutation_bound
from repro.experiments import (
    format_table,
    format_table1,
    format_table2,
    format_table3,
    generate_table1,
    permutation_count_trials,
    table2_rows,
    table3_rows,
)
from repro.metrics import EuclideanDistance
from repro.parallel.census import sharded_census


class TestHarness:
    def test_unique_count(self, rng):
        points = rng.random((100, 2))
        sites = rng.random((4, 2))
        censuses, _ = sharded_census(points, sites, EuclideanDistance())
        count = censuses[len(sites)].distinct
        assert 1 <= count <= 24

    def test_trials_mean_max_consistent(self, rng):
        points = rng.random((300, 2))
        result = permutation_count_trials(
            points, EuclideanDistance(), k=4, n_trials=6, rng=rng
        )
        assert len(result.counts) == 6
        assert result.min <= result.mean <= result.max

    def test_trials_reject_bad_k(self, rng):
        with pytest.raises(ValueError):
            permutation_count_trials(rng.random((10, 2)), EuclideanDistance(), k=1)
        with pytest.raises(ValueError):
            permutation_count_trials(rng.random((10, 2)), EuclideanDistance(), k=11)

    def test_trials_reject_no_trials(self, rng):
        with pytest.raises(ValueError, match="n_trials"):
            permutation_count_trials(
                rng.random((10, 2)), EuclideanDistance(), k=3, n_trials=0
            )

    def test_format_table_alignment(self):
        text = format_table(["a", "b"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len(set(len(line) for line in lines)) == 1


class TestTable1:
    def test_regenerates_paper_exactly(self):
        """Table 1 is pure combinatorics: all 110 entries must match."""
        assert generate_table1() == PAPER_TABLE1

    def test_format_contains_signature_values(self):
        text = format_table1()
        assert "392085" in text  # d=4, k=12
        assert "439084800" in text  # d=10, k=12

    def test_custom_ranges(self):
        table = generate_table1(dims=[2], ks=[3, 4])
        assert table == {2: {3: 6, 4: 18}}


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        # Two cheap databases keep this fast while exercising both string
        # and vector code paths.
        return table2_rows(names=["long", "nasa"], n=400, rho_pairs=300)

    def test_row_metadata(self, rows):
        assert [row.name for row in rows] == ["long", "nasa"]
        assert all(row.n == 400 for row in rows)
        assert all(row.paper_n > 0 for row in rows)

    def test_counts_monotone_in_k(self, rows):
        """Nested site prefixes can only add permutations."""
        for row in rows:
            counts = [row.counts[k] for k in sorted(row.counts)]
            assert counts == sorted(counts)

    def test_counts_bounded(self, rows):
        for row in rows:
            for k, count in row.counts.items():
                assert 1 <= count <= min(row.n, math.factorial(k))

    def test_rho_positive(self, rows):
        assert all(row.rho > 0 for row in rows)

    def test_format(self, rows):
        text = format_table2(rows)
        assert "long" in text and "nasa" in text
        assert "k=12" in text

    def test_deterministic(self):
        a = table2_rows(names=["nasa"], n=200, rho_pairs=100)
        b = table2_rows(names=["nasa"], n=200, rho_pairs=100)
        assert a[0].counts == b[0].counts


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3_rows(
            dims=(1, 2), ks=(4, 8), n_points=3000, n_runs=3, seed=7
        )

    def test_row_grid(self, rows):
        assert len(rows) == 6  # 3 metrics x 2 dims
        assert {row.d for row in rows} == {1, 2}

    def test_d1_matches_tree_bound_exactly(self, rows):
        """On the line, N_{1,p}(k) = C(k,2) + 1 for every p; with 3000
        points the bound is hit and mean == max."""
        for row in rows:
            if row.d != 1:
                continue
            for k in (4, 8):
                assert row.max_counts[k] == tree_permutation_bound(k)

    def test_mean_at_most_max(self, rows):
        for row in rows:
            for k in row.mean_counts:
                assert row.mean_counts[k] <= row.max_counts[k]

    def test_k4_saturation_regime(self, rows):
        for row in rows:
            assert row.max_counts[4] <= 24

    def test_counts_grow_with_k(self, rows):
        for row in rows:
            assert row.mean_counts[4] <= row.mean_counts[8]

    def test_format(self, rows):
        text = format_table3(rows, ks=(4, 8))
        assert "Linf" in text
        assert "mean k=8" in text

    def test_metric_names(self, rows):
        assert {row.metric_name for row in rows} == {"L1", "L2", "Linf"}
