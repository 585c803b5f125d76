"""Tests for streaming and sample-based census estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimate import (
    StreamingCensus,
    chao1_estimate,
    sampled_census_estimate,
)
from repro.core.permutation import (
    count_distinct_permutations,
    distance_permutations,
)
from repro.datasets.vectors import uniform_vectors
from repro.metrics import EuclideanDistance


class TestStreamingCensus:
    def test_matches_batch_census(self, rng):
        points = uniform_vectors(5000, 3, rng)
        sites = points[:6]
        metric = EuclideanDistance()
        batch = distance_permutations(points, sites, metric)
        expected = count_distinct_permutations(batch)

        census = StreamingCensus()
        for start in range(0, 5000, 700):  # uneven chunks on purpose
            census.update_points(points[start : start + 700], sites, metric)
        assert census.distinct == expected
        assert census.total == 5000

    def test_update_accumulates(self):
        census = StreamingCensus()
        census.update(np.array([[0, 1], [1, 0]]))
        census.update(np.array([[0, 1], [0, 1]]))
        assert census.distinct == 2
        assert census.total == 4

    def test_frequency_of_frequencies(self):
        census = StreamingCensus()
        census.update(np.array([[0, 1], [0, 1], [0, 1], [1, 0]]))
        assert census.frequency_of_frequencies() == {3: 1, 1: 1}

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            StreamingCensus().update(np.array([0, 1, 2]))

    def test_empty_census(self):
        census = StreamingCensus()
        assert census.distinct == 0
        assert census.chao1() == 0.0

    def test_matches_dict_of_tuples_reference(self, rng):
        """The code-unique path must agree with the naive per-row dict on
        random permutation batches, including across mixed input dtypes."""
        census = StreamingCensus()
        reference = {}
        for dtype in (np.int8, np.int32, np.int64, np.intp):
            batch = rng.permuted(
                np.tile(np.arange(4), (200, 1)), axis=1
            ).astype(dtype)
            census.update(batch)
            for row in batch:
                key = tuple(int(v) for v in row)
                reference[key] = reference.get(key, 0) + 1
        assert census.distinct == len(reference)
        assert census.total == 800
        expected_fof = {}
        for count in reference.values():
            expected_fof[count] = expected_fof.get(count, 0) + 1
        assert census.frequency_of_frequencies() == expected_fof

    def test_rejects_out_of_range_rows(self):
        """Codes are only injective on permutations; out-of-range values
        must raise instead of silently colliding."""
        with pytest.raises(ValueError):
            StreamingCensus().update(np.array([[0, 5]]))
        with pytest.raises(ValueError):
            StreamingCensus().update(np.array([[-1, 0]]))

    def test_mixed_width_rejected(self):
        census = StreamingCensus()
        census.update(np.array([[0, 1]]))
        with pytest.raises(ValueError):
            census.update(np.array([[0, 1, 2]]))

    def test_mixed_coding_merge_rejected(self):
        lehmer, prefix = StreamingCensus(), StreamingCensus()
        lehmer.update(np.array([[0, 1]]))
        prefix.update_codes(np.array([0, 1], dtype=np.uint64), 2,
                            coding="prefix")
        with pytest.raises(ValueError):
            lehmer.merge(prefix)

    def test_empty_batch_is_noop(self):
        census = StreamingCensus()
        census.update(np.empty((0, 4), dtype=np.int64))
        assert census.distinct == 0
        assert census.total == 0

    def test_zero_width_permutations(self):
        census = StreamingCensus()
        census.update(np.empty((3, 0), dtype=np.int64))
        assert census.distinct == 1
        assert census.total == 3
        assert census.frequency_of_frequencies() == {3: 1}


class TestRestricted:
    def test_hand_computed_restriction(self):
        # Width-3 insertion codes 0, 5, 3, 5; width 2 divides by 3!/2! = 3.
        census = StreamingCensus()
        census.update_codes(
            np.array([0, 5, 3, 5], dtype=np.uint64), 3, coding="prefix"
        )
        narrow = census.restricted(2)
        assert (narrow.k, narrow.coding, narrow.total) == (2, "prefix", 4)
        assert narrow.codes.dtype == np.uint64
        assert narrow.counts.dtype == np.int64
        assert narrow.codes.tolist() == [0, 1]
        assert narrow.counts.tolist() == [1, 3]
        assert census.restricted(0).codes.tolist() == [0]
        assert census.restricted(0).counts.tolist() == [4]

    def test_rejects_lehmer_codes_and_wider_widths(self):
        lehmer = StreamingCensus()
        lehmer.update(np.array([[0, 1, 2], [2, 1, 0]]))
        with pytest.raises(ValueError, match="prefix"):
            lehmer.restricted(2)
        prefix = StreamingCensus()
        prefix.update_codes(
            np.array([0, 5, 3], dtype=np.uint64), 3, coding="prefix"
        )
        with pytest.raises(ValueError, match="width"):
            prefix.restricted(4)
        with pytest.raises(ValueError, match="width"):
            prefix.restricted(-1)

    def test_census_without_codes_restricts_to_an_empty_one(self):
        empty = StreamingCensus().restricted(3)
        assert (empty.k, empty.coding, empty.total, empty.distinct) == (
            None, None, 0, 0
        )
        with pytest.raises(ValueError):
            StreamingCensus().restricted(-1)

    def test_result_is_fresh_at_every_width(self):
        census = StreamingCensus()
        census.update_codes(
            np.array([1, 5, 3, 5], dtype=np.uint64), 3, coding="prefix"
        )
        codes, counts = census.codes.copy(), census.counts.copy()
        for j in (3, 2):
            out = census.restricted(j)
            assert not np.shares_memory(out.codes, census.codes)
            assert not np.shares_memory(out.counts, census.counts)
            out.codes[:] = 0
            out.counts[:] = -1
        np.testing.assert_array_equal(census.codes, codes)
        np.testing.assert_array_equal(census.counts, counts)


class TestChao1:
    def test_no_singletons_returns_observed(self):
        # Everything seen >= 3 times: the sample is saturated.
        assert chao1_estimate({3: 10, 5: 2}) == 12.0

    def test_classic_formula(self):
        # f1 = 4, f2 = 2: S = 10 + 16 / 4 = 14.
        assert chao1_estimate({1: 4, 2: 2, 3: 4}) == 14.0

    def test_bias_corrected_no_doubletons(self):
        # f1 = 3, f2 = 0: S = 3 + 3*2/2 = 6.
        assert chao1_estimate({1: 3}) == 6.0

    def test_at_least_observed(self, rng):
        for _ in range(20):
            fof = {
                int(occurrences): int(count)
                for occurrences, count in zip(
                    rng.integers(1, 6, size=4), rng.integers(0, 10, size=4)
                )
                if count > 0
            }
            observed = sum(fof.values())
            assert chao1_estimate(fof) >= observed

    def test_rejects_negative_observed(self):
        with pytest.raises(ValueError):
            chao1_estimate({1: 1}, observed=-1)


class TestSampledEstimate:
    def test_full_sample_is_exact(self, rng):
        points = uniform_vectors(2000, 2, rng)
        sites = points[:5]
        metric = EuclideanDistance()
        result = sampled_census_estimate(points, sites, metric, 2000, rng)
        exact = count_distinct_permutations(
            distance_permutations(points, sites, metric)
        )
        assert result.observed == exact
        assert result.chao1 >= exact

    def test_sample_lower_bounds_population(self, rng):
        points = uniform_vectors(20_000, 3, rng)
        sites = points[rng.choice(20_000, size=7, replace=False)]
        metric = EuclideanDistance()
        exact = count_distinct_permutations(
            distance_permutations(points, sites, metric)
        )
        result = sampled_census_estimate(points, sites, metric, 2000, rng)
        assert result.observed <= exact
        # Chao1 extrapolates toward (not wildly past) the truth.
        assert result.observed <= result.chao1 <= 5 * exact

    def test_chao1_improves_on_observed(self, rng):
        """On an undersampled census the extrapolation must close part of
        the gap to the true count."""
        points = uniform_vectors(30_000, 4, rng)
        sites = points[rng.choice(30_000, size=8, replace=False)]
        metric = EuclideanDistance()
        exact = count_distinct_permutations(
            distance_permutations(points, sites, metric)
        )
        result = sampled_census_estimate(points, sites, metric, 1500, rng)
        if result.observed < exact:  # undersampled, as intended
            assert result.chao1 > result.observed

    def test_rejects_bad_sample_size(self, rng):
        points = uniform_vectors(10, 2, rng)
        with pytest.raises(ValueError):
            sampled_census_estimate(points, points[:2], EuclideanDistance(), 11)
        with pytest.raises(ValueError):
            sampled_census_estimate(points, points[:2], EuclideanDistance(), 0)
