"""Per-index behaviour beyond the shared exactness contract."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimate import StreamingCensus
from repro.core.permutation import (
    compact_footrule_dtype,
    count_distinct_permutations,
    decode_permutations,
    distance_permutations,
    footrule_matrix_batch,
    permutation_positions,
    spearman_footrule,
)
from repro.index import (
    AESA,
    DistPermIndex,
    IAESA,
    LinearScan,
    PivotIndex,
    VPTree,
)
from repro.index import distperm
from repro.index.batching import scan_knn, take_points, top_k_arrays
from repro.index.distperm import _budget_candidates
from repro.index.pivots import select_pivots
from repro.index.serialize import load_distperm, save_distperm
from repro.metrics import EuclideanDistance, LevenshteinDistance
from repro.parallel.census import sharded_census


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(11)
    return rng.random((400, 4))


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(12).random((10, 4))


class TestPivotSelection:
    def test_first_strategy(self, database):
        assert select_pivots(database, EuclideanDistance(), 3, "first") == [0, 1, 2]

    def test_random_strategy_distinct(self, database):
        pivots = select_pivots(
            database, EuclideanDistance(), 10, "random",
            rng=np.random.default_rng(0),
        )
        assert len(set(pivots)) == 10

    def test_maxmin_spreads_pivots(self, database):
        """maxmin pivots should be farther apart than random ones."""
        metric = EuclideanDistance()
        maxmin = select_pivots(
            database, metric, 5, "maxmin", rng=np.random.default_rng(1)
        )
        random = select_pivots(
            database, metric, 5, "random", rng=np.random.default_rng(1)
        )

        def min_gap(indices):
            pts = database[indices]
            gaps = metric.pairwise(pts)
            return gaps[gaps > 0].min()

        assert min_gap(maxmin) >= min_gap(random)

    def test_rejects_bad_arguments(self, database):
        with pytest.raises(ValueError):
            select_pivots(database, EuclideanDistance(), 0)
        with pytest.raises(ValueError):
            select_pivots(database, EuclideanDistance(), 3, "mystery")


class TestSearchCost:
    def test_pivot_index_prunes(self, database, queries):
        """LAESA must evaluate far fewer distances than a linear scan for
        small radii."""
        metric = EuclideanDistance()
        index = PivotIndex(database, metric, n_pivots=12,
                           rng=np.random.default_rng(2))
        index.reset_stats()
        for query in queries:
            index.range_query(query, 0.1)
        assert index.stats.distances_per_query < 0.7 * len(database)

    def test_aesa_cheaper_than_laesa_on_knn(self, database, queries):
        """The storage-for-search trade: AESA's full matrix buys fewer
        evaluations per query than the pivot table."""
        metric = EuclideanDistance()
        aesa = AESA(database, metric)
        laesa = PivotIndex(database, metric, n_pivots=8,
                           rng=np.random.default_rng(3))
        for index in (aesa, laesa):
            index.reset_stats()
            for query in queries:
                index.knn_query(query, 1)
        assert aesa.stats.distances_per_query < laesa.stats.distances_per_query

    def test_aesa_build_cost_is_quadratic(self, database):
        metric = EuclideanDistance()
        aesa = AESA(database[:100], metric)
        assert aesa.stats.build_distances == 100 * 99 // 2

    def test_laesa_build_cost_linear_in_pivots(self, database):
        metric = EuclideanDistance()
        index = PivotIndex(database[:100], metric, n_pivots=4)
        assert index.stats.build_distances == 100 * 4

    def test_laesa_table_is_the_maxmin_selection(self, database):
        """The build's only evaluations are the maxmin selection's
        columns: ``n * n_pivots`` of them, and the pivots are the ones
        ``select_pivots`` draws from the same seed."""
        metric = EuclideanDistance()
        index = PivotIndex(database, metric, n_pivots=8,
                           rng=np.random.default_rng(9))
        assert index.stats.build_distances == len(database) * 8
        assert index.pivot_indices == select_pivots(
            database, metric, 8, "maxmin", np.random.default_rng(9)
        )
        pivots = [database[i] for i in index.pivot_indices]
        np.testing.assert_allclose(
            index.table, metric.matrix(database, pivots), rtol=0, atol=1e-12
        )

    def test_iaesa_competitive_with_aesa(self, database, queries):
        """iAESA's permutation-based pivot choice stays in AESA's cost
        regime.  Figueroa et al. report it beating AESA on average; on
        these uniform vectors it spends more, within 2x."""
        metric = EuclideanDistance()
        aesa = AESA(database, metric)
        iaesa = IAESA(database, metric)
        for index in (aesa, iaesa):
            index.reset_stats()
            for query in queries:
                index.knn_query(query, 1)
        assert iaesa.stats.distances_per_query <= 2.0 * aesa.stats.distances_per_query

    def test_vptree_prunes_on_small_radius(self, database, queries):
        metric = EuclideanDistance()
        tree = VPTree(database, metric, rng=np.random.default_rng(4))
        tree.reset_stats()
        for query in queries:
            tree.range_query(query, 0.05)
        assert tree.stats.distances_per_query < 0.9 * len(database)


class TestDistPermIndex:
    def test_census_matches_core_function(self, database):
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=6,
                              rng=np.random.default_rng(5))
        sites = [database[i] for i in index.site_indices]
        perms = distance_permutations(database, sites, metric)
        assert index.unique_permutations() == count_distinct_permutations(perms)

    def test_distinct_set_size_matches_count(self, database):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=5,
                              rng=np.random.default_rng(6))
        assert len(index.distinct_permutation_set()) == index.unique_permutations()

    def test_explicit_sites(self, database):
        index = DistPermIndex(
            database, EuclideanDistance(), site_indices=[0, 10, 20]
        )
        assert index.site_indices == [0, 10, 20]
        assert index.n_sites == 3

    def test_ids_reconstruct_permutations(self, database):
        """The census is Corollary 8's table: ids into its sorted codes
        rebuild every stored permutation, and count its multiplicities."""
        index = DistPermIndex(database, EuclideanDistance(), n_sites=5,
                              rng=np.random.default_rng(7))
        census = index.census()
        ids = np.searchsorted(census.codes, index.codes)
        table = decode_permutations(census.codes, index.n_sites)
        np.testing.assert_array_equal(table[ids], index.permutations)
        np.testing.assert_array_equal(np.bincount(ids), census.counts)
        np.testing.assert_array_equal(
            index._perm_positions, permutation_positions(index.permutations)
        )

    def test_storage_report_uses_measured_census(self, database):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(8))
        report = index.storage()
        assert report.realized_permutations == index.unique_permutations()
        assert report.n == len(database)

    def test_full_budget_approx_equals_exact(self, database, queries):
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=8,
                              rng=np.random.default_rng(9))
        exact = sorted(
            round(n.distance, 9) for n in index.knn_query(queries[0], 5)
        )
        approx = sorted(
            round(n.distance, 9)
            for n in index.knn_approx(queries[0], 5, budget=len(database))
        )
        assert exact == approx

    def test_budget_caps_evaluations(self, database, queries):
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=8,
                              rng=np.random.default_rng(10))
        index.reset_stats()
        index.knn_approx(queries[0], 5, budget=50)
        # 50 candidates + k site distances for the query permutation.
        assert index.stats.query_distances <= 50 + index.n_sites

    def test_candidate_order_puts_nearby_first(self, database):
        """The proximity-preserving order: the budgeted prefix should have
        better recall than a random prefix of the same size."""
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=10,
                              rng=np.random.default_rng(11))
        rng = np.random.default_rng(12)
        hits_perm = 0
        hits_random = 0
        budget = 60
        for _ in range(10):
            query = rng.random(4)
            oracle = LinearScan(database, metric)
            true_ids = {n.index for n in oracle.knn_query(query, 10)}
            order = index.candidate_order(query)[:budget]
            hits_perm += len(true_ids & {int(i) for i in order})
            random_ids = rng.choice(len(database), size=budget, replace=False)
            hits_random += len(true_ids & {int(i) for i in random_ids})
        assert hits_perm > hits_random

    def test_recall_improves_with_budget(self, database):
        metric = EuclideanDistance()
        index = DistPermIndex(database, metric, n_sites=10,
                              rng=np.random.default_rng(13))
        oracle = LinearScan(database, metric)
        rng = np.random.default_rng(14)
        recalls = []
        for budget in (20, 100, 400):
            hits = 0
            for i in range(8):
                query = rng.random(4)
                truth = {n.index for n in oracle.knn_query(query, 5)}
                got = {n.index for n in index.knn_approx(query, 5, budget=budget)}
                hits += len(truth & got)
            recalls.append(hits)
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[-1] == 8 * 5  # full budget = exact

    def test_rejects_zero_sites(self, database):
        with pytest.raises(ValueError):
            DistPermIndex(database, EuclideanDistance(), n_sites=0)


def _stable_prefix(footrules: np.ndarray, budget: int) -> np.ndarray:
    """Reference for ``_budget_candidates``: the stable-argsort prefix,
    strictly-below-boundary entries by index, then boundary ties by index
    (everything, in index order, once the budget covers the row)."""
    if budget >= footrules.shape[0]:
        return np.arange(footrules.shape[0])
    prefix = np.argsort(footrules, kind="stable")[: max(budget, 0)]
    if prefix.size == 0:
        return prefix
    boundary = footrules[prefix[-1]]
    values = footrules[prefix]
    return np.concatenate(
        [np.sort(prefix[values < boundary]), prefix[values == boundary]]
    )


def _property_row(shape, rng, n, dtype, stride):
    """Rows that put the budget boundary everywhere a guess can miss."""
    top = min(np.iinfo(dtype).max, 70_000)
    if shape == "spread":
        row = rng.integers(0, top + 1, size=n)
    elif shape == "few_values":
        row = rng.integers(0, 4, size=n) + rng.integers(0, top - 2)
    elif shape == "all_equal":
        row = np.full(n, rng.integers(0, top + 1))
    elif shape == "boundary_at_zero":
        row = np.where(rng.random(n) < 0.8, 0, rng.integers(0, top + 1, size=n))
    elif shape == "boundary_at_max":
        row = np.where(rng.random(n) < 0.8, top, rng.integers(0, top + 1, size=n))
    elif shape in ("sorted", "sorted_descending"):
        # A strided sample of a sorted row sees every value in its own
        # proportion only up to a stride: the guess lands a value off.
        row = np.sort(rng.integers(0, rng.integers(1, top + 1) + 1, size=n))
        row = row[::-1] if shape == "sorted_descending" else row
    else:  # "sample_lies": the strided sample sees only the extreme value
        seen, rest = (0, top) if shape == "sample_lies_low" else (top, 0)
        row = np.full(n, rest)
        row[::stride] = seen
    return row.astype(dtype)


class TestBudgetCandidates:
    """Guess-and-settle selection (1- and 2-byte rows) and argpartition
    (wider) must both return the exact stable-argsort prefix."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]),
        shape=st.sampled_from([
            "spread", "few_values", "all_equal", "boundary_at_zero",
            "boundary_at_max", "sample_lies_low", "sample_lies_high",
            "sorted", "sorted_descending",
        ]),
        sample=st.sampled_from([1, 5, 64, 4096]),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_is_the_stable_argsort_prefix_whatever_the_sample_says(
        self, seed, dtype, shape, sample, data
    ):
        n = data.draw(st.integers(1, 600))
        budget = data.draw(
            st.sampled_from([0, 1, n - 1, n, n + 1]) | st.integers(0, n + 5)
        )
        # The mask comes from a workspace, fresh or left larger by a
        # longer row, or is allocated per call.
        workspace = data.draw(st.sampled_from([None, {}, {"mask": np.ones(
            700, dtype=np.bool_)}]))
        # A sample of 1 leaves n below the stride; 4096 samples every
        # entry of these rows, so the guess is exact; in between, the
        # guess is off and the settle loop has to walk.
        stride = max(1, n // sample)
        row = _property_row(
            shape, np.random.default_rng(seed), n, dtype, stride
        )
        with mock.patch.object(distperm, "_BOUNDARY_SAMPLE", sample):
            got = _budget_candidates(row, budget, workspace)
        np.testing.assert_array_equal(got, _stable_prefix(row, budget))
        assert got.dtype.kind == "i"

    def test_ties_come_from_a_prefix_that_grows_on_a_shortfall(self):
        # All boundary ties sit at the far end of the row, so the prefix
        # sized from their density finds none and has to double to n.
        n = 50_000
        row = np.full(n, 9, dtype=np.uint8)
        row[:100] = 1
        row[-600:] = 5
        got = _budget_candidates(row, 110)
        np.testing.assert_array_equal(got, _stable_prefix(row, 110))
        np.testing.assert_array_equal(got[100:], np.arange(n - 600, n - 590))

    ROWS = {
        "random": lambda rng, top: rng.integers(0, top + 1, size=500),
        "few_values": lambda rng, top: rng.integers(0, 3, size=500) * (top // 2),
        "all_equal": lambda rng, top: np.full(500, top),
        "all_zero": lambda rng, top: np.zeros(500, dtype=np.int64),
        "descending": lambda rng, top: np.linspace(top, 0, 500).astype(np.int64),
        "one_low": lambda rng, top: np.r_[np.full(499, top), 0],
    }

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    @pytest.mark.parametrize("shape", sorted(ROWS))
    def test_matches_stable_argsort_prefix(self, dtype, shape):
        top = min(np.iinfo(dtype).max, 70_000)
        row = self.ROWS[shape](np.random.default_rng(5), top).astype(dtype)
        for budget in (-3, 0, 1, 2, 17, 250, 499, 500, 501, 10_000):
            got = _budget_candidates(row, budget)
            np.testing.assert_array_equal(
                got, _stable_prefix(row, budget), err_msg=f"budget={budget}"
            )
            assert got.dtype.kind == "i"

    def test_a_guess_too_high_resolves_inside_the_strict_subset(self):
        # A one-entry sample sees row[0] = 0.  Past the hundred zeros the
        # guess moves on to the dtype's maximum, where the strict subset
        # is the whole row and its histogram finds the boundary.
        row = np.full(20_000, 9, dtype=np.uint8)
        row[:900] = np.arange(900) % 9
        with mock.patch.object(distperm, "_BOUNDARY_SAMPLE", 1):
            for budget in (1, 99, 100, 101, 555, 899):
                np.testing.assert_array_equal(
                    _budget_candidates(row, budget, {}),
                    _stable_prefix(row, budget),
                )

    def test_per_row_budgets_of_zero_stay_empty(self, database, queries):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=8,
                              rng=np.random.default_rng(31))
        budgets = np.array([0, 40, 0, 7] + [0] * (len(queries) - 4))
        arrays = index.knn_approx_batch_arrays(queries, 5, budget=budgets)
        np.testing.assert_array_equal(
            np.diff(arrays.offsets), np.minimum(budgets, 5)
        )


def smallest_k_indices(values, k, ids=None):
    """One row of :func:`top_k_arrays`, as positions into ``values``."""
    names = np.arange(len(values)) if ids is None else np.asarray(ids)
    picked = top_k_arrays(values[None, :], k, names[None, :]).indices
    order = np.argsort(names)
    return order[np.searchsorted(names, picked, sorter=order)]


class TestRefineTopK:
    """The batched top-k with an id tiebreak is the refine step's
    ``np.lexsort((candidates, distances))[:k]`` without the full sort."""

    @given(
        values=st.lists(st.integers(0, 6), min_size=1, max_size=60),
        k=st.integers(1, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_lexsort(self, values, k, seed):
        distances = np.asarray(values, dtype=np.float64) / 2
        ids = np.random.default_rng(seed).permutation(10 * len(values))[
            : len(values)
        ]
        np.testing.assert_array_equal(
            smallest_k_indices(distances, k, ids),
            np.lexsort((ids, distances))[:k],
        )
        np.testing.assert_array_equal(
            smallest_k_indices(distances, k),
            np.lexsort((np.arange(len(values)), distances))[:k],
        )

    def test_nan_distances_sort_last_as_in_lexsort(self):
        distances = np.array([2.0, np.nan, 1.0, np.nan, 1.0, 3.0])
        ids = np.array([5, 4, 3, 2, 1, 0])
        for k in range(1, 8):
            np.testing.assert_array_equal(
                smallest_k_indices(distances, k, ids),
                np.lexsort((ids, distances))[:k],
            )

    def test_levenshtein_candidates_where_ties_are_the_norm(self, small_words):
        words = [w + s for s in ("", "s", "ed") for w in small_words]
        metric = LevenshteinDistance()
        index = DistPermIndex(words, metric, n_sites=5, site_strategy="first")
        queries = ["helps", "wardens", "gen", "core", "xyzzy"]
        footrules = index._footrules_matrix(index.query_permutations(queries))
        for query, row in zip(queries, footrules.copy()):
            candidates = _budget_candidates(row, 25)
            # Gathered strict-then-ties: not sorted by id.
            assert np.any(np.diff(candidates) < 0)
            distances = metric.batch_distances(
                [query], take_points(words, candidates)
            )[0]
            assert np.unique(distances).shape[0] < distances.shape[0] // 2
            for k in (1, 3, 10, 24, 25, 26, 100):
                order = smallest_k_indices(distances, k, candidates)
                np.testing.assert_array_equal(
                    order, np.lexsort((candidates, distances))[:k]
                )
            got = index.knn_approx(query, 10, budget=25)
            order = np.lexsort((candidates, distances))[:10]
            assert [n.index for n in got] == candidates[order].tolist()
            assert [n.distance for n in got] == distances[order].tolist()


class TestDistPermNarrowFootrules:
    """Every consumer of the narrow footrule rows agrees with int64 math."""

    @pytest.fixture(scope="class")
    def index(self, database):
        return DistPermIndex(database, EuclideanDistance(), n_sites=12,
                             rng=np.random.default_rng(32))

    def _reference(self, index, queries):
        """int64 footrules straight from the scalar definition."""
        stored = index.permutations
        return np.array([
            [spearman_footrule(p, q) for p in stored]
            for q in index.query_permutations(queries)
        ])

    def test_footrules_matrix_is_narrow_and_exact(self, index, queries):
        footrules = index._footrules_matrix(index.query_permutations(queries))
        assert footrules.dtype == compact_footrule_dtype(12) == np.uint8
        np.testing.assert_array_equal(
            footrules, self._reference(index, queries)
        )

    def test_candidate_order_is_full_stable_order(self, index, queries):
        reference = self._reference(index, queries[:3])
        for query, row in zip(queries[:3], reference):
            np.testing.assert_array_equal(
                index.candidate_order(query), np.argsort(row, kind="stable")
            )

    def test_single_query_scan_equals_sorted_prefix_scan(self, index, queries):
        for budget in (5, 60, len(index.points)):
            for query in queries[:4]:
                order = index.candidate_order(query)[:budget]
                expected = sorted(scan_knn(
                    EuclideanDistance(), query, index.points, 5, indices=order
                ))
                got = index.knn_approx(query, 5, budget=budget)
                # Candidate set and tie-break by index are exact; the
                # distances come from the vectorized kernel, not the
                # scalar formula scan_knn uses.
                assert [n.index for n in got] == [n.index for n in expected]
                np.testing.assert_allclose(
                    [n.distance for n in got],
                    [n.distance for n in expected], rtol=1e-12, atol=0,
                )

    @pytest.mark.parametrize("limit", [0, 1, 25, 399, 400, 1000])
    def test_query_footrules_columns_are_byte_identical(
        self, index, queries, limit
    ):
        wide = footrule_matrix_batch(
            index.permutations, index.query_permutations(queries)
        )
        assert wide.dtype == np.int64
        kept = min(limit, wide.shape[1])
        expected = (
            np.sort(wide, axis=1)[:, :kept]
            - wide.mean(axis=1, keepdims=True)
        )
        got = index.query_footrules(queries, limit)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        # ... and to the partition + sort over the narrow matrix that the
        # histogram read-off replaced.
        narrow = index._footrules_matrix(index.query_permutations(queries))
        if 0 < kept < narrow.shape[1]:
            smallest = np.partition(narrow, kept - 1, axis=1)[:, :kept]
        else:
            smallest = narrow[:, :kept]
        replaced = (
            np.sort(smallest, axis=1) - narrow.mean(axis=1, keepdims=True)
        )
        assert got.tobytes() == replaced.tobytes()


class TestDistPermAddPoints:
    """Incremental append must equal a fresh build over the same sites."""

    def _assert_equivalent(self, grown, fresh):
        np.testing.assert_array_equal(grown.codes, fresh.codes)
        grown_census, fresh_census = grown.census(), fresh.census()
        np.testing.assert_array_equal(grown_census.codes, fresh_census.codes)
        np.testing.assert_array_equal(
            grown_census.counts, fresh_census.counts
        )
        np.testing.assert_array_equal(
            grown._perm_positions, fresh._perm_positions
        )
        assert grown._perm_positions.dtype == fresh._perm_positions.dtype
        # Column-major on both: every site's ranks are one contiguous
        # row of the footrule kernel (axis-0 concatenate would lose it).
        assert grown._perm_positions.flags.f_contiguous
        assert fresh._perm_positions.flags.f_contiguous

    def test_vectors_match_fresh_build(self, database):
        old, new = database[:300], database[300:]
        index = DistPermIndex(old, EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(21))
        index.add_points(new)
        fresh = DistPermIndex(database, EuclideanDistance(),
                              site_indices=index.site_indices)
        assert len(index.points) == len(database)
        self._assert_equivalent(index, fresh)

    def test_strings_match_fresh_build(self):
        rng = np.random.default_rng(22)
        words = [
            "".join("abcd"[i] for i in rng.integers(0, 4, size=5))
            for _ in range(150)
        ]
        from repro.metrics import LevenshteinDistance

        index = DistPermIndex(words[:100], LevenshteinDistance(), n_sites=4,
                              rng=np.random.default_rng(23))
        index.add_points(words[100:])
        fresh = DistPermIndex(words, LevenshteinDistance(),
                              site_indices=index.site_indices)
        self._assert_equivalent(index, fresh)

    def test_bare_string_is_one_point(self):
        words = ["apple", "lime", "lemon", "melon", "grape", "pear"]
        index = DistPermIndex(words, LevenshteinDistance(), n_sites=3,
                              rng=np.random.default_rng(29))
        index.add_points("plum")
        assert len(index.points) == len(words) + 1
        assert index.points[-1] == "plum"
        assert index.codes.shape == (len(words) + 1,)
        fresh = DistPermIndex(words + ["plum"], LevenshteinDistance(),
                              site_indices=index.site_indices)
        self._assert_equivalent(index, fresh)

    def test_queries_match_fresh_build(self, database, queries):
        index = DistPermIndex(database[:350], EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(24))
        index.add_points(database[350:])
        fresh = DistPermIndex(database, EuclideanDistance(),
                              site_indices=index.site_indices)
        grown_rows = index.knn_approx_batch_arrays(queries, 5, budget=60)
        fresh_rows = fresh.knn_approx_batch_arrays(queries, 5, budget=60)
        np.testing.assert_array_equal(grown_rows.distances,
                                      fresh_rows.distances)
        np.testing.assert_array_equal(grown_rows.indices, fresh_rows.indices)
        np.testing.assert_array_equal(grown_rows.offsets, fresh_rows.offsets)
        # New elements are actually findable: query one exactly.
        hit = index.knn_query(database[-1], 1)
        assert hit[0].index == len(database) - 1
        assert hit[0].distance == 0.0

    def test_census_tracks_growth(self, database):
        index = DistPermIndex(database[:200], EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(25))
        index.add_points(database[200:])
        fresh = DistPermIndex(database, EuclideanDistance(),
                              site_indices=index.site_indices)
        assert index.unique_permutations() == fresh.unique_permutations()

    def test_insert_cost_charged_to_build(self, database):
        index = DistPermIndex(database[:300], EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(26))
        build_before = index.stats.build_distances
        index.add_points(database[300:])
        added = len(database) - 300
        assert (index.stats.build_distances
                == build_before + added * index.n_sites)
        assert index.metric.count == 0  # queries are not polluted

    def test_empty_append_is_noop(self, database):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(27))
        codes = index.codes.copy()
        index.add_points(database[:0])
        np.testing.assert_array_equal(index.codes, codes)

    def test_dimension_mismatch_rejected(self, database):
        index = DistPermIndex(database, EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(28))
        with pytest.raises(ValueError):
            index.add_points(np.zeros((2, database.shape[1] + 1)))


def _census_database(kind):
    rng = np.random.default_rng(31)
    if kind == "vectors":
        return rng.random((500, 3)), EuclideanDistance(), 6
    words = [
        "".join("abcd"[i] for i in rng.integers(0, 4, size=length))
        for length in rng.integers(3, 8, size=300)
    ]
    return words, LevenshteinDistance(), 5


class TestDistPermCensus:
    """One census, however the index came to hold its codes, checked
    against paths that never touch the index."""

    @pytest.mark.parametrize("kind", ["vectors", "strings"])
    @pytest.mark.parametrize("backing", ["ram", "mmap"])
    @pytest.mark.parametrize("state", ["fresh", "loaded", "grown"])
    def test_census_agrees_with_independent_paths(
        self, tmp_path, kind, backing, state
    ):
        points, metric, k = _census_database(kind)
        cut = len(points) * 2 // 3
        grown = DistPermIndex(points[:cut], metric, n_sites=k,
                              rng=np.random.default_rng(32))
        grown.add_points(points[cut:])
        fresh = DistPermIndex(points, metric,
                              site_indices=grown.site_indices)
        index = {"fresh": fresh, "grown": grown}.get(state)
        if state == "loaded":
            save_distperm(tmp_path / "first.rpc", fresh)
            index = load_distperm(tmp_path / "first.rpc", points, metric)
        if backing == "mmap":
            save_distperm(tmp_path / "index.rpc", index)
            index = load_distperm(tmp_path / "index.rpc", points, metric,
                                  backing="mmap", cache_bytes=1024)
        try:
            assert index.backing == backing
            census = index.census()
            oracle = StreamingCensus()
            oracle.update(index.permutations)
            np.testing.assert_array_equal(census.codes, oracle.codes)
            np.testing.assert_array_equal(census.counts, oracle.counts)
            assert census.total == len(points)
            (by_distances, _) = sharded_census(
                points, [points[i] for i in index.site_indices], metric, [k]
            )
            assert index.unique_permutations() == by_distances[k].distinct
            assert index.entropy() == fresh.entropy()
            assert index.storage() == fresh.storage()
        finally:
            index.close()


class TestSelectionWorkingSet:
    """What one query's scan and selection allocate on a RAM index: the
    selection's mask is the index's reused workspace, so a row costs
    memory the size of its budget, and a batch scores a few tiles of
    footrule rows at a time instead of a (queries x n) matrix."""

    N = 200_000

    @pytest.fixture(scope="class")
    def warm(self):
        rng = np.random.default_rng(77)
        index = DistPermIndex(rng.random((self.N, 8)), EuclideanDistance(),
                              n_sites=12, rng=np.random.default_rng(78))
        queries = rng.random((80, 8))
        index.knn_approx_batch_arrays(queries, 10, 2000)
        return index, queries

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("budget", [10, 500, 2000])
    def test_one_row_allocates_its_budget_not_the_row(self, warm, budget):
        index, queries = warm
        perms = index.query_permutations(queries[:1])
        row = index._footrules_matrix(perms)[0].copy()
        workspace = index._footrule_workspace
        expected = _budget_candidates(row, budget, workspace)
        np.testing.assert_array_equal(expected, _stable_prefix(row, budget))
        peak = self._peak(lambda: _budget_candidates(row, budget, workspace))
        # The sample's histogram (at most 2 * _BOUNDARY_SAMPLE int64
        # entries) plus a few int64 id arrays of the budget's size; the
        # row itself is 200 KB and its mask as many bytes.
        assert peak < 16 * distperm._BOUNDARY_SAMPLE + 32 * budget

    def test_a_batch_allocates_no_query_by_point_matrix(self, warm):
        index, queries = warm
        expected = index.knn_approx_batch_arrays(queries, 10, 2000)
        index._footrule_workspace.clear()  # the tile is allocated afresh
        peak = self._peak(
            lambda: index.knn_approx_batch_arrays(queries, 10, 2000)
        )
        assert peak < len(queries) * self.N // 2
        assert index._footrule_workspace["footrules"].nbytes <= (
            3 * distperm._TILE_BYTES
        )
        got = index.knn_approx_batch_arrays(queries, 10, 2000)
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.distances, expected.distances)
