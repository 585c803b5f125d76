"""The pair-compare rank kernel against the argsort oracle.

:func:`~repro.core.permutation.ranks_from_distances` reads rank positions
and Lehmer codes straight off the distance columns, and
:func:`~repro.core.permutation.site_ranks` feeds it the metric's row
blocks; every bulk build of the index, ``add_points``, the census
``--dump`` payload and ``StreamingCensus.update_points`` go through them.
The oracle is the route they replaced: a stable argsort
(:func:`permutations_from_distances`), then :func:`permutation_positions`,
:func:`encode_permutations` and :func:`prefix_permutation_codes`.  Every
output must equal it byte for byte, dtype for dtype, on heavy ties,
duplicate sites, ``±inf``, both sides of the kernel's row-block boundary,
both code paths (``uint64`` through ``k = 20``, Python ints beyond) and
every input layout; and a NaN distance must raise on every bulk path
and on every query surface, row front end
(:func:`ranked_permutations`) included.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import permutation
from repro.core.estimate import StreamingCensus
from repro.core.permutation import (
    compact_position_dtype,
    encode_permutations,
    permutation_positions,
    permutations_from_distances,
    prefix_codes_from_distances,
    prefix_permutation_codes,
    ranked_permutations,
    ranks_from_distances,
    site_ranks,
)
from repro.datasets.dictionaries import synthetic_dictionary
from repro.index import DistPermIndex, PivotIndex, ShardedIndex, distperm
from repro.index.serialize import save_distperm
from repro.metrics import CountingMetric, EuclideanDistance, LevenshteinDistance
from repro.parallel.census import sharded_census

WIDTHS = [1, 2, 12, 20, 21, 22]
SIZES = ["0", "1", "block-1", "block", "block+1"]
VALUES = ["grid", "duplicate_sites", "infinities", "uniform"]
LAYOUTS = ["C float64", "F float64", "F uint8", "C int64"]


def oracle(distances):
    """Positions, Lehmer codes and the permutations, by stable argsort."""
    perms = permutations_from_distances(distances)
    n, k = distances.shape
    positions = permutation_positions(
        perms, out=np.empty((k, n), dtype=compact_position_dtype(k)).T
    )
    return positions, encode_permutations(perms), perms


def oracle_site_ranks(points, sites, metric):
    """:func:`site_ranks` the argsort way, over the whole float64 matrix."""
    positions, codes, _ = oracle(metric.to_sites(points, sites))
    return codes, positions


def _block_rows(k, itemsize):
    return max(1, permutation._CODE_BLOCK_BYTES // (k * itemsize))


def _distances(rng, n, k, values):
    if values == "grid":
        return rng.integers(0, 3, size=(n, k)).astype(np.float64)
    if values == "infinities":
        return rng.choice([-np.inf, 0.0, 1.0, np.inf], size=(n, k))
    if values == "uniform":
        return rng.random((n, k))
    # duplicate sites: later columns copy earlier ones exactly
    distances = rng.integers(0, 40, size=(n, k)).astype(np.float64)
    for target in range(1, k, 2):
        distances[:, target] = distances[:, rng.integers(0, target)]
    return distances


def _laid_out(distances, layout):
    """The same order and ties in another dtype and memory order."""
    if layout == "C float64":
        return np.ascontiguousarray(distances)
    if layout == "F float64":
        return np.asfortranarray(distances)
    # Rank-map to integers: equal values stay equal, order is kept.
    _, ranks = np.unique(distances, return_inverse=True)
    ranks = ranks.reshape(distances.shape)
    if layout == "F uint8":
        if ranks.size and ranks.max() > 255:
            return np.asfortranarray(ranks.astype(np.int64))
        return np.asfortranarray(ranks.astype(np.uint8))
    return np.ascontiguousarray(ranks.astype(np.int64))


def _rows(size, k, itemsize):
    block = _block_rows(k, itemsize)
    return {"0": 0, "1": 1, "block-1": block - 1, "block": block,
            "block+1": block + 1}[size]


def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestKernelEqualsArgsortOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(WIDTHS),
        st.sampled_from(SIZES),
        st.sampled_from(VALUES),
        st.sampled_from(LAYOUTS),
        st.integers(0, 2**32 - 1),
    )
    def test_positions_lehmer_and_insertion_codes(
        self, k, size, values, layout, seed
    ):
        rng = np.random.default_rng(seed)
        itemsize = 1 if layout == "F uint8" else 8
        n = _rows(size, k, itemsize)
        distances = _laid_out(_distances(rng, n, k, values), layout)
        assert distances.shape == (n, k)
        want_positions, want_codes, perms = oracle(distances)
        positions, codes = ranks_from_distances(distances)
        _assert_same_array(positions, want_positions)
        assert positions.T.flags.c_contiguous
        _assert_same_array(codes, want_codes)
        ks = sorted({1, k // 2, k})
        insertion = prefix_codes_from_distances(distances, ks)
        for j, want in prefix_permutation_codes(perms, ks).items():
            _assert_same_array(insertion[j], want)

    @pytest.mark.parametrize("k", WIDTHS)
    def test_fills_caller_buffers_in_place(self, rng, k):
        distances = rng.integers(0, 4, size=(300, k)).astype(np.float64)
        want_positions, want_codes, _ = oracle(distances)
        # A column range of a wider workspace, in a wider integer dtype.
        workspace = np.zeros((k, 500), dtype=np.int16)
        codes = np.empty(300, dtype=want_codes.dtype)
        positions, got = ranks_from_distances(
            distances, positions=workspace[:, 100:400].T, codes=codes
        )
        assert got is codes and np.shares_memory(positions, workspace)
        np.testing.assert_array_equal(workspace[:, 100:400].T, want_positions)
        assert not workspace[:, :100].any() and not workspace[:, 400:].any()
        np.testing.assert_array_equal(codes, want_codes)

    def test_rejects_bad_targets(self, rng):
        distances = rng.random((10, 5))
        with pytest.raises(ValueError, match="column-major"):
            ranks_from_distances(distances, positions=np.empty((10, 5), np.uint8))
        with pytest.raises(ValueError, match="codes"):
            ranks_from_distances(distances, codes=np.empty(10, dtype=np.int64))
        with pytest.raises(ValueError, match="codes"):
            ranks_from_distances(distances, codes=np.empty(9, dtype=np.uint64))
        with pytest.raises(ValueError, match="distance matrix"):
            ranks_from_distances(rng.random(5))

    @pytest.mark.parametrize("values", VALUES)
    def test_ranked_permutations_equal_the_oracle(self, rng, values):
        distances = _distances(rng, 300, 12, values)
        _assert_same_array(
            ranked_permutations(distances),
            permutations_from_distances(distances),
        )

    def test_nan_raises_in_any_row_block(self, rng):
        k = 12
        tall = rng.random((3 * _block_rows(k, 8) + 7, k))
        tall[-1, 5] = np.nan
        with pytest.raises(ValueError, match="NaN distances have no rank"):
            ranks_from_distances(tall)


class TestSiteRanks:
    def test_vectors_across_metric_and_kernel_blocks(self, rng):
        from repro.metrics.minkowski import _CHUNK_ROWS

        points = rng.integers(0, 5, size=(2 * _CHUNK_ROWS + 3, 3)).astype(float)
        sites = points[:12]
        metric = CountingMetric(EuclideanDistance())
        codes, positions = site_ranks(points, sites, metric)
        assert metric.count == len(points) * len(sites)
        want_codes, want_positions = oracle_site_ranks(
            points, sites, EuclideanDistance()
        )
        _assert_same_array(codes, want_codes)
        _assert_same_array(positions, want_positions)
        assert positions.flags.f_contiguous

    def test_strings_read_the_byte_columns_in_place(self):
        words = synthetic_dictionary("English", 3000, np.random.default_rng(4))
        sites = words[:: len(words) // 12][:12]
        codes, positions = site_ranks(words, sites, LevenshteinDistance())
        want_codes, want_positions = oracle_site_ranks(
            words, sites, LevenshteinDistance()
        )
        _assert_same_array(codes, want_codes)
        _assert_same_array(positions, want_positions)

    def test_update_points_equals_update_of_the_permutations(self, rng):
        points = rng.integers(0, 3, size=(400, 2)).astype(float)
        sites = points[:7]
        census = StreamingCensus()
        census.update_points(points, sites, EuclideanDistance())
        reference = StreamingCensus()
        reference.update(
            permutations_from_distances(
                EuclideanDistance().to_sites(points, sites)
            )
        )
        _assert_same_array(census.codes, reference.codes)
        _assert_same_array(census.counts, reference.counts)


def _payload_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestIndexBuiltByTheKernel:
    def test_payload_equals_the_oracle_route(self, tmp_path, monkeypatch):
        points = np.random.default_rng(2029).random((20_000, 8))
        kernel = DistPermIndex(points, EuclideanDistance(), n_sites=12,
                               rng=np.random.default_rng(5))
        save_distperm(tmp_path / "kernel.rpc", kernel)
        monkeypatch.setattr(distperm, "site_ranks", oracle_site_ranks)
        argsorted = DistPermIndex(points, EuclideanDistance(), n_sites=12,
                                  rng=np.random.default_rng(5))
        save_distperm(tmp_path / "oracle.rpc", argsorted)
        assert kernel.site_indices == argsorted.site_indices
        _assert_same_array(kernel.codes, argsorted.codes)
        _assert_same_array(kernel._perm_positions, argsorted._perm_positions)
        assert kernel._perm_positions.flags.f_contiguous
        assert (kernel.stats.build_distances
                == argsorted.stats.build_distances == 20_000 * 12)
        assert _payload_digest(tmp_path / "kernel.rpc") == _payload_digest(
            tmp_path / "oracle.rpc"
        )

    @pytest.mark.parametrize("kind", ["vectors", "strings"])
    def test_add_points_equals_the_oracle_on_the_whole(self, kind):
        rng = np.random.default_rng(31)
        if kind == "vectors":
            database = rng.integers(0, 4, size=(40_000, 3)).astype(float)
            metric = EuclideanDistance()
        else:
            database = synthetic_dictionary("English", 4000, rng)
            metric = LevenshteinDistance()
        cut = len(database) // 3
        index = DistPermIndex(database[:cut], metric, n_sites=9, rng=rng)
        index.add_points(database[cut:-1])
        index.add_points(database[-1])  # one point: a bare string or 1-D row
        want_codes, want_positions = oracle_site_ranks(
            database, index.sites, metric
        )
        _assert_same_array(index.codes, want_codes)
        _assert_same_array(index._perm_positions, want_positions)
        assert index.stats.build_distances == len(database) * 9

    def test_build_holds_no_distance_matrix(self):
        # 200k x 12 float64 distances alone are 19.2 MB, the int64
        # permutations as much again; codes (1.6 MB), positions (2.4 MB)
        # and one metric block's temporaries are what a build may hold.
        points = np.random.default_rng(12).random((200_000, 8))
        metric = EuclideanDistance()
        tracemalloc.start()
        try:
            DistPermIndex(points, metric, n_sites=12,
                          rng=np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak


class TestNaNContract:
    """One contract on every bulk path: a NaN distance has no rank."""

    @pytest.fixture(params=["point", "site"])
    def poisoned(self, request):
        points = np.random.default_rng(3).random((300, 4))
        row = 17 if request.param == "point" else 0
        points[row, 2] = np.nan
        return points

    def test_build_raises(self, poisoned):
        with pytest.raises(ValueError, match="NaN distances have no rank"):
            DistPermIndex(poisoned, EuclideanDistance(), site_indices=[0, 5, 9])

    def test_add_points_raises_and_appends_nothing(self, poisoned):
        clean = np.random.default_rng(4).random((50, 4))
        index = DistPermIndex(clean, EuclideanDistance(), n_sites=5,
                              rng=np.random.default_rng(2))
        codes = index.codes.copy()
        with pytest.raises(ValueError, match="NaN distances have no rank"):
            index.add_points(poisoned[:20])
        assert len(index.points) == 50
        np.testing.assert_array_equal(index.codes, codes)
        assert index._perm_positions.shape == (50, 5)

    @pytest.mark.parametrize("collect", [False, True])
    def test_census_and_dump_raise(self, poisoned, collect):
        sites = poisoned[[0, 5, 9]]
        with pytest.raises(ValueError, match="NaN distances have no rank"):
            sharded_census(poisoned, sites, EuclideanDistance(), [3],
                           collect_permutations=collect)

    def test_dump_kernel_raises_on_its_own(self, poisoned, monkeypatch):
        # The --dump codes come from their own kernel call: it raises even
        # were the census kernel to let the block through.
        monkeypatch.setattr(
            "repro.parallel.census.prefix_codes_from_distances",
            lambda distances, ks: {ks[0]: np.zeros(len(distances), np.uint64)},
        )
        with pytest.raises(ValueError, match="NaN distances have no rank"):
            sharded_census(poisoned, poisoned[[0, 5, 9]], EuclideanDistance(),
                           [3], collect_permutations=True)

    def test_update_points_raises(self, poisoned):
        with pytest.raises(ValueError, match="NaN distances have no rank"):
            StreamingCensus().update_points(
                poisoned, poisoned[[0, 5, 9]], EuclideanDistance()
            )


class TestQueryNaNContract:
    """Queries keep the build's contract: a NaN site distance raises on
    every surface."""

    NAN_QUERY = np.array([[np.nan, 0.5]])

    @pytest.fixture(scope="class")
    def points(self):
        return np.random.default_rng(5).random((300, 2))

    def test_ranked_permutations_raise(self):
        distances = np.random.default_rng(7).random((2, 6))
        distances[-1, 3] = np.nan
        with pytest.raises(ValueError, match="NaN distances have no rank"):
            ranked_permutations(distances)

    @pytest.mark.parametrize(
        "surface",
        ["query_permutation", "query_permutations", "candidate_order",
         "knn_approx", "knn_approx_batch"],
    )
    def test_distperm_query_surfaces_raise(self, points, surface):
        index = DistPermIndex(points, EuclideanDistance(), n_sites=4,
                              rng=np.random.default_rng(6))
        batch = np.vstack([points[:3], self.NAN_QUERY])
        calls = {
            "query_permutation": lambda: index.query_permutation(
                self.NAN_QUERY[0]
            ),
            "query_permutations": lambda: index.query_permutations(batch),
            "candidate_order": lambda: index.candidate_order(
                self.NAN_QUERY[0]
            ),
            "knn_approx": lambda: index.knn_approx(
                self.NAN_QUERY[0], 3, budget=40
            ),
            "knn_approx_batch": lambda: index.knn_approx_batch(
                batch, 3, budget=40
            ),
        }
        with pytest.raises(ValueError, match="NaN distances have no rank"):
            calls[surface]()

    def test_pivot_index_in_permutation_order_raises(self, points):
        index = PivotIndex(points, EuclideanDistance(), n_pivots=4,
                           candidate_order="permutation",
                           rng=np.random.default_rng(8))
        assert len(index.knn_query(points[7], 3)) == 3
        with pytest.raises(ValueError, match="NaN distances have no rank"):
            index.knn_query(self.NAN_QUERY[0], 3)

    @pytest.mark.parametrize("resident", [False, True])
    def test_sharded_index_raises_in_process_and_pooled(self, points, resident):
        inner = partial(DistPermIndex, n_sites=4, site_strategy="first")
        batch = np.vstack([points[:3], self.NAN_QUERY])
        with ShardedIndex(points, EuclideanDistance(), inner, n_shards=2,
                          resident=resident) as index:
            # Pooled, the worker's ValueError arrives as its traceback.
            with pytest.raises(Exception, match="NaN distances have no rank"):
                index.knn_approx_batch(batch, 3, budget=40)
            # The index keeps answering clean queries afterwards.
            rows = index.knn_approx_batch(points[:3], 3, budget=40)
            assert [len(row) for row in rows] == [3, 3, 3]
