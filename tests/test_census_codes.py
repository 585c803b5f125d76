"""Codec tests for the sort-free census: prefix codes from distance columns.

:func:`~repro.core.permutation.prefix_codes_from_distances` must agree,
bit for bit and dtype for dtype, with the route it replaced — stable
argsort, then :func:`prefix_permutation_codes` — on every input shape the
census can hand it.  Three independent references pin it: a table of
hand-computed codes, a per-row pure-Python encoder built on ``sorted``
(no numpy ordering at all), and the paper's own counting bounds on
generated Euclidean datasets.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import clustered_vectors

from repro.core import permutation
from repro.core.counting import max_permutations
from repro.core.estimate import StreamingCensus
from repro.core.permutation import (
    MAX_CODE_SITES,
    permutations_from_distances,
    prefix_codes_from_distances,
    prefix_permutation_codes,
)
from repro.datasets.dictionaries import synthetic_dictionary
from repro.datasets.sequences import mutation_cascade_sequences
from repro.datasets.vectors import uniform_vectors
from repro.metrics import CountingMetric, EuclideanDistance, LevenshteinDistance
from repro.parallel.census import shard_ranges, sharded_census, streaming_census
from repro.parallel.executor import get_executor

#: (distances of one point to sites 0.., {width: insertion code}).  The
#: digit of site m is its rank among sites 0..m, ties to the lower index;
#: a code extends by ``code * (m + 1) + digit``.
CODE_TABLE = [
    # ascending: every site lands last among its predecessors
    ([1, 2, 3, 4], {0: 0, 1: 0, 2: 1, 3: 5, 4: 23}),
    # descending: every site lands first
    ([4, 3, 2, 1], {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}),
    # all tied: the lower index wins, same as ascending
    ([7, 7, 7, 7], {2: 1, 3: 5, 4: 23}),
    # sites by distance: 1, 2, 0 -> digits 0, 1
    ([3, 1, 2], {2: 0, 3: 1}),
    # sites by distance: 2, 0, 3, 1 (0 and 3 tied) -> digits 1, 0, 2
    ([5, 9, 1, 5], {2: 1, 3: 3, 4: 14}),
]


def reference_codes(distances, ks):
    """Insertion codes row by row from Python's stable ``sorted``."""
    rows = np.asarray(distances).tolist()
    out = {}
    for j in ks:
        codes = []
        for row in rows:
            order = sorted(range(j), key=lambda s: row[s])
            code = 0
            for m in range(1, j):
                before = order[: order.index(m)]
                code = code * (m + 1) + sum(s < m for s in before)
            codes.append(code)
        out[j] = codes
    return out


def assert_codes_equal(got, want_lists):
    assert sorted(got) == sorted(want_lists)
    for j, want in want_lists.items():
        expected_dtype = np.uint64 if max(want_lists) <= MAX_CODE_SITES else object
        assert got[j].dtype == expected_dtype
        assert [int(c) for c in got[j]] == want


def argsort_route(distances, ks):
    return prefix_permutation_codes(permutations_from_distances(distances), ks)


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "strided": lambda a: np.repeat(np.repeat(a, 2, axis=0), 3, axis=1)[::2, ::3],
    "reversed": lambda a: np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1],
}


class TestCodeTable:
    @pytest.mark.parametrize("row,expected", CODE_TABLE)
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32, np.float64])
    def test_constants(self, row, expected, dtype):
        distances = np.array([row], dtype=dtype)
        got = prefix_codes_from_distances(distances, list(expected))
        assert {j: int(got[j][0]) for j in expected} == expected
        assert reference_codes(distances, list(expected)) == {
            j: [code] for j, code in expected.items()
        }

    @pytest.mark.parametrize("row,expected", CODE_TABLE)
    def test_same_constants_from_the_permutation(self, row, expected):
        perms = permutations_from_distances(np.array([row]))
        got = prefix_permutation_codes(perms, list(expected))
        assert {j: int(got[j][0]) for j in expected} == expected


class TestEqualsArgsortRoute:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32, np.float64])
    def test_dtypes_and_layouts_with_heavy_ties(self, rng, dtype, layout):
        distances = LAYOUTS[layout](
            rng.integers(0, 4, size=(257, 9)).astype(dtype)
        )
        assert distances.shape == (257, 9)
        ks = range(0, 10)
        got = prefix_codes_from_distances(distances, ks)
        assert_codes_equal(got, reference_codes(distances, ks))
        for j, codes in argsort_route(distances, ks).items():
            assert codes.dtype == got[j].dtype
            np.testing.assert_array_equal(codes, got[j])

    def test_duplicate_columns(self, rng):
        distances = rng.random((120, 7))
        distances[:, 4] = distances[:, 1]
        distances[:, 6] = distances[:, 1]
        ks = [3, 5, 7]
        assert_codes_equal(
            prefix_codes_from_distances(distances, ks),
            reference_codes(distances, ks),
        )

    def test_infinities_order_and_tie_like_numbers(self, rng):
        distances = rng.random((200, 6))
        distances[rng.random((200, 6)) < 0.2] = np.inf
        distances[rng.random((200, 6)) < 0.2] = -np.inf
        ks = [2, 4, 6]
        got = prefix_codes_from_distances(distances, ks)
        assert_codes_equal(got, reference_codes(distances, ks))
        for j, codes in argsort_route(distances, ks).items():
            np.testing.assert_array_equal(codes, got[j])

    def test_nan_raises(self, rng):
        distances = rng.random((50, 5))
        distances[17, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            prefix_codes_from_distances(distances, [5])
        # ... in whichever row block it sits
        tall = rng.random((30_000, 12)).astype(np.float32)
        tall[-1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            prefix_codes_from_distances(tall, [12])

    def test_widths_zero_and_one_are_all_zero(self, rng):
        distances = rng.random((9, 4))
        got = prefix_codes_from_distances(distances, [0, 1, 4, 1])
        assert sorted(got) == [0, 1, 4]
        for j in (0, 1):
            assert got[j].dtype == np.uint64
            assert not got[j].any() and got[j].shape == (9,)
        only_trivial = prefix_codes_from_distances(distances, [1])
        assert not only_trivial[1].any()
        assert prefix_codes_from_distances(distances, []) == {}

    @pytest.mark.parametrize("k", [2, 12, 13, 20, 21, 22])
    def test_every_width_through_the_object_window(self, rng, k):
        distances = rng.integers(0, 6, size=(40, k)).astype(np.float64)
        ks = sorted({0, 1, 2, k // 2, k})
        got = prefix_codes_from_distances(distances, ks)
        assert_codes_equal(got, reference_codes(distances, ks))
        assert got[k].dtype == (np.uint64 if k <= MAX_CODE_SITES else object)
        for j, codes in argsort_route(distances, ks).items():
            np.testing.assert_array_equal(codes, got[j])

    def test_codes_fill_the_top_of_each_narrow_word(self):
        # The running code changes word past 5!, 8! and 12!: an ascending
        # row makes every digit maximal, so width j reaches j! - 1.
        distances = np.arange(20, dtype=np.float64)[None, :]
        got = prefix_codes_from_distances(distances, range(21))
        for j in range(21):
            assert int(got[j][0]) == math.factorial(j) - 1

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_no_points(self, dtype):
        got = prefix_codes_from_distances(np.empty((0, 5), dtype=dtype), [0, 3, 5])
        assert {j: codes.shape for j, codes in got.items()} == {
            0: (0,), 3: (0,), 5: (0,)
        }
        assert all(codes.dtype == np.uint64 for codes in got.values())
        wide = prefix_codes_from_distances(np.empty((0, 22)), [22])
        assert wide[22].dtype == object and wide[22].shape == (0,)

    def test_rejects_bad_shapes_and_widths(self, rng):
        with pytest.raises(ValueError, match="distance matrix"):
            prefix_codes_from_distances(rng.random(5), [2])
        with pytest.raises(ValueError, match="prefix widths"):
            prefix_codes_from_distances(rng.random((4, 3)), [4])
        with pytest.raises(ValueError, match="prefix widths"):
            prefix_codes_from_distances(rng.random((4, 3)), [-1])

    def test_row_blocks_are_stitched_in_order(self, rng, monkeypatch):
        distances = rng.integers(0, 5, size=(1000, 8)).astype(np.float64)
        ks = [3, 8]
        whole = prefix_codes_from_distances(distances, ks)
        # 8 float64 columns per row: 37 rows per block, ragged last block.
        monkeypatch.setattr(permutation, "_CODE_BLOCK_BYTES", 37 * 8 * 8)
        blocked = prefix_codes_from_distances(distances, ks)
        for j in ks:
            np.testing.assert_array_equal(whole[j], blocked[j])
        assert_codes_equal(blocked, reference_codes(distances, ks))

    def test_more_rows_than_one_default_block(self, rng):
        distances = rng.integers(0, 9, size=(30_000, 12)).astype(np.float64)
        got = prefix_codes_from_distances(distances, [12])[12]
        np.testing.assert_array_equal(got, argsort_route(distances, [12])[12])
        sample = rng.choice(30_000, size=300, replace=False)
        assert [int(c) for c in got[sample]] == reference_codes(
            distances[sample], [12]
        )[12]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, 3), min_size=k, max_size=k),
                min_size=1,
                max_size=12,
            )
        ),
        st.sampled_from([np.uint8, np.int64, np.float32, np.float64]),
        st.sampled_from(sorted(LAYOUTS)),
    )
    def test_property_equals_sorted_reference(self, rows, dtype, layout):
        distances = LAYOUTS[layout](np.array(rows, dtype=dtype))
        ks = range(distances.shape[1] + 1)
        assert_codes_equal(
            prefix_codes_from_distances(distances, ks),
            reference_codes(distances, ks),
        )


class TestPaperBoundOracle:
    """Theorem 7 caps what any Euclidean census may count.

    An oracle the code engine did not write: in ``d``-dimensional
    Euclidean space ``k`` sites realise at most ``N_{d,2}(k)`` distance
    permutations, so at every prefix width the census of any dataset is
    bounded by ``min(n, k!, max_permutations(d, k, 2))``.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(2, 7),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["uniform", "clusters", "lattice"]),
    )
    def test_distinct_never_exceeds_the_bound(self, d, k, seed, shape):
        rng = np.random.default_rng(seed)
        n = 600
        if shape == "uniform":
            points = uniform_vectors(n, d, rng)
        elif shape == "clusters":
            points = clustered_vectors(n, d, rng=rng)
        else:  # coarse grid: duplicate points and exact distance ties
            points = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        sites = points[rng.choice(n, size=k, replace=False)]
        ks = list(range(1, k + 1))
        censuses, _ = sharded_census(points, sites, EuclideanDistance(), ks)
        for j in ks:
            bound = min(n, math.factorial(j), max_permutations(d, j, 2))
            assert 1 <= censuses[j].distinct <= bound, (d, j, shape)
            assert censuses[j].total == n


def _folded(codes, j):
    """The census folded directly from one width's code column."""
    census = StreamingCensus()
    census.update_codes(codes, j, coding="prefix")
    return census


def _assert_same_census(got, want):
    assert (got.k, got.coding, got.total) == (want.k, want.coding, want.total)
    if want.codes is None:
        assert got.codes is None and got.counts is None
        return
    assert got.codes.dtype == want.codes.dtype
    assert got.counts.dtype == want.counts.dtype
    np.testing.assert_array_equal(got.codes, want.codes)
    np.testing.assert_array_equal(got.counts, want.counts)


class TestRestriction:
    """One sorted run at the widest width holds every narrower census:
    :meth:`StreamingCensus.restricted` must equal the census folded from
    the same code call at that width, byte for byte."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda k: st.tuples(
        st.lists(
            st.lists(
                st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, -np.inf]),
                min_size=k, max_size=k,
            ),
            min_size=1, max_size=40,
        ),
        st.lists(st.integers(0, k), max_size=6),
        st.none() | st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
    )))
    def test_property_equals_direct_census(self, case):
        rows, ks, duplicate = case
        distances = np.array(rows)
        k = distances.shape[1]
        if duplicate is not None:
            target, source = duplicate
            distances[:, target] = distances[:, source]
        codes = prefix_codes_from_distances(distances, list(ks) + [k])
        widest = _folded(codes[k], k)
        for j in ks:
            _assert_same_census(widest.restricted(j), _folded(codes[j], j))

    @pytest.mark.parametrize("k", [21, 22])
    def test_object_codes_at_top_widths(self, rng, k):
        distances = rng.integers(0, 3, size=(300, k)).astype(np.float64)
        ks = [0, 1, 2, 7, 12, 20, 21, k]
        codes = prefix_codes_from_distances(distances, ks)
        widest = _folded(codes[k], k)
        assert widest.codes.dtype == object
        for j in ks:
            narrow = widest.restricted(j)
            _assert_same_census(narrow, _folded(codes[j], j))
            # ... and the same counts as a call that stays in uint64
            if j <= MAX_CODE_SITES:
                fitted = _folded(prefix_codes_from_distances(distances, [j])[j], j)
                assert [int(c) for c in narrow.codes] == fitted.codes.tolist()
                np.testing.assert_array_equal(narrow.counts, fitted.counts)

    def test_merge_then_restrict_equals_restrict_then_merge(self, rng):
        distances = rng.integers(0, 4, size=(1000, 9)).astype(np.uint8)
        codes = prefix_codes_from_distances(distances, [9])[9]
        cuts = [0, 1, 7, 300, 301, 1000]
        parts = [_folded(codes[a:b], 9) for a, b in zip(cuts, cuts[1:])]
        parts.insert(2, StreamingCensus())  # an empty shard
        whole = StreamingCensus.merged(parts)
        for j in range(10):
            narrowed = [part.restricted(j) for part in parts]
            _assert_same_census(
                whole.restricted(j), StreamingCensus.merged(narrowed)
            )
            pairwise = StreamingCensus()
            for part in narrowed:
                pairwise.merge(part)
            _assert_same_census(whole.restricted(j), pairwise)

    def test_empty_database_shards_and_chunks(self, rng):
        points = rng.random((90, 3))
        sites = points[:5]
        metric = EuclideanDistance()
        ks = [1, 3, 5]
        empty, _ = sharded_census(points[:0], sites, metric, ks)
        assert sorted(empty) == ks
        assert all(empty[j].total == empty[j].distinct == 0 for j in ks)
        whole, _ = sharded_census(points, sites, metric, ks)
        chunks = [points[:0], points[:40], points[40:40], points[40:]]
        streamed = streaming_census(iter(chunks), sites, metric, ks)
        for j in ks:
            _assert_same_census(streamed[j], whole[j])
        assert sharded_census(points, sites, metric, [])[0] == {}
        assert streaming_census(iter(chunks), sites, metric, []) == {}


def _argsort_census(points, sites, metric, ks):
    """``{k: (codes, counts)}`` the parent's way: float64 ``to_sites``,
    one stable argsort, codes from the permutations, ``np.unique``."""
    perms = permutations_from_distances(metric.to_sites(points, sites))
    return {
        k: np.unique(codes, return_counts=True)
        for k, codes in prefix_permutation_codes(perms, ks).items()
    }


def _assert_census_equals(censuses, expected):
    assert sorted(censuses) == sorted(expected)
    for k, (codes, counts) in expected.items():
        assert censuses[k].codes.dtype == codes.dtype == np.uint64
        np.testing.assert_array_equal(censuses[k].codes, codes)
        np.testing.assert_array_equal(censuses[k].counts, counts)
        assert censuses[k].total == counts.sum()


class TestCensusAnswersIdentical:
    """Codes from distances, one sort at the widest width and restriction
    to the rest change no census, on any engine."""

    KS = list(range(3, 9))

    @pytest.fixture(scope="class")
    def dictionary(self):
        rng = np.random.default_rng(20080415)
        words = synthetic_dictionary("English", 70_000, rng)
        sites = [words[int(i)] for i in rng.choice(len(words), 8, replace=False)]
        metric = LevenshteinDistance()
        return words, sites, metric, _argsort_census(words, sites, metric, self.KS)

    @pytest.mark.parametrize(
        "workers,shards", [(0, None), (0, 4), (2, 2), (2, 4)]
    )
    def test_dictionary_every_engine(self, dictionary, workers, shards):
        # ``shards`` row ranges (None: the whole list), each counted on
        # the engine ``workers`` selects, merge to the argsort census.
        words, sites, metric, expected = dictionary
        ranges = shard_ranges(len(words), shards or 1)
        with get_executor(workers) as executor:
            parts = [
                sharded_census(
                    words[start:stop], sites, metric, self.KS,
                    executor=executor,
                )[0]
                for start, stop in ranges
            ]
        censuses = {
            k: StreamingCensus.merged(part[k] for part in parts)
            for k in self.KS
        }
        _assert_census_equals(censuses, expected)

    def test_dictionary_streamed_in_32768_row_chunks(self, dictionary):
        words, sites, metric, expected = dictionary
        chunks = (words[i : i + 32_768] for i in range(0, len(words), 32_768))
        _assert_census_equals(
            streaming_census(chunks, sites, metric, self.KS), expected
        )

    def test_collected_permutations_still_come_from_the_argsort(self, dictionary):
        words, sites, metric, expected = dictionary
        censuses, perms = sharded_census(
            words[:5000], sites, metric, [8], collect_permutations=True
        )
        np.testing.assert_array_equal(
            perms,
            permutations_from_distances(metric.to_sites(words[:5000], sites)),
        )
        assert censuses[8].distinct == len(np.unique(perms, axis=0))

    def test_gene_sequences(self):
        rng = np.random.default_rng(7)
        genes = mutation_cascade_sequences(400, rng=rng)
        sites = genes[::57][:6]
        metric = LevenshteinDistance()
        ks = [2, 4, 0, 6, 1, 4]  # trivial widths and a repeat, unsorted
        censuses, _ = sharded_census(genes, sites, metric, ks)
        _assert_census_equals(censuses, _argsort_census(genes, sites, metric, ks))

    def test_uniform_vectors(self):
        rng = np.random.default_rng(8)
        points = uniform_vectors(20_000, 8, rng)
        sites = points[rng.choice(len(points), 12, replace=False)]
        metric = EuclideanDistance()
        ks = [3, 7, 12]
        censuses, _ = sharded_census(points, sites, metric, ks)
        _assert_census_equals(censuses, _argsort_census(points, sites, metric, ks))

    def test_digests_recorded_at_the_argsort_commit(self):
        # (codes, counts) at every width, hashed by the commit that still
        # argsorted and Lehmer-masked: byte-identical censuses, pinned.
        def digest(censuses):
            h = hashlib.sha256()
            for k in sorted(censuses):
                h.update(censuses[k].codes.astype("<u8").tobytes())
                h.update(censuses[k].counts.astype("<i8").tobytes())
            return h.hexdigest()

        rng = np.random.default_rng(2008)
        words = synthetic_dictionary("English", 3000, rng)
        sites = [words[int(i)] for i in rng.choice(3000, 10, replace=False)]
        censuses, _ = sharded_census(
            words, sites, LevenshteinDistance(), range(2, 11)
        )
        assert censuses[10].distinct == 1982
        assert digest(censuses) == (
            "afae25f6fb609264532719e59e74b1f08cce8d461d4f9c6943180ef2baf17b55"
        )
        points = uniform_vectors(3000, 3, rng)
        censuses, _ = sharded_census(
            points, points[:9], EuclideanDistance(), range(2, 10)
        )
        assert censuses[9].distinct == 898
        assert digest(censuses) == (
            "c4e06cfb0422cc82bf25c0f630387441c7dcf33ce0dda4a625411fcacbb62a8a"
        )

    def test_counting_metric_charges_the_compact_hook(self, dictionary):
        words, sites, _, _ = dictionary
        counted = CountingMetric(LevenshteinDistance())
        sharded_census(words[:1000], sites, counted, [8])
        assert counted.count == 1000 * len(sites)
