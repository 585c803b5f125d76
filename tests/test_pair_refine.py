"""The refine hook: one edit-distance call per query chunk.

``Metric.grouped_distances`` scores every ``(query, candidate)`` pair of
a query chunk in one call.  Its default is the per-query
``batch_distances`` loop refine used to run; edit distance overrides it
with the pairwise lock-step Myers driver
(:func:`repro.metrics.bitparallel.myers_pair_distances`), reading
candidates from the encoding :class:`~repro.index.DistPermIndex` holds
resident.  The contract checked here:

- the pair driver equals an independent Python DP on hostile unicode,
  empty strings, every query-length edge of its one-lane layout and
  duplicate candidates;
- ``EncodedStrings.take`` equals re-encoding the gathered strings;
- every index configuration returns columns byte-equal to the per-query
  route, charging the same evaluations;
- a warmed string index builds no Myers layout per query: candidates no
  longer churn the encoding cache.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.dictionaries import synthetic_dictionary
from repro.datasets.sequences import genome_prefix_sequences
from repro.index import DistPermIndex, ShardedIndex
from repro.index.batching import take_points
from repro.index.serialize import (
    load_distperm,
    load_sharded,
    save_distperm,
    save_sharded,
)
from repro.metrics import (
    CityblockDistance,
    EncodedVectors,
    EuclideanDistance,
    LevenshteinDistance,
)
from repro.metrics import bitparallel
from repro.metrics.base import CountingMetric
from repro.metrics.encoding import EncodedStrings, encode_strings
from repro.metrics.strings import _levenshtein_python

#: Includes NUL, a combining mark and astral code points.
ALPHABET = "ab\x00é́\U0001F600\U00010348z"
unicode_text = st.text(alphabet=st.sampled_from(ALPHABET), max_size=12)


def _oracle(queries, points, point_ids, offsets):
    return np.array(
        [
            _levenshtein_python(queries[i], points[int(j)])
            for i in range(len(queries))
            for j in point_ids[offsets[i] : offsets[i + 1]]
        ],
        dtype=np.float64,
    )


def _grouped(metric, queries, points, groups):
    """``grouped_distances`` over ``groups`` (one id list per query)."""
    offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum([len(g) for g in groups], out=offsets[1:])
    point_ids = np.asarray(
        [j for g in groups for j in g], dtype=np.int64
    )
    got = metric.grouped_distances(
        queries, EncodedStrings.from_strings(points), point_ids, offsets
    )
    return got, _oracle(queries, points, point_ids, offsets)


class TestPairKernel:
    @given(
        queries=st.lists(unicode_text, min_size=1, max_size=17),
        points=st.lists(unicode_text, min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_python_dp(self, queries, points, data):
        groups = [
            data.draw(
                st.lists(
                    st.integers(0, len(points) - 1), max_size=2 * len(points)
                )
            )
            for _ in queries
        ]
        got, expected = _grouped(
            LevenshteinDistance(), queries, points, groups
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("chunk", [1, 17])
    @pytest.mark.parametrize("m", [0, 1, 62, 63, 64])
    def test_lane_boundary_lengths(self, m, chunk):
        # 63 is the longest query one uint64 lane holds; 64 takes the
        # inherited loop.
        rng = np.random.default_rng(m * 100 + chunk)
        points = ["".join(rng.choice(list("abz\x00"), rng.integers(0, 80)))
                  for _ in range(30)] + ["", "a" * 63, "b" * 64]
        queries = ["".join(rng.choice(list("abz\x00"), m))
                   for _ in range(chunk)]
        groups = [rng.integers(0, len(points), 20).tolist() for _ in queries]
        got, expected = _grouped(
            LevenshteinDistance(), queries, points, groups
        )
        np.testing.assert_array_equal(got, expected)

    def test_mixed_long_and_short_queries(self):
        points = genome_prefix_sequences(60, rng=np.random.default_rng(3))
        queries = points[:17]
        assert min(map(len, queries)) <= 63 < max(map(len, queries))
        groups = [list(range(i, 60, 3)) for i in range(17)]
        got, expected = _grouped(
            LevenshteinDistance(), queries, points, groups
        )
        np.testing.assert_array_equal(got, expected)

    def test_duplicates_disjoint_alphabets_equal_lengths(self):
        points = ["abcd", "bcda", "wxyz", "zzzz", "\U0001F600" * 4]
        queries = ["qrst", "abcd", ""]
        groups = [[0, 0, 2, 2, 4], [1, 1, 1], [3, 0]]
        got, expected = _grouped(
            LevenshteinDistance(), queries, points, groups
        )
        np.testing.assert_array_equal(got, expected)
        assert got[:5].tolist() == [4.0, 4.0, 4.0, 4.0, 4.0]

    def test_empty_groups_and_no_pairs(self):
        metric = LevenshteinDistance()
        points = EncodedStrings.from_strings(["ab", "c"])
        none = metric.grouped_distances(
            ["x", "y"], points, np.empty(0, dtype=np.int64),
            np.zeros(3, dtype=np.int64),
        )
        assert none.shape == (0,) and none.dtype == np.float64
        got, expected = _grouped(metric, ["x", "", "yy"], ["ab", "c"],
                                 [[], [0, 1], []])
        np.testing.assert_array_equal(got, expected)

    def test_driver_refuses_long_patterns(self):
        with pytest.raises(ValueError, match="at most 63"):
            bitparallel.myers_pair_distances(
                EncodedStrings.from_strings(["a" * 64]),
                EncodedStrings.from_strings(["a"]),
                np.zeros(1, dtype=np.int64),
                np.array([0, 1]),
            )

    def test_symbol_rows_cached_on_the_encoding(self):
        encoded = EncodedStrings.from_strings(["abc", "", "b"])
        layout = bitparallel.symbol_rows(encoded)
        assert bitparallel.symbol_rows(encoded) is layout
        assert layout.symbols.dtype == np.uint8
        assert layout.symbols.shape == (3, 3)


class TestEncodedTake:
    @given(
        strings=st.lists(unicode_text, max_size=10),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_encoding_the_gathered_strings(self, strings, data):
        ids = data.draw(
            st.lists(st.integers(0, max(len(strings) - 1, 0)),
                     max_size=12 if strings else 0)
        )
        taken = EncodedStrings.from_strings(strings).take(
            np.asarray(ids, dtype=np.int64)
        )
        expected = EncodedStrings.from_strings([strings[i] for i in ids])
        np.testing.assert_array_equal(taken.codes, expected.codes)
        np.testing.assert_array_equal(taken.lengths, expected.lengths)
        assert taken.codes.dtype == expected.codes.dtype
        assert taken.lengths.dtype == expected.lengths.dtype

    def test_empty_ids(self):
        taken = EncodedStrings.from_strings(["abc", "de"]).take([])
        assert taken.codes.shape == (0, 0) and len(taken) == 0

    def test_take_points_gathers_encodings_without_strings(self):
        encoded = EncodedStrings.from_strings(["abc", "de", "f"])
        taken = take_points(encoded, np.array([2, 0]))
        assert isinstance(taken, EncodedStrings)
        np.testing.assert_array_equal(taken.lengths, [1, 3])


class TestDefaultHook:
    def test_vectors_equal_per_query_batch_distances_bit_for_bit(self):
        rng = np.random.default_rng(8)
        points = rng.random((300, 6))
        queries = rng.random((5, 6))
        metric = EuclideanDistance()
        groups = [rng.choice(300, 40) for _ in range(5)]
        offsets = np.concatenate([[0], np.cumsum([len(g) for g in groups])])
        got = metric.grouped_distances(
            queries, points, np.concatenate(groups), offsets
        )
        expected = np.concatenate(
            [metric.batch_distances([q], points[g])[0]
             for q, g in zip(queries, groups)]
        )
        assert got.tobytes() == expected.tobytes()

    def test_counting_charges_one_evaluation_per_pair(self):
        for inner in (LevenshteinDistance(), EuclideanDistance()):
            metric = CountingMetric(inner)
            if isinstance(inner, LevenshteinDistance):
                queries, points = ["ab", "b" * 70], ["a", "bb", "c"]
            else:
                queries, points = np.eye(2), np.eye(2)[[0, 1, 1]]
            metric.grouped_distances(
                queries, points, np.array([0, 0, 2, 1]), np.array([0, 3, 4])
            )
            assert metric.count == 4


# --- Index level: byte-equal to the per-query route ---------------------


def _decoded(points, i):
    if isinstance(points, EncodedStrings):
        return "".join(map(chr, points.row(int(i))))
    return points[int(i)]


class PerQueryLevenshtein(LevenshteinDistance):
    """Refine as it ran before the hook: one ``batch_distances`` call per
    query over its gathered candidate strings."""

    def grouped_distances(self, queries, points, point_ids, offsets):
        out = np.empty(len(point_ids), dtype=np.float64)
        for i, query in enumerate(queries):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            if lo < hi:
                candidates = [_decoded(points, j) for j in point_ids[lo:hi]]
                out[lo:hi] = self.batch_distances([query], candidates)[0]
        return out


def _columns(index, queries, k=5, budget=40):
    """knn_approx_batch_arrays bytes, single-query answers, evaluations."""
    index.reset_stats()
    rows = index.knn_approx_batch_arrays(queries, k, budget)
    charged = index.stats.query_distances
    singles = [
        [(n.index, n.distance) for n in index.knn_approx(q, k, budget=budget)]
        for q in queries[:3]
    ]
    return (
        rows.distances.tobytes(),
        rows.indices.tobytes(),
        rows.offsets.tobytes(),
        charged,
        singles,
    )


@pytest.fixture(scope="module", params=["dictionary", "genes"])
def corpus(request):
    rng = np.random.default_rng(30)
    if request.param == "dictionary":
        words = synthetic_dictionary("English", 900, rng)
        queries = [w + "e" for w in words[:10]] + ["", "x" * 70]
    else:
        words = genome_prefix_sequences(400, rng=rng)
        queries = words[:10] + ["acgt" * 4]
    return words, queries


#: Picklable, deterministic shard factory.
FACTORY = partial(DistPermIndex, n_sites=6, site_strategy="first")


class TestIndexRefineParity:
    def test_fresh_ram_mmap(self, corpus, tmp_path):
        words, queries = corpus
        factory = FACTORY
        reference = factory(words, PerQueryLevenshtein())
        expected = _columns(reference, queries)
        # Every query pays its k sites plus its budget of candidates.
        assert expected[3] == len(queries) * (6 + 40)
        fresh = factory(words, LevenshteinDistance())
        assert _columns(fresh, queries) == expected
        path = tmp_path / "index.rpc"
        save_distperm(path, fresh)
        for backing in ("ram", "mmap"):
            loaded = load_distperm(
                path, words, LevenshteinDistance(), backing=backing
            )
            try:
                assert _columns(loaded, queries) == expected
            finally:
                loaded.close()

    def test_add_points_grown(self, corpus):
        words, queries = corpus
        half = len(words) // 2
        grown = {}
        for name, metric in (("parent", PerQueryLevenshtein()),
                             ("pair", LevenshteinDistance())):
            index = DistPermIndex(words[:half], metric, n_sites=6,
                                  site_strategy="first")
            index.knn_approx(queries[0], 5, budget=40)  # resident, then grown
            index.add_points(words[half:])
            grown[name] = _columns(index, queries)
        assert grown["pair"] == grown["parent"]

    @pytest.mark.parametrize("split", ["global", "proportional"])
    def test_sharded_in_process_and_pooled(self, corpus, split, tmp_path):
        words, queries = corpus
        factory = FACTORY
        with ShardedIndex(
            words, PerQueryLevenshtein(), factory, n_shards=2,
            budget_split=split,
        ) as reference:
            expected = _columns(reference, queries)
        with ShardedIndex(
            words, LevenshteinDistance(), factory, n_shards=2,
            budget_split=split,
        ) as index:
            assert _columns(index, queries) == expected
            path = tmp_path / "sharded.rpc"
            save_sharded(path, index)
        with ShardedIndex(
            words, LevenshteinDistance(), factory, n_shards=2,
            budget_split=split, resident=True,
        ) as pooled:
            assert _columns(pooled, queries) == expected
        with load_sharded(
            path, words, LevenshteinDistance(), backing="mmap",
            budget_split=split, resident=True,
        ) as pooled_mmap:
            assert _columns(pooled_mmap, queries) == expected


class TestEncodeCacheChurn:
    def test_warm_single_queries_build_no_layouts(self):
        rng = np.random.default_rng(31)
        words = synthetic_dictionary("English", 3000, rng)
        index = DistPermIndex(words, LevenshteinDistance(), n_sites=12,
                              rng=np.random.default_rng(4))
        longest_site = max(map(len, index.sites))
        # Queries no longer than the longest site: to_sites keeps the
        # sites as its cached pattern side.
        queries = [w for w in rng.choice(words, 400).tolist()
                   if len(w) <= longest_site][:101]
        index.knn_approx(queries[0], 10, budget=250)  # warm
        site_layout = encode_strings(index.sites).myers
        before = bitparallel.build_count()
        for query in queries[1:]:
            index.knn_approx(query, 10, budget=250)
        assert bitparallel.build_count() - before <= 1
        assert encode_strings(index.sites).myers is site_layout

    def test_per_query_route_rebuilt_layouts(self):
        # The measurement the test above guards: refining each query
        # through batch_distances over fresh candidate lists builds a
        # layout per query and evicts the sites' from the cache.
        rng = np.random.default_rng(31)
        words = synthetic_dictionary("English", 3000, rng)
        index = DistPermIndex(words, PerQueryLevenshtein(), n_sites=12,
                              rng=np.random.default_rng(4))
        before = bitparallel.build_count()
        for query in rng.choice(words, 20).tolist():
            index.knn_approx(query, 10, budget=250)
        assert bitparallel.build_count() - before >= 10

    def test_resident_encoding_is_held_and_dropped_on_add(self):
        words = synthetic_dictionary("English", 200,
                                     np.random.default_rng(32))
        index = DistPermIndex(words[:150], LevenshteinDistance(), n_sites=4,
                              site_strategy="first")
        index.knn_approx("word", 3, budget=20)
        resident = index._resident_points()
        assert isinstance(resident, EncodedStrings)
        assert index._resident_points() is resident
        index.add_points(words[150:])
        assert len(index._resident_points()) == 200
        # L2 vectors hold their rows and squared norms, held until
        # add_points drops them; L1 has no encoding, so the points are
        # the resident form.
        points = np.random.default_rng(1).random((50, 3))
        vectors = DistPermIndex(points, EuclideanDistance(), n_sites=4)
        resident = vectors._resident_points()
        assert isinstance(resident, EncodedVectors)
        assert vectors._resident_points() is resident
        np.testing.assert_array_equal(resident.rows, points)
        vectors.add_points(points[:5])
        grown = vectors._resident_points()
        assert grown is not resident and len(grown) == 55
        cityblock = DistPermIndex(points, CityblockDistance(), n_sites=4)
        assert cityblock._resident_points() is cityblock.points
