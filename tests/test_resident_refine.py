"""Refine from resident vector norms, one batched top-k per refine group.

``EuclideanDistance.encode`` holds a vector database as its ``float64``
rows plus each row's squared norm (:class:`EncodedVectors`), and its
``grouped_distances`` reads that form: per query one row gather and one
``(1, d) @ (d, m)`` product, the rest of the ``L_2`` kernel elementwise
over the group with the norms looked up.  The index then selects every
query's answer from the group at once with
:func:`~repro.index.batching.top_k_arrays`.  The contract checked here:

- the encoded hook equals ``batch_distances([q], take_points(points,
  ids))[0]`` byte for byte, group by group;
- the batched top-k equals ``np.lexsort((ids, values))[:k]`` row by row,
  ties, infinities, NaNs and short or empty rows included;
- every index configuration returns the columns of the per-query route.
"""

from __future__ import annotations

import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import DistPermIndex, ShardedIndex
from repro.index.batching import top_k_arrays
from repro.index.serialize import (
    load_distperm,
    load_sharded,
    save_distperm,
    save_sharded,
)
from repro.metrics import (
    ChebyshevDistance,
    CityblockDistance,
    EncodedVectors,
    EuclideanDistance,
)
from repro.metrics.base import take_points
from repro.parallel.workerpool import _state_blob


class PerQueryEuclidean(EuclideanDistance):
    """Refine as it ran before the encoding: no resident form, so the
    hook's default makes one ``batch_distances`` call per query."""

    def encode(self, points):
        return None


def _reference(points, queries, ids, offsets):
    metric = EuclideanDistance()
    out = np.empty(len(ids), dtype=np.float64)
    for i in range(len(queries)):
        lo, hi = offsets[i], offsets[i + 1]
        if lo < hi:
            out[lo:hi] = metric.batch_distances(
                [queries[i]], take_points(points, ids[lo:hi])
            )[0]
    return out


@st.composite
def refine_cases(draw):
    d = draw(st.one_of(st.integers(1, 40), st.just(129)))
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(seed)
    points = (rng.random((n, d)) - 0.5) * scale
    n_queries = draw(st.integers(1, 5))
    queries = (rng.random((n_queries, d)) - 0.5) * scale
    # A query equal to a database row: its self-distance must be 0.
    queries[0] = points[draw(st.integers(0, n - 1))]
    sizes = draw(
        st.lists(st.integers(0, 70), min_size=n_queries, max_size=n_queries)
    )
    ids = rng.integers(0, n, sum(sizes))
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return points, queries, ids, offsets


class TestEncodedGroupedDistances:
    @given(case=refine_cases(), as_list=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_query_batch_distances(self, case, as_list):
        points, queries, ids, offsets = case
        metric = EuclideanDistance()
        encoded = metric.encode(points.tolist() if as_list else points)
        assert isinstance(encoded, EncodedVectors) and len(encoded) == len(points)
        got = metric.grouped_distances(
            queries.tolist() if as_list else queries, encoded, ids, offsets
        )
        want = _reference(points, queries, ids, offsets)
        assert got.tobytes() == want.tobytes()
        self_distance = got[offsets[0] : offsets[1]][
            np.all(points[ids[offsets[0] : offsets[1]]] == queries[0], axis=1)
        ]
        assert not self_distance.any()

    @given(case=refine_cases())
    @settings(max_examples=50, deadline=None)
    def test_float32_rows(self, case):
        points, queries, ids, offsets = case
        points, queries = points.astype(np.float32), queries.astype(np.float32)
        metric = EuclideanDistance()
        got = metric.grouped_distances(
            queries, metric.encode(points), ids, offsets
        )
        assert got.tobytes() == _reference(points, queries, ids, offsets).tobytes()

    def test_norms_span_several_blocks(self):
        # More rows than one norm block: blockwise norms equal gathered ones.
        rng = np.random.default_rng(5)
        points = rng.random((40_000, 8))
        ids = rng.integers(0, len(points), 3000)
        offsets = np.array([0, 1000, 1000, 3000])
        queries = rng.random((3, 8))
        metric = EuclideanDistance()
        got = metric.grouped_distances(queries, metric.encode(points), ids, offsets)
        assert got.tobytes() == _reference(points, queries, ids, offsets).tobytes()

    def test_encoding_is_idempotent_and_l2_only(self):
        points = np.random.default_rng(6).random((10, 3))
        encoded = EuclideanDistance().encode(points)
        assert EuclideanDistance().encode(encoded) is encoded
        np.testing.assert_array_equal(encoded.take(np.array([3, 1])), points[[3, 1]])
        assert CityblockDistance().encode(points) is None
        assert ChebyshevDistance().encode(points) is None

    def test_encoding_is_never_shipped(self, tmp_path):
        points = np.random.default_rng(8).random((300, 4))
        index = DistPermIndex(points, EuclideanDistance(), n_sites=5)
        index.knn_approx(points[0], 3, budget=20)
        assert isinstance(index._resident_points(), EncodedVectors)
        _, state = pickle.loads(_state_blob(index).tobytes())
        assert "_resident" not in state and "points" not in state
        path = tmp_path / "index.rpc"
        save_distperm(path, index)
        loaded = load_distperm(path, points, EuclideanDistance())
        assert getattr(loaded, "_resident", None) is None
        # close() releases it; a later refine rebuilds it.
        index.close()
        assert index._resident is None
        assert index.knn_approx(points[0], 3, budget=20) == loaded.knn_approx(
            points[0], 3, budget=20
        )

    def test_dimension_mismatch_raises(self):
        metric = EuclideanDistance()
        encoded = metric.encode(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            metric.grouped_distances(
                np.zeros((1, 2)), encoded, np.array([0]), np.array([0, 1])
            )


values = st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf, -np.inf, np.nan])


class TestBatchedTopK:
    @given(
        rows=st.lists(st.lists(values, min_size=0, max_size=12), min_size=1,
                      max_size=6),
        k=st.integers(1, 14),
        seed=st.integers(0, 2**32 - 1),
        named=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_lexsort(self, rows, k, seed, named):
        rng = np.random.default_rng(seed)
        width = max(len(row) for row in rows)
        lengths = np.array([len(row) for row in rows])
        distances = rng.random((len(rows), width))  # padding is ignored
        for r, row in enumerate(rows):
            distances[r, : len(row)] = row
        ids = np.stack([rng.permutation(100)[:width] for _ in rows]) if named else None
        ragged = (lengths != width).any()
        got = top_k_arrays(distances, k, ids, lengths if ragged else None)
        for r, row in enumerate(rows):
            names = ids[r, : len(row)] if named else np.arange(len(row))
            order = np.lexsort((names, np.asarray(row, dtype=np.float64)))[:k]
            lo, hi = got.offsets[r], got.offsets[r + 1]
            np.testing.assert_array_equal(got.indices[lo:hi], names[order])
            np.testing.assert_array_equal(
                got.distances[lo:hi], np.asarray(row, dtype=np.float64)[order]
            )

    def test_nan_rows_keep_their_values(self):
        got = top_k_arrays(np.array([[0.5, np.nan, 0.2, np.nan]]), 3)
        np.testing.assert_array_equal(got.indices, [2, 0, 1])
        np.testing.assert_array_equal(got.offsets, [0, 3])

    def test_empty_rows(self):
        got = top_k_arrays(np.zeros((3, 4)), 2, lengths=np.array([0, 4, 0]))
        np.testing.assert_array_equal(got.offsets, [0, 0, 2, 2])
        assert top_k_arrays(np.zeros((0, 5)), 2).n_queries == 0


# ----------------------------------------------------------------------
# Every index configuration answers as the per-query route does.
# ----------------------------------------------------------------------

FACTORY = partial(DistPermIndex, n_sites=8, site_strategy="first")


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(41)
    points = rng.random((2000, 6))
    queries = np.vstack([rng.random((9, 6)), points[[3, 1999]]])
    return points, queries


def _columns(index, queries, k=5, budget=60):
    """knn_approx_batch_arrays bytes, single-query answers, evaluations."""
    index.reset_stats()
    rows = index.knn_approx_batch_arrays(queries, k, budget)
    charged = index.stats.query_distances
    singles = [
        [(n.index, n.distance) for n in index.knn_approx(q, k, budget=budget)]
        for q in queries[:4]
    ]
    return (
        rows.distances.tobytes(),
        rows.indices.tobytes(),
        rows.offsets.tobytes(),
        charged,
        singles,
    )


class TestIndexRefineParity:
    def test_fresh_ram_and_partial_cache_mmap(self, cloud, tmp_path):
        points, queries = cloud
        expected = _columns(FACTORY(points, PerQueryEuclidean()), queries)
        fresh = FACTORY(points, EuclideanDistance())
        assert _columns(fresh, queries) == expected
        path = tmp_path / "index.rpc"
        save_distperm(path, fresh)
        # 2000 bytes of cache against 16 000 of decoded positions: single
        # queries take the bounded scan.
        for backing, cache in (("ram", None), ("mmap", 2000)):
            loaded = load_distperm(path, points, EuclideanDistance(),
                                   backing=backing, cache_bytes=cache)
            try:
                store = loaded.code_store
                if store is not None:
                    assert store.decoded_bytes_total() > store.cache_bytes
                assert _columns(loaded, queries) == expected
            finally:
                loaded.close()

    def test_add_points_grown(self, cloud):
        points, queries = cloud
        grown = {}
        for name, metric in (("per-query", PerQueryEuclidean()),
                             ("resident", EuclideanDistance())):
            index = FACTORY(points[:1200], metric)
            index.knn_approx(queries[0], 5, budget=60)  # resident, then grown
            index.add_points(points[1200:])
            grown[name] = _columns(index, queries)
        assert grown["resident"] == grown["per-query"]

    def test_per_query_budgets(self, cloud):
        points, queries = cloud
        budgets = np.array([0, 7, 60, 1, 0, 30, 2000, 5, 9, 60, 3])
        got = {}
        for name, metric in (("per-query", PerQueryEuclidean()),
                             ("resident", EuclideanDistance())):
            rows = FACTORY(points, metric).knn_approx_batch_arrays(
                queries, 5, budget=budgets
            )
            got[name] = (rows.distances.tobytes(), rows.indices.tobytes(),
                         rows.offsets.tobytes())
        assert got["resident"] == got["per-query"]

    @pytest.mark.parametrize("split", ["global", "proportional"])
    def test_sharded_in_process_and_pooled(self, cloud, split, tmp_path):
        points, queries = cloud
        with ShardedIndex(points, PerQueryEuclidean(), FACTORY, n_shards=2,
                          budget_split=split) as reference:
            expected = _columns(reference, queries)
        with ShardedIndex(points, EuclideanDistance(), FACTORY, n_shards=2,
                          budget_split=split) as index:
            assert _columns(index, queries) == expected
            path = tmp_path / "sharded.rpc"
            save_sharded(path, index)
        with load_sharded(path, points, EuclideanDistance(),
                          budget_split=split, resident=True) as pooled:
            assert _columns(pooled, queries) == expected
