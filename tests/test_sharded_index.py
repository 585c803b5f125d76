"""Worker/shard invariance of :class:`~repro.index.sharded.ShardedIndex`.

The acceptance contract: exact ``knn`` / ``range`` answers (single and
batched) are identical to the unsharded inner index — same neighbor
sets, same ``(distance, index)`` tie-breaking — and
:class:`~repro.index.base.SearchStats` totals match for exhaustive inner
indexes, across ``{in-process, resident}`` x ``shards in {1, 4}``.
Discrete metrics are compared bit-for-bit; Euclidean by rounded
signature (the documented last-ulp caveat of the vectorized kernels).
Budgeted ``knn_approx`` must be deterministic across engines for a
fixed shard layout.  The index has two engines — in-process and the
pinned worker pool (``resident=True``) — and
:class:`TestEngineEquivalence` holds every op byte-identical across
both, on fresh and on loaded (RAM- and mmap-backed) indexes.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.experiments.harness import run_query_workload
from repro.index import (
    DistPermIndex,
    LinearScan,
    ShardedIndex,
    VPTree,
)
from repro.index.serialize import load_sharded, save_sharded
from repro.metrics import EuclideanDistance, LevenshteinDistance
from repro.parallel.faults import FaultSpec
from repro.parallel.workerpool import QueryPolicy, WorkerPool

RESIDENT_GRID = [False, True]
SHARD_GRID = [1, 4]


def vptree_factory(points, metric):
    """Module-level (picklable), freshly seeded per call (deterministic)."""
    return VPTree(points, metric, rng=np.random.default_rng(20080415))


def _signature(rows):
    return [[(n.index, round(n.distance, 9)) for n in row] for row in rows]


@pytest.fixture(scope="module")
def vector_setup():
    rng = np.random.default_rng(5)
    points = rng.random((160, 3))
    queries = points[rng.choice(160, size=10, replace=False)]
    return points, queries, EuclideanDistance()


@pytest.fixture(scope="module")
def string_setup():
    rng = np.random.default_rng(6)
    letters = "abc"
    # Heavy ties: short words over a 3-letter alphabet.
    words = [
        "".join(letters[i] for i in rng.integers(0, 3, size=rng.integers(2, 6)))
        for _ in range(140)
    ]
    queries = words[:8]
    return words, queries, LevenshteinDistance()


class TestExactInvariance:
    """Answers and stats versus the unsharded oracle, full grid."""

    @pytest.mark.parametrize("shards", SHARD_GRID)
    @pytest.mark.parametrize("resident", RESIDENT_GRID)
    def test_strings_bit_identical(self, string_setup, resident, shards):
        words, queries, metric = string_setup
        oracle = LinearScan(words, metric)
        knn_ref = oracle.knn_batch(queries, 5)
        knn_cost = oracle.stats.query_distances
        oracle.reset_stats()
        range_ref = oracle.range_batch(queries, 2.0)
        range_cost = oracle.stats.query_distances
        with ShardedIndex(
            words, metric, LinearScan, n_shards=shards, resident=resident
        ) as index:
            assert index.knn_batch(queries, 5) == knn_ref
            assert index.stats.query_distances == knn_cost
            assert index.stats.queries == len(queries)
            index.reset_stats()
            assert index.range_batch(queries, 2.0) == range_ref
            assert index.stats.query_distances == range_cost
            # Single-query surface agrees with the batched one.
            assert index.knn_query(queries[0], 5) == knn_ref[0]
            assert index.range_query(queries[1], 2.0) == range_ref[1]

    @pytest.mark.parametrize("shards", SHARD_GRID)
    @pytest.mark.parametrize("resident", RESIDENT_GRID)
    def test_vectors_signature_identical(self, vector_setup, resident, shards):
        points, queries, metric = vector_setup
        oracle = LinearScan(points, metric)
        knn_ref = _signature(oracle.knn_batch(queries, 5))
        knn_cost = oracle.stats.query_distances
        with ShardedIndex(
            points, metric, LinearScan, n_shards=shards, resident=resident
        ) as index:
            assert _signature(index.knn_batch(queries, 5)) == knn_ref
            assert index.stats.query_distances == knn_cost
            assert _signature(index.range_batch(queries, 0.35)) == _signature(
                oracle.range_batch(queries, 0.35)
            )

    def test_pruning_inner_same_answers(self, string_setup):
        # Tree inners keep answers exact for any layout; their stats
        # legitimately differ from the unsharded tree (per-shard pruning),
        # so only answers are compared here.
        words, queries, metric = string_setup
        oracle = LinearScan(words, metric)
        knn_ref = oracle.knn_batch(queries, 4)
        range_ref = oracle.range_batch(queries, 1.0)
        for resident in RESIDENT_GRID:
            with ShardedIndex(
                words, metric, vptree_factory, n_shards=4, resident=resident
            ) as index:
                assert index.knn_batch(queries, 4) == knn_ref
                assert index.range_batch(queries, 1.0) == range_ref


#: ShardedIndex's two engines.
ENGINES = {
    "in-process": {},
    "resident": {"resident": True},
}


@pytest.fixture(scope="module")
def engine_reference(tmp_path_factory, string_setup):
    """Saved payload + in-process reference columns per budget split."""
    words, queries, metric = string_setup
    factory = partial(DistPermIndex, n_sites=5, site_strategy="first")
    path = tmp_path_factory.mktemp("engines") / "sharded.bin"
    reference = {}
    for split in ("proportional", "global"):
        with ShardedIndex(
            words, metric, factory, n_shards=3, budget_split=split
        ) as index:
            reference[split] = _engine_columns(index, queries)
            save_sharded(path, index)
    return words, queries, metric, factory, path, reference


def _engine_columns(index, queries):
    """Every op's columns as bytes, plus the evaluations it charged."""
    out = {}
    for op, run in (
        ("range", lambda: index.range_batch_arrays(queries, 2.0)),
        ("knn", lambda: index.knn_batch_arrays(queries, 4)),
        ("knn-approx", lambda: index.knn_approx_batch_arrays(queries, 4, 30)),
    ):
        index.reset_stats()
        rows = run()
        out[op] = (
            rows.distances.tobytes(),
            rows.indices.tobytes(),
            rows.offsets.tobytes(),
            index.stats.query_distances,
        )
    return out


class TestEngineEquivalence:
    """{in-process, resident=True} x {fresh, ram, mmap}."""

    @pytest.mark.parametrize("split", ["proportional", "global"])
    @pytest.mark.parametrize("source", ["fresh", "ram", "mmap"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_op_byte_identical(
        self, engine_reference, engine, source, split, leak_check
    ):
        words, queries, metric, factory, path, reference = engine_reference
        if source == "fresh":
            index = ShardedIndex(
                words, metric, factory, n_shards=3, budget_split=split,
                **ENGINES[engine],
            )
        else:
            index = load_sharded(
                path, words, metric, backing=source, budget_split=split,
                **ENGINES[engine],
            )
        with index:
            assert _engine_columns(index, queries) == reference[split]
            stats = index.stats
            if engine == "in-process":
                assert index._worker_pool is None
                assert stats.shard_latencies_s is None
                assert stats.reply_bytes == 0
            else:
                assert isinstance(index._worker_pool, WorkerPool)
                assert index._worker_pool.n_shards == 3
                assert len(stats.shard_latencies_s) == 3
                assert all(lat > 0 for lat in stats.shard_latencies_s)
                assert stats.reply_bytes > 0
                assert stats.shards_answered == 3
            shown = "in-process" if engine == "in-process" else "pool"
            assert f"engine={shown})" in repr(index)
        # leak_check: close() left no repro-* segment and no live child.


class TestBudgetedInvariance:
    def test_deterministic_across_workers(self, string_setup):
        words, queries, metric = string_setup
        factory = partial(DistPermIndex, n_sites=4, site_strategy="first")
        for shards in SHARD_GRID:
            reference = None
            for resident in RESIDENT_GRID:
                with ShardedIndex(
                    words, metric, factory, n_shards=shards, resident=resident
                ) as index:
                    answers = index.knn_approx_batch(queries, 3, budget=25)
                    cost = index.stats.query_distances
                    single = index.knn_approx(queries[0], 3, budget=25)
                if reference is None:
                    reference = (answers, cost)
                assert (answers, cost) == reference, (shards, resident)
                assert single == answers[0]

    def test_budget_split_proportional(self, string_setup):
        words, _, metric = string_setup
        factory = partial(DistPermIndex, n_sites=4, site_strategy="first")
        with ShardedIndex(words, metric, factory, n_shards=4) as index:
            budgets = index._split_budget(3, 40)
            sizes = [
                index.shard_offsets[s + 1] - index.shard_offsets[s]
                for s in range(index.n_shards)
            ]
            assert all(
                b >= min(3, size) for b, size in zip(budgets, sizes)
            )
            # Ceiling split: within one of the proportional share.
            n = len(words)
            for b, size in zip(budgets, sizes):
                assert 40 * size / n <= b <= 40 * size / n + 1
            assert index._split_budget(3, None) == [None] * 4

    def test_full_budget_equals_exact(self, string_setup):
        words, queries, metric = string_setup
        factory = partial(DistPermIndex, n_sites=4, site_strategy="first")
        oracle = LinearScan(words, metric)
        with ShardedIndex(words, metric, factory, n_shards=4) as index:
            assert index.knn_approx_batch(
                queries, 3, budget=len(words)
            ) == oracle.knn_batch(queries, 3)


class TestBuild:
    @pytest.mark.parametrize("resident", RESIDENT_GRID)
    def test_build_stats_aggregate(self, string_setup, resident):
        words, _, metric = string_setup
        factory = partial(DistPermIndex, n_sites=4, site_strategy="first")
        with ShardedIndex(
            words, metric, factory, n_shards=4, resident=resident
        ) as index:
            assert index.stats.build_distances == sum(
                shard.stats.build_distances for shard in index.shards
            )
            # Each shard paid its own n_shard x k site matrix.
            assert index.stats.build_distances == 4 * len(words)

    def test_shard_layout(self, vector_setup):
        points, _, metric = vector_setup
        index = ShardedIndex(points, metric, LinearScan, n_shards=3)
        assert index.n_shards == 3
        assert index.shard_offsets[0] == 0
        assert index.shard_offsets[-1] == len(points)
        for s, shard in enumerate(index.shards):
            start, stop = index.shard_offsets[s], index.shard_offsets[s + 1]
            assert np.array_equal(np.asarray(shard.points), points[start:stop])

    def test_more_shards_than_points_capped(self, vector_setup):
        _, _, metric = vector_setup
        points = np.random.default_rng(0).random((3, 2))
        index = ShardedIndex(points, metric, LinearScan, n_shards=10)
        assert index.n_shards == 3

    def test_invalid_arguments(self, vector_setup):
        points, _, metric = vector_setup
        with pytest.raises(ValueError):
            ShardedIndex(points, metric, LinearScan, n_shards=0)

    def test_wrap_existing_index(self, vector_setup):
        # Sharding a built index: a ShardedIndex over its database with
        # its type (or a partial carrying its configuration) as factory.
        points, queries, metric = vector_setup
        base = LinearScan(points, metric)
        with ShardedIndex(
            base.points, metric, type(base), n_shards=4
        ) as wrapped:
            assert _signature(wrapped.knn_batch(queries, 5)) == _signature(
                base.knn_batch(queries, 5)
            )

    def test_close_idempotent(self, vector_setup):
        points, queries, metric = vector_setup
        index = ShardedIndex(
            points, metric, LinearScan, n_shards=2, resident=True
        )
        index.knn_batch(queries[:2], 3)
        index.close()
        index.close()


class TestShardedSerialization:
    def test_roundtrip_matches_saved(self, tmp_path, string_setup):
        words, queries, metric = string_setup
        factory = partial(DistPermIndex, n_sites=4, site_strategy="first")
        with ShardedIndex(words, metric, factory, n_shards=3) as index:
            approx_ref = index.knn_approx_batch(queries, 3, budget=20)
            knn_ref = index.knn_batch(queries, 3)
            path = tmp_path / "sharded.rpc"
            save_sharded(path, index)
            site_ref = [shard.site_indices for shard in index.shards]
        for resident in RESIDENT_GRID:
            loaded = load_sharded(path, words, metric, resident=resident)
            try:
                assert loaded.stats.build_distances == 0
                assert [s.site_indices for s in loaded.shards] == site_ref
                assert loaded.knn_approx_batch(
                    queries, 3, budget=20
                ) == approx_ref
                assert loaded.knn_batch(queries, 3) == knn_ref
            finally:
                loaded.close()

    def test_wrong_database_rejected(self, tmp_path, string_setup):
        words, _, metric = string_setup
        factory = partial(DistPermIndex, n_sites=4, site_strategy="first")
        with ShardedIndex(words, metric, factory, n_shards=2) as index:
            path = tmp_path / "sharded.rpc"
            save_sharded(path, index)
        with pytest.raises(ValueError):
            load_sharded(path, words[:-1], metric)
        shuffled = list(reversed(words))
        with pytest.raises(ValueError):
            load_sharded(path, shuffled, metric)

    def test_non_distperm_shards_rejected(self, tmp_path, vector_setup):
        points, _, metric = vector_setup
        with ShardedIndex(points, metric, LinearScan, n_shards=2) as index:
            with pytest.raises(TypeError):
                save_sharded(tmp_path / "bad.rpc", index)


class TestWorkloadRunner:
    def test_workload_shards_and_workers(self, string_setup):
        # Sharded workloads run through a ShardedIndex, on either engine;
        # the pooled one reports its resilience and reply-volume fields.
        words, queries, metric = string_setup
        base = LinearScan(words, metric)
        reference = run_query_workload(base, queries, kind="knn", k=4)
        for resident in RESIDENT_GRID:
            with ShardedIndex(
                words, metric, LinearScan, n_shards=4, resident=resident
            ) as index:
                report = run_query_workload(index, queries, kind="knn", k=4)
            assert report.results == reference.results
            assert (
                report.distance_evaluations == reference.distance_evaluations
            )
            assert report.n_queries == reference.n_queries
            assert not report.degraded
            if resident:
                assert report.shards_answered == 4
                assert report.reply_bytes > 0
                assert len(report.shard_reply_bytes) == 4

    def test_workload_reports_a_partial_pooled_answer(self, string_setup):
        words, queries, metric = string_setup
        with ShardedIndex(
            words, metric, LinearScan, n_shards=3, resident=True,
            policy=QueryPolicy(retries=0, on_partial="degrade"),
            faults=[FaultSpec("kill", shard=1, request=1)],
        ) as index:
            report = run_query_workload(index, queries, kind="knn", k=4)
        assert report.degraded
        assert report.shards_answered == 2
        assert report.shard_reply_bytes[1] is None
        assert report.reply_bytes > 0

    def test_workload_accepts_prebuilt_sharded(self, string_setup):
        words, queries, metric = string_setup
        base = LinearScan(words, metric)
        reference = run_query_workload(base, queries, kind="range", radius=2.0)
        with ShardedIndex(words, metric, LinearScan, n_shards=3) as index:
            report = run_query_workload(
                index, queries, kind="range", radius=2.0
            )
            assert report.results == reference.results
