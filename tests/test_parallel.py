"""Tests for the multi-core execution layer (:mod:`repro.parallel`).

The contract under test everywhere: results are *identical* for every
worker count and every row partition — the serial backend defines the
semantics and the process pool must reproduce them exactly, including
census counts, frequency-of-frequency spectra, and site-draw order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimate import StreamingCensus
from repro.core.permutation import permutations_from_distances
from repro.experiments.harness import permutation_count_trials
from repro.metrics import EuclideanDistance, LevenshteinDistance
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    SharedArray,
    SharedDataset,
    decode_strings,
    get_executor,
    shard_ranges,
    sharded_census,
)


@pytest.fixture(scope="module")
def pool():
    """One shared two-worker pool for the whole module (startup amortized)."""
    with ProcessExecutor(2) as executor:
        yield executor


def _square(x):
    return x * x


def _fail(x):
    raise RuntimeError(f"boom {x}")


class TestExecutor:
    def test_worker_spec(self):
        # Serial is None or 0; nothing else spells it.
        for bad in (-1, "serial", "four", True, 2.0):
            with pytest.raises(ValueError, match="workers must be"):
                get_executor(bad)

    def test_get_executor_kinds(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(0), SerialExecutor)
        with get_executor(1) as executor:
            assert isinstance(executor, ProcessExecutor)
            assert executor.workers == 1

    def test_serial_map_order(self):
        assert SerialExecutor().map(_square, [(i,) for i in range(7)]) == [
            i * i for i in range(7)
        ]

    def test_pool_map_order(self, pool):
        # More tasks than workers: results must still arrive in task order.
        assert pool.map(_square, [(i,) for i in range(13)]) == [
            i * i for i in range(13)
        ]

    def test_pool_propagates_errors(self, pool):
        with pytest.raises(RuntimeError, match="boom"):
            pool.map(_fail, [(1,)])

    def test_closed_pool_rejects_work(self):
        executor = ProcessExecutor(1)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(RuntimeError):
            executor.map(_square, [(1,)])


def _roundtrip_dataset(points):
    return SharedDataset.publish(points).resolve()


def _resolve_remote(dataset):
    """Worker-side resolution (the owner shortcut is pickled away)."""
    points = dataset.resolve()
    if isinstance(points, np.ndarray):
        return np.asarray(points).copy()
    return list(points)


def _attached_segments():
    """The shared-memory segments this worker process still maps."""
    from repro.parallel import sharedmem

    return sorted(sharedmem._ATTACHED)


class TestSharedMemory:
    def test_array_roundtrip_owner(self):
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        shared = SharedArray.publish(array)
        try:
            assert np.array_equal(shared.array(), array)
        finally:
            shared.unlink()
            shared.unlink()  # idempotent

    def test_dataset_kinds(self):
        vectors = np.arange(6, dtype=np.float64).reshape(3, 2)
        with SharedDataset.publish(vectors) as dataset:
            assert dataset.kind == "array"
            assert dataset.resolve() is vectors  # owner shortcut
        words = ["héllo", "", "naïve", "a\x00b"]
        with SharedDataset.publish(words) as dataset:
            assert dataset.kind == "strings"
            assert dataset.resolve() is words
        mixed = [("tuple", 1), ("of", 2)]
        with SharedDataset.publish(mixed) as dataset:
            assert dataset.kind == "pickle"

    def test_worker_side_resolution(self, pool):
        vectors = np.random.default_rng(3).random((20, 3))
        words = ["αβγ", "", "edit", "distance", "a\x00b"]
        mixed = [("t", 1), ("u", 2)]
        for points, check in (
            (vectors, lambda r: np.array_equal(r, vectors)),
            (words, lambda r: r == words),
            (mixed, lambda r: r == mixed),
        ):
            with SharedDataset.publish(points) as dataset:
                [result] = pool.map(_resolve_remote, [(dataset,)])
                assert check(result)

    def test_worker_keeps_only_the_dataset_it_serves(self):
        # A reused pool must not pin every database it ever resolved:
        # resolving another dataset unmaps the last one's segments.
        rng = np.random.default_rng(5)
        databases = [rng.random((64, 2)), ["ab", "", "abc"], rng.random((9, 3))]
        with ProcessExecutor(1) as executor:
            for points in databases:
                with executor.share(points) as dataset:
                    [resolved] = executor.map(_resolve_remote, [(dataset,)])
                    assert np.array_equal(resolved, points)
                    names = sorted(a.name for a in dataset.arrays)
                [attached] = executor.map(_attached_segments, [()])
                assert attached == names

    def test_decode_strings_inverse(self):
        from repro.metrics.encoding import EncodedStrings

        words = ["", "abc", "ααα", "x" * 40, "a\x00"]
        encoded = EncodedStrings.from_strings(words)
        assert decode_strings(encoded.codes, encoded.lengths) == words

    def test_local_dataset_never_touches_shared_memory(self):
        words = ["serial", "only"]
        dataset = SharedDataset.local(words)
        assert dataset.arrays == []
        assert dataset.resolve() is words
        dataset.unlink()  # no-op
        import pickle

        with pytest.raises(TypeError, match="cannot be shipped"):
            pickle.dumps(dataset)

    def test_serial_census_uses_no_segments(self, monkeypatch, rng):
        # Serial runs must not require /dev/shm at all.
        import repro.parallel.sharedmem as sharedmem

        def forbidden(*args, **kwargs):
            raise AssertionError("serial path allocated shared memory")

        monkeypatch.setattr(
            sharedmem.shared_memory, "SharedMemory", forbidden
        )
        points = rng.random((50, 2))
        sites = [points[0], points[1], points[2]]
        censuses, _ = sharded_census(points, sites, EuclideanDistance())
        assert censuses[3].total == 50
        trials = permutation_count_trials(
            points, EuclideanDistance(), k=3, n_trials=2,
            rng=np.random.default_rng(1),
        )
        assert len(trials.counts) == 2


class TestShardRanges:
    def test_partition_properties(self):
        for n in (0, 1, 5, 17, 100):
            for shards in (1, 2, 3, 7, 150):
                ranges = shard_ranges(n, shards)
                # Contiguous cover of range(n), no empty shard.
                flat = [i for start, stop in ranges for i in range(start, stop)]
                assert flat == list(range(n))
                assert all(stop > start for start, stop in ranges)
                sizes = [stop - start for start, stop in ranges]
                if sizes:
                    assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_ranges(5, 0)


class TestStreamingCensusMerge:
    def test_merge_equals_whole(self, rng):
        perms = permutations_from_distances(rng.random((200, 5)))
        whole = StreamingCensus()
        whole.update(perms)
        cuts = sorted(rng.choice(199, size=3, replace=False) + 1)
        parts = []
        previous = 0
        for cut in list(cuts) + [200]:
            part = StreamingCensus()
            part.update(perms[previous:cut])
            parts.append(part)
            previous = cut
        merged = StreamingCensus.merged(parts)
        assert merged.distinct == whole.distinct
        assert merged.total == whole.total
        assert (
            merged.frequency_of_frequencies()
            == whole.frequency_of_frequencies()
        )
        assert merged.chao1() == whole.chao1()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 120),
        splits=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    def test_merged_over_shard_ranges_equals_whole(self, n, splits, seed):
        # A census is exactly mergeable over any row partition, which is
        # why the shard count is the pool size and not a setting.
        rng = np.random.default_rng(seed)
        # An integer grid: heavy distance ties, many repeated codes.
        points = rng.integers(0, 3, size=(n, 3)).astype(float)
        sites = rng.integers(0, 3, size=(5, 3)).astype(float)
        metric = EuclideanDistance()
        ks = [2, 5]
        whole, perms = sharded_census(
            points, sites, metric, ks, collect_permutations=True
        )
        parts = [
            sharded_census(
                points[start:stop], sites, metric, ks,
                collect_permutations=True,
            )
            for start, stop in shard_ranges(n, splits)
        ]
        for k in ks:
            merged = StreamingCensus.merged(part[0][k] for part in parts)
            assert (merged.total, merged.distinct) == (
                whole[k].total, whole[k].distinct
            )
            np.testing.assert_array_equal(merged.codes, whole[k].codes)
            np.testing.assert_array_equal(merged.counts, whole[k].counts)
        if parts:
            np.testing.assert_array_equal(
                np.concatenate([part[1] for part in parts]), perms
            )

    def test_merged_single_partial_is_a_copy(self, rng):
        # One non-empty partial (every serial census) is already sorted
        # and collapsed: merged() copies its run — equal, never aliased —
        # with or without empty partials around it.
        part = StreamingCensus()
        part.update(permutations_from_distances(rng.random((300, 4))))
        codes, counts = part.codes.copy(), part.counts.copy()
        for partials in ([part], [StreamingCensus(), part, StreamingCensus()]):
            merged = StreamingCensus.merged(partials)
            assert (merged.k, merged.coding, merged.total) == (4, "lehmer", 300)
            np.testing.assert_array_equal(merged.codes, codes)
            np.testing.assert_array_equal(merged.counts, counts)
            assert not np.shares_memory(merged.codes, part.codes)
            assert not np.shares_memory(merged.counts, part.counts)
            merged.counts[:] = -1
            merged.codes[:] = 0
            merged.update(permutations_from_distances(rng.random((50, 4))))
            np.testing.assert_array_equal(part.codes, codes)
            np.testing.assert_array_equal(part.counts, counts)
            assert part.total == 300

    def test_merge_in_place_returns_self(self):
        a, b = StreamingCensus(), StreamingCensus()
        a.update(np.array([[0, 1], [1, 0]]))
        b.update(np.array([[0, 1]]))
        assert a.merge(b) is a
        assert a.total == 3
        assert a.distinct == 2

    def test_merge_self_rejected(self):
        census = StreamingCensus()
        with pytest.raises(ValueError):
            census.merge(census)

    def test_merge_empty_width_batches(self):
        a, b = StreamingCensus(), StreamingCensus()
        a.update(np.empty((3, 0), dtype=np.int64))
        b.update(np.empty((2, 0), dtype=np.int64))
        assert a.merge(b).total == 5
        assert a.distinct == 1


class TestShardedCensus:
    @pytest.fixture(scope="class")
    def vector_data(self):
        rng = np.random.default_rng(42)
        points = rng.random((150, 3))
        sites = [points[i] for i in range(8)]
        return points, sites, EuclideanDistance()

    @pytest.fixture(scope="class")
    def string_data(self):
        rng = np.random.default_rng(43)
        letters = "ab"
        words = [
            "".join(letters[i] for i in rng.integers(0, 2, size=4))
            for _ in range(120)
        ]
        sites = words[:6]
        return words, sites, LevenshteinDistance()

    @pytest.mark.parametrize("fixture", ["vector_data", "string_data"])
    def test_invariance_across_workers_and_shards(
        self, fixture, request, pool
    ):
        # The serial run is one shard; the pool splits the rows into one
        # shard per worker and ships the Lehmer codes back across IPC.
        points, sites, metric = request.getfixturevalue(fixture)
        ks = [2, len(sites)]
        reference, ref_perms = sharded_census(
            points, sites, metric, ks=ks, collect_permutations=True
        )
        censuses, perms = sharded_census(
            points, sites, metric, ks=ks, executor=pool,
            collect_permutations=True,
        )
        for k in ks:
            assert censuses[k].distinct == reference[k].distinct
            assert (
                censuses[k].frequency_of_frequencies()
                == reference[k].frequency_of_frequencies()
            )
        assert np.array_equal(perms, ref_perms)

    def test_prefix_is_recomputed_not_sliced(self, vector_data):
        # The permutation of a site prefix is not a prefix of the full
        # permutation; a k-prefix census can never exceed k!.
        points, sites, metric = vector_data
        censuses, _ = sharded_census(points, sites, metric, ks=[2, 3])
        assert censuses[2].distinct <= 2
        assert censuses[3].distinct <= 6

    def test_invalid_prefix_rejected(self, vector_data):
        points, sites, metric = vector_data
        with pytest.raises(ValueError):
            sharded_census(points, sites, metric, ks=[len(sites) + 1])


class TestPermutationCountTrials:
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_invariance(self, workers):
        rng = np.random.default_rng(2008)
        points = np.random.default_rng(9).random((100, 2))
        metric = EuclideanDistance()
        reference = permutation_count_trials(
            points, metric, k=4, n_trials=3,
            rng=np.random.default_rng(2008),
        )
        result = permutation_count_trials(
            points, metric, k=4, n_trials=3, rng=rng,
            workers=workers,
        )
        assert result.counts == reference.counts
