"""The supervised shard-resident worker runtime, failure-first.

Every supervision path runs under *injected* faults
(:mod:`repro.parallel.faults`), so crash detection, deadline
enforcement, respawn-with-backoff, retry, and degraded merges are
exercised on every test run rather than only when a worker genuinely
dies.  The acceptance contract mirrors ISSUE 7: a SIGKILL'd pinned
worker mid-batch is transparent under ``on_partial="raise"`` (answers
identical to the unsharded index, recovery well under two seconds) and
*visible* under ``on_partial="degrade"`` (``stats.degraded``,
``shards_answered == S-1``, return within the deadline) — with no hung
call, orphan process, or leaked ``/dev/shm`` segment either way.
Every fault scenario runs on the pooled engine (``resident=True``, the
``pooled`` fixture).
"""

from __future__ import annotations

import os
import subprocess
import time
from functools import partial
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import pytest

from repro.index import DistPermIndex, LinearScan, ShardedIndex
from repro.index.serialize import load_sharded, save_sharded
from repro.metrics import EuclideanDistance, LevenshteinDistance
from repro.parallel import workerpool
from repro.parallel.executor import ProcessExecutor, get_executor
from repro.parallel.faults import FaultInjector, FaultSpec, parse_faults
from repro.parallel.sharedmem import (
    SharedDataset,
    _segment_name,
    sweep_stale_segments,
)
from repro.parallel.workerpool import (
    BuildShardSource,
    QueryPolicy,
    ShardCrashError,
    ShardTimeoutError,
    WorkerPool,
)

#: A stall far longer than any deadline used here; workers sleeping it
#: are always killed, never waited out.
HANG = 30.0


def _repro_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}
    except OSError:  # pragma: no cover - non-tmpfs platforms
        return set()


@pytest.fixture(params=[{"resident": True}], ids=["resident"])
def pooled(request):
    """The pooled engine's constructor arguments."""
    return request.param


@pytest.fixture(scope="module")
def string_setup():
    rng = np.random.default_rng(11)
    letters = "abcd"
    words = [
        "".join(letters[i] for i in rng.integers(0, 4, size=rng.integers(2, 7)))
        for _ in range(120)
    ]
    return words, words[:9], LevenshteinDistance()


@pytest.fixture(scope="module")
def vector_setup():
    rng = np.random.default_rng(12)
    points = rng.random((150, 3))
    queries = points[rng.choice(150, size=8, replace=False)]
    return points, queries, EuclideanDistance()


class TestFaultSpecs:
    def test_parse_faults(self):
        specs = parse_faults(
            "kill:shard=1:request=3, stall:shard=0:request=1:stall_s=2.5,"
            "corrupt:shard=2:request=2:generation=1"
        )
        assert specs == (
            FaultSpec("kill", shard=1, request=3),
            FaultSpec("stall", shard=0, request=1, stall_s=2.5),
            FaultSpec("corrupt", shard=2, request=2, generation=1),
        )
        assert parse_faults("") == ()
        assert parse_faults("  ,  ") == ()

    @pytest.mark.parametrize("text", [
        "explode:shard=0:request=1",       # unknown kind
        "kill:shard=0",                    # missing request
        "kill:request=1",                  # missing shard
        "kill:shard=0:request=zero",       # non-numeric
        "kill:shard=0:request=1:color=red",  # unknown field
        "kill:shard=-1:request=1",         # negative shard
        "kill:shard=0:request=0",          # request is 1-based
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_faults(text)

    def test_injector_scoping(self):
        specs = [
            FaultSpec("kill", shard=1, request=2),
            FaultSpec("stall", shard=1, request=2, generation=1),
        ]
        gen0 = FaultInjector(specs, shard=1, generation=0)
        assert gen0.next_action() is None
        assert gen0.next_action().kind == "kill"
        assert gen0.next_action() is None
        gen1 = FaultInjector(specs, shard=1, generation=1)
        assert gen1.next_action() is None
        assert gen1.next_action().kind == "stall"
        other = FaultInjector(specs, shard=0, generation=0)
        assert other.next_action() is None
        assert other.next_action() is None

    def test_policy_validation(self):
        QueryPolicy(deadline=1.0, retries=0, on_partial="degrade")
        with pytest.raises(ValueError):
            QueryPolicy(deadline=0.0)
        with pytest.raises(ValueError):
            QueryPolicy(retries=-1)
        with pytest.raises(ValueError):
            QueryPolicy(on_partial="shrug")
        with pytest.raises(ValueError):
            QueryPolicy(backoff=-0.1)


class TestResidentEquivalence:
    def test_answers_bit_identical_to_unsharded(
        self, string_setup, leak_check
    ):
        words, queries, metric = string_setup
        oracle = LinearScan(words, metric)
        knn_ref = oracle.knn_batch(queries, 5)
        knn_cost = oracle.stats.query_distances
        oracle.reset_stats()
        range_ref = oracle.range_batch(queries, 2.0)
        with ShardedIndex(
            words, metric, LinearScan, n_shards=3, resident=True
        ) as index:
            assert index.knn_batch(queries, 5) == knn_ref
            assert index.stats.query_distances == knn_cost
            assert index.stats.shards_answered == 3
            assert index.stats.degraded is False
            assert len(index.stats.shard_latencies_s) == 3
            assert all(lat > 0 for lat in index.stats.shard_latencies_s)
            assert index.range_batch(queries, 2.0) == range_ref
            assert index.knn_query(queries[0], 5) == knn_ref[0]

    def test_reset_stats_clears_resilience_fields(self, string_setup):
        words, queries, metric = string_setup
        with ShardedIndex(
            words, metric, LinearScan, n_shards=2, resident=True
        ) as index:
            index.knn_batch(queries, 3)
            assert index.stats.shards_answered == 2
            index.reset_stats()
            assert index.stats.shards_answered is None
            assert index.stats.degraded is False
            assert index.stats.shard_latencies_s is None


class TestKillRecovery:
    """The ISSUE acceptance scenario: SIGKILL one pinned worker mid-batch."""

    def test_raise_mode_transparent_retry(self, string_setup, pooled, leak_check):
        words, queries, metric = string_setup
        oracle = LinearScan(words, metric)
        expected = oracle.knn_batch(queries, 5)
        with ShardedIndex(
            words, metric, LinearScan, n_shards=3, **pooled,
            policy=QueryPolicy(retries=1),
            faults=[FaultSpec("kill", shard=1, request=1)],
        ) as index:
            start = time.perf_counter()
            answers = index.knn_batch(queries, 5)
            elapsed = time.perf_counter() - start
            assert answers == expected  # byte-identical after recovery
            assert elapsed < 2.0
            assert index._worker_pool.respawns == 1
            assert index.stats.degraded is False
            assert index.stats.shards_answered == 3
            # The respawned worker keeps serving.
            assert index.knn_batch(queries, 5) == expected
            assert index._worker_pool.respawns == 1

    def test_degrade_mode_partial_answer(self, string_setup, pooled, leak_check):
        words, queries, metric = string_setup
        oracle = LinearScan(words, metric)
        expected = oracle.knn_batch(queries, 5)
        ranked = oracle.knn_batch(queries, len(words))
        with ShardedIndex(
            words, metric, LinearScan, n_shards=3, **pooled,
            policy=QueryPolicy(deadline=10.0, retries=0, on_partial="degrade"),
            faults=[FaultSpec("kill", shard=1, request=1)],
        ) as index:
            start = time.perf_counter()
            answers = index.knn_batch(queries, 5)
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0  # within the deadline, no hang
            assert index.stats.degraded is True
            assert index.stats.shards_answered == index.n_shards - 1
            assert index.stats.shard_latencies_s[1] is None
            # The partial answer is exactly the best 5 among the
            # surviving shards' points — the failed shard's range is
            # absent, backfilled by the next-nearest survivors.
            lo, hi = index.shard_offsets[1], index.shard_offsets[2]
            assert answers == [
                [n for n in row if not lo <= n.index < hi][:5]
                for row in ranked
            ]
            # Next query is whole again (worker was respawned), but the
            # degraded flag stays up until reset_stats.
            assert index.knn_batch(queries, 5) == expected
            assert index.stats.shards_answered == 3
            assert index.stats.degraded is True

    def test_raise_mode_exhausted_retries(self, string_setup, pooled, leak_check):
        words, queries, metric = string_setup
        with ShardedIndex(
            words, metric, LinearScan, n_shards=3, **pooled,
            policy=QueryPolicy(retries=0),
            faults=[FaultSpec("kill", shard=2, request=1)],
        ) as index:
            with pytest.raises(ShardCrashError) as excinfo:
                index.knn_batch(queries, 5)
            assert excinfo.value.shard == 2
            # The pool healed itself before raising.
            oracle = LinearScan(words, metric)
            assert index.knn_batch(queries, 5) == oracle.knn_batch(queries, 5)

    def test_kill_on_respawn_generation_refires(
        self, string_setup, pooled, leak_check
    ):
        # Two kills, generations 0 and 1: the first retry dies too, the
        # second retry answers.
        words, queries, metric = string_setup
        oracle = LinearScan(words, metric)
        with ShardedIndex(
            words, metric, LinearScan, n_shards=2, **pooled,
            policy=QueryPolicy(retries=2, backoff=0.01),
            faults=[
                FaultSpec("kill", shard=0, request=1),
                FaultSpec("kill", shard=0, request=1, generation=1),
            ],
        ) as index:
            assert index.knn_batch(queries, 4) == oracle.knn_batch(queries, 4)
            assert index._worker_pool.respawns == 2


class TestDeadlines:
    def test_stall_raises_timeout(self, string_setup, pooled, leak_check):
        words, queries, metric = string_setup
        with ShardedIndex(
            words, metric, LinearScan, n_shards=2, **pooled,
            policy=QueryPolicy(deadline=0.4, retries=0),
            faults=[FaultSpec("stall", shard=0, request=1, stall_s=HANG)],
        ) as index:
            start = time.perf_counter()
            with pytest.raises(ShardTimeoutError) as excinfo:
                index.knn_batch(queries, 4)
            assert time.perf_counter() - start < 5.0  # not the stall time
            assert excinfo.value.shard == 0
            # The hung worker was killed and respawned.
            oracle = LinearScan(words, metric)
            assert index.knn_batch(queries, 4) == oracle.knn_batch(queries, 4)

    def test_stall_degrades_within_deadline(self, string_setup, pooled, leak_check):
        words, queries, metric = string_setup
        with ShardedIndex(
            words, metric, LinearScan, n_shards=2, **pooled,
            policy=QueryPolicy(deadline=0.4, retries=0, on_partial="degrade"),
            faults=[FaultSpec("stall", shard=1, request=1, stall_s=HANG)],
        ) as index:
            start = time.perf_counter()
            index.knn_batch(queries, 4)
            assert time.perf_counter() - start < 5.0
            assert index.stats.degraded is True
            assert index.stats.shards_answered == 1


class TestCorruptReplies:
    def test_corrupt_reply_retried(self, string_setup, pooled, leak_check):
        words, queries, metric = string_setup
        oracle = LinearScan(words, metric)
        with ShardedIndex(
            words, metric, LinearScan, n_shards=2, **pooled,
            policy=QueryPolicy(retries=1),
            faults=[FaultSpec("corrupt", shard=0, request=1)],
        ) as index:
            assert index.knn_batch(queries, 4) == oracle.knn_batch(queries, 4)
            assert index._worker_pool.respawns == 1
            assert index.stats.degraded is False

    def test_corrupt_reply_beyond_retries_raises(
        self, string_setup, pooled, leak_check
    ):
        words, queries, metric = string_setup
        with ShardedIndex(
            words, metric, LinearScan, n_shards=2, **pooled,
            policy=QueryPolicy(retries=0),
            faults=[FaultSpec("corrupt", shard=1, request=1)],
        ) as index:
            with pytest.raises(ShardCrashError):
                index.knn_batch(queries, 4)


def _ranked_hostile(kind):
    """Turn a well-formed ``"ranked"`` reply (footrules, means, ids,
    distances) into one that breaks its contract in one way."""

    def mangle(arrays):
        footrules, means, ids, distances = (a.copy() for a in arrays)
        if kind == "dtype":
            return footrules, means, ids, distances.astype(np.float32)
        if kind == "ids_dtype":
            return footrules, means, ids.astype(np.int64), distances
        if kind == "rows":
            return footrules[:-1], means[:-1], ids[:-1], distances[:-1]
        if kind == "row_length":
            return footrules[:, :-1], means, ids[:, :-1], distances[:, :-1]
        if kind == "id_range":
            ids[0, 0] = 10_000
            return footrules, means, ids, distances
        if kind == "arity":
            return footrules, means, ids
        raise AssertionError(kind)

    return mangle


class TestRankedReplies:
    """Every broken ``"ranked"`` reply is a corrupt reply: the worker is
    respawned and the request retried, and the answer is the in-process
    one."""

    INNER = staticmethod(partial(DistPermIndex, n_sites=4, site_strategy="first"))

    def _expected(self, words, queries, metric):
        with ShardedIndex(words, metric, self.INNER, n_shards=2) as serial:
            return serial.knn_approx_batch_arrays(queries, 4, 30)

    @pytest.mark.parametrize(
        "kind", ["dtype", "ids_dtype", "rows", "row_length", "id_range", "arity"]
    )
    def test_hostile_reply_is_retried(
        self, string_setup, monkeypatch, leak_check, kind
    ):
        words, queries, metric = string_setup
        expected = self._expected(words, queries, metric)
        consume = workerpool._consume_payload
        mangled = []

        def hostile(payload):
            arrays = consume(payload)
            if not mangled and arrays is not None and len(arrays) == 4:
                mangled.append(kind)
                return _ranked_hostile(kind)(arrays)
            return arrays

        monkeypatch.setattr(workerpool, "_consume_payload", hostile)
        with ShardedIndex(
            words, metric, self.INNER, n_shards=2, resident=True,
            policy=QueryPolicy(retries=1),
        ) as index:
            got = index.knn_approx_batch_arrays(queries, 4, 30)
            assert mangled == [kind]
            assert index._worker_pool.respawns == 1
            assert index.stats.degraded is False
        for column in ("distances", "indices", "offsets"):
            assert getattr(got, column).tobytes() == getattr(expected, column).tobytes()

    def test_corrupt_injector_on_ranked_op(self, string_setup, leak_check):
        words, queries, metric = string_setup
        expected = self._expected(words, queries, metric)
        with ShardedIndex(
            words, metric, self.INNER, n_shards=2, resident=True,
            policy=QueryPolicy(retries=1),
            faults=[FaultSpec("corrupt", shard=1, request=1)],
        ) as index:
            got = index.knn_approx_batch_arrays(queries, 4, 30)
            assert index._worker_pool.respawns == 1
        assert got.indices.tobytes() == expected.indices.tobytes()
        assert got.distances.tobytes() == expected.distances.tobytes()


class TestWorkerPoolDirect:
    """Pool-level behaviors below the index surface."""

    def _pool(self, vector_setup, n_shards=2, **kwargs):
        points, _, metric = vector_setup
        offsets = np.linspace(0, len(points), n_shards + 1, dtype=int)
        dataset = SharedDataset.publish(points)
        pool = WorkerPool(
            [
                BuildShardSource(dataset, int(a), int(b), LinearScan, metric)
                for a, b in zip(offsets, offsets[1:])
            ],
            **kwargs,
        )
        return pool, dataset

    def test_ping_and_check_revive(self, vector_setup, leak_check):
        pool, dataset = self._pool(vector_setup)
        try:
            assert pool.ping() == [True, True]
            victim = pool._workers[1].process
            victim.kill()
            victim.join()
            assert pool.ping() == [True, False]
            assert pool.check() == [True, False]
            assert pool.ping() == [True, True]
            assert pool.respawns == 1
        finally:
            pool.close()
            dataset.unlink()

    def test_ping_drains_stale_replies(self, vector_setup, leak_check):
        points, queries, _ = vector_setup
        pool, dataset = self._pool(vector_setup)
        try:
            # An abandoned request leaves its reply in the pipe; the
            # next heartbeat must drain past it, not misread it.
            pool._workers[0].conn.send(("query", 999, "knn", queries, 2, None))
            time.sleep(0.3)
            assert pool.ping() == [True, True]
        finally:
            pool.close()
            dataset.unlink()

    def test_application_error_propagates_without_retry(
        self, vector_setup, leak_check
    ):
        _, queries, _ = vector_setup
        pool, dataset = self._pool(vector_setup)
        try:
            with pytest.raises(RuntimeError, match="raised in its worker"):
                # radius validation happens inside the worker's index.
                pool.query(
                    "range", queries, -1.0, [None, None], QueryPolicy()
                )
            assert pool.respawns == 0  # deterministic errors do not retry
        finally:
            pool.close()
            dataset.unlink()

    def test_close_idempotent_and_query_after_close(
        self, vector_setup, leak_check
    ):
        _, queries, _ = vector_setup
        pool, dataset = self._pool(vector_setup)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.query("knn", queries, 2, [None, None], QueryPolicy())
        with pytest.raises(RuntimeError, match="closed"):
            pool.ping()
        dataset.unlink()

    def test_close_kills_stalled_worker_promptly(
        self, vector_setup, leak_check
    ):
        _, queries, _ = vector_setup
        pool, dataset = self._pool(
            vector_setup,
            faults=[FaultSpec("stall", shard=0, request=1, stall_s=HANG)],
        )
        try:
            with pytest.raises(ShardTimeoutError):
                pool.query(
                    "knn", queries, 2, [None, None],
                    QueryPolicy(deadline=0.3, retries=0),
                )
        finally:
            start = time.perf_counter()
            pool.close()
            assert time.perf_counter() - start < 10.0
            dataset.unlink()


class TestFaultsFromEnvironment:
    def test_sharded_index_reads_repro_faults(
        self, string_setup, monkeypatch, leak_check
    ):
        words, queries, metric = string_setup
        monkeypatch.setenv("REPRO_FAULTS", "kill:shard=0:request=1")
        oracle = LinearScan(words, metric)
        with ShardedIndex(
            words, metric, LinearScan, n_shards=2, resident=True,
            policy=QueryPolicy(retries=1),
        ) as index:
            assert index.knn_batch(queries, 4) == oracle.knn_batch(queries, 4)
            assert index._worker_pool.respawns == 1

    def test_bad_env_faults_raise_early(
        self, string_setup, monkeypatch, leak_check
    ):
        # A fresh pooled index spawns its pool at build, so a malformed
        # REPRO_FAULTS fails the constructor, before any worker starts.
        words, _, metric = string_setup
        monkeypatch.setenv("REPRO_FAULTS", "kill:shard=0")
        with pytest.raises(ValueError, match="request"):
            ShardedIndex(words, metric, LinearScan, n_shards=2, resident=True)


class TestFileBackedResident:
    def test_loaded_index_recovers_from_payload_file(
        self, tmp_path, string_setup, pooled, leak_check
    ):
        words, queries, metric = string_setup
        factory = partial(DistPermIndex, n_sites=4, site_strategy="first")
        with ShardedIndex(words, metric, factory, n_shards=3) as index:
            expected = index.knn_batch(queries, 4)
            approx_ref = index.knn_approx_batch(queries, 3, budget=25)
            path = tmp_path / "sharded.rpc"
            save_sharded(path, index)
        loaded = load_sharded(
            path, words, metric, **pooled,
            policy=QueryPolicy(retries=1),
            faults=[FaultSpec("kill", shard=2, request=1)],
        )
        try:
            # The killed worker reloads shard s2 from the payload file.
            assert loaded.knn_batch(queries, 4) == expected
            assert loaded._worker_pool.respawns == 1
            assert loaded.knn_approx_batch(queries, 3, budget=25) == approx_ref
        finally:
            loaded.close()
            loaded.close()


class TestLifecycle:
    def test_resident_close_idempotent(self, string_setup, leak_check):
        words, queries, metric = string_setup
        index = ShardedIndex(
            words, metric, LinearScan, n_shards=2, resident=True
        )
        index.knn_batch(queries, 3)
        index.close()
        index.close()

    def test_unqueried_pooled_close(
        self, tmp_path, string_setup, pooled, leak_check
    ):
        words, _, metric = string_setup
        factory = partial(DistPermIndex, n_sites=4, site_strategy="first")
        # A fresh pooled index spawns at build: its workers built it.
        index = ShardedIndex(words, metric, factory, n_shards=2, **pooled)
        try:
            assert index._worker_pool is not None
            assert index._worker_pool.ping() == [True, True]
            path = tmp_path / "sharded.bin"
            save_sharded(path, index)
        finally:
            index.close()
        # A loaded one spawns lazily, on its first query.
        loaded = load_sharded(path, words, metric, **pooled)
        try:
            assert loaded._worker_pool is None
            loaded.knn_batch(words[:2], 2)
            assert loaded._worker_pool is not None
        finally:
            loaded.close()

    def test_closed_fresh_pooled_index_refuses_queries(self, string_setup):
        words, queries, metric = string_setup
        index = ShardedIndex(
            words, metric, LinearScan, n_shards=2, resident=True
        )
        index.close()
        with pytest.raises(RuntimeError, match="closed"):
            index.knn_batch(queries, 3)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_failed_build_leaves_no_orphans(
        self, vector_setup, shards, leak_check
    ):
        # The factory runs inside the pinned workers, so a raising
        # factory is a worker that dies on load, twice (one respawn):
        # its traceback goes to the worker's stderr, the owner sees a
        # crashed shard.
        points, _, metric = vector_setup
        with pytest.raises(ShardCrashError):
            ShardedIndex(
                points, metric, _failing_factory,
                n_shards=shards, resident=True,
            )
        # leak_check asserts: no live children, no new /dev/shm segments.

    def test_unpicklable_factory_fails_before_any_spawn(
        self, vector_setup, pooled, leak_check, monkeypatch
    ):
        points, _, metric = vector_setup
        spawned = []
        monkeypatch.setattr(
            WorkerPool, "_spawn", lambda self, shard: spawned.append(shard)
        )
        with pytest.raises(TypeError, match="inner_factory.*lambda") as info:
            ShardedIndex(
                points, metric, lambda p, m: LinearScan(p, m),
                n_shards=2, **pooled,
            )
        assert "functools.partial" in str(info.value)
        assert spawned == []
        # The in-process engine never pickles anything.
        ShardedIndex(
            points, metric, lambda p, m: LinearScan(p, m), n_shards=2
        ).close()


def _failing_factory(points, metric):
    raise ValueError("injected build failure")


def _boom_or_sleep(i):
    if i == 0:
        raise RuntimeError("first task boom")
    time.sleep(0.2)
    return i


class TestExecutorCancellation:
    def test_map_failure_cancels_and_stays_usable(self, leak_check):
        with ProcessExecutor(2) as executor:
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="first task boom"):
                executor.map(_boom_or_sleep, [(i,) for i in range(10)])
            # No deadlock: well under the 10 x 0.2s serial worst case,
            # and the pool still answers afterwards.
            assert time.perf_counter() - start < 8.0
            assert executor.map(_boom_or_sleep, [(1,), (2,)]) == [1, 2]


class TestMpContextOverride:
    def test_unknown_context_is_a_friendly_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "hyperthread")
        with pytest.raises(ValueError, match="REPRO_MP_CONTEXT"):
            get_executor(2)

    def test_known_context_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
        executor = get_executor(1)
        executor.close()


class TestSegmentSweep:
    def test_segment_names_carry_owner_pid(self):
        name = _segment_name()
        assert name.startswith(f"repro-{os.getpid()}-")

    def test_sweep_unlinks_dead_owner_segments(self, tmp_path):
        proc = subprocess.Popen(["/bin/true"])
        proc.wait()
        dead_pid = proc.pid
        stale = f"repro-{dead_pid}-deadbeef"
        shm = shared_memory.SharedMemory(name=stale, create=True, size=16)
        # The sweep unlinks the file directly; keep this process's
        # resource tracker out of it so it does not double-unlink later.
        resource_tracker.unregister(shm._name, "shared_memory")
        shm.close()
        try:
            removed = sweep_stale_segments()
            assert stale in removed
            assert stale not in _repro_segments()
        finally:
            try:
                os.unlink(f"/dev/shm/{stale}")
            except FileNotFoundError:
                pass

    def test_sweep_keeps_live_owner_segments(self):
        dataset = SharedDataset.publish(np.arange(8))
        try:
            name = dataset.arrays[0].name
            assert name not in sweep_stale_segments()
            assert name in _repro_segments()
        finally:
            dataset.unlink()

    def test_sweep_missing_root_is_noop(self):
        assert sweep_stale_segments("/nonexistent-shm-root") == []
