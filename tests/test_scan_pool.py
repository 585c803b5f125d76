"""The scan threads of :class:`~repro.index.DistPermIndex`.

A batch spanning two query chunks or more, on a scan that decodes
nothing (RAM, or an mmap store whose cache holds every block), scores its
chunks on the process's scan threads.  The answers and the distance
counts must be the serial path's byte for byte, whatever the chunking,
budgets or backing; and a forked child must not inherit a pool whose
threads it does not have.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import numpy as np
import pytest

from repro.index import DistPermIndex, distperm
from repro.index.serialize import load_distperm, save_distperm
from repro.metrics import EuclideanDistance
from repro.parallel.executor import _default_context

N, K, BUDGET = 3000, 5, 60


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(50)
    return rng.random((N, 6)), rng.random((23, 6))


@pytest.fixture(scope="module")
def payload(data, tmp_path_factory):
    points, _ = data
    path = tmp_path_factory.mktemp("pool") / "index.v3"
    built = DistPermIndex(points, EuclideanDistance(), n_sites=8,
                          rng=np.random.default_rng(51))
    save_distperm(path, built)
    return path


@pytest.fixture
def small_tiles(monkeypatch):
    """Pooled chunks of 2 queries, serial ones of 6: 23 queries span
    twelve pooled chunks, the last one short."""
    monkeypatch.setattr(distperm, "_TILE_BYTES", 2 * N)


def _answers(index, queries, budget, threads, monkeypatch):
    monkeypatch.setattr(distperm, "_scan_threads", lambda: threads)
    index.reset_stats()
    answer = index.knn_approx_batch_arrays(queries, K, budget)
    return answer, index.stats.query_distances


def _assert_same(got, expected):
    (a, a_count), (b, b_count) = got, expected
    assert a.offsets.tobytes() == b.offsets.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.distances.tobytes() == b.distances.tobytes()
    assert a_count == b_count


def _budgets(n_queries):
    """Ragged per-query budgets, zero rows included."""
    return np.random.default_rng(52).integers(0, 3 * BUDGET, n_queries)


@pytest.mark.parametrize("backing", ["ram", "mmap"])
@pytest.mark.parametrize("ragged", [False, True])
def test_pooled_columns_equal_serial(data, payload, small_tiles, monkeypatch,
                                     backing, ragged):
    points, queries = data
    # A cache holding every block: the mmap scan decodes nothing after
    # its first pass, and tiles as RAM does.
    index = load_distperm(payload, points, EuclideanDistance(),
                          backing=backing, cache_bytes=1 << 22)
    budget = _budgets(len(queries)) if ragged else BUDGET
    assert len(list(index._query_chunks(len(queries)))) > 1
    assert not index._scan_decodes()
    serial = _answers(index, queries, budget, 1, monkeypatch)
    assert index._scan_workspaces == []
    pooled = _answers(index, queries, budget, 2, monkeypatch)
    assert 1 <= len(index._scan_workspaces) <= 2
    _assert_same(pooled, serial)
    # The RAM index answers the same as either.
    ram = load_distperm(payload, points, EuclideanDistance())
    _assert_same(_answers(ram, queries, budget, 1, monkeypatch), serial)
    index.close()


def test_cold_mmap_cache_fills_once_under_the_pool(data, payload, small_tiles,
                                                   monkeypatch):
    points, queries = data
    index = load_distperm(payload, points, EuclideanDistance(),
                          backing="mmap", cache_bytes=1 << 22)
    store = index.code_store
    pooled = _answers(index, queries, BUDGET, 2, monkeypatch)
    # Each block is decoded by the first tile fill that reaches it and
    # copied from the cache by every other.
    assert store.cache_misses == store.n_blocks
    ram = load_distperm(payload, points, EuclideanDistance())
    _assert_same(pooled, _answers(ram, queries, BUDGET, 1, monkeypatch))
    index.close()


def test_threads_share_one_store_and_the_spares(data, payload, small_tiles,
                                                monkeypatch):
    """More scan threads than cores and a short switch interval: the
    store's counters and cache, and the index's spare workspaces, are
    shared, so a lost update or a workspace held twice shows."""
    points, queries = data
    index = load_distperm(payload, points, EuclideanDistance(),
                          backing="mmap", cache_bytes=1 << 22)
    store = index.code_store
    monkeypatch.setattr(distperm, "_scan_threads", lambda: 8)
    monkeypatch.setattr(distperm, "_scan_pool", None)
    ram = load_distperm(payload, points, EuclideanDistance())
    expected = _answers(ram, queries, BUDGET, 1, monkeypatch)
    monkeypatch.setattr(distperm, "_scan_threads", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            _assert_same(_answers(index, queries, BUDGET, 8, monkeypatch),
                         expected)
    finally:
        sys.setswitchinterval(interval)
        distperm._scan_pool.shutdown()
    fills = 5 * len(range(0, len(queries), 2)) * store.n_blocks
    assert (store.cache_misses, store.cache_hits) == (
        store.n_blocks, fills - store.n_blocks
    )
    assert 1 <= len(index._scan_workspaces) <= 8
    index.close()


def test_one_chunk_and_single_queries_stay_serial(data, payload, monkeypatch):
    points, queries = data
    index = load_distperm(payload, points, EuclideanDistance())
    monkeypatch.setattr(distperm, "_scan_threads", lambda: 2)
    assert len(list(index._query_chunks(len(queries)))) == 1
    index.knn_approx_batch_arrays(queries, K, BUDGET)
    index.knn_approx(queries[0], K, BUDGET)
    assert index._scan_workspaces == []


def test_an_error_on_a_scan_thread_reaches_the_caller(data, payload,
                                                      small_tiles, monkeypatch):
    points, queries = data
    index = load_distperm(payload, points, EuclideanDistance())
    monkeypatch.setattr(distperm, "_scan_threads", lambda: 2)

    def broken(*args):
        raise RuntimeError("scan thread failed")

    monkeypatch.setattr(index, "_scored_chunk", broken)
    with pytest.raises(RuntimeError, match="scan thread failed"):
        index.knn_approx_batch_arrays(queries, K, BUDGET)


def _child_batch(path, points, queries, conn):
    index = load_distperm(path, points, EuclideanDistance())
    answer = index.knn_approx_batch_arrays(queries, K, BUDGET)
    conn.send((answer.indices.tobytes(), answer.distances.tobytes()))


def _wait(pid: int, seconds: float) -> int:
    """``pid``'s exit code, or a test failure once ``seconds`` pass."""
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's multi-chunk batch hung")
        time.sleep(0.05)


def test_fork_child_runs_a_multi_chunk_batch(data, payload, small_tiles,
                                             monkeypatch):
    points, queries = data
    index = load_distperm(payload, points, EuclideanDistance())
    expected, _ = _answers(index, queries, BUDGET, 2, monkeypatch)
    assert distperm._scan_pool is not None  # the parent's threads run
    # The child inherits the patched thread count, so it scores on a pool
    # too: one of its own, as the one it inherited has no threads.
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")
    context = _default_context()
    receive, send = context.Pipe(duplex=False)
    child = context.Process(
        target=_child_batch, args=(payload, points, queries, send)
    )
    child.start()
    send.close()
    if not receive.poll(120):
        child.kill()
        child.join()
        pytest.fail("the forked child's multi-chunk batch hung")
    got = receive.recv()
    assert _wait(child.pid, 60) == 0
    assert got == (expected.indices.tobytes(), expected.distances.tobytes())


def test_os_fork_child_starts_its_own_pool(data, payload, small_tiles,
                                           monkeypatch):
    points, queries = data
    index = load_distperm(payload, points, EuclideanDistance())
    expected, _ = _answers(index, queries, BUDGET, 2, monkeypatch)
    parent_pool = distperm._scan_pool
    assert parent_pool is not None
    pid = os.fork()
    if pid == 0:  # the child: a pooled batch on threads of its own
        status = 1
        try:
            fresh = distperm._scan_pool is None
            got = index.knn_approx_batch_arrays(queries, K, BUDGET)
            same = got.indices.tobytes() == expected.indices.tobytes()
            status = 0 if fresh and same and distperm._scan_pool else 2
        finally:
            os._exit(status)
    assert _wait(pid, 120) == 0
    assert distperm._scan_pool is parent_pool
