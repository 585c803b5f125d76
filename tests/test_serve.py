"""The serving layer: wire protocol, micro-batcher, end-to-end server.

The acceptance contract of ISSUE 9: answers served through the
micro-batching socket server are identical to the serial batch API —
byte-identical for discrete (string) metrics, exact indices with
last-ulp distance agreement for float metrics, where the batch kernels
are documented not to be bitwise invariant to batch width — under any
interleaving of concurrent clients; admission past the queue bound is
an explicit REJECTED with a retry hint, never latency collapse; a
graceful drain answers every accepted request; and injected worker
kills under ``on_partial="degrade"`` surface as the response's
degraded flag, not as corruption.

Async paths run through ``asyncio.run`` inside ordinary sync tests —
the suite has no async plugin and does not need one.
"""

from __future__ import annotations

import asyncio
import os
import socket
import struct
import subprocess
import threading
import time
from functools import partial
from multiprocessing import resource_tracker, shared_memory
from types import SimpleNamespace

import numpy as np
import pytest

from repro.index import DistPermIndex, LinearScan, ShardedIndex, VPTree
from repro.metrics import EuclideanDistance, LevenshteinDistance
from repro.metrics.base import CountingMetric
from repro.parallel.faults import FaultSpec
from repro.parallel.sharedmem import SharedDataset
from repro.parallel.workerpool import (
    BuildShardSource,
    QueryPolicy,
    ShardCrashError,
    WorkerPool,
)
from repro.serve import protocol
from repro.serve.batcher import BatchConfig, MicroBatcher, RejectedError
from repro.serve.client import (
    AsyncClient,
    ServerBusyError,
    ServerError,
    SyncClient,
)
from repro.serve.server import QueryServer, serve_in_thread

# ----------------------------------------------------------------------
# Shared fixtures and helpers.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def vectors():
    return np.random.default_rng(90801).random((400, 4))


@pytest.fixture(scope="module")
def vec_queries():
    return np.random.default_rng(90802).random((24, 4))


@pytest.fixture(scope="module")
def words():
    rng = np.random.default_rng(90803)
    return [
        "".join("abcd"[i] for i in rng.integers(0, 4, size=rng.integers(2, 7)))
        for _ in range(150)
    ]


@pytest.fixture
def sock(tmp_path):
    return str(tmp_path / "serve.sock")


def _repro_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}
    except OSError:  # pragma: no cover - non-tmpfs platforms
        return set()


def assert_rows_equal(got, want, *, exact=True):
    """Columns identical; ``exact=False`` allows last-ulp distance slack.

    The float batch kernels are not bitwise invariant to batch width
    (documented last-ulp caveat), so answers that crossed a coalesced
    window compare with ``nulp`` slack on distances — indices, offsets,
    and shapes stay strictly equal either way.
    """
    np.testing.assert_array_equal(got.offsets, want.offsets)
    np.testing.assert_array_equal(got.indices, want.indices)
    if exact:
        assert got.distances.tobytes() == want.distances.tobytes()
    else:
        np.testing.assert_array_almost_equal_nulp(
            got.distances, want.distances, nulp=4
        )
    assert got.distances.dtype == want.distances.dtype
    assert got.indices.dtype == want.indices.dtype
    assert got.offsets.dtype == want.offsets.dtype


# ----------------------------------------------------------------------
# Wire protocol.
# ----------------------------------------------------------------------


def _payload(frame: bytes) -> bytes:
    """Strip a frame's length prefix, checking it for consistency."""
    assert protocol.frame_length(frame[:4]) == len(frame) - 4
    return frame[4:]


def _array_section(tag: int, shape) -> bytes:
    """A one-array section header claiming ``shape``, with no data."""
    return struct.pack(
        f"<BBB{len(shape)}q", 1, tag, len(shape), *shape
    )


#: Request frames that decode past the head and then break the wire
#: format: truncated params, or in ways numpy and ``chr`` notice before
#: the framing does.
HOSTILE_REQUESTS = {
    "params-truncated": protocol.pack_frame(
        struct.pack("<BQ", protocol.OP_KNN, 6) + b"\x01\x02"
    ),
    # int64 element count 2**64 wraps to 0, so "0 bytes" fit the frame.
    "shape-count-wraps": protocol.pack_frame(
        struct.pack("<BQqdqB", protocol.OP_KNN, 7, 1, 0.0, -1,
                    protocol.KIND_VECTORS)
        + _array_section(0, (2**32, 2**32))
    ),
    # Zero elements, but an extent numpy refuses to reshape to.
    "zero-size-huge-extent": protocol.pack_frame(
        struct.pack("<BQqdqB", protocol.OP_KNN, 8, 1, 0.0, -1,
                    protocol.KIND_VECTORS)
        + _array_section(0, (0, 2**62))
    ),
    "code-point-past-unicode": protocol.encode_request(
        protocol.OP_KNN, 9, k=1,
        queries=(
            np.array([[ord("a"), 0x110000]], dtype=np.uint32),
            np.array([2], dtype=np.int64),
        ),
        kind=protocol.KIND_STRINGS,
    ),
}


#: Valid frames for the bit-flip and truncation sweep, each with the
#: decoder that reads it.
_VALID_FRAMES = {
    "request-knn-vectors": (protocol.decode_request, protocol.encode_request(
        protocol.OP_KNN, 31, k=3,
        queries=(protocol.encode_vector_queries(
            np.arange(6, dtype=np.float64).reshape(2, 3) / 7
        ),),
        kind=protocol.KIND_VECTORS,
    )),
    "request-knn-approx-strings": (
        protocol.decode_request,
        protocol.encode_request(
            protocol.OP_KNN_APPROX, 32, k=2, budget=40,
            queries=protocol.encode_string_queries(["ab", "cab", ""]),
            kind=protocol.KIND_STRINGS,
        ),
    ),
    "request-range": (protocol.decode_request, protocol.encode_request(
        protocol.OP_RANGE, 33, radius=0.75,
        queries=(protocol.encode_vector_queries(np.array([[0.5, 0.25]])),),
        kind=protocol.KIND_VECTORS,
    )),
    "response-ok-columns": (protocol.decode_response, protocol.encode_response(
        34, protocol.STATUS_OK, flags=protocol.FLAG_DEGRADED,
        arrays=(
            np.array([0.5, 1.5, 2.5]),
            np.array([3, 1, 2], dtype=np.int64),
            np.array([0, 2, 3], dtype=np.int64),
        ),
    )),
    "response-error": (protocol.decode_response, protocol.encode_response(
        35, protocol.STATUS_ERROR, message="k must be >= 1"
    )),
    "response-rejected": (protocol.decode_response, protocol.encode_response(
        36, protocol.STATUS_REJECTED, retry_after=0.125
    )),
}


def _read_response(conn: socket.socket) -> protocol.Response:
    """Read and decode one response frame from a raw blocking socket."""

    def exactly(n):
        data = b""
        while len(data) < n:
            chunk = conn.recv(n - len(data))
            assert chunk, "server closed the connection"
            data += chunk
        return data

    return protocol.decode_response(
        exactly(protocol.frame_length(exactly(4)))
    )


def _non_utf8_error(request_id: int) -> bytes:
    """An ERROR response frame whose message ends in byte ``0xff``."""
    message = b"bad \xff"
    return protocol.pack_frame(
        struct.pack("<QBBI", request_id, protocol.STATUS_ERROR, 0,
                    len(message))
        + message
    )


#: Two-query answers that each break the CSR column contract one way.
_D3 = np.array([0.5, 1.5, 2.5])
_I3 = np.array([3, 1, 2], dtype=np.int64)
HOSTILE_COLUMNS = {
    "offsets-not-from-0": (_D3, _I3, np.array([1, 2, 3], dtype=np.int64)),
    "offsets-decrease": (_D3, _I3, np.array([0, 4, 3], dtype=np.int64)),
    "offsets-do-not-close": (_D3, _I3, np.array([0, 1, 2], dtype=np.int64)),
    "2-d-column": (
        _D3.reshape(3, 1), _I3, np.array([0, 2, 3], dtype=np.int64)
    ),
}


class _HostileShard:
    """A shard whose ``knn`` reply is the given columns, whatever is asked."""

    def __init__(self, points, metric, columns):
        self.metric = CountingMetric(metric)
        self.columns = columns

    def knn_batch_arrays(self, queries, k):
        distances, indices, offsets = self.columns
        return SimpleNamespace(
            distances=distances, indices=indices, offsets=offsets
        )


@pytest.mark.parametrize("name", HOSTILE_COLUMNS)
class TestHostileColumns:
    """One column check on both byte boundaries: socket and worker pipe."""

    def test_socket_frame_is_a_protocol_error(self, name):
        frame = protocol.encode_response(
            1, protocol.STATUS_OK, arrays=HOSTILE_COLUMNS[name]
        )
        with pytest.raises(protocol.ProtocolError, match="result columns"):
            protocol.decode_response(_payload(frame))

    def test_worker_reply_is_a_retried_shard_fault(
        self, name, vectors, vec_queries, leak_check
    ):
        with SharedDataset.publish(vectors) as dataset:
            source = BuildShardSource(
                dataset, 0, len(vectors),
                partial(_HostileShard, columns=HOSTILE_COLUMNS[name]),
                EuclideanDistance(),
            )
            with WorkerPool([source]) as pool:
                with pytest.raises(
                    ShardCrashError, match="malformed knn reply payload"
                ):
                    pool.query(
                        "knn", vec_queries[:2], 2, [None],
                        QueryPolicy(retries=1, backoff=0.0),
                    )
                # Failed, respawned, retried, failed again, respawned.
                assert pool.respawns == 2
                assert pool.ping() == [True]


class TestProtocol:
    def test_knn_request_roundtrip(self, vec_queries):
        frame = protocol.encode_request(
            protocol.OP_KNN, 7, k=5,
            queries=(protocol.encode_vector_queries(vec_queries),),
            kind=protocol.KIND_VECTORS,
        )
        request = protocol.decode_request(_payload(frame))
        assert request.op == protocol.OP_KNN
        assert request.request_id == 7
        assert request.k == 5
        assert request.budget is None
        assert request.kind == protocol.KIND_VECTORS
        assert request.queries.dtype == np.float64
        np.testing.assert_array_equal(request.queries, vec_queries)

    def test_range_request_roundtrip(self, vec_queries):
        frame = protocol.encode_request(
            protocol.OP_RANGE, 9, radius=0.25,
            queries=(protocol.encode_vector_queries(vec_queries[:1]),),
            kind=protocol.KIND_VECTORS,
        )
        request = protocol.decode_request(_payload(frame))
        assert request.op == protocol.OP_RANGE
        assert request.radius == 0.25
        assert request.n_queries == 1

    def test_string_knn_approx_roundtrip(self, words):
        frame = protocol.encode_request(
            protocol.OP_KNN_APPROX, 3, k=4, budget=60,
            queries=protocol.encode_string_queries(words[:6]),
            kind=protocol.KIND_STRINGS,
        )
        request = protocol.decode_request(_payload(frame))
        assert request.op == protocol.OP_KNN_APPROX
        assert request.k == 4
        assert request.budget == 60
        assert request.kind == protocol.KIND_STRINGS
        assert request.queries == words[:6]

    def test_ping_and_stats_requests_carry_no_payload(self):
        for op in (protocol.OP_PING, protocol.OP_STATS):
            request = protocol.decode_request(
                _payload(protocol.encode_request(op, 1))
            )
            assert request.op == op
            assert request.queries is None
            assert request.n_queries == 0

    def test_ok_response_roundtrip_preserves_columns(self):
        distances = np.array([0.5, 1.5, 2.5])
        indices = np.array([3, 1, 2], dtype=np.int64)
        offsets = np.array([0, 2, 3], dtype=np.int64)
        frame = protocol.encode_response(
            11, protocol.STATUS_OK, flags=protocol.FLAG_DEGRADED,
            arrays=(distances, indices, offsets),
        )
        response = protocol.decode_response(_payload(frame))
        assert response.status == protocol.STATUS_OK
        assert response.request_id == 11
        assert response.degraded
        got_d, got_i, got_o = response.arrays
        assert got_d.tobytes() == distances.tobytes()
        assert got_i.tobytes() == indices.tobytes()
        assert got_o.tobytes() == offsets.tobytes()

    def test_rejected_response_carries_retry_after(self):
        frame = protocol.encode_response(
            5, protocol.STATUS_REJECTED, retry_after=0.125
        )
        response = protocol.decode_response(_payload(frame))
        assert response.status == protocol.STATUS_REJECTED
        assert response.retry_after == 0.125
        assert not response.degraded

    def test_error_and_pong_roundtrip(self):
        error = protocol.decode_response(_payload(
            protocol.encode_response(
                2, protocol.STATUS_ERROR, message="k must be >= 1"
            )
        ))
        assert error.message == "k must be >= 1"
        pong = protocol.decode_response(_payload(
            protocol.encode_response(
                4, protocol.STATUS_PONG, pid=4242, draining=True
            )
        ))
        assert pong.pid == 4242
        assert pong.draining

    def test_truncated_payloads_raise(self, vec_queries):
        frame = protocol.encode_request(
            protocol.OP_KNN, 7, k=5,
            queries=(protocol.encode_vector_queries(vec_queries),),
            kind=protocol.KIND_VECTORS,
        )
        whole = _payload(frame)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_request(whole[:3])  # inside the head
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_request(whole[:-8])  # inside the array bytes
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_response(b"\x00")

    def test_unknown_op_and_status_raise(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_request(99, 1)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_request(struct.pack("<BQ", 42, 1))
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_response(struct.pack("<QBB", 1, 99, 0))

    @pytest.mark.parametrize("name", sorted(HOSTILE_REQUESTS))
    def test_hostile_request_is_a_protocol_error(self, name):
        payload = _payload(HOSTILE_REQUESTS[name])
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.decode_request(payload)
        # The head parsed, so the error names the request it answers.
        assert info.value.request_id == struct.unpack_from("<BQ", payload)[1]

    @pytest.mark.parametrize("name", sorted(_VALID_FRAMES))
    def test_flipped_and_truncated_payloads_decode_or_protocol_error(
        self, name
    ):
        """Every single-bit flip and every truncation of a valid payload
        either decodes or raises ``ProtocolError`` — no other exception
        type escapes the decoder."""
        decode, frame = _VALID_FRAMES[name]
        payload = _payload(frame)
        decode(payload)
        mutants = [payload[:cut] for cut in range(len(payload))]
        for bit in range(8 * len(payload)):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            mutants.append(bytes(flipped))
        for mutant in mutants:
            try:
                decode(mutant)
            except protocol.ProtocolError:
                pass

    def test_non_utf8_message_is_a_protocol_error(self):
        with pytest.raises(protocol.ProtocolError, match="UTF-8"):
            protocol.decode_response(_payload(_non_utf8_error(3)))

    def test_oversized_length_prefix_rejected(self):
        header = struct.pack("<I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_length(header)


# ----------------------------------------------------------------------
# Micro-batcher scheduling (unit level, direct submit).
# ----------------------------------------------------------------------


def _run_batcher(index, config, body):
    """Start a batcher inside a fresh loop, run ``body``, always drain."""

    async def _main():
        batcher = MicroBatcher(index, config=config)
        batcher.start()
        try:
            return await body(batcher)
        finally:
            await batcher.drain()

    return asyncio.run(_main())


class TestMicroBatcher:
    def test_concurrent_knn_coalesce_into_one_engine_call(
        self, vectors, vec_queries
    ):
        """Mixed-k requests share one engine call at the window's max k,
        and each trimmed answer matches its own serial call."""
        index = LinearScan(vectors, EuclideanDistance())
        ks = (1, 3, 7, 2)
        parts = [vec_queries[i * 4:(i + 1) * 4] for i in range(len(ks))]
        config = BatchConfig(
            max_batch=sum(len(p) for p in parts), max_wait_ms=500.0
        )

        async def body(batcher):
            return await asyncio.gather(*(
                batcher.submit("knn", part, k=k)
                for part, k in zip(parts, ks)
            ))

        answers = _run_batcher(index, config, body)
        assert index.stats.queries == sum(len(p) for p in parts)
        for (rows, degraded), part, k in zip(answers, parts, ks):
            assert not degraded
            assert_rows_equal(
                rows, index.knn_batch_arrays(part, k), exact=False
            )

    def test_range_radii_coalesce_and_filter(self, vectors, vec_queries):
        index = VPTree(vectors, EuclideanDistance(),
                       rng=np.random.default_rng(1))
        radii = (0.1, 0.45)
        parts = (vec_queries[:5], vec_queries[5:12])
        config = BatchConfig(max_batch=12, max_wait_ms=500.0)

        async def body(batcher):
            return await asyncio.gather(*(
                batcher.submit("range", part, radius=radius)
                for part, radius in zip(parts, radii)
            ))

        answers = _run_batcher(index, config, body)
        for (rows, _), part, radius in zip(answers, parts, radii):
            assert_rows_equal(
                rows, index.range_batch_arrays(part, radius), exact=False
            )

    def test_knn_approx_groups_by_budget(self, vectors, vec_queries):
        """Different budgets must not share an engine call: the budget
        clamp shapes the candidate set, so each group answers exactly."""
        index = DistPermIndex(vectors, EuclideanDistance(), n_sites=6,
                              rng=np.random.default_rng(2))
        config = BatchConfig(max_batch=8, max_wait_ms=500.0)

        async def body(batcher):
            results = await asyncio.gather(
                batcher.submit(
                    "knn-approx", vec_queries[:4], k=3, budget=40
                ),
                batcher.submit(
                    "knn-approx", vec_queries[4:8], k=3, budget=200
                ),
            )
            return results, batcher.stats.batches_executed

        (answers, batches) = _run_batcher(index, config, body)
        assert batches == 2  # one engine call per (k, budget) group
        for (rows, _), part, budget in zip(
            answers, (vec_queries[:4], vec_queries[4:8]), (40, 200)
        ):
            # Sole member of its group: the identical engine call.
            assert_rows_equal(
                rows,
                index.knn_approx_batch_arrays(part, 3, budget=budget),
                exact=True,
            )

    def test_fresh_batcher_coalesces_concurrent_submits(self, vectors):
        """With no dispatch history the target is ``max_batch``: requests
        submitted together share one window (as the timer made them)."""
        index = LinearScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=64, max_wait_ms=200.0)

        async def body(batcher):
            await asyncio.gather(*(
                batcher.submit("knn", vectors[i : i + 1], k=1)
                for i in range(5)
            ))
            return batcher.stats

        stats = _run_batcher(index, config, body)
        assert stats.batch_size_histogram == {5: 1}
        assert stats.current_window_s == pytest.approx(0.2)

    def test_lone_sequential_caller_skips_the_timer(self, vectors):
        """After its first answer a lone caller is the whole population:
        its next requests dispatch on arrival, not after ``max_wait_ms``."""
        index = LinearScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=64, max_wait_ms=500.0)

        async def body(batcher):
            await batcher.submit("knn", vectors[:1], k=1)  # waits 500 ms
            started = time.monotonic()
            for i in range(1, 6):
                await batcher.submit("knn", vectors[i : i + 1], k=1)
            return time.monotonic() - started

        assert _run_batcher(index, config, body) < 0.25

    def test_target_counts_callers_not_rows(self, vectors):
        """A multi-row request is one caller: after a 16-row ``knn`` the
        same lone caller's singles still dispatch on arrival."""
        index = LinearScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=64, max_wait_ms=500.0)

        async def body(batcher):
            started = time.monotonic()
            await batcher.submit("knn", vectors[:16], k=1)  # waits 500 ms
            first = time.monotonic()
            for i in range(5):
                await batcher.submit("knn", vectors[i : i + 1], k=1)
            return time.monotonic() - first, first - started

        singles, first_window = _run_batcher(index, config, body)
        assert first_window >= 0.4  # a fresh batcher's window, unfilled
        assert singles < 0.25

    @pytest.mark.parametrize("callers", [2, 5])
    def test_closed_loop_callers_form_full_windows(self, vectors, callers):
        """N closed-loop callers make windows of N rows that close as soon
        as the last caller is back, far below the timer cap."""
        index = LinearScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=64, max_wait_ms=500.0)
        rounds = 6

        async def caller(batcher, c):
            for r in range(rounds):
                row = (c * rounds + r) % len(vectors)
                await batcher.submit("knn", vectors[row : row + 1], k=2)

        async def body(batcher):
            await asyncio.gather(*(
                batcher.submit("knn", vectors[c : c + 1], k=2)
                for c in range(callers)
            ))  # the first window waits out the timer
            stats = batcher.stats
            waited = stats.coalesce_latency_mean_s * callers
            await asyncio.gather(*(caller(batcher, c) for c in range(callers)))
            later = stats.coalesce_latency_mean_s * callers * (rounds + 1)
            return stats.batch_size_histogram, (later - waited) / (
                callers * rounds
            )

        histogram, mean_wait = _run_batcher(index, config, body)
        assert histogram == {callers: rounds + 1}
        assert mean_wait < 0.05

    def test_out_of_phase_groups_merge_into_one_window(self, vectors):
        """A group that arrives while another group's batch runs is in the
        next window's target, so both groups ride one window from then
        on instead of alternating half-size windows."""
        joined = threading.Event()

        class HeldScan(LinearScan):
            def knn_batch_arrays(self, queries, k):
                joined.wait(timeout=10.0)  # the first batch runs until then
                return super().knn_batch_arrays(queries, k)

        index = HeldScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=64, max_wait_ms=200.0)
        group, rounds = 3, 4

        async def caller(batcher, c):
            for r in range(rounds):
                await batcher.submit("knn", vectors[c : c + 1], k=1)

        async def late_group(batcher):
            # Join while the first group's first batch is in the engine.
            while not batcher.stats.batches_executed:
                await asyncio.sleep(0.001)
            late = asyncio.gather(*(
                caller(batcher, c) for c in range(group, 2 * group)
            ))
            await asyncio.sleep(0)  # every late caller has submitted
            joined.set()
            await late

        async def body(batcher):
            await asyncio.gather(
                late_group(batcher),
                *(caller(batcher, c) for c in range(group)),
            )
            return batcher.stats.batch_size_histogram

        # The early group's first window and the late group's last one
        # ride alone; every window between carries both groups.
        histogram = _run_batcher(index, config, body)
        assert histogram == {group: 2, 2 * group: rounds - 1}

    def test_admission_bound_rejects_with_retry_after(self, vectors):
        index = LinearScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=100, max_wait_ms=500.0, max_queue=4)

        async def body(batcher):
            first = asyncio.ensure_future(
                batcher.submit("knn", vectors[:4], k=1)
            )
            await asyncio.sleep(0)  # let the first request be admitted
            with pytest.raises(RejectedError) as rejection:
                await batcher.submit("knn", vectors[:1], k=1)
            assert rejection.value.retry_after > 0
            assert batcher.stats.requests_rejected == 1
            await batcher.drain()  # flush the held window now
            return await first

        rows, _ = _run_batcher(index, config, body)
        assert rows.n_queries == 4

    def test_drain_answers_accepted_then_rejects_new(self, vectors):
        index = LinearScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=100, max_wait_ms=500.0)

        async def body(batcher):
            held = [
                asyncio.ensure_future(batcher.submit("knn", vectors[:2], k=2))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            await batcher.drain()
            answers = await asyncio.gather(*held)
            with pytest.raises(RejectedError):
                await batcher.submit("knn", vectors[:1], k=1)
            return answers

        answers = _run_batcher(index, config, body)
        want = index.knn_batch_arrays(vectors[:2], 2)
        for rows, degraded in answers:
            assert not degraded
            assert_rows_equal(rows, want, exact=False)

    def test_empty_submit_short_circuits(self, vectors):
        index = LinearScan(vectors, EuclideanDistance())

        async def body(batcher):
            rows, degraded = await batcher.submit("knn", vectors[:0], k=3)
            assert batcher.stats.requests_admitted == 0
            return rows, degraded

        rows, degraded = _run_batcher(index, BatchConfig(), body)
        assert rows.n_queries == 0
        assert not degraded

    def test_engine_exception_reaches_only_the_caller(self, vectors):
        index = LinearScan(vectors, EuclideanDistance())

        async def body(batcher):
            with pytest.raises(ValueError):
                await batcher.submit("knn", vectors[:2], k=-1)
            # The batcher survives the poisoned call.
            return await batcher.submit("knn", vectors[:2], k=1)

        rows, _ = _run_batcher(index, BatchConfig(max_wait_ms=1.0), body)
        assert rows.n_queries == 2

    def test_unknown_op_and_unstarted_batcher_raise(self, vectors):
        index = LinearScan(vectors, EuclideanDistance())
        batcher = MicroBatcher(index)

        async def main():
            with pytest.raises(RuntimeError):
                await batcher.submit("knn", vectors[:1], k=1)
            batcher.start()
            try:
                with pytest.raises(ValueError):
                    await batcher.submit("median", vectors[:1], k=1)
            finally:
                await batcher.drain()

        asyncio.run(main())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatchConfig(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            BatchConfig(max_queue=0)


# ----------------------------------------------------------------------
# End-to-end: server + clients over a unix socket.
# ----------------------------------------------------------------------


class TestServerEndToEnd:
    def test_sync_client_answers_byte_identical_solo(
        self, vectors, vec_queries, sock
    ):
        """A request alone in its window is the identical engine call."""
        index = LinearScan(vectors, EuclideanDistance())
        with serve_in_thread(index, unix_path=sock, close_index=False):
            with SyncClient(unix_path=sock) as client:
                knn = client.knn(vec_queries, 5)
                rng = client.range_search(vec_queries, 0.3)
        assert not knn.degraded
        assert_rows_equal(
            knn.rows, index.knn_batch_arrays(vec_queries, 5), exact=True
        )
        assert_rows_equal(
            rng.rows, index.range_batch_arrays(vec_queries, 0.3), exact=True
        )

    def test_ping_stats_and_tcp_listener(self, vectors):
        index = LinearScan(vectors, EuclideanDistance())
        with serve_in_thread(
            index, host="127.0.0.1", port=0, close_index=False
        ) as handle:
            assert handle.port
            with SyncClient(host="127.0.0.1", port=handle.port) as client:
                pong = client.ping()
                assert pong.pid == os.getpid()
                assert not pong.draining
                client.knn(vectors[:3], k=2)
                stats = client.stats()
        assert stats["requests_answered"] >= 1
        assert stats["queries_answered"] >= 3
        assert stats["batches_executed"] >= 1
        assert "latency" in stats

    def test_bad_requests_answer_error_not_silence(
        self, vectors, words, sock
    ):
        index = LinearScan(vectors, EuclideanDistance())
        with serve_in_thread(index, unix_path=sock, close_index=False):
            with SyncClient(unix_path=sock) as client:
                with pytest.raises(ServerError, match="k must be >= 1"):
                    client.knn(vectors[:1], 0)
                with pytest.raises(ServerError, match="radius"):
                    client.range_search(vectors[:1], -1.0)
                with pytest.raises(ServerError, match="kind"):
                    client.knn(words[:2], 1)  # strings at a vector server
                with pytest.raises(ServerError, match="dimension"):
                    client.knn(np.zeros((1, 7)), 1)
                # The connection survives every rejected request.
                assert client.knn(vectors[:1], 1).rows.n_queries == 1

    def test_hostile_frames_answer_error_and_keep_serving(
        self, words, sock
    ):
        """Each hostile frame gets STATUS_ERROR within the timeout, under
        the request id its head carried (0 when no head parses); the
        same connection then still answers PING."""
        frames = [
            (frame, struct.unpack_from("<BQ", _payload(frame))[1])
            for frame in HOSTILE_REQUESTS.values()
        ]
        frames.append((protocol.pack_frame(b"\x01\x02"), 0))  # no head
        index = LinearScan(words, LevenshteinDistance())
        with serve_in_thread(index, unix_path=sock, close_index=False):
            with socket.socket(socket.AF_UNIX) as conn:
                conn.settimeout(5.0)
                conn.connect(sock)
                for frame, request_id in frames:
                    conn.sendall(frame)
                    reply = _read_response(conn)
                    assert (reply.request_id, reply.status) == (
                        request_id, protocol.STATUS_ERROR
                    )
                conn.sendall(protocol.encode_request(protocol.OP_PING, 11))
                pong = _read_response(conn)
        assert (pong.request_id, pong.status) == (11, protocol.STATUS_PONG)

    def test_pipelined_frames_split_across_writes(self, words, sock):
        """Three requests pipelined on one connection and written in
        small uneven chunks, cut inside headers and bodies: each answers
        under its own id with the serial batch API's columns."""
        index = LinearScan(words, LevenshteinDistance())
        queries = words[:4]
        strings = protocol.encode_string_queries(queries)
        requests = {
            41: (protocol.encode_request(
                protocol.OP_KNN, 41, k=3, queries=strings,
                kind=protocol.KIND_STRINGS,
            ), index.knn_batch_arrays(queries, 3)),
            42: (protocol.encode_request(
                protocol.OP_RANGE, 42, radius=1.0, queries=strings,
                kind=protocol.KIND_STRINGS,
            ), index.range_batch_arrays(queries, 1.0)),
            43: (protocol.encode_request(
                protocol.OP_KNN_APPROX, 43, k=2, budget=40, queries=strings,
                kind=protocol.KIND_STRINGS,
            ), index.knn_approx_batch_arrays(queries, 2, budget=40)),
        }
        stream = b"".join(frame for frame, _ in requests.values())
        sizes = (1, 3, 7, 2, 11, 5)
        cuts, at = [], 0
        while at < len(stream):
            at = min(len(stream), at + sizes[len(cuts) % len(sizes)])
            cuts.append(at)
        # Some cut lands inside each frame's length prefix + request head
        # and some inside each body.
        start = 0
        for frame, _ in requests.values():
            head = start + 4 + struct.calcsize("<BQ")
            end = start + len(frame)
            assert any(start < cut < head for cut in cuts)
            assert any(head < cut < end for cut in cuts)
            start = end
        with serve_in_thread(index, unix_path=sock, close_index=False):
            with socket.socket(socket.AF_UNIX) as conn:
                conn.settimeout(5.0)
                conn.connect(sock)
                begin = 0
                for cut in cuts:
                    conn.sendall(stream[begin:cut])
                    begin = cut
                    time.sleep(0.001)
                replies = [_read_response(conn) for _ in requests]
        assert sorted(reply.request_id for reply in replies) == sorted(
            requests
        )
        for reply in replies:
            assert reply.status == protocol.STATUS_OK
            distances, indices, offsets = reply.arrays
            want = requests[reply.request_id][1]
            assert distances.tobytes() == want.distances.tobytes()
            assert indices.tobytes() == want.indices.tobytes()
            assert offsets.tobytes() == want.offsets.tobytes()

    def test_non_utf8_response_fails_waiters(self, sock):
        """A response the client cannot decode fails its waiter with
        ConnectionError instead of killing the reader and hanging."""

        async def reply(reader, writer):
            header = await reader.readexactly(4)
            request = protocol.decode_request(
                await reader.readexactly(protocol.frame_length(header))
            )
            writer.write(_non_utf8_error(request.request_id))
            await writer.drain()

        async def main():
            server = await asyncio.start_unix_server(reply, path=sock)
            try:
                async with await AsyncClient.connect(unix_path=sock) as client:
                    with pytest.raises(ConnectionError, match="UTF-8"):
                        await asyncio.wait_for(client.ping(), timeout=5.0)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(main())

    def test_non_finite_query_errors_alone_in_its_window(
        self, vectors, vec_queries, sock
    ):
        """A NaN query is refused before admission, so the coalesced
        engine call its window-mates share never sees it."""
        index = DistPermIndex(vectors, EuclideanDistance(), n_sites=6,
                              site_strategy="first")
        parts = [vec_queries[i:i + 3] for i in range(0, 12, 3)]
        poisoned = vec_queries[12:15].copy()
        poisoned[1, 2] = np.nan
        sent = parts[:2] + [poisoned] + parts[2:]

        async def main():
            async with await AsyncClient.connect(unix_path=sock) as client:
                return await asyncio.gather(
                    *(client.knn_approx(part, 3, budget=60) for part in sent),
                    return_exceptions=True,
                )

        config = BatchConfig(max_batch=64, max_wait_ms=20.0)
        with serve_in_thread(
            index, unix_path=sock, config=config, close_index=False
        ):
            answers = asyncio.run(main())
        assert isinstance(answers[2], ServerError)
        assert "finite" in str(answers[2])
        for part, result in zip(parts, answers[:2] + answers[3:]):
            assert_rows_equal(
                result.rows,
                index.knn_approx_batch_arrays(part, 3, budget=60),
                exact=False,
            )

    def test_concurrent_async_clients_match_serial_batches(
        self, vectors, vec_queries, sock
    ):
        """The property test: many clients, mixed ops, interleaved
        windows — every answer equals its serial batch-API result, with
        coalescing windows and with batching disabled (one request per
        engine call) alike."""
        index = LinearScan(vectors, EuclideanDistance())
        n_clients, per_client = 6, 6

        def plan(c, i):
            part = vec_queries[(c + 2 * i) % 18:(c + 2 * i) % 18 + 3]
            op = (c + i) % 3
            if op == 0:
                return ("knn", part, {"k": 1 + (i % 5)})
            if op == 1:
                return (
                    "range_search", part, {"radius": 0.15 + 0.1 * (i % 4)}
                )
            return ("knn_approx", part, {"k": 3, "budget": 50 + 25 * i})

        async def one_client(c):
            async with await AsyncClient.connect(unix_path=sock) as client:
                tasks = []
                for i in range(per_client):
                    op, part, kwargs = plan(c, i)
                    tasks.append(getattr(client, op)(part, **kwargs))
                return await asyncio.gather(*tasks)

        async def main():
            return await asyncio.gather(
                *(one_client(c) for c in range(n_clients))
            )

        serial = {
            "knn": lambda q, k: index.knn_batch_arrays(q, k),
            "range_search": lambda q, radius: (
                index.range_batch_arrays(q, radius)
            ),
            "knn_approx": lambda q, k, budget: (
                index.knn_approx_batch_arrays(q, k, budget=budget)
            ),
        }
        for config in (
            BatchConfig(max_batch=16, max_wait_ms=2.0),
            BatchConfig(max_batch=1, max_wait_ms=0.0),
        ):
            with serve_in_thread(
                index, unix_path=sock, config=config, close_index=False
            ) as handle:
                answers = asyncio.run(main())
                stats = handle.stats()
            assert stats.requests_answered == n_clients * per_client
            if config.max_batch == 1:
                assert stats.batches_executed == stats.requests_answered
            for c in range(n_clients):
                for i in range(per_client):
                    op, part, kwargs = plan(c, i)
                    result = answers[c][i]
                    assert not result.degraded
                    assert_rows_equal(
                        result.rows, serial[op](part, **kwargs), exact=False
                    )

    def test_backpressure_rejects_overflow_explicitly(self, vectors, sock):
        """Past ``max_queue`` the server answers REJECTED with a
        retry-after hint; admitted requests still answer."""
        index = LinearScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=64, max_wait_ms=300.0, max_queue=2)

        async def main():
            async with await AsyncClient.connect(unix_path=sock) as client:
                tasks = [
                    asyncio.ensure_future(client.knn(vectors[i:i + 1], 2))
                    for i in range(6)
                ]
                return await asyncio.gather(*tasks, return_exceptions=True)

        with serve_in_thread(
            index, unix_path=sock, config=config, close_index=False
        ) as handle:
            outcomes = asyncio.run(main())
            stats = handle.stats()
        answered = [r for r in outcomes if not isinstance(r, Exception)]
        rejected = [r for r in outcomes if isinstance(r, ServerBusyError)]
        assert len(answered) + len(rejected) == 6
        assert rejected, "overflow must surface as ServerBusyError"
        assert all(r.retry_after > 0 for r in rejected)
        assert stats.requests_rejected == len(rejected)
        assert stats.requests_answered == len(answered)

    def test_busy_retry_loop_eventually_answers(self, vectors, sock):
        """``retries=`` turns the 429 into a client-side backoff."""
        index = LinearScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=4, max_wait_ms=5.0, max_queue=4)

        async def main():
            async with await AsyncClient.connect(unix_path=sock) as client:
                tasks = [
                    asyncio.ensure_future(
                        client.knn(vectors[i:i + 1], 2, retries=20)
                    )
                    for i in range(12)
                ]
                return await asyncio.gather(*tasks)

        with serve_in_thread(
            index, unix_path=sock, config=config, close_index=False
        ):
            results = asyncio.run(main())
        want = index.knn_batch_arrays(vectors[:1], 2)
        assert len(results) == 12
        assert_rows_equal(results[0].rows, want, exact=False)

    def test_drain_answers_every_accepted_request(self, vectors, sock):
        """Graceful shutdown mid-window: every admitted request answers,
        submissions after the drain begins get explicit REJECTED."""
        index = LinearScan(vectors, EuclideanDistance())
        config = BatchConfig(max_batch=1024, max_wait_ms=250.0)
        handle = serve_in_thread(
            index, unix_path=sock, config=config, close_index=False
        )
        n_requests = 30

        async def main():
            client = await AsyncClient.connect(unix_path=sock)
            tasks = [
                asyncio.ensure_future(client.knn(vectors[i:i + 1], 3))
                for i in range(n_requests)
            ]
            await asyncio.sleep(0.05)  # all admitted, window still open
            drain = asyncio.run_coroutine_threadsafe(
                handle.server.drain(), handle._loop
            )
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            pong = await client.ping()  # health answers during the drain
            await client.close()
            await asyncio.wrap_future(drain)
            return outcomes, pong

        try:
            outcomes, pong = asyncio.run(main())
        finally:
            handle.stop()
        failures = [
            r for r in outcomes
            if isinstance(r, Exception)
            and not isinstance(r, ServerBusyError)
        ]
        assert not failures
        answered = [r for r in outcomes if not isinstance(r, Exception)]
        stats = handle.stats()
        # Zero accepted requests dropped: everything admitted answered.
        assert stats.requests_admitted == stats.requests_answered
        assert len(answered) == stats.requests_answered
        assert answered, "the open window must flush, not vanish"
        assert pong.draining
        want = index.knn_batch_arrays(vectors[:1], 3)
        assert_rows_equal(answered[0].rows, want, exact=False)
        assert not os.path.exists(sock)  # drain unlinked the socket

    def test_stop_is_idempotent(self, vectors, sock):
        index = LinearScan(vectors, EuclideanDistance())
        handle = serve_in_thread(index, unix_path=sock, close_index=False)
        handle.stop()
        handle.stop()

    def test_startup_sweeps_dead_owner_segments(self, vectors, sock):
        """A server inherits a clean shm namespace: stale ``repro-*``
        segments of dead owners are unlinked during start()."""
        proc = subprocess.Popen(["/bin/true"])
        proc.wait()
        stale = f"repro-{proc.pid}-deadbeef"
        shm = shared_memory.SharedMemory(name=stale, create=True, size=16)
        resource_tracker.unregister(shm._name, "shared_memory")
        shm.close()
        try:
            index = LinearScan(vectors, EuclideanDistance())
            with serve_in_thread(index, unix_path=sock, close_index=False):
                assert stale not in _repro_segments()
        finally:
            try:
                os.unlink(f"/dev/shm/{stale}")
            except FileNotFoundError:
                pass

    def test_rejects_ambiguous_listener_config(self, vectors, sock):
        index = LinearScan(vectors, EuclideanDistance())
        with pytest.raises(ValueError):
            QueryServer(index)
        with pytest.raises(ValueError):
            QueryServer(index, unix_path=sock, host="127.0.0.1", port=0)
        with pytest.raises(ValueError):
            QueryServer(index, host="127.0.0.1")


# ----------------------------------------------------------------------
# End-to-end over a sharded string index: byte identity, degraded
# flags under injected worker kills, and shutdown hygiene.
# ----------------------------------------------------------------------


class TestServerSharded:
    def test_string_answers_byte_identical(self, words, sock, leak_check):
        """Discrete metric through shards and coalesced windows: strict
        byte identity against the serial oracle, all three ops."""
        oracle = LinearScan(words, LevenshteinDistance())
        index = ShardedIndex(
            words, LevenshteinDistance(), LinearScan, n_shards=2
        )
        queries = words[:9]
        config = BatchConfig(max_batch=32, max_wait_ms=2.0)

        async def main():
            async with await AsyncClient.connect(unix_path=sock) as client:
                return await asyncio.gather(
                    client.knn(queries, 4),
                    client.knn(queries, 2),
                    client.range_search(queries, 1.0),
                    client.range_search(queries, 2.0),
                    client.knn_approx(queries, 3, budget=len(words)),
                )

        with serve_in_thread(index, unix_path=sock, config=config):
            results = asyncio.run(main())
        want = (
            oracle.knn_batch_arrays(queries, 4),
            oracle.knn_batch_arrays(queries, 2),
            oracle.range_batch_arrays(queries, 1.0),
            oracle.range_batch_arrays(queries, 2.0),
            oracle.knn_approx_batch_arrays(queries, 3, budget=len(words)),
        )
        for result, expected in zip(results, want):
            assert not result.degraded
            assert_rows_equal(result.rows, expected, exact=True)

    def test_injected_kill_surfaces_degraded_flag(
        self, words, sock, leak_check
    ):
        """A worker kill under ``on_partial="degrade"`` marks exactly
        the affected response degraded; the next answer is whole and
        byte-identical to the serial oracle."""
        oracle = LinearScan(words, LevenshteinDistance())
        index = ShardedIndex(
            words, LevenshteinDistance(), LinearScan, n_shards=2,
            resident=True,
            policy=QueryPolicy(deadline=10.0, retries=0,
                               on_partial="degrade"),
            faults=[FaultSpec("kill", shard=1, request=1)],
        )
        queries = words[:6]
        with serve_in_thread(index, unix_path=sock) as handle:
            with SyncClient(unix_path=sock) as client:
                hit = client.knn(queries, 3)
                assert hit.degraded  # shard 1 died mid-answer
                assert hit.rows.n_queries == len(queries)
                whole = client.knn(queries, 3)
                assert not whole.degraded  # the respawned worker answers
                stats = handle.stats()
        assert stats.degraded_responses == 1
        assert_rows_equal(
            whole.rows, oracle.knn_batch_arrays(queries, 3), exact=True
        )

    def test_server_stop_closes_resident_index_once(
        self, words, sock, leak_check
    ):
        """The drain path and a later explicit close may both run;
        ``ShardedIndex.close()`` must be re-entrant and leak nothing."""
        index = ShardedIndex(
            words, LevenshteinDistance(), LinearScan, n_shards=2,
            resident=True,
        )
        with serve_in_thread(index, unix_path=sock):
            with SyncClient(unix_path=sock) as client:
                assert client.knn(words[:3], 2).rows.n_queries == 3
        # serve stop already closed the index; both of these are no-ops.
        index.close()
        index.close()

    def test_double_close_without_server(self, words, leak_check):
        index = ShardedIndex(
            words, LevenshteinDistance(), LinearScan, n_shards=2,
            resident=True,
        )
        assert index.knn_batch_arrays(words[:3], 2).n_queries == 3
        index.close()
        index.close()
