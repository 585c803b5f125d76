"""The asyncio query server: the library's front door for live traffic.

:class:`QueryServer` listens on a unix socket (or TCP host/port),
speaks the length-prefixed binary protocol of
:mod:`repro.serve.protocol`, and answers every query op through one
shared :class:`~repro.serve.batcher.MicroBatcher` over any
:class:`~repro.index.base.Index` — a plain index, a
:class:`~repro.index.sharded.ShardedIndex`, resident worker pools
included.  Concurrent clients coalesce into batching windows, so the
batch engine's throughput applies to online load.

Connections are cheap: one reader loop per connection decodes frames
and spawns a task per request, so a single connection can keep many
requests in flight (responses carry the request id and may return out
of order).  Responses are written under a per-connection lock to keep
frames whole.

**Graceful drain.**  :meth:`drain` (wired to SIGTERM/SIGINT by
:meth:`install_signal_handlers`) stops accepting connections, makes the
batcher reject new work, flushes every admitted window — zero accepted
requests are dropped — then closes client connections and, if the
index exposes ``close()`` (sharded indexes with their pinned worker
pool), closes that too.  Health probes (``PING``) keep answering
during the drain and report ``draining=True`` so load balancers can
move traffic away.

Startup sweeps ``/dev/shm`` for stale ``repro-*`` segments left behind
by crashed former owners (:func:`~repro.parallel.sharedmem.sweep_stale_segments`)
— a long-running server must not slowly lose its shm budget to the
corpses of its predecessors.

For embedding in tests and benches, :func:`serve_in_thread` runs a
whole server on a daemon thread with its own event loop and returns a
handle whose ``stop()`` performs the same graceful drain.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import traceback
from typing import List, Optional

import numpy as np

from repro.index.base import Index, NeighborArrays
from repro.parallel.sharedmem import sweep_stale_segments
from repro.serve import protocol
from repro.serve.batcher import BatchConfig, MicroBatcher, RejectedError
from repro.serve.stats import ServerStats

__all__ = ["QueryServer", "ServerHandle", "serve_in_thread"]

_OPS = {
    protocol.OP_KNN: "knn",
    protocol.OP_RANGE: "range",
    protocol.OP_KNN_APPROX: "knn-approx",
}


def _dataset_kind(index: Index) -> int:
    """The query payload kind this index's database admits."""
    points = index.points
    if isinstance(points, np.ndarray):
        return protocol.KIND_VECTORS
    if len(points) and isinstance(points[0], str):
        return protocol.KIND_STRINGS
    raise TypeError(
        "QueryServer serves vector (ndarray) or string databases; got "
        f"points of type {type(points).__name__}"
    )


class QueryServer:
    """Serve one index over a socket with micro-batched execution.

    Exactly one of ``unix_path`` or ``(host, port)`` selects the
    listener.  The server adopts ``index`` for its lifetime and closes
    it on drain when it has a ``close()`` (set ``close_index=False`` to
    keep it alive for the caller).  ``config`` tunes the batching
    windows and admission bound (:class:`~repro.serve.batcher.BatchConfig`).
    """

    def __init__(
        self,
        index: Index,
        *,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        config: Optional[BatchConfig] = None,
        close_index: bool = True,
    ):
        if (unix_path is None) == (host is None):
            raise ValueError("pass exactly one of unix_path or host/port")
        if host is not None and port is None:
            raise ValueError("a TCP listener needs both host and port")
        self.index = index
        self.kind = _dataset_kind(index)
        self.unix_path = unix_path
        self.host = host
        self.port = port
        self.stats = ServerStats()
        self.batcher = MicroBatcher(index, config=config, stats=self.stats)
        self._close_index = close_index
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: List[asyncio.StreamWriter] = []
        self._conn_tasks: set = set()
        self._drained = asyncio.Event()
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the batching scheduler."""
        if self._server is not None:
            raise RuntimeError("server already started")
        # A long-running service reclaims the shm budget of crashed
        # predecessors before allocating its own segments.
        sweep_stale_segments()
        self.batcher.start()
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )

    @property
    def bound_port(self) -> Optional[int]:
        """The kernel-assigned port when started with ``port=0``."""
        if self._server is None or self.host is None:
            return None
        return self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (main-thread loops only)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain())
            )

    async def serve_until_drained(self) -> None:
        """Block until a drain (signal- or call-initiated) completes."""
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, flush, close (idempotent).

        Order matters: the listener closes first (no new connections),
        then the batcher drains — rejecting new requests while every
        *accepted* one completes and its response is written — then
        client connections close, then the index's own pool/shm
        lifecycle runs.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Flush every admitted window; submissions during this phase
        # are rejected with retry_after, and in-flight response writes
        # finish inside the connection tasks we gather below.
        await self.batcher.drain()
        if self._conn_tasks:
            await asyncio.gather(
                *tuple(self._conn_tasks), return_exceptions=True
            )
        for writer in list(self._connections):
            writer.close()
        if self._close_index and hasattr(self.index, "close"):
            self.index.close()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        self._drained.set()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.append(writer)
        write_lock = asyncio.Lock()
        request_tasks: set = set()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                try:
                    length = protocol.frame_length(header)
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    break
                except protocol.ProtocolError as error:
                    await self._send(
                        writer, write_lock,
                        protocol.encode_response(
                            0, protocol.STATUS_ERROR, message=str(error)
                        ),
                    )
                    break
                request_task = asyncio.ensure_future(
                    self._handle_frame(payload, writer, write_lock)
                )
                request_tasks.add(request_task)
                request_task.add_done_callback(request_tasks.discard)
            if request_tasks:
                await asyncio.gather(
                    *tuple(request_tasks), return_exceptions=True
                )
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            if writer in self._connections:
                self._connections.remove(writer)
            writer.close()

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame: bytes,
    ) -> None:
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(frame)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_frame(
        self,
        payload: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            request = protocol.decode_request(payload)
        except protocol.ProtocolError as error:
            await self._send(
                writer, write_lock,
                protocol.encode_response(
                    error.request_id, protocol.STATUS_ERROR,
                    message=str(error),
                ),
            )
            return
        frame = await self._answer(request)
        await self._send(writer, write_lock, frame)

    async def _answer(self, request: protocol.Request) -> bytes:
        """Compute one request's response frame."""
        if request.op == protocol.OP_PING:
            return protocol.encode_response(
                request.request_id, protocol.STATUS_PONG,
                pid=os.getpid(), draining=self._draining,
            )
        if request.op == protocol.OP_STATS:
            return protocol.encode_response(
                request.request_id, protocol.STATUS_STATS,
                message=self.stats.json(),
            )
        error = self._validate_query(request)
        if error is not None:
            return protocol.encode_response(
                request.request_id, protocol.STATUS_ERROR, message=error
            )
        try:
            rows, degraded = await self.batcher.submit(
                _OPS[request.op],
                request.queries,
                k=request.k,
                radius=request.radius,
                budget=request.budget,
            )
        except RejectedError as rejection:
            return protocol.encode_response(
                request.request_id, protocol.STATUS_REJECTED,
                retry_after=rejection.retry_after,
            )
        except Exception:
            self.stats.note_error()
            return protocol.encode_response(
                request.request_id, protocol.STATUS_ERROR,
                message=traceback.format_exc(limit=8),
            )
        return self._encode_ok(request.request_id, rows, degraded)

    def _encode_ok(
        self, request_id: int, rows: NeighborArrays, degraded: bool
    ) -> bytes:
        return protocol.encode_response(
            request_id,
            protocol.STATUS_OK,
            flags=protocol.FLAG_DEGRADED if degraded else 0,
            arrays=(rows.distances, rows.indices, rows.offsets),
        )

    def _validate_query(self, request: protocol.Request) -> Optional[str]:
        """Pre-admission validation, so one bad request cannot poison a
        coalesced engine call for its window-mates."""
        if request.kind != self.kind:
            want = (
                "vectors" if self.kind == protocol.KIND_VECTORS else "strings"
            )
            return f"this server indexes {want}; wrong query payload kind"
        if request.op in (protocol.OP_KNN, protocol.OP_KNN_APPROX):
            if request.k < 1:
                return f"k must be >= 1, got {request.k}"
        if request.op == protocol.OP_RANGE:
            if not (request.radius >= 0):
                return f"radius must be >= 0, got {request.radius}"
        if request.op == protocol.OP_KNN_APPROX:
            if request.budget is not None and request.budget < 0:
                return f"budget must be >= 0, got {request.budget}"
        if self.kind == protocol.KIND_VECTORS and request.n_queries:
            width = self.index.points.shape[1]
            if request.queries.shape[1] != width:
                return (
                    f"query vectors have dimension "
                    f"{request.queries.shape[1]}, index has {width}"
                )
            if not np.isfinite(request.queries).all():
                return "query vectors must be finite"
        return None


class ServerHandle:
    """A running :func:`serve_in_thread` server: address + stop switch."""

    def __init__(self, server: QueryServer, loop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def unix_path(self) -> Optional[str]:
        return self.server.unix_path

    @property
    def port(self) -> Optional[int]:
        return self.server.bound_port

    def stats(self) -> ServerStats:
        return self.server.stats

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server gracefully and join its thread (idempotent)."""
        if self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        )
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    index: Index,
    *,
    unix_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    config: Optional[BatchConfig] = None,
    close_index: bool = True,
) -> ServerHandle:
    """Run a :class:`QueryServer` on a daemon thread; return its handle.

    The embedding used by the test suite and benches: the caller's
    thread stays free to drive sync clients against the server.  The
    handle's ``stop()`` (or context-manager exit) performs the full
    graceful drain.
    """
    server = QueryServer(
        index, unix_path=unix_path, host=host, port=port,
        config=config, close_index=close_index,
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: List[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _start() -> None:
            try:
                await server.start()
            except BaseException as error:  # surface bind errors
                failure.append(error)
            finally:
                started.set()

        loop.run_until_complete(_start())
        if not failure:
            loop.run_forever()
        loop.close()

    thread = threading.Thread(
        target=_run, name="repro-serve", daemon=True
    )
    thread.start()
    started.wait()
    if failure:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        raise failure[0]
    return ServerHandle(server, loop, thread)
