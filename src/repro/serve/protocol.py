"""Length-prefixed binary wire protocol for the query service.

Every message is one *frame*: a 4-byte little-endian unsigned length
followed by that many payload bytes.  Payloads are pure ``struct``
headers plus raw numpy ``tobytes`` array sections — no pickle, no
msgpack — mirroring the worker-pool reply convention
(:mod:`repro.parallel.workerpool`): a query answer crosses the socket
as the three ``NeighborArrays`` columns ``(distances, indices,
offsets)``, exactly the arrays the batch engine produced, so the server
never materializes per-row ``Neighbor`` lists on the hot path.

Requests carry an op code, a client-chosen request id (echoed on the
response, so one connection can have many requests in flight and take
replies out of order), the op's parameters, and the query payload:
vector queries as one float64 ``(n, d)`` matrix, string queries as the
padded uint32 code-point matrix plus int64 lengths of
:class:`~repro.metrics.encoding.EncodedStrings` (decoded server-side by
:func:`repro.parallel.sharedmem.decode_strings`).

Response statuses:

- ``OK`` — the three result columns, plus a flags byte (bit 0:
  *degraded*, the answer was merged from fewer than all shards under
  ``on_partial="degrade"``);
- ``REJECTED`` — admission-queue backpressure; carries a float
  ``retry_after`` seconds hint (the 429 of this protocol);
- ``ERROR`` — a UTF-8 message (malformed request, wrong payload kind,
  an exception raised by the engine);
- ``PONG`` — health-probe reply, carrying the server pid and a
  draining flag;
- ``STATS`` — a UTF-8 JSON snapshot of the
  :class:`~repro.serve.stats.ServerStats` plane.

Array sections are self-describing — count, then per array a dtype
tag, an ndim, the shape, and the raw bytes — and bounded by
``MAX_FRAME_BYTES`` on read, so a corrupt length prefix cannot make the
server allocate unbounded memory.  An ``OK`` payload is held to the
column contract the worker pipes enforce
(:func:`repro.index.base.csr_columns_error`).  The *check* is shared,
the codec is not: the pipe carries pickled query objects and
shared-memory descriptors between our own processes, this socket must
never unpickle — one function for both would branch on its caller.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.index.base import csr_columns_error

__all__ = [
    "MAX_FRAME_BYTES",
    "OP_KNN",
    "OP_RANGE",
    "OP_KNN_APPROX",
    "OP_PING",
    "OP_STATS",
    "QUERY_OPS",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_ERROR",
    "STATUS_PONG",
    "STATUS_STATS",
    "FLAG_DEGRADED",
    "ProtocolError",
    "Request",
    "Response",
    "pack_frame",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "encode_vector_queries",
    "encode_string_queries",
]

#: Hard cap on one frame's payload; a corrupt or hostile length prefix
#: past this is a protocol error, not an allocation.
MAX_FRAME_BYTES = 1 << 26

_LENGTH = struct.Struct("<I")

# Op codes (requests).
OP_KNN = 1
OP_RANGE = 2
OP_KNN_APPROX = 3
OP_PING = 4
OP_STATS = 5

#: Ops that carry queries and answer with result columns.
QUERY_OPS = (OP_KNN, OP_RANGE, OP_KNN_APPROX)

# Response statuses.
STATUS_OK = 0
STATUS_REJECTED = 1
STATUS_ERROR = 2
STATUS_PONG = 3
STATUS_STATS = 4

#: Response flag bit: the answer was merged from fewer than all shards.
FLAG_DEGRADED = 1

# Payload kinds.
KIND_VECTORS = 0
KIND_STRINGS = 1

_REQ_HEAD = struct.Struct("<BQ")  # op, request_id
_REQ_PARAMS = struct.Struct("<qdq")  # k, radius, budget (-1 = None)
_RESP_HEAD = struct.Struct("<QBB")  # request_id, status, flags
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_ARRAY_HEAD = struct.Struct("<BB")  # dtype tag, ndim

_DTYPE_TAGS = {
    np.dtype(np.float64): 0,
    np.dtype(np.int64): 1,
    np.dtype(np.uint32): 2,
    np.dtype(np.uint8): 3,
}
_TAG_DTYPES = {tag: dtype for dtype, tag in _DTYPE_TAGS.items()}


class ProtocolError(ValueError):
    """A frame violated the wire format (truncated, oversized, bad tag).

    ``request_id`` names the request whose frame failed once its head
    parsed, so the server can answer the client waiting on that id; it
    is 0 when no head parsed.
    """

    request_id = 0


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    op: int
    request_id: int
    k: int = 0
    radius: float = 0.0
    budget: Optional[int] = None
    #: ``KIND_VECTORS`` float64 matrix, or ``KIND_STRINGS`` list of str;
    #: ``None`` for ping/stats.
    kind: Optional[int] = None
    queries: Optional[Union[np.ndarray, List[str]]] = None

    @property
    def n_queries(self) -> int:
        if self.queries is None:
            return 0
        return len(self.queries)


@dataclass(frozen=True)
class Response:
    """One decoded server response."""

    request_id: int
    status: int
    flags: int = 0
    #: ``(distances, indices, offsets)`` for ``STATUS_OK``.
    arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    retry_after: float = 0.0
    message: str = ""
    #: Server pid for ``STATUS_PONG``.
    pid: int = 0
    #: ``True`` on a ``STATUS_PONG`` from a draining server.
    draining: bool = False

    @property
    def degraded(self) -> bool:
        return bool(self.flags & FLAG_DEGRADED)


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------


def pack_frame(payload: bytes) -> bytes:
    """Prefix a payload with its 4-byte length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """Decode and bound-check a frame's 4-byte length prefix."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return length


# ----------------------------------------------------------------------
# Array sections.
# ----------------------------------------------------------------------


def _pack_arrays(arrays: Sequence[np.ndarray]) -> List[bytes]:
    parts = [struct.pack("<B", len(arrays))]
    for array in arrays:
        array = np.ascontiguousarray(array)
        tag = _DTYPE_TAGS.get(array.dtype)
        if tag is None:
            raise ProtocolError(
                f"dtype {array.dtype} is not on the wire format "
                f"(supported: {sorted(str(d) for d in _DTYPE_TAGS)})"
            )
        parts.append(_ARRAY_HEAD.pack(tag, array.ndim))
        parts.append(struct.pack(f"<{array.ndim}q", *array.shape))
        parts.append(array.tobytes())
    return parts


def _unpack_arrays(
    payload: bytes, offset: int
) -> Tuple[Tuple[np.ndarray, ...], int]:
    try:
        (count,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        arrays = []
        for _ in range(count):
            tag, ndim = _ARRAY_HEAD.unpack_from(payload, offset)
            offset += _ARRAY_HEAD.size
            dtype = _TAG_DTYPES.get(tag)
            if dtype is None:
                raise ProtocolError(f"unknown array dtype tag {tag}")
            shape = struct.unpack_from(f"<{ndim}q", payload, offset)
            offset += 8 * ndim
            if any(dim < 0 for dim in shape):
                raise ProtocolError(f"negative array dimension in {shape}")
            # Python ints cannot wrap, and numpy refuses any shape whose
            # nonzero extents overflow — even at zero elements — so both
            # products are bounded before a single byte is read.
            count = math.prod(shape)
            nbytes = count * dtype.itemsize
            extent = math.prod(max(dim, 1) for dim in shape) * dtype.itemsize
            if offset + nbytes > len(payload) or extent > MAX_FRAME_BYTES:
                raise ProtocolError("array section overruns the frame")
            array = np.frombuffer(
                payload, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
            offset += nbytes
            arrays.append(array)
        return tuple(arrays), offset
    except struct.error as error:
        raise ProtocolError(f"truncated array section: {error}") from None


# ----------------------------------------------------------------------
# Query payload encoding.
# ----------------------------------------------------------------------


def encode_vector_queries(queries) -> np.ndarray:
    """Coerce a vector query set to the wire's float64 ``(n, d)`` matrix."""
    matrix = np.ascontiguousarray(queries, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.ndim != 2:
        raise ProtocolError(
            f"vector queries must be a (n, d) matrix, got ndim={matrix.ndim}"
        )
    return matrix


def encode_string_queries(
    strings: Sequence[str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode string queries as the padded code-point matrix + lengths.

    The same layout :class:`~repro.metrics.encoding.EncodedStrings`
    uses, so the server decodes with the shared-memory channel's
    :func:`~repro.parallel.sharedmem.decode_strings`.
    """
    from repro.metrics.encoding import encode_strings

    encoded = encode_strings(list(strings))
    return (
        np.ascontiguousarray(encoded.codes, dtype=np.uint32),
        np.ascontiguousarray(encoded.lengths, dtype=np.int64),
    )


def _decode_queries(
    kind: int, arrays: Tuple[np.ndarray, ...]
) -> Union[np.ndarray, List[str]]:
    if kind == KIND_VECTORS:
        if len(arrays) != 1 or arrays[0].ndim != 2:
            raise ProtocolError("vector payload must be one (n, d) matrix")
        return np.asarray(arrays[0], dtype=np.float64)
    if kind == KIND_STRINGS:
        from repro.parallel.sharedmem import decode_strings

        if (
            len(arrays) != 2
            or arrays[0].ndim != 2
            or arrays[1].ndim != 1
            or arrays[0].shape[0] != arrays[1].shape[0]
        ):
            raise ProtocolError(
                "string payload must be a (n, w) code matrix plus n lengths"
            )
        codes = np.asarray(arrays[0], dtype=np.uint32)
        lengths = np.asarray(arrays[1], dtype=np.int64)
        if codes.size and (
            lengths.min() < 0 or lengths.max() > codes.shape[1]
        ):
            raise ProtocolError("string lengths fall outside the code matrix")
        if codes.size == 0 and lengths.size and lengths.max() > 0:
            raise ProtocolError("string lengths fall outside the code matrix")
        if codes.size and int(codes.max()) > 0x10FFFF:
            raise ProtocolError("string code point above U+10FFFF")
        return decode_strings(codes, lengths)
    raise ProtocolError(f"unknown query payload kind {kind}")


# ----------------------------------------------------------------------
# Requests.
# ----------------------------------------------------------------------


def encode_request(
    op: int,
    request_id: int,
    *,
    k: int = 0,
    radius: float = 0.0,
    budget: Optional[int] = None,
    queries: Optional[Sequence[np.ndarray]] = None,
    kind: Optional[int] = None,
) -> bytes:
    """Build one request frame (length prefix included).

    ``queries`` is the already-encoded array section for query ops
    (see :func:`encode_vector_queries` / :func:`encode_string_queries`);
    ping and stats frames carry no payload.
    """
    if op not in (OP_KNN, OP_RANGE, OP_KNN_APPROX, OP_PING, OP_STATS):
        raise ProtocolError(f"unknown request op {op}")
    parts = [_REQ_HEAD.pack(op, request_id)]
    if op in QUERY_OPS:
        if queries is None or kind is None:
            raise ProtocolError("query ops need a queries payload and kind")
        parts.append(
            _REQ_PARAMS.pack(k, radius, -1 if budget is None else budget)
        )
        parts.append(struct.pack("<B", kind))
        parts.extend(_pack_arrays(queries))
    return pack_frame(b"".join(parts))


def decode_request(payload: bytes) -> Request:
    """Decode one request payload (frame length already stripped).

    A :class:`ProtocolError` past a parsed head carries its
    ``request_id``.
    """
    try:
        op, request_id = _REQ_HEAD.unpack_from(payload, 0)
    except struct.error as error:
        raise ProtocolError(f"truncated request head: {error}") from None
    try:
        return _decode_request_body(payload, op, request_id)
    except ProtocolError as error:
        error.request_id = request_id
        raise


def _decode_request_body(payload: bytes, op: int, request_id: int) -> Request:
    offset = _REQ_HEAD.size
    if op in (OP_PING, OP_STATS):
        return Request(op=op, request_id=request_id)
    if op not in QUERY_OPS:
        raise ProtocolError(f"unknown request op {op}")
    try:
        k, radius, budget = _REQ_PARAMS.unpack_from(payload, offset)
        offset += _REQ_PARAMS.size
        (kind,) = struct.unpack_from("<B", payload, offset)
        offset += 1
    except struct.error as error:
        raise ProtocolError(f"truncated request params: {error}") from None
    arrays, offset = _unpack_arrays(payload, offset)
    queries = _decode_queries(kind, arrays)
    return Request(
        op=op,
        request_id=request_id,
        k=int(k),
        radius=float(radius),
        budget=None if budget < 0 else int(budget),
        kind=kind,
        queries=queries,
    )


# ----------------------------------------------------------------------
# Responses.
# ----------------------------------------------------------------------


def encode_response(
    request_id: int,
    status: int,
    *,
    flags: int = 0,
    arrays: Optional[Sequence[np.ndarray]] = None,
    retry_after: float = 0.0,
    message: str = "",
    pid: int = 0,
    draining: bool = False,
) -> bytes:
    """Build one response frame (length prefix included)."""
    parts = [_RESP_HEAD.pack(request_id, status, flags)]
    if status == STATUS_OK:
        if arrays is None or len(arrays) != 3:
            raise ProtocolError("OK responses carry exactly three columns")
        parts.extend(_pack_arrays(arrays))
    elif status == STATUS_REJECTED:
        parts.append(_F64.pack(retry_after))
    elif status in (STATUS_ERROR, STATUS_STATS):
        raw = message.encode("utf-8")
        parts.append(_U32.pack(len(raw)))
        parts.append(raw)
    elif status == STATUS_PONG:
        parts.append(_I64.pack(pid))
        parts.append(struct.pack("<B", int(draining)))
    else:
        raise ProtocolError(f"unknown response status {status}")
    return pack_frame(b"".join(parts))


def decode_response(payload: bytes) -> Response:
    """Decode one response payload (frame length already stripped)."""
    try:
        request_id, status, flags = _RESP_HEAD.unpack_from(payload, 0)
    except struct.error as error:
        raise ProtocolError(f"truncated response head: {error}") from None
    offset = _RESP_HEAD.size
    if status == STATUS_OK:
        arrays, offset = _unpack_arrays(payload, offset)
        problem = csr_columns_error(arrays)
        if problem is not None:
            raise ProtocolError(
                f"OK response payload is not result columns: {problem}"
            )
        return Response(
            request_id=request_id, status=status, flags=flags, arrays=arrays
        )
    if status == STATUS_REJECTED:
        try:
            (retry_after,) = _F64.unpack_from(payload, offset)
        except struct.error as error:
            raise ProtocolError(
                f"truncated rejection: {error}"
            ) from None
        return Response(
            request_id=request_id, status=status, flags=flags,
            retry_after=retry_after,
        )
    if status in (STATUS_ERROR, STATUS_STATS):
        try:
            (length,) = _U32.unpack_from(payload, offset)
        except struct.error as error:
            raise ProtocolError(f"truncated message: {error}") from None
        offset += _U32.size
        if offset + length > len(payload):
            raise ProtocolError("message overruns the frame")
        try:
            message = payload[offset : offset + length].decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"message is not UTF-8: {error}") from None
        return Response(
            request_id=request_id, status=status, flags=flags, message=message
        )
    if status == STATUS_PONG:
        try:
            (pid,) = _I64.unpack_from(payload, offset)
            (draining,) = struct.unpack_from(
                "<B", payload, offset + _I64.size
            )
        except struct.error as error:
            raise ProtocolError(f"truncated pong: {error}") from None
        return Response(
            request_id=request_id, status=status, flags=flags,
            pid=pid, draining=bool(draining),
        )
    raise ProtocolError(f"unknown response status {status}")
