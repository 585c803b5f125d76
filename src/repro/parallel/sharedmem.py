"""Zero-copy dataset shipping to worker processes via shared memory.

Process-pool parallelism normally pays to pickle the database into every
worker; for the paper's workloads (a million vectors, a quarter-million
dictionary words) that copy dwarfs the per-shard work being distributed.
This module publishes the big payloads **once** into
:mod:`multiprocessing.shared_memory` segments and ships only tiny
descriptors:

- :class:`SharedArray` — one ndarray in one segment; workers attach and
  view it in place (read-only), no copy;
- :class:`SharedDataset` — a whole database: vector matrices ship as
  their array, string collections ship as their
  :class:`~repro.metrics.encoding.EncodedStrings` code-point matrix plus
  length vector (decoded back to ``str`` lazily, once per worker), and
  anything else falls back to one pickled blob in shared memory (still
  shipped once, not per task).

Two things are published: the *database* (long-lived; read in place by
the pinned shard workers and the census tasks) and large worker
*replies* (one-shot segments, :func:`consume_array`).  Queries ride the
worker pipes; built shards live only inside their worker.

Descriptors are picklable and resolve through a per-process cache that
holds one dataset: a worker maps the segments of the dataset it serves a
single time no matter how many tasks touch it, and resolving a different
dataset first unmaps the last one, so a long-lived census pool holds one
database, not every database it ever counted (a pinned shard worker
resolves only its own).  The publishing process owns the segments: call
:meth:`SharedDataset.unlink` (or use the context manager) when the
workers are done.  In the publishing process itself ``resolve()``
returns the original object — the serial executor never touches shared
memory at all.

Segment names encode the owner: ``repro-{pid}-{hex}``.  That makes
leaks attributable (an ``ls /dev/shm`` names the guilty process) and
recoverable — every owned segment is registered for ``atexit`` cleanup,
and :func:`sweep_stale_segments` unlinks ``repro-*`` segments whose
owning pid is gone, so a SIGKILL'd owner cannot permanently strand
shared memory for the processes that come after it.  The first publish
in a process runs the sweep once, opportunistically.
"""

from __future__ import annotations

import atexit
import os
import pickle
import re
import secrets
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SharedArray",
    "SharedDataset",
    "consume_array",
    "discard_array",
    "decode_strings",
    "sweep_stale_segments",
]

#: Per-process cache of attached segments: name -> (SharedMemory, ndarray).
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}

#: Per-process cache of the resolved dataset: lead segment name -> points
#: (at most one entry; see :meth:`SharedDataset.resolve`).
_RESOLVED: Dict[str, Any] = {}

#: Segments this process published and has not yet unlinked.
_OWNED: Dict[str, shared_memory.SharedMemory] = {}

#: Owner-encoding segment name: repro-{pid}-{hex}.
_SEGMENT_RE = re.compile(r"^repro-(\d+)-[0-9a-f]+$")

_SWEPT = False


def _segment_name() -> str:
    """A fresh segment name encoding the owning pid."""
    return f"repro-{os.getpid()}-{secrets.token_hex(4)}"


def _cleanup_owned() -> None:
    """Unlink every still-owned segment (atexit: owner is going away)."""
    for name in list(_OWNED):
        shm = _OWNED.pop(name, None)
        if shm is None:
            continue
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


atexit.register(_cleanup_owned)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        return True
    return True


def sweep_stale_segments(root: str = "/dev/shm") -> List[str]:
    """Unlink ``repro-*`` segments whose owning process is dead.

    Crashed owners (SIGKILL, OOM) never run their ``atexit`` hooks, so
    their segments survive in ``/dev/shm`` until reboot.  Each segment
    name carries the owner's pid; any segment whose pid no longer exists
    is unlinked here.  Returns the names removed.  A no-op (empty list)
    where ``root`` does not exist — shared memory is then backed by some
    other mechanism and no stale-name inventory is available.
    """
    removed = []
    try:
        entries = os.listdir(root)
    except OSError:
        return removed
    for entry in entries:
        match = _SEGMENT_RE.match(entry)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(root, entry))
            removed.append(entry)
        except OSError:
            continue
    return removed


def _sweep_once() -> None:
    global _SWEPT
    if not _SWEPT:
        _SWEPT = True
        sweep_stale_segments()


def _attach(name: str, dtype: str, shape: Tuple[int, ...]) -> np.ndarray:
    """Attach to a published segment and view it as a read-only array.

    On Python 3.13+ the attachment opts out of resource tracking: the
    publishing process owns the segment's lifetime.  On earlier versions
    attaching re-registers the name with the resource tracker, which is
    harmless for pool workers — they inherit the *parent's* tracker, whose
    name set deduplicates, so the segment is still unlinked exactly once,
    by the owner.
    """
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # track= is 3.13+; see docstring for older behavior
        shm = shared_memory.SharedMemory(name=name)
    array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    array.flags.writeable = False
    _ATTACHED[name] = (shm, array)
    return array


def _release_attached() -> None:
    """Forget the resolved dataset and unmap every attached segment.

    A mapping that some live view still exports cannot be closed here;
    dropping the cache's references leaves it to go with that view.
    """
    _RESOLVED.clear()
    while _ATTACHED:
        shm, _ = _ATTACHED.popitem()[1]
        try:
            shm.close()
        except BufferError:
            pass


def _read_once(name: str, dtype: str, shape: Tuple[int, ...]) -> np.ndarray:
    """Copy a segment's contents out and close the mapping immediately.

    For one-shot reply segments (:func:`consume_array`): the per-process
    caches are never touched, so the reader holds no mapping once the
    call returns and the unlink that follows genuinely frees the memory.
    """
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # track= is 3.13+; see _attach for older behavior
        shm = shared_memory.SharedMemory(name=name)
    try:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        return np.array(view, copy=True)
    finally:
        shm.close()


class SharedArray:
    """One ndarray published in shared memory, addressable by descriptor.

    Pickling carries only ``(name, dtype, shape)``; :meth:`array` returns
    the local copy in the owner process and an attached read-only view in
    workers.
    """

    def __init__(
        self,
        name: str,
        dtype: str,
        shape: Tuple[int, ...],
        _shm: Optional[shared_memory.SharedMemory] = None,
        _local: Optional[np.ndarray] = None,
    ):
        self.name = name
        self.dtype = dtype
        self.shape = tuple(shape)
        self._shm = _shm
        self._local = _local

    @classmethod
    def publish(cls, array: np.ndarray) -> "SharedArray":
        _sweep_once()
        array = np.ascontiguousarray(array)
        while True:
            try:
                shm = shared_memory.SharedMemory(
                    name=_segment_name(),
                    create=True,
                    size=max(1, array.nbytes),
                )
                break
            except FileExistsError:  # token collision: pick another name
                continue
        _OWNED[shm.name] = shm
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        return cls(shm.name, array.dtype.str, array.shape, shm, view)

    def array(self) -> np.ndarray:
        if self._local is not None:
            return self._local
        return _attach(self.name, self.dtype, self.shape)

    def unlink(self) -> None:
        """Release the segment (owner side); safe to call twice."""
        if self._shm is not None:
            self._local = None
            _OWNED.pop(self.name, None)
            try:
                self._shm.close()
                self._shm.unlink()
            except FileNotFoundError:
                pass
            self._shm = None

    def close_local(self) -> None:
        """Drop the owner's mapping but keep the segment alive.

        For reply payloads consumed (and unlinked) by another process:
        the publishing worker frees its own mapping as soon as the
        descriptor is on the wire, while the ``atexit`` registration
        keeps covering the segment in case the consumer never reads it.
        """
        if self._shm is not None:
            self._local = None
            try:
                self._shm.close()
            except OSError:
                pass

    def __reduce__(self):
        return (SharedArray, (self.name, self.dtype, self.shape))

    def __repr__(self) -> str:
        return f"SharedArray({self.name!r}, {self.dtype}, {self.shape})"


def discard_array(descriptor: SharedArray) -> None:
    """Unlink a reply segment without reading it (receiver side).

    For stale replies the supervisor drops: the worker that published
    the segment has already closed its mapping, so unlinking here is
    what actually frees the memory.  Missing segments are ignored.
    """
    try:
        try:
            shm = shared_memory.SharedMemory(name=descriptor.name, track=False)
        except TypeError:  # track= is 3.13+; see _attach for older behavior
            shm = shared_memory.SharedMemory(name=descriptor.name)
    except FileNotFoundError:
        return
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def consume_array(descriptor: SharedArray) -> np.ndarray:
    """Copy a reply segment's array out, then unlink it (receiver side).

    The handshake for one-shot worker-to-supervisor payloads: the worker
    publishes, ships the descriptor, and drops its mapping; the
    supervisor copies the data out here and removes the segment.  Raises
    ``FileNotFoundError`` if the segment is already gone — callers treat
    that as a corrupt reply.
    """
    try:
        data = _read_once(descriptor.name, descriptor.dtype, descriptor.shape)
    finally:
        discard_array(descriptor)
    return data


def decode_strings(codes: np.ndarray, lengths: np.ndarray) -> List[str]:
    """Rebuild the string list behind an encoded code-point matrix.

    The inverse of :meth:`repro.metrics.encoding.EncodedStrings.from_strings`:
    one flat UTF-32 decode plus per-string slicing, with a ``chr`` fallback
    for lone surrogates (which UTF-32 refuses to round-trip).
    """
    n = lengths.shape[0]
    if n == 0:
        return []
    mask = np.arange(codes.shape[1])[None, :] < lengths[:, None]
    flat = np.ascontiguousarray(codes[mask], dtype="<u4")
    try:
        text = flat.tobytes().decode("utf-32-le")
    except UnicodeDecodeError:
        text = "".join(chr(int(c)) for c in flat)
    out = []
    position = 0
    for length in lengths:
        out.append(text[position : position + int(length)])
        position += int(length)
    return out


class SharedDataset:
    """A whole database published once for every worker to read in place.

    ``kind`` selects the wire format: ``"array"`` (vector databases),
    ``"strings"`` (code-point matrix + lengths, decoded lazily per
    worker), or ``"pickle"`` (arbitrary objects as one shared blob).
    Resolution is cached per process, so the decode/unpickle cost is paid
    once per worker, not once per task.
    """

    def __init__(self, kind: str, arrays: Sequence[SharedArray],
                 _local: Any = None):
        self.kind = kind
        self.arrays = list(arrays)
        self._local = _local

    @classmethod
    def local(cls, points: Any) -> "SharedDataset":
        """Wrap a database without touching shared memory.

        The in-process counterpart of :meth:`publish` for serial
        executors: ``resolve()`` returns ``points`` and ``unlink()`` is a
        no-op, so serial runs never allocate a segment (or require any
        ``/dev/shm`` space).  Local datasets cannot be shipped to
        workers — pickling one raises.
        """
        return cls("local", [], points)

    @classmethod
    def publish(cls, points: Any) -> "SharedDataset":
        if isinstance(points, np.ndarray):
            return cls("array", [SharedArray.publish(points)], points)
        if isinstance(points, (list, tuple)) and points and all(
            isinstance(p, str) for p in points
        ):
            from repro.metrics.encoding import encode_strings

            encoded = encode_strings(points)
            return cls(
                "strings",
                [
                    SharedArray.publish(encoded.codes),
                    SharedArray.publish(encoded.lengths),
                ],
                points,
            )
        blob = np.frombuffer(
            pickle.dumps(points, protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8,
        )
        return cls("pickle", [SharedArray.publish(blob)], points)

    def _materialize(self, arrays: Sequence[np.ndarray]) -> Any:
        if self.kind == "array":
            return arrays[0]
        if self.kind == "strings":
            return decode_strings(arrays[0], arrays[1])
        if self.kind == "pickle":
            return pickle.loads(arrays[0].tobytes())
        raise ValueError(  # pragma: no cover - publish() controls the kinds
            f"unknown shared dataset kind {self.kind!r}"
        )

    def resolve(self) -> Any:
        """Return the database: the original in the owner, a shared view
        (or per-worker reconstruction) elsewhere.

        A worker keeps only the dataset it resolved last: resolving
        another one unmaps the previous dataset's segments first.
        """
        if self._local is not None:
            return self._local
        token = self.arrays[0].name
        cached = _RESOLVED.get(token)
        if cached is not None:
            return cached
        _release_attached()
        points = self._materialize([a.array() for a in self.arrays])
        _RESOLVED[token] = points
        return points

    def unlink(self) -> None:
        """Release every segment (owner side); safe to call twice."""
        for array in self.arrays:
            array.unlink()

    def __enter__(self) -> "SharedDataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()

    def __reduce__(self):
        if self.kind == "local":
            raise TypeError(
                "a local (unpublished) SharedDataset cannot be shipped to "
                "workers; use SharedDataset.publish() for pool execution"
            )
        return (SharedDataset, (self.kind, self.arrays))

    def __repr__(self) -> str:
        return f"SharedDataset(kind={self.kind!r}, segments={len(self.arrays)})"
