"""Persisting and reloading DistPermIndex data, unsharded and sharded.

A real deployment builds the permutation index once and serves queries
from it; this module saves the index payload — sites plus the permutation
*code* array bit-packed at ``ceil(log2 k!)`` bits per element — to a
page-aligned container file and reconstructs a queryable index against
the original database.  This is Corollary 8's bit bound realized, not
just reported: a ``k = 12`` index costs 29 bits per point on disk (plus
one byte of packing slack).  Widths past
:data:`~repro.core.permutation.MAX_CODE_SITES` fall back to the narrow
row matrix, transparently.

Every packed code section is read through
:class:`~repro.core.storage.MappedCodeStore`: ``backing="mmap"`` keeps it
mapped and decodes it block by block at query time, ``backing="ram"``
streams every code out of it once and closes it.  So the width,
truncation and ``[0, k!)`` checks — and the :class:`PayloadCorruptError`
naming the shard and byte offset — exist in one place.

Sharded indexes persist shard by shard: :func:`save_sharded` writes one
section per shard (plus the shard offsets) into one file, and
:func:`load_sharded` rebuilds a
:class:`~repro.index.sharded.ShardedIndex` whose inner
:class:`~repro.index.distperm.DistPermIndex` shards are reconstructed
without recomputing any of the ``n x k`` build distances — the loaded
index answers queries (in-process or from pinned workers, per the
``resident`` argument) exactly like the one that was saved.
:func:`load_shard` loads one shard, as a pinned worker does on every
(re)spawn.

Payloads of the retired version-2 ``.npz`` format convert once with
:func:`convert_v2_payload`; the loaders accept only the container.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.core.bitpack import pack_ids
from repro.core.permutation import (
    compact_position_dtype,
    decode_permutations,
    decode_positions,
    encode_permutations,
    permutation_positions,
)
from repro.core.storage import (
    MappedCodeStore,
    PayloadCorruptError,
    bits_full_permutation,
)
from repro.index.distperm import DistPermIndex
from repro.index.sharded import ShardedIndex
from repro.metrics.base import Metric

__all__ = [
    "PayloadCorruptError",
    "save_distperm",
    "load_distperm",
    "save_sharded",
    "load_sharded",
    "load_shard",
    "convert_v2_payload",
]

PathLike = Union[str, Path]

# A raw container whose bit-packed code sections start on page
# boundaries, so a loader can hand each section straight to mmap.
_V3_MAGIC = b"RPRMCOD3"
_V3_PAGE = 4096


def _align(n: int, page: int = _V3_PAGE) -> int:
    return (n + page - 1) // page * page


def _read_header(path: PathLike, kind: str) -> Dict[str, Any]:
    """The parsed header of a payload file holding a ``kind`` payload."""
    with open(path, "rb") as fh:
        if fh.read(8) != _V3_MAGIC:
            raise ValueError(
                f"{os.fspath(path)} is not a recognized payload file; a "
                "version-2 .npz payload converts with "
                "repro.index.serialize.convert_v2_payload"
            )
        (header_len,) = struct.unpack("<Q", fh.read(8))
        blob = fh.read(header_len)
    if len(blob) < header_len:
        raise PayloadCorruptError(
            f"v3 header truncated (have {len(blob)} bytes, need {header_len})",
            byte_offset=len(blob),
        )
    header = json.loads(blob.decode("ascii"))
    if header.get("format") != 3:
        raise ValueError(f"unsupported format version {header.get('format')}")
    if header.get("kind") != kind:
        raise ValueError(
            f"{os.fspath(path)} holds a {header.get('kind')} payload, "
            f"not a {kind} one"
        )
    # Section offsets in the header are relative to the first data page,
    # which floats with the header's own length.
    header["_data_start"] = _align(16 + header_len)
    return header


def _write_v3(
    path: PathLike,
    kind: str,
    payloads: Sequence[Dict[str, np.ndarray]],
    offsets: Optional[Sequence[int]] = None,
) -> None:
    """Write payload dicts as a page-aligned v3 container."""
    shards_meta = []
    sections = []
    rel = 0
    for payload in payloads:
        entry: Dict[str, Any] = {
            "site_indices": [int(i) for i in payload["site_indices"]],
            "count": int(payload["count"]),
            "k": int(payload["k"]),
        }
        if "codes_packed" in payload:
            data = np.ascontiguousarray(
                payload["codes_packed"], dtype=np.uint8
            ).tobytes()
            entry["codes"] = {
                "bit_width": int(payload["bit_width"]),
                "offset": rel,
                "nbytes": len(data),
            }
        else:
            matrix = np.ascontiguousarray(payload["perm_matrix"])
            data = matrix.tobytes()
            entry["matrix"] = {
                "dtype": matrix.dtype.str,
                "shape": list(matrix.shape),
                "offset": rel,
                "nbytes": len(data),
            }
        sections.append(data)
        shards_meta.append(entry)
        rel = _align(rel + len(data))
    header: Dict[str, Any] = {"format": 3, "kind": kind, "shards": shards_meta}
    if offsets is not None:
        header["offsets"] = [int(v) for v in offsets]
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    data_start = _align(16 + len(blob))
    with open(path, "wb") as fh:
        fh.write(_V3_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(b"\0" * (data_start - 16 - len(blob)))
        pos = 0
        for data in sections:
            fh.write(data)
            pos += len(data)
            pad = _align(pos) - pos
            fh.write(b"\0" * pad)
            pos += pad


def _distperm_payload(index: DistPermIndex) -> Dict[str, np.ndarray]:
    """The serializable payload of one DistPermIndex (not its database).

    For ``k <= MAX_CODE_SITES`` the per-element data is the Lehmer code
    array bit-packed at ``ceil(log2 k!)`` bits per element — Corollary
    8's bound, realized.  Wider permutations (whose codes are Python
    ints) ship the row matrix at the narrowest integer width instead.
    """
    k = index.n_sites
    payload = {
        "site_indices": np.asarray(index.site_indices, dtype=np.int64),
        "count": np.int64(len(index.points)),
        "k": np.int64(k),
    }
    codes = index._materialized_codes()
    if codes.dtype == np.dtype(np.uint64):
        bit_width = bits_full_permutation(k)
        payload["bit_width"] = np.int64(bit_width)
        payload["codes_packed"] = np.frombuffer(
            pack_ids(codes, bit_width), dtype=np.uint8
        )
    else:
        matrix_dtype = np.uint16 if k <= 1 << 16 else np.int64
        payload["perm_matrix"] = index.permutations.astype(matrix_dtype)
    return payload


def _open_codes(
    path: PathLike,
    header: Dict[str, Any],
    section: Dict[str, Any],
    count: int,
    k: int,
    shard: Optional[str],
    cache_bytes: Optional[int],
) -> MappedCodeStore:
    """Map one packed code section after checking its pack width."""
    bit_width = int(section["bit_width"])
    expected_width = bits_full_permutation(k)
    if bit_width != expected_width:
        raise PayloadCorruptError(
            f"pack width {bit_width} does not match the "
            f"{expected_width}-bit Corollary-8 width for k={k}",
            shard=shard,
        )
    store_kwargs: Dict[str, int] = {}
    if cache_bytes is not None:
        # A tight budget should still retain whole blocks — k position
        # bytes per element — so shrink the block to fit it.
        row_bytes = k * compact_position_dtype(k).itemsize
        store_kwargs["block_elements"] = max(
            8, min(8192, int(cache_bytes) // row_bytes // 8 * 8)
        )
        store_kwargs["cache_bytes"] = int(cache_bytes)
    return MappedCodeStore(
        path,
        offset=header["_data_start"] + int(section["offset"]),
        nbytes=int(section["nbytes"]),
        bit_width=bit_width,
        count=count,
        k=k,
        shard=shard,
        **store_kwargs,
    )


def _read_matrix(
    path: PathLike,
    header: Dict[str, Any],
    section: Dict[str, Any],
    shard: Optional[str],
) -> np.ndarray:
    """The row-matrix section of a ``k > MAX_CODE_SITES`` payload."""
    with open(path, "rb") as fh:
        fh.seek(header["_data_start"] + section["offset"])
        raw = fh.read(section["nbytes"])
    if len(raw) < section["nbytes"]:
        raise PayloadCorruptError(
            f"matrix section truncated (have {len(raw)} bytes, "
            f"need {section['nbytes']})",
            shard=shard,
            byte_offset=len(raw),
        )
    return np.frombuffer(raw, dtype=np.dtype(section["dtype"])).reshape(
        section["shape"]
    )


def _restore(
    path: PathLike,
    header: Dict[str, Any],
    j: int,
    points: Sequence,
    metric: Metric,
    *,
    shard: Optional[str],
    backing: str,
    cache_bytes: Optional[int],
) -> DistPermIndex:
    """Rebuild payload entry ``j`` as a DistPermIndex, without build
    distances.

    ``points`` must be the database the entry describes; a mismatched
    database is detected by re-deriving one site permutation and
    comparing.  Damaged packed-code data — wrong pack width, truncated
    section, decoded codes outside ``[0, k!)`` — raises
    :class:`PayloadCorruptError` naming ``shard`` and the byte offset of
    the damage.
    """
    if backing not in ("ram", "mmap"):
        raise ValueError(f"backing must be 'ram' or 'mmap', got {backing!r}")
    entry = header["shards"][j]
    site_indices = [int(i) for i in entry["site_indices"]]
    count = int(entry["count"])
    k = int(entry["k"])
    if count != len(points):
        raise ValueError(
            f"payload describes {count} elements, database has {len(points)}"
        )
    if site_indices and max(site_indices) >= len(points):
        raise ValueError("site indices exceed the database size")
    if len(site_indices) != k:
        raise ValueError("corrupt payload: k does not match site count")
    index = DistPermIndex.__new__(DistPermIndex)
    # Rebuild state without recomputing n x k distances.
    from repro.index.base import SearchStats
    from repro.metrics.base import CountingMetric

    index.points = points
    index.metric = CountingMetric(metric)
    index.stats = SearchStats()
    # Constructor state __init__ would have set: a loaded index mirrors a
    # construction with explicit site indices.
    index._requested_sites = len(site_indices)
    index._site_strategy = "random"
    index._rng = None
    index._site_indices = site_indices
    index.site_indices = list(site_indices)
    index.sites = [points[i] for i in site_indices]
    index._footrule_workspace = {}
    if "codes" not in entry:
        if backing == "mmap":
            raise ValueError(
                f"k={k} exceeds the packed-code window; "
                "matrix payloads load RAM-backed only"
            )
        perms = _read_matrix(path, header, entry["matrix"], shard).astype(
            np.int64
        )
        index.codes = encode_permutations(perms)
        index._perm_positions = permutation_positions(
            perms, out=np.empty((k, count), dtype=compact_position_dtype(k)).T
        )
    else:
        store = _open_codes(
            path, header, entry["codes"], count, k, shard, cache_bytes
        )
        if backing == "mmap":
            # The section stays on disk; queries decode it block by
            # block through the store's budgeted position cache.
            index._backing = "mmap"
            index._code_store = store
        else:
            codes = np.empty(count, dtype=np.uint64)
            try:
                for start, stop, block in store.iter_blocks():
                    codes[start:stop] = block
            finally:
                store.close()
            index.codes = codes
            # The column-major rank positions _build leaves behind,
            # unranked straight from the codes.
            index._perm_positions = decode_positions(codes, k)
    # Consistency check: the first site's own permutation must rank that
    # site at distance zero, i.e. begin with the lowest-index zero-distance
    # site — cheap evidence the database matches the payload.  On mmap,
    # element() unpacks and checks the probe's block only (caching
    # nothing), so damage there fails at load time, not first query.
    if site_indices:
        probe = site_indices[0]
        derived = index.query_permutation(points[probe])
        if backing == "mmap":
            code = np.asarray([store.element(probe)], dtype=np.uint64)
        else:
            code = index.codes[probe : probe + 1]
        stored = decode_permutations(code, k)[0]
        if not np.array_equal(derived, stored):
            raise ValueError(
                "database does not match payload (permutation probe failed)"
            )
        index.metric.reset()
    return index


def save_distperm(path: PathLike, index: DistPermIndex) -> None:
    """Write the index payload (not the database) to disk, as the
    page-aligned container whose code section :func:`load_distperm` can
    memory-map."""
    _write_v3(path, "distperm", [_distperm_payload(index)])


def load_distperm(
    path: PathLike,
    points: Sequence,
    metric: Metric,
    *,
    backing: str = "ram",
    cache_bytes: Optional[int] = None,
) -> DistPermIndex:
    """Reconstruct a DistPermIndex from a saved payload.

    ``points`` must be the database the index was built on (the payload
    stores only site indices and permutations); a mismatched database is
    detected by re-deriving one site permutation and comparing.

    ``backing="mmap"`` maps the packed code section instead of decoding
    it into RAM; ``cache_bytes`` budgets the decoded-position cache
    (:class:`~repro.core.storage.MappedCodeStore`), whose blocks shrink
    so that a small budget still retains whole ones.
    """
    return _restore(
        path,
        _read_header(path, "distperm"),
        0,
        points,
        metric,
        shard=None,
        backing=backing,
        cache_bytes=cache_bytes,
    )


def save_sharded(path: PathLike, index: ShardedIndex) -> None:
    """Write a sharded permutation index to one file, shard by shard.

    Every shard must be a :class:`DistPermIndex`; each contributes its
    own compact payload as its own page-aligned section, alongside the
    shard offsets.  The database itself is not stored.
    """
    for shard in index.shards:
        if not isinstance(shard, DistPermIndex):
            raise TypeError(
                "save_sharded requires DistPermIndex shards, got "
                f"{type(shard).__name__}"
            )
    _write_v3(
        path,
        "sharded",
        [_distperm_payload(shard) for shard in index.shards],
        offsets=index.shard_offsets,
    )


def load_shard(
    path: PathLike,
    shard: int,
    points: Sequence,
    metric: Metric,
    *,
    backing: str = "ram",
    cache_bytes: Optional[int] = None,
) -> DistPermIndex:
    """Load shard ``shard`` of a sharded payload file as its inner index.

    The load primitive behind pinned-worker (re)spawns: ``points`` is
    the shard's own slice of the database, and only the header and this
    shard's section are read — never the other shards or the database.
    ``backing`` / ``cache_bytes`` are those of
    :func:`load_sharded`.  Corrupt shard data raises
    :class:`PayloadCorruptError` naming shard ``s<shard>``.
    """
    header = _read_header(path, "sharded")
    if not 0 <= shard < len(header["shards"]):
        raise ValueError(f"no shard s{shard} in payload file {path}")
    return _restore(
        path,
        header,
        shard,
        points,
        metric,
        shard=f"s{shard}",
        backing=backing,
        cache_bytes=cache_bytes,
    )


def load_sharded(
    path: PathLike,
    points: Sequence,
    metric: Metric,
    *,
    resident: bool = False,
    policy=None,
    faults=None,
    budget_split: str = "auto",
    backing: str = "ram",
    cache_bytes: Optional[int] = None,
) -> ShardedIndex:
    """Reconstruct a sharded permutation index from a saved payload.

    ``points`` must be the database the index was built on; each shard is
    restored against its own contiguous slice (with the same probe check
    as :func:`load_distperm`) and no build distances are recomputed.
    ``resident`` selects the loaded index's engine, independent of how
    the saved index ran: ``resident=True`` serves it from one pinned
    worker per shard, spawned lazily on the first query;
    ``policy`` / ``faults`` / ``budget_split`` configure that runtime
    and the ``knn_approx`` budget division exactly as on
    :class:`~repro.index.sharded.ShardedIndex`.  The workers of a
    disk-backed index load their shard from this payload file on every
    (re)spawn (:func:`load_shard`).  Corrupt shard data raises
    :class:`PayloadCorruptError` naming the shard key and byte offset.

    ``backing="mmap"`` maps every shard's code section instead of
    decoding it, and the pinned workers inherit the mode — a respawned
    worker re-maps its shard instead of re-reading it.  ``cache_bytes``
    budgets each shard's decoded-position cache.
    """
    header = _read_header(path, "sharded")
    offsets = [int(v) for v in header["offsets"]]
    n_shards = len(offsets) - 1
    if offsets[0] != 0 or offsets[-1] != len(points) or n_shards < 1:
        raise ValueError(
            f"payload shard offsets {offsets} do not cover a database "
            f"of {len(points)} elements"
        )
    from repro.index.base import SearchStats
    from repro.metrics.base import CountingMetric

    index = ShardedIndex.__new__(ShardedIndex)
    index.points = points
    index.metric = CountingMetric(metric)
    index.stats = SearchStats()
    index._init_runtime(resident, policy, faults, budget_split)
    index._payload_path = os.fspath(path)
    index._payload_backing = backing
    index._payload_cache_bytes = cache_bytes
    index.shard_offsets = offsets
    index.shards = [
        _restore(
            path,
            header,
            j,
            points[offsets[j] : offsets[j + 1]],
            metric,
            shard=f"s{j}",
            backing=backing,
            cache_bytes=cache_bytes,
        )
        for j in range(n_shards)
    ]
    return index


def convert_v2_payload(src: PathLike, dst: PathLike) -> None:
    """Rewrite a legacy version-2 ``.npz`` payload as a v3 container.

    Handles both the unsharded and the sharded (``s<j>_``-prefixed
    members plus ``offsets``) layouts.  The packed code bytes are copied,
    not decoded, so a damaged legacy payload converts and then fails
    :func:`load_distperm` / :func:`load_sharded` with the usual
    :class:`PayloadCorruptError`.
    """
    with np.load(src) as data:
        arrays = {key: data[key] for key in data.files}
    version = arrays.pop("version", None)
    if version is None or int(version) != 2:
        raise ValueError(f"{os.fspath(src)} is not a version-2 payload")
    offsets = arrays.pop("offsets", None)
    if offsets is None:
        _write_v3(dst, "distperm", [arrays])
        return
    payloads = []
    for j in range(len(offsets) - 1):
        prefix = f"s{j}_"
        payloads.append(
            {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
        )
    _write_v3(dst, "sharded", payloads, offsets=offsets)
