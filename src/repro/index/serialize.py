"""Persisting and reloading DistPermIndex data, unsharded and sharded.

A real deployment builds the permutation index once and serves queries
from it; this module saves the index payload — sites plus the permutation
*code* array bit-packed at ``ceil(log2 k!)`` bits per element — to a
single ``.npz`` file and reconstructs a queryable index against the
original database.  This is Corollary 8's bit bound realized, not just
reported: a ``k = 12`` index costs 29 bits per point on disk (plus one
byte of packing slack), where the version-1 format shipped an ``int64``
row table beside the ids.  Widths past
:data:`~repro.core.permutation.MAX_CODE_SITES` fall back to the narrow
row matrix, transparently.

Sharded indexes persist shard by shard: :func:`save_sharded` writes one
payload per shard (plus the shard offsets) into one ``.npz``, and
:func:`load_sharded` rebuilds a
:class:`~repro.index.sharded.ShardedIndex` whose inner
:class:`~repro.index.distperm.DistPermIndex` shards are reconstructed
without recomputing any of the ``n x k`` build distances — the loaded
index answers queries (serially or across a worker pool, per the
``workers`` argument) exactly like the one that was saved.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import zipfile
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bitpack import pack_ids, unpack_ids
from repro.core.permutation import (
    compact_position_dtype,
    decode_permutations,
    encode_permutations,
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
    "read_shard_payload",
    "restore_shard",
    "payload_format",
]

PathLike = Union[str, Path]

_FORMAT_VERSION = 2
_SHARDED_FORMAT_VERSION = 2

# Version 3: a raw container whose bit-packed code sections start on
# page boundaries, so a loader can hand each section straight to
# mmap/np.memmap instead of inflating an npz member into RAM.
_V3_MAGIC = b"RPRMCOD3"
_V3_PAGE = 4096
_DEFAULT_VERSION = 3


def _align(n: int, page: int = _V3_PAGE) -> int:
    return (n + page - 1) // page * page


# ---------------------------------------------------------------------------
# Payload member tables: one parse per file, cached by identity.
#
# Resident-worker respawns call read_shard_payload once per recovered
# shard; before this cache each call re-opened the npz and re-scanned
# every member.  Now the zip central directory (v2) or the v3 header is
# parsed once per (realpath, size, mtime) and each shard read seeks
# straight to its own bytes — O(shard), not O(file).
# ---------------------------------------------------------------------------

_MEMBER_CACHE: "OrderedDict[Tuple[str, int, int], Tuple[str, Any]]" = OrderedDict()
_MEMBER_CACHE_LIMIT = 64


def _read_v3_header(path: str) -> Dict[str, Any]:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _V3_MAGIC:
            raise ValueError(f"{path} is not a version-3 payload file")
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
    # Section offsets in the header are relative to the first data page,
    # which floats with the header's own length.
    header["_data_start"] = _align(16 + header_len)
    return header


def _npz_member_table(path: str) -> Dict[str, Tuple[int, int, int]]:
    """Map npz member name -> (local header offset, compress type, size)."""
    table: Dict[str, Tuple[int, int, int]] = {}
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            table[info.filename] = (
                info.header_offset,
                info.compress_type,
                info.compress_size,
            )
    return table


def _payload_members(path: PathLike) -> Tuple[str, Any]:
    """``("v3", header)`` or ``("v2", member_table)`` for a payload file."""
    real = os.path.realpath(os.fspath(path))
    st = os.stat(real)
    key = (real, st.st_size, st.st_mtime_ns)
    entry = _MEMBER_CACHE.get(key)
    if entry is not None:
        _MEMBER_CACHE.move_to_end(key)
        return entry
    with open(real, "rb") as fh:
        magic = fh.read(8)
    if magic == _V3_MAGIC:
        entry = ("v3", _read_v3_header(real))
    elif magic[:2] == b"PK":
        entry = ("v2", _npz_member_table(real))
    else:
        raise ValueError(f"{os.fspath(path)} is not a recognized payload file")
    _MEMBER_CACHE[key] = entry
    while len(_MEMBER_CACHE) > _MEMBER_CACHE_LIMIT:
        _MEMBER_CACHE.popitem(last=False)
    return entry


def payload_format(path: PathLike) -> int:
    """The on-disk format version of a payload file (2 = npz, 3 = raw)."""
    kind, _ = _payload_members(path)
    return 3 if kind == "v3" else 2


def _read_npz_member(path: PathLike, entry: Tuple[int, int, int]) -> np.ndarray:
    """Read one npz member straight from its cached zip offsets."""
    header_offset, compress_type, compress_size = entry
    with open(path, "rb") as fh:
        fh.seek(header_offset)
        local = fh.read(30)
        if local[:4] != b"PK\x03\x04":
            raise ValueError(f"stale member table for {os.fspath(path)}")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        fh.seek(header_offset + 30 + name_len + extra_len)
        raw = fh.read(compress_size)
    if compress_type == zipfile.ZIP_DEFLATED:
        raw = zlib.decompress(raw, -15)
    return np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)


def _v3_shard_payload(
    path: PathLike,
    header: Dict[str, Any],
    j: int,
    *,
    backing: str,
    shard_label: Optional[str],
) -> Dict[str, Any]:
    """One shard's payload dict out of a v3 container.

    RAM backing reads the shard's section bytes (and nothing else);
    mmap backing defers the section entirely, handing
    :func:`_restore_distperm` a ``codes_section`` descriptor for
    :class:`~repro.core.storage.MappedCodeStore` to map.
    """
    entry = header["shards"][j]
    payload: Dict[str, Any] = {
        "site_indices": np.asarray(entry["site_indices"], dtype=np.int64),
        "count": np.int64(entry["count"]),
        "k": np.int64(entry["k"]),
    }
    data_start = header["_data_start"]
    if "codes" in entry:
        section = entry["codes"]
        payload["bit_width"] = np.int64(section["bit_width"])
        absolute = data_start + section["offset"]
        if backing == "mmap":
            payload["codes_section"] = {
                "path": os.fspath(path),
                "offset": absolute,
                "nbytes": section["nbytes"],
            }
        else:
            with open(path, "rb") as fh:
                fh.seek(absolute)
                raw = fh.read(section["nbytes"])
            # A short read flows into unpack_ids, which raises the same
            # truncation PayloadCorruptError as a damaged v2 payload.
            payload["codes_packed"] = np.frombuffer(raw, dtype=np.uint8)
    else:
        if backing == "mmap":
            raise ValueError(
                f"k={int(entry['k'])} exceeds the packed-code window; "
                "matrix payloads load RAM-backed only"
            )
        section = entry["matrix"]
        absolute = data_start + section["offset"]
        with open(path, "rb") as fh:
            fh.seek(absolute)
            raw = fh.read(section["nbytes"])
        if len(raw) < section["nbytes"]:
            raise PayloadCorruptError(
                f"matrix section truncated (have {len(raw)} bytes, "
                f"need {section['nbytes']})",
                shard=shard_label,
                byte_offset=len(raw),
            )
        payload["perm_matrix"] = np.frombuffer(
            raw, dtype=np.dtype(section["dtype"])
        ).reshape(section["shape"])
    return payload


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


def _restore_distperm(
    payload: Dict[str, Any],
    points: Sequence,
    metric: Metric,
    shard: Optional[str] = None,
    *,
    cache_bytes: Optional[int] = None,
    block_elements: Optional[int] = None,
) -> DistPermIndex:
    """Rebuild one DistPermIndex from a payload, without build distances.

    ``points`` must be the database the payload describes; a mismatched
    database is detected by re-deriving one site permutation and
    comparing.  Damaged packed-code data — wrong pack width, truncated
    buffer, decoded codes outside ``[0, k!)`` — raises
    :class:`PayloadCorruptError` naming ``shard`` and the byte offset of
    the damage.
    """
    site_indices = [int(i) for i in payload["site_indices"]]
    count = int(payload["count"])
    k = int(payload["k"])
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
    if "codes_section" in payload:
        # mmap backing: the packed section stays on disk; queries decode
        # it block by block through a budgeted position cache
        # (MappedCodeStore).
        bit_width = int(payload["bit_width"])
        expected_width = bits_full_permutation(k)
        if bit_width != expected_width:
            raise PayloadCorruptError(
                f"pack width {bit_width} does not match the "
                f"{expected_width}-bit Corollary-8 width for k={k}",
                shard=shard,
            )
        section = payload["codes_section"]
        if block_elements is None and cache_bytes is not None:
            # A tight budget should still retain whole blocks — k
            # position bytes per element — so shrink the block to fit it.
            row_bytes = k * compact_position_dtype(k).itemsize
            block_elements = max(
                8, min(8192, int(cache_bytes) // row_bytes // 8 * 8)
            )
        store_kwargs: Dict[str, int] = {}
        if block_elements is not None:
            store_kwargs["block_elements"] = int(block_elements)
        if cache_bytes is not None:
            store_kwargs["cache_bytes"] = int(cache_bytes)
        store = MappedCodeStore(
            section["path"],
            offset=int(section["offset"]),
            nbytes=int(section["nbytes"]),
            bit_width=bit_width,
            count=count,
            k=k,
            shard=shard,
            **store_kwargs,
        )
        index._backing = "mmap"
        index._code_store = store
        index._footrule_workspace = {}
        if site_indices:
            # Same probe as the RAM path; element() unpacks and
            # validates the probe's block (caching nothing), so damage
            # there fails at load time rather than first query.
            probe = site_indices[0]
            derived = index.query_permutation(points[probe])
            stored = decode_permutations(
                np.asarray([store.element(probe)], dtype=np.uint64), k
            )[0]
            if not np.array_equal(derived, stored):
                raise ValueError(
                    "database does not match payload (permutation probe failed)"
                )
            index.metric.reset()
        return index
    if "codes_packed" in payload:
        bit_width = int(payload["bit_width"])
        expected_width = bits_full_permutation(k)
        if bit_width != expected_width:
            raise PayloadCorruptError(
                f"pack width {bit_width} does not match the "
                f"{expected_width}-bit Corollary-8 width for k={k}",
                shard=shard,
            )
        packed = np.ascontiguousarray(payload["codes_packed"], dtype=np.uint8)
        try:
            index.codes = unpack_ids(packed, bit_width, count)
        except ValueError as exc:
            raise PayloadCorruptError(
                f"packed code stream truncated ({exc})",
                shard=shard,
                byte_offset=len(packed),
            ) from exc
    else:
        perms = np.asarray(payload["perm_matrix"]).astype(np.int64)
        index.codes = encode_permutations(perms)
    index.table_codes, index.ids = np.unique(
        index.codes, return_inverse=True
    )
    # decode validates every table code against k! — corrupt payloads
    # (bit rot, wrong bit_width) fail loudly here.
    try:
        index.table = decode_permutations(index.table_codes, k)
    except ValueError as exc:
        limit = math.factorial(k)
        bad = np.nonzero(np.asarray(index.codes) >= limit)[0]
        first_bad = int(bad[0]) if bad.size else 0
        bit_width = int(payload.get("bit_width", 0))
        raise PayloadCorruptError(
            f"element {first_bad} decodes outside [0, {k}!) ({exc})",
            shard=shard,
            byte_offset=first_bad * bit_width // 8,
        ) from exc
    # Rebuild the derived caches of _build (the batched knn_approx path
    # reads _perm_positions; loading must leave no attribute behind).
    index._cache_perm_positions()
    # Consistency check: the first site's own permutation must rank that
    # site at distance zero, i.e. begin with the lowest-index zero-distance
    # site — cheap evidence the database matches the payload.
    if site_indices:
        probe = site_indices[0]
        derived = index.query_permutation(points[probe])
        stored = index.table[index.ids[probe]]
        if not np.array_equal(derived, stored):
            raise ValueError(
                "database does not match payload (permutation probe failed)"
            )
        index.metric.reset()
    return index


def save_distperm(
    path: PathLike, index: DistPermIndex, *, version: int = _DEFAULT_VERSION
) -> None:
    """Write the index payload (not the database) to disk.

    ``version=3`` (the default) writes the page-aligned raw container
    whose code section :func:`load_distperm` can memory-map;
    ``version=2`` writes the legacy compressed ``.npz``.
    """
    if version == 3:
        _write_v3(path, "distperm", [_distperm_payload(index)])
    elif version == 2:
        np.savez_compressed(
            path,
            version=np.int64(_FORMAT_VERSION),
            **_distperm_payload(index),
        )
    else:
        raise ValueError(f"unsupported format version {version}")


def load_distperm(
    path: PathLike,
    points: Sequence,
    metric: Metric,
    *,
    backing: str = "ram",
    cache_bytes: Optional[int] = None,
    block_elements: Optional[int] = None,
) -> DistPermIndex:
    """Reconstruct a DistPermIndex from a saved payload.

    ``points`` must be the database the index was built on (the payload
    stores only site indices and permutations); a mismatched database is
    detected by re-deriving one site permutation and comparing.

    ``backing="mmap"`` (version-3 payloads only) maps the packed code
    section instead of decoding it into RAM; ``cache_bytes`` /
    ``block_elements`` tune the decoded-position cache
    (:class:`~repro.core.storage.MappedCodeStore`).
    """
    if backing not in ("ram", "mmap"):
        raise ValueError(f"backing must be 'ram' or 'mmap', got {backing!r}")
    fmt, members = _payload_members(path)
    if fmt == "v3":
        if members.get("kind") != "distperm":
            raise ValueError(
                f"{os.fspath(path)} holds a {members.get('kind')} payload; "
                "use load_sharded"
            )
        payload = _v3_shard_payload(
            path, members, 0, backing=backing, shard_label=None
        )
        return _restore_distperm(
            payload,
            points,
            metric,
            cache_bytes=cache_bytes,
            block_elements=block_elements,
        )
    if backing == "mmap":
        raise ValueError(
            "v2 npz payloads are not memory-mappable; re-save with version=3"
        )
    with np.load(path) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        payload = {key: data[key] for key in data.files if key != "version"}
    return _restore_distperm(payload, points, metric)


def save_sharded(
    path: PathLike, index: ShardedIndex, *, version: int = _DEFAULT_VERSION
) -> None:
    """Write a sharded permutation index to one file, shard by shard.

    Every shard must be a :class:`DistPermIndex`; each contributes its
    own compact payload (under a ``s<j>_`` key prefix in the v2 npz, as
    its own page-aligned section in the default v3 container), alongside
    the shard offsets.  The database itself is not stored.
    """
    for shard in index.shards:
        if not isinstance(shard, DistPermIndex):
            raise TypeError(
                "save_sharded requires DistPermIndex shards, got "
                f"{type(shard).__name__}"
            )
    if version == 3:
        _write_v3(
            path,
            "sharded",
            [_distperm_payload(shard) for shard in index.shards],
            offsets=index.shard_offsets,
        )
        return
    if version != 2:
        raise ValueError(f"unsupported format version {version}")
    arrays: Dict[str, np.ndarray] = {
        "version": np.int64(_SHARDED_FORMAT_VERSION),
        "offsets": np.asarray(index.shard_offsets, dtype=np.int64),
    }
    for j, shard in enumerate(index.shards):
        for key, value in _distperm_payload(shard).items():
            arrays[f"s{j}_{key}"] = value
    np.savez_compressed(path, **arrays)


def read_shard_payload(
    path: PathLike, shard: int, *, backing: str = "ram"
) -> Dict[str, Any]:
    """Read one shard's payload dict back out of a sharded payload file.

    The load primitive behind pinned-worker (re)spawns: a worker
    that must rebuild shard ``shard`` reads only that shard's packed
    codes, never the other shards or the database.  The file's member
    table (zip central directory for v2, v3 header) is parsed once and
    cached, so a respawn storm costs one seek-and-read per shard instead
    of a full-file scan each.  ``backing="mmap"`` (v3 only) returns a
    section descriptor instead of bytes, so the worker maps its shard.
    """
    if backing not in ("ram", "mmap"):
        raise ValueError(f"backing must be 'ram' or 'mmap', got {backing!r}")
    fmt, members = _payload_members(path)
    if fmt == "v3":
        if members.get("kind") != "sharded":
            raise ValueError(f"{os.fspath(path)} is not a sharded payload")
        if not 0 <= shard < len(members["shards"]):
            raise ValueError(f"no shard s{shard} in payload file {path}")
        return _v3_shard_payload(
            path, members, shard, backing=backing, shard_label=f"s{shard}"
        )
    if backing == "mmap":
        raise ValueError(
            "v2 npz payloads are not memory-mappable; re-save with version=3"
        )
    prefix = f"s{shard}_"
    payload = {}
    for name, entry in members.items():
        stem = name[:-4] if name.endswith(".npy") else name
        if stem.startswith(prefix):
            payload[stem[len(prefix):]] = _read_npz_member(path, entry)
    if not payload:
        raise ValueError(f"no shard s{shard} in payload file {path}")
    return payload


def restore_shard(
    payload: Dict[str, Any],
    points: Sequence,
    metric: Metric,
    *,
    shard: int,
    cache_bytes: Optional[int] = None,
    block_elements: Optional[int] = None,
) -> DistPermIndex:
    """Rebuild one shard's inner index from its payload dict.

    ``points`` is the shard's own slice of the database.  Corrupt
    payloads raise :class:`PayloadCorruptError` naming shard ``s<shard>``.
    """
    return _restore_distperm(
        payload,
        points,
        metric,
        shard=f"s{shard}",
        cache_bytes=cache_bytes,
        block_elements=block_elements,
    )


def load_sharded(
    path: PathLike,
    points: Sequence,
    metric: Metric,
    *,
    workers: Optional[int] = None,
    resident: bool = False,
    policy=None,
    faults=None,
    budget_split: str = "auto",
    backing: str = "ram",
    cache_bytes: Optional[int] = None,
    block_elements: Optional[int] = None,
) -> ShardedIndex:
    """Reconstruct a sharded permutation index from a saved payload.

    ``points`` must be the database the index was built on; each shard is
    restored against its own contiguous slice (with the same probe check
    as :func:`load_distperm`) and no build distances are recomputed.
    ``workers`` / ``resident`` select the loaded index's engine,
    independent of how the saved index ran: a positive ``workers`` or
    ``resident=True`` (two spellings of one switch) serves it from one
    pinned worker per shard, spawned lazily on the first query;
    ``policy`` / ``faults`` / ``budget_split`` configure that runtime
    and the ``knn_approx`` budget division exactly as on
    :class:`~repro.index.sharded.ShardedIndex`.  The workers of a
    disk-backed index load their shard from this payload file on every
    (re)spawn.  Corrupt shard data raises :class:`PayloadCorruptError`
    naming the shard key and byte offset.

    ``backing="mmap"`` (version-3 payloads only) maps every shard's code
    section instead of decoding it, and the pinned workers inherit the
    mode — a respawned worker re-maps its shard instead of re-reading
    it.  ``cache_bytes`` / ``block_elements`` tune each shard's
    decoded-position cache.
    """
    if backing not in ("ram", "mmap"):
        raise ValueError(f"backing must be 'ram' or 'mmap', got {backing!r}")
    fmt, members = _payload_members(path)
    if fmt == "v3":
        if members.get("kind") != "sharded":
            raise ValueError(
                f"{os.fspath(path)} holds a {members.get('kind')} payload; "
                "use load_distperm"
            )
        offsets = [int(v) for v in members["offsets"]]
        n_shards = len(offsets) - 1
        payloads = [
            _v3_shard_payload(
                path, members, j, backing=backing, shard_label=f"s{j}"
            )
            for j in range(n_shards)
        ]
    else:
        if backing == "mmap":
            raise ValueError(
                "v2 npz payloads are not memory-mappable; re-save with "
                "version=3"
            )
        with np.load(path) as data:
            version = int(data["version"])
            if version != _SHARDED_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported sharded format version {version}"
                )
            offsets = [int(v) for v in data["offsets"]]
            n_shards = len(offsets) - 1
            payloads = []
            for j in range(n_shards):
                prefix = f"s{j}_"
                payloads.append(
                    {
                        key[len(prefix):]: data[key]
                        for key in data.files
                        if key.startswith(prefix)
                    }
                )
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
    index._init_runtime(workers, resident, policy, faults, budget_split)
    index._payload_path = os.fspath(path)
    index._payload_backing = backing
    index._payload_cache_bytes = cache_bytes
    index._payload_block_elements = block_elements
    index.shard_offsets = offsets
    index.shards = [
        _restore_distperm(
            payload,
            points[offsets[j] : offsets[j + 1]],
            metric,
            shard=f"s{j}",
            cache_bytes=cache_bytes,
            block_elements=block_elements,
        )
        for j, payload in enumerate(payloads)
    ]
    return index
