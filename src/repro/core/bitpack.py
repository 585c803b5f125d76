"""Bit-packed fields — Corollary 8 made concrete.

The paper's storage claims are stated in bits; this module actually packs
an array of nonnegative integers at a fixed ``bit_width`` each into a
byte buffer, so index sizes can be *measured* instead of merely computed.
The payload writer packs Lehmer codes at ``ceil(log2 k!)`` bits
(:func:`~repro.core.storage.bits_full_permutation`), and
:class:`~repro.core.storage.MappedCodeStore` reads them back in place.
Ids into a table of ``N`` realized permutations — the sorted codes of a
:class:`~repro.core.estimate.StreamingCensus` — pack the same way at
:func:`bits_for_count` ``(N) = ceil(log2 N)`` bits.

**Layout and kernel.**  Field ``i`` occupies stream bits
``[i * bit_width, (i + 1) * bit_width)``, least significant bit first,
and stream bit ``b`` is bit ``b % 8`` of byte ``b // 8``; the last byte is
zero-padded.  Eight fields therefore repeat every ``bit_width`` bytes, so
lane ``j`` of every group of eight starts at the same byte
``(bit_width * j) // 8`` and the same bit ``(bit_width * j) % 8`` of its
group: :func:`pack_ids` and :func:`unpack_ids` treat each lane as one
strided, unaligned little-endian ``uint64`` view of the buffer — a
*word window* — shifted and masked (or OR-ed in) by a single array
operation.  A lane that starts at bit 1..7 and is wider than 57 bits
spills its top bits into the byte after the window.  Nothing of size
``count * bit_width`` is ever materialized.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.permutation import workspace_buffer

__all__ = ["bits_for_count", "pack_ids", "unpack_ids"]

#: Bytes past a lane's first byte that its window (8) and spill byte (1)
#: may touch: both kernels keep this much slack behind the last group.
_WINDOW_REACH = 9


def bits_for_count(count: int) -> int:
    """Bits needed to index one of ``count`` distinct values."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        return 0
    return math.ceil(math.log2(count))


def _check_width(bit_width: int) -> None:
    if bit_width < 0 or bit_width > 64:
        raise ValueError("bit_width must be in 0..64")


def _lanes(
    raw: np.ndarray, bit_width: int, lanes: int, groups: int
) -> Iterator[Tuple[int, np.ndarray, int, np.ndarray]]:
    """Per lane: ``(j, window, shift, spill)`` over ``groups`` groups.

    ``window`` is the strided ``<u8`` view holding lane ``j``'s field of
    every group from bit ``shift`` up, ``spill`` the byte behind it, where
    the field's bits past 64 live (``None`` when the field fits the window).
    """
    span = lanes * bit_width // 8  # bytes per group
    for j in range(lanes):
        byte, shift = divmod(bit_width * j, 8)
        window = np.ndarray(
            (groups,), dtype="<u8", buffer=raw, offset=byte, strides=(span,)
        )
        spill = None
        if shift + bit_width > 64:
            spill = np.ndarray(
                (groups,), dtype=np.uint8, buffer=raw, offset=byte + 8,
                strides=(span,),
            )
        yield j, window, shift, spill


def pack_ids(ids: Sequence[int], bit_width: int) -> bytes:
    """Pack nonnegative integers into ``bit_width``-bit fields (LSB first).

    ``bit_width`` of 0 is allowed when every id is 0 (a single realizable
    permutation needs no per-element bits at all).
    """
    ids = np.asarray(ids, dtype=np.uint64)
    _check_width(bit_width)
    if bit_width == 0:
        if ids.size and ids.max() > 0:
            raise ValueError("bit_width 0 requires all ids to be 0")
        return b""
    if ids.size and int(ids.max()) >= (1 << bit_width):
        raise ValueError(
            f"id {int(ids.max())} does not fit in {bit_width} bits"
        )
    n = ids.shape[0]
    if n == 0:
        return b""
    # OR-ing a lane into its windows is only safe when the windows of one
    # lane do not overlap each other, i.e. a group spans >= 8 bytes: below
    # 8 bits per field, groups grow to the next multiple of eight fields
    # that does.
    lanes = 8 * -(-8 // bit_width)
    groups = -(-n // lanes)
    fields = np.zeros((groups, lanes), dtype=np.uint64)
    fields.reshape(-1)[:n] = ids
    raw = np.zeros(groups * lanes * bit_width // 8 + _WINDOW_REACH, np.uint8)
    shifted = np.empty(groups, dtype=np.uint64)
    for j, window, shift, spill in _lanes(raw, bit_width, lanes, groups):
        np.left_shift(fields[:, j], np.uint64(shift), out=shifted)
        np.bitwise_or(window, shifted, out=window)
        if spill is not None:
            np.right_shift(fields[:, j], np.uint64(64 - shift), out=shifted)
            np.bitwise_or(spill, shifted.astype(np.uint8), out=spill)
    return raw[: (n * bit_width + 7) // 8].tobytes()


def _unpack_groups(
    raw: np.ndarray,
    bit_width: int,
    out: np.ndarray,
    workspace: Optional[dict] = None,
) -> None:
    """Fill ``out`` (``(groups, 8)`` uint64) from the groups leading ``raw``:
    lanes go to contiguous scratch rows, then one transposing copy (twice
    as fast as shifting into ``out``'s strided columns)."""
    mask = np.uint64((1 << bit_width) - 1)
    rows = workspace_buffer(workspace, "lanes", (8, out.shape[0]), np.uint64)
    for j, window, shift, spill in _lanes(raw, bit_width, 8, out.shape[0]):
        lane = rows[j]
        np.right_shift(window, np.uint64(shift), out=lane)
        if spill is not None:
            high = spill.astype(np.uint64)
            high <<= np.uint64(64 - shift)
            lane |= high
        lane &= mask
    out[...] = rows.T


def unpack_ids(
    data, bit_width: int, count: int, workspace: Optional[dict] = None
) -> np.ndarray:
    """Inverse of :func:`pack_ids`: recover ``count`` ids as ``uint64``.

    ``data`` is any object exposing a contiguous buffer — ``bytes``, a
    ``memoryview``, a ``uint8`` array, a slice of an ``np.memmap`` — and is
    read in place: only the last few groups, whose windows would reach
    past the end of the buffer, are copied (into a zero-padded scratch).
    With a ``workspace`` dict (see
    :func:`~repro.core.permutation.workspace_buffer`) the ids and the lane
    scratch live in its reused buffers, so the result is valid until the
    next call with that workspace.
    """
    _check_width(bit_width)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if bit_width == 0:
        return np.zeros(count, dtype=np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8)
    needed = (count * bit_width + 7) // 8
    if raw.shape[0] < needed:
        raise ValueError(
            f"buffer holds {raw.shape[0] * 8} bits, need {count * bit_width}"
        )
    groups = (count + 7) // 8
    out = workspace_buffer(workspace, "unpacked", (groups, 8), np.uint64)
    # Groups whose last lane's window and spill byte stay inside `raw`
    # are read where they lie; the rest go through a padded copy.
    reach = bit_width * 7 // 8 + _WINDOW_REACH
    inside = min(groups, max(0, (raw.shape[0] - reach) // bit_width + 1))
    if inside:
        _unpack_groups(raw, bit_width, out[:inside], workspace)
    if inside < groups:
        tail = np.zeros((groups - inside) * bit_width + reach, dtype=np.uint8)
        tail[: needed - inside * bit_width] = raw[inside * bit_width : needed]
        _unpack_groups(tail, bit_width, out[inside:], workspace)
    return out.reshape(-1)[:count]
