"""Storage accounting for permutation-based indexes (Corollary 8).

The paper's headline practical consequence: a distance permutation need
not be stored in ``ceil(log2 k!)`` bits.  When only ``N`` permutations are
realizable, a table of the realized permutations plus per-element indexes
into it needs ``ceil(log2 N)`` bits per element — ``Θ(d log k)`` in
``d``-dimensional Euclidean space, beating LAESA's ``O(k log n)`` and the
naive permutation encoding's ``O(k log k)``.

:class:`MappedCodeStore` is the accounting made *operational*: the
Corollary-8 packed code section of a saved payload
(:mod:`repro.index.serialize`), memory-mapped and decoded lazily in
aligned blocks, so the bit bound is the query-time working set instead
of merely the on-disk size.  It caches what a footrule scan reads —
decoded rank *positions*, ``k`` bytes per element against
``cache_bytes`` — and retains the blocks that fit instead of evicting by
recency; what it does not retain it decodes a run of blocks at a time,
straight into the scan's tile.  The class docstring says why for both.
"""

from __future__ import annotations

import itertools
import math
import mmap as _mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro.core.bitpack import bits_for_count, unpack_ids
from repro.core.counting import euclidean_permutation_count
from repro.core.permutation import compact_position_dtype, decode_positions

__all__ = [
    "PayloadCorruptError",
    "bits_for_count",
    "bits_full_permutation",
    "bits_laesa_element",
    "bits_euclidean_element",
    "StorageReport",
    "storage_report",
    "MappedCodeStore",
]


def bits_full_permutation(k: int) -> int:
    """Bits for an unrestricted permutation of ``k`` sites: ``ceil(log2 k!)``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return bits_for_count(math.factorial(k))


def bits_laesa_element(k: int, n: int) -> int:
    """Bits per element for LAESA-style stored distances.

    LAESA stores ``k`` distances per element; with distances quantized to
    ``n`` distinguishable levels (the database size, following the paper's
    ``O(n k log n)`` accounting) that is ``k * ceil(log2 n)`` bits.
    """
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    return k * bits_for_count(n)


def bits_euclidean_element(d: int, k: int) -> int:
    """Bits per element using the exact Euclidean count ``N_{d,2}(k)``."""
    return bits_for_count(euclidean_permutation_count(d, k))


@dataclass(frozen=True)
class StorageReport:
    """Per-element and total index storage for one database configuration."""

    n: int
    k: int
    realized_permutations: int
    bits_laesa: int
    bits_naive_permutation: int
    bits_permutation_table: int
    table_overhead_bits: int

    @property
    def total_laesa(self) -> int:
        return self.n * self.bits_laesa

    @property
    def total_naive(self) -> int:
        return self.n * self.bits_naive_permutation

    @property
    def total_table(self) -> int:
        """Total for the permutation-table encoding, including the table."""
        return self.n * self.bits_permutation_table + self.table_overhead_bits

    def as_row(self) -> str:
        return (
            f"n={self.n:>9} k={self.k:>3} perms={self.realized_permutations:>9} "
            f"LAESA={self.total_laesa:>13}b naive={self.total_naive:>13}b "
            f"table={self.total_table:>13}b"
        )


def storage_report(n: int, k: int, realized_permutations: int) -> StorageReport:
    """Build a :class:`StorageReport` for a database of ``n`` elements.

    ``realized_permutations`` is the measured ``|{Π_y}|``; the permutation
    table itself costs ``realized * ceil(log2 k!)`` bits of overhead, which
    is negligible once ``n`` is large compared to the number of realized
    permutations (the regime the paper targets).
    """
    if realized_permutations < 1:
        raise ValueError("a nonempty database realizes at least one permutation")
    return StorageReport(
        n=n,
        k=k,
        realized_permutations=realized_permutations,
        bits_laesa=bits_laesa_element(k, max(n, 2)),
        bits_naive_permutation=bits_full_permutation(k),
        bits_permutation_table=bits_for_count(realized_permutations),
        table_overhead_bits=realized_permutations * bits_full_permutation(k),
    )


class PayloadCorruptError(ValueError):
    """A saved payload failed decode validation: bit rot, truncation, or
    a wrong-width pack.

    ``shard`` names the payload's shard key (``"s3"``; ``None`` for an
    unsharded payload) and ``byte_offset`` locates the damage inside the
    shard's packed code stream: the first byte whose decoded code failed
    validation for a bit flip, the (short) buffer length for a
    truncation, and 0 for a header-level mismatch such as a wrong pack
    width.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: Optional[str] = None,
        byte_offset: int = 0,
    ):
        where = shard if shard is not None else "unsharded payload"
        super().__init__(
            f"corrupt payload [{where}, byte offset {byte_offset}]: "
            f"{message}"
        )
        self.shard = shard
        self.byte_offset = byte_offset


class MappedCodeStore:
    """Lazily decoded view of a bit-packed code section on disk.

    The store memory-maps ``nbytes`` of packed ``bit_width``-bit Lehmer
    codes starting at ``offset`` in ``path`` (a payload section,
    page-aligned by the writer) and decodes them on demand in fixed-size
    blocks of ``block_elements`` codes each.

    Decoding has two stages and two entry points.  :meth:`codes_block`
    (and :meth:`iter_blocks` / :meth:`element` on top of it) is the first
    stage alone and caches nothing: one
    :func:`~repro.core.bitpack.unpack_ids` call on the block's slice of
    the map — read in place, no intermediate copy — plus a range check
    against ``k!``; the index's census, a RAM load and the load-time
    probe read codes once.  :meth:`positions_block` adds the Lehmer unrank
    (:func:`~repro.core.permutation.decode_positions`; :meth:`scan_blocks`
    skips it past the cache) and is what the index scans: rank positions of
    a range of blocks, one contiguous row per site, written into the
    caller's ``(k, width)`` tile.  The uncached blocks of the range are
    decoded a *run* at a time — one unpack, one range check and one
    unrank per maximal run of misses, not per block — because at 8192
    codes a block pays numpy's per-call overhead on every stage: on a
    2-vCPU x86-64 box at ``k = 12`` a miss costs ≈ 23 ns per code in
    ten-block runs against ≈ 40 one block at a time.

    The cache holds *position* blocks, up to ``cache_bytes`` of them
    (``k`` bytes per element through ``k = 256``), so a hit skips both
    stages.  It is retain-first: a decoded block is kept if it still fits
    the budget and nothing is ever evicted.  Every query chunk walks all
    blocks in order, which is the worst case for a recency order — once
    the section outgrows the budget an LRU evicts each block just before
    the scan comes back to it and scores no hits at all — whereas the
    retained prefix is hit on every scan, and the residency bound
    ``peak_cache_bytes <= cache_bytes`` holds by construction.  A block
    larger than the whole budget is decoded and served like any other
    miss, just never kept.  ``cache_misses`` counts decoded *blocks*
    whatever the runs, ``cache_hits`` blocks copied out of the cache.

    The store is the one reader of a packed code section: a RAM-backed
    load streams every code out through :meth:`iter_blocks` and closes
    it.  Corrupt pages surface as :class:`PayloadCorruptError` naming
    the shard and byte offset: a short section raises at construction,
    and a block whose codes decode outside ``[0, k!)`` raises on first
    touch — through either entry point, before anything of it is cached;
    the clean blocks of a run in front of it are decoded and retained
    first.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        offset: int,
        nbytes: int,
        bit_width: int,
        count: int,
        k: int,
        block_elements: int = 8192,
        cache_bytes: int = 1 << 24,
        shard: Optional[str] = None,
    ) -> None:
        if bit_width < 0:
            # 0 is a one-site section: ceil(lg 1!) = 0 bits, every code 0.
            raise ValueError("bit_width must be >= 0")
        if count < 0:
            raise ValueError("count must be >= 0")
        if block_elements < 8 or block_elements % 8:
            # Block boundaries must start on byte boundaries for every
            # bit width: start_elem * bit_width is divisible by 8 when
            # block_elements is a multiple of 8.
            raise ValueError("block_elements must be a positive multiple of 8")
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")
        self.path = os.fspath(path)
        self.offset = int(offset)
        self.bit_width = int(bit_width)
        self.count = int(count)
        self.k = int(k)
        self.block_elements = int(block_elements)
        self.cache_bytes = int(cache_bytes)
        self.shard = shard
        self._max_code = np.uint64(math.factorial(self.k)) if self.k <= 20 else None

        needed = (self.count * self.bit_width + 7) // 8
        file_size = os.stat(self.path).st_size
        available = max(0, min(int(nbytes), file_size - self.offset))
        if available < needed:
            raise PayloadCorruptError(
                f"packed code stream truncated (have {available} bytes, "
                f"need {needed})",
                shard=shard,
                byte_offset=available,
            )

        self._file = open(self.path, "rb")
        self._mmap = _mmap.mmap(self._file.fileno(), 0, access=_mmap.ACCESS_READ)
        self._packed: Optional[np.ndarray] = np.frombuffer(
            self._mmap, dtype=np.uint8, count=needed, offset=self.offset
        )
        self._blocks: Dict[int, np.ndarray] = {}
        self.current_cache_bytes = 0
        self.peak_cache_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._closed = False

    # -- geometry -----------------------------------------------------

    def __len__(self) -> int:
        return self.count

    @property
    def n_blocks(self) -> int:
        if self.count == 0:
            return 0
        return (self.count + self.block_elements - 1) // self.block_elements

    def block_range(self, block: int) -> Tuple[int, int]:
        """Element range ``[start, stop)`` covered by ``block``."""
        if block < 0 or block >= self.n_blocks:
            raise IndexError(f"block {block} out of range [0, {self.n_blocks})")
        start = block * self.block_elements
        return start, min(start + self.block_elements, self.count)

    def decoded_bytes_total(self) -> int:
        """Bytes the fully decoded section — every block's rank
        positions — would occupy: what ``cache_bytes`` is a share of."""
        return self.count * self.k * compact_position_dtype(self.k).itemsize

    # -- decoding -----------------------------------------------------

    def _unpacked(
        self, start: int, stop: int, workspace: Optional[dict] = None
    ) -> np.ndarray:
        """Unchecked uint64 codes of elements ``[start, stop)``; ``start``
        is a block boundary, hence a byte boundary.  With a ``workspace``
        they live in its reused buffer (see
        :func:`~repro.core.bitpack.unpack_ids`)."""
        if self._closed:
            raise ValueError("MappedCodeStore is closed")
        first_byte = start * self.bit_width // 8
        last_byte = (stop * self.bit_width + 7) // 8
        try:
            return unpack_ids(
                self._packed[first_byte:last_byte], self.bit_width,
                stop - start, workspace,
            )
        except ValueError as exc:  # pragma: no cover - guarded at __init__
            raise PayloadCorruptError(
                f"packed code stream truncated ({exc})",
                shard=self.shard,
                byte_offset=last_byte,
            ) from exc

    def _first_out_of_range(self, codes: np.ndarray) -> int:
        """Index of the first code outside ``[0, k!)``, else ``len(codes)``."""
        if self._max_code is None or codes.max() < self._max_code:
            return codes.shape[0]
        return int(np.argmax(codes >= self._max_code))

    def _corrupt(self, element: int) -> PayloadCorruptError:
        return PayloadCorruptError(
            f"element {element} decodes outside [0, {self.k}!)",
            shard=self.shard,
            byte_offset=element * self.bit_width // 8,
        )

    def codes_block(self, block: int) -> np.ndarray:
        """Decoded, range-checked uint64 codes of ``block`` (not cached)."""
        start, stop = self.block_range(block)
        codes = self._unpacked(start, stop)
        bad = self._first_out_of_range(codes)
        if bad < codes.shape[0]:
            raise self._corrupt(start + bad)
        return codes

    def positions_block(
        self,
        first: int,
        stop: Optional[int] = None,
        *,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Rank positions of blocks ``[first, stop)`` as ``(k, width)``.

        ``stop`` defaults to ``first + 1``.  Row ``s`` is site ``s``'s
        rank in each permutation of the range — a column range of the
        layout :func:`~repro.core.permutation.footrule_matrix_batch`
        scans.  ``out`` is filled in place and returned: a ``(k, width)``
        integer matrix whose rows are contiguous, such as the leading
        columns of a wider tile workspace.  Without it a fresh matrix in
        :func:`~repro.core.permutation.compact_position_dtype` is
        returned.

        Retained blocks are copied in, one hit each.  Each maximal run of
        the others is unpacked, range-checked and unranked by one call
        per stage, straight into ``out``; every block of the run counts
        one miss and is copied into the cache if it still fits.  A code
        outside ``[0, k!)`` raises :class:`PayloadCorruptError`, but only
        after the clean blocks in front of it are decoded, counted and
        retained; nothing of its own block is cached.
        """
        if stop is None:
            stop = first + 1
        if not 0 <= first < stop <= self.n_blocks:
            raise IndexError(
                f"blocks [{first}, {stop}) out of range [0, {self.n_blocks})"
            )
        start = first * self.block_elements
        shape = (self.k, self.block_range(stop - 1)[1] - start)
        if out is None:
            out = np.empty(shape, dtype=compact_position_dtype(self.k))
        elif out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")
        block = first
        while block < stop:
            cached = self._blocks.get(block)
            if cached is not None:
                self.cache_hits += 1
                lo, hi = self.block_range(block)
                out[:, lo - start : hi - start] = cached
                block += 1
                continue
            run = block + 1
            while run < stop and run not in self._blocks:
                run += 1
            lo = block * self.block_elements - start
            hi = self.block_range(run - 1)[1] - start
            self._decode_run(block, run, out[:, lo:hi])
            block = run
        return out

    def _missed_run(
        self, first: int, stop: int, workspace: Optional[dict] = None
    ) -> Tuple[np.ndarray, int]:
        """Codes of blocks ``[first, stop)`` and the index of the first
        outside ``[0, k!)`` (else ``len(codes)``); a miss per block read."""
        start = first * self.block_elements
        codes = self._unpacked(start, self.block_range(stop - 1)[1], workspace)
        bad = self._first_out_of_range(codes)
        self.cache_misses += min(stop - first, bad // self.block_elements + 1)
        return codes, bad

    def _decode_run(self, first: int, stop: int, out: np.ndarray) -> None:
        """Decode blocks ``[first, stop)`` into ``out``, exactly their
        columns, and retain each block that fits."""
        block_elements = self.block_elements
        codes, bad = self._missed_run(first, stop)
        clean = stop if bad == codes.shape[0] else first + bad // block_elements
        width = min(codes.shape[0], (clean - first) * block_elements)
        decode_positions(codes[:width], self.k, out=out[:, :width].T)
        for block in range(first, clean):
            lo = (block - first) * block_elements
            self._retain(block, out[:, lo : lo + block_elements])
        if bad < codes.shape[0]:
            raise self._corrupt(first * block_elements + bad)

    def scan_blocks(
        self, workspace: Optional[dict] = None
    ) -> Iterator[Tuple[int, int, Optional[np.ndarray], Optional[np.ndarray]]]:
        """Read every block once, unranking only what the cache holds.

        Yields ``(start, stop, positions, codes)`` per maximal run of
        blocks, in order, one of the two arrays set: the ``(k, width)``
        positions of a run the cache holds (retained blocks, and blocks
        that fit and are retained on this first touch), read through
        :meth:`positions_block`; else the run's range-checked uint64
        codes, not unranked.  Hits, misses, retention and
        :class:`PayloadCorruptError` offsets are :meth:`positions_block`'s.
        With a ``workspace`` the codes are unpacked into its reused buffers
        and valid until the next run is drawn.
        """
        self.advise("sequential")
        room = self.cache_bytes - self.current_cache_bytes
        row_bytes = self.k * compact_position_dtype(self.k).itemsize
        held = []
        for block in range(self.n_blocks):
            nbytes = (self.block_range(block)[1] - block * self.block_elements) * row_bytes
            fits = block not in self._blocks and nbytes <= room
            room -= nbytes * fits
            held.append(fits or block in self._blocks)
        for kept, run in itertools.groupby(range(self.n_blocks), held.__getitem__):
            blocks = list(run)
            first, end = blocks[0], blocks[-1] + 1
            start, stop = first * self.block_elements, self.block_range(end - 1)[1]
            if kept:
                yield start, stop, self.positions_block(first, end), None
                continue
            codes, bad = self._missed_run(first, end, workspace)
            if bad < codes.shape[0]:
                raise self._corrupt(start + bad)
            yield start, stop, None, codes

    def _retain(self, block: int, positions: np.ndarray) -> None:
        """Cache a read-only copy of ``positions`` if it fits the budget."""
        if self.current_cache_bytes + positions.nbytes > self.cache_bytes:
            return
        kept = positions.copy()
        kept.setflags(write=False)
        self._blocks[block] = kept
        self.current_cache_bytes += kept.nbytes
        self.peak_cache_bytes = max(
            self.peak_cache_bytes, self.current_cache_bytes
        )

    def iter_blocks(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, codes)`` for every block, in order."""
        self.advise("sequential")
        for block in range(self.n_blocks):
            start, stop = self.block_range(block)
            yield start, stop, self.codes_block(block)

    def element(self, index: int) -> int:
        """Single decoded code (unpacks and checks its block)."""
        if index < 0 or index >= self.count:
            raise IndexError(f"element {index} out of range [0, {self.count})")
        block, within = divmod(index, self.block_elements)
        return int(self.codes_block(block)[within])

    # -- OS hints and lifecycle ---------------------------------------

    def advise(self, mode: str) -> None:
        """Best-effort ``madvise`` hint for the packed section.

        ``mode`` is ``"sequential"``, ``"random"``, or ``"normal"``; on
        platforms without ``mmap.madvise`` this is a no-op.
        """
        names = {
            "sequential": "MADV_SEQUENTIAL",
            "random": "MADV_RANDOM",
            "normal": "MADV_NORMAL",
        }
        if mode not in names:
            raise ValueError(
                f"unknown advise mode {mode!r}; expected one of "
                f"{sorted(names)}"
            )
        advice = getattr(_mmap, names[mode], None)
        if advice is None or not hasattr(self._mmap, "madvise"):
            return
        page = _mmap.ALLOCATIONGRANULARITY
        start = (self.offset // page) * page
        if self._packed is None:
            return
        length = self.offset + len(self._packed) - start
        try:
            self._mmap.madvise(advice, start, length)
        except (OSError, ValueError):  # pragma: no cover - platform-specific
            pass

    def clear_cache(self) -> None:
        """Drop all retained blocks (keeps the mapping open)."""
        self._blocks.clear()
        self.current_cache_bytes = 0

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._blocks.clear()
        self.current_cache_bytes = 0
        self._packed = None
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        self._file.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass
