"""Myers bit-parallel Levenshtein kernels over :class:`EncodedStrings`.

The Wagner–Fischer DP performs O(m·n) cell work per string pair.
Myers' 1999 bit-vector algorithm packs an entire DP column into machine
words — each text character advances the whole column with a constant
number of word operations — for O(m·⌈n/64⌉) work.  This module
implements that algorithm as pure-numpy ``uint64`` array kernels,
vectorized across a whole *pattern collection* at once: the collection is
the bit-packed side, and the loop runs over the characters of the other
(text) side; the caller's cost model decides which side plays which.

Three packings cover the length spectrum:

- :class:`_PackedChunk` — patterns of length ≤ 30 are packed several per
  word in end-aligned slots of width ``W = max_len + 2``.  Two guard
  bits separate consecutive slots: the lower bit absorbs the adder carry
  escaping the slot below (its ``VP``/``Eq`` bits are always 0, so the
  carry dies without propagating), and the upper bit regenerates the
  ``+1`` horizontal boundary delta for the slot above (its ``Ph`` bit is
  recomputed to 1 every column).  One guard bit is *not* enough: a carry
  landing on it suppresses that column's boundary delta.  The per-text
  driver accumulates scores in matching packed ``W``-bit counters (two
  mask-shift-add ops per column).
- :class:`_Lanes` — the same patterns for the lock-step driver, which
  keeps no score at all and reads each distance off the final column's
  vertical deltas with two popcounts.  Without a counter to hold, each
  pattern takes a lane of its own width, ``len + 2`` bits (``len + 1``
  for a word's first lane, whose bit 0 never receives a carry), packed
  first-fit-decreasing: a dictionary's 12 sites take 2 words in two
  draws of three and 3 in the rest, where ``max_len + 2`` slots need 3
  or 4.
- :class:`_BlockedChunk` — longer patterns get ⌈m/64⌉ words each
  (Hyyrö's blocked variant), with the horizontal delta carried across
  word boundaries per column and the ``Eq |= hin_negative`` correction
  applied at every block.

Three *drivers* run the kernels.  :func:`myers_matrix_into` loops over
the texts one at a time — the right shape when the pattern collection is
the big side.  :func:`myers_matrix_lockstep_into` is its dual for the
repo's dominant call shape (a handful of sites against thousands of
points): every text advances together in ascending length order, column
``j`` updating only the suffix of texts longer than ``j``, so the numpy
call count scales with the *longest* text rather than total text
characters and the expensive per-collection build lands on the tiny site
side.  Its text side is a layout too (:class:`TextColumns`: length order,
a column-major matrix of narrow symbol ids, and the trie of the prefixes
many texts share), built once per collection, so a call does no sort, no
gather and no remap of the text matrix — it composes one
``len(text alphabet)``-row ``Peq`` table and gathers each column from it
with a contiguous byte row.  A DP column depends only on the prefix of
the text, so each shared prefix is stepped once, and every text starts
from the column of its longest shared prefix: about a third of a
dictionary's text columns are never stepped.
:func:`myers_pair_distances` scores the refine shape — each of a few
queries against its own few hundred candidates, no matrix at all — with
one ``uint64`` lane per ``(query, candidate)`` pair: the query is the
lane's pattern (≤ :data:`PAIR_MAX_PATTERN` characters), its candidate
the text, and all lanes run in lock step in descending text length
order.  Its text side (:class:`SymbolRows`, row-major narrow symbol ids)
is cached on the database encoding an index holds, so a refine gathers
candidate rows and builds nothing but a per-chunk ``Peq`` of the
queries.

The per-text layouts end-align each pattern at the top bit of its
slot/top word.  The dead low bits act as a phantom prefix of
never-matching characters whose column-0 vertical deltas are 0; such
phantom rows provably hold the value ``j`` in every column ``j``, so the
real pattern rows compute the true distance unchanged while the final
score sits at a *uniform* bit position — the key to vectorizing
mixed-length collections.

The per-collection state (dense alphabet remap, chunk layouts, packed
``Peq`` match tables, lock-step lanes; the lock-step text columns and
prefix levels; the pair driver's symbol rows) is built once and cached
on the :class:`EncodedStrings` instance itself, so it lives exactly as
long as the encoding does — the encoding-LRU entry, or the index holding
it — and repeated ``to_sites``/census/index calls over one dataset never
rebuild it.
Collections whose alphabet exceeds :data:`DENSE_ALPHABET_MAX` distinct
symbols report themselves ineligible: the caller makes the other side
the patterns, and falls back to the Wagner–Fischer kernel only when that
side is ineligible too.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = [
    "DENSE_ALPHABET_MAX",
    "PACKED_MAX_LEN",
    "PAIR_MAX_PATTERN",
    "MyersPatterns",
    "TextColumns",
    "SymbolRows",
    "myers_patterns",
    "text_columns",
    "symbol_rows",
    "myers_eligible",
    "myers_matrix_into",
    "myers_lockstep_eligible",
    "myers_matrix_lockstep_into",
    "myers_pair_distances",
    "build_count",
]

#: Dense alphabet remap threshold: collections with more distinct code
#: points than this (none of the paper's workloads come close) skip the
#: Myers path entirely rather than pay huge ``Peq`` tables.
DENSE_ALPHABET_MAX = 512

#: Upper bound on bytes across a collection's ``Peq`` tables; beyond it
#: the collection reports itself ineligible.
_PEQ_MAX_BYTES = 64 << 20

#: Patterns at most this long enter the packed kernel (slot width
#: ``max_len + 2`` ≤ 32 leaves at least two slots per word); longer ones
#: use the blocked kernel.
PACKED_MAX_LEN = 30

#: Columns between early-exit checks in the bounded kernels.
_PRUNE_EVERY = 16

#: Text rows per lock-step block: keeps the 8 live state buffers of
#: :func:`myers_matrix_lockstep_into` (2 words a row for 12 dictionary
#: sites) inside the L2 cache and lets blocks of short texts stop at their
#: own maximum length.  200k-word dictionary x 12 sites, median of 24
#: interleaved calls on 2 vCPUs: 2048 / 4096 / 8192 / 16384 rows -> 47 /
#: 37 / 36 / 39 ms.
_LOCKSTEP_BLOCK_TEXTS = 8192

#: A text collection shares DP columns across its prefixes of depth
#: ``1, 2, …`` up to the first depth with more than ``n / _PREFIX_SHARE``
#: distinct prefixes.  The 200k-word dictionary has 26 / 662 / 12 254 /
#: 89 640 prefixes of depth 1-4; same set-up as the block size: sharing
#: off / n/32 (depth 2) / n/8 (depth 3) / n/2 (depth 4) -> 42 / 36 / 34 /
#: 36 ms per call, and the levels add 6 ms to the cached layout's build.
_PREFIX_SHARE = 8

#: Upper bound on one shared-prefix level's bucket table
#: (``len(alphabet) ** depth`` presence flags): the levels stop before a
#: deeper one would need more.
_PREFIX_BUCKETS = 1 << 20

#: Longest pattern the pair driver (:func:`myers_pair_distances`) holds in
#: its one ``uint64`` lane per pair; callers route longer ones elsewhere.
PAIR_MAX_PATTERN = 63

#: Lanes per pair-driver block (:func:`_pair_lanes`): its 8 state
#: buffers of one word per lane stay in the L1/L2 cache.  Its own
#: constant, so retuning the lock-step block cannot move the served
#: refine.  8 / 32 queries x 250 candidates of a 50k-word dictionary, 2
#: vCPUs: 2048 / 4096 / 8192 lanes -> 1.25 / 1.23 / 1.14 ms and 3.58 /
#: 3.21 / 3.14 ms — flat within noise, so it stays at the 4096 the
#: ``serve_strings`` refine was measured with.
_PAIR_BLOCK_LANES = 4096

#: Upper bound on one pair-driver ``Peq`` table (patterns x alphabet
#: words); a bigger pattern set is split into groups of patterns.
_PAIR_PEQ_BYTES = 1 << 20

#: Upper bound on one lane block's ``(columns, lanes)`` ``Peq`` index
#: matrix: long texts get fewer lanes per block.
_PAIR_INDEX_BYTES = 1 << 20

#: Code points below this use a presence-bitmap alphabet + lookup-table
#: remap (O(chars), sort-free); exotic collections fall back to
#: ``np.unique`` + ``searchsorted``.
_LUT_MAX_CODE = 1 << 20

#: Fixed per-column overhead in word-equivalents (one numpy call costs
#: about this many uint64 element-ops); used by the chunk merger and by
#: the caller's kernel/orientation cost model.
COLUMN_OVERHEAD_WORDS = 1024

#: Number of numpy calls one text column costs (packed kernel); the
#: blocked kernel pays roughly this much per 64-bit block.
OPS_PER_COLUMN = 22

_U1 = np.uint64(1)
_U63 = np.uint64(63)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Total layout builds since import (cache-hit observability for tests).
_BUILD_COUNT = 0


def build_count() -> int:
    """How many :class:`MyersPatterns` layouts have ever been built."""
    return _BUILD_COUNT


_U32 = np.uint64(32)
_LO32 = np.uint64(0xFFFFFFFF)


def _scatter_or(flat_index: np.ndarray, bits: np.ndarray, size: int) -> np.ndarray:
    """OR-scatter ``bits`` into a zeroed uint64 array of ``size`` entries.

    Every call site ORs *disjoint* bits per destination (each pattern
    character owns one bit of one word; each slot's masks never overlap
    another slot's), so OR equals SUM and the scatter vectorizes as two
    exact float64 ``np.bincount`` passes over the 32-bit halves — orders
    of magnitude faster than ``np.bitwise_or.at``'s per-element C loop
    and sort-free, unlike a ``reduceat`` formulation.  Half-sums stay
    below ``2**32 * len(bits) < 2**53``, so the float64 accumulation is
    exact.
    """
    if flat_index.size == 0:
        return np.zeros(size, dtype=np.uint64)
    lo = np.bincount(
        flat_index, weights=(bits & _LO32).astype(np.float64), minlength=size
    )
    hi = np.bincount(
        flat_index, weights=(bits >> _U32).astype(np.float64), minlength=size
    )
    return (hi.astype(np.uint64) << _U32) | lo.astype(np.uint64)


def _code_point_alphabet(flat_codes: np.ndarray) -> np.ndarray:
    """Sorted distinct code points of a flat code array.

    A presence bitmap below :data:`_LUT_MAX_CODE` (O(chars), sort-free —
    every text alphabet), ``np.unique`` for exotic collections.
    """
    max_code = int(flat_codes.max()) if flat_codes.size else 0
    if max_code >= _LUT_MAX_CODE:
        return np.unique(flat_codes)
    present = np.zeros(max_code + 1, dtype=bool)
    present[flat_codes] = True
    return np.flatnonzero(present).astype(flat_codes.dtype)


class _PackedChunk:
    """Length-sorted patterns of length ≤ 30, packed ``P`` per word.

    Slot ``s`` of word ``w`` holds pattern ``s * n_words + w`` of the
    chunk (column-major), end-aligned at slot-local bit ``W - 1`` with
    two dead guard bits below the shortest possible pattern start.
    """

    kind = "packed"

    def __init__(
        self,
        rel_rows: np.ndarray,
        cols: np.ndarray,
        len_f: np.ndarray,
        syms: np.ndarray,
        lengths: np.ndarray,
        n_syms: int,
    ):
        # rel_rows / cols / len_f / syms are flat per-character arrays
        # (chunk-relative pattern index, position, pattern length, dense
        # symbol), row-major — pure arithmetic replaces per-row gathers.
        n = lengths.shape[0]
        m_max = int(lengths.max())
        W = max(m_max + 2, 8)
        P = 64 // W
        n_words = -(-n // P)
        self.n = n
        self.width = W
        self.per_word = P
        self.n_words = n_words
        self.capacity = (1 << W) - 1
        self.m_min = int(lengths.min())
        self.m_max = m_max
        lengths64 = lengths.astype(np.uint64)
        ranks = np.arange(n)
        word = ranks % n_words
        slot_base = ((ranks // n_words) * W).astype(np.uint64)
        width64 = np.uint64(W)
        seg = ((_U1 << lengths64) - _U1) << (width64 - lengths64)
        self.valid = _scatter_or(word, seg << slot_base, n_words)
        self.end_mask = _scatter_or(
            word, (_U1 << np.uint64(W - 1)) << slot_base, n_words
        )
        self.score_init = _scatter_or(word, lengths64 << slot_base, n_words)
        bit_index = (rel_rows // n_words) * W + W - len_f + cols
        bits = np.left_shift(_U1, bit_index.astype(np.uint64))
        flat = syms * n_words + rel_rows % n_words
        self.peq = _scatter_or(
            flat, bits, (n_syms + 1) * n_words
        ).reshape(n_syms + 1, n_words)
        self._scratch = [np.empty(n_words, dtype=np.uint64) for _ in range(8)]

    def peq_bytes(self) -> int:
        return self.peq.nbytes

    def _unpack_scores(self, score: np.ndarray, out: np.ndarray) -> None:
        """Split packed ``W``-bit score slots back into ``out`` (length n)."""
        W, n_words = self.width, self.n_words
        cap = np.uint64(self.capacity)
        for s in range(self.per_word):
            lo = s * n_words
            if lo >= self.n:
                break
            hi = min(lo + n_words, self.n)
            out[lo:hi] = (
                (score >> np.uint64(s * W)) & cap
            )[: hi - lo].astype(np.int64)

    def distances(
        self,
        tsyms: list,
        out: np.ndarray,
        max_distance: Optional[int] = None,
    ) -> None:
        """Distances from every pattern to one text, written into ``out``.

        With ``max_distance`` set, runs the bounded variant: every
        :data:`_PRUNE_EVERY` columns the certified lower bound
        ``score - columns_remaining`` is checked, and once every pattern
        is past the bound the loop exits reporting those lower bounds
        (all ``> max_distance``, so the range-query contract holds).
        """
        VP, VN, score, Xv, Xh, Ph, t, sc = self._scratch
        np.copyto(VP, self.valid)
        VN[:] = 0
        np.copyto(score, self.score_init)
        peq, end, valid = self.peq, self.end_mask, self.valid
        shift = np.uint64(self.width - 1)
        n_text = len(tsyms)
        bounded = max_distance is not None
        for j, c in enumerate(tsyms, start=1):
            Eq = peq[c]
            np.bitwise_or(Eq, VN, out=Xv)
            np.bitwise_and(Eq, VP, out=Xh)
            np.add(Xh, VP, out=Xh)
            np.bitwise_xor(Xh, VP, out=Xh)
            np.bitwise_or(Xh, Eq, out=Xh)
            np.bitwise_or(Xh, VP, out=Ph)
            np.invert(Ph, out=Ph)
            np.bitwise_or(Ph, VN, out=Ph)
            np.bitwise_and(VP, Xh, out=Xh)  # Xh now holds Mh
            np.bitwise_and(Ph, end, out=sc)
            np.right_shift(sc, shift, out=sc)
            np.add(score, sc, out=score)
            np.bitwise_and(Xh, end, out=sc)
            np.right_shift(sc, shift, out=sc)
            np.subtract(score, sc, out=score)
            np.left_shift(Ph, _U1, out=Ph)
            np.left_shift(Xh, _U1, out=Xh)
            np.bitwise_or(Xv, Ph, out=t)
            np.invert(t, out=t)
            np.bitwise_or(t, Xh, out=t)
            np.bitwise_and(Ph, Xv, out=VN)
            np.bitwise_and(t, valid, out=VP)
            if bounded and j < n_text and j % _PRUNE_EVERY == 0:
                self._unpack_scores(score, out)
                remaining = n_text - j
                if (out[: self.n] - remaining).min() > max_distance:
                    out[: self.n] -= remaining
                    return
        self._unpack_scores(score, out)


class _BlockedChunk:
    """One pattern per lane, ``B = ⌈max_len/64⌉`` uint64 blocks each."""

    kind = "blocked"

    def __init__(
        self,
        rel_rows: np.ndarray,
        cols: np.ndarray,
        len_f: np.ndarray,
        syms: np.ndarray,
        lengths: np.ndarray,
        n_syms: int,
    ):
        n = lengths.shape[0]
        m_max = int(lengths.max())
        B = -(-max(m_max, 1) // 64)
        self.n = n
        self.blocks = B
        self.m_min = int(lengths.min())
        self.m_max = m_max
        start = 64 * B - lengths  # global start bit, end-aligned at top
        valid = np.empty((B, n), dtype=np.uint64)
        for b in range(B):
            lo, hi = 64 * b, 64 * b + 64
            local = (np.clip(start, lo, hi) - lo).astype(np.uint64)
            valid[b] = np.where(start < hi, _FULL << local, np.uint64(0))
        self.valid = valid
        self.lengths = lengths.astype(np.int64)
        gbit = 64 * B - len_f + cols
        flat = (syms * B + (gbit >> 6)) * n + rel_rows
        self.peq = _scatter_or(
            flat, _U1 << (gbit & 63).astype(np.uint64), (n_syms + 1) * B * n
        ).reshape(n_syms + 1, B, n)
        self._scratch = [np.empty(n, dtype=np.uint64) for _ in range(7)]
        self._vp = np.empty((B, n), dtype=np.uint64)
        self._vn = np.empty((B, n), dtype=np.uint64)
        self._score = np.empty(n, dtype=np.int64)

    def peq_bytes(self) -> int:
        return self.peq.nbytes

    def distances(
        self,
        tsyms: list,
        out: np.ndarray,
        max_distance: Optional[int] = None,
    ) -> None:
        B = self.blocks
        VP, VN, score = self._vp, self._vn, self._score
        np.copyto(VP, self.valid)
        VN[:] = 0
        np.copyto(score, self.lengths)
        Xv, Xh, Ph, Mh, t, hp, hn = self._scratch
        peq = self.peq
        n_text = len(tsyms)
        bounded = max_distance is not None
        for j, c in enumerate(tsyms, start=1):
            Eq_all = peq[c]
            hp[:] = _U1  # row-0 horizontal delta is always +1
            hn[:] = 0
            for b in range(B):
                Eq = Eq_all[b]
                Pv = VP[b]
                Mv = VN[b]
                np.bitwise_or(Eq, Mv, out=Xv)
                np.bitwise_or(Eq, hn, out=Xh)  # Hyyrö's hin<0 correction
                np.bitwise_and(Xh, Pv, out=t)
                np.add(t, Pv, out=t)
                np.bitwise_xor(t, Pv, out=t)
                np.bitwise_or(Xh, t, out=Xh)
                np.bitwise_or(Xh, Pv, out=Ph)
                np.invert(Ph, out=Ph)
                np.bitwise_or(Ph, Mv, out=Ph)
                np.bitwise_and(Pv, Xh, out=Mh)
                np.left_shift(Ph, _U1, out=t)
                np.bitwise_or(t, hp, out=t)
                np.right_shift(Ph, _U63, out=hp)
                np.left_shift(Mh, _U1, out=Ph)  # Ph buffer -> shifted Mh
                np.bitwise_or(Ph, hn, out=Ph)
                np.right_shift(Mh, _U63, out=hn)
                np.bitwise_or(Xv, t, out=Mh)  # Mh buffer -> Xv | Ph2
                np.invert(Mh, out=Mh)
                np.bitwise_or(Mh, Ph, out=Mh)
                np.bitwise_and(Mh, self.valid[b], out=VP[b])
                np.bitwise_and(t, Xv, out=VN[b])
            score += hp.astype(np.int64)
            score -= hn.astype(np.int64)
            if bounded and j < n_text and j % _PRUNE_EVERY == 0:
                remaining = n_text - j
                if (score - remaining).min() > max_distance:
                    np.subtract(score, remaining, out=out[: self.n])
                    return
        np.copyto(out[: self.n], score)


class _Lanes:
    """The lock-step driver's packing: each pattern in a lane of its own width.

    The lock-step keeps no score counter, so a lane needs no room for
    one.  The non-empty patterns (all ≤ :data:`PACKED_MAX_LEN`) are
    packed first-fit-decreasing into ``n_words`` uint64 words, pattern
    character ``i`` at bit ``start + i``.  A word's first lane is
    ``len + 1`` bits: bit 0 never receives a carry, so a single guard
    bit below the pattern has ``VP = VN = Eq = 0`` and ``Ph = 1`` every
    column, and shifting it up injects the top-row ``+1``.  Every later
    lane takes ``len + 2`` bits: its lower guard bit absorbs the carry
    and the shifted deltas leaving the lane below, and its upper one
    regenerates the ``+1`` (the two guards of :class:`_PackedChunk`).

    ``grid`` holds the lane masks, one row per word and one column per
    lane slot (0 where a word has fewer lanes); ``cell[i]`` is the flat
    grid cell of the ``i``-th non-empty pattern of the layout's length
    order.  ``valid`` ORs the masks per word, and ``peq`` is the match
    table over the layout's dense symbols.
    """

    def __init__(self, layout: "MyersPatterns") -> None:
        rows, cols, _, syms = layout._flat
        lengths = layout.sorted_lengths[layout.n_empty :]
        n = lengths.shape[0]
        word = np.empty(n, dtype=np.intp)
        slot = np.empty(n, dtype=np.intp)
        start = np.empty(n, dtype=np.int64)
        free = np.empty(0, dtype=np.int64)  # unused top bits per word
        used = np.empty(0, dtype=np.intp)  # lanes per word
        # Widest first.  Among equal widths first-fit fills the open words
        # in order, then opens new ones, so each width is one vector step.
        edges = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), n]
        for lo, hi in reversed(list(zip(edges[:-1], edges[1:]))):
            m = int(lengths[lo])
            need = m + 2
            room = free // need
            fits = np.cumsum(room)
            placed = min(hi - lo, int(fits[-1]) if fits.size else 0)
            t = np.arange(placed)
            w = np.searchsorted(fits, t, side="right")
            k = t - fits[w] + room[w]  # lanes this width already put in w
            word[lo : lo + placed] = w
            slot[lo : lo + placed] = used[w] + k
            start[lo : lo + placed] = 66 - free[w] + k * need
            added = np.bincount(w, minlength=free.shape[0])
            free = free - need * added
            used = used + added
            rest = hi - lo - placed
            per_word = 1 + (63 - m) // need
            t = np.arange(rest)
            word[lo + placed : hi] = free.shape[0] + t // per_word
            slot[lo + placed : hi] = t % per_word
            start[lo + placed : hi] = 1 + (t % per_word) * need
            filled = np.minimum(per_word, rest - np.arange(0, rest, per_word))
            free = np.concatenate([free, 63 - m - (filled - 1) * need])
            used = np.concatenate([used, filled])
        self.n_words = free.shape[0]
        self.n_slots = int(used.max()) if n else 0
        self.cell = word * self.n_slots + slot
        ones = (_U1 << lengths.astype(np.uint64)) - _U1
        mask = ones << start.astype(np.uint64)
        self.grid = np.zeros((self.n_words, self.n_slots), dtype=np.uint64)
        self.grid[word, slot] = mask
        self.valid = _scatter_or(word, mask, self.n_words)
        lane = rows - layout.n_empty
        self.peq = _scatter_or(
            syms * self.n_words + word[lane],
            _U1 << (start[lane] + cols).astype(np.uint64),
            (layout.n_syms + 1) * self.n_words,
        ).reshape(layout.n_syms + 1, self.n_words)

    def read_scratch(self, rows: int, dtype) -> tuple:
        """Buffers for :meth:`read` of up to ``rows`` texts."""
        cells = (self.n_words, self.n_slots, rows)
        return (
            np.empty((self.n_words, rows), dtype=np.uint64),
            np.empty(cells, dtype=np.uint64),
            np.empty(cells, dtype=np.uint8),
            np.empty(cells, dtype=dtype),
        )

    def read(self, VP, VN, lengths, scratch) -> np.ndarray:
        """``(patterns, rows)`` distances of texts of ``lengths`` whose
        final DP columns are the rows of ``VP``/``VN``.

        The vertical deltas of a DP column sum to its bottom cell, so
        ``d = len(text) + popcount(VP & lane) - popcount(VN & lane)``, in
        ``lengths``' own unsigned dtype: the sum wraps mod ``2**bits`` on
        the way and lands exact because the distance itself fits.  The
        state is transposed first so that every op runs along the texts,
        over every cell of ``grid``; ``scratch`` comes from
        :meth:`read_scratch`.
        """
        r = lengths.shape[0]
        words, bits, count, cells = (buf[..., :r] for buf in scratch)

        def lane_popcounts(state):
            np.copyto(words, state.T)
            np.bitwise_and(words[:, None, :], self.grid[:, :, None], out=bits)
            return np.bitwise_count(bits, out=count)

        np.add(lengths, lane_popcounts(VP), out=cells)
        np.subtract(cells, lane_popcounts(VN), out=cells)
        return cells.reshape(-1, r)[self.cell]


def _lockstep_step(eq, vp, vn, valid, xv, xh, ph, t) -> None:
    """One Myers column on same-shape views, updating ``vp``/``vn`` in
    place; ``valid`` clears the guard bits between lanes."""
    np.bitwise_or(eq, vn, out=xv)
    np.bitwise_and(eq, vp, out=xh)
    np.add(xh, vp, out=xh)
    np.bitwise_xor(xh, vp, out=xh)
    np.bitwise_or(xh, eq, out=xh)
    np.bitwise_or(xh, vp, out=ph)
    np.invert(ph, out=ph)
    np.bitwise_or(ph, vn, out=ph)
    np.bitwise_and(vp, xh, out=xh)  # xh now holds Mh
    np.left_shift(ph, _U1, out=ph)
    np.left_shift(xh, _U1, out=xh)
    np.bitwise_or(xv, ph, out=t)
    np.invert(t, out=t)
    np.bitwise_or(t, xh, out=t)
    np.bitwise_and(ph, xv, out=vn)
    np.bitwise_and(t, valid, out=vp)


class MyersPatterns:
    """The cached bit-parallel state of one pattern collection.

    Holds the dense alphabet remap, the length-sorted order, and one
    packed or blocked chunk per merged length band.  ``eligible`` is
    False when the alphabet or ``Peq`` footprint exceeds the dense-remap
    budget; callers then make the other side the patterns, and use the
    Wagner–Fischer kernel only when that side is ineligible too.
    """

    def __init__(self, encoded) -> None:
        global _BUILD_COUNT
        _BUILD_COUNT += 1
        codes, lengths = encoded.codes, encoded.lengths
        n = lengths.shape[0]
        self.n = n
        self.order = np.argsort(lengths, kind="stable")
        sorted_lengths = lengths[self.order]
        self.sorted_lengths = sorted_lengths
        sorted_codes = codes[self.order] if codes.size else codes
        real_sorted = (
            np.arange(codes.shape[1])[None, :] < sorted_lengths[:, None]
        )
        # Flat row-major character stream of the sorted collection: the
        # whole build works on these 1-D arrays (pure arithmetic, no
        # per-row gathers or nonzero scans).
        flat_codes = (
            sorted_codes[real_sorted]
            if codes.size
            else np.empty(0, dtype=codes.dtype)
        )
        alphabet = _code_point_alphabet(flat_codes)
        max_code = int(alphabet[-1]) if alphabet.size else 0
        if max_code < _LUT_MAX_CODE:
            # Lookup-table remap with one sentinel zero entry past the
            # top code, so remapping is a branch-free clip + take: any
            # foreign code at or above the table clamps onto the
            # sentinel and maps to symbol 0.
            self._lut = np.zeros(max_code + 2, dtype=np.int32)
            self._lut[alphabet] = np.arange(
                1, alphabet.shape[0] + 1, dtype=np.int32
            )
        else:
            self._lut = None
        self.alphabet = alphabet
        self.n_syms = int(alphabet.shape[0])
        self.chunks: List[object] = []
        self.chunk_bounds: List[tuple] = []
        self.n_empty = int(np.searchsorted(sorted_lengths, 1))
        self.eligible = self.n_syms <= DENSE_ALPHABET_MAX
        self._flat = None
        self._char_starts = None
        self._lanes = None
        if not self.eligible or n == 0:
            return
        counts = sorted_lengths
        syms_f = (
            self._lut[flat_codes]
            if self._lut is not None
            else self.remap_codes(flat_codes)
        )
        rows = np.repeat(np.arange(n), counts)
        len_f = np.repeat(counts, counts)
        starts = np.cumsum(counts) - counts
        cols = np.arange(len_f.shape[0]) - np.repeat(starts, counts)
        self._flat = (rows, cols, len_f, syms_f)
        self._char_starts = np.concatenate([starts, [len_f.shape[0]]])
        bounds = self._chunk_bounds(sorted_lengths)
        peq_bytes = 0
        for lo, hi in bounds:
            a = int(self._char_starts[lo])
            b = int(self._char_starts[hi])
            chunk_lengths = sorted_lengths[lo:hi]
            width = int(chunk_lengths[-1])
            cls = _PackedChunk if width <= PACKED_MAX_LEN else _BlockedChunk
            chunk = cls(
                rows[a:b] - lo,
                cols[a:b],
                len_f[a:b],
                syms_f[a:b],
                chunk_lengths,
                self.n_syms,
            )
            peq_bytes += chunk.peq_bytes()
            if peq_bytes > _PEQ_MAX_BYTES:
                self.eligible = False
                self.chunks = []
                self.chunk_bounds = []
                return
            self.chunks.append(chunk)
            self.chunk_bounds.append((lo, hi))

    def _chunk_bounds(self, sorted_lengths: np.ndarray) -> List[tuple]:
        """Split the sorted non-empty patterns into cost-merged bands.

        Initial boundaries fall wherever the packing mode changes (slots
        per word for short patterns, block count for long ones); adjacent
        bands are then merged greedily whenever one wider band costs
        fewer word-ops per column than two narrow ones — each extra
        chunk pays :data:`COLUMN_OVERHEAD_WORDS` per column in fixed
        numpy-call overhead, which dominates small collections.
        """
        n = sorted_lengths.shape[0]
        if self.n_empty >= n:
            return []
        lengths = sorted_lengths[self.n_empty :]

        def words(count: int, m_max: int) -> int:
            if m_max <= PACKED_MAX_LEN:
                return -(-count // (64 // max(m_max + 2, 8)))
            return -(-m_max // 64) * count

        # Vectorized mode signature per pattern: positive = slots per
        # word (packed), negative = block count (blocked).
        packed = lengths <= PACKED_MAX_LEN
        mode_id = np.where(
            packed, 64 // np.maximum(lengths + 2, 8), (-lengths) // 64
        )
        boundaries = np.flatnonzero(np.diff(mode_id)) + 1
        edges = [0, *boundaries.tolist(), int(lengths.shape[0])]
        bands = [[edges[i], edges[i + 1]] for i in range(len(edges) - 1)]
        merged = True
        while merged and len(bands) > 1:
            merged = False
            best_gain, best_i = 0, -1
            for i in range(len(bands) - 1):
                (a_lo, a_hi), (b_lo, b_hi) = bands[i], bands[i + 1]
                cost_split = (
                    2 * COLUMN_OVERHEAD_WORDS
                    + words(a_hi - a_lo, int(lengths[a_hi - 1]))
                    + words(b_hi - b_lo, int(lengths[b_hi - 1]))
                )
                cost_merged = COLUMN_OVERHEAD_WORDS + words(
                    b_hi - a_lo, int(lengths[b_hi - 1])
                )
                gain = cost_split - cost_merged
                if gain > best_gain:
                    best_gain, best_i = gain, i
            if best_i >= 0:
                bands[best_i][1] = bands[best_i + 1][1]
                del bands[best_i + 1]
                merged = True
        return [
            (self.n_empty + lo, self.n_empty + hi) for lo, hi in bands
        ]

    def words_per_column(self) -> int:
        """Cost-model estimate: uint64 element-ops one text column costs."""
        total = 0
        for chunk in self.chunks:
            total += COLUMN_OVERHEAD_WORDS
            if chunk.kind == "packed":
                total += chunk.n_words
            else:
                total += chunk.blocks * chunk.n
        return max(total, 1)

    def lockstep_lanes(self) -> _Lanes:
        """The (cached) own-width lane packing the lock-step driver runs."""
        if self._lanes is None:
            self._lanes = _Lanes(self)
        return self._lanes

    def remap_codes(self, arr: np.ndarray) -> np.ndarray:
        """Map code points into dense symbols ``1..n_syms`` (0 = foreign).

        Characters absent from the pattern alphabet map to symbol 0,
        whose ``Peq`` row is all-zero (never a match) — exactly the DP
        semantics, so foreign text characters need no fallback.
        """
        if self._lut is not None and self.n_syms:
            sentinel = self._lut.shape[0] - 1
            return self._lut.take(np.minimum(arr, sentinel))
        return _dense_symbols(self.alphabet, arr)

    def remap_text(self, text_codes: np.ndarray) -> np.ndarray:
        """Map one text's code points into the dense pattern alphabet."""
        return self.remap_codes(text_codes)


def _symbol_ids(codes: np.ndarray):
    """``(alphabet, ids)``: a code matrix's own sorted distinct code points
    and the matrix of their indices, in the narrowest unsigned dtype.

    Padding cells index code point 0, which therefore may sit in
    ``alphabet`` without occurring in any string; the drivers never read
    a cell past its string's length.
    """
    alphabet = _code_point_alphabet(codes.reshape(-1))
    n_syms = alphabet.shape[0]
    dtype = np.min_scalar_type(max(n_syms - 1, 0))
    if n_syms and int(alphabet[-1]) < _LUT_MAX_CODE:
        lut = np.zeros(int(alphabet[-1]) + 1, dtype=dtype)
        lut[alphabet] = np.arange(n_syms, dtype=dtype)
        return alphabet, lut[codes]
    return alphabet, np.searchsorted(alphabet, codes).astype(dtype)


def _dense_symbols(alphabet: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Ranks ``1..len(alphabet)`` of ``arr``'s code points in the sorted
    ``alphabet``; 0 for a code point outside it (the never-matching
    ``Peq`` row)."""
    if alphabet.shape[0] == 0:
        return np.zeros(arr.shape, dtype=np.int64)
    idx = np.searchsorted(alphabet, arr)
    idx[idx == alphabet.shape[0]] = 0
    hit = alphabet[idx] == arr
    return np.where(hit, idx + 1, 0).astype(np.int64)


class TextColumns:
    """The cached text-side layout of the lock-step driver.

    ``rank[i]`` is text ``i``'s position in ascending length order,
    ``lengths`` are the lengths in that order, ``alphabet`` the
    collection's own sorted distinct code points, and ``symbols`` the
    ``(max_length, n)`` C-contiguous matrix of alphabet indices in the
    narrowest unsigned dtype (:func:`_symbol_ids`): row ``j`` is
    character ``j`` of every text in length order — the contiguous row a
    lock-step column gathers ``Peq`` with.  Column ``j`` only touches
    texts longer than ``j``, so padding cells are never read.

    A DP column depends only on the prefix of the text, so the layout
    also records the distinct prefixes of depth ``1 .. depth`` as a trie
    the driver steps once per node.  Node 0 is the empty prefix; the
    nodes of depth ``d`` are ``levels[d]:levels[d + 1]``, each with its
    ``parent`` node and ``last`` symbol.  ``node[t]`` is text ``t``'s
    node at depth ``min(lengths[t], depth)``: where a short text is
    scored, and where a longer one starts its columns.  Levels are found
    by bucket presence over ``len(alphabet) ** d`` prefix keys (no sort)
    and stop at the first depth with more than ``n / _PREFIX_SHARE``
    nodes, or whose table would pass :data:`_PREFIX_BUCKETS`.
    """

    def __init__(self, encoded) -> None:
        lengths = encoded.lengths
        # Radix-sorting a narrow key is ~8x faster than int64 for the
        # short strings every workload has.
        key = (
            lengths.astype(np.int16)
            if encoded.max_length < (1 << 15)
            else lengths
        )
        order = np.argsort(key, kind="stable")
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(order.shape[0])
        self.lengths = lengths[order]
        self.alphabet, ids = _symbol_ids(encoded.codes)
        self.symbols = np.ascontiguousarray(ids[order].T)
        del ids, order  # freed before the prefix levels are built
        self._share_prefixes()

    def _share_prefixes(self) -> None:
        n = self.lengths.shape[0]
        base = max(self.alphabet.shape[0], 1)
        levels = [0, 1]
        parents = [np.zeros(1, dtype=np.int32)]
        lasts = [np.zeros(1, dtype=self.symbols.dtype)]
        self.node = np.zeros(n, dtype=np.int32)
        key_node = np.zeros(1, dtype=np.int32)  # of each depth-(d-1) key
        keys = np.zeros(n, dtype=np.intp)
        first, buckets = 0, 1
        for d in range(1, self.symbols.shape[0] + 1):
            buckets *= base
            if buckets > _PREFIX_BUCKETS:
                break
            # Texts reaching depth d are a suffix of the length order.
            top = int(np.searchsorted(self.lengths, d))
            keys = keys[top - first :] * base + self.symbols[d - 1, top:]
            first = top
            present = np.zeros(buckets, dtype=bool)
            present[keys] = True
            if np.count_nonzero(present) * _PREFIX_SHARE > n:
                break
            ids = np.flatnonzero(present)
            parents.append(key_node[ids // base])
            lasts.append((ids % base).astype(self.symbols.dtype))
            key_node = np.zeros(buckets, dtype=np.int32)
            key_node[ids] = np.arange(
                levels[-1], levels[-1] + ids.shape[0], dtype=np.int32
            )
            self.node[top:] = key_node[keys]
            levels.append(levels[-1] + ids.shape[0])
        self.depth = len(levels) - 2
        self.levels = levels
        self.parent = np.concatenate(parents)
        self.last = np.concatenate(lasts)


class SymbolRows:
    """The cached text-side layout of the pair driver.

    ``alphabet`` is the collection's own sorted distinct code points and
    ``symbols`` the ``(n, max_length)`` row-major matrix of their indices
    in the narrowest unsigned dtype (:func:`_symbol_ids`; one byte per
    character for any dictionary), so a refine's candidates — random
    rows of a database — are one row gather of a few bytes each, with no
    re-encode and no remap of code points.
    """

    def __init__(self, encoded) -> None:
        self.lengths = encoded.lengths
        self.alphabet, self.symbols = _symbol_ids(encoded.codes)


def symbol_rows(encoded) -> SymbolRows:
    """The (cached) pair-driver text layout of an encoded collection.

    Attached to the :class:`EncodedStrings` instance beside ``myers`` and
    ``text_columns``: built on the first pair call that reads candidates
    from the collection, kept as long as whoever holds the encoding.
    """
    layout = encoded.symbol_rows
    if layout is None:
        layout = encoded.symbol_rows = SymbolRows(encoded)
    return layout


def text_columns(encoded) -> TextColumns:
    """The (cached) lock-step text layout of an encoded collection.

    Attached to the :class:`EncodedStrings` instance beside ``myers``:
    built on the first lock-step call that has the collection on its
    text side, dropped with the encoding-LRU entry.
    """
    layout = encoded.text_columns
    if layout is None:
        layout = encoded.text_columns = TextColumns(encoded)
    return layout


def myers_patterns(encoded) -> MyersPatterns:
    """The (cached) bit-parallel layout of an encoded collection.

    The layout is attached to the :class:`EncodedStrings` instance, so it
    shares the encoding cache's LRU lifetime: as long as the encoding is
    alive, every ``to_sites``/census/index call reuses one build.
    """
    layout = encoded.myers
    if layout is None:
        layout = MyersPatterns(encoded)
        encoded.myers = layout
    return layout


def myers_eligible(encoded) -> bool:
    """Whether the collection qualifies for the bit-parallel kernels."""
    return myers_patterns(encoded).eligible


def myers_matrix_into(
    patterns_encoded,
    texts_encoded,
    out: np.ndarray,
    max_distance: Optional[int] = None,
) -> None:
    """Fill ``out[i, j] = d(patterns[i], texts[j])`` with the Myers kernels.

    Loops over the texts (and their characters); the pattern collection
    is fully bit-parallel.  With ``max_distance``, per-text chunk skips
    apply first — a chunk whose entire length band differs from the text
    length by more than the bound reports the length gap, a certified
    lower bound — and the in-loop early exit handles the rest.
    """
    layout = myers_patterns(patterns_encoded)
    if not layout.eligible:
        raise ValueError("pattern collection is not Myers-eligible")
    order = layout.order
    empties = order[: layout.n_empty]
    text_lengths = texts_encoded.lengths
    scratch = np.empty(layout.n, dtype=np.int64)
    for j in range(len(texts_encoded)):
        n_text = int(text_lengths[j])
        if layout.n_empty:
            out[empties, j] = n_text
        tsyms = None
        for chunk, (lo, hi) in zip(layout.chunks, layout.chunk_bounds):
            rows = order[lo:hi]
            if n_text == 0:
                out[rows, j] = patterns_encoded.lengths[rows]
                continue
            if max_distance is not None:
                gap_min = max(chunk.m_min - n_text, n_text - chunk.m_max)
                if gap_min > max_distance:
                    # The whole band is out of range: the length gap is
                    # a valid lower bound and already exceeds the bound.
                    out[rows, j] = np.abs(
                        patterns_encoded.lengths[rows] - n_text
                    )
                    continue
            if tsyms is None:
                tsyms = layout.remap_text(
                    texts_encoded.codes[j, :n_text]
                ).tolist()
            if chunk.kind == "packed" and n_text > chunk.capacity:
                # Text too long for the packed score counters (score can
                # reach the text length); rerun this band through a
                # throwaway blocked chunk, which has no such limit.
                chunk = _blocked_for_band(layout, lo, hi)
            chunk.distances(tsyms, scratch, max_distance)
            out[rows, j] = scratch[: hi - lo]


def myers_lockstep_eligible(patterns_encoded) -> bool:
    """Whether the text-lock-step driver applies to this pattern side.

    Requires a Myers-eligible, all-packed pattern layout; the texts may
    be anything (distances come from popcounts of the final column, so no
    packed counter has to hold a text length).
    """
    layout = myers_patterns(patterns_encoded)
    return layout.eligible and all(
        chunk.kind == "packed" for chunk in layout.chunks
    )


def myers_matrix_lockstep_into(
    patterns_encoded, texts_encoded, out: np.ndarray
) -> None:
    """Fill ``out[i, j] = d(patterns[i], texts[j])``, lock-stepping texts.

    The dual of :func:`myers_matrix_into` for the repo's dominant call
    shape — a handful of packed patterns (sites) against a large text
    batch (points).  The patterns sit in lanes of their own width
    (:class:`_Lanes`, cached with their layout).  The text side's own
    layout (:func:`text_columns`) is cached with its encoding: first
    every shared prefix node advances once, level by level, and texts
    that end inside the shared depth are scored from their node.  Then
    the longer texts advance together in ascending length order, each
    block starting from its nodes' states with one gather and running on
    with a shrinking active suffix, so numpy-call overhead scales with
    the longest text.  Per call only a ``len(text alphabet)``-row match
    table is composed.  Distances are produced pattern-major in the
    narrowest unsigned dtype holding the longest string and gathered
    back into the caller's text order once per pattern row; ``out`` may
    be any integer array (or view) wide enough for that.  Unbounded only;
    callers gate on :func:`myers_lockstep_eligible`.
    """
    layout = myers_patterns(patterns_encoded)
    if not layout.eligible:
        raise ValueError("pattern collection is not Myers-eligible")
    order = layout.order
    if layout.n_empty:
        out[order[: layout.n_empty]] = texts_encoded.lengths
    n_texts = len(texts_encoded)
    if n_texts == 0 or not layout.chunks:
        return
    lanes = layout.lockstep_lanes()
    texts = text_columns(texts_encoded)
    peq = lanes.peq[layout.remap_codes(texts.alphabet)]
    dtype = np.min_scalar_type(
        max(patterns_encoded.max_length, texts_encoded.max_length)
    )
    nw = lanes.n_words
    blk = min(_LOCKSTEP_BLOCK_TEXTS, n_texts)
    # One scratch pool reused by every level and block: fresh buffers
    # would spend more cold time page-faulting than computing.
    # ``valid`` is materialized: broadcasting a (words,) row against the
    # state costs several times a same-shape op at these sizes.
    VP, VN, Eq, Xv, Xh, Ph, T, valid = np.empty((8, blk, nw), dtype=np.uint64)
    np.copyto(valid, lanes.valid)
    read_scratch = lanes.read_scratch(blk, dtype)
    # Shared prefixes: every node advances once from its parent's column.
    levels = texts.levels
    node_vp = np.empty((levels[-1], nw), dtype=np.uint64)
    node_vn = np.zeros_like(node_vp)
    node_vp[0] = lanes.valid
    for d in range(1, texts.depth + 1):
        for a in range(levels[d], levels[d + 1], blk):
            b = min(a + blk, levels[d + 1])
            r = b - a
            # mode="clip" skips take's bounce buffer; ids are in range by
            # construction.
            np.take(node_vp, texts.parent[a:b], axis=0, out=VP[:r], mode="clip")
            np.take(node_vn, texts.parent[a:b], axis=0, out=VN[:r], mode="clip")
            np.take(peq, texts.last[a:b], axis=0, out=Eq[:r], mode="clip")
            _lockstep_step(
                Eq[:r], VP[:r], VN[:r], valid[:r],
                Xv[:r], Xh[:r], Ph[:r], T[:r],
            )
            node_vp[a:b] = VP[:r]
            node_vn[a:b] = VN[:r]
    # Every text starts from its node: a text ending inside the shared
    # depth is already done, a longer one runs on from column ``depth``.
    lengths = texts.lengths.astype(dtype)
    sorted_out = np.empty((lanes.cell.shape[0], n_texts), dtype=dtype)
    for start in range(0, n_texts, blk):
        stop = min(start + blk, n_texts)
        r = stop - start
        nodes = texts.node[start:stop]
        np.take(node_vp, nodes, axis=0, out=VP[:r], mode="clip")
        np.take(node_vn, nodes, axis=0, out=VN[:r], mode="clip")
        tlen = texts.lengths[start:stop]
        first_active = np.searchsorted(
            tlen, np.arange(texts.depth + 1, int(tlen[-1]) + 1)
        )
        for j, s in enumerate(first_active.tolist(), start=texts.depth):
            np.take(
                peq, texts.symbols[j, start + s : stop], axis=0,
                out=Eq[s:r], mode="clip",
            )
            _lockstep_step(
                Eq[s:r], VP[s:r], VN[s:r], valid[s:r],
                Xv[s:r], Xh[s:r], Ph[s:r], T[s:r],
            )
        sorted_out[:, start:stop] = lanes.read(
            VP[:r], VN[:r], lengths[start:stop], read_scratch
        )
    for row, distances in zip(order[layout.n_empty :], sorted_out):
        out[row] = distances.take(texts.rank)


def _pair_peq(patterns_encoded, a: int, b: int, alphabet: np.ndarray):
    """Flat ``Peq`` of patterns ``a..b``: row ``p``, symbol ``s`` at
    ``p * (len(alphabet) + 1) + s``, pattern character ``i`` at bit ``i``."""
    lengths = patterns_encoded.lengths[a:b]
    codes = patterns_encoded.codes[a:b]
    real = np.arange(codes.shape[1])[None, :] < lengths[:, None]
    starts = np.cumsum(lengths) - lengths
    cols = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
    width = alphabet.shape[0] + 1
    flat = np.repeat(np.arange(b - a) * width, lengths)
    flat += _dense_symbols(alphabet, codes[real])
    return _scatter_or(flat, _U1 << cols.astype(np.uint64), (b - a) * width)


def myers_pair_distances(
    patterns_encoded, texts_encoded, text_ids: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Distances of query-grouped ``(pattern, text)`` pairs, one lane each.

    Pattern ``p``'s texts are ``text_ids[offsets[p]:offsets[p + 1]]``;
    entry ``i`` of the ``int64`` result is the distance of pair ``i``.
    The refine shape — a handful of queries, each against its own few
    hundred candidates — fits neither matrix driver: every pair gets one
    ``uint64`` lane holding its pattern (at most :data:`PAIR_MAX_PATTERN`
    characters, character ``i`` at bit ``i``), and all lanes advance in
    lock step over their own texts' characters.  Lanes run in descending
    text length order, so column ``j`` touches the contiguous prefix of
    lanes longer than ``j``; each column is one ``take`` from the flat
    ``Peq`` of the patterns (one row per pattern over their joint
    alphabet) at ``lane_pattern * (S + 1) + symbol`` and the ~16-op
    Myers step, with the ``+1`` top-row delta shifted in from bit 0.
    Bits above a pattern's top row compute junk that only ever moves
    upwards, so no mask is applied until the distance is read off the
    last column, as the lock-step driver does it:
    ``len(text) + popcount(VP & mask) - popcount(VN & mask)`` (an empty
    pattern gives ``len(text)``, an empty text the pattern length).

    Texts come from the collection's cached :class:`SymbolRows`: a block
    of lanes gathers its candidates' rows of narrow symbol ids and maps
    them through one small table (text alphabet → pattern symbols,
    foreign symbols to the never-matching 0).  No text is re-encoded, no
    layout is built for either side, and nothing enters the encoding
    cache.
    """
    text_ids = np.asarray(text_ids, dtype=np.intp)
    offsets = np.asarray(offsets, dtype=np.int64)
    out = np.empty(text_ids.shape[0], dtype=np.int64)
    if out.shape[0] == 0:
        return out
    lengths = patterns_encoded.lengths
    if int(lengths.max()) > PAIR_MAX_PATTERN:
        raise ValueError(
            f"pair driver patterns hold at most {PAIR_MAX_PATTERN} characters"
        )
    texts = symbol_rows(texts_encoded)
    real = np.arange(patterns_encoded.max_length)[None, :] < lengths[:, None]
    alphabet = _code_point_alphabet(patterns_encoded.codes[real])
    width = alphabet.shape[0] + 1
    table = _dense_symbols(alphabet, texts.alphabet).astype(np.intp)
    masks = (_U1 << lengths.astype(np.uint64)) - _U1
    # Patterns per Peq table: bounded so a huge alphabet times a huge
    # query chunk cannot blow up the table.
    group = max(1, _PAIR_PEQ_BYTES // (8 * width))
    for a in range(0, lengths.shape[0], group):
        b = min(a + group, lengths.shape[0])
        lo, hi = int(offsets[a]), int(offsets[b])
        if lo < hi:
            _pair_lanes(
                _pair_peq(patterns_encoded, a, b, alphabet),
                width,
                table,
                texts,
                text_ids[lo:hi],
                np.repeat(np.arange(b - a), np.diff(offsets[a : b + 1])),
                masks[a:b],
                out[lo:hi],
            )
    return out


def _pair_lanes(
    peq: np.ndarray,
    width: int,
    table: np.ndarray,
    texts: SymbolRows,
    text_ids: np.ndarray,
    lane_pattern: np.ndarray,
    masks: np.ndarray,
    out: np.ndarray,
) -> None:
    """Run the pair lanes of one ``Peq`` table, in blocks of lanes sorted
    by descending text length."""
    text_lengths = texts.lengths[text_ids]
    longest = int(text_lengths.max())
    # A narrow radix key, ascending = longest text first.
    key = (longest - text_lengths).astype(np.min_scalar_type(longest))
    order = np.argsort(key, kind="stable")
    n = order.shape[0]
    blk = min(_PAIR_BLOCK_LANES, n)
    VP, VN, Eq, Xv, Xh, Ph, T, Mask = np.empty((8, blk), dtype=np.uint64)
    start = 0
    while start < n:
        columns = int(text_lengths[order[start]])
        # Bound the block's (columns, lanes) index matrix too, for long
        # texts.
        size = min(blk, max(64, _PAIR_INDEX_BYTES // (8 * max(columns, 1))))
        lanes = order[start : start + size]
        start += lanes.shape[0]
        nb = lanes.shape[0]
        tlen = text_lengths[lanes]
        patterns = lane_pattern[lanes]
        m, vp, vn = Mask[:nb], VP[:nb], VN[:nb]
        np.take(masks, patterns, out=m)
        np.copyto(vp, m)
        vn[:] = 0
        if columns:
            idx = table.take(texts.symbols[text_ids[lanes], :columns].T)
            idx += patterns * width
            # active[j] = lanes longer than j, a prefix: tlen descends.
            active = np.searchsorted(-tlen, -np.arange(columns), "left")
            for j in range(columns):
                a = active[j]
                eq, xv, xh, ph, tt = Eq[:a], Xv[:a], Xh[:a], Ph[:a], T[:a]
                v, w = VP[:a], VN[:a]
                # mode="clip" skips take's bounce buffer; ids are in
                # range by construction.
                np.take(peq, idx[j, :a], out=eq, mode="clip")
                np.bitwise_or(eq, w, out=xv)
                np.bitwise_and(eq, v, out=xh)
                np.add(xh, v, out=xh)
                np.bitwise_xor(xh, v, out=xh)
                np.bitwise_or(xh, eq, out=xh)
                np.bitwise_or(xh, v, out=ph)
                np.invert(ph, out=ph)
                np.bitwise_or(ph, w, out=ph)
                np.bitwise_and(v, xh, out=xh)  # xh now holds Mh
                np.left_shift(ph, _U1, out=ph)
                np.bitwise_or(ph, _U1, out=ph)  # top-row delta +1
                np.left_shift(xh, _U1, out=xh)
                np.bitwise_or(xv, ph, out=tt)
                np.invert(tt, out=tt)
                np.bitwise_or(tt, xh, out=v)
                np.bitwise_and(ph, xv, out=w)
        np.bitwise_and(vp, m, out=vp)
        np.bitwise_and(vn, m, out=vn)
        d = tlen + np.bitwise_count(vp)
        d -= np.bitwise_count(vn)
        out[lanes] = d


def _blocked_for_band(layout, lo, hi) -> _BlockedChunk:
    """Rare path: a fresh blocked chunk for one packed length band."""
    rows, cols, len_f, syms_f = layout._flat
    a = int(layout._char_starts[lo])
    b = int(layout._char_starts[hi])
    return _BlockedChunk(
        rows[a:b] - lo,
        cols[a:b],
        len_f[a:b],
        syms_f[a:b],
        layout.sorted_lengths[lo:hi],
        layout.n_syms,
    )
