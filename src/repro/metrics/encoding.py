"""Batched kernels for discrete string metrics over pre-encoded collections.

The paper's headline workloads (dictionaries and gene sequences under edit
distance) evaluate the same strings against each other millions of times,
yet re-decoding a Python ``str`` per scalar call dominates the cost long
before the DP does.  This module encodes a string collection **once** into
a padded ``uint32`` code-point matrix plus a length vector
(:class:`EncodedStrings`), caches the encoding per collection, and
computes whole distance *matrices* from the encoded form:

- :func:`levenshtein_matrix` runs the Myers bit-parallel kernels of
  :mod:`repro.metrics.bitparallel` (O(m·⌈n/64⌉): the whole DP column
  lives in uint64 words, one numpy step per text character) whenever
  either side's alphabet admits a dense remap; a small cost model picks
  which side is the bit-packed pattern collection and which driver
  walks the texts.  Only when neither side fits does the Wagner–Fischer
  row DP (transposed ``(m + 1, batch)`` rows, sequential insertion pass)
  run.  An optional ``max_distance`` lets the Myers kernels skip
  out-of-range length bands and exit early for range queries.
- :func:`lcp_matrix` / :func:`prefix_distance_matrix` are fully
  vectorized broadcasts over the code matrices.

Padding never contaminates results: DP cell ``(i, j)`` depends only on
target positions ``< j``, so reading the answer at column ``length``
touches real characters only, and LCP runs are capped at the pairwise
minimum length (padding lives at positions ``>= length >= min length``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import bitparallel

__all__ = [
    "EncodedStrings",
    "encode_strings",
    "clear_encoding_cache",
    "levenshtein_matrix",
    "levenshtein_matrix_compact",
    "lcp_matrix",
    "prefix_distance_matrix",
]

#: Collections whose encodings are kept alive by the LRU cache.  Index
#: builds, censuses, and batched queries hit the same database (and site)
#: collections over and over; a handful of slots covers every workload
#: while bounding memory.
_CACHE_SIZE = 8

#: Upper bound on DP cells per target chunk (~3 int32 row buffers of this
#: many entries live at once, so the working set stays under ~50 MB).
_TARGET_DP_CELLS = 1 << 22

#: Upper bound on boolean broadcast elements per chunk in the LCP kernel.
_TARGET_BROADCAST_CELLS = 1 << 24

#: Myers cost-model constants in cell-equivalents (the throughput of one
#: int32 DP cell; calibrated against benchmark timings on the dictionary
#: and gene workloads): fixed numpy-call overhead per text column,
#: cell-equivalents per packed uint64 word per column, and the one-time
#: ``Peq`` build cost per pattern character — charged only while the
#: pattern side's layout is uncached, which steers small one-shot batches
#: (tree frontiers) away from pointless builds.
_MYERS_COL_OVERHEAD_CELLS = 1 << 13
_MYERS_WORD_CELLS = 4
_MYERS_BUILD_CELLS = 32

#: Extra per-text-character charge of the lock-step Myers driver, in the
#: same cell-equivalent currency: the per-column ``Peq`` gather, the
#: once-per-block popcount scoring and the un-permuting scatter (the text
#: layout itself is cached with the encoding).  Re-fitted against the
#: score-free driver by planner regret over dictionary and 25-symbol gene
#: shapes, 1..5000 texts x 1..100 sites, cached and fresh layouts: 2, 4
#: and 8 choose alike bar one shape (0.81 vs 0.90 ms total regret), 16
#: already sends close calls to the wrong orientation (1.7 ms) and 32
#: misplans every big batch (73 ms) — 8 stands.  Against the per-text
#: driver it never decides: the column overhead is three orders of
#: magnitude larger, so that crossing sits between one text and two.
_MYERS_LOCKSTEP_CHAR_CELLS = 8


class EncodedStrings:
    """A string collection encoded once for batched kernels.

    ``codes`` is the ``(n, max_length)`` matrix of unicode code points
    (``uint32``), rows zero-padded past each string's length; ``lengths``
    holds the true lengths.  Instances are immutable and reusable across
    every kernel call that touches the same collection.  ``myers`` lazily
    holds the collection's bit-parallel layout
    (:class:`repro.metrics.bitparallel.MyersPatterns`), ``text_columns``
    its lock-step text layout
    (:class:`repro.metrics.bitparallel.TextColumns`) and ``symbol_rows``
    its pair-driver layout (:class:`repro.metrics.bitparallel.SymbolRows`),
    so the expensive ``Peq`` tables and the narrow symbol matrices live
    exactly as long as the encoding does.
    """

    __slots__ = (
        "codes", "lengths", "total_chars", "myers", "text_columns",
        "symbol_rows",
    )

    def __init__(self, codes: np.ndarray, lengths: np.ndarray):
        self.codes = codes
        self.lengths = lengths
        self.total_chars = int(lengths.sum()) if lengths.size else 0
        self.myers = None
        self.text_columns = None
        self.symbol_rows = None

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "EncodedStrings":
        """Encode a collection in one pass (one join, one buffer decode).

        Non-``str`` members surface as :class:`TypeError` from ``len``
        or ``str.join`` — no upfront type scan, which costs as much as
        the join itself on a 10k-word collection.
        """
        n = len(strings)
        lengths = np.fromiter(map(len, strings), dtype=np.int64, count=n)
        total = int(lengths.sum()) if n else 0
        try:
            flat = np.frombuffer(
                "".join(strings).encode("utf-32-le"), dtype="<u4"
            ).astype(np.uint32, copy=False)
        except UnicodeEncodeError:
            # Lone surrogates cannot round-trip through UTF-32; fall back
            # to encoding code points directly.
            flat = np.fromiter(
                (ord(c) for s in strings for c in s),
                dtype=np.uint32,
                count=total,
            )
        max_length = int(lengths.max()) if n else 0
        codes = np.zeros((n, max_length), dtype=np.uint32)
        if total:
            mask = np.arange(max_length)[None, :] < lengths[:, None]
            codes[mask] = flat
        return cls(codes, lengths)

    @property
    def max_length(self) -> int:
        return self.codes.shape[1]

    def row(self, i: int) -> np.ndarray:
        """The code points of string ``i`` without padding."""
        return self.codes[i, : self.lengths[i]]

    def take(self, ids: np.ndarray) -> "EncodedStrings":
        """Strings ``ids`` as a new encoding: a row gather, no re-encode.

        ``codes[ids]`` trimmed to the longest gathered string and
        ``lengths[ids]`` — equal to :meth:`from_strings` of the gathered
        strings, duplicates and empty ``ids`` included.  The result is
        uncached: it never enters the encoding LRU.
        """
        ids = np.asarray(ids, dtype=np.intp)
        lengths = self.lengths[ids]
        width = int(lengths.max()) if lengths.size else 0
        return EncodedStrings(self.codes[ids, :width], lengths)

    def __len__(self) -> int:
        return self.lengths.shape[0]

    def __repr__(self) -> str:
        return (
            f"EncodedStrings(n={len(self)}, max_length={self.max_length})"
        )


#: ``(snapshot, encoding)`` pairs, least recently used first; a snapshot
#: is a list copy of the collection its encoding was made from.
_ENCODE_CACHE: List[Tuple[List[str], EncodedStrings]] = []


def encode_strings(strings: Sequence[str]) -> EncodedStrings:
    """Return the (cached) encoding of a string collection.

    Entries match by contents, with no key to build or hash: a length
    check, then ``snapshot == strings``, which short-circuits on identical
    items (≈ 0.25 ms on 200k words, where copying and hashing them costs
    4.4 ms).  A list mutated in place, even at equal length, differs from
    its snapshot and misses.  A miss snapshots the collection once.
    """
    items = strings if type(strings) is list else list(strings)
    try:
        slot = next((i for i, (snapshot, _) in enumerate(_ENCODE_CACHE)
                     if len(snapshot) == len(items) and snapshot == items), None)
    except ValueError as exc:  # array members compare elementwise
        raise TypeError("a string collection holds str only") from exc
    if slot is not None:
        _ENCODE_CACHE.append(_ENCODE_CACHE.pop(slot))
        return _ENCODE_CACHE[-1][1]
    snapshot = list(items) if items is strings else items
    encoded = EncodedStrings.from_strings(snapshot)
    _ENCODE_CACHE.append((snapshot, encoded))
    if len(_ENCODE_CACHE) > _CACHE_SIZE:
        del _ENCODE_CACHE[0]
    return encoded


def clear_encoding_cache() -> None:
    """Drop every cached encoding (for tests and memory-sensitive callers)."""
    _ENCODE_CACHE.clear()


def _levenshtein_one_vs_many(
    query: np.ndarray, codes_t: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Distances from one query to a batch of targets, fully vectorized.

    Operates on the *transposed* target chunk ``codes_t`` of shape
    ``(m, batch)``: DP rows are ``(m + 1, batch)`` and each query
    character advances every target's DP by one row.  The transposed
    layout makes the sequential insertion recurrence
    ``row[j] = min(row[j], row[j - 1] + 1)`` a short Python loop over
    ``m`` *contiguous* batch-wide minimums — several times faster than
    ``np.minimum.accumulate`` along rows of the untransposed layout.
    All buffers are allocated once and reused across the character loop.
    """
    m, batch = codes_t.shape
    if query.shape[0] == 0:
        return lengths
    previous = np.broadcast_to(
        np.arange(m + 1, dtype=np.int32)[:, None], (m + 1, batch)
    ).copy()
    current = np.empty_like(previous)
    cost = np.empty((m, batch), dtype=np.int32)
    bump = np.empty(batch, dtype=np.int32)
    for i, ca in enumerate(query, start=1):
        # substitution vs deletion, elementwise over the whole batch
        np.not_equal(codes_t, ca, out=cost)
        cost += previous[:-1]
        np.add(previous[1:], 1, out=current[1:])
        np.minimum(cost, current[1:], out=current[1:])
        current[0] = i
        # insertions: a sequential pass over the short axis, each step a
        # contiguous batch-wide minimum
        for j in range(1, m + 1):
            np.add(current[j - 1], 1, out=bump)
            np.minimum(current[j], bump, out=current[j])
        previous, current = current, previous
    return previous[lengths, np.arange(batch)]


def _myers_words_estimate(lengths: np.ndarray) -> float:
    """Estimate uint64 words per text column for a pattern side.

    Mirrors the packing rules of :mod:`repro.metrics.bitparallel` without
    building anything: short patterns share words (``64 // W`` per word),
    long ones take ``⌈m/64⌉`` blocks each.
    """
    if lengths.size == 0:
        return 1.0
    # One bincount pass over the collection, then O(max_length) math on
    # the histogram — the plan runs on every matrix call, so this must
    # not scan a 10k-length vector several times.
    hist = np.bincount(lengths.astype(np.int64, copy=False))[1:]
    m = np.arange(1, hist.shape[0] + 1)
    per = np.ceil(m / 64)
    packed = m <= bitparallel.PACKED_MAX_LEN
    per[packed] = 1.0 / (64 // np.maximum(m[packed] + 2, 8))
    return max(float(hist @ per), 1.0)


def _myers_cost_mode(
    texts: EncodedStrings, patterns: EncodedStrings, bounded: bool
) -> Tuple[float, str]:
    """Cost (cell-equivalents) and driver mode of one Myers orientation.

    The per-text driver pays the column overhead for every text
    character; the lock-step driver pays it only ``max_text_length``
    times (all texts share each column) plus a small per-character
    gather-and-score overhead, which is why it wins the
    few-sites-vs-many-points shape by an order of magnitude.  Lock-step
    has no bounded variant and needs a packed-only pattern layout — any
    text length will do — so it is only priced when applicable.
    """
    words = _myers_words_estimate(patterns.lengths)
    cost = texts.total_chars * (
        _MYERS_COL_OVERHEAD_CELLS + _MYERS_WORD_CELLS * words
    )
    mode = "per-text"
    if not bounded and patterns.max_length <= bitparallel.PACKED_MAX_LEN:
        lock = texts.max_length * _MYERS_COL_OVERHEAD_CELLS + (
            texts.total_chars
            * (_MYERS_WORD_CELLS * words + _MYERS_LOCKSTEP_CHAR_CELLS)
        )
        if lock < cost:
            cost, mode = lock, "lockstep"
    if patterns.myers is None:
        cost += _MYERS_BUILD_CELLS * max(patterns.total_chars, 1)
    return cost, mode


def _myers_plan(
    xs: EncodedStrings, ys: EncodedStrings, bounded: bool
) -> Optional[Tuple[str, str]]:
    """Choose the Myers orientation and driver for one matrix call.

    Returns ``(loop_side, mode)``: ``loop_side`` (``"x"`` or ``"y"``) is
    the text side, whose characters drive the loop; the other side is the
    bit-packed pattern collection whose ``Peq`` layout gets built and
    cached; ``mode`` is the driver :func:`_myers_cost_mode` priced.  The
    cheaper orientation wins unless its pattern side is ineligible;
    ``None`` when neither side is Myers-eligible.  ``bounded`` tells the
    model a ``max_distance`` pass is coming.
    """
    plans = [
        (*_myers_cost_mode(texts, patterns, bounded), side, patterns)
        for side, texts, patterns in (("x", xs, ys), ("y", ys, xs))
    ]
    for _, mode, side, patterns in sorted(plans, key=lambda plan: plan[0]):
        if bitparallel.myers_eligible(patterns):
            return side, mode
    return None


def _wf_matrix_into(
    xs: EncodedStrings, ys: EncodedStrings, out: np.ndarray
) -> None:
    """Wagner–Fischer fallback: fill ``out[i, j] = d(xs[i], ys[j])`` exactly.

    Runs only when neither side is Myers-eligible.  The side needing
    fewer insertion steps (its characters x the other side's width) is
    looped; the other is vectorized in length-sorted chunks, each trimmed
    to its own longest string and transposed once.
    """
    if xs.total_chars * ys.max_length > ys.total_chars * xs.max_length:
        xs, ys, out = ys, xs, out.T
    order = np.argsort(ys.lengths, kind="stable")
    chunk = max(1, _TARGET_DP_CELLS // (ys.max_length + 1))
    for start in range(0, len(ys), chunk):
        idx = order[start : start + chunk]
        lengths = ys.lengths[idx].astype(np.int32)
        # sorted: the chunk's last string is its longest
        codes_t = np.ascontiguousarray(ys.codes[idx, : lengths[-1]].T)
        for i in range(len(xs)):
            out[i, idx] = _levenshtein_one_vs_many(xs.row(i), codes_t, lengths)


def levenshtein_matrix_compact(
    xs: EncodedStrings,
    ys: EncodedStrings,
    max_distance: Optional[int] = None,
) -> np.ndarray:
    """:func:`levenshtein_matrix` in the kernel's own dtype and layout.

    Same values, same arguments; what differs is the container.  The
    lock-step Myers driver — every few-sites-vs-many-points call —
    produces its distances site-major in the narrowest unsigned dtype
    holding the longest string, and this function hands that matrix back
    as is (transposed as a view when the sites are ``ys``, i.e.
    column-major): one byte per distance for any dictionary, each site's
    distances one contiguous row.  Every other plan yields the C-ordered
    ``int64`` matrix.  For consumers that only compare or rank distances
    — or that convert once, to their own dtype.
    """
    if len(xs) == 0 or len(ys) == 0:
        return np.empty((len(xs), len(ys)), dtype=np.int64)
    plan = _myers_plan(xs, ys, bounded=max_distance is not None)
    if plan is None:
        out = np.empty((len(xs), len(ys)), dtype=np.int64)
        _wf_matrix_into(xs, ys, out)
        return out
    side, mode = plan
    patterns, texts = (ys, xs) if side == "x" else (xs, ys)
    if mode == "lockstep" and bitparallel.myers_lockstep_eligible(patterns):
        out = np.empty(
            (len(patterns), len(texts)),
            dtype=np.min_scalar_type(max(xs.max_length, ys.max_length)),
        )
        bitparallel.myers_matrix_lockstep_into(patterns, texts, out)
        return out.T if side == "x" else out
    out = np.empty((len(xs), len(ys)), dtype=np.int64)
    bitparallel.myers_matrix_into(
        patterns, texts, out.T if side == "x" else out, max_distance
    )
    return out


def levenshtein_matrix(
    xs: EncodedStrings,
    ys: EncodedStrings,
    max_distance: Optional[int] = None,
) -> np.ndarray:
    """The ``len(xs) x len(ys)`` Levenshtein matrix from encoded inputs.

    The Myers bit-parallel kernels run whenever either side is
    Myers-eligible (:func:`repro.metrics.bitparallel.myers_eligible`), in
    the cheaper orientation; the batched Wagner–Fischer row DP runs only
    when neither side is.  Both are exact and identical.

    With ``max_distance`` set, entries whose true distance exceeds it may
    be reported as any lower bound that also exceeds it (the Myers
    kernels' length-gap band skips and mid-DP early exits); entries at
    or under the bound are exact.

    Always a C-ordered ``int64`` matrix;
    :func:`levenshtein_matrix_compact` skips that widening.
    """
    return levenshtein_matrix_compact(
        xs, ys, max_distance=max_distance
    ).astype(np.int64, order="C", copy=False)


def lcp_matrix(xs: EncodedStrings, ys: EncodedStrings) -> np.ndarray:
    """Longest-common-prefix lengths for every pair, from encoded inputs.

    The leading run of equal code points is counted over the first
    ``min(max_length)`` columns and capped at the pairwise minimum length,
    which exactly neutralizes pad-vs-pad (and pad-vs-NUL) false matches:
    they can only occur at positions past one string's end.
    """
    out = np.empty((len(xs), len(ys)), dtype=np.int64)
    if len(xs) == 0 or len(ys) == 0:
        return out
    min_lengths = np.minimum(xs.lengths[:, None], ys.lengths[None, :])
    width = min(xs.max_length, ys.max_length)
    if width == 0:
        return np.zeros_like(out)
    chunk = max(1, _TARGET_BROADCAST_CELLS // (len(ys) * width))
    for start in range(0, len(xs), chunk):
        stop = min(start + chunk, len(xs))
        equal = xs.codes[start:stop, None, :width] == ys.codes[None, :, :width]
        run = np.logical_and.accumulate(equal, axis=2).sum(axis=2)
        out[start:stop] = run
    return np.minimum(out, min_lengths)


def prefix_distance_matrix(
    xs: EncodedStrings, ys: EncodedStrings
) -> np.ndarray:
    """The prefix-metric matrix ``len(a) + len(b) - 2 lcp(a, b)``."""
    return (
        xs.lengths[:, None] + ys.lengths[None, :] - 2 * lcp_matrix(xs, ys)
    )
