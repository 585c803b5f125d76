"""Distance permutations: definition, batch computation, codecs.

Given sites ``x_1 .. x_k``, the distance permutation ``Π_y`` of a point
``y`` is the unique permutation sorting the site indices into order of
increasing distance from ``y``, breaking ties by lower site index (the
paper's Section 1 definition).  We represent ``Π_y`` 0-based: ``perm[r]``
is the index of the ``(r+1)``-th closest site.

Among equal distances the lower site index comes first.  This matters
for discrete metrics such as edit distance where ties are pervasive.
Bulk routes apply the rule with the pair-compare kernel
(:func:`ranks_from_distances`, :func:`prefix_codes_from_distances`): one
whole-column ``d[s] <= d[m]`` per site pair ``s < m`` — ``<=`` against
the lower-indexed site *is* the tie-break.  :func:`site_ranks` feeds it
the metric's row blocks for the index build, ``add_points``, the census
and every distinct-permutation count.  Callers holding a distance
matrix (queries, the pivot table, the constructions) take
:func:`ranked_permutations`, a stable argsort.  A NaN distance raises
``ValueError`` on every route; only the reference
:func:`permutations_from_distances` (with
:func:`count_distinct_permutations`) ranks it last.

The codec half of this module packs permutations into integer *codes*:
:func:`encode_permutations` / :func:`decode_permutations` are batch
Lehmer rank/unrank kernels (one ``uint64`` per permutation for
``k <= MAX_CODE_SITES``, since ``20! < 2**64``; exact arbitrary-precision
Python ints in an object array beyond that), and
:func:`prefix_codes_from_distances` derives an injective code for the
distance permutation of *every* site prefix at once, straight from the
distance columns (:func:`prefix_permutation_codes` is the same kernel
fed with a permutation's ranks).  Codes are what the census, the sharded
drivers, and the serialized index payloads operate on — dedup, merge,
and IPC become flat 1-D integer operations instead of row-matrix ones.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.base import Metric, workspace_buffer

__all__ = [
    "MAX_CODE_SITES",
    "distance_permutation",
    "distance_permutations",
    "ranked_permutations",
    "permutations_from_distances",
    "count_distinct_permutations",
    "encode_permutations",
    "decode_permutations",
    "decode_positions",
    "permutation_code_dtype",
    "compact_position_dtype",
    "compact_footrule_dtype",
    "workspace_buffer",
    "prefix_codes_from_distances",
    "prefix_permutation_codes",
    "ranks_from_distances",
    "site_ranks",
    "permutation_positions",
    "footrule_matrix_batch",
    "footrule_prefix_bounds",
    "spearman_footrule",
]

#: Largest ``k`` whose Lehmer ranks fit a ``uint64``: ``20! < 2**64 <= 21!``.
MAX_CODE_SITES = 20


def permutations_from_distances(distances: np.ndarray) -> np.ndarray:
    """Reference distance permutations: a stable argsort of each row.

    ``distances`` has shape ``(n, k)``: row ``i`` holds the distances from
    point ``i`` to each of the ``k`` sites.  The result has the same shape
    and row ``i`` is ``Π`` for point ``i``.  Stable sorting implements the
    lower-index tie-break; a NaN distance sorts after every number.
    """
    distances = np.asarray(distances)
    if distances.ndim == 1:
        distances = distances.reshape(1, -1)
    return np.argsort(distances, axis=1, kind="stable")


def _reject_nan(distances: np.ndarray) -> None:
    """Raise ``ValueError`` if a float ``distances`` array holds a NaN."""
    if distances.dtype.kind == "f" and np.isnan(distances.min(initial=0.0)):
        raise ValueError("NaN distances have no rank")


def ranked_permutations(distances: np.ndarray) -> np.ndarray:
    """:func:`permutations_from_distances`, raising on a NaN distance."""
    distances = np.asarray(distances)
    if distances.ndim == 1:
        distances = distances.reshape(1, -1)
    _reject_nan(distances)
    return np.argsort(distances, axis=1, kind="stable")


def distance_permutation(point: Any, sites: Sequence[Any], metric: Metric) -> Tuple[int, ...]:
    """Return ``Π_y`` for one point as a tuple of 0-based site indices."""
    return tuple(distance_permutations([point], sites, metric)[0].tolist())


def distance_permutations(
    points: Sequence[Any], sites: Sequence[Any], metric: Metric
) -> np.ndarray:
    """Return the ``(n, k)`` matrix of distance permutations for ``points``."""
    return ranked_permutations(metric.to_sites(points, sites))


def count_distinct_permutations(perms: np.ndarray) -> int:
    """Return the number of distinct rows in a permutation matrix.

    This is the paper's central measured quantity: the size of
    ``{Π_y | y in database}``.
    """
    perms = np.asarray(perms)
    if perms.ndim != 2:
        raise ValueError(f"expected (n, k) permutation matrix, got {perms.shape}")
    if perms.shape[0] == 0:
        return 0
    return int(np.unique(perms, axis=0).shape[0])


def permutation_code_dtype(k: int) -> np.dtype:
    """The dtype :func:`encode_permutations` emits for width ``k``.

    ``uint64`` while every rank fits (``k <= MAX_CODE_SITES``), Python
    ints in an ``object`` array beyond — the transparent
    arbitrary-precision fallback.
    """
    return np.dtype(np.uint64) if k <= MAX_CODE_SITES else np.dtype(object)


def _earlier_smaller_counts(
    block: np.ndarray, values_below: int
) -> np.ndarray:
    """``C[r, i] = #{j < i : block[r, j] < block[r, i]}``, no per-row loops.

    The Lehmer digits of :func:`encode_permutations`' arbitrary-precision
    path.  A running per-row bitmask of seen values makes this ``k``
    passes of O(n) work: the count is the popcount of the mask below the
    current value.  ``values_below`` bounds the entries (exclusive);
    beyond 64 the column-at-a-time comparison loop takes over.
    """
    n, k = block.shape
    counts = np.empty_like(block)
    if values_below <= 64:
        seen = np.zeros(n, dtype=np.uint64)
        one = np.uint64(1)
        for i in range(k):
            bit = one << block[:, i].astype(np.uint64)
            counts[:, i] = np.bitwise_count(seen & (bit - one))
            seen |= bit
        return counts
    counts[:, :1] = 0
    for i in range(1, k):
        counts[:, i] = (block[:, :i] < block[:, i : i + 1]).sum(axis=1)
    return counts


def encode_permutations(
    perms: np.ndarray, *, dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Batch Lehmer rank: one integer code per row of ``(n, k)`` ``perms``.

    Codes are the lexicographic ranks in ``0 .. k!-1``, vectorized with
    no per-row Python loops, and therefore *order-preserving*: sorting codes sorts the
    permutations lexicographically.  For ``k <= MAX_CODE_SITES`` the
    result is a ``uint64`` array; beyond that an ``object`` array of
    exact Python ints (the transparent fallback).  Passing
    ``dtype=np.uint64`` pins the packed path and raises ``ValueError``
    for ``k > MAX_CODE_SITES`` instead of overflowing silently.

    Rows must be permutations of ``0..k-1``; values outside that range
    raise, but duplicate values within a row are not detected (Lehmer
    ranks are only injective on genuine permutations).
    """
    perms = np.asarray(perms)
    if perms.ndim == 1:
        perms = perms.reshape(1, -1)
    if perms.ndim != 2:
        raise ValueError(f"expected (n, k) permutation matrix, got {perms.shape}")
    n, k = perms.shape
    if dtype is not None and np.dtype(dtype) not in (
        np.dtype(np.uint64),
        np.dtype(object),
    ):
        raise ValueError(f"codes are uint64 or object, not {np.dtype(dtype)}")
    use_uint64 = (
        k <= MAX_CODE_SITES
        if dtype is None
        else np.dtype(dtype) == np.dtype(np.uint64)
    )
    if use_uint64 and k > MAX_CODE_SITES:
        raise ValueError(
            f"uint64 codes overflow for k={k}: {MAX_CODE_SITES}! is the "
            f"largest factorial below 2**64 (omit dtype= for the "
            f"arbitrary-precision object fallback)"
        )
    if n == 0 or k == 0:
        return np.zeros(n, dtype=np.uint64 if use_uint64 else object)
    block = np.ascontiguousarray(perms, dtype=np.int64)
    if block.min() < 0 or block.max() >= k:
        raise ValueError(f"permutation entries must lie in 0..{k - 1}")
    # Lehmer digit i = perm[i] - #{j < i : perm[j] < perm[i]}, folded
    # into the factorial-base rank by a Horner sweep over the columns.
    if use_uint64:
        # Fused digit + Horner pass: a running per-row bitmask of seen
        # values turns the digit into one popcount, k O(n) passes total.
        seen = np.zeros(n, dtype=np.uint64)
        codes = np.zeros(n, dtype=np.uint64)
        one = np.uint64(1)
        for i in range(k):
            value = block[:, i].astype(np.uint64)
            bit = one << value
            codes *= np.uint64(k - i)
            codes += value
            codes -= np.bitwise_count(seen & (bit - one))
            seen |= bit
        return codes
    digits = block - _earlier_smaller_counts(block, k)
    codes = np.zeros(n, dtype=object)
    for i in range(k):
        codes = codes * (k - i) + digits[:, i].astype(object)
    return codes


def _checked_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """``codes`` as a 1-d array, validated against ``0 .. k!-1``.

    Shared front door of :func:`decode_permutations` and
    :func:`decode_positions`: fixed-width codes cannot span
    ``k > MAX_CODE_SITES``, nothing is negative, nothing reaches ``k!``.
    """
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError(f"expected a 1-d code array, got shape {codes.shape}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    top = math.factorial(k)
    if codes.dtype == np.dtype(object):
        if any(not 0 <= c < top for c in codes):
            raise ValueError(f"object codes out of range for k={k}")
        return codes
    if k > MAX_CODE_SITES:
        raise ValueError(
            f"fixed-width codes cannot span k={k} > {MAX_CODE_SITES} "
            f"(pass an object array of Python ints)"
        )
    if codes.shape[0]:
        if np.issubdtype(codes.dtype, np.signedinteger) and codes.min() < 0:
            raise ValueError("codes must be nonnegative")
        if int(codes.max()) >= top:
            raise ValueError(f"code {int(codes.max())} out of range for k={k}")
    return codes


def _unrank_rows(codes: np.ndarray, k: int) -> np.ndarray:
    """Lehmer unrank of fixed-width ``codes`` as a ``(k, n)`` ``uint8`` matrix.

    Row ``r`` holds, for every code, the site at rank ``r`` — the
    transpose of :func:`decode_permutations`' result, one contiguous byte
    row per rank.  Factorial-base digits come from a scalar
    ``floor_divide`` and a multiply-subtract in the narrowest word holding
    ``k!`` (``uint32`` through ``k = 12``, ``uint64`` through 20); the
    right-to-left unrank is ``k - 1`` byte-wide passes over the rows
    below the current one.  ``codes`` must already be range-checked and
    ``1 <= k <= MAX_CODE_SITES``.
    """
    n = codes.shape[0]
    word = np.uint32 if k <= 12 else np.uint64
    rem = codes.astype(word)
    quotient = np.empty(n, dtype=word)
    rows = np.empty((k, n), dtype=np.uint8)
    for i in range(k - 1):
        radix = word(math.factorial(k - 1 - i))
        np.floor_divide(rem, radix, out=quotient)
        rows[i] = quotient
        quotient *= radix
        rem -= quotient
    rows[k - 1] = 0
    # Lehmer digits -> permutation: walking right to left, every later
    # value >= the current digit shifts up by one (the vacated slot).
    bump = np.empty((k - 1, n), dtype=np.bool_)
    for i in range(k - 2, -1, -1):
        tail = rows[i + 1 :]
        shifted = bump[i:]
        np.greater_equal(tail, rows[i], out=shifted)
        np.add(tail, shifted.view(np.uint8), out=tail)
    return rows


def decode_permutations(codes: np.ndarray, k: int) -> np.ndarray:
    """Batch Lehmer unrank: the ``(n, k)`` matrix behind a code array.

    Inverse of :func:`encode_permutations` — ``decode(encode(P), k) == P``
    — vectorized with no per-row Python loops.  Codes must lie in
    ``0 .. k!-1`` (out-of-range codes raise, making corrupt serialized
    payloads loud).  For ``k > MAX_CODE_SITES`` the codes must arrive in
    an ``object`` array: a ``uint64`` (or any fixed-width) array cannot
    represent every rank at such widths, so feeding one raises
    ``ValueError`` rather than decoding a silently truncated code space.
    Fixed-width codes go through the narrow kernel :func:`decode_positions`
    shares (:func:`_unrank_rows`) and are widened to ``int64`` on the way
    out.
    """
    codes = _checked_codes(codes, k)
    n = codes.shape[0]
    if n == 0 or k == 0:
        return np.empty((n, k), dtype=np.int64)
    if codes.dtype != np.dtype(object):
        return _unrank_rows(codes, k).T.astype(np.int64, order="C")
    rem = codes
    perms = np.empty((n, k), dtype=np.int64)
    for i in range(k):
        quotient = math.factorial(k - 1 - i)
        perms[:, i] = (rem // quotient).astype(np.int64)
        rem = rem % quotient
    for i in range(k - 2, -1, -1):
        tail = perms[:, i + 1 :]
        tail += tail >= perms[:, i : i + 1]
    return perms


@functools.lru_cache(maxsize=None)
def _merge_network(k: int) -> Tuple[Tuple[int, int], ...]:
    """Batcher's odd-even merge sort as comparators ``(a, b)``, ``a < b``.

    Built for the next power of two and pruned to the comparators whose
    lanes both lie below ``k`` — the missing lanes act as ``+inf``
    padding, which no comparator ever moves — so it sorts any ``k``
    values: 19 comparators at ``k = 8``, 42 at ``k = 12``, 103 at 20.
    """
    width = 1 << max(0, k - 1).bit_length()
    pairs = []
    merge = 1
    while merge < width:
        step = merge
        while step >= 1:
            for j in range(step % merge, width - step, 2 * step):
                for i in range(min(step, width - j - step)):
                    a, b = i + j, i + j + step
                    if a // (2 * merge) == b // (2 * merge) and b < k:
                        pairs.append((a, b))
            step //= 2
        merge *= 2
    return tuple(pairs)


def _rows_contiguous(rows: np.ndarray) -> bool:
    """Whether every row of 2-d ``rows`` is contiguous and no two overlap."""
    k, n = rows.shape
    return (n <= 1 or rows.strides[1] == rows.itemsize) and (
        k <= 1 or rows.strides[0] >= n * rows.itemsize
    )


def _positions_out(out: Optional[np.ndarray], n: int, k: int) -> np.ndarray:
    """The ``(n, k)`` column-major rank-position target of a kernel call.

    A fresh :func:`compact_position_dtype` matrix when ``out`` is None;
    otherwise ``out`` itself, after checking the layout contract of
    :func:`decode_positions`.
    """
    if out is None:
        return np.empty((k, n), dtype=compact_position_dtype(k)).T
    if out.shape != (n, k):
        raise ValueError(f"out has shape {out.shape}, expected {(n, k)}")
    if not _integer_dtype_holds(out.dtype, k - 1):
        raise ValueError(f"out dtype {out.dtype} cannot hold ranks below {k}")
    if not _rows_contiguous(out.T):
        raise ValueError(
            "out must be column-major: each row of out.T contiguous, "
            "rows not overlapping"
        )
    return out


def decode_positions(
    codes: np.ndarray, k: int, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Rank positions straight from codes: ``pos[i, site] = rank``.

    Equal to ``permutation_positions(decode_permutations(codes, k))`` with
    the same range errors, but for fixed-width codes nothing ``(n, k)``
    and wide is built and nothing is scattered.  Each rank row ``r`` of
    :func:`_unrank_rows` becomes a row of keys ``site << b | r`` (``b``
    bits per rank: ``uint8`` keys through ``k = 16``, ``uint16`` through
    20), and a fixed sorting network — Batcher's odd-even merge sort,
    42 comparators at ``k = 12`` — sorts every code's ``k`` keys at once,
    each comparator one ``np.minimum`` and one ``np.maximum`` over whole
    key rows (row references swap; nothing is copied).  Sorted row
    ``s`` then holds site ``s``'s key in every column, and its low ``b``
    bits are that site's rank, masked straight into ``out``.

    **Layout contract.**  The result is ``(n, k)`` and *column-major*:
    ``result.T`` is a ``(k, n)`` matrix whose row ``s`` is site ``s``'s
    rank in every decoded permutation.  Without ``out`` it is allocated
    C-contiguous in :func:`compact_position_dtype`.  ``out`` must have
    shape ``(n, k)``, an integer dtype holding ``k - 1``, and contiguous,
    non-overlapping rows of ``out.T`` — a C-contiguous ``(k, n)`` matrix
    or a column range of a wider one (a tile of a ``(k, width)``
    workspace), rows further apart than they are long, the layout
    :func:`footrule_matrix_batch` consumes in place; it is filled in
    place and nothing outside it is written.  A C-ordered or
    element-strided target raises ``ValueError`` instead of being
    filled through a hidden copy.  Object codes (``k > MAX_CODE_SITES``)
    take the row path through :func:`permutation_positions`.
    """
    codes = _checked_codes(codes, k)
    n = codes.shape[0]
    out = _positions_out(out, n, k)
    if n == 0 or k == 0:
        return out
    if codes.dtype == np.dtype(object):
        return permutation_positions(decode_permutations(codes, k), out=out)
    bits = (k - 1).bit_length()
    keys = _unrank_rows(codes, k)
    if 2 * bits > 8:
        keys = keys.astype(np.uint16)
    scalar = keys.dtype.type
    # A multiply, not a shift: numpy has no SIMD loop for shifts.
    np.multiply(keys, scalar(1 << bits), out=keys)
    np.bitwise_or(keys, np.arange(k, dtype=keys.dtype)[:, None], out=keys)
    lanes = list(keys)
    spare = np.empty_like(lanes[0])
    for a, b in _merge_network(k):
        np.minimum(lanes[a], lanes[b], out=spare)
        np.maximum(lanes[a], lanes[b], out=lanes[b])
        lanes[a], spare = spare, lanes[a]
    mask = scalar((1 << bits) - 1)
    for site, lane in zip(out.T, lanes):
        np.bitwise_and(lane, mask, out=site, casting="unsafe")
    return out


#: Distance bytes one row block of the pair-compare kernel spans: the
#: block's site columns (copied column-contiguous when the input is not)
#: stay cache-resident across the ``k(k-1)/2`` compare passes that
#: re-read them.
_CODE_BLOCK_BYTES = 1 << 20


def _column_blocks(
    distances: np.ndarray, top: int, workspace: Optional[dict] = None
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, columns)`` over cache-sized row blocks.

    ``columns`` is the block's first ``top >= 1`` site columns as a
    ``(top, stop - start)`` matrix with contiguous rows: a slice of
    column-major input, a transposing copy of anything else (into
    ``workspace``'s ``"columns"`` buffer, valid until the next block is
    drawn).  NaN distances have no rank and raise ``ValueError``.
    """
    rows = max(1, _CODE_BLOCK_BYTES // (top * distances.itemsize))
    for start in range(0, distances.shape[0], rows):
        stop = min(start + rows, distances.shape[0])
        columns = distances[start:stop, :top].T
        if columns.strides[1] != columns.itemsize:
            copy = workspace_buffer(
                workspace, "columns", columns.shape, columns.dtype
            )
            np.copyto(copy, columns)
            columns = copy
        _reject_nan(columns)
        yield start, stop, columns


def _insertion_digits(
    columns: np.ndarray,
    digits: np.ndarray,
    ranks: Optional[np.ndarray] = None,
) -> Iterator[int]:
    """The pair-compare kernel: one ``d[s] <= d[m]`` per site pair ``s < m``.

    For ``m = 1 .. k - 1`` in turn, fills ``digits[m]`` with site ``m``'s
    insertion digit ``#{s < m : d[s] <= d[m]}`` (its rank among sites
    ``0..m``) and yields ``m`` once that row is final.  Given ``ranks``,
    rows initialised to ``k - 1 - s``, the same compare also settles the
    lower site: ``ranks[s] -= d[s] <= d[m]``, leaving ``ranks[s] =
    #{m > s : d[m] < d[s]}``.  ``digits[0]`` is never touched.
    """
    below = np.empty(columns.shape[1], dtype=np.bool_)
    flags = below.view(np.uint8)
    for m in range(1, columns.shape[0]):
        column = columns[m]
        digit = digits[m]
        np.less_equal(columns[0], column, out=digit)
        if ranks is not None:
            np.subtract(ranks[0], digit, out=ranks[0])
        for s in range(1, m):
            np.less_equal(columns[s], column, out=below)
            np.add(digit, flags, out=digit)
            if ranks is not None:
                np.subtract(ranks[s], flags, out=ranks[s])
        yield m


def prefix_codes_from_distances(
    distances: np.ndarray, ks: Sequence[int]
) -> Dict[int, np.ndarray]:
    """Codes of the distance permutation of every requested site prefix.

    ``distances`` is the ``(n, k_max)`` matrix of site distances, any
    real dtype, any memory order.  Returns ``{j: codes}`` for each ``j``
    in ``ks``, where two points get equal codes at ``j`` iff their
    first-``j``-sites distance permutations are equal.  The codes are
    mixed-radix *insertion* codes — the digit of site ``m`` is its rank
    among sites ``0..m``,

        ``digit_m = #{s < m : d[s] <= d[m]}``,

    read straight off the distance columns (``<=`` against a
    lower-indexed site *is* the paper's lower-index tie-break, so no
    stable sort is needed to apply it).  A digit is ``m`` whole-column
    ``less_equal`` + ``uint8`` add passes, ``k(k-1)/2`` in all (the pair
    loop :func:`ranks_from_distances` shares), and a
    code extends from one prefix to the next by a single multiply-add in
    the narrowest word holding ``j!`` — so codes are prefix-monotone,
    ``codes[j] == codes[k] // (k! / j!)`` for ``j <= k`` (what
    :meth:`~repro.core.estimate.StreamingCensus.restricted` relies on to
    census every width from one sort of the widest).  The result equals
    ``prefix_permutation_codes(permutations_from_distances(distances),
    ks)`` bit for bit: ``uint64`` arrays while ``max(ks) <=
    MAX_CODE_SITES``, ``object`` arrays of exact Python ints beyond.
    Column-major input in a narrow dtype is consumed in place; anything
    else costs one transposing copy per row block.

    Insertion codes are injective per width but are **not** the
    lexicographic Lehmer ranks of :func:`encode_permutations` (censuses
    keyed on the two code families must not be merged;
    :class:`~repro.core.estimate.StreamingCensus` enforces this).  NaN
    distances have no rank and raise ``ValueError``; ``±inf`` order and
    tie like any other value.
    """
    distances = np.asarray(distances)
    if distances.ndim != 2:
        raise ValueError(
            f"expected (n, k) distance matrix, got {distances.shape}"
        )
    n, k_max = distances.shape
    widths = sorted({int(j) for j in ks})
    if widths and not 0 <= widths[0] <= widths[-1] <= k_max:
        raise ValueError(f"prefix widths must lie in [0, {k_max}]")
    if not widths:
        return {}
    top = widths[-1]
    dtype = np.uint64 if top <= MAX_CODE_SITES else object
    out = {j: np.zeros(n, dtype=dtype) for j in widths}
    if top <= 1 or n == 0:
        return out
    scratch: dict = {}
    for start, stop, columns in _column_blocks(distances, top):
        digits = workspace_buffer(
            scratch, "digits", columns.shape, compact_position_dtype(top)
        )
        running = np.zeros(stop - start, dtype=np.uint8)
        for m in _insertion_digits(columns, digits):
            digit = digits[m]
            if dtype is object:
                running = running * (m + 1) + digit.astype(object)
            else:
                word = np.min_scalar_type(math.factorial(m + 1) - 1)
                running = running.astype(word, copy=False)
                running *= word.type(m + 1)
                running += digit
            if m + 1 in out:
                out[m + 1][start:stop] = running
    return out


def prefix_permutation_codes(
    perms: np.ndarray, ks: Sequence[int]
) -> Dict[int, np.ndarray]:
    """:func:`prefix_codes_from_distances`, from the permutations instead.

    ``perms`` is the full ``(n, k_max)`` matrix of distance permutations.
    The permutation of the first ``j`` sites is the *restriction* of the
    full permutation to values ``< j`` (stable tie-breaking survives
    restriction), and a site's rank in the full permutation orders the
    sites exactly as its distance did — so the ranks
    (:func:`permutation_positions`, as narrow columns) go through the
    distance kernel unchanged and yield the same codes.  Callers that
    still hold the distances skip the argsort and this inversion by
    calling :func:`prefix_codes_from_distances` directly.
    """
    perms = np.asarray(perms)
    if perms.ndim != 2:
        raise ValueError(f"expected (n, k) permutation matrix, got {perms.shape}")
    n, k_max = perms.shape
    ranks = np.empty((k_max, n), dtype=compact_position_dtype(k_max)).T
    return prefix_codes_from_distances(
        permutation_positions(perms, out=ranks), ks
    )


def _lehmer_codes(
    positions: np.ndarray, digits: np.ndarray, out: np.ndarray
) -> None:
    """Lehmer codes of a block from its rank rows and insertion digits.

    Site ``s``'s Lehmer digit — the lower sites ranked after it — is
    ``s - digits[s]`` (``digits`` is overwritten with it), weighted by
    ``(k - 1 - positions[s])!``; the code is the sum over sites.  Fixed
    words sum in the narrowest one holding ``k!`` (``uint32`` through
    ``k = 12``); an ``object`` ``out`` sums exact Python ints.
    """
    k, width = positions.shape
    weights = [math.factorial(k - 1 - p) for p in range(k)]
    for s in range(1, k):
        np.subtract(s, digits[s], out=digits[s])
    if out.dtype == np.dtype(object):
        table = np.array(weights, dtype=object)
        code = np.zeros(width, dtype=object)
        for s in range(1, k):
            code += table[positions[s]] * digits[s].astype(object)
        out[...] = code
        return
    word = np.min_scalar_type(math.factorial(k) - 1)
    table = np.array(weights, dtype=word)
    code = np.zeros(width, dtype=word)
    term = np.empty(width, dtype=word)
    for s in range(1, k):
        np.take(table, positions[s], out=term, mode="clip")
        np.multiply(term, digits[s], out=term)
        np.add(code, term, out=code)
    out[...] = code


def ranks_from_distances(
    distances: np.ndarray,
    *,
    positions: Optional[np.ndarray] = None,
    codes: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Rank positions and Lehmer codes of every row's distance permutation.

    ``distances`` is an ``(n, k)`` matrix of site distances, any real or
    integer dtype, any memory order.  Returns ``(positions, codes)``,
    byte-equal to ``permutation_positions(P)`` and
    ``encode_permutations(P)`` for ``P =
    permutations_from_distances(distances)`` — but with no sort, no
    permutation matrix and no scatter.  It is the pair loop of
    :func:`prefix_codes_from_distances` with one more update per pair:
    for sites ``s < m`` one compare ``le = d[s] <= d[m]`` settles both,

    - ``ins[m] += le`` (the census's insertion digit), and
    - ``rank[s] -= le``, from ``rank[s] = k - 1 - s``,

    and after all pairs ``pos[s] = rank[s] + ins[s]``: the sites ranked
    before ``s`` are the lower ones at distance ``<= d[s]`` plus the
    higher ones strictly closer, which is the stable argsort's rank.  The
    Lehmer code then needs no second pass over the pairs: the digit of
    site ``s`` is ``s - ins[s]``, weighted by ``(k - 1 - pos[s])!``.

    ``positions`` follows :func:`decode_positions`' layout contract
    (``(n, k)`` column-major; allocated in :func:`compact_position_dtype`)
    and ``codes`` is an ``(n,)`` array of :func:`permutation_code_dtype`
    (``uint64`` through ``k = 20``, exact Python ints in an ``object``
    array beyond); both are filled in place.  NaN distances have no rank
    and raise ``ValueError``; ``±inf`` order and tie like any other value.
    """
    return _ranks_into(distances, positions, codes, None)


def _ranks_into(
    distances: np.ndarray,
    positions: Optional[np.ndarray],
    codes: Optional[np.ndarray],
    workspace: Optional[dict],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`ranks_from_distances`, its block scratch (site columns,
    digits) drawn from ``workspace`` (fresh when None), so a caller that
    ranks block after block reuses one set of buffers."""
    distances = np.asarray(distances)
    if distances.ndim != 2:
        raise ValueError(
            f"expected (n, k) distance matrix, got {distances.shape}"
        )
    n, k = distances.shape
    positions = _positions_out(positions, n, k)
    code_dtype = permutation_code_dtype(k)
    if codes is None:
        codes = np.empty(n, dtype=code_dtype)
    elif codes.shape != (n,) or codes.dtype != code_dtype:
        raise ValueError(f"codes must be an ({n},) {code_dtype} array")
    if n == 0:
        return positions, codes
    if k <= 1:
        positions[...] = 0
        codes[...] = 0
        return positions, codes
    dtype = compact_position_dtype(k)
    initial = np.arange(k - 1, -1, -1, dtype=dtype)[:, None]
    scratch = {} if workspace is None else workspace
    for start, stop, columns in _column_blocks(distances, k, scratch):
        ranks = positions[start:stop].T
        ranks[...] = initial
        digits = workspace_buffer(scratch, "digits", columns.shape, dtype)
        digits[0] = 0
        for _ in _insertion_digits(columns, digits, ranks):
            pass
        np.add(ranks, digits, out=ranks)
        _lehmer_codes(ranks, digits, codes[start:stop])
    return positions, codes


def site_ranks(
    points: Sequence[Any], sites: Sequence[Any], metric: Metric
) -> Tuple[np.ndarray, np.ndarray]:
    """Lehmer codes and rank positions of every point's ``Π_y``.

    The bulk route from a database to its distance permutations:
    :func:`ranks_from_distances` consumes the metric's own row blocks
    (:meth:`~repro.metrics.base.Metric.to_sites_compact`) one at a time
    and writes each block's slice of the result in place, so no ``(n,
    k)`` float64 distance matrix is built unless the metric's kernel
    itself emits one.  Returns ``(codes, positions)``: ``(n,)`` codes of
    :func:`permutation_code_dtype` and the ``(n, k)`` column-major
    :func:`compact_position_dtype` ranks the footrule kernel reads.  A
    :class:`~repro.metrics.base.CountingMetric` charges ``n * k``
    evaluations, once.
    """
    n, k = len(points), len(sites)
    positions = _positions_out(None, n, k)
    codes = np.empty(n, dtype=permutation_code_dtype(k))
    # One set of block buffers for the whole build: a fresh one per
    # block re-faulted its pages whenever the allocator had trimmed them.
    workspace: dict = {}
    for start, stop, block in metric.to_sites_compact(points, sites):
        _ranks_into(block, positions[start:stop], codes[start:stop], workspace)
    return codes, positions


def _positions(perm: Sequence[int]) -> np.ndarray:
    perm = np.asarray(perm)
    pos = np.empty_like(perm)
    pos[perm] = np.arange(len(perm))
    return pos


def spearman_footrule(perm_a: Sequence[int], perm_b: Sequence[int]) -> int:
    """Spearman footrule: total displacement of site positions.

    ``F = sum_site |pos_a(site) - pos_b(site)|``.  This is the permutation
    dissimilarity used by the permutation index of Chávez, Figueroa, and
    Navarro to order candidates by how similar their stored permutation is
    to the query's.
    """
    if len(perm_a) != len(perm_b):
        raise ValueError("permutations must have the same length")
    return int(np.abs(_positions(perm_a) - _positions(perm_b)).sum())


def permutation_positions(
    perms: np.ndarray, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-wise inverse of a permutation matrix: ``pos[i, site] = rank``.

    This is the representation in which Spearman footrule is a plain
    elementwise computation; indexes cache it so batched footrule never
    re-inverts the stored permutations.  ``out`` receives the ranks in
    place — any ``(n, k)`` integer array wide enough for ``k - 1``, in any
    memory order — so a caller that wants the compact column-major layout
    of :func:`footrule_matrix_batch` scatters straight into it instead of
    casting and transposing an ``int64`` temporary.
    """
    perms = np.asarray(perms)
    if perms.ndim == 1:
        perms = perms.reshape(1, -1)
    n, k = perms.shape
    if out is None:
        out = np.empty_like(perms)
    elif out.shape != perms.shape:
        raise ValueError(
            f"out has shape {out.shape}, permutations {perms.shape}"
        )
    elif not _integer_dtype_holds(out.dtype, k - 1):
        raise ValueError(f"out dtype {out.dtype} cannot hold ranks below {k}")
    rows = np.arange(n)[:, None]
    out[rows, perms] = np.arange(k, dtype=out.dtype)[None, :]
    return out


def _integer_dtype_holds(dtype: np.dtype, bound: int) -> bool:
    """Whether ``dtype`` is an integer dtype representing ``0..bound``."""
    return dtype.kind in "iu" and np.iinfo(dtype).max >= bound


def compact_position_dtype(k: int) -> np.dtype:
    """Narrowest unsigned dtype holding ranks ``0..k-1``.

    ``uint8`` through ``k = 256`` (every width the code engine packs is
    ``k <= 20``), ``uint16`` through ``k = 65536``, ``int64`` beyond.
    Indexes cache their rank-position matrix in this dtype, laid out
    column-major, so each site's ranks are one contiguous narrow row of
    :func:`footrule_matrix_batch` and nothing is re-cast per query.
    """
    if k <= 1 << 8:
        return np.dtype(np.uint8)
    if k <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def compact_footrule_dtype(k: int) -> np.dtype:
    """Narrowest unsigned dtype holding every footrule on ``k`` sites.

    Total displacement never exceeds ``floor(k^2 / 2)`` (reached by the
    reversal), so ``uint8`` serves ``k <= 22``, ``uint16`` ``k <= 362``,
    ``uint32`` / ``uint64`` beyond.  This is the accumulator — and the
    natural ``out=`` dtype — of :func:`footrule_matrix_batch`.
    """
    return np.min_scalar_type(k * k // 2)


#: Bytes of differences one pass of :func:`footrule_matrix_batch` covers:
#: as many query rows as fit (two at n = 200k with ``int8`` differences),
#: so each numpy call is long enough for another thread to run meanwhile.
_FOOTRULE_PASS_BYTES = 1 << 19


def footrule_matrix_batch(
    perms: Optional[np.ndarray],
    query_perms: np.ndarray,
    *,
    positions: Optional[np.ndarray] = None,
    workspace: Optional[dict] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Footrule of every stored permutation against every query permutation.

    Returns the ``(len(query_perms), len(perms))`` matrix whose entry
    ``(q, i)`` is ``spearman_footrule(perms[i], query_perms[q])``.

    **Kernel.**  One pass per site over *column-contiguous* rank
    positions: ``|pos[:, s] - q[s]|`` as a signed narrow subtract and
    ``abs``, added into a narrow unsigned accumulator row — three
    contiguous SIMD passes per site (the first site's add and the fill
    are dropped: its magnitudes start the row), no ``(q, n, k)``
    intermediate and no short-axis reduction.  Each pass covers as many
    query rows as :data:`_FOOTRULE_PASS_BYTES` of differences hold,
    broadcasting the column against their ranks: the bytes are the same,
    and one numpy call is long enough that a second scan thread runs
    while it holds no interpreter lock.  Ranks are ``< k`` and a
    footrule is at most ``floor(k^2 / 2)``, which fixes the widths:
    differences are the narrowest signed dtype holding ``k - 1``
    (``int8`` through ``k = 128``, ``int16`` through 32768), the
    accumulator is :func:`compact_footrule_dtype` (``uint8`` through
    ``k = 22``, ``uint16`` through 362).

    **Layout.**  Pass a precomputed ``positions =
    permutation_positions(perms)`` to skip re-inverting the stored
    permutations on every call (``perms`` may then be ``None`` — the
    code-backed index stores only positions).  A matrix of
    :func:`compact_position_dtype` whose columns are each contiguous is
    consumed in place: a column-major (``flags.f_contiguous``) matrix, or
    a row range of one — a tile cut out of a wider ``(k, width)``
    workspace, its rows further apart than they are long.  Anything
    else — C order, a wider dtype — costs one transposing copy per call.

    **Output.**  Without ``out`` the result is a fresh ``int64`` matrix.
    ``out`` may be any ``(q, n)`` integer array whose dtype holds
    ``floor(k^2 / 2)`` (else ``ValueError``); rows of the accumulator
    dtype are accumulated in place, wider ones are filled by one
    widening copy per query.  ``workspace`` is a dict that keeps the
    scratch buffers alive across calls.
    """
    if positions is None:
        if perms is None:
            raise ValueError("need perms when positions is not supplied")
        positions = permutation_positions(perms)
    query_positions = permutation_positions(query_perms)
    n, k = positions.shape
    n_queries = query_positions.shape[0]
    if query_positions.shape[1] != k:
        raise ValueError(
            f"queries rank {query_positions.shape[1]} sites, stored "
            f"permutations {k}"
        )
    accumulator = compact_footrule_dtype(k)
    if out is None:
        out = np.empty((n_queries, n), dtype=np.int64)
    elif out.shape != (n_queries, n):
        raise ValueError(
            f"out has shape {out.shape}, expected {(n_queries, n)}"
        )
    elif not _integer_dtype_holds(out.dtype, k * k // 2):
        raise ValueError(
            f"out dtype {out.dtype} cannot hold footrules up to {k * k // 2}"
        )
    if n == 0 or n_queries == 0:
        return out
    compact = compact_position_dtype(k)
    signed = np.min_scalar_type(-k)  # holds every difference, +-(k - 1)
    columns = positions.T
    if positions.dtype != compact or columns.strides[1] != compact.itemsize:
        columns = workspace_buffer(
            workspace, "footrule_columns", (k, n), compact
        )
        np.copyto(columns, positions.T, casting="unsafe")
    if signed.itemsize == compact.itemsize:
        # Ranks fit the signed twin of their own width: subtract in it
        # directly.  Wider differences (k in 129..256, 32769..65536) cast
        # on the way in.
        columns = columns.view(signed)
    query_positions = query_positions.astype(signed, copy=False)
    in_place = out.dtype == accumulator
    rows = max(1, _FOOTRULE_PASS_BYTES // (n * signed.itemsize))
    for lo in range(0, n_queries, rows):
        hi = min(lo + rows, n_queries)
        diff = workspace_buffer(workspace, "footrule_diff", (hi - lo, n), signed)
        block = (
            out[lo:hi]
            if in_place
            else workspace_buffer(
                workspace, "footrule_row", (hi - lo, n), accumulator
            )
        )
        if hi - lo == 1:
            # One row: flat passes against scalar ranks, numpy's fastest
            # loop (a broadcast column costs a single query ≈ 5 %).
            diff, target, ranks = diff[0], block[0], query_positions[lo]
        else:
            target, ranks = block, query_positions[lo:hi].T[:, :, None]
        magnitude = diff.view(np.dtype(f"u{signed.itemsize}"))
        # The first site's magnitudes start the rows: no fill pass, and no
        # add when the accumulator is as wide as the differences.
        lead = target.view(signed) if target.itemsize == signed.itemsize else diff
        np.subtract(columns[0], ranks[0], out=lead, dtype=signed)
        np.abs(lead, out=lead)
        if lead is diff:
            np.copyto(target, magnitude)
        for s in range(1, k):
            np.subtract(columns[s], ranks[s], out=diff, dtype=signed)
            np.abs(diff, out=diff)
            np.add(target, magnitude, out=target)
        if not in_place:
            out[lo:hi] = block
    return out


#: Entries of a query's :func:`footrule_prefix_bounds` table at most:
#: 11 880 four-site prefixes at ``k = 12``.  Five sites (95 040 entries)
#: made a single mmap query slower (7.8 against 4.3 ms, 2-vCPU x86-64).
_PREFIX_TABLE_ENTRIES = 1 << 14


@functools.lru_cache(maxsize=None)
def _prefix_sites(k: int) -> Tuple[np.ndarray, int]:
    """Sites at ranks ``0..j-1`` of every prefix ``p = code // (k - j)!``
    (read off ``p * (k - j)!``), for the longest ``j`` with at most
    :data:`_PREFIX_TABLE_ENTRIES` prefixes, and ``(k - j)!``."""
    j = max(i for i in range(1, k + 1) if math.perm(k, i) <= _PREFIX_TABLE_ENTRIES)
    divisor = math.factorial(k - j)
    smallest = np.arange(math.perm(k, j), dtype=np.uint64) * np.uint64(divisor)
    sites = np.ascontiguousarray(_unrank_rows(smallest, k)[:j])
    sites.setflags(write=False)
    return sites, divisor


def footrule_prefix_bounds(
    query_perms: np.ndarray, k: int
) -> Tuple[np.ndarray, int]:
    """Footrule lower bounds from a code's leading sites, with no decode.

    With ``d_i = pos_q(perm[i]) - i`` the footrule is ``sum |d_i| = 2 *
    sum max(d_i, 0)`` (``sum d_i = 0``), so its first ``j`` terms bound it:
    the least footrule of any permutation with that prefix.  Returns
    ``(tables, divisor)``; ``np.take(tables[q], codes // divisor)`` bounds
    each code against query ``q``, in :func:`compact_footrule_dtype`.
    """
    sites, divisor = _prefix_sites(k)
    positions = permutation_positions(query_perms)
    dtype = compact_footrule_dtype(k)
    tables = np.zeros((positions.shape[0], sites.shape[1]), dtype=dtype)
    for rank, column in enumerate(sites):
        excess = (2 * np.maximum(positions - rank, 0)).astype(dtype)
        tables += np.take(excess, column, axis=1)
    return tables, divisor
