"""String metrics: Levenshtein edit distance and prefix distance.

The paper's experiments run on dictionaries and gene sequences under the
Levenshtein edit distance, and Section 3 introduces the *prefix metric* —
a tree metric on strings where an edit may only add or remove a letter at
the right-hand end (Definition 3).

Both metrics share the :class:`StringMetric` batched-kernel wiring:
``matrix`` (and therefore ``to_sites``, ``batch_distances``, and
``pairwise``) encodes each collection once into padded code-point
matrices (:mod:`repro.metrics.encoding`) and computes whole distance
matrices vectorized, falling back to the scalar loop only for
non-string inputs.  The scalar :func:`levenshtein` is one routine: the
Myers bit-vector recurrence on Python ints after affix stripping, exact
at every length; the two-row Python DP (``_levenshtein_python``) is kept
only as the test oracle.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.metrics import bitparallel
from repro.metrics.base import Metric
from repro.metrics.encoding import (
    EncodedStrings,
    encode_strings,
    levenshtein_matrix,
    levenshtein_matrix_compact,
    prefix_distance_matrix,
)

__all__ = [
    "levenshtein",
    "prefix_distance",
    "longest_common_prefix",
    "StringMetric",
    "LevenshteinDistance",
    "PrefixDistance",
]

def _levenshtein_myers(a: str, b: str) -> int:
    """Single-pair Myers bit-vector DP, exact at any pattern length.

    The scalar twin of :mod:`repro.metrics.bitparallel`: the pattern
    ``b`` (non-empty) lives in one Python int per bitmask and each
    character of ``a`` advances a whole DP column in ~15 int ops.  Python
    ints are arbitrary-precision, so a pattern past one 64-bit word needs
    no blocked carries — the big-int ops carry for it.  Exact for any
    alphabet — ``Peq`` is a dict keyed by character.
    """
    m = len(b)
    peq: dict = {}
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | (1 << i)
    full = (1 << m) - 1
    high = 1 << (m - 1)
    vp = full
    vn = 0
    score = m
    get = peq.get
    for c in a:
        eq = get(c, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = (vn | ~(xh | vp)) & full
        mh = vp & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & full
        vp = ((mh << 1) | (~(xv | ph) & full)) & full
        vn = ph & xv
    return score


def _levenshtein_python(a: str, b: str) -> int:
    """Classic two-row Wagner–Fischer DP: the oracle the Myers paths are
    tested against."""
    if len(a) < len(b):
        a, b = b, a
    # b is the shorter string; the DP row has len(b) + 1 entries.
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def levenshtein(a: str, b: str, max_distance: Optional[int] = None) -> int:
    """Return the Levenshtein edit distance between two strings.

    Runs the scalar Myers bit-vector DP on Python ints, exact unit-cost
    insert/delete/substitute distance at any length.  The DP only ever
    sees the middle of the strings: the common prefix and suffix are
    stripped first, since an optimal edit script never touches them, and
    the shorter remainder becomes the pattern.

    ``max_distance`` enables the ``|len(a) - len(b)|`` lower-bound
    short-circuit: when the length gap alone exceeds the bound, that gap
    (a valid lower bound on the distance, itself ``> max_distance``) is
    returned without running the DP.  Exact whenever the true distance is
    ``<= max_distance``.
    """
    if a == b:
        return 0
    lower = abs(len(a) - len(b))
    if max_distance is not None and lower > max_distance:
        return lower
    # Strip the common prefix and suffix: edits never touch them.
    start = 0
    limit = min(len(a), len(b))
    while start < limit and a[start] == b[start]:
        start += 1
    end_a, end_b = len(a), len(b)
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a = a[start:end_a]
    b = b[start:end_b]
    if not a or not b:
        # One side is a prefix+suffix of the other: the gap is the answer.
        return len(a) + len(b)
    if len(b) > len(a):
        a, b = b, a
    # b is now the shorter string — the Myers pattern.
    return _levenshtein_myers(a, b)


def longest_common_prefix(a: str, b: str) -> int:
    """Return the length of the longest common prefix of two strings."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


def prefix_distance(a: str, b: str) -> int:
    """Return the prefix distance of Definition 3.

    Each edit adds or removes one letter at the right-hand end, so the
    distance is ``len(a) + len(b) - 2 * lcp(a, b)``: strip ``a`` down to
    the common prefix, then extend to ``b``.
    """
    return len(a) + len(b) - 2 * longest_common_prefix(a, b)


class StringMetric(Metric):
    """Shared batched-kernel wiring for metrics on strings.

    :meth:`encode` turns a string collection into a cached
    :class:`~repro.metrics.encoding.EncodedStrings`; :meth:`matrix`
    dispatches to the subclass's vectorized :meth:`matrix_encoded`
    whenever both sides encode, and transparently falls back to the
    scalar double loop otherwise (mixed or non-string inputs).  Because
    ``to_sites``, ``batch_distances``, and ``pairwise`` all route through
    ``matrix``, every index build, census, and batched query gets the
    kernel without call-site changes.
    """

    def encode(self, points: Sequence[Any]) -> Optional[EncodedStrings]:
        if isinstance(points, EncodedStrings):
            return points
        try:
            return encode_strings(points)
        except TypeError:
            return None

    def _encode_both(
        self, xs: Sequence[Any], ys: Sequence[Any]
    ) -> Optional[Tuple[EncodedStrings, EncodedStrings]]:
        """Both collections encoded, or ``None`` when either cannot be."""
        xs_encoded = self.encode(xs)
        ys_encoded = self.encode(ys) if xs_encoded is not None else None
        return None if ys_encoded is None else (xs_encoded, ys_encoded)

    def matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        encoded = self._encode_both(xs, ys)
        if encoded is None:
            return super().matrix(xs, ys)
        return self.matrix_encoded(*encoded)


class LevenshteinDistance(StringMetric):
    """Unit-cost edit distance; the metric of the dictionary databases."""

    name = "levenshtein"

    def distance(self, x: str, y: str) -> float:
        return float(levenshtein(x, y))

    def matrix_encoded(
        self, xs_encoded: EncodedStrings, ys_encoded: EncodedStrings
    ) -> np.ndarray:
        return levenshtein_matrix_compact(xs_encoded, ys_encoded).astype(
            np.float64, order="C"
        )

    def to_sites_compact(
        self, points: Sequence[Any], sites: Sequence[Any]
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        # The lock-step kernel's whole uint8 column-major matrix is one
        # block: the rank kernels read its site rows in place.
        encoded = self._encode_both(points, sites)
        if encoded is None:
            yield 0, len(points), self.to_sites(points, sites)
        else:
            yield 0, len(points), levenshtein_matrix_compact(*encoded)

    def grouped_distances(
        self,
        queries: Sequence[Any],
        points: Sequence[Any],
        point_ids: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        # Every pair of the chunk in one lock-step pass of the pair
        # driver, candidates read from the (resident) points encoding.
        # Queries longer than one uint64 lane take the inherited loop.
        encoded = self._encode_both(queries, points)
        if encoded is None:
            return super().grouped_distances(queries, points, point_ids, offsets)
        queries_encoded, points_encoded = encoded
        point_ids = np.asarray(point_ids, dtype=np.intp)
        offsets = np.asarray(offsets, dtype=np.int64)
        fits = queries_encoded.lengths <= bitparallel.PAIR_MAX_PATTERN
        if fits.all():
            return bitparallel.myers_pair_distances(
                queries_encoded, points_encoded, point_ids, offsets
            ).astype(np.float64)
        counts = np.diff(offsets)
        pair_fits = np.repeat(fits, counts)
        out = np.empty(point_ids.shape[0], dtype=np.float64)
        out[pair_fits] = bitparallel.myers_pair_distances(
            queries_encoded.take(np.flatnonzero(fits)),
            points_encoded,
            point_ids[pair_fits],
            np.concatenate([[0], np.cumsum(counts[fits])]),
        )
        long_rows = np.flatnonzero(~fits)
        out[~pair_fits] = super().grouped_distances(
            [queries[int(i)] for i in long_rows],
            points_encoded,
            point_ids[~pair_fits],
            np.concatenate([[0], np.cumsum(counts[long_rows])]),
        )
        return out

    def batch_distances_within(
        self, queries: Sequence[Any], points: Sequence[Any], radius: float
    ) -> np.ndarray:
        encoded = self._encode_both(queries, points)
        if encoded is None or not np.isfinite(radius):
            return self.batch_distances(queries, points)
        # Distances are integers, so d <= radius iff d <= floor(radius);
        # pruned entries surface as integer lower bounds > floor(radius),
        # hence > radius.
        return levenshtein_matrix(
            *encoded, max_distance=int(radius)
        ).astype(np.float64)


class PrefixDistance(StringMetric):
    """The prefix metric of Definition 3 — a simple tree metric (Fig. 5)."""

    name = "prefix"

    def distance(self, x: str, y: str) -> float:
        return float(prefix_distance(x, y))

    def matrix_encoded(
        self, xs_encoded: EncodedStrings, ys_encoded: EncodedStrings
    ) -> np.ndarray:
        return prefix_distance_matrix(xs_encoded, ys_encoded).astype(
            np.float64
        )
