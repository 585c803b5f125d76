"""Abstract metric interface and instrumentation wrappers.

The similarity-search literature measures search cost as the *number of
distance evaluations*, because in the motivating applications (images,
documents, genetic sequences) a single distance computation dominates
everything else.  :class:`CountingMetric` wraps any metric and counts
evaluations so indexes can report that cost faithfully.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Metric",
    "CountingMetric",
    "take_points",
    "workspace_buffer",
]


def take_points(points: Sequence[Any], indices: np.ndarray) -> Sequence[Any]:
    """Gather ``points[indices]``: one ``np.take`` along the rows of an
    array (the same bytes as fancy indexing, about 5x faster for 2000 rows
    of a 200k x 8 float64 matrix), one row gather for encodings that have
    one (``EncodedStrings.take``), looping otherwise."""
    if isinstance(points, np.ndarray):
        return np.take(points, indices, axis=0)
    take = getattr(points, "take", None)
    if take is not None:
        return take(indices)
    return [points[int(i)] for i in indices]


def workspace_buffer(
    workspace: Optional[dict], key: str, shape: Tuple[int, ...], dtype
) -> np.ndarray:
    """A reusable C-ordered scratch array; fresh when ``workspace`` is None.

    The dict keeps one flat grow-only buffer per key and hands out a
    reshaped prefix, so alternating call shapes (a 20-query chunk, then a
    single query) reuse one allocation instead of replacing it each time.
    """
    if workspace is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    flat = workspace.get(key)
    if flat is None or flat.dtype != dtype or flat.size < size:
        flat = workspace[key] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


class Metric(ABC):
    """A distance function ``d`` over some universe of points.

    Subclasses must implement :meth:`distance`.  The default batch methods
    fall back to Python loops; metrics over numpy vectors override
    :meth:`matrix` with vectorized implementations.
    """

    #: Human-readable name used in experiment tables.
    name: str = "metric"

    @abstractmethod
    def distance(self, x: Any, y: Any) -> float:
        """Return ``d(x, y)``."""

    def __call__(self, x: Any, y: Any) -> float:
        return self.distance(x, y)

    def matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        """Return the ``len(xs) x len(ys)`` matrix of pairwise distances."""
        out = np.empty((len(xs), len(ys)), dtype=np.float64)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i, j] = self.distance(x, y)
        return out

    def encode(self, points: Sequence[Any]) -> Optional[Any]:
        """Return a reusable batched encoding of ``points``, or ``None``.

        Metrics with a batched kernel (the string family) return an
        encoded, cached form of the collection that
        :meth:`matrix_encoded` consumes; encoding a collection once and
        reusing it across every matrix call is what makes index builds,
        censuses, and batched queries on discrete data cheap.  ``L_2``
        returns its rows with their squared norms
        (:class:`~repro.metrics.minkowski.EncodedVectors`), which only its
        :meth:`grouped_distances` reads: the form a refine caller holds
        resident.  The default returns ``None``: no encoded path, scalar
        or ndarray-vectorized ``matrix`` applies.  Encodings must support
        ``len()`` so instrumentation can count matrix entries.
        """
        return None

    def matrix_encoded(self, xs_encoded: Any, ys_encoded: Any) -> np.ndarray:
        """Distance matrix between two collections encoded by :meth:`encode`.

        Only meaningful for metrics whose :meth:`encode` returns a
        non-``None`` encoding; values must equal :meth:`matrix` on the
        decoded collections entry for entry.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no encoded matrix kernel"
        )

    def batch_distances_within(
        self, queries: Sequence[Any], points: Sequence[Any], radius: float
    ) -> np.ndarray:
        """Distance matrix specialized for range filtering at ``radius``.

        Entries whose true distance is ``<= radius`` are exact; entries
        beyond the radius may be replaced by any *lower bound* that still
        exceeds ``radius``, which lets metrics skip work on pairs a range
        query will discard (the Levenshtein length-gap prefilter and
        early-exit pruning).  The default computes the full exact matrix.
        """
        return self.batch_distances(queries, points)

    def batch_distances(
        self, queries: Sequence[Any], points: Sequence[Any]
    ) -> np.ndarray:
        """Return the ``len(queries) x len(points)`` distance matrix.

        This is the primitive behind every batched query path: row ``i``
        holds the distances from ``queries[i]`` to each point.  The default
        delegates to :meth:`matrix`, so metrics with a vectorized
        ``matrix`` override (the Minkowski family, matrix-backed spaces)
        are vectorized here for free, while string/tree/document metrics
        keep the scalar loop fallback.
        """
        return self.matrix(queries, points)

    def grouped_distances(
        self,
        queries: Sequence[Any],
        points: Sequence[Any],
        point_ids: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """Distances from each query to its own group of points, flat.

        Query ``i``'s group is ``point_ids[offsets[i]:offsets[i + 1]]``
        (indices into ``points``; ``offsets`` has ``len(queries) + 1``
        entries), and entry ``j`` of the ``float64`` result is the
        distance from the query whose group holds ``j`` to
        ``points[point_ids[j]]`` — the shape of a refine step, where
        every query of a chunk brings its own candidates.  ``points`` may
        be the collection or its :meth:`encode` form, which a caller that
        refines against one database over and over holds resident.  The
        default is one :meth:`batch_distances` call per non-empty group,
        so its values are exactly that call's; a metric with a kernel for
        the whole pair set overrides it (edit distance), as does ``L_2``,
        which reads its rows' norms from the encoding with the same
        values.
        """
        out = np.empty(len(point_ids), dtype=np.float64)
        for i in range(len(queries)):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            if lo < hi:
                out[lo:hi] = self.batch_distances(
                    [queries[i]], take_points(points, point_ids[lo:hi])
                )[0]
        return out

    def to_sites(self, points: Sequence[Any], sites: Sequence[Any]) -> np.ndarray:
        """Return the ``n x k`` matrix of distances from points to sites.

        This is the primitive underlying distance-permutation computation:
        row ``i`` holds the distances from ``points[i]`` to every site.
        """
        return self.matrix(points, sites)

    def to_sites_compact(
        self, points: Sequence[Any], sites: Sequence[Any]
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """:meth:`to_sites` in row blocks, for callers that only *rank*.

        Yields ``(start, stop, block)`` in row order, covering every
        point once: ``block`` holds the distances of ``points[start:stop]``
        to every site, entry for entry the values of :meth:`to_sites`,
        but in whatever real or integer dtype and memory order the
        metric's kernel produces them.  The rank kernels
        (:func:`~repro.core.permutation.site_ranks`, the census) compare
        site columns with each other and never do arithmetic on them, and
        consume each block before asking for the next, so a metric whose
        kernel works in row chunks (the Minkowski family) yields its
        chunks and the whole ``(n, k)`` float64 matrix never exists,
        while one whose kernel emits narrow integer columns (edit
        distance: one byte per entry, one contiguous row per site)
        yields them whole.  The default is one block, :meth:`to_sites`.
        """
        yield 0, len(points), self.to_sites(points, sites)

    def pairwise(self, xs: Sequence[Any]) -> np.ndarray:
        """Return the symmetric all-pairs distance matrix of ``xs``.

        When the subclass overrides :meth:`matrix` with a vectorized
        implementation, the whole matrix is computed in one batched call
        and then symmetrized (exact symmetry and a zero diagonal despite
        float error).  Otherwise only the upper triangle is computed with
        the scalar metric; the lower triangle and the zero diagonal are
        filled in by symmetry.
        """
        if type(self).matrix is not Metric.matrix:
            out = np.asarray(self.matrix(xs, xs), dtype=np.float64)
            out = 0.5 * (out + out.T)
            np.fill_diagonal(out, 0.0)
            return out
        n = len(xs)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                d = self.distance(xs[i], xs[j])
                out[i, j] = d
                out[j, i] = d
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CountingMetric(Metric):
    """Wrap a metric and count how many distances have been evaluated.

    Batch calls count one evaluation per matrix entry, matching the cost
    model of the SISAP library where batch operations are loops over the
    scalar metric.
    """

    def __init__(self, inner: Metric):
        self.inner = inner
        self.name = inner.name
        self.count = 0

    def reset(self) -> None:
        """Zero the evaluation counter."""
        self.count = 0

    def distance(self, x: Any, y: Any) -> float:
        self.count += 1
        return self.inner.distance(x, y)

    def matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        self.count += len(xs) * len(ys)
        return self.inner.matrix(xs, ys)

    def grouped_distances(
        self,
        queries: Sequence[Any],
        points: Sequence[Any],
        point_ids: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        # One evaluation per (query, point) pair, duplicates included.
        self.count += len(point_ids)
        return self.inner.grouped_distances(queries, points, point_ids, offsets)

    def encode(self, points: Sequence[Any]) -> Any:
        # Encoding is preprocessing, not a distance evaluation.
        return self.inner.encode(points)

    def matrix_encoded(self, xs_encoded: Any, ys_encoded: Any) -> np.ndarray:
        self.count += len(xs_encoded) * len(ys_encoded)
        return self.inner.matrix_encoded(xs_encoded, ys_encoded)

    def batch_distances_within(
        self, queries: Sequence[Any], points: Sequence[Any], radius: float
    ) -> np.ndarray:
        # Pruned entries still count: the cost model charges one
        # evaluation per matrix entry, pruned or not, so batched range
        # accounting matches the looped scalar scan exactly.
        self.count += len(queries) * len(points)
        return self.inner.batch_distances_within(queries, points, radius)

    def to_sites_compact(
        self, points: Sequence[Any], sites: Sequence[Any]
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        # Charged at the call, once for all blocks, like matrix.
        self.count += len(points) * len(sites)
        return self.inner.to_sites_compact(points, sites)

    def pairwise(self, xs: Sequence[Any]) -> np.ndarray:
        n = len(xs)
        self.count += n * (n - 1) // 2
        return self.inner.pairwise(xs)

    def __repr__(self) -> str:
        return f"CountingMetric({self.inner!r}, count={self.count})"
