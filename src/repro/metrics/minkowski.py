"""Minkowski ``L_p`` metrics on real vectors.

The paper's Section 4 studies ``d(x, y) = (sum_i |x_i - y_i|^p)^(1/p)`` for
real ``p >= 1`` and ``d(x, y) = max_i |x_i - y_i|`` for ``p = inf``.  These
implementations are fully vectorized and chunk large batch computations so
that a million-point database against a dozen sites never materializes an
``n x m x d`` intermediate.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.metrics.base import Metric, workspace_buffer

__all__ = [
    "MinkowskiMetric",
    "EncodedVectors",
    "CityblockDistance",
    "EuclideanDistance",
    "ChebyshevDistance",
    "minkowski_distance",
]

#: Rows per chunk in batch distance computation; bounds peak memory at
#: roughly ``_CHUNK_ROWS * m * d`` floats.
_CHUNK_ROWS = 16384


def minkowski_distance(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """Return the ``L_p`` distance between two vectors.

    ``p`` may be any real number ``>= 1`` or ``math.inf``.
    """
    if p < 1:
        raise ValueError(f"L_p requires p >= 1, got p={p}")
    diff = np.abs(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))
    if p == math.inf:
        return float(diff.max()) if diff.size else 0.0
    if p == 1:
        return float(diff.sum())
    if p == 2:
        return float(np.sqrt(np.sum(diff * diff)))
    return float(np.sum(diff**p) ** (1.0 / p))


def _as_2d(points: Union[np.ndarray, Sequence]) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-d point array, got shape {arr.shape}")
    return arr


class EncodedVectors:
    """A vector database as ``L_2`` refine reads it: the ``float64`` rows
    and each row's squared norm.

    The norms are the ``np.sum(rows * rows, axis=1)`` values the ``L_2``
    kernel would compute for any gather of these rows, summed once per
    :data:`_CHUNK_ROWS` rows (8 bytes per point), so a refine that looks
    them up returns the same bits as one that recomputes them.
    """

    __slots__ = ("rows", "norms")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.norms = np.empty(rows.shape[0], dtype=np.float64)
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            block = rows[start : start + _CHUNK_ROWS]
            self.norms[start : start + block.shape[0]] = np.sum(
                block * block, axis=1
            )

    def __len__(self) -> int:
        return self.rows.shape[0]

    def take(self, ids: np.ndarray) -> np.ndarray:
        """The rows ``ids``, as :func:`~repro.metrics.base.take_points`
        gathers them from an array."""
        return np.take(self.rows, ids, axis=0)


class MinkowskiMetric(Metric):
    """The ``L_p`` metric on ``R^d`` for ``p >= 1`` (``p = math.inf`` allowed)."""

    def __init__(self, p: float):
        if p < 1:
            raise ValueError(f"L_p requires p >= 1, got p={p}")
        self.p = p
        if p == math.inf:
            self.name = "Linf"
        elif p == int(p):
            self.name = f"L{int(p)}"
        else:
            self.name = f"L{p}"

    def distance(self, x, y) -> float:
        return minkowski_distance(x, y, self.p)

    def matrix(self, xs, ys) -> np.ndarray:
        a = _as_2d(xs)
        b = _as_2d(ys)
        out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
        for start, stop, block in self._row_blocks(a, b):
            out[start:stop] = block
        return out

    def encode(self, points):
        """``L_2``: the rows with their squared norms held beside them
        (:class:`EncodedVectors`), which :meth:`grouped_distances` reads
        instead of summing every candidate's norm again; other ``p`` have
        no encoded form."""
        if self.p != 2:
            return None
        if isinstance(points, EncodedVectors):
            return points
        return EncodedVectors(np.ascontiguousarray(_as_2d(points)))

    def grouped_distances(self, queries, points, point_ids, offsets):
        if not isinstance(points, EncodedVectors):
            return super().grouped_distances(queries, points, point_ids, offsets)
        a = _as_2d(queries)
        if len(point_ids) and a.shape[1] != points.rows.shape[1]:
            raise ValueError(
                f"dimension mismatch: {a.shape[1]} vs {points.rows.shape[1]}"
            )
        # Per query, the row gather and the (1, d) @ (d, m) product of
        # batch_distances([query], rows), on a fresh query row as that
        # call makes; the rest of _block's L_2 arm is elementwise, so it
        # runs once over the whole group, in place, with the rows' norms
        # looked up.
        a_norms = np.sum(a * a, axis=1)
        norms = np.take(points.norms, point_ids)
        sq = np.empty(len(point_ids), dtype=np.float64)
        for i in range(a.shape[0]):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            if lo < hi:
                rows = points.take(point_ids[lo:hi])
                sq[lo:hi] = (a[i : i + 1].copy() @ rows.T)[0]
                norms[lo:hi] += a_norms[i]
        sq *= 2.0
        np.subtract(norms, sq, out=sq)
        np.maximum(sq, 0.0, out=sq)
        norms *= 1e-10
        suspect = np.flatnonzero(sq <= norms)
        if suspect.shape[0]:
            owner = np.searchsorted(offsets, suspect, side="right") - 1
            diff = a[owner] - points.take(point_ids[suspect])
            sq[suspect] = np.sum(diff * diff, axis=1)
        return np.sqrt(sq, out=sq)

    def to_sites_compact(self, points, sites):
        # The chunks matrix() assembles, handed out one at a time: each
        # equals its rows of to_sites bit for bit.  They share one set of
        # block buffers, so a block lasts until the next is drawn and the
        # blocks after the first fault no fresh pages in.
        return self._row_blocks(_as_2d(points), _as_2d(sites), {})

    def _row_blocks(
        self, a: np.ndarray, b: np.ndarray, workspace: Optional[dict] = None
    ):
        """Yield ``(start, stop, distances)`` per ``_CHUNK_ROWS`` rows of ``a``."""
        if a.shape[1] != b.shape[1]:
            raise ValueError(
                f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
            )
        for start in range(0, a.shape[0], _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, a.shape[0])
            yield start, stop, self._block(a[start:stop], b, workspace)

    def _block(
        self, a: np.ndarray, b: np.ndarray, workspace: Optional[dict] = None
    ) -> np.ndarray:
        """Distances for one chunk of rows; ``a`` is small enough to broadcast.

        With a ``workspace`` the result and the ``L_2`` arm's row-block
        temporaries live in its buffers; the bits are the same.
        """
        shape = (a.shape[0], b.shape[0])
        out = workspace_buffer(workspace, "distances", shape, np.float64)
        if self.p == 2:
            # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b avoids the n*m*d blow-up.
            squares = np.multiply(
                a, a, out=workspace_buffer(workspace, "squares", a.shape, np.float64)
            )
            norms = np.add(
                np.sum(squares, axis=1)[:, None],
                np.sum(b * b, axis=1)[None, :],
                out=workspace_buffer(workspace, "norms", shape, np.float64),
            )
            sq = np.matmul(a, b.T, out=out)
            sq *= 2.0
            np.subtract(norms, sq, out=sq)
            np.maximum(sq, 0.0, out=sq)
            # The subtraction cancels catastrophically when the points
            # (nearly) coincide — a self-distance comes out ~1e-8 instead
            # of 0.  Recompute the few suspect entries directly so batch
            # results match the scalar path exactly there.
            norms *= 1e-10
            suspect = np.less_equal(
                sq, norms, out=workspace_buffer(workspace, "suspect", shape, np.bool_)
            )
            if np.any(suspect):
                rows, cols = np.nonzero(suspect)
                diff = a[rows] - b[cols]
                sq[rows, cols] = np.sum(diff * diff, axis=1)
            return np.sqrt(sq, out=sq)
        # The (rows, sites, d) differences stay a fresh temporary, d times
        # the size of the block.
        diff = np.abs(a[:, None, :] - b[None, :, :])
        if self.p == math.inf:
            return np.max(diff, axis=2, out=out)
        if self.p == 1:
            return np.sum(diff, axis=2, out=out)
        return np.power(np.sum(diff**self.p, axis=2, out=out), 1.0 / self.p, out=out)

    def pairwise(self, xs) -> np.ndarray:
        a = _as_2d(xs)
        out = self.matrix(a, a)
        # Enforce exact symmetry and a zero diagonal despite float error.
        out = 0.5 * (out + out.T)
        np.fill_diagonal(out, 0.0)
        return out

    def __repr__(self) -> str:
        return f"MinkowskiMetric(p={self.p})"


class CityblockDistance(MinkowskiMetric):
    """The ``L_1`` (Manhattan / cityblock) metric."""

    def __init__(self):
        super().__init__(1)


class EuclideanDistance(MinkowskiMetric):
    """The ``L_2`` (Euclidean) metric."""

    def __init__(self):
        super().__init__(2)


class ChebyshevDistance(MinkowskiMetric):
    """The ``L_inf`` (Chebyshev / maximum) metric."""

    def __init__(self):
        super().__init__(math.inf)
