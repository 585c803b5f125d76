"""iAESA: AESA with permutation-based pivot selection (Figueroa et al.).

Identical storage, elimination loop and results to AESA; only the *next*
candidate to evaluate differs.  It is the one whose distance permutation
of the already-evaluated pivots is closest (Spearman footrule) to the
query's — the paper notes this pivot-selection idea is the part of iAESA
that would apply even to LAESA.  Figueroa et al. report fewer distance
evaluations than AESA; on this repository's uniform-vector fixtures it
spends more (``benchmarks/bench_search.py``, 5-NN over 2000 4-d points:
18.7 distances per query against AESA's 12.8).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.index.aesa import AESA, Selector

__all__ = ["IAESA"]


class IAESA(AESA):
    """Improved AESA: permutation-similarity pivot selection."""

    def _selector(self) -> Selector:
        return _PivotRanks(self.matrix, self._select_next).select


class _PivotRanks:
    """One query's iAESA rule, with the rank positions it keeps.

    Each alive candidate holds the rank of every used pivot in its own
    distance order (stable: a tie ranks the earlier pivot first), as does
    the query.  A new pivot is one insertion: it ranks after the pivots
    not farther than it, and each pivot farther than it moves back one.
    So a pick costs one compare, one add and the footrule over the alive
    candidates, where sorting every candidate's pivots anew cost an
    argsort of the whole alive x used submatrix.  Both tables are held
    pivot-major, one contiguous row per pivot, so every pass runs along
    the candidates.
    """

    def __init__(self, matrix: np.ndarray, fallback: Selector):
        self.matrix = matrix
        self.fallback = fallback
        self.ids: np.ndarray  # alive candidates, ascending
        self.distances: np.ndarray  # (pivot, candidate) distances
        self.ranks: np.ndarray  # and each pivot's rank for the candidate
        self.query_ranks: List[int] = []

    def select(self, alive: np.ndarray, lower: np.ndarray,
               used: List[int], query_distances: List[float]) -> int:
        if len(used) < 2:
            # Not enough pivots for a meaningful permutation; fall back to
            # the AESA rule (smallest lower bound).
            return self.fallback(alive, lower, used, query_distances)
        if not self.query_ranks:
            self.ids = np.flatnonzero(alive)
            self.distances = np.empty((0, self.ids.shape[0]))
            self.ranks = np.empty((0, self.ids.shape[0]), dtype=np.int32)
        else:
            keep = alive[self.ids]
            if not keep.all():
                self.ids = self.ids[keep]
                self.distances = self.distances[:, keep]
                self.ranks = self.ranks[:, keep]
        for j in range(len(self.query_ranks), len(used)):
            self._insert(j, used[j], query_distances)
        m = len(used)
        query = np.array(self.query_ranks)[:, None]
        footrules = np.abs(self.ranks[:m] - query).sum(axis=0)
        return int(self.ids[np.argmin(footrules)])

    def _reserve(self, pivots: int) -> None:
        """Room for ``pivots`` rows, doubling the capacity as it fills."""
        have = self.ranks.shape[0]
        if pivots <= have:
            return
        height = max(pivots, 2 * have)
        columns = self.ids.shape[0]
        distances = np.empty((height, columns))
        ranks = np.empty((height, columns), dtype=np.int32)
        distances[:have], ranks[:have] = self.distances, self.ranks
        self.distances, self.ranks = distances, ranks

    def _insert(self, j: int, pivot: int, query_distances: List[float]) -> None:
        """Pivot ``j`` (``used[j]``) into every alive candidate and the query."""
        self._reserve(j + 1)
        # Row ``pivot`` of the symmetric table: a contiguous gather.
        row = np.take(self.matrix[pivot], self.ids)
        farther = self.distances[:j] > row
        self.ranks[:j] += farther
        self.ranks[j] = j - farther.sum(axis=0)
        self.distances[j] = row
        d = query_distances[j]
        behind = [int(earlier > d) for earlier in query_distances[:j]]
        self.query_ranks = [r + b for r, b in zip(self.query_ranks, behind)]
        self.query_ranks.append(j - sum(behind))
