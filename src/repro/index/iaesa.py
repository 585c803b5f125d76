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

from repro.core.permutation import permutation_positions
from repro.index.aesa import AESA

__all__ = ["IAESA"]


class IAESA(AESA):
    """Improved AESA: permutation-similarity pivot selection."""

    def _select_next(self, alive: np.ndarray, lower: np.ndarray,
                     used: List[int], query_distances: List[float]) -> int:
        if len(used) < 2:
            # Not enough pivots for a meaningful permutation; fall back to
            # the AESA rule (smallest lower bound).
            return super()._select_next(alive, lower, used, query_distances)
        candidates = np.flatnonzero(alive)
        # One 2-D pass: footrule_matrix_batch loops over the sites, ≈ 2x
        # slower here once dozens of pivots are used.
        positions = permutation_positions(np.argsort(
            self.matrix[np.ix_(candidates, used)], axis=1, kind="stable"
        ))
        query_positions = permutation_positions(
            np.argsort(query_distances, kind="stable")
        )
        footrules = np.abs(positions - query_positions).sum(axis=1)
        return int(candidates[np.argmin(footrules)])
