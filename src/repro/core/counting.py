"""Counting theory: how many distance permutations can occur.

Implements the paper's combinatorial results with exact integer
arithmetic:

- Price's cake numbers ``S_d(m)`` — pieces formed by ``m`` hyperplanes in
  general position in ``d`` dimensions;
- Theorem 7's recurrence for the exact Euclidean maximum ``N_{d,2}(k)``
  (regenerating Table 1);
- Corollary 8's bounds ``N_{d,2}(k) <= k^{2d}`` with leading term
  ``k^{2d} / (2^d d!)``;
- Theorem 4's tree-metric bound ``C(k,2) + 1``;
- Theorem 9's L1/L∞ bounds via piecewise-linear bisectors.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, Union

__all__ = [
    "cake_number",
    "euclidean_permutation_count",
    "euclidean_table",
    "euclidean_upper_bound",
    "euclidean_leading_term",
    "tree_permutation_bound",
    "l1_hyperplanes_per_bisector",
    "linf_hyperplanes_per_bisector",
    "lp_permutation_bound",
    "max_permutations",
]

#: Table 1 of the paper, for regression tests: ``PAPER_TABLE1[d][k]``.
PAPER_TABLE1: Dict[int, Dict[int, int]] = {
    1: {2: 2, 3: 4, 4: 7, 5: 11, 6: 16, 7: 22, 8: 29, 9: 37, 10: 46, 11: 56, 12: 67},
    2: {2: 2, 3: 6, 4: 18, 5: 46, 6: 101, 7: 197, 8: 351, 9: 583, 10: 916, 11: 1376, 12: 1992},
    3: {2: 2, 3: 6, 4: 24, 5: 96, 6: 326, 7: 932, 8: 2311, 9: 5119, 10: 10366, 11: 19526, 12: 34662},
    4: {2: 2, 3: 6, 4: 24, 5: 120, 6: 600, 7: 2556, 8: 9080, 9: 27568, 10: 73639, 11: 177299, 12: 392085},
    5: {2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 7: 4320, 8: 22212, 9: 94852, 10: 342964, 11: 1079354, 12: 3029643},
    6: {2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 7: 5040, 8: 35280, 9: 212976, 10: 1066644, 11: 4496284, 12: 16369178},
    7: {2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 7: 5040, 8: 40320, 9: 322560, 10: 2239344, 11: 12905784, 12: 62364908},
    8: {2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 7: 5040, 8: 40320, 9: 362880, 10: 3265920, 11: 25659360, 12: 167622984},
    9: {2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 7: 5040, 8: 40320, 9: 362880, 10: 3628800, 11: 36288000, 12: 318540960},
    10: {2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 7: 5040, 8: 40320, 9: 362880, 10: 3628800, 11: 39916800, 12: 439084800},
}


def cake_number(d: int, m: int) -> int:
    """Return ``S_d(m)``: pieces cut from ``R^d`` by ``m`` generic hyperplanes.

    Price's recurrence ``S_d(m) = S_d(m-1) + S_{d-1}(m-1)`` with
    ``S_d(0) = S_0(m) = 1`` has the closed form
    ``S_d(m) = sum_{i=0}^{d} C(m, i)``; we compute the closed form and the
    tests cross-check it against the recurrence.
    """
    if d < 0 or m < 0:
        raise ValueError("cake_number requires d >= 0 and m >= 0")
    return sum(math.comb(m, i) for i in range(min(d, m) + 1))


@lru_cache(maxsize=None)
def euclidean_permutation_count(d: int, k: int) -> int:
    """Return ``N_{d,2}(k)``: max distance permutations in Euclidean ``R^d``.

    Theorem 7:  ``N_{0,2}(k) = N_{d,2}(1) = 1`` and
    ``N_{d,2}(k) = N_{d,2}(k-1) + (k-1) N_{d-1,2}(k-1)``.
    Exact integer arithmetic; values regenerate Table 1.
    """
    if d < 0 or k < 1:
        raise ValueError("euclidean_permutation_count requires d >= 0, k >= 1")
    if d == 0 or k == 1:
        return 1
    return euclidean_permutation_count(d, k - 1) + (k - 1) * euclidean_permutation_count(
        d - 1, k - 1
    )


def euclidean_table(
    dims: Iterable[int] = range(1, 11), ks: Iterable[int] = range(2, 13)
) -> Dict[int, Dict[int, int]]:
    """Return Table 1 as ``{d: {k: N_{d,2}(k)}}``."""
    return {d: {k: euclidean_permutation_count(d, k) for k in ks} for d in dims}


def euclidean_upper_bound(d: int, k: int) -> int:
    """Corollary 8's bound: ``N_{d,2}(k) <= k^{2d}``."""
    if d < 0 or k < 1:
        raise ValueError("bound requires d >= 0, k >= 1")
    return k ** (2 * d)


def euclidean_leading_term(d: int, k: int) -> float:
    """Corollary 8's asymptotic leading term ``k^{2d} / (2^d d!)``."""
    if d < 0 or k < 1:
        raise ValueError("leading term requires d >= 0, k >= 1")
    return float(k ** (2 * d)) / (2**d * math.factorial(d))


def tree_permutation_bound(k: int) -> int:
    """Theorem 4: at most ``C(k,2) + 1`` distance permutations in a tree metric."""
    if k < 1:
        raise ValueError("tree bound requires k >= 1")
    return math.comb(k, 2) + 1


def l1_hyperplanes_per_bisector(d: int) -> int:
    """Theorem 9: an L1 bisector in ``R^d`` lies in a union of ``2^{2d}`` hyperplanes.

    Each of the two distances equals one of ``2^d`` linear functions (one
    per sign pattern of the per-component differences), so the bisector is
    contained in the union of all ``2^d * 2^d`` pairwise equalities.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return 2 ** (2 * d)


def linf_hyperplanes_per_bisector(d: int) -> int:
    """Theorem 9: an L∞ bisector in ``R^d`` lies in a union of ``4d^2`` hyperplanes.

    Each distance equals ``±(x_i - z_i)`` for one of ``d`` coordinates and
    one of two signs — ``2d`` linear functions — giving ``(2d)^2``
    hyperplanes for the equality.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return 4 * d * d


def lp_permutation_bound(d: int, k: int, p: Union[int, float]) -> int:
    """Theorem 9's concrete upper bound on ``N_{d,p}(k)`` for p in {1, 2, inf}.

    Every bisector lies in a union of ``h(d)`` hyperplanes, so the cell
    count is at most ``S_d(h(d) * C(k,2))`` — cutting the cake with all the
    hyperplanes extended and in general position.  For ``p = 2`` the exact
    Theorem 7 count is returned instead.  The result is additionally capped
    at ``k!`` since only ``k!`` permutations exist.
    """
    if d < 0 or k < 1:
        raise ValueError("bound requires d >= 0, k >= 1")
    if d == 0 or k == 1:
        return 1
    if p == 2:
        bound = euclidean_permutation_count(d, k)
    elif p == 1:
        bound = cake_number(d, l1_hyperplanes_per_bisector(d) * math.comb(k, 2))
    elif p == math.inf:
        bound = cake_number(d, linf_hyperplanes_per_bisector(d) * math.comb(k, 2))
    else:
        raise ValueError(f"Theorem 9 covers p in {{1, 2, inf}}, got p={p}")
    return min(bound, math.factorial(k))


def max_permutations(d: int, k: int, p: Union[int, float] = 2) -> int:
    """Best known upper bound on distinct distance permutations in ``L_p^d``.

    Exact for ``p = 2`` (Theorem 7); Theorem 9's cake bound for
    ``p in {1, inf}``; always capped at ``k!`` and achieving ``k!`` for
    ``d >= k - 1`` (Theorem 6).
    """
    if 1 <= k <= d + 1:
        return math.factorial(k)
    return lp_permutation_bound(d, k, p)
