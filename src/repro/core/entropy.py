"""Entropy accounting: how far fixed-width permutation ids are from optimal.

The paper notes that "for smaller databases a more sophisticated structure
may be possible, taking into account the special structure of the set of
permutations".  The first such structure is an entropy code: permutation
frequencies in real databases are highly skewed, so the Shannon entropy of
the id distribution lower-bounds the achievable bits per element, below
the fixed ``ceil(log2 N)`` of the plain table encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.storage import bits_for_count

__all__ = ["EntropyReport", "entropy_report"]


def _entropy_of_counts(counts: np.ndarray) -> float:
    """Shannon entropy (bits/element) of positive occurrence counts."""
    probabilities = counts / counts.sum()
    return float(-(probabilities * np.log2(probabilities)).sum())


@dataclass(frozen=True)
class EntropyReport:
    """Fixed-width versus entropy-coded storage for one id distribution."""

    n: int
    distinct: int
    fixed_bits: int
    entropy_bits: float

    @property
    def savings_fraction(self) -> float:
        """Fraction of the fixed-width payload an entropy code removes."""
        if self.fixed_bits == 0:
            return 0.0
        return 1.0 - self.entropy_bits / self.fixed_bits

    def as_row(self) -> str:
        return (
            f"n={self.n:>8} distinct={self.distinct:>8} "
            f"fixed={self.fixed_bits:>3}b/elt "
            f"entropy={self.entropy_bits:6.2f}b/elt "
            f"savings={100 * self.savings_fraction:5.1f}%"
        )


def entropy_report(counts: Sequence[int]) -> EntropyReport:
    """Build an :class:`EntropyReport` from per-permutation occurrence
    counts — a census's ``counts``, so no per-element id array is needed.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0 or counts.min() < 1:
        raise ValueError("need at least one positive count")
    return EntropyReport(
        n=int(counts.sum()),
        distinct=int(counts.size),
        fixed_bits=bits_for_count(int(counts.size)),
        entropy_bits=_entropy_of_counts(counts),
    )
