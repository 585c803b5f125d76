"""Census estimation for databases too large to enumerate.

The paper counts unique permutations exactly (``sort | uniq | wc``).  For
databases that do not fit in memory two standard tools apply:

- :class:`StreamingCensus` — an exact streaming counter over permutation
  batches (bounded by the number of *distinct* permutations, which the
  paper shows is small, not by ``n``);
- :func:`chao1_estimate` — the Chao1 species-richness estimator: from the
  singleton/doubleton counts of a *sample*, estimate how many
  permutations the whole space realizes, including ones not yet seen.
  This quantifies the paper's remark that an observed census "is a lower
  bound; even more permutations may exist".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.permutation import encode_permutations, site_ranks
from repro.metrics.base import Metric

__all__ = ["StreamingCensus", "chao1_estimate", "sampled_census_estimate"]


def _collapse_sorted(
    codes: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum counts of equal adjacent codes in a sorted ``(code, count)`` run."""
    if codes.shape[0] == 0:
        return codes, counts
    boundaries = np.empty(codes.shape[0], dtype=bool)
    boundaries[0] = True
    boundaries[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(boundaries)
    return codes[starts], np.add.reduceat(counts, starts)


def _merge_sorted(
    codes_a: np.ndarray,
    counts_a: np.ndarray,
    codes_b: np.ndarray,
    counts_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two sorted ``(code, count)`` runs into one, summing duplicates.

    ``kind="stable"`` is a mergesort, which detects the two presorted runs
    and merges them in linear time.
    """
    codes = np.concatenate([codes_a, codes_b])
    counts = np.concatenate([counts_a, counts_b])
    order = np.argsort(codes, kind="stable")
    return _collapse_sorted(codes[order], counts[order])


class StreamingCensus:
    """Exact unique-permutation counting over streamed batches.

    The census is keyed on *permutation codes*
    (:func:`~repro.core.permutation.encode_permutations`): one integer per
    permutation, held as a sorted 1-D ``uint64`` array (an ``object``
    array of exact Python ints past ``k = 20``) with an aligned ``int64``
    count array.  Dedup is one integer :func:`np.unique` instead of a
    byte-row sort, and merging is a linear merge of sorted runs — no
    Python-level per-key work anywhere.  Memory is proportional to the
    number of distinct permutations seen — by the paper's results
    ``O(min(n, N_{d,p}(k)))`` — never to the number of points processed.

    Rows folded into one census must share a width ``k``, and censuses
    only merge when built from the same code family (``"lehmer"`` for
    :meth:`update`, ``"prefix"`` for the sharded prefix-census driver);
    mixing either raises instead of silently conflating code spaces.

    A ``"prefix"`` census of width ``k`` also holds every narrower one:
    insertion codes are prefix-monotone, so :meth:`restricted` derives
    the census of the first ``j <= k`` sites from the sorted run by one
    floor division and one collapse — the prefix-census drivers sort
    once, at the widest width, and restrict to the rest.
    """

    def __init__(self) -> None:
        self._codes: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._k: Optional[int] = None
        self._coding: Optional[str] = None
        self._total = 0

    def _check_key(self, k: int, coding: str) -> None:
        if self._k is None:
            self._k, self._coding = k, coding
        elif (self._k, self._coding) != (k, coding):
            raise ValueError(
                f"census keyed on {self._coding!r} codes of width "
                f"{self._k} cannot absorb {coding!r} codes of width {k}"
            )

    def update(self, perms: np.ndarray) -> None:
        """Fold one ``(n, k)`` batch of permutations into the census.

        Rows must be permutations of ``0..k-1`` (out-of-range values
        raise; in-row duplicates are undetected — codes are injective
        only on genuine permutations).  Each row is encoded to one
        integer, the batch deduplicated with a flat :func:`np.unique`,
        and the ``(code, count)`` run merged into the sorted state.
        """
        perms = np.asarray(perms)
        if perms.ndim != 2:
            raise ValueError(f"expected (n, k) batch, got {perms.shape}")
        n, k = perms.shape
        if n == 0:
            return
        self.update_codes(encode_permutations(perms), k)

    def update_codes(
        self, codes: np.ndarray, k: int, *, coding: str = "lehmer"
    ) -> None:
        """Fold a batch of already-encoded permutations into the census.

        The code hot path: shard workers and benchmarks encode once and
        feed the 1-D array straight in.  ``coding`` names the code family
        (``"lehmer"`` from :func:`encode_permutations`, ``"prefix"`` from
        :func:`~repro.core.permutation.prefix_codes_from_distances`) so
        incompatible censuses refuse to merge.
        """
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise ValueError(f"expected a 1-d code array, got {codes.shape}")
        if codes.shape[0] == 0:
            return
        self._check_key(int(k), coding)
        unique, counts = np.unique(codes, return_counts=True)
        counts = counts.astype(np.int64, copy=False)
        if self._codes is None:
            self._codes, self._counts = unique, counts
        else:
            self._codes, self._counts = _merge_sorted(
                self._codes, self._counts, unique, counts
            )
        self._total += codes.shape[0]

    def update_points(
        self, points: Sequence, sites: Sequence, metric: Metric
    ) -> "StreamingCensus":
        """Compute and fold a batch of database points; returns ``self``.

        The Lehmer codes come from the build's rank kernel
        (:func:`~repro.core.permutation.site_ranks`), one metric row
        block at a time, so a NaN distance raises ``ValueError``.
        """
        codes, _ = site_ranks(points, sites, metric)
        self.update_codes(codes, len(sites))
        return self

    def merge(self, other: "StreamingCensus") -> "StreamingCensus":
        """Fold another census into this one, in place; returns ``self``.

        Censuses are exactly mergeable: each is a multiset of permutation
        codes, so merging sums occurrence counts code by code — a linear
        merge of two sorted runs.  A census of a whole database equals
        the merge of censuses over any partition of it — the property the
        sharded census driver relies on.  Both censuses must hold the
        same code family and width (:meth:`update_codes`).
        """
        if other is self:
            raise ValueError("cannot merge a census into itself")
        if other._codes is not None:
            self._check_key(other._k, other._coding)
            if self._codes is None:
                self._codes = other._codes.copy()
                self._counts = other._counts.copy()
            else:
                self._codes, self._counts = _merge_sorted(
                    self._codes, self._counts, other._codes, other._counts
                )
        self._total += other._total
        return self

    @classmethod
    def merged(cls, censuses: Iterable["StreamingCensus"]) -> "StreamingCensus":
        """Merge any number of partial censuses into a fresh one.

        A true k-way merge: every partial's sorted ``(code, count)`` run
        is concatenated once and collapsed with a single mergesort pass,
        instead of pairwise re-merging census by census.  A lone
        non-empty partial (every serial census) is already sorted and
        collapsed, so its run is copied, never aliased.
        """
        out = cls()
        code_runs, count_runs = [], []
        for census in censuses:
            out._total += census._total
            if census._codes is None:
                continue
            out._check_key(census._k, census._coding)
            code_runs.append(census._codes)
            count_runs.append(census._counts)
        if len(code_runs) == 1:
            out._codes = code_runs[0].copy()
            out._counts = count_runs[0].copy()
        elif code_runs:
            codes = np.concatenate(code_runs)
            counts = np.concatenate(count_runs)
            order = np.argsort(codes, kind="stable")
            out._codes, out._counts = _collapse_sorted(
                codes[order], counts[order]
            )
        return out

    def restricted(self, j: int) -> "StreamingCensus":
        """The census of the first ``j`` sites, derived without a sort.

        Valid on a ``"prefix"`` census of width ``k >= j``.  Insertion
        codes extend as ``code_{m+1} = code_m * (m + 1) + digit_m`` with
        ``digit_m <= m``, so ``code_j = code_k // (k! / j!)`` exactly, and
        floor division by a positive constant is monotone: the sorted
        distinct codes stay sorted, and equal neighbours collapse in one
        pass.  The result — codes, dtype, counts and total — is
        byte-identical to the census folded directly from the same
        :func:`~repro.core.permutation.prefix_codes_from_distances` call
        at width ``j`` (``uint64`` codes through ``k = 20``, exact Python
        ints beyond, kept at every narrower width).  A fresh census; this
        one is not modified.  A census with no codes restricts to an empty
        one; a ``"lehmer"`` census or ``j`` outside ``0..k`` raises.
        """
        j = int(j)
        out = StreamingCensus()
        if self._codes is None:
            if j < 0:
                raise ValueError(f"prefix width must be >= 0, got {j}")
            return out
        if self._coding != "prefix":
            raise ValueError(
                f"only prefix-coded censuses restrict; this one holds "
                f"{self._coding!r} codes"
            )
        if not 0 <= j <= self._k:
            raise ValueError(
                f"cannot restrict a width-{self._k} census to width {j}"
            )
        out._k, out._coding, out._total = j, self._coding, self._total
        if j == self._k:
            out._codes, out._counts = self._codes.copy(), self._counts.copy()
            return out
        divisor = math.factorial(self._k) // math.factorial(j)
        if self._codes.dtype != np.dtype(object):
            divisor = np.uint64(divisor)
        out._codes, out._counts = _collapse_sorted(
            self._codes // divisor, self._counts
        )
        return out

    @property
    def distinct(self) -> int:
        return 0 if self._codes is None else int(self._codes.shape[0])

    @property
    def total(self) -> int:
        return self._total

    @property
    def k(self) -> Optional[int]:
        """Permutation width of the folded batches (None before any)."""
        return self._k

    @property
    def coding(self) -> Optional[str]:
        """Code family the census is keyed on (None before any batch)."""
        return self._coding

    @property
    def codes(self) -> Optional[np.ndarray]:
        """Sorted distinct permutation codes (read-only view; no copy)."""
        return self._codes

    @property
    def counts(self) -> Optional[np.ndarray]:
        """Occurrence counts aligned with :attr:`codes`."""
        return self._counts

    def frequency_of_frequencies(self) -> Dict[int, int]:
        """Return ``{occurrence count: number of permutations}``."""
        if self._counts is None:
            return {}
        values, frequencies = np.unique(self._counts, return_counts=True)
        return {
            int(value): int(frequency)
            for value, frequency in zip(values, frequencies)
        }

    def chao1(self) -> float:
        """Chao1 estimate of the total realizable permutations."""
        return chao1_estimate(self.frequency_of_frequencies(), self.distinct)


def chao1_estimate(
    frequency_of_frequencies: Dict[int, int], observed: Optional[int] = None
) -> float:
    """Chao1 species-richness estimator.

    ``S = S_obs + f1^2 / (2 f2)`` with the bias-corrected form
    ``S_obs + f1 (f1 - 1) / (2 (f2 + 1))`` when no doubletons exist.
    ``f1`` is the number of permutations seen exactly once, ``f2`` exactly
    twice.  The estimate is a lower bound on richness in expectation, and
    is always >= the observed count.
    """
    if observed is None:
        observed = sum(frequency_of_frequencies.values())
    if observed < 0:
        raise ValueError("observed count must be nonnegative")
    f1 = frequency_of_frequencies.get(1, 0)
    f2 = frequency_of_frequencies.get(2, 0)
    if f1 == 0:
        return float(observed)
    if f2 == 0:
        return observed + f1 * (f1 - 1) / 2.0
    return observed + f1 * f1 / (2.0 * f2)


@dataclass(frozen=True)
class SampledCensus:
    """Result of a sample-based census estimate."""

    sample_size: int
    observed: int
    chao1: float


def sampled_census_estimate(
    points: Sequence,
    sites: Sequence,
    metric: Metric,
    sample_size: int,
    rng: Optional[np.random.Generator] = None,
) -> SampledCensus:
    """Estimate a database's permutation census from a uniform sample.

    Computes permutations for ``sample_size`` points drawn without
    replacement, returning both the observed unique count (a lower bound)
    and the Chao1 extrapolation.
    """
    n = len(points)
    if not 1 <= sample_size <= n:
        raise ValueError(f"need 1 <= sample_size <= {n}")
    rng = rng if rng is not None else np.random.default_rng()
    chosen = rng.choice(n, size=sample_size, replace=False)
    sample = [points[int(i)] for i in chosen]
    census = StreamingCensus().update_points(sample, sites, metric)
    return SampledCensus(
        sample_size=sample_size,
        observed=census.distinct,
        chao1=census.chao1(),
    )
