"""Truncated distance permutations: store only the nearest ``m`` of ``k``.

A natural follow-up to the paper (and the direction later permutation
indexes took): if the full permutation needs too many bits, keep only the
prefix naming the ``m`` closest sites.  This module counts distinct
prefixes the same way the paper counts full permutations, bounding prefix
storage at ``ceil(log2 #prefixes)`` bits.

The count of length-``m`` prefixes is the number of cells of the
*order-m ordered* Voronoi diagram, sandwiched between the order-1 diagram
(``m = 1``: at most ``k`` cells) and the full diagram (``m = k``, the
paper's object); the census curve over ``m`` shows where the information
in the permutation saturates.

:func:`prefix_census_curve` takes one census of Lehmer codes: a
code's first ``m`` ranks are ``code // (k - m)!``, so the ``N`` distinct
codes serve every ``m``.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from repro.core.estimate import StreamingCensus
from repro.core.storage import bits_for_count
from repro.metrics.base import Metric

__all__ = [
    "prefix_census_curve",
    "prefix_storage_bits",
]


def prefix_storage_bits(count: int) -> int:
    """Bits per element for a table of ``count`` realized prefixes."""
    return bits_for_count(count)


def prefix_census_curve(
    points: Sequence,
    sites: Sequence,
    metric: Metric,
) -> Dict[int, int]:
    """Distinct-prefix counts for every ``m = 1..k`` on one site set.

    One census of the full permutations serves every prefix length.  The
    curve is monotone nondecreasing in ``m`` by construction and its
    flattening point is where extra permutation positions stop adding
    information (the storage-versus-selectivity trade-off knob).
    """
    k = len(sites)
    census = StreamingCensus().update_points(points, sites, metric)
    codes = census.codes if census.distinct else np.empty(0, np.uint64)
    return {
        m: int(np.unique(codes // math.factorial(k - m)).shape[0])
        for m in range(1, k + 1)
    }
