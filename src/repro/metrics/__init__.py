"""Metric-space substrate: distance functions used throughout the library.

Every metric implements the :class:`~repro.metrics.base.Metric` interface,
providing single-pair distances, vectorized point-to-sites matrices, and
optional distance-evaluation counting used by the index substrate to report
search cost the way the similarity-search literature does (number of metric
evaluations, not wall-clock time).
"""

from repro.metrics.base import CountingMetric, Metric
from repro.metrics.documents import AngularDistance
from repro.metrics.encoding import (
    EncodedStrings,
    encode_strings,
)
from repro.metrics.minkowski import (
    ChebyshevDistance,
    CityblockDistance,
    EncodedVectors,
    EuclideanDistance,
    MinkowskiMetric,
    minkowski_distance,
)
from repro.metrics.strings import (
    LevenshteinDistance,
    PrefixDistance,
    StringMetric,
    levenshtein,
    longest_common_prefix,
    prefix_distance,
)
from repro.metrics.trees import TreeMetric, path_tree_metric, random_tree_metric

__all__ = [
    "AngularDistance",
    "ChebyshevDistance",
    "CityblockDistance",
    "CountingMetric",
    "EncodedStrings",
    "EncodedVectors",
    "EuclideanDistance",
    "LevenshteinDistance",
    "Metric",
    "MinkowskiMetric",
    "PrefixDistance",
    "StringMetric",
    "TreeMetric",
    "encode_strings",
    "levenshtein",
    "longest_common_prefix",
    "minkowski_distance",
    "path_tree_metric",
    "prefix_distance",
    "random_tree_metric",
]
