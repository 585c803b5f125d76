"""Metric-space substrate: distance functions used throughout the library.

Every metric implements the :class:`~repro.metrics.base.Metric` interface,
providing single-pair distances, vectorized point-to-sites matrices, and
optional distance-evaluation counting used by the index substrate to report
search cost the way the similarity-search literature does (number of metric
evaluations, not wall-clock time).
"""

from repro.metrics.base import CountingMetric, Metric
from repro.metrics.documents import AngularDistance, CosineDissimilarity
from repro.metrics.encoding import (
    EncodedStrings,
    encode_strings,
)
from repro.metrics.matrixmetric import (
    MatrixMetric,
    metric_closure,
    random_metric_space,
)
from repro.metrics.minkowski import (
    ChebyshevDistance,
    CityblockDistance,
    EuclideanDistance,
    MinkowskiMetric,
    minkowski_distance,
)
from repro.metrics.strings import (
    HammingDistance,
    LevenshteinDistance,
    PrefixDistance,
    StringMetric,
    hamming,
    levenshtein,
    longest_common_prefix,
    prefix_distance,
)
from repro.metrics.trees import TreeMetric, path_tree_metric, random_tree_metric
from repro.metrics.validation import (
    MetricViolation,
    check_identity,
    check_metric_axioms,
    check_symmetry,
    check_triangle_inequality,
)

__all__ = [
    "AngularDistance",
    "ChebyshevDistance",
    "CityblockDistance",
    "CosineDissimilarity",
    "CountingMetric",
    "EncodedStrings",
    "EuclideanDistance",
    "HammingDistance",
    "LevenshteinDistance",
    "MatrixMetric",
    "Metric",
    "MetricViolation",
    "MinkowskiMetric",
    "PrefixDistance",
    "StringMetric",
    "TreeMetric",
    "check_identity",
    "check_metric_axioms",
    "check_symmetry",
    "check_triangle_inequality",
    "encode_strings",
    "hamming",
    "levenshtein",
    "longest_common_prefix",
    "metric_closure",
    "minkowski_distance",
    "path_tree_metric",
    "prefix_distance",
    "random_metric_space",
    "random_tree_metric",
]
