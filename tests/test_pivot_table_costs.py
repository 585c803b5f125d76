"""Pinned query costs of the pivot-table family (AESA, iAESA, LAESA).

The three indexes are exact, so their answers are covered by
``test_index_exactness.py``; what a refactor of their loops can still
change silently is the *order* of evaluation, and with it the number of
distances a query spends.  These counts were recorded on seeded
fixtures and must not move: a change that keeps the answers but
evaluates more (or fewer) distances is a different algorithm.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.dictionaries import synthetic_dictionary
from repro.index import AESA, IAESA, PivotIndex
from repro.metrics import EuclideanDistance, LevenshteinDistance


def _vectors():
    rng = np.random.default_rng(47)
    points = rng.random((500, 4))
    return points, list(rng.random((10, 4))), EuclideanDistance(), 0.2


def _strings():
    words = synthetic_dictionary("English", 200, np.random.default_rng(48))
    picks = np.random.default_rng(49).choice(words, size=8, replace=False)
    queries = [word[:-1] + "q" for word in picks]
    return words, queries, LevenshteinDistance(), 2


_FIXTURES = {"vectors": _vectors, "strings": _strings}

_INDEXES = {
    "aesa": AESA,
    "iaesa": IAESA,
    "laesa": lambda points, metric: PivotIndex(
        points, metric, n_pivots=8, rng=np.random.default_rng(50)
    ),
}

#: Total ``stats.query_distances`` over each fixture's query set:
#: kNN at k = 1 and k = 5, and one range radius (0.2 on the vectors,
#: edit distance 2 on the words).
PINNED = {
    ("vectors", "aesa"): {"knn1": 68, "knn5": 140, "range": 111},
    ("vectors", "iaesa"): {"knn1": 93, "knn5": 173, "range": 121},
    ("vectors", "laesa"): {"knn1": 101, "knn5": 177, "range": 148},
    ("strings", "aesa"): {"knn1": 67, "knn5": 561, "range": 70},
    ("strings", "iaesa"): {"knn1": 72, "knn5": 581, "range": 72},
    ("strings", "laesa"): {"knn1": 173, "knn5": 1472, "range": 656},
}

#: The maxmin pivots LAESA draws from ``default_rng(50)`` on each fixture.
PINNED_PIVOTS = {
    "vectors": [390, 59, 45, 184, 362, 470, 416, 345],
    "strings": [156, 8, 18, 31, 74, 91, 16, 43],
}


@pytest.fixture(scope="module", params=sorted(_FIXTURES))
def fixture(request):
    return request.param, _FIXTURES[request.param]()


@pytest.mark.parametrize("index_name", sorted(_INDEXES))
def test_query_distances_are_pinned(fixture, index_name):
    name, (points, queries, metric, radius) = fixture
    index = _INDEXES[index_name](points, metric)
    spent = {}
    for workload in ("knn1", "knn5", "range"):
        index.reset_stats()
        for query in queries:
            if workload == "range":
                index.range_query(query, radius)
            else:
                index.knn_query(query, int(workload[3:]))
        spent[workload] = index.stats.query_distances
    assert spent == PINNED[name, index_name]


def test_laesa_pivots_are_pinned(fixture):
    name, (points, _, metric, _) = fixture
    index = _INDEXES["laesa"](points, metric)
    assert [int(i) for i in index.pivot_indices] == PINNED_PIVOTS[name]
