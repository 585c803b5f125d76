"""One traversal per index: hook structure and what the derived surface owes.

An index implements each operation on one surface (per-query hook *or*
batch hook) and :class:`~repro.index.base.Index` derives the other.
These tests pin the structure — which classes define which hooks, and
that a class defining neither is rejected when it is created — and the
two properties the derivation must keep: a single query equals a batch
of one bit for bit, and a batch row's answer and evaluation count do not
depend on which other rows ride in the batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index
from repro.cli import _INDEXES, _sharded_inner
from repro.index import (
    AESA,
    DistPermIndex,
    IAESA,
    Index,
    LinearScan,
    PivotIndex,
    ShardedIndex,
    VPTree,
)
from repro.metrics import EuclideanDistance, LevenshteinDistance

INDEX_CLASSES = [
    cls
    for cls in (getattr(repro.index, name) for name in repro.index.__all__)
    if isinstance(cls, type) and issubclass(cls, Index) and cls is not Index
]

#: The only class allowed a traversal on both surfaces, and why.
BOTH_HOOKS = {
    LinearScan: "the scalar loop is the oracle exactness tests compare against",
}


def _overridden(cls, name):
    return getattr(cls, name) is not getattr(Index, name)


class TestHookStructure:
    def test_table_covers_every_exported_index(self):
        assert len(INDEX_CLASSES) == 7
        assert set(BOTH_HOOKS) <= set(INDEX_CLASSES)

    def test_every_exported_index_is_built_by_the_cli(self):
        # An index no `--index` choice builds carries lines nothing runs;
        # ShardedIndex wraps whichever one the CLI picks.
        points = np.random.default_rng(0).random((12, 2))
        built = {
            type(_sharded_inner(points, EuclideanDistance(), name))
            for name in _INDEXES
        }
        assert set(INDEX_CLASSES) - built == {ShardedIndex}

    @pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.__name__)
    def test_one_hook_per_operation(self, cls):
        for pair in Index._HOOK_PAIRS:
            defined = [name for name in pair if _overridden(cls, name)]
            expected = 2 if cls in BOTH_HOOKS else 1
            assert len(defined) == expected, (cls.__name__, pair, defined)
        assert not hasattr(cls, "_knn_approx_impl")

    @pytest.mark.parametrize("defined, missing", [
        ("_knn_impl", "range"), ("_range_batch_impl", "knn"),
    ])
    def test_class_without_a_hook_is_rejected_at_creation(
        self, defined, missing
    ):
        body = {"_build": lambda self: None, defined: lambda self, *a: None}
        with pytest.raises(TypeError, match=f"_{missing}_impl or "
                                            f"_{missing}_batch_impl"):
            type("Hookless", (Index,), body)

    def test_abstract_intermediate_base_may_defer_the_hooks(self):
        class Family(Index):
            """No ``_build`` yet, so no hooks are demanded either."""

        class Member(Family):
            def _build(self):
                pass

            def _range_impl(self, query, radius):
                return []

            def _knn_impl(self, query, k):
                return []

        assert Member([1], EuclideanDistance()).knn_batch([0], 1) == [[]]


# ----------------------------------------------------------------------
# Surface identity and batch-composition independence.
# ----------------------------------------------------------------------

FACTORIES = {
    "linear": lambda pts, m: LinearScan(pts, m),
    "pivots": lambda pts, m: PivotIndex(
        pts, m, n_pivots=3, rng=np.random.default_rng(1)
    ),
    "aesa": lambda pts, m: AESA(pts, m),
    "iaesa": lambda pts, m: IAESA(pts, m),
    "distperm": lambda pts, m: DistPermIndex(
        pts, m, n_sites=3, rng=np.random.default_rng(2)
    ),
    "vptree": lambda pts, m: VPTree(pts, m, rng=np.random.default_rng(3)),
    "sharded": lambda pts, m: ShardedIndex(pts, m, n_shards=2),
}

# Coordinates on a dyadic grid: plenty of duplicates and exact distance
# ties, and every Euclidean formula (difference or dot-product identity,
# any BLAS blocking) is exact on them — so `==` below tests the index
# code, not last-ulp rounding of differently-shaped matrix products.
_coordinate = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_vector = st.tuples(_coordinate, _coordinate)
_word = st.text(alphabet="ab", min_size=1, max_size=4)


def _cases(element):
    return st.tuples(
        st.lists(element, min_size=1, max_size=14),   # database
        st.lists(element, min_size=1, max_size=4),    # queries
        st.integers(1, 17),                           # k, past n included
        st.integers(0, 3),                            # radius step
    )


def _surfaces(index, k, radius, budget):
    """``(single call, batch call)`` per operation, as the public API."""
    return [
        (lambda q: index.knn_query(q, k),
         lambda qs: index.knn_batch(qs, k)),
        (lambda q: index.range_query(q, radius),
         lambda qs: index.range_batch(qs, radius)),
        (lambda q: index.knn_approx(q, k, budget),
         lambda qs: index.knn_approx_batch(qs, k, budget)),
    ]


def _charged(index, call):
    before = (index.stats.queries, index.stats.query_distances)
    answer = call()
    return answer, (index.stats.queries - before[0],
                    index.stats.query_distances - before[1])


def _rounded(rows):
    return [[(n.index, round(n.distance, 9)) for n in row] for row in rows]


def _check_index(index, queries, k, radius, budget):
    one_traversal = type(index) not in BOTH_HOOKS
    for single, batch in _surfaces(index, k, radius, budget):
        alone = []
        alone_cost = []
        for query in queries:
            row, cost = _charged(index, lambda: batch([query]))
            assert cost[0] == 1
            alone.append(row[0])
            alone_cost.append(cost[1])
            # Surface identity: a single query is that row.
            answer, single_cost = _charged(index, lambda: single(query))
            assert single_cost == cost
            if one_traversal:
                assert answer == row[0]
            else:
                assert _rounded([answer]) == _rounded(row)
            # Riding next to a copy of itself changes nothing.
            twice, cost2 = _charged(index, lambda: batch([query, query]))
            assert twice == [row[0], row[0]]
            assert cost2 == (2, 2 * cost[1])
        together, cost = _charged(index, lambda: batch(list(queries)))
        assert together == alone
        assert cost == (len(queries), sum(alone_cost))
        backwards, cost = _charged(index, lambda: batch(list(queries)[::-1]))
        assert backwards == alone[::-1]
        assert cost == (len(queries), sum(alone_cost))


@settings(max_examples=30, deadline=None)
@given(_cases(_vector))
def test_surfaces_agree_on_euclidean(case):
    database, queries, k, step = case
    points = np.asarray(database, dtype=np.float64)
    rows = [np.asarray(q, dtype=np.float64) for q in queries]
    for name, factory in FACTORIES.items():
        index = factory(points, EuclideanDistance())
        try:
            # Radius 0 leaves most rows empty; 0.25 and 0.5 are tie radii.
            _check_index(index, rows, k, 0.25 * step, budget=step + 1)
        finally:
            if name == "sharded":
                index.close()


@settings(max_examples=30, deadline=None)
@given(_cases(_word))
def test_surfaces_agree_on_levenshtein(case):
    database, queries, k, step = case
    for name, factory in FACTORIES.items():
        index = factory(database, LevenshteinDistance())
        try:
            _check_index(index, queries, k, step, budget=step + 1)
        finally:
            if name == "sharded":
                index.close()


# ----------------------------------------------------------------------
# Per-query budget arrays are validated before any work is charged.
# ----------------------------------------------------------------------


class TestPerQueryBudgetValidation:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(9)
        return rng.random((50, 3)), rng.random((4, 3))

    @pytest.mark.parametrize("budget", [
        np.array([5, 5, 5]),            # shorter than the batch
        np.array([5, 5, 5, 5, 5]),      # longer: the tail was ignored
        np.array([[5, 5, 5, 5]]),       # right size, wrong shape
        np.array([5, -1, 5, 5]),        # negative entry
        np.array([5.0, 2.5, 5.0, 5.0]),  # not integers
    ], ids=["short", "long", "2d", "negative", "fractional"])
    @pytest.mark.parametrize("exact_only", [False, True],
                             ids=["distperm", "vptree"])
    def test_bad_budget_array_raises_before_any_work(
        self, setup, budget, exact_only
    ):
        points, queries = setup
        if exact_only:
            index = VPTree(points, EuclideanDistance())
        else:
            index = DistPermIndex(points, EuclideanDistance(), n_sites=4,
                                  rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="per-query budget"):
            index.knn_approx_batch_arrays(queries, 3, budget=budget)
        assert index.stats.queries == 0
        assert index.stats.query_distances == 0
        assert index.metric.count == 0

    def test_valid_budget_array_is_spent_as_allocated(self, setup):
        points, queries = setup
        index = DistPermIndex(points, EuclideanDistance(), n_sites=4,
                              rng=np.random.default_rng(3))
        budget = np.array([0, 7, 50, 2], dtype=np.uint16)
        rows = index.knn_approx_batch_arrays(queries, 3, budget=budget)
        assert rows.counts().tolist() == [0, 3, 3, 2]
        assert index.stats.query_distances == 4 * len(queries) + 59

    def test_exact_only_index_ignores_a_valid_budget_array(self, setup):
        points, queries = setup
        index = VPTree(points, EuclideanDistance())
        budget = np.zeros(len(queries), dtype=np.int64)
        assert index.knn_approx_batch(queries, 3, budget) == index.knn_batch(
            queries, 3
        )
