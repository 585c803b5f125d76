"""Tests for the array-backed VP-tree.

The VP-tree stores its nodes in flat numpy arrays built with batched
metric calls and answers batched queries level-synchronously.  These
tests pin the structural invariants of the flat layout, the
duplicate-handling of the median split (equal copies chain through
inside children), and the degenerate shapes (tie-heavy chains,
single-element databases) the iterative build must survive — the last
one for every index ``repro.index`` exports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.dictionaries import synthetic_dictionary
from repro.index import (
    AESA,
    DistPermIndex,
    IAESA,
    LinearScan,
    PivotIndex,
    ShardedIndex,
    VPTree,
)
from repro.metrics import LevenshteinDistance


def _signature(neighbors):
    return [(n.index, round(n.distance, 9)) for n in neighbors]


@pytest.fixture(scope="module")
def dictionary():
    return synthetic_dictionary("English", 300, np.random.default_rng(7))


class TestFlatLayout:
    def test_vptree_vantages_partition_database(self, dictionary):
        tree = VPTree(
            dictionary, LevenshteinDistance(), rng=np.random.default_rng(1)
        )
        assert sorted(tree._vantage.tolist()) == list(range(len(dictionary)))
        internal = tree._inside >= 0
        # Inside children hold points within the stored ball radius.
        assert (tree._radius[internal] >= 0).all()


class TestDegenerateShapes:
    def test_vptree_survives_all_equal_points(self):
        # Every pairwise distance is zero: the median split degenerates
        # into a chain as long as the database, which the iterative
        # build must absorb without recursion limits.
        words = ["same"] * 300
        tree = VPTree(
            words, LevenshteinDistance(), rng=np.random.default_rng(8)
        )
        result = tree.range_query("same", 0)
        assert {n.index for n in result} == set(range(300))
        assert all(n.distance == 0.0 for n in result)

    def test_single_element_database(self):
        for factory in (
            lambda: LinearScan(["one"], LevenshteinDistance()),
            lambda: AESA(["one"], LevenshteinDistance()),
            lambda: IAESA(["one"], LevenshteinDistance()),
            lambda: PivotIndex(["one"], LevenshteinDistance(), n_pivots=1),
            lambda: DistPermIndex(["one"], LevenshteinDistance(), n_sites=1),
            lambda: VPTree(["one"], LevenshteinDistance()),
            lambda: ShardedIndex(["one"], LevenshteinDistance(), n_shards=1),
        ):
            index = factory()
            try:
                assert _signature(index.knn_query("one", 3)) == [(0, 0.0)]
                assert index.range_batch(["on", "x"], 2)[0] == (
                    index.range_query("on", 2)
                )
            finally:
                if isinstance(index, ShardedIndex):
                    index.close()


def _subtree_vantages(tree, node):
    """Vantage ids of the subtree rooted at ``node`` (empty for -1)."""
    found, stack = [], [node]
    while stack:
        node = stack.pop()
        if node < 0:
            continue
        found.append(int(tree._vantage[node]))
        stack += [int(tree._inside[node]), int(tree._outside[node])]
    return found


class TestVPTreeDuplicates:
    """Duplicate elements sit at distance 0 from each other, inside every
    ball around one of them; every copy must come back from range and
    kNN queries on both query surfaces."""

    WORDS = ["abc", "abd", "abc", "xyz", "abc", "abcd", "abc"]

    def test_distance_zero_chain(self):
        copies = [i for i, w in enumerate(self.WORDS) if w == "abc"]
        # Copies alone split degenerately: one inside-only chain of zero
        # radii through every copy.
        tree = VPTree(
            ["abc"] * len(copies), LevenshteinDistance(),
            rng=np.random.default_rng(14),
        )
        assert (tree._outside == -1).all()
        assert (tree._radius == 0.0).all()
        assert tree._inside.tolist() == list(range(1, len(copies))) + [-1]
        assert sorted(tree._vantage.tolist()) == list(range(len(copies)))
        # Among other words, no copy ever lands outside a copy's ball.
        tree = VPTree(
            self.WORDS, LevenshteinDistance(), rng=np.random.default_rng(15)
        )
        for node, vantage in enumerate(tree._vantage.tolist()):
            if vantage in copies:
                outside = _subtree_vantages(tree, int(tree._outside[node]))
                assert not set(outside) & set(copies)

    def test_duplicates_returned_from_all_query_surfaces(self):
        tree = VPTree(
            self.WORDS, LevenshteinDistance(), rng=np.random.default_rng(16)
        )
        oracle = LinearScan(self.WORDS, LevenshteinDistance())
        copies = {i for i, w in enumerate(self.WORDS) if w == "abc"}

        ranged = tree.range_query("abc", 0)
        assert {n.index for n in ranged} == copies

        knn = tree.knn_query("abc", len(copies))
        assert _signature(knn) == _signature(
            oracle.knn_query("abc", len(copies))
        )
        assert {n.index for n in knn} == copies

        batched = tree.range_batch(["abc"], 0)[0]
        assert _signature(batched) == _signature(ranged)
        batched_knn = tree.knn_batch(["abc"], len(copies))[0]
        assert _signature(batched_knn) == _signature(knn)

    def test_duplicate_heavy_dictionary(self):
        rng = np.random.default_rng(9)
        base = synthetic_dictionary("English", 40, rng)
        words = [w for w in base for _ in range(3)]  # every word 3 times
        tree = VPTree(
            words, LevenshteinDistance(), rng=np.random.default_rng(17)
        )
        oracle = LinearScan(words, LevenshteinDistance())
        for query in (words[0], "zzz", "the"):
            for radius in (0, 1, 2):
                assert _signature(tree.range_query(query, radius)) == (
                    _signature(oracle.range_query(query, radius))
                )
            assert _signature(tree.knn_query(query, 9)) == _signature(
                oracle.knn_query(query, 9)
            )


class TestLargerBatchEquivalence:
    """A bigger randomized workload than the fixed equivalence suite:
    batched answers and stats must match the looped single-query path on
    a duplicate-carrying dictionary."""

    def test_vptree_on_duplicated_dictionary(self):
        rng = np.random.default_rng(10)
        words = synthetic_dictionary("English", 250, rng)
        words = words + words[:50]  # 50 duplicates
        queries = [words[3], "query", "aa", words[100], "zzzzzz"]
        index = VPTree(
            words, LevenshteinDistance(), rng=np.random.default_rng(11)
        )
        index.reset_stats()
        looped = [index.knn_query(q, 12) for q in queries]
        looped_stats = (index.stats.queries, index.stats.query_distances)
        index.reset_stats()
        batched = index.knn_batch(queries, 12)
        batched_stats = (index.stats.queries, index.stats.query_distances)
        for single, batch in zip(looped, batched):
            assert _signature(batch) == _signature(single)
        assert batched_stats == looped_stats

        index.reset_stats()
        looped_r = [index.range_query(q, 2) for q in queries]
        looped_stats = (index.stats.queries, index.stats.query_distances)
        index.reset_stats()
        batched_r = index.range_batch(queries, 2)
        batched_stats = (index.stats.queries, index.stats.query_distances)
        for single, batch in zip(looped_r, batched_r):
            assert _signature(batch) == _signature(single)
        assert batched_stats == looped_stats
