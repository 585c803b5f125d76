"""Tests for tree metric spaces (Definition 2)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from oracles import check_metric_axioms

from repro.metrics import (
    TreeMetric,
    path_tree_metric,
    random_tree_metric,
)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TreeMetric([])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            TreeMetric([(0, 1), (1, 2), (2, 0)])

    def test_rejects_forest(self):
        with pytest.raises(ValueError):
            TreeMetric([(0, 1), (2, 3), (0, 2), (1, 3)])

    def test_rejects_disconnected_with_correct_edge_count(self):
        # 4 vertices, 3 edges, but a triangle plus an isolated edge is
        # caught by the cycle check; a true disconnected case needs a
        # self-contained component.
        with pytest.raises(ValueError):
            TreeMetric([(0, 1), (0, 1, 2.0), (2, 3)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            TreeMetric([(0, 1, 0.0)])

    def test_rejects_malformed_edge(self):
        with pytest.raises(ValueError):
            TreeMetric([(0, 1, 2.0, 3.0)])

    def test_vertices_listed(self):
        metric = TreeMetric([("a", "b"), ("b", "c")])
        assert set(metric.vertices) == {"a", "b", "c"}


class TestDistances:
    def test_path_metric_is_absolute_difference(self):
        metric = path_tree_metric(10)
        for i in range(10):
            for j in range(10):
                assert metric.distance(i, j) == abs(i - j)

    def test_weighted_path(self):
        metric = path_tree_metric(5, weight=2.5)
        assert metric.distance(0, 4) == pytest.approx(10.0)

    def test_star_tree(self):
        metric = TreeMetric([("hub", f"leaf{i}") for i in range(6)])
        assert metric.distance("leaf0", "leaf5") == 2.0
        assert metric.distance("hub", "leaf3") == 1.0

    def test_string_labels_weighted(self):
        metric = TreeMetric([("root", "a", 1.5), ("root", "b", 2.5), ("a", "c", 1.0)])
        assert metric.distance("c", "b") == pytest.approx(5.0)

    def test_matches_networkx_fixed_tree(self):
        edge_list = [
            (0, 1, 1.0), (1, 2, 2.0), (1, 3, 0.5), (3, 4, 4.0), (0, 5, 1.0),
        ]
        ours = TreeMetric(edge_list)
        graph = nx.Graph()
        graph.add_weighted_edges_from(edge_list)
        lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
        for u in graph.nodes:
            for v in graph.nodes:
                assert ours.distance(u, v) == pytest.approx(lengths[u][v])

    @pytest.mark.parametrize("n", [2, 5, 33, 120])
    def test_matches_networkx_random_trees(self, n):
        rng = np.random.default_rng(n)
        edge_list = []
        for i in range(1, n):
            parent = int(rng.integers(0, i))
            edge_list.append((parent, i, float(1.0 - rng.random())))
        ours = TreeMetric(edge_list)
        graph = nx.Graph()
        graph.add_weighted_edges_from(edge_list)
        lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
        pairs = rng.integers(0, n, size=(40, 2))
        for u, v in pairs:
            assert ours.distance(int(u), int(v)) == pytest.approx(
                lengths[int(u)][int(v)]
            )

    def test_random_tree_matches_networkx(self, rng):
        n = 80
        tree = random_tree_metric(n, rng=rng, weighted=True)
        # Recover the same structure by querying all pairs against a
        # networkx rebuild derived from adjacent distances.
        graph = nx.Graph()
        for u in range(n):
            for v in range(u + 1, n):
                # add every edge with its tree distance: the shortest path
                # in this complete weighted graph equals the tree distance
                # because tree distances satisfy the triangle equality
                # along paths.
                graph.add_edge(u, v, weight=tree.distance(u, v))
        sample = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(30, 2))]
        lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
        for u, v in sample:
            assert tree.distance(u, v) == pytest.approx(lengths[u][v])

    def test_axioms_on_random_tree(self, rng):
        tree = random_tree_metric(30, rng=rng, weighted=True)
        points = list(range(0, 30, 3))
        violation = check_metric_axioms(tree, points)
        assert violation is None, str(violation)

    def test_deep_path_lca_correct(self):
        """Exercise binary lifting well past one level."""
        n = 600
        metric = path_tree_metric(n)
        assert metric.distance(0, n - 1) == n - 1
        assert metric.distance(5, 431) == 426


class TestGenerators:
    def test_path_requires_two_vertices(self):
        with pytest.raises(ValueError):
            path_tree_metric(1)

    def test_random_tree_requires_two_vertices(self):
        with pytest.raises(ValueError):
            random_tree_metric(1)

    def test_random_tree_deterministic_with_seed(self):
        a = random_tree_metric(20, rng=np.random.default_rng(3), weighted=True)
        b = random_tree_metric(20, rng=np.random.default_rng(3), weighted=True)
        for u in range(0, 20, 4):
            for v in range(0, 20, 5):
                assert a.distance(u, v) == b.distance(u, v)
