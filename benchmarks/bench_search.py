"""Bench: search-cost context (Section 1) — distance evaluations per query.

Not a paper table, but the motivating comparison: AESA's near-constant
query cost at quadratic storage, LAESA's pivot table, the permutation
index's approximate search at a fraction of both storages, and the classic
VP-tree.  Also regenerates the permutation index's recall-versus-budget
trade-off, the regime in which Chávez et al. report it "comparable to
LAESA, while consuming much less storage space".

All workloads are driven through the batched query engine
(:func:`repro.experiments.harness.run_query_workload`), so each table now
reports queries per second next to the literature's distance count — the
two cost measures the batch refactor decouples.
"""

from __future__ import annotations

import numpy as np
from conftest import write_result

from repro.datasets.dictionaries import synthetic_dictionary
from repro.datasets.vectors import uniform_vectors
from repro.experiments.harness import run_query_workload
from repro.index import (
    AESA,
    DistPermIndex,
    IAESA,
    LinearScan,
    PivotIndex,
    VPTree,
)
from repro.metrics import EuclideanDistance, LevenshteinDistance

N_POINTS = 2000
N_QUERIES = 25
DIM = 4


def _database():
    rng = np.random.default_rng(17)
    return uniform_vectors(N_POINTS, DIM, rng), rng.random((N_QUERIES, DIM))


def _cost_lines(header, reports):
    lines = [header]
    by_cost = sorted(reports.items(), key=lambda item: item[1].distances_per_query)
    for name, report in by_cost:
        lines.append(
            f"  {name:>9}: {report.distances_per_query:10.1f} dist/query"
            f"  {report.queries_per_second:10.1f} q/s"
        )
    return lines


def test_knn_cost_comparison(benchmark, results_dir):
    def run():
        points, queries = _database()
        metric = EuclideanDistance()
        indexes = {
            "linear": LinearScan(points, metric),
            "vptree": VPTree(points, metric, rng=np.random.default_rng(1)),
            "laesa-16": PivotIndex(points, metric, n_pivots=16,
                                   rng=np.random.default_rng(3)),
            "aesa": AESA(points, metric),
            "iaesa": IAESA(points, metric),
        }
        return {
            name: run_query_workload(index, queries, kind="knn", k=5)
            for name, index in indexes.items()
        }

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    costs = {name: r.distances_per_query for name, r in reports.items()}
    # The literature's pecking order on low-dimensional vectors.
    assert costs["aesa"] < costs["laesa-16"] < costs["linear"]
    assert costs["iaesa"] < costs["laesa-16"]
    assert costs["vptree"] < costs["linear"]
    lines = _cost_lines(
        f"5-NN cost, n={N_POINTS}, d={DIM}, {N_QUERIES} queries "
        "(batched engine):",
        reports,
    )
    write_result(results_dir, "search_knn_costs", "\n".join(lines))


def test_distperm_recall_budget_curve(benchmark, results_dir):
    """Recall of the permutation index against evaluation budget."""

    def run():
        points, queries = _database()
        metric = EuclideanDistance()
        oracle = LinearScan(points, metric)
        index = DistPermIndex(points, metric, n_sites=16,
                              rng=np.random.default_rng(4))
        truth = [
            {n.index for n in answer}
            for answer in oracle.knn_batch(queries, 10)
        ]
        curve = {}
        for budget in (25, 50, 100, 200, 400, 800):
            answers = index.knn_approx_batch(queries, 10, budget=budget)
            hits = sum(
                len({n.index for n in answer} & true_ids)
                for answer, true_ids in zip(answers, truth)
            )
            curve[budget] = hits / (10 * len(queries))
        return curve

    curve = benchmark.pedantic(run, rounds=1, iterations=1)
    budgets = sorted(curve)
    recalls = [curve[b] for b in budgets]
    assert all(
        later >= earlier - 0.02
        for earlier, later in zip(recalls, recalls[1:])
    )
    assert recalls[-1] >= 0.95
    assert curve[100] >= 0.6  # 5% of the database already gives good recall
    lines = ["distperm 10-NN recall vs evaluation budget "
             f"(n={N_POINTS}, k=16 sites):"]
    for budget in budgets:
        lines.append(f"  budget {budget:>4} ({100 * budget / N_POINTS:4.1f}%"
                     f" of db): recall {curve[budget]:.3f}")
    write_result(results_dir, "search_recall_budget", "\n".join(lines))


def test_range_query_cost(benchmark, results_dir):
    def run():
        points, queries = _database()
        metric = EuclideanDistance()
        indexes = {
            "linear": LinearScan(points, metric),
            "laesa-16": PivotIndex(points, metric, n_pivots=16,
                                   rng=np.random.default_rng(5)),
            "aesa": AESA(points, metric),
        }
        return {
            name: run_query_workload(index, queries, kind="range", radius=0.15)
            for name, index in indexes.items()
        }

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    costs = {name: r.distances_per_query for name, r in reports.items()}
    assert costs["aesa"] < costs["laesa-16"] < costs["linear"]
    lines = _cost_lines(
        "range query (r = 0.15) cost (batched engine):", reports
    )
    write_result(results_dir, "search_range_costs", "\n".join(lines))


def test_dictionary_workload_cost(benchmark, results_dir):
    """The Table 2 workload as a search problem: edit-distance range
    queries (spelling correction) over a synthetic dictionary."""

    def run():
        words = synthetic_dictionary("English", 1500,
                                     np.random.default_rng(20))
        metric = LevenshteinDistance()
        rng = np.random.default_rng(21)
        queries = [
            word[:-1] + "x" for word in rng.choice(words, size=15,
                                                   replace=False)
        ]
        indexes = {
            "linear": LinearScan(words, metric),
            "vptree": VPTree(words, metric, rng=np.random.default_rng(23)),
            "laesa-8": PivotIndex(words, metric, n_pivots=8,
                                  rng=np.random.default_rng(22)),
        }
        reports = {
            name: run_query_workload(index, queries, kind="range", radius=2)
            for name, index in indexes.items()
        }
        answers = {
            name: tuple(
                tuple(sorted((n.index, n.distance) for n in result))
                for result in report.results
            )
            for name, report in reports.items()
        }
        return reports, answers

    reports, answers = benchmark.pedantic(run, rounds=1, iterations=1)
    # All indexes exact: identical answer sets.
    assert len(set(answers.values())) == 1
    costs = {name: r.distances_per_query for name, r in reports.items()}
    # The tree prunes: it beats the linear scan.
    assert costs["vptree"] < costs["linear"]
    lines = _cost_lines(
        "dictionary range queries (radius 2, edit distance), batched engine:",
        reports,
    )
    write_result(results_dir, "search_dictionary_costs", "\n".join(lines))
