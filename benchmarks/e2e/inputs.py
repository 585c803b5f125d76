"""Seeded inputs and ground truth, made outside the measured process.

The same ``--seed`` gives the same files.  The measured process only ever
sees these files: word lists, vector matrices, site draws and the exact
10-NN radius of every query (for recall), never the generators.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from repro.datasets import (
    mutation_cascade_sequences,
    synthetic_dictionary,
    uniform_vectors,
)
from repro.datasets.io import save_strings
from repro.index import LinearScan
from repro.metrics import EuclideanDistance, LevenshteinDistance

from benchmarks.e2e import catalog

__all__ = ["make_inputs"]


def _kth_distances(points, metric, queries, k: int) -> np.ndarray:
    """Exact distance to each query's k-th nearest neighbour."""
    exact = LinearScan(points, metric).knn_batch_arrays(queries, k)
    return exact.distances[exact.offsets[1:] - 1]


def _census(rng, sizes, work_dir: str, trace: bool) -> Dict[str, int]:
    words = synthetic_dictionary("English", sizes["census_n"], rng)
    save_strings(os.path.join(work_dir, "words.txt"), words)
    draws = np.stack([
        rng.choice(len(words), catalog.N_SITES, replace=False)
        for _ in range(catalog.CENSUS_MAX_TRIALS)
    ])
    np.save(os.path.join(work_dir, "sites.npy"), draws)
    if trace:
        genes = mutation_cascade_sequences(sizes["genes_n"], rng=rng)
        save_strings(os.path.join(work_dir, "genes.txt"), genes)
    return {"n": len(words), "sites": catalog.N_SITES}


def _search(rng, sizes, work_dir: str, trace: bool) -> Dict[str, int]:
    points = uniform_vectors(sizes["search_n"], catalog.SEARCH_DIM, rng)
    queries = uniform_vectors(sizes["search_pool"], catalog.SEARCH_DIM, rng)
    np.save(os.path.join(work_dir, "points.npy"), points)
    np.save(os.path.join(work_dir, "queries.npy"), queries)
    np.save(
        os.path.join(work_dir, "gt_kth.npy"),
        _kth_distances(points, EuclideanDistance(), queries,
                       catalog.SEARCH_K),
    )
    return {"n": len(points), "d": catalog.SEARCH_DIM,
            "query_pool": len(queries), "k": catalog.SEARCH_K,
            "budget": catalog.SEARCH_BUDGET, "sites": catalog.N_SITES}


def _serve(rng, sizes, work_dir: str, trace: bool) -> Dict[str, int]:
    pool = sizes["serve_pool"]
    words = synthetic_dictionary("English", sizes["serve_n"] + pool, rng)
    order = rng.permutation(len(words))
    queries = [words[i] for i in order[:pool]]
    database = sorted(words[i] for i in order[pool:])
    save_strings(os.path.join(work_dir, "words.txt"), database)
    save_strings(os.path.join(work_dir, "queries.txt"), queries)
    np.save(
        os.path.join(work_dir, "gt_kth.npy"),
        _kth_distances(database, LevenshteinDistance(), queries,
                       catalog.SERVE_K),
    )
    return {"n": len(database), "query_pool": pool, "k": catalog.SERVE_K,
            "budget": catalog.SERVE_BUDGET, "shards": catalog.SERVE_SHARDS,
            "sites": catalog.N_SITES}


_MAKERS = {
    "census_strings": _census,
    "search_vectors_ram": _search,
    "search_vectors_mmap": _search,
    "serve_strings": _serve,
}


def make_inputs(
    workload: str, seed: int, sizes: Dict[str, int], work_dir: str,
    trace: bool,
) -> Dict[str, int]:
    """Write ``workload``'s input files into ``work_dir``; return sizes.

    Both ``search_*`` workloads draw from the same stream, so one seed
    gives them the same payload and the same queries.
    """
    stream = {"census_strings": 1, "serve_strings": 3}.get(workload, 2)
    rng = np.random.default_rng([stream, seed])
    return _MAKERS[workload](rng, sizes, work_dir, trace)
