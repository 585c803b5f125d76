"""The one-round-trip global budget split against its two-phase replay.

``ShardedIndex`` answers a budgeted ``knn_approx`` over distance-
permutation shards with one ``"ranked"`` fan-out: each shard ships its
ranked, refined candidates and the supervisor allocates the budget and
keeps each shard's top ``k`` of its allocated prefix.
:func:`oracles.replay_global_split` restates the split as it was first
built — ranking phase, stable merge allocation, then a budgeted scan per
shard — through the shards' own public calls, so the two must agree on
every configuration: 1–5 shards, budgets below ``k``, at ``k``, in the
middle and above ``n``, in-process and pooled, fresh and loaded (RAM and
mmap, the mmap cache too small for every block), and degraded with one
shard killed on the first fan-out.  Edit distance must agree byte for
byte.  Euclidean ids must agree and distances within 1e-12: the one
round trip refines each query's whole candidate list in one group, the
replay only its allocation, and ``a @ b.T`` rounding depends on the
group's size.
"""

from __future__ import annotations

import os
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import replay_global_split
from repro.index import DistPermIndex, ShardedIndex
from repro.index.serialize import load_sharded, save_sharded
from repro.metrics import EuclideanDistance, LevenshteinDistance
from repro.parallel.faults import FaultSpec
from repro.parallel.workerpool import QueryPolicy

K = 4
BUDGETS = ("below_k", "at_k", "mid", "above_n")


def _database(metric_name: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    if metric_name == "levenshtein":
        # A four-letter alphabet: plenty of equal distances, so the
        # (distance, id) tie rule decides many answers.
        words = [
            "".join("abcd"[i] for i in rng.integers(0, 4, size=rng.integers(2, 7)))
            for _ in range(n)
        ]
        queries = [words[int(i)] for i in rng.integers(0, n, size=3)]
        return words, queries + ["abcab", "d"], LevenshteinDistance()
    points = rng.random((n, 3))
    queries = np.concatenate([points[rng.integers(0, n, size=3)], rng.random((2, 3))])
    return points, queries, EuclideanDistance()


def _budget(kind: str, n: int) -> int:
    return {"below_k": K - 2, "at_k": K, "mid": n // 3, "above_n": n + 5}[kind]


def _open(points, metric, n_shards, sites, load, directory, **engine):
    inner = partial(DistPermIndex, n_sites=sites, site_strategy="first")
    if load == "fresh":
        return ShardedIndex(points, metric, inner, n_shards=n_shards, **engine)
    with ShardedIndex(points, metric, inner, n_shards=n_shards) as built:
        path = os.path.join(directory, "sharded.rpc")
        save_sharded(path, built)
    # 256 bytes hold 32-code blocks: the mmap shards keep few of them,
    # so the replay's single-query chunks take the bounded scan.
    extra = {"backing": "mmap", "cache_bytes": 256} if load == "mmap" else {}
    return load_sharded(path, points, metric, **extra, **engine)


def _assert_agree(metric_name, got, expected):
    distances, indices, offsets = expected
    np.testing.assert_array_equal(got.offsets, offsets)
    np.testing.assert_array_equal(got.indices, indices)
    if metric_name == "levenshtein":
        assert got.distances.tobytes() == distances.tobytes()
    else:
        np.testing.assert_allclose(got.distances, distances, rtol=0, atol=1e-12)


def _check(metric_name, n, seed, n_shards, sites, budget_kind, load, degrade, **engine):
    points, queries, metric = _database(metric_name, n, seed)
    budget = _budget(budget_kind, n)
    if degrade:
        victim = seed % n_shards
        engine.update(
            policy=QueryPolicy(retries=0, on_partial="degrade"),
            faults=[FaultSpec("kill", shard=victim, request=1, generation=0)],
        )
    with tempfile.TemporaryDirectory() as directory:
        index = _open(points, metric, n_shards, sites, load, directory, **engine)
        try:
            got = index.knn_approx_batch_arrays(queries, K, budget)
            alive = [s for s in range(index.n_shards) if not (degrade and s == victim)]
            if degrade:
                assert index.stats.shards_answered == index.n_shards - 1
            expected = replay_global_split(
                index.shards, index.shard_offsets, queries, K, budget, alive
            )
        finally:
            index.close()
    _assert_agree(metric_name, got, expected)


_CASES = dict(
    metric_name=st.sampled_from(["levenshtein", "l2"]),
    n=st.integers(40, 160),
    seed=st.integers(0, 2**16),
    n_shards=st.integers(1, 5),
    sites=st.integers(3, 7),
    budget_kind=st.sampled_from(BUDGETS),
)


class TestOneRoundTripEqualsReplay:
    @pytest.mark.parametrize("load", ["fresh", "ram", "mmap"])
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**_CASES)
    def test_in_process(self, load, **case):
        _check(**case, load=load, degrade=False)

    @pytest.mark.parametrize("degrade", [False, True], ids=["whole", "degraded"])
    @pytest.mark.parametrize("load", ["fresh", "ram", "mmap"])
    # ``leak_check`` spans every example: no worker or segment may
    # outlive the test.
    @settings(max_examples=2, deadline=None, suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(**_CASES)
    def test_pooled(self, load, degrade, leak_check, **case):
        _check(**case, load=load, degrade=degrade, resident=True)

    @pytest.mark.parametrize("budget_kind", BUDGETS)
    def test_every_budget_kind_on_three_shards(self, budget_kind):
        """Each budget kind, pinned, so no draw can skip one."""
        for metric_name in ("levenshtein", "l2"):
            _check(metric_name, 120, 7, 3, 5, budget_kind, "fresh", False)
