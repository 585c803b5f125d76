"""Parallel permutation-census driver: shard, count, merge.

The census of Tables 2–3 is embarrassingly mergeable: distance
permutations are computed row by row, so the census of a database equals
the :meth:`~repro.core.estimate.StreamingCensus.merge` of censuses over
any partition of its rows — and each partial census is small, bounded by
the number of *distinct* permutations ``O(min(n, N_{d,p}(k)))`` (the
paper's counting results), not by the shard size.

:func:`sharded_census` splits the database into row shards, computes the
``shard x sites`` distances of each shard (through the batched metric
kernels, in their own row blocks and narrow column layout:
:meth:`~repro.metrics.base.Metric.to_sites_compact`), and reads one
insertion code per point at the **widest** requested prefix straight off
the distance columns via
:func:`~repro.core.permutation.prefix_codes_from_distances` (the
insertion digit of site ``m`` is ``#{s < m : d[s] <= d[m]}``; no
permutation is materialised).  Each shard sorts those codes once and
ships back **one** ``(code, count)`` run; the runs merge in shard order,
and every narrower prefix census follows from the merged run by
:meth:`~repro.core.estimate.StreamingCensus.restricted` — the permutation
of the first ``j`` sites is the restriction of the full permutation to
values ``< j``, and insertion codes are prefix-monotone, so ``code_j`` is
an exact floor division of ``code_k`` and the sorted run stays sorted.
One sort per census, whatever the number of widths.  The ``--dump``
path (``collect_permutations=True``) sorts nothing either: the same
pair-compare kernel reads each point's Lehmer code off the same blocks
(:func:`~repro.core.permutation.ranks_from_distances`), and a NaN
distance raises there as it does in the census.  Shards run through any
:class:`~repro.parallel.executor.Executor`, one shard per pool worker
(one in all on the serial backend); the database ships to pool workers
zero-copy via :class:`~repro.parallel.sharedmem.SharedDataset`, and
everything shipping *back* is 1-D code arrays — one run per shard, and
on the ``--dump`` path 8 bytes per point instead of ``k`` ``int64``
columns.  Results are identical for every worker count.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimate import StreamingCensus
from repro.core.permutation import (
    decode_permutations,
    permutation_code_dtype,
    prefix_codes_from_distances,
    ranks_from_distances,
)
from repro.metrics.base import Metric
from repro.parallel.executor import Executor, get_executor
from repro.parallel.sharedmem import SharedDataset

__all__ = ["shard_ranges", "sharded_census", "streaming_census"]


def shard_ranges(n: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``shards`` balanced contiguous runs.

    The first ``n % shards`` runs are one element longer, so sizes differ
    by at most one; empty runs are never produced (fewer runs come back
    when ``shards > n``).
    """
    if n < 0 or shards < 1:
        raise ValueError(f"need n >= 0 and shards >= 1, got {n}, {shards}")
    shards = min(shards, n) if n else 0
    out = []
    start = 0
    for s in range(shards):
        stop = start + n // shards + (1 if s < n % shards else 0)
        out.append((start, stop))
        start = stop
    return out


def _census_task(
    dataset: SharedDataset,
    start: int,
    stop: int,
    sites: Sequence[Any],
    metric: Metric,
    top: int,
    collect: bool,
) -> Tuple[StreamingCensus, Optional[np.ndarray]]:
    """Partial census of one row shard at the widest prefix length ``top``.

    For each of the metric's row blocks of the ``shard x len(sites)``
    distances (:meth:`~repro.metrics.base.Metric.to_sites_compact`),
    :func:`prefix_codes_from_distances` reads one insertion code per
    point off the distance columns; one sort then folds the shard's
    codes into its census of the first ``top`` sites — the one ``(code,
    count)`` run that travels back; every narrower width is restricted
    from the merged run by the caller.  The ``--dump`` payload is one
    Lehmer code per point, read off the same block by
    :func:`ranks_from_distances` (exact Python ints past
    ``MAX_CODE_SITES``); like the census, it raises on a NaN distance.
    """
    points = dataset.resolve()
    # A list slice copies every reference; a serial census spans it all.
    if (start, stop) != (0, len(points)):
        points = points[start:stop]
    prefix = np.empty(len(points), dtype=permutation_code_dtype(top))
    lehmer = (
        np.empty(len(points), dtype=permutation_code_dtype(len(sites)))
        if collect
        else None
    )
    for first, last, distances in metric.to_sites_compact(points, sites):
        prefix[first:last] = prefix_codes_from_distances(distances, [top])[top]
        if collect:
            ranks_from_distances(distances, codes=lehmer[first:last])
    census = StreamingCensus()
    census.update_codes(prefix, top, coding="prefix")
    return census, lehmer


def _restrictions(
    widest: StreamingCensus, ks: Sequence[int]
) -> Dict[int, StreamingCensus]:
    """``{k: census of the first k sites}`` for every ``k`` in ``ks``.

    Narrows one requested width at a time, each restriction dividing the
    previous (already shorter) run: ``floor(floor(c / a) / b)`` is
    ``floor(c / (a b))``, so the chain is exact.
    """
    by_width: Dict[int, StreamingCensus] = {}
    census = widest
    for k in sorted(set(ks), reverse=True):
        census = by_width[k] = census.restricted(k)
    return {k: by_width[k] for k in ks}


def sharded_census(
    points: Sequence[Any],
    sites: Sequence[Any],
    metric: Metric,
    ks: Optional[Sequence[int]] = None,
    *,
    workers: Optional[int] = None,
    executor: Optional[Executor] = None,
    dataset: Optional[SharedDataset] = None,
    collect_permutations: bool = False,
) -> Tuple[Dict[int, StreamingCensus], Optional[np.ndarray]]:
    """Census of ``points`` against prefixes of ``sites``, sharded.

    Returns ``(censuses, permutations)`` where ``censuses[k]`` is the
    exact census of the first ``k`` sites for each ``k`` in ``ks``
    (default: just ``len(sites)``), and ``permutations`` is the full
    ``(n, len(sites))`` permutation matrix when
    ``collect_permutations=True`` (the ``--dump`` path), else ``None``.

    ``executor`` overrides ``workers`` and is left open for the caller to
    reuse; otherwise an executor is built from ``workers`` and closed
    before returning.  ``dataset`` may supply the executor's
    :meth:`~repro.parallel.executor.Executor.share` of ``points``
    (callers looping many censuses over one database share once); its
    lifetime stays with the caller.  The rows split into one shard per
    pool worker (one shard on the serial backend).  Counts are exact and
    identical for every worker count: each shard ships one run at
    ``max(ks)``, the runs merge, and every width in ``ks`` is restricted
    from the merged run.
    """
    ks = list(ks) if ks is not None else [len(sites)]
    if any(not 0 <= k <= len(sites) for k in ks):
        raise ValueError(f"prefix lengths must lie in [0, {len(sites)}]")
    top = max(ks, default=0)
    with ExitStack() as owned:
        if executor is None:
            executor = owned.enter_context(get_executor(workers))
        if dataset is None:
            dataset = owned.enter_context(executor.share(points))
        partials = executor.map(
            _census_task,
            [
                (dataset, start, stop, list(sites), metric, top,
                 collect_permutations)
                for start, stop in shard_ranges(
                    len(points), max(1, executor.workers)
                )
            ],
        )
    censuses = _restrictions(
        StreamingCensus.merged(part[0] for part in partials), ks
    )
    permutations = None
    if collect_permutations:
        if partials:
            # Workers shipped one Lehmer code per point; decode the
            # concatenated array once instead of moving (n, k) rows.
            permutations = decode_permutations(
                np.concatenate([part[1] for part in partials]), len(sites)
            )
        else:
            permutations = np.empty((0, len(sites)), dtype=np.int64)
    return censuses, permutations


def streaming_census(
    chunks,
    sites: Sequence[Any],
    metric: Metric,
    ks: Optional[Sequence[int]] = None,
    *,
    workers: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> Dict[int, StreamingCensus]:
    """Census of a database consumed as an iterable of row chunks.

    The out-of-core driver: ``chunks`` yields consecutive blocks of the
    database (e.g. :func:`repro.datasets.io.iter_vector_chunks` over a
    file larger than RAM) and only one chunk — never the database — is
    resident at a time.  Each chunk runs through :func:`sharded_census`
    (so ``workers`` parallelism applies within every chunk)
    at the widest width ``max(ks)`` only, and those partial censuses
    merge in chunk order, which is exact: the census is a multiset count,
    so any partition of the rows merges to the same counts as the
    one-shot in-memory census.  Every width in ``ks`` is restricted from
    the merged census once, at the end.  Memory is bounded by one chunk's
    distance matrix plus the census itself — ``O(min(n, N_{d,p}(k)))``
    distinct codes, per the paper's counting results.

    One executor spans all chunks (spawning a pool per chunk would cost
    more than the census); pass ``executor`` to share it wider still.
    """
    ks = list(ks) if ks is not None else [len(sites)]
    top = max(ks, default=0)
    merged = StreamingCensus()
    with ExitStack() as owned:
        if executor is None:
            executor = owned.enter_context(get_executor(workers))
        for chunk in chunks:
            partial, _ = sharded_census(
                chunk, sites, metric, [top], executor=executor
            )
            merged.merge(partial[top])
    return _restrictions(merged, ks)
