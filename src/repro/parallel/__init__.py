"""Multi-core execution layer: executors, shared-memory shipping, censuses.

Every layer above the metrics parallelizes through this package:

- :mod:`repro.parallel.executor` — the ``workers=`` task pool of the
  censuses and the table generators (``None``/``0``: serial; ``n``: a
  pool of ``n`` processes and one row shard per process) and their
  ``map`` seam: a deterministic serial backend, an order-preserving
  task pool, and ``share`` for the database the tasks read;
- :mod:`repro.parallel.sharedmem` — zero-copy publication of vector
  matrices, encoded string collections, and arbitrary payloads to
  worker processes via :mod:`multiprocessing.shared_memory`;
- :mod:`repro.parallel.census` — the sharded, exactly-mergeable
  permutation census behind Tables 2–3 and ``repro census``;
- :mod:`repro.parallel.workerpool` — the one multi-process *query*
  engine (``resident=True`` on a sharded index): pinned worker-per-shard
  processes that build and hold their shard, with per-query deadlines,
  crash detection, and respawn-with-backoff recovery;
- :mod:`repro.parallel.faults` — deterministic fault injection (kill /
  stall / corrupt-reply) for rehearsing the supervision paths.

The sharded index itself lives with its peers in
:mod:`repro.index.sharded`.
"""

from repro.parallel.census import shard_ranges, sharded_census, streaming_census
from repro.parallel.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)
from repro.parallel.faults import FaultSpec, faults_from_env, parse_faults
from repro.parallel.sharedmem import (
    SharedArray,
    SharedDataset,
    decode_strings,
    sweep_stale_segments,
)
from repro.parallel.workerpool import (
    QueryPolicy,
    ShardCrashError,
    ShardFaultError,
    ShardTimeoutError,
    WorkerPool,
)

__all__ = [
    "Executor",
    "FaultSpec",
    "ProcessExecutor",
    "QueryPolicy",
    "SerialExecutor",
    "ShardCrashError",
    "ShardFaultError",
    "ShardTimeoutError",
    "SharedArray",
    "SharedDataset",
    "WorkerPool",
    "decode_strings",
    "faults_from_env",
    "get_executor",
    "parse_faults",
    "shard_ranges",
    "sharded_census",
    "streaming_census",
    "sweep_stale_segments",
]
