"""Executor abstraction: one API, a deterministic serial backend and a
process-pool backend.

The census and trial loops (Tables 2-3, ``repro census``) parallelize
through this seam — queries do not: a sharded index runs on the pinned
worker pool of :mod:`repro.parallel.workerpool` (``resident=True``).  A
caller splits its work into an *ordered* list of tasks and calls
:meth:`Executor.map`, which always returns results in task order.  The
serial backend runs tasks inline in submission order — the reference
semantics every parallel run must reproduce — and the process backend
fans tasks out to a pool while preserving the result order, so any
deterministic reduction over the results is itself deterministic for
every worker count.

Worker-count convention, used by every ``workers=`` parameter in the
library: ``None`` or ``0`` select the serial backend; a positive integer
selects a process pool of that size.  Task functions and arguments must
be picklable for the pool backend (module-level functions, classes,
``functools.partial`` — not lambdas); the database ships zero-copy
through the :class:`~repro.parallel.sharedmem.SharedDataset` that
:meth:`Executor.share` returns instead of pickling.

The pool uses the ``forkserver`` start method where available (children
fork from a clean, preloaded server process: no copy of the parent's
heap, no re-import of numpy per task) and falls back to ``spawn``;
``REPRO_MP_CONTEXT`` overrides the choice.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.parallel.sharedmem import SharedDataset

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
]


class Executor:
    """Common surface of the serial and process backends."""

    #: Pool size; 0 for the serial backend.
    workers: int = 0

    def map(
        self, fn: Callable[..., Any], tasks: Sequence[Tuple]
    ) -> List[Any]:
        """Run ``fn(*task)`` for every task, results in task order."""
        raise NotImplementedError

    def share(self, points: Any) -> SharedDataset:
        """``points`` as this executor's tasks read them; the caller unlinks.

        A pool gets one published shared-memory copy; the serial backend
        gets a local wrapper, so a serial run allocates no segment (and
        needs no ``/dev/shm`` space).
        """
        if self.workers:
            return SharedDataset.publish(points)
        return SharedDataset.local(points)

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run tasks inline, in order — the reference semantics."""

    def map(
        self, fn: Callable[..., Any], tasks: Sequence[Tuple]
    ) -> List[Any]:
        return [fn(*task) for task in tasks]

    def __repr__(self) -> str:
        return "SerialExecutor()"


def _default_context() -> multiprocessing.context.BaseContext:
    method = os.environ.get("REPRO_MP_CONTEXT")
    if method:
        available = multiprocessing.get_all_start_methods()
        if method not in available:
            raise ValueError(
                f"REPRO_MP_CONTEXT={method!r} is not a start method on "
                f"this platform; choose one of {', '.join(available)} "
                f"(or unset it for the default)"
            )
        return multiprocessing.get_context(method)
    try:
        context = multiprocessing.get_context("forkserver")
        # Preload the package (and transitively numpy) into the fork
        # server once, so each forked worker starts warm instead of
        # re-importing numpy per pool.  The forkserver pays for this
        # import serially before the first worker exists, and every
        # worker inherits its modules in RSS, so ``import repro`` must
        # stay lean: tests/test_import_graph.py keeps scipy off it.
        context.set_forkserver_preload(["repro"])
        return context
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class ProcessExecutor(Executor):
    """A process pool with deterministic, order-preserving ``map``.

    Tasks are submitted in order and results gathered in the same order,
    so callers see identical result sequences no matter how the pool
    interleaves execution.  The first task exception propagates after
    the still-pending tasks are cancelled — a failing build does not sit
    behind the rest of the batch, and no child is left running work
    whose result can never be consumed.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"process pool needs workers >= 1, got {workers}")
        self.workers = workers
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = (
            concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=_default_context()
            )
        )

    def map(
        self, fn: Callable[..., Any], tasks: Sequence[Tuple]
    ) -> List[Any]:
        if self._pool is None:
            raise RuntimeError("executor is closed")
        futures = [self._pool.submit(fn, *task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            # In-flight tasks cannot be cancelled; wait them out so the
            # error propagates with the pool quiescent and no orphan
            # children still computing.
            concurrent.futures.wait(futures)
            raise

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"ProcessExecutor(workers={self.workers})"


def get_executor(workers: Optional[int]) -> Executor:
    """Build the executor a ``workers=`` value selects.

    ``None`` / ``0`` give :class:`SerialExecutor`; a positive integer
    gives a :class:`ProcessExecutor` of that size.
    """
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, int)
        or workers < 0
    ):
        raise ValueError(f"workers must be None or an int >= 0, "
                         f"got {workers!r}")
    if not workers:
        return SerialExecutor()
    return ProcessExecutor(workers)
