"""Shared pieces of the measured process: run context and outcome."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from benchmarks.e2e.trace import Tracer

__all__ = ["Context", "Outcome", "edit_distance", "median", "percentile",
           "run_for", "tie_aware_recall"]


@dataclass
class Context:
    """What one workload run is told."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: How many times set-up is repeated; ``setup_s`` is their median.
    setup_reps: int
    tracer: Tracer = field(default_factory=Tracer)


@dataclass
class Outcome:
    """Numbers and verdicts of one workload run.

    ``attempted`` counts measured operations plus output checks;
    ``failed`` those that raised, were refused or gave a wrong answer.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def ops(self, n: int) -> None:
        self.attempted += int(n)

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += int(n)
        if len(self.failures) < 50:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count one output check; record ``message`` when it fails."""
        self.attempted += 1
        if not ok:
            self.fail(message)
        return bool(ok)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def run_for(seconds: float, step: Callable[[int], None],
            min_steps: int = 3) -> List[float]:
    """Call ``step(i)`` until ``seconds`` have passed; return step times.

    At least ``min_steps`` steps run, so a slow box still yields a median.
    """
    times: List[float] = []
    started = time.perf_counter()
    i = 0
    while i < min_steps or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        step(i)
        times.append(time.perf_counter() - t0)
        i += 1
    return times


def edit_distance(a: str, b: str) -> int:
    """Textbook Wagner-Fischer; shares no code with the library kernels."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def tie_aware_recall(
    distances: np.ndarray, offsets: np.ndarray, kth: np.ndarray, k: int
) -> float:
    """Mean share of each row's answers no farther than the exact k-th.

    Overlap of index sets undercounts on discrete metrics, where the
    exact k-NN is one arbitrary choice among many points at the k-th
    distance; any of them is a correct neighbour.
    """
    if kth.shape[0] == 0:
        return 0.0
    # Ulp slack: the exact radius came from a different distance kernel.
    limit = np.repeat(kth * (1 + 1e-12), np.diff(offsets))
    return float(np.sum(distances <= limit) / (kth.shape[0] * k))
