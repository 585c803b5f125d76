"""The Section 5 counterexample: ``N_{d,p}(k) = N_{d,2}(k)`` is false.

The paper exhibits five sites in 3-dimensional L1 space (Eq. 12) for which
a 10^6-point uniform database realizes 108 distinct distance permutations,
exceeding the Euclidean maximum ``N_{3,2}(5) = 96`` — so the hypothesis
that the Euclidean limit bounds every ``L_p`` fails.  This module recounts
with the paper's exact sites and provides the random search used to find
such configurations for the other reported cases (3-d L1 k=6, 3-d L∞ k=5,
4-d L1 k=6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.counting import euclidean_permutation_count
from repro.core.estimate import StreamingCensus
from repro.metrics.minkowski import MinkowskiMetric

__all__ = [
    "FOUND_LINF_COUNTEREXAMPLE_SITES",
    "PAPER_COUNTEREXAMPLE_SITES",
    "CounterexampleResult",
    "counterexample_census",
    "search_counterexamples",
]

#: The five exceptional sites of Eq. 12, verbatim from the paper.
PAPER_COUNTEREXAMPLE_SITES = np.array(
    [
        [0.205281, 0.621547, 0.332507],
        [0.053421, 0.344351, 0.260859],
        [0.418166, 0.207143, 0.119789],
        [0.735218, 0.653301, 0.650154],
        [0.527133, 0.814207, 0.704307],
    ]
)


#: Five sites in 3-d L∞ space found by :func:`search_counterexamples`
#: (seed 123, 150k-point censuses) realizing > 96 permutations — our
#: reproduction of the paper's remark that "similar counterexamples were
#: found for three-dimensional spaces with ... L∞ and k = 5".
FOUND_LINF_COUNTEREXAMPLE_SITES = np.array(
    [
        [0.588206803, 0.000186379777, 0.197099418],
        [0.779598163, 0.342190497, 0.843060960],
        [0.602672523, 0.986654937, 0.763854232],
        [0.0930444278, 0.837787891, 0.663912156],
        [0.220122755, 0.516804413, 0.160351790],
    ]
)


@dataclass(frozen=True)
class CounterexampleResult:
    """Census outcome versus the Euclidean limit."""

    d: int
    k: int
    p: float
    observed: int
    euclidean_limit: int

    @property
    def exceeds(self) -> bool:
        return self.observed > self.euclidean_limit


def counterexample_census(
    sites: Optional[np.ndarray] = None,
    p: float = 1.0,
    n_points: int = 1_000_000,
    seed: int = 20080411,
) -> CounterexampleResult:
    """Count permutations of a uniform unit-cube database w.r.t. ``sites``.

    Defaults reproduce the paper's experiment: the Eq. 12 sites under L1
    with a million uniform points.  The observed count is a *lower* bound
    on the number of cells ("even more ... may exist because the
    experiment only counted permutations represented in the database").
    """
    sites = (
        PAPER_COUNTEREXAMPLE_SITES if sites is None else np.asarray(sites)
    )
    k, d = sites.shape
    metric = MinkowskiMetric(p)
    rng = np.random.default_rng(seed)
    points = rng.random((n_points, d))
    census = StreamingCensus().update_points(points, sites, metric)
    return CounterexampleResult(
        d=d,
        k=k,
        p=p,
        observed=census.distinct,
        euclidean_limit=euclidean_permutation_count(d, k),
    )


def search_counterexamples(
    d: int,
    k: int,
    p: float,
    n_trials: int = 20,
    n_points: int = 200_000,
    seed: int = 1,
) -> List[Tuple[CounterexampleResult, np.ndarray]]:
    """Random search for site sets beating the Euclidean limit.

    Mirrors how the paper found Eq. 12: draw random sites in the unit
    cube, count permutations over a uniform database, keep configurations
    whose count exceeds ``N_{d,2}(k)``.  Returns (result, sites) pairs for
    every success.
    """
    rng = np.random.default_rng(seed)
    successes = []
    for _ in range(n_trials):
        sites = rng.random((k, d))
        result = counterexample_census(
            sites, p=p, n_points=n_points, seed=int(rng.integers(0, 2**31))
        )
        if result.exceeds:
            successes.append((result, sites))
    return successes
