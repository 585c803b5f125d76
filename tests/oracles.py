"""Independent oracles and fixtures the tests check the library against.

Nothing in ``src/`` calls these.  Each is a plain, loop-level
restatement of a definition (metric axioms, Kendall tau, permutation
inverses, distinct rows and prefixes, Shannon entropy, the sharded
global budget split) or a data
generator only tests need: explicit-matrix metric spaces with no vector
or string structure (the paper's general-metric setting, where all
``k!`` permutations can occur) and clustered vectors.  Keeping them
beside the tests means the library's fast paths are always compared
with code that shares none of their kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Optional, Sequence, Set, Tuple

import numpy as np

from repro.metrics import Metric

# ----------------------------------------------------------------------
# Finite metric spaces and metric axioms.
# ----------------------------------------------------------------------


class MatrixMetric(Metric):
    """Metric over points ``0..n-1`` backed by an explicit matrix.

    The matrix is validated at construction: symmetric, zero diagonal,
    positive off-diagonal, triangle inequality (within ``tol``).
    """

    name = "matrix"

    def __init__(self, matrix: np.ndarray, tol: float = 1e-9):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"need a square matrix, got {matrix.shape}")
        if not np.allclose(matrix, matrix.T, atol=tol):
            raise ValueError("matrix is not symmetric")
        if np.any(np.abs(np.diag(matrix)) > tol):
            raise ValueError("diagonal must be zero")
        off_diagonal = matrix[~np.eye(matrix.shape[0], dtype=bool)]
        if off_diagonal.size and off_diagonal.min() <= 0:
            raise ValueError("off-diagonal distances must be positive")
        n = matrix.shape[0]
        # Triangle inequality via one round of min-plus against itself.
        for j in range(n):
            through_j = matrix[:, [j]] + matrix[[j], :]
            if np.any(matrix > through_j + tol):
                raise ValueError(
                    f"triangle inequality violated through point {j}"
                )
        self.matrix_data = matrix

    def distance(self, x: int, y: int) -> float:
        return float(self.matrix_data[x, y])

    def matrix(self, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
        return self.matrix_data[np.ix_(list(xs), list(ys))]

    def pairwise(self, xs: Sequence[int]) -> np.ndarray:
        return self.matrix(xs, xs)

    def __len__(self) -> int:
        return self.matrix_data.shape[0]


def metric_closure(matrix: np.ndarray) -> np.ndarray:
    """Return the shortest-path (min-plus) closure of a distance matrix.

    Floyd–Warshall over a symmetric nonnegative matrix with zero
    diagonal; the result satisfies the triangle inequality and is the
    largest such matrix pointwise below the input.
    """
    closed = np.asarray(matrix, dtype=np.float64).copy()
    n = closed.shape[0]
    if closed.ndim != 2 or closed.shape[1] != n:
        raise ValueError(f"need a square matrix, got {closed.shape}")
    for j in range(n):
        np.minimum(closed, closed[:, [j]] + closed[[j], :], out=closed)
    return closed


@dataclass(frozen=True)
class MetricViolation:
    """A witnessed failure of a metric axiom."""

    axiom: str
    points: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} violated at {self.points}: {self.detail}"


def _same_point(x: Any, y: Any) -> bool:
    """Equality that also works for numpy arrays."""
    try:
        return bool(x == y)
    except ValueError:  # ambiguous array comparison
        return bool(np.array_equal(x, y))


def check_identity(
    metric: Metric, points: Sequence[Any], tol: float = 1e-9
) -> Optional[MetricViolation]:
    """Check ``d(x, x) == 0`` and ``d(x, y) > 0`` for distinct sampled points."""
    for x in points:
        d = metric.distance(x, x)
        if abs(d) > tol:
            return MetricViolation("identity", (x,), f"d(x, x) = {d}")
    for x, y in combinations(points, 2):
        if _same_point(x, y):
            continue
        d = metric.distance(x, y)
        if d <= tol:
            return MetricViolation(
                "positivity", (x, y), f"d(x, y) = {d} for distinct points"
            )
    return None


def check_symmetry(
    metric: Metric, points: Sequence[Any], tol: float = 1e-9
) -> Optional[MetricViolation]:
    """Check ``d(x, y) == d(y, x)`` over all sampled pairs."""
    for x, y in combinations(points, 2):
        dxy = metric.distance(x, y)
        dyx = metric.distance(y, x)
        if abs(dxy - dyx) > tol:
            return MetricViolation(
                "symmetry", (x, y), f"d(x, y) = {dxy} but d(y, x) = {dyx}"
            )
    return None


def check_triangle_inequality(
    metric: Metric, points: Sequence[Any], tol: float = 1e-9
) -> Optional[MetricViolation]:
    """Check ``d(x, z) <= d(x, y) + d(y, z)`` over all sampled triples."""
    n = len(points)
    distances = metric.pairwise(points)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                slack = distances[i, j] + distances[j, k] - distances[i, k]
                if slack < -tol:
                    return MetricViolation(
                        "triangle",
                        (points[i], points[j], points[k]),
                        f"d(x, z) exceeds d(x, y) + d(y, z) by {-slack}",
                    )
    return None


def check_metric_axioms(
    metric: Metric, points: Sequence[Any], tol: float = 1e-9
) -> Optional[MetricViolation]:
    """Run every axiom check; return the first violation or ``None``."""
    for check in (check_identity, check_symmetry, check_triangle_inequality):
        violation = check(metric, points, tol=tol)
        if violation is not None:
            return violation
    return None


def random_metric_space(
    n: int,
    rng: Optional[np.random.Generator] = None,
    scale: float = 1.0,
) -> MatrixMetric:
    """Generate an arbitrary finite metric space on ``n`` points.

    Random positive distances are symmetrized and closed under
    shortest paths, yielding a valid metric with no geometric structure —
    the paper's fully general setting.
    """
    if n < 2:
        raise ValueError("need at least two points")
    generator = rng if rng is not None else np.random.default_rng()
    raw = generator.random((n, n)) * scale + scale * 1e-3
    raw = 0.5 * (raw + raw.T)
    np.fill_diagonal(raw, 0.0)
    return MatrixMetric(metric_closure(raw))


# ----------------------------------------------------------------------
# Permutations.
# ----------------------------------------------------------------------


def is_permutation(perm: Sequence[int]) -> bool:
    """Return True if ``perm`` is a permutation of ``0..len(perm)-1``."""
    return sorted(perm) == list(range(len(perm)))


def inverse_permutation(perm: Sequence[int]) -> Tuple[int, ...]:
    """Return the inverse: ``inv[site] = rank`` of that site in ``perm``."""
    inv = [0] * len(perm)
    for rank, site in enumerate(perm):
        inv[site] = rank
    return tuple(inv)


def kendall_tau(perm_a: Sequence[int], perm_b: Sequence[int]) -> int:
    """Kendall tau: number of discordant site pairs between two permutations."""
    if len(perm_a) != len(perm_b):
        raise ValueError("permutations must have the same length")
    pos_a = inverse_permutation(perm_a)
    pos_b = inverse_permutation(perm_b)
    k = len(pos_a)
    return sum(
        (pos_a[i] - pos_a[j]) * (pos_b[i] - pos_b[j]) < 0
        for i in range(k)
        for j in range(i + 1, k)
    )


def lehmer_rank(perm: Sequence[int]) -> int:
    """Lexicographic rank of a permutation, one Lehmer digit at a time."""
    k = len(perm)
    rank = 0
    for i, value in enumerate(perm):
        rank = rank * (k - i) + sum(later < value for later in perm[i + 1 :])
    return rank


def distinct_permutations(perms: np.ndarray) -> Set[Tuple[int, ...]]:
    """Return the set of distinct permutations (as tuples) in a matrix."""
    return {tuple(int(v) for v in row) for row in np.asarray(perms)}


def truncate_permutations(perms: np.ndarray, m: int) -> np.ndarray:
    """Return the length-``m`` prefixes of the permutation rows."""
    perms = np.asarray(perms)
    if perms.ndim != 2:
        raise ValueError(f"expected (n, k) matrix, got {perms.shape}")
    if not 1 <= m <= perms.shape[1]:
        raise ValueError(f"need 1 <= m <= {perms.shape[1]}, got {m}")
    return perms[:, :m]


def count_distinct_prefixes(perms: np.ndarray, m: int) -> int:
    """Count distinct length-``m`` prefixes (ordered)."""
    prefixes = truncate_permutations(perms, m)
    return int(np.unique(prefixes, axis=0).shape[0])


# ----------------------------------------------------------------------
# The sharded global budget split.
# ----------------------------------------------------------------------


def replay_global_split(
    shards: Sequence[Any],
    shard_offsets: Sequence[int],
    queries: Sequence[Any],
    k: int,
    budget: int,
    alive: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``knn_approx`` under the global footrule split, in two phases.

    The split as first described: every live shard ranks its candidates
    (``query_footrules``: its ``min(cap, shard size)`` smallest centered
    footrules per query); a stable sort of those values, shard after
    shard, keeps the ``cap`` smallest per query, and each shard's
    per-query allocation is the number of its values in that cut; each
    shard then answers a budgeted scan with that allocation
    (``knn_approx_batch_arrays`` with a per-query budget array), and the
    answers merge by ``(distance, global index)``, ``k`` per query.
    ``alive`` lists the shards that answer (default: all).  Returns the
    ``(distances, indices, offsets)`` columns.
    """
    alive = list(range(len(shards)) if alive is None else alive)
    k = min(k, shard_offsets[-1])
    cap = max(k, min(budget, shard_offsets[-1]))
    rows: list = [[] for _ in queries]
    if alive:
        footrules = [
            shards[s].query_footrules(queries, min(cap, len(shards[s].points)))
            for s in alive
        ]
        values = np.concatenate(footrules, axis=1)
        labels = np.concatenate(
            [np.full(f.shape[1], s) for s, f in zip(alive, footrules)]
        )
        chosen = labels[np.argsort(values, axis=1, kind="stable")[:, :cap]]
        for s in alive:
            allocation = (chosen == s).sum(axis=1).astype(np.int64)
            answer = shards[s].knn_approx_batch_arrays(queries, k, budget=allocation)
            for q in range(len(queries)):
                lo, hi = answer.offsets[q], answer.offsets[q + 1]
                for distance, index in zip(
                    answer.distances[lo:hi], answer.indices[lo:hi]
                ):
                    rows[q].append((float(distance), int(index) + shard_offsets[s]))
    merged = [sorted(row)[:k] for row in rows]
    offsets = np.cumsum([0] + [len(row) for row in merged])
    distances = np.array([d for row in merged for d, _ in row], dtype=np.float64)
    indices = np.array([i for row in merged for _, i in row], dtype=np.int64)
    return distances, indices, offsets.astype(np.int64)


# ----------------------------------------------------------------------
# Entropy and data.
# ----------------------------------------------------------------------


def empirical_entropy_bits(ids: Sequence[int]) -> float:
    """Shannon entropy (bits/element) of an id sample.

    ``0 <= H <= log2(#distinct)``, with equality on the right for a
    uniform distribution — the regime where the fixed-width table
    encoding is already optimal.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("need at least one id")
    _, counts = np.unique(ids, return_counts=True)
    probabilities = counts / counts.sum()
    return float(-(probabilities * np.log2(probabilities)).sum())


def clustered_vectors(
    n: int,
    d: int,
    n_clusters: int = 10,
    spread: float = 0.05,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Return points drawn around ``n_clusters`` uniform cluster centres."""
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    generator = rng if rng is not None else np.random.default_rng()
    centres = generator.random((n_clusters, d))
    assignment = generator.integers(0, n_clusters, size=n)
    return centres[assignment] + spread * generator.standard_normal((n, d))
