"""Table 2: distance permutations in the SISAP sample-database analogues.

For each database the harness draws ``k = 12`` sites once (seeded), counts
unique permutations of every prefix length ``k = 3..12`` — prefixes of the
same site draw, exactly how one site set serves all ``k`` in the paper's
``build-distperm-*`` runs — and reports the measured intrinsic
dimensionality ``ρ`` next to the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.dimension import estimate_rho
from repro.datasets.sisap import DATABASE_NAMES, PAPER_TABLE2, load_database
from repro.experiments.harness import format_table
from repro.parallel.census import sharded_census
from repro.parallel.executor import get_executor

__all__ = ["Table2Row", "table2_rows", "format_table2"]

#: Prefix lengths of the paper's Table 2; a database needs ``max`` rows.
PAPER_KS = tuple(range(3, 13))


@dataclass
class Table2Row:
    """One database's census: measured counts per ``k`` plus metadata."""

    name: str
    n: int
    rho: float
    counts: Dict[int, int]
    paper_n: int
    paper_rho: float
    paper_counts: Dict[int, int] = field(default_factory=dict)


def _census_by_prefix(
    points: Sequence,
    metric,
    site_indices: Sequence[int],
    ks: Sequence[int],
    executor=None,
) -> Dict[int, int]:
    """Unique-permutation counts for every prefix length in ``ks``.

    One ``n x k_max`` distance matrix is computed (per database shard);
    the count for each smaller ``k`` uses the first ``k`` sites, so all
    counts describe nested site sets (monotone nondecreasing in ``k`` by
    construction).  Sharded partial censuses merge exactly, so counts are
    identical for every ``workers`` setting.
    """
    sites = [points[i] for i in site_indices]
    censuses, _ = sharded_census(
        points, sites, metric, ks=ks, executor=executor
    )
    return {k: censuses[k].distinct for k in ks}


def table2_rows(
    names: Optional[Iterable[str]] = None,
    ks: Sequence[int] = PAPER_KS,
    n: int = 0,
    scale: float = 0.0,
    seed: int = 20080411,
    rho_pairs: int = 2000,
    workers: Optional[int] = None,
) -> List[Table2Row]:
    """Regenerate Table 2 rows over the database analogues.

    ``n`` / ``scale`` are forwarded to
    :func:`repro.datasets.sisap.load_database`; the default keeps each
    analogue at a laptop-fast size.  ``workers`` parallelizes each
    database's census (:mod:`repro.parallel`) without changing any count.
    """
    names = list(names) if names is not None else list(DATABASE_NAMES)
    k_max = max(ks)
    rows = []
    # One pool serves every database's census.
    with get_executor(workers) as executor:
        for name in names:
            database = load_database(name, n=n, scale=scale, seed=seed)
            rng = np.random.default_rng([seed, 1, DATABASE_NAMES.index(name)])
            site_indices = [
                int(i)
                for i in rng.choice(
                    len(database.points), size=k_max, replace=False
                )
            ]
            counts = _census_by_prefix(
                database.points, database.metric, site_indices, list(ks),
                executor=executor,
            )
            rho = estimate_rho(
                database.points,
                database.metric,
                n_pairs=min(rho_pairs, len(database.points) * 4),
                rng=np.random.default_rng(
                    [seed, 2, DATABASE_NAMES.index(name)]
                ),
            )
            meta = PAPER_TABLE2[name]
            rows.append(
                Table2Row(
                    name=name,
                    n=len(database.points),
                    rho=rho,
                    counts=counts,
                    paper_n=meta["n"],
                    paper_rho=meta["rho"],
                    paper_counts=dict(meta["counts"]),
                )
            )
    return rows


def format_table2(rows: List[Table2Row], ks: Sequence[int] = PAPER_KS) -> str:
    """Render measured rows in the paper's Table 2 layout."""
    headers = ["Database", "n", "rho"] + [f"k={k}" for k in ks]
    body = [
        [row.name, row.n, f"{row.rho:.3f}"] + [row.counts.get(k, "") for k in ks]
        for row in rows
    ]
    return format_table(headers, body)
