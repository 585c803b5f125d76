"""Bench: the packed permutation-code census engine vs the row-view one.

Measures the census hot path of Tables 2–3 — fold, merge, and the
per-prefix census — with the code engine (`encode_permutations` +
integer-keyed :class:`~repro.core.estimate.StreamingCensus`) against the
representation it replaced: :class:`RowViewCensus` below, an in-file copy
of the previous void-row-view ``StreamingCensus`` (np.unique over per-row
byte views, Python-dict key merging), kept here so the baseline stays
runnable and its numbers stay in ``BENCH_census.json``.

The prefix row times the census of every width ``3..k`` from the
metric's ``to_sites_compact`` columns the way ``sharded_census`` runs
it: codes at the widest width only, one sort, and every narrower census
by :meth:`~repro.core.estimate.StreamingCensus.restricted` (each width
from the next wider).  Two baselines run beside it with equal distinct
counts asserted: the row-view census per width, and
:func:`_prefix_unique_per_width` below — codes at every width and one
``np.unique`` per width, the previous code engine kept in-file.

A third row times how the codes are *made*: the from-distances engine
(:func:`~repro.core.permutation.prefix_codes_from_distances` over the
metric's ``to_sites_compact`` columns — byte-wide column compares, no
sort) against the route it replaced, stable argsort +
``prefix_permutation_codes``, with identical per-width counts asserted.

A fourth row times how the *index* makes its codes and rank positions
(``index_codes_speedup``): the pair-compare kernel
(:func:`~repro.core.permutation.ranks_from_distances`) over the metric's
``to_sites_compact`` row blocks, the way ``site_ranks`` feeds a
``DistPermIndex`` build, against the route it replaced — stable argsort
of the float64 matrix, ``permutation_positions`` into the column-major
``uint8`` layout, ``encode_permutations`` — with equal positions and
codes asserted.

Workloads: the paper's headline dictionary-Levenshtein database (n=10k,
k=8 sites — the acceptance workload) and an 8-d Euclidean control with
k=12.  Distances and permutations are computed once, untimed: the bench
isolates census/merge/prefix work from the metric kernels measured by
``bench_metrics.py``.

    PYTHONPATH=src python benchmarks/bench_census.py            # full
    PYTHONPATH=src python benchmarks/bench_census.py --smoke    # CI sizes

Whenever both engines run (always), the code engine must win the
combined census+merge time, restriction must beat the per-width
``np.unique`` loop, and both from-distances kernels must beat argsort +
encode, or the bench exits nonzero; the full run additionally asserts
the >= 5x floor on the dictionary workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.estimate import StreamingCensus  # noqa: E402
from repro.core.permutation import (  # noqa: E402
    compact_position_dtype,
    encode_permutations,
    permutation_positions,
    permutations_from_distances,
    prefix_codes_from_distances,
    prefix_permutation_codes,
    ranks_from_distances,
)
from repro.datasets.dictionaries import synthetic_dictionary  # noqa: E402
from repro.datasets.vectors import uniform_vectors  # noqa: E402
from repro.metrics import EuclideanDistance, LevenshteinDistance  # noqa: E402

#: Acceptance floor for the dictionary census+merge speedup (full mode).
REQUIRED_SPEEDUP = 5.0
#: Partial censuses merged in the merge measurement (a shard layout).
MERGE_PARTS = 8
#: Timing repeats (best-of).
REPEATS = 3
#: Best-of repeats for the code-making and restriction rows: both sides
#: take milliseconds, so a few more runs keep a scheduler hiccup out of
#: the armed guards.
ENGINE_REPEATS = 7


class RowViewCensus:
    """The pre-code-engine ``StreamingCensus``, verbatim: the baseline.

    Rows dedupe through one :func:`np.unique` over a per-row void (byte)
    view; distinct keys live in a Python dict of row bytes; merging walks
    the dict key by key.
    """

    def __init__(self):
        self._counts = {}
        self._total = 0

    def update(self, perms):
        perms = np.asarray(perms)
        n, k = perms.shape
        if n == 0:
            return
        rows = np.ascontiguousarray(perms.astype(np.int64, copy=False))
        row_view = rows.view(
            np.dtype((np.void, rows.dtype.itemsize * k))
        ).ravel()
        unique, counts = np.unique(row_view, return_counts=True)
        for row, count in zip(unique, counts):
            key = row.tobytes()
            self._counts[key] = self._counts.get(key, 0) + int(count)
        self._total += n

    def merge(self, other):
        counts = self._counts
        for key, count in other._counts.items():
            counts[key] = counts.get(key, 0) + count
        self._total += other._total
        return self

    @classmethod
    def merged(cls, censuses):
        out = cls()
        for census in censuses:
            out.merge(census)
        return out

    @property
    def distinct(self):
        return len(self._counts)

    @property
    def total(self):
        return self._total

    def frequency_of_frequencies(self):
        out = {}
        for count in self._counts.values():
            out[count] = out.get(count, 0) + 1
        return out


def _best_of(fn, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _fold(census_cls, perms):
    # One whole-database update: exactly what the serial census drivers
    # (Table 2/3, ``sharded_census`` with one shard) feed the census.
    census = census_cls()
    census.update(perms)
    return census


def _partials(census_cls, perms):
    bounds = np.linspace(0, perms.shape[0], MERGE_PARTS + 1).astype(int)
    parts = []
    for i in range(MERGE_PARTS):
        part = census_cls()
        part.update(perms[bounds[i] : bounds[i + 1]])
        parts.append(part)
    return parts


def _prefix_rowview(distances, ks):
    out = {}
    for k in ks:
        census = RowViewCensus()
        census.update(permutations_from_distances(distances[:, :k]))
        out[k] = census.distinct
    return out


def _prefix_unique_per_width(compact, ks):
    """The previous prefix census, kept as the baseline: one code column
    per width, one ``np.unique`` per width."""
    out = {}
    for k, codes in prefix_codes_from_distances(compact, ks).items():
        census = StreamingCensus()
        census.update_codes(codes, k, coding="prefix")
        out[k] = census.distinct
    return out


def _prefix_restricted(compact, ks):
    top = max(ks)
    census = StreamingCensus()
    census.update_codes(
        prefix_codes_from_distances(compact, [top])[top], top, coding="prefix"
    )
    out = {}
    for k in sorted(ks, reverse=True):  # each from the next wider width
        census = census.restricted(k)
        out[k] = census.distinct
    return out


def run_workload(name, points, metric, n_sites, rng):
    site_indices = rng.choice(len(points), size=n_sites, replace=False)
    sites = [points[int(i)] for i in site_indices]
    distances = metric.to_sites(points, sites)
    perms = permutations_from_distances(distances)
    prefix_ks = list(range(3, n_sites + 1))

    # How the codes are made: the census's own input (the metric's
    # compact site columns, its row blocks stacked) through the sort-free
    # kernel, against a stable argsort of the float64 matrix + codes from
    # the permutations.
    # Each block lasts until the next is drawn: keep a copy.
    blocks = [
        (start, stop, block.copy(order="K"))
        for start, stop, block in metric.to_sites_compact(points, sites)
    ]
    compact = (
        blocks[0][2]
        if len(blocks) == 1
        else np.concatenate([block for _, _, block in blocks])
    )
    argsort_codes, t_argsort_encode = _best_of(
        lambda: prefix_permutation_codes(
            permutations_from_distances(distances), prefix_ks
        ),
        ENGINE_REPEATS,
    )
    distance_codes, t_from_distances = _best_of(
        lambda: prefix_codes_from_distances(compact, prefix_ks),
        ENGINE_REPEATS,
    )
    # Equal codes point for point, hence identical counts at every width.
    for k in prefix_ks:
        if not np.array_equal(argsort_codes[k], distance_codes[k]):
            raise AssertionError(f"{name}: code engines disagree at k={k}")

    # How the index makes its codes and positions: the pair kernel over
    # the metric's row blocks (as site_ranks runs it), against argsort +
    # inversion into the column-major layout + Lehmer encode.
    layout = (n_sites, len(points))
    position_dtype = compact_position_dtype(n_sites)

    def index_by_argsort():
        perms = permutations_from_distances(distances)
        positions = np.empty(layout, dtype=position_dtype).T
        permutation_positions(perms, out=positions)
        return positions, encode_permutations(perms)

    def index_by_kernel():
        positions = np.empty(layout, dtype=position_dtype).T
        codes = np.empty(len(points), dtype=np.uint64)
        for start, stop, block in blocks:
            ranks_from_distances(
                block, positions=positions[start:stop], codes=codes[start:stop]
            )
        return positions, codes

    argsort_index, t_index_argsort = _best_of(index_by_argsort, ENGINE_REPEATS)
    kernel_index, t_index_kernel = _best_of(index_by_kernel, ENGINE_REPEATS)
    for want, got in zip(argsort_index, kernel_index):
        if want.dtype != got.dtype or not np.array_equal(want, got):
            raise AssertionError(f"{name}: index code engines disagree")

    row_census, t_row = _best_of(lambda: _fold(RowViewCensus, perms))
    code_census, t_code = _best_of(lambda: _fold(StreamingCensus, perms))
    if row_census.distinct != code_census.distinct:
        raise AssertionError(f"{name}: census engines disagree on distinct")
    if (
        row_census.frequency_of_frequencies()
        != code_census.frequency_of_frequencies()
    ):
        raise AssertionError(f"{name}: census engines disagree on spectrum")

    row_parts = _partials(RowViewCensus, perms)
    code_parts = _partials(StreamingCensus, perms)
    row_merged, t_row_merge = _best_of(
        lambda: RowViewCensus.merged(row_parts)
    )
    code_merged, t_code_merge = _best_of(
        lambda: StreamingCensus.merged(code_parts)
    )
    if row_merged.distinct != code_merged.distinct:
        raise AssertionError(f"{name}: merge engines disagree on distinct")

    row_prefix, t_row_prefix = _best_of(
        lambda: _prefix_rowview(distances, prefix_ks)
    )
    unique_prefix, t_unique_prefix = _best_of(
        lambda: _prefix_unique_per_width(compact, prefix_ks), ENGINE_REPEATS
    )
    code_prefix, t_code_prefix = _best_of(
        lambda: _prefix_restricted(compact, prefix_ks), ENGINE_REPEATS
    )
    if not row_prefix == unique_prefix == code_prefix:
        raise AssertionError(f"{name}: prefix censuses disagree")

    combined = (t_row + t_row_merge) / max(1e-12, t_code + t_code_merge)
    result = {
        "dataset": name,
        "n": len(points),
        "k": n_sites,
        "distinct": code_census.distinct,
        "merge_parts": MERGE_PARTS,
        "census_rowview_s": round(t_row, 5),
        "census_code_s": round(t_code, 5),
        "census_speedup": round(t_row / max(1e-12, t_code), 2),
        "merge_rowview_s": round(t_row_merge, 5),
        "merge_code_s": round(t_code_merge, 5),
        "merge_speedup": round(t_row_merge / max(1e-12, t_code_merge), 2),
        "census_merge_speedup": round(combined, 2),
        "prefix_ks": prefix_ks,
        "prefix_rowview_s": round(t_row_prefix, 5),
        "prefix_code_s": round(t_code_prefix, 5),
        "prefix_speedup": round(t_row_prefix / max(1e-12, t_code_prefix), 2),
        "prefix_unique_per_width_s": round(t_unique_prefix, 5),
        "prefix_restrict_speedup": round(
            t_unique_prefix / max(1e-12, t_code_prefix), 2
        ),
        "codes_input": f"{compact.dtype.name} "
        f"{'column' if compact.flags.f_contiguous else 'row'}-major",
        "codes_argsort_encode_s": round(t_argsort_encode, 5),
        "codes_from_distances_s": round(t_from_distances, 5),
        "codes_speedup": round(
            t_argsort_encode / max(1e-12, t_from_distances), 2
        ),
        "index_codes_blocks": len(blocks),
        "index_codes_argsort_s": round(t_index_argsort, 5),
        "index_codes_kernel_s": round(t_index_kernel, 5),
        "index_codes_speedup": round(
            t_index_argsort / max(1e-12, t_index_kernel), 2
        ),
    }
    print(
        f"{name}: census {t_row * 1e3:8.2f} ms rows -> "
        f"{t_code * 1e3:7.2f} ms codes ({result['census_speedup']}x), "
        f"merge {result['merge_speedup']}x, "
        f"census+merge {result['census_merge_speedup']}x, "
        f"prefix {result['prefix_speedup']}x "
        f"({result['prefix_restrict_speedup']}x over per-width unique), "
        f"codes {t_argsort_encode * 1e3:.2f} ms argsort+encode -> "
        f"{t_from_distances * 1e3:.2f} ms from distances "
        f"({result['codes_speedup']}x), "
        f"index codes {t_index_argsort * 1e3:.2f} ms argsort+positions+"
        f"encode -> {t_index_kernel * 1e3:.2f} ms pair kernel "
        f"({result['index_codes_speedup']}x) "
        f"({result['distinct']} distinct)"
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Permutation-code census engine benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: both engines still run and the "
        "code-faster guard stays armed; skips the 5x floor, writes no "
        "JSON unless --output is given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"result JSON path (default: {REPO_ROOT / 'BENCH_census.json'})",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(20080415)
    if args.smoke:
        workloads = [
            run_workload(
                "dictionary-en",
                synthetic_dictionary("English", 2_000, rng=rng),
                LevenshteinDistance(),
                8,
                rng,
            ),
            run_workload(
                "uniform-8d", uniform_vectors(2_000, 8, rng),
                EuclideanDistance(), 8, rng,
            ),
        ]
    else:
        workloads = [
            run_workload(
                "dictionary-en",
                synthetic_dictionary("English", 10_000, rng=rng),
                LevenshteinDistance(),
                8,
                rng,
            ),
            run_workload(
                "uniform-8d", uniform_vectors(50_000, 8, rng),
                EuclideanDistance(), 12, rng,
            ),
        ]

    report = {
        "bench": "bench_census",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "workloads": workloads,
    }
    output = args.output
    if output is None and not args.smoke:
        output = REPO_ROOT / "BENCH_census.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    # Guard: armed whenever both engines run — i.e. on every invocation.
    for workload in workloads:
        if workload["census_merge_speedup"] <= 1.0:
            print(
                f"FAIL: {workload['dataset']} code-engine census+merge "
                f"{workload['census_merge_speedup']}x is not faster than "
                f"the row-view baseline"
            )
            return 1
        if workload["prefix_restrict_speedup"] <= 1.0:
            print(
                f"FAIL: {workload['dataset']} prefix census by restriction "
                f"{workload['prefix_restrict_speedup']}x is not faster than "
                f"one np.unique per width"
            )
            return 1
        if workload["codes_speedup"] <= 1.0:
            print(
                f"FAIL: {workload['dataset']} codes from distances "
                f"{workload['codes_speedup']}x is not faster than "
                f"argsort + encode"
            )
            return 1
        if workload["index_codes_speedup"] <= 1.0:
            print(
                f"FAIL: {workload['dataset']} index codes and positions "
                f"from the pair kernel {workload['index_codes_speedup']}x "
                f"are not faster than argsort + positions + encode"
            )
            return 1
    if not args.smoke:
        dictionary = workloads[0]
        if dictionary["census_merge_speedup"] < REQUIRED_SPEEDUP:
            print(
                f"FAIL: dictionary census+merge speedup "
                f"{dictionary['census_merge_speedup']}x < required "
                f"{REQUIRED_SPEEDUP}x"
            )
            return 1
        print(
            f"OK: dictionary census+merge speedup "
            f"{dictionary['census_merge_speedup']}x >= {REQUIRED_SPEEDUP}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
