"""Bench: extended storage encodings — packed ids, entropy, truncation.

Extensions beyond the paper's accounting (DESIGN.md §6):

- **measured** byte sizes of the bit-packed permutation-table encoding
  (not just the formula);
- entropy coding headroom below the fixed ``ceil(log2 N)`` width (the
  "more sophisticated structure" the paper alludes to);
- truncated permutations: census and storage as a function of prefix
  length, the direction later permutation indexes took.
"""

from __future__ import annotations

import numpy as np
from conftest import write_result

from repro.core.bitpack import bits_for_count, pack_ids, unpack_ids
from repro.core.permutation import decode_permutations
from repro.core.truncated import prefix_census_curve, prefix_storage_bits
from repro.datasets.sisap import load_database
from repro.datasets.vectors import uniform_vectors
from repro.index import DistPermIndex
from repro.metrics import EuclideanDistance


def test_packed_storage_measured_bytes(benchmark, results_dir):
    def run():
        database = load_database("colors", n=4000)
        index = DistPermIndex(
            database.points, database.metric, n_sites=12,
            rng=np.random.default_rng(0),
        )
        census = index.census()
        bit_width = bits_for_count(census.distinct)
        ids = np.searchsorted(census.codes, index.codes)
        return index, census, bit_width, pack_ids(ids, bit_width)

    index, census, bit_width, packed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    n = len(index.points)
    naive_bytes = n * 12  # one byte per permutation entry
    # Bit-packing must realize (close to) the theoretical payload.
    assert len(packed) == (n * bit_width + 7) // 8
    assert len(packed) < naive_bytes / 4
    # Round-trip safety at full scale: table rows gathered by the ids.
    table = decode_permutations(census.codes, 12)
    ids = unpack_ids(packed, bit_width, n).astype(np.int64)
    assert np.array_equal(table[ids], index.permutations)
    total_bytes = len(packed) + 8 * census.distinct
    write_result(
        results_dir,
        "encoding_packed",
        "\n".join(
            [
                f"colors, n={n}, k=12: measured index payload",
                f"  naive bytes (1 B/entry)      : {naive_bytes}",
                f"  packed ids ({bit_width:>2} bits/elt)     : "
                f"{len(packed)} B",
                f"  permutation table            : "
                f"{census.distinct} codes",
                f"  total (ids + 8 B/table code) : {total_bytes} B",
            ]
        ),
    )


def test_entropy_headroom_across_databases(benchmark, results_dir):
    def run():
        reports = {}
        for name in ("colors", "listeria", "long", "nasa"):
            database = load_database(name)
            index = DistPermIndex(
                database.points, database.metric, n_sites=10,
                rng=np.random.default_rng(1),
            )
            reports[name] = index.entropy()
        return reports

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["entropy headroom below the fixed-width table encoding (k=10):"]
    for name, report in reports.items():
        assert report.entropy_bits <= report.fixed_bits + 1e-9
        lines.append(f"  {name:>9}: {report.as_row()}")
    # Skewed real-ish distributions leave real headroom somewhere.
    assert any(r.savings_fraction > 0.05 for r in reports.values())
    write_result(results_dir, "encoding_entropy", "\n".join(lines))


def test_truncated_census_curves(benchmark, results_dir):
    def run():
        curves = {}
        rng = np.random.default_rng(2)
        for d in (2, 4, 8):
            points = uniform_vectors(20_000, d, rng)
            sites = points[rng.choice(20_000, size=12, replace=False)]
            curves[d] = prefix_census_curve(
                points, sites, EuclideanDistance()
            )
        return curves

    curves = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["distinct prefixes vs prefix length m (uniform cube, k=12):",
             "  m:   " + "  ".join(f"{m:>6}" for m in range(1, 13))]
    for d, curve in curves.items():
        values = [curve[m] for m in range(1, 13)]
        assert values == sorted(values)
        assert curve[11] == curve[12]  # last position is forced
        lines.append(
            f"  d={d}: " + "  ".join(f"{v:>6}" for v in values)
        )
        bits = [prefix_storage_bits(curve[m]) for m in (3, 6, 12)]
        lines.append(
            f"       bits/elt at m=3/6/12: {bits[0]} / {bits[1]} / {bits[2]}"
        )
    # Dimension ordering at every prefix length: higher-dimensional data
    # realizes more prefixes throughout the curve (m >= 2; m = 1 is the
    # order-1 Voronoi count, k for every d).
    for m in range(2, 13):
        assert curves[2][m] < curves[4][m] < curves[8][m], m
    write_result(results_dir, "encoding_truncated", "\n".join(lines))


def test_arrangement_engine_census(benchmark, results_dir):
    """Third-engine cross-check at bench scale: the exact rational
    arrangement census equals the LP census for k = 4 and 5, and achieves
    Table 1's N_{2,2}(k) on generic draws."""
    from repro.core.arrangement import count_euclidean_cells_arrangement
    from repro.core.counting import euclidean_permutation_count
    from repro.core.voronoi import count_euclidean_cells_exact

    def run():
        outcomes = []
        for k in (3, 4, 5):
            for seed in range(4):
                sites = np.random.default_rng(seed).random((k, 2))
                combinatorial = count_euclidean_cells_arrangement(sites)
                lp = count_euclidean_cells_exact(sites)
                outcomes.append((k, seed, combinatorial, lp))
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["arrangement census vs LP census (k, seed, cells):"]
    for k, seed, combinatorial, lp in outcomes:
        assert combinatorial == lp == euclidean_permutation_count(2, k)
        lines.append(f"  k={k} seed={seed}: {combinatorial}")
    write_result(results_dir, "encoding_arrangement", "\n".join(lines))
