"""Bench: the out-of-core engine — mapped code stores vs RAM-resident.

Measures what memory-mapping the Corollary-8 code section actually buys
and costs:

- **mmap-vs-RAM throughput** — ``knn_approx`` batches against the same
  version-3 payload loaded both ways, across a size ladder.  Each
  measurement runs in its own subprocess and reads its own ``VmHWM``,
  the peak RSS of exactly that configuration (``ru_maxrss`` would be
  floored by the parent's footprint at ``fork``).
- **Bounded decoded residency** — every mmap measurement loads a
  dataset whose decoded section (``k`` position bytes per element) is at
  least **4x** the position-cache budget and asserts the store's peak
  decoded residency stayed within the budget.  The cache retains the
  first blocks that fit and never evicts, so even these points score
  hits — the fitting fraction of every scan.
- **What the cache buys** — one more point at the largest size whose
  decoded section *fits* the budget, so after the warm-up the timed
  batches decode nothing, next to the per-code price of a miss (word-
  window unpack + range check + Lehmer unrank into a tile) decoded as a
  one-block run and as the full-tile run the scan decodes, of the unpack
  stage alone, and of a hit (a copy into the tile): the cache holds
  positions, so a hit skips both decode stages and the mmap scan
  differs from the RAM scan only by copying blocks into tiles.
- **Streaming census** — a disk-resident ASCII database censused chunk
  by chunk (:func:`repro.parallel.census.streaming_census`) must
  produce counts identical to the in-memory sharded census.

The guards are armed in *every* mode, including ``--smoke`` (CI):
byte-identical mmap answers — batches, and single queries on the
partial cache, which take the bounded scan — the residency bound, and
census equality all assert before any JSON is written.

    PYTHONPATH=src python benchmarks/bench_outofcore.py           # full
    PYTHONPATH=src python benchmarks/bench_outofcore.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

import numpy as np  # noqa: E402

from benchmarks.e2e.machine import peak_rss_mb  # noqa: E402
from repro.core.permutation import compact_position_dtype  # noqa: E402
from repro.datasets.io import iter_vector_chunks, save_vectors  # noqa: E402
from repro.index import DistPermIndex, distperm  # noqa: E402
from repro.index.base import NeighborArrays  # noqa: E402
from repro.index.serialize import load_distperm, save_distperm  # noqa: E402
from repro.metrics import EuclideanDistance  # noqa: E402
from repro.parallel.census import sharded_census, streaming_census  # noqa: E402

K_SITES = 8
DIM = 8
KNN = 10
BUDGET = 200
N_QUERIES = 64
#: Timed batch calls per measurement (after one warm-up); the median counts.
TIMED_CALLS = 15
SEED = 20080408
#: Decoded section must be at least this multiple of the cache budget.
RESIDENCY_FACTOR = 4
SIZES_FULL = (20_000, 50_000, 100_000, 200_000)
SIZES_SMOKE = (4_096,)
CENSUS_CHUNK_ROWS = 4_096


def _decoded_bytes(n: int) -> int:
    """The decoded section: one uint8 rank position per element and site."""
    return n * K_SITES


def _cache_budget(n: int) -> int:
    """A cache budget the decoded section exceeds by RESIDENCY_FACTOR."""
    return max(8192, _decoded_bytes(n) // RESIDENCY_FACTOR)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    h.update(arrays.distances.tobytes())
    h.update(arrays.indices.tobytes())
    h.update(arrays.offsets.tobytes())
    return h.hexdigest()


def _build_payload(points: np.ndarray, path: Path) -> None:
    index = DistPermIndex(
        points, EuclideanDistance(), n_sites=K_SITES,
        rng=np.random.default_rng(SEED),
    )
    save_distperm(path, index)


def _ratio(a, b):
    return round(a / b, 3) if a and b else None


def _queries(rng: np.random.Generator) -> np.ndarray:
    return rng.random((N_QUERIES, DIM))


def _median_us(fn, items) -> float:
    times = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - start)
    return round(float(np.median(times)) * 1e6, 2)


def _block_costs(store) -> dict:
    """Median price of a position-cache miss (unpack + range check +
    unrank into a tile) per code, decoded as a one-block run and as the
    full-tile run the index's scan decodes, next to the unpack stage
    alone and a hit (a copy out of the cache)."""
    block = store.block_elements
    tile_blocks = max(1, distperm._TILE_BYTES // (store.k * block))
    tile = np.empty(
        (store.k, min(tile_blocks * block, store.count)),
        dtype=compact_position_dtype(store.k),
    )
    singles = [(b, b + 1) for b in range(store.n_blocks)]
    runs = [
        (first, min(first + tile_blocks, store.n_blocks))
        for first in range(0, store.n_blocks, tile_blocks)
    ]

    def fill(blocks):
        first, stop = blocks
        width = min(stop * block, store.count) - first * block
        store.positions_block(first, stop, out=tile[:, :width])
        return width

    def ns_per_code(ranges):
        rates = []
        for blocks in ranges:
            start = time.perf_counter()
            width = fill(blocks)
            rates.append((time.perf_counter() - start) / width)
        return round(float(np.median(rates)) * 1e9, 2)

    # Misses are priced as the partial-cache scan pays them: decoded and
    # never retained.
    store.clear_cache()
    budget, store.cache_bytes = store.cache_bytes, 0
    try:
        miss_ns = ns_per_code(singles)
        run_miss_ns = ns_per_code(runs)
    finally:
        store.cache_bytes = budget
    for blocks in runs:  # retain every block again
        fill(blocks)
    hit_ns = ns_per_code(singles)
    unpack_us = _median_us(store.codes_block, range(store.n_blocks))
    unpack_ns = unpack_us * 1e3 / min(block, store.count)
    return {
        "block_elements": block,
        "tile_blocks": tile_blocks,
        "miss_ns_per_code": miss_ns,
        "run_miss_ns_per_code": run_miss_ns,
        "unpack_ns_per_code": round(unpack_ns, 2),
        "hit_ns_per_code": hit_ns,
    }


def _measure_inprocess(points, payload, backing, cache_bytes):
    """Load ``payload`` under ``backing``, query it, and report.

    A ``cache_bytes`` that holds the whole decoded section marks the
    cache-fit point: the timed batches must decode nothing, the
    per-block costs are probed, and the RAM-backed index is loaded and
    timed *in this process*, calls alternating, because the ratio of two
    processes' medians drifts by a quarter on a shared box and this one
    is gated.  Every other point must overflow the budget by
    ``RESIDENCY_FACTOR`` and still hit its retained blocks.
    """
    kwargs = {}
    if backing == "mmap":
        kwargs = {"backing": "mmap", "cache_bytes": cache_bytes}
    index = load_distperm(payload, points, EuclideanDistance(), **kwargs)
    store = getattr(index, "code_store", None)
    fits = store is not None and store.decoded_bytes_total() <= cache_bytes
    timed = [index]
    if fits:
        timed.append(load_distperm(payload, points, EuclideanDistance()))
    try:
        queries = _queries(np.random.default_rng(SEED + 1))
        for each in timed:
            each.knn_approx_batch_arrays(queries, KNN, budget=BUDGET)  # warm
        times = [[] for _ in timed]
        answers = [None for _ in timed]
        for _ in range(TIMED_CALLS):
            for slot, each in enumerate(timed):
                start = time.perf_counter()
                answers[slot] = each.knn_approx_batch_arrays(
                    queries, KNN, budget=BUDGET
                )
                times[slot].append(time.perf_counter() - start)
        elapsed = float(np.median(times[0]))
        result = {
            "backing": backing,
            "elapsed_s": round(elapsed, 6),
            "timed_calls": TIMED_CALLS,
            "qps": round(N_QUERIES / elapsed, 2) if elapsed > 0 else None,
            "digest": _digest(answers[0]),
        }
        if backing == "mmap" and not fits:
            # One query at a time is a chunk the bounded scan takes (it
            # decodes only codes whose prefix bound reaches the budget);
            # the caller checks its rows against the RAM batch.
            result["single_digest"] = _digest(NeighborArrays.concat([
                index.knn_approx_batch_arrays(query[None], KNN, budget=BUDGET)
                for query in queries
            ]))
        if fits:
            # (No RSS here: this process holds the RAM index too.)
            result["paired_ram_qps"] = round(
                N_QUERIES / float(np.median(times[1])), 2
            )
        else:
            result["peak_rss_kb"] = round(peak_rss_mb(os.getpid()) * 1024)
        store = getattr(index, "code_store", None)
        if store is not None:
            result["decoded_bytes_total"] = store.decoded_bytes_total()
            result["peak_cache_bytes"] = store.peak_cache_bytes
            result["cache_bytes"] = store.cache_bytes
            result["cache_hits"] = store.cache_hits
            result["cache_misses"] = store.cache_misses
            if store.peak_cache_bytes > store.cache_bytes:
                raise AssertionError(
                    f"peak decoded residency {store.peak_cache_bytes} "
                    f"exceeds the {store.cache_bytes}-byte budget"
                )
            if fits:
                if store.cache_misses != store.n_blocks:
                    raise AssertionError(
                        f"a fitting cache decoded {store.cache_misses} "
                        f"blocks of {store.n_blocks}: each should be "
                        f"decoded once, by the warm-up"
                    )
                result["block_costs"] = _block_costs(store)
            elif store.decoded_bytes_total() < RESIDENCY_FACTOR * cache_bytes:
                raise AssertionError(
                    f"decoded section {store.decoded_bytes_total()}B is "
                    f"not >= {RESIDENCY_FACTOR}x the {cache_bytes}B budget "
                    f"— the bench would not exercise a partial cache"
                )
            elif not store.cache_hits:
                raise AssertionError(
                    "the retained blocks of a partial cache were never hit"
                )
        return result
    finally:
        closer = getattr(index, "close", None)
        if callable(closer):
            closer()


def _measure_subprocess(points_path, payload, backing, cache_bytes):
    """One (payload, backing) measurement in a fresh interpreter."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--_measure",
        str(points_path), str(payload), backing, str(cache_bytes),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        command, capture_output=True, text=True, env=env, check=False
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"measurement subprocess failed ({backing}): "
            f"{proc.stderr.strip()[-500:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_measure_child(argv):
    points_path, payload, backing, cache_bytes = argv
    points = np.load(points_path)
    result = _measure_inprocess(
        points, Path(payload), backing, int(cache_bytes)
    )
    print(json.dumps(result))
    return 0


def bench_throughput_curve(sizes, workdir, *, subprocesses):
    """mmap-vs-RAM throughput and RSS across the size ladder."""
    curve = []
    rng = np.random.default_rng(SEED)
    for n in sizes:
        points = rng.random((n, DIM))
        payload = workdir / f"index-{n}.rpc"
        _build_payload(points, payload)
        cache_bytes = _cache_budget(n)
        if subprocesses:
            source = workdir / f"points-{n}.npy"
            np.save(source, points)
            measure = _measure_subprocess
        else:
            source, measure = points, _measure_inprocess
        ram = measure(source, payload, "ram", cache_bytes)
        mapped = measure(source, payload, "mmap", cache_bytes)
        if mapped["digest"] != ram["digest"]:
            raise AssertionError(
                f"n={n}: mmap answers diverge from the RAM path"
            )
        if mapped["single_digest"] != ram["digest"]:
            raise AssertionError(
                f"n={n}: single mmap queries (the bounded scan) diverge "
                f"from the RAM batch"
            )
        curve.append({
            "n": n,
            "payload_bytes": payload.stat().st_size,
            "cache_bytes": cache_bytes,
            "answers_identical": True,
            "ram": ram,
            "mmap": mapped,
            "mmap_vs_ram_qps": _ratio(mapped["qps"], ram["qps"]),
        })
    # The cache-fit point: the largest payload again, budget as large as
    # its decoded section, against the two measurements just taken.
    fitted = measure(source, payload, "mmap", _decoded_bytes(n))
    if fitted["digest"] != ram["digest"]:
        raise AssertionError(
            f"n={n}: cache-fit mmap answers diverge from the RAM path"
        )
    cache_fit = {
        "n": n,
        "cache_bytes": _decoded_bytes(n),
        "answers_identical": True,
        "mmap": fitted,
        "fit_vs_ram_qps": _ratio(fitted["qps"], fitted["paired_ram_qps"]),
        "fit_vs_partial_qps": _ratio(fitted["qps"], mapped["qps"]),
    }
    return curve, cache_fit


def bench_streaming_census(n, workdir):
    """Chunked on-disk census must equal the in-memory sharded census."""
    rng = np.random.default_rng(SEED + 2)
    points = rng.random((n, DIM))
    sites = points[:K_SITES]
    metric = EuclideanDistance()
    start = time.perf_counter()
    whole, _ = sharded_census(points, sites, metric, ks=[4, K_SITES])
    inmemory_s = time.perf_counter() - start
    database = workdir / f"census-{n}.txt"
    save_vectors(database, points)
    chunk_rows = min(CENSUS_CHUNK_ROWS, max(256, n // 8))
    start = time.perf_counter()
    streamed = streaming_census(
        iter_vector_chunks(database, chunk_rows), sites, metric,
        ks=[4, K_SITES],
    )
    streamed_s = time.perf_counter() - start
    for k in whole:
        same = (
            np.array_equal(streamed[k].codes, whole[k].codes)
            and np.array_equal(streamed[k]._counts, whole[k]._counts)
        )
        if not same:
            raise AssertionError(
                f"streaming census diverges from in-memory at k={k}"
            )
    return {
        "n": n,
        "chunk_rows": chunk_rows,
        "counts_identical": True,
        "distinct": {str(k): whole[k].distinct for k in sorted(whole)},
        "inmemory_s": round(inmemory_s, 4),
        "streamed_s": round(streamed_s, 4),
    }


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--_measure":
        return _run_measure_child(argv[1:])
    parser = argparse.ArgumentParser(
        description="Out-of-core mapped-store vs RAM benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI, measured in-process; the residency, "
        "identical-answer, and census guards still assert; the JSON "
        "write is skipped unless --output is given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="result JSON path "
        f"(default: {REPO_ROOT / 'BENCH_outofcore.json'})",
    )
    args = parser.parse_args(argv)

    sizes = SIZES_SMOKE if args.smoke else SIZES_FULL
    census_n = 4_096 if args.smoke else 50_000
    try:
        with tempfile.TemporaryDirectory(prefix="bench-outofcore-") as tmp:
            workdir = Path(tmp)
            curve, cache_fit = bench_throughput_curve(
                sizes, workdir, subprocesses=not args.smoke
            )
            census = bench_streaming_census(census_n, workdir)
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        return 1

    report = {
        "bench": "bench_outofcore",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "dataset": "uniform-vectors",
        "metric": "euclidean",
        "dim": DIM,
        "sites": K_SITES,
        "knn": KNN,
        "budget": BUDGET,
        "residency_factor": RESIDENCY_FACTOR,
        "throughput_curve": curve,
        "cache_fit": cache_fit,
        "streaming_census": census,
    }
    output = args.output
    if output is None and not args.smoke:
        output = REPO_ROOT / "BENCH_outofcore.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    for point in curve:
        mapped = point["mmap"]
        print(
            f"n={point['n']}: ram {point['ram']['qps']} q/s "
            f"(rss {point['ram']['peak_rss_kb']} KiB) | "
            f"mmap {mapped['qps']} q/s "
            f"(rss {mapped['peak_rss_kb']} KiB, decoded peak "
            f"{mapped['peak_cache_bytes']}/{mapped['cache_bytes']} B, "
            f"{mapped['cache_hits']} hits / {mapped['cache_misses']} "
            f"misses), {point['mmap_vs_ram_qps']}x RAM, answers identical"
        )
    fitted, costs = cache_fit["mmap"], cache_fit["mmap"]["block_costs"]
    print(
        f"cache fits, n={cache_fit['n']}: mmap {fitted['qps']} q/s "
        f"({fitted['cache_hits']} hits / {fitted['cache_misses']} misses; "
        f"{cache_fit['fit_vs_partial_qps']}x the partial-cache run, "
        f"{cache_fit['fit_vs_ram_qps']}x RAM); per code, a miss costs "
        f"{costs['miss_ns_per_code']} ns as a {costs['block_elements']}"
        f"-code block and {costs['run_miss_ns_per_code']} ns in a "
        f"{costs['tile_blocks']}-block tile run (unpack alone "
        f"{costs['unpack_ns_per_code']} ns), a hit "
        f"{costs['hit_ns_per_code']} ns"
    )
    print(
        f"census n={census['n']}: streamed {census['streamed_s']}s vs "
        f"in-memory {census['inmemory_s']}s, counts identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
