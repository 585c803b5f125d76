"""Command-line interface: the ``build-distperm-*`` programs, unified.

The paper's experiments were driven by small programs that build a
``distperm`` index over a database file and "write out the permutations
in ASCII as a side effect of index generation, so that the number of
unique permutations can easily be counted with ``sort | uniq | wc``".
``repro census`` is that program; the other subcommands regenerate the
paper's tables and figures from the shell.

Examples::

    python -m repro table1
    python -m repro table2 --names long colors --n 1000
    python -m repro table3 --dims 1 2 3 --n 10000 --runs 3
    python -m repro census --input words.txt --kind strings \\
        --metric levenshtein --sites 8 --dump perms.txt
    python -m repro search --input vectors.txt --kind vectors --metric l2 \\
        --index distperm --mode knn-approx --k 10 --budget 200
    python -m repro search --input words.txt --kind strings \\
        --metric levenshtein --index vptree --shards 4 --resident
    python -m repro search --input words.txt --kind strings \\
        --metric levenshtein --shards 4 --resident \\
        --deadline 0.5 --retries 2 --on-partial degrade
    python -m repro counterexample --points 1000000
    python -m repro figures

``repro search`` drives the *batched* query engine: the whole query set
goes through ``knn_batch`` / ``range_batch`` / ``knn_approx_batch`` in
one call and the report shows queries per second alongside the
literature's distance-evaluations-per-query cost (``--no-batch`` loops
the single-query API instead, for comparison).

The census subcommand and the table generators take ``--workers``
(:mod:`repro.parallel`): the database splits into one row shard per
worker of a task pool, whose partial censuses merge exactly.  ``search``
and ``serve`` take ``--shards`` plus the engine flags (one shared
group): ``--resident`` serves every shard from its own supervised,
pinned worker process, as does any resilience flag, and without them
the shards run in-process.  Answers and censuses are identical to the
serial run for every setting.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]

_METRICS = {
    "l1": lambda: __import__("repro.metrics", fromlist=["x"]).CityblockDistance(),
    "l2": lambda: __import__("repro.metrics", fromlist=["x"]).EuclideanDistance(),
    "linf": lambda: __import__("repro.metrics", fromlist=["x"]).ChebyshevDistance(),
    "levenshtein": lambda: __import__(
        "repro.metrics", fromlist=["x"]
    ).LevenshteinDistance(),
    "prefix": lambda: __import__("repro.metrics", fromlist=["x"]).PrefixDistance(),
    "angular": lambda: __import__("repro.metrics", fromlist=["x"]).AngularDistance(),
}

#: The metrics of string databases; every other one needs ``--kind vectors``.
_STRING_METRICS = ("levenshtein", "prefix")

#: Indexes the ``search`` subcommand can build (see :mod:`repro.index`).
_INDEXES = ("aesa", "distperm", "iaesa", "laesa", "linear", "vptree")


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    """The census task-pool flag (see :mod:`repro.parallel`)."""
    parser.add_argument("--workers", type=int, default=None,
                        help="size of the census task pool, one database "
                             "shard per worker (default: in-process; "
                             "results are identical either way)")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The query-engine flags of ``search`` and ``serve``.

    ``--shards`` plus ``--resident`` and the resilience flags of the
    pinned worker pool; any resilience flag selects the pool, as
    ``--resident`` does.
    """
    parser.add_argument("--shards", type=int, default=None,
                        help="database shards (default: unsharded)")
    parser.add_argument("--resident", action="store_true",
                        help="serve each shard from its own supervised "
                             "pinned worker process (requires --shards)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-query fan-out deadline in seconds "
                             "(pinned workers; default: unbounded)")
    parser.add_argument("--retries", type=int, default=None,
                        help="extra attempts a failed shard gets on a "
                             "respawned worker (pinned workers; default 1)")
    parser.add_argument("--on-partial", choices=("raise", "degrade"),
                        default=None,
                        help="when retries/deadline run out: 'raise' keeps "
                             "exact answers, 'degrade' merges the "
                             "surviving shards and flags the answer "
                             "partial (pinned workers; default raise)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Counting distance permutations — reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="exact N_{d,2}(k) (Table 1)")
    table1.add_argument("--max-d", type=int, default=10)
    table1.add_argument("--max-k", type=int, default=12)

    table2 = commands.add_parser(
        "table2", help="census of the sample-database analogues (Table 2)"
    )
    table2.add_argument("--names", nargs="*", default=None)
    table2.add_argument("--n", type=int, default=0,
                        help="override database size (default: fast preset)")
    table2.add_argument("--seed", type=int, default=20080411)
    _add_workers_flag(table2)

    table3 = commands.add_parser(
        "table3", help="census of uniform random vectors (Table 3)"
    )
    table3.add_argument("--dims", type=int, nargs="*", default=None)
    table3.add_argument("--ks", type=int, nargs="*", default=(4, 8, 12))
    table3.add_argument("--n", type=int, default=20000,
                        help="database size per cell (default 20000)")
    table3.add_argument("--runs", type=int, default=5,
                        help="site draws per cell (default 5)")
    table3.add_argument("--seed", type=int, default=20080411,
                        help="site-draw / database seed (default 20080411)")
    _add_workers_flag(table3)

    census = commands.add_parser(
        "census",
        help="count unique distance permutations of a database file "
             "(the build-distperm program)",
    )
    census.add_argument("--input", required=True, help="database file")
    census.add_argument("--kind", choices=("vectors", "strings"),
                        required=True)
    census.add_argument("--metric", choices=sorted(_METRICS), required=True)
    census.add_argument("--sites", type=int, default=8,
                        help="number of sites k (default 8)")
    census.add_argument("--seed", type=int, default=0)
    census.add_argument("--dump", default=None,
                        help="write per-element permutations (ASCII) here")
    census.add_argument("--chunk-rows", type=int, default=None,
                        help="stream the database from disk in chunks of "
                             "this many rows (bounded memory, counts "
                             "identical to the whole-file run; "
                             "incompatible with --dump)")
    census.add_argument("--report-storage", action="store_true",
                        help="print the bytes the packed code and table "
                             "encodings occupy (what pack_ids writes, plus "
                             "8 B per table code) next to the reported "
                             "Corollary-8 bit bounds")
    _add_workers_flag(census)

    search = commands.add_parser(
        "search",
        help="run a batched query workload over a database file",
    )
    search.add_argument("--input", required=True, help="database file")
    search.add_argument("--kind", choices=("vectors", "strings"),
                        required=True)
    search.add_argument("--metric", choices=sorted(_METRICS), required=True)
    search.add_argument("--index", choices=sorted(_INDEXES), default="linear")
    search.add_argument("--mode", choices=("knn", "range", "knn-approx"),
                        default="knn")
    search.add_argument("--k", type=int, default=10,
                        help="neighbors per query (knn modes, default 10)")
    search.add_argument("--radius", type=float, default=1.0,
                        help="search radius (range mode, default 1.0)")
    search.add_argument("--budget", type=int, default=None,
                        help="distance-evaluation budget per query "
                             "(knn-approx mode)")
    search.add_argument("--sites", type=int, default=8,
                        help="permutation sites for --index distperm")
    search.add_argument("--pivots", type=int, default=8,
                        help="pivots for --index laesa")
    search.add_argument("--queries", default=None,
                        help="query file (same format as --input); "
                             "defaults to sampling the database")
    search.add_argument("--n-queries", type=int, default=100,
                        help="queries sampled from the database when no "
                             "--queries file is given (default 100)")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--no-batch", action="store_true",
                        help="loop the single-query API instead of the "
                             "batch engine (baseline comparison)")
    search.add_argument("--show", type=int, default=0,
                        help="print the results of the first N queries")
    search.add_argument("--save-index", default=None, metavar="PATH",
                        help="after building, save the index payload to "
                             "PATH as a page-aligned container "
                             "(--index distperm only)")
    search.add_argument("--load-index", default=None, metavar="PATH",
                        help="load the index payload from PATH instead of "
                             "building (--index distperm only; no build "
                             "distances are recomputed)")
    search.add_argument("--mmap", action="store_true",
                        help="with --load-index: "
                             "memory-map the packed code section instead "
                             "of decoding it into RAM (out-of-core "
                             "queries)")
    search.add_argument("--cache-bytes", type=int, default=None,
                        help="decoded-position cache budget per mapped "
                             "code store, in bytes (with --mmap; default "
                             "16 MiB)")
    _add_engine_flags(search)

    serve = commands.add_parser(
        "serve",
        help="serve an index over a socket with micro-batched execution",
    )
    serve.add_argument("--input", required=True, help="database file")
    serve.add_argument("--kind", choices=("vectors", "strings"),
                       required=True)
    serve.add_argument("--metric", choices=sorted(_METRICS), required=True)
    serve.add_argument("--index", choices=sorted(_INDEXES), default="linear")
    serve.add_argument("--sites", type=int, default=8,
                       help="permutation sites for --index distperm")
    serve.add_argument("--pivots", type=int, default=8,
                       help="pivots for --index laesa")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--unix-socket", default=None,
                       help="listen on this unix socket path")
    serve.add_argument("--host", default=None,
                       help="listen on this TCP host (with --port)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (0 = kernel-assigned)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="query rows per batching window (default 64)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="cap on a batching window's wait in ms "
                            "(default 2.0); a window closes earlier once "
                            "the rows the previous batch answered plus "
                            "those queued meanwhile are pending, so "
                            "closed-loop callers, out-of-phase groups "
                            "included, go as soon as they are back, and "
                            "busy open-loop arrivals fall back to this "
                            "timer")
    serve.add_argument("--max-queue", type=int, default=4096,
                       help="admission bound in query rows; past it "
                            "requests are rejected with retry-after "
                            "(default 4096)")
    _add_engine_flags(serve)

    counter = commands.add_parser(
        "counterexample", help="re-run the Eq. 12 census (Section 5)"
    )
    counter.add_argument("--points", type=int, default=1_000_000)
    counter.add_argument("--seed", type=int, default=20080411)

    commands.add_parser("figures", help="cell counts of Figures 1-4")

    bound = commands.add_parser(
        "bound", help="best known bound on permutations for (d, k, p)"
    )
    bound.add_argument("d", type=int)
    bound.add_argument("k", type=int)
    bound.add_argument("--p", default="2",
                       help="1, 2, or inf (default 2)")

    return parser


def _workers_error(args: argparse.Namespace) -> Optional[str]:
    """Validate --workers and --seed (numpy seeds from nonnegative ints)
    of a census command; returns an error message or None."""
    if args.workers is not None and args.workers < 0:
        return "--workers must be >= 0"
    if args.seed < 0:
        return "--seed must be >= 0"
    return None


def _metric_kind_error(args: argparse.Namespace) -> Optional[str]:
    """A ``--metric`` that does not fit ``--kind``; an error or None."""
    kind = "strings" if args.metric in _STRING_METRICS else "vectors"
    if args.kind != kind:
        return f"--metric {args.metric} needs --kind {kind}"
    return None


def _wants_pool(args: argparse.Namespace) -> bool:
    """Whether the engine flags select the pinned worker pool."""
    return bool(
        args.resident
        or args.deadline is not None
        or args.retries is not None
        or args.on_partial is not None
    )


def _engine_flags_error(args: argparse.Namespace) -> Optional[str]:
    """Validate the engine-options group; an error message or None."""
    if args.shards is not None and args.shards < 1:
        return "--shards must be >= 1"
    if args.deadline is not None and args.deadline <= 0:
        return "--deadline must be > 0"
    if args.retries is not None and args.retries < 0:
        return "--retries must be >= 0"
    if _wants_pool(args) and args.shards is None:
        return ("--resident/--deadline/--retries/--on-partial need "
                "sharded execution; add --shards")
    return None


def _index_flags_error(args: argparse.Namespace) -> Optional[str]:
    """Validate the index and engine flags ``search`` and ``serve``
    share, before any database is read; an error message or None."""
    error = _metric_kind_error(args)
    if error:
        return error
    if args.sites < 1:
        return "--sites must be >= 1"
    if args.pivots < 1:
        return "--pivots must be >= 1"
    if args.seed < 0:
        return "--seed must be >= 0"
    return _engine_flags_error(args)


def _sharded_index(args: argparse.Namespace, points, metric, *,
                   load_path=None, backing="ram", cache_bytes=None):
    """Build (or load) the ``ShardedIndex`` the engine flags describe."""
    from repro.index import ShardedIndex
    from repro.parallel.workerpool import QueryPolicy

    engine = dict(
        resident=_wants_pool(args),
        policy=QueryPolicy(
            deadline=args.deadline,
            retries=args.retries if args.retries is not None else 1,
            on_partial=args.on_partial if args.on_partial else "raise",
        ),
    )
    if load_path is not None:
        from repro.index.serialize import load_sharded

        return load_sharded(load_path, points, metric, backing=backing,
                            cache_bytes=cache_bytes, **engine)
    return ShardedIndex(points, metric, _index_factory(args),
                        n_shards=args.shards, **engine)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import format_table1

    if args.max_d < 1 or args.max_k < 2:
        print("error: need --max-d >= 1 and --max-k >= 2", file=sys.stderr)
        return 1
    print(format_table1(dims=range(1, args.max_d + 1),
                        ks=range(2, args.max_k + 1)))
    return 0


def _table2_error(args: argparse.Namespace) -> Optional[str]:
    """Validate the table2 names and sizes before any database is drawn."""
    from repro.datasets.sisap import DATABASE_NAMES
    from repro.experiments.table2 import PAPER_KS

    unknown = " ".join(sorted(set(args.names or ()) - set(DATABASE_NAMES)))
    if unknown:
        return f"unknown --names {unknown}; choose from {' '.join(DATABASE_NAMES)}"
    if args.n != 0 and args.n < max(PAPER_KS):
        return (f"--n must be 0 (the preset size) or >= {max(PAPER_KS)}, "
                "the widest site draw")
    return _workers_error(args)


def _table3_error(args: argparse.Namespace) -> Optional[str]:
    """Validate the table3 sizes before any database is drawn."""
    if args.runs < 1:
        return "--runs must be >= 1"
    if args.dims is not None and any(d < 1 for d in args.dims):
        return "--dims must be >= 1"
    if not args.ks or any(not 2 <= k <= args.n for k in args.ks):
        return f"--ks must lie in [2, --n] = [2, {args.n}]"
    return _workers_error(args)


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import format_table2, table2_rows

    error = _table2_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    rows = table2_rows(names=args.names, n=args.n, seed=args.seed,
                       workers=args.workers)
    print(format_table2(rows))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments.table3 import format_table3, table3_rows

    error = _table3_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    dims = args.dims if args.dims else range(1, 11)
    try:
        rows = table3_rows(dims=dims, ks=tuple(args.ks), n_points=args.n,
                           n_runs=args.runs, seed=args.seed,
                           workers=args.workers)
    except ValueError as error:  # e.g. too few points for a rho estimate
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(format_table3(rows, ks=tuple(args.ks)))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    """The census of one database file, one driver for every flag set.

    One site draw (the ``"random"`` strategy touches only ``len()`` and
    the drawn indices, so a row-count proxy draws the same sites as the
    loaded database), then :func:`~repro.parallel.census.sharded_census`
    over the loaded rows — serial without ``--workers``, else one row
    shard per worker — or, with ``--chunk-rows``,
    :func:`~repro.parallel.census.streaming_census` over bounded chunks
    read from disk twice (one counting pass, one census pass).  Counts
    are identical for every flag combination.
    """
    from repro.core.storage import storage_report
    from repro.datasets.io import (
        count_rows,
        iter_string_chunks,
        iter_vector_chunks,
        load_strings,
        load_vectors,
        read_string_rows,
        read_vector_rows,
        save_permutations,
    )
    from repro.index.pivots import select_pivots
    from repro.parallel.census import sharded_census, streaming_census

    streamed = args.chunk_rows is not None
    if streamed and args.chunk_rows < 1:
        print("error: --chunk-rows must be >= 1", file=sys.stderr)
        return 1
    if streamed and args.dump:
        print("error: --dump needs the in-memory census (it materializes "
              "every permutation); drop --chunk-rows", file=sys.stderr)
        return 1
    error = _workers_error(args) or _metric_kind_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    load, read_rows, iter_chunks = (
        (load_vectors, read_vector_rows, iter_vector_chunks)
        if args.kind == "vectors"
        else (load_strings, read_string_rows, iter_string_chunks)
    )
    try:
        if streamed:
            n = count_rows(args.input)
        else:
            points = load(args.input)
            n = len(points)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.input}: {error}", file=sys.stderr)
        return 1
    if n == 0:
        print("error: empty database", file=sys.stderr)
        return 1
    if args.sites < 1 or args.sites > n:
        print(f"error: need 1 <= sites <= {n}, got {args.sites}",
              file=sys.stderr)
        return 1
    metric = _METRICS[args.metric]()
    site_indices = select_pivots(
        range(n), metric, args.sites, strategy="random",
        rng=np.random.default_rng(args.seed),
    )
    if streamed:
        try:
            censuses = streaming_census(
                iter_chunks(args.input, args.chunk_rows),
                read_rows(args.input, site_indices), metric, [args.sites],
                workers=args.workers,
            )
        except ValueError as error:
            print(f"error: cannot read {args.input}: {error}",
                  file=sys.stderr)
            return 1
        source = f", streamed {args.chunk_rows} rows/chunk"
    else:
        censuses, permutations = sharded_census(
            points, [points[i] for i in site_indices], metric,
            collect_permutations=bool(args.dump), workers=args.workers,
        )
        source = ""
        if args.dump:
            save_permutations(args.dump, permutations)
    distinct = censuses[args.sites].distinct
    report = storage_report(n=n, k=args.sites, realized_permutations=distinct)
    print(f"database: {args.input} ({n} elements, metric {metric.name}"
          f"{source})")
    print(f"sites (k={args.sites}): indices {site_indices}")
    print(f"unique distance permutations: {distinct} "
          f"(of k! = {math.factorial(args.sites)})")
    print(f"bits/element: table={report.bits_permutation_table} "
          f"naive={report.bits_naive_permutation} "
          f"LAESA={report.bits_laesa}")
    if args.report_storage:
        _print_realized_storage(n, args.sites, distinct, report)
    if args.dump:
        print(f"permutations written to {args.dump} "
              f"(count them with: sort {args.dump} | uniq | wc -l)")
    return 0


def _print_realized_storage(n, k, distinct, report):
    """Measured bytes/element next to the reported Corollary-8 bit bounds.

    The byte counts are the ones the packing produces by construction
    (``ceil(n * bits / 8)`` — :func:`repro.core.bitpack.pack_ids` pads
    only to the final byte — plus 8 bytes per table code).
    """
    from repro.core.permutation import MAX_CODE_SITES

    naive_bytes = n * k * 8
    bits_code = report.bits_naive_permutation
    bits_table = report.bits_permutation_table
    print("storage, reported vs realized:")
    print(f"  argsort rows (in-memory baseline): {naive_bytes} B "
          f"({k * 64} bits/elt)")
    if k > MAX_CODE_SITES:
        # Past the uint64 window no fixed-width packed-code encoding
        # exists (codes are arbitrary-precision); the on-disk fallback
        # is the row matrix at the narrowest integer width, and the
        # table is charged the same realizable way.
        entry_bytes = 1 if k <= 1 << 8 else 2
        matrix_bytes = n * k * entry_bytes
        table_bytes = (
            distinct * k * entry_bytes + (n * bits_table + 7) // 8
        )
        print(f"  packed codes: reported {bits_code} bits/elt, not "
              f"realizable past k={MAX_CODE_SITES}; row-matrix fallback "
              f"= {matrix_bytes} B ({k * 8 * entry_bytes} bits/elt)")
    else:
        code_bytes = (n * bits_code + 7) // 8
        table_bytes = distinct * 8 + (n * bits_table + 7) // 8
        print(f"  packed codes: reported {bits_code} bits/elt -> realized "
              f"{code_bytes} B ({code_bytes * 8 / max(1, n):.2f} bits/elt)")
    print(f"  permutation table: reported {bits_table} bits/elt "
          f"(+ table) -> realized {table_bytes} B "
          f"({table_bytes * 8 / max(1, n):.2f} bits/elt)")


def _sharded_inner(points, metric, name: str = "linear", sites: int = 8,
                   pivots: int = 8, seed: int = 0):
    """The one index factory behind ``repro search``, sharded or not.

    For ``--shards`` it is bound with :func:`functools.partial` and
    shipped to pool workers, so it must stay a module-level function; a
    fresh seeded generator per call keeps serial and pool builds
    identical.
    """
    from repro.index import (
        AESA,
        DistPermIndex,
        IAESA,
        LinearScan,
        PivotIndex,
        VPTree,
    )

    rng = np.random.default_rng(seed)
    if name == "linear":
        return LinearScan(points, metric)
    if name == "aesa":
        return AESA(points, metric)
    if name == "iaesa":
        return IAESA(points, metric)
    if name == "vptree":
        return VPTree(points, metric, rng=rng)
    if name == "laesa":
        return PivotIndex(points, metric, n_pivots=pivots, rng=rng)
    if name == "distperm":
        return DistPermIndex(
            points, metric, n_sites=min(sites, len(points)), rng=rng
        )
    raise ValueError(f"no factory for index {name!r} (update _INDEXES?)")


def _index_factory(args: argparse.Namespace):
    """``_sharded_inner`` bound to the index flags (picklable)."""
    from functools import partial

    return partial(_sharded_inner, name=args.index, sites=args.sites,
                   pivots=args.pivots, seed=args.seed)


def _search_flags_error(args: argparse.Namespace) -> Optional[str]:
    """Validate the search flags before any database is read."""
    if args.mode != "range" and args.k < 1:
        return "k must be >= 1"
    if args.mode == "range" and args.radius < 0:
        return "radius must be nonnegative"
    if args.budget is not None and args.budget < 0:
        return "--budget must be >= 0"
    if args.n_queries < 0:
        return "--n-queries must be >= 0"
    if args.show < 0:
        return "--show must be >= 0"
    return _index_flags_error(args)


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.datasets.io import load_strings, load_vectors
    from repro.experiments.harness import run_query_workload

    error = _search_flags_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    load = load_vectors if args.kind == "vectors" else load_strings
    try:
        points = load(args.input)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.input}: {error}", file=sys.stderr)
        return 1
    if len(points) == 0:
        print("error: empty database", file=sys.stderr)
        return 1
    if args.queries is not None:
        try:
            queries = load(args.queries)
        except (OSError, ValueError) as error:
            print(f"error: cannot read {args.queries}: {error}",
                  file=sys.stderr)
            return 1
        if len(queries) == 0:
            print("error: empty query file", file=sys.stderr)
            return 1
    else:
        rng = np.random.default_rng(args.seed)
        picks = rng.choice(
            len(points),
            size=min(args.n_queries, len(points)),
            replace=False,
        )
        if args.kind == "vectors":
            queries = points[picks]
        else:
            queries = [points[int(i)] for i in picks]
    metric = _METRICS[args.metric]()
    sharded = args.shards is not None
    if (args.save_index or args.load_index) and args.index != "distperm":
        print("error: --save-index/--load-index support --index distperm "
              "payloads only", file=sys.stderr)
        return 1
    if args.mmap and not args.load_index:
        print("error: --mmap maps a saved payload; it needs --load-index",
              file=sys.stderr)
        return 1
    if args.cache_bytes is not None and not args.mmap:
        print("error: --cache-bytes tunes the mapped store; it needs "
              "--mmap", file=sys.stderr)
        return 1
    backing = "mmap" if args.mmap else "ram"
    if sharded:
        if args.load_index:
            try:
                index = _sharded_index(
                    args, points, metric, load_path=args.load_index,
                    backing=backing, cache_bytes=args.cache_bytes,
                )
            except (OSError, ValueError) as error:
                print(f"error: cannot load {args.load_index}: {error}",
                      file=sys.stderr)
                return 1
        else:
            index = _sharded_index(args, points, metric)
        if args.save_index:
            from repro.index.serialize import save_sharded

            save_sharded(args.save_index, index)
            print(f"index payload saved to {args.save_index}")
    else:
        if args.load_index:
            from repro.index.serialize import load_distperm

            try:
                index = load_distperm(
                    args.load_index, points, metric,
                    backing=backing, cache_bytes=args.cache_bytes,
                )
            except (OSError, ValueError) as error:
                print(f"error: cannot load {args.load_index}: {error}",
                      file=sys.stderr)
                return 1
        else:
            index = _index_factory(args)(points, metric)
        if args.save_index:
            from repro.index.serialize import save_distperm

            save_distperm(args.save_index, index)
            print(f"index payload saved to {args.save_index}")
    if args.mode == "knn-approx" and args.budget is not None:
        from repro.index.base import Index

        probe = index.shards[0] if sharded else index
        if type(probe)._knn_approx_batch_impl is Index._knn_approx_batch_impl:
            print(f"note: index {args.index!r} has no budgeted mode; "
                  "--budget is ignored and the search is exact",
                  file=sys.stderr)
    try:
        report = run_query_workload(
            index,
            queries,
            kind=args.mode,
            k=args.k,
            radius=args.radius,
            budget=args.budget,
            batched=not args.no_batch,
        )
    finally:
        if sharded:
            index.close()
        else:
            # A loaded mmap-backed DistPermIndex holds an open mapping.
            closer = getattr(index, "close", None)
            if callable(closer):
                closer()
    detail = {
        "knn": f"k={min(args.k, len(points))}",
        "range": f"radius={args.radius}",
        "knn-approx": f"k={min(args.k, len(points))} budget={args.budget}",
    }[args.mode]
    surface = "looped single-query" if args.no_batch else "batched"
    if sharded and _wants_pool(args):
        layout = f", {index.n_shards} shards x pinned workers"
    elif sharded:
        layout = f", {index.n_shards} shards in-process"
    else:
        layout = ""
    print(f"database: {args.input} ({len(points)} elements, "
          f"metric {metric.name})")
    print(f"index: {args.index} "
          f"(build distances: {index.stats.build_distances}{layout})")
    print(f"workload: {args.mode} {detail}, "
          f"{report.n_queries} queries ({surface})")
    print(f"queries/sec: {report.queries_per_second:.1f}")
    print(f"distances/query: {report.distances_per_query:.1f}")
    if report.degraded:
        print(f"DEGRADED: merged answers cover {report.shards_answered} of "
              f"{index.n_shards} shards (some shards missed the "
              "deadline or crashed beyond retries)")
    elif report.shards_answered is not None:
        print(f"resilience: all {report.shards_answered} shards answered")
    if report.shard_reply_bytes is not None:
        per_shard = " ".join(
            "-" if b is None else str(b) for b in report.shard_reply_bytes
        )
        print(f"reply bytes: {report.reply_bytes} total "
              f"(last fan-out per shard: {per_shard})")
    for i in range(min(args.show, report.n_queries)):
        answers = ", ".join(
            f"{n.index}:{n.distance:.6g}" for n in report.results[i]
        )
        print(f"query {i}: [{answers}]")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.batcher import BatchConfig
    from repro.serve.server import QueryServer

    if (args.unix_socket is None) == (args.host is None):
        print("error: pass exactly one of --unix-socket or --host/--port",
              file=sys.stderr)
        return 1
    if args.host is not None and args.port is None:
        print("error: --host needs --port", file=sys.stderr)
        return 1
    if args.port is not None and not 0 <= args.port <= 65535:
        print("error: --port must be in 0..65535", file=sys.stderr)
        return 1
    try:
        config = BatchConfig(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    error = _index_flags_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    from repro.datasets.io import load_strings, load_vectors

    load = load_vectors if args.kind == "vectors" else load_strings
    try:
        points = load(args.input)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.input}: {error}", file=sys.stderr)
        return 1
    if len(points) == 0:
        print("error: empty database", file=sys.stderr)
        return 1
    metric = _METRICS[args.metric]()
    if args.shards is not None:
        index = _sharded_index(args, points, metric)
    else:
        index = _index_factory(args)(points, metric)

    async def _serve() -> None:
        server = QueryServer(
            index,
            unix_path=args.unix_socket,
            host=args.host,
            port=args.port,
            config=config,
        )
        await server.start()
        server.install_signal_handlers()
        where = (
            args.unix_socket
            if args.unix_socket is not None
            else f"{args.host}:{server.bound_port}"
        )
        print(f"serving {args.input} ({len(points)} elements, "
              f"{metric.name}, index {args.index}) on {where}",
              flush=True)
        await server.serve_until_drained()
        print("drained; all accepted requests answered", flush=True)

    asyncio.run(_serve())
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    from repro.experiments.counterexample import counterexample_census

    if args.points < 0:
        print("error: --points must be >= 0", file=sys.stderr)
        return 1
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 1
    result = counterexample_census(n_points=args.points, seed=args.seed)
    print("Eq. 12 sites, 3-d L1, uniform database:")
    print(f"  points: {args.points}")
    print(f"  observed permutations: {result.observed} (paper: 108)")
    print(f"  Euclidean limit N_3,2(5): {result.euclidean_limit}")
    print(f"  exceeds limit: {result.exceeds}")
    return 0 if result.exceeds else 2


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure_cell_counts

    counts = figure_cell_counts()
    print(f"Fig 1 order-1 Voronoi cells (L2): {counts['order1_cells']}")
    print(f"Fig 2 order-2 Voronoi cells (L2): {counts['order2_cells']}")
    print(f"Fig 3 bisector cells, L2 (exact): {counts['l2_cells_exact']}")
    print(f"Fig 4 bisector cells, L1 (grid):  {counts['l1_cells_grid']}")
    print(f"permutations only in L1: {len(counts['l1_only'])}, "
          f"only in L2: {len(counts['l2_only'])}")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from repro.core.counting import max_permutations

    p = {"1": 1, "2": 2, "inf": math.inf}.get(args.p.lower())
    if p is None:
        print(f"error: --p must be 1, 2 or inf, got {args.p}",
              file=sys.stderr)
        return 1
    try:
        value = max_permutations(args.d, args.k, p)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    kind = "exact" if (p == 2 or args.d >= args.k - 1) else "upper bound"
    print(f"N_{{{args.d},{args.p}}}({args.k}) <= {value}  ({kind}; "
          f"k! = {math.factorial(args.k)})")
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "census": _cmd_census,
    "search": _cmd_search,
    "serve": _cmd_serve,
    "counterexample": _cmd_counterexample,
    "figures": _cmd_figures,
    "bound": _cmd_bound,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
