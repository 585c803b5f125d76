"""Launcher of the served workload: payload -> resident index -> server.

Runs as its own process, started by ``wl_serve``.  Loads the sharded
payload with resident, mmap-backed workers (the decoded-block cache fits),
makes one query so the worker pool is up before the socket exists — a
``PING`` answer then means *ready* — and serves on a unix socket until
SIGTERM, when it drains and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.datasets.io import load_strings
from repro.index.serialize import load_sharded
from repro.metrics import LevenshteinDistance
from repro.serve.server import QueryServer

from benchmarks.e2e import catalog


async def _serve(index, socket_path: str) -> None:
    server = QueryServer(index, unix_path=socket_path)
    await server.start()
    server.install_signal_handlers()
    print(f"serving on {socket_path}", flush=True)
    await server.serve_until_drained()
    print("drained; all accepted requests answered", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", required=True)
    parser.add_argument("--payload", required=True)
    parser.add_argument("--socket", required=True)
    args = parser.parse_args(argv)

    words = load_strings(args.db)
    index = load_sharded(
        args.payload, words, LevenshteinDistance(), resident=True,
        backing="mmap", cache_bytes=catalog.SERVE_CACHE_BYTES,
    )
    try:
        index.knn_approx_batch_arrays(
            [words[0]], catalog.SERVE_K, catalog.SERVE_BUDGET
        )
        index.reset_stats()
        asyncio.run(_serve(index, args.socket))
    finally:
        # The drain closes the index; this covers every other way out.
        index.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
