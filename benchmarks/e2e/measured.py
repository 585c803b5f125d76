"""The measured process: one workload, its inputs already on disk.

``run.py`` starts this module in its own process (and session), so that
``peak_rss_mb`` is the high-water mark of the library doing the workload
and not of input generation or ground truth, and so that one signal to
the process group reaps everything a workload started.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import traceback

from benchmarks.e2e import catalog
from benchmarks.e2e.common import Context, Outcome
from benchmarks.e2e.machine import load_average

_MODULES = {
    "census_strings": "benchmarks.e2e.wl_census",
    "search_vectors_ram": "benchmarks.e2e.wl_search",
    "search_vectors_mmap": "benchmarks.e2e.wl_search",
    "serve_strings": "benchmarks.e2e.wl_serve",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    # Relative paths from here on: unix socket paths are capped at 108
    # bytes and the checkout may sit anywhere.
    os.chdir(args.work_dir)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        # Traced runs report no setup_s; one set-up is enough for them.
        setup_reps=1 if args.trace else catalog.SETUP_REPS.get(
            args.workload, catalog.SETUP_REPS_DEFAULT),
    )
    try:
        outcome = importlib.import_module(_MODULES[args.workload]).run(ctx)
    except Exception:
        # A workload that raises is one failed operation, reported like
        # any other; the traceback goes to the result file and stderr.
        trace = traceback.format_exc()
        print(trace, file=sys.stderr)
        outcome = Outcome(attempted=1, failed=1, failures=[trace])
    if ctx.trace:
        ctx.tracer.dump("trace.json")
    with open("result.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "metrics": outcome.metrics,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "failures": outcome.failures,
                "notes": outcome.notes,
                "load_1m_end": load_average(),
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
