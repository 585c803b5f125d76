"""End-to-end benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/e2e/run.py              # all workloads, both passes
    python3 benchmarks/e2e/run.py --workload serve_strings --trace 1
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --quick      # smoke run, NOT COMPARABLE

(``PYTHONPATH=src python -m benchmarks.e2e.run`` is the same program.)

With ``--workload W --seed N --seconds S --trace 0|1`` the last line of
standard output is the driver's JSON object: ``--trace 0`` carries every
end-to-end metric (tracing off), ``--trace 1`` every per-layer metric
(taken from a separate traced pass; a layer the workload does not
exercise reads 0).  Each run generates its inputs from the seed, starts
the measured process, checks its outputs and removes everything it made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
             "measures the library in this checkout and cannot run "
             "without it")
# Started as a script, sys.path[0] is this directory, where trace.py would
# shadow the standard library's; import everything as benchmarks.e2e.*.
_HERE = Path(__file__).resolve().parent
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e import catalog  # noqa: E402
from benchmarks.e2e.machine import (  # noqa: E402
    fingerprint,
    shm_segments,
)

RESULTS = ROOT / "benchmarks" / "results" / "e2e"
#: The contract allows 180 s per run; leave room to clean up after a kill.
CHILD_TIMEOUT_S = 150.0


class _Terminated(Exception):
    """SIGTERM, turned into an exception so ``finally`` blocks reap."""


def _on_sigterm(signum, frame):
    raise _Terminated()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # someone is there, just not ours to signal
    return True


def _wait_group_gone(pgid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _kill_group(pgid: int) -> None:
    """SIGKILL the session and wait until init has reaped its orphans, so
    the shared-memory sweep that follows sees their segments as ownerless."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    _wait_group_gone(pgid, 5.0)


def _run_measured(workload: str, seed: int, seconds: float, trace: int,
                  work_dir: Path) -> Optional[dict]:
    """Run the measured process to completion; reap its whole session."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.measured",
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--work-dir", str(work_dir)],
        cwd=str(ROOT), env=env, start_new_session=True,
        stdout=sys.stderr,  # keep our stdout for the metrics
    )
    outlived = False
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
        # multiprocessing's forkserver and resource tracker leave on
        # their own once their parent's pipe closes; give them a moment
        # before calling anything still alive a leak.
        outlived = not _wait_group_gone(proc.pid, 3.0)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} exceeded {CHILD_TIMEOUT_S:.0f} s; killed",
              file=sys.stderr)
    finally:
        # Every exit path, KeyboardInterrupt and SIGTERM included: no
        # server, worker or forkserver survives the command.
        proc.kill()
        proc.wait()
        _kill_group(proc.pid)
    result_path = work_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return None
    with open(result_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    if outlived:
        result["failed"] += 1
        result["failures"].append(
            "a process outlived the measured process and had to be killed"
        )
    result["attempted"] += 1  # the reaping check itself
    return result


def run_one(workload: str, seed: int, seconds: float, trace: int,
            sizes_name: str) -> dict:
    """One run of one workload: inputs, measured process, checks, clean-up."""
    from benchmarks.e2e.inputs import make_inputs
    from repro.parallel.sharedmem import sweep_stale_segments

    started = time.perf_counter()
    machine = fingerprint()
    if machine["noisy"]:
        print(f"warning: noisy: load average {machine['load_1m_start']:.2f}"
              f" > nproc/2 at start", file=sys.stderr)
    work_dir = RESULTS / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    segments_before = shm_segments()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "sizes_name": sizes_name, "machine": machine,
        "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        "failures": ["the measured process did not finish"], "notes": {},
    }
    try:
        record["sizes"] = make_inputs(
            workload, seed, catalog.SIZES[sizes_name], str(work_dir),
            bool(trace),
        )
        result = _run_measured(workload, seed, seconds, trace, work_dir)
        if result is not None:
            machine["load_1m_end"] = result.pop("load_1m_end")
            record.update(result)
            leaked = sorted(shm_segments() - segments_before)
            sockets = sorted(p.name for p in work_dir.glob("*.sock"))
            record["attempted"] += 2
            for what, names in (("shared-memory segment", leaked),
                                ("socket file", sockets)):
                if names:
                    record["failed"] += 1
                    record["failures"].append(
                        f"{what} left behind: {names}")
            record["correct"] = record["failed"] == 0
            if trace:
                record["metrics"]["quality.failed_share"] = (
                    record["failed"] / record["attempted"])
            trace_file = work_dir / "trace.json"
            if trace_file.exists():
                shutil.copy(trace_file, RESULTS / f"trace_{workload}.json")
    finally:
        sweep_stale_segments()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    record["wall_s"] = time.perf_counter() - started
    return record


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def _declared(trace: int):
    return catalog.PER_LAYER if trace else catalog.END_TO_END


def print_record(record: dict) -> None:
    """Every metric by name with its unit, then the verdict."""
    trace = record["trace"]
    label = "per-layer (traced pass)" if trace else "end-to-end (tracing off)"
    print(f"== {record['workload']}  seed {record['seed']}  {label}  "
          f"[{record['wall_s']:.1f} s wall]")
    for metric in _declared(trace):
        value = record["metrics"].get(metric.name)
        if value is None:
            continue
        print(f"  {metric.name:<44} {value:>16.6g} {metric.unit}")
    coverage = record["metrics"].get("index.distperm.replay_coverage")
    if trace and coverage and not 0.8 <= coverage <= 1.2:
        print(f"  breakdown UNRESOLVED: replay covers {coverage:.2f} of the "
              "real call")
    for key, value in sorted(record.get("notes", {}).items()):
        print(f"  note {key}: {value}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"failed_share {record['failed'] / record['attempted']:.6f}  "
          f"correct {record['correct']}")
    for failure in record["failures"]:
        print(f"  FAILURE: {failure}")
    if record["machine"]["noisy"]:
        print("  noisy: the box was busy when this run started")
    if record["sizes_name"] != "full":
        print("  NOT COMPARABLE: --quick sizes")


def contract_line(record: dict) -> str:
    """The driver's JSON object: every declared metric, nothing else."""
    metrics = {
        m.name: {"value": float(record["metrics"].get(m.name, 0.0)),
                 "unit": m.unit}
        for m in _declared(record["trace"])
    }
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    })


def _save(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    print(f"wrote {os.path.relpath(path)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# --compare.
# ---------------------------------------------------------------------------


def _end_to_end_values(path: str) -> Dict[tuple, float]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not payload.get("comparable", False):
        sys.exit(f"error: {path} is a --quick run: NOT COMPARABLE")
    values = {}
    for record in payload["records"]:
        if record["trace"]:
            continue
        for metric in catalog.END_TO_END:
            if metric.name in record["metrics"]:
                values[(metric.name, record["workload"])] = (
                    record["metrics"][metric.name])
    return values


def compare(path_a: str, path_b: str) -> int:
    """Per (metric, workload): both values, their gap and the bound."""
    a, b = _end_to_end_values(path_a), _end_to_end_values(path_b)
    bounds = {m.name: m.bound for m in catalog.END_TO_END}
    beyond = 0
    print(f"{'metric':<18} {'workload':<20} {'A':>12} {'B':>12} "
          f"{'gap':>8} {'bound':>6}")
    for key in sorted(set(a) | set(b)):
        name, workload = key
        if key not in a or key not in b:
            print(f"{name:<18} {workload:<20} only in "
                  f"{'A' if key in a else 'B'}")
            beyond += 1
            continue
        gap = (b[key] - a[key]) / a[key]
        over = abs(gap) > bounds[name]
        beyond += over
        print(f"{name:<18} {workload:<20} {a[key]:>12.5g} {b[key]:>12.5g} "
              f"{gap:>+8.1%} {bounds[name]:>6.0%}"
              f"{'  BEYOND BOUND' if over else ''}")
    print(f"{beyond} pair(s) beyond their bound")
    return 1 if beyond else 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _check_manifest() -> None:
    """The committed BENCHMARK.json must declare what this code emits."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    if committed != catalog.manifest():
        sys.exit("error: BENCHMARK.json differs from benchmarks/e2e/"
                 "catalog.py; regenerate it with --manifest")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS),
                        help="how long each pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: tracing off (end-to-end metrics); 1: the "
                             "traced pass (per-layer metrics); default: "
                             "both passes")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10 for a smoke run; NOT COMPARABLE")
    parser.add_argument("--out", help="result file (default: under "
                                      "benchmarks/results/e2e/)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json as catalog.py declares it")
    args = parser.parse_args(argv)

    if args.manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if args.compare:
        if args.quick:
            sys.exit("error: --quick runs are NOT COMPARABLE")
        return compare(*args.compare)
    _check_manifest()
    signal.signal(signal.SIGTERM, _on_sigterm)

    sizes_name = "quick" if args.quick else "full"
    if args.quick:
        print("NOT COMPARABLE: --quick divides the database sizes by ten")
    workloads = [args.workload] if args.workload else list(catalog.WORKLOADS)
    passes = [args.trace] if args.trace is not None else [0, 1]
    records = []
    try:
        for workload in workloads:
            for trace in passes:
                record = run_one(workload, args.seed, args.seconds, trace,
                                 sizes_name)
                print_record(record)
                records.append(record)
    except (KeyboardInterrupt, _Terminated):
        print("interrupted; everything started was reaped", file=sys.stderr)
        return 130

    _cross_check(records)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = (Path(args.out) if args.out
           else RESULTS / f"run_{stamp}_{os.getpid()}.json")
    _save({"comparable": not args.quick, "seed": args.seed,
           "records": records}, out)
    if len(records) == 1:
        print(contract_line(records[0]))
    return 0 if all(r["correct"] for r in records) else 1


def _cross_check(records: List[dict]) -> None:
    """RAM and mmap runs of one seed must give byte-identical answers."""
    digests = {
        r["workload"]: r["notes"].get("answer_digest")
        for r in records if not r["trace"] and r["correct"]
    }
    ram = digests.get("search_vectors_ram")
    mapped = digests.get("search_vectors_mmap")
    if ram and mapped and ram != mapped:
        for record in records:
            if (record["workload"] == "search_vectors_mmap"
                    and not record["trace"]):
                record["correct"] = False
                record["failed"] += 1
                record["failures"].append(
                    "answer digest differs from search_vectors_ram")
        print("FAILURE: search_vectors_mmap answers differ from "
              "search_vectors_ram")


if __name__ == "__main__":
    sys.exit(main())
