"""What the benchmark reads from the machine: identity, load, memory.

Linux ``/proc`` only; the benchmark's sizes were chosen for, and its
numbers are only comparable on, the same kind of box.
"""

from __future__ import annotations

import os
import platform
import re
from typing import Dict, List, Set

__all__ = [
    "fingerprint",
    "load_average",
    "peak_rss_mb",
    "process_tree",
    "shm_segments",
]

_SHM_ROOT = "/dev/shm"
_SEGMENT = re.compile(r"^repro-")


def load_average() -> float:
    """The 1-minute load average (0.0 where the platform has none)."""
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def fingerprint() -> Dict[str, object]:
    """The machine facts every result file carries."""
    import numpy

    nproc = os.cpu_count() or 1
    load = load_average()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "load_1m_start": load,
        # A run that starts on a busy box measures its neighbours too.
        "noisy": load > nproc / 2,
    }


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one live process, in MB (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant (forkserver, workers, trackers)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses; the parent
        # pid is the second field after the last ')'.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree: List[int] = [root]
    seen: Set[int] = {root}
    for pid in tree:
        for child, parent in parents.items():
            if parent == pid and child not in seen:
                seen.add(child)
                tree.append(child)
    return tree


def shm_segments() -> Set[str]:
    """Names of the library's shared-memory segments present right now."""
    try:
        return {e for e in os.listdir(_SHM_ROOT) if _SEGMENT.match(e)}
    except OSError:
        return set()
