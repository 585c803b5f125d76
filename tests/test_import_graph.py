"""What importing the package costs every process.

The forkserver preloads ``repro`` and every pool or shard worker forks
from it, so whatever the package root imports is paid by the serve
launcher, the forkserver, each worker and the CLI.  scipy is used only
by the exact Euclidean cell count (``count_euclidean_cells_exact``),
which imports it on its first call; nothing on the runtime import path
may load it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

RUNTIME_MODULES = (
    "repro",
    "repro.cli",
    "repro.serve.server",
    "repro.parallel.workerpool",
    "repro.index.serialize",
)


def test_runtime_imports_do_not_load_scipy():
    script = (
        "import importlib, sys\n"
        f"for name in {RUNTIME_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    # The child finds this checkout's package however pytest found it.
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []
