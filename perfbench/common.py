"""Shared helpers of the repository benchmark: paths, statistics, stamps.

Nothing here imports ``repro``, so the launcher (``run.py``) can use it
before it knows whether the program is present at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Mapping, Sequence

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: Scratch outputs (stores, traces); git-ignored, always inside the checkout.
OUTPUT = ROOT / ".perfbench"

#: BLAS / OpenMP thread pins applied to every interpreter the benchmark starts.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def now() -> float:
    """Monotonic seconds; the launcher and span recorder read no other clock."""
    return time.perf_counter()  # repro-lint: allow R006 — the launcher times child interpreters without importing the program, and spans need start stamps; same clock as Stopwatch


def child_environment() -> Dict[str, str]:
    """Environment of a benchmark interpreter: pinned BLAS, ``src`` on the path."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SOURCE)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_TRACE", None)
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in ``(0, 1]``) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def source_digest() -> str:
    """SHA-256 prefix over ``src/**/*.py``: identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    """The checkout's git commit, or ``unknown`` outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def machine_stamp(env: Mapping[str, str]) -> Dict[str, object]:
    """CPU count, interpreter, numpy, code identity and the BLAS pin in ``env``."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
        "blas_threads": {name: env.get(name) for name in THREAD_PINS},
        "platform": platform.platform(),
    }


def load_benchmark() -> Mapping[str, object]:
    return json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))


def metric_units(section: str) -> Dict[str, str]:
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    return {entry["name"]: entry["unit"] for entry in load_benchmark()[section]}


def emit(payload: Mapping[str, object]) -> None:
    """Print one JSON line and flush (the launcher reads the last line)."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
