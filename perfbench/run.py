"""Repository benchmark launcher: one workload, one seed, one JSON result.

Run from the checkout root::

    python3 perfbench/run.py --workload paper_ga --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line carries every ``end_to_end`` metric
of ``BENCHMARK.json``; with ``--trace 1`` every ``per_layer`` metric (and the
JSONL trace under ``.perfbench/``, viewable with
``PYTHONPATH=src python3 -m repro telemetry <file>``).  The line before it
is the machine stamp.  ``perfbench/RATIONALE.md`` explains the workloads and
which layer metric should move which end-to-end metric.

The launcher never imports the program.  It times ``setup_s`` by starting
fresh interpreters that only perform the workload's set-up, then runs the
measurement itself in one more fresh interpreter (``workloads.py``).
Interpreters it starts get BLAS/OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
from typing import Dict, List, Optional

from common import (
    BENCHMARK_FILE,
    OUTPUT,
    ROOT,
    SOURCE,
    child_environment,
    emit,
    load_benchmark,
    machine_stamp,
    median,
    metric_units,
    now,
)

WORKLOAD_SCRIPT = ROOT / "perfbench" / "workloads.py"
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_SECONDS = 60.0
#: Wall-clock budget of one launcher run, seconds.
DEADLINE_SECONDS = 170.0


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def probe_setup(workload: str, seed: int, env: Dict[str, str]) -> List[float]:
    """Seconds from spawning an interpreter to the end of the workload's set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = now()
        process = subprocess.Popen(
            [sys.executable, str(WORKLOAD_SCRIPT), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )
        # A blocking wait returns the moment the child exits; wait(timeout=)
        # would poll in 50 ms steps and quantise the sample.
        watchdog = threading.Timer(PROBE_TIMEOUT_SECONDS, process.kill)
        watchdog.start()
        try:
            code = process.wait()
        finally:
            watchdog.cancel()
        samples.append(now() - started)
        if code != 0:
            raise subprocess.CalledProcessError(code, process.args)
    return samples


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = now()

    if not (SOURCE / "repro" / "__init__.py").is_file():
        return fail(f"the program's source is missing: no {SOURCE / 'repro'}")
    if not BENCHMARK_FILE.is_file():
        return fail(f"missing {BENCHMARK_FILE}")
    names = [entry["name"] for entry in load_benchmark()["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    section = "per_layer" if args.trace else "end_to_end"
    units = metric_units(section)
    env = child_environment()
    OUTPUT.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else probe_setup(args.workload, args.seed, env)
        completed = subprocess.run(
            [sys.executable, str(WORKLOAD_SCRIPT), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_SECONDS - (now() - started)),
        )
    except subprocess.CalledProcessError as error:
        return fail(f"set-up probe failed with exit code {error.returncode}")
    except subprocess.TimeoutExpired:
        return fail(f"workload {args.workload!r} overran the {DEADLINE_SECONDS:.0f} s deadline")
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return fail(f"workload {args.workload!r} exited with code {completed.returncode}")
    result = json.loads(lines[-1])

    values = dict(result["metrics"])
    if setup:
        values["setup_s"] = median(setup)
    if set(values) != set(units):
        return fail(
            f"metric set differs from BENCHMARK.json {section}: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}"
        )
    emit({
        "stamp": machine_stamp(env),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace_file": result["trace_file"],
        "setup_samples_s": setup,
        "cycle_batch_s": result["cycle_batch_s"],
    })
    emit({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
