"""Self-test of the benchmark: emission, tamper detection, trace rendering, lint.

Run from the checkout root (takes about two minutes)::

    python3 perfbench/selftest.py

1. A one-second run of every workload, untraced and traced, must print
   exactly the ``end_to_end`` / ``per_layer`` metric names of
   ``BENCHMARK.json`` with their units, and ``correct: true``.
2. Each traced run's JSONL must render through ``python -m repro telemetry``.
3. Deliberately corrupted outputs — a tampered front row, an added
   dominated row, a wrong GET body, a tampered blocking report — must each
   count as a failure in the output checks.
4. ``python -m repro lint perfbench`` must be clean.

Exits 0 when every step passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from typing import Callable, List, Tuple

from common import ROOT, SOURCE, child_environment, load_benchmark, metric_units

RUN_SCRIPT = ROOT / "perfbench" / "run.py"


def smoke_runs() -> List[str]:
    problems: List[str] = []
    env = child_environment()
    for workload in [entry["name"] for entry in load_benchmark()["workloads"]]:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(RUN_SCRIPT), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} --trace {trace}"
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {completed.returncode}: {completed.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            expected = metric_units("per_layer" if trace else "end_to_end")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            if trace:
                trace_file = json.loads(lines[-2])["trace_file"]
                rendered = subprocess.run(
                    [sys.executable, "-m", "repro", "telemetry", str(ROOT / trace_file), "--no-tree"],
                    cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
                )
                if rendered.returncode != 0 or "span(s)" not in rendered.stdout:
                    problems.append(f"{label}: repro telemetry cannot render {trace_file}")
    return problems


def tamper_checks() -> List[str]:
    """Every corrupted output must be counted as a failure."""
    sys.path.insert(0, str(SOURCE))
    import checks
    from repro.scenarios import ScenarioBuilder, build_scenario_evaluator, execute_scenario
    from repro.traffic import sweep_blocking

    scenario = (
        ScenarioBuilder().grid(4, 4).wavelengths(4).workload("paper").mapping("paper")
        .genetic(population_size=16, generations=4).seed(5).build()
    )
    evaluator = build_scenario_evaluator(scenario)
    front = [
        (item.chromosome, item.is_valid, item.objectives.as_tuple())
        for item in execute_scenario(scenario).result.nsga2.pareto_solutions
    ]
    chromosome, valid, (time, ber, energy) = front[0]
    reports = sweep_blocking(wavelength_counts=(4,), loads=(8.0,), strategies=("first_fit",),
                             request_count=200, seed=5)
    reference = [report.to_dict() for report in reports]
    body = json.dumps({"pareto_rows": [{"execution_time_kcycles": 1.0}]})

    cases: List[Tuple[str, Callable[[], int], bool]] = [
        ("untouched front", lambda: checks.front_failures(evaluator, scenario.objectives, front), False),
        ("tampered energy", lambda: checks.front_failures(
            evaluator, scenario.objectives, [(chromosome, valid, (time, ber, energy * 1.01))] + front[1:]), True),
        ("added dominated row", lambda: checks.front_failures(
            evaluator, scenario.objectives, front + [(chromosome, valid, (time + 1.0, ber, energy))]), True),
        ("empty front", lambda: checks.front_failures(evaluator, scenario.objectives, []), True),
        ("untouched reports", lambda: checks.traffic_failures(reports, reference), False),
        ("tampered report", lambda: checks.traffic_failures(
            [dataclasses.replace(reports[0], events_processed=reports[0].events_processed + 1)], reference), True),
        ("matching GET", lambda: checks.response_failures(
            [("fp", 200, body)], {"fp": [{"execution_time_kcycles": 1.0}]}), False),
        ("wrong GET body", lambda: checks.response_failures(
            [("fp", 200, body)], {"fp": [{"execution_time_kcycles": 2.0}]}), True),
        ("failed GET", lambda: checks.response_failures([("fp", 500, "")], {"fp": []}), True),
    ]
    problems = []
    for label, count_failures, should_fail in cases:
        if (count_failures() > 0) != should_fail:
            problems.append(f"output check misjudged: {label}")
    return problems


def lint() -> List[str]:
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "perfbench"],
        cwd=ROOT, env=child_environment(), capture_output=True, text=True, timeout=120,
    )
    return [] if completed.returncode == 0 else [f"repro lint perfbench:\n{completed.stdout}"]


def main() -> int:
    problems = tamper_checks() + lint() + smoke_runs()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
