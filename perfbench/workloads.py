"""The benchmark's workloads; each run happens in a fresh interpreter.

``run.py`` starts this script; by hand (from the checkout root)::

    PYTHONPATH=src python3 perfbench/workloads.py --workload paper_ga --seed 1 --seconds 30 --trace 0
    PYTHONPATH=src python3 perfbench/workloads.py --workload paper_ga --seed 1 --setup-only

A run repeats the workload's *cycle* — a fixed batch of work made from the
seed — until ``--seconds`` have passed, and reports medians over cycles.
The first cycle's outputs are checked in full; every later cycle must
reproduce them exactly.  With ``--trace 1`` a warm-up cycle runs first,
then untraced and traced cycles alternate: the traced ones run under :func:`tracing.instrumented`, the first
traced cycle gives the per-layer metrics and the JSONL trace, and the
ratio of traced to untraced batch time is ``trace.overhead``.

The last stdout line is one JSON object: ``attempted``, ``failed``,
``metrics`` (name -> value) and ``trace_file``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import checks
import tracing
from common import OUTPUT, emit, median, peak_rss_mb, percentile
from tracing import SpanRecorder, instrumented

from repro.telemetry import Stopwatch

#: The paper's 4x4 ring at the paper's population; generations set the cycle length.
PAPER_POPULATION = 400
PAPER_GENERATIONS = 20
PAPER_WAVELENGTHS = (4, 8, 12)

#: Study service: K distinct small GA jobs, two workers, two HTTP clients.
STUDY_JOBS = 24
STUDY_POPULATION = 64
STUDY_GENERATIONS = 30
STUDY_WORKERS = 2
STUDY_CLIENTS = 2
STUDY_GETS_PER_CLIENT = 120
WORKER_POLL_SECONDS = 0.02
#: The GET clients run in their own interpreter, as a user's would.
CLIENT_SCRIPT = Path(__file__).resolve().parent / "http_client.py"

#: Dynamic traffic: 4x4 ring, NW 8, two offered loads x four strategies.
TRAFFIC_WAVELENGTHS = 8
TRAFFIC_LOADS = (8.0, 24.0)
TRAFFIC_STRATEGIES = ("first_fit", "least_used", "most_used", "random")
TRAFFIC_REQUESTS = 20000


@dataclass
class Cycle:
    """One pass over a workload's fixed batch."""

    batch_s: float
    #: Work units in the batch: GA generations, jobs, or simulated events.
    items: float
    #: Latency of every single operation (scenario run, GET, sweep point).
    op_seconds: List[float]
    #: Wall time of the phase the operations ran in.
    op_phase_s: float
    attempted: int
    failed: int = 0
    #: Optimiser books (evaluations, memo hits, phase seconds) of the GA runs.
    books: List[Dict[str, float]] = field(default_factory=list)
    #: Workload-specific per-layer metrics.
    layers: Dict[str, float] = field(default_factory=dict)


def _books(result: Any) -> Dict[str, float]:
    return {
        "evaluations": result.evaluations,
        "memo_hits": result.memo_hits,
        "evaluation_s": result.evaluation_seconds,
        "selection_s": result.selection_seconds,
        "operator_s": result.operator_seconds,
    }


# ------------------------------------------------------------------- paper_ga
class PaperGa:
    """NSGA-II at population 400 over NW 4/8/12, one scenario at a time."""

    def __init__(self, seed: int) -> None:
        from repro.scenarios import ScenarioBuilder, build_scenario_evaluator

        self.scenarios = [
            ScenarioBuilder()
            .named(f"paper-nw{count}")
            .grid(4, 4)
            .wavelengths(count)
            .workload("paper")
            .mapping("paper")
            .genetic(population_size=PAPER_POPULATION, generations=PAPER_GENERATIONS)
            .seed(seed)
            .build()
            for count in PAPER_WAVELENGTHS
        ]
        self.evaluators = [build_scenario_evaluator(scenario) for scenario in self.scenarios]
        self.reference: Optional[List[Any]] = None
        self.quality = 0.0

    def cycle(self) -> Cycle:
        import repro.scenarios.study as study

        outcomes = []
        op_seconds = []
        with Stopwatch() as batch:
            for scenario in self.scenarios:
                with Stopwatch() as op:
                    outcomes.append(study.execute_scenario(scenario))
                op_seconds.append(op.elapsed)
        results = [outcome.result.nsga2 for outcome in outcomes]
        fronts = [
            [(item.chromosome, item.is_valid, item.objectives.as_tuple()) for item in result.pareto_solutions]
            for result in results
        ]
        cycle = Cycle(
            batch_s=batch.elapsed,
            items=sum(len(result.history) for result in results),
            op_seconds=op_seconds,
            op_phase_s=batch.elapsed,
            attempted=len(outcomes),
            books=[_books(result) for result in results],
        )
        signature = [[(row[0].genes, row[2]) for row in front] for front in fronts]
        if self.reference is None:
            self.reference = signature
            cycle.failed = sum(
                1
                for evaluator, scenario, front in zip(self.evaluators, self.scenarios, fronts)
                if checks.front_failures(evaluator, scenario.objectives, front)
            )
            self.quality = statistics.fmean(
                checks.normalised_hypervolume([(row[2][0], row[2][2]) for row in front])
                for front in fronts
            )
        else:
            cycle.failed = sum(1 for mine, first in zip(signature, self.reference) if mine != first)
        return cycle


# -------------------------------------------------------------- study_service
class StudyService:
    """Cold drain, warm drain and HTTP reads over one fresh SQLite store."""

    def __init__(self, seed: int, in_process: bool = False) -> None:
        import numpy as np

        from repro.scenarios import ScenarioBuilder
        from repro.store import ResultStore
        from repro.store.server import create_server

        seeds = np.random.default_rng(seed).choice(1_000_000, size=STUDY_JOBS, replace=False)
        self.scenarios = [
            ScenarioBuilder()
            .named(f"study-{index}")
            .grid(4, 4)
            .wavelengths(PAPER_WAVELENGTHS[index % len(PAPER_WAVELENGTHS)])
            .workload("paper")
            .mapping("paper")
            .genetic(population_size=STUDY_POPULATION, generations=STUDY_GENERATIONS)
            .seed(int(job_seed))
            .build()
            for index, job_seed in enumerate(seeds)
        ]
        self.fingerprints = [scenario.fingerprint() for scenario in self.scenarios]
        self.in_process = in_process
        self.cycles = 0
        self.reference: Optional[Dict[str, Any]] = None
        self.quality = 0.0
        OUTPUT.mkdir(parents=True, exist_ok=True)
        # Set-up cost of the service itself: open a store, bind the server.
        path = self._path("setup")
        store = ResultStore(path)
        server = create_server(store, quiet=True)
        server.server_close()
        store.close()
        self._remove(path)

    def _path(self, tag: str) -> Path:
        return OUTPUT / f"study-{os.getpid()}-{tag}.sqlite"

    @staticmethod
    def _remove(path: Path) -> None:
        for suffix in ("", "-wal", "-shm"):
            path.with_name(path.name + suffix).unlink(missing_ok=True)

    def _drain(self, path: Path, store: Any) -> Any:
        from repro.store import Worker, WorkerPool

        if self.in_process:
            return Worker(store, poll_interval=WORKER_POLL_SECONDS).run(drain=True)
        return WorkerPool(str(path), STUDY_WORKERS, poll_interval=WORKER_POLL_SECONDS).run(drain=True)

    def cycle(self) -> Cycle:
        from repro.store import ResultStore

        self.cycles += 1
        path = self._path(str(self.cycles))
        self._remove(path)
        store = ResultStore(path)
        try:
            with Stopwatch() as cold:
                for scenario in self.scenarios:
                    store.enqueue(scenario)
                cold_stats = self._drain(path, store)
            with Stopwatch() as warm:
                for scenario in self.scenarios:
                    store.enqueue(scenario)
                warm_stats = self._drain(path, store)
            jobs = store.jobs()
            stored = {fingerprint: store.peek(fingerprint) for fingerprint in self.fingerprints}
            expected = {
                fingerprint: json.loads(json.dumps([dict(row) for row in result.pareto_rows]))
                for fingerprint, result in stored.items()
                if result is not None
            }
            latencies, body_sizes, read_s, read_failures = self._reads(store, expected)
        finally:
            store.close()
            self._remove(path)

        count = len(self.scenarios)
        failed = sum(1 for job in jobs if job.state != "done") + abs(len(jobs) - 2 * count)
        failed += cold_stats.store_hits + abs(cold_stats.completed - count)
        failed += (count - warm_stats.store_hits) + abs(warm_stats.completed - count)
        failed += sum(1 for result in stored.values() if result is None)
        failed += read_failures
        if self.reference is None:
            self.reference = expected
            self.quality = statistics.fmean(
                checks.normalised_hypervolume(
                    [(row["execution_time_kcycles"], row["bit_energy_fj"]) for row in rows]
                )
                for rows in expected.values()
            )
        else:
            failed += sum(1 for key, rows in expected.items() if self.reference.get(key) != rows)

        wait = [job.wait_seconds for job in jobs if job.wait_seconds is not None]
        run = [job.run_seconds for job in jobs if job.run_seconds is not None]
        completed = cold_stats.completed + warm_stats.completed
        return Cycle(
            batch_s=cold.elapsed,
            items=count,
            op_seconds=latencies,
            op_phase_s=read_s,
            attempted=2 * count + len(latencies),
            failed=failed,
            books=[_books(result) for result in stored.values() if result is not None],
            layers={
                "queue.wait_s": median(wait) if wait else 0.0,
                "queue.run_s": median(run) if run else 0.0,
                "worker.completed": completed,
                "worker.warm_ratio": warm_stats.store_hits / completed if completed else 0.0,
                "worker.retries": cold_stats.retried + warm_stats.retried,
                "worker.failed": cold_stats.failed + cold_stats.dead + warm_stats.failed + warm_stats.dead,
                "server.body_bytes": statistics.fmean(body_sizes),
                "service.warm_jobs_per_s": count / warm.elapsed,
            },
        )

    def _reads(self, store: Any, expected: Dict[str, Any]) -> Tuple[List[float], List[int], float, int]:
        """Closed-loop GETs of every stored front from a separate client interpreter.

        Returns per-GET latencies and body sizes, the phase time and the
        number of failed responses.  The client streams one line per GET into
        a file that is checked line by line afterwards, so no process holds
        all the bodies at once.
        """
        from repro.store.server import create_server

        paths = {f"/api/v1/results/{fingerprint}/pareto": fingerprint for fingerprint in self.fingerprints}
        server = create_server(store, quiet=True)
        host, port = server.server_address[:2]
        serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        serving.start()
        spec = {"host": host, "port": port, "paths": list(paths), "clients": STUDY_CLIENTS,
                "requests": STUDY_GETS_PER_CLIENT}
        log = OUTPUT / f"gets-{os.getpid()}.jsonl"
        latencies: List[float] = []
        sizes: List[int] = []
        failed = 0
        phase = 0.0
        with open(log, "w+", encoding="utf-8") as sink:
            try:
                subprocess.run(
                    [sys.executable, str(CLIENT_SCRIPT)], input=json.dumps(spec),
                    stdout=sink, text=True, timeout=120, check=True,
                )
            finally:
                server.shutdown()
                serving.join()
                server.server_close()
            sink.seek(0)
            for line in sink:
                record = json.loads(line)
                if isinstance(record, dict):
                    phase = record["phase_s"]
                    continue
                path, status, seconds, body = record
                latencies.append(seconds)
                sizes.append(len(body))
                failed += checks.response_failures([(paths[path], status, body)], expected)
        log.unlink()
        return latencies, sizes, phase, failed


# ------------------------------------------------------------ dynamic_traffic
class DynamicTraffic:
    """``sweep_blocking`` on the 4x4 ring, NW 8: two loads x four strategies."""

    def __init__(self, seed: int) -> None:
        from repro.topology import build_topology

        self.seed = seed
        build_topology("ring", 4, 4, wavelength_count=TRAFFIC_WAVELENGTHS)
        self.reference: Optional[List[Dict[str, Any]]] = None
        self.quality = 0.0

    def cycle(self) -> Cycle:
        from repro.traffic import sweep_blocking

        reports = []
        op_seconds = []
        with Stopwatch() as batch:
            for load in TRAFFIC_LOADS:
                for strategy in TRAFFIC_STRATEGIES:
                    with Stopwatch() as op:
                        reports.extend(
                            sweep_blocking(
                                topology="ring",
                                rows=4,
                                columns=4,
                                wavelength_counts=(TRAFFIC_WAVELENGTHS,),
                                strategies=(strategy,),
                                loads=(load,),
                                request_count=TRAFFIC_REQUESTS,
                                seed=self.seed,
                            )
                        )
                    op_seconds.append(op.elapsed)
        if self.reference is None:
            self.reference = [report.to_dict() for report in reports]
            offered = sum(report.offered for report in reports)
            self.quality = sum(report.carried for report in reports) / offered
        return Cycle(
            batch_s=batch.elapsed,
            items=sum(report.events_processed for report in reports),
            op_seconds=op_seconds,
            op_phase_s=batch.elapsed,
            attempted=len(reports),
            failed=checks.traffic_failures(reports, self.reference),
        )


WORKLOADS = {
    "paper_ga": PaperGa,
    "study_service": StudyService,
    "dynamic_traffic": DynamicTraffic,
}


# ------------------------------------------------------------------ per layer
def layer_metrics(records: List[Dict[str, Any]], cycle: Cycle) -> Tuple[Dict[str, float], int]:
    """Per-layer metrics of one traced cycle, plus failed reconciliation checks."""
    table = tracing.totals(records)

    def busy(name: str) -> float:
        return table.get(name, {}).get("busy_s", 0.0)

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0.0)

    def rows(name: str) -> float:
        return table.get(name, {}).get("rows", 0.0)

    def attr_sum(name: str, key: str) -> float:
        return float(sum(value or 0 for value in tracing.matching(records, name, key)))

    gets = calls("store.get")
    offered = attr_sum("traffic.simulate", "offered")
    books = cycle.books
    evaluations = sum(book["evaluations"] for book in books)
    memo_hits = sum(book["memo_hits"] for book in books)
    metrics: Dict[str, float] = {
        "scenarios.build_evaluator_s": busy("scenarios.build_evaluator"),
        "scenarios.execute.calls": calls("scenarios.execute"),
        "scenarios.execute.busy_s": busy("scenarios.execute"),
        "batch.evaluate.calls": calls("batch.evaluate"),
        "batch.evaluate.rows": rows("batch.evaluate"),
        "batch.evaluate.busy_s": busy("batch.evaluate"),
        "batch.solution.calls": calls("batch.solution"),
        "batch.solution.busy_s": busy("batch.solution"),
        "pareto.sort.calls": calls("pareto.sort"),
        "pareto.sort.rows": rows("pareto.sort"),
        "pareto.sort.busy_s": busy("pareto.sort"),
        "pareto.crowding.busy_s": busy("pareto.crowding"),
        "pareto.front.rows": rows("pareto.front"),
        "pareto.front.busy_s": busy("pareto.front"),
        "nsga2.evaluations": evaluations,
        "nsga2.memo_hits": memo_hits,
        "nsga2.memo_hit_ratio": memo_hits / (memo_hits + evaluations) if evaluations else 0.0,
        "nsga2.self_s": tracing.self_seconds(records, "nsga2.run"),
        "nsga2.phase.evaluation_s": sum(book["evaluation_s"] for book in books),
        "nsga2.phase.selection_s": sum(book["selection_s"] for book in books),
        "nsga2.phase.operator_s": sum(book["operator_s"] for book in books),
        "queue.enqueue.busy_s": busy("queue.enqueue"),
        "queue.claim.calls": calls("queue.claim"),
        "queue.claim.empty": float(sum(1 for empty in tracing.matching(records, "queue.claim", "empty") if empty)),
        "queue.claim.busy_s": busy("queue.claim"),
        "queue.complete.busy_s": busy("queue.complete"),
        "store.get.calls": gets,
        "store.get.hit_ratio": (
            sum(1 for hit in tracing.matching(records, "store.get", "hit") if hit) / gets if gets else 0.0
        ),
        "store.get.busy_s": busy("store.get"),
        "store.put.calls": calls("store.put"),
        "store.put.busy_s": busy("store.put"),
        "store.peek.busy_s": busy("store.peek"),
        "traffic.generate.busy_s": busy("traffic.generate"),
        "traffic.requests": attr_sum("traffic.generate", "requests"),
        "traffic.choose.calls": calls("traffic.choose"),
        "traffic.choose.busy_s": busy("traffic.choose"),
        "engine.run.busy_s": busy("engine.run"),
        "traffic.self_s": tracing.self_seconds(records, "traffic.simulate"),
        "traffic.events": attr_sum("traffic.simulate", "events"),
        "traffic.blocked_ratio": attr_sum("traffic.simulate", "blocked") / offered if offered else 0.0,
    }
    # The wrapped kernels run inside the optimiser's own phase timers, so
    # their totals can never exceed the phase seconds the program reports.
    selection = busy("pareto.sort") + busy("pareto.crowding") + busy("pareto.front")
    evaluation = busy("batch.evaluate") + busy("batch.solution")
    reported_selection = metrics["nsga2.phase.selection_s"]
    reported_evaluation = metrics["nsga2.phase.evaluation_s"]
    failed = int(selection > reported_selection * (1 + 1e-9) + 1e-9)
    failed += int(evaluation > reported_evaluation * (1 + 1e-9) + 1e-9)
    if books and (selection <= 0.0 or evaluation <= 0.0):
        failed += 1
    metrics["nsga2.selection_traced_share"] = selection / reported_selection if reported_selection else 0.0
    metrics["nsga2.evaluation_traced_share"] = evaluation / reported_evaluation if reported_evaluation else 0.0
    return metrics, failed


def read_layers(cycles: List[Cycle], records: List[Dict[str, Any]]) -> Dict[str, float]:
    """GET-latency layer metrics: p99 over every cycle, self time net of the store read."""
    latencies = [value for cycle in cycles for value in cycle.op_seconds]
    peeks = [record["duration"] for record in records if record["name"] == "store.peek"]
    if not latencies or not peeks:
        return {"server.self_ms": 0.0, "server.get_p99_ms": 0.0}
    return {
        "server.self_ms": 1000.0 * (statistics.fmean(latencies) - statistics.fmean(peeks)),
        "server.get_p99_ms": 1000.0 * percentile(latencies, 0.99),
    }


#: Workload-specific layer metrics every workload reports (0 where unused).
WORKLOAD_LAYERS = (
    "queue.wait_s",
    "queue.run_s",
    "worker.completed",
    "worker.warm_ratio",
    "worker.retries",
    "worker.failed",
    "server.body_bytes",
    "service.warm_jobs_per_s",
)


# ------------------------------------------------------------------ the run
def end_to_end(workload: Any, cycles: List[Cycle]) -> Dict[str, float]:
    latencies = [value for cycle in cycles for value in cycle.op_seconds]
    return {
        "peak_rss_mb": peak_rss_mb(),
        "batch_s": median([cycle.batch_s for cycle in cycles]),
        "batch_rate_per_s": median([cycle.items / cycle.batch_s for cycle in cycles]),
        "op_p50_ms": 1000.0 * median(latencies),
        "op_per_s": median([len(cycle.op_seconds) / cycle.op_phase_s for cycle in cycles]),
        "quality": workload.quality,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if name == "study_service":
        workload: Any = StudyService(seed, in_process=trace)
    else:
        workload = WORKLOADS[name](seed)
    untraced: List[Cycle] = []
    traced: List[Cycle] = []
    records: List[Dict[str, Any]] = []
    attempted = failed = 0
    if trace:
        # One cycle first, so lazy imports and first-call caches do not land
        # on either side of the traced/untraced comparison.
        warmup = workload.cycle()
        attempted += warmup.attempted
        failed += warmup.failed
    with Stopwatch() as clock:
        while True:
            plan: List[Tuple[List[Cycle], Optional[SpanRecorder]]] = [(untraced, None)]
            if trace:
                plan.append((traced, SpanRecorder()))
            for bucket, recorder in plan:
                with instrumented(recorder) if recorder else nullcontext():
                    cycle = workload.cycle()
                bucket.append(cycle)
                attempted += cycle.attempted
                failed += cycle.failed
                if recorder is not None and not records:
                    records = recorder.records()
            if clock.elapsed >= seconds:
                break

    payload: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "trace_file": None,
        "cycle_batch_s": [cycle.batch_s for cycle in untraced],
    }
    if not trace:
        payload["metrics"] = end_to_end(workload, untraced)
        return payload
    metrics, reconcile_failures = layer_metrics(records, traced[0])
    failed += reconcile_failures
    attempted += 2
    metrics.update({key: float(traced[0].layers.get(key, 0.0)) for key in WORKLOAD_LAYERS})
    metrics["service.warm_jobs_per_s"] = (
        median([cycle.layers["service.warm_jobs_per_s"] for cycle in untraced])
        if name == "study_service" else 0.0
    )
    metrics.update(read_layers(untraced, records) if name == "study_service" else
                   {"server.self_ms": 0.0, "server.get_p99_ms": 0.0})
    metrics["trace.overhead"] = median([c.batch_s for c in traced]) / median([c.batch_s for c in untraced])
    metrics["bench.error_rate"] = failed / attempted
    trace_file = OUTPUT / f"trace-{name}-seed{seed}.jsonl"
    tracing.write_jsonl(trace_file, records)
    payload.update({"attempted": attempted, "failed": failed, "metrics": metrics,
                    "trace_file": str(trace_file.relative_to(OUTPUT.parent))})
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="perform the workload's set-up and exit (setup_s probe)")
    args = parser.parse_args(argv)
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0
    try:
        payload = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - report the failure to the launcher, which exits non-zero
        traceback.print_exc()
        return 1
    emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
