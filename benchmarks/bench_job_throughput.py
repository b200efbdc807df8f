"""Job-queue throughput benchmark: 1 worker process vs 4.

Fills a SQLite store's queue with small distinct scenarios, drains it with a
single :class:`~repro.store.worker.Worker`, refills a fresh store, and drains
it again with a 4-process :class:`~repro.store.worker.WorkerPool`.  Reports
jobs/sec for both and the pool speedup — the point of the queue is that
throughput scales by adding ``repro work`` processes against the same store
file.

One drain takes about half a second, and a shared VM changes speed by tens
of percent between drains, so a single 1-worker/pool comparison swings from
~0.8x to ~2x.  The speedup is therefore measured like the telemetry gate:

* the two arms run as back-to-back *pairs* (1-worker drain, pool drain), so
  both halves of a pair see the same machine speed; the order alternates so
  neither arm always runs first;
* one discarded warm-up pair comes first;
* the reported speedup is the median of the per-pair ratios over
  :data:`ROUNDS` pairs, with their quartiles as the spread.

Run as a script to produce ``BENCH_jobs.json`` — the queue-throughput report
the CI smoke job checks::

    PYTHONPATH=src python benchmarks/bench_job_throughput.py \
        --output BENCH_jobs.json --check
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.config import GeneticParameters
from repro.scenarios import Scenario
from repro.store import ResultStore, Worker, WorkerPool

#: Minimum 4-worker/1-worker throughput ratio the smoke check enforces.  The
#: jobs are deliberately short, so claim/commit overhead eats part of the
#: parallelism; the check only guards against the pool being *slower*.  On a
#: single-core machine no parallelism is possible at all, so only the process
#: overhead is bounded there.
def pool_speedup_floor(cpu_count: int) -> float:
    return 0.9 if cpu_count and cpu_count > 1 else 0.5

#: Number of distinct scenarios per drain.
JOB_COUNT = 8

#: Processes in the pool arm.
POOL_WORKERS = 4

#: Measured 1-worker/pool pairs; the median pair speedup is the result.
ROUNDS = 12

#: GA sizing per job: about 55 ms per job on a 2-vCPU VM.
DEFAULT_POPULATION = 32
DEFAULT_GENERATIONS = 12


def _scenarios(population: int, generations: int) -> list:
    # Distinct seeds -> distinct fingerprints -> every job truly executes.
    return [
        Scenario(
            name=f"jobs-bench-{index}",
            seed=1000 + index,
            genetic=GeneticParameters(
                population_size=population, generations=generations
            ),
        )
        for index in range(JOB_COUNT)
    ]


def _fill(path: Path, scenarios: list) -> None:
    with ResultStore(path) as store:
        for scenario in scenarios:
            store.enqueue(scenario)


def _check_drained(path: Path, expected: int, label: str) -> None:
    with ResultStore(path) as store:
        stats = store.jobs_stats()
    for state in ("queued", "leased", "failed", "dead"):
        if stats[state] != 0:
            raise AssertionError(f"{label}: {stats[state]} job(s) left {state}")
    if stats["done"] < expected:
        raise AssertionError(
            f"{label}: only {stats['done']}/{expected} job(s) done"
        )


def _drain_solo(path: Path) -> tuple:
    """Seconds and completed-job count of one in-process worker's drain."""
    started = time.perf_counter()
    with ResultStore(path) as store:
        stats = Worker(store, poll_interval=0.02).run(drain=True)
    return time.perf_counter() - started, stats.completed


def _drain_pool(path: Path) -> tuple:
    """Seconds and completed-job count of a :data:`POOL_WORKERS`-process drain."""
    started = time.perf_counter()
    stats = WorkerPool(str(path), concurrency=POOL_WORKERS, poll_interval=0.02).run(
        drain=True
    )
    return time.perf_counter() - started, stats.completed


def measure_job_throughput(
    population: int = DEFAULT_POPULATION,
    generations: int = DEFAULT_GENERATIONS,
) -> dict:
    """Drain the same job mix with 1 worker and with a pool, :data:`ROUNDS` times each."""
    scenarios = _scenarios(population, generations)
    arms = {"solo": _drain_solo, "pool": _drain_pool}
    seconds: dict = {"solo": [], "pool": []}
    completed: dict = {"solo": [], "pool": []}
    with tempfile.TemporaryDirectory() as tempdir:
        # Round -1 is the discarded warm-up pair.
        for round_index in range(-1, ROUNDS):
            order = ("solo", "pool") if round_index % 2 == 0 else ("pool", "solo")
            for arm in order:
                path = Path(tempdir) / f"{arm}-{round_index + 1}.sqlite"
                _fill(path, scenarios)
                elapsed, done = arms[arm](path)
                _check_drained(path, len(scenarios), f"{arm} drain")
                if round_index >= 0:
                    seconds[arm].append(elapsed)
                    completed[arm].append(done)

    pair_speedups = [
        solo / pool for solo, pool in zip(seconds["solo"], seconds["pool"])
    ]
    lower, _, upper = statistics.quantiles(pair_speedups, n=4)
    solo_median = statistics.median(seconds["solo"])
    pool_median = statistics.median(seconds["pool"])
    return {
        "cpu_count": os.cpu_count() or 1,
        "job_count": len(scenarios),
        "population": population,
        "generations": generations,
        "rounds": ROUNDS,
        "solo_median_seconds": solo_median,
        "solo_jobs_per_second": len(scenarios) / solo_median,
        "solo_completed": min(completed["solo"]),
        "pool_workers": POOL_WORKERS,
        "pool_median_seconds": pool_median,
        "pool_jobs_per_second": len(scenarios) / pool_median,
        "pool_completed": min(completed["pool"]),
        "pool_speedup": statistics.median(pair_speedups),
        "pair_speedup_quartiles": [lower, upper],
    }


def test_pool_drains_everything_at_least_as_fast():
    """The smoke criterion: all jobs done, the pool no slower than one worker."""
    report = measure_job_throughput(population=16, generations=4)
    assert report["solo_completed"] == report["job_count"], report
    assert report["pool_completed"] == report["job_count"], report
    assert report["pool_speedup"] >= pool_speedup_floor(report["cpu_count"]), report


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Measure job-queue drain throughput: 1 worker vs 4."
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_jobs.json"),
        help="where to write the JSON report (default: BENCH_jobs.json)",
    )
    parser.add_argument(
        "--population",
        type=int,
        default=DEFAULT_POPULATION,
        help=f"GA population per scenario (default: {DEFAULT_POPULATION})",
    )
    parser.add_argument(
        "--generations",
        type=int,
        default=DEFAULT_GENERATIONS,
        help=f"GA generations per scenario (default: {DEFAULT_GENERATIONS})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the median pair speedup falls below the "
        "CPU-aware floor or any job is left unfinished",
    )
    arguments = parser.parse_args()

    report = measure_job_throughput(arguments.population, arguments.generations)
    arguments.output.write_text(json.dumps(report, indent=2) + "\n")
    floor = pool_speedup_floor(report["cpu_count"])
    lower, upper = report["pair_speedup_quartiles"]
    print(
        f"1 worker: {report['solo_jobs_per_second']:.2f} jobs/s, "
        f"{POOL_WORKERS} workers: {report['pool_jobs_per_second']:.2f} jobs/s; "
        f"median pair speedup {report['pool_speedup']:.2f}x "
        f"(quartiles {lower:.2f}..{upper:.2f}x, {report['rounds']} pairs on "
        f"{report['cpu_count']} CPU(s)) -> {arguments.output}"
    )
    if arguments.check and report["pool_speedup"] < floor:
        raise SystemExit(
            f"median pool speedup {report['pool_speedup']:.2f}x is below the "
            f"{floor}x floor"
        )


if __name__ == "__main__":
    main()
