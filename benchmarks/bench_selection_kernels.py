"""Selection-kernel micro-benchmarks: legacy Python loops vs NumPy broadcasts.

NSGA-II's environmental selection runs non-dominated sorting and crowding
distance over the merged parent+offspring pool (``2N`` rows per generation).
The legacy implementations are O(N^2) Python loops; the vectorized kernels in
:mod:`repro.allocation.pareto` replace them with pairwise broadcasts.  This
benchmark times both back ends on GA-shaped pools (valid points plus ``inf``
rows and duplicate objective vectors) at population 64 and 256, plus the
batched :meth:`~repro.allocation.pareto.ParetoFront.extend_array` entry path
and an end-to-end NSGA-II run.

Run as a script to produce ``BENCH_selection.json`` — the CI smoke job checks
the combined sort+crowding speedup on the population-256 merged pool::

    PYTHONPATH=src python benchmarks/bench_selection_kernels.py \
        --output BENCH_selection.json --check
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.allocation import (
    AllocationEvaluator,
    Nsga2Optimizer,
    ParetoFront,
    crowding_distance,
    crowding_distance_python,
    non_dominated_sort,
    non_dominated_sort_python,
)
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters
from repro.topology import build_topology

#: Population sizes benchmarked; selection operates on the merged 2N pool.
POPULATIONS = (64, 256)

#: Minimum vectorized/legacy sort+crowding speedup at population 256.
MIN_SPEEDUP = 10.0


def _selection_pool(population: int, objectives: int = 3) -> np.ndarray:
    """A merged 2N parent+offspring pool shaped like real GA objective data.

    Roughly a quarter of GA candidates are invalid (all-``inf`` objective
    rows) and memoisation produces duplicate vectors; both shapes stress the
    kernels' tie handling.
    """
    rng = np.random.default_rng(2017)
    pool = 2 * population
    matrix = rng.uniform(1.0, 100.0, size=(pool, objectives))
    invalid = rng.random(pool) < 0.25
    matrix[invalid] = np.inf
    duplicates = rng.integers(0, pool, size=pool // 8)
    matrix[duplicates] = matrix[rng.integers(0, pool, size=pool // 8)]
    return matrix


def _trade_off_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Near-Pareto-optimal points: a noisy 3-objective trade-off shell.

    Converged GA fronts sit on such a shell, so most points are mutually
    non-dominated and the run-wide front stays large — the regime the
    generational front-maintenance path actually operates in.
    """
    shell = rng.dirichlet((1.0, 1.0, 1.0), size=count) * 100.0
    return shell + rng.uniform(0.0, 0.5, size=(count, 3))


def _persistent_front(rng: np.random.Generator, size: int) -> ParetoFront:
    front: ParetoFront[int] = ParetoFront()
    points = _trade_off_points(rng, size)
    front.extend_array(points, list(range(size)))
    return front


def _clone_front(front: ParetoFront) -> ParetoFront:
    clone: ParetoFront[int] = ParetoFront()
    clone.items = list(front.items)
    clone.objectives = list(front.objectives)
    return clone


def _ops_per_second(operation, min_seconds: float) -> float:
    operation()  # warm-up
    started = time.perf_counter()
    count = 0
    while time.perf_counter() - started < min_seconds:
        operation()
        count += 1
    return count / (time.perf_counter() - started)


def measure_selection_throughput(
    population: int, min_seconds: float = 0.3
) -> dict:
    """Time legacy vs vectorized selection kernels on one merged 2N pool."""
    matrix = _selection_pool(population)
    rows = [tuple(row) for row in matrix]

    legacy_sort = _ops_per_second(lambda: non_dominated_sort_python(rows), min_seconds)
    fast_sort = _ops_per_second(lambda: non_dominated_sort(matrix), min_seconds)

    legacy_crowding = _ops_per_second(
        lambda: crowding_distance_python(rows), min_seconds
    )
    fast_crowding = _ops_per_second(
        lambda: crowding_distance(matrix), min_seconds
    )

    # Front maintenance: one generation's valid newcomers entering the
    # run-wide front, which by mid-run holds hundreds of trade-off points.
    rng = np.random.default_rng(2018)
    persistent = _persistent_front(rng, 3 * population)
    newcomers = _trade_off_points(rng, population)
    newcomer_rows = [tuple(row) for row in newcomers]
    newcomer_items = list(range(population))

    def legacy_front():
        front = _clone_front(persistent)
        for index, row in enumerate(newcomer_rows):
            front.add(index, row)

    def fast_front():
        front = _clone_front(persistent)
        front.extend_array(newcomers, newcomer_items)

    legacy_extend = _ops_per_second(legacy_front, min_seconds)
    fast_extend = _ops_per_second(fast_front, min_seconds)

    # The CI criterion: one full sort+crowding selection pass over the pool.
    def legacy_selection():
        for front in non_dominated_sort_python(rows):
            crowding_distance_python([rows[index] for index in front])

    def fast_selection():
        for front in non_dominated_sort(matrix):
            crowding_distance(matrix[np.asarray(front, dtype=int)])

    legacy_combined = _ops_per_second(legacy_selection, min_seconds)
    fast_combined = _ops_per_second(fast_selection, min_seconds)

    return {
        "population": population,
        "pool_rows": len(matrix),
        "legacy_sorts_per_second": legacy_sort,
        "vectorized_sorts_per_second": fast_sort,
        "sort_speedup": fast_sort / legacy_sort,
        "legacy_crowding_per_second": legacy_crowding,
        "vectorized_crowding_per_second": fast_crowding,
        "crowding_speedup": fast_crowding / legacy_crowding,
        "legacy_front_extends_per_second": legacy_extend,
        "vectorized_front_extends_per_second": fast_extend,
        "front_extend_speedup": fast_extend / legacy_extend,
        "legacy_selections_per_second": legacy_combined,
        "vectorized_selections_per_second": fast_combined,
        "selection_speedup": fast_combined / legacy_combined,
    }


def measure_nsga2_generation_rate(min_seconds: float = 0.3) -> dict:
    """End-to-end NSGA-II generations/sec with the vectorized kernels."""
    architecture = build_topology("ring", 4, 4, wavelength_count=8)
    evaluator = AllocationEvaluator(
        architecture, paper_task_graph(), paper_mapping(architecture)
    )
    parameters = GeneticParameters.smoke_test()
    Nsga2Optimizer(evaluator, parameters).run()  # warm-up

    started = time.perf_counter()
    generations = 0
    selection_seconds = 0.0
    while time.perf_counter() - started < min_seconds:
        result = Nsga2Optimizer(evaluator, parameters).run()
        generations += len(result.history)
        selection_seconds += result.selection_seconds
    elapsed = time.perf_counter() - started
    return {
        "population": parameters.population_size,
        "generations_per_second": generations / elapsed,
        "selection_fraction": selection_seconds / elapsed,
    }


def measure_selection_kernels(min_seconds: float = 0.3) -> dict:
    report = {
        "pools": [
            measure_selection_throughput(population, min_seconds)
            for population in POPULATIONS
        ],
        "nsga2": measure_nsga2_generation_rate(min_seconds),
    }
    report["selection_speedup_at_256"] = next(
        pool["selection_speedup"]
        for pool in report["pools"]
        if pool["population"] == 256
    )
    return report


@pytest.fixture(scope="module")
def pool_256() -> np.ndarray:
    return _selection_pool(256)


def test_legacy_sort_merged_pool(benchmark, pool_256):
    """Historical O(N^2) Python non-dominated sort on the 512-row pool."""
    rows = [tuple(row) for row in pool_256]
    fronts = benchmark(non_dominated_sort_python, rows)
    assert sum(len(front) for front in fronts) == len(rows)


def test_vectorized_sort_merged_pool(benchmark, pool_256):
    """Broadcast non-dominated sort on the 512-row pool."""
    fronts = benchmark(non_dominated_sort, pool_256)
    assert sum(len(front) for front in fronts) == len(pool_256)


def test_vectorized_crowding_merged_pool(benchmark, pool_256):
    """Loop-free crowding distance on the 512-row pool."""
    distances = benchmark(crowding_distance, pool_256)
    assert len(distances) == len(pool_256)


def test_batched_front_extend_persistent(benchmark):
    """One generation of newcomers batch-entering a grown run-wide front."""
    rng = np.random.default_rng(2018)
    persistent = _persistent_front(rng, 768)
    newcomers = _trade_off_points(rng, 256)
    items = list(range(len(newcomers)))

    def extend():
        front = _clone_front(persistent)
        front.extend_array(newcomers, items)
        return front

    front = benchmark(extend)
    assert len(front) > 0


def test_selection_speedup_meets_target():
    """The acceptance criterion: >= 10x sort+crowding at population 256."""
    report = measure_selection_throughput(256, min_seconds=0.3)
    assert report["selection_speedup"] >= MIN_SPEEDUP, report


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Compare legacy vs vectorized Pareto selection kernels."
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_selection.json"),
        help="where to write the JSON report (default: BENCH_selection.json)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.3,
        help="minimum measurement window per kernel (default: 0.3s)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero when the pop-256 selection speedup falls below {MIN_SPEEDUP}x",
    )
    arguments = parser.parse_args()

    report = measure_selection_kernels(arguments.min_seconds)
    arguments.output.write_text(json.dumps(report, indent=2) + "\n")
    for pool in report["pools"]:
        print(
            f"pop {pool['population']} ({pool['pool_rows']} rows): "
            f"sort {pool['sort_speedup']:.1f}x, "
            f"crowding {pool['crowding_speedup']:.1f}x, "
            f"front {pool['front_extend_speedup']:.1f}x, "
            f"selection {pool['selection_speedup']:.1f}x"
        )
    print(
        f"nsga2 {report['nsga2']['generations_per_second']:.1f} generations/s "
        f"(selection {report['nsga2']['selection_fraction'] * 100:.0f}% of wall clock) "
        f"-> {arguments.output}"
    )
    if arguments.check and report["selection_speedup_at_256"] < MIN_SPEEDUP:
        raise SystemExit(
            f"selection kernel speedup {report['selection_speedup_at_256']:.2f}x "
            f"is below the {MIN_SPEEDUP}x target at population 256"
        )


if __name__ == "__main__":
    main()
