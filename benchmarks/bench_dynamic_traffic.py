"""Dynamic-traffic simulator benchmark: event throughput + Erlang-B agreement.

Two measurements of :class:`~repro.traffic.DynamicTrafficSimulator`:

* **Throughput** — a 20 000-request Poisson stream on the paper's 4x4 ring
  with 4 wavelengths, reported as events/second.  The simulator's loop must
  stay O(log n) per event (one heap push and pop per admitted request), so
  the check enforces a conservative floor.
* **Erlang-B agreement** — the same simulator pinned to a single
  source-destination pair is an M/M/NW/NW loss system, so its blocking
  probability must match the Erlang-B formula.  The check bounds the
  absolute error on a 40 000-request run.

Run as a script to produce ``BENCH_traffic.json`` — the dynamic-traffic
report the CI smoke job checks::

    PYTHONPATH=src python benchmarks/bench_dynamic_traffic.py \
        --output BENCH_traffic.json --check
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.topology import build_topology
from repro.traffic import (
    DynamicTrafficSimulator,
    build_online_allocator,
    build_traffic_model,
    erlang_b,
)

#: Minimum events/second the smoke check enforces.  The simulator runs at
#: well over a hundred thousand events/second; the quadratic event-queue
#: regression this floor was set against ran at ~1 300, so the floor separates
#: the two regimes with a wide margin on slow CI machines.
THROUGHPUT_FLOOR = 5_000.0

#: Maximum |simulated - analytical| blocking probability on the single-pair
#: run.  The binomial sampling noise at these sizes is ~0.002, so 0.02 only
#: trips on a genuinely wrong simulator.
ERLANG_TOLERANCE = 0.02

#: Offered load / server count of the Erlang-B fixture.
ERLANG_OFFERED = 3.0
ERLANG_SERVERS = 4


def measure_throughput(request_count: int = 20_000) -> dict:
    """Events/second of a Poisson run on the paper's 4x4 ring, NW=4."""
    topology = build_topology("ring", 4, 4, wavelength_count=4)
    model = build_traffic_model(
        "poisson",
        {"offered_load_erlangs": 16.0, "request_count": request_count},
        seed=2017,
    )
    allocator = build_online_allocator("first_fit", None, seed=2018)
    simulator = DynamicTrafficSimulator(
        topology, model, allocator, topology_name="ring"
    )
    started = time.perf_counter()
    report = simulator.run()
    seconds = time.perf_counter() - started
    rate = report.events_processed / seconds if seconds > 0 else float("inf")
    return {
        "request_count": request_count,
        "events_processed": report.events_processed,
        "seconds": seconds,
        "events_per_second": rate,
        "blocking_probability": report.blocking_probability,
    }


def measure_erlang_agreement(request_count: int = 40_000) -> dict:
    """Blocking on one pinned pair vs the analytical Erlang-B formula."""
    topology = build_topology("ring", 1, 2, wavelength_count=ERLANG_SERVERS)
    model = build_traffic_model(
        "poisson",
        {
            "offered_load_erlangs": ERLANG_OFFERED,
            "request_count": request_count,
            "pairs": [[0, 1]],
        },
        seed=2017,
    )
    allocator = build_online_allocator("first_fit", None, seed=2018)
    report = DynamicTrafficSimulator(
        topology, model, allocator, topology_name="ring"
    ).run()
    analytical = erlang_b(ERLANG_OFFERED, ERLANG_SERVERS)
    return {
        "request_count": request_count,
        "offered_load_erlangs": ERLANG_OFFERED,
        "servers": ERLANG_SERVERS,
        "simulated_blocking": report.blocking_probability,
        "analytical_blocking": analytical,
        "absolute_error": abs(report.blocking_probability - analytical),
    }


def measure_dynamic_traffic() -> dict:
    """The full benchmark report: throughput + Erlang-B agreement."""
    return {
        "throughput": measure_throughput(),
        "erlang_b": measure_erlang_agreement(),
        "throughput_floor": THROUGHPUT_FLOOR,
        "erlang_tolerance": ERLANG_TOLERANCE,
    }


def test_throughput_and_erlang_agreement():
    """The smoke criterion: fast simulator, analytically correct blocking."""
    report = measure_dynamic_traffic()
    assert report["throughput"]["events_per_second"] >= THROUGHPUT_FLOOR, report
    assert report["erlang_b"]["absolute_error"] <= ERLANG_TOLERANCE, report


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Measure dynamic-traffic throughput and Erlang-B agreement."
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_traffic.json"),
        help="where to write the JSON report (default: BENCH_traffic.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when throughput falls below the floor or the "
        "Erlang-B error exceeds the tolerance",
    )
    arguments = parser.parse_args()

    report = measure_dynamic_traffic()
    arguments.output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"throughput: {report['throughput']['events_per_second']:.0f} events/s, "
        f"Erlang-B error: {report['erlang_b']['absolute_error']:.4f} "
        f"(simulated {report['erlang_b']['simulated_blocking']:.4f} vs "
        f"analytical {report['erlang_b']['analytical_blocking']:.4f}) "
        f"-> {arguments.output}"
    )
    failures = []
    if report["throughput"]["events_per_second"] < THROUGHPUT_FLOOR:
        failures.append(
            f"throughput {report['throughput']['events_per_second']:.0f} events/s "
            f"is below the {THROUGHPUT_FLOOR:.0f} floor"
        )
    if report["erlang_b"]["absolute_error"] > ERLANG_TOLERANCE:
        failures.append(
            f"Erlang-B error {report['erlang_b']['absolute_error']:.4f} "
            f"exceeds the {ERLANG_TOLERANCE} tolerance"
        )
    if arguments.check and failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
