"""Dynamic-traffic RWA: online wavelength allocation under stochastic arrivals.

The static scenarios allocate wavelengths for a task graph known up front;
this subpackage opens the *dynamic* workload family — connections arrive,
hold a wavelength end-to-end (wavelength continuity over the topology's
path), and depart — measured by **blocking probability**, the figure of merit
of the classic RWA literature.

* :mod:`~repro.traffic.models`     — ``TrafficModel`` protocol +
  :data:`TRAFFIC_MODELS` registry (seeded ``poisson``, deterministic
  ``trace``) emitting fingerprint-stable ``ConnectionRequest`` streams.
* :mod:`~repro.traffic.allocators` — ``OnlineAllocator`` protocol +
  :data:`ONLINE_ALLOCATORS` registry (``first_fit``, ``least_used``,
  ``most_used``, ``random``).
* :mod:`~repro.traffic.simulator`  — :class:`DynamicTrafficSimulator`, an
  arrival/departure loop producing a :class:`BlockingReport` with a
  Wilson interval, warm-up exclusion and link utilisation; plus the
  :func:`erlang_b` analytical oracle.
* :mod:`~repro.traffic.sweep`      — load-vs-blocking sweeps across
  strategies, wavelength counts and topologies.
"""

from .allocators import (
    ONLINE_ALLOCATORS,
    FirstFitAllocator,
    LeastUsedAllocator,
    MostUsedAllocator,
    OnlineAllocator,
    RandomAllocator,
    build_online_allocator,
)
from .models import (
    DEFAULT_TRAFFIC_SEED,
    TRAFFIC_MODELS,
    ConnectionRequest,
    PoissonTrafficModel,
    TraceTrafficModel,
    TrafficModel,
    build_traffic_model,
)
from .simulator import BlockingReport, DynamicTrafficSimulator, erlang_b, wilson_interval
from .sweep import ALLOCATOR_SEED_OFFSET, DEFAULT_SWEEP_SEED, sweep_blocking, sweep_rows

__all__ = [
    "ConnectionRequest",
    "TrafficModel",
    "TRAFFIC_MODELS",
    "PoissonTrafficModel",
    "TraceTrafficModel",
    "build_traffic_model",
    "DEFAULT_TRAFFIC_SEED",
    "OnlineAllocator",
    "ONLINE_ALLOCATORS",
    "FirstFitAllocator",
    "LeastUsedAllocator",
    "MostUsedAllocator",
    "RandomAllocator",
    "build_online_allocator",
    "BlockingReport",
    "DynamicTrafficSimulator",
    "erlang_b",
    "wilson_interval",
    "sweep_blocking",
    "sweep_rows",
    "ALLOCATOR_SEED_OFFSET",
    "DEFAULT_SWEEP_SEED",
]
