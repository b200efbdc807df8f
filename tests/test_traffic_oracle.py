"""Reference oracle for :class:`repro.traffic.DynamicTrafficSimulator`.

:func:`reference_report` replays a stream the straightforward way: every
arrival and every departure is a callback on the generic
:class:`~repro.simulation.engine.DiscreteEventEngine`, ordered by the shared
release-before-acquire priorities.  The production simulator runs a
specialised loop instead; the property test below drives both with
adversarial traces (equal timestamps, arrivals exactly at a departure,
holdings too small to move the clock, shuffled streams) and asserts the
reports are identical, field for field.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import DiscreteEventEngine
from repro.simulation.events import PRIORITY_ACQUIRE, PRIORITY_RELEASE
from repro.topology import build_topology
from repro.traffic import (
    ALLOCATOR_SEED_OFFSET,
    BlockingReport,
    DynamicTrafficSimulator,
    build_online_allocator,
    build_traffic_model,
    wilson_interval,
)

STRATEGIES = ("first_fit", "least_used", "most_used", "random")


def reference_report(topology, model, allocator, warmup_fraction, topology_name):
    """The blocking report of ``model``'s stream, one engine event per arrival/departure."""
    requests = model.requests(list(topology.core_ids()))
    wavelength_count = topology.wavelength_count
    full_mask = (1 << wavelength_count) - 1
    warmup_count = int(len(requests) * warmup_fraction)
    path_segments: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def segments_of(source, destination):
        key = (source, destination)
        if key not in path_segments:
            path_segments[key] = topology.path(source, destination).segment_keys()
        return path_segments[key]

    engine = DiscreteEventEngine()
    busy_masks: Dict[Tuple[int, int], int] = {}
    usage = [0] * wavelength_count
    carried_per_wavelength = [0] * wavelength_count
    offered = 0
    blocked = 0
    busy_segment_time = 0.0

    def depart(segments, wavelength):
        for segment in segments:
            busy_masks[segment] &= ~(1 << wavelength)
        usage[wavelength] -= 1

    def arrive(request):
        nonlocal offered, blocked, busy_segment_time
        measured = request.index >= warmup_count
        if measured:
            offered += 1
        segments = segments_of(request.source, request.destination)
        combined = 0
        for segment in segments:
            combined |= busy_masks.get(segment, 0)
        free_mask = ~combined & full_mask
        if free_mask == 0:
            if measured:
                blocked += 1
            return
        free = tuple(w for w in range(wavelength_count) if free_mask >> w & 1)
        wavelength = allocator.choose(request, free, usage)
        assert wavelength in free
        for segment in segments:
            busy_masks[segment] = busy_masks.get(segment, 0) | (1 << wavelength)
        usage[wavelength] += 1
        carried_per_wavelength[wavelength] += 1
        busy_segment_time += request.holding * len(segments)
        engine.schedule_at(
            request.departure,
            lambda: depart(segments, wavelength),
            priority=PRIORITY_RELEASE,
        )

    for request in requests:
        engine.schedule_at(
            request.arrival,
            lambda request=request: arrive(request),
            priority=PRIORITY_ACQUIRE,
        )
    duration = engine.run(max_events=max(1_000_000, 4 * len(requests)))

    network_segments = set()
    for source in topology.core_ids():
        for destination in topology.core_ids():
            if source != destination:
                network_segments.update(segments_of(source, destination))
    capacity = len(network_segments) * wavelength_count * duration
    low, high = wilson_interval(blocked, offered)
    return BlockingReport(
        model=model.name,
        strategy=allocator.name,
        topology=topology_name,
        wavelength_count=wavelength_count,
        total_requests=len(requests),
        warmup_excluded=warmup_count,
        offered=offered,
        blocked=blocked,
        blocking_probability=blocked / offered if offered else 0.0,
        wilson_low=low,
        wilson_high=high,
        mean_link_utilisation=busy_segment_time / capacity if capacity > 0.0 else 0.0,
        duration=duration,
        per_wavelength_carried=tuple(carried_per_wavelength),
        events_processed=engine.processed_events,
    )


class PermutedModel:
    """A trace whose request list comes back in a fixed non-sorted order.

    :class:`~repro.traffic.TraceTrafficModel` always sorts its stream, so this
    wrapper is what reaches the simulator's own stable sort by arrival.
    """

    name = "trace"

    def __init__(self, model, order):
        self._model = model
        self._order = order

    def requests(self, core_ids):
        stream = self._model.requests(core_ids)
        return [stream[position] for position in self._order]

    def describe(self):
        return "permuted " + self._model.describe()


#: Arrival times on a coarse grid, so equal timestamps are common and
#: integer holdings land departures exactly on later arrivals.
ARRIVALS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0])
#: ``1e-300`` vanishes against any positive arrival (``t + h == t``).
HOLDINGS = st.sampled_from([1e-300, 0.25, 0.5, 1.0, 2.0, 3.0, 6.0])


@st.composite
def scenarios(draw):
    topology_name = draw(st.sampled_from(["ring", "crossbar"]))
    wavelength_count = draw(st.integers(1, 10))
    cores = build_topology(topology_name, 2, 2, wavelength_count=1).core_ids()
    pair = st.tuples(st.sampled_from(cores), st.sampled_from(cores)).filter(
        lambda endpoints: endpoints[0] != endpoints[1]
    )
    raw = draw(st.lists(st.tuples(pair, ARRIVALS, HOLDINGS), min_size=1, max_size=40))
    events = [
        {"source": s, "destination": d, "arrival": a, "holding": h}
        for (s, d), a, h in raw
    ]
    order = draw(st.permutations(range(len(events))))
    return {
        "topology": topology_name,
        "wavelength_count": wavelength_count,
        "events": events,
        "order": order if draw(st.booleans()) else None,
        "strategy": draw(st.sampled_from(STRATEGIES)),
        "warmup_fraction": draw(st.sampled_from([0.0, 0.1, 0.3, 0.75])),
    }


def build(case):
    topology = build_topology(
        case["topology"], 2, 2, wavelength_count=case["wavelength_count"]
    )
    model = build_traffic_model("trace", {"events": case["events"]})
    if case["order"] is not None:
        model = PermutedModel(model, case["order"])
    allocator = build_online_allocator(
        case["strategy"], None, seed=5 + ALLOCATOR_SEED_OFFSET
    )
    return topology, model, allocator


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_simulator_matches_the_engine_driven_reference(case):
    topology, model, allocator = build(case)
    expected = reference_report(
        topology, model, allocator, case["warmup_fraction"], case["topology"]
    )
    topology, model, allocator = build(case)
    report = DynamicTrafficSimulator(
        topology,
        model,
        allocator,
        warmup_fraction=case["warmup_fraction"],
        topology_name=case["topology"],
    ).run()
    assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())
    assert report.events_processed == report.total_requests + sum(
        report.per_wavelength_carried
    )


def test_reference_matches_the_simulator_on_a_poisson_sweep_point():
    """The oracle itself reproduces a realistic multi-segment run."""

    def parts(strategy):
        topology = build_topology("multi_ring", 4, 4, wavelength_count=3)
        model = build_traffic_model(
            "poisson", {"offered_load_erlangs": 12.0, "request_count": 500}, seed=3
        )
        return topology, model, build_online_allocator(strategy, None, seed=4)

    for strategy in STRATEGIES:
        expected = reference_report(*parts(strategy), 0.1, "multi_ring")
        actual = DynamicTrafficSimulator(*parts(strategy), topology_name="multi_ring").run()
        assert actual == expected
        assert 0 < actual.blocked < actual.offered
