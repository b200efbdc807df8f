"""Time-ordered event queue for the discrete-event engine.

Events are ordered by (time, priority, sequence number); the sequence number
makes the ordering total and deterministic even when many events share the same
timestamp, which matters for reproducible simulations.  The heap holds
``(time, priority, sequence, event)`` tuples, so ordering compares plain
numbers and never reaches the event itself.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["Event", "EventQueue", "PRIORITY_RELEASE", "PRIORITY_ACQUIRE"]

# Shared tie-break convention for events that touch a contended resource:
# at equal timestamps, events that *release* capacity (transfer completions,
# connection departures) must fire before events that *acquire* it (task
# launches, connection arrivals), otherwise a request can be refused capacity
# that frees at the very same instant — and the refusal would depend on
# insertion order instead of being deterministic.
PRIORITY_RELEASE = 0
PRIORITY_ACQUIRE = 1


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulation time at which the event fires.
    priority:
        Tie-breaker between events at the same time (lower fires first).
    sequence:
        Monotonic insertion counter making the ordering total.
    action:
        Zero-argument callable executed when the event fires.
    label:
        Human-readable description for tracing.
    """

    time: float
    priority: int
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def push(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule an action; returns the event so callers can cancel it."""
        if time < 0.0:
            raise SimulationError("cannot schedule an event at negative time")
        event = Event(
            time=time,
            priority=priority,
            sequence=next(self._counter),
            action=action,
            label=label,
        )
        heapq.heappush(self._heap, (event.time, event.priority, event.sequence, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the next non-cancelled event, or None when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None when empty."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def __len__(self) -> int:
        # O(heap size): cancelled events stay in the heap until popped.  Use
        # truthiness to test for pending events — the engine's hot loop does —
        # which is amortised O(1) via :meth:`peek_time`.
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
