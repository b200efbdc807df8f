"""In-memory spans around the program's public entry points.

The benchmark measures its end-to-end metrics with the program untouched.
A traced cycle instead runs inside :func:`instrumented`, which wraps the
public functions and methods listed by :func:`_targets` so that every call
opens a span in a :class:`SpanRecorder`.  Spans stay in memory and are
written once, at the end, as JSONL in the record schema of
``repro.telemetry.trace`` — ``python -m repro telemetry <file>`` renders
them.  (``REPRO_TRACE`` stays off: that sink writes and flushes a line per
span, which would time the disk instead of the program.)

Calls that happen tens of thousands of times per cycle (materialising one
batch row, one online allocator choice, one crowding computation) are
*folded*: their count and summed duration accumulate on the enclosing span
and are written as one record per (parent, name) with ``attrs.calls``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from common import now


class _Open:
    __slots__ = ("name", "span_id", "parent_id", "trace_id", "depth", "started", "attrs", "folded")

    def __init__(self, name: str, span_id: str, parent: Optional["_Open"], attrs: Dict[str, Any]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent.span_id if parent else None
        self.trace_id = parent.trace_id if parent else span_id
        self.depth = parent.depth + 1 if parent else 0
        self.attrs = attrs
        self.folded: Dict[str, List[float]] = {}
        self.started = now()


class SpanRecorder:
    """Thread-aware span collector; nothing leaves memory until :meth:`records`."""

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> str:
        return f"{self._pid:x}-{next(self._ids):x}"

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_Open]:
        stack = self._stack()
        handle = _Open(name, self._new_id(), stack[-1] if stack else None, attrs)
        stack.append(handle)
        try:
            yield handle
        finally:
            ended = now()
            stack.pop()
            self._close(handle, ended)

    def fold(self, name: str, started: float, seconds: float) -> None:
        """Account one call of a hot leaf function to the enclosing span."""
        stack = self._stack()
        if not stack:
            span_id = self._new_id()
            self._record(name, span_id, None, span_id, 0, started, seconds, {"calls": 1, "folded": True})
            return
        entry = stack[-1].folded.get(name)
        if entry is None:
            stack[-1].folded[name] = [1, seconds, started]
        else:
            entry[0] += 1
            entry[1] += seconds

    def _record(self, name: str, span_id: str, parent: Optional[str], trace: str,
                depth: int, started: float, duration: float, attrs: Mapping[str, Any]) -> None:
        record = {
            "name": name,
            "trace": trace,
            "span": span_id,
            "parent": parent,
            "start": started,
            "end": started + duration,
            "duration": duration,
            "depth": depth,
            "attrs": dict(attrs),
        }
        with self._lock:
            self._records.append(record)

    def _close(self, handle: _Open, ended: float) -> None:
        for name, (calls, seconds, started) in handle.folded.items():
            self._record(name, self._new_id(), handle.span_id, handle.trace_id,
                         handle.depth + 1, started, seconds, {"calls": int(calls), "folded": True})
        self._record(handle.name, handle.span_id, handle.parent_id, handle.trace_id,
                     handle.depth, handle.started, ended - handle.started, handle.attrs)

    def records(self) -> List[Dict[str, Any]]:
        """All completed spans."""
        with self._lock:
            return list(self._records)


# --------------------------------------------------------------------- wrappers
def _spanned(recorder: SpanRecorder, name: str, original: Callable[..., Any],
             rows: Optional[Callable[[Sequence[Any]], int]],
             outcome: Optional[Callable[[Any], Dict[str, Any]]]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        attrs = {"rows": rows(args)} if rows is not None else {}
        with recorder.span(name, **attrs) as handle:
            result = original(*args, **kwargs)
            if outcome is not None:
                handle.attrs.update(outcome(result))
        return result

    return wrapper


def _folded(recorder: SpanRecorder, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = now()
        try:
            return original(*args, **kwargs)
        finally:
            recorder.fold(name, started, now() - started)

    return wrapper


def _targets() -> List[Tuple[Any, str, str, str, Any, Any]]:
    """``(owner, attribute, span name, kind, rows, outcome)`` of every wrapped entry point."""
    import repro.allocation.nsga2 as nsga2_module
    import repro.scenarios.study as study_module
    from repro.allocation.batch import BatchEvaluation, BatchEvaluator
    from repro.allocation.nsga2 import Nsga2Optimizer
    from repro.allocation.pareto import ParetoFront
    from repro.simulation.engine import DiscreteEventEngine
    from repro.store import ResultStore
    from repro.traffic import ONLINE_ALLOCATORS, PoissonTrafficModel, TraceTrafficModel
    from repro.traffic.simulator import DynamicTrafficSimulator

    def first_len(args: Sequence[Any]) -> int:
        return len(args[0])

    def second_len(args: Sequence[Any]) -> int:
        return len(args[1])

    targets: List[Tuple[Any, str, str, str, Any, Any]] = [
        (study_module, "build_scenario_evaluator", "scenarios.build_evaluator", "span", None, None),
        (study_module, "execute_scenario", "scenarios.execute", "span", None, None),
        (Nsga2Optimizer, "run", "nsga2.run", "span", None, None),
        (BatchEvaluator, "evaluate_population", "batch.evaluate", "span", second_len, None),
        (BatchEvaluation, "solution", "batch.solution", "fold", None, None),
        (nsga2_module, "non_dominated_sort", "pareto.sort", "span", first_len, None),
        (nsga2_module, "crowding_distance", "pareto.crowding", "fold", None, None),
        (ParetoFront, "extend_array", "pareto.front", "span", second_len, None),
        (ResultStore, "enqueue", "queue.enqueue", "span", None, None),
        (ResultStore, "claim", "queue.claim", "span", None,
         lambda job: {"empty": job is None}),
        (ResultStore, "complete", "queue.complete", "span", None, None),
        (ResultStore, "get", "store.get", "span", None,
         lambda result: {"hit": result is not None}),
        (ResultStore, "put", "store.put", "span", None, None),
        (ResultStore, "peek", "store.peek", "span", None, None),
        (PoissonTrafficModel, "requests", "traffic.generate", "span", None,
         lambda requests: {"requests": len(requests)}),
        (TraceTrafficModel, "requests", "traffic.generate", "span", None,
         lambda requests: {"requests": len(requests)}),
        (DiscreteEventEngine, "run", "engine.run", "span", None, None),
        (DynamicTrafficSimulator, "run", "traffic.simulate", "span", None,
         lambda report: {"events": report.events_processed, "offered": report.offered,
                         "blocked": report.blocked}),
    ]
    allocators = dict.fromkeys(ONLINE_ALLOCATORS.get(name) for name in ONLINE_ALLOCATORS.names())
    for cls in allocators:
        targets.append((cls, "choose", "traffic.choose", "fold", None, None))
    return targets


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every target for the duration of the block, then restore it."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name, kind, rows, outcome in _targets():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            saved.append((owner, attribute, original))
            if kind == "fold":
                setattr(owner, attribute, _folded(recorder, name, original))
            else:
                setattr(owner, attribute, _spanned(recorder, name, original, rows, outcome))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# --------------------------------------------------------------------- analysis
def totals(records: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (summed durations) and ``rows``."""
    table: Dict[str, Dict[str, float]] = {}
    for record in records:
        attrs = record.get("attrs") or {}
        row = table.setdefault(record["name"], {"calls": 0.0, "busy_s": 0.0, "rows": 0.0})
        row["calls"] += attrs.get("calls", 1)
        row["busy_s"] += record["duration"]
        row["rows"] += attrs.get("rows", 0)
    return table


def self_seconds(records: Sequence[Mapping[str, Any]], name: str) -> float:
    """Summed self time of the spans called ``name`` (duration minus children)."""
    children: Dict[str, float] = {}
    for record in records:
        if record.get("parent") is not None:
            children[record["parent"]] = children.get(record["parent"], 0.0) + record["duration"]
    return sum(
        max(0.0, record["duration"] - children.get(record["span"], 0.0))
        for record in records
        if record["name"] == name
    )


def matching(records: Sequence[Mapping[str, Any]], name: str, key: str) -> List[Any]:
    """The ``attrs[key]`` values of every span called ``name``."""
    return [(record.get("attrs") or {}).get(key) for record in records if record["name"] == name]


def write_jsonl(path: Path, records: Sequence[Mapping[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in sorted(records, key=lambda item: item["end"]):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
