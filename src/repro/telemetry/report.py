"""Offline trace analysis: span trees and aggregate tables from JSONL.

Backs the ``repro telemetry`` CLI subcommand.  A trace file is a flat
stream of completed spans (children are written *before* their parents,
because a span's line is emitted when it closes); :func:`build_span_tree`
re-nests them via ``parent`` ids, and :func:`aggregate_spans` folds the
stream into per-name totals whose sums agree with the registry-derived
phase seconds of the run that produced the trace.  :func:`compare_spans`
sets the per-name totals of two traces side by side (``--compare``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..errors import ReproError

__all__ = [
    "SpanNode",
    "aggregate_spans",
    "build_span_tree",
    "compare_spans",
    "load_trace",
    "render_span_tree",
    "span_rows",
]


@dataclass
class SpanNode:
    """One completed span plus its (time-ordered) children."""

    record: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.record.get("name", "?"))

    @property
    def duration(self) -> float:
        return float(self.record.get("duration", 0.0))

    @property
    def attrs(self) -> Dict[str, Any]:
        return dict(self.record.get("attrs") or {})


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file into span records (bad lines are an error)."""
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ReproError(
                        f"{path}:{line_number}: not a JSON span line ({exc})"
                    ) from exc
                if not isinstance(record, dict) or "name" not in record:
                    raise ReproError(
                        f"{path}:{line_number}: span line missing 'name'"
                    )
                records.append(record)
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path!r}: {exc}") from exc
    return records


def build_span_tree(records: List[Mapping[str, Any]]) -> List[SpanNode]:
    """Nest spans by ``parent`` id; returns time-ordered roots."""
    nodes: Dict[str, SpanNode] = {}
    for record in records:
        span_id = str(record.get("span", ""))
        nodes[span_id] = SpanNode(record=dict(record))
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent_id = node.record.get("parent")
        parent = nodes.get(str(parent_id)) if parent_id is not None else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)

    def _sort(children: List[SpanNode]) -> None:
        children.sort(key=lambda n: float(n.record.get("start", 0.0)))
        for child in children:
            _sort(child.children)

    _sort(roots)
    return roots


def aggregate_spans(records: List[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Per-name aggregate rows: count, total/mean/min/max seconds."""
    totals: Dict[str, Dict[str, Any]] = {}
    for record in records:
        name = str(record.get("name", "?"))
        duration = float(record.get("duration", 0.0))
        row = totals.get(name)
        if row is None:
            totals[name] = {
                "name": name,
                "count": 1,
                "total_seconds": duration,
                "min_seconds": duration,
                "max_seconds": duration,
            }
        else:
            row["count"] += 1
            row["total_seconds"] += duration
            row["min_seconds"] = min(row["min_seconds"], duration)
            row["max_seconds"] = max(row["max_seconds"], duration)
    rows = sorted(totals.values(), key=lambda r: -r["total_seconds"])
    for row in rows:
        row["mean_seconds"] = row["total_seconds"] / row["count"]
    return rows


def compare_spans(
    before: List[Mapping[str, Any]], after: List[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Per-name count and total seconds of two traces, largest change first.

    ``ratio`` is B over A total seconds, ``None`` when A has no time in
    the span; a name missing from one side counts zero there.
    """
    empty = {"count": 0, "total_seconds": 0.0}
    sides = [
        {row["name"]: row for row in aggregate_spans(records)}
        for records in (before, after)
    ]
    rows: List[Dict[str, Any]] = []
    for name in set(sides[0]) | set(sides[1]):
        a, b = (side.get(name, empty) for side in sides)
        rows.append(
            {
                "span": name,
                "count_a": a["count"],
                "total_s_a": a["total_seconds"],
                "count_b": b["count"],
                "total_s_b": b["total_seconds"],
                "delta_s": b["total_seconds"] - a["total_seconds"],
                "ratio": (
                    b["total_seconds"] / a["total_seconds"]
                    if a["total_seconds"] > 0.0
                    else None
                ),
            }
        )
    rows.sort(key=lambda row: (-abs(row["delta_s"]), row["span"]))
    return rows


def render_span_tree(roots: List[SpanNode], max_attrs: int = 3) -> List[str]:
    """Indented, human-readable lines for a span forest."""
    lines: List[str] = []

    def _attrs(node: SpanNode) -> str:
        attrs = node.attrs
        if not attrs:
            return ""
        shown = [f"{key}={attrs[key]}" for key in sorted(attrs)[:max_attrs]]
        if len(attrs) > max_attrs:
            shown.append("…")
        return "  [" + " ".join(shown) + "]"

    def _walk(node: SpanNode, depth: int) -> None:
        lines.append(
            f"{'  ' * depth}{node.name}  {node.duration * 1000.0:.3f} ms{_attrs(node)}"
        )
        for child in node.children:
            _walk(child, depth + 1)

    for root in roots:
        _walk(root, 0)
    return lines


def span_rows(records: List[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Flat CSV-ready rows, one per span, in file (completion) order."""
    rows: List[Dict[str, Any]] = []
    for record in records:
        rows.append(
            {
                "name": record.get("name", ""),
                "trace": record.get("trace", ""),
                "span": record.get("span", ""),
                "parent": record.get("parent") or "",
                "depth": record.get("depth", 0),
                "start": record.get("start", 0.0),
                "duration_seconds": record.get("duration", 0.0),
                "attrs": json.dumps(record.get("attrs") or {}, sort_keys=True),
            }
        )
    return rows
