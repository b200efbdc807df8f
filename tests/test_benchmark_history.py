"""The tracked benchmark trajectory, ``benchmarks/history.jsonl``.

One JSON object per line, one line per measured change:

* ``commit`` — the commit the change was measured against (its parent);
* ``change`` — what the change did, in one line;
* ``source_sha256`` — perfbench's digest of the measured change's ``src``;
* ``machine`` — the perfbench machine stamp (CPU count, Python, numpy,
  platform, BLAS thread pins);
* ``workloads`` — per perfbench workload, the number of alternating
  ``pairs`` run and the ``parent`` and ``change`` medians of every
  end-to-end metric ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HISTORY = ROOT / "benchmarks" / "history.jsonl"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {entry["name"] for entry in BENCHMARK["end_to_end"]}
WORKLOADS = {entry["name"] for entry in BENCHMARK["workloads"]}
MACHINE_KEYS = {"cpu_count", "python", "numpy", "platform", "blas_threads"}


def test_every_line_carries_commit_machine_and_medians():
    lines = [
        line
        for line in HISTORY.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    assert lines
    for number, line in enumerate(lines, start=1):
        entry = json.loads(line)
        assert isinstance(entry["commit"], str) and len(entry["commit"]) >= 7, number
        assert isinstance(entry["change"], str) and entry["change"], number
        assert int(entry["source_sha256"], 16) >= 0, number
        assert MACHINE_KEYS <= set(entry["machine"]), number
        assert entry["workloads"] and set(entry["workloads"]) <= WORKLOADS, number
        for name, workload in entry["workloads"].items():
            assert workload["pairs"] >= 1, (number, name)
            for side in ("parent", "change"):
                medians = workload[side]
                assert set(medians) == END_TO_END, (number, name, side)
                assert all(
                    isinstance(value, (int, float)) and math.isfinite(value)
                    for value in medians.values()
                ), (number, name, side)
