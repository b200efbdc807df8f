"""Output checks: each returns the number of failed checks (0 when correct).

The launcher folds every failure into ``failed`` and the ``bench.error_rate``
per-layer metric, so a wrong answer can never pass as a fast one.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Relative tolerance of the batch-vs-scalar equivalence tests
#: (``tests/test_allocation_batch.py``): validity and execution time are
#: bit-identical there, BER and energy agree to 1e-9.
RTOL = 1e-9

#: Fixed (time kcycles, energy fJ/bit) box of the 4x4 ring running the paper
#: application: every front seen at NW 4/8/12 lies inside it.  Hypervolume is
#: measured from IDEAL to REFERENCE and normalised by the box area.
IDEAL = (20.0, 4.0)
REFERENCE = (40.0, 16.0)

#: A front row as the checks see it: ``(chromosome, valid, (time, ber, energy))``.
FrontRow = Tuple[Any, bool, Tuple[float, float, float]]


def normalised_hypervolume(points: Sequence[Tuple[float, float]]) -> float:
    """(time, energy) hypervolume inside the fixed box, as a share of the box."""
    from repro.analysis.pareto_metrics import hypervolume_2d

    shifted = [(time - IDEAL[0], energy - IDEAL[1]) for time, energy in points]
    box = (REFERENCE[0] - IDEAL[0], REFERENCE[1] - IDEAL[1])
    if not shifted:
        return 0.0
    return hypervolume_2d(shifted, box) / (box[0] * box[1])


def dominated_rows(matrix: np.ndarray) -> int:
    """How many rows of a minimisation matrix some other row dominates."""
    if len(matrix) < 2:
        return 0
    no_worse = (matrix[:, None, :] <= matrix[None, :, :]).all(axis=-1)
    better = (matrix[:, None, :] < matrix[None, :, :]).any(axis=-1)
    return int((no_worse & better).any(axis=0).sum())


def front_failures(evaluator: Any, objective_keys: Sequence[str], rows: Sequence[FrontRow]) -> int:
    """Re-score every front row with the scalar evaluator; check non-dominance.

    A row fails when its validity differs from the scalar path's or an
    objective differs by more than :data:`RTOL`; every dominated row fails
    too.  An empty front is one failure.
    """
    if not rows:
        return 1
    failures = 0
    for chromosome, valid, objectives in rows:
        again = evaluator.evaluate(chromosome)
        if again.is_valid != valid or not valid:
            failures += 1
        elif not np.allclose(objectives, again.objectives.as_tuple(), rtol=RTOL, atol=0.0):
            failures += 1
    keys = ("time", "ber", "energy")
    columns = [keys.index(key) for key in objective_keys]
    matrix = np.asarray([objectives for _, _, objectives in rows], dtype=float)[:, columns]
    return failures + dominated_rows(matrix)


def traffic_failures(reports: Sequence[Any], reference: Sequence[Mapping[str, Any]]) -> int:
    """Reports failing the event-count identity or differing from the reference sweep."""
    if len(reports) != len(reference):
        return max(len(reports), len(reference))
    return sum(
        1
        for report, expected in zip(reports, reference)
        if report.events_processed != report.total_requests + sum(report.per_wavelength_carried)
        or report.to_dict() != expected
    )


def response_failures(responses: Sequence[Tuple[str, int, str]],
                      expected: Mapping[str, List[Dict[str, Any]]]) -> int:
    """Every GET answered 200 with exactly the stored result's Pareto rows."""
    failures = 0
    for fingerprint, status, body in responses:
        if status != 200:
            failures += 1
            continue
        try:
            rows = json.loads(body)["pareto_rows"]
        except (ValueError, KeyError, TypeError):
            failures += 1
            continue
        if rows != expected.get(fingerprint):
            failures += 1
    return failures
