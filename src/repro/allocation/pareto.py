"""Pareto dominance utilities: non-dominated sorting and crowding distance.

These are the two pillars of NSGA-II (Deb et al., the paper's reference [4]):

* :func:`non_dominated_sort` partitions a population into fronts ``F1, F2, ...``
  where ``F1`` is the set of non-dominated solutions, ``F2`` the set dominated
  only by ``F1`` members, and so on.
* :func:`crowding_distance` estimates how isolated each solution of a front is
  in objective space, so that selection can prefer well-spread solutions.

All objectives are minimised.  The functions operate on plain objective arrays
so they are reusable outside the GA (the exhaustive search and the analysis
module use them too).

The sort and the crowding distance are NumPy kernels: one pairwise ``<=``
mask accumulated objective by objective with iterative front peeling, and a
per-objective ``argsort`` with neighbour-gap slice differences.  They are the
only production implementation.  :func:`non_dominated_sort_python` and
:func:`crowding_distance_python` keep the readable, textbook O(N²·M) code as
named references: they define the semantics, including the exact front
*order* Deb's book-keeping produces and the exact floating-point summation
order of the crowding distances.  The kernels reproduce them bit for bit —
identical front index order, distances to 0 ulp — which the randomized and
property-based suites in ``tests/test_selection_kernels.py`` pin down, and
``benchmarks/bench_selection_kernels.py`` times them against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Iterable, Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

__all__ = [
    "dominates",
    "dominance_matrix",
    "non_dominated_sort",
    "non_dominated_sort_python",
    "crowding_distance",
    "crowding_distance_python",
    "ParetoFront",
]

T = TypeVar("T")

#: Finite stand-in for infinite objectives inside the crowding computation.
_INF_CLAMP = 1.0e300

#: Candidates per internal chunk of :meth:`ParetoFront.extend_array` (bounds
#: the ``O(chunk²)`` comparison masks however large the batch is).
_EXTEND_CHUNK = 1024


def dominates(first: Sequence[float], second: Sequence[float]) -> bool:
    """True when objective vector ``first`` Pareto-dominates ``second`` (minimisation).

    ``first`` dominates ``second`` when it is no worse in every objective and
    strictly better in at least one.
    """
    if len(first) != len(second):
        raise ValueError("objective vectors must have the same length")
    return _dominates_unchecked(first, second)


def _dominates_unchecked(first: Sequence[float], second: Sequence[float]) -> bool:
    """The dominance test without the length check (sort-kernel hot path).

    The oracle sort calls this O(N²) times per generation; hoisting the length
    validation (the vectors all come from one objective matrix) keeps the
    public :func:`dominates` contract without paying for it per pair.
    """
    strictly_better = False
    for a, b in zip(first, second):
        if a > b:
            return False
        if a < b:
            strictly_better = True
    return strictly_better


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """Pairwise domination of an ``(N, M)`` objective matrix as an ``(N, N)`` bool array.

    ``result[p, q]`` is True when row ``p`` Pareto-dominates row ``q``.  The
    comparison semantics (``inf`` rows, duplicate vectors) match
    :func:`dominates` exactly: equal rows dominate nothing, an all-``inf`` row
    is dominated by every finite row.
    """
    matrix = np.asarray(objectives, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("the objective matrix must be two-dimensional")
    # With no_worse[p, q] = all(p <= q), "p strictly beats q somewhere" is
    # exactly ~no_worse[q, p].
    no_worse = _no_worse(matrix, matrix)
    return no_worse & ~no_worse.T


def _no_worse(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``result[p, q]``: row ``p`` of ``first`` is ``<=`` row ``q`` of ``second``
    in every objective.

    Accumulated one objective column at a time into a single ``(P, Q)`` mask,
    which never materialises the ``(P, Q, M)`` comparison tensor; with no
    columns every pair is vacuously no worse.
    """
    result = np.ones((first.shape[0], second.shape[0]), dtype=bool)
    for column in range(first.shape[1]):
        result &= first[:, column, None] <= second[None, :, column]
    return result


def non_dominated_sort(objectives: Sequence[Sequence[float]]) -> List[List[int]]:
    """Fast non-dominated sort of Deb et al.

    ``objectives`` holds one vector per solution (all minimised): any
    sequence of sequences or an ``(N, M)`` array.  Returns the fronts, each a
    list of solution indices; the first front holds the non-dominated
    solutions.

    :func:`dominance_matrix` builds the full domination matrix, then fronts
    are peeled iteratively: the solutions whose remaining domination count
    reaches zero form the next front.  The emitted index order reproduces
    Deb's book-keeping exactly — the oracle appends a solution the moment its
    *last* dominator in the current front is processed, so each peeled front
    is ordered by
    ``(position of that last dominator within the current front, index)``.
    """
    matrix = np.asarray(objectives, dtype=float)
    count = matrix.shape[0]
    if count == 0:
        return []
    dominated = dominance_matrix(matrix)
    counts = dominated.sum(axis=0)
    current = np.flatnonzero(counts == 0)
    fronts: List[List[int]] = [current.tolist()]
    assigned = np.zeros(count, dtype=bool)
    while True:
        assigned[current] = True
        released = dominated[current].sum(axis=0)
        counts = counts - released
        candidates = np.flatnonzero(~assigned & (counts == 0))
        if candidates.size == 0:
            break
        blocks = dominated[np.ix_(current, candidates)]
        last_dominator = (len(current) - 1) - np.argmax(blocks[::-1], axis=0)
        order = np.lexsort((candidates, last_dominator))
        current = candidates[order]
        fronts.append(current.tolist())
    return fronts


def non_dominated_sort_python(
    objectives: Sequence[Sequence[float]],
) -> List[List[int]]:
    """Reference sort: Deb's book-keeping in plain Python, O(N²·M).

    Defines the front order :func:`non_dominated_sort` reproduces.
    """
    count = len(objectives)
    if count == 0:
        return []
    dominated_by: List[List[int]] = [[] for _ in range(count)]
    domination_counter = [0] * count
    fronts: List[List[int]] = [[]]

    for p in range(count):
        for q in range(count):
            if p == q:
                continue
            if _dominates_unchecked(objectives[p], objectives[q]):
                dominated_by[p].append(q)
            elif _dominates_unchecked(objectives[q], objectives[p]):
                domination_counter[p] += 1
        if domination_counter[p] == 0:
            fronts[0].append(p)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for p in fronts[current]:
            for q in dominated_by[p]:
                domination_counter[q] -= 1
                if domination_counter[q] == 0:
                    next_front.append(q)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the last front is always empty
    return fronts


def crowding_distance(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """Crowding distance of every solution of one front.

    Boundary solutions of each objective receive an infinite distance so they
    are always preferred; interior solutions receive the normalised size of
    the cuboid formed by their nearest neighbours.

    Per objective column: one stable ``argsort``, the neighbour gaps as a
    single ``values[2:] - values[:-2]`` slice difference, scattered back with
    one fancy-indexed add.  Objectives accumulate in column order with the
    same elementwise operations as :func:`crowding_distance_python`, so the
    distances match it to 0 ulp.
    """
    matrix = np.asarray(objectives, dtype=float)
    count = matrix.shape[0]
    if count == 0:
        return np.zeros(0)
    matrix = np.where(np.isfinite(matrix), matrix, _INF_CLAMP)
    distances = np.zeros(count)
    order = np.argsort(matrix, axis=0, kind="stable")
    for objective in range(matrix.shape[1]):
        column_order = order[:, objective]
        values = matrix[column_order, objective]
        distances[column_order[0]] = np.inf
        distances[column_order[-1]] = np.inf
        span = values[-1] - values[0]
        if span <= 0.0 or count < 3:
            continue
        distances[column_order[1:-1]] += (values[2:] - values[:-2]) / span
    return distances


def crowding_distance_python(objectives: Sequence[Sequence[float]]) -> np.ndarray:
    """Reference crowding distance: one neighbour gap at a time in plain Python.

    Defines the summation order :func:`crowding_distance` reproduces.
    """
    count = len(objectives)
    if count == 0:
        return np.zeros(0)
    matrix = np.asarray(objectives, dtype=float)
    # Invalid solutions carry infinite objectives; clamp them to a large finite
    # value so the sort and the neighbour differences stay well defined.
    matrix = np.where(np.isfinite(matrix), matrix, _INF_CLAMP)
    distances = np.zeros(count)
    objective_count = matrix.shape[1]
    for objective in range(objective_count):
        order = np.argsort(matrix[:, objective], kind="stable")
        values = matrix[order, objective]
        distances[order[0]] = float("inf")
        distances[order[-1]] = float("inf")
        span = values[-1] - values[0]
        if span <= 0.0 or count < 3:
            continue
        for position in range(1, count - 1):
            distances[order[position]] += (
                values[position + 1] - values[position - 1]
            ) / span
    return distances


@dataclass
class ParetoFront(Generic[T]):
    """A container of non-dominated items with their objective vectors.

    The container enforces non-domination on insertion: adding a dominated item
    is a no-op, adding a dominating item evicts the items it dominates.
    Duplicate objective vectors are kept only once.
    """

    items: List[T] = field(default_factory=list)
    objectives: List[Tuple[float, ...]] = field(default_factory=list)

    def add(self, item: T, objective: Sequence[float]) -> bool:
        """Try to insert an item; returns True when it joins the front."""
        candidate = tuple(float(value) for value in objective)
        survivors_items: List[T] = []
        survivors_objectives: List[Tuple[float, ...]] = []
        for existing_item, existing_objective in zip(self.items, self.objectives):
            if dominates(existing_objective, candidate):
                return False
            if existing_objective == candidate:
                return False
            if not dominates(candidate, existing_objective):
                survivors_items.append(existing_item)
                survivors_objectives.append(existing_objective)
        survivors_items.append(item)
        survivors_objectives.append(candidate)
        self.items = survivors_items
        self.objectives = survivors_objectives
        return True

    def extend(self, pairs: Iterable[Tuple[T, Sequence[float]]]) -> int:
        """Insert several ``(item, objective)`` pairs; returns how many joined."""
        return sum(1 for item, objective in pairs if self.add(item, objective))

    def extend_array(
        self, objectives_matrix: Sequence[Sequence[float]], items: Sequence[T]
    ) -> int:
        """Batched insertion: dominance against the front as whole-matrix masks.

        Equivalent to calling :meth:`add` for every ``(item, row)`` pair in
        order — the resulting front holds the same items in the same order —
        but the candidate-vs-front and candidate-vs-candidate comparisons run
        as whole-matrix masks instead of per-item rescans.  Because Pareto
        dominance is transitive, a candidate survives the sequential insertion
        exactly when no front member dominates or equals it, no other candidate
        dominates it, and no *earlier* candidate equals it; evicted front
        members are exactly those dominated by a surviving candidate.

        Returns the number of candidates that are part of the front afterwards
        (unlike :meth:`extend`, candidates that would only have joined
        transiently before a later candidate evicted them are not counted).
        """
        candidates = np.asarray(objectives_matrix, dtype=float)
        items = list(items)
        if candidates.size == 0 and not items:
            return 0
        if candidates.ndim != 2:
            raise ValueError("the candidate objective matrix must be two-dimensional")
        if candidates.shape[0] != len(items):
            raise ValueError(
                f"got {candidates.shape[0]} objective rows for {len(items)} items"
            )
        if self.objectives and candidates.shape[1] != len(self.objectives[0]):
            raise ValueError("objective vectors must have the same length")
        inserted = 0
        for start in range(0, len(items), _EXTEND_CHUNK):
            stop = start + _EXTEND_CHUNK
            inserted += self._extend_chunk(candidates[start:stop], items[start:stop])
        return inserted

    def _extend_chunk(self, candidates: np.ndarray, items: List[T]) -> int:
        count = len(items)
        rejected = np.zeros(count, dtype=bool)
        front_le = None
        if self.objectives:
            existing = np.asarray(self.objectives, dtype=float)
            # front_le[e, c]: front member e is no worse than candidate c in
            # every objective — i.e. e dominates *or equals* c, the exact
            # rejection condition of a sequential :meth:`add`.
            front_le = _no_worse(existing, candidates)
            rejected |= front_le.any(axis=0)
        # cand_le[p, q]: candidate p no worse than candidate q everywhere.
        # p dominates q iff cand_le[p, q] and not cand_le[q, p]; p equals q
        # iff both hold.
        cand_le = _no_worse(candidates, candidates)
        rejected |= (cand_le & ~cand_le.T).any(axis=0)  # dominated by another candidate
        equal = cand_le & cand_le.T
        rejected |= np.triu(equal, 1).any(axis=0)  # duplicate of an earlier candidate
        accepted = np.flatnonzero(~rejected)
        if accepted.size == 0:
            return 0
        if self.objectives:
            # Winner w dominates front member e iff e >= w everywhere
            # (front_ge) without e <= w everywhere (front_le).
            front_ge = _no_worse(candidates[accepted], existing).T
            evicted = (front_ge & ~front_le[:, accepted]).any(axis=1)
            if evicted.any():
                survivors = np.flatnonzero(~evicted)
                self.items = [self.items[index] for index in survivors]
                self.objectives = [self.objectives[index] for index in survivors]
        for index in accepted:
            self.items.append(items[index])
            self.objectives.append(tuple(float(value) for value in candidates[index]))
        return int(accepted.size)

    def sorted_by(self, objective_index: int) -> List[Tuple[T, Tuple[float, ...]]]:
        """Items and objectives sorted by one objective, ascending."""
        order = sorted(
            range(len(self.items)), key=lambda index: self.objectives[index][objective_index]
        )
        return [(self.items[index], self.objectives[index]) for index in order]

    def best_by(self, objective_index: int) -> Tuple[T, Tuple[float, ...]]:
        """The item minimising one objective."""
        if not self.items:
            raise ValueError("the Pareto front is empty")
        index = min(
            range(len(self.items)), key=lambda i: self.objectives[i][objective_index]
        )
        return self.items[index], self.objectives[index]

    def objective_array(self) -> np.ndarray:
        """Objectives as a ``(size, n_objectives)`` array."""
        if not self.objectives:
            return np.zeros((0, 0))
        return np.asarray(self.objectives, dtype=float)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Tuple[T, Tuple[float, ...]]]:
        return iter(zip(self.items, self.objectives))
