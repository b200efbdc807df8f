"""NSGA-II wavelength-allocation engine (Section III-D of the paper).

The optimiser follows Deb's NSGA-II (the paper's reference [4]) with the
operators the paper describes:

* a fixed-size population of binary chromosomes, randomly initialised,
* binary-tournament selection on (non-domination rank, crowding distance),
* two-point crossover exchanging the gene segment ``[x, y]`` of two parents,
* bit-flip mutation,
* elitist environmental selection: parents and offspring are merged, sorted
  into non-dominated fronts, and the next generation is filled front by front
  (ties broken by crowding distance).

Invalid chromosomes receive infinite fitness, exactly as in the paper, so they
are dominated by every valid solution but still recombine — which keeps the
search alive in tightly constrained instances (few wavelengths).

The engine is *vectorized*: the population lives as one ``(population,
genome)`` uint8 matrix, the genetic operators act on whole matrices, and
objective evaluation runs through the
:class:`~repro.allocation.batch.BatchEvaluator` with a byte-fingerprint memo
that skips chromosomes already evaluated earlier in the run.  Selection runs
on the vectorized kernels of :mod:`~repro.allocation.pareto`: the sort works
on the pool's distinct objective rows, and environmental selection asks it
for fronts only up to the survivor count (``limit``), since the fronts past
the cut never reach the next generation; ranking the population for the
tournaments still sorts every row.  This is the only production path; the
readable references live in the tests: ``tests/test_nsga2_vectorization.py``
and ``tests/test_selection_kernels.py`` rerun this optimiser with every
population scored row by row through the scalar
:class:`~repro.allocation.objectives.AllocationEvaluator`, with the
pure-Python sort/crowding oracles and with the per-pair operator loop, and
assert the same search trajectory.

The operators' random draws are replayed from raw PCG64 words: one block of
``bit_generator.random_raw`` words per generation is walked with numpy's own
double and bounded-integer algorithms (:class:`_RawDraws`), so the offspring
and the generator state equal those of a loop that calls the generator's
methods per tournament, crossover and mutation row.  That loop is the
``offspring_reference`` oracle in ``tests/conftest.py``;
``tests/test_offspring_draws.py`` checks the two agree.  The replay is
PCG64-only; the optimiser always builds its own ``default_rng`` (PCG64).

The optimiser also keeps the run-wide books the paper reports in Table II:
every *unique valid* chromosome ever evaluated, and the Pareto front across all
of them.  Both are kept as arrays: the valid rows stay row
subsets of the :class:`~repro.allocation.batch.BatchEvaluation` that scored
them, and the run-wide front holds row indices into those books.  Only the
final front and the final population become
:class:`~repro.allocation.objectives.AllocationSolution` objects when the run
ends; :attr:`Nsga2Result.unique_valid_solutions` builds any other solution
the first time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..config import GeneticParameters
from ..errors import AllocationError
from ..telemetry import MetricsRegistry, Stopwatch, get_registry, span, timed_span
from .batch import BatchEvaluation
from .chromosome import Chromosome
from .objectives import AllocationEvaluator, AllocationSolution, ObjectiveVector
from .pareto import ParetoFront, crowding_distance, non_dominated_sort

__all__ = ["GenerationRecord", "LazySolutionMap", "Nsga2Result", "Nsga2Optimizer"]

#: Registry series the run books are derived from (one registry per run).
EVALUATIONS_METRIC = "repro_engine_evaluations_total"
MEMO_HITS_METRIC = "repro_engine_memo_hits_total"
GENERATIONS_METRIC = "repro_engine_generations_total"
PHASE_METRIC = "repro_engine_phase_seconds"


@dataclass(frozen=True)
class GenerationRecord:
    """Summary statistics and telemetry of one generation."""

    generation: int
    valid_count: int
    best_time_kcycles: float
    best_energy_fj: float
    best_ber: float
    front_size: int
    #: Chromosomes actually evaluated this generation (memo misses).
    evaluations: int = 0
    #: Chromosomes served from the byte-fingerprint memo this generation.
    memo_hits: int = 0
    #: Wall-clock time of the generation (all phases), seconds.
    wall_clock_seconds: float = 0.0
    #: Time spent evaluating objectives (memo lookups + engine), seconds.
    evaluation_seconds: float = 0.0
    #: Time spent in selection (non-dominated sort, crowding, environmental
    #: selection and run-wide Pareto-front maintenance), seconds.
    selection_seconds: float = 0.0
    #: Time spent in the genetic operators (tournament draws, crossover,
    #: mutation on population matrices), seconds.
    operator_seconds: float = 0.0


class LazySolutionMap(Mapping[Tuple[int, ...], AllocationSolution]):
    """Read-only gene-tuple -> solution map over the rows of one batch evaluation.

    ``len()``, iteration and membership read the gene array only.  A value is
    materialised through :meth:`BatchEvaluation.solution` the first time it is
    read and cached, so every read of one row returns the same object.  The
    rows are the exact arrays the engine computed: nothing is re-evaluated.
    """

    def __init__(self, rows: BatchEvaluation) -> None:
        self._rows = rows
        self._solutions: Dict[int, AllocationSolution] = {}
        self._positions: Optional[Dict[Tuple[int, ...], int]] = None

    def solution(self, row: int) -> AllocationSolution:
        """The (cached) solution of one row; rows are in discovery order."""
        solution = self._solutions.get(row)
        if solution is None:
            solution = self._solutions[row] = self._rows.solution(row)
        return solution

    def _index(self) -> Dict[Tuple[int, ...], int]:
        if self._positions is None:
            flat = self._rows.genes.reshape(len(self._rows), -1).tolist()
            self._positions = {tuple(genes): row for row, genes in enumerate(flat)}
        return self._positions

    def __getitem__(self, key: Tuple[int, ...]) -> AllocationSolution:
        return self.solution(self._index()[key])

    def __contains__(self, key: object) -> bool:
        return key in self._index()

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self._index())

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class Nsga2Result:
    """Outcome of one NSGA-II run."""

    objective_keys: Tuple[str, ...]
    final_population: List[AllocationSolution]
    pareto_front: ParetoFront[AllocationSolution]
    #: Every distinct valid chromosome of the run, keyed by its genes, in
    #: discovery order (a :class:`LazySolutionMap`).
    unique_valid_solutions: Mapping[Tuple[int, ...], AllocationSolution]
    history: List[GenerationRecord] = field(default_factory=list)
    evaluations: int = 0
    memo_hits: int = 0
    wall_clock_seconds: float = 0.0
    #: Run totals of the per-generation phase split (see :class:`GenerationRecord`).
    evaluation_seconds: float = 0.0
    selection_seconds: float = 0.0
    operator_seconds: float = 0.0

    @property
    def valid_solution_count(self) -> int:
        """Number of distinct valid chromosomes discovered during the run."""
        return len(self.unique_valid_solutions)

    @property
    def evaluations_per_second(self) -> float:
        """Throughput of the run (memo misses over total wall clock)."""
        if self.wall_clock_seconds <= 0.0:
            return 0.0
        return self.evaluations / self.wall_clock_seconds

    @property
    def pareto_solutions(self) -> List[AllocationSolution]:
        """The non-dominated solutions, sorted by execution time."""
        return [
            item
            for item, _ in self.pareto_front.sorted_by(0)
        ]

    def best_by(self, key: str) -> AllocationSolution:
        """The Pareto solution minimising one objective (``"time"``, ``"ber"``, ``"energy"``)."""
        if key not in self.objective_keys:
            raise AllocationError(
                f"objective {key!r} was not part of this optimisation "
                f"(keys: {self.objective_keys})"
            )
        index = self.objective_keys.index(key)
        item, _ = self.pareto_front.best_by(index)
        return item


class _EvalRecord(NamedTuple):
    """Memoised outcome of one unique chromosome."""

    objectives: Tuple[float, ...]
    #: Row of the valid-solution books, ``-1`` for an invalid chromosome.
    book_row: int


_LOW32 = 0xFFFFFFFF
_TWO_32 = 1 << 32
_DOUBLE_SCALE = 2.0**-53


class _RawDraws:
    """A PCG64 generator's own draws, replayed from a block of its raw words.

    Walks the words with numpy's algorithms, so every value equals the one
    the generator's methods would return from the same state:

    * ``random()`` is ``(word >> 11) * 2**-53`` of one whole word;
    * 32-bit draws take the low half of a word and keep the high half for
      the next 32-bit draw (``has_uint32``/``uinteger``), across any doubles
      drawn in between;
    * ``integers(0, n)`` for ``n < 2**32`` is Lemire's method on those
      32-bit draws: it rejects while the low half of ``draw * n`` is below
      ``(2**32 - n) % n`` and draws nothing when ``n == 1``.

    ``below`` marks the words whose double is below ``probability``, with a
    prefix count so a run of doubles is tested for any hit in O(1).
    :meth:`commit` puts the generator where the replayed calls would have
    left it.  The words come from the generator itself; a walk past the
    block pulls more, so the block size only sets the cost.
    """

    def __init__(self, rng: np.random.Generator, words: int, probability: float) -> None:
        bit_generator = rng.bit_generator
        assert isinstance(bit_generator, np.random.PCG64), "the replay is PCG64-only"
        self._rng = rng
        self._entry = bit_generator.state
        self._has_uint32 = self._entry["has_uint32"]
        self._uinteger = self._entry["uinteger"]
        self._probability = probability
        self._words = np.empty(0, dtype=np.uint64)
        #: Words consumed so far.
        self.position = 0
        self._pull(words)

    def _pull(self, count: int) -> None:
        """Append the generator's next ``count`` raw words to the block."""
        fresh = self._rng.bit_generator.random_raw(count)  # repro-lint: allow R001 — replayed by _RawDraws, rewound in commit()
        self._words = np.concatenate([self._words, fresh])
        doubles = (self._words >> np.uint64(11)).astype(np.float64)
        doubles *= _DOUBLE_SCALE
        self.below = doubles < self._probability
        self._hits = np.zeros(len(self.below) + 1, dtype=np.int64)
        np.cumsum(self.below, out=self._hits[1:])

    def _reserve(self, count: int) -> None:
        missing = self.position + count - len(self._words)
        if missing > 0:
            self._pull(max(missing, len(self._words)))

    def _word(self) -> int:
        self._reserve(1)
        word = int(self._words[self.position])
        self.position += 1
        return word

    def double(self) -> float:
        """``rng.random()``."""
        return (self._word() >> 11) * _DOUBLE_SCALE

    def uint32(self) -> int:
        """One buffered 32-bit draw (PCG64's ``next_uint32``).

        Using the buffer clears ``has_uint32`` but leaves ``uinteger`` as it
        was, exactly as numpy does, so the committed state matches in full.
        """
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self._word()
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & _LOW32

    def bounded(self, n: int) -> int:
        """``int(rng.integers(0, n))`` for ``0 < n < 2**32``."""
        if n == 1:
            return 0
        threshold = (_TWO_32 - n) % n
        while True:
            scaled = self.uint32() * n
            if (scaled & _LOW32) >= threshold:
                return scaled >> 32

    def skip(self, count: int) -> int:
        """Consume ``count`` doubles (``rng.random(count)``); returns the first word."""
        self._reserve(count)
        start = self.position
        self.position += count
        return start

    def any_below(self, start: int, count: int) -> bool:
        """Whether any of the ``count`` doubles from word ``start`` is below ``probability``."""
        return bool(self._hits[start + count] > self._hits[start])

    def commit(self) -> None:
        """Leave the generator exactly where the replayed draws would have."""
        self._rng.bit_generator.state = self._entry  # repro-lint: allow R001 — rewinds the pulled block
        self._rng.bit_generator.advance(self.position)  # repro-lint: allow R001 — skips the consumed words
        state = self._rng.bit_generator.state
        state["has_uint32"] = self._has_uint32
        state["uinteger"] = self._uinteger
        self._rng.bit_generator.state = state  # repro-lint: allow R001 — restores the 32-bit buffer


class Nsga2Optimizer:
    """Multi-objective wavelength allocation with NSGA-II.

    Parameters
    ----------
    evaluator:
        The scalar reference evaluator describing the scenario; the optimiser
        derives its batch engine from it.
    parameters:
        Population size, generation count, operator probabilities and seed.
    objective_keys:
        Which objectives to optimise (subset of ``("time", "ber", "energy")``).
        The paper draws its Fig. 6a front on (time, energy) and its Fig. 6b /
        Fig. 7 fronts on (time, ber); the default optimises all three at once.
    """

    def __init__(
        self,
        evaluator: AllocationEvaluator,
        parameters: Optional[GeneticParameters] = None,
        objective_keys: Sequence[str] = ObjectiveVector.KEYS,
    ) -> None:
        self._evaluator = evaluator
        self._parameters = parameters or GeneticParameters()
        keys = tuple(objective_keys)
        if not keys:
            raise AllocationError("at least one objective key is required")
        for key in keys:
            if key not in ObjectiveVector.KEYS:
                raise AllocationError(f"unknown objective key {key!r}")
        self._objective_keys = keys
        self._batch = evaluator.batch()
        self._rng = np.random.default_rng(self._parameters.seed)
        self._memo: Dict[bytes, _EvalRecord] = {}
        #: Valid-solution books, shared with the memo across runs: row subsets
        #: of the evaluations that scored them; ``_book_size`` counts the rows.
        self._book_parts: List[BatchEvaluation] = []
        self._book_size = 0
        self._genome = evaluator.communication_count * evaluator.wavelength_count
        self._objective_columns = [ObjectiveVector.KEYS.index(key) for key in keys]
        #: Run-local metrics registry: evaluations, memo hits, and the
        #: per-phase timer histograms the result fields are derived from.
        #: A fresh one is installed at each :meth:`run` and merged into the
        #: process-wide registry when the run completes.
        self._metrics = MetricsRegistry()

    # ----------------------------------------------------------------- public
    @property
    def parameters(self) -> GeneticParameters:
        """The GA settings in use."""
        return self._parameters

    @property
    def objective_keys(self) -> Tuple[str, ...]:
        """The objectives being minimised."""
        return self._objective_keys

    @property
    def evaluator(self) -> AllocationEvaluator:
        """The scalar reference evaluator describing the scenario."""
        return self._evaluator

    @property
    def metrics(self) -> MetricsRegistry:
        """The run-local metrics registry (books of the most recent run)."""
        return self._metrics

    def _books(self) -> Tuple[float, float, float, float, float]:
        """Current registry readings backing the per-generation deltas."""
        registry = self._metrics
        return (
            registry.counter_value(EVALUATIONS_METRIC),
            registry.counter_value(MEMO_HITS_METRIC),
            registry.histogram_stats(PHASE_METRIC, phase="evaluation")["sum"],
            registry.histogram_stats(PHASE_METRIC, phase="selection")["sum"],
            registry.histogram_stats(PHASE_METRIC, phase="operator")["sum"],
        )

    def run(self) -> Nsga2Result:
        """Execute the configured number of generations and collect the results."""
        parameters = self._parameters
        self._metrics = MetricsRegistry()
        registry = self._metrics
        # Front items are rows of the valid-solution books until the last
        # generation materialises them.
        front: ParetoFront[int] = ParetoFront()
        history: List[GenerationRecord] = []
        book_start = self._book_size

        with span(
            "engine.run",
            population=parameters.population_size,
            generations=parameters.generations,
        ), Stopwatch() as run_watch:
            for generation in range(parameters.generations + 1):
                with span(
                    "engine.generation", generation=generation
                ), Stopwatch() as watch:
                    books = self._books()
                    if generation == 0:
                        population = self._initial_population_matrix()
                        objectives = self._evaluate_matrix(population, front)
                    else:
                        offspring = self._make_offspring(population, objectives)
                        offspring_objectives = self._evaluate_matrix(offspring, front)
                        combined = np.concatenate([population, offspring])
                        combined_objectives = np.concatenate(
                            [objectives, offspring_objectives]
                        )
                        selected = self._environmental_selection(combined_objectives)
                        population = combined[selected]
                        objectives = combined_objectives[selected]
                    if generation == parameters.generations:
                        pareto_front, final_population, unique_valid = (
                            self._materialize_books(front, population, book_start)
                        )
                registry.counter(GENERATIONS_METRIC).inc()
                history.append(
                    self._record(generation, objectives, front, watch.elapsed, books)
                )

        result = Nsga2Result(
            objective_keys=self._objective_keys,
            final_population=final_population,
            pareto_front=pareto_front,
            unique_valid_solutions=unique_valid,
            history=history,
            evaluations=int(registry.counter_value(EVALUATIONS_METRIC)),
            memo_hits=int(registry.counter_value(MEMO_HITS_METRIC)),
            wall_clock_seconds=run_watch.elapsed,
            evaluation_seconds=registry.histogram_stats(
                PHASE_METRIC, phase="evaluation"
            )["sum"],
            selection_seconds=registry.histogram_stats(
                PHASE_METRIC, phase="selection"
            )["sum"],
            operator_seconds=registry.histogram_stats(
                PHASE_METRIC, phase="operator"
            )["sum"],
        )
        # Fold the run books into the process-wide registry so studies,
        # workers, and `/metrics` see engine activity without extra wiring.
        get_registry().merge(registry.snapshot())
        return result

    # ------------------------------------------------------------ inner steps
    def _initial_population_matrix(self) -> np.ndarray:
        from . import heuristics  # local import to avoid a module cycle at package load

        rows: List[np.ndarray] = []
        nw = self._evaluator.wavelength_count
        # Seed the population with the uniform first-fit allocations (1, 2, ...
        # wavelengths per communication) when they exist; this guarantees the
        # paper's energy-optimal anchor [1, 1, ..., 1] is part of the search.
        for per_communication in range(1, min(nw, 3) + 1):
            try:
                seeded = heuristics.uniform_allocation(self._evaluator, per_communication)
            except AllocationError:
                continue
            if seeded.is_valid:
                rows.append(seeded.chromosome.as_array().reshape(-1))
        while len(rows) < self._parameters.population_size:
            # Mix sparse and dense random individuals so both extremes of the
            # time/energy trade-off are represented from the start.
            density = self._rng.uniform(0.5 / nw, 0.8)
            rows.append(
                (self._rng.random(self._genome) < density).astype(np.uint8)
            )
        matrix = np.stack(rows[: self._parameters.population_size])
        return np.ascontiguousarray(matrix, dtype=np.uint8)

    def _evaluate_matrix(
        self, matrix: np.ndarray, front: ParetoFront[int]
    ) -> np.ndarray:
        """Evaluate a population matrix with memoisation and book-keeping.

        Returns the full three-objective matrix (``inf`` rows for invalid
        chromosomes).  Newly discovered valid chromosomes join the run-wide
        books and their book rows the run-wide Pareto front, in one batched
        :meth:`~repro.allocation.pareto.ParetoFront.extend_array` call.
        """
        registry = self._metrics
        with timed_span(
            "engine.evaluation",
            metric=PHASE_METRIC,
            registry=registry,
            phase="evaluation",
        ):
            with span("engine.evaluation.memo"):
                keys = [row.tobytes() for row in matrix]
                fresh: Dict[bytes, int] = {}
                hits = 0
                for index, key in enumerate(keys):
                    if key in self._memo or key in fresh:
                        hits += 1
                    else:
                        fresh[key] = index
            if hits:
                registry.counter(MEMO_HITS_METRIC).inc(hits)

            new_objectives: Sequence[Sequence[float]] = []
            new_rows: List[int] = []
            if fresh:
                registry.counter(EVALUATIONS_METRIC).inc(len(fresh))
                rows = matrix[list(fresh.values())]
                new_objectives, new_rows = self._evaluate_batch(list(fresh), rows)

            with span("engine.evaluation.memo"):
                objectives = np.array(
                    [self._memo[key].objectives for key in keys], dtype=float
                ).reshape(len(keys), 3)

        if new_rows:
            with timed_span(
                "engine.selection",
                metric=PHASE_METRIC,
                registry=registry,
                phase="selection",
            ), span("engine.selection.front"):
                front.extend_array(new_objectives, new_rows)
        return objectives

    def _evaluate_batch(
        self, keys: List[bytes], rows: np.ndarray
    ) -> Tuple[np.ndarray, List[int]]:
        """Score fresh rows in one batch; book the valid ones as an array subset.

        Returns the optimised-key objective rows and book rows of the newly
        valid chromosomes.
        """
        with span("engine.evaluation.kernel", rows=len(keys)):
            evaluation = self._batch.evaluate_population(rows)
        with span("engine.evaluation.books"):
            valid = np.flatnonzero(evaluation.valid)
            book_rows = np.full(len(keys), -1)
            book_rows[valid] = np.arange(self._book_size, self._book_size + valid.size)
            self._book_parts.append(evaluation.take(valid))
            self._book_size += int(valid.size)
            for key, objective, row in zip(
                keys, evaluation.objective_matrix().tolist(), book_rows.tolist()
            ):
                self._memo[key] = _EvalRecord(tuple(objective), row)
            keyed = evaluation.objective_matrix(self._objective_keys)[valid]
        return keyed, book_rows[valid].tolist()

    def _materialize_books(
        self, front: ParetoFront[int], population: np.ndarray, book_start: int
    ) -> Tuple[
        ParetoFront[AllocationSolution],
        List[AllocationSolution],
        LazySolutionMap,
    ]:
        """Solutions of the final front and population, and the run's valid books.

        Runs inside the evaluation phase of the last generation.  Only the
        front and the population are materialised here;
        ``unique_valid_solutions`` builds any other row when it is first read.
        """
        with timed_span(
            "engine.evaluation",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="evaluation",
        ), span("engine.evaluation.books"):
            book = BatchEvaluation.concatenate(self._book_parts)
            self._book_parts = [book]
            if book_start:
                book_rows = book.take(np.arange(book_start, len(book)))
            else:
                book_rows = book
            unique_valid = LazySolutionMap(book_rows)

            def solution_at(row: int) -> AllocationSolution:
                # Rows booked by an earlier run() of this optimiser are
                # outside this run's map.
                if row >= book_start:
                    return unique_valid.solution(row - book_start)
                return book.solution(row)

            pareto_front: ParetoFront[AllocationSolution] = ParetoFront(
                items=[solution_at(row) for row in front.items],
                objectives=list(front.objectives),
            )
            final_population = [
                self._materialize(row, solution_at) for row in population
            ]
        return pareto_front, final_population, unique_valid

    def _materialize(
        self, row: np.ndarray, solution_at: Callable[[int], AllocationSolution]
    ) -> AllocationSolution:
        """Full :class:`AllocationSolution` of one (already evaluated) row."""
        record = self._memo[row.tobytes()]
        if record.book_row >= 0:
            return solution_at(record.book_row)
        chromosome = Chromosome.from_numpy(
            row, self._evaluator.communication_count, self._evaluator.wavelength_count
        )
        return AllocationSolution(
            chromosome=chromosome,
            objectives=ObjectiveVector.infinite(),
            validity=self._evaluator.check_validity(chromosome),
            wavelength_counts=chromosome.wavelength_counts(),
        )

    def _keyed(self, objectives: np.ndarray) -> np.ndarray:
        """Objective rows projected onto the optimised keys, as one matrix.

        The selection path stays in arrays end to end: the projection is a
        contiguous ``(pool, n_keys)`` view the sort/crowding kernels consume
        directly (no per-row tuple round-trips).
        """
        return np.ascontiguousarray(objectives[:, self._objective_columns])

    def _sort(
        self, keyed: np.ndarray, limit: Optional[int] = None
    ) -> List[List[int]]:
        """Non-dominated fronts of ``keyed``, up to ``limit`` rows when given.

        The ``engine.selection.sort`` span records the distinct rows the sort
        ran on and the fronts it peeled.
        """
        with span("engine.selection.sort", rows=len(keyed)) as handle:
            fronts = non_dominated_sort(keyed, limit=limit)
            if handle is not None:
                handle.attrs.update(distinct=fronts.distinct, fronts=len(fronts))
        return fronts

    def _rank_and_distance(
        self, objectives: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        with timed_span(
            "engine.selection",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="selection",
        ):
            keyed = self._keyed(objectives)
            fronts = self._sort(keyed)
            rank = np.zeros(len(keyed), dtype=int)
            distance = np.zeros(len(keyed))
            with span("engine.selection.crowding", fronts=len(fronts)):
                for front_position, front_indices in enumerate(fronts):
                    indices = np.asarray(front_indices, dtype=int)
                    rank[indices] = front_position
                    distance[indices] = crowding_distance(keyed[indices])
        return rank, distance

    def _environmental_selection(self, objectives: np.ndarray) -> np.ndarray:
        """Indices of the survivors among the merged parent+offspring pool."""
        with timed_span(
            "engine.selection",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="selection",
        ):
            target = self._parameters.population_size
            keyed = self._keyed(objectives)
            fronts = self._sort(keyed, limit=target)
            selected: List[int] = []
            for front_indices in fronts:
                if len(selected) + len(front_indices) <= target:
                    selected.extend(front_indices)
                    continue
                remaining = target - len(selected)
                if remaining <= 0:
                    break
                with span("engine.selection.crowding", fronts=1):
                    distances = crowding_distance(
                        keyed[np.asarray(front_indices, dtype=int)]
                    )
                order = np.argsort(-distances, kind="stable")
                selected.extend(
                    front_indices[position] for position in order[:remaining]
                )
                break
        return np.asarray(selected, dtype=int)

    def _make_offspring(
        self, population: np.ndarray, objectives: np.ndarray
    ) -> np.ndarray:
        """One generation of offspring on population matrices.

        Each pair draws, in this order: two tournaments of
        ``tournament_size`` contenders, a crossover decision and, if it
        fires, two segment bounds; then each child draws ``genome`` doubles
        for its mutation row and one forced flip position when none fired.
        Every value equals the generator method's own (the per-pair loop
        ``offspring_reference`` in the tests), so a fixed seed reproduces
        the same populations.  :class:`_RawDraws` replays them from one
        block of raw words; the walk below reads only the tournament,
        crossover and forced-flip draws, and the gene work runs on whole
        matrices.
        """
        rank, distance = self._rank_and_distance(objectives)
        with timed_span(
            "engine.operator",
            metric=PHASE_METRIC,
            registry=self._metrics,
            phase="operator",
        ):
            parameters = self._parameters
            target = parameters.population_size
            pair_count = (target + 1) // 2
            size = parameters.tournament_size
            genome = self._genome
            probability = parameters.mutation_probability
            mutating = probability > 0.0
            pool = len(rank)
            with span("engine.operator.draws"):
                # Words one generation needs unless a bounded draw rejects.
                words = pair_count * (size + 3 + (2 * genome if mutating else 0)) + 1
                draws = _RawDraws(self._rng, words, probability)
                contenders: List[int] = []
                swap_bounds = np.zeros((pair_count, 2), dtype=int)
                starts: List[int] = []
                forced_rows: List[int] = []
                forced_genes: List[int] = []
                for pair in range(pair_count):
                    contenders.extend(draws.bounded(pool) for _ in range(2 * size))
                    if draws.double() < parameters.crossover_probability:
                        first = draws.bounded(genome)
                        swap_bounds[pair] = sorted((first, draws.bounded(genome)))
                    if not mutating:
                        continue
                    for row in range(2 * pair, min(2 * pair + 2, target)):
                        start = draws.skip(genome)
                        starts.append(start)
                        if not draws.any_below(start, genome):
                            # The paper's mutation always inverts one point.
                            forced_rows.append(row)
                            forced_genes.append(draws.bounded(genome))
                draws.commit()

            with span("engine.operator.genes"):
                drawn = np.array(contenders).reshape(2 * pair_count, size)
                winners = drawn[:, 0]
                for column in range(1, size):
                    challenger = drawn[:, column]
                    better = (rank[challenger] < rank[winners]) | (
                        (rank[challenger] == rank[winners])
                        & (distance[challenger] > distance[winners])
                    )
                    winners = np.where(better, challenger, winners)
                parents_a = population[winners[0::2]]
                parents_b = population[winners[1::2]]
                positions = np.arange(genome)[None, :]
                swap = (positions >= swap_bounds[:, 0:1]) & (
                    positions < swap_bounds[:, 1:2]
                )
                offspring = np.empty((2 * pair_count, genome), dtype=np.uint8)
                offspring[0::2] = np.where(swap, parents_b, parents_a)
                offspring[1::2] = np.where(swap, parents_a, parents_b)
                offspring = offspring[:target]
                if mutating:
                    flips = draws.below[np.add.outer(starts, np.arange(genome))]
                    flips[forced_rows, forced_genes] = True
                    offspring = np.where(flips, 1 - offspring, offspring).astype(
                        np.uint8
                    )
        return np.ascontiguousarray(offspring)

    def _record(
        self,
        generation: int,
        objectives: np.ndarray,
        front: ParetoFront[int],
        wall_clock_seconds: float,
        books_before: Tuple[float, float, float, float, float],
    ) -> GenerationRecord:
        valid = np.isfinite(objectives).all(axis=1)
        if valid.any():
            best_time = float(objectives[valid, 0].min())
            best_ber = float(objectives[valid, 1].min())
            best_energy = float(objectives[valid, 2].min())
        else:
            best_time = best_energy = best_ber = float("inf")
        evaluations, memo_hits, eval_s, sel_s, op_s = self._books()
        return GenerationRecord(
            generation=generation,
            valid_count=int(np.count_nonzero(valid)),
            best_time_kcycles=best_time,
            best_energy_fj=best_energy,
            best_ber=best_ber,
            front_size=len(front),
            evaluations=int(evaluations - books_before[0]),
            memo_hits=int(memo_hits - books_before[1]),
            wall_clock_seconds=wall_clock_seconds,
            evaluation_seconds=eval_s - books_before[2],
            selection_seconds=sel_s - books_before[3],
            operator_seconds=op_s - books_before[4],
        )
