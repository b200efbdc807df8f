"""Shared fixtures for the test-suite.

The fixtures centralise the objects almost every test needs — the paper's 4x4
architecture, task graph and mapping — so individual tests stay short and the
expensive constructions are reused where safe (the architecture is function
scoped because ONIs carry mutable receiver state).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.allocation import (
    AllocationEvaluator,
    BatchEvaluation,
    BatchEvaluator,
    Chromosome,
    WavelengthAllocator,
    crowding_distance_python,
    non_dominated_sort_python,
)
from repro.allocation import nsga2

# The fixtures used inside @given blocks are immutable parameter bundles or
# freshly derived models, so not resetting them between generated examples is
# safe; the deadline is disabled because a few property tests evaluate the full
# objective chain, whose first call pays a pre-computation cost.
settings.register_profile(
    "repro",
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
)
settings.load_profile("repro")
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters, OnocConfiguration
from repro.topology import RingOnocArchitecture


@pytest.fixture
def configuration() -> OnocConfiguration:
    """The default configuration (paper parameter values, fast GA sizing)."""
    return OnocConfiguration()


@pytest.fixture
def architecture(configuration: OnocConfiguration) -> RingOnocArchitecture:
    """The paper's 4x4 ring architecture with 8 wavelengths."""
    return RingOnocArchitecture.grid(4, 4, wavelength_count=8, configuration=configuration)


@pytest.fixture
def small_architecture(configuration: OnocConfiguration) -> RingOnocArchitecture:
    """A 2x2 ring with 4 wavelengths for exhaustive/enumeration tests."""
    return RingOnocArchitecture.grid(2, 2, wavelength_count=4, configuration=configuration)


@pytest.fixture
def task_graph():
    """The paper's virtual application (Fig. 5)."""
    return paper_task_graph()


@pytest.fixture
def mapping(architecture):
    """The paper's task placement on the 16-core ring."""
    return paper_mapping(architecture)


@pytest.fixture
def evaluator(architecture, task_graph, mapping) -> AllocationEvaluator:
    """An allocation evaluator for the paper setup with 8 wavelengths."""
    return AllocationEvaluator(architecture, task_graph, mapping)


@pytest.fixture
def allocator(architecture, task_graph, mapping) -> WavelengthAllocator:
    """A wavelength allocator for the paper setup with 8 wavelengths."""
    return WavelengthAllocator(architecture, task_graph, mapping)


@pytest.fixture
def smoke_ga() -> GeneticParameters:
    """A tiny GA sizing for tests that run the optimiser."""
    return GeneticParameters.smoke_test()


def _evaluate_row_by_row(batch: BatchEvaluator, genes: np.ndarray) -> BatchEvaluation:
    """``BatchEvaluator.evaluate_population`` rebuilt from the scalar evaluator.

    Every row goes through :meth:`AllocationEvaluator.evaluate` on its own;
    the solutions are stacked into the :class:`BatchEvaluation` the optimiser
    books (invalid rows carry zero per-communication diagnostics).
    """
    nl, nw = batch.communication_count, batch.wavelength_count
    tensor = np.asarray(genes, dtype=np.uint8).reshape(-1, nl, nw)
    solutions = [
        batch.scalar.evaluate(Chromosome.from_numpy(row, nl, nw)) for row in tensor
    ]
    count = len(solutions)

    def objective(name: str) -> np.ndarray:
        return np.array([getattr(s.objectives, name) for s in solutions], dtype=float)

    def per_communication(name: str) -> np.ndarray:
        rows = [getattr(s, name) if s.is_valid else (0.0,) * nl for s in solutions]
        return np.array(rows, dtype=float).reshape(count, nl)

    return BatchEvaluation(
        genes=tensor,
        wavelength_counts=np.array(
            [s.wavelength_counts for s in solutions], dtype=np.int64
        ).reshape(count, nl),
        valid=np.array([s.is_valid for s in solutions], dtype=bool),
        execution_time_kcycles=objective("execution_time_kcycles"),
        mean_bit_error_rate=objective("mean_bit_error_rate"),
        bit_energy_fj=objective("bit_energy_fj"),
        per_communication_ber=per_communication("per_communication_ber"),
        per_communication_energy_fj=per_communication("per_communication_energy_fj"),
        per_communication_duration_kcycles=per_communication(
            "per_communication_duration_kcycles"
        ),
        evaluator=batch,
    )


def _tournament(
    rng: np.random.Generator, rank: np.ndarray, distance: np.ndarray, size: int
) -> int:
    """Binary (or larger) tournament on (rank, crowding distance)."""
    contenders = rng.integers(0, len(rank), size=size)
    best = int(contenders[0])
    for contender in contenders[1:]:
        contender = int(contender)
        if rank[contender] < rank[best]:
            best = contender
        elif rank[contender] == rank[best] and distance[contender] > distance[best]:
            best = contender
    return best


def _draw_flips(rng: np.random.Generator, genome: int, probability: float) -> np.ndarray:
    """Mutation mask of one offspring row (always at least one flip)."""
    if probability <= 0.0:
        return np.zeros(genome, dtype=bool)
    flips = rng.random(genome) < probability
    if not flips.any():
        # The paper's mutation always inverts one randomly chosen point.
        flips[rng.integers(0, genome)] = True
    return flips


def _reference_offspring(
    optimizer: nsga2.Nsga2Optimizer, population: np.ndarray, objectives: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``Nsga2Optimizer._make_offspring`` as a per-pair draw loop.

    Each pair draws two tournaments, a crossover decision and, if it fires,
    ``sorted(integers(0, genome, size=2))`` segment bounds; then each child
    draws its mutation row.  Every draw goes through the optimiser's own
    generator methods.  Returns the offspring and the tournament winners.
    """
    parameters = optimizer.parameters
    rng = optimizer._rng
    genome = optimizer._genome
    rank, distance = optimizer._rank_and_distance(objectives)
    target = parameters.population_size
    pair_count = (target + 1) // 2
    winners = np.empty(2 * pair_count, dtype=int)
    swap_bounds = np.zeros((pair_count, 2), dtype=int)
    flip_rows: List[np.ndarray] = []
    probability = parameters.mutation_probability

    produced = 0
    for pair in range(pair_count):
        winners[2 * pair] = _tournament(rng, rank, distance, parameters.tournament_size)
        winners[2 * pair + 1] = _tournament(
            rng, rank, distance, parameters.tournament_size
        )
        if rng.random() < parameters.crossover_probability:
            lower, upper = sorted(rng.integers(0, genome, size=2))
            swap_bounds[pair] = (lower, upper)
        for _ in range(min(2, target - produced)):
            flip_rows.append(_draw_flips(rng, genome, probability))
            produced += 1

    parents_a = population[winners[0::2]]
    parents_b = population[winners[1::2]]
    positions = np.arange(genome)[None, :]
    swap = (positions >= swap_bounds[:, 0:1]) & (positions < swap_bounds[:, 1:2])
    offspring = np.empty((2 * pair_count, genome), dtype=np.uint8)
    offspring[0::2] = np.where(swap, parents_b, parents_a)
    offspring[1::2] = np.where(swap, parents_a, parents_b)
    offspring = offspring[:target]
    if flip_rows and probability > 0.0:
        flips = np.stack(flip_rows)
        offspring = np.where(flips, 1 - offspring, offspring).astype(np.uint8)
    return np.ascontiguousarray(offspring), winners


@pytest.fixture
def offspring_reference():
    """The per-pair offspring draw loop ``_make_offspring`` replays.

    ``offspring_reference(optimizer, population, objectives)`` returns
    ``(offspring, winners)`` and leaves the optimiser's generator where the
    loop's own calls left it.
    """
    return _reference_offspring


@contextmanager
def _scalar_reference() -> Iterator[None]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchEvaluator, "evaluate_population", _evaluate_row_by_row)
        patch.setattr(nsga2, "non_dominated_sort", non_dominated_sort_python)
        patch.setattr(nsga2, "crowding_distance", crowding_distance_python)
        patch.setattr(
            nsga2.Nsga2Optimizer,
            "_make_offspring",
            lambda optimizer, population, objectives: _reference_offspring(
                optimizer, population, objectives
            )[0],
        )
        yield


@pytest.fixture
def scalar_reference():
    """Context manager turning :class:`Nsga2Optimizer` into the scalar GA reference.

    Inside ``with scalar_reference():`` the optimiser scores every population
    row by row through the scalar :class:`AllocationEvaluator`, selects with
    the pure-Python sort and crowding oracles, and draws its offspring pair
    by pair through the generator's methods (``offspring_reference``).
    Memo and books stay the production code, so a reference run must walk
    the same search trajectory as a production run with the same seed.
    """
    return _scalar_reference
