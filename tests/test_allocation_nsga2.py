"""Unit tests for the NSGA-II optimiser."""

from __future__ import annotations

import pytest

from repro.allocation import Chromosome, Nsga2Optimizer
from repro.allocation.pareto import dominates
from repro.config import GeneticParameters
from repro.errors import AllocationError


@pytest.fixture
def optimizer(evaluator, smoke_ga) -> Nsga2Optimizer:
    return Nsga2Optimizer(evaluator, smoke_ga)


class TestConfiguration:
    def test_default_objectives_are_all_three(self, evaluator, smoke_ga):
        optimizer = Nsga2Optimizer(evaluator, smoke_ga)
        assert optimizer.objective_keys == ("time", "ber", "energy")

    def test_objective_subset(self, evaluator, smoke_ga):
        optimizer = Nsga2Optimizer(evaluator, smoke_ga, objective_keys=("time", "energy"))
        assert optimizer.objective_keys == ("time", "energy")

    def test_unknown_objective_rejected(self, evaluator, smoke_ga):
        with pytest.raises(AllocationError):
            Nsga2Optimizer(evaluator, smoke_ga, objective_keys=("time", "area"))

    def test_empty_objectives_rejected(self, evaluator, smoke_ga):
        with pytest.raises(AllocationError):
            Nsga2Optimizer(evaluator, smoke_ga, objective_keys=())


class TestRun:
    def test_run_produces_valid_solutions_and_history(self, optimizer, smoke_ga):
        result = optimizer.run()
        assert result.valid_solution_count > 0
        assert len(result.final_population) == smoke_ga.population_size
        assert len(result.history) == smoke_ga.generations + 1
        assert result.evaluations > 0

    def test_front_members_are_valid_and_mutually_non_dominated(self, optimizer):
        result = optimizer.run()
        assert len(result.pareto_front) >= 1
        for solution, _ in result.pareto_front:
            assert solution.is_valid
        objectives = list(result.pareto_front.objectives)
        for first in objectives:
            for second in objectives:
                assert not dominates(first, second) or first == second

    def test_front_contains_the_single_wavelength_anchor(self, optimizer):
        # The seeded [1, 1, ..., 1] allocation must survive as the energy optimum.
        result = optimizer.run()
        best_energy = result.best_by("energy")
        assert best_energy.wavelength_counts == (1,) * 6

    def test_best_by_unknown_objective_raises(self, evaluator, smoke_ga):
        optimizer = Nsga2Optimizer(evaluator, smoke_ga, objective_keys=("time", "energy"))
        result = optimizer.run()
        with pytest.raises(AllocationError):
            result.best_by("ber")

    def test_reproducible_with_same_seed(self, evaluator):
        parameters = GeneticParameters.smoke_test(seed=99)
        first = Nsga2Optimizer(evaluator, parameters).run()
        second = Nsga2Optimizer(evaluator, parameters).run()
        assert first.valid_solution_count == second.valid_solution_count
        assert first.pareto_front.objectives == second.pareto_front.objectives

    def test_different_seeds_explore_differently(self, evaluator):
        first = Nsga2Optimizer(evaluator, GeneticParameters.smoke_test(seed=1)).run()
        second = Nsga2Optimizer(evaluator, GeneticParameters.smoke_test(seed=2)).run()
        assert (
            first.unique_valid_solutions.keys() != second.unique_valid_solutions.keys()
            or first.pareto_front.objectives != second.pareto_front.objectives
        )

    def test_history_front_size_is_non_decreasing(self, optimizer):
        result = optimizer.run()
        sizes = [record.front_size for record in result.history]
        assert all(later >= earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_more_generations_do_not_hurt_best_time(self, evaluator):
        short = Nsga2Optimizer(evaluator, GeneticParameters(population_size=16, generations=2, seed=5)).run()
        long = Nsga2Optimizer(evaluator, GeneticParameters(population_size=16, generations=20, seed=5)).run()
        assert (
            long.best_by("time").objectives.execution_time_kcycles
            <= short.best_by("time").objectives.execution_time_kcycles + 1e-9
        )

    def test_pareto_solutions_sorted_by_first_objective(self, optimizer):
        result = optimizer.run()
        times = [s.objectives.execution_time_kcycles for s in result.pareto_solutions]
        assert times == sorted(times)


class TestOperators:
    """The genetic operators on the population matrices the GA runs."""

    def test_crossover_preserves_shape_and_genes(self, evaluator):
        import numpy as np

        optimizer = Nsga2Optimizer(
            evaluator,
            GeneticParameters(
                population_size=16,
                generations=1,
                crossover_probability=1.0,
                mutation_probability=0.0,
            ),
        )
        population = optimizer._initial_population_matrix()
        objectives = evaluator.batch().evaluate_population(population).objective_matrix()
        winners = []
        tournament = optimizer._tournament

        def recording(rank, distance):
            winners.append(tournament(rank, distance))
            return winners[-1]

        optimizer._tournament = recording
        offspring = optimizer._make_offspring(population, objectives)
        assert offspring.shape == population.shape
        assert offspring.dtype == np.uint8
        # Without mutation each offspring pair is a two-point crossover of
        # its tournament winners: the gene multiset is conserved position by
        # position across the pair.
        changed = 0
        for pair in range(len(offspring) // 2):
            children = offspring[2 * pair : 2 * pair + 2]
            parents = population[winners[2 * pair : 2 * pair + 2]]
            assert np.array_equal(np.sort(children, axis=0), np.sort(parents, axis=0))
            changed += not np.array_equal(children, parents)
        assert changed > 0

    def test_mutation_changes_at_least_one_gene(self, optimizer, evaluator):
        import numpy as np

        genome = evaluator.communication_count * evaluator.wavelength_count
        # A probability this small almost never flips a gene on its own; the
        # forced single flip must kick in.
        for probability in (1e-9, 0.05):
            for _ in range(20):
                flips = optimizer._draw_flips(probability)
                assert flips.shape == (genome,)
                assert np.count_nonzero(flips) >= 1

    def test_zero_mutation_probability_is_identity(self, optimizer):
        flips = optimizer._draw_flips(0.0)
        assert flips.dtype == bool
        assert not flips.any()
