"""Determinism of the vectorized NSGA-II and its evaluation telemetry.

The golden check of the vectorization refactor: with a fixed seed, the batch
engine must walk exactly the same populations as the scalar reference engine
(the two share one operator implementation and one random stream — only the
objective arithmetic differs, at floating-point summation-order level), and
repeated runs must be bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation import (
    AllocationEvaluator,
    BatchEvaluation,
    BatchEvaluator,
    Nsga2Optimizer,
)
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters
from repro.errors import AllocationError
from repro.scenarios import Scenario, Study, execute_scenario
from repro.topology import RingOnocArchitecture


@pytest.fixture
def paper_evaluator() -> AllocationEvaluator:
    architecture = RingOnocArchitecture.grid(4, 4, wavelength_count=8)
    return AllocationEvaluator(
        architecture, paper_task_graph(), paper_mapping(architecture)
    )


class TestGoldenDeterminism:
    def test_batch_engine_is_deterministic(self, paper_evaluator):
        parameters = GeneticParameters.smoke_test(seed=42)
        first = Nsga2Optimizer(paper_evaluator, parameters).run()
        second = Nsga2Optimizer(paper_evaluator, parameters).run()
        assert first.pareto_front.objectives == second.pareto_front.objectives
        assert first.unique_valid_solutions.keys() == second.unique_valid_solutions.keys()
        assert [s.chromosome.genes for s in first.final_population] == [
            s.chromosome.genes for s in second.final_population
        ]

    def test_batch_front_matches_scalar_reference_run(self, paper_evaluator):
        """Same seed, before/after vectorization: identical fronts.

        The scalar engine reproduces the historical chromosome-at-a-time
        evaluation path; the batch engine must discover exactly the same
        chromosome sets, with objectives equal to tight tolerance.
        """
        parameters = GeneticParameters.smoke_test(seed=42)
        batch = Nsga2Optimizer(paper_evaluator, parameters, engine="batch").run()
        scalar = Nsga2Optimizer(paper_evaluator, parameters, engine="scalar").run()

        assert batch.engine == "batch" and scalar.engine == "scalar"
        # Identical search trajectory: same unique valid chromosomes, same
        # final population, same Pareto-front membership.
        assert batch.unique_valid_solutions.keys() == scalar.unique_valid_solutions.keys()
        assert [s.chromosome.genes for s in batch.final_population] == [
            s.chromosome.genes for s in scalar.final_population
        ]
        batch_front = sorted(s.chromosome.genes for s in batch.pareto_solutions)
        scalar_front = sorted(s.chromosome.genes for s in scalar.pareto_solutions)
        assert batch_front == scalar_front
        # Identical telemetry (the memo sees the same duplicate stream).
        assert batch.evaluations == scalar.evaluations
        assert batch.memo_hits == scalar.memo_hits
        # Objective values agree to floating-point summation-order tolerance.
        assert np.allclose(
            np.array(sorted(batch.pareto_front.objectives)),
            np.array(sorted(scalar.pareto_front.objectives)),
            rtol=1e-9,
        )

    def test_unknown_engine_rejected(self, paper_evaluator):
        with pytest.raises(AllocationError):
            Nsga2Optimizer(paper_evaluator, engine="quantum")


class TestArrayBooks:
    """The batch engine books valid rows as arrays and materialises on demand."""

    @pytest.fixture
    def counted_solution(self, monkeypatch):
        """Count :meth:`BatchEvaluation.solution` calls (``calls[0]``)."""
        calls = [0]
        original = BatchEvaluation.solution

        def counting(evaluation, index):
            calls[0] += 1
            return original(evaluation, index)

        monkeypatch.setattr(BatchEvaluation, "solution", counting)
        return calls

    def test_run_materialises_only_front_and_population(
        self, paper_evaluator, counted_solution
    ):
        parameters = GeneticParameters.smoke_test(seed=42)
        result = Nsga2Optimizer(paper_evaluator, parameters).run()
        during_run = counted_solution[0]
        assert 0 < during_run <= len(result.pareto_front) + parameters.population_size
        assert during_run < result.valid_solution_count
        # Values are built on first read, once each.
        values = list(result.unique_valid_solutions.values())
        assert len(values) == result.valid_solution_count
        assert counted_solution[0] <= during_run + len(values)
        assert list(result.unique_valid_solutions.values()) == values
        assert all(
            again is first
            for again, first in zip(result.unique_valid_solutions.values(), values)
        )

    def test_front_solutions_carry_their_front_rows_exactly(self, paper_evaluator):
        keys = ("time", "energy")
        result = Nsga2Optimizer(
            paper_evaluator, GeneticParameters.smoke_test(seed=42), objective_keys=keys
        ).run()
        assert len(result.pareto_front) > 0
        for solution, objective in result.pareto_front:
            assert solution.objective_tuple(keys) == objective
            # Front members are the very objects the run-wide map serves.
            assert result.unique_valid_solutions[solution.chromosome.genes] is solution

    def test_books_match_the_scalar_engine(self, paper_evaluator):
        parameters = GeneticParameters.smoke_test(seed=42)
        batch = Nsga2Optimizer(paper_evaluator, parameters, engine="batch").run()
        scalar = Nsga2Optimizer(paper_evaluator, parameters, engine="scalar").run()
        assert len(batch.unique_valid_solutions) == len(scalar.unique_valid_solutions)
        assert list(batch.unique_valid_solutions) == list(scalar.unique_valid_solutions)
        for key, solution in batch.unique_valid_solutions.items():
            reference = scalar.unique_valid_solutions[key]
            assert solution.chromosome == reference.chromosome
            assert solution.wavelength_counts == reference.wavelength_counts
            assert np.allclose(
                solution.objectives.as_tuple(),
                reference.objectives.as_tuple(),
                rtol=1e-9,
            )

    def test_reading_values_after_run_evaluates_nothing(
        self, paper_evaluator, monkeypatch
    ):
        result = Nsga2Optimizer(
            paper_evaluator, GeneticParameters.smoke_test(seed=42)
        ).run()

        def forbidden(*args, **kwargs):
            raise AssertionError("materialising a booked row re-evaluated it")

        monkeypatch.setattr(BatchEvaluator, "evaluate_population", forbidden)
        monkeypatch.setattr(AllocationEvaluator, "evaluate", forbidden)
        monkeypatch.setattr(AllocationEvaluator, "check_validity", forbidden)
        books = result.unique_valid_solutions
        for key, solution in books.items():
            assert solution.chromosome.genes == key
            assert solution.is_valid
        assert next(iter(books)) in books and (0,) not in books
        with pytest.raises(KeyError):
            books[(0,)]
        with pytest.raises(TypeError):
            books[next(iter(books))] = None  # read-only

    def test_second_run_books_only_its_own_discoveries(self, paper_evaluator):
        """The memo spans runs of one optimiser; each run's books do not."""
        parameters = GeneticParameters(population_size=12, generations=3, seed=4)
        runs = {}
        for engine in ("batch", "scalar"):
            optimizer = Nsga2Optimizer(paper_evaluator, parameters, engine=engine)
            runs[engine] = (optimizer.run(), optimizer.run())
        (batch_first, batch_second), (scalar_first, scalar_second) = (
            runs["batch"],
            runs["scalar"],
        )
        assert not set(batch_first.unique_valid_solutions) & set(
            batch_second.unique_valid_solutions
        )
        assert list(batch_second.unique_valid_solutions) == list(
            scalar_second.unique_valid_solutions
        )
        assert [s.chromosome for s in batch_second.final_population] == [
            s.chromosome for s in scalar_second.final_population
        ]
        assert [s.is_valid for s in batch_second.final_population] == [
            s.is_valid for s in scalar_second.final_population
        ]


class TestTelemetry:
    def test_generation_records_carry_telemetry(self, paper_evaluator):
        parameters = GeneticParameters.smoke_test(seed=7)
        result = Nsga2Optimizer(paper_evaluator, parameters).run()
        assert len(result.history) == parameters.generations + 1
        # Per-generation counters sum up to the run totals.
        assert sum(record.evaluations for record in result.history) == result.evaluations
        assert sum(record.memo_hits for record in result.history) == result.memo_hits
        assert all(record.wall_clock_seconds >= 0.0 for record in result.history)
        # The initial population is evaluated in generation zero.
        assert result.history[0].evaluations > 0
        assert result.wall_clock_seconds > 0.0
        assert result.evaluations_per_second > 0.0

    def test_memo_skips_duplicate_offspring(self):
        from repro.application import Mapping, pipeline_task_graph

        # A 4-gene instance: a 12-generation run must revisit chromosomes.
        architecture = RingOnocArchitecture.grid(2, 2, wavelength_count=2)
        evaluator = AllocationEvaluator(
            architecture,
            pipeline_task_graph(stage_count=3),
            Mapping.from_dict({"S0": 0, "S1": 1, "S2": 3}),
        )
        result = Nsga2Optimizer(
            evaluator, GeneticParameters(population_size=16, generations=12, seed=3)
        ).run()
        assert result.memo_hits > 0
        assert result.evaluations <= 16  # the whole space is 2^4 chromosomes
        total = result.evaluations + result.memo_hits
        assert total == 16 * 13  # population + one offspring batch per generation


class TestStudySurface:
    @pytest.fixture
    def tiny_scenario(self) -> Scenario:
        return (
            Scenario.builder()
            .named("telemetry")
            .grid(4, 4)
            .wavelengths(4)
            .genetic(population_size=8, generations=3)
            .seed(11)
            .build()
        )

    def test_summary_and_csv_carry_evaluations(self, tiny_scenario, tmp_path):
        study = Study([tiny_scenario])
        result = study.run()
        summary = result.results[0]
        assert summary.evaluations > 0
        assert summary.memo_hits >= 0
        assert summary.evaluations_per_second >= 0.0
        row = summary.summary_row()
        assert row["evaluations"] == summary.evaluations
        assert row["memo_hits"] == summary.memo_hits
        csv_path = result.to_csv(tmp_path / "study.csv")
        header = csv_path.read_text().splitlines()[0]
        assert "evaluations" in header and "memo_hits" in header
        assert "evaluations" in result.report()

    def test_summary_round_trips_telemetry(self, tiny_scenario):
        summary = execute_scenario(tiny_scenario).summary()
        rebuilt = type(summary).from_dict(summary.to_dict())
        assert rebuilt.evaluations == summary.evaluations
        assert rebuilt.memo_hits == summary.memo_hits

    def test_exhaustive_batch_size_knob(self):
        scenario = (
            Scenario.builder()
            .named("exhaustive-batched")
            .grid(2, 2)
            .wavelengths(2)
            .workload("pipeline", stage_count=3)
            .mapping("round_robin")
            .optimizer("exhaustive", batch_size=5)
            .build()
        )
        small = execute_scenario(scenario).summary()
        large = execute_scenario(
            scenario.derive(optimizer_options={"batch_size": 4096})
        ).summary()
        assert small.valid_solution_count == large.valid_solution_count
        assert small.pareto_size == large.pareto_size
        # Two pipeline edges, two wavelengths: (2^2 - 1)^2 = 9 candidates.
        assert small.evaluations == large.evaluations == 9
        assert small.best_time_kcycles == large.best_time_kcycles

    def test_scalar_engine_option_reaches_backend(self):
        scenario = (
            Scenario.builder()
            .named("scalar-engine")
            .grid(4, 4)
            .wavelengths(4)
            .genetic(population_size=8, generations=2)
            .optimizer("nsga2", engine="scalar")
            .seed(5)
            .build()
        )
        batch_summary = execute_scenario(
            scenario.derive(optimizer_options={"engine": "batch"})
        ).summary()
        scalar_summary = execute_scenario(scenario).summary()
        assert scalar_summary.valid_solution_count == batch_summary.valid_solution_count
        assert scalar_summary.evaluations == batch_summary.evaluations
