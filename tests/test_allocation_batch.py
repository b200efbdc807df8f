"""Batch-evaluation engine: equivalence with the scalar reference evaluator.

The vectorized :class:`~repro.allocation.batch.BatchEvaluator` must match the
readable scalar :class:`~repro.allocation.objectives.AllocationEvaluator`
objective-for-objective — including validity verdicts and the
infinite-fitness convention for invalid chromosomes — on randomized
populations across seeds, wavelength counts and crosstalk scopes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation import (
    AllocationEvaluator,
    BatchEvaluation,
    BatchEvaluator,
    Chromosome,
)
from repro.allocation.exhaustive import (
    enumerate_chromosomes,
    exhaustive_pareto_front,
    iter_gene_batches,
)
from repro.allocation.objectives import CrosstalkScope
from repro.application import Mapping, paper_mapping, paper_task_graph, pipeline_task_graph
from repro.errors import AllocationError
from repro.topology import RingOnocArchitecture, build_topology


def _paper_evaluator(wavelength_count, scope=CrosstalkScope.TEMPORAL):
    architecture = RingOnocArchitecture.grid(4, 4, wavelength_count=wavelength_count)
    return AllocationEvaluator(
        architecture,
        paper_task_graph(),
        paper_mapping(architecture),
        crosstalk_scope=scope,
    )


def _topology_evaluator(topology, wavelength_count, scope=CrosstalkScope.TEMPORAL):
    """The paper workload on a registry-built topology.

    The stride-5 spread pushes tasks onto both layers of the multi-ring stack,
    so inter-layer paths (vertical couplers, pillar sharing) are exercised.
    """
    options = {"layers": 2} if topology == "multi_ring" else {}
    architecture = build_topology(
        topology, 4, 4, wavelength_count=wavelength_count, options=options
    )
    graph = paper_task_graph()
    return AllocationEvaluator(
        architecture,
        graph,
        Mapping.round_robin(graph, architecture, stride=5),
        crosstalk_scope=scope,
    )


def _random_chromosomes(evaluator, seed, count=25):
    """A mix of sparse, dense and hand-picked chromosomes (valid and invalid)."""
    rng = np.random.default_rng(seed)
    chromosomes = []
    for _ in range(count):
        density = rng.uniform(0.1, 0.8)
        chromosomes.append(
            Chromosome.random(
                evaluator.communication_count,
                evaluator.wavelength_count,
                rng,
                reserve_probability=density,
            )
        )
    # The paper's energy anchor (valid on the paper scenario) ...
    chromosomes.append(
        Chromosome.from_allocation(
            [(index % evaluator.wavelength_count,) for index in range(evaluator.communication_count)],
            evaluator.wavelength_count,
        )
    )
    # ... and a chromosome with an empty communication (always invalid).
    genes = np.array(chromosomes[0].as_array())
    genes[0, :] = 0
    chromosomes.append(
        Chromosome.from_array(
            genes.ravel(), evaluator.communication_count, evaluator.wavelength_count
        )
    )
    return chromosomes


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 2017])
    @pytest.mark.parametrize("wavelength_count", [4, 8])
    def test_objectives_match_scalar_reference(self, seed, wavelength_count):
        evaluator = _paper_evaluator(wavelength_count)
        batch = evaluator.batch()
        chromosomes = _random_chromosomes(evaluator, seed)
        evaluation = batch.evaluate_chromosomes(chromosomes)
        assert len(evaluation) == len(chromosomes)
        for index, chromosome in enumerate(chromosomes):
            scalar = evaluator.evaluate(chromosome)
            assert bool(evaluation.valid[index]) == scalar.is_valid
            if not scalar.is_valid:
                # Invalid chromosomes get infinite fitness in both engines.
                assert np.isinf(evaluation.execution_time_kcycles[index])
                assert np.isinf(evaluation.mean_bit_error_rate[index])
                assert np.isinf(evaluation.bit_energy_fj[index])
                continue
            # Execution time is bit-identical (same float operations).
            assert (
                evaluation.execution_time_kcycles[index]
                == scalar.objectives.execution_time_kcycles
            )
            # BER and energy agree to a tight relative tolerance (the batch
            # engine sums the crosstalk series in a different order).
            assert evaluation.mean_bit_error_rate[index] == pytest.approx(
                scalar.objectives.mean_bit_error_rate, rel=1e-9
            )
            assert evaluation.bit_energy_fj[index] == pytest.approx(
                scalar.objectives.bit_energy_fj, rel=1e-9
            )
            assert evaluation.per_communication_ber[index] == pytest.approx(
                scalar.per_communication_ber, rel=1e-9
            )
            assert evaluation.per_communication_energy_fj[index] == pytest.approx(
                scalar.per_communication_energy_fj, rel=1e-9
            )
            assert tuple(
                evaluation.per_communication_duration_kcycles[index]
            ) == scalar.per_communication_duration_kcycles

    @pytest.mark.parametrize("scope", list(CrosstalkScope))
    def test_every_crosstalk_scope_matches(self, scope):
        evaluator = _paper_evaluator(4, scope=scope)
        batch = evaluator.batch()
        chromosomes = _random_chromosomes(evaluator, seed=3, count=15)
        evaluation = batch.evaluate_chromosomes(chromosomes)
        for index, chromosome in enumerate(chromosomes):
            scalar = evaluator.evaluate(chromosome)
            assert bool(evaluation.valid[index]) == scalar.is_valid
            if scalar.is_valid:
                assert evaluation.objectives(index).as_tuple() == pytest.approx(
                    scalar.objectives.as_tuple(), rel=1e-9
                )

    def test_materialised_solutions_match_scalar_shape(self):
        evaluator = _paper_evaluator(8)
        evaluation = evaluator.batch().evaluate_chromosomes(
            _random_chromosomes(evaluator, seed=11, count=10)
        )
        for index in range(len(evaluation)):
            solution = evaluation.solution(index)
            scalar = evaluator.evaluate(solution.chromosome)
            assert solution.is_valid == scalar.is_valid
            assert solution.wavelength_counts == scalar.wavelength_counts
            if not solution.is_valid:
                assert not solution.objectives.is_finite
                assert solution.validity.reason == scalar.validity.reason

    def test_validity_verdicts_are_exact_on_tiny_instance(self):
        architecture = RingOnocArchitecture.grid(2, 2, wavelength_count=3)
        graph = pipeline_task_graph(stage_count=3, execution_cycles=2000.0, volume_bits=3000.0)
        evaluator = AllocationEvaluator(
            architecture, graph, Mapping.from_dict({"S0": 0, "S1": 1, "S2": 3})
        )
        chromosomes = list(
            enumerate_chromosomes(evaluator.communication_count, evaluator.wavelength_count)
        )
        evaluation = evaluator.batch().evaluate_chromosomes(chromosomes)
        for index, chromosome in enumerate(chromosomes):
            assert bool(evaluation.valid[index]) == evaluator.evaluate(chromosome).is_valid


class TestOffRingBatchScalarEquivalence:
    """The 1e-9 rtol engine guarantees hold on every registered topology."""

    @pytest.mark.parametrize("seed", [1, 2017])
    @pytest.mark.parametrize("topology", ["multi_ring", "crossbar"])
    def test_objectives_match_scalar_reference(self, topology, seed):
        evaluator = _topology_evaluator(topology, wavelength_count=6)
        batch = evaluator.batch()
        chromosomes = _random_chromosomes(evaluator, seed)
        evaluation = batch.evaluate_chromosomes(chromosomes)
        checked_valid = 0
        for index, chromosome in enumerate(chromosomes):
            scalar = evaluator.evaluate(chromosome)
            assert bool(evaluation.valid[index]) == scalar.is_valid
            if not scalar.is_valid:
                assert np.isinf(evaluation.execution_time_kcycles[index])
                continue
            checked_valid += 1
            assert (
                evaluation.execution_time_kcycles[index]
                == scalar.objectives.execution_time_kcycles
            )
            assert evaluation.mean_bit_error_rate[index] == pytest.approx(
                scalar.objectives.mean_bit_error_rate, rel=1e-9
            )
            assert evaluation.bit_energy_fj[index] == pytest.approx(
                scalar.objectives.bit_energy_fj, rel=1e-9
            )
            assert evaluation.per_communication_ber[index] == pytest.approx(
                scalar.per_communication_ber, rel=1e-9
            )
            assert evaluation.per_communication_energy_fj[index] == pytest.approx(
                scalar.per_communication_energy_fj, rel=1e-9
            )
        assert checked_valid > 0  # the sample must exercise the full chain

    @pytest.mark.parametrize("topology", ["multi_ring", "crossbar"])
    @pytest.mark.parametrize("scope", list(CrosstalkScope))
    def test_every_crosstalk_scope_matches_off_ring(self, topology, scope):
        evaluator = _topology_evaluator(topology, wavelength_count=4, scope=scope)
        batch = evaluator.batch()
        chromosomes = _random_chromosomes(evaluator, seed=13, count=12)
        evaluation = batch.evaluate_chromosomes(chromosomes)
        for index, chromosome in enumerate(chromosomes):
            scalar = evaluator.evaluate(chromosome)
            assert bool(evaluation.valid[index]) == scalar.is_valid
            if scalar.is_valid:
                assert evaluation.objectives(index).as_tuple() == pytest.approx(
                    scalar.objectives.as_tuple(), rel=1e-9
                )


class TestBatchApi:
    def test_batch_accessor_is_cached(self, evaluator):
        assert evaluator.batch() is evaluator.batch()
        assert isinstance(evaluator.batch(), BatchEvaluator)

    def test_accepts_flat_and_shaped_tensors(self, evaluator):
        batch = evaluator.batch()
        rng = np.random.default_rng(5)
        shaped = batch.random_population(6, rng, 0.4)
        flat = shaped.reshape(6, -1)
        first = batch.evaluate_population(shaped)
        second = batch.evaluate_population(flat)
        assert np.array_equal(first.valid, second.valid)
        assert np.array_equal(
            first.execution_time_kcycles, second.execution_time_kcycles
        )

    def test_rejects_misshaped_population(self, evaluator):
        with pytest.raises(AllocationError):
            evaluator.batch().evaluate_population(np.zeros((4, 5)))

    def test_empty_population(self, evaluator):
        evaluation = evaluator.batch().evaluate_population(
            np.zeros((0, evaluator.communication_count, evaluator.wavelength_count))
        )
        assert len(evaluation) == 0
        assert evaluation.valid_count == 0

    def test_objective_matrix_column_order(self, evaluator):
        batch = evaluator.batch()
        anchor = Chromosome.from_allocation(
            [(index,) for index in range(evaluator.communication_count)],
            evaluator.wavelength_count,
        )
        evaluation = batch.evaluate_chromosomes([anchor])
        matrix = evaluation.objective_matrix(("energy", "time"))
        assert matrix[0, 0] == evaluation.bit_energy_fj[0]
        assert matrix[0, 1] == evaluation.execution_time_kcycles[0]
        with pytest.raises(AllocationError):
            evaluation.objective_matrix(("area",))

    def test_gene_bytes_match_chromosome_fingerprint(self, evaluator):
        rng = np.random.default_rng(1)
        chromosome = evaluator.random_chromosome(rng)
        evaluation = evaluator.batch().evaluate_chromosomes([chromosome])
        assert evaluation.gene_bytes(0) == chromosome.gene_bytes


class TestRowTakeAndConcatenate:
    """Row subsets are exact copies: the GA's books never re-evaluate a row."""

    ROW_ARRAYS = (
        "genes",
        "wavelength_counts",
        "valid",
        "execution_time_kcycles",
        "mean_bit_error_rate",
        "bit_energy_fj",
        "per_communication_ber",
        "per_communication_energy_fj",
        "per_communication_duration_kcycles",
    )

    @pytest.fixture
    def evaluation(self, evaluator):
        batch = evaluator.batch()
        return batch.evaluate_population(
            batch.random_population(24, np.random.default_rng(9), 0.3)
        )

    def test_take_copies_rows_bit_for_bit(self, evaluation):
        rows = [5, 0, 17, 5]
        subset = evaluation.take(rows)
        assert len(subset) == 4 and subset.evaluator is evaluation.evaluator
        for name in self.ROW_ARRAYS:
            assert np.array_equal(getattr(subset, name), getattr(evaluation, name)[rows])
        assert subset.solution(1) == evaluation.solution(0)

    def test_take_does_not_alias_the_source(self, evaluation):
        subset = evaluation.take([0, 1])
        subset.execution_time_kcycles[0] = -1.0
        assert evaluation.execution_time_kcycles[0] != -1.0

    def test_concatenate_reassembles_the_batch(self, evaluation):
        valid = np.flatnonzero(evaluation.valid)
        invalid = np.flatnonzero(~evaluation.valid)
        merged = BatchEvaluation.concatenate(
            [evaluation.take(valid), evaluation.take([]), evaluation.take(invalid)]
        )
        order = np.concatenate([valid, invalid])
        for name in self.ROW_ARRAYS:
            assert np.array_equal(
                getattr(merged, name), getattr(evaluation, name)[order]
            )
        assert BatchEvaluation.concatenate([evaluation]) is evaluation

    def test_concatenate_rejects_empty_and_mixed_evaluators(self, evaluation):
        with pytest.raises(AllocationError):
            BatchEvaluation.concatenate([])
        other = _paper_evaluator(8).batch()
        foreign = other.evaluate_population(evaluation.genes[:2])
        with pytest.raises(AllocationError):
            BatchEvaluation.concatenate([evaluation, foreign])


class TestBatchedEnumeration:
    def test_batches_cover_the_space_in_legacy_order(self):
        batches = list(iter_gene_batches(2, 2, batch_size=4))
        total = sum(batch.shape[0] for batch in batches)
        assert total == 9  # (2^2 - 1)^2 non-empty combinations
        assert all(batch.shape[0] <= 4 for batch in batches)
        flattened = [
            tuple(row.ravel()) for batch in batches for row in batch
        ]
        legacy = [chromosome.genes for chromosome in enumerate_chromosomes(2, 2)]
        assert flattened == legacy

    def test_front_is_independent_of_batch_size(self):
        architecture = RingOnocArchitecture.grid(2, 2, wavelength_count=3)
        graph = pipeline_task_graph(stage_count=3, execution_cycles=2000.0, volume_bits=3000.0)
        evaluator = AllocationEvaluator(
            architecture, graph, Mapping.from_dict({"S0": 0, "S1": 1, "S2": 3})
        )
        small_front, small_count = exhaustive_pareto_front(evaluator, batch_size=7)
        large_front, large_count = exhaustive_pareto_front(evaluator, batch_size=4096)
        assert small_count == large_count
        assert sorted(small_front.objectives) == sorted(large_front.objectives)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(AllocationError):
            list(iter_gene_batches(2, 2, batch_size=0))

    def test_space_guard_still_applies(self):
        with pytest.raises(AllocationError):
            list(iter_gene_batches(10, 10))


class TestChromosomeViews:
    def test_as_array_is_shared_and_read_only(self):
        chromosome = Chromosome.from_paper_string("[1000/0001/0001/0001/1000/1000]")
        array = chromosome.as_array()
        assert array is chromosome.as_array()
        assert array.dtype == np.uint8
        with pytest.raises(ValueError):
            array[0, 0] = 0

    def test_gene_bytes_round_trip(self):
        chromosome = Chromosome.from_paper_string("[10/01/11]")
        rebuilt = Chromosome.from_numpy(
            np.frombuffer(chromosome.gene_bytes, dtype=np.uint8),
            chromosome.communication_count,
            chromosome.wavelength_count,
        )
        assert rebuilt == chromosome
