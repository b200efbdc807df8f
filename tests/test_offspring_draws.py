"""Offspring draws replayed from raw PCG64 words equal the generator's own.

``Nsga2Optimizer._make_offspring`` reads its tournament, crossover and
mutation draws off one block of raw words (:class:`nsga2._RawDraws`) instead
of calling the generator per pair.  The oracle is the per-pair loop in
``conftest.py`` (the ``offspring_reference`` fixture), which calls the
generator's own methods.  Both must give the same offspring matrix and leave
the generator in the same full state, buffered 32-bit half included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import Nsga2Optimizer, nsga2
from repro.config import GeneticParameters

#: ``integers(0, n)`` bounds: no draw, tiny, 2**31 + 1 (rejects ~50% of
#: draws) and the largest 32-bit bound.
BOUNDS = (1, 2, 3, 2**31 + 1, 2**32 - 1)


def _tiny_block(monkeypatch) -> None:
    """Make every replay start from a one-word block, so walks pull more."""

    class TinyBlock(nsga2._RawDraws):
        def __init__(self, rng, words, probability):
            super().__init__(rng, 1, probability)

    monkeypatch.setattr(nsga2, "_RawDraws", TinyBlock)


def _objectives(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Objective rows with many ties, some invalid (all-``inf``) rows."""
    objectives = rng.integers(0, 3, size=(rows, 3)).astype(float)
    objectives[rng.random(rows) < 0.2] = np.inf
    return objectives


class TestRawDraws:
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("block", [1, 4096])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_bounded_matches_integers(self, bound, block, buffered):
        replayed, expected = np.random.default_rng(11), np.random.default_rng(11)
        if buffered:
            # Leaves the high half of a word in the 32-bit buffer.
            replayed.integers(0, 5)
            expected.integers(0, 5)
        assert replayed.bit_generator.state["has_uint32"] == int(buffered)
        draws = nsga2._RawDraws(replayed, block, 0.5)
        got = [draws.bounded(bound) for _ in range(301)]
        got.append(draws.double())
        got.extend(draws.bounded(bound) for _ in range(3))
        draws.commit()
        want = [int(expected.integers(0, bound)) for _ in range(301)]
        want.append(expected.random())
        want.extend(int(expected.integers(0, bound)) for _ in range(3))
        assert got == want
        assert replayed.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("bound", BOUNDS[1:])
    def test_draw_on_the_rejection_threshold_is_accepted(self, bound):
        """A 32-bit draw whose ``draw * n`` low half equals the threshold is kept."""
        threshold = (2**32 - bound) % bound
        if bound % 2:
            draw = threshold * pow(bound, -1, 2**32) % 2**32
        else:
            draw = 0  # the threshold of a power of two is 0
        assert (draw * bound) % 2**32 == threshold
        replayed, expected = np.random.default_rng(2), np.random.default_rng(2)
        for rng in (replayed, expected):
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, draw
            rng.bit_generator.state = state
        draws = nsga2._RawDraws(replayed, 4, 0.5)
        got = [draws.bounded(bound) for _ in range(3)]
        draws.commit()
        assert got == [int(expected.integers(0, bound)) for _ in range(3)]
        assert got[0] == (draw * bound) >> 32
        assert replayed.bit_generator.state == expected.bit_generator.state

    def test_skipped_doubles_match_random(self):
        replayed, expected = np.random.default_rng(3), np.random.default_rng(3)
        draws = nsga2._RawDraws(replayed, 2, 0.3)
        first = draws.skip(50)
        second = draws.skip(7)
        draws.commit()
        doubles = expected.random(57)
        assert np.array_equal(draws.below[first : first + 50], doubles[:50] < 0.3)
        assert np.array_equal(draws.below[second : second + 7], doubles[50:] < 0.3)
        assert draws.any_below(first, 50) == bool((doubles[:50] < 0.3).any())
        assert replayed.bit_generator.state == expected.bit_generator.state

    def test_only_pcg64_is_replayed(self):
        with pytest.raises(AssertionError, match="PCG64"):
            nsga2._RawDraws(np.random.Generator(np.random.MT19937(0)), 8, 0.1)


class TestMakeOffspring:
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        population_size=st.integers(2, 200).map(lambda pairs: 2 * pairs),
        genome=st.integers(1, 80),
        crossover=st.sampled_from([0.0, 0.37, 1.0]),
        mutation=st.sampled_from([0.0, 1e-9, 0.02, 1.0]),
        tournament=st.integers(2, 4),
        buffered=st.booleans(),
        tiny_block=st.booleans(),
    )
    def test_matches_per_pair_reference(
        self,
        evaluator,
        offspring_reference,
        seed,
        population_size,
        genome,
        crossover,
        mutation,
        tournament,
        buffered,
        tiny_block,
    ):
        parameters = GeneticParameters(
            population_size=population_size,
            generations=1,
            crossover_probability=crossover,
            mutation_probability=mutation,
            tournament_size=tournament,
            seed=seed,
        )
        optimizer = Nsga2Optimizer(evaluator, parameters)
        reference = Nsga2Optimizer(evaluator, parameters)
        for engine in (optimizer, reference):
            # The operators only read the genome length; shrink it to 1 gene.
            engine._genome = genome
            if buffered:
                engine._rng.integers(0, 7)
        data = np.random.default_rng(seed)
        population = (data.random((population_size, genome)) < 0.5).astype(np.uint8)
        objectives = _objectives(data, population_size)

        with pytest.MonkeyPatch.context() as patch:
            if tiny_block:
                _tiny_block(patch)
            offspring = optimizer._make_offspring(population, objectives)
        expected, _ = offspring_reference(reference, population, objectives)

        assert offspring.dtype == expected.dtype == np.uint8
        assert np.array_equal(offspring, expected)
        assert optimizer._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_consecutive_generations_carry_the_buffer(
        self, evaluator, offspring_reference, monkeypatch
    ):
        """Later generations start from whatever state the last one left."""
        _tiny_block(monkeypatch)
        parameters = GeneticParameters(population_size=10, generations=1, seed=5)
        optimizer = Nsga2Optimizer(evaluator, parameters)
        reference = Nsga2Optimizer(evaluator, parameters)
        population = optimizer._initial_population_matrix()
        reference._initial_population_matrix()
        objectives = _objectives(np.random.default_rng(5), len(population))
        states = set()
        for _ in range(12):
            offspring = optimizer._make_offspring(population, objectives)
            expected, _ = offspring_reference(reference, population, objectives)
            assert np.array_equal(offspring, expected)
            state = optimizer._rng.bit_generator.state
            assert state == reference._rng.bit_generator.state
            states.add(state["has_uint32"])
            population = offspring
        assert states == {0, 1}
