"""Wavelength allocation: the paper's primary contribution.

* :mod:`~repro.allocation.chromosome`  — the binary chromosome of Fig. 4 and its
  encoding/decoding helpers.
* :mod:`~repro.allocation.objectives`  — validity rules and the three objective
  functions (global execution time, average BER, bit energy); the *scalar
  reference* implementation.
* :mod:`~repro.allocation.batch`       — the vectorized population-level
  evaluation engine every optimizer backend runs on.
* :mod:`~repro.allocation.pareto`      — non-dominated sorting, crowding
  distance and Pareto-front containers as NumPy-broadcast kernels, plus the
  pure-Python reference sort and crowding distance the tests compare against.
* :mod:`~repro.allocation.nsga2`       — the NSGA-II engine (Section III-D).
* :mod:`~repro.allocation.heuristics`  — classical baselines (random, first-fit,
  most-used, least-used, uniform).
* :mod:`~repro.allocation.exhaustive`  — brute-force enumeration for tiny
  instances, used to validate the GA.
* :mod:`~repro.allocation.allocator`   — the high-level
  :class:`~repro.allocation.allocator.WavelengthAllocator` facade.
"""

from .chromosome import Chromosome
from .objectives import (
    AllocationEvaluator,
    AllocationSolution,
    CrosstalkScope,
    EvaluatorArrays,
    ObjectiveVector,
    ValidityReport,
)
from .batch import BatchEvaluation, BatchEvaluator
from .pareto import (
    ParetoFront,
    crowding_distance,
    crowding_distance_python,
    dominance_matrix,
    dominates,
    non_dominated_sort,
    non_dominated_sort_python,
)
from .nsga2 import Nsga2Optimizer, Nsga2Result
from .heuristics import (
    first_fit_allocation,
    least_used_allocation,
    most_used_allocation,
    random_allocation,
    uniform_allocation,
)
from .exhaustive import exhaustive_pareto_front
from .allocator import WavelengthAllocator, ExplorationResult

__all__ = [
    "Chromosome",
    "AllocationEvaluator",
    "AllocationSolution",
    "BatchEvaluation",
    "BatchEvaluator",
    "CrosstalkScope",
    "EvaluatorArrays",
    "ObjectiveVector",
    "ValidityReport",
    "ParetoFront",
    "crowding_distance",
    "crowding_distance_python",
    "dominance_matrix",
    "dominates",
    "non_dominated_sort",
    "non_dominated_sort_python",
    "Nsga2Optimizer",
    "Nsga2Result",
    "first_fit_allocation",
    "least_used_allocation",
    "most_used_allocation",
    "random_allocation",
    "uniform_allocation",
    "exhaustive_pareto_front",
    "WavelengthAllocator",
    "ExplorationResult",
]
