"""Stationary iterative solvers for underdetermined linear systems.

Solves Ax = b with more unknowns than equations via sign-matrix
iterations combined with Jacobi or Gauss-Seidel sweeps on a square head
block, with sufficient-condition convergence checks and an
exact-solution pipeline through reduced row echelon form.
"""

from .convergence import ConditionReport, check_conditions, contraction_factor
from .errors import SolverError
from .iterate import (
    METHODS,
    SolveReport,
    SolverConfig,
    baseline_step,
    classical_gauss_seidel_step,
    classical_jacobi_step,
    generalized_gauss_seidel_step,
    generalized_jacobi_step,
    run,
)
from .partition import PartitionedSystem, partition_system
from .rref import RrefResult, exact_solve, rref

__all__ = [
    "ConditionReport",
    "METHODS",
    "PartitionedSystem",
    "RrefResult",
    "SolveReport",
    "SolverConfig",
    "SolverError",
    "baseline_step",
    "check_conditions",
    "classical_gauss_seidel_step",
    "classical_jacobi_step",
    "contraction_factor",
    "exact_solve",
    "generalized_gauss_seidel_step",
    "generalized_jacobi_step",
    "partition_system",
    "rref",
    "run",
]

__version__ = "0.1.0"
