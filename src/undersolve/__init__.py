"""Stationary iterative solvers for underdetermined linear systems.

Solves Ax = b with more unknowns than equations via sign-matrix
iterations combined with Jacobi or Gauss-Seidel sweeps on a square head
block, with sufficient-condition convergence checks and an
exact-solution pipeline through reduced row echelon form.
"""

from .convergence import ConditionReport, check_conditions, contraction_factor
from .errors import SolverError
from .iterate import METHODS, SolveReport, SolverConfig, exact_solve, run
from .rref import RrefResult, rref

__all__ = [
    "ConditionReport",
    "METHODS",
    "RrefResult",
    "SolveReport",
    "SolverConfig",
    "SolverError",
    "check_conditions",
    "contraction_factor",
    "exact_solve",
    "rref",
    "run",
]

__version__ = "0.1.0"
