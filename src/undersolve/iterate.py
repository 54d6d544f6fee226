"""Stationary iteration: one prepared operator, one fused step, one driver.

A step works in the slot order of the partition's ``column_perm`` (head
h = x[:k], tail t = x[k:]) and takes the iterate with its residual
r = rhs - A x; it returns the new pair: the sign-matrix tail update
t' = t + s(B~) d with d_i = r_i / (m ||B~_i||_1); one Jacobi or
Gauss-Seidel sweep H h' = c - (B - H) h on the square head B, with
c = rhs - B~ t' and H the diagonal or lower triangle of B; and the
residual r' = c - B h', a fresh m x m product (c itself without a sweep).
The carried residual can understate the rounding of x: with an identity
head, as after RREF, h' = c and r' is exactly 0.  So the driver converges
only when a fresh b - A x, in original column order, also meets epsilon.

* ``baseline``: the tail update with an empty head (the tail is A);
* ``gjacobi`` / ``ggs``: the tail update, then a Jacobi / Gauss-Seidel sweep;
* ``jacobi`` / ``gs``: the sweep alone (the head is A, so c = rhs).

``prepare`` computes every per-system invariant once and raises the
method's structural errors; the resulting ``Operator`` is immutable.  One
driver loop, behind ``run`` and ``rref.exact_solve``, steps an operator and
measures the residual it carries.  Neither computes the convergence
conditions (``SolveReport.conditions`` stays None);
``convergence.operator_conditions`` derives them from the operator that
``run_with_operator`` hands back.
"""

import math
import numbers
import operator
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    NotUnderdetermined,
    SingularTriangular,
    SolverError,
    ZeroDiagonal,
    ZeroRow,
    ZeroTailRow,
)
from .linalg import (
    NORM_INF,
    NORM_ONE,
    as_matrix,
    as_vector,
    lower_triangular_inverse,
    row_one_norms,
    sign_matrix,
    singularity_threshold,
    vector_norm,
)
from .partition import POLICIES, POLICY_IDENTITY, PartitionedSystem, _column_order, split_system

METHOD_BASELINE = "baseline"
METHOD_GJACOBI = "gjacobi"
METHOD_GGS = "ggs"
METHOD_JACOBI = "jacobi"
METHOD_GS = "gs"

METHODS = (METHOD_BASELINE, METHOD_GJACOBI, METHOD_GGS, METHOD_JACOBI, METHOD_GS)
UNDERDETERMINED_METHODS = (METHOD_BASELINE, METHOD_GJACOBI, METHOD_GGS)
GENERALIZED_METHODS = (METHOD_GJACOBI, METHOD_GGS)
SQUARE_METHODS = (METHOD_JACOBI, METHOD_GS)

# sweep kind of each method's head sweep; None means no sweep
SWEEPS = {
    METHOD_BASELINE: None,
    METHOD_GJACOBI: METHOD_JACOBI,
    METHOD_GGS: METHOD_GS,
    METHOD_JACOBI: METHOD_JACOBI,
    METHOD_GS: METHOD_GS,
}

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_STAGNATED = "stagnated"
STATUS_DIVERGED = "diverged"
STATUS_ERROR = "error"

DIVERGENCE_FACTOR = 1e12
STAGNATION_REL_CHANGE = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    method: str = METHOD_GJACOBI
    epsilon: float = 1e-8
    max_iterations: int = 10000
    residual_norm: str = NORM_ONE
    permutation_policy: str = POLICY_IDENTITY
    stagnation_window: int = 10

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInput(f"unknown method: {self.method!r}")
        if not isinstance(self.epsilon, numbers.Real) or not 0.0 < self.epsilon < np.inf:
            raise InvalidInput("epsilon must be positive and finite")
        for name in ("max_iterations", "stagnation_window"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise InvalidInput(f"{name} must be an integer") from None
        if self.max_iterations < 1:
            raise InvalidInput("max_iterations must be at least 1")
        if self.residual_norm not in (NORM_ONE, NORM_INF):
            raise InvalidInput("residual norm must be 'one' or 'inf'")
        if self.stagnation_window < 2:
            raise InvalidInput("stagnation_window must be at least 2")
        if self.permutation_policy not in POLICIES:
            raise InvalidInput(f"unknown permutation policy: {self.permutation_policy!r}")
        if self.permutation_policy != POLICY_IDENTITY and self.method not in GENERALIZED_METHODS:
            raise InvalidInput(
                f"permutation policy {self.permutation_policy!r} needs a generalized method")


@dataclass
class SolveReport:
    status: str
    solution: np.ndarray          # original column order
    iterations: int
    residual_norms: list
    config: SolverConfig
    conditions: Optional[object] = None   # ConditionReport; run/exact_solve leave None
    error: Optional[str] = None           # error kind when status == "error"
    column_perm: Optional[tuple] = None


@dataclass(frozen=True)
class Operator:
    """The per-system invariants of one method, computed once by ``prepare``.

    H is the head splitting matrix: the diagonal D for a Jacobi sweep, the
    lower triangle L for a Gauss-Seidel sweep.  ``lower_inv`` is L^-1 as a
    dense m x m matrix whose strict upper triangle is exactly 0, formed by
    ``linalg.lower_triangular_inverse`` (recursive 2x2 blocking, about
    2m^3/3 flops, a third of a general inverse).
    """
    sys: PartitionedSystem
    sweep: Optional[str]               # None, METHOD_JACOBI or METHOD_GS
    signs: Optional[np.ndarray]        # S = s(B~); None when the tail is empty
    weights: Optional[np.ndarray]      # 1 / (m ||B~_i||_1)
    off_head: Optional[np.ndarray]     # B - H; None without a sweep
    diag: Optional[np.ndarray]         # Jacobi: the diagonal of B
    lower_inv: Optional[np.ndarray]    # Gauss-Seidel: L^-1

    def solve_head(self, v):
        """H^-1 v, for a vector or for every column of a matrix."""
        if self.diag is None:
            return self.lower_inv @ v
        return (v.T / self.diag).T

    def step(self, x: np.ndarray, r: np.ndarray):
        """One step from the permuted iterate x and its residual
        r = rhs - A x; returns the new (x, r)."""
        sys = self.sys
        k = sys.b_head.shape[1]
        head, tail = x[:k], x[k:]
        c = sys.rhs
        if self.signs is not None:
            tail = tail + self.signs @ (r * self.weights)
            c = c - sys.b_tail @ tail
        if self.sweep is None:
            return tail, c
        head = self.solve_head(c - self.off_head @ head)
        return np.concatenate((head, tail)), c - sys.b_head @ head


def prepare(sys: PartitionedSystem, sweep: Optional[str]) -> Operator:
    """Build the operator for ``sys`` and a sweep kind (None, METHOD_JACOBI
    or METHOD_GS).

    Structural errors are raised in this order: a zero tail row
    (``ZeroRow`` when the head is empty, as for baseline, else
    ``ZeroTailRow``), then a head diagonal entry at or below a threshold
    of 1e-12 times a norm (1e-12 itself when that norm is 0): for Jacobi,
    ||B||_inf of the whole head (``ZeroDiagonal``); for Gauss-Seidel,
    ||L||_inf of its lower triangle (``SingularTriangular``).

    A tail row counts as zero when its 1-norm is at or below 1e-12 times
    that of its row of A, as rounding leaves it after RREF; the update
    would divide by that norm.  Without a head this means exactly zero.
    """
    signs = weights = off_head = diag = lower_inv = None
    if sys.b_tail.shape[1]:
        norms = row_one_norms(sys.b_tail)
        if np.any(norms <= 1e-12 * (norms + row_one_norms(sys.b_head))):
            if sys.b_head.shape[1]:
                raise ZeroTailRow("tail block has a zero row")
            raise ZeroRow("matrix has an all-zero row")
        signs = sign_matrix(sys.b_tail)
        weights = 1.0 / (sys.m * norms)
    if sweep == METHOD_JACOBI:
        diag = np.diag(sys.b_head)
        if np.any(np.abs(diag) <= singularity_threshold(sys.b_head)):
            raise ZeroDiagonal("head block has a zero diagonal entry")
        off_head = sys.b_head - np.diag(diag)
    elif sweep == METHOD_GS:
        lower = np.tril(sys.b_head)
        if np.any(np.abs(np.diag(lower)) <= singularity_threshold(lower)):
            raise SingularTriangular("head block has a zero diagonal entry")
        lower_inv = lower_triangular_inverse(lower)
        off_head = sys.b_head - lower
    return Operator(sys=sys, sweep=sweep, signs=signs, weights=weights,
                    off_head=off_head, diag=diag, lower_inv=lower_inv)


def _drive(a, b, sys: PartitionedSystem, x0, config: SolverConfig):
    """The one driver loop, behind ``run`` and ``rref.exact_solve``; returns
    the report and the prepared operator (None when none was prepared).

    The iterate stays in permuted column order; it is mapped back to test
    a carried residual below epsilon on a fresh b - A x, and at the end.
    Residuals keep the rows of (a, b), so their norms do not depend on the
    permutation policy.  x0 is tested before the operator is prepared: an
    x0 that already meets epsilon converges in zero iterations even on a
    system the method rejects.
    """
    generalized = config.method in GENERALIZED_METHODS
    r = b - a @ x0
    history = [vector_norm(r, config.residual_norm)]
    report = partial(SolveReport, residual_norms=history, config=config,
                     column_perm=sys.column_perm if generalized else None)
    if history[0] < config.epsilon:
        return report(status=STATUS_CONVERGED, solution=x0, iterations=0), None
    try:
        op = prepare(sys, SWEEPS[config.method])
    except SolverError as exc:
        return report(status=STATUS_ERROR, solution=x0, iterations=0, error=exc.kind), None

    perm = np.asarray(sys.column_perm, dtype=np.intp)
    x, back = x0[perm], np.argsort(perm)
    floor = max(history[0], 1e-300)
    stagnant = 0
    status = STATUS_MAX_ITERATIONS
    for _ in range(config.max_iterations):
        x, r = op.step(x, r)
        norm = vector_norm(r, config.residual_norm)
        if norm < config.epsilon:
            # converge on a fresh residual, which the carried one can
            # understate; the step continues from the fresh one
            r = b - a @ x[back]
            norm = vector_norm(r, config.residual_norm)
        history.append(norm)
        if not math.isfinite(norm) or norm > DIVERGENCE_FACTOR * floor:
            status = STATUS_DIVERGED
            break
        if norm < config.epsilon:
            status = STATUS_CONVERGED
            break
        if abs(norm - history[-2]) < STAGNATION_REL_CHANGE * max(history[-2], 1e-300):
            stagnant += 1
            if stagnant >= config.stagnation_window:
                status = STATUS_STAGNATED
                break
        else:
            stagnant = 0

    return report(status=status, solution=x[back], iterations=len(history) - 1), op


def run(a, b, x0, config: SolverConfig) -> SolveReport:
    """Solve Ax=b with the configured method starting from x0.

    The initial residual is checked first: an x0 that already meets the
    threshold converges in zero iterations.
    """
    return run_with_operator(a, b, x0, config)[0]


def run_with_operator(a, b, x0, config: SolverConfig):
    """``run``, also returning the operator the solve prepared (None when
    it prepared none: an error, or an x0 that already met epsilon)."""
    a = as_matrix(a)
    b = as_vector(b)
    m, n = a.shape
    if b.shape != (m,):
        raise DimensionMismatch("rhs length must equal the number of rows")
    x0 = as_vector(x0) if x0 is not None else np.zeros(n)
    if x0.shape != (n,):
        raise DimensionMismatch("x0 length must equal the number of columns")

    if config.method in UNDERDETERMINED_METHODS and m >= n:
        raise NotUnderdetermined("method requires m < n")
    if config.method in SQUARE_METHODS and m != n:
        raise DimensionMismatch("classical methods require a square matrix")

    # the checks of partition_system are done above and by SolverConfig,
    # which leaves the identity order to all but the generalized methods;
    # A is the tail for baseline, the head for the classical methods
    head_size = 0 if config.method == METHOD_BASELINE else m
    sys = split_system(a, b, _column_order(a, config.permutation_policy), head_size)
    return _drive(a, b, sys, x0, config)
