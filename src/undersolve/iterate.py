"""Stationary iteration: one prepared operator, two primitives, one driver.

The five methods are two primitives of one step:

* ``tail_update`` - the sign-matrix update z' = z + s(B~) d of the tail
  block B~, with d_i = (b - B x_head - B~ z)_i / (m ||B~_i||_1);
* ``head_sweep`` - one Jacobi or Gauss-Seidel sweep on the square head
  block B, with the current tail folded into the right-hand side.

The methods map onto them as follows:

* ``baseline``: ``tail_update`` with an empty head (the tail is A);
* ``gjacobi`` / ``ggs``: ``tail_update``, then a Jacobi / Gauss-Seidel
  ``head_sweep``;
* ``jacobi`` / ``gs``: ``head_sweep`` alone (the head is A).

``prepare`` computes every per-system invariant once and raises the
method's structural errors; the resulting ``Operator`` is immutable.  One
driver loop, behind ``run`` and ``rref.exact_solve``, steps an operator
with residual tracking and convergence/stagnation/divergence detection.
The public ``*_step`` functions prepare and take one step.
"""

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
    row_one_norms,
    sign_matrix,
    singularity_threshold,
    vector_norm,
)
from .partition import (
    POLICY_IDENTITY,
    PartitionedSystem,
    SplitIterate,
    assemble,
    disassemble,
    partition_system,
    split_system,
)

METHOD_BASELINE = "baseline"
METHOD_GJACOBI = "gjacobi"
METHOD_GGS = "ggs"
METHOD_JACOBI = "jacobi"
METHOD_GS = "gs"

METHODS = (METHOD_BASELINE, METHOD_GJACOBI, METHOD_GGS, METHOD_JACOBI, METHOD_GS)
UNDERDETERMINED_METHODS = (METHOD_BASELINE, METHOD_GJACOBI, METHOD_GGS)
GENERALIZED_METHODS = (METHOD_GJACOBI, METHOD_GGS)
SQUARE_METHODS = (METHOD_JACOBI, METHOD_GS)

# sweep kind of each method's head_sweep; None means no sweep
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
        if not 0.0 < self.epsilon < np.inf:
            raise InvalidInput("epsilon must be positive and finite")
        if self.max_iterations < 1:
            raise InvalidInput("max_iterations must be at least 1")
        if self.residual_norm not in (NORM_ONE, NORM_INF):
            raise InvalidInput("residual norm must be 'one' or 'inf'")
        if self.stagnation_window < 2:
            raise InvalidInput("stagnation_window must be at least 2")


@dataclass
class SolveReport:
    status: str
    solution: np.ndarray          # original column order
    iterations: int
    residual_norms: list
    config: SolverConfig
    conditions: Optional[object] = None   # ConditionReport when available
    error: Optional[str] = None           # error kind when status == "error"
    column_perm: Optional[tuple] = None


@dataclass(frozen=True)
class Operator:
    """The per-system invariants of one method, computed once by ``prepare``.

    H is the head splitting matrix: the diagonal D for a Jacobi sweep, the
    lower triangle L for a Gauss-Seidel sweep.
    """
    sys: PartitionedSystem
    sweep: Optional[str]               # None, METHOD_JACOBI or METHOD_GS
    signs: Optional[np.ndarray]        # S = s(B~); None when the tail is empty
    weights: Optional[np.ndarray]      # 1 / (m ||B~_i||_1)
    off_head: Optional[np.ndarray]     # B - H; None without a sweep
    diag: Optional[np.ndarray]         # Jacobi: the diagonal of B
    lower_inv: Optional[np.ndarray]    # Gauss-Seidel: L^-1
    perm: np.ndarray                   # column_perm as an index array

    def solve_head(self, v):
        """H^-1 v, for a vector or for every column of a matrix."""
        if self.diag is None:
            return self.lower_inv @ v
        return (v.T / self.diag).T

    def tail_update(self, x: SplitIterate) -> np.ndarray:
        """The sign-matrix update of the tail, driven by the current head."""
        sys = self.sys
        d = (sys.rhs - sys.b_head @ x.head - sys.b_tail @ x.tail) * self.weights
        return x.tail + self.signs @ d

    def head_sweep(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """One sweep H head' = b - B~ tail - (B - H) head."""
        b_hat = self.sys.rhs - self.sys.b_tail @ tail
        return self.solve_head(b_hat - self.off_head @ head)

    def step(self, x: SplitIterate) -> SplitIterate:
        """One step: the tail update, then the head sweep, each if present."""
        tail = x.tail if self.signs is None else self.tail_update(x)
        head = x.head if self.sweep is None else self.head_sweep(x.head, tail)
        return SplitIterate(head=head, tail=tail)


def prepare(sys: PartitionedSystem, sweep: Optional[str]) -> Operator:
    """Build the operator for ``sys`` and a sweep kind (None, METHOD_JACOBI
    or METHOD_GS).

    Structural errors are raised in this order: an all-zero tail row
    (``ZeroRow`` when the head is empty, as for baseline, else
    ``ZeroTailRow``), then a head diagonal entry at or below
    1e-12 * ||H||_inf (``ZeroDiagonal`` for Jacobi, ``SingularTriangular``
    for Gauss-Seidel).
    """
    signs = weights = off_head = diag = lower_inv = None
    if sys.b_tail.shape[1]:
        norms = row_one_norms(sys.b_tail)
        if np.any(norms == 0.0):
            if sys.b_head.shape[1]:
                raise ZeroTailRow("tail block has an all-zero row")
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
        lower_inv = np.linalg.inv(lower)
        off_head = sys.b_head - lower
    return Operator(sys=sys, sweep=sweep, signs=signs, weights=weights,
                    off_head=off_head, diag=diag, lower_inv=lower_inv,
                    perm=np.asarray(sys.column_perm, dtype=np.intp))


def _whole_system(a, b, method) -> PartitionedSystem:
    """The unpartitioned system: A is the tail for baseline, the head for
    the classical methods."""
    head_size = 0 if method == METHOD_BASELINE else a.shape[0]
    return split_system(a, b, range(a.shape[1]), head_size)


def _whole_step(method, a, b, x):
    a = np.asarray(a, dtype=float)
    sys = _whole_system(a, np.asarray(b, dtype=float), method)
    x = np.asarray(x, dtype=float)
    k = sys.b_head.shape[1]
    new = prepare(sys, SWEEPS[method]).step(SplitIterate(head=x[:k], tail=x[k:]))
    return np.concatenate([new.head, new.tail])


def baseline_step(a, b, z):
    """One sign-matrix iteration on the full system: z + s(A) d with
    d[i] = (b[i] - A_i z) / (m * ||A_i||_1)."""
    return _whole_step(METHOD_BASELINE, a, b, z)


def generalized_jacobi_step(sys: PartitionedSystem, x: SplitIterate) -> SplitIterate:
    """Tail update followed by one Jacobi sweep on the head."""
    return prepare(sys, METHOD_JACOBI).step(x)


def generalized_gauss_seidel_step(sys: PartitionedSystem, x: SplitIterate) -> SplitIterate:
    """Tail update followed by one Gauss-Seidel sweep on the head."""
    return prepare(sys, METHOD_GS).step(x)


def classical_jacobi_step(b_mat, rhs, x):
    """x' = D^-1 (-(B - D) x + rhs) for square B."""
    return _whole_step(METHOD_JACOBI, b_mat, rhs, x)


def classical_gauss_seidel_step(b_mat, rhs, x):
    """Solve L x' = -(B - L) x + rhs with L the lower triangle of B."""
    return _whole_step(METHOD_GS, b_mat, rhs, x)


def _drive(a, b, sys: PartitionedSystem, x0, config: SolverConfig) -> SolveReport:
    """The one driver loop, behind ``run`` and ``rref.exact_solve``.

    Residuals are measured against (a, b) in original column order, so
    reports are comparable across permutation policies.  x0 is tested
    before the operator is prepared: an x0 that already meets epsilon
    converges in zero iterations even on a system the method rejects.
    """
    generalized = config.method in GENERALIZED_METHODS
    history = [vector_norm(a @ x0 - b, config.residual_norm)]
    report = partial(SolveReport, residual_norms=history, config=config,
                     column_perm=sys.column_perm if generalized else None)
    if history[0] < config.epsilon:
        return report(status=STATUS_CONVERGED, solution=x0, iterations=0)
    try:
        op = prepare(sys, SWEEPS[config.method])
    except SolverError as exc:
        return report(status=STATUS_ERROR, solution=x0, iterations=0, error=exc.kind)

    x = disassemble(x0, op.perm, sys.b_head.shape[1])
    floor = max(history[0], 1e-300)
    stagnant = 0
    status = STATUS_MAX_ITERATIONS
    for _ in range(config.max_iterations):
        x = op.step(x)
        full = assemble(x, op.perm)
        r = vector_norm(a @ full - b, config.residual_norm)
        history.append(r)
        if not np.isfinite(r) or r > DIVERGENCE_FACTOR * floor:
            status = STATUS_DIVERGED
            break
        if r < config.epsilon:
            status = STATUS_CONVERGED
            break
        if abs(r - history[-2]) < STAGNATION_REL_CHANGE * max(history[-2], 1e-300):
            stagnant += 1
            if stagnant >= config.stagnation_window:
                status = STATUS_STAGNATED
                break
        else:
            stagnant = 0

    conditions = None
    if generalized:
        from .convergence import operator_conditions
        conditions = operator_conditions(op)
    return report(status=status, solution=full, iterations=len(history) - 1,
                  conditions=conditions)


def run(a, b, x0, config: SolverConfig) -> SolveReport:
    """Solve Ax=b with the configured method starting from x0.

    The initial residual is checked first: an x0 that already meets the
    threshold converges in zero iterations.
    """
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

    if config.method in GENERALIZED_METHODS:
        sys = partition_system(a, b, config.permutation_policy)
    else:
        sys = _whole_system(a, b, config.method)
    return _drive(a, b, sys, x0, config)
