"""Stationary iteration: one prepared operator, one driver that advances
the residual and gathers the iterate.

Every method is a linear stationary iteration.  ``prepare`` splits A in
a column order ``column_perm`` (``partition.column_order``): with a
sweep the head B is the first m slots; without one (baseline) the head
is empty and the tail B~ is all of A.  In that slot order (head
h = x[:k], tail t = x[k:]) one step from the residual r = rhs - A x
changes the iterate by K r and the residual to M r.  With the tail update z = s(B~) W r, W = diag of
1 / (m ||B~_i||_1), and the head sweep's H (the diagonal or lower
triangle of the square head B):

    u = r - B~ z,   delta = H^-1 u,   K r = [delta; z],   M r = u - B delta.

* ``baseline``: the tail update with an empty head (the tail is A), so
  M = T = I - B~ s(B~) W, an m x m matrix ``prepare`` forms once;
* ``gjacobi`` / ``ggs``: the tail update, then a Jacobi / Gauss-Seidel
  sweep; M is applied factored, as above;
* ``jacobi`` / ``gs``: the sweep alone (the head is A, so u = r).

The loop of ``_drive`` carries only the residual, in blocks of steps.
With M factored a block is one step, r' = ``op.advance(r)``.
Baseline's block is the next 64 residuals T r, ..., T^64 r (fewer when
fewer iterations are left), made by recursive doubling from T, T^2, T^4,
... T^32: one matrix-vector product and six gemms, the flops of 64
matrix-vector products.  The powers are squared inside the solve, only
as far as a block needs them: at most five m x m matrices beyond T,
about 5 m^3 multiply-adds once.  One reduction gives a block's norms.
Its leading plain steps, those that neither check, stop nor stagnate,
are committed at once (``acc += r + ...``); the first other step runs
through the step's checks, and the rest of the block is thrown away.
After such a step the next block is no longer than the steps that pass
took, and the length doubles back to 64 over blocks with no such step.
The iterate is
gathered as x = x_start + K acc (``op.gain``), by linearity the same x
the steps would have made one at a time, only when a fresh b - A x is
taken and at the end.  Entries of ``residual_norms`` between fresh
checks are the norms of that recurrence; a fresh check replaces the
carried residual, and the last entry is always a fresh one.

The recurrence drifts from the true residual by rounding, and below the
rounding floor of x it keeps shrinking while b - A x does not (the
carried residual of a recursively updated iteration: van der Vorst & Ye,
SIAM J. Sci. Comput. 22(3), 2000; Higham & Knight, 1993).  So:

* **refresh rule**: whenever the carried norm falls below max(epsilon,
  tau), x is gathered and a fresh b - A x (original column order)
  replaces the carried residual, with tau = n u (||A|| ||x|| + ||b||) in
  the residual's norm, u the unit roundoff.  tau starts from ||b||
  alone; ||A|| is computed at the first fresh check that fails.  Only a
  fresh residual below epsilon converges;
* **stagnation rule**: ``stagnation_window`` consecutive stagnant steps.
  A step is stagnant when its norm is within a relative 1e-14 of the one
  before; a fresh check that fails is also stagnant when the residual is
  at working precision, ||r|| <= u (||A|| ||x|| + ||b||), or repeats one
  of the last ``stagnation_window`` norms (x cycling at its rounding).
  Below the floor every step is a fresh check, so this fires once x
  settles.  A fresh residual of the returned x below epsilon is
  converged, whatever stopped the loop.

``prepare`` splits A, computes every per-system invariant once and
raises the method's structural errors; the resulting ``Operator`` is
immutable.  One driver loop, behind ``run`` and ``rref.exact_solve``,
runs it.  Neither computes the convergence conditions
(``SolveReport.conditions`` stays None);
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
    as_system,
    as_vector,
    lower_triangular_inverse,
    matrix_norm,
    row_one_norms,
    sign_matrix,
    singularity_threshold,
    vector_norm,
)
from .partition import POLICIES, POLICY_IDENTITY, column_order

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

STATUSES = (STATUS_CONVERGED, STATUS_MAX_ITERATIONS, STATUS_STAGNATED, STATUS_DIVERGED,
            STATUS_ERROR)

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
        for name in ("epsilon", "max_iterations", "stagnation_window"):
            # bool is an int and a numbers.Real, but True is no count or tolerance
            if isinstance(getattr(self, name), bool):
                raise InvalidInput(f"{name} must be a number, not a boolean")
        try:
            epsilon = float(self.epsilon) if isinstance(self.epsilon, numbers.Real) else np.nan
        except OverflowError:     # an integer beyond the float range
            epsilon = np.inf
        if not 0.0 < epsilon < np.inf:
            raise InvalidInput("epsilon must be positive and finite")
        # a numpy scalar is stored as the Python number it equals, which
        # the JSON report can write
        object.__setattr__(self, "epsilon", epsilon)
        for name in ("max_iterations", "stagnation_window"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
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
    residual_norms: list          # recurrence values between fresh checks; the last is fresh
    config: SolverConfig
    conditions: Optional[object] = None   # ConditionReport; run/exact_solve leave None
    error: Optional[str] = None           # error kind when status == "error"
    column_perm: Optional[tuple] = None


@dataclass(frozen=True)
class Operator:
    """The one prepared system: the head and tail blocks of A and the
    per-system invariants of one method, computed once by ``prepare``, and
    its two maps of a residual r: ``advance`` (M r, the residual one step
    later) and ``gain`` (K r, the step's change of the iterate).

    H is the head splitting matrix: the diagonal D for a Jacobi sweep, the
    lower triangle L for a Gauss-Seidel sweep.  ``lower_inv`` is L^-1 as a
    dense m x m matrix whose strict upper triangle is exactly 0, formed by
    ``linalg.lower_triangular_inverse`` (recursive 2x2 blocking, about
    2m^3/3 flops, a third of a general inverse).
    """
    b_head: np.ndarray                 # B: the first k slots (k = m, or 0 without a sweep)
    b_tail: np.ndarray                 # B~: the remaining n - k slots
    sweep: Optional[str]               # None, METHOD_JACOBI or METHOD_GS
    signs: Optional[np.ndarray]        # S = s(B~); None when the tail is empty
    weights: Optional[np.ndarray]      # W = 1 / (m ||B~_i||_1)
    tail_map: Optional[np.ndarray]     # baseline: T = I - B~ S W; None with a sweep
    diag: Optional[np.ndarray]         # Jacobi: the diagonal of B
    lower_inv: Optional[np.ndarray]    # Gauss-Seidel: L^-1

    def solve_head(self, v):
        """H^-1 v, for a vector or for every column of a matrix."""
        if self.diag is None:
            return self.lower_inv @ v
        return (v.T / self.diag).T

    def advance(self, r: np.ndarray) -> np.ndarray:
        """M r: the residual one step after the residual r."""
        if self.tail_map is not None:
            return self.tail_map @ r
        u = r
        if self.signs is not None:
            u = r - self.b_tail @ (self.signs @ (r * self.weights))
        return u - self.b_head @ self.solve_head(u)

    def gain(self, s: np.ndarray) -> np.ndarray:
        """K s in slot order: the change of the iterate that a step from
        the residual s makes, [H^-1 u; z] with z = S W s, u = s - B~ z."""
        if self.signs is None:
            return self.solve_head(s)
        z = self.signs @ (s * self.weights)
        if self.sweep is None:
            return z
        return np.concatenate((self.solve_head(s - self.b_tail @ z), z))


def tail_iteration_matrix(b_tail, signs, weights) -> np.ndarray:
    """I - B~ s(B~) N(B~)^-1 / m, the residual map of one tail update, from
    the tail B~, its signs s(B~) and the weights 1 / (m ||B~_i||_1).  The
    tail factor c2 is m times its norm; it involves no head block."""
    return np.eye(b_tail.shape[0]) - (b_tail @ signs) * weights


def prepare(a, column_perm, sweep: Optional[str]) -> Operator:
    """Split the m x n matrix a in the column order ``column_perm`` (an
    integer array, or any sequence of column indices that slices) and
    build the operator for a sweep kind (None, METHOD_JACOBI or
    METHOD_GS).  With a sweep the head is the first m slots; without one
    (baseline) the head is empty and the tail is all of a.  Each block is
    taken from a directly with ``np.take``, so it is C-contiguous;
    ``a[:, perm]`` would be Fortran-ordered, and a matrix-vector product
    can round differently on it.

    Structural errors are raised in this order: a zero tail row
    (``ZeroRow`` when the head is empty, as for baseline, else
    ``ZeroTailRow``), then a head diagonal entry at or below a threshold
    of 1e-12 times a norm (1e-12 itself when that norm is 0): for Jacobi,
    ||B||_inf of the whole head (``ZeroDiagonal``); for Gauss-Seidel,
    ||L||_inf of its lower triangle (``SingularTriangular``).

    A tail row counts as zero when its 1-norm is at or below 1e-12 times
    that of its row of A, as rounding leaves it after RREF; the update
    would divide by that norm.  Without a head this means exactly zero.

    Without a sweep the m x m map T is formed, an m x n x m product that
    costs about m/2 of the steps it replaces; baseline's T has diagonal
    1 - 1/m, so rho(T) >= 1 - 1/m and a solve runs at least about
    m ln(||r_0|| / epsilon) steps, at 2 m^2 flops each.  The solve squares
    T up to five times more for its blocks of steps, 2 m^3 flops each,
    which those steps outweigh once m ln(||r_0|| / epsilon) exceeds 5 m.
    With a sweep M stays factored.
    """
    m = a.shape[0]
    k = 0 if sweep is None else m
    b_head = np.take(a, column_perm[:k], axis=1)
    b_tail = np.take(a, column_perm[k:], axis=1)
    signs = weights = tail_map = diag = lower_inv = None
    if b_tail.shape[1]:
        norms = row_one_norms(b_tail)
        if np.any(norms <= 1e-12 * (norms + row_one_norms(b_head))):
            if b_head.shape[1]:
                raise ZeroTailRow("tail block has a zero row")
            raise ZeroRow("matrix has an all-zero row")
        signs = sign_matrix(b_tail)
        weights = 1.0 / (m * norms)
        if sweep is None:
            tail_map = tail_iteration_matrix(b_tail, signs, weights)
    if sweep == METHOD_JACOBI:
        diag = np.diag(b_head)
        if np.any(np.abs(diag) <= singularity_threshold(b_head)):
            raise ZeroDiagonal("head block has a zero diagonal entry")
    elif sweep == METHOD_GS:
        lower = np.tril(b_head)
        if np.any(np.abs(np.diag(lower)) <= singularity_threshold(lower)):
            raise SingularTriangular("head block has a zero diagonal entry")
        lower_inv = lower_triangular_inverse(lower)
    return Operator(b_head=b_head, b_tail=b_tail, sweep=sweep, signs=signs,
                    weights=weights, tail_map=tail_map, diag=diag, lower_inv=lower_inv)


_BLOCK = 64     # the most residuals one pass of the solve loop advances with a formed T


def _residual_block(powers, r, k):
    """T r, T^2 r, ..., T^k r as the rows of a k x m array, by recursive
    doubling: rows [h, 2h) are rows [0, h) times (T^h)^T, one gemm on a
    transposed view.  ``powers`` holds T, T^2, T^4, ...; each new power is
    the square of the last, appended in place only when k needs it."""
    rows = np.empty((k, r.size))
    rows[0] = powers[0] @ r
    for j in range((k - 1).bit_length()):
        h = 1 << j
        if j == len(powers):
            powers.append(powers[-1] @ powers[-1])
        np.matmul(rows[:min(h, k - h)], powers[j].T, out=rows[h:min(2 * h, k)])
    return rows


def _row_norms(block, kind):
    """``vector_norm`` of every row of a block of residuals."""
    if kind == NORM_ONE:
        return np.abs(block).sum(axis=1)
    return np.abs(block).max(axis=1)


def _plain_steps(norms, before, refresh_below, ceiling):
    """How many leading steps of a block, with residual norms ``norms``
    (``before`` the norm of the residual they start from), are plain: not
    below ``refresh_below`` (so no fresh check and no convergence), finite
    and at most ``ceiling`` (no divergence), and not stagnant."""
    prev = np.concatenate(([before], norms[:-1]))
    plain = (np.isfinite(norms) & (norms >= refresh_below) & (norms <= ceiling)
             & (np.abs(norms - prev) >= STAGNATION_REL_CHANGE * np.maximum(prev, 1e-300)))
    return len(norms) if plain.all() else int(plain.argmin())


def _drive(a, b, column_perm, x0, config: SolverConfig):
    """The one driver loop, behind ``run`` and ``rref.exact_solve``; returns
    the report and the prepared operator (None when none was prepared).

    The loop advances the residual alone and gathers the iterate, in the
    slot order of ``column_perm``, at a fresh check and at the end (see the
    module docstring for the refresh and stagnation rules).  Residuals
    keep the rows of (a, b), so their norms do not depend on the
    permutation policy.  x0 is tested before the operator is prepared: an
    x0 that already meets epsilon converges in zero iterations even on a
    system the method rejects.
    """
    generalized = config.method in GENERALIZED_METHODS
    perm = np.asarray(column_perm, dtype=np.intp)
    kind = config.residual_norm
    r = b - a @ x0
    history = [vector_norm(r, kind)]
    report = partial(SolveReport, residual_norms=history, config=config,
                     column_perm=tuple(perm.tolist()) if generalized else None)
    if history[0] < config.epsilon:
        return report(status=STATUS_CONVERGED, solution=x0, iterations=0), None
    try:
        op = prepare(a, perm, SWEEPS[config.method])
    except SolverError as exc:
        return report(status=STATUS_ERROR, solution=x0, iterations=0, error=exc.kind), None

    x, back = x0[perm], np.argsort(perm)
    acc = np.zeros_like(r)        # sum of the residuals carried since x was gathered
    pending = False               # whether acc holds any
    unit = np.finfo(float).eps / 2
    n_unit = a.shape[1] * unit
    b_norm = vector_norm(b, kind)
    a_norm = None
    refresh_below = max(config.epsilon, n_unit * b_norm)

    def fresh():
        nonlocal x, acc, pending, r
        x = x + op.gain(acc)
        acc = np.zeros_like(r)
        pending = False
        r = b - a @ x[back]
        return vector_norm(r, kind)

    reference = max(history[0], 1e-300)
    ceiling = DIVERGENCE_FACTOR * reference
    powers = [op.tail_map]        # baseline: T, T^2, T^4, ..., squared as blocks need them
    size = _BLOCK                 # baseline: the length of the next block
    stagnant = 0
    status = STATUS_MAX_ITERATIONS
    while (left := config.max_iterations + 1 - len(history)) > 0:
        if op.tail_map is None:
            block, plain = op.advance(r)[np.newaxis], 0
            norms = _row_norms(block, kind)
        else:
            # rows after the first event may overflow; they are thrown away
            with np.errstate(over="ignore", invalid="ignore"):
                block = _residual_block(powers, r, min(size, left))
                norms = _row_norms(block, kind)
                plain = _plain_steps(norms, history[-1], refresh_below, ceiling)
        if plain:
            # neither checked nor stopped: commit the plain steps in bulk
            history.extend(norms[:plain].tolist())
            acc += r
            acc += block[:plain - 1].sum(axis=0)
            r, pending, stagnant = block[plain - 1], True, 0
            if plain == len(block):
                size = min(2 * size, _BLOCK)
                continue
        # the first step of the block that may check or stop.  The rest of
        # the block is thrown away, so the next block is no longer than the
        # steps this pass took: below the rounding floor, where every step
        # is a fresh check, a block is one step
        size = plain + 1
        acc += r
        pending = True
        r, norm = block[plain], float(norms[plain])
        settled = False
        if norm < refresh_below:
            norm = fresh()
            if norm >= config.epsilon:
                if a_norm is None:
                    a_norm = matrix_norm(a, kind)
                scale = a_norm * vector_norm(x, kind) + b_norm
                refresh_below = max(config.epsilon, n_unit * scale)
                # at working precision, or x cycling through a few iterates
                settled = norm <= unit * scale or any(
                    abs(norm - h) < STAGNATION_REL_CHANGE * h
                    for h in history[-config.stagnation_window:])
        history.append(norm)
        if not math.isfinite(norm) or norm > ceiling:
            status = STATUS_DIVERGED
            break
        if norm < config.epsilon:
            status = STATUS_CONVERGED
            break
        if settled or abs(norm - history[-2]) < STAGNATION_REL_CHANGE * max(history[-2], 1e-300):
            stagnant += 1
            if stagnant >= config.stagnation_window:
                status = STATUS_STAGNATED
                break
        else:
            stagnant = 0

    if pending:
        # the last entry becomes the fresh residual of the returned x
        history[-1] = fresh()
        if history[-1] < config.epsilon:
            status = STATUS_CONVERGED
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
    a, b = as_system(a, b)
    m, n = a.shape
    x0 = as_vector(x0) if x0 is not None else np.zeros(n)
    if x0.shape != (n,):
        raise DimensionMismatch("x0 length must equal the number of columns")

    if config.method in UNDERDETERMINED_METHODS and m >= n:
        raise NotUnderdetermined("method requires m < n")
    if config.method in SQUARE_METHODS and m != n:
        raise DimensionMismatch("classical methods require a square matrix")

    # SolverConfig leaves the identity order to all but the generalized methods
    return _drive(a, b, column_order(a, config.permutation_policy), x0, config)
