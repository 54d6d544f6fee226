"""Reduced row echelon form and the exact-solution pipeline.

Reducing [A b] to RREF makes the pivot-column block an exact identity,
so a generalized iteration on the reduced system restores the head block
from the tail in one sweep: every iteration lands on an exact solution.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Inconsistent, InvalidInput, NotUnderdetermined
from .iterate import (
    GENERALIZED_METHODS,
    METHOD_GJACOBI,
    STATUS_ERROR,
    SolveReport,
    SolverConfig,
    _drive,
)
from .linalg import as_matrix, as_vector, matrix_norm
from .partition import POLICY_IDENTITY, split_system

DEFAULT_RREF_TOLERANCE = 1e-10

# columns per Gauss-Jordan panel; the trailing columns are updated once per panel
_PANEL_WIDTH = 32


@dataclass(frozen=True)
class RrefResult:
    matrix: np.ndarray
    rank: int
    pivot_columns: tuple
    consistent: bool   # meaningful for augmented input: no pivot in last column


def rref(a, tolerance: float = DEFAULT_RREF_TOLERANCE) -> RrefResult:
    """Blocked Gauss-Jordan elimination with partial row pivoting.

    The zero threshold is fixed once from the input, before elimination:
    thr = tolerance * ||a||_inf, where a is [A b] in the exact pipeline
    (tolerance itself for a zero matrix).  MATLAB's ``rref`` fixes
    ``tol = max(size(A)) * eps * norm(A, inf)`` the same way.  Pivot
    candidates at or below thr are snapped to exact zero; pivot entries
    are set to exactly 1 and the rest of each pivot column to exactly 0
    by assignment.

    The elimination is right-looking and blocked, as LAPACK ``dgetrf``
    (Golub & Van Loan, Matrix Computations, ch. 3).  A panel of columns is
    reduced column by column over all m rows; its row swaps and transform
    then reach the trailing columns T in one BLAS-3 update.  With R the p
    rows that took pivots in the panel and M their pivot columns as they
    were before the panel's elimination (rows swapped):
    Y = M_R^-1 T_R, T_other -= M_other Y, T_R = Y.
    """
    work = as_matrix(a)
    if tolerance < 0:
        raise InvalidInput("tolerance must be nonnegative")
    m, n = work.shape
    scale = matrix_norm(work, "inf")
    thr = tolerance * (scale if scale > 0 else 1.0)
    pivots = []
    row = 0
    for start in range(0, n, _PANEL_WIDTH):
        if row >= m:
            break
        stop = min(start + _PANEL_WIDTH, n)
        panel = work[:, start:stop]
        before = panel.copy()
        order = np.arange(m)
        top = row
        local = []
        for j in range(stop - start):
            if row >= m:
                break
            cand = np.abs(panel[row:, j])
            best = int(np.argmax(cand))
            if cand[best] <= thr:
                panel[row:, j][cand <= thr] = 0.0
                continue
            piv = row + best
            if piv != row:
                panel[[row, piv]] = panel[[piv, row]]
                order[[row, piv]] = order[[piv, row]]
            # the whole row up to the panel's end: zeros left of the pivot
            # take its sign, as in unblocked elimination
            work[row, :stop] /= panel[row, j]
            factors = panel[:, j].copy()
            factors[row] = 0.0
            touched = factors != 0.0   # a row with a zero multiplier keeps its entries
            rest = panel[:, j + 1:]
            np.subtract(rest, np.outer(factors, rest[row]), out=rest, where=touched[:, None])
            panel[touched, j] = 0.0
            panel[row, j] = 1.0
            local.append(j)
            row += 1
        pivots.extend(start + j for j in local)
        if not local or stop == n:
            continue
        trail = work[:, stop:]
        trail[top:] = trail[order[top:]]
        basis = before[order][:, local]
        y = np.linalg.solve(basis[top:row], trail[top:row])
        trail -= basis @ y
        trail[top:row] = y
    return RrefResult(
        matrix=work,
        rank=len(pivots),
        pivot_columns=tuple(pivots),
        consistent=(n - 1) not in pivots,
    )


def reduced_system(a, b, tolerance: float = DEFAULT_RREF_TOLERANCE):
    """RREF of the augmented [a b]; returns (result, a_bar, b_bar) with
    zero rows dropped.  a_bar keeps a's original column order.

    Raises ``DimensionMismatch`` when len(b) != m and
    ``NotUnderdetermined`` unless m < n."""
    a = as_matrix(a)
    b = as_vector(b)
    m, n = a.shape
    if b.shape != (m,):
        raise DimensionMismatch("rhs length must equal the number of rows")
    if m >= n:
        raise NotUnderdetermined("exact solve requires m < n")
    aug = np.column_stack([a, b])
    result = rref(aug, tolerance)
    r = result.rank if result.consistent else result.rank - 1
    a_bar = result.matrix[:r, :-1].copy()
    b_bar = result.matrix[:r, -1].copy()
    return result, a_bar, b_bar


def exact_solve(a, b, x0=None, config: SolverConfig = None,
                tolerance: float = DEFAULT_RREF_TOLERANCE) -> SolveReport:
    """Reduce (a, b) to RREF and run a generalized method on the reduced
    system, whose pivot-led head block is the identity.

    Inconsistent systems yield a report with status "error" and error
    kind "inconsistent".  Rank-deficient consistent systems are handled
    by dropping zero rows before partitioning.  The partition is always
    the pivot columns, so a ``permutation_policy`` other than
    ``identity`` raises ``InvalidInput``.
    """
    return solve_reduced(reduced_system(a, b, tolerance), x0, config)[0]


def solve_reduced(reduction, x0=None, config: SolverConfig = None):
    """Run a generalized method on the output of ``reduced_system``,
    partitioned into its pivot columns (the head) and free columns.

    Returns the report and the prepared operator, as
    ``iterate.run_with_operator`` does."""
    result, a_bar, b_bar = reduction
    n = a_bar.shape[1]
    if config is None:
        config = SolverConfig(method=METHOD_GJACOBI)
    if config.method not in GENERALIZED_METHODS:
        raise InvalidInput("exact solve supports the generalized methods only")
    if config.permutation_policy != POLICY_IDENTITY:
        raise InvalidInput("exact solve partitions on the RREF pivot columns; "
                           f"permutation policy {config.permutation_policy!r} does not apply")
    x0 = as_vector(x0) if x0 is not None else np.zeros(n)
    if x0.shape != (n,):
        raise DimensionMismatch("x0 length must equal the number of columns")
    if not result.consistent:
        return SolveReport(
            status=STATUS_ERROR,
            solution=x0,
            iterations=0,
            residual_norms=[],
            config=config,
            error=Inconsistent.kind,
        ), None
    pivots = np.array(result.pivot_columns, dtype=np.intp)
    order = np.concatenate((pivots, np.setdiff1d(np.arange(n), pivots)))
    sys = split_system(a_bar, b_bar, order, len(pivots))
    return _drive(a_bar, b_bar, sys, x0, config)
