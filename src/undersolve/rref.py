"""Reduced row echelon form by Gauss-Jordan elimination, and the reduced
system of [A b] with its zero rows dropped.

Reducing [A b] to RREF makes the pivot-column block an exact identity,
so a generalized iteration on the reduced system restores the head block
from the tail in one sweep: ``iterate.exact_solve`` lands on an exact
solution at every iteration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotUnderdetermined
from .linalg import as_matrix, as_system, matrix_norm

RREF_TOLERANCE = 1e-10

# columns per Gauss-Jordan panel; the trailing columns are updated once per panel
_PANEL_WIDTH = 32


@dataclass(frozen=True)
class RrefResult:
    matrix: np.ndarray
    rank: int
    pivot_columns: tuple
    consistent: bool   # meaningful for augmented input: no pivot in last column


def rref(a) -> RrefResult:
    """Blocked Gauss-Jordan elimination with partial row pivoting.

    The zero threshold is fixed once from the input, before elimination:
    thr = ``RREF_TOLERANCE`` * ||a||_inf, where a is [A b] in the exact
    pipeline (``RREF_TOLERANCE`` itself for a zero matrix).  MATLAB's
    ``rref`` fixes ``tol = max(size(A)) * eps * norm(A, inf)`` the same
    way.  Pivot candidates at or below thr are snapped to exact zero; pivot
    entries are set to exactly 1 and the rest of each pivot column to
    exactly 0 by assignment.

    The elimination is right-looking and blocked, as LAPACK ``dgetrf``
    (Golub & Van Loan, Matrix Computations, ch. 3).  A panel of columns is
    reduced column by column over all m rows; its row swaps and transform
    then reach the trailing columns T in one BLAS-3 update.  With R the p
    rows that took pivots in the panel and M their pivot columns as they
    were before the panel's elimination (rows swapped):
    Y = M_R^-1 T_R, T_other -= M_other Y, T_R = Y.
    The elimination runs on one copy of a, kept as ``RrefResult.matrix``.
    """
    work = as_matrix(np.array(a, dtype=float))
    m, n = work.shape
    thr = RREF_TOLERANCE * (matrix_norm(work, "inf") or 1.0)
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


def reduced_system(a, b):
    """RREF of the augmented [a b]; returns (result, a_bar, b_bar) with
    zero rows dropped.  a_bar keeps a's original column order.

    Raises ``DimensionMismatch`` when len(b) != m and
    ``NotUnderdetermined`` unless m < n."""
    a, b = as_system(a, b)
    m, n = a.shape
    if m >= n:
        raise NotUnderdetermined("exact solve requires m < n")
    result = rref(np.column_stack([a, b]))
    r = result.rank if result.consistent else result.rank - 1
    a_bar = result.matrix[:r, :-1].copy()
    b_bar = result.matrix[:r, -1].copy()
    return result, a_bar, b_bar
