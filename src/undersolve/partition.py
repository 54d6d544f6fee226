"""Column-order policies for the split A = [B B~] of an m x n system.

The generalized methods split A into a square head block B and a tail
block B~.  That split is a column order and nothing else:
``column_order`` lists the original column of every slot, and
``iterate.prepare`` takes the first m slots as the head and the rest as
the tail.  Iterates are full vectors in original column order; a solve
gathers x[column_perm] into slot order and scatters its result back, so
residuals are always measured in original order.
"""

import numpy as np

from .errors import InvalidInput, RankDeficient
from .linalg import singularity_threshold

POLICY_IDENTITY = "identity"
POLICY_PIVOT_COLUMNS = "pivot-columns"

POLICIES = (POLICY_IDENTITY, POLICY_PIVOT_COLUMNS)


def _pivot_column_order(a: np.ndarray) -> list:
    """Select m independent columns by Gaussian elimination with column
    pivoting; returns them (in selection order) followed by the rest."""
    m, n = a.shape
    work = a.copy()
    thr = singularity_threshold(a)
    remaining = list(range(n))
    chosen = []
    for i in range(m):
        sub = np.abs(work[i:, remaining])
        flat = int(np.argmax(sub))
        ri, ci = divmod(flat, len(remaining))
        if sub[ri, ci] <= thr:
            raise RankDeficient(
                "no nonsingular square head exists: rank < number of rows")
        col = remaining.pop(ci)
        chosen.append(col)
        if ri != 0:
            work[[i, i + ri]] = work[[i + ri, i]]
        work[i + 1:] -= np.outer(work[i + 1:, col] / work[i, col], work[i])
    return chosen + remaining


def column_order(a: np.ndarray, policy: str) -> np.ndarray:
    """The slot -> original column order that ``policy`` picks for a."""
    if policy == POLICY_IDENTITY:
        return np.arange(a.shape[1])
    if policy == POLICY_PIVOT_COLUMNS:
        return np.array(_pivot_column_order(a), dtype=np.intp)
    raise InvalidInput(f"unknown permutation policy: {policy!r}")
