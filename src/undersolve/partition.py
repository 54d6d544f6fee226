"""Column-order policies for the split A = [B B~] of an m x n system.

The generalized methods split A into a square head block B and a tail
block B~.  That split is a column order and nothing else:
``column_order`` lists the original column of every slot, and
``iterate.prepare`` takes the first m slots as the head and the rest as
the tail.  Iterates are full vectors in original column order; a solve
gathers x[column_perm] into slot order and scatters its result back, so
residuals are always measured in original order.

The pivot-columns policy heads the order with the pivot columns of A's
RREF, the partition ``iterate.exact_solve`` uses: A's own head whenever its
leading m columns are independent.
"""

import numpy as np

from .errors import InvalidInput, RankDeficient
from .rref import rref

POLICY_IDENTITY = "identity"
POLICY_PIVOT_COLUMNS = "pivot-columns"

POLICIES = (POLICY_IDENTITY, POLICY_PIVOT_COLUMNS)


def head_first(head, n: int) -> np.ndarray:
    """The slot order of n columns: ``head``, then the rest ascending."""
    head = np.asarray(head, dtype=np.intp)
    return np.concatenate((head, np.setdiff1d(np.arange(n), head)))


def column_order(a: np.ndarray, policy: str) -> np.ndarray:
    """The slot -> original column order that ``policy`` picks for a.

    Pivot columns raise ``RankDeficient`` when rank(a) < m, as decided by
    ``rref.rref``'s zero threshold."""
    if policy == POLICY_IDENTITY:
        return np.arange(a.shape[1])
    if policy == POLICY_PIVOT_COLUMNS:
        result = rref(a)
        if result.rank < a.shape[0]:
            raise RankDeficient(
                "no nonsingular square head exists: rank < number of rows")
        return head_first(result.pivot_columns, a.shape[1])
    raise InvalidInput(f"unknown permutation policy: {policy!r}")
