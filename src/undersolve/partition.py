"""Splitting an m x n system (m < n) into a square head block and a tail block.

A partition is a column order and nothing else: ``column_perm`` lists
the original column of every slot, the first m slots form the head and
the remaining n - m the tail.  Iterates are full vectors in original
column order; a solve gathers x[column_perm] into slot order and
scatters its result back, so residuals are always measured in original
order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotUnderdetermined, RankDeficient
from .linalg import as_matrix, as_vector, singularity_threshold

POLICY_IDENTITY = "identity"
POLICY_PIVOT_COLUMNS = "pivot-columns"

POLICIES = (POLICY_IDENTITY, POLICY_PIVOT_COLUMNS)


@dataclass(frozen=True)
class PartitionedSystem:
    b_head: np.ndarray    # m x m
    b_tail: np.ndarray    # m x (n - m)
    rhs: np.ndarray       # m
    column_perm: tuple    # slot -> original column index
    m: int
    n: int


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


def _column_order(a: np.ndarray, policy: str) -> np.ndarray:
    """The slot -> original column order that ``policy`` picks for a."""
    if policy == POLICY_IDENTITY:
        return np.arange(a.shape[1])
    if policy == POLICY_PIVOT_COLUMNS:
        return np.array(_pivot_column_order(a), dtype=np.intp)
    raise InvalidInput(f"unknown permutation policy: {policy!r}")


def partition_system(a, b, policy: str = POLICY_IDENTITY) -> PartitionedSystem:
    """Split (a, b) into head/tail blocks under the given column policy."""
    a = as_matrix(a)
    b = as_vector(b)
    m, n = a.shape
    if b.shape != (m,):
        raise DimensionMismatch("rhs length must equal the number of rows")
    if m >= n:
        raise NotUnderdetermined(
            f"system must have more unknowns than equations (m={m}, n={n})")
    return split_system(a, b, _column_order(a, policy), m)


def split_system(a, b, perm, head_size: int) -> PartitionedSystem:
    """Blocks of a in the column order ``perm``: the first ``head_size``
    columns form the head, the rest the tail.  A head of 0 columns or a
    tail of 0 columns is allowed; ``m`` is always the number of rows.

    Each block is taken from a directly, so a is copied once.  ``np.take``
    returns C-contiguous blocks; ``a[:, perm]`` would be Fortran-ordered,
    and a matrix-vector product can round differently on it."""
    perm = np.asarray(perm, dtype=np.intp)
    return PartitionedSystem(
        b_head=np.take(a, perm[:head_size], axis=1),
        b_tail=np.take(a, perm[head_size:], axis=1),
        rhs=b.copy(),
        column_perm=tuple(perm.tolist()),
        m=a.shape[0],
        n=a.shape[1],
    )
