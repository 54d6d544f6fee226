"""Splitting an m x n system (m < n) into a square head block and a tail block.

The head block is the leading m x m submatrix after an optional column
permutation; the tail holds the remaining n - m columns.  ``column_perm``
maps head/tail slots back to original column indices, so iterates can
always be reported (and residuals measured) in original column order.
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


@dataclass(frozen=True)
class SplitIterate:
    head: np.ndarray
    tail: np.ndarray


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
        for r in range(i + 1, m):
            factor = work[r, col] / work[i, col]
            work[r] -= factor * work[i]
    return chosen + remaining


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
    if policy == POLICY_IDENTITY:
        perm = list(range(n))
    elif policy == POLICY_PIVOT_COLUMNS:
        perm = _pivot_column_order(a)
    else:
        raise InvalidInput(f"unknown permutation policy: {policy!r}")
    return split_system(a, b, perm, m)


def split_system(a, b, perm, head_size: int) -> PartitionedSystem:
    """Blocks of a[:, perm]: the first ``head_size`` columns form the head,
    the rest the tail.  A head of 0 columns or a tail of 0 columns is
    allowed; ``m`` is always the number of rows."""
    perm = list(perm)
    permuted = a[:, perm]
    return PartitionedSystem(
        b_head=permuted[:, :head_size].copy(),
        b_tail=permuted[:, head_size:].copy(),
        rhs=b.copy(),
        column_perm=tuple(perm),
        m=a.shape[0],
        n=a.shape[1],
    )


def assemble(x: SplitIterate, perm) -> np.ndarray:
    """Merge head and tail back into a full vector in ORIGINAL column order."""
    perm = np.asarray(perm, dtype=np.intp)
    if len(x.head) + len(x.tail) != len(perm):
        raise DimensionMismatch("head + tail length must match the permutation")
    full = np.empty(len(perm))
    full[perm] = np.concatenate([x.head, x.tail])
    return full


def disassemble(x, perm, m: int) -> SplitIterate:
    """Split a full vector (original column order) into head/tail slots."""
    x = as_vector(x)
    perm = np.asarray(perm, dtype=np.intp)
    if x.shape != perm.shape:
        raise DimensionMismatch("vector length must match the permutation")
    if not 0 <= m <= len(perm):
        raise DimensionMismatch("head size out of range")
    stacked = x[perm]
    return SplitIterate(head=stacked[:m], tail=stacked[m:])
