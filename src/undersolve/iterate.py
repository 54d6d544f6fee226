"""Stationary iteration: one prepared operator, one driver that advances
the residual and gathers the iterate, and every entry that starts a
solve: ``run`` on (A, b) as given, ``exact_solve`` on its RREF-reduced
system (``rref.reduced_system``).

Every method is a linear stationary iteration built from two
primitives.  ``prepare`` splits A in a column order ``column_perm``
(``partition.column_order``) into a square head B, the first m slots,
and a tail B~, the rest.  A tail holds B~, its signs S = s(B~) and its
weights W = diag of 1 / (m ||B~_i||_1): its update of a residual r is
z = S W r, its residual map T = I - B~ S W.  A ``Head`` holds B and
its splitting H, the diagonal (Jacobi) or the lower triangle
(Gauss-Seidel, by blocked forward substitution): it solves H^-1 v, and
its coupling is C = (B - H) H^-1.  ``prepare`` copies of A only what it keeps.
In slot order (head h = x[:k], tail t = x[k:]) one step from the
residual r = rhs - A x changes the iterate by K r and the residual to M r:

    u = r - B~ z,   delta = H^-1 u,   K r = [delta; z],   M r = u - B delta.

* ``baseline``: a tail alone (the tail is A), so M = T;
* ``gjacobi`` / ``ggs``: a tail, then a Jacobi / Gauss-Seidel head, so
  M = T - B H^-1 T = -C T;
* ``jacobi`` / ``gs``: a head alone (the head is A, so u = r and
  M = I - B H^-1 = -C).

``Operator.map`` forms M, an m x m matrix; ``_drive`` forms it once for
baseline at any m and for the other methods up to ``_FORMED_ROWS``
(64) rows.  Above that a method with a head applies M factored, as above.

The tail is stored in one of two forms, which ``prepare`` alone picks; a
step sees only ``update`` (z = S W r) and ``spread`` (B~ z) and does not
know which.  A tail whose nonzeros are at most 1/8 of its entries, with
or without a head, is a ``CoordinateTail``: its nonzeros, their entries
of S W and W, so each of the two products is one ``np.bincount`` over the
nonzeros, which ``prepare`` gathers from A with no dense copy of B~.
The paper's tail condition makes certified tails that sparse: T's
diagonal is exactly 1 - 1/m, so c2 = m ||T|| < m forces tail rows with
almost disjoint supports.  Every other tail, the dense tails of
RREF-reduced and random systems among them, is a dense ``Tail`` of B~,
S and W.

The loop of ``_drive`` carries only the residual, in blocks of steps.
With M factored a block is one step, r' = ``op.advance(r)``.  With M
formed a block is the next k residuals M r, ..., M^k r (fewer when fewer
iterations are left), made by recursive doubling from M, M^2, M^4, ...
(a matrix-powers kernel: Demmel, Hoemmen, Mohiyuddin & Yelick, IPDPS
2008): one matrix-vector product and log2 k gemms, the flops of k
matrix-vector products.  A solve's first block is 16 residuals, so a
short solve (ggs takes about 11 steps) throws little away; over blocks
the length doubles up to max(64, 8192 // m) residuals (273 at m = 30,
64 from m = 128), so a long one (baseline takes thousands) takes a few
passes.  The powers are squared inside the solve, only as far as a
block needs them, 2 m^3 flops each.  One reduction gives a block's
norms.  Its leading plain steps, those that neither check, stop nor
stagnate, are committed at once (``acc += r + ...``); the first other
step runs through the step's checks, and the rest of the block is thrown
away.  After such a step the next block is no longer than the steps that
pass took, and the length doubles back to the cap over blocks with no
such step.  The iterate is
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
* **stagnation rule**: ``STAGNATION_WINDOW`` (10) consecutive stagnant steps.
  A step is stagnant when its norm is within a relative 1e-14 of the one
  before; a fresh check that fails is also stagnant when the residual is
  at working precision, ||r|| <= u (||A|| ||x|| + ||b||), or repeats one
  of the last ``STAGNATION_WINDOW`` norms (x cycling at its rounding).
  Below the floor every step is a fresh check, so this fires once x
  settles.  A fresh residual of the returned x below epsilon is
  converged, whatever stopped the loop.

``prepare`` splits A, computes the head's and the tail's invariants once
and raises the method's structural errors; the resulting ``Operator`` is
immutable.  One driver loop, behind ``run`` and ``exact_solve``, runs
it.  Neither computes the convergence conditions
(``SolveReport.conditions`` stays None);
``convergence.operator_conditions`` derives them from the head's
coupling C and the tail's map T of the operator that
``run_with_operator`` hands back.
"""

import math
import numbers
import operator
from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    Inconsistent,
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
    NORM_KINDS,
    NORM_ONE,
    as_system,
    as_vector,
    matrix_norm,
    sign_matrix,
    singularity_threshold,
    vector_norm,
)
from .partition import POLICIES, POLICY_IDENTITY, column_order, head_first
from .rref import reduced_system

METHOD_BASELINE = "baseline"
METHOD_GJACOBI = "gjacobi"
METHOD_GGS = "ggs"
METHOD_JACOBI = "jacobi"
METHOD_GS = "gs"

METHODS = (METHOD_BASELINE, METHOD_GJACOBI, METHOD_GGS, METHOD_JACOBI, METHOD_GS)
UNDERDETERMINED_METHODS = (METHOD_BASELINE, METHOD_GJACOBI, METHOD_GGS)
GENERALIZED_METHODS = (METHOD_GJACOBI, METHOD_GGS)
SQUARE_METHODS = (METHOD_JACOBI, METHOD_GS)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_STAGNATED = "stagnated"
STATUS_DIVERGED = "diverged"
STATUS_ERROR = "error"

STATUSES = (STATUS_CONVERGED, STATUS_MAX_ITERATIONS, STATUS_STAGNATED, STATUS_DIVERGED,
            STATUS_ERROR)

DIVERGENCE_FACTOR = 1e12
STAGNATION_REL_CHANGE = 1e-14
STAGNATION_WINDOW = 10
_HEAD_BLOCK = 64        # the most rows of a diagonal block of L that prepare inverts


@dataclass(frozen=True)
class SolverConfig:
    method: str = METHOD_GJACOBI
    epsilon: float = 1e-8
    max_iterations: int = 10000
    residual_norm: str = NORM_ONE
    permutation_policy: str = POLICY_IDENTITY

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInput(f"unknown method: {self.method!r}")
        for name in ("epsilon", "max_iterations"):
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
        try:
            object.__setattr__(self, "max_iterations", operator.index(self.max_iterations))
        except TypeError:
            raise InvalidInput("max_iterations must be an integer") from None
        if self.max_iterations < 1:
            raise InvalidInput("max_iterations must be at least 1")
        if self.residual_norm not in (NORM_ONE, NORM_INF):
            raise InvalidInput("residual norm must be 'one' or 'inf'")
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
class Tail:
    """The tail block B~ in dense form and its sign-matrix update: the
    signs S = s(B~) and the weights W = 1 / (m ||B~_i||_1).  ``prepare``
    keeps a tail so when more than 1/8 of its entries are nonzero."""
    block: np.ndarray
    signs: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, block, norms):
        """The tail of ``block`` from its row 1-norms ``norms``, none zero."""
        return cls(block, sign_matrix(block), 1.0 / (block.shape[0] * norms))

    def update(self, r):
        """z = S W r: the tail's change from the residual r."""
        return self.signs @ (r * self.weights)

    def spread(self, z):
        """B~ z: what the tail change z takes from the residual."""
        return self.block @ z

    def update_norms(self) -> list:
        """The 1-, infinity- and Frobenius norm of S W, the (n - m) x m
        matrix of ``update``, in ``NORM_KINDS`` order."""
        update = self.signs * self.weights
        return [matrix_norm(update, kind) for kind in NORM_KINDS]

    def map(self) -> np.ndarray:
        """T = I - B~ S W, the m x m residual map of one update.  The tail
        factor c2 is m times its norm; it involves no head block."""
        return np.eye(self.block.shape[0]) - (self.block @ self.signs) * self.weights


@dataclass(frozen=True)
class CoordinateTail:
    """The tail block B~ in coordinate form (Saad, Iterative Methods for
    Sparse Linear Systems, 2nd ed., SIAM 2003, section 3.4): its nonzeros
    B~[rows, cols] = values, the weights W of ``Tail`` and, for each
    nonzero, its entry of S W: the sign of its value times its row's
    weight.  ``update`` and ``spread`` each cost one ``np.bincount`` over
    the nonzeros, where the dense form multiplies all m x (n - m)
    entries, and ``update_norms`` and ``map`` work from the nonzeros too.
    ``prepare`` keeps a tail so when its nonzeros are at most 1/8 of its
    entries.  No dense B~ is kept: ``block`` and ``dense`` build one on
    every call."""
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    signed_weights: np.ndarray  # sign(values) * weights[rows]
    weights: np.ndarray
    width: int                  # n - m, the columns of B~

    @classmethod
    def of(cls, rows, cols, values, width, norms):
        """The tail with nonzeros B~[rows, cols] = values in ``width``
        columns, from its row 1-norms ``norms``, none zero."""
        weights = 1.0 / (norms.size * norms)
        return cls(rows, cols, values, np.sign(values) * weights[rows], weights, width)

    @property
    def block(self) -> np.ndarray:
        """B~ as a dense m x (n - m) matrix, built anew on every access."""
        block = np.zeros((self.weights.size, self.width))
        block[self.rows, self.cols] = self.values
        return block

    def update(self, r):
        """z = S W r: the tail's change from the residual r."""
        return np.bincount(self.cols, self.signed_weights * r[self.rows], minlength=self.width)

    def spread(self, z):
        """B~ z: what the tail change z takes from the residual."""
        return np.bincount(self.rows, self.values * z[self.cols], minlength=self.weights.size)

    def dense(self) -> Tail:
        """The same tail in dense form, with the same weights."""
        block = self.block
        return Tail(block, sign_matrix(block), self.weights)

    def update_norms(self) -> list:
        """The norms of S W, as ``Tail.update_norms``, from its nonzeros:
        S W has one per nonzero of B~, so its column sums are sums by
        tail row and its row sums sums by column of B~."""
        size = np.abs(self.signed_weights)
        return [float(np.bincount(self.rows, size, minlength=self.weights.size).max()),
                float(np.bincount(self.cols, size, minlength=self.width).max()),
                float(np.sqrt((size * size).sum()))]

    def map(self) -> np.ndarray:
        """T = I - B~ S W, as ``Tail.map``.  (B~ S)[i, k] sums
        B~[i, j] sign(B~[k, j]) over the columns j where both are nonzero,
        so it is one ``np.bincount`` over the pairs of nonzeros that share
        a column: sum_j c_j^2 pairs for c_j nonzeros in column j.  When
        they outnumber the m x (n - m) entries of B~, the dense product is
        cheaper, and T is formed from ``dense``."""
        m = self.weights.size
        counts = np.bincount(self.cols, minlength=self.width)
        pairs = int(counts @ counts)
        if pairs > m * self.width:
            return self.dense().map()
        # the nonzeros in column order, and their pairs nonzero by nonzero:
        # the pairs of nonzero p in column j start at s_p = sum of per[:p],
        # and its t-th pair's partner is the nonzero first[j] + t.  Signs
        # are gathered as int8, an eighth of the pairs' floats
        order = np.argsort(self.cols, kind="stable")
        rows, values = self.rows[order], self.values[order]
        cols = self.cols[order]
        per = counts[cols]
        first = np.cumsum(counts) - counts
        partner = np.arange(pairs) + np.repeat(first[cols] - (np.cumsum(per) - per), per)
        key = rows[partner]
        key += np.repeat(rows * m, per)
        products = np.repeat(values, per)
        products *= np.sign(values).astype(np.int8)[partner]
        del partner
        product = np.bincount(key, products, minlength=m * m).reshape(m, m)
        return np.eye(m) - product * self.weights


@dataclass(frozen=True)
class Head:
    """The square head block B and its splitting H: the diagonal D for a
    Jacobi sweep, the lower triangle L for a Gauss-Seidel sweep.  No L^-1
    is formed: ``solve`` applies it by blocked forward substitution
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
    2002, section 13.1) from the inverses of L's diagonal blocks of at
    most 64 rows, each with its strict upper triangle exactly 0."""
    block: np.ndarray
    diag: Optional[np.ndarray] = None             # Jacobi: the diagonal of B
    block_inverses: Optional[tuple] = None        # Gauss-Seidel: L's diagonal blocks, inverted

    @classmethod
    def gauss_seidel(cls, block):
        """The Gauss-Seidel head of ``block``, whose diagonal has no zero:
        each diagonal block of L inverted by ``np.linalg.inv``."""
        return cls(block, block_inverses=tuple(
            np.tril(np.linalg.inv(np.tril(block[j:j + _HEAD_BLOCK, j:j + _HEAD_BLOCK])))
            for j in range(0, block.shape[0], _HEAD_BLOCK)))

    def solve(self, v):
        """H^-1 v, for a vector or for every column of a matrix; for
        Gauss-Seidel block by block, x_j = L_jj^-1 (v_j - L[j, :j] x[:j])."""
        if self.diag is not None:
            return (v.T / self.diag).T
        x = np.empty(v.shape)
        for j, inverse in zip(range(0, len(v), _HEAD_BLOCK), self.block_inverses):
            rows = slice(j, j + _HEAD_BLOCK)
            x[rows] = inverse @ (v[rows] - self.block[rows, :j] @ x[:j])
        return x

    def coupling(self) -> np.ndarray:
        """C = (B - H) H^-1 = B H^-1 - I, whose norm is the head factor c1;
        for Gauss-Seidel C solves C L = B - L by block columns from the last,
        C[:, j] = ((B - L)[:, j] - C[:, j+1:] L[j+1:, j]) L_jj^-1."""
        if self.diag is not None:
            return (self.block - np.diag(self.diag)) / self.diag
        c = np.triu(self.block, 1)
        for j, inverse in reversed(list(zip(range(0, len(c), _HEAD_BLOCK), self.block_inverses))):
            cols, after = slice(j, j + _HEAD_BLOCK), j + _HEAD_BLOCK
            c[:, cols] = (c[:, cols] - c[:, after:] @ self.block[after:, cols]) @ inverse
        return c


@dataclass(frozen=True)
class Operator:
    """The one prepared system of a method: a head, a tail or both, built
    once by ``prepare``, and its two maps of a residual r: ``advance``
    (M r, the residual one step later) and ``gain`` (K r, the step's
    change of the iterate); ``map`` forms M itself."""
    method: str
    head: Optional[Head]    # B: the first m slots; None for baseline
    tail: Optional[Union[Tail, CoordinateTail]]   # B~: the other slots; None when none

    def advance(self, r: np.ndarray) -> np.ndarray:
        """M r: the residual one step after the residual r."""
        u = r if self.tail is None else r - self.tail.spread(self.tail.update(r))
        return u if self.head is None else u - self.head.block @ self.head.solve(u)

    def gain(self, s: np.ndarray) -> np.ndarray:
        """K s in slot order: the change of the iterate that a step from
        the residual s makes, [H^-1 u; z] with z = S W s, u = s - B~ z."""
        if self.tail is None:
            return self.head.solve(s)
        z = self.tail.update(s)
        if self.head is None:
            return z
        return np.concatenate((self.head.solve(s - self.tail.spread(z)), z))

    def map(self) -> np.ndarray:
        """M, the m x m matrix of ``advance``: T = ``tail.map()`` for
        baseline, T - B H^-1 T with a head and a tail, I - B H^-1 (that is
        -C) for a head alone."""
        t = np.eye(len(self.head.block)) if self.tail is None else self.tail.map()
        return t if self.head is None else t - self.head.block @ self.head.solve(t)


def prepare(a, column_perm, method: str) -> Operator:
    """Split the m x n matrix a in the column order ``column_perm`` (an
    integer array, or any sequence of column indices that slices) and
    build the operator of ``method``.  The head is the first m slots, the
    tail the rest; baseline has no head, so its tail is all of a, and
    jacobi and gs on a square a have no tail.  a is only read, and the
    operator holds no view of it.  A dense block is taken from a with
    ``np.take``, so it is C-contiguous; ``a[:, perm]`` would be
    Fortran-ordered, and a matrix-vector product can round differently.

    Structural errors are raised in this order: a zero tail row
    (``ZeroRow`` when the head is empty, as for baseline, else
    ``ZeroTailRow``), then a head diagonal entry at or below a threshold
    of 1e-12 times a norm (1e-12 itself when that norm is 0): for Jacobi,
    ||B||_inf of the whole head (``ZeroDiagonal``); for Gauss-Seidel,
    ||L||_inf of its lower triangle (``SingularTriangular``).

    A tail row counts as zero when its 1-norm is at or below 1e-12 times
    that of its row of A, as rounding leaves it after RREF; the update
    would divide by that norm.  Without a head this means exactly zero.

    This is the one place that picks the tail's storage, by its density
    alone.  A tail whose nonzeros are at most 1/8 of its entries becomes a
    ``CoordinateTail``, with or without a head: its nonzeros are found on
    a boolean mask of a's tail columns, their values are gathered from a
    and its row norms are summed from them; no dense B~ or signs are made.
    Every other tail is a dense ``Tail``.
    """
    m = a.shape[0]
    k = 0 if method == METHOD_BASELINE else m
    b_head = np.take(a, column_perm[:k], axis=1)
    abs_head = np.abs(b_head)
    head_norms = abs_head.sum(axis=1)
    # |B| gives the head's row norms and, for Gauss-Seidel, those of its lower
    # triangle, which the diagonal threshold takes; it is dropped before the
    # tail is built
    if method in (METHOD_GGS, METHOD_GS):
        lower_norms = np.tril(abs_head).sum(axis=1)
    del abs_head
    tail_cols = np.asarray(column_perm[k:], dtype=np.intp)
    head = tail = None
    if width := tail_cols.size:
        if (flat := _sparse_entries(a, tail_cols)) is None:
            b_tail = np.take(a, tail_cols, axis=1)
            norms = vector_norm(b_tail, NORM_ONE)
            make_tail = partial(Tail.of, b_tail)
        else:
            rows, cols = divmod(flat, width)
            values = a[rows, tail_cols[cols]]
            norms = np.bincount(rows, np.abs(values), minlength=m)
            make_tail = partial(CoordinateTail.of, rows, cols, values, width)
        if np.any(norms <= 1e-12 * (norms + head_norms)):
            if k:
                raise ZeroTailRow("tail block has a zero row")
            raise ZeroRow("matrix has an all-zero row")
        tail = make_tail(norms)
    if method in (METHOD_GJACOBI, METHOD_JACOBI):
        diag = np.diag(b_head)
        if np.any(np.abs(diag) <= singularity_threshold(head_norms)):
            raise ZeroDiagonal("head block has a zero diagonal entry")
        head = Head(b_head, diag=diag)
    elif method in (METHOD_GGS, METHOD_GS):
        if np.any(np.abs(np.diag(b_head)) <= singularity_threshold(lower_norms)):
            raise SingularTriangular("head block has a zero diagonal entry")
        head = Head.gauss_seidel(b_head)
    return Operator(method, head, tail)


_SPARSE_SHARE = 8   # a tail with at most 1/8 of its entries nonzero is kept in coordinate form


def _sparse_entries(a, cols):
    """The flat indices of the nonzeros of a[:, cols], in row-major order,
    when they are at most 1/``_SPARSE_SHARE`` of its entries; else None.
    They come from a boolean mask of a, with no float copy of the columns;
    ``np.flatnonzero`` of the floats takes about ten times as long.  When
    the columns are one ascending run, as in the identity order, only that
    slice of a is compared."""
    first = int(cols[0])
    if np.array_equal(cols, np.arange(first, first + cols.size)):
        nonzero = a[:, first:first + cols.size] != 0
    else:
        nonzero = np.take(a != 0, cols, axis=1)
    if _SPARSE_SHARE * np.count_nonzero(nonzero) > nonzero.size:
        return None
    return np.flatnonzero(nonzero)


# A method with a head forms M, and steps in blocks, when m is at most
# _FORMED_ROWS; above it M stays factored.  Measured crossover, time of
# ten build_system solves (n = 4m, one BLAS thread) formed / factored:
# gjacobi 0.51 at m = 30, 0.60 at 64, 0.96 at 96, 1.19 at 128; jacobi on
# the head 0.57, 0.69, 0.97, 2.07; ggs and gs (about 11 steps) 0.92-1.18
# over four runs at 30, 1.07-1.08 at 64, 1.12-1.15 at 96, 1.45 and 1.90
# at 128.  At 200 x 800 every method is 2-3x slower formed.
_FORMED_ROWS = 64
_FIRST_BLOCK = 16           # the residuals in a solve's first block
# a block holds at most max(_BLOCK, _BLOCK_ENTRIES // m) residuals, of m entries each
_BLOCK = 64
_BLOCK_ENTRIES = 1 << 13


def _residual_block(powers, r, k):
    """M r, M^2 r, ..., M^k r as the rows of a k x m array, by recursive
    doubling: rows [h, 2h) are rows [0, h) times (M^h)^T, one gemm on a
    transposed view.  ``powers`` holds M, M^2, M^4, ...; each new power is
    the square of the last, appended in place only when k needs it."""
    rows = np.empty((k, r.size))
    rows[0] = powers[0] @ r
    for j in range((k - 1).bit_length()):
        h = 1 << j
        if j == len(powers):
            powers.append(powers[-1] @ powers[-1])
        np.matmul(rows[:min(h, k - h)], powers[j].T, out=rows[h:min(2 * h, k)])
    return rows


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
    """The one driver loop, behind ``run`` and ``exact_solve``; returns
    the report and the prepared operator (None when none was prepared).

    The loop advances the residual alone and gathers the iterate, in the
    slot order of ``column_perm``, at a fresh check and at the end (see the
    module docstring for the refresh and stagnation rules).  Residuals
    keep the rows of (a, b), so their norms do not depend on the
    permutation policy.  x0 is tested before the operator is prepared: an
    x0 that already meets epsilon converges in zero iterations even on a
    system the method rejects.

    M (``op.map()``) is formed here, once, for baseline at any m and for
    a method with a head when m is at most ``_FORMED_ROWS``; then each
    pass advances a block of residuals (module docstring).  Baseline's T
    is an m x n x m product that costs about m/2 of the steps it
    replaces.  Its diagonal is 1 - 1/m, so rho(T) >= 1 - 1/m and a solve
    runs at least about m ln(||r_0|| / epsilon) steps, at 2 m^2 flops
    each.  With a head, M adds about 2 m^3 flops, which the Python of a
    dozen single steps outweighs up to that size; above it M stays
    factored and a pass is one step.  The loop squares M as far as its
    blocks need, 2 m^3 flops each time.
    """
    generalized = config.method in GENERALIZED_METHODS
    perm = np.asarray(column_perm, dtype=np.intp)
    kind = config.residual_norm
    m = a.shape[0]
    r = b - a @ x0 if x0.any() else b.copy()
    history = [vector_norm(r, kind)]
    report = partial(SolveReport, residual_norms=history, config=config,
                     column_perm=tuple(perm.tolist()) if generalized else None)
    if history[0] < config.epsilon:
        return report(status=STATUS_CONVERGED, solution=x0, iterations=0), None
    try:
        op = prepare(a, perm, config.method)
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
    # M, M^2, M^4, ..., squared as blocks need them; None when M stays factored
    powers = [op.map()] if op.head is None or m <= _FORMED_ROWS else None
    size, cap = _FIRST_BLOCK, max(_BLOCK, _BLOCK_ENTRIES // m)
    stagnant = 0
    status = STATUS_MAX_ITERATIONS
    while (left := config.max_iterations + 1 - len(history)) > 0:
        if powers is None:
            block, plain = op.advance(r)[np.newaxis], 0
            norms = vector_norm(block, kind)
        else:
            # rows after the first event may overflow; they are thrown away
            with np.errstate(over="ignore", invalid="ignore"):
                block = _residual_block(powers, r, min(size, left))
                norms = vector_norm(block, kind)
                plain = _plain_steps(norms, history[-1], refresh_below, ceiling)
        if plain:
            # neither checked nor stopped: commit the plain steps in bulk
            history.extend(norms[:plain].tolist())
            acc += r
            acc += block[:plain - 1].sum(axis=0)
            r, pending, stagnant = block[plain - 1], True, 0
            if plain == len(block):
                size = min(2 * size, cap)
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
                    for h in history[-STAGNATION_WINDOW:])
        history.append(norm)
        if not math.isfinite(norm) or norm > ceiling:
            status = STATUS_DIVERGED
            break
        if norm < config.epsilon:
            status = STATUS_CONVERGED
            break
        if settled or abs(norm - history[-2]) < STAGNATION_REL_CHANGE * max(history[-2], 1e-300):
            stagnant += 1
            if stagnant >= STAGNATION_WINDOW:
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


def _start(x0, n):
    """The validated start vector of n entries; zeros when x0 is None."""
    x0 = as_vector(x0) if x0 is not None else np.zeros(n)
    if x0.shape != (n,):
        raise DimensionMismatch("x0 length must equal the number of columns")
    return x0


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
    x0 = _start(x0, n)
    if config.method in UNDERDETERMINED_METHODS and m >= n:
        raise NotUnderdetermined("method requires m < n")
    if config.method in SQUARE_METHODS and m != n:
        raise DimensionMismatch("classical methods require a square matrix")

    # SolverConfig leaves the identity order to all but the generalized methods
    return _drive(a, b, column_order(a, config.permutation_policy), x0, config)


def exact_solve(a, b, x0=None, config: SolverConfig = None) -> SolveReport:
    """Reduce (a, b) to RREF and run a generalized method on the reduced
    system, whose pivot-led head block is the identity.

    Inconsistent systems yield a report with status "error" and error
    kind "inconsistent".  Rank-deficient consistent systems are handled
    by dropping zero rows before partitioning.  The partition is always
    the pivot columns, so a ``permutation_policy`` other than
    ``identity`` raises ``InvalidInput``.
    """
    return solve_reduced(reduced_system(a, b), x0, config)[0]


def solve_reduced(reduction, x0=None, config: SolverConfig = None):
    """Run a generalized method on the output of ``rref.reduced_system``,
    partitioned into its pivot columns (the head) and free columns.

    Returns the report and the prepared operator, as
    ``run_with_operator`` does."""
    result, a_bar, b_bar = reduction
    n = a_bar.shape[1]
    if config is None:
        config = SolverConfig()
    if config.method not in GENERALIZED_METHODS:
        raise InvalidInput("exact solve supports the generalized methods only")
    if config.permutation_policy != POLICY_IDENTITY:
        raise InvalidInput("exact solve always partitions on the pivot columns of its "
                           "reduced system and takes no permutation policy, "
                           f"got {config.permutation_policy!r}")
    x0 = _start(x0, n)
    if not result.consistent:
        return SolveReport(status=STATUS_ERROR, solution=x0, iterations=0, residual_norms=[],
                           config=config, error=Inconsistent.kind), None
    return _drive(a_bar, b_bar, head_first(result.pivot_columns, n), x0, config)
