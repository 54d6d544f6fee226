"""Random test-system generation with known solutions.

``generate_system`` draws a plain random system.  ``generate_certified``
builds one that passes the sufficient convergence conditions for both
generalized methods: a diagonally dominant head block and a tail block
whose rows it drives toward disjoint supports by repeatedly halving (and
eventually zeroing) the off-support entries until the tail-factor bound
certifies.  Each round evaluates only the tail factor c2, once for both
methods: the head factor c1 < 1 holds by construction.  The head's
diagonal is at least 3/4 and its other entries at most 1/(4m) in size, so
c1 = ||(B - D) D^-1|| < 1/3 (Jacobi) in every norm; for Gauss-Seidel,
B = L + U with ||U|| < 1/4 and ||L^-1|| <= 2 in the 1- and infinity-norm,
so c1 <= ||U|| ||L^-1|| < 1/2, and ||U||_F ||L^-1||_2 < 0.36.

Halving rarely certifies before the off-support entries snap to 0.  For
k != i, entry (i, k) of the tail factor's matrix I - B~ s(B~) N^-1 / m
holds, for each column j that row i owns, the term
B~[i, j] sign(B~[k, j]) / (m ||B~_k||_1): an owned entry, never halved,
times the sign of an off-support entry of row k, which does not depend on
scale.  These terms keep their size until that entry is zeroed.  Each
round therefore first computes three lower bounds on the factor's norms
(row 0 and column 0 by one matrix-vector product each; the diagonal's
entries are all 1 - 1/m) and skips the full matrix product when all
three are at least 1 + ``BOUND_MARGIN``.  The filter is exact: a bound
that large means the full evaluation, which rounds differently by far
less than the margin, finds c2 >= m in that norm too, so every round
ends as it would without the filter and the output is the same.

Until the first round that snaps an entry, no round needs the tail
itself.  Halving is exact there, so round k's tail is the owned part O
plus 2^-k times the off-owner part F, its signs are those of the first
tail, and its row norms and the two bounds are each a part from O plus
2^-k times a part from F.  ``_presnap_rounds`` forms those parts once,
and each such round costs O(m); a round the filter lets through is
formed in closed form (``_halved``) and checked in full.  From the first
snap on, the rounds run as before, on the closed-form tail of that
round.
"""

import numpy as np

from .errors import InvalidInput, NotUnderdetermined, SolverError
from .iterate import Tail
from .linalg import NORM_KINDS, NORM_ONE, matrix_norm, vector_norm

SNAP_THRESHOLD = 1e-12
MAX_HALVINGS = 60
# a lower bound this far above 1 rules out c2 < m whatever the rounding
BOUND_MARGIN = 1e-9


def _require_shape(m: int, n: int):
    if m < 1:
        raise InvalidInput("generation requires at least one row")
    if m >= n:
        raise NotUnderdetermined("generation requires m < n")


def generate_system(m: int, n: int, rng: np.random.Generator):
    """Random m x n system with known solution: b = A @ x_star."""
    _require_shape(m, n)
    a = rng.uniform(-10.0, 10.0, size=(m, n))
    x_star = rng.uniform(-1.0, 1.0, size=n)
    return a, a @ x_star, x_star


def _tail_lower_bounds(tail):
    """Lower bounds on the one-, infinity- and Frobenius-norm of
    ``tail.map()``, in ``NORM_KINDS`` order: the 1-norm of its column 0,
    the 1-norm of its row 0 and the 2-norm of its diagonal, without
    forming the matrix.  Each diagonal entry is 1 - 1/m, as
    B~[i, j] sign(B~[i, j]) sums to ||B~_i||_1."""
    block, signs, weights = tail.block, tail.signs, tail.weights
    m = block.shape[0]
    col0 = (block @ signs[:, 0]) * -weights[0]
    col0[0] += 1.0
    row0 = (block[0] @ signs) * -weights
    row0[0] += 1.0
    return np.abs(col0).sum(), np.abs(row0).sum(), (m - 1) / np.sqrt(m)


def _certifies(block):
    """Whether both methods certify: the tail factor c2 < m holds in some
    norm (the head factor c1 < 1 holds in all of them)."""
    m = block.shape[0]
    tail = Tail.of(block, vector_norm(block, NORM_ONE))
    if min(_tail_lower_bounds(tail)) >= 1.0 + BOUND_MARGIN:
        return False
    tail_map = tail.map()
    return any(m * matrix_norm(tail_map, kind) < m for kind in NORM_KINDS)


def _halved(tail, off_owner, halvings):
    """The tail after ``halvings`` rounds, each of which halves the
    off-owner entries and then snaps those below ``SNAP_THRESHOLD`` to 0.
    Halving a float that large is exact, so an entry t is t 2^-k after k
    rounds, or 0 once t 2^-k < ``SNAP_THRESHOLD``: one scaling by 2^-k
    and one snap leave the rounds' bits."""
    block = tail.copy()
    if halvings:
        np.multiply(block, 2.0 ** -halvings, out=block, where=off_owner)
        block[off_owner & (np.abs(block) < SNAP_THRESHOLD)] = 0.0
    return block


def _presnap_rounds(tail, off_owner):
    """The first round that snaps an off-owner entry of ``tail`` to 0
    (``MAX_HALVINGS + 1`` when none does), and ``_tail_lower_bounds`` of
    ``_halved(tail, off_owner, k)`` as a function of any earlier round k.
    Before that round the signs are those of ``tail``, and each row norm
    and each entry of block @ signs[:, 0] and block[0] @ signs is an owned
    part plus 2^-k times an off-owner part, so a round costs O(m).  The
    sums are grouped differently from ``_tail_lower_bounds`` and round
    differently, by far less than ``BOUND_MARGIN``."""
    m = tail.shape[0]
    off = np.where(off_owner, tail, 0.0)
    owned = tail - off
    signs = np.sign(tail)
    off_size = np.abs(off)
    norms_o, norms_f = np.abs(owned).sum(axis=1), off_size.sum(axis=1)
    col_o, col_f = owned @ signs[0], off @ signs[0]
    row_o, row_f = signs @ owned[0], signs @ off[0]
    frobenius = (m - 1) / np.sqrt(m)

    def bounds(halvings):
        scale = 2.0 ** -halvings
        weights = 1.0 / (m * (norms_o + scale * norms_f))
        col0 = (col_o + scale * col_f) * -weights[0]
        col0[0] += 1.0
        row0 = (row_o + scale * row_f) * -weights
        row0[0] += 1.0
        return np.abs(col0).sum(), np.abs(row0).sum(), frobenius

    smallest = off_size.min(where=off_size > 0, initial=np.inf)
    first_snap = 1
    while first_snap <= MAX_HALVINGS and smallest * 2.0 ** -first_snap >= SNAP_THRESHOLD:
        first_snap += 1
    return first_snap, bounds


def _certified_tail(tail, off_owner):
    """The tail of the first halving round that certifies.  Rounds before
    the first snap are filtered by their O(m) bounds and only those the
    filter lets through are formed and checked; from the first snap on,
    each round is formed from the one before and checked."""
    first_snap, bounds = _presnap_rounds(tail, off_owner)
    for halvings in range(min(first_snap, MAX_HALVINGS + 1)):
        if min(bounds(halvings)) < 1.0 + BOUND_MARGIN:
            block = _halved(tail, off_owner, halvings)
            if _certifies(block):
                return block
    block = _halved(tail, off_owner, first_snap)
    for _ in range(first_snap, MAX_HALVINGS + 1):
        if _certifies(block):
            return block
        np.multiply(block, 0.5, out=block, where=off_owner)
        block[off_owner & (np.abs(block) < SNAP_THRESHOLD)] = 0.0
    raise SolverError("failed to certify a generated system")


def generate_certified(m: int, n: int, rng: np.random.Generator):
    """Random system certified for both generalized methods.

    Requires n >= 2m so every tail row can own at least one column; with
    fewer tail columns the tail-factor bound cannot drop below m.
    """
    _require_shape(m, n)
    if n < 2 * m:
        raise InvalidInput("certified generation requires n >= 2 * m")
    head = np.diag(rng.uniform(1.0, 2.0, size=m)) + \
        rng.uniform(-0.5, 0.5, size=(m, m)) / (2 * m)
    tail = rng.uniform(-1.0, 1.0, size=(m, n - m))
    # each tail row owns a round-robin share of the columns; keep those
    # entries bounded away from zero
    owner = np.arange(n - m) % m
    for i in range(m):
        cols = np.flatnonzero(owner == i)
        tail[i, cols] = rng.uniform(0.5, 1.5, size=cols.size) * \
            rng.choice([-1.0, 1.0], size=cols.size)
    x_star = rng.uniform(-1.0, 1.0, size=n)
    tail = _certified_tail(tail, owner != np.arange(m)[:, None])
    a = np.column_stack([head, tail])
    return a, a @ x_star, x_star
