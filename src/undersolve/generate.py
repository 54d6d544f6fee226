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
scale.  These terms keep their size until that entry is zeroed.  So a
round is worth forming only when three lower bounds on the factor's
norms (its column 0, its row 0 and its diagonal, whose entries are all
1 - 1/m) are not all at least 1 + ``BOUND_MARGIN``.  The filter is exact:
a bound that large means the full evaluation, which rounds differently by
far less than the margin, finds c2 >= m in that norm too, so every round
ends as it would without the filter and the output is the same.

No round's bounds need its tail.  Halving a float of at least
``SNAP_THRESHOLD`` is exact, so round k holds an owned entry t as t and
an off-owner one as t 2^-k, with the sign of t, until its snap round, the
first k with |t| 2^-k < ``SNAP_THRESHOLD``, which ``np.frexp`` gives
exactly (``_snap_rounds``); from then on it holds 0.  Each row norm and
each entry of column 0 and row 0 of B~ s(B~) is then an unscaled part
plus 2^-k times a scaled part, each a sum of the terms still alive in
round k.  One ``np.bincount`` per quantity groups the terms by row, scale
and snap round, and suffix sums over the rounds finish them, so every
round's bounds cost O(m) after one pass over the tail (``_round_bounds``).
Only a round those bounds let through is formed (``_halved``, bit for bit
the tail of halving once per round) and checked in full (``_certifies``)
on the tail ``iterate.prepare`` builds, as ``check`` does: its
coordinate form when the round's tail is sparse, as it is once its
off-owner entries have snapped to 0.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, NotUnderdetermined, SolverError
from .iterate import METHOD_GJACOBI, prepare
from .linalg import NORM_KINDS, matrix_norm

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


def _certifies(a):
    """Whether both methods certify the stacked system a = [head, tail]:
    the tail factor c2 = m ||T|| < m holds in some norm (the head factor
    c1 < 1 holds in all of them), for T the map of the tail that
    ``iterate.prepare`` builds, as ``check`` does."""
    m, n = a.shape
    tail_map = prepare(a, np.arange(n), METHOD_GJACOBI).tail.map()
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


_ROUNDS = MAX_HALVINGS + 1      # rounds 0 ... MAX_HALVINGS
_NEVER = _ROUNDS                # the snap round of an entry no round zeroes


def _snap_rounds(size, off_owner):
    """The first round whose tail holds each entry as 0, as int8, from the
    entries' absolute values ``size``.  For an off-owner entry t != 0 it is
    the first k >= 1 with |t| 2^-k < ``SNAP_THRESHOLD``: with |t| = mant 2^e
    and the threshold mant_thr 2^e_thr (mantissas in [1/2, 1)), that is
    k = e - e_thr + (mant >= mant_thr), clipped to [1, ``_NEVER``].  An
    owned entry is never halved (``_NEVER``), and an exact zero is 0."""
    mant, exp = np.frexp(size)
    mant_thr, exp_thr = np.frexp(SNAP_THRESHOLD)
    exp += mant >= mant_thr
    del mant
    exp -= exp_thr
    np.clip(exp, 1, _NEVER, out=exp)
    exp[~off_owner] = _NEVER
    rounds = exp.astype(np.int8)
    rounds[size == 0.0] = 0
    return rounds


def _alive_sums(terms, snap, scaled):
    """The row sums of the m x w ``terms`` over those alive in each round
    k = 0 ... ``MAX_HALVINGS`` (``snap`` > k), as an m x 2 x ``_ROUNDS``
    array: [:, 0] sums the terms with ``scaled`` unset, [:, 1] those with
    it set.  One ``np.bincount`` groups the terms by row, scale and snap
    round, and suffix sums over the snap rounds finish them."""
    m = terms.shape[0]
    bins = _NEVER + 1           # snap rounds 0 ... _NEVER
    key = np.add(np.arange(m)[:, None] * (2 * bins), snap + scaled * np.int8(bins))
    sums = np.bincount(key.ravel(), terms.ravel(), minlength=2 * m * bins)
    del key
    sums = sums.reshape(m, 2, bins)[..., ::-1].cumsum(axis=-1)[..., ::-1]
    return sums[..., 1:]


def _round_bounds(tail, off_owner):
    """Lower bounds on the one-, infinity- and Frobenius norm of the map T
    of ``_halved(tail, off_owner, k)``, for every round
    k = 0 ... ``MAX_HALVINGS``, as three arrays over the rounds: the
    1-norm of T's column 0, the 1-norm of its row 0 and the 2-norm of its
    diagonal, whose entries are all 1 - 1/m, as B~[i, j] sign(B~[i, j])
    sums to ||B~_i||_1.  The first two come from the unscaled and scaled
    parts of the row norms and of B~ s(B~)[:, 0] and B~[0] s(B~); their
    sums are grouped differently from T's own and round differently, by
    far less than ``BOUND_MARGIN``."""
    m = tail.shape[0]
    terms = np.abs(tail)
    snap = _snap_rounds(terms, off_owner)
    norms = _alive_sums(terms, snap, off_owner)
    # a term of B~[i] s(B~[0]) or of B~[0] s(B~[i]) lives while both its
    # entries do, and is scaled with B~[i, j] or with B~[0, j]
    joint = np.minimum(snap, snap[0])
    del snap
    np.multiply(tail, np.sign(tail[0]), out=terms)
    col = _alive_sums(terms, joint, off_owner)
    np.sign(tail, out=terms)
    terms *= tail[0]
    row = _alive_sums(terms, joint, off_owner[0])
    del terms, joint
    scale = 2.0 ** -np.arange(_ROUNDS)
    weights = 1.0 / (m * (norms[:, 0] + scale * norms[:, 1]))
    col0 = (col[:, 0] + scale * col[:, 1]) * -weights[0]
    col0[0] += 1.0
    row0 = (row[:, 0] + scale * row[:, 1]) * -weights
    row0[0] += 1.0
    frobenius = np.full(_ROUNDS, (m - 1) / np.sqrt(m))
    return np.abs(col0).sum(axis=0), np.abs(row0).sum(axis=0), frobenius


def _certified_system(head, tail, off_owner):
    """The system [head, tail] of the first halving round that certifies.
    Every round's bounds come from ``_round_bounds``, and only a round
    they cannot rule out is formed (``_halved``) and checked
    (``_certifies``)."""
    bounds = np.minimum.reduce(_round_bounds(tail, off_owner))
    for halvings in np.flatnonzero(bounds < 1.0 + BOUND_MARGIN):
        a = np.column_stack([head, _halved(tail, off_owner, int(halvings))])
        if _certifies(a):
            return a
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
    # entries bounded away from zero.  rng.choice([-1.0, 1.0]) draws its
    # index by rng.integers(0, 2); drawing the index here gives the same
    # signs without choice's per-call checks
    signs = np.array([-1.0, 1.0])
    for i in range(m):
        size = len(range(i, n - m, m))
        tail[i, i::m] = rng.uniform(0.5, 1.5, size=size) * signs[rng.integers(0, 2, size=size)]
    x_star = rng.uniform(-1.0, 1.0, size=n)
    a = _certified_system(head, tail, np.arange(n - m) % m != np.arange(m)[:, None])
    return a, a @ x_star, x_star
