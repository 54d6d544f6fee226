"""Random test-system generation with known solutions.

``generate_system`` draws a plain random system.  ``generate_certified``
builds one that passes the sufficient convergence conditions for both
generalized methods: a diagonally dominant head block and a tail block
whose rows it drives toward disjoint supports by repeatedly halving (and
eventually zeroing) the off-support entries until the tail-factor bound
certifies.
"""

import numpy as np

from .convergence import check_conditions
from .errors import InvalidInput, NotUnderdetermined, SolverError
from .iterate import GENERALIZED_METHODS
from .partition import partition_system

SNAP_THRESHOLD = 1e-12
MAX_HALVINGS = 60


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


def _certified_both(a, b):
    sys = partition_system(a, b)
    try:
        return all(
            check_conditions(sys, method).overall_certified
            for method in GENERALIZED_METHODS
        )
    except SolverError:
        return False


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
    a = np.column_stack([head, tail])
    x_star = rng.uniform(-1.0, 1.0, size=n)
    b = a @ x_star
    for _ in range(MAX_HALVINGS):
        if _certified_both(a, b):
            return a, b, x_star
        for i in range(m):
            off = np.flatnonzero(owner != i)
            tail[i, off] *= 0.5
            tail[i, off[np.abs(tail[i, off]) < SNAP_THRESHOLD]] = 0.0
        a = np.column_stack([head, tail])
        b = a @ x_star
    if _certified_both(a, b):
        return a, b, x_star
    raise SolverError("failed to certify a generated system")
