"""Metamorphic relations of the iteration: transformations of (A, b, x0)
whose effect on the iterates follows from the step's formulas alone, so
they need no oracle.  Each test runs a fixed number of steps through
``run`` and compares the iterates of a system and of its transform.

Three families of systems are drawn with equal shares: ``build`` (the
benchmark's certified system, whose tail has one nonzero per column, so
at most 1/8 of it is nonzero once m >= 8), ``certified``
(``generate_certified``) and ``padded``: a ``build`` system with a zero
column among its first m, which the generalized methods split on its
pivot columns, a slot order other than the identity.  m is drawn from
2-7 and from 8-12 with equal shares, so about a sixth of the draws
prepare a coordinate-form tail; ``test_the_draws_reach_every_split``
checks on fixed draws that both tail forms and a permuted slot order are
prepared.

* **signed row scaling** (D A, D b): sign(d_i B~_i) = sign(d_i) s(B~_i)
  and the weight divides by |d_i|, so the tail update z is unchanged; H
  scales with D, so the head sweep is unchanged too;
* **tail column permutation**, with x0 permuted alike, permutes the
  iterates alike (for baseline every column is a tail column); not on
  ``padded`` systems, whose pivot columns such a permutation can move;
* **null-space shift**: x0 + v with A v = 0 shifts every iterate by v;
* **linearity**: an iterate is linear in (b, x0);
* **symmetric head permutation** (P B P^T, P B~, P b): the diagonal moves
  with the rows, so gjacobi and baseline iterates are permuted alike.
  Gauss-Seidel's lower triangle does not move with them, which makes ggs
  the negative control.  Not on ``padded`` systems either;
* **formed and factored M**: at these sizes every method forms its
  residual map M and steps in blocks; with the row limit set to 0, a
  method with a head applies M factored, one step a pass.  Both solve
  with the same status and iteration count, and their solutions agree to
  rounding.  Also on the benchmark's 30 x 120 system, with jacobi and gs
  on its head.

The tolerance is fixed by the unit roundoff u, the step count and the
system, not by measured runs.  One step makes at most four chained
products of inner length at most n (S W r, B~ z, H^-1 u, B delta), each
accurate to about n u of the product of the absolute values, and the
solve adds two more: the start residual b - A x0 and the gather
x0 + K acc.  On these systems the head is diagonally dominant with a
diagonal of at least 1 and the tail update divides by m times a row
norm, so |K| |A| has entries of order 1 and each rounding reaches the
iterate at about the size of the iterates.  Over ``STEPS`` steps (or the steps a solve took):

    |x - x'| <= 4 (STEPS + 2) n u kappa scale,

with scale the sum of the largest entries of the start vectors and
iterates compared, and kappa = kappa_inf(L) of the head's lower triangle
(of the first m nonzero columns, the pivot columns of a padded system)
for ggs and gs, which apply their head as a formed L^-1 whose rounding
grows with kappa(L) (the larger of the two systems'), and 1 otherwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve import iterate
from undersolve.generate import generate_certified
from undersolve.iterate import CoordinateTail, SolverConfig, Tail, run

STEPS = 7
UNIT = np.finfo(float).eps / 2
METHODS = ("gjacobi", "ggs", "baseline")
NORMS = ("one", "inf")
FAMILIES = ("build", "certified", "padded")
HEAD_OFF_DIAGONAL_MASS = 0.9    # build_system's off-diagonal mass of a head row


def _build_system(m, n, rng):
    """The benchmark's certified system: head diagonal U(1, 2) plus
    non-negative off-diagonal U(0, 1.8/m); one signed U(0.5, 1.5) tail
    entry per column, rows assigned round-robin; b = A x*."""
    head = rng.uniform(0.0, 2.0 * HEAD_OFF_DIAGONAL_MASS / m, size=(m, m))
    np.fill_diagonal(head, rng.uniform(1.0, 2.0, size=m))
    cols = np.arange(n - m)
    tail = np.zeros((m, n - m))
    tail[cols % m, cols] = rng.uniform(0.5, 1.5, size=n - m) * rng.choice([-1.0, 1.0],
                                                                          size=n - m)
    a = np.hstack([head, tail])
    return a, a @ rng.uniform(-1.0, 1.0, size=n)


def _system(family, seed, m, extra):
    """(rng, a, b, x0) of an m x n system of ``family``: ``build`` is
    build_system's with n = 4m, ``certified`` generate_certified's with
    n = 2m + extra, ``padded`` build's with a zero column inserted at one
    of the positions 0..m-1, so n = 4m + 1."""
    rng = np.random.default_rng(seed)
    if family == "certified":
        a, b, _ = generate_certified(m, 2 * m + extra, rng)
    else:
        a, b = _build_system(m, 4 * m, rng)
        if family == "padded":
            a = np.insert(a, rng.integers(m), 0.0, axis=1)
    return rng, a, b, rng.uniform(-1.0, 1.0, size=a.shape[1])


def _iterate(a, b, x0, method, norm):
    """The iterate after ``STEPS`` steps: epsilon is too small to stop on.
    A generalized method splits a system with a zero column (``padded``)
    on its pivot columns, and any other system in its own order."""
    padded = not np.all(np.any(a, axis=0))
    policy = "pivot-columns" if padded and method != "baseline" else "identity"
    config = SolverConfig(method=method, epsilon=1e-300, max_iterations=STEPS,
                          residual_norm=norm, permutation_policy=policy)
    return run(a, b, x0, config).solution


def _tolerance(method, systems, *vectors, steps=STEPS):
    n = systems[0].shape[1]
    kappa = 1.0
    if method in ("ggs", "gs"):
        m = systems[0].shape[0]
        kappa = max(np.linalg.cond(np.tril(a[:, np.flatnonzero(np.any(a, axis=0))[:m]]), np.inf)
                    for a in systems)
    scale = sum(np.abs(v).max() for v in vectors)
    return 4 * (steps + 2) * n * UNIT * kappa * scale


_cases = dict(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FAMILIES),
              m=st.one_of(st.integers(2, 7), st.integers(8, 12)), extra=st.integers(0, 2 * 8),
              method=st.sampled_from(METHODS), norm=st.sampled_from(NORMS))
_unpadded = {**_cases, "family": st.sampled_from(("build", "certified"))}


def test_the_draws_reach_every_split(monkeypatch):
    # fixed draws of _cases: both tail forms, each with both generalized
    # methods, and a pivot-columns order that is not the identity
    prepared = []

    def recording(a, column_perm, method):
        op = prepare(a, column_perm, method)
        identity = np.array_equal(column_perm, np.arange(a.shape[1]))
        prepared.append((method, type(op.tail), identity))
        return op

    prepare = iterate.prepare
    monkeypatch.setattr(iterate, "prepare", recording)
    for family in FAMILIES:
        for m in (4, 10):
            for method in METHODS:
                _, a, b, x0 = _system(family, 0, m, 4)
                _iterate(a, b, x0, method, "one")
    for method in ("gjacobi", "ggs"):
        assert (method, CoordinateTail, True) in prepared
        assert (method, CoordinateTail, False) in prepared
        assert (method, Tail, True) in prepared
    assert ("baseline", Tail, True) in prepared


@settings(max_examples=40, deadline=None)
@given(**_cases)
def test_signed_row_scaling_keeps_the_iterates(seed, family, m, extra, method, norm):
    rng, a, b, x0 = _system(family, seed, m, extra)
    d = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(-2.0, 2.0, size=m)
    x = _iterate(a, b, x0, method, norm)
    scaled = _iterate(d[:, np.newaxis] * a, d * b, x0, method, norm)
    tol = _tolerance(method, (a, d[:, np.newaxis] * a), x0, x, scaled)
    assert np.abs(scaled - x).max() <= tol


@settings(max_examples=40, deadline=None)
@given(**_unpadded)
def test_tail_column_permutation_permutes_the_iterates(seed, family, m, extra, method, norm):
    rng, a, b, x0 = _system(family, seed, m, extra)
    n = a.shape[1]
    if method == "baseline":
        perm = rng.permutation(n)
    else:
        perm = np.concatenate((np.arange(m), m + rng.permutation(n - m)))
    x = _iterate(a, b, x0, method, norm)
    permuted = _iterate(a[:, perm], b, x0[perm], method, norm)
    assert np.abs(permuted - x[perm]).max() <= _tolerance(method, (a,), x0, x, permuted)


@settings(max_examples=40, deadline=None)
@given(**_cases)
def test_null_space_shift_of_x0_shifts_the_iterates(seed, family, m, extra, method, norm):
    rng, a, b, x0 = _system(family, seed, m, extra)
    null_basis = np.linalg.svd(a)[2][m:]          # rows span the null space of a
    v = rng.uniform(-1.0, 1.0, size=null_basis.shape[0]) @ null_basis
    x = _iterate(a, b, x0, method, norm)
    shifted = _iterate(a, b, x0 + v, method, norm)
    tol = _tolerance(method, (a,), x0, v, x, shifted)
    assert np.abs(shifted - (x + v)).max() <= tol


@settings(max_examples=40, deadline=None)
@given(**_cases)
def test_iterates_are_linear_in_b_and_x0(seed, family, m, extra, method, norm):
    rng, a, b, x0 = _system(family, seed, m, extra)
    b2 = rng.uniform(-5.0, 5.0, size=m)
    x02 = rng.uniform(-1.0, 1.0, size=a.shape[1])
    alpha, beta = rng.uniform(-2.0, 2.0, size=2)
    x = _iterate(a, b, x0, method, norm)
    x2 = _iterate(a, b2, x02, method, norm)
    combined = _iterate(a, alpha * b + beta * b2, alpha * x0 + beta * x02, method, norm)
    tol = _tolerance(method, (a,), alpha * x0, alpha * x, beta * x02, beta * x2,
                     alpha * x0 + beta * x02, combined)
    assert np.abs(combined - (alpha * x + beta * x2)).max() <= tol


def _head_permuted(a, b, x0, p):
    """(P B P^T | P B~, P b, x0 with its head permuted by P) and the
    column order q with x'[...] = x[q]."""
    m, n = a.shape
    q = np.concatenate((p, np.arange(m, n)))
    return a[p][:, q], b[p], x0[q], q


@settings(max_examples=40, deadline=None)
@given(**{**_unpadded, "method": st.sampled_from(("gjacobi", "baseline"))})
def test_symmetric_head_permutation_permutes_the_iterates(seed, family, m, extra, method,
                                                          norm):
    rng, a, b, x0 = _system(family, seed, m, extra)
    a2, b2, x02, q = _head_permuted(a, b, x0, rng.permutation(m))
    x = _iterate(a, b, x0, method, norm)
    permuted = _iterate(a2, b2, x02, method, norm)
    assert np.abs(permuted - x[q]).max() <= _tolerance(method, (a, a2), x0, x, permuted)


def test_symmetric_head_permutation_moves_ggs_far_beyond_the_tolerance():
    # the negative control: reversing the head turns its lower triangle
    # into its upper one, so a relation that held for ggs would mean the
    # tolerance cannot tell a changed iteration from rounding
    rng = np.random.default_rng(0)
    a, b = _build_system(30, 120, rng)
    x0 = rng.uniform(-1.0, 1.0, size=120)
    a2, b2, x02, q = _head_permuted(a, b, x0, np.arange(30)[::-1])
    for norm in NORMS:
        x = _iterate(a, b, x0, "ggs", norm)
        permuted = _iterate(a2, b2, x02, "ggs", norm)
        tol = _tolerance("ggs", (a, a2), x0, x, permuted)
        assert np.abs(permuted - x[q]).max() > 1000 * tol


def _formed_and_factored_agree(a, b, x0, config):
    """Solve with M formed, as every m here is at most the row limit, and
    with M factored (the limit set to 0): the same status and iteration
    count, and solutions within the tolerance of that many steps."""
    formed = run(a, b, x0, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iterate, "_FORMED_ROWS", 0)
        factored = run(a, b, x0, config)
    assert (formed.status, formed.iterations) == (factored.status, factored.iterations)
    start = np.zeros(a.shape[1]) if x0 is None else x0
    tol = _tolerance(config.method, (a,), start, formed.solution, factored.solution,
                     steps=formed.iterations)
    assert np.abs(formed.solution - factored.solution).max() <= tol
    return formed


@settings(max_examples=40, deadline=None)
@given(**{**_cases, "method": st.sampled_from(("gjacobi", "ggs"))})
def test_formed_and_factored_m_solve_alike(seed, family, m, extra, method, norm):
    _, a, b, x0 = _system(family, seed, m, extra)
    padded = not np.all(np.any(a, axis=0))
    _formed_and_factored_agree(a, b, x0, SolverConfig(
        method=method, residual_norm=norm,
        permutation_policy="pivot-columns" if padded else "identity"))


@pytest.mark.parametrize("method", ("gjacobi", "ggs", "jacobi", "gs"))
@pytest.mark.parametrize("seed", range(3))
def test_formed_and_factored_m_solve_the_benchmark_system_alike(seed, method):
    # the benchmark's 30 x 120 system from a zero start; jacobi and gs
    # solve its head for a right-hand side of their own, as the benchmark does
    rng = np.random.default_rng(seed)
    a, b = _build_system(30, 120, rng)
    if method in ("jacobi", "gs"):
        a = a[:, :30].copy()
        b = a @ rng.uniform(-1.0, 1.0, size=30)
    report = _formed_and_factored_agree(a, b, None, SolverConfig(method=method))
    assert report.status == "converged"
