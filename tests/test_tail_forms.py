"""The two storage forms of the tail agree to rounding.

``iterate.prepare`` keeps a tail in coordinate form (``CoordinateTail``)
when its nonzeros are at most 1/8 of its entries, and in dense form
(``Tail``) otherwise, with a head or without one (baseline's tail is all
of A).  Both forms of one B~ must give the same update z = S W r, spread
B~ z, map T, operator steps and, with a head, convergence conditions, up
to rounding, on either side of the threshold.

The tolerance is fixed by the unit roundoff u and the system, not by
measured runs.  The forms add the same products in different orders
and over different zero terms, and the row norms behind W are summed in
different orders too.  A sum of at most n terms is within
gamma_n = n u / (1 - n u) of the sum of their absolute values (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1),
and one step chains at most seven such roundings: the norms behind W,
z = S W r, B~ z, u = r - B~ z, delta = H^-1 u, B delta and u - B delta.
Each reaches the result at most at the size of the step's envelope of
absolute values,

    |z| <= Z = |S| W |r|,   |u| <= U = |r| + |B~| Z,
    |delta| <= |H^-1| U,    |M r| <= U + |B| |H^-1| U,

so each form is within 7 gamma_n of the envelope from exact arithmetic
and the two within 14 gamma_n of each other.  The matrices of the
conditions follow alike: |T| <= I + |B~| |S| W, and the 1-, infinity-
and Frobenius norms are monotone, so a norm moves by at most the norm of
14 gamma_n times its matrix's envelope.  The head is shared by both
forms, so c1 is the same number.

A coordinate tail forms T from the pairs of its nonzeros that share a
column when they number at most m (n - m), and from the dense product
otherwise; both sides of that rule are tested.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve.convergence import operator_conditions
from undersolve.errors import ZeroRow, ZeroTailRow
from undersolve.iterate import (
    GENERALIZED_METHODS,
    METHOD_BASELINE,
    CoordinateTail,
    Operator,
    SolverConfig,
    Tail,
    prepare,
    run,
)
from undersolve.linalg import NORM_KINDS, NORM_ONE, matrix_norm, vector_norm

UNIT = np.finfo(float).eps / 2
CHAINED = 7             # roundings one step chains, as counted above
SPARSE_SHARE = 8        # prepare's threshold: at most 1/8 of the tail nonzero


def _gamma(n):
    return n * UNIT / (1.0 - n * UNIT)


def _system(seed, m, width, density):
    """An m x (m + width) system: a diagonally dominant head and a tail
    whose entries are nonzero with probability ``density``, each row
    holding at least one nonzero."""
    rng = np.random.default_rng(seed)
    head = rng.uniform(-1.0, 1.0, size=(m, m))
    head[np.arange(m), np.arange(m)] = 2.0 * m
    tail = rng.uniform(-1.0, 1.0, size=(m, width)) * (rng.random((m, width)) < density)
    empty = np.flatnonzero(~tail.any(axis=1))
    tail[empty, rng.integers(width, size=empty.size)] = rng.uniform(0.5, 1.0, size=empty.size)
    return rng, np.hstack([head, tail])


def _coordinate(block):
    """The coordinate form of ``block``, with the dense form's weights."""
    rows, cols = np.nonzero(block)
    return CoordinateTail.of(rows, cols, block[rows, cols], block.shape[1],
                             vector_norm(block, NORM_ONE))


def _close(x, y, envelope, tol):
    return np.all(np.abs(x - y) <= tol * envelope)


_cases = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), width=st.integers(1, 40),
              density=st.floats(0.02, 0.6),
              method=st.sampled_from(GENERALIZED_METHODS + (METHOD_BASELINE,)))


@settings(max_examples=150, deadline=None)
@given(**_cases)
def test_the_two_tail_forms_agree_to_rounding(seed, m, width, density, method):
    # baseline takes the drawn tail as all of a; its sums have at most
    # m + width terms, as the generalized methods' do
    rng, a = _system(seed, m, width, density)
    if method == METHOD_BASELINE:
        a = a[:, m:]
    tail = a[:, a.shape[1] - width:]
    op = prepare(a, np.arange(a.shape[1]), method)
    sparse = SPARSE_SHARE * np.count_nonzero(tail) <= tail.size
    assert isinstance(op.tail, CoordinateTail if sparse else Tail)
    assert np.array_equal(op.tail.block, tail)
    dense = Tail.of(tail, vector_norm(tail, NORM_ONE))

    tol = 2 * CHAINED * _gamma(m + width)
    r = rng.uniform(-5.0, 5.0, size=m)
    abs_sw = np.abs(dense.signs) * dense.weights
    z_env = abs_sw @ np.abs(r)
    u_env = np.abs(r) + np.abs(tail) @ z_env
    advance_env, gain_env = u_env, z_env
    if op.head is not None:
        head_inv = np.abs(op.head.solve(np.eye(m)))
        delta_env = head_inv @ u_env
        advance_env = u_env + np.abs(op.head.block) @ delta_env
        gain_env = np.concatenate((delta_env, z_env))
    map_env = np.eye(m) + np.abs(tail) @ abs_sw
    z = dense.update(r)
    reference = Operator(method, op.head, dense)
    for form in (op.tail, _coordinate(tail)):
        assert _close(form.update(r), z, z_env, tol)
        assert _close(form.spread(z), tail @ z, np.abs(tail) @ np.abs(z), tol)
        assert _close(np.array(form.update_norms()), np.array(dense.update_norms()),
                      np.array([matrix_norm(abs_sw, kind) for kind in NORM_KINDS]), tol)
        assert _close(form.map(), dense.map(), map_env, tol)
        other = Operator(method, op.head, form)
        assert _close(other.advance(r), reference.advance(r), advance_env, tol)
        assert _close(other.gain(r), reference.gain(r), gain_env, tol)
        if op.head is None:
            continue

        got, want = operator_conditions(other), operator_conditions(reference)
        for kind, g, w in zip(NORM_KINDS, got.per_norm, want.per_norm):
            assert g.norm == w.norm == kind
            assert g.c1 == w.c1
            assert abs(g.c2 - w.c2) <= m * tol * matrix_norm(map_env, kind)
            cauchy = matrix_norm(head_inv @ map_env, kind) + matrix_norm(abs_sw, kind)
            assert abs(g.cauchy_bound - w.cauchy_bound) <= tol * cauchy


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), width=st.integers(16, 40),
       sparse=st.booleans(), tiny=st.booleans(),
       method=st.sampled_from(GENERALIZED_METHODS + (METHOD_BASELINE,)))
def test_a_zero_tail_row_raises_in_both_forms(seed, m, width, sparse, tiny, method):
    # a row whose 1-norm is at most 1e-12 times its row of A counts as zero
    # in either form: exactly zero, or scaled to 1e-13 of its head row.
    # Without a head (baseline, whose tail is all of a) only an exactly
    # zero row does, and it is a zero row of a.  A sparse tail holds one
    # nonzero per row, a dense one no zero at all
    rng, a = _system(seed, m, width, 0.0 if sparse else 1.0)
    row = int(rng.integers(m))
    error = ZeroTailRow
    if method == METHOD_BASELINE:
        a, error = a[:, m:].copy(), ZeroRow
        a[row] = 0.0
    elif tiny:
        tail = a[row, m:]
        a[row, m:] = tail * (1e-13 * np.abs(a[row, :m]).sum() / np.abs(tail).sum())
    else:
        a[row, m:] = 0.0
    tail = a[:, a.shape[1] - width:]
    assert (SPARSE_SHARE * np.count_nonzero(tail) <= tail.size) == sparse
    with pytest.raises(error):
        prepare(a, np.arange(a.shape[1]), method)


def test_baseline_keeps_a_sparse_matrix_in_coordinate_form():
    # the storage rule reads a tail's density alone, so baseline, whose
    # tail is all of a, keeps a matrix at most 1/8 nonzero in coordinate
    # form.  Rows with disjoint supports give T = (1 - 1/m) I: a 2 x 16
    # system with 4 nonzeros halves its residual each step
    a = np.zeros((2, 16))
    a[0, [0, 5]] = [2.0, -1.0]
    a[1, [8, 13]] = [0.5, 3.0]
    b = np.array([1.0, -2.0])
    op = prepare(a, np.arange(16), METHOD_BASELINE)
    assert op.head is None and isinstance(op.tail, CoordinateTail)
    assert np.array_equal(op.tail.block, a)
    assert np.array_equal(op.tail.map(), 0.5 * np.eye(2))
    report = run(a, b, None, SolverConfig(method=METHOD_BASELINE))
    assert (report.status, report.iterations) == ("converged", 29)
    assert report.residual_norms[:-1] == [3.0 * 0.5 ** k for k in range(29)]
    assert report.residual_norms[-1] == vector_norm(b - a @ report.solution, NORM_ONE) < 1e-8
    # one more nonzero is above the share: the dense form
    a[0, 1] = 1.0
    assert isinstance(prepare(a, np.arange(16), METHOD_BASELINE).tail, Tail)


@pytest.mark.parametrize("m,counts,pairs_path", [
    (1, [1, 1, 1, 1, 1], True),             # 5 pairs, 5 entries
    (4, [2, 2, 2, 2, 2, 2], True),          # 24 pairs, 24 entries: at the rule
    (4, [3, 2, 2, 2, 2, 0], False),         # 25 pairs, 24 entries
    (3, [3, 0, 0, 0, 0, 0, 0, 0, 0], True),  # 9 pairs, 27 entries
    (3, [3, 3, 3, 1], False),               # 28 pairs, 12 entries
    (8, [8] + [1] * 55, True),              # 119 pairs, 448 entries
])
def test_coordinate_map_on_either_side_of_the_pair_rule(monkeypatch, m, counts, pairs_path):
    # column j holds counts[j] nonzeros in consecutive rows (cyclically), so
    # every row holds one; the map is the dense form's to rounding, and it
    # is built from the dense form only above the rule
    rng = np.random.default_rng(sum(counts))
    block = np.zeros((m, len(counts)))
    start = 0
    for j, count in enumerate(counts):
        rows = (start + np.arange(count)) % m
        block[rows, j] = rng.uniform(0.5, 1.5, size=count) * rng.choice([-1.0, 1.0], size=count)
        start += count
    assert np.all(block.any(axis=1))
    form = _coordinate(block)
    dense = Tail.of(block, vector_norm(block, NORM_ONE))
    built = []
    original = CoordinateTail.dense

    def counting(tail):
        built.append(tail)
        return original(tail)

    monkeypatch.setattr(CoordinateTail, "dense", counting)
    tail_map = form.map()
    assert (not built) == pairs_path
    map_env = np.eye(m) + np.abs(block) @ (np.abs(dense.signs) * dense.weights)
    assert _close(tail_map, dense.map(), map_env, 2 * CHAINED * _gamma(m + len(counts)))


def test_coordinate_map_allocates_no_more_than_the_dense_form():
    # a 500 x 1500 tail at prepare's 1/8 density has about 5.95M pairs of
    # nonzeros sharing a column, 8 times its entries; forming T from them
    # took 112 ms and 153 MB against 21 ms for the dense product, so map()
    # takes the dense form
    rng = np.random.default_rng(0)
    m, width = 500, 1500
    flat = np.sort(rng.choice(m * width, size=m * width // SPARSE_SHARE, replace=False))
    rows, cols = divmod(flat, width)
    values = rng.uniform(0.5, 1.5, size=flat.size)
    form = CoordinateTail.of(rows, cols, values, width,
                             np.bincount(rows, values, minlength=m))
    counts = np.bincount(cols, minlength=width)
    assert counts @ counts > 5_900_000

    def peak(make):
        tracemalloc.start()
        try:
            make()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # beyond the dense form, map() holds only the column counts and a few
    # interpreter objects
    assert peak(form.map) <= peak(lambda: form.dense().map()) + counts.nbytes + 4096
