import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve.convergence import check_conditions
from undersolve.demo import DEMO_A, DEMO_B
from undersolve.errors import NotUnderdetermined, RankDeficient
from undersolve.iterate import METHOD_GGS, METHOD_GS, METHOD_JACOBI, prepare
from undersolve.linalg import singularity_threshold
from undersolve.partition import (
    POLICY_IDENTITY,
    POLICY_PIVOT_COLUMNS,
    _pivot_column_order,
    column_order,
)


def test_identity_policy_leading_block():
    a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    perm = column_order(a, POLICY_IDENTITY)
    op = prepare(a, perm, METHOD_JACOBI)
    assert op.b_head.tolist() == [[1, 0], [0, 1]]
    assert op.b_tail.tolist() == [[2], [1]]
    assert tuple(perm.tolist()) == (0, 1, 2)


def test_identity_policy_demo():
    op = prepare(DEMO_A, column_order(DEMO_A, POLICY_IDENTITY), METHOD_JACOBI)
    assert op.b_head[0].tolist() == [2, 4, -3, 1, 0]
    assert op.b_tail[0].tolist() == [5, -7, 8]
    assert op.b_head.shape == (5, 5) and op.b_tail.shape == (5, 3)


def test_pivot_columns_makes_head_nonsingular():
    a = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 7.0]])
    b_head = a[:, column_order(a, POLICY_PIVOT_COLUMNS)[:2]]
    det = (b_head[0, 0] * b_head[1, 1]
           - b_head[0, 1] * b_head[1, 0])
    assert abs(det) > 0


def test_pivot_columns_random_full_rank():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, m + 6))
        a = rng.uniform(-10, 10, size=(m, n))
        perm = column_order(a, POLICY_PIVOT_COLUMNS)
        assert sorted(perm.tolist()) == list(range(n))
        sign, logdet = np.linalg.slogdet(a[:, perm[:m]])
        assert sign != 0 and np.isfinite(logdet)


def _row_loop_pivot_column_order(a):
    """Reference: the pivot-column selection with one row update at a time."""
    m, n = a.shape
    work = a.copy()
    remaining = list(range(n))
    chosen = []
    for i in range(m):
        sub = np.abs(work[i:, remaining])
        ri, ci = divmod(int(np.argmax(sub)), len(remaining))
        assert sub[ri, ci] > singularity_threshold(a)
        col = remaining.pop(ci)
        chosen.append(col)
        if ri != 0:
            work[[i, i + ri]] = work[[i + ri, i]]
        for r in range(i + 1, m):
            factor = work[r, col] / work[i, col]
            work[r] -= factor * work[i]
    return chosen + remaining


def test_pivot_column_order_matches_row_loop():
    # the elimination updates all rows below the pivot at once, with the
    # same arithmetic per entry as the row loop, so the orders are equal
    rng = np.random.default_rng(29)
    for m, n in ((3, 8), (5, 9), (12, 40), (40, 130), (60, 240)):
        for scale in (1.0, 1e-6, 1e6):
            a = rng.standard_normal((m, n)) * scale
            assert _pivot_column_order(a) == _row_loop_pivot_column_order(a)


def test_pivot_columns_rank_deficient():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(RankDeficient):
        column_order(a, POLICY_PIVOT_COLUMNS)


def test_permuted_blocks_reproduce_matrix():
    rng = np.random.default_rng(19)
    for policy in (POLICY_IDENTITY, POLICY_PIVOT_COLUMNS):
        a = rng.uniform(-5, 5, size=(4, 7))
        perm = column_order(a, policy)
        op = prepare(a, perm, METHOD_JACOBI)
        stacked = np.column_stack([op.b_head, op.b_tail])
        assert np.array_equal(stacked, a[:, list(perm)])


def test_not_underdetermined():
    with pytest.raises(NotUnderdetermined):
        check_conditions(np.eye(3), [1, 2, 3], METHOD_GGS)


@st.composite
def _permutations(draw):
    """(perm, n): a uniformly drawn permutation, or the pivot-columns
    policy's permutation of a random full-rank matrix."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return tuple(draw(st.permutations(range(n)))), n
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(column_order(rng.uniform(-5, 5, size=(m, n)), POLICY_PIVOT_COLUMNS).tolist()), n


# every finite float up to a cap that keeps each row's 1-norm finite
# (n <= 12), 0.0, -0.0 and subnormals included; each row's head diagonal
# and one of its tail entries are then set to a dominant value, so that
# no structural check of prepare fires
_CAP = 1e300
_DOMINANT = st.one_of(st.floats(-_CAP, -_CAP / 2), st.floats(_CAP / 2, _CAP))


@settings(max_examples=200, deadline=None)
@given(_permutations(), st.data())
def test_disassemble_assemble_identity(perm_n, data):
    # prepare's blocks are C-contiguous takes of a's columns in any column
    # order, under each sweep's head rule (the first m slots with a sweep,
    # none without); scattering them back through column_perm gives a bit
    # for bit, and splitting that again gives the same blocks
    perm, n = perm_n
    sweep = data.draw(st.sampled_from((None, METHOD_JACOBI, METHOD_GS)))
    rows = data.draw(st.integers(1, n))
    k = 0 if sweep is None else rows
    a = np.array(data.draw(st.lists(
        st.lists(st.floats(-_CAP, _CAP, allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n),
        min_size=rows, max_size=rows)))
    for i in range(rows):
        if k:
            a[i, perm[i]] = data.draw(_DOMINANT)
        if k < n:
            a[i, perm[k + i % (n - k)]] = data.draw(_DOMINANT)
    split = prepare(a, perm, sweep)
    assert sorted(perm) == list(range(n))
    assert split.b_head.flags.c_contiguous and split.b_tail.flags.c_contiguous
    assert np.array_equal(split.b_head, a[:, list(perm[:k])])
    assert np.array_equal(split.b_tail, a[:, list(perm[k:])])
    full = np.empty_like(a)
    full[:, list(perm)] = np.column_stack([split.b_head, split.b_tail])
    assert np.array_equal(full, a)
    again = prepare(full, perm, sweep)
    assert np.array_equal(again.b_head, split.b_head)
    assert np.array_equal(again.b_tail, split.b_tail)
