import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve.demo import DEMO_A, DEMO_B
from undersolve.errors import NotUnderdetermined, RankDeficient
from undersolve.linalg import singularity_threshold
from undersolve.partition import (
    POLICY_IDENTITY,
    POLICY_PIVOT_COLUMNS,
    _pivot_column_order,
    partition_system,
    split_system,
)


def test_identity_policy_leading_block():
    sys = partition_system([[1, 0, 2], [0, 1, 1]], [3, 2])
    assert sys.b_head.tolist() == [[1, 0], [0, 1]]
    assert sys.b_tail.tolist() == [[2], [1]]
    assert sys.column_perm == (0, 1, 2)


def test_identity_policy_demo():
    sys = partition_system(DEMO_A, DEMO_B)
    assert sys.b_head[0].tolist() == [2, 4, -3, 1, 0]
    assert sys.b_tail[0].tolist() == [5, -7, 8]
    assert sys.m == 5 and sys.n == 8


def test_pivot_columns_makes_head_nonsingular():
    sys = partition_system([[0, 1, 5], [1, 0, 7]], [1, 1], POLICY_PIVOT_COLUMNS)
    det = (sys.b_head[0, 0] * sys.b_head[1, 1]
           - sys.b_head[0, 1] * sys.b_head[1, 0])
    assert abs(det) > 0


def test_pivot_columns_random_full_rank():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, m + 6))
        a = rng.uniform(-10, 10, size=(m, n))
        sys = partition_system(a, np.zeros(m), POLICY_PIVOT_COLUMNS)
        assert sorted(sys.column_perm) == list(range(n))
        sign, logdet = np.linalg.slogdet(sys.b_head)
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
        partition_system(a, [1.0, 2.0], POLICY_PIVOT_COLUMNS)


def test_permuted_blocks_reproduce_matrix():
    rng = np.random.default_rng(19)
    for policy in (POLICY_IDENTITY, POLICY_PIVOT_COLUMNS):
        a = rng.uniform(-5, 5, size=(4, 7))
        sys = partition_system(a, np.zeros(4), policy)
        stacked = np.column_stack([sys.b_head, sys.b_tail])
        assert np.array_equal(stacked, a[:, list(sys.column_perm)])


def test_not_underdetermined():
    with pytest.raises(NotUnderdetermined):
        partition_system(np.eye(3), [1, 2, 3])


@st.composite
def _permutations(draw):
    """(perm, n): a uniformly drawn permutation, or the pivot-columns
    policy's permutation of a random full-rank matrix."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return tuple(draw(st.permutations(range(n)))), n
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sys = partition_system(rng.uniform(-5, 5, size=(m, n)), np.zeros(m), POLICY_PIVOT_COLUMNS)
    return sys.column_perm, n


@settings(max_examples=200, deadline=None)
@given(_permutations(), st.data())
def test_disassemble_assemble_identity(perm_n, data):
    # splitting a into head/tail blocks under any column order and head
    # size, then scattering the blocks back through column_perm, gives a
    # back bit for bit; splitting that again gives the same blocks
    perm, n = perm_n
    k = data.draw(st.integers(0, n))
    rows = data.draw(st.integers(1, 4))
    a = np.array(data.draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n),
        min_size=rows, max_size=rows)))
    split = split_system(a, np.zeros(rows), perm, k)
    assert split.column_perm == tuple(perm)
    assert sorted(split.column_perm) == list(range(n))
    assert np.array_equal(split.b_head, a[:, list(perm[:k])])
    full = np.empty_like(a)
    full[:, list(perm)] = np.column_stack([split.b_head, split.b_tail])
    assert np.array_equal(full, a)
    again = split_system(full, np.zeros(rows), perm, k)
    assert np.array_equal(again.b_head, split.b_head)
    assert np.array_equal(again.b_tail, split.b_tail)
