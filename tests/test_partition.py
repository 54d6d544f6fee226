import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve.demo import DEMO_A, DEMO_B
from undersolve.errors import DimensionMismatch, NotUnderdetermined, RankDeficient
from undersolve.partition import (
    POLICY_IDENTITY,
    POLICY_PIVOT_COLUMNS,
    SplitIterate,
    assemble,
    disassemble,
    partition_system,
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
        sign, logdet = np.linalg.slogdet(sys.b_head)
        assert sign != 0 and np.isfinite(logdet)


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


def test_assemble_identity_perm():
    x = SplitIterate(head=np.array([1.0, 2.0]), tail=np.array([3.0]))
    assert assemble(x, (0, 1, 2)).tolist() == [1, 2, 3]


def test_assemble_nontrivial_perm():
    # original column 2 sits in head slot 0
    x = SplitIterate(head=np.array([1.0, 2.0]), tail=np.array([3.0]))
    assert assemble(x, (2, 0, 1)).tolist() == [2, 3, 1]


def test_disassemble_mirrors_assemble():
    split = disassemble(np.array([2.0, 3.0, 1.0]), (2, 0, 1), 2)
    assert split.head.tolist() == [1, 2]
    assert split.tail.tolist() == [3]


def test_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, n))
        perm = tuple(rng.permutation(n).tolist())
        x = rng.uniform(-5, 5, size=n)
        split = disassemble(x, perm, m)
        assert np.array_equal(assemble(split, perm), x)
        again = disassemble(assemble(split, perm), perm, m)
        assert np.array_equal(again.head, split.head)
        assert np.array_equal(again.tail, split.tail)


def test_assemble_dimension_mismatch():
    x = SplitIterate(head=np.array([1.0]), tail=np.array([2.0]))
    with pytest.raises(DimensionMismatch):
        assemble(x, (0, 1, 2))
    with pytest.raises(DimensionMismatch):
        disassemble(np.array([1.0, 2.0]), (0, 1, 2), 1)


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
    perm, n = perm_n
    m = data.draw(st.integers(0, n))
    x = np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)))
    split = disassemble(x, perm, m)
    assert np.array_equal(split.head, x[list(perm[:m])])
    full = assemble(split, perm)
    assert np.array_equal(full, x)
    again = disassemble(full, perm, m)
    assert np.array_equal(again.head, split.head)
    assert np.array_equal(again.tail, split.tail)
