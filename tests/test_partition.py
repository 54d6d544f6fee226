import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from undersolve.convergence import check_conditions
from undersolve.demo import DEMO_A, DEMO_B
from undersolve.errors import NotUnderdetermined, RankDeficient
from undersolve.generate import generate_certified
from undersolve.iterate import (
    GENERALIZED_METHODS,
    METHOD_BASELINE,
    METHOD_GGS,
    METHOD_GJACOBI,
    SolverConfig,
    exact_solve,
    prepare,
    run,
)
from undersolve.partition import POLICY_IDENTITY, POLICY_PIVOT_COLUMNS, column_order, head_first

from oracles import rational_rref


def test_identity_policy_leading_block():
    a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    perm = column_order(a, POLICY_IDENTITY)
    op = prepare(a, perm, METHOD_GJACOBI)
    assert op.head.block.tolist() == [[1, 0], [0, 1]]
    assert op.tail.block.tolist() == [[2], [1]]
    assert tuple(perm.tolist()) == (0, 1, 2)


def test_identity_policy_demo():
    op = prepare(DEMO_A, column_order(DEMO_A, POLICY_IDENTITY), METHOD_GJACOBI)
    assert op.head.block[0].tolist() == [2, 4, -3, 1, 0]
    assert op.tail.block[0].tolist() == [5, -7, 8]
    assert op.head.block.shape == (5, 5) and op.tail.block.shape == (5, 3)


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


def test_head_first():
    assert head_first((3, 0), 5).tolist() == [3, 0, 1, 2, 4]
    assert head_first((), 3).tolist() == [0, 1, 2]
    assert head_first((0, 1), 2).dtype == np.intp


def _exact_rank(rows):
    return len(rational_rref(rows)[1])


@st.composite
def _planted_systems(draw):
    """A small integer system of full row rank with dependent columns
    planted in it: each planted column is twice an earlier one, or zero."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(m + 1, m + 6))
    a = np.array(draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        a[:, j] = 2 * a[:, draw(st.integers(0, j - 1))] if j else 0.0
    assume(_exact_rank(a.tolist()) == m)
    x = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    return a, a @ x


@settings(max_examples=200, deadline=None)
@given(_planted_systems(), st.sampled_from(GENERALIZED_METHODS))
def test_pivot_columns_are_the_exact_solve_partition(system, method):
    # one meaning of "pivot columns": the policy partitions A as the RREF
    # pipeline does, on the exact pivots, and keeps A's own order when its
    # leading columns are independent
    a, b = system
    m, n = a.shape
    config = SolverConfig(method=method, max_iterations=1)
    perm = run(a, b, None, SolverConfig(method=method, max_iterations=1,
                                        permutation_policy=POLICY_PIVOT_COLUMNS)).column_perm
    assert perm == exact_solve(a, b, None, config).column_perm
    assert list(perm[:m]) == rational_rref(a.tolist())[1]
    assert _exact_rank(a[:, list(perm[:m])].tolist()) == m
    if _exact_rank(a[:, :m].tolist()) == m:
        assert perm == tuple(range(n))


@pytest.mark.parametrize("method", GENERALIZED_METHODS)
def test_pivot_columns_keep_the_generated_head(method):
    # the head generate_certified draws is diagonally dominant, so its
    # columns are independent and the pivot columns are A's own order
    a, b, _ = generate_certified(50, 200, np.random.default_rng(0))
    report = run(a, b, None, SolverConfig(method=method, permutation_policy=POLICY_PIVOT_COLUMNS))
    assert report.status == "converged"
    assert report.column_perm == tuple(range(200))


def test_pivot_columns_rank_deficient():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(RankDeficient):
        column_order(a, POLICY_PIVOT_COLUMNS)


def test_permuted_blocks_reproduce_matrix():
    rng = np.random.default_rng(19)
    for policy in (POLICY_IDENTITY, POLICY_PIVOT_COLUMNS):
        a = rng.uniform(-5, 5, size=(4, 7))
        perm = column_order(a, policy)
        op = prepare(a, perm, METHOD_GJACOBI)
        stacked = np.column_stack([op.head.block, op.tail.block])
        assert np.array_equal(stacked, a[:, list(perm)])


def test_not_underdetermined():
    with pytest.raises(NotUnderdetermined):
        check_conditions(np.eye(3), [1, 2, 3], METHOD_GGS)


@st.composite
def _permutations(draw):
    """(perm, n): a uniformly drawn permutation, or the pivot-columns
    policy's permutation of a random full-rank matrix whose leading
    column j is dependent on the columns before it (zero for j = 0), so
    that the order is not the identity."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return tuple(draw(st.permutations(range(n)))), n
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-5, 5, size=(m, n))
    j = draw(st.integers(0, m - 1))
    a[:, j] = 2 * a[:, :j].sum(axis=1)
    return tuple(column_order(a, POLICY_PIVOT_COLUMNS).tolist()), n


# every finite float up to a cap that keeps each row's 1-norm finite
# (n <= 12), 0.0, -0.0 and subnormals included; each row's head diagonal
# and one of its tail entries are then set to a dominant value, so that
# no structural check of prepare fires
_CAP = 1e300
_DOMINANT = st.one_of(st.floats(-_CAP, -_CAP / 2), st.floats(_CAP / 2, _CAP))


def _blocks(op, m):
    """The head and tail blocks of ``op``, m x 0 for a missing one."""
    empty = np.empty((m, 0))
    return (empty if op.head is None else op.head.block,
            empty if op.tail is None else op.tail.block)


@settings(max_examples=200, deadline=None)
@given(_permutations(), st.data())
def test_disassemble_assemble_identity(perm_n, data):
    # prepare's blocks are C-contiguous takes of a's columns in any column
    # order, under each method's head rule (the first m slots with a head,
    # none for baseline); scattering them back through column_perm gives a
    # bit for bit, and splitting that again gives the same blocks
    perm, n = perm_n
    method = data.draw(st.sampled_from((METHOD_BASELINE, METHOD_GJACOBI, METHOD_GGS)))
    rows = data.draw(st.integers(1, n))
    k = 0 if method == METHOD_BASELINE else rows
    a = np.array(data.draw(st.lists(
        st.lists(st.floats(-_CAP, _CAP, allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n),
        min_size=rows, max_size=rows)))
    for i in range(rows):
        if k:
            a[i, perm[i]] = data.draw(_DOMINANT)
        if k < n:
            a[i, perm[k + i % (n - k)]] = data.draw(_DOMINANT)
    head, tail = _blocks(prepare(a, perm, method), rows)
    assert sorted(perm) == list(range(n))
    assert head.flags.c_contiguous and tail.flags.c_contiguous
    assert np.array_equal(head, a[:, list(perm[:k])])
    assert np.array_equal(tail, a[:, list(perm[k:])])
    full = np.empty_like(a)
    full[:, list(perm)] = np.column_stack([head, tail])
    assert np.array_equal(full, a)
    again = _blocks(prepare(full, perm, method), rows)
    assert np.array_equal(again[0], head)
    assert np.array_equal(again[1], tail)
