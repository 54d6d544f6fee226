import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve.demo import DEMO_A, DEMO_B, DEMO_X0
from undersolve.errors import DimensionMismatch, InvalidInput, SolverError
from undersolve.iterate import METHOD_GGS, METHOD_GJACOBI, SolverConfig
from undersolve.partition import POLICY_PIVOT_COLUMNS, partition_system
from undersolve.iterate import generalized_jacobi_step
from undersolve.rref import exact_solve, reduced_system, rref

from oracles import rational_rref_floats

rref_module = importlib.import_module("undersolve.rref")


def test_single_row_scaling():
    result = rref([[2.0, 4.0, 6.0]])
    assert result.matrix.tolist() == [[1, 2, 3]]
    assert result.rank == 1
    assert result.pivot_columns == (0,)


def test_two_row_elimination():
    result = rref([[1.0, 1.0, 2.0], [1.0, -1.0, 0.0]])
    assert result.matrix.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert result.rank == 2


def test_pivot_entries_exact():
    rng = np.random.default_rng(31)
    a = rng.uniform(-10, 10, size=(4, 7))
    result = rref(a)
    for r, c in enumerate(result.pivot_columns):
        col = result.matrix[:, c]
        assert col[r] == 1.0
        assert np.count_nonzero(col) == 1


def test_idempotent():
    rng = np.random.default_rng(33)
    for _ in range(20):
        a = rng.integers(-5, 6, size=(4, 6)).astype(float)
        first = rref(a).matrix
        assert np.array_equal(rref(first).matrix, first)


def test_matches_rational_oracle_random():
    rng = np.random.default_rng(35)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m, 13))
        a = rng.integers(-9, 10, size=(m, n)).astype(float)
        result = rref(a)
        expected, pivots = rational_rref_floats(a.tolist())
        assert result.pivot_columns == tuple(pivots)
        assert np.abs(result.matrix - expected).max() <= 1e-9


@st.composite
def integer_augmented(draw):
    """[A b] of small integers; some rows of A are integer combinations of
    others (rank-deficient A), and b is then drawn independently, so the
    system is often inconsistent."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 9))
    entries = st.integers(-4, 4)
    a = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    for target in range(m):
        if m > 1 and draw(st.booleans()):
            sources = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2))
            a[target] = sum(draw(st.integers(-3, 3)) * a[s] for s in sources if s != target)
    b = np.array(draw(st.lists(entries, min_size=m, max_size=m)), dtype=float)
    return np.column_stack([a, b])


@settings(max_examples=400, deadline=None)
@given(aug=integer_augmented(), width=st.integers(1, 5), exponent=st.integers(-30, 30))
def test_blocked_rref_matches_rational_oracle(aug, width, exponent):
    # narrow panels put panel boundaries and trailing updates inside small
    # matrices; a power-of-two scale changes neither the RREF nor rounding
    scaled = aug * 2.0 ** exponent
    expected, pivots = rational_rref_floats(scaled.tolist())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rref_module, "_PANEL_WIDTH", width)
        result = rref(scaled)
    assert result.pivot_columns == tuple(pivots)
    assert result.rank == len(pivots)
    assert result.consistent == (aug.shape[1] - 1 not in pivots)
    assert np.abs(result.matrix - expected).max() <= 1e-9


def test_rref_scales_once(monkeypatch):
    # the zero threshold is fixed from the input: one norm per reduction
    assert hasattr(rref_module, "matrix_norm")
    calls = []
    original = rref_module.matrix_norm
    monkeypatch.setattr(rref_module, "matrix_norm",
                        lambda *args: calls.append(args[1]) or original(*args))
    rng = np.random.default_rng(37)
    a = rng.uniform(-1.0, 1.0, size=(40, 160))   # several panels
    reduced_system(a, a @ rng.uniform(-1.0, 1.0, size=160))
    assert calls == ["inf"]


def test_demo_rref_matches_oracle():
    aug = np.column_stack([DEMO_A, DEMO_B])
    result = rref(aug)
    expected, pivots = rational_rref_floats(aug.tolist())
    assert result.pivot_columns == (0, 1, 2, 3, 4)
    assert tuple(pivots) == (0, 1, 2, 3, 4)
    assert np.abs(result.matrix - expected).max() <= 1e-9
    assert result.consistent


def test_exact_solve_simple():
    report = exact_solve([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]], [3.0, 2.0])
    assert report.status == "converged"
    assert report.iterations == 1
    assert np.allclose(report.solution, [-0.5, 0.25, 1.75])


def test_exact_solve_demo():
    report = exact_solve(DEMO_A, DEMO_B, DEMO_X0)
    assert report.status == "converged"
    assert np.abs(DEMO_A @ report.solution - DEMO_B).sum() <= 1e-8
    assert np.all(report.solution != 0)


def test_exact_solve_ggs_matches_exactness():
    report = exact_solve(DEMO_A, DEMO_B, DEMO_X0, SolverConfig(method=METHOD_GGS))
    assert report.status == "converged"
    assert np.abs(DEMO_A @ report.solution - DEMO_B).sum() <= 1e-8


def test_exact_solve_inconsistent():
    report = exact_solve([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], [1.0, 2.0])
    assert report.status == "error"
    assert report.error == "inconsistent"


def test_exact_solve_rank_deficient_consistent():
    a = np.array([[1.0, 2.0, 3.0, 1.0], [2.0, 4.0, 6.0, 2.0], [0.0, 1.0, 1.0, -1.0]])
    x = np.array([1.0, -1.0, 2.0, 0.5])
    report = exact_solve(a, a @ x)
    assert report.status == "converged"
    assert np.abs(a @ report.solution - a @ x).max() <= 1e-8


def test_successive_iterates_differ_until_fixed():
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    sys = partition_system(a_bar, b_bar)
    prev = DEMO_X0
    for _ in range(3):
        cur = generalized_jacobi_step(sys, prev)
        d_norm = np.abs(b_bar - a_bar @ prev).max()
        if d_norm > 1e-12:
            assert np.abs(cur - prev).sum() > 0.0
        prev = cur


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError) as err:
        rref(np.eye(2), tolerance=-1.0)
    assert isinstance(err.value, SolverError)


@pytest.mark.parametrize("method", [METHOD_GJACOBI, METHOD_GGS])
def test_exact_solve_rejects_a_permutation_policy(method):
    # the exact pipeline partitions on the RREF pivot columns whatever the
    # policy, so a report naming another policy would misstate the solve
    config = SolverConfig(method=method, permutation_policy=POLICY_PIVOT_COLUMNS)
    with pytest.raises(InvalidInput, match="pivot columns"):
        exact_solve(DEMO_A, DEMO_B, DEMO_X0, config)


@pytest.mark.parametrize("method", [METHOD_GJACOBI, METHOD_GGS])
def test_exact_solve_rounding_residue_is_a_zero_tail_row(method):
    # RREF leaves 2.2e-16 in a reduced tail row that is exactly zero; a
    # tail update dividing by that norm threw x to 1e15 and missed b
    a = np.array([[-1.0, 1.0, -3.0], [3.0, -1.0, 3.0]])
    b = np.array([-3.0, -3.0])
    _, a_bar, _ = reduced_system(a, b)
    assert 0.0 < abs(a_bar[0, 2]) < 1e-15
    report = exact_solve(a, b, np.array([1.0, 2.0, 3.0]), SolverConfig(method=method))
    assert report.status == "error" and report.error == "zero_tail_row"


def test_exact_solve_rhs_length_mismatch():
    with pytest.raises(DimensionMismatch):
        exact_solve(DEMO_A, DEMO_B[:-1], DEMO_X0)
