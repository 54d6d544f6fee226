import numpy as np
import pytest

from undersolve.demo import DEMO_A, DEMO_B, DEMO_X0
from undersolve.errors import ZeroDiagonal, ZeroRow, ZeroTailRow
from undersolve.iterate import (
    METHOD_BASELINE,
    METHOD_GJACOBI,
    METHOD_GS,
    SolverConfig,
    baseline_step,
    classical_gauss_seidel_step,
    classical_jacobi_step,
    generalized_gauss_seidel_step,
    generalized_jacobi_step,
    run,
)
from undersolve.linalg import row_one_norms, sign_matrix
from undersolve.partition import SplitIterate, assemble, disassemble, partition_system
from undersolve.rref import reduced_system

from oracles import random_partitioned


def split_of(sys, x_full):
    return disassemble(np.asarray(x_full, dtype=float), sys.column_perm, sys.m)


def test_baseline_one_row():
    z = baseline_step(np.array([[1.0, 1.0]]), np.array([2.0]), np.zeros(2))
    assert z.tolist() == [1.0, 1.0]


def test_baseline_fixed_point():
    rng = np.random.default_rng(2)
    a = rng.uniform(-5, 5, size=(3, 5))
    x = rng.uniform(-1, 1, size=5)
    b = a @ x
    assert np.abs(baseline_step(a, b, x) - x).max() <= 1e-12


def test_baseline_zero_row():
    with pytest.raises(ZeroRow):
        baseline_step(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([1.0, 1.0]), np.zeros(2))


def test_gjacobi_hand_example():
    sys = partition_system([[1, 0, 2], [0, 1, 1]], [3, 2])
    x1 = generalized_jacobi_step(sys, SplitIterate(np.zeros(2), np.zeros(1)))
    assert x1.tail.tolist() == [1.75]
    assert x1.head.tolist() == [-0.5, 0.25]
    full = assemble(x1, sys.column_perm)
    assert np.allclose(np.array([[1, 0, 2], [0, 1, 1]]) @ full, [3, 2])


def test_gjacobi_fixed_point():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, m, n = random_partitioned(rng, lo=2, hi=6)
        sys = partition_system(a, np.zeros(m))
        head = rng.uniform(-1, 1, size=m)
        tail = rng.uniform(-1, 1, size=n - m)
        b = sys.b_head @ head + sys.b_tail @ tail
        sys = partition_system(a, b)
        x1 = generalized_jacobi_step(sys, SplitIterate(head, tail))
        assert np.abs(x1.head - head).max() <= 1e-12
        assert np.abs(x1.tail - tail).max() <= 1e-12


def test_gjacobi_exact_each_step_on_reduced_demo():
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    sys = partition_system(a_bar, b_bar)
    x = split_of(sys, DEMO_X0)
    for _ in range(5):
        x = generalized_jacobi_step(sys, x)
        full = assemble(x, sys.column_perm)
        assert np.abs(a_bar @ full - b_bar).max() <= 1e-10 * (1 + np.abs(b_bar).max())


def test_gjacobi_zero_tail_row():
    a = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]])
    sys = partition_system(a, [1.0, 2.0])
    with pytest.raises(ZeroTailRow):
        generalized_jacobi_step(sys, SplitIterate(np.zeros(2), np.zeros(1)))


def test_gjacobi_zero_diagonal():
    a = np.array([[0.0, 2.0, 1.0], [3.0, 4.0, 5.0]])
    sys = partition_system(a, [1.0, 2.0])
    with pytest.raises(ZeroDiagonal):
        generalized_jacobi_step(sys, SplitIterate(np.zeros(2), np.zeros(1)))


def test_ggs_hand_example():
    a = np.column_stack([np.array([[2.0, 0.0], [1.0, 4.0]]), np.array([[1.0], [1.0]])])
    sys = partition_system(a, [4.0, 9.0])
    x1 = generalized_gauss_seidel_step(sys, SplitIterate(np.zeros(2), np.zeros(1)))
    assert x1.tail.tolist() == [6.5]
    assert x1.head.tolist() == [-1.25, 0.9375]
    # oracle: dense solve of L head = b_hat
    b_hat = sys.rhs - sys.b_tail @ x1.tail
    assert np.allclose(x1.head, np.linalg.solve(np.tril(sys.b_head), b_hat))


def test_ggs_matches_gjacobi_for_identity_head():
    rng = np.random.default_rng(6)
    a = np.column_stack([np.eye(3), rng.uniform(-2, 2, size=(3, 2))])
    b = rng.uniform(-3, 3, size=3)
    sys = partition_system(a, b)
    x0 = SplitIterate(rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=2))
    xj = generalized_jacobi_step(sys, x0)
    xg = generalized_gauss_seidel_step(sys, x0)
    assert np.array_equal(xj.head, xg.head)
    assert np.array_equal(xj.tail, xg.tail)


def test_ggs_fixed_point():
    rng = np.random.default_rng(8)
    a, m, n = random_partitioned(rng, lo=3, hi=6)
    head = rng.uniform(-1, 1, size=m)
    tail = rng.uniform(-1, 1, size=n - m)
    b = a[:, :m] @ head + a[:, m:] @ tail
    sys = partition_system(a, b)
    x1 = generalized_gauss_seidel_step(sys, SplitIterate(head, tail))
    assert np.abs(x1.head - head).max() <= 1e-12
    assert np.abs(x1.tail - tail).max() <= 1e-12


def test_classical_jacobi():
    x1 = classical_jacobi_step(np.array([[4.0, 1.0], [1.0, 3.0]]),
                               np.array([1.0, 2.0]), np.zeros(2))
    assert np.allclose(x1, [0.25, 2.0 / 3.0])
    # diagonal matrix solves in one step
    d = np.diag([2.0, 5.0])
    assert classical_jacobi_step(d, np.array([4.0, 10.0]), np.zeros(2)).tolist() == [2, 2]
    # fixed point
    b_mat = np.array([[3.0, 1.0], [1.0, 4.0]])
    x = np.array([1.0, -2.0])
    assert np.abs(classical_jacobi_step(b_mat, b_mat @ x, x) - x).max() <= 1e-12


def test_classical_gauss_seidel():
    b_mat = np.array([[2.0, 1.0], [1.0, 3.0]])
    x1 = classical_gauss_seidel_step(b_mat, np.array([3.0, 5.0]), np.zeros(2))
    # forward substitution by hand: x1[0]=3/2, x1[1]=(5-1.5)/3
    assert np.allclose(x1, [1.5, 3.5 / 3.0])
    d = np.diag([2.0, 5.0])
    assert classical_gauss_seidel_step(d, np.array([4.0, 10.0]), np.zeros(2)).tolist() == [2, 2]
    x = np.array([1.0, -2.0])
    assert np.abs(classical_gauss_seidel_step(b_mat, b_mat @ x, x) - x).max() <= 1e-12


def test_weighted_residual_identity():
    # d from the tail update equals (1/m) N^-1 (b - A x)
    rng = np.random.default_rng(10)
    for _ in range(30):
        a, m, n = random_partitioned(rng)
        x = rng.uniform(-2, 2, size=n)
        b = rng.uniform(-5, 5, size=m)
        sys = partition_system(a, b)
        split = split_of(sys, x)
        norms = row_one_norms(sys.b_tail)
        b_tilde = b - sys.b_head @ split.head
        d = (b_tilde - sys.b_tail @ split.tail) / (m * norms)
        expected = (b - a @ x) / (m * norms)
        assert np.abs(d - expected).max() <= 1e-12 * (1 + np.abs(expected).max())


@pytest.mark.parametrize("step,splitting", [
    (generalized_jacobi_step, "diag"),
    (generalized_gauss_seidel_step, "tril"),
])
def test_residual_recurrence(step, splitting):
    rng = np.random.default_rng(12)
    for _ in range(30):
        a, m, n = random_partitioned(rng)
        b = rng.uniform(-5, 5, size=m)
        sys = partition_system(a, b)
        x = rng.uniform(-2, 2, size=n)
        split = split_of(sys, x)
        new = step(sys, split)
        r = a @ x - b
        head_inv = (np.diag(1.0 / np.diag(sys.b_head)) if splitting == "diag"
                    else np.linalg.inv(np.tril(sys.b_head)))
        tail_op = np.eye(m) - (sys.b_tail @ sign_matrix(sys.b_tail)) \
            / row_one_norms(sys.b_tail)[np.newaxis, :] / m
        predicted = (np.eye(m) - sys.b_head @ head_inv) @ tail_op @ r
        actual = a @ assemble(new, sys.column_perm) - b
        assert np.abs(actual - predicted).max() <= 1e-10 * (1 + np.abs(r).max())


def test_run_preamble_converges_immediately():
    rng = np.random.default_rng(14)
    a = rng.uniform(-3, 3, size=(3, 6))
    x = rng.uniform(-1, 1, size=6)
    report = run(a, a @ x, x, SolverConfig(method=METHOD_GJACOBI))
    assert report.status == "converged"
    assert report.iterations == 0
    assert len(report.residual_norms) == 1


def test_run_gjacobi_on_reduced_demo():
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    report = run(a_bar, b_bar, DEMO_X0,
                 SolverConfig(method=METHOD_GJACOBI, epsilon=1e-10))
    assert report.status == "converged"
    assert report.residual_norms[-1] < 1e-10
    assert np.all(report.solution != 0)   # non-basic: every component nonzero


def test_run_baseline_on_reduced_demo_converges_slowly():
    # the sign-matrix iteration contracts very slowly here (spectral
    # radius ~0.992) where the generalized step is exact in one sweep
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    report = run(a_bar, b_bar, DEMO_X0,
                 SolverConfig(method=METHOD_BASELINE, max_iterations=100))
    assert report.status == "max_iterations"
    assert np.abs(a_bar @ report.solution - b_bar).sum() > 1.0


def test_run_wraps_step_errors():
    a = np.array([[0.0, 2.0, 1.0], [3.0, 4.0, 5.0]])   # zero head diagonal
    report = run(a, np.array([1.0, 2.0]), None, SolverConfig(method=METHOD_GJACOBI))
    assert report.status == "error"
    assert report.error == "zero_diagonal"


def test_run_classical_square():
    b_mat = np.array([[4.0, 1.0], [1.0, 3.0]])
    x = np.array([1.0, 2.0])
    report = run(b_mat, b_mat @ x, np.zeros(2),
                 SolverConfig(method=METHOD_GS, epsilon=1e-12))
    assert report.status == "converged"
    assert np.abs(report.solution - x).max() < 1e-10


def test_run_diverges_on_expanding_iteration():
    # strongly off-diagonal head makes classical Jacobi blow up
    b_mat = np.array([[1.0, 10.0], [10.0, 1.0]])
    report = run(b_mat, np.array([1.0, 1.0]), np.zeros(2),
                 SolverConfig(method="jacobi", max_iterations=10000))
    assert report.status == "diverged"


@pytest.mark.parametrize("method,a,kind", [
    ("baseline", [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]], "zero_row"),
    # an all-zero tail row is reported before the zero head diagonal
    ("gjacobi", [[0.0, 2.0, 0.0], [3.0, 4.0, 5.0]], "zero_tail_row"),
    ("ggs", [[0.0, 2.0, 0.0], [3.0, 4.0, 5.0]], "zero_tail_row"),
    ("ggs", [[0.0, 2.0, 1.0], [3.0, 4.0, 5.0]], "singular_triangular"),
    ("jacobi", [[0.0, 1.0], [1.0, 1.0]], "zero_diagonal"),
    ("gs", [[0.0, 1.0], [1.0, 1.0]], "singular_triangular"),
    ("gs", [[1e9, 0.0], [1.0, 1e-4]], "singular_triangular"),
])
def test_run_error_kinds(method, a, kind):
    report = run(np.array(a), np.ones(2), None, SolverConfig(method=method))
    assert report.status == "error"
    assert report.error == kind
    assert report.iterations == 0
    assert report.conditions is None


@pytest.mark.parametrize("method", ["gjacobi", "ggs"])
def test_run_converged_x0_skips_invalid_system(method):
    # zero head diagonal: a step would fail, but x0 already solves the system
    a = np.array([[0.0, 2.0, 1.0], [3.0, 4.0, 5.0]])
    x = np.array([1.0, -1.0, 2.0])
    report = run(a, a @ x, x, SolverConfig(method=method))
    assert report.status == "converged"
    assert report.iterations == 0
    assert report.error is None
    assert report.conditions is None
    assert np.array_equal(report.solution, x)
