from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve import convergence, iterate, partition
from undersolve import rref as rref_module
from undersolve.demo import DEMO_A, DEMO_B, DEMO_X0
from undersolve.errors import DimensionMismatch, InvalidInput, ZeroDiagonal, ZeroRow, ZeroTailRow
from undersolve.iterate import (
    GENERALIZED_METHODS,
    METHOD_BASELINE,
    METHOD_GJACOBI,
    METHOD_GS,
    METHODS,
    SQUARE_METHODS,
    SolverConfig,
    baseline_step,
    classical_gauss_seidel_step,
    classical_jacobi_step,
    generalized_gauss_seidel_step,
    generalized_jacobi_step,
    run,
)
from undersolve.linalg import NORM_INF, NORM_ONE, row_one_norms, sign_matrix, vector_norm
from undersolve.partition import (
    POLICIES,
    POLICY_IDENTITY,
    POLICY_PIVOT_COLUMNS,
    partition_system,
    split_system,
)
from undersolve.rref import exact_solve, reduced_system

from oracles import random_partitioned


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
    x1 = generalized_jacobi_step(sys, np.zeros(3))
    assert x1[2:].tolist() == [1.75]
    assert x1[:2].tolist() == [-0.5, 0.25]
    assert np.allclose(np.array([[1, 0, 2], [0, 1, 1]]) @ x1, [3, 2])


def test_gjacobi_fixed_point():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, m, n = random_partitioned(rng, lo=2, hi=6)
        sys = partition_system(a, np.zeros(m))
        head = rng.uniform(-1, 1, size=m)
        tail = rng.uniform(-1, 1, size=n - m)
        b = sys.b_head @ head + sys.b_tail @ tail
        sys = partition_system(a, b)
        x1 = generalized_jacobi_step(sys, np.concatenate([head, tail]))
        assert np.abs(x1[:m] - head).max() <= 1e-12
        assert np.abs(x1[m:] - tail).max() <= 1e-12


def test_gjacobi_exact_each_step_on_reduced_demo():
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    sys = partition_system(a_bar, b_bar)
    x = DEMO_X0
    for _ in range(5):
        x = generalized_jacobi_step(sys, x)
        assert np.abs(a_bar @ x - b_bar).max() <= 1e-10 * (1 + np.abs(b_bar).max())


def test_gjacobi_zero_tail_row():
    a = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]])
    sys = partition_system(a, [1.0, 2.0])
    with pytest.raises(ZeroTailRow):
        generalized_jacobi_step(sys, np.zeros(3))


def test_gjacobi_zero_diagonal():
    a = np.array([[0.0, 2.0, 1.0], [3.0, 4.0, 5.0]])
    sys = partition_system(a, [1.0, 2.0])
    with pytest.raises(ZeroDiagonal):
        generalized_jacobi_step(sys, np.zeros(3))


def test_ggs_hand_example():
    a = np.column_stack([np.array([[2.0, 0.0], [1.0, 4.0]]), np.array([[1.0], [1.0]])])
    sys = partition_system(a, [4.0, 9.0])
    x1 = generalized_gauss_seidel_step(sys, np.zeros(3))
    assert x1[2:].tolist() == [6.5]
    assert x1[:2].tolist() == [-1.25, 0.9375]
    # oracle: dense solve of L head = b_hat
    b_hat = sys.rhs - sys.b_tail @ x1[2:]
    assert np.allclose(x1[:2], np.linalg.solve(np.tril(sys.b_head), b_hat))


def test_ggs_matches_gjacobi_for_identity_head():
    rng = np.random.default_rng(6)
    a = np.column_stack([np.eye(3), rng.uniform(-2, 2, size=(3, 2))])
    b = rng.uniform(-3, 3, size=3)
    sys = partition_system(a, b)
    x0 = np.concatenate([rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=2)])
    xj = generalized_jacobi_step(sys, x0)
    xg = generalized_gauss_seidel_step(sys, x0)
    assert np.array_equal(xj, xg)


def test_ggs_fixed_point():
    rng = np.random.default_rng(8)
    a, m, n = random_partitioned(rng, lo=3, hi=6)
    head = rng.uniform(-1, 1, size=m)
    tail = rng.uniform(-1, 1, size=n - m)
    b = a[:, :m] @ head + a[:, m:] @ tail
    sys = partition_system(a, b)
    x1 = generalized_gauss_seidel_step(sys, np.concatenate([head, tail]))
    assert np.abs(x1[:m] - head).max() <= 1e-12
    assert np.abs(x1[m:] - tail).max() <= 1e-12


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
        slots = x[list(sys.column_perm)]
        norms = row_one_norms(sys.b_tail)
        b_tilde = b - sys.b_head @ slots[:m]
        d = (b_tilde - sys.b_tail @ slots[m:]) / (m * norms)
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
        new = step(sys, x)
        r = a @ x - b
        head_inv = (np.diag(1.0 / np.diag(sys.b_head)) if splitting == "diag"
                    else np.linalg.inv(np.tril(sys.b_head)))
        tail_op = np.eye(m) - (sys.b_tail @ sign_matrix(sys.b_tail)) \
            / row_one_norms(sys.b_tail)[np.newaxis, :] / m
        predicted = (np.eye(m) - sys.b_head @ head_inv) @ tail_op @ r
        actual = a @ new - b
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


@pytest.mark.parametrize("method", METHODS)
def test_config_rejects_a_policy_it_would_ignore(method):
    with pytest.raises(InvalidInput, match="unknown permutation policy"):
        SolverConfig(method=method, permutation_policy="bogus")
    if method in GENERALIZED_METHODS:
        a, b = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 7.0]]), np.array([1.0, 1.0])
        report = run(a, b, None, SolverConfig(method=method,
                                              permutation_policy=POLICY_PIVOT_COLUMNS))
        expected = tuple(partition_system(a, b, POLICY_PIVOT_COLUMNS).column_perm)
        assert report.column_perm == expected != (0, 1, 2)
    else:
        with pytest.raises(InvalidInput, match="needs a generalized method"):
            SolverConfig(method=method, permutation_policy=POLICY_PIVOT_COLUMNS)


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


def _assert_residual_honest(residual, a, b, x, norm):
    """A reported residual norm equals a fresh ||A x - b|| to rounding."""
    fresh = vector_norm(a @ x - b, norm)
    scale = vector_norm(np.abs(a) @ np.abs(x), norm) + vector_norm(b, norm)
    assert abs(residual - fresh) <= 1e-12 * scale, (residual, fresh, scale)
    return fresh


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 7), extra=st.integers(1, 8),
       method=st.sampled_from(METHODS), norm=st.sampled_from((NORM_ONE, NORM_INF)),
       policy=st.sampled_from(POLICIES), max_iterations=st.integers(1, 6),
       zero_start=st.booleans())
def test_carried_residual_matches_fresh_residual(seed, m, extra, method, norm, policy,
                                                 max_iterations, zero_start):
    # the step carries r = b - A x instead of recomputing it; the last
    # reported norm must still be that of the returned solution
    rng = np.random.default_rng(seed)
    a, m, n = random_partitioned(rng, m=m, n=m + extra)
    if method in SQUARE_METHODS:
        a = a[:, :m]
    b = rng.uniform(-10.0, 10.0, size=m)
    x0 = None if zero_start else rng.uniform(-2.0, 2.0, size=a.shape[1])
    config = SolverConfig(
        method=method, epsilon=1e-300, max_iterations=max_iterations, residual_norm=norm,
        permutation_policy=policy if method in GENERALIZED_METHODS else POLICY_IDENTITY)
    report = run(a, b, x0, config)
    assert report.iterations == len(report.residual_norms) - 1 <= max_iterations
    _assert_residual_honest(report.residual_norms[-1], a, b, report.solution, norm)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), extra=st.integers(1, 5),
       dependent_rows=st.integers(0, 2), method=st.sampled_from(GENERALIZED_METHODS),
       norm=st.sampled_from((NORM_ONE, NORM_INF)), iterations=st.integers(1, 6))
def test_exact_solve_residual_exact_every_iteration(seed, m, extra, dependent_rows, method,
                                                    norm, iterations):
    # consistent integer systems, rank-deficient when rows repeat: each
    # single iteration of the exact pipeline, chained from a random start,
    # reports the residual of its solution and that solution is exact
    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 6, size=(m, m + dependent_rows + extra)).astype(float)
    a = np.vstack([a] + [rng.integers(-2, 3) * a[:1]] * dependent_rows)
    b = a @ rng.integers(-3, 4, size=a.shape[1]).astype(float)
    _, a_bar, b_bar = reduced_system(a, b)
    if a_bar.shape[0] == 0:
        return
    bound = 1e-10 * (1 + np.abs(b_bar).max())
    x = rng.uniform(-5.0, 5.0, size=a.shape[1])
    config = SolverConfig(method=method, epsilon=1e-300, max_iterations=1, residual_norm=norm)
    for _ in range(iterations):
        report = exact_solve(a, b, x, config)
        if report.status == "error":
            assert report.error in ("zero_tail_row", "zero_row")
            return
        x = report.solution
        fresh = _assert_residual_honest(report.residual_norms[-1], a_bar, b_bar, x, norm)
        assert fresh <= bound
        assert np.abs(a_bar @ x - b_bar).max() <= bound


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), extra=st.integers(1, 6),
       method=st.sampled_from(METHODS), exact=st.booleans(),
       norm=st.sampled_from((NORM_ONE, NORM_INF)),
       epsilon=st.sampled_from((1e-300, 1e-15, 1e-13, 1e-8)))
def test_converged_only_on_a_fresh_residual(seed, m, extra, method, exact, norm, epsilon):
    # the carried residual can understate the rounding of the iterate
    # (after RREF the head is I and it is exactly 0), so a converged
    # report must hold against a fresh ||A x - b|| in original order
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10.0, 10.0, size=(m, m + extra))
    b = a @ rng.uniform(-1.0, 1.0, size=m + extra)
    config = SolverConfig(method=method if not exact else GENERALIZED_METHODS[seed % 2],
                          epsilon=epsilon, max_iterations=30, residual_norm=norm)
    if exact:
        report = exact_solve(a, b, None, config)
        _, a, b = reduced_system(a, b)
    else:
        if method in SQUARE_METHODS:
            a = a[:, :m]
        report = run(a, b, None, config)
    if report.status == "converged":
        fresh = vector_norm(a @ report.solution - b, norm)
        assert report.residual_norms[-1] == fresh < epsilon


def test_exact_solve_reports_the_rounding_it_lands_on():
    # an iteration of the exact pipeline on the demo leaves a rounding-
    # level residual: reported as such, and no convergence below it
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    for method in GENERALIZED_METHODS:
        report = exact_solve(DEMO_A, DEMO_B, DEMO_X0, SolverConfig(method=method))
        fresh = vector_norm(a_bar @ report.solution - b_bar, NORM_ONE)
        assert report.status == "converged" and report.iterations == 1
        assert report.residual_norms[-1] == fresh > 0.0
        tight = exact_solve(DEMO_A, DEMO_B, DEMO_X0,
                            SolverConfig(method=method, epsilon=1e-300))
        fresh = vector_norm(a_bar @ tight.solution - b_bar, NORM_ONE)
        assert tight.residual_norms[-1] == fresh
        assert (tight.status == "converged") == (fresh < 1e-300)
        assert tight.iterations > 1


def _count_calls(monkeypatch, modules, names):
    """Wrap every binding of ``names`` in ``modules``; returns the counts.
    Every name must be bound in at least one module."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        assert any(hasattr(module, name) for module in modules), name
    for module in modules:
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("method", list(GENERALIZED_METHODS))
def test_solve_pays_only_for_its_loop(method, monkeypatch):
    # run and exact_solve compute no conditions
    counts = _count_calls(
        monkeypatch, (convergence, iterate, partition, rref_module),
        ("check_conditions", "operator_conditions"))
    rng = np.random.default_rng(16)
    a, m, n = random_partitioned(rng, m=6, n=15)
    b = rng.uniform(-5.0, 5.0, size=m)
    config = SolverConfig(method=method, epsilon=1e-300, max_iterations=8)
    report = run(a, b, None, config)
    assert report.iterations >= 2
    exact = exact_solve(a, b, rng.uniform(-1.0, 1.0, size=n), config)
    assert exact.iterations >= 1
    assert report.conditions is None and exact.conditions is None
    assert counts["check_conditions"] == counts["operator_conditions"] == 0


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("method", list(GENERALIZED_METHODS))
def test_generalized_run_validates_a_once(method, policy, monkeypatch):
    # run checks its input once and partitions the checked matrix: no
    # second validating copy of A in partition_system
    counts = _count_calls(monkeypatch, (iterate, partition, rref_module), ("as_matrix",))
    rng = np.random.default_rng(18)
    a, m, n = random_partitioned(rng, m=4, n=9)
    report = run(a, rng.uniform(-5.0, 5.0, size=m), None,
                 SolverConfig(method=method, permutation_policy=policy, max_iterations=3))
    assert report.iterations >= 1
    assert counts["as_matrix"] == 1


def test_steps_reject_wrong_length_x():
    # every public step takes x as a full vector in original column order
    a = np.array([[4.0, 1.0, 2.0], [1.0, 3.0, 1.0]])
    b = np.array([1.0, 2.0])
    sys, square = partition_system(a, b), a[:, :2]
    steps = [
        (partial(baseline_step, a, b), 3),
        (partial(generalized_jacobi_step, sys), 3),
        (partial(generalized_gauss_seidel_step, sys), 3),
        (partial(classical_jacobi_step, square, b), 2),
        (partial(classical_gauss_seidel_step, square, b), 2),
    ]
    for step, n in steps:
        assert step(np.zeros(n)).shape == (n,)
        for x in (np.zeros(n + 1), np.zeros(n - 1), np.zeros((n, 1))):
            with pytest.raises(DimensionMismatch):
                step(x)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), extra=st.integers(1, 6),
       step=st.sampled_from((generalized_jacobi_step, generalized_gauss_seidel_step)))
def test_step_on_a_column_order_matches_the_reordered_system(seed, m, extra, step):
    # a step on a column order gathers x into slot order and scatters its
    # result back: the same values, bit for bit, as a step on the matrix
    # whose columns are physically reordered, read in original order
    rng = np.random.default_rng(seed)
    a, m, n = random_partitioned(rng, m=m, n=m + extra)
    perm = rng.permutation(n)
    b = rng.uniform(-5.0, 5.0, size=m)
    x = rng.uniform(-2.0, 2.0, size=n)
    reordered = step(split_system(a[:, perm], b, range(n), m), x[perm])
    new = step(split_system(a, b, perm, m), x)
    assert np.array_equal(new[perm], reordered)
