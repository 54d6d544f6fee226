from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve import convergence, formats, generate, iterate, linalg, partition
from undersolve import rref as rref_module
from undersolve.demo import DEMO_A, DEMO_B, DEMO_X0
from undersolve.errors import DimensionMismatch, InvalidInput, ZeroDiagonal, ZeroRow, ZeroTailRow
from undersolve.iterate import (
    GENERALIZED_METHODS,
    METHOD_BASELINE,
    METHOD_GGS,
    METHOD_GJACOBI,
    METHOD_GS,
    METHOD_JACOBI,
    METHODS,
    SQUARE_METHODS,
    SWEEPS,
    SolverConfig,
    _drive,
    run,
)
from undersolve.linalg import NORM_INF, NORM_ONE, row_one_norms, sign_matrix, vector_norm
from undersolve.partition import POLICIES, POLICY_IDENTITY, POLICY_PIVOT_COLUMNS, column_order
from undersolve.rref import exact_solve, reduced_system

from oracles import brute_step, brute_step_operators, random_partitioned
from stepping import stepper


def test_baseline_one_row():
    z = stepper(np.array([[1.0, 1.0]]), np.array([2.0]), None)(np.zeros(2))
    assert z.tolist() == [1.0, 1.0]


def test_baseline_fixed_point():
    rng = np.random.default_rng(2)
    a = rng.uniform(-5, 5, size=(3, 5))
    x = rng.uniform(-1, 1, size=5)
    b = a @ x
    assert np.abs(stepper(a, b, None)(x) - x).max() <= 1e-12


def test_baseline_zero_row():
    with pytest.raises(ZeroRow):
        stepper(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([1.0, 1.0]), None)(np.zeros(2))


def test_gjacobi_hand_example():
    x1 = stepper([[1, 0, 2], [0, 1, 1]], [3, 2], METHOD_JACOBI)(np.zeros(3))
    assert x1[2:].tolist() == [1.75]
    assert x1[:2].tolist() == [-0.5, 0.25]
    assert np.allclose(np.array([[1, 0, 2], [0, 1, 1]]) @ x1, [3, 2])


def test_gjacobi_fixed_point():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, m, n = random_partitioned(rng, lo=2, hi=6)
        op = iterate.prepare(a, range(n), METHOD_JACOBI)
        head = rng.uniform(-1, 1, size=m)
        tail = rng.uniform(-1, 1, size=n - m)
        b = op.b_head @ head + op.b_tail @ tail
        x1 = stepper(a, b, METHOD_JACOBI)(np.concatenate([head, tail]))
        assert np.abs(x1[:m] - head).max() <= 1e-12
        assert np.abs(x1[m:] - tail).max() <= 1e-12


def test_gjacobi_exact_each_step_on_reduced_demo():
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    step = stepper(a_bar, b_bar, METHOD_JACOBI)
    x = DEMO_X0
    for _ in range(5):
        x = step(x)
        assert np.abs(a_bar @ x - b_bar).max() <= 1e-10 * (1 + np.abs(b_bar).max())


def test_gjacobi_zero_tail_row():
    a = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]])
    with pytest.raises(ZeroTailRow):
        stepper(a, [1.0, 2.0], METHOD_JACOBI)(np.zeros(3))


def test_gjacobi_zero_diagonal():
    a = np.array([[0.0, 2.0, 1.0], [3.0, 4.0, 5.0]])
    with pytest.raises(ZeroDiagonal):
        stepper(a, [1.0, 2.0], METHOD_JACOBI)(np.zeros(3))


def test_ggs_hand_example():
    a = np.column_stack([np.array([[2.0, 0.0], [1.0, 4.0]]), np.array([[1.0], [1.0]])])
    b = np.array([4.0, 9.0])
    op = iterate.prepare(a, range(3), METHOD_GS)
    x1 = stepper(a, b, METHOD_GS)(np.zeros(3))
    assert x1[2:].tolist() == [6.5]
    assert x1[:2].tolist() == [-1.25, 0.9375]
    # oracle: dense solve of L head = b_hat
    b_hat = b - op.b_tail @ x1[2:]
    assert np.allclose(x1[:2], np.linalg.solve(np.tril(op.b_head), b_hat))


def test_ggs_prepare_inverts_no_large_block(monkeypatch):
    # a general inverse of the whole m x m triangle costs about 2m^3 flops,
    # three times a blocked triangular one; only base blocks may reach LAPACK
    rng = np.random.default_rng(12)
    m = 300
    head = np.tril(rng.uniform(-1.0, 1.0, size=(m, m)), -1) + np.diag(rng.uniform(m, 2 * m, size=m))
    a = np.hstack([head, rng.uniform(-1.0, 1.0, size=(m, 2 * m))])
    shapes = []
    for name in ("inv", "solve"):
        def record(mat, *args, original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(mat))
            return original(mat, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    op = iterate.prepare(a, range(3 * m), METHOD_GS)
    assert all(max(shape) <= 64 for shape in shapes)
    assert np.abs(op.lower_inv @ head - np.eye(m)).max() <= 1e-12


def test_ggs_matches_gjacobi_for_identity_head():
    rng = np.random.default_rng(6)
    a = np.column_stack([np.eye(3), rng.uniform(-2, 2, size=(3, 2))])
    b = rng.uniform(-3, 3, size=3)
    x0 = np.concatenate([rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=2)])
    xj = stepper(a, b, METHOD_JACOBI)(x0)
    xg = stepper(a, b, METHOD_GS)(x0)
    assert np.array_equal(xj, xg)


def test_ggs_fixed_point():
    rng = np.random.default_rng(8)
    a, m, n = random_partitioned(rng, lo=3, hi=6)
    head = rng.uniform(-1, 1, size=m)
    tail = rng.uniform(-1, 1, size=n - m)
    b = a[:, :m] @ head + a[:, m:] @ tail
    x1 = stepper(a, b, METHOD_GS)(np.concatenate([head, tail]))
    assert np.abs(x1[:m] - head).max() <= 1e-12
    assert np.abs(x1[m:] - tail).max() <= 1e-12


def test_classical_jacobi():
    x1 = stepper(np.array([[4.0, 1.0], [1.0, 3.0]]),
                 np.array([1.0, 2.0]), METHOD_JACOBI)(np.zeros(2))
    assert np.allclose(x1, [0.25, 2.0 / 3.0])
    # diagonal matrix solves in one step
    d = np.diag([2.0, 5.0])
    assert stepper(d, np.array([4.0, 10.0]), METHOD_JACOBI)(np.zeros(2)).tolist() == [2, 2]
    # fixed point
    b_mat = np.array([[3.0, 1.0], [1.0, 4.0]])
    x = np.array([1.0, -2.0])
    assert np.abs(stepper(b_mat, b_mat @ x, METHOD_JACOBI)(x) - x).max() <= 1e-12


def test_classical_gauss_seidel():
    b_mat = np.array([[2.0, 1.0], [1.0, 3.0]])
    x1 = stepper(b_mat, np.array([3.0, 5.0]), METHOD_GS)(np.zeros(2))
    # forward substitution by hand: x1[0]=3/2, x1[1]=(5-1.5)/3
    assert np.allclose(x1, [1.5, 3.5 / 3.0])
    d = np.diag([2.0, 5.0])
    assert stepper(d, np.array([4.0, 10.0]), METHOD_GS)(np.zeros(2)).tolist() == [2, 2]
    x = np.array([1.0, -2.0])
    assert np.abs(stepper(b_mat, b_mat @ x, METHOD_GS)(x) - x).max() <= 1e-12


def test_weighted_residual_identity():
    # d from the tail update equals (1/m) N^-1 (b - A x)
    rng = np.random.default_rng(10)
    for _ in range(30):
        a, m, n = random_partitioned(rng)
        x = rng.uniform(-2, 2, size=n)
        b = rng.uniform(-5, 5, size=m)
        perm = column_order(a, POLICY_IDENTITY)
        op = iterate.prepare(a, perm, METHOD_JACOBI)
        slots = x[list(perm)]
        norms = row_one_norms(op.b_tail)
        b_tilde = b - op.b_head @ slots[:m]
        d = (b_tilde - op.b_tail @ slots[m:]) / (m * norms)
        expected = (b - a @ x) / (m * norms)
        assert np.abs(d - expected).max() <= 1e-12 * (1 + np.abs(expected).max())


@pytest.mark.parametrize("sweep,splitting", [
    pytest.param(METHOD_JACOBI, "diag", id="generalized_jacobi_step-diag"),
    pytest.param(METHOD_GS, "tril", id="generalized_gauss_seidel_step-tril"),
])
def test_residual_recurrence(sweep, splitting):
    rng = np.random.default_rng(12)
    for _ in range(30):
        a, m, n = random_partitioned(rng)
        b = rng.uniform(-5, 5, size=m)
        op = iterate.prepare(a, range(n), sweep)
        x = rng.uniform(-2, 2, size=n)
        new = stepper(a, b, sweep)(x)
        r = a @ x - b
        head_inv = (np.diag(1.0 / np.diag(op.b_head)) if splitting == "diag"
                    else np.linalg.inv(np.tril(op.b_head)))
        tail_op = np.eye(m) - (op.b_tail @ sign_matrix(op.b_tail)) \
            / row_one_norms(op.b_tail)[np.newaxis, :] / m
        predicted = (np.eye(m) - op.b_head @ head_inv) @ tail_op @ r
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


@pytest.mark.parametrize("field,value", [
    ("max_iterations", 2.5),
    ("max_iterations", "10"),
    ("stagnation_window", 2.5),
    ("epsilon", "1e-8"),
    ("epsilon", None),
    ("epsilon", 10**400),
    ("epsilon", True),
    ("max_iterations", True),
    ("stagnation_window", True),
    ("stagnation_window", False),
])
def test_config_rejects_a_value_of_the_wrong_type(field, value):
    # a count must be an integer and epsilon a real number with a finite
    # float value: a typed error here, not a TypeError from range() or a
    # comparison inside a solve, nor an OverflowError from float()
    with pytest.raises(InvalidInput, match=field):
        SolverConfig(**{field: value})
    # numpy scalars of the right kind are accepted and stored as the Python
    # numbers they equal, which the JSON report writes and reads back
    kind = float if field == "epsilon" else int
    for right in ((np.float64(1e-8), np.float32(1e-8)) if kind is float else (np.int64(3),)):
        config = SolverConfig(**{field: right})
        assert type(getattr(config, field)) is kind
        report = run([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]], [3.0, 2.0], None, config)
        assert formats.read_report(formats.write_report(report)).config == config


@pytest.mark.parametrize("method", METHODS)
def test_config_rejects_a_policy_it_would_ignore(method):
    with pytest.raises(InvalidInput, match="unknown permutation policy"):
        SolverConfig(method=method, permutation_policy="bogus")
    if method in GENERALIZED_METHODS:
        a, b = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 7.0]]), np.array([1.0, 1.0])
        report = run(a, b, None, SolverConfig(method=method,
                                              permutation_policy=POLICY_PIVOT_COLUMNS))
        expected = tuple(column_order(a, POLICY_PIVOT_COLUMNS).tolist())
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
    # run checks its input once and splits the checked matrix: no second
    # validating copy of A
    counts = _count_calls(monkeypatch, (iterate, linalg, partition, rref_module),
                          ("as_matrix",))
    rng = np.random.default_rng(18)
    a, m, n = random_partitioned(rng, m=4, n=9)
    report = run(a, rng.uniform(-5.0, 5.0, size=m), None,
                 SolverConfig(method=method, permutation_policy=policy, max_iterations=3))
    assert report.iterations >= 1
    assert counts["as_matrix"] == 1


@pytest.mark.parametrize("method", METHODS)
def test_run_rejects_wrong_length_x0(method):
    # x0 is a full vector in original column order; exact_solve checks it
    # against the reduced system's columns
    a = np.array([[4.0, 1.0, 2.0], [1.0, 3.0, 1.0]])
    b = np.array([1.0, 2.0])
    if method in SQUARE_METHODS:
        a = a[:, :2]
    n = a.shape[1]
    config = SolverConfig(method=method, max_iterations=2)
    assert run(a, b, np.zeros(n), config).solution.shape == (n,)
    solves = [partial(run, a, b, config=config)]
    if method in GENERALIZED_METHODS:
        solves.append(partial(exact_solve, a, b, config=config))
        assert exact_solve(a, b, np.zeros(n), config).solution.shape == (n,)
    for solve in solves:
        for x0 in (np.zeros(n + 1), np.zeros(n - 1), np.zeros((n, 1))):
            with pytest.raises(DimensionMismatch, match="x0 length|1-D vector"):
                solve(x0=x0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), extra=st.integers(1, 6),
       method=st.sampled_from((METHOD_GJACOBI, METHOD_GGS)), max_iterations=st.integers(1, 5))
def test_drive_on_a_column_order_matches_the_reordered_system(seed, m, extra, method,
                                                               max_iterations):
    # _drive gathers x0 into slot order and scatters its solution back:
    # the same solve, to rounding, as on the matrix whose columns are
    # physically reordered, read back in original order.  One row is left
    # out: its sweep solves the system, and whether the fresh residual is
    # then exactly 0 (converged below 1e-300) depends on summation order
    rng = np.random.default_rng(seed)
    a, m, n = random_partitioned(rng, m=m, n=m + extra)
    perm = rng.permutation(n)
    b = rng.uniform(-5.0, 5.0, size=m)
    x0 = rng.uniform(-2.0, 2.0, size=n)
    config = SolverConfig(method=method, epsilon=1e-300, max_iterations=max_iterations)
    permuted, _ = _drive(a, b, perm, x0, config)
    reordered, _ = _drive(a[:, perm], b, range(n), x0[perm], config)
    assert permuted.status == reordered.status
    assert permuted.iterations == reordered.iterations
    expected = np.empty(n)
    expected[perm] = reordered.solution
    scale = 1.0 + np.abs(expected).max()
    assert np.abs(permuted.solution - expected).max() <= 1e-12 * scale


def _method_case(seed, method, policy, m, extra):
    """A random system for ``method`` and its column order under ``policy``
    (the identity order for the methods without a policy)."""
    rng = np.random.default_rng(seed)
    a, m, n = random_partitioned(rng, m=m, n=m + extra)
    if method in SQUARE_METHODS:
        a = a[:, :m]
    b = rng.uniform(-5.0, 5.0, size=m)
    perm = column_order(a, policy if method in GENERALIZED_METHODS else POLICY_IDENTITY)
    return rng, a, b, perm


_cases = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), extra=st.integers(1, 6),
              method=st.sampled_from(METHODS), policy=st.sampled_from(POLICIES))


def _prepared(a, perm, method):
    """The operator, and the condition number of its head splitting H
    (1 without a head): applying H^-1 as a formed inverse, as Gauss-Seidel
    does, rounds in proportion to it, where the oracle substitutes."""
    try:
        op = iterate.prepare(a, perm, SWEEPS[method])
    except ZeroDiagonal:   # a pivot-columns head may put a zero on the diagonal
        return None, None
    if op.sweep is None:
        return op, 1.0
    head = np.diag(op.diag) if op.diag is not None else np.tril(op.b_head)
    return op, np.linalg.cond(head, np.inf)


@settings(max_examples=150, deadline=None)
@given(**_cases)
def test_advance_matches_the_oracle_residual_operator(seed, m, extra, method, policy):
    # M r from the loop-written M: each column is the residual one brute
    # step leaves from x = 0 on the right-hand side e_j
    rng, a, _, perm = _method_case(seed, method, policy, m, extra)
    op, cond = _prepared(a, perm, method)
    if op is None:
        return
    mat, gain = (np.array(o) for o in brute_step_operators(
        a.tolist(), tuple(perm.tolist()), op.b_head.shape[1], SWEEPS[method]))
    r = rng.uniform(-5.0, 5.0, size=a.shape[0])
    # both sides round at most a few units of |A| |K| |r| per entry
    bound = 1e-12 * cond * (np.abs(a) @ np.abs(gain) @ np.abs(r) + np.abs(r))
    assert np.all(np.abs(op.advance(r) - mat @ r) <= bound)


@settings(max_examples=150, deadline=None)
@given(**_cases)
def test_gain_matches_the_brute_step(seed, m, extra, method, policy):
    # slots + K r, with r = b - A x, is the brute step from x
    rng, a, b, perm = _method_case(seed, method, policy, m, extra)
    op, cond = _prepared(a, perm, method)
    if op is None:
        return
    x = rng.uniform(-2.0, 2.0, size=a.shape[1])
    head_size = op.b_head.shape[1]
    new = stepper(a, b, SWEEPS[method], perm)(x)
    expected = np.array(brute_step(a.tolist(), b.tolist(), x.tolist(), tuple(perm.tolist()),
                                   head_size, SWEEPS[method]))
    gain = np.array(brute_step_operators(a.tolist(), tuple(perm.tolist()), head_size,
                                         SWEEPS[method])[1])
    bound = 1e-12 * cond * (np.abs(x) + np.abs(gain) @ (np.abs(b) + np.abs(a) @ np.abs(x)))
    assert np.all(np.abs(new - expected) <= bound)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), extra=st.integers(1, 6),
       method=st.sampled_from(METHODS), policy=st.sampled_from(POLICIES),
       steps=st.integers(1, 6))
def test_a_k_step_run_matches_k_brute_steps(seed, m, extra, method, policy, steps):
    # the driver carries only the residual and gathers x = x0 + K (r_0 +
    # ... + r_k-1) at the end: the x that k brute steps make one at a time.
    # The head is dominant with a decreasing diagonal, so every policy
    # keeps it on the diagonal and the steps stay well conditioned
    rng = np.random.default_rng(seed)
    n = m if method in SQUARE_METHODS else m + extra
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    a[np.arange(m), np.arange(m)] = 2.0 * m + m - np.arange(m)
    b = rng.uniform(-5.0, 5.0, size=m)
    x0 = rng.uniform(-2.0, 2.0, size=n)
    config = SolverConfig(
        method=method, epsilon=1e-300, max_iterations=steps,
        permutation_policy=policy if method in GENERALIZED_METHODS else POLICY_IDENTITY)
    report = run(a, b, x0, config)
    if report.status == "max_iterations":
        assert report.iterations == steps
    # whatever the status, the last entry is the fresh residual of the solution
    assert report.residual_norms[-1] == vector_norm(a @ report.solution - b, NORM_ONE)
    head_size = 0 if method == METHOD_BASELINE else m
    perm = report.column_perm or tuple(range(n))
    expected = x0.tolist()
    for _ in range(report.iterations):
        expected = brute_step(a.tolist(), b.tolist(), expected, perm, head_size,
                              SWEEPS[method])
    expected = np.array(expected)
    assert np.abs(report.solution - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), extra=st.integers(1, 6),
       norm=st.sampled_from((NORM_ONE, NORM_INF)), max_iterations=st.integers(1, 200))
def test_a_baseline_run_across_blocks_matches_its_brute_steps(seed, m, extra, norm,
                                                              max_iterations):
    # baseline advances its residual a block of steps per pass of the loop;
    # a run that ends anywhere in or across blocks is still the x that its
    # steps make one at a time
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(m, m + extra))
    a[np.arange(m), np.arange(m)] = 2.0 * m + m - np.arange(m)
    b = rng.uniform(-5.0, 5.0, size=m)
    x0 = rng.uniform(-2.0, 2.0, size=m + extra)
    report = run(a, b, x0, SolverConfig(method=METHOD_BASELINE, epsilon=1e-300,
                                        max_iterations=max_iterations, residual_norm=norm))
    assert report.iterations == len(report.residual_norms) - 1 <= max_iterations
    assert report.residual_norms[-1] == vector_norm(a @ report.solution - b, norm)
    expected = x0.tolist()
    for _ in range(report.iterations):
        expected = brute_step(a.tolist(), b.tolist(), expected, tuple(range(m + extra)), 0,
                              None)
    expected = np.array(expected)
    assert np.abs(report.solution - expected).max() <= 1e-12 * np.abs(expected).max()


def _step_at_a_time(a, b, x0, config):
    """The status and carried norms of a baseline solve that advances
    r <- T r one step at a time from r = b - A x0, stopping at the first
    norm below epsilon (converged), above 1e12 ||r0|| (diverged), after
    ``stagnation_window`` steps in a row within a relative 1e-14 of the
    norm before (stagnated) or at max_iterations; none of it refreshed."""
    tail_map = iterate.prepare(a, np.arange(a.shape[1]), None).tail_map
    r = b - a @ x0
    norms = [vector_norm(r, config.residual_norm)]
    stagnant = 0
    while len(norms) <= config.max_iterations:
        r = tail_map @ r
        norms.append(vector_norm(r, config.residual_norm))
        if not norms[-1] <= iterate.DIVERGENCE_FACTOR * norms[0]:
            return "diverged", norms
        if norms[-1] < config.epsilon:
            return "converged", norms
        stagnant = stagnant + 1 if abs(norms[-1] - norms[-2]) < 1e-14 * norms[-2] else 0
        if stagnant == config.stagnation_window:
            return "stagnated", norms
    return "max_iterations", norms


def _reduced_demo():
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    return a_bar, b_bar, np.array(DEMO_X0, dtype=float)


def _benchmark_start(seed):
    a, b = _benchmark_system(30, 120, np.random.default_rng(seed))
    return a, b, np.zeros(120)


def _certified_50x200():
    # the system ``gen --certified --rows 50 --cols 200 --seed 0`` writes
    a, b, _ = generate.generate_certified(50, 200, np.random.default_rng(0))
    return a, b, np.zeros(200)


def _overflowing_after_divergence():
    # rho(T) = 1.33 and ||r0|| near 1e295: the solve diverges at step 98,
    # where ||r|| passes 1e307, and the 29 rows of its block after that
    # step overflow to inf
    a = np.array([[5.0, -6793.0, -5.0, 7803.0, 25.0],
                  [-10000.0, 8.0, -17.0, -6.0, -3204.0],
                  [-63.0, -2.0, -8817.0, 4.0, -22.0]])
    return a, np.array([1.0, -2.0, 3.0]) * 1e294, np.zeros(5)


def _stagnating():
    # T has an eigenvalue 1 to rounding: the norm settles above epsilon,
    # and the first stagnant step lands in the middle of a block
    a = np.array([[1e8, 1.0, -1.0, 2.0], [1.0, -1e-8, 1e-8, 1.0], [1.0, 1.0, -1.0, 3.0]])
    return a, np.array([1.0, 2.0, 3.0]), np.zeros(4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("norm", (NORM_ONE, NORM_INF))
@pytest.mark.parametrize("system,status", [
    pytest.param(_stagnating, "stagnated", id="stagnating"),
    pytest.param(_reduced_demo, "converged", id="reduced-demo"),
    pytest.param(partial(_benchmark_start, 0), "converged", id="benchmark-30x120"),
    # rho(T) > 1: the norm passes 1e12 ||r0|| in the middle of a block
    pytest.param(_certified_50x200, "diverged", id="certified-50x200"),
    pytest.param(_overflowing_after_divergence, "diverged", id="overflow-after-divergence"),
])
def test_block_residuals_match_the_step_at_a_time_recurrence(system, status, norm):
    # rows of a block come from T^2, T^4, ... T^32; their norms are the
    # recurrence's to rounding, and the block stops at the same step
    a, b, x0 = system()
    config = SolverConfig(method=METHOD_BASELINE, residual_norm=norm)
    expected_status, expected = _step_at_a_time(a, b, x0, config)
    report = run(a, b, x0, config)
    assert report.status == expected_status == status
    assert report.iterations == len(expected) - 1
    carried, expected = np.array(report.residual_norms[:-1]), np.array(expected[:-1])
    assert np.all(np.abs(carried - expected) <= 1e-10 * expected)
    if system is _certified_50x200 and norm == NORM_ONE:
        assert report.iterations == 1044   # 16 blocks of 64 steps and 20 more


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("max_iterations", (63, 64, 65))
def test_max_iterations_lands_inside_or_on_a_block(max_iterations):
    a, b, x0 = _reduced_demo()
    report = run(a, b, x0, SolverConfig(method=METHOD_BASELINE,
                                        max_iterations=max_iterations))
    assert report.status == "max_iterations"
    assert report.iterations == len(report.residual_norms) - 1 == max_iterations
    status, expected = _step_at_a_time(a, b, x0, report.config)
    assert status == "max_iterations"
    assert np.all(np.abs(np.array(report.residual_norms[:-1]) - expected[:-1])
                  <= 1e-10 * np.array(expected[:-1]))


def _benchmark_system(m, n, rng):
    """The benchmark's certified system: head diagonal U(1, 2) plus
    non-negative off-diagonal U(0, 1.8/m); one signed U(0.5, 1.5) tail
    entry per column, rows assigned round-robin; b = A x*."""
    head = rng.uniform(0.0, 1.8 / m, size=(m, m))
    np.fill_diagonal(head, rng.uniform(1.0, 2.0, size=m))
    cols = np.arange(n - m)
    tail = np.zeros((m, n - m))
    tail[cols % m, cols] = rng.uniform(0.5, 1.5, size=n - m) * rng.choice([-1.0, 1.0],
                                                                          size=n - m)
    a = np.hstack([head, tail])
    return a, a @ rng.uniform(-1.0, 1.0, size=n)


# iterations and fresh final 1-norm residual of each solve below, as the
# driver gave them when it still recomputed the residual from x every step;
# all stagnated but ggs on seed 2, which ran to max_iterations
_BELOW_FLOOR = {
    (0, METHOD_BASELINE): (2499, 3.3e-14), (0, METHOD_GJACOBI): (289, 2.8e-15),
    (0, METHOD_GGS): (1563, 1.9e-15),
    (1, METHOD_BASELINE): (2051, 9.5e-14), (1, METHOD_GJACOBI): (136, 2.2e-15),
    (1, METHOD_GGS): (959, 3.2e-15),
    (2, METHOD_BASELINE): (2357, 5.4e-14), (2, METHOD_GJACOBI): (410, 2.8e-15),
    (2, METHOD_GGS): (10000, 3.6e-15),
    (3, METHOD_BASELINE): (2149, 6.1e-14), (3, METHOD_GJACOBI): (600, 3.6e-15),
    (3, METHOD_GGS): (767, 3.2e-15),
    (4, METHOD_BASELINE): (2275, 5.1e-14), (4, METHOD_GJACOBI): (181, 2.3e-15),
    (4, METHOD_GGS): (1394, 3.2e-15),
}


@pytest.mark.parametrize("seed,method", sorted(_BELOW_FLOOR))
def test_below_the_rounding_floor_the_solve_stagnates(seed, method):
    # epsilon = 1e-300 is below what b - A x can reach: the carried
    # recurrence would shrink on past it, so the driver refreshes it below
    # n u (||A|| ||x|| + ||b||) and stops once x settles at its rounding
    a, b = _benchmark_system(30, 120, np.random.default_rng(seed))
    report = run(a, b, None, SolverConfig(method=method, epsilon=1e-300))
    iterations, residual = _BELOW_FLOOR[seed, method]
    fresh = vector_norm(a @ report.solution - b, NORM_ONE)
    assert report.status == "stagnated"
    assert report.iterations <= 1.1 * iterations
    assert report.residual_norms[-1] == fresh <= 2.0 * residual


@pytest.mark.parametrize("epsilon", (1e-8, 1e-300))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_baseline_blocks_throw_little_away(seed, epsilon, monkeypatch):
    # a step that checks or stops throws away the rest of its block; the
    # next block is no longer than the steps that pass took, so below the
    # rounding floor, where every step is a fresh check, a 64-step block
    # is not formed for every step
    rows = []
    block = iterate._residual_block
    monkeypatch.setattr(iterate, "_residual_block",
                        lambda powers, r, k: rows.append(k) or block(powers, r, k))
    a, b = _benchmark_system(30, 120, np.random.default_rng(seed))
    report = run(a, b, None, SolverConfig(method=METHOD_BASELINE, epsilon=epsilon))
    assert report.status == ("converged" if epsilon == 1e-8 else "stagnated")
    assert report.iterations <= sum(rows) <= 2 * report.iterations + iterate._BLOCK


def test_a_step_run_through_the_checks_early_changes_nothing(monkeypatch):
    # the checks handle a plain step as the bulk commit does: report the
    # first step of the first block as not plain, and the solve is the same
    # to rounding, while the next blocks start at one step and double back
    # to 64
    a, b, x0 = _reduced_demo()
    config = SolverConfig(method=METHOD_BASELINE)
    expected = run(a, b, x0, config)
    sizes = []
    block, plain_steps = iterate._residual_block, iterate._plain_steps
    monkeypatch.setattr(iterate, "_residual_block",
                        lambda powers, r, k: sizes.append(k) or block(powers, r, k))
    monkeypatch.setattr(iterate, "_plain_steps",
                        lambda *args: plain_steps(*args) if len(sizes) > 1 else 0)
    report = run(a, b, x0, config)
    assert (report.status, report.iterations) == (expected.status, expected.iterations)
    assert np.allclose(report.residual_norms[:-1], expected.residual_norms[:-1], rtol=1e-10,
                       atol=0.0)
    assert np.abs(report.solution - expected.solution).max() <= 1e-12 * np.abs(
        expected.solution).max()
    assert sizes[:9] == [64, 1, 2, 4, 8, 16, 32, 64, 64]
