"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers.  Tolerances are fixed here, not calibrated."""

import time
from pathlib import Path

import numpy as np

from undersolve import formats
from undersolve.convergence import check_conditions
from undersolve.demo import DEMO_A, DEMO_B, DEMO_X0
from undersolve.generate import generate_certified
from undersolve.iterate import (
    METHOD_BASELINE,
    METHOD_GGS,
    METHOD_GJACOBI,
    METHOD_GS,
    METHOD_JACOBI,
    SolverConfig,
    exact_solve,
    prepare,
    run,
)
from undersolve.linalg import NORM_ONE, sign_matrix, vector_norm
from undersolve.rref import reduced_system, rref

from oracles import (
    brute_baseline_residual_operator,
    brute_baseline_step,
    brute_gauss_seidel_step,
    brute_jacobi_step,
    brute_row_one_norms,
    brute_sign_matrix,
    random_partitioned,
    rational_rref_floats,
)
from stepping import stepper

REPORT_DIR = Path(__file__).resolve().parent / "reports"

# reference reduction of the demo system as published, one decimal place
PUBLISHED_RREF_1DP = np.array([
    [1, 0, 0, 0, 0, 0.2, 5.7, 0.6, -20.5],
    [0, 1, 0, 0, 0, 0.6, -4.2, 2.0, 16.2],
    [0, 0, 1, 0, 0, 0.0, -4.0, 2.0, 9.1],
    [0, 0, 0, 1, 0, 3.0, 10.0, 5.0, 41.2],
    [0, 0, 0, 0, 1, 4.0, 8.0, -8.0, -83.1],
])


def _elapsed(t0):
    return time.perf_counter() - t0


def test_criterion_1_residual_recurrence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for method, use_diag in ((METHOD_GJACOBI, True), (METHOD_GGS, False)):
        for _ in range(100):
            a, m, n = random_partitioned(rng)
            b = rng.uniform(-10, 10, size=m)
            op = prepare(a, range(n), method)
            x = rng.uniform(-2, 2, size=n)
            new = stepper(a, b, method)(x)
            r = a @ x - b
            head_inv = (np.diag(1.0 / np.diag(op.head.block)) if use_diag
                        else np.linalg.inv(np.tril(op.head.block)))
            tail_op = np.eye(m) - (op.tail.block @ sign_matrix(op.tail.block)) \
                / vector_norm(op.tail.block, NORM_ONE)[np.newaxis, :] / m
            predicted = (np.eye(m) - op.head.block @ head_inv) @ tail_op @ r
            actual = a @ new - b
            err = np.abs(actual - predicted).max() / (1 + np.abs(r).max())
            worst = max(worst, err)
            assert err <= 1e-10
    dt = _elapsed(t0)
    assert dt < 5.0
    print(f"PASS criterion 1: residual recurrence holds, worst rel err "
          f"{worst:.2e} <= 1e-10 ({dt:.2f}s)")


def test_criterion_2_exact_solution_each_iteration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, 2 * m + 6))
        a = rng.uniform(-10, 10, size=(m, n))
        x_star = rng.uniform(-1, 1, size=n)
        b = a @ x_star
        _, a_bar, b_bar = reduced_system(a, b)
        config = SolverConfig(method=METHOD_GJACOBI, epsilon=1e-300,
                              max_iterations=4, residual_norm="inf")
        report = exact_solve(a, b, None, config)
        assert report.error is None
        bound = 1e-10 * (1 + np.abs(b_bar).max())
        for r in report.residual_norms[1:]:
            worst = max(worst, r / bound)
            assert r <= bound
    dt = _elapsed(t0)
    assert dt < 5.0
    print(f"PASS criterion 2: every iteration exact, worst residual at "
          f"{worst:.2e} of bound ({dt:.2f}s)")


def test_criterion_3_worked_example(capsys=None):
    t0 = time.perf_counter()
    aug = np.column_stack([DEMO_A, DEMO_B])
    result = rref(aug)
    expected, pivots = rational_rref_floats(aug.tolist())
    assert tuple(pivots) == result.pivot_columns == (0, 1, 2, 3, 4)
    assert np.abs(result.matrix - expected).max() <= 1e-9

    # published-table comparison is informational: discrepancies go to a
    # report file instead of failing the suite
    REPORT_DIR.mkdir(exist_ok=True)
    diffs = []
    for i in range(5):
        for j in range(9):
            delta = abs(result.matrix[i, j] - PUBLISHED_RREF_1DP[i, j])
            if delta > 0.05:
                diffs.append(f"entry ({i + 1},{j + 1}): computed "
                             f"{result.matrix[i, j]:.4f}, published "
                             f"{PUBLISHED_RREF_1DP[i, j]:.1f}, |delta| {delta:.4f}")
    report_path = REPORT_DIR / "rref_table_discrepancies.txt"
    report_path.write_text(
        "Comparison of the computed reduced row echelon form of the demo\n"
        "system against the published one-decimal table (tolerance 0.05).\n"
        + ("All entries agree.\n" if not diffs else "\n".join(diffs) + "\n"))

    report = exact_solve(DEMO_A, DEMO_B, DEMO_X0)
    assert report.status == "converged"
    resid1 = np.abs(DEMO_A @ report.solution - DEMO_B).sum()
    assert resid1 <= 1e-8
    assert np.all(report.solution != 0)
    dt = _elapsed(t0)
    assert dt < 1.0
    print(f"PASS criterion 3: oracle match <=1e-9, exact non-basic solution "
          f"(|Ax-b|_1 = {resid1:.2e}); {len(diffs)} published-table "
          f"discrepancies logged to {report_path.name} ({dt:.2f}s)")


def test_criterion_4_baseline_contrast():
    # The paper's closing example contrasts the generalized methods with
    # another available method, here the sign-matrix baseline, and
    # reports that the baseline keeps a residual of 11.7462 on the demo.
    # The baseline as documented cannot do that.  Its residual obeys
    # r' = T*r with T = I - A*s(A)*N^-1/m, and the loop-written oracle T
    # on the reduced demo (A_bar, b_bar) has eigenvalue moduli 0.246,
    # 0.811, 0.971, 0.981 and 0.99170: rho < 1, so the residual goes to
    # zero from every start (on the unreduced demo rho ~ 1.0037 and the
    # baseline diverges, which does not keep 11.7462 either).  What the
    # demo really shows is the contrast asserted here: the exact pipeline
    # solves in one iteration, the baseline needs about a thousand times
    # more at the oracle's rate rho.  Every bound comes from the oracle or
    # from criterion 2, not from the measured run.
    t0 = time.perf_counter()
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    exact_bound = 1e-10 * (1 + np.abs(b_bar).max())   # criterion 2's bound

    # the program matches the oracle step on the judged data itself
    baseline_step = stepper(a_bar, b_bar, METHOD_BASELINE)
    z, z_brute = DEMO_X0.copy(), DEMO_X0.tolist()
    for _ in range(10):
        z = baseline_step(z)
        z_brute = brute_baseline_step(a_bar.tolist(), b_bar.tolist(), z_brute)
        assert np.abs(z - np.array(z_brute)).max() <= 1e-12

    for method in (METHOD_GJACOBI, METHOD_GGS):
        report = exact_solve(DEMO_A, DEMO_B, DEMO_X0, SolverConfig(method=method))
        assert report.status == "converged" and report.iterations == 1, method
        assert report.residual_norms[-1] <= exact_bound, method

    t_op = np.array(brute_baseline_residual_operator(a_bar.tolist()))
    rho = float(np.abs(np.linalg.eigvals(t_op)).max())
    assert rho < 1.0
    r0 = np.abs(b_bar - a_bar @ DEMO_X0).sum()
    predicted = int(np.ceil(np.log(1e-6 / r0) / np.log(rho)))

    z = DEMO_X0.copy()
    resid = [r0]                       # resid[k]: 1-norm after k steps
    for _ in range(10000):
        z = baseline_step(z)
        resid.append(np.abs(b_bar - a_bar @ z).sum())
    dt = _elapsed(t0)
    min_resid = min(resid)
    first_below_1em6 = next((k for k, r in enumerate(resid) if r <= 1e-6), None)
    near_published = [k for k, r in enumerate(resid) if 11.70 <= r <= 11.80]
    note = (f"iterations {near_published[:3]} hit [11.70, 11.80]"
            if near_published else "no iteration hit [11.70, 11.80]")
    print(f"criterion 4 (informational): min residual {min_resid:.3e}, "
          f"first <=1e-6 at k={first_below_1em6}; {note} ({dt:.2f}s)")
    assert dt < 2.0
    assert first_below_1em6 is not None, (
        f"baseline never reached 1e-6; oracle rho {rho:.6f} predicts "
        f"k={predicted}")
    assert predicted / 2 <= first_below_1em6 <= 2 * predicted, (
        f"first <=1e-6 at k={first_below_1em6}, oracle predicts k={predicted}")
    rate = (resid[1500] / resid[500]) ** (1 / 1000)
    assert abs(rate - rho) <= 1e-3, (
        f"observed rate {rate:.6f} over iterations 500-1500, oracle rho "
        f"{rho:.6f}")
    assert resid[-1] < exact_bound, (
        f"residual {resid[-1]:.3e} after 10000 steps; the published "
        f"persistent residual of 11.7462 is not reproduced, but the "
        f"baseline must still converge at rho {rho:.6f}")
    print(f"PASS criterion 4: exact pipeline 1 iteration; baseline rho "
          f"{rho:.6f} (oracle), observed rate {rate:.6f}, first <=1e-6 at "
          f"k={first_below_1em6} (predicted {predicted}), residual "
          f"{resid[-1]:.1e} after 10000 steps")


def test_criterion_5_certified_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    vec_norm = {
        "one": lambda v: np.abs(v).sum(),
        "inf": lambda v: np.abs(v).max(),
        "fro": lambda v: float(np.sqrt((v * v).sum())),
    }
    checked_ratios = 0
    for trial in range(50):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2 * m, 2 * m + 4))
        a, b, _ = generate_certified(m, n, rng)
        for method in (METHOD_GJACOBI, METHOD_GGS):
            cond = check_conditions(a, b, method)
            certified = [r for r in cond.per_norm if r.certified]
            assert certified
            for start in range(5):
                x0 = rng.uniform(-5, 5, size=n)
                report = run(a, b, x0, SolverConfig(
                    method=method, epsilon=1e-8, max_iterations=10000))
                assert report.status == "converged"
            # per-step ratio bound in each certifying norm
            step = stepper(a, b, method)
            for rec in certified:
                bound = rec.c1 * rec.c2 / m + 1e-9
                vn = vec_norm[rec.norm]
                x = rng.uniform(-5, 5, size=n)
                r_prev = vn(a @ x - b)
                floor = 1e-10 * (1 + np.abs(b).max())
                for _ in range(200):
                    x = step(x)
                    r = vn(a @ x - b)
                    if r_prev > floor:
                        assert r <= bound * r_prev + 1e-15
                        checked_ratios += 1
                    r_prev = r
                    if r < 1e-12:
                        break
    dt = _elapsed(t0)
    assert dt < 30.0
    print(f"PASS criterion 5: 50 certified systems converge from 5 starts, "
          f"{checked_ratios} step ratios within c1*c2/m + 1e-9 ({dt:.2f}s)")


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        a = rng.uniform(-10, 10, size=(m, n))
        a[rng.random(a.shape) < 0.15] = 0.0
        assert np.array_equal(sign_matrix(a), np.array(brute_sign_matrix(a.tolist())))
        assert np.abs(vector_norm(a, NORM_ONE)
                      - np.array(brute_row_one_norms(a.tolist()))).max() <= 1e-12
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 1, 8))
        a = rng.uniform(-10, 10, size=(m, n))
        while np.any(vector_norm(a, NORM_ONE) == 0):
            a = rng.uniform(-10, 10, size=(m, n))
        b = rng.uniform(-5, 5, size=m)
        z = rng.uniform(-2, 2, size=n)
        expected = np.array(brute_baseline_step(a.tolist(), b.tolist(), z.tolist()))
        assert np.abs(stepper(a, b, METHOD_BASELINE)(z) - expected).max() <= 1e-12
    for _ in range(200):
        m = int(rng.integers(1, 6))
        b_mat = rng.uniform(-5, 5, size=(m, m))
        np.fill_diagonal(b_mat, rng.uniform(1, 5, size=m) * rng.choice([-1, 1], size=m))
        rhs = rng.uniform(-5, 5, size=m)
        x = rng.uniform(-2, 2, size=m)
        ej = np.array(brute_jacobi_step(b_mat.tolist(), rhs.tolist(), x.tolist()))
        eg = np.array(brute_gauss_seidel_step(b_mat.tolist(), rhs.tolist(), x.tolist()))
        for sweep, expected in ((METHOD_JACOBI, ej), (METHOD_GS, eg)):
            step = stepper(b_mat, rhs, sweep)
            assert np.abs(step(x) - expected).max() <= 1e-12
    dt = _elapsed(t0)
    assert dt < 5.0
    print(f"PASS criterion 6: primitives match brute-force oracles to 1e-12 "
          f"({dt:.2f}s)")


def test_criterion_7_fixed_points():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    for _ in range(100):
        a, m, n = random_partitioned(rng, lo=2, hi=6)
        op = prepare(a, range(n), METHOD_GJACOBI)
        head = rng.uniform(-2, 2, size=m)
        tail = rng.uniform(-2, 2, size=n - m)
        b = op.head.block @ head + op.tail.block @ tail
        x_full = np.concatenate([head, tail])
        for method in (METHOD_GJACOBI, METHOD_GGS):
            out = stepper(a, b, method)(x_full)
            assert np.abs(out[:m] - head).max() <= 1e-12
            assert np.abs(out[m:] - tail).max() <= 1e-12
        assert np.abs(stepper(a, b, METHOD_BASELINE)(x_full) - x_full).max() <= 1e-12
        b_sq = a[:, :m]
        x_sq = rng.uniform(-2, 2, size=m)
        rhs = b_sq @ x_sq
        for sweep in (METHOD_JACOBI, METHOD_GS):
            step = stepper(b_sq, rhs, sweep)
            assert np.abs(step(x_sq) - x_sq).max() <= 1e-12
    dt = _elapsed(t0)
    print(f"PASS criterion 7: exact solutions are fixed points of all five "
          f"methods within 1e-12 ({dt:.2f}s)")


def test_criterion_8_io_roundtrips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    values = rng.uniform(-1, 1, size=200) * 10.0 ** rng.integers(-12, 13, size=200)
    mat = values.reshape(20, 10)
    assert np.array_equal(formats.read_csv_matrix(formats.write_csv_matrix(mat)), mat)
    vec = values[:50]
    assert np.array_equal(formats.read_csv_vector(formats.write_csv_vector(vec)), vec)
    for form in ("coordinate", "array"):
        sparse = mat.copy()
        sparse[rng.random(mat.shape) < 0.4] = 0.0
        assert np.array_equal(
            formats.read_matrix_market(formats.write_matrix_market(sparse, form)),
            sparse)
    a = rng.uniform(-3, 3, size=(3, 6))
    x = rng.uniform(-1, 1, size=6)
    report = run(a, a @ x + rng.uniform(-1, 1, size=3), None,
                 SolverConfig(max_iterations=50))
    text = formats.write_report(report)
    again = formats.read_report(text)
    assert formats.write_report(again) == text
    assert np.array_equal(again.solution, report.solution)
    assert again.residual_norms == report.residual_norms
    dt = _elapsed(t0)
    print(f"PASS criterion 8: CSV/MatrixMarket/report round-trips are "
          f"bit-identical ({dt:.2f}s)")
