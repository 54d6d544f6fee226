"""Inputs, operations and correctness checks of the benchmark workloads.

Every input is built here from the workload seed with numpy; the program
only receives the finished arrays and files.  A change to
``undersolve.generate`` or ``undersolve.demo`` therefore cannot change
what is measured.  Program functions are looked up on their module at
call time (``iterate.run``, ``cli.main``) so that the span tracer's
wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from undersolve import cli, iterate

EPS = 1e-8
RHO = 0.9               # off-diagonal mass of the head block per row
INPUTS_PER_RUN = 3      # 500x2000 systems in a solve op; 300x1200 jobs exact-files cycles over
SMALL_SYSTEMS = 10      # 30x120 systems in a solve op
FLOAT_BYTES = 8

# The 5x8 demonstration system of the paper, owned by the benchmark.
DEMO_A = (
    (2, 4, -3, 1, 0, 5, -7, 8),
    (3, 2, 10, -4, -1, -6, 4, 1),
    (9, 7, 3, 2, 0, 0, -4, 2),
    (6, 4, 0, -1, -1, 3, 10, 5),
    (5, 2, -3, -7, -5, 4, 8, -8),
)
DEMO_B = (38, 20, 39, -16, -30)
DEMO_X0 = (2.0, 0.0, -1.0, 2.0, 0.0, 0.0, -3.0, 1.0)

LARGE_SHAPE = (500, 2000)
SMALL_SHAPE = (30, 120)
FILES_SHAPE = (300, 1200)


@dataclass
class Outcome:
    """What one op produced, as seen by the correctness checks."""
    problems: list = field(default_factory=list)
    iterations: dict = field(default_factory=dict)   # "input/method" -> count
    bytes_computed: float = 0.0
    flops_computed: float = 0.0
    mtx_entries: int = 0
    bytes_written: int = 0

    def solved(self, label, method, shape, iterations):
        self.iterations[label] = iterations
        work_bytes, work_flops = step_work(method, *shape)
        self.bytes_computed += work_bytes * iterations
        self.flops_computed += work_flops * iterations


@dataclass
class Op:
    run: Callable[[], object]            # timed: calls into the program only
    check: Callable[[object], Outcome]   # untimed: numpy checks of the result


@dataclass
class Workload:
    ops: list
    inputs: list                          # fingerprints of every input
    cleanup: Callable[[], None] = lambda: None


def step_work(method, m, n):
    """Bytes and flops one step of ``method`` must spend on its matrix
    operands, computed from the block shapes: each float64 operand of a
    matrix-vector product or triangular solve is read once.  This is a
    lower bound on traffic, not the bytes the current code moves.
    """
    k = n - m
    if method == "baseline":
        elements = 2 * m * n                 # A z and s(A) d
    elif method in ("gjacobi", "ggs"):
        elements = 2 * m * m + 3 * m * k     # head: B x, split sweep; tail: three products
    else:
        elements = m * m                     # classical sweep over the square block
    return FLOAT_BYTES * elements, 2 * elements


def build_system(m, n, rng):
    """Certified m x n system with a known solution.

    Head: diagonal U(1, 2) plus non-negative off-diagonal U(0, 2*RHO/m).
    Tail: one signed U(0.5, 1.5) entry per column, rows assigned
    round-robin, so tail rows have disjoint supports.
    """
    head = rng.uniform(0.0, 2.0 * RHO / m, size=(m, m))
    np.fill_diagonal(head, rng.uniform(1.0, 2.0, size=m))
    k = n - m
    cols = np.arange(k)
    tail = np.zeros((m, k))
    tail[cols % m, cols] = rng.uniform(0.5, 1.5, size=k) * rng.choice([-1.0, 1.0], size=k)
    a = np.hstack([head, tail])
    x_star = rng.uniform(-1.0, 1.0, size=n)
    return a, a @ x_star


def reduced_demo():
    """Exact rational RREF of the demo's [A b], returned as float arrays."""
    rows = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(DEMO_A, DEMO_B)]
    m, width = len(rows), len(rows[0])
    pivot_row = 0
    for col in range(width - 1):
        found = next((r for r in range(pivot_row, m) if rows[r][col] != 0), None)
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        pivot = rows[pivot_row][col]
        rows[pivot_row] = [v / pivot for v in rows[pivot_row]]
        for r in range(m):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == m:
            break
    reduced = np.array([[float(v) for v in row] for row in rows[:pivot_row]])
    return reduced[:, :-1].copy(), reduced[:, -1].copy()


def fingerprint(name, a, b):
    return {
        "input": name,
        "shape": list(a.shape),
        "nnz": int(np.count_nonzero(a)),
        "sha256_A": hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest(),
        "sha256_b": hashlib.sha256(np.ascontiguousarray(b).tobytes()).hexdigest(),
    }


def solve(a, b, method, x0=None):
    config = iterate.SolverConfig(method=method, epsilon=EPS, residual_norm="one",
                                  permutation_policy="identity")
    return iterate.run(a, b, x0, config)


def check_solve(outcome, label, a, b, report):
    """A solve is correct when it converged and ||A x - b||_1 <= eps,
    recomputed here against the arrays the program was given."""
    method = report.config.method
    if report.status != "converged":
        outcome.problems.append(f"{label}: status {report.status}")
    residual = float(np.abs(a @ report.solution - b).sum())
    if not residual <= EPS:
        outcome.problems.append(f"{label}: residual {residual:.3e} > {EPS}")
    outcome.solved(label, method, a.shape, report.iterations)


def solve_workload(rng, work_dir):
    """One op runs every solve of the run, in this order:

    * large part: gjacobi then ggs on each of three 500x2000 systems;
    * small part: baseline on the reduced demo from its documented start,
      then on each of ten 30x120 systems gjacobi, ggs and baseline, and
      jacobi and gs on its head.

    Every op is the same work.  Ops that cycled over inputs with different
    iteration counts would put the run's median on whichever input host
    noise favoured, and ten small systems average out their seed-dependent
    iteration counts.
    """
    cases, inputs = [], []
    for i in range(INPUTS_PER_RUN):
        name = f"large{i}"
        a, b = build_system(*LARGE_SHAPE, rng)
        inputs.append(fingerprint(name, a, b))
        cases += [(name, a, b, method, None) for method in ("gjacobi", "ggs")]
    demo_a, demo_b = reduced_demo()
    inputs.append(fingerprint("demo-reduced", demo_a, demo_b))
    cases.append(("demo-reduced", demo_a, demo_b, "baseline", np.array(DEMO_X0)))
    m = SMALL_SHAPE[0]
    for i in range(SMALL_SYSTEMS):
        name = f"small{i}"
        a, b = build_system(*SMALL_SHAPE, rng)
        head = a[:, :m].copy()
        head_b = head @ rng.uniform(-1.0, 1.0, size=m)
        inputs += [fingerprint(name, a, b), fingerprint(f"{name}-head", head, head_b)]
        cases += [(name, a, b, method, None) for method in ("gjacobi", "ggs", "baseline")]
        cases += [(f"{name}-head", head, head_b, method, None) for method in ("jacobi", "gs")]

    def run():
        return [solve(a, b, method, x0) for _, a, b, method, x0 in cases]

    def check(reports):
        outcome = Outcome()
        for (label, a, b, method, _), report in zip(cases, reports):
            check_solve(outcome, f"{label}/{method}", a, b, report)
        return outcome

    return Workload([Op(run, check)], inputs)


def write_mtx(path, a):
    """Coordinate Matrix Market (real general); a vector is one column.
    Returns the number of entries written."""
    a = a.reshape(a.shape[0], -1)
    rows, cols = np.nonzero(a)
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{a.shape[0]} {a.shape[1]} {rows.size}"]
    lines += [f"{i + 1} {j + 1} {v!r}"
              for i, j, v in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())]
    path.write_text("\n".join(lines) + "\n")
    return int(rows.size)


def write_csv(path, a):
    a = a.reshape(a.shape[0], -1)
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in a.tolist()))


def read_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def certified_both(a):
    """Independent check of the sufficient conditions for gjacobi and ggs
    on the identity partition: in some norm, ||I - B H^-1|| < 1 (H the
    diagonal or lower triangle of the head) and
    ||m I - tail s(tail) N^-1|| < m."""
    m = a.shape[0]
    head, tail = a[:, :m], a[:, m:]
    norms = np.abs(tail).sum(axis=1)
    if np.any(norms == 0.0) or np.any(np.diag(head) == 0.0):
        return False
    identity = np.eye(m)
    tail_factor = m * identity - (tail @ np.sign(tail).T) / norms[np.newaxis, :]
    head_factors = (identity - head / np.diag(head)[np.newaxis, :],
                    identity - np.linalg.solve(np.tril(head).T, head.T).T)
    orders = (1, np.inf, "fro")
    return all(
        any(np.linalg.norm(h, o) < 1.0 and np.linalg.norm(tail_factor, o) < m for o in orders)
        for h in head_factors)


def check_generated(outcome, prefix, shape):
    """``gen`` output: the stated shape, b = A x* to rounding, certified."""
    a = read_csv(f"{prefix}_A.csv")
    b = read_csv(f"{prefix}_b.csv").ravel()
    x = read_csv(f"{prefix}_x.csv").ravel()
    if a.shape != shape or b.shape != (shape[0],) or x.shape != (shape[1],):
        outcome.problems.append(f"gen: shapes {a.shape}, {b.shape}, {x.shape}")
        return
    rounding = shape[1] * np.finfo(float).eps * (np.abs(a) @ np.abs(x))
    if np.any(np.abs(a @ x - b) > rounding):
        outcome.problems.append("gen: b differs from A x* beyond rounding")
    if not certified_both(a):
        outcome.problems.append("gen: system is not certified")


def exact_files(rng, work_dir):
    """One op is one CLI job: ``rref --json`` on Matrix Market files,
    ``check --method ggs`` on CSV copies, and ``gen --certified``."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    ops, inputs = [], []
    rref_json, check_json, gen_prefix = (
        work_dir / "rref.json", work_dir / "check.json", work_dir / "gen")
    outputs = [rref_json, check_json] + [work_dir / f"gen_{s}.csv" for s in ("A", "b", "x")]
    rows, cols = FILES_SHAPE
    for i in range(INPUTS_PER_RUN):
        a, b = build_system(rows, cols, rng)
        gen_seed = int(rng.integers(2**31))
        name = f"files{i}"
        inputs.append(dict(fingerprint(name, a, b), gen_seed=gen_seed))
        paths = {suffix: work_dir / f"{name}_{suffix}" for suffix in ("A.mtx", "b.mtx", "A.csv", "b.csv")}
        entries = write_mtx(paths["A.mtx"], a) + write_mtx(paths["b.mtx"], b)
        write_csv(paths["A.csv"], a)
        write_csv(paths["b.csv"], b)
        commands = [
            ["rref", "--matrix", str(paths["A.mtx"]), "--rhs", str(paths["b.mtx"]),
             "--json", str(rref_json)],
            ["check", "--matrix", str(paths["A.csv"]), "--rhs", str(paths["b.csv"]),
             "--method", "ggs", "--json", str(check_json)],
            ["gen", "--certified", "--rows", str(rows), "--cols", str(cols),
             "--seed", str(gen_seed), "--out-prefix", str(gen_prefix)],
        ]

        def run(commands=commands):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                codes = [cli.main(argv) for argv in commands]
            return codes, err.getvalue()

        def check(result, a=a, b=b, name=name, entries=entries, commands=commands):
            codes, err = result
            outcome = Outcome(mtx_entries=entries)
            for argv, code in zip(commands, codes):
                if code != 0:
                    outcome.problems.append(f"{argv[0]}: exit {code} {err.strip()}")
            try:
                report = json.loads(rref_json.read_text())
                if report["status"] != "converged":
                    outcome.problems.append(f"rref: status {report['status']}")
                residual = float(np.abs(a @ np.array(report["solution"]) - b).sum())
                if not residual <= EPS * (1.0 + np.abs(b).sum()):
                    outcome.problems.append(f"rref: residual {residual:.3e}")
                outcome.solved(f"{name}/rref-{report['config']['method']}",
                               report["config"]["method"], a.shape, report["iterations"])
                conditions = json.loads(check_json.read_text())
                if conditions["method"] != "ggs" or conditions["overall_certified"] is not True:
                    outcome.problems.append("check: ggs not certified")
                check_generated(outcome, gen_prefix, FILES_SHAPE)
                outcome.bytes_written = sum(p.stat().st_size for p in outputs)
            except (OSError, ValueError, KeyError) as exc:
                outcome.problems.append(f"outputs: {exc!r}")
            for p in outputs:
                p.unlink(missing_ok=True)
            return outcome

        ops.append(Op(run, check))
    return Workload(ops, inputs, lambda: shutil.rmtree(work_dir))


WORKLOADS = {
    "solve": solve_workload,
    "exact-files": exact_files,
}
