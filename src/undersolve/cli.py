"""Command-line interface.

Subcommands: solve, check, rref, compare, gen.  Exit codes: 0 converged
(or certified / generated), 1 uncertified (``check`` only), 2
max-iterations or stagnated, 3 diverged or inconsistent, 4 every input or
validation error: a usage error (a missing or unknown option or method, a
mistyped value), an unreadable or malformed file, NaN/Inf entries, a
duplicate Matrix Market coordinate, mismatched lengths or shapes, a bad
``--eps``, ``--max-iter`` or ``--seed``, or an unwritable output path
or standard output (a closed pipe).

The library makes every validation decision, ``SolverConfig`` every default;
the CLI loads files, calls it, and exits 4 in one place, ``main``.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import convergence, formats, generate, iterate
from .errors import Inconsistent, SolverError
from .rref import reduced_system
from .linalg import NORM_INF, NORM_ONE, vector_norm
from .partition import POLICY_PIVOT_COLUMNS

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_NOT_CONVERGED = 2
EXIT_DIVERGED = 3
EXIT_INPUT = 4

STATUS_EXIT = {
    iterate.STATUS_CONVERGED: EXIT_OK,
    iterate.STATUS_MAX_ITERATIONS: EXIT_NOT_CONVERGED,
    iterate.STATUS_STAGNATED: EXIT_NOT_CONVERGED,
    iterate.STATUS_DIVERGED: EXIT_DIVERGED,
    iterate.STATUS_ERROR: EXIT_INPUT,
}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, as input errors do; argparse's 2 is "not converged"."""

    def error(self, message):
        raise CliError(message)


def _exit_code(report):
    """The exit code of a solve report: its status, except that an
    inconsistent system counts as diverged."""
    if report.error == Inconsistent.kind:
        return EXIT_DIVERGED
    return STATUS_EXIT[report.status]


def _load(path, loader, what):
    try:
        return loader(path)
    except (OSError, SolverError, ValueError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}")


def _load_problem(args):
    a = _load(args.matrix, formats.load_matrix_file, "matrix")
    b = _load(args.rhs, formats.load_vector_file, "rhs")
    x0 = getattr(args, "x0", None)
    if x0:
        x0 = _load(x0, formats.load_vector_file, "x0")
    return a, b, x0


def _config(args, method):
    """The options, named as ``SolverConfig`` fields; a field no option sets keeps its default."""
    fields = {field.name for field in dataclasses.fields(iterate.SolverConfig)}
    settings = {name: value for name, value in vars(args).items() if name in fields}
    return iterate.SolverConfig(**dict(settings, method=method))


def _print_summary(report):
    final = report.residual_norms[-1] if report.residual_norms else float("nan")
    print(f"status:         {report.status}"
          + (f" ({report.error})" if report.error else ""))
    print(f"iterations:     {report.iterations}")
    print(f"final residual: {final:.6e}")


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _with_conditions(report, op):
    """The report with the conditions of the solve's own operator, when a
    generalized method prepared one (it then iterated without error)."""
    if op is None or report.config.method not in iterate.GENERALIZED_METHODS:
        return report
    return dataclasses.replace(report, conditions=convergence.operator_conditions(op))


def cmd_solve(args):
    a, b, x0 = _load_problem(args)
    report, op = iterate.run_with_operator(a, b, x0, _config(args, args.method))
    _print_summary(report)
    if args.json:
        _write_text(args.json, formats.write_report(_with_conditions(report, op)))
    return _exit_code(report)


def cmd_check(args):
    a, b, _ = _load_problem(args)
    report = convergence.check_conditions(a, b, args.method, args.permutation_policy)
    m = len(b)
    print(f"method: {args.method}")
    for rec in report.per_norm:
        verdict = "certified" if rec.certified else "uncertified"
        print(f"  norm={rec.norm:<4} c1={rec.c1:.6e} c2={rec.c2:.6e} "
              f"(bound {m}) -> {verdict}")
    factor = convergence.contraction_factor(report, m)
    if factor is not None:
        print(f"contraction factor bound: {factor:.6e}")
    print("overall: " + ("certified" if report.overall_certified else "uncertified"))
    if args.json:
        _write_text(args.json, formats.write_report(report))
    return EXIT_OK if report.overall_certified else EXIT_UNCERTIFIED


_TABLE_CELLS = 10_000   # rref prints the reduced [A b] cell by cell up to this size


def cmd_rref(args):
    a, b, x0 = _load_problem(args)
    config = _config(args, args.method)
    reduction = reduced_system(a, b)
    result, a_bar, _ = reduction
    rows, cols = result.matrix.shape
    if result.matrix.size > _TABLE_CELLS:
        print(f"reduced system [A b]: {rows} x {cols}, rank {result.rank} (table not printed)")
    else:
        print("reduced system [A b]:")
        row_format = "  " + "  ".join(["%10.4f"] * cols)
        for row in result.matrix.tolist():
            print(row_format % tuple(row))
    if a_bar.shape[0] < a.shape[0]:
        print(f"rank-deficient: {a.shape[0]} rows reduced to {a_bar.shape[0]}")
    report, op = iterate.solve_reduced(reduction, x0, config)
    _print_summary(report)
    if report.status != iterate.STATUS_ERROR:
        print("solution: " + "  ".join(f"{v:.6f}" for v in report.solution))
        r_orig = vector_norm(a @ report.solution - b, NORM_ONE)
        # the report's last norm is the fresh 1-norm residual of the reduced system
        print(f"residual vs reduced system (1-norm):  {report.residual_norms[-1]:.6e}")
        print(f"residual vs original system (1-norm): {r_orig:.6e}")
    if args.json:
        _write_text(args.json, formats.write_report(_with_conditions(report, op)))
    return _exit_code(report)


def cmd_compare(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise CliError("no methods given")
    configs = [_config(args, method) for method in methods]
    a, b, x0 = _load_problem(args)
    # each operator is dropped, after --json takes its conditions, before
    # the next method runs
    solves = (iterate.run_with_operator(a, b, x0, config) for config in configs)
    reports = [_with_conditions(report, op) if args.json else report for report, op in solves]
    print(f"{'method':<10} {'status':<16} {'iterations':>10} {'residual(1-norm)':>18}")
    for report in reports:
        # the last norm is the fresh 1-norm residual of the solution
        print(f"{report.config.method:<10} {report.status:<16} {report.iterations:>10} "
              f"{report.residual_norms[-1]:>18.6e}")
    if args.json:
        _write_text(args.json, formats.write_report(reports))
    return EXIT_OK


def cmd_gen(args):
    if args.seed < 0:
        raise CliError(f"--seed must be nonnegative, not {args.seed}")
    make = generate.generate_certified if args.certified else generate.generate_system
    a, b, x_star = make(args.rows, args.cols, np.random.default_rng(args.seed))
    prefix = args.out_prefix
    _write_text(f"{prefix}_A.csv", formats.write_csv_matrix(a))
    _write_text(f"{prefix}_b.csv", formats.write_csv_vector(b))
    _write_text(f"{prefix}_x.csv", formats.write_csv_vector(x_star))
    print(f"wrote {prefix}_A.csv, {prefix}_b.csv, {prefix}_x.csv")
    return EXIT_OK


def build_parser():
    defaults = iterate.SolverConfig
    parser = _Parser(
        prog="undersolve",
        description="Stationary iterative solvers for underdetermined linear systems")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, x0=True):
        p.add_argument("--matrix", required=True, help="matrix file (.csv or .mtx)")
        p.add_argument("--rhs", required=True, help="right-hand-side vector file")
        if x0:
            p.add_argument("--x0", help="initial guess vector file (default: zeros)")
        p.add_argument("--json", help="write machine-readable output to this path")

    def add_stopping(p):
        p.add_argument("--eps", dest="epsilon", type=float, default=defaults.epsilon)
        p.add_argument("--max-iter", dest="max_iterations", type=int,
                       default=defaults.max_iterations)

    def add_policy(p):
        p.add_argument("--pivot-columns", dest="permutation_policy", action="store_const",
                       const=POLICY_PIVOT_COLUMNS, default=defaults.permutation_policy,
                       help="partition on the RREF pivot columns of A (A's own head when "
                            "its leading columns are independent; gjacobi and ggs only)")

    p = sub.add_parser("solve", help="run one iterative method")
    add_common(p)
    p.add_argument("--method", required=True, choices=list(iterate.METHODS))
    add_stopping(p)
    p.add_argument("--norm", dest="residual_norm", choices=[NORM_ONE, NORM_INF],
                   default=defaults.residual_norm)
    add_policy(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="evaluate sufficient convergence conditions")
    add_common(p, x0=False)
    p.add_argument("--method", choices=list(iterate.GENERALIZED_METHODS), default=defaults.method)
    add_policy(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rref", help="reduce to row echelon form and solve exactly")
    add_common(p)
    p.add_argument("--method", choices=list(iterate.GENERALIZED_METHODS), default=defaults.method)
    add_stopping(p)
    p.set_defaults(func=cmd_rref)

    p = sub.add_parser("compare", help="run several methods from the same start")
    add_common(p)
    p.add_argument("--methods", required=True,
                   help="comma-separated list, e.g. baseline,gjacobi")
    add_stopping(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="generate a random system with a known solution")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certified", action="store_true",
                   help="keep sampling until the convergence conditions certify")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()      # a closed stdout fails here, not at exit
        return code
    except (CliError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # an unwritable output.  Closing stdout drops what it still holds,
        # which the flush at exit would fail on again
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        print("error: cannot write standard output: broken pipe", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
