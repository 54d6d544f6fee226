"""Command-line interface.

Subcommands: solve, check, rref, compare, gen.  Exit codes: 0 converged
(or certified / generated), 1 uncertified (``check`` only), 2
max-iterations or stagnated, 3 diverged or inconsistent, 4 every input or
validation error: an unreadable or malformed file, NaN/Inf entries, a
duplicate Matrix Market coordinate, mismatched lengths or shapes, a bad
``--eps``/``--max-iter``, or an unknown method.

The library makes every validation decision; the CLI loads files, calls
it, and turns a ``SolverError`` into exit code 4 in one place, ``main``.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import convergence, formats, generate, iterate
from .errors import Inconsistent, SolverError
from .rref import reduced_system, solve_reduced
from .linalg import NORM_INF, NORM_ONE, vector_norm
from .partition import POLICY_IDENTITY, POLICY_PIVOT_COLUMNS, partition_system

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
    return iterate.SolverConfig(
        method=method,
        epsilon=args.eps,
        max_iterations=args.max_iter,
        residual_norm=NORM_INF if getattr(args, "norm", "one") == "inf" else NORM_ONE,
        permutation_policy=(POLICY_PIVOT_COLUMNS if getattr(args, "pivot_columns", False)
                            else POLICY_IDENTITY),
    )


def _print_summary(report):
    final = report.residual_norms[-1] if report.residual_norms else float("nan")
    print(f"status:         {report.status}"
          + (f" ({report.error})" if report.error else ""))
    print(f"iterations:     {report.iterations}")
    print(f"final residual: {final:.6e}")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
    policy = POLICY_PIVOT_COLUMNS if args.pivot_columns else POLICY_IDENTITY
    sys_part = partition_system(a, b, policy)
    report = convergence.check_conditions(sys_part, args.method)
    print(f"method: {args.method}")
    for rec in report.per_norm:
        verdict = "certified" if rec.certified else "uncertified"
        print(f"  norm={rec.norm_kind:<4} c1={rec.c1:.6e} c2={rec.c2:.6e} "
              f"(bound {sys_part.m}) -> {verdict}")
    factor = convergence.contraction_factor(report, sys_part.m)
    if factor is not None:
        print(f"contraction factor bound: {factor:.6e}")
    print("overall: " + ("certified" if report.overall_certified else "uncertified"))
    if args.json:
        obj = formats._conditions_to_obj(report)
        _write_text(args.json, json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if report.overall_certified else EXIT_UNCERTIFIED


def cmd_rref(args):
    a, b, x0 = _load_problem(args)
    config = _config(args, args.method)
    reduction = reduced_system(a, b)
    result, a_bar, b_bar = reduction
    print("reduced system [A b]:")
    row_format = "  " + "  ".join(["%10.4f"] * result.matrix.shape[1])
    for row in result.matrix.tolist():
        print(row_format % tuple(row))
    if a_bar.shape[0] < a.shape[0]:
        print(f"rank-deficient: {a.shape[0]} rows reduced to {a_bar.shape[0]}")
    report, op = solve_reduced(reduction, x0, config)
    _print_summary(report)
    if report.status != iterate.STATUS_ERROR:
        print("solution: " + "  ".join(f"{v:.6f}" for v in report.solution))
        r_reduced = vector_norm(a_bar @ report.solution - b_bar, NORM_ONE)
        r_orig = vector_norm(a @ report.solution - b, NORM_ONE)
        print(f"residual vs reduced system (1-norm):  {r_reduced:.6e}")
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
        final = vector_norm(a @ report.solution - b, NORM_ONE)
        print(f"{report.config.method:<10} {report.status:<16} {report.iterations:>10} "
              f"{final:>18.6e}")
    if args.json:
        obj = [json.loads(formats.write_report(rep)) for rep in reports]
        _write_text(args.json, json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_gen(args):
    make = generate.generate_certified if args.certified else generate.generate_system
    a, b, x_star = make(args.rows, args.cols, np.random.default_rng(args.seed))
    prefix = args.out_prefix
    _write_text(f"{prefix}_A.csv", formats.write_csv_matrix(a))
    _write_text(f"{prefix}_b.csv", formats.write_csv_vector(b))
    _write_text(f"{prefix}_x.csv", formats.write_csv_vector(x_star))
    print(f"wrote {prefix}_A.csv, {prefix}_b.csv, {prefix}_x.csv")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
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
        p.add_argument("--eps", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=10000)

    p = sub.add_parser("solve", help="run one iterative method")
    add_common(p)
    p.add_argument("--method", required=True, choices=list(iterate.METHODS))
    add_stopping(p)
    p.add_argument("--norm", choices=["one", "inf"], default="one")
    p.add_argument("--pivot-columns", action="store_true",
                   help="permute columns to secure a nonsingular head block "
                        "(gjacobi and ggs only)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="evaluate sufficient convergence conditions")
    add_common(p, x0=False)
    p.add_argument("--method", choices=list(iterate.GENERALIZED_METHODS),
                   default=iterate.METHOD_GJACOBI)
    p.add_argument("--pivot-columns", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rref", help="reduce to row echelon form and solve exactly")
    add_common(p)
    p.add_argument("--method", choices=list(iterate.GENERALIZED_METHODS),
                   default=iterate.METHOD_GJACOBI)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
