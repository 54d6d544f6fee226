"""Command-line interface.

Subcommands: solve, check, rref, compare, gen.  Exit codes: 0 converged
(or certified / generated), 2 max-iterations or stagnated, 3 diverged or
inconsistent, 1 uncertified (check only), 4 input or validation errors.
"""

import argparse
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


def _load_problem(args, need_x0_len=None):
    try:
        a = formats.load_matrix_file(args.matrix)
    except (OSError, SolverError, ValueError) as exc:
        raise CliError(f"cannot read matrix {args.matrix}: {exc}")
    try:
        b = formats.load_vector_file(args.rhs)
    except (OSError, SolverError, ValueError) as exc:
        raise CliError(f"cannot read rhs {args.rhs}: {exc}")
    if a.shape[0] != b.shape[0]:
        raise CliError(
            f"rhs {args.rhs} has length {b.shape[0]}, matrix has {a.shape[0]} rows")
    x0 = None
    if getattr(args, "x0", None):
        try:
            x0 = formats.load_vector_file(args.x0)
        except (OSError, SolverError, ValueError) as exc:
            raise CliError(f"cannot read x0 {args.x0}: {exc}")
        if x0.shape[0] != a.shape[1]:
            raise CliError(
                f"x0 {args.x0} has length {x0.shape[0]}, matrix has {a.shape[1]} columns")
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


def _validate_shape(method, a):
    m, n = a.shape
    if method in iterate.UNDERDETERMINED_METHODS and m >= n:
        raise CliError("method requires m < n")
    if method in iterate.SQUARE_METHODS and m != n:
        raise CliError("method requires a square matrix")


def _print_summary(report):
    final = report.residual_norms[-1] if report.residual_norms else float("nan")
    print(f"status:         {report.status}"
          + (f" ({report.error})" if report.error else ""))
    print(f"iterations:     {report.iterations}")
    print(f"final residual: {final:.6e}")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_solve(args):
    a, b, x0 = _load_problem(args)
    _validate_shape(args.method, a)
    config = _config(args, args.method)
    report = iterate.run(a, b, x0, config)
    _print_summary(report)
    if args.json:
        _write_text(args.json, formats.write_report(report))
    return STATUS_EXIT[report.status]


def cmd_check(args):
    a, b, _ = _load_problem(args)
    _validate_shape(args.method, a)
    policy = POLICY_PIVOT_COLUMNS if args.pivot_columns else POLICY_IDENTITY
    try:
        sys_part = partition_system(a, b, policy)
        report = convergence.check_conditions(sys_part, args.method)
    except SolverError as exc:
        raise CliError(str(exc))
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
    if a.shape[0] >= a.shape[1]:
        raise CliError("method requires m < n")
    config = _config(args, args.method)
    reduction = reduced_system(a, b)
    result, a_bar, b_bar = reduction
    print("reduced system [A b]:")
    for i in range(result.matrix.shape[0]):
        print("  " + "  ".join(f"{v:10.4f}" for v in result.matrix[i]))
    if a_bar.shape[0] < a.shape[0]:
        print(f"rank-deficient: {a.shape[0]} rows reduced to {a_bar.shape[0]}")
    report = solve_reduced(reduction, x0, config)
    if report.error == Inconsistent.kind:
        print("status:         error (inconsistent system)")
        if args.json:
            _write_text(args.json, formats.write_report(report))
        return EXIT_DIVERGED
    _print_summary(report)
    print("solution: " + "  ".join(f"{v:.6f}" for v in report.solution))
    r_reduced = vector_norm(a_bar @ report.solution - b_bar, NORM_ONE)
    r_orig = vector_norm(a @ report.solution - b, NORM_ONE)
    print(f"residual vs reduced system (1-norm):  {r_reduced:.6e}")
    print(f"residual vs original system (1-norm): {r_orig:.6e}")
    if args.json:
        _write_text(args.json, formats.write_report(report))
    return STATUS_EXIT[report.status]


def cmd_compare(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise CliError("no methods given")
    for method in methods:
        if method not in iterate.METHODS:
            raise CliError(f"unknown method: {method!r}")
    a, b, x0 = _load_problem(args)
    for method in methods:
        _validate_shape(method, a)
    rows = []
    for method in methods:
        config = _config(args, method)
        report = iterate.run(a, b, x0, config)
        rows.append((method, report))
    print(f"{'method':<10} {'status':<16} {'iterations':>10} {'residual(1-norm)':>18}")
    for method, report in rows:
        final = vector_norm(a @ report.solution - b, NORM_ONE)
        print(f"{method:<10} {report.status:<16} {report.iterations:>10} {final:>18.6e}")
    if args.json:
        obj = [json.loads(formats.write_report(rep)) for _, rep in rows]
        _write_text(args.json, json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_gen(args):
    if args.rows >= args.cols:
        raise CliError("generation requires rows < cols")
    rng = np.random.default_rng(args.seed)
    try:
        if args.certified:
            a, b, x_star = generate.generate_certified(args.rows, args.cols, rng)
        else:
            a, b, x_star = generate.generate_system(args.rows, args.cols, rng)
    except (SolverError, ValueError) as exc:
        raise CliError(str(exc))
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

    p = sub.add_parser("solve", help="run one iterative method")
    add_common(p)
    p.add_argument("--method", required=True, choices=list(iterate.METHODS))
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--norm", choices=["one", "inf"], default="one")
    p.add_argument("--pivot-columns", action="store_true",
                   help="permute columns to secure a nonsingular head block")
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
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10000)
    p.set_defaults(func=cmd_rref)

    p = sub.add_parser("compare", help="run several methods from the same start")
    add_common(p)
    p.add_argument("--methods", required=True,
                   help="comma-separated list, e.g. baseline,gjacobi")
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10000)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
