import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from undersolve import convergence, formats, iterate
from undersolve.cli import _TABLE_CELLS, main
from undersolve.demo import DEMO_A, DEMO_B, DEMO_X0
from undersolve.iterate import GENERALIZED_METHODS
from undersolve.rref import reduced_system

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")


@pytest.fixture
def demo_files(tmp_path):
    paths = {}
    for name, writer, value in [
        ("A.csv", formats.write_csv_matrix, DEMO_A),
        ("b.csv", formats.write_csv_vector, DEMO_B),
        ("x0.csv", formats.write_csv_vector, DEMO_X0),
    ]:
        p = tmp_path / name
        p.write_text(writer(value))
        paths[name.split(".")[0]] = str(p)
    return paths


@pytest.fixture
def reduced_files(tmp_path):
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    pa = tmp_path / "Abar.csv"
    pb = tmp_path / "bbar.csv"
    pa.write_text(formats.write_csv_matrix(a_bar))
    pb.write_text(formats.write_csv_vector(b_bar))
    px = tmp_path / "x0.csv"
    px.write_text(formats.write_csv_vector(DEMO_X0))
    return str(pa), str(pb), str(px)


def test_solve_reduced_demo(reduced_files, capsys):
    pa, pb, px = reduced_files
    code = main(["solve", "--matrix", pa, "--rhs", pb, "--x0", px,
                 "--method", "gjacobi"])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged" in out


def test_solve_square_rejects_gjacobi(tmp_path, capsys):
    pa = tmp_path / "A.csv"
    pb = tmp_path / "b.csv"
    pa.write_text(formats.write_csv_matrix(np.eye(3)))
    pb.write_text(formats.write_csv_vector(np.ones(3)))
    code = main(["solve", "--matrix", str(pa), "--rhs", str(pb),
                 "--method", "gjacobi"])
    assert code == 4
    assert "requires m < n" in capsys.readouterr().err


def test_solve_x0_already_solution(tmp_path, capsys):
    rng = np.random.default_rng(51)
    a = rng.uniform(-3, 3, size=(2, 4))
    x = rng.uniform(-1, 1, size=4)
    (tmp_path / "A.csv").write_text(formats.write_csv_matrix(a))
    (tmp_path / "b.csv").write_text(formats.write_csv_vector(a @ x))
    (tmp_path / "x0.csv").write_text(formats.write_csv_vector(x))
    code = main(["solve", "--matrix", str(tmp_path / "A.csv"),
                 "--rhs", str(tmp_path / "b.csv"),
                 "--x0", str(tmp_path / "x0.csv"), "--method", "gjacobi"])
    assert code == 0
    assert "iterations:     0" in capsys.readouterr().out


def test_solve_exit_2_on_max_iterations(reduced_files, capsys):
    pa, pb, px = reduced_files
    code = main(["solve", "--matrix", pa, "--rhs", pb, "--x0", px,
                 "--method", "baseline", "--max-iter", "5"])
    assert code == 2
    assert "max_iterations" in capsys.readouterr().out


def test_solve_exit_3_on_divergence(tmp_path, capsys):
    (tmp_path / "A.csv").write_text(
        formats.write_csv_matrix(np.array([[1.0, 10.0], [10.0, 1.0]])))
    (tmp_path / "b.csv").write_text(formats.write_csv_vector(np.ones(2)))
    code = main(["solve", "--matrix", str(tmp_path / "A.csv"),
                 "--rhs", str(tmp_path / "b.csv"), "--method", "jacobi"])
    assert code == 3
    assert "diverged" in capsys.readouterr().out


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", "--matrix", str(tmp_path / "nope.csv"),
                 "--rhs", str(tmp_path / "nope2.csv"), "--method", "baseline"])
    assert code == 4
    assert "nope.csv" in capsys.readouterr().err


def test_check_certified_identity_head(tmp_path, capsys):
    a = np.column_stack([np.eye(2), np.array([[1.0, 0.5], [-0.25, 2.0]])])
    (tmp_path / "A.csv").write_text(formats.write_csv_matrix(a))
    (tmp_path / "b.csv").write_text(formats.write_csv_vector(np.ones(2)))
    code = main(["check", "--matrix", str(tmp_path / "A.csv"),
                 "--rhs", str(tmp_path / "b.csv")])
    out = capsys.readouterr().out
    assert "c1=0.0" in out
    assert code in (0, 1)   # c1 certified trivially; overall depends on c2


def test_check_uncertified_ones_tail(tmp_path, capsys):
    a = np.column_stack([np.eye(2), np.array([[1.0], [1.0]])])
    (tmp_path / "A.csv").write_text(formats.write_csv_matrix(a))
    (tmp_path / "b.csv").write_text(formats.write_csv_vector(np.ones(2)))
    code = main(["check", "--matrix", str(tmp_path / "A.csv"),
                 "--rhs", str(tmp_path / "b.csv")])
    assert code == 1
    assert "uncertified" in capsys.readouterr().out


def test_check_missing_file(tmp_path):
    assert main(["check", "--matrix", str(tmp_path / "gone.csv"),
                 "--rhs", str(tmp_path / "gone.csv")]) == 4


def test_rref_demo(demo_files, capsys):
    code = main(["rref", "--matrix", demo_files["A"], "--rhs", demo_files["b"],
                 "--x0", demo_files["x0"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "reduced system" in out
    assert "residual vs original system" in out


@pytest.mark.parametrize("case", ["demo", "negative-zero-and-wide"])
def test_rref_prints_reduced_rows_per_value(case, tmp_path, capsys):
    if case == "demo":
        a, b = DEMO_A, DEMO_B
    else:
        a = np.array([[1.0, 0.0, -0.0, 123456789.0, -1e-9],
                      [0.0, 1.0, 2.5, -0.0, -98765432.25]])
        b = np.array([-0.0, 1e12])
    (tmp_path / "A.csv").write_text(formats.write_csv_matrix(a))
    (tmp_path / "b.csv").write_text(formats.write_csv_vector(b))
    main(["rref", "--matrix", str(tmp_path / "A.csv"), "--rhs", str(tmp_path / "b.csv")])
    matrix = reduced_system(a, b)[0].matrix
    expected = ["  " + "  ".join(f"{v:10.4f}" for v in row) for row in matrix]
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("reduced system [A b]:") + 1
    assert lines[start:start + len(expected)] == expected
    if case != "demo":
        assert np.signbit(matrix[matrix == 0.0]).any()
        assert max(len(f"{v:10.4f}") for v in matrix.ravel()) > 10


@pytest.mark.parametrize("shape", [(50, 199), (73, 136)])
def test_rref_prints_the_table_up_to_its_limit(shape, tmp_path, capsys):
    # [A b] of 50 x 200 is exactly the limit's 10,000 cells and prints in
    # full; 73 x 137 is one cell over and prints one line with its shape
    # and rank; the CSV and Matrix Market readers print the same bytes
    m, n = shape
    rng = np.random.default_rng(m)
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    b = a @ rng.uniform(-1.0, 1.0, size=n)
    outs = []
    for suffix, write_matrix in ((".csv", formats.write_csv_matrix),
                                 (".mtx", formats.write_matrix_market)):
        (tmp_path / f"A{suffix}").write_text(write_matrix(a))
        (tmp_path / f"b{suffix}").write_text(write_matrix(b[:, None]))
        assert main(["rref", "--matrix", str(tmp_path / f"A{suffix}"),
                     "--rhs", str(tmp_path / f"b{suffix}")]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    result = reduced_system(a, b)[0]
    if m * (n + 1) <= _TABLE_CELLS:
        assert m * (n + 1) == _TABLE_CELLS
        assert lines[0] == "reduced system [A b]:"
        assert lines[1:m + 1] == ["  " + "  ".join(f"{v:10.4f}" for v in row)
                                  for row in result.matrix]
        assert lines[m + 1].startswith("status:")
    else:
        assert m * (n + 1) == _TABLE_CELLS + 1
        assert lines[0] == f"reduced system [A b]: {m} x {n + 1}, rank {m} (table not printed)"
        assert result.rank == m
        assert lines[1].startswith("status:")


def test_rref_reduces_once(demo_files, monkeypatch):
    rref_module = importlib.import_module("undersolve.rref")
    calls = []
    original = rref_module.rref
    monkeypatch.setattr(rref_module, "rref",
                        lambda *args: calls.append(1) or original(*args))
    assert main(["rref", "--matrix", demo_files["A"], "--rhs", demo_files["b"],
                 "--x0", demo_files["x0"]]) == 0
    assert len(calls) == 1


def test_rref_inconsistent(tmp_path, capsys):
    (tmp_path / "A.csv").write_text(formats.write_csv_matrix(np.ones((2, 3))))
    (tmp_path / "b.csv").write_text(formats.write_csv_vector(np.array([1.0, 2.0])))
    code = main(["rref", "--matrix", str(tmp_path / "A.csv"),
                 "--rhs", str(tmp_path / "b.csv")])
    assert code == 3
    assert "inconsistent" in capsys.readouterr().out


def test_rref_rank_deficient_consistent(tmp_path, capsys):
    a = np.array([[1.0, 2.0, 3.0, 1.0], [2.0, 4.0, 6.0, 2.0], [0.0, 1.0, 1.0, -1.0]])
    x = np.array([1.0, -1.0, 2.0, 0.5])
    (tmp_path / "A.csv").write_text(formats.write_csv_matrix(a))
    (tmp_path / "b.csv").write_text(formats.write_csv_vector(a @ x))
    code = main(["rref", "--matrix", str(tmp_path / "A.csv"),
                 "--rhs", str(tmp_path / "b.csv")])
    assert code == 0
    assert "rank-deficient" in capsys.readouterr().out


def test_compare_baseline_vs_gjacobi(reduced_files, capsys):
    pa, pb, px = reduced_files
    code = main(["compare", "--matrix", pa, "--rhs", pb, "--x0", px,
                 "--methods", "baseline,gjacobi", "--max-iter", "100"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("baseline", "gjacobi"))]
    assert len(lines) == 2
    base_resid = float(lines[0].split()[-1])
    gj_resid = float(lines[1].split()[-1])
    assert base_resid > 1.0
    assert gj_resid < 1e-8


def test_compare_empty_methods(reduced_files, capsys):
    pa, pb, px = reduced_files
    assert main(["compare", "--matrix", pa, "--rhs", pb, "--methods", " , "]) == 4


def test_gen_deterministic(tmp_path):
    args = ["gen", "--rows", "3", "--cols", "7", "--seed", "42"]
    assert main(args + ["--out-prefix", str(tmp_path / "one")]) == 0
    assert main(args + ["--out-prefix", str(tmp_path / "two")]) == 0
    for suffix in ("_A.csv", "_b.csv", "_x.csv"):
        assert (tmp_path / f"one{suffix}").read_text() == \
            (tmp_path / f"two{suffix}").read_text()


def test_gen_known_solution(tmp_path):
    assert main(["gen", "--rows", "3", "--cols", "6", "--seed", "9",
                 "--out-prefix", str(tmp_path / "p")]) == 0
    a = formats.load_matrix_file(tmp_path / "p_A.csv")
    b = formats.load_vector_file(tmp_path / "p_b.csv")
    x = formats.load_vector_file(tmp_path / "p_x.csv")
    assert np.abs(a @ x - b).max() <= 1e-12


def test_gen_certified_passes_check(tmp_path):
    assert main(["gen", "--rows", "3", "--cols", "8", "--seed", "1",
                 "--certified", "--out-prefix", str(tmp_path / "c")]) == 0
    for method in ("gjacobi", "ggs"):
        assert main(["check", "--matrix", str(tmp_path / "c_A.csv"),
                     "--rhs", str(tmp_path / "c_b.csv"),
                     "--method", method]) == 0


def test_gen_rejects_wide_short(tmp_path, capsys):
    assert main(["gen", "--rows", "4", "--cols", "4",
                 "--out-prefix", str(tmp_path / "bad")]) == 4


def _write(tmp_path, name, text, encoding="utf-8"):
    path = tmp_path / name
    path.write_text(text, encoding=encoding)
    return str(path)


MTX_HEADER = "%%MatrixMarket matrix coordinate real general\n"

# each case builds argv from the demo files and a temporary directory
INPUT_ERROR_CASES = {
    "solve-nan-mtx": lambda demo, tmp: [
        "solve", "--method", "gjacobi",
        "--matrix", _write(tmp, "A.mtx", MTX_HEADER + "2 3 2\n1 1 1.0\n2 2 nan\n"),
        "--rhs", _write(tmp, "b.csv", "1\n1\n")],
    "solve-eps-0": lambda demo, tmp: [
        "solve", "--method", "gjacobi", "--matrix", demo["A"], "--rhs", demo["b"],
        "--eps", "0"],
    "solve-eps-inf": lambda demo, tmp: [
        "solve", "--method", "gjacobi", "--matrix", demo["A"], "--rhs", demo["b"],
        "--eps", "inf"],
    "solve-max-iter-0": lambda demo, tmp: [
        "solve", "--method", "gjacobi", "--matrix", demo["A"], "--rhs", demo["b"],
        "--max-iter", "0"],
    "solve-duplicate-mtx": lambda demo, tmp: [
        "solve", "--method", "gjacobi",
        "--matrix", _write(tmp, "A.mtx", MTX_HEADER + "2 3 3\n1 1 1\n2 2 1\n1 1 5\n"),
        "--rhs", _write(tmp, "b.csv", "1\n1\n")],
    "solve-mtx-unsupported-object": lambda demo, tmp: [
        "solve", "--method", "gjacobi",
        "--matrix", _write(tmp, "A.mtx", "%%MatrixMarket vector coordinate real general\n"),
        "--rhs", demo["b"]],
    "solve-mtx-unsupported-format": lambda demo, tmp: [
        "solve", "--method", "gjacobi",
        "--matrix", _write(tmp, "A.mtx", "%%MatrixMarket matrix hyperbolic real general\n"),
        "--rhs", demo["b"]],
    "check-latin1-csv": lambda demo, tmp: [
        "check", "--matrix", _write(tmp, "A.csv", "1,2,3\n4,5,\xe9\n", encoding="latin-1"),
        "--rhs", _write(tmp, "b.csv", "1\n1\n")],
    "rref-rhs-length": lambda demo, tmp: [
        "rref", "--matrix", demo["A"], "--rhs", _write(tmp, "b.csv", "1\n1\n1\n1\n")],
    "gen-certified-too-few-columns": lambda demo, tmp: [
        "gen", "--rows", "3", "--cols", "5", "--certified",
        "--out-prefix", str(tmp / "gen")],
    "gen-negative-rows": lambda demo, tmp: [
        "gen", "--rows", "-1", "--cols", "5", "--out-prefix", str(tmp / "gen")],
    "gen-negative-seed": lambda demo, tmp: [
        "gen", "--rows", "3", "--cols", "8", "--seed", "-1", "--out-prefix", str(tmp / "gen")],
    # usage errors are input errors too; argparse's own exit 2 means "not converged"
    "solve-eps-not-a-number": lambda demo, tmp: [
        "solve", "--method", "gjacobi", "--matrix", demo["A"], "--rhs", demo["b"],
        "--eps", "abc"],
    "solve-max-iter-not-an-integer": lambda demo, tmp: [
        "solve", "--method", "gjacobi", "--matrix", demo["A"], "--rhs", demo["b"],
        "--max-iter", "1.5"],
    "solve-unknown-method": lambda demo, tmp: [
        "solve", "--method", "nope", "--matrix", demo["A"], "--rhs", demo["b"]],
    "solve-missing-rhs": lambda demo, tmp: [
        "solve", "--method", "gjacobi", "--matrix", demo["A"]],
    # --pivot-columns would be ignored by the non-generalized methods
    **{f"solve-{method}-pivot-columns": lambda demo, tmp, method=method: [
        "solve", "--method", method, "--pivot-columns", "--matrix", demo["A"],
        "--rhs", demo["b"]] for method in ("baseline", "jacobi", "gs")},
    "compare-square-method": lambda demo, tmp: [
        "compare", "--methods", "gjacobi,gs", "--matrix", demo["A"], "--rhs", demo["b"],
        "--max-iter", "5"],
}


@pytest.mark.parametrize("case", list(INPUT_ERROR_CASES))
def test_input_errors_exit_4(case, demo_files, tmp_path, capsys):
    code = main(INPUT_ERROR_CASES[case](demo_files, tmp_path))
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["top", "solve"])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert "usage: undersolve" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "gjacobi"],
    ["check"],
    ["rref"],
    ["compare", "--methods", "baseline,gjacobi", "--max-iter", "5"],
    ["gen", "--rows", "3", "--cols", "8"],
], ids=lambda argv: argv[0])
def test_unwritable_output_path_exits_4(argv, demo_files, tmp_path, capsys):
    target = str(tmp_path / "missing" / "out")
    if argv[0] == "gen":
        argv = argv + ["--out-prefix", target]
    else:
        argv = argv + ["--matrix", demo_files["A"], "--rhs", demo_files["b"], "--json", target]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1, err


@pytest.mark.parametrize("unbuffered", ("", "1"), ids=("buffered", "unbuffered"))
def test_closed_stdout_exits_4_with_one_error_line(unbuffered):
    # a stdout whose reader has gone (``undersolve solve ... | head -1``) is
    # an unwritable output: the write fails in print when stdout is
    # unbuffered and at main's flush when it is not, and neither failure
    # may print a traceback or fail again at exit
    a, b = os.path.join(DATA, "demo5x8_A.csv"), os.path.join(DATA, "demo5x8_b.csv")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "undersolve.cli", "solve", "--matrix", a,
             "--rhs", b, "--method", "gjacobi"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (4, "error: cannot write standard output: "
                                                "broken pipe\n")


def test_json_outputs_deterministic(reduced_files, tmp_path):
    pa, pb, px = reduced_files
    j1 = tmp_path / "r1.json"
    j2 = tmp_path / "r2.json"
    for j in (j1, j2):
        assert main(["solve", "--matrix", pa, "--rhs", pb, "--x0", px,
                     "--method", "gjacobi", "--json", str(j)]) == 0
    assert j1.read_bytes() == j2.read_bytes()
    obj = json.loads(j1.read_text())
    assert obj["status"] == "converged"


def _json_reports(path):
    obj = json.loads(path.read_text())
    return obj if isinstance(obj, list) else [obj]


def _assert_conditions_of_partition(obj, a, b):
    """A JSON report's conditions equal those of the operator prepared on
    the report's own column order of (a, b) to 12 digits, and are null
    unless a generalized method iterated without error.  Returns whether
    they are present."""
    method = obj["config"]["method"]
    if method not in GENERALIZED_METHODS or obj["error"] is not None or obj["iterations"] == 0:
        assert obj["conditions"] is None
        return False
    expected = convergence.operator_conditions(
        iterate.prepare(a, obj["column_perm"], method))
    got = formats.read_report(json.dumps(obj)).conditions
    assert (got.method, got.overall_certified) == (method, expected.overall_certified)
    for rec, exp in zip(got.per_norm, expected.per_norm, strict=True):
        assert (rec.norm, rec.certified) == (exp.norm, exp.certified)
        for field in ("c1", "c2", "cauchy_bound"):
            assert getattr(rec, field) == pytest.approx(getattr(exp, field), rel=1e-12, abs=0)
    return True


@pytest.mark.parametrize("system", ["demo", "certified"])
def test_json_reports_keep_their_conditions(system, tmp_path):
    # the library leaves conditions out of a solve; the JSON writers of
    # solve, rref and compare add them from the report's partition
    if system == "demo":
        paths = [os.path.join(DATA, f"demo5x8_{k}.csv") for k in ("A", "b")]
    else:
        prefix = str(tmp_path / "c")
        assert main(["gen", "--rows", "8", "--cols", "24", "--seed", "1", "--certified",
                     "--out-prefix", prefix]) == 0
        paths = [f"{prefix}_A.csv", f"{prefix}_b.csv"]
    a, b = formats.load_matrix_file(paths[0]), formats.load_vector_file(paths[1])
    _, a_bar, b_bar = reduced_system(a, b)
    runs = [(["solve", "--method", method] + policy, a, b)
            for method in GENERALIZED_METHODS for policy in ([], ["--pivot-columns"])]
    runs += [(["rref", "--method", method], a_bar, b_bar) for method in GENERALIZED_METHODS]
    runs += [(["compare", "--methods", "baseline,gjacobi,ggs", "--max-iter", "100"], a, b)]
    present = 0
    for i, (argv, a_sys, b_sys) in enumerate(runs):
        out = tmp_path / f"{i}.json"
        main(argv + ["--matrix", paths[0], "--rhs", paths[1], "--json", str(out)])
        present += sum(_assert_conditions_of_partition(obj, a_sys, b_sys)
                       for obj in _json_reports(out))
    assert present >= 6


def test_json_conditions_reuse_the_solve_operator(monkeypatch, tmp_path):
    # the JSON writers derive the conditions from the operator the solve
    # prepared, so each generalized solve prepares once
    prepared = []

    def counting_prepare(a, column_perm, method, _prepare=iterate.prepare):
        prepared.append(method)
        return _prepare(a, column_perm, method)

    monkeypatch.setattr(iterate, "prepare", counting_prepare)
    monkeypatch.setattr(convergence, "prepare", counting_prepare)
    paths = ["--matrix", os.path.join(DATA, "demo5x8_A.csv"),
             "--rhs", os.path.join(DATA, "demo5x8_b.csv")]
    out = str(tmp_path / "r.json")
    for argv, expected in [(["solve", "--method", "ggs"], ["ggs"]),
                           (["rref", "--method", "gjacobi"], ["gjacobi"]),
                           (["compare", "--methods", "gjacobi,ggs", "--max-iter", "50"],
                            ["gjacobi", "ggs"])]:
        prepared.clear()
        main(argv + paths + ["--json", out])
        assert prepared == expected, argv
        assert all(obj["conditions"] is not None for obj in _json_reports(tmp_path / "r.json"))


def test_json_conditions_null_on_error_and_zero_iterations(tmp_path):
    a = np.array([[0.0, 2.0, 1.0], [3.0, 4.0, 5.0]])   # zero head diagonal
    x = np.array([1.0, -1.0, 2.0])
    f = {}
    for name, value in [("A", a), ("b", a @ x), ("x", x), ("ones", np.ones(2)),
                        ("A1", np.ones((2, 3))), ("b12", np.array([1.0, 2.0]))]:
        writer = formats.write_csv_matrix if value.ndim == 2 else formats.write_csv_vector
        f[name] = str(tmp_path / f"{name}.csv")
        (tmp_path / f"{name}.csv").write_text(writer(value))
    cases = [
        # a step would fail on the zero head diagonal
        (["solve", "--method", "gjacobi", "--matrix", f["A"], "--rhs", f["ones"]], "error"),
        # x0 already solves the system: 0 iterations
        (["solve", "--method", "ggs", "--matrix", f["A"], "--rhs", f["b"], "--x0", f["x"]],
         "converged"),
        # an inconsistent system
        (["rref", "--matrix", f["A1"], "--rhs", f["b12"]], "error"),
    ]
    out = tmp_path / "r.json"
    for argv, status in cases:
        main(argv + ["--json", str(out)])
        obj = json.loads(out.read_text())
        assert obj["status"] == status
        assert obj["config"]["method"] in GENERALIZED_METHODS
        assert obj["error"] is not None or obj["iterations"] == 0
        assert obj["conditions"] is None


def test_mtx_input_autodetected(tmp_path):
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    (tmp_path / "A.mtx").write_text(formats.write_matrix_market(a_bar))
    (tmp_path / "b.mtx").write_text(
        formats.write_matrix_market(b_bar.reshape(-1, 1), form="array"))
    assert main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                 "--rhs", str(tmp_path / "b.mtx"), "--method", "gjacobi"]) == 0


def test_cli_and_solves_do_not_import_scipy(tmp_path):
    # scipy roughly doubles import time and resident memory; numpy suffices
    prefix = str(tmp_path / "g")
    code = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "import undersolve.cli\n"
        "from undersolve.iterate import SolverConfig, run\n"
        "a = np.array([[4.0, 1.0, 1.0], [1.0, 3.0, 1.0]])\n"
        "for method in ('ggs', 'gs'):\n"
        "    m = a if method == 'ggs' else a[:, :2]\n"
        "    assert run(m, np.ones(2), None, SolverConfig(method=method)).status == 'converged'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert undersolve.cli.main(['gen', '--certified', '--rows', '30', '--cols',"
        f" '120', '--out-prefix', {prefix!r}]) == 0\n"
        f"    assert undersolve.cli.main(['rref', '--matrix', {prefix + '_A.csv'!r},"
        f" '--rhs', {prefix + '_b.csv'!r}]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_cli_jobs_but_gen_do_not_import_numpy_random():
    # numpy.random takes about 15 ms to import; only gen draws from it
    a, b = os.path.join(DATA, "demo5x8_A.csv"), os.path.join(DATA, "demo5x8_b.csv")
    code = (
        "import contextlib, io, sys\n"
        "import undersolve.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert undersolve.cli.main(['rref', '--matrix', {a!r}, '--rhs', {b!r}]) == 0\n"
        f"    undersolve.cli.main(['check', '--matrix', {a!r}, '--rhs', {b!r}])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
