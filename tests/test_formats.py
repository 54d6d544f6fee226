import json
import os
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import brute_read_csv_matrix, brute_read_matrix_market, brute_write_csv_matrix
from undersolve import formats
from undersolve.errors import (
    DimensionMismatch,
    InvalidInput,
    ParseError,
    RaggedRows,
    SolverError,
    UnsupportedFormat,
)
from undersolve.formats import (
    load_matrix_file,
    read_csv_matrix,
    read_csv_vector,
    read_matrix_market,
    read_report,
    write_csv_matrix,
    write_csv_vector,
    write_matrix_market,
    write_report,
)
from undersolve.convergence import ConditionReport, NormConditionRecord
from undersolve.iterate import SolveReport, SolverConfig, exact_solve, run
from undersolve.linalg import NORM_KINDS


def test_csv_parse_simple():
    assert read_csv_matrix("1.5,-2\n3,4\n").tolist() == [[1.5, -2], [3, 4]]


def test_csv_crlf_accepted():
    assert read_csv_matrix("1,2\r\n3,4\r\n").tolist() == [[1, 2], [3, 4]]


def test_csv_ragged():
    with pytest.raises(RaggedRows):
        read_csv_matrix("1,2\n3\n")


def test_csv_non_numeric():
    with pytest.raises(ParseError):
        read_csv_matrix("1,foo\n")


def test_csv_roundtrip_random():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = rng.uniform(-1e6, 1e6, size=(3, 4)) * rng.uniform(1e-8, 1e8)
        again = read_csv_matrix(write_csv_matrix(a))
        assert np.array_equal(a, again)   # bit-identical


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
                1e-308, -1e-307, 1.7976931348623157e308, -1.7976931348623157e308, 1e308)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
              elements=st.one_of(st.sampled_from(_EDGE_FLOATS),
                                 st.floats(allow_nan=False, allow_infinity=False))))
def test_csv_matrix_writer_matches_the_per_value_writer(a):
    # "0.0" written without repr for +0.0 only: -0.0, subnormals and
    # exponents near +-308 come out as repr writes them
    assert write_csv_matrix(a) == brute_write_csv_matrix(a)


def test_csv_vector_roundtrip():
    v = np.array([1.0, -2.5, 1e-17])
    assert np.array_equal(read_csv_vector(write_csv_vector(v)), v)
    assert read_csv_vector("1,2,3\n").tolist() == [1, 2, 3]
    with pytest.raises(DimensionMismatch):
        read_csv_vector("1,2\n3,4\n")


def test_matrix_market_array_column_major():
    text = "%%MatrixMarket matrix array real general\n2 2\n1\n3\n2\n4\n"
    assert read_matrix_market(text).tolist() == [[1, 2], [3, 4]]


def test_matrix_market_coordinate_sparse():
    text = "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 5.0\n"
    mat = read_matrix_market(text)
    assert mat.shape == (2, 3)
    assert mat[0, 1] == 5.0
    assert np.count_nonzero(mat) == 1


def test_matrix_market_malformed_size_line():
    with pytest.raises(ParseError) as err:
        read_matrix_market("%%MatrixMarket matrix coordinate real general\n2 3\n")
    assert "line" in str(err.value)


def test_matrix_market_unsupported():
    for header in (
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate pattern general",
        "%%MatrixMarket matrix coordinate real symmetric",
        "%%MatrixMarket vector coordinate real general",
        "%%MatrixMarket matrix hyperbolic real general",
    ):
        with pytest.raises(UnsupportedFormat):
            read_matrix_market(header + "\n2 2 0\n")


def test_matrix_market_comments_skipped():
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "% a comment line\n2 2 1\n2 1 -3.5\n")
    assert read_matrix_market(text)[1, 0] == -3.5


def test_matrix_market_duplicate_entry_rejected():
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1\n2 2 4\n1 1 5\n")
    with pytest.raises(ParseError) as err:
        read_matrix_market(text)
    assert err.value.line == 5
    assert "duplicate entry (1, 1)" in str(err.value)


def test_matrix_market_negative_size_rejected():
    for text in ("%%MatrixMarket matrix coordinate real general\n-1 2 0\n",
                 "%%MatrixMarket matrix array real general\n2 -1\n"):
        with pytest.raises(ParseError) as err:
            read_matrix_market(text)
        assert err.value.line == 2


def test_nonfinite_rejected_in_every_format():
    for text in ("%%MatrixMarket matrix coordinate real general\n1 2 1\n1 2 nan\n",
                 "%%MatrixMarket matrix array real general\n1 2\n1\ninf\n"):
        with pytest.raises(InvalidInput):
            read_matrix_market(text)
    with pytest.raises(InvalidInput):
        read_csv_matrix("1,-inf\n")


def test_matrix_market_writer_roundtrip():
    rng = np.random.default_rng(43)
    a = rng.uniform(-5, 5, size=(3, 4))
    a[rng.random(a.shape) < 0.3] = 0.0
    for form in ("coordinate", "array"):
        again = read_matrix_market(write_matrix_market(a, form))
        assert np.array_equal(a, again)


TINY = np.finfo(float).smallest_subnormal
HUGE = np.finfo(float).max

# every finite double, with subnormals, -0.0 and exponents near +-308 drawn often
FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([TINY, -TINY, 1234.5 * TINY, np.finfo(float).tiny, -0.0, 0.0,
                     HUGE, -HUGE, 1e308, -3.5e-308]),
    st.floats(1e300, HUGE), st.floats(-HUGE, -1e300), st.floats(-1e-300, 1e-300))
MATRICES = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=FINITE_DOUBLES)


@settings(max_examples=200, deadline=None)
@given(a=MATRICES)
def test_csv_roundtrip_bit_exact(a):
    assert read_csv_matrix(write_csv_matrix(a)).tobytes() == a.tobytes()
    v = a.ravel()
    assert read_csv_vector(write_csv_vector(v)).tobytes() == v.tobytes()


@settings(max_examples=200, deadline=None)
@given(a=MATRICES)
def test_matrix_market_roundtrip_bit_exact(a):
    again = read_matrix_market(write_matrix_market(a, "array"))
    assert again.shape == a.shape and again.tobytes() == a.tobytes()
    # coordinate form stores nonzeros only: -0.0 comes back as +0.0
    again = read_matrix_market(write_matrix_market(a, "coordinate"))
    assert again.shape == a.shape and again.tobytes() == (a + 0.0).tobytes()


def test_matrix_market_writer_demo_files_byte_identical():
    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
    for name in ("demo5x8_A.mtx", "demo5x8_b.mtx"):
        with open(os.path.join(data, name), encoding="utf-8") as fh:
            text = fh.read()
        form = text.split()[2]
        assert write_matrix_market(read_matrix_market(text), form) == text


def test_matrix_market_writer_matches_entrywise_formula():
    rng = np.random.default_rng(47)
    a = rng.uniform(-5, 5, size=(7, 9)) * 10.0 ** rng.integers(-300, 300, size=(7, 9))
    a[rng.random(a.shape) < 0.3] = 0.0
    a[rng.random(a.shape) < 0.2] = -0.0
    m, n = a.shape
    nz = [(i, j, float(a[i, j])) for i in range(m) for j in range(n) if a[i, j] != 0.0]
    coordinate = "\n".join(
        ["%%MatrixMarket matrix coordinate real general", f"{m} {n} {len(nz)}"]
        + [f"{i + 1} {j + 1} {repr(v)}" for i, j, v in nz]) + "\n"
    array = "\n".join(
        ["%%MatrixMarket matrix array real general", f"{m} {n}"]
        + [repr(float(a[i, j])) for j in range(n) for i in range(m)]) + "\n"
    assert "-0.0" in array
    assert write_matrix_market(a, "coordinate") == coordinate
    assert write_matrix_market(a, "array") == array


def test_matrix_market_writer_rejects_an_unknown_form():
    with pytest.raises(InvalidInput, match="unknown MatrixMarket form"):
        write_matrix_market(np.eye(2), "bogus")


@pytest.mark.parametrize("text", ["1.5,-2\n3,4e-3\n  \n", "1.5,-2\n\t\n3,4e-3\n"])
def test_csv_lines_of_blanks_leave_the_file_to_numpy(text, monkeypatch):
    # a trailing or inner line of blanks does not send the whole file to
    # the per-line loop, and numpy reads what the loop reads
    parsed = []
    original = formats._loadtxt

    def recording(*args, **kwargs):
        parsed.append(original(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(formats, "_loadtxt", recording)
    mat = read_csv_matrix(text)
    assert len(parsed) == 1 and isinstance(parsed[0], np.ndarray)
    monkeypatch.setattr(formats, "_loadtxt", lambda *args, **kwargs: None)
    loop = read_csv_matrix(text)
    assert mat.shape == loop.shape == (2, 2)
    assert mat.tobytes() == loop.tobytes()


def test_csv_digit_group_underscore_rejected():
    with pytest.raises(ParseError, match="line 2: digit-group underscore"):
        read_csv_matrix("1,2\n3,1_000\n")


def test_matrix_market_digit_group_underscore_rejected():
    head = "%%MatrixMarket matrix coordinate real general\n% comments_may_hold_underscores\n"
    assert read_matrix_market(head + "1 2 1\n1 2 0.5\n").tolist() == [[0.0, 0.5]]
    for body, line in (("1 2 1\n1 2 1_000.5\n", 4), ("1 2_0 1\n1 2 0.5\n", 3)):
        with pytest.raises(ParseError, match=f"line {line}: digit-group underscore"):
            read_matrix_market(head + body)
    with pytest.raises(ParseError, match="line 4: digit-group underscore"):
        read_matrix_market("%%MatrixMarket matrix array real general\n1 2\n1\n2_0\n")


def test_report_roundtrip():
    rng = np.random.default_rng(45)
    a = rng.uniform(-3, 3, size=(2, 4))
    x = rng.uniform(-1, 1, size=4)
    report = run(a, a @ x, None, SolverConfig(epsilon=1e-9, max_iterations=200))
    text = write_report(report)
    assert '"status"' in text
    again = read_report(text)
    assert again.status == report.status
    assert again.iterations == report.iterations
    assert np.array_equal(again.solution, report.solution)
    assert again.residual_norms == report.residual_norms
    assert again.config == report.config
    # serialization is deterministic: write(read(write(r))) == write(r)
    assert write_report(again) == text


def _edited_report(edit):
    """The text of a valid report (converged after one iteration or more) that
    ``edit`` changed in place."""
    report = run(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]), np.array([3.0, 2.0]), None,
                 SolverConfig())
    obj = json.loads(write_report(report))
    assert obj["status"] == "converged" and obj["iterations"] >= 1
    edit(obj)
    return json.dumps(obj)


def _edited_config(edit):
    """The text of a valid report whose config ``edit`` changed in place."""
    return _edited_report(lambda obj: edit(obj["config"]))


@pytest.mark.parametrize("make_text", [
    pytest.param(lambda: "{}", id="no-config"),
    pytest.param(lambda: "[]", id="not-an-object"),
    pytest.param(lambda: "{", id="not-json"),
    pytest.param(lambda: _edited_config(lambda cfg: cfg.pop("epsilon")), id="missing-config-key"),
    pytest.param(lambda: _edited_config(lambda cfg: cfg.update(tolerance=1e-10)),
                 id="extra-config-key"),
    pytest.param(lambda: _edited_config(lambda cfg: cfg.update(stagnation_window=10)),
                 id="stagnation-window-config-key"),
    pytest.param(lambda: _edited_report(_with(elapsed=1.0)), id="extra-report-key"),
    pytest.param(lambda: _edited_report(_conditions(lambda c: c["per_norm"][0].update(
        norm_kind="one"))), id="extra-record-key"),
    pytest.param(lambda: _edited_report(_conditions(lambda c: c["per_norm"][2].pop("c2"))),
                 id="missing-record-key"),
])
def test_read_report_malformed_text_is_a_parse_error(make_text):
    with pytest.raises(ParseError, match="report"):
        read_report(make_text())


def _with(**fields):
    return lambda obj: obj.update(fields)


def _conditions(edit):
    """Give the report the conditions a gjacobi solve of it could give, then
    let ``edit`` change them in place."""
    def apply(obj):
        conditions = {"method": "gjacobi", "overall_certified": True, "per_norm": [
            {"norm": norm, "c1": 0.5, "c2": 1.5, "certified": norm == "one",
             "cauchy_bound": 2} for norm in NORM_KINDS]}
        edit(conditions)
        obj["conditions"] = conditions
    return apply


def test_read_report_takes_conditions_a_solve_gives():
    report = read_report(_edited_report(_conditions(lambda c: None)))
    assert report.conditions.overall_certified is True
    assert [r.norm for r in report.conditions.per_norm] == list(NORM_KINDS)
    assert report.column_perm == (0, 1, 2)


def _first_norms(count, **fields):
    """Keep the first ``count`` residual norms and set ``fields``."""
    return lambda obj: obj.update(residual_norms=obj["residual_norms"][:count], **fields)


@pytest.mark.parametrize("edit,field", [
    pytest.param(_with(status="bogus"), "status", id="unknown-status"),
    pytest.param(_with(status=None), "status", id="null-status"),
    pytest.param(_with(iterations="seven"), "iterations", id="iterations-a-string"),
    pytest.param(_first_norms(2, iterations=1.0), "iterations", id="iterations-a-float"),
    pytest.param(_first_norms(2, iterations=True), "iterations", id="iterations-a-bool"),
    pytest.param(_first_norms(2, iterations=2), "iterations", id="iterations-one-too-many"),
    pytest.param(_first_norms(2, iterations=0), "iterations", id="iterations-one-too-few"),
    pytest.param(_first_norms(0, iterations=0), "residual_norms", id="no-norms-converged"),
    pytest.param(_first_norms(0, iterations=-1, status="error", error="inconsistent"),
                 "iterations", id="no-norms-negative-iterations"),
    pytest.param(_with(residual_norms="ab"), "residual_norms", id="norms-a-string"),
    pytest.param(_with(residual_norms=["a", "b"], iterations=1), "residual_norms",
                 id="norms-of-strings"),
    pytest.param(_with(residual_norms=[1.0, True], iterations=1), "residual_norms",
                 id="norms-with-a-bool"),
    pytest.param(_with(residual_norms={"0": 1.0}), "residual_norms", id="norms-an-object"),
    pytest.param(_with(error="zero_row"), "error", id="error-on-a-converged-report"),
    pytest.param(_with(status="error", error=7), "error", id="error-not-a-kind"),
    pytest.param(_with(solution=[[1.0, 2.0], [3.0, 4.0]]), "solution", id="solution-2x2"),
    pytest.param(_with(solution=["nan"]), "solution", id="solution-a-nan-string"),
    pytest.param(_with(solution=[float("nan"), 0.0, 1.0]), "solution", id="solution-nan"),
    pytest.param(_with(solution=[1.0, True, 0.0]), "solution", id="solution-with-a-bool"),
    pytest.param(_with(column_perm=["a", "b"]), "column_perm", id="perm-of-strings"),
    pytest.param(_with(column_perm=[0, 0, 1]), "column_perm", id="perm-repeats"),
    pytest.param(_with(column_perm=[1, 0]), "column_perm", id="perm-too-short"),
    pytest.param(_with(column_perm=[True, 0, 2]), "column_perm", id="perm-with-a-bool"),
    # a baseline solve orders no columns; a generalized one always does,
    # unless an exact solve finds the system inconsistent first
    pytest.param(lambda obj: obj.update(column_perm=[2, 1, 0],
                                        config=dict(obj["config"], method="baseline")),
                 "column_perm", id="perm-on-a-baseline-report"),
    pytest.param(_with(status="max_iterations", column_perm=None), "column_perm",
                 id="null-perm-on-a-gjacobi-report"),
    pytest.param(_with(conditions={
        "method": 42, "overall_certified": "maybe", "per_norm": [
            {"norm": "bogus", "c1": "x", "c2": None, "certified": "yes", "cauchy_bound": []}]}),
        "conditions", id="conditions-no-solve-gives"),
    pytest.param(_conditions(lambda c: c.update(method="ggs")), "conditions",
                 id="conditions-of-another-method"),
    pytest.param(_conditions(lambda c: c["per_norm"].reverse()), "conditions",
                 id="conditions-norms-out-of-order"),
    pytest.param(_conditions(lambda c: c["per_norm"].pop()), "conditions",
                 id="conditions-a-norm-missing"),
    pytest.param(_conditions(lambda c: c["per_norm"][1].update(c2="1.5")), "conditions",
                 id="conditions-c2-a-string"),
    pytest.param(_conditions(lambda c: c["per_norm"][0].update(c1=True)), "conditions",
                 id="conditions-c1-a-bool"),
    pytest.param(_conditions(lambda c: c["per_norm"][0].update(certified=1)), "conditions",
                 id="conditions-certified-an-int"),
    pytest.param(_conditions(lambda c: c.update(overall_certified=False)), "conditions",
                 id="conditions-overall-not-any"),
])
def test_read_report_rejects_an_outcome_no_solve_gives(edit, field):
    with pytest.raises(ParseError, match=f"report {field}"):
        read_report(_edited_report(edit))


def test_read_report_takes_back_every_status_write_report_writes():
    # the five statuses, plus the inconsistent reduction's error report,
    # which holds no residual norm at all, read back to the bytes written.
    # At epsilon = 1e-300 the 4 x 8 gjacobi solve (M formed) reaches a fresh
    # residual of exactly 0; the 30 x 120 one stagnates at its rounding floor
    a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    rng = np.random.default_rng(3)
    exact_zero = rng.uniform(-1.0, 1.0, size=(4, 8)) + np.eye(4, 8) * 8.0
    exact_zero_b = rng.uniform(-1.0, 1.0, size=4)
    below_floor = rng.uniform(-1.0, 1.0, size=(30, 120)) + np.eye(30, 120) * 60.0
    reports = [
        run(a, np.array([3.0, 2.0]), None, SolverConfig(method="baseline", max_iterations=70)),
        run(exact_zero, exact_zero_b, None, SolverConfig(epsilon=1e-300)),
        run(below_floor, rng.uniform(-1.0, 1.0, size=30), None, SolverConfig(epsilon=1e-300)),
        run(a, np.array([3.0, 2.0]), None, SolverConfig()),
        run(np.array([[1.0, 10.0], [10.0, 1.0]]), np.ones(2), None,
            SolverConfig(method="jacobi")),
        run(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), np.ones(2), None,
            SolverConfig(method="baseline")),
        exact_solve([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 2.0]),
    ]
    assert [r.status for r in reports] == [
        "max_iterations", "converged", "stagnated", "converged", "diverged", "error", "error"]
    assert (reports[1].iterations, reports[1].residual_norms[-1]) == (16, 0.0)
    assert reports[-1].residual_norms == []
    for report in reports:
        text = write_report(report)
        assert write_report(read_report(text)) == text


# hand-built reports of fixed floats: the writer's bytes, pinned without a
# solve (a solver-computed digest would move with the BLAS kernel)
GOLDEN_CONDITIONS = ConditionReport(
    method="ggs",
    per_norm=(NormConditionRecord("one", 0.25, 1.5, True, 0.75),
              NormConditionRecord("inf", 0.1, 2.5, False, 1.0 / 3.0),
              NormConditionRecord("fro", 1.0000000000000002, 3e-17, False, 12345678.9)),
    overall_certified=True)
GOLDEN_CONVERGED = SolveReport(
    status="converged", solution=np.array([0.5, -0.0, 1e16, -2.5e-300]), iterations=2,
    residual_norms=[2.0, 0.015625, 7e-09],
    config=SolverConfig(method="ggs", epsilon=1e-08, max_iterations=50,
                        permutation_policy="pivot-columns"),
    conditions=GOLDEN_CONDITIONS, column_perm=(2, 0, 3, 1))
GOLDEN_ERROR = SolveReport(
    status="error", solution=np.zeros(3), iterations=0, residual_norms=[],
    config=SolverConfig(), error="inconsistent")
GOLDEN_CONVERGED_TEXT = """\
{
  "column_perm": [
    2,
    0,
    3,
    1
  ],
  "conditions": {
    "method": "ggs",
    "overall_certified": true,
    "per_norm": [
      {
        "c1": 0.25,
        "c2": 1.5,
        "cauchy_bound": 0.75,
        "certified": true,
        "norm": "one"
      },
      {
        "c1": 0.1,
        "c2": 2.5,
        "cauchy_bound": 0.3333333333333333,
        "certified": false,
        "norm": "inf"
      },
      {
        "c1": 1.0000000000000002,
        "c2": 3e-17,
        "cauchy_bound": 12345678.9,
        "certified": false,
        "norm": "fro"
      }
    ]
  },
  "config": {
    "epsilon": 1e-08,
    "max_iterations": 50,
    "method": "ggs",
    "permutation_policy": "pivot-columns",
    "residual_norm": "one"
  },
  "error": null,
  "iterations": 2,
  "residual_norms": [
    2.0,
    0.015625,
    7e-09
  ],
  "solution": [
    0.5,
    -0.0,
    1e+16,
    -2.5e-300
  ],
  "status": "converged"
}
"""
GOLDEN_ERROR_TEXT = """\
{
  "column_perm": null,
  "conditions": null,
  "config": {
    "epsilon": 1e-08,
    "max_iterations": 10000,
    "method": "gjacobi",
    "permutation_policy": "identity",
    "residual_norm": "one"
  },
  "error": "inconsistent",
  "iterations": 0,
  "residual_norms": [],
  "solution": [
    0.0,
    0.0,
    0.0
  ],
  "status": "error"
}
"""
GOLDEN_CONDITIONS_TEXT = """\
{
  "method": "ggs",
  "overall_certified": true,
  "per_norm": [
    {
      "c1": 0.25,
      "c2": 1.5,
      "cauchy_bound": 0.75,
      "certified": true,
      "norm": "one"
    },
    {
      "c1": 0.1,
      "c2": 2.5,
      "cauchy_bound": 0.3333333333333333,
      "certified": false,
      "norm": "inf"
    },
    {
      "c1": 1.0000000000000002,
      "c2": 3e-17,
      "cauchy_bound": 12345678.9,
      "certified": false,
      "norm": "fro"
    }
  ]
}
"""


def test_write_report_bytes_are_pinned():
    assert write_report(GOLDEN_CONVERGED) == GOLDEN_CONVERGED_TEXT
    assert write_report(GOLDEN_ERROR) == GOLDEN_ERROR_TEXT
    assert write_report(GOLDEN_CONDITIONS) == GOLDEN_CONDITIONS_TEXT
    # a list indents each report one level inside its brackets
    items = (textwrap.indent(t.rstrip("\n"), "  ")
             for t in (GOLDEN_CONVERGED_TEXT, GOLDEN_ERROR_TEXT))
    assert write_report([GOLDEN_CONVERGED, GOLDEN_ERROR]) == "[\n" + ",\n".join(items) + "\n]\n"
    for text in (GOLDEN_CONVERGED_TEXT, GOLDEN_ERROR_TEXT):
        assert write_report(read_report(text)) == text


@pytest.mark.parametrize("value", [object(), np.int64(1), {1.0, 2.0}],
                         ids=["object", "numpy-int", "set"])
def test_write_report_rejects_a_value_no_report_holds(value):
    with pytest.raises(InvalidInput, match="a report holds no"):
        write_report([value])


def test_load_matrix_file_closes_the_file(tmp_path):
    path = tmp_path / "A.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        load_matrix_file(path)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_load_matrix_file_reads_a_byte_order_mark(tmp_path):
    # spreadsheet exports begin a UTF-8 CSV with one
    path = tmp_path / "A.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n")
    assert load_matrix_file(path).tolist() == [[1, 2, 3], [4, 5, 6]]


@pytest.mark.parametrize("name", ["A.csv", "A.mtx"])
def test_load_matrix_file_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes("%%MatrixMarket matrix array real general\r1 2\r1\n2\xe9\n".encode("latin-1"))
    with pytest.raises(ParseError, match=r"line 4: not UTF-8 text \(.*, byte 0xe9\)"):
        load_matrix_file(path)


# ----------------------------------------------- readers against the oracle

# spellings of one double that Python's float and numpy both read exactly
SPELLINGS = (repr, lambda v: f"{v:.17g}", lambda v: f"{v:.17E}",
             lambda v: repr(v) if v < 0 or repr(v)[0] == "-" else "+" + repr(v))


@st.composite
def _lines_of(draw, body, comments, first=1):
    """``body`` joined into text with blank lines (and comment lines where
    ``comments``) inserted after its first ``first`` lines, CRLF or LF line
    ends, and a final line end or none."""
    lines = list(body[:first])
    fillers = ["", "   ", "\t"] + (["% a note", "   %indented % note", "%"] if comments else [])
    for line in body[first:]:
        lines += draw(st.lists(st.sampled_from(fillers), max_size=2)) + [line]
    lines += draw(st.lists(st.sampled_from(fillers), max_size=2))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _matrices(min_rows=1, min_cols=1):
    return arrays(np.float64, st.tuples(st.integers(min_rows, 6), st.integers(min_cols, 6)),
                  elements=FINITE_DOUBLES)


@st.composite
def csv_texts(draw, min_rows=1):
    a = draw(_matrices(min_rows))
    spell = draw(st.sampled_from(SPELLINGS))
    pad = draw(st.sampled_from(["", " ", "\t "]))
    body = [",".join(pad + spell(v) + pad for v in row) for row in a.tolist()]
    return draw(_lines_of(body, comments=False, first=0))


@st.composite
def mtx_texts(draw, forms=("coordinate", "array"), min_entries=0):
    a = draw(_matrices())
    m, n = a.shape
    spell = draw(st.sampled_from(SPELLINGS))
    form = draw(st.sampled_from(forms))
    field = draw(st.sampled_from(["real", "integer"]))
    if field == "integer":
        a = np.trunc(np.clip(a, -1e6, 1e6))
        spell = lambda v: str(int(v))   # noqa: E731
    header = f"%%MatrixMarket matrix {form} {field} general"
    if form == "array":
        body = [header, f"{m} {n}"] + [spell(v) for v in a.T.ravel().tolist()]
    else:
        listed = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)
                      .filter(lambda cells: sum(cells) >= min_entries))
        cells = [(i, j) for i in range(m) for j in range(n) if listed[i * n + j]]
        cells = draw(st.permutations(cells))
        body = [header, f"{m} {n} {len(cells)}"] + [
            f"{i + 1} {j + 1} {spell(float(a[i, j]))}" for i, j in cells]
    return draw(_lines_of(body, comments=True))


def _outcome(read, text):
    """The matrix read, as shape and bytes, or the error's class, line and
    message."""
    try:
        mat = read(text)
    except SolverError as exc:
        return type(exc), exc.line if isinstance(exc, ParseError) else None, str(exc)
    return mat.shape, mat.dtype, mat.tobytes()


def _assert_same_outcome(text):
    """Both readers give their oracle's outcome on ``text``; an error from
    the size-line limits, which the oracle lacks, by class and line only."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read, oracle in ((read_csv_matrix, brute_read_csv_matrix),
                             (read_matrix_market, brute_read_matrix_market)):
            got, want = _outcome(read, text), _outcome(oracle, text)
            if got[0] is ParseError and "exceed" in got[2]:
                got, want = got[:2], want[:2]
            assert got == want, (read.__name__, text)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(csv_texts(), mtx_texts()))
def test_readers_match_line_oracle_on_well_formed_text(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = brute_read_csv_matrix if text[0] != "%" else brute_read_matrix_market
        oracle(text)   # well formed: the oracle reads it
    _assert_same_outcome(text)


def _replace_token(line, index, token):
    parts = line.split()
    parts[index] = token
    return " ".join(parts)


def _malform(text, kind, pick):
    """``text`` with one defect of kind ``kind`` on its data line ``pick``
    (modulo the number of data lines, the Matrix Market size line aside)."""
    lines = text.splitlines()
    data = [k for k, ln in enumerate(lines) if ln.strip() and not ln.strip().startswith("%")]
    m = 0
    if text.startswith("%%"):
        m = int(lines[data[0]].split()[0])
        data = data[1:]
    k = data[pick % len(data)]
    line = lines[k]
    first, last = line.split(",")[0].strip(), line.split(",")[-1].strip()
    lines[k] = {
        "float index": lambda: _replace_token(line, 0, "1.0"),
        "zero index": lambda: _replace_token(line, 1, "0"),
        "index past m": lambda: _replace_token(line, 0, str(m + 1)),
        "two tokens": lambda: " ".join(line.split()[:2]),
        "four tokens": lambda: line + " 7",
        "inline note": lambda: line + " % note",
        "hash line": lambda: "# " + line,
        "digit group": lambda: line.replace(first, "1_000", 1),
        "ragged row": lambda: line + ",1",
        "nan": lambda: line.replace(last, "nan", 1),
    }[kind]()
    return "\n".join(lines) + "\n"


COORDINATE_DEFECTS = ("float index", "zero index", "index past m", "two tokens", "four tokens")
CSV_DEFECTS = ("hash line", "digit group", "ragged row", "nan")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_readers_match_line_oracle_on_malformed_text(data):
    kind = data.draw(st.sampled_from(COORDINATE_DEFECTS + CSV_DEFECTS + ("inline note",)))
    if kind in COORDINATE_DEFECTS:
        text = data.draw(mtx_texts(forms=("coordinate",), min_entries=1))
    elif kind == "inline note":
        text = data.draw(st.one_of(mtx_texts(min_entries=1), csv_texts()))
    else:
        text = data.draw(csv_texts(min_rows=2))
    bad = _malform(text, kind, data.draw(st.integers(0, 100)))
    reader = read_matrix_market if bad.startswith("%%") else read_csv_matrix
    with pytest.raises(SolverError):
        reader(bad)
    _assert_same_outcome(bad)


NOISE = ["%", "#", "_", ",", ".", "e", "-", "+", "0", "7", " ", "\t", "\n", "\r", "\r\n",
         "\v", "\f", "\x1c", "\x1f", "\x00", "\x85", "\xa0", "\u2028", "\u0663", "nan", "inf"]


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(csv_texts(), mtx_texts()), data=st.data())
def test_readers_match_line_oracle_on_noisy_text(text, data):
    # one stray character anywhere: both readers accept it with the same
    # bits, or reject it with the same error
    at = data.draw(st.integers(0, len(text)))
    _assert_same_outcome(text[:at] + data.draw(st.sampled_from(NOISE)) + text[at:])


@pytest.mark.parametrize("text", ["", "\n", "\r\n  \n", "% only a note\n",
                                  "%%MatrixMarket matrix coordinate real general\n",
                                  "%%MatrixMarket matrix array real general\n% a note\n\n"])
def test_readers_match_line_oracle_on_empty_text(text):
    _assert_same_outcome(text)


MM_COORDINATE = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text", [
    # lone \r line ends
    "1,2\r3,4\r",
    "%%MatrixMarket matrix coordinate real general\r2 2 2\r1 1 1.5\r2 2 -3\r",
    # line breaks to str.splitlines that numpy's own line splitting ignores
    "1,2\f3,4\n",
    "1,2\v3,4\n",
    "1,2\x1c3,4\n",
    MM_COORDINATE + "2 2 2\f1 1 1.5\v2 2 -3\x1c",
    "%%MatrixMarket matrix array real general\n2 1\x1c1.5\f-3\n",
    # a comment line between coordinate entries, and in an array body
    MM_COORDINATE + "2 2 2\n1 1 1.5\n% a note\n2 2 -3\n",
    "%%MatrixMarket matrix array real general\n2 1\n1.5\n  %% a note\n-3\n",
    # an inline note on an entry and on a CSV row
    MM_COORDINATE + "2 2 2\n1 1 1.5 % a note\n2 2 -3\n",
    "%%MatrixMarket matrix array real general\n2 1\n1.5\n-3 %\n",
    "1,2 % a note\n3,4\n",
    # whitespace-only lines
    "1,2\n   \n\t\n3,4\n",
    MM_COORDINATE + " \t \n2 2 2\n   \n1 1 1.5\n\t\n2 2 -3\n  \n",
    # a coordinate file with zero entries, with and without a line after it
    MM_COORDINATE + "2 3 0\n",
    MM_COORDINATE + "2 3 0\n\n% a note\n",
    # a non-ASCII digit
    "1,\u0663\n",
    MM_COORDINATE + "1 1 1\n1 1 \u0663\n",
])
def test_readers_match_line_oracle_on_fixed_text(text):
    _assert_same_outcome(text)


@pytest.mark.parametrize("size_line,message", [
    ("4000000000 4000000000 0", "exceeds the largest array"),
    ("4000000000 4000000000", "exceeds the largest array"),
    ("1000000 1000000 1000000000001", "entries exceed"),
    ("2 2 5", "entries exceed"),
])
def test_matrix_market_size_line_limits(size_line, message):
    # rejected at the size line, before any matrix is allocated
    form = "coordinate" if len(size_line.split()) == 3 else "array"
    text = f"%%MatrixMarket matrix {form} real general\n{size_line}\n" + "1 1 1.0\n" * 5
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=message) as err:
            read_matrix_market(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == 2
    assert peak < 1 << 20
