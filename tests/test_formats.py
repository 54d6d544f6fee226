import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from undersolve.errors import (
    DimensionMismatch,
    InvalidInput,
    ParseError,
    RaggedRows,
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
from undersolve.iterate import SolverConfig, run


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


def test_load_matrix_file_closes_the_file(tmp_path):
    path = tmp_path / "A.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        load_matrix_file(path)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
