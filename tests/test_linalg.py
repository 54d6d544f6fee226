import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve.demo import DEMO_A
from undersolve.errors import DimensionMismatch, SolverError
from undersolve.linalg import (
    NORM_FRO,
    NORM_INF,
    NORM_ONE,
    as_matrix,
    as_vector,
    matrix_norm,
    sign_matrix,
    vector_norm,
)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError) as err:
        as_matrix([[1.0, np.nan]])
    assert isinstance(err.value, SolverError)
    with pytest.raises(ValueError) as err:
        as_vector([np.inf])
    assert isinstance(err.value, SolverError)


def test_as_matrix_rejects_a_vector():
    with pytest.raises(DimensionMismatch, match="2-D matrix"):
        as_matrix([1.0, 2.0])


def test_as_matrix_copies_only_what_it_converts():
    # a contiguous float64 array is returned itself; a strided view, a list
    # or another dtype becomes a fresh contiguous float64 array
    a = np.arange(12.0).reshape(3, 4)
    transposed = a.T
    assert as_matrix(a) is a and as_matrix(transposed) is transposed
    for data in (a[:, ::2], a.tolist(), a.astype(np.int64), a.astype(np.float32)):
        out = as_matrix(data)
        assert out.dtype == np.float64 and (out.flags.c_contiguous or out.flags.f_contiguous)
        assert not np.shares_memory(out, a)
        assert np.array_equal(out, np.asarray(data, dtype=float))


def test_sign_matrix_small():
    result = sign_matrix(np.array([[2.0, -3.0, 0.0], [1.0, 0.0, -5.0]]))
    assert result.tolist() == [[1, 1], [-1, 0], [0, -1]]


def test_sign_matrix_zero():
    assert sign_matrix(np.zeros((2, 2))).tolist() == [[0, 0], [0, 0]]


def test_sign_matrix_demo_entries():
    s = sign_matrix(DEMO_A)
    assert s.shape == (8, 5)
    assert s[0, 0] == 1.0
    assert s[2, 0] == -1.0
    assert s[4, 3] == -1.0


def test_sign_matrix_recovers_magnitudes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(-5, 5, size=(4, 6))
        a[rng.random(a.shape) < 0.2] = 0.0
        s = sign_matrix(a)
        assert set(np.unique(s)) <= {-1.0, 0.0, 1.0}
        assert np.allclose(s.T * a, np.abs(a))


def test_vector_norm_of_every_row():
    assert vector_norm(np.array([[2.0, -3.0, 0.0], [1.0, 0.0, -5.0]]), NORM_ONE).tolist() == [5, 6]
    assert vector_norm(np.eye(3), NORM_ONE).tolist() == [1, 1, 1]
    assert vector_norm(np.array([[3.0, 10.0, 5.0]]), NORM_ONE).tolist() == [18.0]


def test_vector_norm_of_every_row_nonnegative_zero_iff_zero_row():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(5, 4))
    a[2] = 0.0
    norms = vector_norm(a, NORM_ONE)
    assert np.all(norms >= 0)
    assert norms[2] == 0.0
    assert np.all(norms[[0, 1, 3, 4]] > 0)


def test_matrix_norms():
    a = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert matrix_norm(a, NORM_ONE) == 6.0
    assert matrix_norm(a, NORM_INF) == 7.0
    assert matrix_norm(a, NORM_FRO) == pytest.approx(np.sqrt(30.0))


@pytest.mark.parametrize("size", [1, 3, 7])
def test_identity_norms(size):
    assert matrix_norm(np.eye(size), NORM_ONE) == 1.0
    assert matrix_norm(np.eye(size), NORM_INF) == 1.0
