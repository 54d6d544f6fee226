"""Dense matrix/vector helpers.

All values are plain float64 numpy arrays.  Matrices are row-major 2-D
arrays, vectors are 1-D arrays.  Constructors reject NaN/Inf so every
downstream routine may assume finite inputs.
"""

import numpy as np

from .errors import DimensionMismatch, InvalidInput

NORM_ONE = "one"
NORM_INF = "inf"
NORM_FRO = "fro"

NORM_KINDS = (NORM_ONE, NORM_INF, NORM_FRO)


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """Return ``a`` itself, or raise ``InvalidInput`` if it holds NaN/Inf."""
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInput(f"{what} entries must be finite (no NaN/Inf)")
    return a


def as_matrix(data) -> np.ndarray:
    """Validate and return a 2-D float64 matrix (finite entries only).
    A contiguous float64 array is returned itself, anything else as a
    fresh contiguous copy: a caller that writes into it copies it first."""
    a = np.asarray(data, dtype=float)
    if not (a.flags.c_contiguous or a.flags.f_contiguous):
        a = np.array(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    return require_finite(a, "matrix")


def as_vector(data) -> np.ndarray:
    """Validate and return a 1-D float64 vector (finite entries only)."""
    v = np.array(data, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got ndim={v.ndim}")
    return require_finite(v, "vector")


def as_system(a, b):
    """Validate and return (a, b) as ``as_matrix`` and ``as_vector`` do,
    with one rhs entry per row of a."""
    a = as_matrix(a)
    b = as_vector(b)
    if b.shape != (a.shape[0],):
        raise DimensionMismatch("rhs length must equal the number of rows")
    return a, b


def sign_matrix(a: np.ndarray) -> np.ndarray:
    """Entrywise signs (+1/0/-1) of the transpose of ``a``.

    sign(0) is exactly 0; no tolerance band, the sign pattern is
    structural rather than numerical.
    """
    return np.sign(np.asarray(a, dtype=float)).T


def matrix_norm(a: np.ndarray, which: str) -> float:
    """Induced 1-norm, induced infinity-norm, or Frobenius norm."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if which == NORM_ONE:
        return float(np.abs(a).sum(axis=0).max())
    if which == NORM_INF:
        return float(np.abs(a).sum(axis=1).max())
    if which == NORM_FRO:
        return float(np.sqrt((a * a).sum()))
    raise InvalidInput(f"unknown norm kind: {which!r}")


def vector_norm(v: np.ndarray, which: str):
    """1- or infinity-norm over the last axis: a float for a vector, the
    norm of every row for a matrix (0 for an empty row)."""
    if which == NORM_ONE:
        norms = np.abs(v).sum(axis=-1)
    elif which == NORM_INF:
        norms = np.abs(v).max(axis=-1, initial=0.0)
    else:
        raise InvalidInput(f"unknown vector norm kind: {which!r}")
    return float(norms) if norms.ndim == 0 else norms


def singularity_threshold(row_norms: np.ndarray) -> float:
    """Scale-relative zero test for pivots/diagonals of a matrix from its
    row 1-norms: 1e-12 * ||a||_inf (or 1e-12 when the matrix is all zeros)."""
    scale = float(row_norms.max(initial=0.0))
    return 1e-12 * (scale if scale > 0.0 else 1.0)
