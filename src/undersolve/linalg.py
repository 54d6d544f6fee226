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
    """Validate and return a 2-D float64 matrix (finite entries only)."""
    a = np.array(data, dtype=float)
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


_TRIANGLE_BASE = 64     # blocks this small are inverted by LAPACK directly


def lower_triangular_inverse(lower: np.ndarray) -> np.ndarray:
    """L^-1 for a square lower-triangular L with a nonzero diagonal.

    Recursive 2x2 blocking, as in LAPACK's blocked ``dtrtri``:
    [[L11, 0], [L21, L22]]^-1 = [[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]].
    Each level costs two gemms, about 2m^3/3 flops in all against about
    2m^3 for a general inverse; blocks of at most 64 rows go to
    ``np.linalg.inv``.  The strict upper triangle of the result is exactly
    0.  Du Croz & Higham (IMA J. Numer. Anal. 12, 1992) show this is as
    stable as the unblocked triangular inverse.
    """
    out = np.zeros_like(lower, dtype=float)
    _invert_lower_into(lower, out)
    return out


def _invert_lower_into(lower, out):
    m = lower.shape[0]
    if m <= _TRIANGLE_BASE:
        out[...] = np.tril(np.linalg.inv(lower))
        return
    h = m // 2
    _invert_lower_into(lower[:h, :h], out[:h, :h])
    _invert_lower_into(lower[h:, h:], out[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ lower[h:, :h]) @ out[:h, :h]


def singularity_threshold(a: np.ndarray) -> float:
    """Scale-relative zero test for pivots/diagonals: 1e-12 * ||a||_inf
    (or 1e-12 when the matrix is all zeros)."""
    scale = matrix_norm(a, NORM_INF)
    return 1e-12 * (scale if scale > 0.0 else 1.0)

