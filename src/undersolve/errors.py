"""Exception types raised by the solver library."""


class SolverError(Exception):
    """Base class for all undersolve errors."""

    kind = "error"


class InvalidInput(SolverError, ValueError):
    """An argument the library rejects before doing any work: a NaN or Inf
    entry, an out-of-range setting (epsilon or max_iterations), or an
    unknown method, norm or policy name.  It is also a ``ValueError``,
    so callers that catch that keep working."""

    kind = "invalid_input"


class DimensionMismatch(SolverError):
    kind = "dimension_mismatch"


class SingularTriangular(SolverError):
    kind = "singular_triangular"


class ZeroRow(SolverError):
    kind = "zero_row"


class ZeroTailRow(SolverError):
    kind = "zero_tail_row"


class ZeroDiagonal(SolverError):
    kind = "zero_diagonal"


class NotUnderdetermined(SolverError):
    kind = "not_underdetermined"


class RankDeficient(SolverError):
    kind = "rank_deficient"


class Inconsistent(SolverError):
    kind = "inconsistent"


class ParseError(SolverError):
    kind = "parse_error"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedFormat(SolverError):
    kind = "unsupported_format"


class RaggedRows(SolverError):
    kind = "ragged_rows"
