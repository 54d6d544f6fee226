"""Reading and writing matrices, vectors, and solve reports.

CSV carries one matrix row per line; Matrix Market is supported in both
coordinate and array variants (real, general).  A coordinate entry that
repeats an earlier (i, j) is rejected with a ``ParseError`` naming its
line, never summed or overwritten.  NaN and Inf entries are rejected
with ``InvalidInput`` in every format.  Digit-group underscores
(``1_000``), which Python's ``int`` and ``float`` accept, are rejected by
both readers with a ``ParseError`` naming the line.  A Matrix Market size
line is checked before anything is allocated: a matrix larger than one
numpy array can hold, or more coordinate entries than it has cells, is a
``ParseError`` on that line.

Each reader splits its text into lines once, with ``str.splitlines``.
Where the text is ASCII with no underscore, those lines (a CSV file's
less its lines of blanks) go to one ``np.loadtxt`` call, and the numbers
are validated as arrays (index range, duplicates, entry count,
finiteness); only the Matrix Market header and size line are visited in
Python.  Lines numpy rejects (a non-numeric token, or any '%' after the
Matrix Market size line, a comment line or an inline note) go to a
per-line loop over the same lines.  It names the error kind, message and line the readers have
always given, or reads the rare forms only Python's ``float`` accepts.
Results and errors are the same either way.  Files are read as UTF-8,
with or without a byte-order mark; bytes that are not UTF-8 are a
``ParseError`` naming the line.  ``write_report``, the one JSON
writer, writes a report's dataclass fields with sorted keys, so identical
runs give byte-identical output; floats use shortest round-trip repr,
which re-parses bit-identically.
"""

import dataclasses
import json
import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    Inconsistent,
    InvalidInput,
    ParseError,
    RaggedRows,
    SolverError,
    UnsupportedFormat,
)
from .iterate import GENERALIZED_METHODS, STATUS_ERROR, STATUSES, SolveReport, SolverConfig
from .convergence import ConditionReport, NormConditionRecord
from .linalg import NORM_KINDS, as_matrix, as_vector, require_finite


def _reject_digit_groups(numbered_lines):
    for no, line in numbered_lines:
        if "_" in line:
            raise ParseError(f"digit-group underscore in {line.strip()!r}", line=no)


def _loadtxt(lines, **options):
    """``np.loadtxt`` of ``lines``, or None where numpy rejects them or
    finds no data in them."""
    with warnings.catch_warnings():
        # any warning rejects the lines: "input contained no data", or an
        # index parsed through float by numpy releases that still allow it
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, comments=None, **options)
        except (ValueError, Warning):
            return None


# ---------------------------------------------------------------- CSV

def read_csv_matrix(text: str) -> np.ndarray:
    lines = text.splitlines()
    if text.isascii() and "_" not in text:
        # numpy rejects a line of blanks, which the loop skips
        mat = _loadtxt([ln for ln in lines if not ln.isspace()], delimiter=",", ndmin=2)
        if mat is not None:
            return require_finite(mat, "matrix")
    # one Python step per line: names the error in lines numpy rejects, and
    # reads the rare forms only float accepts (a non-ASCII digit)
    if "_" in text:
        _reject_digit_groups(enumerate(lines, start=1))
    rows = []
    width = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        try:
            row = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(f"non-numeric token in {line!r}", line=lineno)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise RaggedRows(f"row on line {lineno} has {len(row)} entries, expected {width}")
        rows.append(row)
    if not rows:
        raise ParseError("no rows found")
    return as_matrix(rows)


def write_csv_matrix(a) -> str:
    """One line per row, each entry its shortest round-trip repr.  repr is
    called only for the entries that need it, those nonzero or -0.0; every
    other one is +0.0, written "0.0".  Lines are built one row at a time."""
    a = as_matrix(a)
    lines = []
    for row in a:
        cells = ["0.0"] * row.size
        where = np.flatnonzero((row != 0.0) | np.signbit(row))
        for i, v in zip(where.tolist(), row[where].tolist()):
            cells[i] = repr(v)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_csv_vector(text: str) -> np.ndarray:
    return _single_row_or_column(read_csv_matrix(text))


def _single_row_or_column(mat: np.ndarray) -> np.ndarray:
    if mat.shape[1] == 1:
        return mat[:, 0].copy()
    if mat.shape[0] == 1:
        return mat[0].copy()
    raise DimensionMismatch("vector file must have a single row or column")


def write_csv_vector(v) -> str:
    v = as_vector(v)
    return "\n".join(repr(x) for x in v.tolist()) + "\n"


# ------------------------------------------------------- Matrix Market

MM_BANNER = "%%MatrixMarket"
MM_SIZE_FIELDS = {"coordinate": "rows cols nnz", "array": "rows cols"}
_MM_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# the most float64 entries one numpy array can hold
_MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _mm_form(header_line: str) -> str:
    """The storage form named by a valid header line."""
    header = header_line.split()
    if len(header) != 5 or header[0] != MM_BANNER:
        raise ParseError("malformed MatrixMarket header", line=1)
    _, obj, form, field, symmetry = [h.lower() for h in header]
    if obj != "matrix":
        raise UnsupportedFormat(f"unsupported object {obj!r}")
    if form not in MM_SIZE_FIELDS:
        raise UnsupportedFormat(f"unsupported format {form!r}")
    if field not in ("real", "integer"):
        raise UnsupportedFormat(f"unsupported field {field!r}")
    if symmetry != "general":
        raise UnsupportedFormat(f"unsupported symmetry {symmetry!r}")
    return form


def _mm_size(size_line: str, size_no: int, form: str):
    """(rows, cols, entry count) of a valid size line; nothing is allocated
    before it passes."""
    fields = MM_SIZE_FIELDS[form]
    tokens = size_line.split()
    if len(tokens) != len(fields.split()):
        raise ParseError(f"{form} size line needs '{fields}'", line=size_no)
    try:
        size = [int(t) for t in tokens]
    except ValueError:
        raise ParseError("non-integer size line", line=size_no)
    if min(size) < 0:
        raise ParseError("negative size", line=size_no)
    m, n = size[:2]
    if m * n > _MAX_ENTRIES:
        raise ParseError(f"a {m} x {n} matrix exceeds the largest array", line=size_no)
    count = size[2] if form == "coordinate" else m * n
    if count > m * n:
        raise ParseError(f"{count} entries exceed the {m * n} of a {m} x {n} matrix",
                         line=size_no)
    return m, n, count


def read_matrix_market(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", line=1)
    form = _mm_form(lines[0])
    size_no = next((no for no, ln in enumerate(lines[1:], start=2)
                    if (s := ln.strip()) and not s.startswith("%")), None)
    if size_no is not None and text.isascii() and "_" not in text:
        m, n, count = _mm_size(lines[size_no - 1], size_no, form)
        # the lines after the size line in one parse; a '%' there makes numpy reject them
        if count and form == "array":
            values = _loadtxt(lines[size_no:], ndmin=2)
            if values is not None and values.shape == (count, 1):
                # array format stores column-major
                return require_finite(values.reshape(n, m).T.copy(), "matrix")
        elif count:
            entries = _loadtxt(lines[size_no:], dtype=_MM_ENTRY, ndmin=1)
            if entries is not None and entries.size == count:
                i, j = entries["i"], entries["j"]
                flat = (i - 1) * n + (j - 1)
                ordered = np.sort(flat)
                if (i.min() >= 1 and i.max() <= m and j.min() >= 1 and j.max() <= n
                        and not np.any(ordered[1:] == ordered[:-1])):   # no duplicate
                    mat = np.zeros(m * n)     # row-major; reshaped on return
                    mat[flat] = entries["v"]
                    return require_finite(mat.reshape(m, n), "matrix")

    # one Python step per line: names the error in lines numpy rejects, and
    # reads the rare forms only float accepts
    data = [(no, s) for no, ln in enumerate(lines[1:], start=2)
            if (s := ln.strip()) and not s.startswith("%")]
    if not data:
        raise ParseError("missing size line")
    if "_" in text:
        _reject_digit_groups(data)
    size_no, size_line = data[0]
    entries = data[1:]
    m, n, count = _mm_size(size_line, size_no, form)
    if len(entries) != count:
        raise ParseError(f"expected {count} entries, found {len(entries)}", line=size_no)

    if form == "coordinate":
        mat = np.zeros(m * n)     # row-major; reshaped on return
        seen = bytearray(m * n)   # mask of the entries read so far
        for no, ln in entries:
            parts = ln.split()
            if len(parts) != 3:
                raise ParseError("coordinate entry needs 'i j value'", line=no)
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError("malformed coordinate entry", line=no)
            if not (1 <= i <= m and 1 <= j <= n):
                raise ParseError("coordinate entry out of range", line=no)
            k = (i - 1) * n + j - 1
            if seen[k]:
                raise ParseError(f"duplicate entry ({i}, {j})", line=no)
            seen[k] = 1
            mat[k] = v
        return require_finite(mat.reshape(m, n), "matrix")

    values = []
    for no, ln in entries:
        try:
            values.append(float(ln))
        except ValueError:
            raise ParseError(f"malformed value {ln!r}", line=no)
    # array format stores column-major
    return require_finite(np.array(values).reshape((n, m)).T.copy(), "matrix")


def write_matrix_market(a, form: str = "coordinate") -> str:
    a = as_matrix(a)
    m, n = a.shape
    if form == "coordinate":
        lines = [f"{MM_BANNER} matrix coordinate real general"]
        rows, cols = np.nonzero(a)   # row-major order; -0.0 counts as zero
        lines.append(f"{m} {n} {len(rows)}")
        lines.extend(f"{i} {j} {v!r}" for i, j, v in
                     zip((rows + 1).tolist(), (cols + 1).tolist(), a[rows, cols].tolist()))
    elif form == "array":
        lines = [f"{MM_BANNER} matrix array real general", f"{m} {n}"]
        lines.extend(map(repr, a.T.ravel().tolist()))
    else:
        raise InvalidInput(f"unknown MatrixMarket form: {form!r}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ reports

def _fields(value):
    """The JSON value of a report part json cannot write itself: a
    dataclass as its fields by name, an ndarray as a list."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise InvalidInput(f"a report holds no {type(value).__name__}")


def write_report(value) -> str:
    """The JSON text of a ``SolveReport``, a ``ConditionReport`` or a list
    of either: every JSON output the CLI writes."""
    return json.dumps(value, default=_fields, sort_keys=True, indent=2) + "\n"


def _numbers(values) -> bool:
    """Whether ``values`` is a list of numbers (a bool is none)."""
    return isinstance(values, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


def _check_outcome(status, iterations, norms, error):
    """Raise ``ParseError`` unless a report's outcome fields are values a
    solve gives: one of the five statuses; a list of numbers as
    ``residual_norms``, empty only on an error report (an inconsistent
    reduction measures no residual); ``iterations`` an int that counts the
    norms after the first; an error kind only on an error report."""
    if status not in STATUSES:
        raise ParseError(f"report status {status!r} is not one of {', '.join(STATUSES)}")
    if not _numbers(norms):
        raise ParseError("report residual_norms must be a list of numbers")
    if not norms and status != STATUS_ERROR:
        raise ParseError("report residual_norms must hold the first norm of a solve")
    if type(iterations) is not int or iterations != max(len(norms) - 1, 0):
        raise ParseError(f"report iterations {iterations!r} must be an int equal to "
                         "the number of residual norms after the first")
    if error is not None and (status != STATUS_ERROR or not isinstance(error, str)):
        raise ParseError(f"report error {error!r} may only name the kind of an error report")


def _solution(values, perm, method, error):
    """The solution and column order of a report of ``method``, as a solve gives
    them: a flat list of finite numbers, and a permutation of its indices for a
    generalized method (null on an inconsistent exact solve), else null."""
    if not _numbers(values) or not np.isfinite(np.array(values, dtype=float)).all():
        raise ParseError("report solution must be a list of finite numbers")
    ordered = method in GENERALIZED_METHODS
    if ((ordered and perm is None and error != Inconsistent.kind)
            or (not ordered and perm is not None)):
        raise ParseError(f"report column_perm is not that of a {method} solve")
    if perm is not None and not (isinstance(perm, list) and all(type(i) is int for i in perm)
                                 and sorted(perm) == list(range(len(values)))):
        raise ParseError("report column_perm must be null or a permutation of range(n)")
    return np.array(values, dtype=float), None if perm is None else tuple(perm)


def _conditions(obj, method):
    """The conditions of a report of ``method``, or None for null: those of
    a generalized method, with one record per norm of ``NORM_KINDS`` in
    that order, numbers as c1, c2 and the Cauchy bound, a bool as
    ``certified``, and certified overall when a norm certifies."""
    if obj is None:
        return None
    report = ConditionReport(**dict(
        obj, per_norm=tuple(NormConditionRecord(**r) for r in obj["per_norm"])))
    records = report.per_norm
    if (report.method not in GENERALIZED_METHODS or report.method != method
            or tuple(r.norm for r in records) != NORM_KINDS
            or not all(_numbers([r.c1, r.c2, r.cauchy_bound]) for r in records)
            or not all(isinstance(r.certified, bool) for r in records)
            or report.overall_certified is not any(r.certified for r in records)):
        raise ParseError(f"report conditions {obj!r} are not those of a {method} solve")
    return report


def read_report(text: str) -> SolveReport:
    """The report ``write_report`` wrote as ``text``.  Text that is not
    such a report raises ``ParseError`` (see ``_check_outcome``,
    ``_solution`` and ``_conditions`` for the values a solve gives); a
    config value ``SolverConfig`` rejects raises its ``InvalidInput``."""
    try:
        obj = json.loads(text)
        cfg = obj["config"]
        if sorted(cfg) != sorted(field.name for field in dataclasses.fields(SolverConfig)):
            raise ParseError("report config must hold exactly the fields of SolverConfig")
        _check_outcome(obj["status"], obj["iterations"], obj["residual_norms"], obj.get("error"))
        config = SolverConfig(**cfg)
        solution, perm = _solution(obj["solution"], obj.get("column_perm"), config.method,
                                   obj.get("error"))
        return SolveReport(**dict(obj, solution=solution, column_perm=perm, config=config,
                                  conditions=_conditions(obj.get("conditions"), config.method)))
    except SolverError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # ValueError covers json.JSONDecodeError, OverflowError a huge integer
        raise ParseError(f"malformed solve report: {exc!r}") from None


# --------------------------------------------------------- file paths

def load_matrix_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports begin with
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bad byte's line, numbered as the readers number lines
        before = exc.object[:exc.start].decode("utf-8") + "?"
        raise ParseError(f"not UTF-8 text ({exc.reason}, byte {exc.object[exc.start]:#04x})",
                         line=len(before.splitlines())) from None
    if str(path).lower().endswith(".mtx"):
        return read_matrix_market(text)
    return read_csv_matrix(text)


def load_vector_file(path) -> np.ndarray:
    return _single_row_or_column(load_matrix_file(path))
