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

Each reader parses a file's numbers with one ``np.loadtxt`` call and
validates them as arrays (index range, duplicates, entry count,
finiteness); only the Matrix Market header, the size line and lines
holding a '%' are visited in Python.  Text numpy rejects, or splits
differently from ``str.splitlines`` (non-ASCII text, \\f or \\v line
breaks, an inline '% note' numpy would drop), goes to a per-line reader
that names the error kind, message and line the readers have always
given, or reads the rare forms only Python's ``float`` accepts.  Results
and errors are the same either way.  Reports serialize to
JSON with sorted keys so identical runs produce byte-identical output;
floats use shortest round-trip repr, which re-parses bit-identically.
"""

import dataclasses
import io
import itertools
import json
import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    ParseError,
    RaggedRows,
    SolverError,
    UnsupportedFormat,
)
from .iterate import STATUS_ERROR, STATUSES, SolveReport, SolverConfig
from .convergence import ConditionReport, NormConditionRecord
from .linalg import _require_finite, as_matrix, as_vector


def _reject_digit_groups(numbered_lines):
    for no, line in numbered_lines:
        if "_" in line:
            raise ParseError(f"digit-group underscore in {line.strip()!r}", line=no)


def _plain(text: str) -> bool:
    """Whether ``text`` is in the common form the numpy parse reads as the
    per-line readers do: ASCII (numpy reads no non-ASCII digit), no
    digit-group underscore (the per-line readers name its line), and no
    line boundary but \\n and \\r\\n (numpy reads \\v, \\f and \\x1c-\\x1e as
    whitespace within a line)."""
    return (text.isascii() and "_" not in text
            and not any(c in text for c in "\v\f\x1c\x1d\x1e")
            and ("\r" not in text or text.count("\r") == text.count("\r\n")))


def _loadtxt(text: str, skip_lines: int = 0, **options):
    """``np.loadtxt`` of the ASCII ``text`` after its first ``skip_lines``
    lines, or None where numpy rejects the text or finds no data in it.
    numpy reads the text's bytes: a str stream would hold four bytes per
    character."""
    with warnings.catch_warnings():
        # any warning rejects the text: "input contained no data", or an
        # index parsed through float by numpy releases that still allow it
        warnings.simplefilter("error")
        try:
            return np.loadtxt(io.BytesIO(text.encode("ascii")), skiprows=skip_lines, **options)
        except (ValueError, Warning):
            return None


# ---------------------------------------------------------------- CSV

def read_csv_matrix(text: str) -> np.ndarray:
    if _plain(text):
        mat = _loadtxt(text, delimiter=",", comments=None, ndmin=2)
        if mat is not None:
            return _require_finite(mat, "matrix")
    return _read_csv_lines(text)


def _read_csv_lines(text: str) -> np.ndarray:
    """One Python step per line: names the error in text numpy rejects, and
    reads the rare forms that only ``float`` and ``str.splitlines`` accept
    (a line of blanks, a non-ASCII digit, a \\f line break)."""
    if "_" in text:
        _reject_digit_groups(enumerate(text.splitlines(), start=1))
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip().rstrip("\r")
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


def read_matrix_market(text: str) -> np.ndarray:
    if _plain(text):
        mat = _read_matrix_market_numpy(text)
        if mat is not None:
            return mat
    return _read_matrix_market_lines(text)


def _mm_form(header_line: str) -> str:
    """The storage form named by a valid header line."""
    header = header_line.rstrip("\r").split()
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


def _lines(text: str):
    """(line number, line, offset of the next line) for each \\n-ended line,
    produced on demand."""
    start = 0
    for no in itertools.count(1):
        end = text.find("\n", start)
        if end < 0:
            yield no, text[start:], len(text)
            return
        yield no, text[start:end], end + 1
        start = end + 1


def _inline_comment(text: str, start: int) -> bool:
    """Whether a line of ``text[start:]`` holds data before a '%'.  numpy
    drops such a note; the format rejects the line."""
    pct = text.find("%", start)
    while pct >= 0:
        if text[text.rfind("\n", 0, pct) + 1:pct].strip():
            return True
        end = text.find("\n", pct)
        pct = text.find("%", end) if end >= 0 else -1
    return False


def _read_matrix_market_numpy(text: str):
    """The matrix from one numpy parse of the entries, or None where the
    per-line reader must name the error.  Only header and size line, and
    the lines holding a '%', are visited in Python."""
    if not text:
        return None
    lines = _lines(text)
    form = _mm_form(next(lines)[1])
    for size_no, line, body in lines:
        size_line = line.strip()
        if size_line and not size_line.startswith("%"):
            break
    else:
        return None
    m, n, count = _mm_size(size_line, size_no, form)
    if count == 0 or _inline_comment(text, body):
        return None
    if form == "array":
        values = _loadtxt(text, size_no, comments="%", ndmin=2)
        if values is None or values.shape != (count, 1):
            return None
        # array format stores column-major
        return _require_finite(values.reshape(n, m).T.copy(), "matrix")
    entries = _loadtxt(text, size_no, dtype=_MM_ENTRY, comments="%", ndmin=1)
    if entries is None or entries.size != count:
        return None
    i, j = entries["i"], entries["j"]
    if i.min() < 1 or i.max() > m or j.min() < 1 or j.max() > n:
        return None
    flat = (i - 1) * n + (j - 1)
    ordered = np.sort(flat)
    if np.any(ordered[1:] == ordered[:-1]):   # a duplicate entry
        return None
    mat = np.zeros(m * n)     # row-major; reshaped on return
    mat[flat] = entries["v"]
    return _require_finite(mat.reshape(m, n), "matrix")


def _read_matrix_market_lines(text: str) -> np.ndarray:
    """One Python step per line: names the error in text the numpy parse
    rejects, and reads the rare forms only ``str.splitlines`` and ``float``
    accept."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", line=1)
    form = _mm_form(lines[0])
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
        return _require_finite(mat.reshape(m, n), "matrix")

    values = []
    for no, ln in entries:
        try:
            values.append(float(ln))
        except ValueError:
            raise ParseError(f"malformed value {ln!r}", line=no)
    # array format stores column-major
    return _require_finite(np.array(values).reshape((n, m)).T.copy(), "matrix")


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

def _conditions_to_obj(report: ConditionReport):
    if report is None:
        return None
    return {
        "method": report.method,
        "overall_certified": report.overall_certified,
        "per_norm": [
            {
                "norm": r.norm_kind,
                "c1": r.c1,
                "c2": r.c2,
                "certified": r.certified,
                "cauchy_bound": r.cauchy_bound,
            }
            for r in report.per_norm
        ],
    }


def _conditions_from_obj(obj):
    if obj is None:
        return None
    return ConditionReport(
        method=obj["method"],
        per_norm=tuple(
            NormConditionRecord(
                norm_kind=r["norm"],
                c1=r["c1"],
                c2=r["c2"],
                certified=r["certified"],
                cauchy_bound=r["cauchy_bound"],
            )
            for r in obj["per_norm"]
        ),
        overall_certified=obj["overall_certified"],
    )


def write_report(report: SolveReport) -> str:
    obj = {
        "status": report.status,
        "error": report.error,
        "iterations": report.iterations,
        "residual_norms": list(report.residual_norms),
        "solution": list(np.asarray(report.solution, dtype=float)),
        "column_perm": list(report.column_perm) if report.column_perm else None,
        "config": dataclasses.asdict(report.config),
        "conditions": _conditions_to_obj(report.conditions),
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _check_outcome(status, iterations, norms, error):
    """Raise ``ParseError`` unless a report's outcome fields are values a
    solve gives: one of the five statuses; a list of numbers as
    ``residual_norms``, empty only on an error report (an inconsistent
    reduction measures no residual); ``iterations`` an int that counts the
    norms after the first; an error kind only on an error report."""
    if status not in STATUSES:
        raise ParseError(f"report status {status!r} is not one of {', '.join(STATUSES)}")
    if not isinstance(norms, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in norms):
        raise ParseError("report residual_norms must be a list of numbers")
    if not norms and status != STATUS_ERROR:
        raise ParseError("report residual_norms must hold the first norm of a solve")
    if type(iterations) is not int or iterations != max(len(norms) - 1, 0):
        raise ParseError(f"report iterations {iterations!r} must be an int equal to "
                         "the number of residual norms after the first")
    if error is not None and (status != STATUS_ERROR or not isinstance(error, str)):
        raise ParseError(f"report error {error!r} may only name the kind of an error report")


def read_report(text: str) -> SolveReport:
    """The report ``write_report`` wrote as ``text``.  Text that is not
    such a report raises ``ParseError`` (see ``_check_outcome`` for the
    outcome fields); a config value ``SolverConfig`` rejects raises its
    ``InvalidInput``."""
    try:
        obj = json.loads(text)
        cfg = obj["config"]
        if sorted(cfg) != sorted(field.name for field in dataclasses.fields(SolverConfig)):
            raise ParseError("report config must hold exactly the fields of SolverConfig")
        _check_outcome(obj["status"], obj["iterations"], obj["residual_norms"], obj.get("error"))
        return SolveReport(
            status=obj["status"],
            solution=np.array(obj["solution"], dtype=float),
            iterations=obj["iterations"],
            residual_norms=obj["residual_norms"],
            config=SolverConfig(**cfg),
            conditions=_conditions_from_obj(obj.get("conditions")),
            error=obj.get("error"),
            column_perm=tuple(obj["column_perm"]) if obj.get("column_perm") else None,
        )
    except SolverError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError and a non-numeric solution
        raise ParseError(f"malformed solve report: {exc!r}") from None


# --------------------------------------------------------- file paths

def load_matrix_file(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).lower().endswith(".mtx"):
        return read_matrix_market(text)
    return read_csv_matrix(text)


def load_vector_file(path) -> np.ndarray:
    return _single_row_or_column(load_matrix_file(path))
