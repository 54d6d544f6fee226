"""Independent brute-force reimplementations used to cross-check the
library.  Everything here is deliberately written with plain loops (or
exact rational arithmetic) and must stay independent of the package
internals it checks."""

from fractions import Fraction

import numpy as np

from undersolve.errors import ParseError, RaggedRows, SolverError, UnsupportedFormat
from undersolve.linalg import as_matrix, require_finite


def brute_sign(x):
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def brute_sign_matrix(a):
    m, n = len(a), len(a[0])
    return [[brute_sign(a[i][j]) for i in range(m)] for j in range(n)]


def brute_row_one_norms(a):
    return [sum(abs(v) for v in row) for row in a]


def brute_baseline_step(a, b, z):
    m, n = len(a), len(a[0])
    d = []
    for i in range(m):
        norm = sum(abs(v) for v in a[i])
        resid = b[i] - sum(a[i][j] * z[j] for j in range(n))
        d.append(resid / (m * norm))
    s = brute_sign_matrix(a)
    return [z[j] + sum(s[j][i] * d[i] for i in range(m)) for j in range(n)]


def brute_baseline_residual_operator(a):
    """T = I - A*s(A)*N^-1/m, the matrix with r' = T*r for the residual
    r = b - A*z of one baseline step (N = diag of the row 1-norms)."""
    m, n = len(a), len(a[0])
    s = brute_sign_matrix(a)
    norms = brute_row_one_norms(a)
    out = []
    for i in range(m):
        row = []
        for k in range(m):
            acc = sum(a[i][j] * s[j][k] for j in range(n))
            row.append((1.0 if i == k else 0.0) - acc / (m * norms[k]))
        out.append(row)
    return out


def brute_jacobi_step(b_mat, rhs, x):
    m = len(b_mat)
    out = []
    for i in range(m):
        acc = rhs[i]
        for j in range(m):
            if j != i:
                acc -= b_mat[i][j] * x[j]
        out.append(acc / b_mat[i][i])
    return out


def brute_gauss_seidel_step(b_mat, rhs, x):
    m = len(b_mat)
    out = list(x)
    for i in range(m):
        acc = rhs[i]
        for j in range(i):
            acc -= b_mat[i][j] * out[j]
        for j in range(i + 1, m):
            acc -= b_mat[i][j] * x[j]
        out.append(0)
        out[i] = acc / b_mat[i][i]
    return out[:m]


def brute_step(a, b, x, perm, head_size, sweep):
    """One step of any method from x (original column order) on the
    column order ``perm``: the first ``head_size`` columns are the head.
    The tail update sees the residual b - A x and the head sweep the
    right-hand side b - B~ t' of the new tail; ``sweep`` is None (no
    head, as for baseline), "jacobi" or "gs"."""
    m = len(a)
    head, tail = list(perm[:head_size]), list(perm[head_size:])
    out = list(x)
    if tail:
        rhs = [b[i] - sum(a[i][j] * x[j] for j in head) for i in range(m)]
        new_tail = brute_baseline_step([[a[i][j] for j in tail] for i in range(m)], rhs,
                                       [x[j] for j in tail])
        for j, v in zip(tail, new_tail):
            out[j] = v
    if sweep is not None:
        rhs = [b[i] - sum(a[i][j] * out[j] for j in tail) for i in range(m)]
        sweep_step = brute_jacobi_step if sweep == "jacobi" else brute_gauss_seidel_step
        new_head = sweep_step([[a[i][j] for j in head] for i in range(m)], rhs,
                              [x[j] for j in head])
        for j, v in zip(head, new_head):
            out[j] = v
    return out


def brute_step_operators(a, perm, head_size, sweep):
    """(M, K) of one step, as lists of rows: with b = e_j and x = 0, column
    j of K is the step's new x and column j of M its residual e_j - A x.
    A step from any x then gives x + K r and the residual M r."""
    m, n = len(a), len(a[0])
    k_cols, m_cols = [], []
    for j in range(m):
        e = [1.0 if i == j else 0.0 for i in range(m)]
        x1 = brute_step(a, e, [0.0] * n, perm, head_size, sweep)
        k_cols.append(x1)
        m_cols.append([e[i] - sum(a[i][c] * x1[c] for c in range(n)) for i in range(m)])
    return ([[col[i] for col in m_cols] for i in range(m)],
            [[col[i] for col in k_cols] for i in range(n)])


def rational_rref(rows):
    """Exact Gauss-Jordan elimination over the rationals.

    Returns (matrix of Fractions, pivot column list)."""
    work = [[Fraction(v) for v in row] for row in rows]  # exact, floats included
    m = len(work)
    n = len(work[0])
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        piv = next((i for i in range(r, m) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][c]
        work[r] = [v / pv for v in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def rational_rref_floats(rows):
    mat, pivots = rational_rref(rows)
    return np.array([[float(v) for v in row] for row in mat]), pivots


def random_partitioned(rng, m=None, n=None, lo=2, hi=10):
    """Random well-posed underdetermined system: nonzero head diagonal,
    nonzero tail row norms (resampled until both hold)."""
    if m is None:
        m = int(rng.integers(lo, hi + 1))
    if n is None:
        n = int(rng.integers(m + 1, 2 * m + 6))
    while True:
        a = rng.uniform(-10.0, 10.0, size=(m, n))
        head = a[:, :m]
        tail = a[:, m:]
        if np.all(np.abs(np.diag(head)) > 0.5) and \
                np.all(np.abs(tail).sum(axis=1) > 0.5):
            return a, m, n


# The matrix readers as they were before they parsed with numpy: one Python
# step per line.  The library's readers must return the same bits and raise
# the same error kind, message and line on every text these accept or reject.

def _reject_digit_groups(numbered_lines):
    for no, line in numbered_lines:
        if "_" in line:
            raise ParseError(f"digit-group underscore in {line.strip()!r}", line=no)


def brute_read_csv_matrix(text: str) -> np.ndarray:
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


def brute_write_csv_matrix(a) -> str:
    """The CSV matrix writer as it was: one repr per value."""
    return "\n".join(",".join(repr(v) for v in row) for row in as_matrix(a).tolist()) + "\n"


_MM_BANNER = "%%MatrixMarket"
_MM_SIZE_FIELDS = {"coordinate": "rows cols nnz", "array": "rows cols"}


def brute_read_matrix_market(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", line=1)
    header = lines[0].rstrip("\r").split()
    if len(header) != 5 or header[0] != _MM_BANNER:
        raise ParseError("malformed MatrixMarket header", line=1)
    _, obj, form, field, symmetry = [h.lower() for h in header]
    if obj != "matrix":
        raise UnsupportedFormat(f"unsupported object {obj!r}")
    if form not in _MM_SIZE_FIELDS:
        raise UnsupportedFormat(f"unsupported format {form!r}")
    if field not in ("real", "integer"):
        raise UnsupportedFormat(f"unsupported field {field!r}")
    if symmetry != "general":
        raise UnsupportedFormat(f"unsupported symmetry {symmetry!r}")

    data = [(no, s) for no, ln in enumerate(lines[1:], start=2)
            if (s := ln.strip()) and not s.startswith("%")]
    if not data:
        raise ParseError("missing size line")
    if "_" in text:
        _reject_digit_groups(data)
    size_no, size_line = data[0]
    entries = data[1:]
    fields = _MM_SIZE_FIELDS[form]
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
    count = size[2] if form == "coordinate" else m * n
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


def tail_lower_bounds(block):
    """Lower bounds on the one-, infinity- and Frobenius norm of the tail
    map T = I - B~ s(B~) W of ``block``, W = diag of 1 / (m ||B~_k||_1),
    in ``NORM_KINDS`` order, without forming T: the 1-norm of its column
    0, the 1-norm of its row 0 and the 2-norm of its diagonal.  Each
    diagonal entry is 1 - 1/m, as B~[i, j] sign(B~[i, j]) sums to
    ||B~_i||_1.  The oracle of ``generate._round_bounds``."""
    m = block.shape[0]
    signs = np.sign(block).T
    weights = 1.0 / (m * np.abs(block).sum(axis=1))
    col0 = (block @ signs[:, 0]) * -weights[0]
    col0[0] += 1.0
    row0 = (block[0] @ signs) * -weights
    row0[0] += 1.0
    return np.abs(col0).sum(), np.abs(row0).sum(), (m - 1) / np.sqrt(m)


def brute_generate_certified(m, n, rng, certifies):
    """``generate.generate_certified`` as it was before its rounds took a
    closed form: the same draws, then one halving and snapping pass over
    the tail per round, with ``certifies`` (the library's round test)
    called on every round's tail; the round that certifies is returned as
    the system [head, tail]."""
    head = np.diag(rng.uniform(1.0, 2.0, size=m)) + \
        rng.uniform(-0.5, 0.5, size=(m, m)) / (2 * m)
    tail = rng.uniform(-1.0, 1.0, size=(m, n - m))
    owner = np.arange(n - m) % m
    for i in range(m):
        cols = np.flatnonzero(owner == i)
        tail[i, cols] = rng.uniform(0.5, 1.5, size=cols.size) * \
            rng.choice([-1.0, 1.0], size=cols.size)
    x_star = rng.uniform(-1.0, 1.0, size=n)
    for _ in range(61):
        if certifies(tail):
            a = np.column_stack([head, tail])
            return a, a @ x_star, x_star
        for i in range(m):
            for j in range(n - m):
                if owner[j] != i:
                    tail[i, j] *= 0.5
                    if abs(tail[i, j]) < 1e-12:
                        tail[i, j] = 0.0
    raise SolverError("failed to certify a generated system")
