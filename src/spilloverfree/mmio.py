"""Matrix Market I/O, the spectral-data text format, and report files.

The Matrix Market support is deliberately self-contained rather than
delegated: parse failures must report file, line, and column, which the
scipy reader does not surface. Coverage is what this package needs:
real array and coordinate data, general or symmetric. Values are
written with 17 significant digits, so write/read round trips are exact
for double precision.

Array bodies and the eigenvector block of a spectral file are parsed in
bulk when they hold one value per line, as the writers produce: one
vectorized conversion of all lines, which gives the same bits as
float() on each value. Any other body (a '%' comment line, a blank
line, several values on a line, a token float() rejects, a non-finite
value, or the wrong number of values) goes through the line parser
instead, which skips comments and reports a malformed body with its
file, line and column. Coordinate bodies always go through the line
parser. Every value must be finite: inf and nan are ParseError.

The spectral format is line-oriented:

    p s
    pair <alpha> <beta>     (s lines, the conjugate-pair blocks)
    real <lambda>           (p - 2s lines)
    n p
    <value>                 (n * p lines, X column-major; n may be 0)

Reports are `key = value` lines, sorted by key, under a single `#`
header line carrying the timestamp (the only non-reproducible byte).
"""

import hashlib
import math
from datetime import datetime, timezone

import numpy as np

from .errors import MalformedBlocks, ParseError
from .spectral import RealSpectralData, block_eigenvalues, block_matrix

_FLOAT = "%.17e"


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _fail(path, line_no, column, msg):
    raise ParseError(msg, path=str(path), line=line_no, column=column)


def _parse_float(tok, path, line_no, line):
    try:
        v = float(tok)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        _fail(path, line_no, line.find(tok) + 1, f"expected a finite real number, got {tok!r}")
    return v


def _parse_int(tok, path, line_no, line, what):
    try:
        v = int(tok)
    except ValueError:
        _fail(path, line_no, line.find(tok) + 1, f"expected an integer {what}, got {tok!r}")
    return v


def _data_lines(lines, start):
    """Yield (line_no, stripped_line) skipping comments and blanks."""
    for i in range(start, len(lines)):
        stripped = lines[i].strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield i + 1, stripped


def _bulk_values(lines, start, count):
    """The values on lines[start:] from one vectorized parse, or None
    unless the body is exactly `count` lines that float() accepts whole
    (one value per line, as the writers produce) as finite numbers."""
    body = lines[start:]
    if len(body) != count:
        return None
    try:
        values = np.array(body, dtype=float)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _line_values(path, lines, data, count, what):
    """The same values, one data line at a time from the iterator
    `data`: skips comments and reports a bad file with its line and
    column."""
    values = np.empty(count)
    filled = 0
    for line_no, line in data:
        for tok in line.split():
            if filled >= count:
                _fail(path, line_no, line.find(tok) + 1, "more values than the size line announced")
            values[filled] = _parse_float(tok, path, line_no, line)
            filled += 1
    if filled < count:
        _fail(path, len(lines) or 1, 1, f"expected {count} {what}, found {filled}")
    return values


def _body_values(path, lines, start, data, count, what):
    """The `count` values on lines[start:] in file order: the bulk
    parse, or the line parser (with `data` positioned at lines[start])
    where the bulk parse cannot stand in for it."""
    values = _bulk_values(lines, start, count)
    return _line_values(path, lines, data, count, what) if values is None else values


def read_matrix(path):
    """Read a real Matrix Market file (array or coordinate, general or
    symmetric) into a dense ndarray."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        _fail(path, 1, 1, "empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket" or header[1].lower() != "matrix":
        _fail(path, 1, 1, "missing '%%MatrixMarket matrix <format> <field> <symmetry>' header")
    fmt, field, symmetry = (t.lower() for t in header[2:5])
    if fmt not in ("array", "coordinate"):
        _fail(path, 1, lines[0].lower().find(fmt) + 1, f"unsupported format {fmt!r}")
    if field not in ("real", "integer"):
        _fail(path, 1, lines[0].lower().find(field) + 1, f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        _fail(path, 1, lines[0].lower().find(symmetry) + 1, f"unsupported symmetry {symmetry!r}")

    data = _data_lines(lines, 1)
    try:
        line_no, size_line = next(data)
    except StopIteration:
        _fail(path, len(lines), 1, "missing size line")
    toks = size_line.split()
    count = 2 if fmt == "array" else 3
    if len(toks) != count:
        _fail(path, line_no, 1, f"{fmt} size line needs {count} integers, got {len(toks)}")
    m = _parse_int(toks[0], path, line_no, size_line, "row count")
    n = _parse_int(toks[1], path, line_no, size_line, "column count")
    if m < 0 or n < 0:
        _fail(path, line_no, 1, "matrix dimensions must be nonnegative")
    if symmetry == "symmetric" and m != n:
        _fail(path, line_no, 1, f"symmetric matrix must be square, got {m}x{n}")

    if fmt == "array":
        if symmetry == "general":
            values = _body_values(path, lines, line_no, data, m * n, "values")
            return np.ascontiguousarray(values.reshape(n, m).T)
        values = _body_values(path, lines, line_no, data, n * (n + 1) // 2, "values")
        # column-major lower triangle = row-major upper triangle of A^T
        upper = np.triu_indices(n)
        A = np.zeros((n, n))
        A[upper] = values
        A.T[upper] = values
        return A

    nnz = _parse_int(toks[2], path, line_no, size_line, "entry count")
    A = np.zeros((m, n))
    seen = 0
    for line_no, line in data:
        toks = line.split()
        if len(toks) != 3:
            _fail(path, line_no, 1, f"coordinate entry needs 'i j value', got {line!r}")
        i = _parse_int(toks[0], path, line_no, line, "row index")
        j = _parse_int(toks[1], path, line_no, line, "column index")
        if not (1 <= i <= m and 1 <= j <= n):
            _fail(path, line_no, 1, f"entry ({i}, {j}) outside a {m}x{n} matrix")
        if symmetry == "symmetric" and i < j:
            _fail(path, line_no, 1, "symmetric coordinate entries must have i >= j")
        v = _parse_float(toks[2], path, line_no, line)
        A[i - 1, j - 1] = v
        if symmetry == "symmetric":
            A[j - 1, i - 1] = v
        seen += 1
    if seen != nnz:
        _fail(path, len(lines), 1, f"size line announced {nnz} entries, found {seen}")
    return A


def _write_columns(fh, columns):
    """Write the values of each column in turn, one per line, with one
    write per column: the body is never held in memory whole."""
    for col in columns:
        fh.write((_FLOAT + "\n") * len(col) % tuple(col))


def write_matrix(A, path):
    """Write a dense real matrix in Matrix Market array format, using
    the symmetric qualifier (lower triangle only) when A is exactly
    symmetric."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise MalformedBlocks(f"can only write 2-d matrices, got shape {A.shape}")
    m, n = A.shape
    symmetric = m == n and np.array_equal(A, A.T)
    with open(path, "w") as fh:
        tag = "symmetric" if symmetric else "general"
        fh.write(f"%%MatrixMarket matrix array real {tag}\n")
        fh.write(f"{m} {n}\n")
        _write_columns(fh, (A[j:, j] for j in range(n)) if symmetric else A.T)


def read_spectral(path):
    """Read RealSpectralData from the spectral text format."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    data = _data_lines(lines, 0)

    def next_line(what):
        try:
            return next(data)
        except StopIteration:
            _fail(path, len(lines) or 1, 1, f"unexpected end of file, expected {what}")

    line_no, header = next_line("the 'p s' header")
    toks = header.split()
    if len(toks) != 2:
        _fail(path, line_no, 1, f"header needs 'p s', got {header!r}")
    p = _parse_int(toks[0], path, line_no, header, "block size p")
    s = _parse_int(toks[1], path, line_no, header, "pair count s")
    if p <= 0:
        _fail(path, line_no, 1, f"p must be at least 1, got {p}")
    if s < 0 or 2 * s > p:
        raise MalformedBlocks(f"{s} conjugate-pair blocks do not fit into p={p}")

    values = []
    for k in range(p - s):
        form = "pair alpha beta" if k < s else "real lambda"
        line_no, line = next_line(f"a '{form}' line")
        toks = line.split()
        if len(toks) != len(form.split()) or toks[0] != form[:4]:
            _fail(path, line_no, 1, f"expected '{form}', got {line!r}")
        values.append(complex(*(_parse_float(t, path, line_no, line) for t in toks[1:])))

    line_no, line = next_line("the 'n p' eigenvector size line")
    toks = line.split()
    if len(toks) != 2:
        _fail(path, line_no, 1, f"expected 'n p' size line, got {line!r}")
    n = _parse_int(toks[0], path, line_no, line, "row count")
    p2 = _parse_int(toks[1], path, line_no, line, "column count")
    if n < 0:
        _fail(path, line_no, 1, f"eigenvector row count must be nonnegative, got {n}")
    if p2 != p:
        _fail(path, line_no, 1, f"eigenvector block has {p2} columns, header said {p}")
    X = _body_values(path, lines, line_no, data, n * p, "eigenvector values")
    X = np.ascontiguousarray(X.reshape(p, n).T)
    return RealSpectralData(Lambda=block_matrix(values, s), X=X, s=s)


def write_spectral(d, path):
    """Write RealSpectralData in the spectral text format."""
    vals = block_eigenvalues(d.Lambda, d.s)
    with open(path, "w") as fh:
        fh.write(f"{d.p} {d.s}\n")
        for j in range(d.s):
            fh.write(("pair " + _FLOAT + " " + _FLOAT + "\n") % (vals[j].real, vals[j].imag))
        for k in range(d.p - 2 * d.s):
            fh.write(("real " + _FLOAT + "\n") % vals[d.s + k].real)
        fh.write(f"{d.X.shape[0]} {d.p}\n")
        _write_columns(fh, d.X.T)


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _FLOAT % float(v)
    return str(v)


def write_report(entries, path):
    """Write a report: one timestamp header line, then sorted
    'key = value' lines. Everything below the header is deterministic
    for identical entries."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(path, "w") as fh:
        fh.write(f"# spilloverfree report {stamp}\n")
        for key in sorted(entries):
            fh.write(f"{key} = {_format_value(entries[key])}\n")


def read_report(path):
    """Parse a report back into a dict of strings (values undecoded)."""
    out = {}
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh.read().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                _fail(path, line_no, 1, f"expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
