"""Matrix Market I/O, the spectral-data text format, and report files.

The Matrix Market support is deliberately self-contained rather than
delegated: parse failures must report file, line, and column, which the
scipy reader does not surface. Coverage is what this package needs:
real array and coordinate data, general or symmetric. Values are
written as '%.17e', 18 significant digits (17 after the point), so
write/read round trips are exact for double precision.

Array bodies and spectral eigenvectors are written one value per line,
`[-]d.ddddddddddddddddde±dd[d]\n`, and read in bulk in exactly that layout,
by double-double numpy kernels (Dekker's product) that know each scaled
value to 2**-43 of a last digit or half ulp. Inside 1e-280 <= |x| <= 1e280
(or zero) and over _MARGIN = 2**-32 from a rounding boundary they give the
bytes of '%.17e' and the bits of float(); any other value (a tie, subnormal,
inf, nan) takes those one at a time. Any other body (a '%' comment, a blank
line, several values on a line, '\r\n', a token like 1.0, the wrong count)
and every coordinate body go through the line parser, which skips comments
and reports a malformed body with its file, line and column. Every value
must be finite: inf and nan are ParseError.

Why the kernels' shortcuts are exact:
- A product with the double 2.0**b is exact in the normal range, so
  hi * 2**b is 10**e rounded.
- floor(log10 |x|) is a decade off only next to a power of ten; the exact
  product finds those values, and only they are scaled again.
- s = m1 * 1e9 + m2 rounded is |t| <= 64 off the 18-digit mantissa, and
  t * (10**q rounded) is within 2**-46 * 10**q of t * 10**q: under 2**-48
  of a half ulp of the value, so that head suffices.
- The read's fast test takes half the gap below v, never wider than the
  gap above, so it can only send more values to float(). A written value
  is within 5e-18 relative of its double and each half gap is at least
  5.5e-17 relative: in the window every one still passes.
- Byte tables are gathered as words made by np.frombuffer and viewed back
  as bytes, so byte order does not matter.

The spectral format is line-oriented:

    p s
    pair <alpha> <beta>     (s lines, the conjugate-pair blocks)
    real <lambda>           (p - 2s lines)
    n p
    <value>                 (n * p lines, X column-major; n may be 0)

Reports are `key = value` lines, sorted by key, under a single `#`
header line carrying the timestamp (the only non-reproducible byte).
"""

import functools
import hashlib
import math
import concurrent.futures  # loaded with scipy; its thread pool only at the first _in_order
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import MalformedBlocks, ParseError
from .pencil import _two_cpus
from .spectral import RealSpectralData, block_eigenvalues, block_matrix

_FLOAT = "%.17e"
_CHUNK = 3 << 12  # values per kernel call: temporaries of about 2 MB
_MARGIN = 2.0**-32  # 2**11 times the kernels' error bound
_format_one, _parse_one = (_FLOAT + "\n").__mod__, float  # per-value fallbacks


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@functools.cache
def _tables():
    """Built at first use: (hi, hh, hl, lo, 2**b, 10**e rounded), (hi + lo) *
    2**b = 10**e to 2**-105 relative for e = -300..300 (int / int rounds
    correctly), hh + hl = hi in [0.5, 2] split; as words of their bytes,
    '-d.d' of 0..99, '%04d' of 0..9999, 'e%+03d\\n' of -300..300 (8 bytes)."""
    rows = []
    for e in range(-300, 301):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        b = num.bit_length() - den.bit_length()
        num, den = (num, den << b) if b >= 0 else (num << -b, den)
        hi = num / den
        a, c = hi.as_integer_ratio()
        rows.append((hi, (num * c - a * den) / (den * c), b))
    hi, lo, b = (np.array(col) for col in zip(*rows))
    hh, scale = 134217729.0 * hi - (134217729.0 * hi - hi), np.ldexp(1.0, b)
    lead = b"".join(b"-%d.%d" % divmod(t, 10) for t in range(100))
    quads = b"".join(b"%04d" % t for t in range(10000))
    exponents = b"".join((b"e%+03d\n\n\n\n" % e)[:8] for e in range(-300, 301))
    return (hi, hh, hi - hh, lo, scale, hi * scale, np.frombuffer(lead, np.uint32),
            np.frombuffer(quads, np.uint32), np.frombuffer(exponents, np.uint64))


def _scaled(a, e):
    """a * 10**e as a double-double (p, r), to 2**-103 relative: p + r is
    a 2**b * hi exactly (Dekker's product; numpy has no FMA) + a 2**b * lo."""
    i, (hi, hh, hl, lo, scale) = e + 300, _tables()[:5]
    a = a * scale[i]  # exact: a power of two, and no value leaves the normal range
    ah = 134217729.0 * a
    ah -= ah - a
    al = a - ah
    p = a * hi[i]
    return p, ((ah * hh[i] - p) + ah * hl[i] + al * hh[i]) + al * hl[i] + a * lo[i]


def _format_rows(x):
    """The bytes of '%.17e\\n' % v for the values v of x, as uint8."""
    lead, quads, exponents = _tables()[6:]
    ax = np.abs(x)
    zero, inside = ax == 0, (ax >= 1e-280) & (ax <= 1e280)
    a = np.where(inside, ax, 1.0)
    # |x| = y * 10**(k - 17) with 10**17 <= y < 10**18, decided on y
    k = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, 17 - k)
    k += (step := ((p - 1e18) + r >= 0).astype(np.int64) - ((p - 1e17) + r < 0))
    off = np.flatnonzero(step)  # log10 is a decade off only next to a power of ten
    p[off], r[off] = _scaled(a[off], 17 - k[off])
    frac = r - np.floor(r)
    slow = ~(inside | zero) | (np.abs(frac - 0.5) <= _MARGIN)
    D = p.astype(np.int64) + (r - frac).astype(np.int64) + (frac > 0.5)
    k += D == 10**18  # rounded up to 10**18: 1.000... one decade up
    D[D == 10**18] = 10**17
    D[zero] = k[zero] = 0
    del ax, a, p, r, frac  # before the layout's temporaries
    top, h = D // 10**16, D // 10**8  # '-d.d', then two 8-digit halves: // beats np.divmod
    halves = np.stack([h - top * 10**8, D - h * 10**8], 1)
    g = halves // 10**4
    rows = np.empty((len(x), 13), np.uint16)  # a row's 26 bytes, written as words
    rows[:, :2] = lead[top].view(np.uint16).reshape(-1, 2)
    rows[:, 2:10] = quads[np.stack([g, halves - g * 10**4], 2)].view(np.uint16).reshape(-1, 8)
    rows[:, 10:] = exponents[k + 300].view(np.uint16).reshape(-1, 4)[:, :3]
    rows = rows.view(np.uint8)
    keep = np.ones(rows.shape, bool)
    keep[:, 0] = np.signbit(x)
    keep[:, 25] = np.abs(k) >= 100
    for i in np.flatnonzero(slow):
        row = np.frombuffer(_format_one(x[i]).encode(), np.uint8)
        rows[i, : len(row)] = row
        keep[i] = np.arange(26) < len(row)
    return rows[keep]


def _parse_rows(c):
    """The values of the whole uint8 rows c, or None unless all are in the writer layout."""
    end = np.flatnonzero(c == ord("\n"))
    start = np.concatenate(([0], end[:-1] + 1))
    neg = c[start] == ord("-")
    width = end - start - neg
    if width.min() < 23 or width.max() > 24:
        return None
    w = np.lib.stride_tricks.sliding_window_view(c, 24)[start + neg]  # each row after its sign
    d = w[:, [0, *range(2, 19), 21, 22, 23]] - np.uint8(48)
    big, sign = width == 24, w[:, 20]
    if not ((d[:, :20] < 10).all() and (d[big, 20] < 10).all() and (w[:, 1] == ord(".")).all()
            and (w[:, 19] == ord("e")).all() and ((sign == ord("+")) | (sign == ord("-"))).all()):
        return None
    # 9-digit halves from digit pairs, fours, eights: exact in uint8, uint16, uint32
    g = d[:, 1:17:2] * np.uint8(10) + d[:, 2:18:2]
    g = g[:, ::2] * np.uint16(100) + g[:, 1::2]
    g = g[:, ::2] * np.uint32(10**4) + g[:, 1::2]
    m1, m2 = d[:, 0] * 1e8 + g[:, 0], g[:, 1] * 10.0 + d[:, 17]
    E = d[:, 18] * 10 + d[:, 19].astype(np.int64)
    E = np.where(big, E * 10 + d[:, 20], E) * np.where(sign == ord("-"), -1, 1)
    q = np.clip(E, -280, 279) - 17
    del w, d, width, g  # before the products' temporaries
    s = m1 * 1e9 + m2  # the 18-digit mantissa is s + (m2 - (s - m1 * 1e9)) exactly
    p, r = _scaled(s, q)
    r += (m2 - (s - m1 * 1e9)) * _tables()[5][q + 300]  # that low part's product's head
    v = p + r
    rem = (p - v) + r
    half = (v - (v.view(np.int64) - 1).view(float)) / 2  # half the gap below v > 0 (v = 0: nan)
    fast = (np.abs(rem) <= half - half * _MARGIN) & (m1 >= 1e8) & (q == E - 17) | (s == 0)
    v *= np.where(neg, -1.0, 1.0)  # a product: a masked store is slow on mixed signs
    for i in np.flatnonzero(~fast):
        v[i] = _parse_one(c[start[i]:end[i]].tobytes())
    return v


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


def _data_lines(data, line_no=0, pos=0, offsets=True):
    """Yield (line_no, stripped line, next line's offset, or None unless
    `offsets`) for the lines from byte `pos` on, numbered after `line_no`,
    skipping comments and blanks: str.splitlines's lines, decoded in blocks
    that grow with the lines read, from one line up to about 1 MB."""
    while pos < len(data):
        stop = data.find(b"\n", pos + min(64 * line_no, 1 << 20)) + 1 or len(data)
        at, pos = pos, stop
        for line in data[at:stop].decode().splitlines(True):
            line_no += 1
            at = at + len(line.encode()) if offsets else None
            line = line.strip()
            if line and not line.startswith("%"):
                yield line_no, line, at


def _last_line(data):
    return len(data.decode().splitlines()) or 1


def _in_order(kernel, parts):
    """Yield kernel(part) for each part in order, at most two in flight: the
    calling thread takes the even parts and, given two CPUs, one worker the odd."""
    _tables()  # built once, before two threads need them
    two = _two_cpus()
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        def later(k):  # part k's result as a call: on the worker, or else on the caller
            if k < len(parts):
                return pool.submit(kernel, parts[k]).result if two else lambda: kernel(parts[k])
        odd = later(1)
        for k in range(0, len(parts), 2):
            yield kernel(parts[k])
            if odd:
                done, odd = odd(), later(k + 3)
                yield done


def _bulk_values(data, start, count):
    """The values of data[start:] from the parse kernel, about _CHUNK lines
    at a time, or None unless those are `count` finite writer-layout lines."""
    c, parts = np.frombuffer(data, np.uint8), []
    while (stop := data.rfind(b"\n", start, start + 26 * _CHUNK) + 1) > start:
        parts.append(c[start:stop])
        start = stop
    values, filled = np.empty(count), 0
    for part in _in_order(_parse_rows, parts):
        if part is None or filled + len(part) > count:
            return None
        values[filled:filled + len(part)] = part
        filled += len(part)
    return values if start == len(data) and filled == count and np.isfinite(values).all() else None


def _line_values(path, data, line_no, start, count, what):
    """The same values, one data line at a time from byte `start`, the
    line after line `line_no`: skips comments and reports a bad file with
    its line and column."""
    values, filled = np.empty(count), 0
    for line_no, line, _ in _data_lines(data, line_no, start, False):
        for tok in line.split():
            if filled >= count:
                _fail(path, line_no, line.find(tok) + 1, "more values than the size line announced")
            values[filled] = _parse_float(tok, path, line_no, line)
            filled += 1
    if filled < count:
        _fail(path, _last_line(data), 1, f"expected {count} {what}, found {filled}")
    return values


def _body_values(path, data, start, line_no, count, what):
    """The `count` values of data[start:], the lines after line `line_no`:
    the bulk parse, else the line parser."""
    values = _bulk_values(data, start, count)
    return _line_values(path, data, line_no, start, count, what) if values is None else values


def read_matrix(path, data=None):
    """Read a real Matrix Market file (array or coordinate, general or
    symmetric) into a dense ndarray, from its bytes `data` if given."""
    data = Path(path).read_bytes() if data is None else data
    if not data:
        _fail(path, 1, 1, "empty file")
    first = data[:data.find(b"\n") + 1 or len(data)].decode().splitlines(True)[0]
    header = first.split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket" or header[1].lower() != "matrix":
        _fail(path, 1, 1, "missing '%%MatrixMarket matrix <format> <field> <symmetry>' header")
    fmt, field, symmetry = (t.lower() for t in header[2:5])
    if fmt not in ("array", "coordinate"):
        _fail(path, 1, first.lower().find(fmt) + 1, f"unsupported format {fmt!r}")
    if field not in ("real", "integer"):
        _fail(path, 1, first.lower().find(field) + 1, f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        _fail(path, 1, first.lower().find(symmetry) + 1, f"unsupported symmetry {symmetry!r}")

    lines = _data_lines(data, 1, len(first.encode()))
    try:
        line_no, size_line, start = next(lines)
    except StopIteration:
        _fail(path, _last_line(data), 1, "missing size line")
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
        count = m * n if symmetry == "general" else n * (n + 1) // 2
        values = _body_values(path, data, start, line_no, count, "values")
        if symmetry == "general":
            return np.ascontiguousarray(values.reshape(n, m).T)
        # column-major lower triangle = row-major upper triangle of A^T
        upper = np.tri(n, dtype=bool).T
        A = np.zeros((n, n))
        A[upper] = A.T[upper] = values
        return A

    nnz = _parse_int(toks[2], path, line_no, size_line, "entry count")
    A = np.zeros((m, n))
    seen = 0
    for line_no, line, _ in _data_lines(data, line_no, start, False):
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
        _fail(path, _last_line(data), 1, f"size line announced {nnz} entries, found {seen}")
    return A


def _write(path, head, values):
    """Write `head` and then `values`, one per line; return the file's sha256."""
    head = head.encode()
    h = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for rows in _in_order(_format_rows, np.split(values, range(_CHUNK, len(values), _CHUNK))):
            fh.write(rows)
            h.update(rows)
    return h.hexdigest()


def write_matrix(A, path):
    """Write a dense real matrix in Matrix Market array format, using
    the symmetric qualifier (lower triangle only) when A is exactly
    symmetric; return the file's sha256."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise MalformedBlocks(f"can only write 2-d matrices, got shape {A.shape}")
    m, n = A.shape
    symmetric = m == n and np.array_equal(A, A.T)
    tag = "symmetric" if symmetric else "general"
    head = f"%%MatrixMarket matrix array real {tag}\n{m} {n}\n"
    # column-major: the lower triangle of A is the row-major upper one of A.T
    return _write(path, head, A.T[np.tri(n, dtype=bool).T] if symmetric else A.ravel(order="F"))


def read_spectral(path, data=None):
    """Read RealSpectralData from the spectral text format, from the
    file's bytes `data` if given."""
    data = Path(path).read_bytes() if data is None else data
    lines = _data_lines(data)

    def next_line(what):
        try:
            return next(lines)
        except StopIteration:
            _fail(path, _last_line(data), 1, f"unexpected end of file, expected {what}")

    line_no, header, _ = next_line("the 'p s' header")
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
        line_no, line, _ = next_line(f"a '{form}' line")
        toks = line.split()
        if len(toks) != len(form.split()) or toks[0] != form[:4]:
            _fail(path, line_no, 1, f"expected '{form}', got {line!r}")
        values.append(complex(*(_parse_float(t, path, line_no, line) for t in toks[1:])))

    line_no, line, start = next_line("the 'n p' eigenvector size line")
    toks = line.split()
    if len(toks) != 2:
        _fail(path, line_no, 1, f"expected 'n p' size line, got {line!r}")
    n = _parse_int(toks[0], path, line_no, line, "row count")
    p2 = _parse_int(toks[1], path, line_no, line, "column count")
    if n < 0:
        _fail(path, line_no, 1, f"eigenvector row count must be nonnegative, got {n}")
    if p2 != p:
        _fail(path, line_no, 1, f"eigenvector block has {p2} columns, header said {p}")
    X = _body_values(path, data, start, line_no, n * p, "eigenvector values")
    X = np.ascontiguousarray(X.reshape(p, n).T)
    return RealSpectralData(Lambda=block_matrix(values, s), X=X, s=s)


def write_spectral(d, path):
    """Write RealSpectralData in the spectral text format; return the
    file's sha256."""
    vals = block_eigenvalues(d.Lambda, d.s)
    pairs = "".join(("pair " + _FLOAT + " " + _FLOAT + "\n") % (z.real, z.imag) for z in vals[:d.s])
    reals = "".join(("real " + _FLOAT + "\n") % z.real for z in vals[d.s:])
    head = f"{d.p} {d.s}\n{pairs}{reals}{d.X.shape[0]} {d.p}\n"
    return _write(path, head, d.X.ravel(order="F"))


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
