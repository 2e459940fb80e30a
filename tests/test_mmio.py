"""File formats: Matrix Market matrices, spectral data, reports."""

import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spilloverfree as sf
from spilloverfree.cli import main
from spilloverfree.errors import MalformedBlocks, ParseError


def test_matrix_round_trip_general(tmp_path):
    A = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    f = tmp_path / "a.mtx"
    sf.write_matrix(A, f)
    assert "general" in f.read_text().splitlines()[0]
    np.testing.assert_array_equal(sf.read_matrix(f), A)


def test_matrix_round_trip_symmetric(tmp_path):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5))
    A = A + A.T
    f = tmp_path / "s.mtx"
    sf.write_matrix(A, f)
    head = f.read_text().splitlines()
    assert "symmetric" in head[0]
    # lower triangle only: 15 values after the two header lines
    assert len([l for l in head if not l.startswith("%")]) == 1 + 15
    np.testing.assert_array_equal(sf.read_matrix(f), A)


def test_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 2)) * 10.0 ** rng.integers(-12, 12, (6, 2))
    f = tmp_path / "b.mtx"
    sf.write_matrix(A, f)
    np.testing.assert_array_equal(sf.read_matrix(f), A)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_matrix_round_trip_random(tmp_path_factory, seed, m, n):
    A = np.random.default_rng(seed).standard_normal((m, n))
    f = tmp_path_factory.mktemp("mm") / "r.mtx"
    sf.write_matrix(A, f)
    np.testing.assert_array_equal(sf.read_matrix(f), A)


def test_read_matrix_coordinate_general(tmp_path):
    f = tmp_path / "c.mtx"
    f.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "2 3 3\n"
        "1 1 4.5\n"
        "2 3 -1.0\n"
        "1 2 2.0\n"
    )
    A = sf.read_matrix(f)
    np.testing.assert_array_equal(
        A, np.array([[4.5, 2.0, 0.0], [0.0, 0.0, -1.0]])
    )


def test_read_matrix_coordinate_symmetric(tmp_path):
    f = tmp_path / "cs.mtx"
    f.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n"
        "2 1 3.0\n"
        "2 2 1.0\n"
    )
    A = sf.read_matrix(f)
    np.testing.assert_array_equal(A, np.array([[0.0, 3.0], [3.0, 1.0]]))


def test_read_matrix_integer_field(tmp_path):
    f = tmp_path / "i.mtx"
    f.write_text("%%MatrixMarket matrix array integer general\n2 2\n1\n2\n3\n4\n")
    np.testing.assert_array_equal(
        sf.read_matrix(f), np.array([[1.0, 3.0], [2.0, 4.0]])
    )


def test_read_matrix_symmetric_array_lower_triangle(tmp_path):
    f = tmp_path / "ls.mtx"
    f.write_text(
        "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n5.0\n2.0\n"
    )
    np.testing.assert_array_equal(
        sf.read_matrix(f), np.array([[1.0, 5.0], [5.0, 2.0]])
    )


def test_read_matrix_errors_carry_location(tmp_path):
    f = tmp_path / "bad.mtx"
    f.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\nBOOM\n3.0\n4.0\n")
    with pytest.raises(ParseError) as exc:
        sf.read_matrix(f)
    msg = str(exc.value)
    assert "bad.mtx" in msg and ":4:" in msg
    assert exc.value.line == 4
    assert exc.value.column == 1


def test_read_matrix_rejects_missing_header(tmp_path):
    f = tmp_path / "h.mtx"
    f.write_text("2 2\n1\n2\n3\n4\n")
    with pytest.raises(ParseError) as exc:
        sf.read_matrix(f)
    assert exc.value.line == 1


def test_read_matrix_rejects_unsupported_field(tmp_path):
    f = tmp_path / "cx.mtx"
    f.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0 2.0\n")
    with pytest.raises(ParseError):
        sf.read_matrix(f)


def test_read_matrix_rejects_count_mismatch(tmp_path):
    f = tmp_path / "short.mtx"
    f.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(ParseError):
        sf.read_matrix(f)
    f2 = tmp_path / "long.mtx"
    f2.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n2.0\n")
    with pytest.raises(ParseError):
        sf.read_matrix(f2)


def test_read_matrix_rejects_out_of_range_coordinate(tmp_path):
    f = tmp_path / "oob.mtx"
    f.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
    with pytest.raises(ParseError):
        sf.read_matrix(f)


def test_read_matrix_rejects_upper_triangle_symmetric_coordinate(tmp_path):
    f = tmp_path / "ut.mtx"
    f.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n")
    with pytest.raises(ParseError):
        sf.read_matrix(f)


@pytest.mark.parametrize("body", ["%%MatrixMarket matrix coordinate real general\n-1 3 0\n",
                                  "%%MatrixMarket matrix coordinate real general\n3 -1 0\n",
                                  "%%MatrixMarket matrix array real general\n-1 3\n"],
                         ids=["coordinate-rows", "coordinate-columns", "array-rows"])
def test_read_matrix_rejects_negative_dimensions(tmp_path, body):
    f = tmp_path / "neg.mtx"
    f.write_text(body)
    with pytest.raises(ParseError, match="nonnegative") as exc:
        sf.read_matrix(f)
    assert exc.value.line == 2


def test_read_matrix_rejects_empty_file(tmp_path):
    f = tmp_path / "empty.mtx"
    f.write_text("")
    with pytest.raises(ParseError):
        sf.read_matrix(f)


def test_spectral_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pairs = [
        (0.5 + 1.5j, rng.standard_normal(7) + 1j * rng.standard_normal(7)),
    ]
    pairs.append((pairs[0][0].conjugate(), pairs[0][1].conjugate()))
    pairs.append((-2.0 + 0j, rng.standard_normal(7).astype(complex)))
    d = sf.to_real_representation(pairs)
    f = tmp_path / "d.spectral"
    sf.write_spectral(d, f)
    back = sf.read_spectral(f)
    assert back.s == d.s and back.p == d.p
    np.testing.assert_array_equal(back.Lambda, d.Lambda)
    np.testing.assert_array_equal(back.X, d.X)


def test_spectral_round_trip_values_only(tmp_path):
    d = sf.real_lambda_from_eigenvalues([1.0 + 2j, 1.0 - 2j, 0.5])
    f = tmp_path / "t.spectral"
    sf.write_spectral(d, f)
    back = sf.read_spectral(f)
    assert back.X.shape == (0, 3)
    np.testing.assert_array_equal(back.Lambda, d.Lambda)


def test_read_spectral_rejects_nonpositive_p(tmp_path):
    f = tmp_path / "p0.spectral"
    f.write_text("0 0\n0 0\n")
    with pytest.raises(ParseError):
        sf.read_spectral(f)


def test_read_spectral_rejects_pair_overflow(tmp_path):
    f = tmp_path / "s2.spectral"
    f.write_text("3 2\npair 1.0 2.0\npair 3.0 4.0\n0 3\n")
    with pytest.raises(MalformedBlocks):
        sf.read_spectral(f)


def test_read_spectral_rejects_wrong_keyword(tmp_path):
    f = tmp_path / "kw.spectral"
    f.write_text("1 0\nscalar 3.0\n0 1\n")
    with pytest.raises(ParseError) as exc:
        sf.read_spectral(f)
    assert exc.value.line == 2


def test_read_spectral_rejects_truncation(tmp_path):
    f = tmp_path / "tr.spectral"
    f.write_text("2 1\npair 1.0 2.0\n3 2\n1.0\n2.0\n")
    with pytest.raises(ParseError):
        sf.read_spectral(f)


def test_read_spectral_rejects_negative_row_count(tmp_path):
    f = tmp_path / "neg.spectral"
    f.write_text("1 0\nreal 3.0\n-2 1\n")
    with pytest.raises(ParseError, match="nonnegative") as exc:
        sf.read_spectral(f)
    assert exc.value.line == 3


def test_report_round_trip(tmp_path):
    f = tmp_path / "run.report"
    entries = {
        "alpha": 0.1 + 0.2,
        "count": 17,
        "flag": True,
        "name": "direct",
    }
    sf.write_report(entries, f)
    lines = f.read_text().splitlines()
    assert lines[0].startswith("# spilloverfree report ")
    assert lines[1:] == sorted(lines[1:])
    back = sf.read_report(f)
    assert back["count"] == "17"
    assert back["flag"] == "true"
    assert back["name"] == "direct"
    assert float(back["alpha"]) == 0.1 + 0.2  # 17 digits keep the bits


def test_report_body_is_deterministic(tmp_path):
    entries = {"b": 2, "a": 1.5}
    f1, f2 = tmp_path / "r1", tmp_path / "r2"
    sf.write_report(entries, f1)
    sf.write_report(entries, f2)
    body1 = f1.read_text().splitlines()[1:]
    body2 = f2.read_text().splitlines()[1:]
    assert body1 == body2


def test_read_report_rejects_malformed_line(tmp_path):
    f = tmp_path / "bad.report"
    f.write_text("# spilloverfree report x\njust words\n")
    with pytest.raises(ParseError):
        sf.read_report(f)


def test_sha256_file(tmp_path):
    f = tmp_path / "blob"
    f.write_bytes(b"abc")
    assert (
        sf.sha256_file(f)
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


# -- bulk body parse against the line parser --------------------------------

_BAD_TOKENS = ("abc", "1.0.0", "--1", "0x1p3", "1e", "nan%")


def _sample_file(path, kind, rng, m, n):
    """Write a general or symmetric matrix or a spectral file; return the
    index of its first body line and the arrays written."""
    scale = 10.0 ** rng.integers(-300, 300, (m, n))
    A = rng.standard_normal((m, n)) * scale
    A[rng.random((m, n)) < 0.1] = -0.0
    if kind == "symmetric":
        B = np.tril(A[: min(m, n), : min(m, n)])
        A = B + np.tril(B, -1).T
    if kind != "spectral":
        sf.write_matrix(A, path)
        return 2, (A,)
    p = min(m, n)
    s = int(rng.integers(0, p // 2 + 1))
    values = [complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.1) for _ in range(s)]
    values += [rng.standard_normal() + 3.0 for _ in range(p - 2 * s)]
    rows = 0 if rng.random() < 0.2 else p + int(rng.integers(0, 3))
    d = sf.RealSpectralData(Lambda=sf.spectral.block_matrix(values, s),
                            X=rng.standard_normal((rows, p)), s=s)
    sf.write_spectral(d, path)
    return p - s + 2, (d.Lambda, d.X)


def _outcome(read, path):
    try:
        d = read(path)
    except ParseError as exc:
        return ("ParseError", exc.line, exc.column, str(exc))
    return _bits((d.Lambda, d.X) if isinstance(d, sf.RealSpectralData) else (d,))


def _bits(arrays):
    assert all(a.flags.c_contiguous for a in arrays)
    return tuple(a.shape for a in arrays), tuple(a.tobytes() for a in arrays)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["general", "symmetric", "spectral"]),
       st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
def test_bulk_parse_matches_the_line_parser(tmp_path_factory, seed, kind, m, n, where):
    # the bulk parse returns the line parser's bits on written files, and
    # on mutated bodies the same values or the same ParseError location
    path = tmp_path_factory.mktemp("bulk") / "f.txt"
    start, written = _sample_file(path, kind, np.random.default_rng(seed), m, n)
    read = sf.read_spectral if kind == "spectral" else sf.read_matrix
    lines = path.read_text().splitlines()
    k = start + where % max(len(lines) - start, 1)
    mutants = {
        "written": lines,
        "comment": lines[:k] + ["% a comment line"] + lines[k:],
        "blank": lines[:k] + [""] + lines[k:],
        "extra": lines + ["1.5"],
    }
    if k + 1 < len(lines):
        mutants["joined"] = lines[:k] + [lines[k] + " " + lines[k + 1]] + lines[k + 2:]
    if k < len(lines):
        mutants["missing"] = lines[:k] + lines[k + 1:]
        for tok in _BAD_TOKENS:
            mutants["bad " + tok] = lines[:k] + [tok] + lines[k + 1:]
    for name, body in mutants.items():
        path.write_text("\n".join(body) + "\n")
        bulk = _outcome(read, path)
        with mock.patch.object(sf.mmio, "_bulk_values", lambda *args: None):
            assert bulk == _outcome(read, path), name
        if name in ("written", "comment", "blank", "joined"):
            assert bulk == _bits(written), name


_WRITER_VALUES = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=25, max_size=25)
_EDGE_VALUES = ([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1e-300, -1e300, 0.1, -1.0 / 3.0, 1.0] * 3)[:25]


@settings(max_examples=100)
@example(kind="general", m=5, n=5, values=_EDGE_VALUES)
@example(kind="symmetric", m=5, n=5, values=_EDGE_VALUES)
@example(kind="spectral", m=4, n=5, values=_EDGE_VALUES)
@given(kind=st.sampled_from(["general", "symmetric", "spectral"]), m=st.integers(0, 5),
       n=st.integers(1, 5), values=_WRITER_VALUES)
def test_writers_match_a_per_value_reference(tmp_path_factory, kind, m, n, values):
    # every value body (symmetric and general matrices, spectral
    # eigenvectors) is column-major "%.17e\n" lines, byte for byte
    grid = np.array(values).reshape(5, 5)
    A = grid[:m, :n]
    path = tmp_path_factory.mktemp("writer") / "f.txt"
    if kind == "spectral":
        assume(m < n)  # fewer rows than columns: X needs no rank check
        sf.write_spectral(sf.RealSpectralData(Lambda=np.eye(n), X=A, s=0), path)
        head, columns = n + 2, A.T
    else:
        if kind == "symmetric":
            A = np.where(np.tri(n, dtype=bool), grid[:n, :n], grid[:n, :n].T)
        sf.write_matrix(A, path)
        symmetric = path.read_text().splitlines()[0].endswith("symmetric")
        assert symmetric or kind == "general"
        head = 2
        columns = [A[j:, j] for j in range(n)] if symmetric else A.T
    body = "".join(path.read_text().splitlines(keepends=True)[head:])
    assert body == "".join("%.17e\n" % float(v) for col in columns for v in col)


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity"])
def test_read_matrix_rejects_a_non_finite_value_with_its_location(tmp_path, token):
    for body in ("array real general\n2 2\n1.0\n2.0\n{}\n4.0\n",  # bulk parse
                 "array real general\n2 2\n% comment\n1.0 2.0\n{}\n4.0\n",  # line parser
                 "coordinate real general\n2 2 2\n1 1 1.0\n2 2 {}\n"):
        f = tmp_path / "m.mtx"
        f.write_text(("%%MatrixMarket matrix " + body).format(token))
        with pytest.raises(ParseError, match="finite") as exc:
            sf.read_matrix(f)
        lines = f.read_text().splitlines()
        assert token in lines[exc.value.line - 1]
        assert lines[exc.value.line - 1][exc.value.column - 1:].startswith(token)


def test_read_spectral_rejects_a_non_finite_value_with_its_location(tmp_path):
    d = sf.RealSpectralData(Lambda=np.array([[1.0, 2.0], [-2.0, 1.0]]),
                            X=np.arange(1.0, 7.0).reshape(3, 2), s=1)
    f = tmp_path / "d.spectral"
    sf.write_spectral(d, f)
    good = f.read_text().splitlines()
    # an eigenvector value (bulk parse), and the imaginary part of the pair
    for line, text, column in ((4, "nan", 1), (2, "pair 1.0 inf", 10)):
        lines = list(good)
        lines[line - 1] = text
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="finite") as exc:
            sf.read_spectral(f)
        assert (exc.value.line, exc.value.column) == (line, column)


# -- the vectorized '%.17e' kernels against Python, value by value ----------

def _kernel_sweep():
    """About 10**6 values: random bit patterns over every exponent (with
    inf and nan), random values inside the kernels' window, every power
    of ten and of two with both neighbours (the decade of 10**k must come
    from the exact product, not from the rounded 10**k), ties 1 + 2**-k,
    signed zeros, subnormals and the extremes; each with both signs."""
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, 250_000, dtype=np.uint64).view(np.float64)
    inside = rng.standard_normal(250_000) * 10.0 ** rng.integers(-280, 280, 250_000)
    exact = np.concatenate([[float(f"1e{k}") for k in range(-323, 309)],
                            np.ldexp(1.0, np.arange(-1074, 1024))])
    near = [exact, np.nextafter(exact, np.inf), np.nextafter(exact, 0)]
    ties = 1.0 + np.ldexp(1.0, -np.arange(1, 53))
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-280, 1e280,
             np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf), np.inf, np.nan]
    x = np.concatenate([bits, inside, *near, ties, edges])
    return np.concatenate([x, -x])


def _two_cpus():
    """Two CPUs for mmio, so that bodies of two chunks or more take the
    worker thread on any machine."""
    return mock.patch.object(sf.pencil.os, "sched_getaffinity", lambda pid: {0, 1})


def _one_cpu():
    return mock.patch.object(sf.pencil.os, "sched_getaffinity", lambda pid: {0})


def _assert_kernels_match_python(x):
    # formatted in _CHUNK parts as _write hands them out, parsed in bulk
    text = "".join("%.17e\n" % v for v in x)
    parts = np.split(x, range(sf.mmio._CHUNK, len(x), sf.mmio._CHUNK))
    rows = sf.mmio._in_order(sf.mmio._format_rows, parts)
    assert b"".join(r.tobytes() for r in rows) == text.encode()
    tokens = [t for t, v in zip(text.split(), x) if np.isfinite(v)]
    body = "".join(t + "\n" for t in tokens).encode()
    parsed = sf.mmio._bulk_values(body, 0, len(tokens))
    assert parsed is not None
    want = np.array([float(t) for t in tokens])
    np.testing.assert_array_equal(parsed.view(np.uint64), want.view(np.uint64))


def _threads_of(name):
    """Patch mmio.<name> to record the thread of each call; return the set."""
    seen, f = set(), getattr(sf.mmio, name)

    def recorded(*args):
        seen.add(threading.get_ident())
        return f(*args)

    return mock.patch.object(sf.mmio, name, recorded), seen


def test_kernels_match_python_on_a_million_values():
    x = _kernel_sweep()
    assert len(x) >= 10**6
    (format_one, formatted), (parse_one, parsed) = map(_threads_of, ("_format_one", "_parse_one"))
    with _two_cpus(), format_one, parse_one:
        for chunk in np.array_split(x, 8):  # bodies of many kernel chunks each
            _assert_kernels_match_python(chunk)
    # the per-value fallbacks ran in both threads' chunks
    assert len(formatted) == len(parsed) == 2


def test_the_sweep_takes_no_more_per_value_fallbacks_than_the_two_sided_test():
    # the sweep's 1,016,504 values take 49,180 '%.17e' and 48,328 float()
    # calls, both with the gap on the remainder's side in the reader's fast
    # test and with the stricter gap below v alone; no change may add any
    x, calls = _kernel_sweep(), {"_format_one": 0, "_parse_one": 0}

    def counted(name):
        f = getattr(sf.mmio, name)

        def call(arg):
            calls[name] += 1
            return f(arg)

        return mock.patch.object(sf.mmio, name, call)

    with _one_cpu(), counted("_format_one"), counted("_parse_one"):
        _assert_kernels_match_python(x)
    assert len(x) == 1_016_504
    assert calls["_format_one"] <= 49_180 and calls["_parse_one"] <= 48_328


@settings(max_examples=200)
@example(values=[1e23, 1e22, 9.999999999999999e22, 1 + 2**-26, -0.0, 5e-324])
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_kernels_match_python_on_any_float(values):
    # parts of 3 values: a body of 4 values or more takes both threads
    with _two_cpus(), mock.patch.object(sf.mmio, "_CHUNK", 3):
        _assert_kernels_match_python(np.array(values))


_CHUNK = 3 << 12


def _column_files(tmp_path, n, name):
    """Write an n x 1 matrix and spectral data with an n x 1 X, in bodies of
    n values; return (values, shas, bytes of both files)."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    paths = tmp_path / f"{name}.mtx", tmp_path / f"{name}.spectral"
    shas = (sf.write_matrix(x[:, None], paths[0]),
            sf.write_spectral(sf.RealSpectralData(Lambda=np.eye(1), X=x[:, None], s=0), paths[1]))
    return x, shas, tuple(p.read_bytes() for p in paths)


@pytest.mark.parametrize("n", [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 4 * _CHUNK + 5])
def test_bodies_around_the_chunk_size_are_the_one_thread_bytes(tmp_path, n):
    assert sf.mmio._CHUNK == _CHUNK
    with _two_cpus():
        x, shas, files = _column_files(tmp_path, n, "two")
        read = sf.read_matrix(tmp_path / "two.mtx"), sf.read_spectral(tmp_path / "two.spectral").X
    with _one_cpu():
        assert _column_files(tmp_path, n, "one")[1:] == (shas, files)
    assert files[0].split(b"\n", 2)[2] == "".join("%.17e\n" % v for v in x).encode()
    assert shas[0] == sf.sha256_file(tmp_path / "two.mtx")
    for values in read:
        assert values.shape == (n, 1)
        np.testing.assert_array_equal(values.ravel().view(np.uint64), x.view(np.uint64))


@pytest.mark.parametrize("where", [-1, 3 * _CHUNK // 2])
def test_a_malformed_value_in_any_chunk_is_located(tmp_path, where):
    # in the last chunk (the caller's) and the second (the worker's): a
    # chunk holds _CHUNK to 26 / 23 _CHUNK lines
    A = np.random.default_rng(5).standard_normal((4 * _CHUNK + 5, 1))
    f = tmp_path / "a.mtx"
    sf.write_matrix(A, f)
    lines = f.read_text().splitlines()
    line_no = (len(lines) if where < 0 else where + 3)
    lines[line_no - 1] = "BOOM"
    f.write_text("\n".join(lines) + "\n")
    with _two_cpus(), pytest.raises(ParseError, match="BOOM") as exc:
        sf.read_matrix(f)
    assert (exc.value.line, exc.value.column) == (line_no, 1)


@pytest.mark.parametrize("kernel", ["_parse_rows", "_format_rows"])
def test_a_worker_exception_reaches_the_caller(tmp_path, kernel):
    f = getattr(sf.mmio, kernel)

    def fails_off_the_caller(part):
        if threading.current_thread() is not threading.main_thread():
            raise ArithmeticError("raised in the worker")
        return f(part)

    A, path = np.arange(3.0 * _CHUNK).reshape(-1, 3), tmp_path / "a.mtx"
    sf.write_matrix(A, path)
    call = sf.read_matrix if kernel == "_parse_rows" else lambda path: sf.write_matrix(A, path)
    threads = threading.active_count()
    with _two_cpus(), mock.patch.object(sf.mmio, kernel, fails_off_the_caller):
        with pytest.raises(ArithmeticError, match="in the worker"):
            call(path)
    assert threading.active_count() == threads  # the worker has ended


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 8])
def test_parts_come_back_in_order_with_at_most_two_in_flight(cpus, count):
    lock, running, peak, threads = threading.Lock(), [0], [0], set()

    def kernel(part):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            threads.add(threading.get_ident())
        time.sleep(0.002)
        with lock:
            running[0] -= 1
        return part * 10

    with mock.patch.object(sf.pencil.os, "sched_getaffinity", lambda pid: set(range(cpus))):
        out = list(sf.mmio._in_order(kernel, list(range(count))))
    assert out == [10 * k for k in range(count)]
    assert peak[0] <= min(cpus, 2)
    assert len(threads) == min(cpus, count, 2)
    assert threading.get_ident() in threads or count == 0


def test_non_finite_values_are_written_as_before_and_read_back_as_located_errors(tmp_path):
    # '%.17e' writes inf and nan as 'inf', '-inf' and 'nan'; the reader
    # points at the first of them, as the line parser always did
    A = np.array([[1.0, np.inf], [np.nan, -np.inf]])
    d = sf.RealSpectralData(Lambda=np.eye(2), X=np.array([[0.5, -np.inf]]), s=0)
    sf.write_matrix(A, tmp_path / "a.mtx")
    sf.write_spectral(d, tmp_path / "d.spectral")
    for name, read, values, line in (("a.mtx", sf.read_matrix, A.T.ravel(), 4),
                                     ("d.spectral", sf.read_spectral, d.X.T.ravel(), 6)):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[-len(values):] == ["%.17e" % v for v in values]
        with pytest.raises(ParseError, match="finite") as exc:
            read(tmp_path / name)
        assert (exc.value.line, exc.value.column) == (line, 1)


def test_written_files_take_the_kernels_only(tmp_path, monkeypatch):
    # a generated n = 560 pencil, its spectrum and a run are written and
    # read back without one value in Python and without the line parser,
    # and verify hashes the bytes it parses instead of re-reading files
    def refuse(*args):
        raise AssertionError("a per-value path was taken")

    for name in ("_format_one", "_parse_one", "_line_values", "sha256_file"):
        monkeypatch.setattr(sf.mmio, name, refuse)
    gen, run = str(tmp_path / "gen"), str(tmp_path / "run")
    assert main(["gen", "--nu", "400", "--nphi", "160", "--seed", "7", "--out", gen]) == 0
    assert main(["embed", "--in", gen, "--out", run, "--p", "6", "--s", "2", "--stilde", "2",
                 "--seed", "7"]) == 0
    assert main(["verify", "--in", run]) == 0


def test_a_comment_in_a_long_body_reads_as_the_line_parser_reads_it(tmp_path):
    # a '%' line (with multi-byte characters) sends the body to the line
    # parser: the values are those written, and a bad value after the
    # comment is reported at its line and its column in the stripped line
    A = np.random.default_rng(9).standard_normal((_CHUNK, 3))
    f = tmp_path / "c.mtx"
    sf.write_matrix(A, f)
    lines = f.read_text().splitlines()
    lines.insert(1000, "% ünïcödé comment ✓")
    f.write_text("\n".join(lines) + "\n")
    with _two_cpus():
        np.testing.assert_array_equal(sf.read_matrix(f), A)
    lines[20000] = "  " + lines[20000] + "x"
    f.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="finite") as exc:
        sf.read_matrix(f)
    assert (exc.value.line, exc.value.column) == (20001, 1)


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\x0c\n", "\u2028"])
def test_line_ends_number_lines_as_splitlines_does(tmp_path, newline):
    # bodies outside the writer layout are read with str.splitlines's
    # line breaks: values parse, and a bad token is reported where
    # splitlines puts it
    lines = ["%%MatrixMarket matrix array real general", "% ünïcode comment", "2 2",
             "1.0", "2.0", "3.0", "4.0"]
    f = tmp_path / "m.mtx"
    f.write_bytes(newline.join(lines).encode() + b"\n")
    np.testing.assert_array_equal(sf.read_matrix(f), [[1.0, 3.0], [2.0, 4.0]])
    f.write_bytes(newline.join(lines[:5] + ["BOOM"] + lines[6:]).encode())
    with pytest.raises(ParseError) as exc:
        sf.read_matrix(f)
    text = f.read_bytes().decode().splitlines()
    assert text[exc.value.line - 1] == "BOOM"
