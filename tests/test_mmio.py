"""File formats: Matrix Market matrices, spectral data, reports."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spilloverfree as sf
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
