"""Real block representation, canonical ordering, eigendata selection."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spilloverfree as sf
from spilloverfree import spectral
from spilloverfree.errors import (
    DimensionMismatch,
    DuplicateEigenvalue,
    MalformedBlocks,
    NoMatch,
    NotConjugateClosed,
    Overlap,
    ZeroEigenvalue,
)
from spilloverfree.spectral import block_matrix

from conftest import make_pencil, multiset_match, spectrum_values


def rotation_block(a, b):
    return np.array([[a, b], [-b, a]])


# Eigenvalue sets are drawn on a coarse grid so distinctness and
# nonzero-ness hold by construction, no assume() churn needed.
pair_grid = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(1, 20)),
    min_size=0,
    max_size=3,
    unique=True,
)
real_grid = st.lists(
    st.integers(-20, 20).filter(lambda k: k != 0),
    min_size=0,
    max_size=3,
    unique=True,
)


def build_pairs(pair_ints, real_ints, seed, n):
    """Conjugate-closed eigenpair list in canonical order."""
    rng = np.random.default_rng(seed)
    items = []
    for a, b in sorted(pair_ints):
        lam = complex(a / 10.0, b / 10.0)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        items.append((lam, v))
        items.append((lam.conjugate(), v.conjugate()))
    for k in sorted(real_ints):
        v = rng.standard_normal(n).astype(complex)
        items.append((complex(k / 10.0), v))
    return items


@given(pair_grid, real_grid, st.integers(0, 2**16))
def test_real_representation_round_trip(pair_ints, real_ints, seed):
    if not pair_ints and not real_ints:
        return
    p = 2 * len(pair_ints) + len(real_ints)
    pairs = build_pairs(pair_ints, real_ints, seed, n=p + 2)
    d = sf.to_real_representation(pairs)
    assert d.s == len(pair_ints)
    assert d.p == p
    assert sf.infer_pair_count(d.Lambda) == d.s
    back = sf.from_real_representation(d)
    assert len(back) == len(pairs)
    for (l0, v0), (l1, v1) in zip(pairs, back):
        assert l1 == l0
        np.testing.assert_array_equal(v1, v0)


@given(pair_grid, real_grid)
def test_block_eigenvalues_match_inputs(pair_ints, real_ints):
    if not pair_ints and not real_ints:
        return
    values = [complex(a / 10.0, b / 10.0) for a, b in pair_ints]
    values += [v.conjugate() for v in values]
    values += [complex(k / 10.0) for k in real_ints]
    d = sf.real_lambda_from_eigenvalues(values)
    got = sf.block_eigenvalues(d.Lambda, d.s)
    assert len(got) == len(pair_ints) + len(real_ints)
    multiset_match(
        got, [complex(a / 10.0, b / 10.0) for a, b in pair_ints] + [complex(k / 10.0) for k in real_ints], 1e-14
    )


def test_to_real_canonical_order():
    rng = np.random.default_rng(5)
    def vec():
        return rng.standard_normal(6) + 1j * rng.standard_normal(6)
    va, vb, vc, vd = vec(), vec(), rng.standard_normal(6).astype(complex), rng.standard_normal(6).astype(complex)
    pairs = [
        (3.0 + 0j, vc),
        (1.0 + 2j, va),
        (1.0 - 2j, va.conjugate()),
        (-2.0 + 0j, vd),
        (1.0 + 1j, vb),
        (1.0 - 1j, vb.conjugate()),
    ]
    d = sf.to_real_representation(pairs)
    assert d.s == 2
    # pair blocks sorted by (real, imag): (1,1) before (1,2); reals ascending
    np.testing.assert_allclose(d.Lambda[0:2, 0:2], rotation_block(1.0, 1.0))
    np.testing.assert_allclose(d.Lambda[2:4, 2:4], rotation_block(1.0, 2.0))
    assert d.Lambda[4, 4] == -2.0
    assert d.Lambda[5, 5] == 3.0


def test_to_real_rejects_empty():
    with pytest.raises(DimensionMismatch):
        sf.to_real_representation([])


def test_to_real_rejects_zero_eigenvalue():
    v = np.ones(3).astype(complex)
    with pytest.raises(ZeroEigenvalue):
        sf.to_real_representation([(0.0 + 0j, v), (1.0 + 0j, v)])


def test_to_real_rejects_duplicates():
    v = np.ones(3).astype(complex)
    with pytest.raises(DuplicateEigenvalue):
        sf.to_real_representation([(2.0 + 0j, v), (2.0 + 0j, v)])


def test_to_real_rejects_unpaired_complex():
    v = np.ones(3) + 1j
    with pytest.raises(NotConjugateClosed):
        sf.to_real_representation([(1.0 + 1j, v), (2.0 + 0j, np.ones(3))])


def test_to_real_rejects_complex_vector_on_real_eigenvalue():
    v = np.ones(3) + 0.5j * np.ones(3)
    with pytest.raises(MalformedBlocks):
        sf.to_real_representation([(2.0 + 0j, v)])


def test_block_structure_rejects_nonpositive_beta():
    Lam = rotation_block(1.0, -0.5)
    with pytest.raises(MalformedBlocks):
        sf.RealSpectralData(Lambda=Lam, X=np.zeros((0, 2)), s=1)


def test_block_structure_rejects_non_rotation_block():
    Lam = np.array([[1.0, 0.5], [0.5, 1.0]])  # +0.5 below, not -0.5
    with pytest.raises(MalformedBlocks):
        sf.RealSpectralData(Lambda=Lam, X=np.zeros((0, 2)), s=1)


def test_block_structure_rejects_off_pattern_entries():
    Lam = np.diag([1.0, 2.0, 3.0])
    Lam[0, 2] = 0.7
    with pytest.raises(MalformedBlocks):
        sf.RealSpectralData(Lambda=Lam, X=np.zeros((0, 3)), s=0)


def test_block_structure_rejects_zero_scalar():
    with pytest.raises(MalformedBlocks):
        sf.RealSpectralData(Lambda=np.diag([1.0, 0.0]), X=np.zeros((0, 2)), s=0)


def test_block_structure_rejects_impossible_s():
    with pytest.raises(MalformedBlocks):
        sf.RealSpectralData(Lambda=np.eye(3), X=np.zeros((0, 3)), s=2)


def test_real_spectral_data_rejects_column_mismatch():
    with pytest.raises(DimensionMismatch):
        sf.RealSpectralData(Lambda=np.diag([1.0, 2.0]), X=np.zeros((5, 3)), s=0)


def test_real_spectral_data_rejects_rank_deficient_vectors():
    # equal, zero and linearly dependent columns
    Y = np.random.default_rng(4).standard_normal((7, 2))
    for X in (np.ones((4, 2)), np.column_stack([Y, Y[:, 0]]), np.column_stack([Y, 0 * Y[:, 0]]),
              np.column_stack([Y, 2.0 * Y[:, 0] - Y[:, 1]])):
        with pytest.raises(MalformedBlocks):
            sf.RealSpectralData(Lambda=np.diag([1.0, 2.0, 3.0][: X.shape[1]]), X=X, s=0)


def test_selections_take_no_second_rank_test(small_pencil, monkeypatch):
    # a column subset of a full-rank X has full rank: the selections of a
    # validated layout skip the QR rank test that RealSpectralData runs
    # on a layout built from outside input
    spectrum = sf.solve_spectrum(small_pencil)
    calls = []
    rank_rcond = spectral._rank_rcond
    monkeypatch.setattr(spectral, "_rank_rcond", lambda X: calls.append(X.shape) or rank_rcond(X))
    old, retained = sf.select_eigendata(spectrum, spectrum.eigenvalues[:2])
    kept = sf.retained_eigendata(spectrum, retained)
    assert calls == []
    assert old.X.shape[1] + kept.X.shape[1] == spectrum.finite.p
    sf.RealSpectralData(Lambda=kept.Lambda, X=kept.X, s=kept.s)
    assert calls == [kept.X.shape]


def test_infer_pair_count_plain_diagonal():
    assert sf.infer_pair_count(np.diag([1.5, -2.0, 3.0])) == 0


def test_infer_pair_count_mixed():
    Lam = np.zeros((3, 3))
    Lam[:2, :2] = rotation_block(0.5, 1.0)
    Lam[2, 2] = -1.0
    assert sf.infer_pair_count(Lam) == 1


def test_real_lambda_matches_to_real_layout():
    values = [1.0 + 2j, 1.0 - 2j, -0.5, 0.25]
    d = sf.real_lambda_from_eigenvalues(values)
    assert d.X.shape == (0, 4)
    rng = np.random.default_rng(9)
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    pairs = [
        (1.0 + 2j, w),
        (1.0 - 2j, w.conjugate()),
        (-0.5 + 0j, rng.standard_normal(6).astype(complex)),
        (0.25 + 0j, rng.standard_normal(6).astype(complex)),
    ]
    full = sf.to_real_representation(pairs)
    np.testing.assert_array_equal(d.Lambda, full.Lambda)


def test_real_lambda_rejects_unpaired():
    with pytest.raises(NotConjugateClosed):
        sf.real_lambda_from_eigenvalues([1.0 + 2j, 0.5])


def test_real_lambda_rejects_zero():
    with pytest.raises(ZeroEigenvalue):
        sf.real_lambda_from_eigenvalues([1.0, 0.0])


def test_select_eigendata_basic(small_pencil):
    spectrum = sf.solve_spectrum(small_pencil)
    vals = spectrum_values(spectrum)
    lam_pair = next(v for v in vals if v.imag > 0)
    lam_real = next(v for v in vals if v.imag == 0.0)
    targets = [lam_pair, lam_pair.conjugate(), lam_real]
    d, retained = sf.select_eigendata(spectrum, targets)
    assert d.s == 1 and d.p == 3
    assert len(retained) == len(vals) - 3
    multiset_match(sf.block_eigenvalues(d.Lambda, d.s), [lam_pair, lam_real], 1e-12)
    kept = sf.retained_eigendata(spectrum, retained)
    got = sf.block_eigenvalues(kept.Lambda, kept.s)
    want = [v for v in vals if v.imag >= 0 and v not in (lam_pair, lam_real)]
    multiset_match(got, want, 1e-12)


def test_select_eigendata_matches_within_tolerance(small_pencil):
    spectrum = sf.solve_spectrum(small_pencil)
    lam_real = next(v for v in spectrum_values(spectrum) if v.imag == 0.0)
    d, _ = sf.select_eigendata(spectrum, [lam_real * (1.0 + 1e-8)])
    assert d.p == 1
    assert abs(d.Lambda[0, 0] - lam_real.real) < 1e-12 * abs(lam_real)


def test_select_eigendata_no_match(small_pencil):
    spectrum = sf.solve_spectrum(small_pencil)
    far = 10.0 * max(abs(v) for v in spectrum_values(spectrum))
    with pytest.raises(NoMatch):
        sf.select_eigendata(spectrum, [far])


def test_select_eigendata_tolerance_is_relative(small_pencil):
    spectrum = sf.solve_spectrum(small_pencil)
    lam_real = next(v for v in spectrum_values(spectrum) if v.imag == 0.0)
    offset = 1e-4 * max(abs(lam_real), 1.0)
    with pytest.raises(NoMatch):
        sf.select_eigendata(spectrum, [lam_real + offset], match_tol=1e-6)


def test_select_eigendata_requires_conjugate_closure(small_pencil):
    spectrum = sf.solve_spectrum(small_pencil)
    lam_pair = next(v for v in spectrum_values(spectrum) if v.imag > 0)
    with pytest.raises(NotConjugateClosed):
        sf.select_eigendata(spectrum, [lam_pair])


def test_select_eigendata_overlap_on_close_spectrum():
    # two real eigenvalues 1e-7 apart: far enough to count as simple,
    # close enough that selecting one collides with retaining the other
    K = np.diag([-1.0, -(1.0 + 1e-7), 1.0])
    p = sf.validate_pencil(np.eye(2), K, 2, 1)
    spectrum = sf.solve_spectrum(p)
    with pytest.raises(Overlap):
        sf.select_eigendata(spectrum, [1.0], match_tol=1e-6)


def _scan_select(spectrum, targets, match_tol):
    """select_eigendata as an element-by-element scan: the reference for
    its picks and its errors."""
    lams = spectrum.eigenvalues
    taken = [False] * len(lams)
    sel_idx = []
    for t in targets:
        t = complex(t)
        best, best_d = None, np.inf
        for i in range(len(lams)):
            if not taken[i] and abs(lams[i] - t) < best_d:
                best, best_d = i, abs(lams[i] - t)
        if best is None or best_d > match_tol * max(abs(lams[best]), 1.0):
            raise NoMatch(
                f"requested eigenvalue {t:.8e} does not match any unselected "
                f"finite eigenvalue within relative tolerance {match_tol:.1e}"
            )
        taken[best] = True
        sel_idx.append(best)
    chosen = sf.to_real_representation([spectrum.finite_pairs[i] for i in sorted(sel_idx)])
    retained = tuple(i for i in range(len(lams)) if i not in sel_idx)
    for i in sel_idx:
        for j in retained:
            if abs(lams[i] - lams[j]) <= match_tol * max(abs(lams[i]), 1.0):
                raise Overlap(
                    f"selected eigenvalue {lams[i]:.8e} coincides with retained "
                    f"eigenvalue {lams[j]:.8e} within matching tolerance; the two "
                    f"spectra must be disjoint"
                )
    return chosen, retained


def _outcome(select):
    try:
        chosen, retained = select()
    except sf.SpilloverError as exc:
        return type(exc), str(exc)
    return chosen.Lambda.tolist(), chosen.X.tolist(), retained


@given(st.integers(0, 10**6), st.sampled_from([1e-6, 0.3, 0.6]))
def test_select_eigendata_picks_and_fails_as_the_scan_does(seed, match_tol):
    # values on an integer grid, so that half-integer targets tie
    # between two eigenvalues and a wide tolerance makes overlaps; the
    # spectrum is in canonical order, as a solve lays it out
    rng = np.random.default_rng(seed)
    grid = np.r_[-9:0, 1:10].astype(float)
    reals = list(rng.choice(grid, size=rng.integers(1, 7), replace=False))
    if rng.random() < 0.3:
        reals.append(reals[0] * (1.0 + 1e-7))
    reals.sort()
    if rng.random() < 0.2:  # a NaN eigenvalue is never the nearest one
        reals.insert(int(rng.integers(len(reals) + 1)), np.nan)
    pairs = sorted({(int(a), int(b)) for a, b in rng.integers(1, 5, (3, 2))})
    pairs = [complex(a, b) for a, b in pairs]
    values = [z for w in pairs for z in (w, w.conjugate())] + reals
    n = len(values) + 3
    layout = sf.RealSpectralData(Lambda=block_matrix(pairs + reals, len(pairs)),
                                 X=rng.standard_normal((n, len(values))), s=len(pairs))
    spectrum = sf.SpectrumResult(finite=layout, infinite_basis=np.zeros((n, 0)),
                                 condition_summary=None, n_u=len(values), n_phi=0)
    targets = []
    for _ in range(rng.integers(0, 5)):
        z = values[rng.integers(len(values))]
        kind = rng.choice(4, p=[0.6, 0.2, 0.1, 0.1])
        if kind == 0:  # an eigenvalue, with its partner
            targets += [z, z.conjugate()] if z.imag else [z]
        elif kind == 1:  # half-way to the next grid point: a tie at a wide tolerance
            targets.append(z + 0.5)
        elif kind == 2:  # a grid point
            targets.append(complex(rng.choice(grid)))
        else:
            targets.append(complex(np.nan) if rng.random() < 0.5 else z)
    expected = _outcome(lambda: _scan_select(spectrum, targets, match_tol))
    assert _outcome(lambda: sf.select_eigendata(spectrum, targets, match_tol=match_tol)) == expected


def test_selected_vectors_are_eigendata(small_pencil):
    p = small_pencil
    spectrum = sf.solve_spectrum(p)
    vals = spectrum_values(spectrum)
    lam_pair = next(v for v in vals if v.imag > 0)
    d, _ = sf.select_eigendata(spectrum, [lam_pair, lam_pair.conjugate()])
    M = np.zeros((p.n, p.n))
    M[: p.n_u, : p.n_u] = p.M_u
    R = M @ d.X @ d.Lambda + p.K @ d.X
    assert np.linalg.norm(R, 2) < 1e-10 * np.linalg.norm(p.K, 2)


@pytest.mark.parametrize(
    "values, error",
    [([], DimensionMismatch), ([0.0], ZeroEigenvalue), ([1.0 + 1.0j, 2.0], NotConjugateClosed)],
)
def test_value_entry_points_raise_the_same_typed_errors(values, error):
    vec = np.ones(3, dtype=complex)
    with pytest.raises(error):
        sf.to_real_representation([(v, vec) for v in values])
    with pytest.raises(error):
        sf.real_lambda_from_eigenvalues(values)
    with pytest.raises(error):
        sf.perturb_targets(values, 0, 0.1, seed=0)


@given(pair_grid, real_grid, st.integers(0, 2**16))
def test_three_routes_build_the_same_lambda(tmp_path_factory, pair_ints, real_ints, seed):
    if not pair_ints and not real_ints:
        return
    p = 2 * len(pair_ints) + len(real_ints)
    pairs = build_pairs(pair_ints, real_ints, seed, n=p + 2)
    # any input order: conjugate members apart, lower member first at times
    pairs = [pairs[i] for i in np.random.default_rng(seed).permutation(p)]
    from_pairs = sf.to_real_representation(pairs)
    from_values = sf.real_lambda_from_eigenvalues([lam for lam, _ in pairs])
    path = tmp_path_factory.mktemp("spectral") / "d.spectral"
    sf.write_spectral(from_pairs, path)
    from_file = sf.read_spectral(path)
    assert from_values.s == from_file.s == from_pairs.s
    for d in (from_values, from_file):
        assert d.Lambda.tobytes() == from_pairs.Lambda.tobytes()


def _same_layout(a, b):
    assert a.s == b.s
    assert a.Lambda.tobytes() == b.Lambda.tobytes()
    assert a.X.tobytes() == b.X.tobytes()
    # products with X round differently in another memory order
    assert a.X.flags.c_contiguous and b.X.flags.c_contiguous


@pytest.mark.parametrize("seed", range(8))
def test_the_layout_is_the_complex_route_bit_for_bit(seed, tmp_path):
    # the block layout a spectrum holds, and the columns a selection
    # takes from it, equal to_real_representation of the complex
    # eigenpairs, for a solved and for a stored-then-certified spectrum
    rng = np.random.default_rng(seed)
    n_u, n_phi = int(rng.integers(10, 60)), int(rng.integers(0, 30))
    p = make_pencil(n_u, n_phi, seed=seed)
    solved = sf.solve_spectrum(p)
    path = tmp_path / "spectrum.spectral"
    sf.write_spectral(solved.finite, path)
    fresh = sf.validate_pencil(p.M_u, p.K, p.n_u, p.n_phi)
    stored = sf.certified_spectrum(fresh, sf.read_spectral(path))
    for spectrum in (solved, stored):
        pairs = list(spectrum.finite_pairs)
        _same_layout(spectrum.finite, sf.to_real_representation(pairs))
        s, n_real = spectrum.pair_count(), spectrum.real_count()
        picked = [2 * j + k for j in rng.choice(s, size=min(s, 2), replace=False) for k in (0, 1)]
        picked += [2 * s + i for i in rng.choice(n_real, size=min(n_real, 2), replace=False)]
        old, retained = sf.select_eigendata(spectrum, spectrum.eigenvalues[picked])
        _same_layout(old, sf.to_real_representation([pairs[i] for i in sorted(picked)]))
        _same_layout(sf.retained_eigendata(spectrum, retained),
                     sf.to_real_representation([pairs[i] for i in retained]))


def test_a_selection_that_splits_a_pair_is_not_conjugate_closed(small_pencil):
    spectrum = sf.solve_spectrum(small_pencil)
    upper, lower = spectrum.eigenvalues[:2]
    for wanted in ([upper], [lower]):
        with pytest.raises(NotConjugateClosed, match=re.escape(f"{wanted[0]:.8e}")):
            sf.select_eigendata(spectrum, wanted)
    with pytest.raises(NotConjugateClosed):
        sf.retained_eigendata(spectrum, range(1, spectrum.finite.p))
