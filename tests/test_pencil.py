"""Structured pencil container, reduction, eigensolve, relation checks."""

import numpy as np
import pytest
import scipy.linalg as sla

import spilloverfree as sf
from spilloverfree.errors import (
    AsymmetricInput,
    DegenerateSpectrum,
    DimensionMismatch,
    SingularBlock,
)
from spilloverfree.pencil import rcond_estimate

from conftest import dense_finite_eigs, make_pencil, multiset_match, spectrum_values


def test_rcond_estimate_diagonal():
    A = np.diag([1.0, 1e-6])
    r = rcond_estimate(A)
    assert 1e-7 < r < 1e-5


def test_pencil_properties(small_pencil):
    p = small_pencil
    assert p.n == p.n_u + p.n_phi
    np.testing.assert_array_equal(p.K_u, p.K[: p.n_u, : p.n_u])
    np.testing.assert_array_equal(p.K_uphi, p.K[: p.n_u, p.n_u :])
    np.testing.assert_array_equal(p.K_phi, p.K[p.n_u :, p.n_u :])


def test_pencil_arrays_read_only(small_pencil):
    with pytest.raises(ValueError):
        small_pencil.M_u[0, 0] = 5.0
    with pytest.raises(ValueError):
        small_pencil.K[0, 0] = 5.0


def test_mass_action_zero_electric_rows(small_pencil):
    p = small_pencil
    X = np.arange(p.n * 3, dtype=float).reshape(p.n, 3)
    MX = p.mass_action(X)
    np.testing.assert_allclose(MX[: p.n_u], p.M_u @ X[: p.n_u])
    assert np.all(MX[p.n_u :] == 0.0)


def test_validate_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        sf.validate_pencil(np.ones((2, 3)), np.eye(4), 2, 2)


def test_validate_rejects_wrong_k_order():
    with pytest.raises(DimensionMismatch):
        sf.validate_pencil(np.eye(2), np.eye(5), 2, 2)


def test_validate_rejects_negative_nphi():
    with pytest.raises(DimensionMismatch):
        sf.validate_pencil(np.eye(2), np.eye(1), 2, -1)


def test_validate_rejects_asymmetric_mass():
    M = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(AsymmetricInput):
        sf.validate_pencil(M, np.eye(3), 2, 1)


def test_validate_rejects_asymmetric_stiffness():
    K = np.eye(3)
    K[0, 2] = 1.0
    with pytest.raises(AsymmetricInput):
        sf.validate_pencil(np.eye(2), K, 2, 1)


def test_validate_rejects_singular_mass():
    with pytest.raises(SingularBlock):
        sf.validate_pencil(np.diag([1.0, 0.0]), np.eye(3), 2, 1)


def test_validate_rejects_singular_electric_stiffness():
    K = np.eye(3)
    K[2, 2] = 0.0
    with pytest.raises(SingularBlock):
        sf.validate_pencil(np.eye(2), K, 2, 1)


def test_nphi_zero_is_allowed():
    p = sf.validate_pencil(np.diag([2.0, 3.0]), -np.eye(2), 2, 0)
    assert p.n == 2 and p.n_phi == 0
    s = sf.solve_spectrum(p)
    assert s.infinite_basis.shape == (2, 0)
    multiset_match(spectrum_values(s), [0.5, 1.0 / 3.0], 1e-12)


def test_schur_reduce_values(small_pencil):
    p = small_pencil
    S, R = sf.schur_reduce(p)
    R_ref = -np.linalg.solve(p.K_phi, p.K_uphi.T)
    np.testing.assert_allclose(R, R_ref, atol=1e-12)
    np.testing.assert_allclose(S, p.K_u + p.K_uphi @ R_ref, atol=1e-12)
    assert np.abs(S - S.T).max() < 1e-12 * np.abs(S).max()


def test_k_rcond_is_cached(small_pencil):
    p = small_pencil
    r = p.k_rcond()
    assert 0.0 < r <= 1.0
    assert p.k_rcond() == r


def test_solve_spectrum_matches_dense_reference():
    p = make_pencil(10, 4, seed=3)
    s = sf.solve_spectrum(p)
    ref, n_inf = dense_finite_eigs(p)
    assert n_inf == p.n_phi
    assert len(s.finite_pairs) == p.n_u
    multiset_match(spectrum_values(s), ref, 1e-9)


def test_solve_spectrum_eigenpair_residuals():
    p = make_pencil(12, 5, seed=4)
    s = sf.solve_spectrum(p)
    M = np.zeros((p.n, p.n))
    M[: p.n_u, : p.n_u] = p.M_u
    scale = np.linalg.norm(M, 2) + np.linalg.norm(p.K, 2)
    for lam, x in s.finite_pairs:
        r = np.linalg.norm((lam * M + p.K) @ x)
        assert r < 1e-10 * max(abs(lam), 1.0) * scale


def test_solve_spectrum_pairing_layout():
    p = make_pencil(12, 5, seed=4)
    s = sf.solve_spectrum(p)
    n_pairs = s.pair_count()
    for k in range(n_pairs):
        lam0, x0 = s.finite_pairs[2 * k]
        lam1, x1 = s.finite_pairs[2 * k + 1]
        assert lam0.imag > 0
        assert lam1 == np.conj(lam0)
        np.testing.assert_array_equal(x1, np.conj(x0))
    pair_keys = [
        (s.finite_pairs[2 * k][0].real, s.finite_pairs[2 * k][0].imag)
        for k in range(n_pairs)
    ]
    assert pair_keys == sorted(pair_keys)
    reals = [l.real for l, _ in s.finite_pairs[2 * n_pairs :]]
    assert all(l.imag == 0.0 for l, _ in s.finite_pairs[2 * n_pairs :])
    assert reals == sorted(reals)


def test_solve_spectrum_infinite_basis():
    p = make_pencil(6, 3, seed=1)
    s = sf.solve_spectrum(p)
    assert s.infinite_basis.shape == (9, 3)
    assert np.all(s.infinite_basis[:6] == 0.0)
    np.testing.assert_array_equal(s.infinite_basis[6:], np.eye(3))
    assert np.all(p.mass_action(s.infinite_basis) == 0.0)


def test_solve_spectrum_rejects_multiple_eigenvalue():
    # K_uphi = 0 so the reduced matrix is K_u itself; two equal
    # diagonal entries give an eigenvalue of multiplicity two.
    K = np.diag([2.0, 2.0, 1.0])
    with pytest.raises(DegenerateSpectrum):
        sf.solve_spectrum(sf.validate_pencil(np.eye(2), K, 2, 1))


def test_solve_spectrum_rejects_near_zero_eigenvalue():
    K = np.diag([1e-12, 1.0, 1.0])
    with pytest.raises(DegenerateSpectrum):
        sf.solve_spectrum(sf.validate_pencil(np.eye(2), K, 2, 1))


def test_assembled_jordan_pair_passes_checks(small_pencil):
    s = sf.solve_spectrum(small_pencil)
    c = sf.assemble_jordan_pair(s)
    report = sf.check_jordan_pair(small_pencil, c, 1e-8)
    assert report.passed, report.failed_names()
    names = {chk.name for chk in report.checks}
    assert {"rank", "pencil_relation", "block_form"} <= names


def test_check_jordan_pair_finite_relation_only(small_pencil):
    s = sf.solve_spectrum(small_pencil)
    d = sf.to_real_representation(list(s.finite_pairs))
    c = sf.JordanPairCandidate(X=d.X, J=d.Lambda)
    report = sf.check_jordan_pair(small_pencil, c, 1e-8)
    assert report.passed
    assert report["finite_relation"].passed


def test_check_jordan_pair_detects_rank_loss(small_pencil):
    s = sf.solve_spectrum(small_pencil)
    c = sf.assemble_jordan_pair(s)
    X = c.X.copy()
    X[:, 1] = X[:, 0]
    bad = sf.check_jordan_pair(small_pencil, sf.JordanPairCandidate(X=X, J=c.J), 1e-8)
    assert not bad["rank"].passed
    assert not bad.passed


def test_check_jordan_pair_detects_wrong_eigenvalues(small_pencil):
    s = sf.solve_spectrum(small_pencil)
    d = sf.to_real_representation(list(s.finite_pairs))
    J = d.Lambda.copy()
    J[-1, -1] += 0.25
    bad = sf.check_jordan_pair(small_pencil, sf.JordanPairCandidate(X=d.X, J=J), 1e-8)
    assert not bad["finite_relation"].passed


def test_check_jordan_pair_detects_block_form_violation(small_pencil):
    s = sf.solve_spectrum(small_pencil)
    c = sf.assemble_jordan_pair(s)
    X = c.X.copy()
    X[0, -1] += 1.0  # structural component in an infinite direction
    bad = sf.check_jordan_pair(small_pencil, sf.JordanPairCandidate(X=X, J=c.J), 1e-8)
    assert not bad["block_form"].passed


def test_check_jordan_pair_rejects_singular_j1(small_pencil):
    n = small_pencil.n
    X = np.eye(n)
    J = np.zeros((n, n))
    J[:2, :2] = 1.0  # rank-one leading block, so J1 is singular
    with pytest.raises(DimensionMismatch):
        sf.check_jordan_pair(small_pencil, sf.JordanPairCandidate(X=X, J=J), 1e-8)


def test_check_jordan_pair_shape_errors(small_pencil):
    n = small_pencil.n
    with pytest.raises(DimensionMismatch):
        sf.check_jordan_pair(
            small_pencil, sf.JordanPairCandidate(X=np.eye(n + 1), J=np.eye(n + 1)), 1e-8
        )
    with pytest.raises(DimensionMismatch):
        sf.check_jordan_pair(
            small_pencil, sf.JordanPairCandidate(X=np.eye(n), J=np.eye(n - 1)), 1e-8
        )


def test_check_report_lookup(small_pencil):
    s = sf.solve_spectrum(small_pencil)
    report = sf.check_jordan_pair(small_pencil, sf.assemble_jordan_pair(s), 1e-8)
    first = report.checks[0]
    assert report[first.name] is first
    with pytest.raises(KeyError):
        report["no_such_check"]


def test_generated_spectrum_det_is_zero(small_pencil):
    # det(lam*M + K) must vanish at every reported finite eigenvalue
    p = small_pencil
    M = np.zeros((p.n, p.n), dtype=complex)
    M[: p.n_u, : p.n_u] = p.M_u
    lam0 = spectrum_values(sf.solve_spectrum(p))[0]
    sign, logdet = np.linalg.slogdet(lam0 * M + p.K)
    ref_sign, ref_logdet = np.linalg.slogdet(1.01 * lam0 * M + p.K)
    assert logdet < ref_logdet - 5.0  # many orders of magnitude drop


# -- one solve per pencil, and the certificate for stored spectra ------------


def test_nearest_gaps_match_the_pairwise_loop():
    lam = np.array([1.0 + 2j, 1.0 - 2j, -0.5, 3.0 + 0.1j, 3.0 - 0.1j, 2.9])
    loop = np.empty(lam.size)
    for i in range(lam.size):
        d = np.abs(lam - lam[i])
        d[i] = np.inf
        loop[i] = d.min()
    np.testing.assert_array_equal(sf.pencil._nearest_gaps(lam), loop)
    assert sf.pencil._nearest_gaps(np.array([2.0 + 0j])).tolist() == [np.inf]


def test_solve_spectrum_is_cached_and_still_checks_degeneracy(monkeypatch):
    p = make_pencil(10, 4, seed=2)
    calls = []
    eig = sla.eig
    monkeypatch.setattr(sla, "eig", lambda *a, **k: calls.append(1) or eig(*a, **k))
    first = sf.solve_spectrum(p)
    assert sf.solve_spectrum(p) is first
    # generate_pencil already solved p
    assert len(calls) == 0
    # a degenerate spectrum is never cached: every call solves and raises
    degenerate = sf.validate_pencil(np.eye(2), np.diag([2.0, 2.0, 1.0]), 2, 1)
    for _ in range(2):
        with pytest.raises(DegenerateSpectrum):
            sf.solve_spectrum(degenerate)
    assert len(calls) == 2


def test_cached_spectrum_is_read_only():
    s = sf.solve_spectrum(make_pencil(6, 2, seed=4))
    lam, x = s.finite_pairs[0]
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        s.condition_summary[0] = 0.0


def _stored(spectrum, tmp_path):
    path = tmp_path / "spectrum.spectral"
    sf.write_spectral(sf.to_real_representation(list(spectrum.finite_pairs)), path)
    return sf.from_real_representation(sf.read_spectral(path))


def test_certified_spectrum_reproduces_the_solve(tmp_path):
    p = make_pencil(30, 12, seed=5)
    solved = sf.solve_spectrum(p)
    fresh = sf.validate_pencil(p.M_u, p.K, p.n_u, p.n_phi)
    c = sf.certified_spectrum(fresh, _stored(solved, tmp_path))
    assert len(c.finite_pairs) == len(solved.finite_pairs)
    for (l1, x1), (l2, x2) in zip(c.finite_pairs, solved.finite_pairs):
        assert l1 == l2
        assert x1.tobytes() == x2.tobytes()
    np.testing.assert_array_equal(c.condition_summary, solved.condition_summary)
    np.testing.assert_array_equal(c.infinite_basis, solved.infinite_basis)
    assert 0.0 < c.enclosure_ratio < 1e-6
    assert solved.enclosure_ratio is None
    assert fresh._spectrum is None  # certified, not solved


def test_certified_spectrum_names_the_worst_pair(tmp_path):
    p = make_pencil(12, 5, seed=5)
    pairs = _stored(sf.solve_spectrum(p), tmp_path)
    lam, x = pairs[-1]
    bad = pairs[:-1] + [(lam * (1 + 1e-8), x)]
    with pytest.raises(sf.UncertifiedSpectrum, match=f"eigenpair {len(pairs) - 1} "):
        sf.certified_spectrum(p, bad)
    with pytest.raises(sf.UncertifiedSpectrum, match="n_u = 12"):
        sf.certified_spectrum(p, pairs[2:])
    other = make_pencil(12, 5, seed=6)
    with pytest.raises(sf.UncertifiedSpectrum):
        sf.certified_spectrum(other, pairs)
    # a rescaled eigenvector is still an eigenvector, but not the one
    # solve writes: the certificate checks the normalization
    for scale in (-1.0, 2.0, 1j):
        rescaled = pairs[:-1] + [(lam, scale * x)]
        with pytest.raises(sf.UncertifiedSpectrum, match=f"eigenvector {len(pairs) - 1} "):
            sf.certified_spectrum(p, rescaled)


def test_certified_spectrum_checks_degeneracy_after_the_certificate(tmp_path):
    p = make_pencil(12, 5, seed=5)
    pairs = _stored(sf.solve_spectrum(p), tmp_path)
    (l0, x0), (l1, x1) = pairs[-2:]
    assert l0.imag == l1.imag == 0.0
    close = pairs[:-1] + [(l0 * (1 + 1e-10), x1)]
    with pytest.raises(sf.UncertifiedSpectrum, match="not an eigenpair"):
        sf.certified_spectrum(p, close)
    assert sf.UncertifiedSpectrum.exit_code == sf.VerificationFailed.exit_code == 28
