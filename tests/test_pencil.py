"""Structured pencil container, reduction, eigensolve, relation checks."""

import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import spilloverfree as sf
from spilloverfree import pencil
from spilloverfree.errors import (
    AsymmetricInput,
    DegenerateSpectrum,
    DimensionMismatch,
    SingularBlock,
)
from spilloverfree.pencil import _spec_norm, rcond_estimate
from spilloverfree.spectral import _rank_rcond

from conftest import (EmbeddingCase, dense_finite_eigs, forbid_norm_eigensolves, make_pencil,
                      multiset_match, record_beside_threads, record_fill_threads,
                      record_norm_eigensolves, rerun_at_one_blas_thread, solve_worker,
                      spectrum_values)


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
    MX = pencil._mass_apply(p.M_u, X)
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
    assert np.all(pencil._mass_apply(p.M_u, s.infinite_basis) == 0.0)


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


@pytest.mark.parametrize("seed,n_u,n_phi", [pytest.param(seed, 10, 4, id=str(seed))
                                             for seed in (1, 2, 3)]
                         + [pytest.param(1, 210, 50, id="n260")])
def test_check_jordan_pair_relations_are_the_public_residuals(seed, n_u, n_phi):
    p = make_pencil(n_u, n_phi, seed=seed)
    s = sf.solve_spectrum(p)
    c = sf.assemble_jordan_pair(s)
    Jp = sla.block_diag(np.linalg.inv(c.J[: p.n_u, : p.n_u]), np.zeros((p.n_phi, p.n_phi)))
    assembled = sf.check_jordan_pair(p, c, 1e-8)
    relation = assembled["pencil_relation"].residual
    assert relation == sf.retained_residual(p.M_u, p.K, c.X, Jp)
    # a structural entry in an infinite column: M X2 is nonzero there, so
    # the spillover numerator takes that column too
    X = np.array(c.X)
    X[0, -1] += 1e-6
    wrong = sf.check_jordan_pair(p, sf.JordanPairCandidate(X=X, J=c.J), 1e-8)
    assert wrong["pencil_relation"].residual == sf.retained_residual(p.M_u, p.K, X, Jp)
    assert wrong["pencil_relation"].residual >= 1e6 * relation
    d = sf.to_real_representation(list(s.finite_pairs))
    finite = sf.check_jordan_pair(p, sf.JordanPairCandidate(X=d.X, J=d.Lambda), 1e-8)
    assert finite["finite_relation"].residual == sf.eigen_residual(p.M_u, p.K, d.X, d.Lambda)
    assert all(chk.threshold == 1e-8 for chk in assembled.checks + finite.checks)


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
    np.testing.assert_array_equal(sf.pencil._nearest_gaps(lam, 2), loop[-2:])
    assert sf.pencil._nearest_gaps(np.array([2.0 + 0j])).tolist() == [np.inf]


def _count_eigensolves(monkeypatch):
    """The list that each later eigensolve of solve_spectrum appends to:
    True for QZ (sla.eig of the pencil), False for the standard solve
    (np.linalg.eig of M_u^-1 S)."""
    calls = []
    for module, qz in ((sla, True), (np.linalg, False)):
        monkeypatch.setattr(module, "eig", lambda *a, _eig=module.eig, _qz=qz, **k:
                            calls.append(_qz) or _eig(*a, **k))
    return calls


def test_solve_spectrum_is_cached_and_still_checks_degeneracy(monkeypatch):
    p = make_pencil(10, 4, seed=2)
    calls = _count_eigensolves(monkeypatch)
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
    for a in (s.finite.Lambda, s.finite.X, s.condition_summary, s.infinite_basis):
        with pytest.raises(ValueError):
            a[0] = 0.0


def _stored(spectrum, tmp_path):
    path = tmp_path / "spectrum.spectral"
    sf.write_spectral(spectrum.finite, path)
    return sf.read_spectral(path)


def test_certified_spectrum_reproduces_the_solve(tmp_path):
    p = make_pencil(30, 12, seed=5)
    solved = sf.solve_spectrum(p)
    fresh = sf.validate_pencil(p.M_u, p.K, p.n_u, p.n_phi)
    c = sf.certified_spectrum(fresh, _stored(solved, tmp_path))
    assert c.finite.s == solved.finite.s
    assert c.finite.Lambda.tobytes() == solved.finite.Lambda.tobytes()
    assert c.finite.X.tobytes() == solved.finite.X.tobytes()
    assert len(c.finite_pairs) == len(solved.finite_pairs)
    for (l1, x1), (l2, x2) in zip(c.finite_pairs, solved.finite_pairs):
        assert l1 == l2
        assert x1.tobytes() == x2.tobytes()
    np.testing.assert_array_equal(c.condition_summary, solved.condition_summary)
    np.testing.assert_array_equal(c.infinite_basis, solved.infinite_basis)
    assert 0.0 < c.enclosure_ratio < 1e-6
    assert solved.enclosure_ratio is None
    assert fresh._spectrum is None  # certified, not solved


def _with_column(d, j, x):
    """d with the real column j (and j + 1 for a complex x) replaced by x."""
    X = d.X.copy()
    X[:, j] = x.real
    if np.iscomplexobj(x):
        X[:, j + 1] = x.imag
    return replace(d, X=X)


def test_certified_spectrum_names_the_worst_pair(tmp_path):
    p = make_pencil(12, 5, seed=5)
    d = _stored(sf.solve_spectrum(p), tmp_path)
    last = d.p - 1
    assert d.s >= 1 and d.p > 2 * d.s  # a pair block first, a real last
    Lam = d.Lambda.copy()
    Lam[-1, -1] *= 1 + 1e-8
    with pytest.raises(sf.UncertifiedSpectrum, match=f"eigenpair {last} "):
        sf.certified_spectrum(p, replace(d, Lambda=Lam))
    dropped = sf.RealSpectralData(Lambda=d.Lambda[2:, 2:], X=d.X[:, 2:], s=d.s - 1)
    with pytest.raises(sf.UncertifiedSpectrum, match="n_u = 12"):
        sf.certified_spectrum(p, dropped)
    other = make_pencil(12, 5, seed=6)
    with pytest.raises(sf.UncertifiedSpectrum):
        sf.certified_spectrum(other, d)
    # a rescaled eigenvector is still an eigenvector, but not the one
    # solve writes: the certificate checks the normalization, of a real
    # column and of a pair's columns [Re x, Im x]
    for scale in (-1.0, 2.0):
        with pytest.raises(sf.UncertifiedSpectrum, match=f"eigenvector {last} "):
            sf.certified_spectrum(p, _with_column(d, last, scale * d.X[:, last]))
    for scale in (-1.0, 2.0, 1j):
        x = scale * (d.X[:, 0] + 1j * d.X[:, 1])
        with pytest.raises(sf.UncertifiedSpectrum, match="eigenvector 0 "):
            sf.certified_spectrum(p, _with_column(d, 0, x))


def test_certified_spectrum_checks_each_conjugate_pair_once(tmp_path, monkeypatch):
    # a conjugate member's residual, backward error, norm, pivot and
    # |x^T M x| equal its partner's bit for bit, so only the upper members
    # and the reals are checked, with the full layout's results
    p = make_pencil(30, 12, seed=5)
    d = _stored(sf.solve_spectrum(p), tmp_path)
    s2 = 2 * d.s
    assert 2 <= d.s < d.p - d.s
    lam, X = sf.spectral._expand(d)
    r, eta, MX, x = pencil._pair_residuals(p, lam, X)
    xMx, pivot = np.abs(np.einsum("ij,ij->j", X, MX)), pencil._pivots(X)
    for a in (r, eta, x, xMx):
        assert a[0:s2:2].tobytes() == a[1:s2:2].tobytes()
    assert pivot[0:s2:2].tobytes() == pivot[1:s2:2].conj().tobytes()
    checked = []
    residuals = pencil._pair_residuals
    monkeypatch.setattr(pencil, "_pair_residuals",
                        lambda p, lam, X: checked.append(lam) or residuals(p, lam, X))
    c = sf.certified_spectrum(p, d)
    np.testing.assert_array_equal(checked[0], np.r_[lam[0:s2:2], lam[s2:]])
    gaps = pencil._nearest_gaps(lam)
    np.testing.assert_array_equal(c.condition_summary, gaps)
    assert c.backward_error == eta.max()
    assert c.enclosure_ratio == (r * x / xMx / (0.5 * gaps)).max()
    # failures name the full layout's index: the upper member of pair 1
    # (layout columns 2 and 3) and the first real (column 2s)
    Lam = d.Lambda.copy()
    Lam[2:4, 2:4] *= 1 + 1e-8
    with pytest.raises(sf.UncertifiedSpectrum, match="eigenpair 2 "):
        sf.certified_spectrum(p, replace(d, Lambda=Lam))
    Lam = d.Lambda.copy()
    Lam[s2, s2] *= 1 + 1e-8
    with pytest.raises(sf.UncertifiedSpectrum, match=f"eigenpair {s2} "):
        sf.certified_spectrum(p, replace(d, Lambda=Lam))
    with pytest.raises(sf.UncertifiedSpectrum, match="eigenvector 2 "):
        sf.certified_spectrum(p, _with_column(d, 2, 2.0 * (d.X[:, 2] + 1j * d.X[:, 3])))


def test_certified_spectrum_checks_degeneracy_after_the_certificate(tmp_path):
    p = make_pencil(12, 5, seed=5)
    d = _stored(sf.solve_spectrum(p), tmp_path)
    assert d.p - 2 * d.s >= 2  # the last two eigenvalues are real
    Lam = d.Lambda.copy()
    Lam[-1, -1] = Lam[-2, -2] * (1 + 1e-10)
    with pytest.raises(sf.UncertifiedSpectrum, match="not an eigenpair"):
        sf.certified_spectrum(p, replace(d, Lambda=Lam))
    assert sf.UncertifiedSpectrum.exit_code == sf.VerificationFailed.exit_code == 28


def _ill_conditioned_pencil(seed, n_u=6, n_phi=4):
    """M_u = Q diag(+-10^u) Q^T with u uniform on [-11, 0]; K uniform
    symmetric with n added to the K_phi diagonal."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n_u, n_u)))
    d = rng.choice([-1.0, 1.0], n_u) * 10.0 ** rng.uniform(-11.0, 0.0, n_u)
    M_u = Q @ (d[:, None] * Q.T)
    n = n_u + n_phi
    K = rng.uniform(-1.0, 1.0, (n, n))
    K = 0.5 * (K + K.T)
    K[n_u:, n_u:] += n * np.eye(n_phi)
    return sf.validate_pencil(0.5 * (M_u + M_u.T), K, n_u, n_phi)


def _assert_relative_match(got, want, tol):
    got, want = np.asarray(got), np.asarray(want)
    d = np.abs(got[:, None] - want[None, :]) / np.abs(want)[None, :]
    rows, cols = linear_sum_assignment(d)
    assert len(rows) == len(got) == len(want)
    assert d[rows, cols].max() <= tol, d[rows, cols].max()


@given(st.sampled_from(["generated", "ill-conditioned"]), st.integers(0, 10**6),
       st.integers(2, 40), st.integers(0, 16))
def test_standard_solve_matches_qz_and_falls_back_when_it_must(family, seed, n_u, n_phi):
    if family == "generated":
        p = make_pencil(n_u, n_phi, seed=seed)
        p = sf.validate_pencil(p.M_u, p.K, n_u, n_phi)  # nothing cached
    else:
        p = _ill_conditioned_pencil(seed)
    S, R = sf.schur_reduce(p)
    lam, keep, _, X = pencil._eigenpairs(p, S, R, qz=False)
    standard_error = pencil._pair_residuals(p, lam[keep], X)[1].max()
    qz_calls = []
    eig = sla.eig
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sla, "eig", lambda A, B=None, **k: qz_calls.append(B is not None)
                   or eig(A, B, **k))
        try:
            s = sf.solve_spectrum(p)
        except DegenerateSpectrum:
            assume(False)
    # QZ runs exactly when the standard solve is not backward stable enough
    assert sum(qz_calls) == (standard_error > pencil.SOLVE_BACKWARD_ERROR)
    values = spectrum_values(s)
    lam_x = np.column_stack([x for _, x in s.finite_pairs])
    eta = pencil._pair_residuals(p, values, lam_x)[1]
    assert eta.max() <= pencil.SOLVE_BACKWARD_ERROR
    assert s.backward_error == pytest.approx(eta.max(), rel=1e-6)
    _assert_relative_match(values, -sla.eig(S, p.M_u, right=False), 1e-10)


def test_ill_conditioned_mass_takes_the_qz_fallback(monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    well = _ill_conditioned_pencil(0)  # cond(M_u) about 1e3
    sf.solve_spectrum(well)
    assert calls == [False]
    ill = _ill_conditioned_pencil(3)  # cond(M_u) about 2.6e4
    s = sf.solve_spectrum(ill)
    assert calls == [False, False, True]
    assert s.backward_error <= pencil.SOLVE_BACKWARD_ERROR


def _fresh(p):
    """p validated again: nothing solved or cached."""
    return sf.validate_pencil(p.M_u, p.K, p.n_u, p.n_phi)


def _symmetric(rng, n, shift=0.0):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T) + shift * np.eye(n)


@pytest.mark.parametrize("family", ["n140", "n560", "ill-conditioned", "definite"])
def test_the_standard_eigensolve_is_sla_eig_bit_for_bit(family, monkeypatch, request):
    # numpy's dgeev releases the GIL and scipy's holds it; the standard
    # solve takes numpy's for that, and must not move a bit. Each calls its
    # own OpenBLAS build, and those agree at one BLAS thread, not at two.
    if rerun_at_one_blas_thread(request):
        return
    if family == "ill-conditioned":
        pencils = [_ill_conditioned_pencil(seed) for seed in range(60)]
    elif family == "definite":  # M_u positive definite: numpy's eigenvalues come back real
        rng = np.random.default_rng(3)
        K = _symmetric(rng, 40, 40.0)
        pencils = [sf.validate_pencil(_symmetric(rng, 30, 30.0), K, 30, 10)]
    else:
        pencils = [_fresh(make_pencil(*{"n140": (100, 40), "n560": (400, 160)}[family], seed=7))]
    for p in pencils:
        S, R = sf.schur_reduce(p)
        A = sla.lu_solve(p._lu_mu, S)
        (w, V), (w_ref, V_ref) = np.linalg.eig(A), sla.eig(A)
        assert np.array_equal(w.astype(complex), w_ref) and w_ref.dtype == complex
        assert np.array_equal(V, V_ref) and V.dtype == V_ref.dtype
        if family != "ill-conditioned":
            assert (w.dtype == float) == (family == "definite")
            ours = pencil._eigenpairs(p, S, R, qz=False)
            monkeypatch.setattr(np.linalg, "eig", sla.eig)
            for a, b in zip(ours, pencil._eigenpairs(p, S, R, qz=False)):
                assert np.array_equal(a, b) and a.dtype == b.dtype
            monkeypatch.undo()


@pytest.mark.parametrize("case", ["tridiagonal", "lanczos", "arpack-fails", "closed-form"])
def test_the_worker_takes_the_pencil_scalars_bit_for_bit(case, monkeypatch):
    rng = np.random.default_rng(5)
    n_u, n_phi = (60, 1000) if case in ("lanczos", "arpack-fails") else (60, 20)
    M_u = np.diag(rng.uniform(1.0, 2.0, n_u)) if case == "closed-form" else _symmetric(rng, n_u, 30)
    K = _symmetric(rng, n_u + n_phi)
    K[n_u:, n_u:] += 3 * (n_u + n_phi) * np.eye(n_phi)
    if case == "arpack-fails":
        def no_convergence(*args, **kwargs):
            raise pencil.spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
        monkeypatch.setattr(pencil.spla, "eigsh", no_convergence)
    threads = record_fill_threads(monkeypatch)
    p = sf.validate_pencil(M_u, K, n_u, n_phi)
    with solve_worker(True):
        try:
            sf.solve_spectrum(p)
        except DegenerateSpectrum:
            pass
    assert len(threads) == 1 and threads[0] is not threading.main_thread()
    assert p._norms == (_spec_norm(p.M_u), _spec_norm(p.K))
    # the same dgetrf and dgecon, but dgecon's last bits follow the address
    # of the work array that scipy's wrapper allocates, even on one thread
    assert abs(p._k_rcond - rcond_estimate(p.K)) <= 4 * np.spacing(p._k_rcond)
    assert all(type(v) is float for v in (*p._norms, p._k_rcond))


@pytest.mark.parametrize("on", [True, False])
def test_the_worker_only_fills_what_is_not_cached(on, monkeypatch):
    source, threads = make_pencil(12, 5, seed=5), record_fill_threads(monkeypatch)
    for cached in ((), ("norms",), ("k_rcond",), ("norms", "k_rcond")):
        p = _fresh(source)
        ref = {name: getattr(p, name)() for name in cached}
        with solve_worker(on):
            sf.solve_spectrum(p)
        assert all(getattr(p, name)() is ref[name] for name in cached)
        assert p.norms() == (_spec_norm(p.M_u), _spec_norm(p.K))
        assert abs(p.k_rcond() - rcond_estimate(p.K)) <= 4 * np.spacing(p.k_rcond())
    main = threading.main_thread()
    assert len(threads) == 3 and all((t is not main) == on for t in threads)


def test_no_thread_outlives_solve_spectrum(monkeypatch):
    source = make_pencil(12, 5, seed=5)
    # each fill sleeps first, so the caller is still waiting when it leaves
    threads = record_fill_threads(monkeypatch, delay=0.05)
    before = threading.enumerate()
    with solve_worker(True):
        sf.solve_spectrum(_fresh(source))
        assert threading.enumerate() == before
        degenerate = sf.validate_pencil(np.eye(2), np.diag([2.0, 2.0, 1.0]), 2, 1)
        with pytest.raises(DegenerateSpectrum):
            sf.solve_spectrum(degenerate)
        assert threading.enumerate() == before

        def fails(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eig", fails)
        failing = _fresh(source)
        with pytest.raises(np.linalg.LinAlgError):
            sf.solve_spectrum(failing)
        assert threading.enumerate() == before
    assert len(threads) == 3 and not any(t.is_alive() for t in threads)
    assert threading.main_thread() not in threads
    assert failing._norms is not None and failing._k_rcond is not None  # it ran to the end


# the call each site runs _beside its caller's work, and a step of that work
WORKER_SITES = {"residual_report": ("updated_k", sf.objective, "_retained_side"),
                "certified_spectrum": ("_fill_call", pencil, "_column_norms"),
                "solve_spectrum": ("solve_spectrum", pencil, "_sorted_layout")}


@pytest.mark.parametrize("outcome", ["returns", "worker_raises", "caller_raises"])
@pytest.mark.parametrize("site", sorted(WORKER_SITES))
def test_no_thread_outlives_a_worker_site(site, outcome, monkeypatch):
    c = EmbeddingCase(12, 5, s_sel=1, n_real=2, s_tilde=1, seed=5)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    worker, module, step = WORKER_SITES[site]
    # each worker call sleeps first, so the caller leaves while it still runs
    calls = record_beside_threads(monkeypatch, delay=0.05,
                                  fail=worker if outcome == "worker_raises" else None)
    if outcome == "caller_raises":
        def fails(*args, **kwargs):
            raise RuntimeError("caller failed")
        monkeypatch.setattr(module, step, fails)
    call = {"residual_report": lambda: sf.residual_report(c.pencil, u, c.old, c.target.Lambda,
                                                           c.retained),
            "certified_spectrum": lambda: sf.certified_spectrum(_fresh(c.pencil),
                                                                c.spectrum.finite),
            "solve_spectrum": lambda: sf.solve_spectrum(_fresh(c.pencil))}[site]
    before = threading.enumerate()
    with solve_worker(True):
        if outcome == "returns":
            call()
        else:
            with pytest.raises(RuntimeError, match=outcome.split("_")[0] + " failed"):
                call()
    assert threading.enumerate() == before
    ran = [thread for thread, name in calls if worker in name]
    assert len(ran) == 1 and ran[0] is not threading.main_thread() and not ran[0].is_alive()


def test_every_worker_site_gives_the_same_bits_at_n_u_400():
    source, results = make_pencil(400, 160, seed=5), {}
    for on in (True, False):
        with solve_worker(on):
            p = _fresh(source)
            spectrum = sf.solve_spectrum(p)
            values = spectrum_values(spectrum)
            wanted = [v for v in values if v.imag > 0][:1]
            wanted = wanted + [w.conjugate() for w in wanted] + [v for v in values
                                                                 if v.imag == 0][:2]
            old, kept = sf.select_eigendata(spectrum, wanted)
            retained = sf.retained_eigendata(spectrum, kept)
            target = sf.real_lambda_from_eigenvalues(
                sf.perturb_targets(wanted, 1, 0.3, 1, avoid=[values[i] for i in kept]))
            params = sf.default_gamma_tilde(sf.compute_gamma1(p, old.X, s=old.s), old.s, target.s)
            updated = sf.embed(p, old, target.Lambda, params)
            report = sf.residual_report(p, updated, old, target.Lambda, retained)
            certified = sf.certified_spectrum(_fresh(source), spectrum.finite)
        results[on] = (spectrum.finite.Lambda.tobytes(), spectrum.finite.X.tobytes(),
                       spectrum.backward_error, spectrum.condition_summary.tobytes(), p.norms(),
                       report, certified.backward_error, certified.enclosure_ratio)
    assert results[True] == results[False]


def test_the_fill_takes_its_large_operands_in_its_one_array():
    # a worker thread's malloc arena keeps what that thread frees, so the
    # fill takes |K|, K's LU and both scaled operands in the array that
    # _fill_call makes on the calling thread
    p = _fresh(make_pencil(200, 60, seed=5))
    call = p._fill_call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.norms() == (_spec_norm(p.M_u), _spec_norm(p.K))
    assert peak < p.K.nbytes / 2, (peak, p.K.nbytes)


def test_no_worker_below_the_order_gate_or_with_one_cpu(monkeypatch):
    small, large = make_pencil(12, 5, seed=5), make_pencil(200, 20, seed=5)
    threads = record_fill_threads(monkeypatch)
    with mock.patch.object(pencil.os, "sched_getaffinity", lambda pid: {0, 1}):
        sf.solve_spectrum(_fresh(small))
        sf.solve_spectrum(_fresh(large))
    with mock.patch.object(pencil.os, "sched_getaffinity", lambda pid: {0}):
        sf.solve_spectrum(_fresh(large))
    main = threading.main_thread()
    assert pencil.OVERLAP_MIN_ORDER == 200
    assert [t is main for t in threads] == [True, False, True]


def _wrapper_norm(B):
    """_tridiagonal_norm of a B of order 2 or more as it was taken through
    scipy's f2py wrapper of dsytrd, which holds the GIL for the call."""
    T, scale, n, lapack = B / np.abs(B).max(), np.abs(B).max(), len(B), sla.lapack
    d, e = lapack.dsytrd(T.T, lower=1, lwork=int(lapack.dsytrd_lwork(n, lower=1)[0]))[1:3]
    low, high = (lapack.dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "E")[1][0] for i in (1, n))
    return scale * float(max(-low, high))


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("n", [1, 2, 3, 199, 200, 560, 999])
def test_the_gil_free_reduction_gives_the_wrapper_bits(n, scale):
    rng = np.random.default_rng(n)
    S = scale * _symmetric(rng, n)
    S = S + S.T  # exactly symmetric
    lwork = int(sla.lapack.dsytrd_lwork(n, lower=1)[0])
    ref = sla.lapack.dsytrd(S.T, lower=1, lwork=lwork)[1:3]
    for T in (S.copy(), np.asfortranarray(S)):  # each order holds the same symmetric matrix
        d, e = pencil._dsytrd(T)
        assert d.tobytes() == ref[0].tobytes() and e.tobytes() == ref[1].tobytes()
    kept = S.copy()
    value = pencil._tridiagonal_norm(S)
    assert value == (_wrapper_norm(S) if n > 1 else abs(S[0, 0]))
    assert S.tobytes() == kept.tobytes()
    # max|S| == 1: the quotient is S itself, so the reduction takes a copy
    unit = S / np.abs(S).max()
    kept = unit.copy()
    assert pencil._tridiagonal_norm(unit) == (_wrapper_norm(unit) if n > 1 else 1.0)
    assert unit.tobytes() == kept.tobytes()


@pytest.mark.skipif(not pencil._two_cpus(), reason="a second CPU runs the counter")
def test_a_python_thread_runs_while_the_tridiagonal_reduction_does(monkeypatch):
    # between the scaled copy and the bisection, _tridiagonal_norm runs only
    # the reduction; a pure-Python counter stalls for all of it when the
    # reduction holds the GIL, and for little of it when it does not
    S = _symmetric(np.random.default_rng(3), 560)
    S = S + S.T
    scaled, dstebz, window = pencil._scaled, sla.lapack.dstebz, []

    def scaled_then_mark(*args, **kwargs):
        value = scaled(*args, **kwargs)
        window[:] = [time.perf_counter()]
        return value

    def mark_then_dstebz(*args, **kwargs):
        window.append(time.perf_counter())
        return dstebz(*args, **kwargs)
    monkeypatch.setattr(pencil, "_scaled", scaled_then_mark)
    monkeypatch.setattr(sla.lapack, "dstebz", mark_then_dstebz)

    def stalled_share():
        stalls, stop = [], threading.Event()

        def counter():
            last = time.perf_counter()
            while not stop.is_set():
                now = time.perf_counter()
                if now - last > 5e-4:
                    stalls.append((last, now))
                last = now
        thread = threading.Thread(target=counter)
        thread.start()
        time.sleep(0.01)
        try:
            pencil._tridiagonal_norm(S)
        finally:
            stop.set()
            thread.join()
        t0, t1 = window[:2]
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in stalls) / (t1 - t0)

    # a short switch interval hands the GIL back soon after the reduction;
    # a loaded host can stall the counter too, so the best of three counts
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        shares = [stalled_share() for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert min(shares) < 0.5


def _mp_finite_eigenvalues(p):
    """Eigenvalues of lambda*M_u + S at 30 digits, S the Schur complement
    of K_phi formed in the same precision from the stored entries."""
    with mpmath.workdps(30):
        S = mpmath.matrix(p.K_u.tolist())
        if p.n_phi:
            Kuphi = mpmath.matrix(p.K_uphi.tolist())
            S -= Kuphi * mpmath.inverse(mpmath.matrix(p.K_phi.tolist())) * Kuphi.T
        A = mpmath.inverse(mpmath.matrix(p.M_u.tolist())) * S
        values = mpmath.eig(A, left=False, right=False)
        return np.array([-complex(v) for v in values])


@pytest.mark.parametrize("make", [
    lambda: make_pencil(4, 2, seed=1),
    lambda: make_pencil(8, 3, seed=7),
    lambda: make_pencil(12, 5, seed=5),
    lambda: make_pencil(12, 0, seed=2),
    lambda: _ill_conditioned_pencil(0),
    lambda: _ill_conditioned_pencil(3),
], ids=["4+2", "8+3", "12+5", "12+0", "ill-standard", "ill-qz"])
def test_solve_matches_a_30_digit_eigensolve(make):
    p = make()
    _assert_relative_match(spectrum_values(sf.solve_spectrum(p)), _mp_finite_eigenvalues(p),
                           1e-10)


def _near_singular(rng, n, smallest):
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return U @ np.diag(np.logspace(0.0, np.log10(smallest), n)) @ V.T


@given(st.integers(0, 10**6), st.integers(1, 60),
       st.sampled_from([None, 1e-6, 1e-11, 1e-12, 1e-13]))
def test_rcond_estimate_is_within_n_of_the_svd_rcond(seed, n, smallest):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) if smallest is None else _near_singular(rng, n, smallest)
    s = np.linalg.svd(A, compute_uv=False)
    exact = s[-1] / s[0]
    r = rcond_estimate(A)
    assert exact / n <= r <= n * exact


def test_rcond_estimate_of_singular_and_empty_matrices():
    assert rcond_estimate(np.zeros((3, 3))) == 0.0
    assert rcond_estimate(np.ones((4, 4))) < 1e-15
    assert rcond_estimate(np.full((2, 2), np.nan)) == 0.0
    assert rcond_estimate(np.zeros((0, 0))) == 1.0


@given(st.integers(0, 10**6), st.integers(1, 50), st.integers(1, 50),
       st.sampled_from([1e-200, 1e-150, 1.0, 1e150, 1e200]), st.booleans())
def test_gram_norm_matches_the_svd_norm(seed, rows, cols, scale, symmetric):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols))
    if symmetric:
        A = A[: min(rows, cols), : min(rows, cols)]
        A = A + A.T
    A = scale * A
    exact = np.linalg.svd(A, compute_uv=False)[0]
    assert abs(_spec_norm(A) - exact) <= 1e-13 * exact


def test_gram_norm_of_zero_and_empty_matrices(monkeypatch):
    forbid_norm_eigensolves(monkeypatch)  # no eigensolve is needed
    assert _spec_norm(np.zeros((5, 3))) == 0.0
    assert _spec_norm(np.zeros((0, 4))) == 0.0


@given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([1e-200, 1e-150, 1.0, 1e150, 1e200]), st.booleans())
@example(1, 260, 210, 1.0, False)  # tall, at the Lanczos crossover and above
@example(2, 230, 240, 1e150, False)  # wide
def test_gram_norm_drops_exactly_zero_columns(seed, rows, cols, scale, symmetric):
    # ||[A, 0]|| = ||A||: padded copies of A give the same bits as A, on
    # the Gram path and on Lanczos, and the trimmed path matches the SVD
    # norm
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols))
    if symmetric:
        A = A[: min(rows, cols), : min(rows, cols)]
        A = A + A.T
    A = scale * A
    rows, cols = A.shape
    interleaved = np.zeros((rows, 2 * cols + 1))
    interleaved[:, 1::2] = A
    Z = np.zeros((rows, 1 + seed % 5))
    ref = _spec_norm(A)
    for padded in (np.hstack([A, Z]), np.hstack([Z, A]), interleaved):
        assert _spec_norm(padded) == ref
        exact = np.linalg.norm(padded, 2)
        assert abs(_spec_norm(padded) - exact) <= 1e-13 * exact


def test_gram_norm_of_a_padded_matrix_takes_the_trimmed_gram(monkeypatch):
    A = np.random.default_rng(1).standard_normal((9, 4))
    calls = record_norm_eigensolves(monkeypatch)
    _spec_norm(np.hstack([A, np.zeros((9, 7))]))
    assert calls == {"gram": [(4, 4)], "tridiagonal": []}


def _lanczos_cases():
    """Operands at or above the Lanczos crossover, each with its shape as
    residual_report meets it."""
    rng = np.random.default_rng(5)
    m = pencil.LANCZOS_MIN_ORDER
    S = rng.standard_normal((m + 20, m + 20))
    W = rng.standard_normal((m + 40, 6))
    # embed-n560's K: the n_phi electric unknowns carry n on their diagonal,
    # so the top eigenvalues cluster
    n_u, n_phi = m, m // 4
    K = rng.standard_normal((n_u + n_phi,) * 2)
    K = K + K.T
    K[n_u:, n_u:] += (n_u + n_phi) * np.eye(n_phi)
    padded = np.zeros((m + 30, 2 * m))
    padded[:, ::2] = rng.standard_normal((m + 30, m))
    return {
        "symmetric": S + S.T,
        "tall": rng.standard_normal((m + 60, m + 10)),
        "wide": rng.standard_normal((m + 5, 2 * m)),
        "rank_p": W @ np.diag([3.0, -2.0, 1.0, 0.5, -0.25, 0.1]) @ W.T,
        "clustered": K,
        "zero_columns": padded,
        "zero_rows_and_columns": sla.block_diag(S + S.T, np.zeros((m // 2, m // 2))),
    }


# the exactly symmetric cases: below TRIDIAGONAL_MAX_ORDER they take the
# tridiagonal reduction, not Lanczos
SYMMETRIC_CASES = ("clustered", "symmetric", "zero_rows_and_columns")


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("name", sorted(_lanczos_cases()))
def test_lanczos_norm_matches_the_gram_reference(name, scale, monkeypatch):
    A = scale * _lanczos_cases()[name]
    calls = []
    eigsh = pencil.spla.eigsh
    monkeypatch.setattr(pencil.spla, "eigsh", lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
    value = _spec_norm(A)
    ref = pencil._gram_norm(A)
    symmetric = name in SYMMETRIC_CASES
    assert calls == ([] if symmetric else [1])
    assert type(value) is float and type(ref) is float
    assert abs(value - ref) <= (1e-13 if symmetric else 1e-12) * ref
    assert _spec_norm(A) == value  # the seeded start vector repeats the bits


@given(st.integers(0, 10**6), st.integers(0, 4), st.integers(0, 4), st.integers(0, 3),
       st.sampled_from([1e-150, 1.0, 1e150]))
def test_block_diagonal_norm_is_the_svd_norm(seed, pairs, reals, zeros, scale):
    # diag(Lambda^-1, 0) of a real block layout, and any other matrix of
    # 1x1 and 2x2 diagonal blocks, in closed form with no eigensolve
    assume(pairs + reals)
    rng = np.random.default_rng(seed)
    values = list(rng.standard_normal(pairs) + 1j * rng.uniform(0.1, 2.0, pairs))
    values += list(rng.standard_normal(reals))
    Lam = sla.block_diag(sla.inv(sf.spectral.block_matrix(values, pairs)), np.zeros((zeros, zeros)))
    general = sla.block_diag(*[rng.standard_normal((k, k)) for k in (2, 1, 2, 2, 1)])
    for L in (scale * Lam, scale * general):
        exact = np.linalg.norm(L, 2)
        assert abs(_spec_norm(L) - exact) <= 1e-14 * exact


def test_block_diagonal_norm_of_other_matrices_is_spec_norm(monkeypatch):
    rng = np.random.default_rng(8)
    chained = np.diag(rng.standard_normal(5))
    chained[0, 1] = chained[2, 1] = 1.0  # a 3x3 block
    far = np.diag(rng.standard_normal(5))
    far[0, 3] = 2.0  # an entry off the tridiagonal
    calls = record_norm_eigensolves(monkeypatch)["gram"]
    for i, L in enumerate((chained, far, rng.standard_normal((4, 4)))):
        # near-block matrices take the general path: below the Lanczos
        # crossover and not symmetric, the Gram reference
        assert _spec_norm(L) == pencil._gram_norm(L)
        assert len(calls) == 2 * (i + 1)
    forbid_norm_eigensolves(monkeypatch)
    assert _spec_norm(np.zeros((3, 3))) == 0.0
    assert type(_spec_norm(np.diag([1.0, -3.0]))) is float


def test_lanczos_norm_of_an_all_zero_matrix_takes_no_eigensolve(monkeypatch):
    monkeypatch.setattr(pencil.spla, "eigsh", None)
    forbid_norm_eigensolves(monkeypatch)
    m = pencil.LANCZOS_MIN_ORDER
    assert _spec_norm(np.zeros((m + 10, m + 10))) == 0.0


def test_gram_norm_below_the_lanczos_crossover(monkeypatch):
    # the order is the smaller dimension after zero columns are dropped
    m = pencil.LANCZOS_MIN_ORDER
    monkeypatch.setattr(pencil.spla, "eigsh", None)
    A = np.zeros((m + 50, m + 50))
    A[:, : m - 1] = np.random.default_rng(6).standard_normal((m + 50, m - 1))
    assert type(_spec_norm(A)) is float
    assert type(_spec_norm(A[: m - 1].T)) is float


def test_norms_of_a_unit_scaled_operand_copy_only_for_lapack(monkeypatch):
    # max|B| = 1.0, as for the retained X2 = [X, [0; I]]: B / 1.0 is B bit
    # for bit, so Lanczos reads B itself, while dsytrd, which overwrites
    # its input, still gets a copy
    rng = np.random.default_rng(12)
    m = pencil.LANCZOS_MIN_ORDER + 20
    tall = np.hstack([rng.uniform(-0.9, 0.9, (m, 5)), np.eye(m)[:, : m - 10]])
    S = rng.uniform(-0.5, 0.5, (m, m))
    S = S + S.T
    S[3, 3] = -1.0
    assert pencil._scaled(tall)[0] is tall and pencil._scaled(S)[0] is S
    operands = []
    eigsh = pencil.spla.eigsh
    monkeypatch.setattr(pencil.spla, "eigsh", lambda op, **kw: operands.append(op) or eigsh(op, **kw))
    kept = tall.copy(), S.copy()
    values = (pencil._lanczos_norm(tall, False), pencil._lanczos_norm(S, True),
              pencil._tridiagonal_norm(S))
    assert np.shares_memory(operands[1], S)
    assert tall.tobytes() == kept[0].tobytes() and S.tobytes() == kept[1].tobytes()

    def copied(A, out=None, copy=False):
        return A / (scale := pencil._absmax(A)), scale

    monkeypatch.setattr(pencil, "_scaled", copied)
    assert values == (pencil._lanczos_norm(tall, False), pencil._lanczos_norm(S, True),
                      pencil._tridiagonal_norm(S))


def test_lanczos_norm_falls_back_to_the_gram_path(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise pencil.spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    cases = _lanczos_cases()
    monkeypatch.setattr(pencil.spla, "eigsh", no_convergence)
    for name, A in cases.items():
        value = _spec_norm(A)
        if name in SYMMETRIC_CASES:  # no ARPACK below TRIDIAGONAL_MAX_ORDER
            B = A[np.ix_(A.any(axis=0), A.any(axis=0))]
            assert value == pencil._tridiagonal_norm(B)
            assert abs(value - pencil._gram_norm(A)) <= 1e-13 * value
        else:
            assert type(value) is float and value == pencil._gram_norm(A)


def _clustered_k(rng, n_u, n_phi):
    """A K like the generated ones: the n_phi electric unknowns carry
    n_u + n_phi on their diagonal, so the top eigenvalues cluster."""
    K = rng.standard_normal((n_u + n_phi,) * 2)
    K = K + K.T
    K[n_u:, n_u:] += (n_u + n_phi) * np.eye(n_phi)
    return K


def _indefinite(rng, n):
    """A symmetric matrix whose most negative eigenvalue is the largest in
    modulus: eigenvalues in [-3, 1], -3 among them."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = (Q * np.r_[-3.0, rng.uniform(-2.9, 1.0, n - 1)]) @ Q.T
    return A + A.T  # exactly symmetric


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("family", ["clustered", "generated_K", "indefinite"])
def test_tridiagonal_norm_matches_a_40_digit_oracle(family, scale):
    # max(-lambda_min, lambda_max) at 40 digits, of the very doubles the
    # path sees; measured: at most 4.4e-16 relative (2 ulps) over these 27 cases
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        A = scale * {"clustered": lambda: _clustered_k(rng, 24, 8),
                     "generated_K": lambda: np.array(make_pencil(22, 8, seed=seed).K),
                     "indefinite": lambda: _indefinite(rng, 30)}[family]()
        assert np.array_equal(A, A.T)
        value = pencil._tridiagonal_norm(A)
        with mpmath.workdps(40):
            w = mpmath.eigsy(mpmath.matrix(A.tolist()), eigvals_only=True)
            exact = max(-min(w), max(w))
            if family == "indefinite":
                assert -min(w) > max(w)
            worst = max(worst, float(abs(mpmath.mpf(value) - exact) / exact))
        assert _spec_norm(A) == value
    assert worst <= 1e-14


def test_tridiagonal_norm_of_1x1_and_all_zero_operands(monkeypatch):
    forbid_norm_eigensolves(monkeypatch)  # no eigensolve is needed
    monkeypatch.setattr(pencil.spla, "eigsh", None)
    assert pencil._tridiagonal_norm(np.array([[-3.0]])) == 3.0
    assert pencil._tridiagonal_norm(np.zeros((0, 0))) == 0.0
    # after the zero columns and rows go: a 1x1 and an empty operand
    one = np.zeros((3, 2))
    one[1, 1] = -5e200
    assert _spec_norm(one) == 5e200 and _spec_norm(np.zeros((4, 3))) == 0.0


def test_symmetric_norm_below_the_crossover_takes_no_arpack(monkeypatch):
    def no_arpack(*args, **kwargs):
        raise AssertionError("eigsh called")

    rng = np.random.default_rng(4)
    n = pencil.TRIDIAGONAL_MAX_ORDER - 1
    cases = [_clustered_k(rng, n - n // 4, n // 4), _lanczos_cases()["clustered"]]
    refs = [pencil._gram_norm(A) for A in cases]
    monkeypatch.setattr(pencil.spla, "eigsh", no_arpack)
    calls = record_norm_eigensolves(monkeypatch)
    for A, ref in zip(cases, refs):
        value = _spec_norm(A)
        assert abs(value - ref) <= 1e-13 * ref
    assert calls == {"gram": [], "tridiagonal": [A.shape for A in cases]}


def test_arpack_failing_above_the_crossover_gives_the_tridiagonal_value(monkeypatch):
    def no_convergence(*args, **kwargs):
        calls.append(1)
        raise pencil.spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    n = pencil.TRIDIAGONAL_MAX_ORDER
    A = _clustered_k(np.random.default_rng(5), n - n // 4, n // 4)
    lanczos, exact = _spec_norm(A), pencil._tridiagonal_norm(A)
    assert abs(lanczos - exact) <= 1e-12 * exact
    calls = []
    monkeypatch.setattr(pencil.spla, "eigsh", no_convergence)
    assert _spec_norm(A) == exact and calls == [1]
    assert abs(exact - pencil._gram_norm(A)) <= 1e-13 * exact


def test_asymmetry_equals_the_two_copy_formula():
    def two_copies(A):
        return float(np.abs(A - A.T).max(initial=0.0) / max(np.abs(A).max(initial=0.0), 1e-300))

    rng = np.random.default_rng(9)
    S = rng.standard_normal((7, 7))
    cases = [rng.standard_normal((n, n)) * scale for n in (1, 2, 5, 40)
             for scale in (1e-200, 1.0, 1e200)]
    cases += [S + S.T, S + S.T + 1e-9 * np.triu(S, 1), -np.abs(S), np.zeros((3, 3)),
              np.zeros((0, 0))]
    for A in cases:
        assert pencil._asymmetry(A) == two_copies(A)


def test_gram_norm_calls_dsyevr_as_the_eigvalsh_wrapper_does():
    rng = np.random.default_rng(10)
    for n in range(1, pencil.LANCZOS_MIN_ORDER):
        for scale in (1e-200, 1.0, 1e200):
            A = scale * rng.standard_normal((n + 2, n))
            B = A / max(A.max(), -A.min())
            G = B.T @ B
            top = sla.eigvalsh(G.T, overwrite_a=True, subset_by_index=[n - 1] * 2)[0]
            assert pencil._gram_norm(A) == max(A.max(), -A.min()) * float(np.sqrt(top))


@given(st.integers(0, 10**6), st.integers(1, 50), st.integers(0, 30),
       st.sampled_from([None, 1e-6, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-16]))
def test_rank_rcond_agrees_with_the_svd_ratio(seed, cols, extra_rows, smallest):
    # the estimate lies within a factor of n of sigma_min / sigma_max,
    # so the 1e-12 rank test decides as the SVD does outside that band
    rng = np.random.default_rng(seed)
    rows = cols + extra_rows
    if smallest is None:
        X = rng.standard_normal((rows, cols))
    else:
        U, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
        V, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
        X = U @ np.diag(np.logspace(0.0, np.log10(smallest), cols)) @ V.T
    s = np.linalg.svd(X, compute_uv=False)
    exact = s[-1] / s[0]
    r = _rank_rcond(X)
    if exact >= 1e-13:
        assert exact / cols <= r <= cols * exact
    if exact > cols * 1e-12:
        assert r >= 1e-12
    if exact < 1e-12 / cols:
        assert r < 1e-12


def test_rank_rcond_of_wide_deficient_and_empty_matrices():
    X = np.random.default_rng(2).standard_normal((6, 3))
    assert _rank_rcond(X.T) == 0.0  # wide: never full column rank
    assert _rank_rcond(np.zeros((5, 3))) == 0.0
    assert _rank_rcond(np.full((5, 3), np.nan)) == 0.0
    assert _rank_rcond(np.column_stack([X, X[:, 1]])) < 1e-15
    assert _rank_rcond(np.zeros((4, 0))) == 1.0


def test_pencil_keeps_read_only_block_factors(small_pencil):
    p = small_pencil
    for lu, piv in (p._lu_mu, p._lu_kphi):
        assert not lu.flags.writeable and not piv.flags.writeable
    np.testing.assert_allclose(sla.lu_solve(p._lu_mu, p.M_u), np.eye(p.n_u), atol=1e-10)
