"""Eigenvalue replacement updates and the spectral-data reconstruction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spilloverfree as sf
import spilloverfree.embedding
from spilloverfree.errors import (
    AsymmetricInput,
    DimensionMismatch,
    IllDefined,
    MalformedBlocks,
    RankDeficient,
    Singular,
    SingularT,
)

from conftest import (
    EmbeddingCase,
    make_pencil,
    multiset_match,
    spectrum_values,
    theorem_data,
)


def rel_diff(A, B):
    return np.abs(A - B).max() / max(np.abs(B).max(), 1e-300)


# --------------------------------------------------------------- updates


def test_trivial_parameters_smw_returns_exact_input():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    u = sf.embed_smw(c.pencil, c.old, c.old.Lambda, c.params)
    assert np.array_equal(u.M_u_tilde, c.pencil.M_u)
    assert np.array_equal(u.K_tilde, c.pencil.K)
    assert u.params.mode == "choice_a"


def test_trivial_parameters_direct_close():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    u = sf.embed_direct(c.pencil, c.old, c.old.Lambda, c.params)
    assert rel_diff(u.M_u_tilde, c.pencil.M_u) < 1e-12
    assert rel_diff(u.K_tilde, c.pencil.K) < 1e-12


def test_embed_replaces_the_selected_multiset():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    upd = sf.validate_pencil(u.M_u_tilde, u.K_tilde, c.pencil.n_u, c.pencil.n_phi)
    s2 = sf.solve_spectrum(upd)
    want = list(c.retained_values) + list(c.target_values)
    multiset_match(spectrum_values(s2), want, 1e-8)
    assert s2.infinite_basis.shape[1] == c.pencil.n_phi


def test_direct_and_smw_agree():
    c = EmbeddingCase(12, 5, s_sel=2, n_real=1, s_tilde=2, seed=6)
    ud = sf.embed_direct(c.pencil, c.old, c.target.Lambda, c.params)
    uw = sf.embed_smw(c.pencil, c.old, c.target.Lambda, c.params)
    assert rel_diff(ud.M_u_tilde, uw.M_u_tilde) < 1e-10
    assert rel_diff(ud.K_tilde, uw.K_tilde) < 1e-10


def test_retained_eigenpairs_survive_unchanged():
    # the defining property: every eigenpair not selected still solves
    # the updated pencil, to machine precision
    c = EmbeddingCase(10, 4, s_sel=1, n_real=1, s_tilde=1, seed=3)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    M = np.zeros((c.pencil.n, c.pencil.n), dtype=complex)
    M[: c.pencil.n_u, : c.pencil.n_u] = u.M_u_tilde
    scale = np.linalg.norm(u.K_tilde, 2)
    for lam, x in c.spectrum.finite_pairs:
        if any(abs(lam - v) < 1e-9 for v in c.retained_values):
            r = np.linalg.norm((lam * M + u.K_tilde) @ x)
            assert r < 1e-11 * max(abs(lam), 1.0) * scale


def test_replaced_vectors_transform_by_theta():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=1, s_tilde=1, seed=3)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    np.testing.assert_array_equal(u.X1_tilde, c.old.X @ c.params.Theta)
    # and they are eigenvectors of the updated pencil for the targets
    M = np.zeros((c.pencil.n, c.pencil.n))
    M[: c.pencil.n_u, : c.pencil.n_u] = u.M_u_tilde
    R = M @ u.X1_tilde @ c.target.Lambda + u.K_tilde @ u.X1_tilde
    assert np.linalg.norm(R, 2) < 1e-11 * np.linalg.norm(u.K_tilde, 2)


def test_updated_matrices_exactly_symmetric():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    for embed in (sf.embed_direct, sf.embed):
        u = embed(c.pencil, c.old, c.target.Lambda, c.params)
        assert np.array_equal(u.M_u_tilde, u.M_u_tilde.T)
        assert np.array_equal(u.K_tilde, u.K_tilde.T)


def test_embed_takes_the_woodbury_path_when_p_is_large():
    # 4p > n_u: embed still solves only p x p systems and matches the
    # reference that inverts the full-size matrices
    c = EmbeddingCase(6, 2, s_sel=1, n_real=2, s_tilde=1, seed=12)
    assert 4 * c.old.p > c.pencil.n_u
    assert spilloverfree.embedding.embed_smw is spilloverfree.embedding.embed
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    ref = sf.embed_direct(c.pencil, c.old, c.target.Lambda, c.params)
    assert u.method == "smw" and ref.method == "direct"
    assert rel_diff(u.M_u_tilde, ref.M_u_tilde) < 1e-10
    assert rel_diff(u.K_tilde, ref.K_tilde) < 1e-10


def test_embed_structure_change_pair_to_reals():
    # replace one conjugate pair and one real by three reals
    c = EmbeddingCase(10, 4, s_sel=1, n_real=1, s_tilde=0, seed=3)
    assert c.params.mode == "custom"
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    upd = sf.validate_pencil(u.M_u_tilde, u.K_tilde, c.pencil.n_u, c.pencil.n_phi)
    s2 = sf.solve_spectrum(upd)
    multiset_match(
        spectrum_values(s2), list(c.retained_values) + list(c.target_values), 1e-8
    )


def test_embed_rejects_target_with_wrong_pair_count():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=1, s_tilde=1, seed=3)
    bad_target = np.diag([1.0, 2.0, 3.0])  # s=0, params say s_tilde=1
    with pytest.raises(MalformedBlocks):
        sf.embed(c.pencil, c.old, bad_target, c.params)


def test_embed_rejects_non_eigendata_gamma():
    # random vectors produce a Gamma_1 without the paired block layout,
    # which the commutation guard refuses
    pencil = make_pencil(8, 3, seed=2)
    rng = np.random.default_rng(0)
    Lam = np.array([[1.0, 2.0], [-2.0, 1.0]])
    old = sf.RealSpectralData(Lambda=Lam, X=rng.standard_normal((pencil.n, 2)), s=1)
    params = sf.ParameterSet(
        Theta=np.eye(2), GammaTilde1=sf.structured_gamma(np.array([1.0, 0.0]), 1, 2),
        s_tilde=1,
    )
    with pytest.raises(MalformedBlocks):
        sf.embed(pencil, old, Lam, params)


def test_embed_rejects_near_singular_stiffness():
    eps = 1e-14
    K = np.array([[1.0, 1.0], [1.0, 1.0 + eps]])
    pencil = sf.validate_pencil(np.eye(1), K, 1, 1)
    old = sf.RealSpectralData(
        Lambda=np.array([[-2.0]]), X=np.array([[1.0], [0.0]]), s=0
    )
    params = sf.ParameterSet(
        Theta=np.eye(1), GammaTilde1=np.eye(1), s_tilde=0
    )
    with pytest.raises(IllDefined):
        sf.embed(pencil, old, np.array([[-3.0]]), params)


def test_embed_ill_defined_update_both_paths():
    # scalar case tuned so the inverse-form inner matrix (and the
    # Woodbury capacitance) vanish exactly
    pencil = sf.validate_pencil(np.array([[1.0]]), np.array([[-2.0]]), 1, 0)
    old = sf.RealSpectralData(
        Lambda=np.array([[1.0]]), X=np.array([[1.0]]), s=0
    )
    params = sf.ParameterSet(Theta=np.eye(1), GammaTilde1=np.eye(1), s_tilde=0)
    target = np.array([[2.0]])
    with pytest.raises(IllDefined):
        sf.embed_direct(pencil, old, target, params)
    with pytest.raises(IllDefined):
        sf.embed_smw(pencil, old, target, params)


def test_embed_shape_guards():
    c = EmbeddingCase(6, 2, s_sel=1, n_real=0, s_tilde=1, seed=12)
    p_other = make_pencil(7, 2, seed=1)
    for embed in (sf.embed, sf.embed_direct):
        with pytest.raises(DimensionMismatch):
            embed(c.pencil, c.old, np.eye(3), c.params)  # target wrong order
        with pytest.raises(DimensionMismatch):
            embed(c.pencil, "not eigendata", c.target.Lambda, c.params)
        with pytest.raises(DimensionMismatch):
            embed(p_other, c.old, c.target.Lambda, c.params)  # row count differs


# ------------------------------------------------- parameters and gammas


grid_params = st.lists(
    st.integers(-9, 9).filter(lambda k: k != 0), min_size=1, max_size=6
)


@given(grid_params, st.integers(0, 3))
def test_structured_gamma_round_trip(ints, s_tilde):
    p = len(ints)
    if 2 * s_tilde > p:
        return
    values = np.array([k / 4.0 for k in ints])
    G = sf.structured_gamma(values, s_tilde, p)
    assert np.array_equal(G, G.T)
    np.testing.assert_array_equal(sf.gamma_free_params(G, s_tilde), values)
    # pair blocks are trace free, scalars sit on the diagonal
    for j in range(s_tilde):
        assert G[2 * j, 2 * j] == -G[2 * j + 1, 2 * j + 1]
        assert G[2 * j, 2 * j + 1] == G[2 * j + 1, 2 * j]


def test_structured_gamma_rejects_wrong_count():
    with pytest.raises(DimensionMismatch):
        sf.structured_gamma(np.ones(3), 1, 4)


def test_parameter_set_validation_errors():
    G2 = sf.structured_gamma(np.array([1.0, 0.5]), 1, 2)
    with pytest.raises(DimensionMismatch):
        sf.ParameterSet(Theta=np.ones((2, 3)), GammaTilde1=G2, s_tilde=1)
    with pytest.raises(DimensionMismatch):
        sf.ParameterSet(Theta=np.eye(3), GammaTilde1=G2, s_tilde=1)
    with pytest.raises(Singular):
        sf.ParameterSet(Theta=np.zeros((2, 2)), GammaTilde1=G2, s_tilde=1)
    with pytest.raises(Singular):
        sf.ParameterSet(Theta=np.eye(2), GammaTilde1=np.zeros((2, 2)), s_tilde=0)
    with pytest.raises(MalformedBlocks):
        sf.ParameterSet(Theta=np.eye(2), GammaTilde1=G2, s_tilde=2)
    with pytest.raises(MalformedBlocks):
        sf.ParameterSet(Theta=np.eye(2), GammaTilde1=G2, s_tilde=1, mode="choice_c")
    asym = np.array([[1.0, 0.5], [0.2, -1.0]])
    with pytest.raises(MalformedBlocks):
        sf.ParameterSet(Theta=np.eye(2), GammaTilde1=asym, s_tilde=1)
    # symmetric but not trace free: wrong layout for a pair block
    with pytest.raises(MalformedBlocks):
        sf.ParameterSet(Theta=np.eye(2), GammaTilde1=np.diag([1.0, 2.0]), s_tilde=1)


def test_compute_gamma1_matches_definition():
    c = EmbeddingCase(8, 3, s_sel=1, n_real=1, s_tilde=1, seed=7)
    G = sf.compute_gamma1(c.pencil, c.old.X, s=c.old.s)
    X1u = c.old.X[: c.pencil.n_u]
    ref = X1u.T @ c.pencil.M_u @ X1u
    np.testing.assert_allclose(G, 0.5 * (ref + ref.T), atol=1e-14)
    # eigendata gives the paired block pattern
    assert sf.gamma_free_params(G, c.old.s).shape == (c.old.p,)


def test_compute_gamma1_rank_deficient():
    p = make_pencil(6, 2, seed=1)
    s = sf.solve_spectrum(p)
    d = sf.to_real_representation(list(s.finite_pairs))
    X = d.X[:, :2].copy()
    X[:, 1] = X[:, 0]
    with pytest.raises(RankDeficient):
        sf.compute_gamma1(p, X, s=0)


def test_compute_gamma1_singular_gram():
    # full-rank vectors can still be degenerate against an indefinite mass
    M_u = np.diag([1.0, -1.0])
    pencil = sf.validate_pencil(M_u, np.eye(3), 2, 1)
    X1 = np.array([[1.0], [1.0], [0.0]])
    with pytest.raises(Singular):
        sf.compute_gamma1(pencil, X1, s=0)


def test_compute_gamma1_wrong_rows():
    p = make_pencil(6, 2, seed=1)
    with pytest.raises(DimensionMismatch):
        sf.compute_gamma1(p, np.ones((5, 2)), s=0)


def test_default_gamma_tilde_trivial_when_structure_kept():
    G = sf.structured_gamma(np.array([2.0, 0.5, -3.0]), 1, 3)
    ps = sf.default_gamma_tilde(G, 1, 1)
    assert ps.mode == "choice_a"
    np.testing.assert_array_equal(ps.Theta, np.eye(3))
    np.testing.assert_array_equal(ps.GammaTilde1, G)


def test_default_gamma_tilde_structure_change_seed():
    G = np.diag([-2.0, 3.0, -4.0])  # s = 0
    ps = sf.default_gamma_tilde(G, 0, 1)
    assert ps.mode == "custom"
    assert ps.s_tilde == 1
    np.testing.assert_array_equal(ps.Theta, np.eye(3))
    # unit pair block, scalar keeps the sign of the old diagonal
    np.testing.assert_array_equal(
        ps.GammaTilde1, sf.structured_gamma(np.array([1.0, 0.0, -1.0]), 1, 3)
    )


# --------------------------------------------- spectral data realization


def test_verify_theorem1_passes_on_true_data():
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    report = sf.verify_theorem1(X, J1, G11, Phi, 1e-10)
    assert report.passed, report.failed_names()
    names = {c.name for c in report.checks}
    assert names == {
        "nonsingular_x",
        "commutation",
        "nonsingular_t",
        "off_block",
        "phi_normalization",
    }


def test_verify_theorem1_detects_off_block_violation():
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    X = X.copy()
    X[0, -1] += 0.5  # structural component in an infinite column
    report = sf.verify_theorem1(X, J1, G11, Phi, 1e-10)
    assert not report.passed
    assert "off_block" in report.failed_names()


def test_verify_theorem1_detects_commutation_violation():
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    G11 = G11.copy()
    G11[0, 0] += 0.3
    G11[1, 1] += 0.17  # breaks the trace-free pair block
    report = sf.verify_theorem1(X, J1, G11, Phi, 1e-10)
    assert "commutation" in report.failed_names()


def test_verify_theorem1_singular_t():
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    with pytest.raises(SingularT):
        sf.verify_theorem1(X, J1, np.zeros_like(G11), Phi, 1e-10)


def test_verify_theorem1_singular_phi():
    # Phi itself is ill conditioned, but the matching row scaling keeps
    # T^-1 healthy so the dedicated Phi guard is the one that fires
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    X = X.copy()
    X[6] *= 1e-7
    Phi = np.diag([1e14, 1.0])
    with pytest.raises(IllDefined):
        sf.verify_theorem1(X, J1, G11, Phi, 1e-10)


def test_verify_theorem1_shape_errors():
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    with pytest.raises(DimensionMismatch):
        sf.verify_theorem1(X[:, :4], J1, G11, Phi, 1e-10)
    with pytest.raises(DimensionMismatch):
        sf.verify_theorem1(X, J1[:4, :4], G11, Phi, 1e-10)
    with pytest.raises(DimensionMismatch):
        sf.verify_theorem1(X, J1, G11[:4, :4], Phi, 1e-10)
    with pytest.raises(DimensionMismatch):
        sf.verify_theorem1(X, J1, G11, np.eye(3), 1e-10)
    with pytest.raises(DimensionMismatch):
        sf.verify_theorem1(X, np.eye(9), G11, Phi, 1e-10)


def test_reconstruct_theorem1_satisfies_relations():
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    rebuilt = sf.reconstruct_theorem1(X, J1, G11, Phi)
    # candidate J carries eigenvalue blocks; J1 holds their reciprocals
    J = np.zeros((8, 8))
    J[:6, :6] = np.linalg.inv(J1)
    report = sf.check_jordan_pair(rebuilt, sf.JordanPairCandidate(X=X, J=J), 1e-10)
    assert report.passed, report.failed_names()


def test_reconstruct_theorem1_recovers_the_source_pencil():
    # the electric stiffness block is genuine freedom; choosing the
    # original one must give back the original coefficients
    pencil, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    rebuilt = sf.reconstruct_theorem1(X, J1, G11, Phi, K22prime=pencil.K_phi)
    assert rel_diff(rebuilt.M_u, pencil.M_u) < 1e-10
    assert rel_diff(rebuilt.K, pencil.K) < 1e-10


def test_reconstruct_theorem1_two_k22_choices_same_finite_spectrum():
    pencil, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    a = sf.reconstruct_theorem1(X, J1, G11, Phi)
    b = sf.reconstruct_theorem1(X, J1, G11, Phi, K22prime=2.0 * np.eye(2))
    va = spectrum_values(sf.solve_spectrum(a))
    vb = spectrum_values(sf.solve_spectrum(b))
    want = spectrum_values(sf.solve_spectrum(pencil))
    multiset_match(va, want, 1e-8)
    multiset_match(vb, want, 1e-8)


def test_reconstruct_theorem1_rejects_bad_data():
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    Xb = X.copy()
    Xb[0, -1] += 0.5
    with pytest.raises(IllDefined):
        sf.reconstruct_theorem1(Xb, J1, G11, Phi)


def test_reconstruct_theorem1_k22_guards():
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    with pytest.raises(DimensionMismatch):
        sf.reconstruct_theorem1(X, J1, G11, Phi, K22prime=np.eye(3))
    with pytest.raises(IllDefined):
        sf.reconstruct_theorem1(
            X, J1, G11, Phi, K22prime=np.array([[1.0, 0.5], [0.0, 1.0]])
        )
    with pytest.raises(IllDefined):
        sf.reconstruct_theorem1(X, J1, G11, Phi, K22prime=np.zeros((2, 2)))


# ------------------------------------------------------------ asymmetry


def _theorem1_with_k22(K22prime):
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)
    sf.reconstruct_theorem1(X, J1, G11, Phi, K22prime=K22prime)


# Each guard on a relative asymmetry, with its tolerance and the signal it
# gives beyond it: an exception type, or None for the logged warning.
ASYMMETRY_GUARDS = {
    "validate_pencil": (
        sf.pencil.SYMMETRY_TOL,
        lambda A: sf.validate_pencil(A, np.eye(4), 2, 2),
        AsymmetricInput,
    ),
    "ParameterSet": (
        spilloverfree.embedding._PATTERN_TOL,
        lambda A: sf.ParameterSet(Theta=np.eye(2), GammaTilde1=A, s_tilde=0),
        MalformedBlocks,
    ),
    "_check_commutes": (
        spilloverfree.embedding._COMMUTATION_TOL,
        lambda A: spilloverfree.embedding._check_commutes("Gamma_1", A, np.eye(2)),
        MalformedBlocks,
    ),
    "K22prime": (spilloverfree.embedding.ASYMMETRY_WARN, _theorem1_with_k22, IllDefined),
    "_symmetrized": (
        spilloverfree.embedding.ASYMMETRY_WARN,
        lambda A: spilloverfree.embedding._symmetrized(A, "the test matrix"),
        None,
    ),
}


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("guard", sorted(ASYMMETRY_GUARDS))
def test_asymmetry_guards_trip_at_their_tolerance(guard, factor, caplog):
    tol, call, error = ASYMMETRY_GUARDS[guard]
    A = np.eye(2)
    A[0, 1] = factor * tol  # relative asymmetry factor * tol, as max|A| = 1
    with caplog.at_level("WARNING", logger="spilloverfree.embedding"):
        if factor > 1.0 and error is not None:
            with pytest.raises(error):
                call(A)
        else:
            call(A)
    warned = "the test matrix came out asymmetric" in caplog.text
    assert warned == (factor > 1.0 and error is None)
