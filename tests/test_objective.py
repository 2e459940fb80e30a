"""Residual metrics, the update distance, and its minimization."""

import dataclasses
import gc
import os
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

import spilloverfree as sf
import spilloverfree.embedding
import spilloverfree.objective
from spilloverfree.errors import DimensionMismatch, IllDefined, MalformedBlocks, NoFeasiblePoint
from spilloverfree.pencil import _kept, _spec_norm

from conftest import EmbeddingCase, make_pencil, record_norm_eigensolves, theorem_data
from test_acceptance import scale_case


def test_rec_mk_zero_for_identical_systems(small_pencil):
    p = small_pencil
    assert sf.rec_mk(p.M_u, p.K, p.M_u, p.K) == 0.0


def test_rec_mk_weights_scale_each_term(small_pencil):
    p = small_pencil
    M2 = p.M_u + 0.1 * np.eye(p.n_u)
    K2 = p.K + 0.2 * np.eye(p.n)
    m_term = sf.rec_mk(p.M_u, p.K, M2, p.K)
    k_term = sf.rec_mk(p.M_u, p.K, p.M_u, K2)
    assert m_term > 0 and k_term > 0
    total = sf.rec_mk(p.M_u, p.K, M2, K2, tau1=2.0, tau2=3.0)
    assert np.isclose(total, 2.0 * m_term + 3.0 * k_term, rtol=1e-12)


def test_eigen_residual_tiny_on_true_eigendata():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    r = sf.eigen_residual(c.pencil.M_u, c.pencil.K, c.old.X, c.old.Lambda)
    assert r < 1e-13


def test_eigen_residual_large_on_wrong_eigendata():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    r = sf.eigen_residual(c.pencil.M_u, c.pencil.K, c.old.X, 2.0 * c.old.Lambda)
    assert r > 1e-4


def test_residual_report_fields():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    rep = sf.residual_report(c.pencil, u, c.old, c.target.Lambda, c.retained)
    assert rep.res1_original < 1e-12
    assert rep.res1_updated < 1e-12
    assert rep.res2_original < 1e-12
    assert rep.res2_updated < 1e-12
    assert rep.rec_mk >= 0.0
    assert rep.method == u.method
    assert rep.params_mode == c.params.mode
    assert rep.tau1 == 1.0 and rep.tau2 == 1.0


def _retained_operands(p, retained):
    """The public spillover residual's operands: X2 = [X_ret, [0; I]] and
    Lam2_prime = diag(Lambda^-1, 0), Lambda^-1 solved as the report does."""
    L3_inv = sla.solve(retained.Lambda, np.eye(retained.p))
    return (np.hstack([retained.X, spilloverfree.pencil._infinite_basis(p)]),
            sla.block_diag(L3_inv, np.zeros((p.n_phi, p.n_phi))))


def test_residual_report_takes_each_pencil_norm_once(monkeypatch):
    # ||M_u|| and ||K|| come from the pencil's cache, ||M_u~|| is ||M_u||
    # (choice_a leaves M_u bit for bit) and M_u - M_u~ = 0 has norm 0:
    # of the full-order matrices only K~ and K - K~ take an eigensolve,
    # the symmetric K~ by one tridiagonal reduction and K - K~ on the Gram
    # of its sketch Q^T (K - K~), of order n here (n < SKETCH_WIDTH).
    # The results are the values the public metrics give.
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    p, Lt = c.pencil, c.target.Lambda
    assert c.params.mode == "choice_a" and np.array_equal(u.M_u_tilde, p.M_u)
    p.norms()
    calls = record_norm_eigensolves(monkeypatch)
    rep = sf.residual_report(p, u, c.old, Lt, c.retained)
    monkeypatch.undo()
    # Grams: K - K~'s sketch (n x n), X2 (m x m, m = n - p), and the small
    # res1 operands; the two spillover numerators drop their n_phi
    # exactly-zero infinite columns (q3 x q3 Grams, q3 = n_u - p), and
    # ||Lam2_prime|| takes no eigensolve (block-diagonal closed form)
    q3, grams = c.retained.p, calls["gram"]
    assert calls["tridiagonal"] == [(p.n, p.n)]
    assert grams.count((p.n, p.n)) == 1
    assert sum(min(shape) >= p.n_u for shape in grams) == 2
    assert grams.count((q3, q3)) == 2
    assert abs(_spec_norm(u.K_tilde) - spilloverfree.pencil._gram_norm(u.K_tilde)) <= (
        1e-13 * _spec_norm(u.K_tilde))
    X2, Lam2p = _retained_operands(p, c.retained)
    assert rep.res1_original == sf.eigen_residual(p.M_u, p.K, c.old.X, c.old.Lambda)
    assert rep.res1_updated == sf.eigen_residual(u.M_u_tilde, u.K_tilde, u.X1_tilde, Lt)
    assert rep.res2_original == sf.retained_residual(p.M_u, p.K, X2, Lam2p)
    assert rep.res2_updated == sf.retained_residual(u.M_u_tilde, u.K_tilde, X2, Lam2p)
    assert rep.rec_mk == sf.rec_mk(p.M_u, p.K, u.M_u_tilde, u.K_tilde)


def test_embed_chain_takes_no_large_svd_and_one_gram_of_order_m(monkeypatch):
    # validate -> solve -> select -> embed -> residual_report at n = 168:
    # eigenvector ranks come from QR, norms from Gram eigensolves or, for
    # M_u, K and K~, one tridiagonal reduction each, and the only Gram of
    # order m = n - p is ||X2||'s (the spillover numerators and Lam2_prime
    # drop their infinite zero columns); ||K - K~|| takes the Gram of its
    # certified sketch, of order SKETCH_WIDTH
    n_u, n_phi, p = 120, 48, 6
    g = make_pencil(n_u, n_phi, seed=4, p=p, s_tilde=2)
    M_u, K = np.array(g.M_u), np.array(g.K)
    svds = []

    def counted(f, log):
        return lambda A, *a, **kw: log.append(np.shape(A)) or f(A, *a, **kw)

    svd = np.linalg.svd
    # np.linalg.norm(., 2) looks svd up in numpy's private linalg module
    for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
        monkeypatch.setattr(module, "svd", counted(svd, svds))
    monkeypatch.setattr(sla, "svd", counted(sla.svd, svds))
    calls = record_norm_eigensolves(monkeypatch)
    grams = calls["gram"]
    pencil = sf.validate_pencil(M_u, K, n_u, n_phi)
    spectrum = sf.solve_spectrum(pencil)
    vals = [lam for lam, _ in spectrum.finite_pairs]
    wanted = [z for v in [v for v in vals if v.imag > 0][:2] for z in (v, v.conjugate())]
    wanted += [v for v in vals if v.imag == 0][:2]
    old, kept = sf.select_eigendata(spectrum, wanted)
    retained = sf.retained_eigendata(spectrum, kept)
    target = sf.real_lambda_from_eigenvalues(
        sf.perturb_targets(wanted, 2, 0.3, 1, avoid=[vals[i] for i in kept]))
    params = sf.default_gamma_tilde(sf.compute_gamma1(pencil, old.X, s=old.s), old.s, target.s)
    u = sf.embed(pencil, old, target.Lambda, params)
    rep = sf.residual_report(pencil, u, old, target.Lambda, retained)
    monkeypatch.undo()
    assert max(rep.res1_updated, rep.res2_updated) < 1e-12
    m = pencil.n - p
    assert [shape for shape in svds if min(shape) >= 100] == []
    assert grams.count((m, m)) == 1
    width = spilloverfree.objective.SKETCH_WIDTH
    assert grams.count((width, width)) == 1
    assert sum(min(shape) >= n_u for shape in grams) == 1  # ||X2|| only
    assert calls["tridiagonal"] == [(n_u, n_u), (pencil.n, pencil.n), (pencil.n, pencil.n)]
    for A in (pencil.M_u, pencil.K, u.K_tilde):
        value = _spec_norm(A)
        assert abs(value - spilloverfree.pencil._gram_norm(A)) <= 1e-13 * value


def test_reports_and_checks_equal_the_public_definitions_above_the_lanczos_crossover(
        monkeypatch):
    # above the Lanczos crossover (residual_report's full-order operands
    # have order at least 200 here) the pencil norms are _spec_norm's like
    # every other norm, so the report and check_jordan_pair equal the
    # public Res1, Res2 and Rec.MK by ==: with the symmetric M_u, K and K~
    # on the tridiagonal reduction, as at this order, and on Lanczos, as
    # from TRIDIAGONAL_MAX_ORDER on. The report's Lanczos norms agree with
    # the Gram reference on the same operands, which ARPACK failing on
    # every call gives.
    n_u, n_phi, p = 210, 50, 6
    g = make_pencil(n_u, n_phi, seed=4, p=p, s_tilde=2)
    M_u, K = np.array(g.M_u), np.array(g.K)
    pencil = sf.validate_pencil(M_u, K, n_u, n_phi)
    spectrum = sf.solve_spectrum(pencil)
    vals = spectrum.eigenvalues
    wanted = [z for v in [v for v in vals if v.imag > 0][:2] for z in (v, v.conjugate())]
    wanted += [v for v in vals if v.imag == 0][:2]
    old, kept = sf.select_eigendata(spectrum, wanted)
    retained = sf.retained_eigendata(spectrum, kept)
    assert min(retained.p, pencil.n - p) >= spilloverfree.pencil.LANCZOS_MIN_ORDER
    target = sf.real_lambda_from_eigenvalues(
        sf.perturb_targets(wanted, 2, 0.3, 1, avoid=[vals[i] for i in kept]))
    params = sf.default_gamma_tilde(sf.compute_gamma1(pencil, old.X, s=old.s), old.s, target.s)
    u = sf.embed(pencil, old, target.Lambda, params)
    X2, Lam2p = _retained_operands(pencil, retained)
    c = sf.assemble_jordan_pair(spectrum)
    Jp = sla.block_diag(np.linalg.inv(c.J[:n_u, :n_u]), np.zeros((n_phi, n_phi)))
    d = spectrum.finite

    for max_order in (spilloverfree.pencil.TRIDIAGONAL_MAX_ORDER,
                      spilloverfree.pencil.LANCZOS_MIN_ORDER):
        monkeypatch.setattr(spilloverfree.pencil, "TRIDIAGONAL_MAX_ORDER", max_order)
        fresh = sf.validate_pencil(M_u, K, n_u, n_phi)
        rep = sf.residual_report(fresh, u, old, target.Lambda, retained)
        assert fresh.norms() == (_spec_norm(fresh.M_u), _spec_norm(fresh.K))
        public = {
            "res1_original": sf.eigen_residual(fresh.M_u, fresh.K, old.X, old.Lambda),
            "res1_updated": sf.eigen_residual(u.M_u_tilde, u.K_tilde, u.X1_tilde, target.Lambda),
            "res2_original": sf.retained_residual(fresh.M_u, fresh.K, X2, Lam2p),
            "res2_updated": sf.retained_residual(u.M_u_tilde, u.K_tilde, X2, Lam2p),
            "rec_mk": sf.rec_mk(fresh.M_u, fresh.K, u.M_u_tilde, u.K_tilde),
        }
        for field, value in public.items():
            assert getattr(rep, field) == value, (max_order, field)
        assert (sf.check_jordan_pair(fresh, c, 1e-8)["pencil_relation"].residual
                == sf.retained_residual(fresh.M_u, fresh.K, c.X, Jp))
        finite = sf.check_jordan_pair(fresh, sf.JordanPairCandidate(X=d.X, J=d.Lambda), 1e-8)
        assert finite["finite_relation"].residual == sf.eigen_residual(fresh.M_u, fresh.K, d.X,
                                                                       d.Lambda)
    monkeypatch.undo()
    for A in (M_u, K, u.K_tilde):
        value = _spec_norm(A)
        assert abs(value - spilloverfree.pencil._gram_norm(A)) <= 1e-13 * value

    calls = []

    def no_convergence(*args, **kwargs):
        calls.append(1)
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    gram = sf.residual_report(sf.validate_pencil(M_u, K, n_u, n_phi), u, old, target.Lambda,
                              retained)
    # X2 and the two spillover numerators; M_u, K and K~ take no Lanczos
    # below TRIDIAGONAL_MAX_ORDER
    assert len(calls) == 3
    for field in public:
        value, ref = getattr(rep, field), getattr(gram, field)
        assert type(value) is float
        assert abs(value - ref) <= 1e-12 * ref, field


def _mismatched_operands():
    """(public definition, operands with one shape wrong) pairs."""
    X2 = np.random.default_rng(0).standard_normal((5, 4))
    M_u, K, Lam = np.eye(3), np.eye(5), np.eye(4)
    return {
        "non_square_Lam2_prime": (sf.retained_residual, (M_u, K, X2, np.eye(4, 3))),
        "X2_rows": (sf.retained_residual, (M_u, K, X2[:4], Lam)),
        "Lam_order": (sf.eigen_residual, (M_u, K, X2, np.eye(3))),
        "M_u_tilde_order": (sf.rec_mk, (M_u, K, np.eye(2), K)),
        "K_below_M_u": (sf.eigen_residual, (np.eye(5), np.eye(3), X2[:3], Lam)),
    }


@pytest.mark.parametrize("case", sorted(_mismatched_operands()))
def test_public_definitions_reject_mismatched_shapes(case):
    f, operands = _mismatched_operands()[case]
    with pytest.raises(DimensionMismatch) as err:
        f(*operands)
    assert err.value.exit_code == 10


def _public_operands():
    """(public definition, C-ordered array operands) of one case."""
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    p, u = c.pencil, sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    X2, Lam2p = _retained_operands(p, c.retained)
    return {
        "eigen_residual": (sf.eigen_residual, (p.M_u, p.K, c.old.X, c.old.Lambda)),
        "retained_residual": (sf.retained_residual, (u.M_u_tilde, u.K_tilde, X2, Lam2p)),
        "rec_mk": (sf.rec_mk, (p.M_u, p.K, u.M_u_tilde, u.K_tilde)),
    }


@pytest.mark.parametrize("case", ["eigen_residual", "retained_residual", "rec_mk"])
def test_public_definitions_take_nested_lists(case):
    f, operands = _public_operands()[case]
    arrays = [np.ascontiguousarray(A) for A in operands]
    assert f(*[A.tolist() for A in arrays]) == f(*arrays)
    for i in range(len(arrays)):
        ragged = [A.tolist() for A in arrays]
        ragged[i][0] = ragged[i][0][:-1]
        with pytest.raises(DimensionMismatch) as err:
            f(*ragged)
        assert err.value.exit_code == 10


# Each entry that takes a matrix operand from its caller, and the checked
# operand it is called on below: every such operand goes through
# pencil._as_matrix, so each malformed form is DimensionMismatch (exit 10).
_OPERAND_ENTRIES = ("StructuredPencil", "ParameterSet", "compute_gamma1", "PreparedUpdate",
                    "residual_report", "_retained_side", "optimize_gamma_tilde",
                    "check_jordan_pair", "verify_theorem1", "reconstruct_theorem1",
                    "eigen_residual", "rec_mk")


@pytest.fixture(scope="module")
def operand_entries():
    """{entry: (call on one operand, a valid value of it)}."""
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    p, old, target, params = c.pencil, c.old, c.target.Lambda, c.params
    u = sf.embed(p, old, target, params)
    pair = sf.assemble_jordan_pair(c.spectrum)
    _, X, J1, G11, Phi = theorem_data(6, 2, seed=11)

    def holding(data, X):  # eigendata whose X has not passed RealSpectralData's own checks
        return types.SimpleNamespace(Lambda=data.Lambda, X=X, s=data.s, p=data.p)

    return {
        "StructuredPencil": (lambda A: sf.StructuredPencil(A, p.K, p.n_u, p.n_phi), p.M_u),
        "ParameterSet": (lambda A: sf.ParameterSet(params.Theta, A, params.s_tilde),
                         params.GammaTilde1),
        "compute_gamma1": (lambda A: sf.compute_gamma1(p, A, old.s), old.X),
        "PreparedUpdate": (lambda A: spilloverfree.embedding.PreparedUpdate(p, old, A), target),
        "residual_report": (lambda A: sf.residual_report(p, u, old, A, c.retained), target),
        "_retained_side": (lambda A: spilloverfree.objective._retained_side(
            p, holding(c.retained, A)), c.retained.X),
        "optimize_gamma_tilde": (lambda A: sf.optimize_gamma_tilde(p, old, target, A, params),
                                 params.Theta),
        "check_jordan_pair": (lambda A: sf.check_jordan_pair(
            p, sf.JordanPairCandidate(X=A, J=pair.J), 1e-8), pair.X),
        "verify_theorem1": (lambda A: sf.verify_theorem1(X, J1, A, Phi, 1e-10), G11),
        "reconstruct_theorem1": (lambda A: sf.reconstruct_theorem1(X, J1, G11, Phi, A),
                                 np.eye(2)),
        "eigen_residual": (lambda A: sf.eigen_residual(p.M_u, p.K, A, old.Lambda), old.X),
        "rec_mk": (lambda A: sf.rec_mk(p.M_u, p.K, A, p.K), p.M_u),
    }


def _malformed(A, how):
    if how == "shape":
        return A[:-1]
    if how == "non_numeric":
        return np.full(A.shape, "abc")
    A = np.array(A, dtype=float)
    A[0, -1] = np.nan
    return A


@pytest.mark.parametrize("how", ["shape", "non_numeric", "nan"])
@pytest.mark.parametrize("entry", _OPERAND_ENTRIES)
def test_every_entry_refuses_a_malformed_operand(operand_entries, entry, how):
    call, valid = operand_entries[entry]
    call(valid)
    with pytest.raises(DimensionMismatch) as err:
        call(_malformed(valid, how))
    assert err.value.exit_code == 10


def test_residual_report_res2_unavailable_without_retained():
    # omitted retained data gives no res2, also at small n (here n = 14)
    c = EmbeddingCase(10, 4, s_sel=1, n_real=1, s_tilde=1, seed=3)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    rep = sf.residual_report(c.pencil, u, c.old, c.target.Lambda)
    assert rep.res2_original is None and rep.res2_updated is None
    assert rep.res1_updated < 1e-12
    # passing the retained block restores them
    rep2 = sf.residual_report(c.pencil, u, c.old, c.target.Lambda, c.retained)
    assert rep2.res2_updated < 1e-12


def test_residual_report_res2_unavailable_beyond_oracle_limit():
    # n = 70, and no retained data is given
    c = EmbeddingCase(60, 10, s_sel=1, n_real=1, s_tilde=1, seed=5)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    rep = sf.residual_report(c.pencil, u, c.old, c.target.Lambda)
    assert rep.res2_original is None and rep.res2_updated is None
    # passing the retained block restores them
    rep2 = sf.residual_report(c.pencil, u, c.old, c.target.Lambda, c.retained)
    assert rep2.res2_updated < 1e-12


def test_residual_report_res2_none_when_nothing_is_retained():
    pencil = sf.validate_pencil(np.eye(1), np.array([[-2.0]]), 1, 0)
    spectrum = sf.solve_spectrum(pencil)
    old = sf.to_real_representation(list(spectrum.finite_pairs))
    params = sf.default_gamma_tilde(
        sf.compute_gamma1(pencil, old.X, s=old.s), old.s, old.s
    )
    target = np.array([[3.0]])
    u = sf.embed(pencil, old, target, params)
    rep = sf.residual_report(pencil, u, old, target)
    assert rep.res2_original is None and rep.res2_updated is None
    assert rep.res1_updated < 1e-14


def test_residual_report_argument_guards():
    c = EmbeddingCase(8, 3, s_sel=1, n_real=1, s_tilde=1, seed=7)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    with pytest.raises(DimensionMismatch):
        sf.residual_report(c.pencil, "nope", c.old, c.target.Lambda)
    with pytest.raises(DimensionMismatch):
        sf.residual_report(c.pencil, u, c.old, np.eye(5))
    with pytest.raises(DimensionMismatch):
        sf.residual_report(c.pencil, u, c.old, c.target.Lambda, tau1=0.0)
    with pytest.raises(DimensionMismatch):
        sf.residual_report(c.pencil, u, c.old, c.target.Lambda, tau2=-1.0)


def test_residual_report_rejects_singular_retained_lambda():
    c = EmbeddingCase(8, 3, s_sel=1, n_real=1, s_tilde=1, seed=7)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    rng = np.random.default_rng(1)
    bad = sf.RealSpectralData(
        Lambda=np.diag([1e-20, 1.0]),
        X=rng.standard_normal((c.pencil.n, 2)),
        s=0,
    )
    with pytest.raises(IllDefined):
        sf.residual_report(c.pencil, u, c.old, c.target.Lambda, bad)


def test_optimize_config_defaults():
    cfg = sf.OptimizeConfig()
    assert cfg.max_evals == 0
    assert cfg.restarts == 3
    assert cfg.penalty == 1e12


@pytest.mark.parametrize("settings", [{"tau1": 0.0}, {"tau2": -1.0}, {"max_evals": -5}])
def test_optimize_config_rejects_bad_settings(settings):
    # checked at construction, so no search starts with a weight the seed
    # certificate divides by, or with a negative evaluation budget
    with pytest.raises(DimensionMismatch):
        sf.OptimizeConfig(**settings)


def test_optimize_never_worse_than_seed():
    # tau1 = 0.01: the seed is not certified, so the search runs
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    cfg = sf.OptimizeConfig(max_evals=80, restarts=1, tau1=0.01)
    result = sf.optimize_gamma_tilde(
        c.pencil, c.old, c.target.Lambda, np.eye(c.old.p), c.params, cfg
    )
    f0 = sf.evaluate_rec_mk(c.pencil, c.old, c.target.Lambda, c.params, tau1=0.01)
    assert result.baseline_rec_mk == f0  # choice_a seed defines the baseline
    assert result.best_rec_mk <= f0
    assert result.best_rec_mk == min(min(result.trace), f0)
    assert result.iterations == len(result.trace)
    # the reported optimum must be reproducible from its parameters
    again = sf.evaluate_rec_mk(
        c.pencil, c.old, c.target.Lambda, result.best_params, tau1=0.01
    )
    assert again == result.best_rec_mk


def test_optimize_baseline_none_for_structure_change():
    c = EmbeddingCase(10, 4, s_sel=1, n_real=1, s_tilde=0, seed=3)
    assert c.params.mode == "custom"
    cfg = sf.OptimizeConfig(max_evals=60, restarts=1)
    result = sf.optimize_gamma_tilde(
        c.pencil, c.old, c.target.Lambda, np.eye(c.old.p), c.params, cfg
    )
    assert result.baseline_rec_mk is None
    assert np.isfinite(result.best_rec_mk)


def test_optimize_is_deterministic():
    c = EmbeddingCase(8, 3, s_sel=1, n_real=1, s_tilde=1, seed=7)
    cfg = sf.OptimizeConfig(max_evals=60, restarts=2, tau1=0.01)
    runs = [
        sf.optimize_gamma_tilde(
            c.pencil, c.old, c.target.Lambda, np.eye(c.old.p), c.params, cfg
        )
        for _ in range(2)
    ]
    assert runs[0].best_rec_mk == runs[1].best_rec_mk
    assert runs[0].iterations == runs[1].iterations
    assert runs[0].trace == runs[1].trace
    np.testing.assert_array_equal(
        runs[0].best_params.GammaTilde1, runs[1].best_params.GammaTilde1
    )


def test_optimize_restarts_add_evaluations():
    c = EmbeddingCase(8, 3, s_sel=1, n_real=1, s_tilde=1, seed=7)
    one = sf.optimize_gamma_tilde(
        c.pencil, c.old, c.target.Lambda, np.eye(c.old.p), c.params,
        sf.OptimizeConfig(max_evals=40, restarts=1, tau1=0.01),
    )
    three = sf.optimize_gamma_tilde(
        c.pencil, c.old, c.target.Lambda, np.eye(c.old.p), c.params,
        sf.OptimizeConfig(max_evals=40, restarts=3, tau1=0.01),
    )
    assert three.iterations > one.iterations


def test_optimize_theta_shape_guard():
    c = EmbeddingCase(8, 3, s_sel=1, n_real=1, s_tilde=1, seed=7)
    with pytest.raises(DimensionMismatch):
        sf.optimize_gamma_tilde(
            c.pencil, c.old, c.target.Lambda, np.eye(c.old.p + 1), c.params
        )


def test_optimize_rejects_a_theta_other_than_the_seeds():
    # the baseline and every trial point must come from the same family
    c = EmbeddingCase(8, 3, s_sel=1, n_real=1, s_tilde=1, seed=7)
    with pytest.raises(DimensionMismatch, match="seed's Theta"):
        sf.optimize_gamma_tilde(
            c.pencil, c.old, c.target.Lambda, 2.0 * np.eye(c.old.p), c.params
        )


def test_optimize_no_feasible_point(monkeypatch):
    c = EmbeddingCase(8, 3, s_sel=1, n_real=1, s_tilde=1, seed=7)
    cfg = sf.OptimizeConfig(max_evals=10, restarts=1)
    monkeypatch.setattr(
        spilloverfree.objective, "evaluate_rec_mk", lambda *a, **k: 1e12
    )
    with pytest.raises(NoFeasiblePoint):
        spilloverfree.objective.optimize_gamma_tilde(
            c.pencil, c.old, c.target.Lambda, np.eye(c.old.p), c.params, cfg
        )


def test_optimize_propagates_seed_failure():
    # an unusable seed parameter set raises instead of scoring a penalty
    pencil = sf.validate_pencil(np.array([[1.0]]), np.array([[-2.0]]), 1, 0)
    old = sf.RealSpectralData(Lambda=np.array([[1.0]]), X=np.array([[1.0]]), s=0)
    seed = sf.ParameterSet(Theta=np.eye(1), GammaTilde1=np.eye(1), s_tilde=0)
    with pytest.raises(IllDefined):
        sf.optimize_gamma_tilde(
            pencil, old, np.array([[2.0]]), np.eye(1), seed,
            sf.OptimizeConfig(max_evals=10, restarts=1),
        )


def _embedded_rec_mk(p, old, target_Lambda, params, tau1=1.0, tau2=1.0, *, prepared=None):
    """Reference objective: form the updated coefficients, then measure."""
    u = sf.embed(p, old, target_Lambda, params)
    return sf.rec_mk(p.M_u, p.K, u.M_u_tilde, u.K_tilde, tau1, tau2)


def _trial_params(case, count, seed):
    """The seed parameters, then count - 1 perturbed GammaTilde1 points
    with the same block layout (signs kept, pair entries shifted)."""
    s_tilde, q = case.params.s_tilde, case.old.p
    x0 = sf.gamma_free_params(case.params.GammaTilde1, s_tilde)
    rng = np.random.default_rng(seed)
    out = [case.params]
    for _ in range(count - 1):
        x = x0 * np.exp(0.3 * rng.standard_normal(q))
        x[: 2 * s_tilde] += 0.1 * np.abs(x0).max() * rng.standard_normal(2 * s_tilde)
        out.append(sf.ParameterSet(np.eye(q), sf.structured_gamma(x, s_tilde, q), s_tilde))
    return out


def test_prepared_objective_matches_embedded_reference():
    cases = [scale_case(seed) for seed in range(20)]
    cases.append(EmbeddingCase(10, 4, s_sel=1, n_real=1, s_tilde=0, seed=3))
    cases.append(EmbeddingCase(8, 4, s_sel=1, n_real=2, s_tilde=1, seed=2))
    assert cases[-2].old.s != cases[-2].target.s
    assert 4 * cases[-1].old.p > cases[-1].pencil.n_u
    for i, c in enumerate(cases):
        prepared = spilloverfree.embedding.PreparedUpdate(c.pencil, c.old, c.target.Lambda)
        for params in _trial_params(c, 6, seed=i):
            fast = sf.evaluate_rec_mk(c.pencil, c.old, c.target.Lambda, params)
            assert prepared.rec_mk(params) == fast
            for embed in (sf.embed_smw, sf.embed_direct):
                u = embed(c.pencil, c.old, c.target.Lambda, params)
                ref = sf.rec_mk(c.pencil.M_u, c.pencil.K, u.M_u_tilde, u.K_tilde)
                # absolute up to Rec.MK = 1; beyond, the n x n inversions of
                # embed_direct round in proportion to the size of the update
                assert abs(fast - ref) <= 1e-13 * max(1.0, ref), (i, embed.__name__, fast, ref)


def test_prepared_objective_rejects_wrong_pair_count_like_embed():
    c = scale_case(0)
    q = c.old.p
    G = sf.structured_gamma(np.arange(1.0, q + 1), 1, q)
    wrong = sf.ParameterSet(np.eye(q), G, s_tilde=1)
    assert c.target.s == 2
    for path in (sf.evaluate_rec_mk, sf.embed_smw, sf.embed_direct):
        with pytest.raises(MalformedBlocks, match="conjugate-pair blocks"):
            path(c.pencil, c.old, c.target.Lambda, wrong)


def test_prepared_objective_warns_on_asymmetric_core(caplog):
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    params = _trial_params(c, 2, seed=0)[1]
    prepared = spilloverfree.embedding.PreparedUpdate(c.pencil, c.old, c.target.Lambda)
    with caplog.at_level("WARNING", logger="spilloverfree.embedding"):
        prepared.rec_mk(params)
        assert "asymmetric" not in caplog.text
        # break the symmetry of X_1u^T M_u X_1u, as severe rounding would,
        # and drop the cores kept from the first call, which equal params
        # keep in any object
        prepared.WtX = prepared.WtX + np.triu(np.full_like(prepared.WtX, 1e-4), 1)
        prepared._cores = None
        prepared.rec_mk(params)
    assert "the mass update core came out asymmetric" in caplog.text


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_optimizer_trajectory_matches_embedded_reference(monkeypatch, seed):
    c = scale_case(seed)
    cfg = sf.OptimizeConfig(max_evals=150, restarts=1, tau1=0.01)
    args = (c.pencil, c.old, c.target.Lambda, np.eye(c.old.p), c.params, cfg)
    fast = sf.optimize_gamma_tilde(*args)
    monkeypatch.setattr(spilloverfree.objective, "evaluate_rec_mk", _embedded_rec_mk)
    ref = sf.optimize_gamma_tilde(*args)
    assert fast.iterations == ref.iterations
    assert fast.best_rec_mk == pytest.approx(ref.best_rec_mk, rel=1e-12, abs=0)
    assert fast.baseline_rec_mk == pytest.approx(ref.baseline_rec_mk, rel=1e-12, abs=0)


def test_optimizer_near_the_seed_logs_no_asymmetry(caplog):
    # near the seed the p x p core is about zero, so its rounding noise
    # must be measured against the pencil, not against the core itself
    for seed in range(3):
        c = scale_case(seed)
        with caplog.at_level("WARNING", logger="spilloverfree.embedding"):
            sf.optimize_gamma_tilde(c.pencil, c.old, c.target.Lambda, np.eye(c.old.p),
                                    c.params, sf.OptimizeConfig(restarts=1, tau1=0.01))
    assert "asymmetric" not in caplog.text


# -- the first-order certificate at the choice_a seed --------------------------

MAX_RHO = spilloverfree.objective.SEED_CERTIFICATE_MAX


def _certificate(case, tau1=1.0):
    prepared = spilloverfree.embedding.PreparedUpdate(case.pencil, case.old, case.target.Lambda)
    return prepared, prepared.seed_certificate(case.params, tau1, 1.0)


def test_certified_seed_is_returned_without_a_search():
    c = scale_case(0)
    result = sf.optimize_gamma_tilde(c.pencil, c.old, c.target.Lambda, np.eye(c.old.p),
                                     c.params, sf.OptimizeConfig(restarts=3))
    assert 0.0 <= result.certificate < MAX_RHO
    assert result.certificate == _certificate(c)[1]
    assert result.best_params is c.params
    assert result.best_rec_mk == result.baseline_rec_mk
    assert result.best_rec_mk == sf.evaluate_rec_mk(c.pencil, c.old, c.target.Lambda, c.params)
    assert (result.iterations, result.converged, result.trace) == (0, True, ())


def test_seed_certificate_is_sound():
    # wherever it fires, no nearby GammaTilde1 scores below the seed
    fired = 0
    for seed in range(20):
        c = scale_case(seed)
        prepared, rho = _certificate(c)
        if rho is None or rho >= MAX_RHO:
            continue
        fired += 1
        s_tilde, q = c.params.s_tilde, c.old.p
        x0 = sf.gamma_free_params(c.params.GammaTilde1, s_tilde)
        f0 = prepared.rec_mk(c.params)
        rng = np.random.default_rng(seed)
        for step in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
            for _ in range(12):
                d = rng.standard_normal(q)
                x = x0 + step * np.abs(x0).max() * d / np.linalg.norm(d)
                trial = sf.ParameterSet(np.eye(q), sf.structured_gamma(x, s_tilde, q), s_tilde)
                assert prepared.rec_mk(trial) > f0, (seed, step)
    assert fired == 20


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_forced_search_returns_the_certified_seed(monkeypatch, seed):
    c = scale_case(seed)
    assert _certificate(c)[1] < MAX_RHO
    monkeypatch.setattr(spilloverfree.embedding.PreparedUpdate, "seed_certificate",
                        lambda *a, **k: None)
    result = sf.optimize_gamma_tilde(c.pencil, c.old, c.target.Lambda, np.eye(c.old.p),
                                     c.params, sf.OptimizeConfig(restarts=1))
    assert result.certificate is None
    assert result.iterations > 0
    assert result.best_rec_mk == result.baseline_rec_mk
    assert result.best_params is c.params


def test_no_certificate_where_the_search_improves():
    # at a small mass weight the seed is no longer a local minimum
    c = scale_case(0)
    result = sf.optimize_gamma_tilde(c.pencil, c.old, c.target.Lambda, np.eye(c.old.p),
                                     c.params, sf.OptimizeConfig(restarts=1, tau1=0.01))
    assert result.certificate >= MAX_RHO
    assert result.iterations > 0
    assert result.best_rec_mk < result.baseline_rec_mk


def test_seed_certificate_needs_a_zero_mass_core():
    # a structure change has no choice_a seed: the mass core is not zero
    c = EmbeddingCase(10, 4, s_sel=1, n_real=1, s_tilde=0, seed=3)
    assert c.params.mode == "custom"
    assert _certificate(c)[1] is None
    result = sf.optimize_gamma_tilde(c.pencil, c.old, c.target.Lambda, np.eye(c.old.p),
                                     c.params, sf.OptimizeConfig(max_evals=30, restarts=1))
    assert result.certificate is None and result.iterations > 0


def _per_direction_certificate(prepared, params, tau1=1.0, tau2=1.0):
    """seed_certificate's ratio with one p x p solve per direction E_j,
    as its docstring states it: the reference for the stacked arrays."""
    core_m, _, core_k, cap_k, iGt = prepared.woodbury_cores(params)
    R_w, R_z, (norm_m, norm_k) = prepared.R_w, prepared.R_z, prepared.norms
    q, Th = params.p, params.Theta
    C0 = sla.solve(cap_k.T, core_k.T).T
    w, V = np.linalg.eigh(R_z @ (0.5 * (C0 + C0.T)) @ R_z.T)
    top = np.argmax(np.abs(w))
    sigma, u = np.sign(w[top]), R_z.T @ V[:, top]
    rows, upper = np.triu_indices(q)
    weight = np.where(rows == upper, 1.0, np.sqrt(2.0))
    A, g = np.empty((q, rows.size)), np.empty(q)
    for j, E in enumerate(np.eye(q)):
        dG = -iGt @ sf.structured_gamma(E, params.s_tilde, q) @ iGt
        L = R_w @ (Th @ dG @ Th.T) @ R_w.T
        A[j] = weight * (0.5 * (L + L.T))[rows, upper]
        dC = sla.solve(cap_k.T, ((np.eye(q) - C0 @ prepared.ZtX)
                                 @ (-Th @ prepared.iLt @ dG @ Th.T)).T).T
        g[j] = sigma * (u @ dC @ u)
    y = np.linalg.lstsq(A, tau2 * g / norm_k, rcond=None)[0]
    Y = np.zeros((q, q))
    Y[rows, upper] = y / weight
    Y = Y + np.triu(Y, 1).T
    return float(np.abs(np.linalg.eigvalsh(Y)).sum() * norm_m / tau1)


@pytest.mark.parametrize("tau1", [1.0, 0.01])
def test_stacked_seed_certificate_matches_the_per_direction_reference(tau1):
    for seed in range(6):
        c = scale_case(seed)
        prepared, rho = _certificate(c, tau1)
        ref = _per_direction_certificate(prepared, c.params, tau1)
        assert abs(rho - ref) <= 1e-12 * ref, (seed, rho, ref)


# -- Rec.MK distances on a certified sketch ------------------------------------


def _low_rank_update(n, rank, seed):
    """A symmetric A and A~ = A - U diag(d) U^T with rank(U) = rank."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    U = rng.standard_normal((n, rank))
    d = rng.uniform(0.5, 2.0, rank) * rng.choice([-1.0, 1.0], rank)
    return A + A.T, A + A.T - (U * d) @ U.T


def _counted_spec_norm(monkeypatch):
    shapes = []
    norm = spilloverfree.objective._spec_norm
    monkeypatch.setattr(spilloverfree.objective, "_spec_norm",
                        lambda B: shapes.append(B.shape) or norm(B))
    return shapes


@pytest.mark.parametrize("n", [12, 140, 260])
def test_sketch_distance_matches_the_gram_reference(monkeypatch, n):
    shapes = _counted_spec_norm(monkeypatch)
    width = min(n, spilloverfree.objective.SKETCH_WIDTH)
    for rank in range(1, 13):
        A, A_tilde = _low_rank_update(n, rank, seed=rank)
        shapes.clear()
        value = spilloverfree.objective._distance(A, A_tilde)
        ref = spilloverfree.pencil._gram_norm(A - A_tilde)
        assert shapes == [(width, n)], rank  # the sketch's norm, no fallback
        assert type(value) is float and abs(value - ref) <= 1e-13 * ref, (rank, value, ref)


@pytest.mark.parametrize("rank", [17, 40, 140])
def test_sketch_distance_falls_back_above_the_sketch_width(monkeypatch, rank):
    n = 140
    A, A_tilde = _low_rank_update(n, rank, seed=rank)
    shapes = _counted_spec_norm(monkeypatch)
    value = spilloverfree.objective._distance(A, A_tilde)
    assert shapes == [(spilloverfree.objective.SKETCH_WIDTH, n), (n, n)]
    monkeypatch.undo()
    assert value == _spec_norm(A - A_tilde)


def test_sketch_distance_of_equal_matrices_is_zero(monkeypatch):
    A = _low_rank_update(30, 1, seed=0)[0]
    shapes = _counted_spec_norm(monkeypatch)
    assert spilloverfree.objective._distance(A, A.copy()) == 0.0
    assert shapes == []


def test_rec_mk_of_an_optimized_update_matches_the_gram_reference():
    # after a structure change both M_u - M_u~ and K - K~ are nonzero
    c = EmbeddingCase(100, 40, s_sel=1, n_real=2, s_tilde=0, seed=3)
    result = sf.optimize_gamma_tilde(c.pencil, c.old, c.target.Lambda, np.eye(c.old.p),
                                     c.params, sf.OptimizeConfig(max_evals=60, restarts=1))
    u = sf.embed(c.pencil, c.old, c.target.Lambda, result.best_params)
    p, gram = c.pencil, spilloverfree.pencil._gram_norm
    dm, dk = gram(p.M_u - u.M_u_tilde), gram(p.K - u.K_tilde)
    assert dm > 0 and dk > 0
    ref = dm / gram(p.M_u) + dk / gram(p.K)
    value = sf.rec_mk(p.M_u, p.K, u.M_u_tilde, u.K_tilde)
    assert abs(value - ref) <= 1e-13 * ref
    rep = sf.residual_report(p, u, c.old, c.target.Lambda, c.retained)
    assert rep.rec_mk == value
    X2, Lam2p = _retained_operands(p, c.retained)
    assert rep.res2_updated == sf.retained_residual(u.M_u_tilde, u.K_tilde, X2, Lam2p)
    assert rep.res1_updated == sf.eigen_residual(u.M_u_tilde, u.K_tilde, u.X1_tilde,
                                                 c.target.Lambda)


# -- state kept between calls: reuse by value ----------------------------------


def test_kept_state_is_keyed_on_copies_of_the_callers_arrays():
    owner, built = types.SimpleNamespace(slot=None), []

    def build(*copies):
        built.append(copies)
        return len(built)

    key = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    assert _kept(owner, "slot", build, key, 2) == 1
    copy = built[0][0]
    assert owner.slot == (built[0], 1)
    assert np.array_equal(copy, key) and not np.shares_memory(copy, key)
    assert copy.flags.c_contiguous
    # equal values in another object reuse the value; any edit builds again
    assert _kept(owner, "slot", build, np.array(key), 2) == 1
    key[0, 0] = -1.0
    assert _kept(owner, "slot", build, key, 2) == 2
    assert _kept(owner, "slot", build, key, 3) == 3
    assert len(built) == 3


def _counted(monkeypatch, owner, name):
    """The argument tuples of every call to owner.<name>, which still runs."""
    calls, f = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or f(*a))
    return calls


def _counted_preparations(monkeypatch):
    return _counted(monkeypatch, spilloverfree.embedding.PreparedUpdate, "__init__")


def test_equal_eigendata_in_new_objects_reuse_the_prepared_update(monkeypatch):
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    built = _counted_preparations(monkeypatch)
    # a fresh selection of the same eigenvalues, as each optimize-n140 job makes
    old = sf.select_eigendata(c.spectrum, [lam for lam, _ in sf.from_real_representation(c.old)])[0]
    assert old is not c.old and old.X is not c.old.X
    again = sf.embed(c.pencil, old, np.array(c.target.Lambda), c.params)
    assert built == []
    assert np.array_equal(u.K_tilde, again.K_tilde) and np.array_equal(u.M_u_tilde, again.M_u_tilde)


def test_an_equal_parameter_set_in_a_new_object_reuses_the_cores(monkeypatch):
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    prepared = spilloverfree.embedding.PreparedUpdate(c.pencil, c.old, c.target.Lambda)
    calls = _counted_gamma_inverses(monkeypatch)
    first = prepared.woodbury_cores(c.params)
    # mode does not enter the cores
    equal = sf.ParameterSet(np.array(c.params.Theta), np.array(c.params.GammaTilde1),
                            c.params.s_tilde, mode="custom")
    assert prepared.woodbury_cores(equal) is first and calls == [c.params]


# -- one PreparedUpdate per optimize -> embed pass -----------------------------


def test_embed_after_the_search_prepares_the_update_once(monkeypatch):
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    built = _counted_preparations(monkeypatch)
    result = sf.optimize_gamma_tilde(c.pencil, c.old, c.target.Lambda, np.eye(c.old.p),
                                     c.params, sf.OptimizeConfig(restarts=1, tau1=0.01))
    assert result.iterations > 0
    sf.evaluate_rec_mk(c.pencil, c.old, c.target.Lambda, result.best_params)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, result.best_params)
    assert len(built) == 1
    monkeypatch.undo()
    c.pencil._prepared = None
    fresh = sf.embed(c.pencil, c.old, c.target.Lambda, result.best_params)
    assert np.array_equal(u.K_tilde, fresh.K_tilde) and np.array_equal(u.M_u_tilde, fresh.M_u_tilde)


@pytest.mark.parametrize("edit", ["X", "Lambda", "target"])
def test_an_in_place_edit_prepares_the_update_again(monkeypatch, edit):
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    Lt = np.array(c.target.Lambda)
    sf.embed(c.pencil, c.old, Lt, c.params)
    built = _counted_preparations(monkeypatch)
    # a scaling keeps eigendata valid and every block layout in place
    {"X": c.old.X, "Lambda": c.old.Lambda, "target": Lt}[edit][...] *= 1.5
    params = sf.default_gamma_tilde(sf.compute_gamma1(c.pencil, c.old.X, s=c.old.s),
                                    c.old.s, c.target.s)
    u = sf.embed(c.pencil, c.old, Lt, params)
    assert len(built) == 1
    monkeypatch.undo()
    c.pencil._prepared = None
    fresh = sf.embed(c.pencil, c.old, Lt, params)
    assert np.array_equal(u.K_tilde, fresh.K_tilde) and np.array_equal(u.X1_tilde, fresh.X1_tilde)


def _counted_gamma_inverses(monkeypatch):
    calls = []
    inverse = spilloverfree.embedding.PreparedUpdate.gamma_tilde_inverse
    monkeypatch.setattr(spilloverfree.embedding.PreparedUpdate, "gamma_tilde_inverse",
                        lambda self, params: calls.append(params) or inverse(self, params))
    return calls


def test_an_optimize_then_embed_pass_computes_the_cores_once(monkeypatch):
    # the certified seed is scored, certified and embedded with one set of cores
    c = scale_case(0)
    calls = _counted_gamma_inverses(monkeypatch)
    result = sf.optimize_gamma_tilde(c.pencil, c.old, c.target.Lambda, np.eye(c.old.p),
                                     c.params, sf.OptimizeConfig(restarts=1))
    assert result.iterations == 0 and result.best_params is c.params
    u = sf.embed(c.pencil, c.old, c.target.Lambda, result.best_params)
    assert calls == [c.params]
    monkeypatch.undo()
    c.pencil._prepared = None
    fresh = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    assert np.array_equal(u.K_tilde, fresh.K_tilde) and np.array_equal(u.M_u_tilde, fresh.M_u_tilde)


@pytest.mark.parametrize("edit", ["Theta", "GammaTilde1"])
def test_an_in_place_parameter_edit_computes_the_cores_again(monkeypatch, edit):
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    q = c.old.p
    params = sf.ParameterSet(np.eye(q), np.array(c.params.GammaTilde1), c.params.s_tilde)
    prepared = spilloverfree.embedding.PreparedUpdate(c.pencil, c.old, c.target.Lambda)
    calls = _counted_gamma_inverses(monkeypatch)
    first = prepared.woodbury_cores(params)
    assert prepared.woodbury_cores(params) is first and len(calls) == 1
    # a scaling keeps the block pattern of GammaTilde1 and Theta nonsingular
    getattr(params, edit)[...] *= 1.5
    again = prepared.woodbury_cores(params)
    assert len(calls) == 2
    monkeypatch.undo()
    edited = sf.ParameterSet(np.array(params.Theta), np.array(params.GammaTilde1), params.s_tilde)
    ref = spilloverfree.embedding.PreparedUpdate(c.pencil, c.old, c.target.Lambda)
    for a, b in zip(again, ref.woodbury_cores(edited)):
        assert np.array_equal(a, b)
    assert not np.array_equal(again[2], first[2])  # core_k


# -- the retained side of Res2 once per pencil and selection -------------------


def _selection(spectrum, n_pairs, n_reals, target_seed):
    """(old, retained, target) for the first n_pairs pairs and n_reals
    reals, with targets perturbed from target_seed."""
    vals = [lam for lam, _ in spectrum.finite_pairs]
    wanted = [z for v in [v for v in vals if v.imag > 0][:n_pairs] for z in (v, v.conjugate())]
    wanted += [v for v in vals if v.imag == 0][:n_reals]
    old, kept = sf.select_eigendata(spectrum, wanted)
    retained = sf.retained_eigendata(spectrum, kept)
    target = sf.real_lambda_from_eigenvalues(
        sf.perturb_targets(wanted, n_pairs, 0.3, target_seed, avoid=[vals[i] for i in kept]))
    return old, retained, target


def _report(pencil, old, retained, target):
    """(u, report) of the default parameters' update."""
    params = sf.default_gamma_tilde(sf.compute_gamma1(pencil, old.X, s=old.s), old.s, target.s)
    u = sf.embed(pencil, old, target.Lambda, params)
    return u, sf.residual_report(pencil, u, old, target.Lambda, retained)


def _fresh_report(pencil, u, old, target, retained):
    fresh = sf.validate_pencil(np.array(pencil.M_u), np.array(pencil.K), pencil.n_u,
                               pencil.n_phi)
    return sf.residual_report(fresh, u, old, target.Lambda, retained)


def test_a_second_report_on_the_selection_takes_no_eigensolve_of_x2s_order(monkeypatch):
    n_u, n_phi, p = 120, 48, 6
    pencil = make_pencil(n_u, n_phi, seed=4, p=p, s_tilde=2)
    spectrum = sf.solve_spectrum(pencil)
    old, retained, target = _selection(spectrum, 2, 2, 1)
    first = _report(pencil, old, retained, target)[1]
    other = _selection(spectrum, 2, 2, 2)[2]
    assert not np.array_equal(other.Lambda, target.Lambda)
    grams = record_norm_eigensolves(monkeypatch)["gram"]
    u, second = _report(pencil, old, retained, other)
    monkeypatch.undo()
    m = pencil.n - p
    assert grams and grams.count((m, m)) == 0  # ||X2||'s Gram is not taken again
    assert second.res2_original == first.res2_original
    assert second == _fresh_report(pencil, u, old, other, retained)
    # a retained eigendata object that is another object with equal values shares the memo
    side = pencil._retained[1][0]
    copy = sf.RealSpectralData(np.array(retained.Lambda), np.array(retained.X), retained.s)
    sides = _counted(monkeypatch, spilloverfree.objective, "_RetainedSide")
    assert sf.residual_report(pencil, u, old, other.Lambda, copy) == second
    assert pencil._retained[1][0] is side and sides == []
    # the memo holds one copy of the retained X, and X2_u is a view of it
    kept_x = pencil._retained[0][1]
    assert not np.shares_memory(kept_x, retained.X) and np.shares_memory(side.X2u, kept_x)


@pytest.mark.parametrize("edit", ["X_u", "X_phi", "Lambda"])
def test_an_in_place_edit_of_the_retained_eigendata_rebuilds_the_memo(edit):
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    u, first = _report(c.pencil, c.old, c.retained, c.target)
    side, n_u = c.pencil._retained[1][0], c.pencil.n_u
    {"X_u": c.retained.X[:n_u], "X_phi": c.retained.X[n_u:],
     "Lambda": c.retained.Lambda}[edit][...] *= 1.5
    rep = sf.residual_report(c.pencil, u, c.old, c.target.Lambda, c.retained)
    assert c.pencil._retained[1][0] is not side
    assert rep == _fresh_report(c.pencil, u, c.old, c.target, c.retained)
    assert rep.res2_original != first.res2_original


def test_another_selection_rebuilds_the_memo():
    pencil = make_pencil(24, 10, seed=3, p=6, s_tilde=2)
    spectrum = sf.solve_spectrum(pencil)
    reports, sides = [], []
    for n_pairs, n_reals in ((2, 2), (1, 2), (2, 2)):
        old, retained, target = _selection(spectrum, n_pairs, n_reals, 1)
        u, rep = _report(pencil, old, retained, target)
        assert rep == _fresh_report(pencil, u, old, target, retained)
        reports.append(rep)
        sides.append(pencil._retained[1][0])
    assert sides[1] is not sides[0] and sides[2] is not sides[1]
    assert reports[0] == reports[2] and reports[1].res2_original != reports[0].res2_original


def test_a_dropped_pencil_is_freed_without_a_collection():
    g = make_pencil(10, 4, seed=3)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pencil = sf.validate_pencil(np.array(g.M_u), np.array(g.K), 10, 4)
        spectrum = sf.solve_spectrum(pencil)
        vals = spectrum.eigenvalues
        old, kept = sf.select_eigendata(spectrum, [vals[0], vals[1], vals[-1]])
        retained = sf.retained_eigendata(spectrum, kept)
        seed = sf.default_gamma_tilde(sf.compute_gamma1(pencil, old.X, s=old.s), old.s, old.s)
        result = sf.optimize_gamma_tilde(pencil, old, old.Lambda, np.eye(old.p), seed)
        u = sf.embed(pencil, old, old.Lambda, result.best_params)
        sf.residual_report(pencil, u, old, old.Lambda, retained)
        assert pencil._prepared is not None and pencil._retained is not None
        ref = weakref.ref(pencil)
        del pencil
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# -- the == claims at one BLAS thread ------------------------------------------

ONE_THREAD_TESTS = (
    "tests/test_objective.py::test_residual_report_takes_each_pencil_norm_once",
    "tests/test_objective.py::"
    "test_reports_and_checks_equal_the_public_definitions_above_the_lanczos_crossover",
    "tests/test_objective.py::test_rec_mk_of_an_optimized_update_matches_the_gram_reference",
    "tests/test_pencil.py::test_check_jordan_pair_relations_are_the_public_residuals",
)


def test_reports_equal_the_public_definitions_at_one_blas_thread():
    # the BLAS thread count moves the digits of a residual, so the report,
    # check_jordan_pair and the public functions must agree by == at one
    # thread as well as at the count this suite runs with
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             *ONE_THREAD_TESTS], cwd=root, env=env, capture_output=True,
                            text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:]
