"""Residual metrics, the update distance, and its minimization."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

import spilloverfree as sf
import spilloverfree.embedding
import spilloverfree.objective
from spilloverfree.errors import DimensionMismatch, IllDefined, MalformedBlocks, NoFeasiblePoint
from spilloverfree.pencil import _spec_norm

from conftest import EmbeddingCase, make_pencil
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


def test_residual_report_takes_each_pencil_norm_once(monkeypatch):
    # ||M_u|| and ||K|| come from the pencil's cache, ||M_u~|| is ||M_u||
    # (choice_a leaves M_u bit for bit) and M_u - M_u~ = 0 has norm 0:
    # of the full-order matrices only K~ and K - K~ take an eigensolve.
    # The results are the values the public metrics give.
    c = EmbeddingCase(10, 4, s_sel=1, n_real=2, s_tilde=1, seed=3)
    u = sf.embed(c.pencil, c.old, c.target.Lambda, c.params)
    p, Lt = c.pencil, c.target.Lambda
    assert c.params.mode == "choice_a" and np.array_equal(u.M_u_tilde, p.M_u)
    p.norms()
    calls = []
    eigvalsh = sla.eigvalsh
    monkeypatch.setattr(sla, "eigvalsh", lambda G, **kw: calls.append(G.shape) or eigvalsh(G, **kw))
    rep = sf.residual_report(p, u, c.old, Lt, c.retained)
    monkeypatch.undo()
    # K~ and K - K~ (n x n), X2 (m x m Gram, m = n - p), and the small
    # res1 operands; the two spillover numerators drop their n_phi
    # exactly-zero infinite columns (q3 x q3 Grams, q3 = n_u - p), and
    # ||Lam2_prime|| takes no eigensolve (block-diagonal closed form)
    q3 = c.retained.p
    assert calls.count((p.n, p.n)) == 2
    assert sum(min(shape) >= p.n_u for shape in calls) == 3
    assert calls.count((q3, q3)) == 2
    X2, Lam2p = spilloverfree.objective._retained_block_data(p, c.retained)
    assert rep.res1_original == sf.eigen_residual(p.M_u, p.K, c.old.X, c.old.Lambda)
    assert rep.res1_updated == sf.eigen_residual(u.M_u_tilde, u.K_tilde, u.X1_tilde, Lt)
    assert rep.res2_original == sf.retained_residual(p.M_u, p.K, X2, Lam2p)
    assert rep.res2_updated == sf.retained_residual(u.M_u_tilde, u.K_tilde, X2, Lam2p)
    assert rep.rec_mk == sf.rec_mk(p.M_u, p.K, u.M_u_tilde, u.K_tilde)


def test_embed_chain_takes_no_large_svd_and_one_gram_of_order_m(monkeypatch):
    # validate -> solve -> select -> embed -> residual_report at n = 168:
    # eigenvector ranks come from QR, norms from Gram eigensolves, and the
    # only Gram of order m = n - p is ||X2||'s (the spillover numerators
    # and Lam2_prime drop their infinite zero columns)
    n_u, n_phi, p = 120, 48, 6
    g = make_pencil(n_u, n_phi, seed=4, p=p, s_tilde=2)
    M_u, K = np.array(g.M_u), np.array(g.K)
    svds, grams = [], []

    def counted(f, log):
        return lambda A, *a, **kw: log.append(np.shape(A)) or f(A, *a, **kw)

    svd = np.linalg.svd
    # np.linalg.norm(., 2) looks svd up in numpy's private linalg module
    for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
        monkeypatch.setattr(module, "svd", counted(svd, svds))
    monkeypatch.setattr(sla, "svd", counted(sla.svd, svds))
    monkeypatch.setattr(sla, "eigvalsh", counted(sla.eigvalsh, grams))
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
    # besides ||X2||: ||M_u||, ||K||, ||K~|| and ||K - K~||
    assert sum(min(shape) >= n_u for shape in grams) == 5


def test_reports_and_checks_equal_the_public_definitions_above_the_lanczos_crossover(
        monkeypatch):
    # above the Lanczos crossover (residual_report's full-order operands
    # have order at least 200 here) the pencil norms are _spec_norm's like
    # every other norm, so the report and check_jordan_pair equal the
    # public Res1, Res2 and Rec.MK by ==. The report's Lanczos norms agree
    # with the Gram reference on the same operands, which ARPACK failing
    # on every call gives.
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
    rep = sf.residual_report(pencil, u, old, target.Lambda, retained)

    assert pencil.norms() == (_spec_norm(pencil.M_u), _spec_norm(pencil.K))
    X2, Lam2p = spilloverfree.objective._retained_block_data(pencil, retained)
    public = {
        "res1_original": sf.eigen_residual(pencil.M_u, pencil.K, old.X, old.Lambda),
        "res1_updated": sf.eigen_residual(u.M_u_tilde, u.K_tilde, u.X1_tilde, target.Lambda),
        "res2_original": sf.retained_residual(pencil.M_u, pencil.K, X2, Lam2p),
        "res2_updated": sf.retained_residual(u.M_u_tilde, u.K_tilde, X2, Lam2p),
        "rec_mk": sf.rec_mk(pencil.M_u, pencil.K, u.M_u_tilde, u.K_tilde),
    }
    for field, value in public.items():
        assert getattr(rep, field) == value, field
    c = sf.assemble_jordan_pair(spectrum)
    Jp = sla.block_diag(np.linalg.inv(c.J[:n_u, :n_u]), np.zeros((n_phi, n_phi)))
    assert (sf.check_jordan_pair(pencil, c, 1e-8)["pencil_relation"].residual
            == sf.retained_residual(pencil.M_u, pencil.K, c.X, Jp))
    d = spectrum.finite
    finite = sf.check_jordan_pair(pencil, sf.JordanPairCandidate(X=d.X, J=d.Lambda), 1e-8)
    assert finite["finite_relation"].residual == sf.eigen_residual(pencil.M_u, pencil.K, d.X,
                                                                   d.Lambda)

    calls = []

    def no_convergence(*args, **kwargs):
        calls.append(1)
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    gram = sf.residual_report(sf.validate_pencil(M_u, K, n_u, n_phi), u, old, target.Lambda,
                              retained)
    assert len(calls) >= 7  # M_u, K, K~, K - K~, X2 and the two spillover numerators
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
        # break the symmetry of X_1u^T M_u X_1u, as severe rounding would
        prepared.WtX = prepared.WtX + np.triu(np.full_like(prepared.WtX, 1e-4), 1)
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
