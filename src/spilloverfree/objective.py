"""Residual metrics for updated systems and the update-distance objective.

Res1 measures how well eigendata satisfies its own pencil relation;
Res2 measures spillover: how well the *retained* eigendata (finite
remainder plus the infinite block) still satisfies the updated pencil.
Rec.MK is the weighted relative distance between original and updated
coefficients, the quantity minimized when the normalization matrix
GammaTilde1 is treated as a free parameter.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.optimize

from .embedding import (
    ILL_DEFINED_RCOND,
    ParameterSet,
    UpdatedSystem,
    _sym_norm,
    gamma_free_params,
    prepare_update,
    structured_gamma,
)
from .errors import (
    DimensionMismatch,
    IllDefined,
    MalformedBlocks,
    NoFeasiblePoint,
    RankDeficient,
    Singular,
)
from .pencil import rcond_estimate, solve_spectrum
from .spectral import (
    DEFAULT_MATCH_TOL,
    block_eigenvalues,
    retained_eigendata,
    select_eigendata,
)

log = logging.getLogger(__name__)

# Small enough that a dense full solve for the retained eigendata is
# cheap; above this the caller must supply the retained data itself.
ORACLE_LIMIT = 64


def _spec_norm(A):
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def _mass_apply(M_u, X):
    """diag(M_u, 0) @ X for an X with more rows than M_u has."""
    n_u = M_u.shape[0]
    out = np.zeros_like(X)
    out[:n_u] = M_u @ X[:n_u]
    return out


def rec_mk(M_u, K, M_u_tilde, K_tilde, tau1=1.0, tau2=1.0):
    """Weighted relative update distance
    tau1 * ||M_u - M_u~|| / ||M_u|| + tau2 * ||K - K~|| / ||K||."""
    dm = _sym_norm(np.asarray(M_u) - np.asarray(M_u_tilde)) / _sym_norm(M_u)
    dk = _sym_norm(np.asarray(K) - np.asarray(K_tilde)) / _sym_norm(K)
    return tau1 * dm + tau2 * dk


def eigen_residual(M_u, K, X, Lam):
    """Relative residual ||M X Lam + K X|| / ((||M|| ||Lam|| + ||K||) ||X||)
    of eigendata (Lam, X) against the pencil with mass diag(M_u, 0)."""
    num = _spec_norm(_mass_apply(M_u, X @ Lam) + K @ X)
    den = (_sym_norm(M_u) * _spec_norm(Lam) + _sym_norm(K)) * _spec_norm(X)
    return num / den if den else 0.0


def retained_residual(M_u, K, X2, Lam2_prime):
    """Relative residual ||M X2 + K X2 Lam2'|| / ((||M|| + ||K|| ||Lam2'||) ||X2||)
    in the inverse-eigenvalue form, which covers the infinite block
    (zero columns of Lam2') with no special casing."""
    num = _spec_norm(_mass_apply(M_u, X2) + K @ (X2 @ Lam2_prime))
    den = (_sym_norm(M_u) + _sym_norm(K) * _spec_norm(Lam2_prime)) * _spec_norm(X2)
    return num / den if den else 0.0


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of the original and updated systems on their own and on
    the retained eigendata, plus the update distance. res2 fields are
    None when retained eigendata was neither given nor computable."""

    res1_original: float
    res1_updated: float
    res2_original: float
    res2_updated: float
    rec_mk: float
    tau1: float
    tau2: float
    method: str
    params_mode: str


def _retained_block_data(p, old, retained, match_tol):
    """Resolve the retained eigendata (X2, Lam2_prime) or return None.

    When `retained` is None the full spectrum is recomputed (small
    instances only) and the selected eigenvalues are subtracted from it.
    """
    if retained is None:
        if p.n > ORACLE_LIMIT:
            return None
        vals = block_eigenvalues(old.Lambda, old.s)
        full = []
        for j, z in enumerate(vals):
            if j < old.s:
                full.extend([z, z.conjugate()])
            else:
                full.append(z)
        spectrum = solve_spectrum(p)
        _, kept_idx = select_eigendata(spectrum, full, match_tol=match_tol)
        retained = retained_eigendata(spectrum, kept_idx) if kept_idx else None

    if retained is None:
        q3 = 0
        X3 = np.zeros((p.n, 0))
        L3_inv = np.zeros((0, 0))
    else:
        if retained.X.shape[0] != p.n:
            raise DimensionMismatch(
                f"retained eigendata has {retained.X.shape[0]} rows, "
                f"pencil order is {p.n}"
            )
        q3 = retained.p
        X3 = retained.X
        r = rcond_estimate(retained.Lambda)
        if r < ILL_DEFINED_RCOND:
            raise IllDefined(
                f"the retained eigenvalue matrix is numerically singular "
                f"(rcond {r:.3e}); its inverse enters the spillover residual"
            )
        L3_inv = sla.solve(retained.Lambda, np.eye(q3))

    m = q3 + p.n_phi
    if m == 0:
        return None
    X2 = np.zeros((p.n, m))
    X2[:, :q3] = X3
    if p.n_phi:
        X2[p.n_u :, q3:] = np.eye(p.n_phi)
    Lam2p = np.zeros((m, m))
    Lam2p[:q3, :q3] = L3_inv
    return X2, Lam2p


def residual_report(
    p,
    u,
    old,
    target_Lambda,
    retained=None,
    tau1=1.0,
    tau2=1.0,
    *,
    match_tol=DEFAULT_MATCH_TOL,
):
    """Full residual accounting for one embedding run.

    `old` is the replaced eigendata of the original pencil, `u` the
    updated system, `target_Lambda` the replacement eigenvalue matrix.
    `retained` (optional) is the real representation of the kept finite
    eigenpairs; without it the spillover residuals are recomputed from
    scratch on small instances and reported as None on large ones.
    """
    if not isinstance(u, UpdatedSystem):
        raise DimensionMismatch("u must be an UpdatedSystem")
    target_Lambda = np.asarray(target_Lambda, dtype=float)
    if old.X.shape[0] != p.n:
        raise DimensionMismatch(
            f"eigendata has {old.X.shape[0]} rows, pencil order is {p.n}"
        )
    if u.n_u != p.n_u or u.n != p.n:
        raise DimensionMismatch("updated system dimensions do not match the pencil")
    if target_Lambda.shape != (old.p, old.p):
        raise DimensionMismatch(
            f"target matrix has shape {target_Lambda.shape}, expected "
            f"({old.p}, {old.p})"
        )
    if tau1 <= 0 or tau2 <= 0:
        raise DimensionMismatch("weights tau1, tau2 must be positive")

    res1_o = eigen_residual(p.M_u, p.K, old.X, old.Lambda)
    res1_u = eigen_residual(u.M_u_tilde, u.K_tilde, u.X1_tilde, target_Lambda)

    pair = _retained_block_data(p, old, retained, match_tol)
    if pair is None:
        res2_o = res2_u = None
    else:
        X2, Lam2p = pair
        res2_o = retained_residual(p.M_u, p.K, X2, Lam2p)
        res2_u = retained_residual(u.M_u_tilde, u.K_tilde, X2, Lam2p)

    return ResidualReport(
        res1_original=res1_o,
        res1_updated=res1_u,
        res2_original=res2_o,
        res2_updated=res2_u,
        rec_mk=rec_mk(p.M_u, p.K, u.M_u_tilde, u.K_tilde, tau1, tau2),
        tau1=tau1,
        tau2=tau2,
        method=u.method,
        params_mode=u.params.mode,
    )


@dataclass(frozen=True)
class OptimizeConfig:
    """Nelder-Mead settings for the update-distance minimization. method
    must name an embedding path but no longer changes the objective."""

    max_evals: int = 0  # 0 means 200 * p
    fatol: float = 1e-10
    simplex_scale: float = 0.1
    restarts: int = 3
    penalty: float = 1e12
    method: str = "auto"
    tau1: float = 1.0
    tau2: float = 1.0


@dataclass(frozen=True)
class OptimizationResult:
    best_params: ParameterSet
    best_rec_mk: float
    baseline_rec_mk: float
    iterations: int
    converged: bool
    trace: tuple


def evaluate_rec_mk(
    p, old, target_Lambda, params, method="auto", tau1=1.0, tau2=1.0, *, prepared=None
):
    """Rec.MK of one parameter set via PreparedUpdate.rec_mk, without
    forming the updated coefficients; raises whatever embed would raise.
    method is checked but no longer changes the value. `prepared`, from
    prepare_update(p, old, target_Lambda), saves rebuilding it."""
    if method not in ("auto", "smw", "direct"):
        raise DimensionMismatch(f"unknown embedding method {method!r}")
    if prepared is None:
        prepared = prepare_update(p, old, target_Lambda)
    return prepared.rec_mk(params, tau1, tau2)


def _restart_points(x0, s_tilde):
    """Deterministic restart seeds: the scalar entries of GammaTilde1
    carry a sign freedom the update distance is not convex in, so flip
    them wholesale and in a leading half."""
    points = [x0]
    p = x0.shape[0]
    scalars = list(range(2 * s_tilde, p))
    if scalars:
        flipped = x0.copy()
        flipped[scalars] *= -1.0
        points.append(flipped)
        half = x0.copy()
        half[scalars[: (len(scalars) + 1) // 2]] *= -1.0
        points.append(half)
    return points


def optimize_gamma_tilde(p, old, target_Lambda, Theta, seed, config=None):
    """Minimize Rec.MK over the free entries of GammaTilde1, Theta fixed.

    The p real parameters are the (a_j, b_j) of each 2x2 block and the
    scalars. Infeasible trial points (singular GammaTilde1, ill-defined
    update) score the configured penalty, so the search is effectively
    unconstrained. Evaluation of the seed itself is not shielded: a seed
    that cannot be embedded raises immediately. The update is prepared
    once, so each evaluation costs O(p^3) whatever the pencil order.
    """
    if config is None:
        config = OptimizeConfig()
    q = old.p
    s_tilde = seed.s_tilde
    Theta = np.asarray(Theta, dtype=float)
    if Theta.shape != (q, q):
        raise DimensionMismatch(
            f"Theta has shape {Theta.shape}, expected ({q}, {q})"
        )
    max_evals = config.max_evals or 200 * q

    def build(x):
        return ParameterSet(
            Theta=Theta,
            GammaTilde1=structured_gamma(x, s_tilde, q),
            s_tilde=s_tilde,
            mode="choice_b",
        )

    prepared = prepare_update(p, old, target_Lambda)

    def evaluate(params):
        return evaluate_rec_mk(p, old, target_Lambda, params, config.method,
                               config.tau1, config.tau2, prepared=prepared)

    x0 = gamma_free_params(seed.GammaTilde1, s_tilde)
    f0 = evaluate(seed)
    baseline = f0 if seed.mode == "choice_a" else None

    trace = []

    def objective(x):
        try:
            value = evaluate(build(x))
        except (IllDefined, Singular, RankDeficient, MalformedBlocks):
            value = config.penalty
        if not np.isfinite(value):
            value = config.penalty
        trace.append(value)
        return value

    best_params, best_f = seed, f0
    total_evals = 0
    converged = False
    delta = config.simplex_scale * max(1.0, float(np.abs(x0).max()))
    for start in _restart_points(x0, s_tilde)[: max(1, config.restarts)]:
        simplex = np.vstack([start] + [start + delta * e for e in np.eye(q)])
        res = scipy.optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "fatol": config.fatol,
                "xatol": np.inf,
                "maxfev": max_evals,
                "disp": False,
            },
        )
        total_evals += res.nfev
        converged = converged or bool(res.success)
        if res.fun < best_f:
            best_params, best_f = build(np.asarray(res.x, dtype=float)), float(res.fun)

    if best_f >= config.penalty:
        raise NoFeasiblePoint(
            "no parameter set reached a finite update distance; "
            "the seed and every restart scored the infeasibility penalty"
        )

    return OptimizationResult(
        best_params=best_params,
        best_rec_mk=best_f,
        baseline_rec_mk=baseline,
        iterations=total_evals,
        converged=converged,
        trace=tuple(trace),
    )
