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
from typing import ClassVar

import numpy as np
import scipy.linalg as sla

from .embedding import (
    ILL_DEFINED_RCOND,
    ParameterSet,
    UpdatedSystem,
    gamma_free_params,
    prepared_update,
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
from .pencil import (_beside, _RetainedSide, _as_matrix, _eigen_residual, _infinite_basis,
                     _kept, _spec_norm, _zero_block_order)
from .spectral import block_eigenvalues

log = logging.getLogger(__name__)

# optimize_gamma_tilde returns a seed whose seed_certificate ratio is below
# this without searching. A ratio below 1 proves a strict local minimum in
# exact arithmetic; the slack covers rounding in the p x p computation.
SEED_CERTIFICATE_MAX = 0.5
# Nelder-Mead's absolute tolerance on Rec.MK, and the edge of its initial
# simplex relative to the largest seed parameter (or 1).
_FATOL = 1e-10
_SIMPLEX_SCALE = 0.1
# Rec.MK takes ||D|| of a difference D as ||Q^T D|| with Q = orth(D Omega),
# Omega a seeded Gaussian of this many columns, where the remainder
# certifies it: ||D - Q Q^T D||_F <= SKETCH_TOL ||Q^T D|| bounds the
# relative error by SKETCH_TOL^2 / 2 in exact arithmetic. An update is a
# rank-p congruence, so its differences have rank at most p.
SKETCH_WIDTH = 16
SKETCH_TOL = 1e-13


def _distance(A, A_tilde, out=None):
    """||A - A_tilde||_2 by the certified sketch, else _spec_norm; the
    difference is formed in the head of a flat float array `out` if given."""
    D = np.subtract(A, A_tilde, out if out is None else out[: A.size].reshape(A.shape), dtype=float,
                    order="C")
    if not D.any():
        return 0.0
    Q = np.linalg.qr(D @ np.random.default_rng(0).standard_normal((D.shape[1], SKETCH_WIDTH)))[0]
    B = Q.T @ D
    # D - Q B in place: D.T is D's Fortran view, and D.T - B^T Q^T its remainder
    sla.blas.dgemm(-1.0, B.T, Q.T, 1.0, D.T, overwrite_c=True)
    norm = _spec_norm(B)
    if sla.blas.dnrm2(D.ravel()) <= SKETCH_TOL * norm:
        return norm
    return _spec_norm(np.subtract(A, A_tilde, dtype=float))


def _rec_mk(M_u, K, M_u_tilde, K_tilde, norm_m, norm_k, tau1, tau2, out=None):
    return (tau1 * _distance(M_u, M_u_tilde, out) / norm_m
            + tau2 * _distance(K, K_tilde, out) / norm_k)


def _check_operands(M_u, K, X, Lam, names=("X", "Lam")):
    """(M_u, K, X, Lam) as float arrays; DimensionMismatch unless they are
    finite matrices, all but X square, K of at least M_u's order, and X
    has K's order of rows and Lam's of columns."""
    M_u, K, Lam = (_as_matrix(A, name) for A, name in ((M_u, "M_u"), (K, "K"), (Lam, names[1])))
    if len(K) < len(M_u):
        raise DimensionMismatch(f"K of order {len(K)} is smaller than M_u of order {len(M_u)}")
    return M_u, K, _as_matrix(X, names[0], (len(K), len(Lam))), Lam


def rec_mk(M_u, K, M_u_tilde, K_tilde, tau1=1.0, tau2=1.0):
    """Weighted relative update distance
    tau1 * ||M_u - M_u~|| / ||M_u|| + tau2 * ||K - K~|| / ||K||."""
    M_u, K = _as_matrix(M_u, "M_u"), _as_matrix(K, "K")
    M_u_tilde = _as_matrix(M_u_tilde, "M_u_tilde", M_u.shape)
    K_tilde = _as_matrix(K_tilde, "K_tilde", K.shape)
    return _rec_mk(M_u, K, M_u_tilde, K_tilde, _spec_norm(M_u), _spec_norm(K), tau1, tau2)


def _check_weights(tau1, tau2):
    if not (0 < tau1 < np.inf and 0 < tau2 < np.inf):
        raise DimensionMismatch("weights tau1, tau2 must be positive and finite")


def eigen_residual(M_u, K, X, Lam):
    """Relative residual ||M X Lam + K X|| / ((||M|| ||Lam|| + ||K||) ||X||)
    of eigendata (Lam, X) against the pencil with mass diag(M_u, 0)."""
    M_u, K, X, Lam = _check_operands(M_u, K, X, Lam)
    return _eigen_residual(M_u, K, X, Lam, _spec_norm(M_u), _spec_norm(K))


def retained_residual(M_u, K, X2, Lam2_prime):
    """Relative residual ||M X2 + K X2 Lam2'|| / ((||M|| + ||K|| ||Lam2'||) ||X2||)
    in the inverse-eigenvalue form, which covers the infinite block
    (zero columns of Lam2') with no special casing. Lam2' = diag(L, 0)
    is split once; pencil._RetainedSide, which residual_report and
    check_jordan_pair use too, takes L, so they all agree by ==."""
    M_u, K, X2, Lam2_prime = _check_operands(M_u, K, X2, Lam2_prime, ("X2", "Lam2_prime"))
    q = _zero_block_order(Lam2_prime)
    side = _RetainedSide(X2, np.ascontiguousarray(Lam2_prime[:q, :q]), _spec_norm(X2), len(M_u))
    return side.residual(M_u, K, _spec_norm(M_u), _spec_norm(K))


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of the original and updated systems on their own and on
    the retained eigendata, plus the update distance. res2 fields are
    None when no retained eigendata was given."""

    res1_original: float
    res1_updated: float
    res2_original: float
    res2_updated: float
    rec_mk: float
    tau1: float
    tau2: float
    method: str
    params_mode: str


def _retained_side(p, retained):
    """(side, res2_original): the _RetainedSide of X2 = [X_ret, [0; I]] and
    Lambda^{-1}, and Res2 of p on it, kept by value on p (pencil._kept)
    on Lambda's nonzeros with their flat positions and on X: equal
    retained eigendata, in any object, get them again. The side's X2_u is
    a view of the one copy of X kept with them."""
    _as_matrix(retained.X, "the retained eigendata X", (p.n, None))

    def build(_, X):
        # each block of Lambda is |lam| times a rotation, so its singular
        # values are the moduli of its eigenvalues
        moduli = np.abs(block_eigenvalues(retained.Lambda, retained.s))
        r = moduli.min() / moduli.max()
        if r < ILL_DEFINED_RCOND:
            raise IllDefined(
                f"the retained eigenvalue matrix is numerically singular "
                f"(rcond {r:.3e}); its inverse enters the spillover residual"
            )
        # X2 lives only for its norm: the side needs only X2's finite columns
        norm_x = _spec_norm(np.hstack([X, _infinite_basis(p)]))
        side = _RetainedSide(X, sla.solve(retained.Lambda, np.eye(retained.p)), norm_x, p.n_u)
        return side, side.residual(p.M_u, p.K, *p.norms())

    nz = np.flatnonzero(retained.Lambda)  # at most 2 q for a block-diagonal Lambda
    return _kept(p, "_retained", build, np.vstack([nz, retained.Lambda.flat[nz]]), retained.X)


def residual_report(p, u, old, target_Lambda, retained=None, tau1=1.0, tau2=1.0):
    """Full residual accounting for one embedding run.

    `old` is the replaced eigendata of the original pencil, `u` the
    updated system, `target_Lambda` the replacement eigenvalue matrix.
    `retained` is the real representation of the kept finite eigenpairs
    (retained_eigendata of the solved spectrum). Without it the
    spillover residuals res2_original and res2_updated are None at every
    pencil order: this function never solves a spectrum.
    """
    if not isinstance(u, UpdatedSystem):
        raise DimensionMismatch("u must be an UpdatedSystem")
    for A, name, shape in ((old.X, "the eigendata X", (p.n, None)),
                           (u.X1_tilde, "X1_tilde", (p.n, old.p)),
                           (u.M_u_tilde, "M_u_tilde", (p.n_u, p.n_u)),
                           (u.K_tilde, "K_tilde", (p.n, p.n))):
        _as_matrix(A, name, shape)
    target_Lambda = _as_matrix(target_Lambda, "the target matrix", (old.p, old.p))
    _check_weights(tau1, tau2)

    # each pencil norm once: the residuals and Rec.MK share them; Rec.MK first caps peak memory
    norm_m, norm_k = p.norms()
    # an updated matrix equal to the original (choice_a's M_u~) shares its norm and M X2
    same_m = np.array_equal(u.M_u_tilde, p.M_u)
    norm_mt = norm_m if same_m else _spec_norm(u.M_u_tilde)
    out = np.empty(p.K.size)  # for the large operands of the call below, wherever it runs

    def updated_k():  # (||K~||, Rec.MK)
        norm_kt = norm_k if np.array_equal(u.K_tilde, p.K) else _spec_norm(u.K_tilde, out)
        return norm_kt, _rec_mk(p.M_u, p.K, u.M_u_tilde, u.K_tilde, norm_m, norm_k, tau1, tau2, out)

    res2_o = res2_u = None
    with _beside(updated_k, p.n_u) as updated:
        if retained is not None:
            side, res2_o = _retained_side(p, retained)
        norm_kt, rec = updated()
    res1_o = _eigen_residual(p.M_u, p.K, old.X, old.Lambda, norm_m, norm_k)
    res1_u = _eigen_residual(u.M_u_tilde, u.K_tilde, u.X1_tilde, target_Lambda,
                             norm_mt, norm_kt)
    if retained is not None:
        # M_u itself for an equal M_u~, so that M_u X2_u is formed once
        res2_u = side.residual(p.M_u if same_m else u.M_u_tilde, u.K_tilde, norm_mt, norm_kt)

    return ResidualReport(res1_original=res1_o, res1_updated=res1_u, res2_original=res2_o,
                          res2_updated=res2_u, rec_mk=rec, tau1=tau1, tau2=tau2,
                          method=u.method, params_mode=u.params.mode)


@dataclass(frozen=True)
class OptimizeConfig:
    """Nelder-Mead settings for the update-distance minimization. An
    infeasible trial point scores `penalty`, which is not a setting."""

    penalty: ClassVar[float] = 1e12
    max_evals: int = 0  # 0 means 200 * p
    restarts: int = 3
    tau1: float = 1.0
    tau2: float = 1.0

    def __post_init__(self):
        if self.max_evals < 0:
            raise DimensionMismatch(f"max_evals must be nonnegative, got {self.max_evals}")
        _check_weights(self.tau1, self.tau2)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of optimize_gamma_tilde. iterations counts objective
    evaluations (0 when the seed was certified and no search ran);
    certificate is the seed's seed_certificate ratio, None where it does
    not apply."""

    best_params: ParameterSet
    best_rec_mk: float
    baseline_rec_mk: float
    iterations: int
    converged: bool
    trace: tuple
    certificate: float = None


def evaluate_rec_mk(p, old, target_Lambda, params, tau1=1.0, tau2=1.0):
    """Rec.MK of one parameter set via PreparedUpdate.rec_mk on
    prepared_update's, without forming the updated coefficients; raises
    whatever embed would raise."""
    return prepared_update(p, old, target_Lambda).rec_mk(params, tau1, tau2)


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
    scalars. Theta must equal seed.Theta, so that the seed and every
    trial point belong to the same family. Infeasible trial points
    (singular GammaTilde1, ill-defined update) score
    OptimizeConfig.penalty, so the search is effectively unconstrained.
    Evaluation of the seed itself is not shielded: a seed that cannot be
    embedded raises immediately. The update is prepared once
    (prepared_update), so each evaluation costs O(p^3), plus the O(n p)
    comparison that finds the prepared update again.

    Where the seed scores below the penalty, its first-order certificate
    (PreparedUpdate.seed_certificate) is taken, in O(p^3). It yields a
    ratio rho for the choice_a seed and None elsewhere; for every step d
    of GammaTilde1, Rec.MK(seed + d) - Rec.MK(seed) is at least
    (tau1 / ||M_u||) (1 - rho) ||L(d)||_2 - O(|d|^2) with an injective
    linear L. With rho below SEED_CERTIFICATE_MAX the seed is a strict
    local minimizer and is returned without a search: iterations 0,
    converged True, an empty trace. The result records rho as
    `certificate` whenever it was computed. Otherwise Nelder-Mead runs
    from the seed and its restarts.
    """
    if config is None:
        config = OptimizeConfig()
    q = old.p
    s_tilde = seed.s_tilde
    Theta = _as_matrix(Theta, "Theta", (q, q))
    if not np.array_equal(Theta, seed.Theta):
        raise DimensionMismatch("Theta differs from the seed's Theta; the search "
                                "varies GammaTilde1 only, with the seed's Theta")
    max_evals = config.max_evals or 200 * q

    def build(x):
        return ParameterSet(Theta=Theta, GammaTilde1=structured_gamma(x, s_tilde, q),
                            s_tilde=s_tilde, mode="choice_b")

    def evaluate(params):
        return evaluate_rec_mk(p, old, target_Lambda, params, config.tau1, config.tau2)

    x0 = gamma_free_params(seed.GammaTilde1, s_tilde)
    f0 = evaluate(seed)
    baseline = f0 if seed.mode == "choice_a" else None
    certificate = None
    if np.isfinite(f0) and f0 < config.penalty:
        certificate = prepared_update(p, old, target_Lambda).seed_certificate(
            seed, config.tau1, config.tau2)
    if certificate is not None and certificate < SEED_CERTIFICATE_MAX:
        return OptimizationResult(best_params=seed, best_rec_mk=f0, baseline_rec_mk=baseline,
                                  iterations=0, converged=True, trace=(),
                                  certificate=certificate)

    trace, points = [], []

    def objective(x):
        try:
            value = evaluate(build(x))
        except (IllDefined, Singular, RankDeficient, MalformedBlocks):
            value = config.penalty
        if not np.isfinite(value):
            value = config.penalty
        trace.append(value)
        points.append(np.array(x, dtype=float))
        return value

    # imported here: scipy.optimize costs about 17 MB and 0.17 s to load,
    # and a seed the certificate settles needs no search
    import scipy.optimize

    total_evals = 0
    converged = False
    delta = _SIMPLEX_SCALE * max(1.0, float(np.abs(x0).max()))
    for start in _restart_points(x0, s_tilde)[: max(1, config.restarts)]:
        simplex = np.vstack([start] + [start + delta * e for e in np.eye(q)])
        res = scipy.optimize.minimize(objective, start, method="Nelder-Mead",
                                      options={"initial_simplex": simplex, "fatol": _FATOL,
                                               "xatol": np.inf, "maxfev": max_evals,
                                               "disp": False})
        total_evals += res.nfev
        converged = converged or bool(res.success)

    # The best point evaluated, not Nelder-Mead's final vertex: a search
    # cut off by maxfev drops the trial it was evaluating, and a cut-off
    # shrink leaves vertices with stale values.
    best_params, best_f = seed, f0
    if trace and min(trace) < f0:
        i = int(np.argmin(trace))
        best_params, best_f = build(points[i]), trace[i]

    if best_f >= config.penalty:
        raise NoFeasiblePoint(
            "no parameter set reached a finite update distance; "
            "the seed and every restart scored the infeasibility penalty"
        )

    return OptimizationResult(best_params=best_params, best_rec_mk=best_f, baseline_rec_mk=baseline,
                              iterations=total_evals, converged=converged, trace=tuple(trace),
                              certificate=certificate)
