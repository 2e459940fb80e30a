"""Parametric eigenvalue updates that leave the rest of the spectrum alone.

Given p true eigenpairs (Lambda_1, X_1) of a structured pencil and a
replacement eigenvalue matrix Lambda_1~, the update

    M_u~ = (M_u^-1 - X_1u G1^-1 X_1u^T + X_1u Th Gt^-1 Th^T X_1u^T)^-1
    K~   = (K^-1 + X_1 L1^-1 G1^-1 X_1^T - X_1 Th Lt^-1 Gt^-1 Th^T X_1^T)^-1

(G1 = X_1u^T M_u X_1u, Th and Gt free parameters, Lt the target) moves
exactly the selected eigenvalues to the targets and keeps every other
finite eigenvalue, every eigenvalue at infinity, and symmetry. The new
eigenvectors are X_1 Th: the updated pairs span the same subspace.

Both coefficient updates are congruent low-rank corrections, so embed
computes them in Sherman-Morrison-Woodbury form, where only p x p
systems are solved; with identity parameters it returns the original
matrices bit for bit. embed_direct evaluates the inverse formulas above
literally and serves as the reference the Woodbury path is tested
against. A PreparedUpdate holds the parameter-independent part, so a
search over GammaTilde1 measures each trial's Rec.MK in O(p^3) without
forming any n x n matrix.

The module also contains the verifier and reconstructor for the
spectral characterization of this pencil class: which (X, J, Gamma, Phi)
data can be realized by some symmetric pencil with singular mass, and
the explicit inverse formulas recovering M_u and K from such data.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    IllDefined,
    MalformedBlocks,
    RankDeficient,
    Singular,
    SingularT,
)
from .pencil import (
    CheckReport,
    ConditionCheck,
    DEFAULT_RCOND,
    _asymmetry,
    _spec_norm,
    rcond_estimate,
    validate_pencil,
)
from .spectral import RealSpectralData, _rank_rcond, infer_pair_count

log = logging.getLogger(__name__)

# rcond_estimate (a LAPACK ?gecon 1-norm estimate) below which an inversion is refused.
ILL_DEFINED_RCOND = 1e-13
# Relative asymmetry above which a computed symmetric matrix is flagged.
ASYMMETRY_WARN = 1e-8
# Default tolerance for the reconstruction preflight verification.
RECONSTRUCT_TOL = 1e-8

# Relative smallest singular value above which seed_certificate takes the
# first-order mass map for injective.
INJECTIVE_RCOND = 1e-8

_COMMUTATION_TOL = 1e-10
_PATTERN_TOL = 1e-8


def _structure_deviation(G, s_tilde):
    """Largest entry of G that the block pattern [[a, b], [b, -a]], then
    scalars, does not reproduce from G's own free parameters."""
    rebuilt = structured_gamma(gamma_free_params(G, s_tilde), s_tilde, G.shape[0])
    return float(np.abs(G - rebuilt).max(initial=0.0))


def structured_gamma(values, s_tilde, p):
    """Assemble the symmetric block matrix from its p free parameters:
    (a_j, b_j) per 2x2 block [[a, b], [b, -a]], then the scalars. A stack
    of parameter vectors (shape (k, p)) gives the stack of matrices."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (p,) or values.ndim > 2:
        raise DimensionMismatch(
            f"expected {p} free parameters, got shape {values.shape}"
        )
    G = np.zeros(values.shape + (p,))
    G[..., range(p), range(p)] = values
    i = np.arange(0, 2 * s_tilde, 2)
    G[..., i + 1, i + 1] = -values[..., i]
    G[..., i, i + 1] = G[..., i + 1, i] = values[..., i + 1]
    return G


def gamma_free_params(G, s_tilde):
    """Inverse of structured_gamma: extract the p free parameters."""
    G = np.asarray(G, dtype=float)
    out = np.diagonal(G).copy()
    out[1 : 2 * s_tilde : 2] = np.diagonal(G, 1)[0 : 2 * s_tilde : 2]
    return out


@dataclass(frozen=True)
class ParameterSet:
    """Update parameters (Theta, GammaTilde1) for a target with s_tilde
    conjugate-pair blocks.

    GammaTilde1 must be symmetric with the same block layout as the
    target eigenvalue matrix: s_tilde trace-free 2x2 blocks
    [[a, b], [b, -a]], then nonzero scalars. mode records how the set
    was produced: "choice_a" is the trivial seed (Theta = I,
    GammaTilde1 = Gamma1, only available when the block structure is
    unchanged), "choice_b" an optimized set, "custom" anything else.
    """

    Theta: np.ndarray
    GammaTilde1: np.ndarray
    s_tilde: int
    mode: str = "custom"

    def __post_init__(self):
        Th = np.ascontiguousarray(np.asarray(self.Theta, dtype=float))
        G = np.ascontiguousarray(np.asarray(self.GammaTilde1, dtype=float))
        object.__setattr__(self, "Theta", Th)
        object.__setattr__(self, "GammaTilde1", G)
        if self.mode not in ("choice_a", "choice_b", "custom"):
            raise MalformedBlocks(f"unknown parameter mode {self.mode!r}")
        p = Th.shape[0]
        if Th.ndim != 2 or Th.shape != (p, p):
            raise DimensionMismatch(f"Theta must be square, got {Th.shape}")
        if G.shape != (p, p):
            raise DimensionMismatch(
                f"GammaTilde1 has shape {G.shape}, expected {(p, p)}"
            )
        if not (0 <= 2 * self.s_tilde <= p):
            raise MalformedBlocks(f"s_tilde={self.s_tilde} impossible for p={p}")
        if rcond_estimate(Th) < DEFAULT_RCOND:
            raise Singular("Theta is numerically singular")
        if rcond_estimate(G) < DEFAULT_RCOND:
            raise Singular("GammaTilde1 is numerically singular")
        dev = _asymmetry(G)
        if dev > _PATTERN_TOL:
            raise MalformedBlocks(f"GammaTilde1 deviates from symmetry by {dev:.3e} relative")
        scale = max(np.abs(G).max(), 1e-300)
        dev = _structure_deviation(G, self.s_tilde)
        if dev > _PATTERN_TOL * scale:
            raise MalformedBlocks(
                f"GammaTilde1 does not conform to the block pattern for "
                f"s_tilde={self.s_tilde} (deviation {dev / scale:.3e} relative)"
            )

    @property
    def p(self):
        return self.Theta.shape[0]


@dataclass(frozen=True)
class UpdatedSystem:
    """Result of one embedding: updated coefficients, the parameters
    that produced them, and the updated eigenvectors X1_tilde = X1 @ Theta."""

    M_u_tilde: np.ndarray
    K_tilde: np.ndarray
    params: ParameterSet
    method: str
    X1_tilde: np.ndarray

    @property
    def n_u(self):
        return self.M_u_tilde.shape[0]

    @property
    def n(self):
        return self.K_tilde.shape[0]


def compute_gamma1(p, X1, s):
    """Gram matrix Gamma_1 = X_1u^T M_u X_1u of the selected vectors.

    X_1u is the top n_u block of X1, and s the selection's count of
    conjugate-pair blocks. X_1u is RankDeficient when it is wide or
    spectral._rank_rcond(X_1u) is below DEFAULT_RCOND. The characteristic
    block pattern (trace-free 2x2 blocks, then scalars) is measured and
    a warning is logged if the matrix strays from it, which indicates
    the columns are not eigendata of the pencil.
    """
    X1 = np.asarray(X1, dtype=float)
    if X1.ndim != 2 or X1.shape[0] != p.n:
        raise DimensionMismatch(
            f"X1 has shape {X1.shape}, expected {p.n} rows"
        )
    X1u = X1[: p.n_u]
    if _rank_rcond(X1u) < DEFAULT_RCOND:
        raise RankDeficient(
            "the structural block X_1u of the selected eigenvectors is "
            "numerically rank-deficient; the update hypothesis fails"
        )
    G = X1u.T @ p.M_u @ X1u
    G = 0.5 * (G + G.T)
    r = rcond_estimate(G)
    if r < DEFAULT_RCOND:
        raise Singular(
            f"Gamma_1 is numerically singular (rcond {r:.3e}); the selected "
            f"eigenvectors are degenerate with respect to M_u"
        )
    scale = max(np.abs(G).max(), 1e-300)
    dev = _structure_deviation(G, s) / scale
    if dev > _COMMUTATION_TOL:
        log.warning(
            "Gamma_1 deviates from its expected block pattern by %.3e "
            "relative; X1 may not be eigendata of this pencil", dev
        )
    else:
        log.debug("Gamma_1 block pattern confirmed (deviation %.3e)", dev)
    return G


def default_gamma_tilde(Gamma1, s, s_tilde):
    """Trivial parameter seed.

    With an unchanged block structure (s_tilde = s) this is Theta = I,
    GammaTilde1 = Gamma1, which reproduces the original normalization
    (mode "choice_a"). A changed structure rules that out; the seed is
    then identity-like, with unit 2x2 blocks and unit scalars whose
    signs copy Gamma1's scalar entries where the shapes align (mode
    "custom", signalling that the trivial choice is unavailable).
    """
    Gamma1 = np.asarray(Gamma1, dtype=float)
    p = Gamma1.shape[0]
    if s_tilde == s:
        return ParameterSet(
            Theta=np.eye(p), GammaTilde1=Gamma1, s_tilde=s_tilde, mode="choice_a"
        )
    vals = np.ones(p)
    vals[1 : 2 * s_tilde : 2] = 0.0
    for i in range(2 * s_tilde, p):
        if i >= 2 * s and Gamma1[i, i] < 0:
            vals[i] = -1.0
    G = structured_gamma(vals, s_tilde, p)
    return ParameterSet(Theta=np.eye(p), GammaTilde1=G, s_tilde=s_tilde, mode="custom")


def _inverse_of(A, name):
    r = rcond_estimate(A)
    if r < ILL_DEFINED_RCOND:
        raise IllDefined(
            f"{name} is not invertible at working precision "
            f"(rcond {r:.3e} < {ILL_DEFINED_RCOND:.1e}); the update is not well defined"
        )
    return sla.solve(A, np.eye(A.shape[0]))


def _symmetrized(A, name):
    dev = _asymmetry(A)
    if dev > ASYMMETRY_WARN:
        log.warning(
            "%s came out asymmetric by %.3e relative; conditioning is suspect",
            name, dev,
        )
    return 0.5 * (A + A.T)


def _check_commutes(name, G, iL):
    """The block layouts make G Lambda^-1 symmetric; everything downstream assumes it."""
    dev = _asymmetry(G @ iL)
    if dev > _COMMUTATION_TOL:
        raise MalformedBlocks(
            f"{name} does not commute with its eigenvalue matrix "
            f"(relative deviation {dev:.3e}); block layouts disagree"
        )


class PreparedUpdate:
    """The parameter-independent part of one update, built once as
    PreparedUpdate(p, old, target_Lambda): W = M_u X_1u, Z = K X_1 and the
    p x p WtX = X_1u^T W, ZtX = X_1^T Z. It holds no n x n array, so a
    search reuses it for every trial (Theta, GammaTilde1). It keeps copies
    of old.X, old.Lambda and the target, and the pencil's norms but not
    the pencil, which may hold it (see prepared_update).

    All inverses use the same solver call shape as GammaTilde1^-1, so
    identical inputs give bitwise identical inverses (the low-rank paths
    cancel exactly for the trivial parameter choice).
    """

    def __init__(self, p, old, target_Lambda):
        if not isinstance(old, RealSpectralData):
            raise DimensionMismatch("old eigendata must be RealSpectralData")
        X1 = old.X
        if X1.shape[0] != p.n:
            raise DimensionMismatch(
                f"eigendata has {X1.shape[0]} rows, pencil order is {p.n}"
            )
        q = old.p
        Lt = np.ascontiguousarray(np.asarray(target_Lambda, dtype=float))
        if Lt.shape != (q, q):
            raise DimensionMismatch(
                f"target matrix has shape {Lt.shape}, expected {(q, q)}"
            )
        self.old, self.X1, self.L1, self.Lt = old, X1.copy(), np.array(old.Lambda), Lt.copy()
        self.s_tilde = infer_pair_count(Lt)

        self.iL1 = _inverse_of(self.L1, "Lambda_1")
        self.iLt = _inverse_of(self.Lt, "the target eigenvalue matrix")
        G1 = compute_gamma1(p, X1, s=old.s)
        self.iG1 = _inverse_of(G1, "Gamma_1")
        _check_commutes("Gamma_1", G1, self.iL1)

        r = p.k_rcond()
        if r < ILL_DEFINED_RCOND:
            raise IllDefined(
                f"the stiffness matrix K is not invertible at working precision "
                f"(rcond {r:.3e}); the update is not well defined"
            )
        if r < DEFAULT_RCOND:
            log.warning("K condition estimate %.3e exceeds 1e12; results are suspect", 1.0 / r)

        X1u = X1[: p.n_u]
        self.W, self.Z = p.M_u @ X1u, p.K @ X1
        self.WtX, self.ZtX = X1u.T @ self.W, X1.T @ self.Z
        self.norms = p.norms()
        self._distance_factors = None

    def gamma_tilde_inverse(self, params):
        """Check params against the prepared data; return GammaTilde1^-1."""
        if params.p != self.X1.shape[1]:
            raise DimensionMismatch(f"parameter set is {params.p}x{params.p}, "
                                    f"eigendata has p={self.X1.shape[1]}")
        if params.s_tilde != self.s_tilde:
            raise MalformedBlocks(f"target has {self.s_tilde} conjugate-pair blocks but the "
                                  f"parameter set declares s_tilde={params.s_tilde}")
        _check_commutes("GammaTilde_1", params.GammaTilde1, self.iLt)
        return _inverse_of(params.GammaTilde1, "GammaTilde_1")

    def woodbury_cores(self, params):
        """(core_m, cap_m, core_k, cap_k, iGt) of M_u~ = M_u - W core_m cap_m^-1 W^T
        and K~ = K - Z core_k cap_k^-1 Z^T, with iGt = GammaTilde1^-1;
        trivial parameters give zero cores."""
        iGt = self.gamma_tilde_inverse(params)
        Th = params.Theta
        eye = np.eye(Th.shape[0])
        core_m = Th @ iGt @ Th.T - self.iG1
        cap_m = eye + self.WtX @ core_m
        core_k = self.iL1 @ self.iG1 - Th @ self.iLt @ iGt @ Th.T
        cap_k = eye + self.ZtX @ core_k
        for name, cap in (("mass", cap_m), ("stiffness", cap_k)):
            if rcond_estimate(cap) < ILL_DEFINED_RCOND:
                raise IllDefined(f"the p x p capacitance matrix of the {name} update is "
                                 f"singular; the update is not well defined")
        return core_m, cap_m, core_k, cap_k, iGt

    def _factors(self):
        """(R_w, R_z, ||M_u||, ||K||): the thin-QR R factors of W and Z,
        computed on the first call, and the pencil norms."""
        if self._distance_factors is None:
            self._distance_factors = (np.linalg.qr(self.W, mode="r"), np.linalg.qr(self.Z, mode="r"),
                                      *self.norms)
        return self._distance_factors

    def rec_mk(self, params, tau1=1.0, tau2=1.0):
        """Rec.MK of the update with these parameters in O(p^3): with
        C_m = core_m cap_m^-1 and the thin QR W = Q_w R_w, ||M_u - M_u~|| =
        ||R_w sym(C_m) R_w^T||, likewise for K with Z."""
        core_m, cap_m, core_k, cap_k, _ = self.woodbury_cores(params)
        R_w, R_z, norm_m, norm_k = self._factors()
        dist = []
        for name, R, core, cap, norm in (("mass", R_w, core_m, cap_m, norm_m),
                                         ("stiffness", R_z, core_k, cap_k, norm_k)):
            C = sla.solve(cap.T, core.T).T
            # The asymmetry the updated matrix would carry, relative to its
            # pencil norm; the Frobenius norm bounds the 2-norm from above.
            skew = R @ (C - C.T) @ R.T
            if np.linalg.norm(skew) > ASYMMETRY_WARN * norm:
                dev = _spec_norm(skew) / norm
                if dev > ASYMMETRY_WARN:
                    log.warning("the %s update core came out asymmetric by %.3e relative; "
                                "conditioning is suspect", name, dev)
            dist.append(_spec_norm(R @ (0.5 * (C + C.T)) @ R.T))
        return tau1 * dist[0] / norm_m + tau2 * dist[1] / norm_k

    def seed_certificate(self, params, tau1=1.0, tau2=1.0):
        """First-order certificate that params minimize Rec.MK locally over
        GammaTilde1 (Theta fixed), in O(p^3); the dual ratio rho, or None
        where the certificate does not apply.

        It applies where the mass core is exactly zero, as at the choice_a
        seed (Theta = I, GammaTilde1 = Gamma_1), so that the mass distance
        has a kink there. For each free parameter direction
        E_j = structured_gamma(e_j) put dG_j = -Gt^-1 E_j Gt^-1. The mass
        distance grows like ||L(d)||_2 with the linear map
        L(d) = sum_j d_j L_j, L_j = R_w sym(Th dG_j Th^T) R_w^T. With
        C0 = core_k cap_k^-1 and (sigma, v) the sign and unit eigenvector
        of the largest-magnitude eigenvalue of R_z sym(C0) R_z^T, the
        stiffness distance is at least its seed value plus g.d, where
        g_j = sigma v^T R_z dC_j R_z^T v and
        dC_j = (I - C0 ZtX)(-Th Lt^-1 dG_j Th^T) cap_k^-1. Let Y be the
        least-Frobenius-norm symmetric solution of
        <Y, L_j>_F = tau2 g_j / ||K||, j = 1..p. Since
        <Y, L(d)> >= -||Y||_* ||L(d)||_2, every step d gives

            Rec.MK(seed + d) - Rec.MK(seed)
                >= (tau1 / ||M_u||) (1 - rho) ||L(d)||_2 - O(|d|^2),
            rho = ||Y||_* ||M_u|| / tau1.

        So rho < 1 with L injective makes params a strict local
        minimizer. L counts as injective when the smallest singular value
        of the p x p(p+1)/2 system is above INJECTIVE_RCOND times the
        largest; otherwise the result is None.
        """
        core_m, _, core_k, cap_k, iGt = self.woodbury_cores(params)
        if np.any(core_m):
            return None
        R_w, R_z, norm_m, norm_k = self._factors()
        q, Th = params.p, params.Theta
        C0 = sla.solve(cap_k.T, core_k.T).T
        w, V = np.linalg.eigh(R_z @ (0.5 * (C0 + C0.T)) @ R_z.T)
        top = np.argmax(np.abs(w))
        sigma, u = np.sign(w[top]), R_z.T @ V[:, top]
        lead = np.eye(q) - C0 @ self.ZtX

        rows, upper = np.triu_indices(q)
        weight = np.where(rows == upper, 1.0, np.sqrt(2.0))
        # every direction at once: dG[j] = -Gt^-1 E_j Gt^-1, and
        # u^T dC_j u = u^T N_j (cap_k^-1 u) with dC_j = N_j cap_k^-1
        dG = -iGt @ structured_gamma(np.eye(q), self.s_tilde, q) @ iGt
        L = R_w @ (Th @ dG @ Th.T) @ R_w.T
        A = weight * (0.5 * (L + L.transpose(0, 2, 1)))[:, rows, upper]
        g = sigma * (u @ (lead @ (-Th @ self.iLt @ dG @ Th.T)) @ sla.solve(cap_k, u))
        y, _, _, sv = np.linalg.lstsq(A, tau2 * g / norm_k, rcond=None)
        if sv.size < q or sv[-1] <= INJECTIVE_RCOND * sv[0]:
            return None
        Y = np.zeros((q, q))
        Y[rows, upper] = y / weight
        Y = Y + np.triu(Y, 1).T
        return float(np.abs(np.linalg.eigvalsh(Y)).sum() * norm_m / tau1)


def prepared_update(p, old, target_Lambda):
    """The PreparedUpdate of (p, old, target_Lambda): the one p holds from
    the last call if it was built from `old` itself and old.X, old.Lambda
    and the target still equal its copies, else a new one, which p then
    holds. embed, optimize_gamma_tilde and evaluate_rec_mk share it."""
    prep = p._prepared
    if not (prep and prep.old is old and np.array_equal(prep.X1, old.X)
            and np.array_equal(prep.L1, old.Lambda) and np.array_equal(prep.Lt, target_Lambda)):
        prep = p._prepared = PreparedUpdate(p, old, target_Lambda)
    return prep


def _updated_system(Mt, Kt, params, method, X1):
    return UpdatedSystem(M_u_tilde=_symmetrized(Mt, "M_u_tilde"),
                         K_tilde=_symmetrized(Kt, "K_tilde"), params=params, method=method,
                         X1_tilde=X1 @ params.Theta)


def embed_direct(p, old, target_Lambda, params):
    """Reference update: form and invert the corrected full-size matrices.

    This is the inverse-form statement of the update, at the cost of
    dense inversions of orders n_u and n. embed never takes this path;
    the tests compare embed against it.
    """
    prep = PreparedUpdate(p, old, target_Lambda)
    iGt = prep.gamma_tilde_inverse(params)
    X1, iL1, iLt, iG1, Th = prep.X1, prep.iL1, prep.iLt, prep.iG1, params.Theta
    X1u = X1[: p.n_u]

    iMu = _inverse_of(p.M_u, "M_u")
    inner_m = iMu - X1u @ iG1 @ X1u.T + X1u @ Th @ iGt @ Th.T @ X1u.T
    inner_m = _symmetrized(inner_m, "the inverse-form mass update")
    Mt = _inverse_of(inner_m, "the updated mass matrix inverse")

    iK = _inverse_of(p.K, "K")
    inner_k = iK + X1 @ iL1 @ iG1 @ X1.T - X1 @ Th @ iLt @ iGt @ Th.T @ X1.T
    inner_k = _symmetrized(inner_k, "the inverse-form stiffness update")
    Kt = _inverse_of(inner_k, "the updated stiffness matrix inverse")
    return _updated_system(Mt, Kt, params, "direct", X1)


def embed(p, old, target_Lambda, params):
    """Update via the Woodbury identity: the same coefficients as
    embed_direct, but only p x p systems are formed and solved.

    Both corrections are rank-p congruences. With the trivial parameter
    choice the p x p cores vanish identically and the original matrices
    are returned exactly.
    """
    prep = prepared_update(p, old, target_Lambda)
    core_m, cap_m, core_k, cap_k, _ = prep.woodbury_cores(params)
    Mt = p.M_u - prep.W @ core_m @ sla.solve(cap_m, prep.W.T)
    Kt = p.K - prep.Z @ core_k @ sla.solve(cap_k, prep.Z.T)
    return _updated_system(Mt, Kt, params, "smw", prep.X1)


embed_smw = embed


def verify_theorem1(X, J1, Gamma11, Phi, tol):
    """Check whether (X, diag(J1, 0), Gamma11, Phi) is realizable
    spectral data for some symmetric pencil with mass diag(M_u, 0).

    The four conditions, each reported with its residual:

    - nonsingular_x: X invertible at working precision;
    - commutation: J1^T Gamma11 = Gamma11 J1;
    - off_block: X_u T X_phi^T = 0, T = (diag(Gamma11,0) + X_phi^T Phi X_phi)^-1;
    - phi_normalization: X_phi T X_phi^T = Phi^-1.

    The last two are vacuous without an electric block. A numerically
    singular T^-1 raises SingularT since the remaining conditions are
    then meaningless.
    """
    return _theorem1(X, J1, Gamma11, Phi, tol)[0]


def _theorem1(X, J1, Gamma11, Phi, tol):
    """(verify_theorem1's report, the normalization matrix T it solved
    for), so that reconstruct_theorem1 forms and solves T^-1 once."""
    X, J1, Gamma11, Phi = (np.asarray(A, dtype=float) for A in (X, J1, Gamma11, Phi))
    n = X.shape[0]
    if X.ndim != 2 or X.shape != (n, n):
        raise DimensionMismatch(f"X must be square, got {X.shape}")
    n_u = J1.shape[0]
    if J1.shape != (n_u, n_u):
        raise DimensionMismatch(f"J1 must be square, got {J1.shape}")
    if Gamma11.shape != (n_u, n_u):
        raise DimensionMismatch(
            f"Gamma11 has shape {Gamma11.shape}, expected {(n_u, n_u)}"
        )
    n_phi = n - n_u
    if n_phi < 0:
        raise DimensionMismatch(
            f"J1 order {n_u} exceeds the full order {n}"
        )
    if Phi.shape != (n_phi, n_phi):
        raise DimensionMismatch(
            f"Phi has shape {Phi.shape}, expected {(n_phi, n_phi)}"
        )

    X_u = X[:n_u]
    X_phi = X[n_u:]
    checks = []

    def relative(name, resid, scale):
        checks.append(ConditionCheck(name, float(resid), tol * scale, resid <= tol * scale))

    rx = rcond_estimate(X)
    checks.append(ConditionCheck("nonsingular_x", rx, ILL_DEFINED_RCOND, rx > ILL_DEFINED_RCOND))

    relative("commutation", _spec_norm(J1.T @ Gamma11 - Gamma11 @ J1),
             max(_spec_norm(Gamma11), 1e-300) * max(_spec_norm(J1), 1e-300))

    Tinv = X_phi.T @ Phi @ X_phi
    Tinv[:n_u, :n_u] += Gamma11
    rt = rcond_estimate(Tinv)
    if rt < ILL_DEFINED_RCOND:
        raise SingularT(
            f"the normalization matrix T^-1 is numerically singular "
            f"(rcond {rt:.3e}); the data cannot be realized"
        )
    checks.append(ConditionCheck("nonsingular_t", rt, ILL_DEFINED_RCOND, True))
    T = sla.solve(Tinv, np.eye(n), assume_a="sym")

    if n_phi:
        relative("off_block", _spec_norm(X_u @ T @ X_phi.T),
                 max(_spec_norm(X_u) * _spec_norm(T) * _spec_norm(X_phi), 1e-300))

        rp = rcond_estimate(Phi)
        if rp < ILL_DEFINED_RCOND:
            raise IllDefined(
                f"Phi is numerically singular (rcond {rp:.3e}); "
                f"its inverse enters the normalization condition"
            )
        iPhi = sla.solve(Phi, np.eye(n_phi), assume_a="sym")
        relative("phi_normalization", _spec_norm(X_phi @ T @ X_phi.T - iPhi),
                 max(_spec_norm(iPhi), 1e-300))

    return CheckReport(checks), T


def reconstruct_theorem1(X, J1, Gamma11, Phi, K22prime=None, *, tol=RECONSTRUCT_TOL):
    """Build the unique pencil realizing verified spectral data.

        M_u = (X_u T X_u^T)^-1
        K   = X^-T diag(-Gamma11 J1^-1, K22prime) X^-1

    with T from the verification conditions. The result satisfies
    M X + K X diag(J1, 0) = 0; K22prime (any nonsingular symmetric
    matrix, identity when omitted) parameterizes the genuine freedom in
    the electric stiffness block.
    """
    X, J1, Gamma11 = (np.asarray(A, dtype=float) for A in (X, J1, Gamma11))
    report, T = _theorem1(X, J1, Gamma11, Phi, tol)
    if not report.passed:
        raise IllDefined(
            "spectral data fails realizability conditions: "
            + ", ".join(report.failed_names())
        )

    n = X.shape[0]
    n_u = J1.shape[0]
    n_phi = n - n_u
    if K22prime is None:
        K22prime = np.eye(n_phi)
    K22prime = np.asarray(K22prime, dtype=float)
    if K22prime.shape != (n_phi, n_phi):
        raise DimensionMismatch(
            f"K22prime has shape {K22prime.shape}, expected {(n_phi, n_phi)}"
        )
    if _asymmetry(K22prime) > ASYMMETRY_WARN:
        raise IllDefined("K22prime must be symmetric")
    if rcond_estimate(K22prime) < DEFAULT_RCOND:
        raise IllDefined("K22prime must be nonsingular")

    X_u = X[:n_u]
    Mu = _inverse_of(_symmetrized(X_u @ T @ X_u.T, "X_u T X_u^T"), "X_u T X_u^T")

    iJ1 = _inverse_of(J1, "J1")
    D11 = -Gamma11 @ iJ1
    D11 = _symmetrized(D11, "the finite stiffness core -Gamma11 J1^-1")
    D = np.zeros((n, n))
    D[:n_u, :n_u] = D11
    D[n_u:, n_u:] = K22prime
    Xinv = _inverse_of(X, "X")
    K = Xinv.T @ D @ Xinv

    return validate_pencil(
        _symmetrized(Mu, "the reconstructed M_u"),
        _symmetrized(K, "the reconstructed K"),
        n_u,
        n_phi,
    )
