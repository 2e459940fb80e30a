"""Structured matrix pencils lambda*M + K with M = diag(M_u, 0).

The mass matrix is singular by construction: only the structural block
M_u is nonzero, the electric block is identically zero. Such a pencil is
regular whenever M_u and the electric stiffness block K_phi are
nonsingular, in which case it has exactly n_u finite eigenvalues (the
eigenvalues of the reduced symmetric pencil lambda*M_u + S, where S is
the Schur complement of K_phi in K) and n_phi eigenvalues at infinity.

Nothing in this module ever materializes the n x n mass matrix; all
products with M are evaluated block-wise.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import (
    AsymmetricInput,
    DegenerateSpectrum,
    DimensionMismatch,
    SingularBlock,
    UncertifiedSpectrum,
)
from .spectral import (RealSpectralData, _expand, _expanded_values, _layout, _rank_rcond,
                       from_real_representation)

# rcond_estimate below which a block or parameter matrix counts as singular
DEFAULT_RCOND = 1e-12
SYMMETRY_TOL = 1e-8
DEGENERACY_TOL = 1e-8
# certified_spectrum accepts a stored eigenpair whose backward error
# ||lam M x + K x|| / ((||M_u|| |lam| + ||K||) ||x||) is at most this.
# A QZ solve of a generated pencil leaves about 3e-16 at n = 560;
# moving one eigenvalue by 1e-8 (relative) raises it above 2e-12 there.
CERTIFY_BACKWARD_ERROR = 1e-12
# It also requires every stored eigenvector to be normalized as
# solve_spectrum writes it: unit 2-norm and a real positive first
# significant component, each to within this.
CERTIFY_NORMALIZATION = 1e-12
# solve_spectrum keeps the standard eigensolve of M_u^-1 S when its worst
# backward error (as above) is at most this, and re-solves with QZ
# otherwise. A generated pencil at n = 560 leaves about 3e-16 on the
# standard path; an M_u with condition number 2.6e4 leaves 2e-13.
SOLVE_BACKWARD_ERROR = 1e-14

# _spec_norm takes Lanczos from this order on (one BLAS thread: it lost
# to the Gram eigensolve on K at n = 140, and won on residual_report's
# rectangular and low-rank operands from order 200), with this tol.
LANCZOS_MIN_ORDER = 200
LANCZOS_TOL = 1e-12

# An eigenvalue whose imaginary part is below this (relative to the
# spectral radius) is treated as real when classifying conjugate pairs.
_REAL_AXIS_TOL = 1e-10


def _as_matrix(A, name):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return A


def _asymmetry(A):
    """Relative asymmetry max|A - A^T| / max|A| of a square A (0.0 when
    A is empty or zero)."""
    return float(np.abs(A - A.T).max(initial=0.0) / max(np.abs(A).max(initial=0.0), 1e-300))


def _check_symmetric(A, name, tol):
    dev = _asymmetry(A)
    if dev > tol:
        raise AsymmetricInput(
            f"{name} deviates from symmetry by {dev * np.abs(A).max():.3e} (relative "
            f"{dev:.3e}, tolerance {tol:.1e})"
        )
    return 0.5 * (A + A.T)


def _mass_apply(M_u, X):
    """diag(M_u, 0) @ X for an X with at least as many rows as M_u."""
    n_u = M_u.shape[0]
    out = np.zeros(X.shape, dtype=X.dtype)
    out[:n_u] = M_u @ X[:n_u]
    return out


def _spec_norm(A):
    """||A||_2 of a real matrix as a float. A square A of 1x1 and 2x2
    diagonal blocks (as diag(Lambda^-1, 0) is) takes the closed form:
    the largest (hypot(a + d, b - c) + hypot(a - d, b + c)) / 2 over its
    blocks [[a, b], [c, d]], or |entry| on its diagonal (each bounds its
    block's norm from below). Another A with
    at least LANCZOS_MIN_ORDER rows and nonzero columns takes the Ritz
    value of ARPACK's Lanczos (seeded start vector, so the bits repeat)
    on A if A is exactly symmetric, else on its smaller Gram operator;
    with relative residual at most LANCZOS_TOL it is a lower bound on
    ||A|| up to rounding, so a tolerance decision can flip only within
    LANCZOS_TOL of its threshold. Any other A, or ARPACK failing, takes
    _gram_norm. Both eigensolvers see _scaled_nonzero(A), so a C-ordered
    A padded with zero columns has A's norm bit for bit at every order."""
    n = A.shape[0]
    if A.shape == (n, n) and (nonzero := np.count_nonzero(A)) <= 2 * n:
        d, up, lo = np.diagonal(A), np.diagonal(A, 1), np.diagonal(A, -1)
        coupled = (up != 0) | (lo != 0)
        inside = sum(map(np.count_nonzero, (d, up, lo)))
        if inside == nonzero and not (coupled[1:] & coupled[:-1]).any():
            i = np.flatnonzero(coupled)
            a, b, c, e = d[i], up[i], lo[i], d[i + 1]
            pairs = 0.5 * (np.hypot(a + e, b - c) + np.hypot(a - e, b + c))
            return float(max(np.abs(d).max(initial=0.0), pairs.max(initial=0.0)))
    if min(A.shape) >= LANCZOS_MIN_ORDER:
        keep = A.any(axis=0)
        if np.count_nonzero(keep) >= LANCZOS_MIN_ORDER:
            try:
                return _lanczos_norm(A, keep)
            except spla.ArpackError:
                pass
    return _gram_norm(A)


def _scaled_nonzero(A, keep, rows=False):
    """(A / max|A|, max|A|) on A's nonzero columns `keep`, and on those
    rows too when `rows` (as a symmetric A's zero columns are). A column
    drop copies in C order, so a C-ordered A padded with zero columns
    anywhere gives A's operand and A's norm, bit for bit."""
    scale = float(max(A.max(initial=0.0), -A.min(initial=0.0)))
    if not keep.all():
        A = A[np.ix_(keep, keep)] if rows else A.compress(keep, axis=1)
    return A / scale, scale


def _gram_norm(A):
    """||A||_2 as the top eigenvalue of the smaller Gram matrix of
    _scaled_nonzero(A), and 0.0 with no eigensolve for an empty or
    all-zero A: the reference."""
    keep = A.any(axis=0)
    if not keep.any():
        return 0.0
    B, scale = _scaled_nonzero(A, keep)
    G = B.T @ B if B.shape[0] >= B.shape[1] else B @ B.T
    # G is exactly symmetric, so G.T is G in the Fortran order LAPACK takes, uncopied
    top = sla.eigvalsh(G.T, overwrite_a=True, subset_by_index=[len(G) - 1] * 2)[0]
    return scale * float(np.sqrt(top))


def _lanczos_norm(A, keep):
    """||A|| by eigsh on _scaled_nonzero(A), as _spec_norm describes;
    raises ArpackError."""
    symmetric = A.shape[0] == A.shape[1] and np.array_equal(A, A.T)
    op, scale = _scaled_nonzero(A, keep, rows=symmetric)
    if not symmetric:
        B = op if op.shape[0] >= op.shape[1] else op.T
        op = spla.LinearOperator((B.shape[1],) * 2, matvec=lambda x: B.T @ (B @ x), dtype=float)
    v0 = np.random.default_rng(0).standard_normal(op.shape[0])
    top = spla.eigsh(op, k=1, which="LM" if symmetric else "LA", v0=v0, tol=LANCZOS_TOL,
                     return_eigenvectors=False)[0]
    return scale * (float(abs(top)) if symmetric else float(np.sqrt(top)))


def _lu_rcond(A):
    """LU factors (lu, piv) of a square A (None when A is empty) and the
    rcond_estimate of A from them."""
    if A.size == 0:
        return None, 1.0
    lu, piv, info = sla.lapack.dgetrf(A)
    r = 0.0 if info > 0 else sla.lapack.dgecon(lu, np.abs(A).sum(axis=0).max(), norm="1")[0]
    return (lu, piv), float(r) if np.isfinite(r) else 0.0


def rcond_estimate(A):
    """Reciprocal 1-norm condition number of a square matrix, estimated by
    LAPACK ?gecon from its LU factors (Hager 1984, Higham 1988): 0.0 for
    an exactly singular or non-finite matrix, 1.0 for an empty one."""
    return _lu_rcond(np.asarray(A, dtype=float))[1]


class StructuredPencil:
    """Validated pencil data (M_u, K, n_u, n_phi).

    Matrices are symmetrized on construction and stored read-only.
    The electric dimension n_phi may be zero (pure structural pencil),
    in which case K_phi is an empty block and trivially nonsingular.
    """

    def __init__(self, M_u, K, n_u, n_phi):
        n_u = int(n_u)
        n_phi = int(n_phi)
        if n_u <= 0:
            raise DimensionMismatch(f"n_u must be positive, got {n_u}")
        if n_phi < 0:
            raise DimensionMismatch(f"n_phi must be nonnegative, got {n_phi}")
        M_u = _as_matrix(M_u, "M_u")
        K = _as_matrix(K, "K")
        if M_u.shape[0] != n_u:
            raise DimensionMismatch(f"M_u has order {M_u.shape[0]}, expected n_u={n_u}")
        if K.shape[0] != n_u + n_phi:
            raise DimensionMismatch(
                f"K has order {K.shape[0]}, expected n_u+n_phi={n_u + n_phi}"
            )
        M_u = _check_symmetric(M_u, "M_u", SYMMETRY_TOL)
        K = _check_symmetric(K, "K", SYMMETRY_TOL)

        factors = []
        for name, A in (("structural mass block M_u", M_u),
                        ("electric stiffness block K_phi", K[n_u:, n_u:])):
            lu, r = _lu_rcond(A)
            if r < DEFAULT_RCOND:
                raise SingularBlock(
                    f"{name} is numerically singular (rcond {r:.3e} < "
                    f"{DEFAULT_RCOND:.1e}); pencil regularity cannot be certified"
                )
            for a in lu or ():
                a.setflags(write=False)
            factors.append(lu)

        M_u.setflags(write=False)
        K.setflags(write=False)
        self.M_u = M_u
        self.K = K
        # LU factors of M_u and K_phi (None when n_phi = 0), shared by
        # schur_reduce and solve_spectrum
        self._lu_mu, self._lu_kphi = factors
        self.n_u = n_u
        self.n_phi = n_phi
        self._spectrum = None
        self._prepared = None  # embedding.prepared_update's last PreparedUpdate
        self._norms = None
        self._k_rcond = None

    @property
    def n(self):
        return self.n_u + self.n_phi

    @property
    def K_u(self):
        return self.K[: self.n_u, : self.n_u]

    @property
    def K_uphi(self):
        return self.K[: self.n_u, self.n_u :]

    @property
    def K_phi(self):
        return self.K[self.n_u :, self.n_u :]

    def k_rcond(self):
        """Cached rcond_estimate of the full K."""
        if self._k_rcond is None:
            self._k_rcond = rcond_estimate(self.K)
        return self._k_rcond

    def norms(self):
        """Cached spectral norms (||M_u||_2, ||K||_2)."""
        if self._norms is None:
            self._norms = (_spec_norm(self.M_u), _spec_norm(self.K))
        return self._norms

    def __repr__(self):
        return f"StructuredPencil(n_u={self.n_u}, n_phi={self.n_phi})"


def validate_pencil(M_u, K, n_u, n_phi):
    """Construct a StructuredPencil, certifying regularity.

    Nonsingular M_u and K_phi imply det(lambda*M + K) is not identically
    zero, because the determinant factors through the Schur complement
    of K_phi. A block counts as singular when its rcond_estimate is
    below DEFAULT_RCOND (SingularBlock). Symmetry deviations up to
    SYMMETRY_TOL (relative to the largest entry) are silently
    symmetrized; larger ones raise AsymmetricInput.
    """
    return StructuredPencil(M_u, K, n_u, n_phi)


def schur_reduce(p):
    """Reduce the pencil to its structural block.

    Returns (S, R) with S = K_u - K_uphi @ K_phi^{-1} @ K_uphi^T the
    symmetric Schur complement and R = -K_phi^{-1} @ K_uphi^T the
    recovery map: (lambda, u) solves the reduced pencil
    (lambda*M_u + S) u = 0 exactly when (lambda, [u; R u]) solves the
    full one.
    """
    if p.n_phi == 0:
        return p.K_u.copy(), np.zeros((0, p.n_u))
    R = -sla.lu_solve(p._lu_kphi, p.K_uphi.T)
    S = p.K_u + p.K_uphi @ R
    return 0.5 * (S + S.T), R


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residual: float
    threshold: float
    passed: bool


class CheckReport:
    """Outcome of a multi-condition verification."""

    def __init__(self, checks):
        self.checks = tuple(checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed_names(self):
        return [c.name for c in self.checks if not c.passed]

    def __repr__(self):
        parts = ", ".join(
            f"{c.name}={'ok' if c.passed else 'FAIL'}({c.residual:.2e})"
            for c in self.checks
        )
        return f"CheckReport({parts})"


@dataclass(frozen=True)
class JordanPairCandidate:
    """A pair (X, J) proposed to satisfy the pencil relations.

    J must be block diagonal diag(J1, 0) with J1 nonsingular; for finite
    eigendata J1 carries the eigenvalues in real block form. The zero
    block (if any) corresponds to eigenvalues at infinity.
    """

    X: np.ndarray
    J: np.ndarray


@dataclass(frozen=True)
class SpectrumResult:
    """Complete eigendata of a structured pencil.

    finite holds the n_u finite eigenpairs once, as the RealSpectralData
    that spectrum.spectral stores: the pair blocks sorted by real then
    imaginary part, then the real eigenvalues ascending. eigenvalues
    and finite_pairs expand it into complex eigenpairs, conjugates
    adjacent (positive imaginary part first); pair i is column i.
    condition_summary[i] is the gap from finite eigenvalue i to its
    nearest distinct neighbor. enclosure_ratio is the largest
    enclosure radius / (gap / 2) that certified_spectrum measured, or
    None for a solved spectrum. backward_error is the largest per-pair
    backward error of the eigenpairs, as certified_spectrum defines it.
    """

    finite: RealSpectralData
    infinite_basis: np.ndarray
    condition_summary: np.ndarray
    n_u: int
    n_phi: int
    enclosure_ratio: float = None
    backward_error: float = None

    @property
    def eigenvalues(self):
        return _expanded_values(self.finite.Lambda, self.finite.s)

    @property
    def finite_pairs(self):
        return tuple(from_real_representation(self.finite))

    def real_count(self):
        return self.finite.p - 2 * self.finite.s

    def pair_count(self):
        return self.finite.s


def _pivots(X):
    """The first component of each column of X whose modulus exceeds
    1e-12 times the column's largest."""
    mags = np.abs(X)
    return X[np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0), np.arange(X.shape[1])]


def _real_product(A, X):
    """A @ X for a real A and a C-contiguous complex X, as one real product."""
    return (A @ X.view(float)).view(complex)


def _pair_residuals(p, lam, X):
    """(r, eta, MX, x) for eigenpairs (lam_j, x_j), x_j the columns of X:
    the residual norms r_j = ||lam_j M x_j + K x_j||, the backward errors
    eta_j = r_j / ((||M_u|| |lam_j| + ||K||) ||x_j||) (Tisseur, LAA 2000;
    NaN for a zero column), the product M X and the norms ||x_j||."""
    X = np.ascontiguousarray(X, dtype=complex)
    MX = np.zeros_like(X)
    MX[: p.n_u] = _real_product(p.M_u, X[: p.n_u])
    r = np.linalg.norm(MX * lam + _real_product(p.K, X), axis=0)
    norm_m, norm_k = p.norms()
    x = np.linalg.norm(X, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = r / ((norm_m * np.abs(lam) + norm_k) * x)
    return r, eta, MX, x


def _nearest_gaps(values):
    """Distance from each value to its nearest other value (inf for a
    lone value)."""
    d = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def _check_degeneracy(values, gaps):
    """Raise DegenerateSpectrum when two finite eigenvalues (or one and
    zero) are closer than DEGENERACY_TOL times the spectral radius."""
    scale = float(np.abs(values).max())
    worst = gaps.min()
    if worst < DEGENERACY_TOL * scale:
        raise DegenerateSpectrum(
            f"two finite eigenvalues are only {worst:.3e} apart "
            f"(tolerance {DEGENERACY_TOL:.1e} x spectral radius {scale:.3e}); "
            f"simple-eigenvalue assumption violated"
        )
    small = np.abs(values).min()
    if small < DEGENERACY_TOL * scale:
        raise DegenerateSpectrum(
            f"a finite eigenvalue has modulus {small:.3e}, too close to zero "
            f"(tolerance {DEGENERACY_TOL:.1e} x spectral radius {scale:.3e})"
        )


def _infinite_basis(p):
    """The kernel of M: [0; I], n x n_phi."""
    basis = np.zeros((p.n, p.n_phi))
    basis[p.n_u :, :] = np.eye(p.n_phi)
    return basis


def _eigenpairs(p, S, R, qz):
    """(lam, keep, real, X): the finite eigenvalues of lambda*M_u + S, by
    QZ on (S, M_u) or else as the eigenvalues of M_u^-1 S; the indices
    of the real ones and of the upper member of each conjugate pair, a
    mask of the real ones among them, and their eigenvectors [u; R u],
    normalized."""
    w, V = sla.eig(S, p.M_u) if qz else sla.eig(sla.lu_solve(p._lu_mu, S))
    if not np.all(np.isfinite(w)):
        raise SingularBlock(
            "reduced eigenproblem returned non-finite eigenvalues; "
            "M_u is effectively singular"
        )
    lam = -w
    # LAPACK returns exact conjugate partners for real data, so only the
    # counts need to agree
    is_real = np.abs(lam.imag) <= _REAL_AXIS_TOL * max(float(np.abs(lam).max()), 1.0)
    if np.count_nonzero(~is_real & (lam.imag > 0)) != np.count_nonzero(~is_real & (lam.imag < 0)):
        raise DegenerateSpectrum(
            "complex eigenvalues do not split into conjugate pairs; "
            "the spectrum is too close to the real axis to classify"
        )
    keep = np.flatnonzero(is_real | (lam.imag > 0))
    U = np.ascontiguousarray(V[:, keep], dtype=complex)
    X = np.vstack([U, _real_product(R, U)])
    X /= np.linalg.norm(X, axis=0)
    pivot = _pivots(X)
    return lam, keep, is_real[keep], X * (np.conj(pivot) / np.abs(pivot))


def solve_spectrum(p):
    """All finite eigenpairs plus the infinite basis.

    The reduced pencil from schur_reduce is solved as the standard
    eigenproblem of M_u^-1 S on the pencil's LU factors of M_u, and the
    eigenvectors are lifted back with the recovery map and normalized
    deterministically. When the worst backward error of the full-pencil
    eigenpairs (as certified_spectrum measures it) exceeds
    SOLVE_BACKWARD_ERROR, as for an ill-conditioned M_u, the reduced
    pencil is re-solved with QZ, and QZ's eigenpairs are kept whatever
    their backward error; the result records the worst backward error
    of the solve it keeps. The infinite eigendata needs no solve:
    the kernel of M is spanned by [0; I].

    Raises DegenerateSpectrum when two finite eigenvalues (or one and
    zero) are closer than DEGENERACY_TOL times the spectral radius:
    downstream embedding assumes simple nonzero finite eigenvalues.

    Only a spectrum that passed that check is cached on the pencil, so
    a cached call returns it unchecked.
    Its arrays are read-only because every later caller shares them.
    """
    if p._spectrum is not None:
        return p._spectrum
    S, R = schur_reduce(p)
    for qz in (False, True):
        lam, keep, real, X = _eigenpairs(p, S, R, qz)
        eta = _pair_residuals(p, lam[keep], X)[1].max()
        if eta <= SOLVE_BACKWARD_ERROR:
            break
    _check_degeneracy(lam, _nearest_gaps(lam))

    kept = lam[keep]
    unrotated = real & (np.linalg.norm(X.imag, axis=0) > 1e-8)
    if unrotated.any():
        raise DegenerateSpectrum(
            f"eigenvector of the nearly real eigenvalue {kept[np.argmax(unrotated)]:.6e} "
            f"could not be rotated real"
        )
    # pairs first by (real, imaginary) part, then the real eigenvalues
    # ascending
    order = np.lexsort((kept.imag, kept.real, real))
    finite = _layout(kept[order], X[:, order], int(np.count_nonzero(~real)))

    spectrum = SpectrumResult(
        finite=finite,
        infinite_basis=_infinite_basis(p),
        condition_summary=_nearest_gaps(_expanded_values(finite.Lambda, finite.s)),
        n_u=p.n_u,
        n_phi=p.n_phi,
        backward_error=float(eta),
    )
    for a in (finite.Lambda, finite.X, spectrum.infinite_basis, spectrum.condition_summary):
        a.setflags(write=False)
    p._spectrum = spectrum
    return spectrum


def certified_spectrum(p, finite):
    """SpectrumResult holding stored finite eigenpairs, certified against
    the pencil instead of re-solved.

    `finite` is RealSpectralData laid out like SpectrumResult.finite (as
    read_spectral returns spectrum.spectral), and the result holds it.
    The checks, on its eigenpairs as from_real_representation expands them:

    - exactly n_u eigenpairs, with eigenvectors of length n;
    - every eigenvector normalized as solve_spectrum writes it (unit
      norm, first significant component real and positive), to within
      CERTIFY_NORMALIZATION; the residual tests below do not see a
      rescaled vector;
    - for every pair, with r = lam M x + K x, the backward error
      ||r|| / ((||M_u|| |lam| + ||K||) ||x||) is at most
      CERTIFY_BACKWARD_ERROR, and the first-order enclosure radius
      ||r|| ||x|| / |x^T M x| is below half the gap to the nearest other
      stored eigenvalue. The pencil is real symmetric, so the left
      eigenvector is conj(x) and the eigenvalue condition number is
      ||x||^2 / |x^T M x| (Tisseur, LAA 2000). Disjoint enclosures
      around n_u values then hold all n_u finite eigenvalues, one each;
    - the degeneracy checks of solve_spectrum, last, so that they judge
      certified eigenvalues of the pencil and not a stale file.

    The whole check costs one n x n_u product with K. Raises
    UncertifiedSpectrum naming the offending or worst pair when a check
    fails, and DegenerateSpectrum as solve_spectrum would.
    """
    if finite.p != p.n_u:
        raise UncertifiedSpectrum(
            f"{finite.p} stored finite eigenpairs, the pencil has n_u = {p.n_u}"
        )
    lam, X = _expand(finite)
    if X.shape[0] != p.n:
        raise UncertifiedSpectrum(
            f"stored eigenvectors have {X.shape[0]} rows, the pencil order is {p.n}"
        )
    r, eta, MX, x = _pair_residuals(p, lam, X)
    pivot = _pivots(X)
    # NaN and zero columns fail these comparisons too
    normalized = ((np.abs(x - 1.0) <= CERTIFY_NORMALIZATION) & (pivot.real > 0)
                  & (np.abs(pivot.imag) <= CERTIFY_NORMALIZATION * pivot.real))
    if not normalized.all():
        i = int(np.argmin(normalized))
        raise UncertifiedSpectrum(
            f"stored eigenvector {i} (lambda = {lam[i]:.8e}) is not normalized "
            f"as solve writes it: norm {x[i]:.17g}, first significant "
            f"component {pivot[i]:.8e}"
        )

    gaps = _nearest_gaps(lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = r * x / np.abs(np.einsum("ij,ij->j", X, MX))
        ratio = radius / (0.5 * gaps)
    # NaN (a zero vector, or x^T M x = 0 with r = 0) fails too
    badness = np.nan_to_num(np.maximum(eta / CERTIFY_BACKWARD_ERROR, ratio), nan=np.inf)
    worst = int(np.argmax(badness))
    if badness[worst] >= 1.0:
        raise UncertifiedSpectrum(
            f"stored eigenpair {worst} (lambda = {lam[worst]:.8e}) is not an "
            f"eigenpair of this pencil: backward error {eta[worst]:.3e} "
            f"(limit {CERTIFY_BACKWARD_ERROR:.0e}), enclosure radius "
            f"{radius[worst]:.3e} against half gap {0.5 * gaps[worst]:.3e}"
        )
    _check_degeneracy(lam, gaps)
    return SpectrumResult(
        finite=finite,
        infinite_basis=_infinite_basis(p),
        condition_summary=gaps,
        n_u=p.n_u,
        n_phi=p.n_phi,
        enclosure_ratio=float(ratio.max()),
        backward_error=float(eta.max()),
    )


def _eigen_residual(M_u, K, X, Lam, norm_m, norm_k):
    num = _spec_norm(_mass_apply(M_u, X @ Lam) + K @ X)
    den = (norm_m * _spec_norm(Lam) + norm_k) * _spec_norm(X)
    return num / den if den else 0.0


def _retained_residuals(X2, L, norm_x, *systems):
    """Res2 = ||M X2 + K X2 Lam2'|| / ((||M|| + ||K|| ||Lam2'||) ||X2||),
    Lam2' = diag(L, 0), for each system (M_u, K, ||M_u||, ||K||): the one
    spillover residual. X2 L is formed once, M_u X2_u once per M_u object,
    and the numerator on L's q columns plus each later column with a
    nonzero X2_u (only a wrong candidate has one): on the others M X2 and
    X2 Lam2' vanish."""
    q, n_u = len(L), len(systems[0][0])
    extra = q + np.flatnonzero(X2[:n_u, q:].any(axis=0))
    X2u = X2[:n_u, np.r_[:q, extra]] if extra.size else X2[:n_u, :q]
    X2L, norm_lam = X2[:, :q] @ L, _spec_norm(L)
    residuals, shared = [], None
    for M_u, K, norm_m, norm_k in systems:
        if M_u is not shared:
            MX2u, shared = M_u @ X2u, M_u
        num = np.zeros((len(K), X2u.shape[1]))
        num[:, :q] = K @ X2L
        num[:n_u] += MX2u  # M X2 = [M_u X2_u; 0]
        den = (norm_m + norm_k * norm_lam) * norm_x
        residuals.append(_spec_norm(num) / den if den else 0.0)
    return residuals


def _zero_block_order(J):
    """Trailing zero-block size of a block-diagonal J = diag(J1, 0)."""
    return int(np.flatnonzero(J.any(axis=0) | J.any(axis=1)).max(initial=-1)) + 1


def check_jordan_pair(p, c, tol):
    """Evaluate the pencil relations a candidate (X, J) must satisfy.

    Checked, as applicable to the candidate's shape:

    - rank(X) = m (column count): _rank_rcond(X) above the tolerance;
    - with no zero block in J, the finite relation M X J + K X = 0, as
      eigen_residual measures it;
    - with a zero block (infinite directions present), the inverted
      relation M X + K X diag(J1^{-1}, 0) = 0, as retained_residual
      measures it: the same _retained_residuals call on J1^{-1}, with no
      order-m diag(J1^{-1}, 0) formed. It reduces to the kernel
      condition M X = 0 when J = 0;
    - for a full-size candidate (m = n), the block-triangular shape of
      X: its upper-right n_u x n_phi block must vanish, relative to ||X||.

    Every entry is a relative quantity compared with tol (its
    threshold); the report carries one entry per condition.
    """
    X = np.asarray(c.X, dtype=float)
    J = np.asarray(c.J, dtype=float)
    n = p.n
    if X.ndim != 2 or X.shape[0] != n:
        raise DimensionMismatch(
            f"candidate X has shape {X.shape}, expected {n} rows"
        )
    m = X.shape[1]
    if J.shape != (m, m):
        raise DimensionMismatch(
            f"candidate J has shape {J.shape}, expected ({m}, {m})"
        )

    rank_resid = _rank_rcond(X)
    checks = [ConditionCheck("rank", rank_resid, tol, rank_resid > tol)]

    norm_M, norm_K = p.norms()
    norm_X = _spec_norm(X)

    q = _zero_block_order(J)
    if q == m:
        relations = {"finite_relation": _eigen_residual(p.M_u, p.K, X, J, norm_M, norm_K)}
    else:
        J1 = J[:q, :q]
        if q and rcond_estimate(J1) < 1e-14:
            raise DimensionMismatch(
                "the nonzero block J1 of the candidate J is singular; "
                "J must have the form diag(J1, 0) with J1 invertible"
            )
        name = "infinite_relation" if q == 0 else "pencil_relation"
        relations = {name: _retained_residuals(X, np.linalg.inv(J1), norm_X,
                                               (p.M_u, p.K, norm_M, norm_K))[0]}

    if m == n and p.n_phi:
        relations["block_form"] = _spec_norm(X[: p.n_u, q:]) / norm_X if norm_X else 0.0

    return CheckReport(checks + [ConditionCheck(name, r, tol, r <= tol)
                                 for name, r in relations.items()])


def assemble_jordan_pair(spectrum):
    """Full-size candidate (X, J) from a spectrum: the finite block
    layout followed by the infinite basis, with J = diag(Lambda, 0)."""
    d = spectrum.finite
    J = sla.block_diag(d.Lambda, np.zeros((spectrum.n_phi,) * 2))
    return JordanPairCandidate(X=np.hstack([d.X, spectrum.infinite_basis]), J=J)
