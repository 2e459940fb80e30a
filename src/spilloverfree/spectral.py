"""Real block-diagonal representations of conjugate-closed eigendata.

A set of simple nonzero eigenpairs closed under conjugation is encoded
without complex arithmetic: each conjugate pair alpha +/- beta*i
(beta > 0) becomes the 2x2 block [[alpha, beta], [-beta, alpha]] with
eigenvector columns [Re x, Im x], and each real eigenvalue stays a 1x1
block with its real eigenvector column. Pair blocks always precede the
scalar blocks.

The canonical ordering used everywhere: pairs sorted by ascending real
part then ascending imaginary part, followed by real eigenvalues in
ascending order.

Each piece of this layout has one implementation here. _split_conjugates
is the only conjugate-pairing routine (to_real_representation,
real_lambda_from_eigenvalues and probgen.perturb_targets use it).
block_matrix encodes the layout from its values and block_eigenvalues
decodes it; the block-structure check is decode, re-encode, compare.
from_real_representation expands blocks back into a conjugate-closed
list.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateEigenvalue,
    MalformedBlocks,
    NoMatch,
    NotConjugateClosed,
    Overlap,
    ZeroEigenvalue,
)
from .pencil import JordanPairCandidate, _rank_rcond

DEFAULT_MATCH_TOL = 1e-6
_CLOSURE_TOL = 1e-10
_DUPLICATE_TOL = 1e-10
# Entries of Lambda outside the block pattern must vanish up to this
# relative slack (exact zeros in everything this package constructs).
_PATTERN_TOL = 1e-14


@dataclass(frozen=True)
class RealSpectralData:
    """Eigenvalue matrix Lambda (p x p) and eigenvector matrix X (n x p)
    in real block form, with s the number of conjugate-pair blocks.

    X may have zero rows when the data carries eigenvalues only (target
    spectra read from file). An X with at least p rows must have full
    column rank: pencil._rank_rcond(X) >= 1e-12, or MalformedBlocks.
    """

    Lambda: np.ndarray
    X: np.ndarray
    s: int

    def __post_init__(self):
        Lam = np.asarray(self.Lambda, dtype=float)
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "Lambda", Lam)
        object.__setattr__(self, "X", X)
        p = Lam.shape[0]
        if Lam.ndim != 2 or Lam.shape != (p, p):
            raise DimensionMismatch(f"Lambda must be square, got {Lam.shape}")
        if X.ndim != 2 or X.shape[1] != p:
            raise DimensionMismatch(
                f"X has shape {X.shape}, expected {p} columns to match Lambda"
            )
        if not (0 <= 2 * self.s <= p):
            raise MalformedBlocks(f"s={self.s} impossible for p={p}")
        _validate_block_structure(Lam, self.s)
        if X.shape[0] and X.shape[0] >= p and _rank_rcond(X) < 1e-12:
            raise MalformedBlocks("eigenvector matrix X is numerically rank-deficient")

    @property
    def p(self):
        return self.Lambda.shape[0]


def _validate_block_structure(Lam, s):
    vals = block_eigenvalues(Lam, s)
    for j, z in enumerate(vals[:s]):
        if not (z.imag > 0):
            raise MalformedBlocks(
                f"pair block {j} must have positive upper-right entry, got {z.imag!r}"
            )
    for i, z in enumerate(vals[s:], start=2 * s):
        if z.real == 0.0:
            raise MalformedBlocks(f"scalar block at position {i} is zero; eigenvalues must be nonzero")
    scale = max(np.abs(Lam).max(initial=0.0), 1e-300)
    off = np.abs(Lam - block_matrix(vals, s)).max(initial=0.0)
    if off > _PATTERN_TOL * scale:
        raise MalformedBlocks(
            f"Lambda deviates by {off:.3e} from the pattern of 2x2 rotation "
            f"blocks [[a, b], [-b, a]] followed by scalars"
        )


def block_eigenvalues(Lam, s):
    """Complex eigenvalues represented by a validated block matrix, one
    per block: s pair values (positive imaginary part), then scalars."""
    vals = []
    for j in range(s):
        i = 2 * j
        vals.append(complex(Lam[i, i], Lam[i, i + 1]))
    for i in range(2 * s, Lam.shape[0]):
        vals.append(complex(Lam[i, i]))
    return vals


def block_matrix(values, s):
    """Inverse of block_eigenvalues: the real block matrix of s pair
    values (positive imaginary part) followed by real scalars."""
    Lam = np.zeros((len(values) + s,) * 2)
    for j, z in enumerate(values[:s]):
        i = 2 * j
        Lam[i, i] = Lam[i + 1, i + 1] = z.real
        Lam[i, i + 1] = z.imag
        Lam[i + 1, i] = -z.imag
    for i, z in enumerate(values[s:], start=2 * s):
        Lam[i, i] = z.real
    return Lam


def infer_pair_count(Lam):
    """Number s of 2x2 pair blocks in a real block-diagonal eigenvalue
    matrix, validating the layout as a side effect."""
    Lam = np.asarray(Lam, dtype=float)
    p = Lam.shape[0]
    s = 0
    i = 0
    while i < p - 1 and Lam[i, i + 1] != 0.0:
        s += 1
        i += 2
    _validate_block_structure(Lam, s)
    return s


def _split_conjugates(values, *, distinct=False):
    """Split a conjugate-closed list of nonzero values into the indices
    of the pair representatives (the member with positive imaginary
    part) and of the reals.

    Each complex value, in input order, takes the first unused partner
    within _CLOSURE_TOL of its conjugate (relative to the largest
    modulus). Returns (pair indices in the order their first member
    appears, real indices in input order); callers sort as they need.
    With `distinct`, coincident values raise DuplicateEigenvalue first.
    """
    lams = np.array([complex(v) for v in values])
    if not lams.size:
        raise DimensionMismatch("an empty eigenvalue set has no real block representation")
    mods = np.abs(lams)
    scale = mods.max()
    if scale == 0.0 or mods.min() < 1e-14 * scale:
        raise ZeroEigenvalue("eigenvalues must be nonzero to be represented")
    if distinct:
        close = np.abs(lams[:, None] - lams[None, :]) < _DUPLICATE_TOL * scale
        i, j = np.nonzero(np.triu(close, 1))
        if i.size:
            raise DuplicateEigenvalue(
                f"eigenvalues {lams[i[0]]:.8e} and {lams[j[0]]:.8e} coincide; "
                f"the representation requires simple eigenvalues"
            )
    used = np.zeros(lams.size, dtype=bool)
    pair_idx, real_idx = [], []
    for i, lam in enumerate(lams):
        if used[i]:
            continue
        used[i] = True
        if lam.imag == 0.0:
            real_idx.append(i)
            continue
        free = np.flatnonzero(~used & (np.abs(lams - np.conj(lam)) <= _CLOSURE_TOL * scale))
        if not free.size:
            raise NotConjugateClosed(
                f"eigenvalue {lam:.8e} has no conjugate partner in the set; "
                f"conjugate pairs go together"
            )
        used[free[0]] = True
        pair_idx.append(i if lam.imag > 0 else int(free[0]))
    return pair_idx, real_idx


def _canonical_order(lams, *, distinct=False):
    """(index order, pair count) of the canonical layout of a
    conjugate-closed value list: representatives of the pairs sorted by
    real then imaginary part, then the reals ascending."""
    pair_idx, real_idx = _split_conjugates(lams, distinct=distinct)
    pair_idx.sort(key=lambda i: (lams[i].real, lams[i].imag))
    real_idx.sort(key=lambda i: lams[i].real)
    return pair_idx + real_idx, len(pair_idx)


def to_real_representation(pairs):
    """Encode conjugate-closed complex eigenpairs as RealSpectralData.

    Parameters
    ----------
    pairs : list of (complex eigenvalue, complex eigenvector)
        Conjugate members adjacent; eigenvalues simple and nonzero.
    """
    lams = [complex(l) for l, _ in pairs]
    vecs = [np.asarray(v) for _, v in pairs]
    order, s = _canonical_order(lams, distinct=True)
    cols = []
    for i in order[:s]:
        cols += [vecs[i].real, vecs[i].imag]
    for i in order[s:]:
        v = vecs[i]
        if np.linalg.norm(np.imag(v)) > 1e-8 * max(np.linalg.norm(v), 1e-300):
            raise MalformedBlocks(
                f"eigenvector of real eigenvalue {lams[i].real:.8e} has a significant imaginary part"
            )
        cols.append(v.real)
    Lam = block_matrix([lams[i] for i in order], s)
    return RealSpectralData(Lambda=Lam, X=np.column_stack(cols), s=s)


def from_real_representation(d):
    """Decode RealSpectralData back into complex eigenpairs, conjugate
    members adjacent (positive imaginary part first)."""
    vals = block_eigenvalues(d.Lambda, d.s)
    out = []
    for j in range(d.s):
        l = vals[j]
        v = d.X[:, 2 * j] + 1j * d.X[:, 2 * j + 1]
        out.append((l, v))
        out.append((np.conj(l), np.conj(v)))
    for k in range(d.p - 2 * d.s):
        l = vals[d.s + k]
        out.append((l, d.X[:, 2 * d.s + k].astype(complex)))
    return out


def real_lambda_from_eigenvalues(values):
    """Build just the eigenvalue matrix (no vectors) for a conjugate-
    closed list of targets. Returns RealSpectralData with an empty X."""
    values = [complex(v) for v in values]
    order, s = _canonical_order(values)
    Lam = block_matrix([values[i] for i in order], s)
    return RealSpectralData(Lambda=Lam, X=np.zeros((0, len(order) + s)), s=s)


def select_eigendata(spectrum, targets, *, match_tol=DEFAULT_MATCH_TOL):
    """Pick the eigenpairs to be replaced.

    Each requested value must match a distinct finite eigenvalue of the
    spectrum within `match_tol` (relative); the matched set must be
    conjugate-closed, and no retained eigenvalue may sit within matching
    distance of a selected one (the replaced and retained spectra must
    be disjoint for the update to be well posed).

    Returns (RealSpectralData of the selected pairs, tuple of retained
    finite-pair indices).
    """
    lams = spectrum.eigenvalues
    taken = np.zeros(len(lams), dtype=bool)
    sel_idx = []
    for t in targets:
        t = complex(t)
        # the nearest untaken eigenvalue, the first on ties; NaN never matches
        d = np.abs(lams - t)
        d[taken | np.isnan(d)] = np.inf
        best = int(np.argmin(d)) if d.size else None
        if best is None or not d[best] <= match_tol * max(abs(lams[best]), 1.0):
            raise NoMatch(
                f"requested eigenvalue {t:.8e} does not match any unselected "
                f"finite eigenvalue within relative tolerance {match_tol:.1e}"
            )
        taken[best] = True
        sel_idx.append(best)

    chosen = to_real_representation([spectrum.finite_pairs[i] for i in sorted(sel_idx)])
    retained = tuple(int(i) for i in np.flatnonzero(~taken))
    sel, ret = lams[sel_idx], lams[list(retained)]
    close = np.abs(sel[:, None] - ret[None, :]) <= match_tol * np.maximum(np.abs(sel), 1.0)[:, None]
    if close.any():
        # the first offending (selected, retained) pair in selection order
        i, j = np.unravel_index(np.argmax(close), close.shape)
        raise Overlap(
            f"selected eigenvalue {sel[i]:.8e} coincides with retained "
            f"eigenvalue {ret[j]:.8e} within matching tolerance; the two "
            f"spectra must be disjoint"
        )
    return chosen, retained


def retained_eigendata(spectrum, retained_indices):
    """Real representation of the retained finite eigenpairs."""
    chosen = [spectrum.finite_pairs[i] for i in retained_indices]
    return to_real_representation(chosen)


def assemble_jordan_pair(spectrum):
    """Full-size candidate (X, J) from a solved spectrum: the finite
    real representation followed by the infinite basis, with
    J = diag(Lambda, 0)."""
    d = to_real_representation(list(spectrum.finite_pairs))
    n = d.X.shape[0]
    m = d.p + spectrum.n_phi
    X = np.zeros((n, m))
    X[:, : d.p] = d.X
    X[:, d.p :] = spectrum.infinite_basis
    J = np.zeros((m, m))
    J[: d.p, : d.p] = d.Lambda
    return JordanPairCandidate(X=X, J=J)
