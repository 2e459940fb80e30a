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
pairs values that arrive as a complex list (to_real_representation,
real_lambda_from_eigenvalues, probgen.perturb_targets); a spectrum is
held in this layout (SpectrumResult.finite), and selections take its
columns and blocks. _layout and block_matrix encode the layout,
_expand and _expanded_values expand it (complex index i is column i,
conjugates adjacent), and the block-structure check is decode,
re-encode, compare.
"""

from dataclasses import InitVar, dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    DuplicateEigenvalue,
    MalformedBlocks,
    NoMatch,
    NotConjugateClosed,
    Overlap,
    ZeroEigenvalue,
)

DEFAULT_MATCH_TOL = 1e-6
_CLOSURE_TOL = 1e-10
_DUPLICATE_TOL = 1e-10
# Entries of Lambda outside the block pattern must vanish up to this
# relative slack (exact zeros in everything this package constructs).
_PATTERN_TOL = 1e-14
_EMPTY = "an empty eigenvalue set has no real block representation"


def _rank_rcond(X):
    """sigma_min / sigma_max of an X with at least as many rows as columns,
    estimated within a factor of about n by LAPACK ?trcon on its thin-QR
    R factor; 0.0 for a wide, exactly rank-deficient or non-finite X."""
    if X.shape[0] < X.shape[1]:
        return 0.0
    r = sla.lapack.dtrcon(np.linalg.qr(X, mode="r"))[0]
    return float(r) if np.isfinite(r) else 0.0


@dataclass(frozen=True)
class RealSpectralData:
    """Eigenvalue matrix Lambda (p x p) and eigenvector matrix X (n x p)
    in real block form, with s the number of conjugate-pair blocks.

    X may have zero rows when the data carries eigenvalues only (target
    spectra read from file). An X with at least p rows must have full
    column rank: _rank_rcond(X) >= 1e-12, or MalformedBlocks.
    _columns skips that test with _full_rank=True: a column subset of a
    full-rank X has a reciprocal condition at least X's.
    """

    Lambda: np.ndarray
    X: np.ndarray
    s: int
    _full_rank: InitVar[bool] = False

    def __post_init__(self, _full_rank):
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
        if not _full_rank and X.shape[0] and X.shape[0] >= p and _rank_rcond(X) < 1e-12:
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


def _expanded_values(Lam, s):
    """The complex eigenvalues of a block matrix, one per column: each
    pair block's value (positive imaginary part) followed by its
    conjugate, then the scalars."""
    diag = np.diagonal(Lam)
    values = diag.astype(complex)
    values.real[1 : 2 * s : 2] = diag[0 : 2 * s : 2]
    values.imag[0 : 2 * s : 2] = np.diagonal(Lam, 1)[0 : 2 * s : 2]
    values.imag[1 : 2 * s : 2] = -values.imag[0 : 2 * s : 2]
    return values


def block_eigenvalues(Lam, s):
    """Complex eigenvalues represented by a validated block matrix, one
    per block: s pair values (positive imaginary part), then scalars."""
    return np.delete(_expanded_values(Lam, s), np.arange(1, 2 * s, 2)).tolist()


def block_matrix(values, s):
    """Inverse of block_eigenvalues: the real block matrix of s pair
    values (positive imaginary part) followed by real scalars."""
    values = np.asarray(values, dtype=complex)
    Lam = np.diag(np.r_[np.repeat(values[:s].real, 2), values[s:].real])
    i = np.arange(0, 2 * s, 2)
    Lam[i, i + 1] = values[:s].imag
    Lam[i + 1, i] = -values[:s].imag
    return Lam


def _layout(values, V, order, s):
    """RealSpectralData of the eigenpairs (values[i], V[:, i]) taken in
    layout `order`: s pair values (positive imaginary part), then reals.
    V's columns are read through `order`, one real slice at a time."""
    pairs, reals = order[:s], order[s:]
    X = np.empty((V.shape[0], len(order) + s))
    X[:, 0 : 2 * s : 2] = V.real[:, pairs]
    X[:, 1 : 2 * s : 2] = V.imag[:, pairs]
    X[:, 2 * s :] = V.real[:, reals]
    return RealSpectralData(Lambda=block_matrix(values[order], s), X=X, s=s)


def infer_pair_count(Lam):
    """Number s of 2x2 pair blocks in a real block-diagonal eigenvalue
    matrix, validating the layout as a side effect."""
    Lam = np.asarray(Lam, dtype=float)
    s = 0
    while 2 * s < Lam.shape[0] - 1 and Lam[2 * s, 2 * s + 1] != 0.0:
        s += 1
    _validate_block_structure(Lam, s)
    return s


def _no_partner(lam):
    return NotConjugateClosed(
        f"eigenvalue {lam:.8e} has no conjugate partner in the set; "
        f"conjugate pairs go together"
    )


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
        raise DimensionMismatch(_EMPTY)
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
            raise _no_partner(lam)
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
    lams = np.array([complex(l) for l, _ in pairs])
    order, s = _canonical_order(lams, distinct=True)
    for i in order[s:]:
        v = np.asarray(pairs[i][1])
        if np.linalg.norm(np.imag(v)) > 1e-8 * max(np.linalg.norm(v), 1e-300):
            raise MalformedBlocks(
                f"eigenvector of real eigenvalue {lams[i].real:.8e} has a significant imaginary part"
            )
    return _layout(lams, np.column_stack([v for _, v in pairs]), order, s)


def _expand(d, conjugates=True):
    """(values, V): the complex eigenpairs of a block layout, V[:, i]
    the eigenvector of values[i]. A pair's columns [Re x, Im x] become
    x and conj(x), bit for bit (x alone, without `conjugates`: the upper
    members, then the scalars); a scalar's column becomes complex."""
    s2 = 2 * d.s
    keep, upper = (np.s_[:], np.s_[:s2:2]) if conjugates else (np.r_[:s2:2, s2 : d.p], np.s_[: d.s])
    V = d.X[:, keep].astype(complex)
    V.imag[:, upper] = d.X[:, 1:s2:2]
    if conjugates:
        V[:, 1:s2:2] = V[:, 0:s2:2].conj()
    return _expanded_values(d.Lambda, d.s)[keep], V


def from_real_representation(d):
    """Decode RealSpectralData back into complex eigenpairs, conjugate
    members adjacent (positive imaginary part first)."""
    values, V = _expand(d)
    return [(values[i], V[:, i]) for i in range(d.p)]


def real_lambda_from_eigenvalues(values):
    """Build just the eigenvalue matrix (no vectors) for a conjugate-
    closed list of targets. Returns RealSpectralData with an empty X."""
    values = np.array([complex(v) for v in values])
    order, s = _canonical_order(values)
    return _layout(values, np.zeros((0, len(values))), order, s)


def _columns(d, indices):
    """The eigenpairs of a block layout at the complex indices `indices`
    (complex index i is column i), as a layout of their columns and
    blocks in the order of d. Raises NotConjugateClosed when the indices
    hold one member of a pair without the other."""
    chosen = np.zeros(d.p, dtype=bool)
    chosen[list(indices)] = True
    if not chosen.any():
        raise DimensionMismatch(_EMPTY)
    in_pairs = chosen[: 2 * d.s]
    split = in_pairs & ~in_pairs.reshape(-1, 2)[:, ::-1].ravel()
    if split.any():
        raise _no_partner(_expanded_values(d.Lambda, d.s)[np.argmax(split)])
    cols = np.flatnonzero(chosen)
    return RealSpectralData(Lambda=d.Lambda[np.ix_(cols, cols)], X=d.X.take(cols, axis=1),
                            s=int(np.count_nonzero(in_pairs)) // 2, _full_rank=True)


def select_eigendata(spectrum, targets, *, match_tol=DEFAULT_MATCH_TOL):
    """Pick the eigenpairs to be replaced.

    Each requested value must match a distinct finite eigenvalue of the
    spectrum within `match_tol` (relative); the matched set must be
    conjugate-closed, and no retained eigenvalue may sit within matching
    distance of a selected one (the replaced and retained spectra must
    be disjoint for the update to be well posed).

    Returns (the selected columns and blocks of spectrum.finite, as
    RealSpectralData, tuple of retained finite-pair indices).
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

    chosen = _columns(spectrum.finite, sel_idx)
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
    """Real representation of the retained finite eigenpairs: the
    columns and blocks of spectrum.finite at those indices."""
    return _columns(spectrum.finite, retained_indices)
