"""Random admissible test problems and perturbed target spectra.

Instances follow the experimental recipe: dense uniform random symmetric
matrices, with M_u pushed away from singularity by shifting each of its
eigenvalues one unit further from zero (keeping it indefinite, so the
finite spectrum has both conjugate pairs and real eigenvalues) and the
electric stiffness block made diagonally dominant. Everything is
deterministic in the seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    GenerationFailed,
    StructureInfeasible,
)
from .pencil import _check_degeneracy, solve_spectrum, validate_pencil
from .spectral import _expanded_values, _split_conjugates, real_lambda_from_eigenvalues

# Drawn targets (and their imaginary parts, for conjugate pairs) keep at
# least this modulus, a margin for drawing only: whether a target set is
# admissible is pencil._check_degeneracy's to decide.
MIN_TARGET_MODULUS = 1e-3
_RESAMPLE_BUDGET = 100
_GENERATION_RETRIES = 5


def _check_nonnegative(**values):
    """DimensionMismatch naming the first of `values` that is below zero or not finite."""
    for name, value in values.items():
        if not 0 <= value < np.inf:
            raise DimensionMismatch(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class ProblemSpec:
    """Dimensions and replacement layout of one generated instance."""

    n_u: int
    n_phi: int
    p: int
    s_tilde: int
    max_perturbation: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_u < 1:
            raise DimensionMismatch(f"n_u must be positive, got {self.n_u}")
        _check_nonnegative(n_phi=self.n_phi)
        if not (1 <= self.p <= self.n_u):
            raise StructureInfeasible(
                f"selection size p={self.p} must satisfy 1 <= p <= n_u={self.n_u}"
            )
        if not (0 <= 2 * self.s_tilde <= self.p):
            raise StructureInfeasible(
                f"s_tilde={self.s_tilde} conjugate pairs do not fit into p={self.p}"
            )
        _check_nonnegative(max_perturbation=self.max_perturbation, seed=self.seed)


def _random_symmetric(rng, n):
    A = rng.uniform(-1.0, 1.0, (n, n))
    return 0.5 * (A + A.T)


def generate_pencil(spec):
    """Deterministic random pencil for a ProblemSpec.

    M_u is an indefinite symmetric matrix with all eigenvalue moduli
    >= 1 (each eigenvalue of a uniform symmetric draw is shifted one
    unit away from zero). K is uniform symmetric with n added to the
    K_phi diagonal. A draw whose spectrum is degenerate is redrawn with a
    derived seed, up to _GENERATION_RETRIES times; then GenerationFailed.
    """
    n = spec.n_u + spec.n_phi
    for attempt in range(_GENERATION_RETRIES + 1):
        rng = np.random.default_rng((spec.seed, attempt))
        d, Q = np.linalg.eigh(_random_symmetric(rng, spec.n_u))
        shift = np.where(d >= 0, d + 1.0, d - 1.0)
        M_u = Q @ (shift[:, None] * Q.T)
        K = _random_symmetric(rng, n)
        K[spec.n_u :, spec.n_u :] += n * np.eye(spec.n_phi)
        pencil = validate_pencil(M_u, K, spec.n_u, spec.n_phi)
        try:
            solve_spectrum(pencil)
        except DegenerateSpectrum:
            continue
        return pencil
    raise GenerationFailed(
        f"no admissible pencil within {_GENERATION_RETRIES + 1} attempts for seed "
        f"{spec.seed}; reseed the spec"
    )


def _draw(propose, taken, avoid, needs_imag, failure):
    """Append to `taken` the first of _RESAMPLE_BUDGET proposals, a conjugate
    pair by its upper member, that keeps MIN_TARGET_MODULUS (and so does its
    imaginary part where needs_imag) and that pencil._check_degeneracy admits
    next to `taken`, their conjugates and `avoid`; raise
    StructureInfeasible(failure) naming the last refusal when none does."""
    refusal = None
    for _ in range(_RESAMPLE_BUDGET):
        cand = propose()
        if abs(cand) < MIN_TARGET_MODULUS or (needs_imag and abs(cand.imag) < MIN_TARGET_MODULUS):
            refusal = f"{cand:.6e} is inside the drawing margin MIN_TARGET_MODULUS"
            continue
        new = [cand, cand.conjugate()] if needs_imag else [cand]
        try:
            _check_degeneracy(np.concatenate([taken, np.conj(taken), avoid, new]), new=len(new))
        except DegenerateSpectrum as exc:
            refusal = exc
            continue
        taken.append(cand if cand.imag >= 0 else cand.conjugate())
        return
    raise StructureInfeasible(f"{failure} within {_RESAMPLE_BUDGET} draws; last refusal: {refusal}")


def perturb_targets(old_eigs, s_tilde, max_perturbation, seed, avoid=()):
    """Conjugate-closed target set replacing `old_eigs`.

    With the block structure unchanged (s_tilde equals the old pair
    count) each target is the corresponding old eigenvalue moved by at
    most max_perturbation; max_perturbation = 0 returns the old values.
    A changed structure forces fresh draws from a unit box instead.
    Either way pencil._check_degeneracy admits each drawn target next to
    the others and `avoid` (pass the retained spectrum there). Targets
    are returned pairs first, conjugate partners adjacent.
    """
    _check_nonnegative(max_perturbation=max_perturbation)
    old_eigs = [complex(v) for v in old_eigs]
    pair_idx, real_idx = _split_conjugates(old_eigs)
    pairs = [old_eigs[i] for i in pair_idx]
    reals = [old_eigs[i].real for i in real_idx]
    m = len(old_eigs)
    if not (0 <= 2 * s_tilde <= m):
        raise StructureInfeasible(
            f"s_tilde={s_tilde} conjugate pairs do not fit into {m} targets"
        )
    avoid = np.array([complex(a) for a in avoid], dtype=complex)
    rng = np.random.default_rng(seed)
    taken = []  # the pairs (upper members), then the reals

    if s_tilde == len(pairs) and max_perturbation == 0.0:
        taken = pairs + reals
    elif s_tilde == len(pairs):

        def perturbed(z):  # radius before angle: seeded targets rely on the order
            r = rng.uniform(0.0, max_perturbation)
            return z + r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))

        for z in pairs:
            _draw(lambda: perturbed(z), taken, avoid, True,
                  f"could not place a perturbed conjugate pair near {z:.6e}")
        for x in reals:
            _draw(lambda: complex(x + rng.uniform(-max_perturbation, max_perturbation)),
                  taken, avoid, False,
                  f"could not place a perturbed real target near {x:.6e}")
    else:
        # Structure change: fresh draws in a bounded box, nothing to stay
        # near. Real parts and moduli stay order-one.
        for _ in range(s_tilde):
            _draw(lambda: complex(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)),
                  taken, avoid, True,
                  f"could not draw {s_tilde} fresh conjugate pairs")
        for _ in range(m - 2 * s_tilde):
            _draw(lambda: complex(rng.uniform(0.05, 1.0)), taken, avoid, False,
                  "could not draw enough fresh real targets")
    # in the canonical order of spectral, as a block layout sorts and expands them
    values = [w for z in taken[:s_tilde] for w in (z, z.conjugate())]
    d = real_lambda_from_eigenvalues(values + [complex(x.real) for x in taken[s_tilde:]])
    return [complex(v) for v in _expanded_values(d.Lambda, d.s)]
