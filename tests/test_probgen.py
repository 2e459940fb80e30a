"""Random instance generation and target drawing."""

import hashlib

import numpy as np
import pytest

import spilloverfree as sf
import spilloverfree.probgen
from spilloverfree.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    GenerationFailed,
    NotConjugateClosed,
    StructureInfeasible,
    ZeroEigenvalue,
)


def test_problem_spec_feasibility():
    with pytest.raises(StructureInfeasible):
        sf.ProblemSpec(n_u=4, n_phi=2, p=5, s_tilde=1)
    with pytest.raises(StructureInfeasible):
        sf.ProblemSpec(n_u=4, n_phi=2, p=3, s_tilde=2)
    with pytest.raises(DimensionMismatch):
        sf.ProblemSpec(n_u=0, n_phi=2, p=1, s_tilde=0)
    with pytest.raises(DimensionMismatch):
        sf.ProblemSpec(n_u=4, n_phi=-1, p=1, s_tilde=0)
    with pytest.raises(DimensionMismatch):
        sf.ProblemSpec(n_u=4, n_phi=2, p=2, s_tilde=1, max_perturbation=-0.1)


def test_generate_pencil_is_deterministic():
    spec = sf.ProblemSpec(n_u=9, n_phi=3, p=2, s_tilde=1, seed=13)
    a = sf.generate_pencil(spec)
    b = sf.generate_pencil(spec)
    assert np.array_equal(a.M_u, b.M_u)
    assert np.array_equal(a.K, b.K)


def test_generate_pencil_mass_is_indefinite_and_bounded_away():
    spec = sf.ProblemSpec(n_u=12, n_phi=4, p=2, s_tilde=1, seed=0)
    p = sf.generate_pencil(spec)
    eigs = np.linalg.eigvalsh(p.M_u)
    assert np.abs(eigs).min() >= 1.0 - 1e-12
    assert eigs.min() < 0 < eigs.max()


def test_generate_pencil_solvable_spectrum():
    spec = sf.ProblemSpec(n_u=12, n_phi=4, p=2, s_tilde=1, seed=0)
    p = sf.generate_pencil(spec)
    s = sf.solve_spectrum(p)
    assert len(s.finite_pairs) == 12
    assert s.pair_count() > 0 and s.real_count() >= 0


def test_generate_pencil_exhausts_retries(monkeypatch):
    def always_degenerate(_):
        raise DegenerateSpectrum("forced")

    monkeypatch.setattr(
        spilloverfree.probgen, "solve_spectrum", always_degenerate
    )
    spec = sf.ProblemSpec(n_u=4, n_phi=1, p=1, s_tilde=0, seed=0)
    with pytest.raises(GenerationFailed):
        spilloverfree.probgen.generate_pencil(spec)


def test_perturb_targets_zero_perturbation_returns_inputs():
    old = [1.0 + 2.0j, 1.0 - 2.0j, -0.5, 3.0]
    out = sf.perturb_targets(old, s_tilde=1, max_perturbation=0.0, seed=0)
    assert out == [1.0 + 2.0j, 1.0 - 2.0j, -0.5, 3.0]


def test_perturb_targets_moves_each_value_within_bound():
    old = [1.0 + 2.0j, 1.0 - 2.0j, -0.75, 2.5]
    out = sf.perturb_targets(old, s_tilde=1, max_perturbation=0.25, seed=4)
    assert len(out) == 4
    # canonical order: pair first (positive imaginary part leading)
    assert out[0].imag > 0 and out[1] == out[0].conjugate()
    assert abs(out[0] - (1.0 + 2.0j)) <= 0.25 + 1e-12
    got_reals = sorted(v.real for v in out[2:])
    for new, ref in zip(got_reals, sorted([-0.75, 2.5])):
        assert abs(new - ref) <= 0.25 + 1e-12
        assert new != ref


def test_perturb_targets_is_deterministic():
    old = [1.0 + 2.0j, 1.0 - 2.0j, -0.75]
    a = sf.perturb_targets(old, 1, 0.3, seed=(7, 2))
    b = sf.perturb_targets(old, 1, 0.3, seed=(7, 2))
    assert a == b


def test_perturb_targets_respects_avoid_set():
    old = [2.0, 3.0]
    avoid = [2.1]
    for seed in range(5):
        out = sf.perturb_targets(old, 0, 0.3, seed=seed, avoid=avoid)
        for v in out:
            assert abs(v - 2.1) > 1e-6


def test_perturb_targets_structure_change_draws_fresh():
    old = [1.0 + 2.0j, 1.0 - 2.0j, -0.5, 3.0]
    out = sf.perturb_targets(old, s_tilde=2, max_perturbation=0.3, seed=1)
    assert len(out) == 4
    assert out[0].imag > 0 and out[1] == out[0].conjugate()
    assert out[2].imag > 0 and out[3] == out[2].conjugate()
    for v in out:
        assert abs(v) >= 1e-3


def test_perturb_targets_all_reals_to_pairs():
    out = sf.perturb_targets([1.0, 2.0], s_tilde=1, max_perturbation=0.0, seed=2)
    assert out[0].imag >= 1e-3
    assert out[1] == out[0].conjugate()


def test_perturb_targets_infeasible_pair_count():
    with pytest.raises(StructureInfeasible):
        sf.perturb_targets([1.0, 2.0, 3.0], s_tilde=2, max_perturbation=0.1, seed=0)


def test_perturb_targets_budget_exhaustion():
    # zero perturbation cannot escape an avoid set sitting on the inputs
    with pytest.raises(StructureInfeasible):
        sf.perturb_targets(
            [2.0, 3.0], s_tilde=0, max_perturbation=1e-9, seed=0, avoid=[2.0]
        )


def test_perturb_targets_rejects_zero_input():
    with pytest.raises(ZeroEigenvalue):
        sf.perturb_targets([0.0, 1.0], 0, 0.1, seed=0)


def test_perturb_targets_rejects_unpaired_complex():
    with pytest.raises(NotConjugateClosed):
        sf.perturb_targets([1.0 + 1.0j, 2.0], 1, 0.1, seed=0)


_TARGET_GRID_OLD = (
    [1.0 + 2.0j, 1.0 - 2.0j, -0.75, 2.5],
    [0.5 + 0.3j, 0.5 - 0.3j, -1.0 + 1.0j, -1.0 - 1.0j, 3.0],
    [1.0, -2.0, 4.0],
)
_TARGET_GRID_AVOID = [2.4, -0.8, 1.1 + 2.05j, 0.45 + 0.3j, 0.6]
# sha256 of the grid's targets (float.hex of each real and imaginary part)
_TARGET_GRID_SHA256 = "65f97db50a7f658f191ca2e732c163c79bf2f1cea6a388a8b2d2d0aef7eccd18"


def _target_grid_digest():
    h = hashlib.sha256()
    for old in _TARGET_GRID_OLD:
        for s_tilde in range(len(old) // 2 + 1):
            for max_perturbation in (0.0, 0.3, 5.0):
                for seed in range(4):
                    out = sf.perturb_targets(old, s_tilde, max_perturbation, (seed, 2),
                                             avoid=_TARGET_GRID_AVOID)
                    h.update(";".join(f"{z.real.hex()},{z.imag.hex()}" for z in out).encode())
                    h.update(b"\n")
    return h.hexdigest()


def test_perturb_targets_are_pinned():
    # both branches (perturbed, and fresh draws after a structure
    # change) keep their exact values, draw order included
    assert _target_grid_digest() == _TARGET_GRID_SHA256


def _scalar_admissible(z, chosen, avoid, needs_imag):
    """The admissibility rule one other value at a time."""
    if abs(z) < sf.probgen.MIN_TARGET_MODULUS:
        return False
    if needs_imag and abs(z.imag) < sf.probgen.MIN_TARGET_MODULUS:
        return False
    others = list(chosen) + [w.conjugate() for w in chosen] + list(avoid)
    tol = spilloverfree.probgen._DISJOINT_TOL
    return not any(abs(z - w) < tol * max(abs(w), 1.0) for w in others)


def test_admissible_agrees_with_the_scalar_rule():
    rng = np.random.default_rng(0)
    tol = spilloverfree.probgen._DISJOINT_TOL
    decisions = []
    for _ in range(3000):
        scale = 10.0 ** rng.uniform(-4, 3)
        values = scale * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
        k = int(rng.integers(0, 5))
        chosen, avoid = [complex(v) for v in values[:k]], values[k:]
        others = np.concatenate([values[:k], np.conj(values[:k]), avoid])
        w = others[rng.integers(others.size)] if rng.random() < 0.8 else 0.0
        # near the disjointness threshold of w, or near the modulus floor
        z = complex(w + tol * max(abs(w), 1.0) * rng.uniform(0.5, 1.5)
                    * np.exp(2j * np.pi * rng.random()))
        for needs_imag in (False, True):
            got = spilloverfree.probgen._admissible(z, chosen, avoid, needs_imag=needs_imag)
            assert got == _scalar_admissible(z, chosen, avoid, needs_imag), (z, needs_imag)
            decisions.append(got)
    assert 0.2 < np.mean(decisions) < 0.8
