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
    with pytest.raises(DimensionMismatch, match="seed must be finite and nonnegative"):
        sf.ProblemSpec(n_u=4, n_phi=2, p=2, s_tilde=1, seed=-1)


def test_perturb_targets_refuses_a_negative_bound_as_problem_spec_does():
    with pytest.raises(DimensionMismatch) as spec:
        sf.ProblemSpec(n_u=4, n_phi=2, p=2, s_tilde=1, max_perturbation=-0.1)
    with pytest.raises(DimensionMismatch) as draw:
        sf.perturb_targets([1j, -1j], s_tilde=1, max_perturbation=-0.1, seed=0)
    assert str(draw.value) == str(spec.value)


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
    # a 1e-9 perturbation cannot escape an avoid set sitting on the inputs;
    # the error names the rule's last refusal: the gap, the threshold, the radius
    with pytest.raises(StructureInfeasible, match=r"within 100 draws; last refusal: two finite "
                       r"eigenvalues are only .* apart \(tolerance 1.0e-08 x spectral radius "
                       r"2.000e\+00\)"):
        sf.perturb_targets(
            [2.0, 3.0], s_tilde=0, max_perturbation=1e-9, seed=0, avoid=[2.0]
        )
    with pytest.raises(StructureInfeasible, match="last refusal: .* drawing margin"):
        spilloverfree.probgen._draw(lambda: 1e-4 + 0j, [], np.array([1.0]), False, "refused")


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


@pytest.mark.parametrize("radius", [1.0, 3.0e2, 1.0e6])
def test_the_draw_and_the_rule_share_one_threshold(radius):
    # candidates at 0.5x and 1.5x DEGENERACY_TOL * radius from a retained
    # value, from their own conjugate or from zero: the draw takes exactly
    # those that the solve's rule admits as part of the whole set
    tol = sf.pencil.DEGENERACY_TOL * radius
    avoid = np.array([radius, 0.5, -0.3 + 0.4j, -0.3 - 0.4j])
    rng = np.random.default_rng(0)
    cases = []
    for factor in (0.5, 1.5):
        sign, turn = rng.choice([-1.0, 1.0]), np.exp(2j * np.pi * rng.random())
        cases += [(complex(0.5 + sign * factor * tol), False, factor),  # beside 0.5
                  (-0.3 + 0.4j + factor * tol * turn, True, factor)]  # beside a retained pair
        if tol >= 4 * sf.probgen.MIN_TARGET_MODULUS:  # outside the drawing margin
            cases += [(complex(sign * factor * tol), False, factor),
                      (0.25 + 0.5j * factor * tol, True, factor)]
    assert len(cases) == (8 if radius == 1.0e6 else 4)
    for z, pair, factor in cases:
        try:
            sf.pencil._check_degeneracy(np.r_[avoid, [z, z.conjugate()] if pair else [z]])
            admitted = True
        except DegenerateSpectrum:
            admitted = False
        assert admitted == (factor > 1.0), (z, radius)
        taken = []
        try:
            spilloverfree.probgen._draw(lambda: z, taken, avoid, pair, "refused")
        except StructureInfeasible as exc:
            assert "last refusal: " in str(exc) and f"spectral radius {radius:.3e}" in str(exc)
        assert taken == ([z if z.imag >= 0 else z.conjugate()] if admitted else [])
