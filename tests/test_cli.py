"""Command line driver tests.

Everything runs in process through cli.main(argv) against tmp_path
directories, so the exit codes come back as return values and the
artifact files can be inspected directly.
"""

import io
import os
import shutil
import subprocess
import sys
import tarfile
import threading
from pathlib import Path

import numpy as np
import pytest

import spilloverfree as sf
from spilloverfree import cli, mmio
from spilloverfree.cli import main
from spilloverfree.spectral import _expanded_values

from conftest import (ILL_SCALED_SEEDS, ill_scaled_pencil, multiset_match, record_beside_threads,
                      record_fill_threads, solve_worker, spectrum_values)


def run(*argv):
    return main([str(a) for a in argv])


def read_report(directory, name):
    return mmio.read_report(os.path.join(directory, name))


def body_lines(path):
    """Report content without the timestamp header."""
    with open(path) as fh:
        return [l for l in fh.read().splitlines() if not l.startswith("#")]


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("gen"))
    assert run("gen", "--nu", 8, "--nphi", 3, "--seed", 5, "--out", d) == 0
    return d


@pytest.fixture(scope="module")
def embed_run(gen_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("emb"))
    rc = run("embed", "--in", gen_dir, "--out", d,
             "--p", 4, "--stilde", 1, "--seed", 3)
    assert rc == 0
    return gen_dir, d


def test_gen_writes_pencil_and_report(gen_dir, capsys):
    for name in ("M_u.mtx", "K.mtx", "spectrum.spectral", "gen.report"):
        assert os.path.exists(os.path.join(gen_dir, name))
    report = read_report(gen_dir, "gen.report")
    assert report["command"] == "gen"
    assert report["n_u"] == "8"
    assert report["n_phi"] == "3"
    assert int(report["finite_count"]) == 8
    assert 2 * int(report["pair_count"]) + int(report["real_count"]) == 8
    for name in ("M_u.mtx", "K.mtx", "spectrum.spectral"):
        stored = report[f"sha256_{name}"]
        assert stored == mmio.sha256_file(os.path.join(gen_dir, name))


def test_gen_is_deterministic_modulo_timestamp(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("gen", "--nu", 6, "--nphi", 2, "--seed", 11, "--out", a) == 0
    assert run("gen", "--nu", 6, "--nphi", 2, "--seed", 11, "--out", b) == 0
    for name in ("M_u.mtx", "K.mtx", "spectrum.spectral"):
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read()
    assert body_lines(os.path.join(a, "gen.report")) == \
        body_lines(os.path.join(b, "gen.report"))


def test_gen_rejects_oversized_selection(tmp_path):
    rc = run("gen", "--nu", 2, "--nphi", 1, "--p", 4, "--out", str(tmp_path))
    assert rc == 25


def test_solve_reproduces_generated_spectrum(gen_dir, tmp_path):
    out = str(tmp_path)
    assert run("solve", "--in", gen_dir, "--out", out) == 0
    with open(os.path.join(gen_dir, "spectrum.spectral")) as fa, \
            open(os.path.join(out, "spectrum.spectral")) as fb:
        assert fa.read() == fb.read()
    report = read_report(out, "solve.report")
    assert report["pair_count"] == read_report(gen_dir, "gen.report")["pair_count"]
    assert report["input_dir"] == gen_dir


def test_embed_writes_artifacts_and_report(embed_run):
    gen, emb = embed_run
    for name in ("M_u_tilde.mtx", "K_tilde.mtx", "X1_tilde.mtx", "theta.mtx",
                 "gamma_tilde.mtx", "selection.spectral", "targets.spectral",
                 "embed.report"):
        assert os.path.exists(os.path.join(emb, name))
    report = read_report(emb, "embed.report")
    assert report["command"] == "embed"
    assert report["input_dir"] == os.path.relpath(gen, emb)
    assert report["p"] == "4" and report["s"] == "1" and report["s_tilde"] == "1"
    assert float(report["res1_updated"]) < 1e-10
    assert float(report["rec_mk"]) >= 0.0
    for name in ("M_u_tilde.mtx", "K_tilde.mtx", "selection.spectral"):
        assert report[f"sha256_{name}"] == \
            mmio.sha256_file(os.path.join(emb, name))


def test_embed_updated_system_carries_the_targets(embed_run):
    gen, emb = embed_run
    M_u_t = mmio.read_matrix(os.path.join(emb, "M_u_tilde.mtx"))
    K_t = mmio.read_matrix(os.path.join(emb, "K_tilde.mtx"))
    target = mmio.read_spectral(os.path.join(emb, "targets.spectral"))
    selection = mmio.read_spectral(os.path.join(emb, "selection.spectral"))
    n_phi = K_t.shape[0] - M_u_t.shape[0]
    updated = sf.validate_pencil(M_u_t, K_t, M_u_t.shape[0], n_phi)
    got = spectrum_values(sf.solve_spectrum(updated))
    want = sf.block_eigenvalues(target.Lambda, target.s)
    want = [z for j, z in enumerate(want) for z in
            ([z, z.conjugate()] if j < target.s else [z])]
    kept = sf.block_eigenvalues(selection.Lambda, selection.s)
    for z in want:
        assert min(abs(g - z) for g in got) < 1e-8 * max(1.0, abs(z))
    for j, z in enumerate(kept):
        assert min(abs(g - z) for g in got) > 1e-7 * max(1.0, abs(z))


def test_embed_needs_p_or_selection_file(gen_dir, tmp_path):
    assert run("embed", "--in", gen_dir, "--out", str(tmp_path)) == 10


def test_embed_with_selection_and_target_files(gen_dir, tmp_path):
    spectrum = mmio.read_spectral(os.path.join(gen_dir, "spectrum.spectral"))
    vals = sf.block_eigenvalues(spectrum.Lambda, spectrum.s)
    lam = next(z.real for z in vals[spectrum.s:])
    sel_path = str(tmp_path / "sel.spectral")
    tgt_path = str(tmp_path / "tgt.spectral")
    mmio.write_spectral(sf.real_lambda_from_eigenvalues([lam]), sel_path)
    mmio.write_spectral(sf.real_lambda_from_eigenvalues([lam + 0.25]), tgt_path)
    out = str(tmp_path / "out")
    rc = run("embed", "--in", gen_dir, "--out", out,
             "--select", sel_path, "--targets", tgt_path)
    assert rc == 0
    report = read_report(out, "embed.report")
    assert report["p"] == "1" and report["s_tilde"] == "0"
    M_u_t = mmio.read_matrix(os.path.join(out, "M_u_tilde.mtx"))
    K_t = mmio.read_matrix(os.path.join(out, "K_tilde.mtx"))
    updated = sf.validate_pencil(M_u_t, K_t, M_u_t.shape[0],
                                 K_t.shape[0] - M_u_t.shape[0])
    got = spectrum_values(sf.solve_spectrum(updated))
    assert min(abs(g - (lam + 0.25)) for g in got) < 1e-8


def test_embed_rejects_infeasible_pair_count(gen_dir, tmp_path):
    rc = run("embed", "--in", gen_dir, "--out", str(tmp_path),
             "--p", 2, "--s", 2)
    assert rc == 25


def test_embed_rejects_overlapping_twin_match(tmp_path):
    d = str(tmp_path / "twin")
    os.makedirs(d)
    mmio.write_matrix(np.eye(2), os.path.join(d, "M_u.mtx"))
    mmio.write_matrix(np.diag([-1.0, -(1 + 1e-7), 1.0]),
                      os.path.join(d, "K.mtx"))
    sel_path = os.path.join(d, "sel.spectral")
    mmio.write_spectral(sf.real_lambda_from_eigenvalues([1.0]), sel_path)
    rc = run("embed", "--in", d, "--out", str(tmp_path / "out"),
             "--select", sel_path)
    assert rc == 19


def test_embed_rejects_unmatched_selection(gen_dir, tmp_path):
    sel_path = str(tmp_path / "sel.spectral")
    mmio.write_spectral(sf.real_lambda_from_eigenvalues([99.0]), sel_path)
    rc = run("embed", "--in", gen_dir, "--out", str(tmp_path / "out"),
             "--select", sel_path)
    assert rc == 18


def test_embed_rejects_target_size_mismatch(gen_dir, tmp_path):
    tgt_path = str(tmp_path / "tgt.spectral")
    mmio.write_spectral(sf.real_lambda_from_eigenvalues([2.5, 3.5]), tgt_path)
    rc = run("embed", "--in", gen_dir, "--out", str(tmp_path / "out"),
             "--p", 1, "--s", 0, "--targets", tgt_path)
    assert rc == 10


def test_embed_rejects_malformed_target_file(gen_dir, tmp_path):
    tgt_path = str(tmp_path / "tgt.spectral")
    with open(tgt_path, "w") as fh:
        fh.write("2 2\npair 1.0 2.0\npair 3.0 4.0\n")
    rc = run("embed", "--in", gen_dir, "--out", str(tmp_path / "out"),
             "--p", 2, "--s", 0, "--targets", tgt_path)
    assert rc == 17


def test_embed_rejects_a_selection_file_with_rank_deficient_vectors(gen_dir, tmp_path):
    # two reals whose stored eigenvector columns coincide: RealSpectralData
    # refuses the file (MalformedBlocks) before any selection
    sel_path = str(tmp_path / "sel.spectral")
    column = [f"{v:.17e}\n" for v in np.random.default_rng(3).standard_normal(11)]
    with open(sel_path, "w") as fh:
        fh.write("2 0\nreal 1.0\nreal 2.0\n11 2\n" + "".join(column * 2))
    rc = run("embed", "--in", gen_dir, "--out", str(tmp_path / "out"), "--select", sel_path)
    assert rc == sf.MalformedBlocks.exit_code == 17


@pytest.mark.parametrize("values", [
    [0.6248334536243281, -0.5],  # a retained eigenvalue of gen_dir's pencil
    [1e-9, -0.5],
    [-0.5, -0.5 + 1e-12],
], ids=["retained", "near_zero", "coincident"])
def test_embed_refuses_inadmissible_target_files(gen_dir, tmp_path, values):
    # the solve's rule on retained + targets, before any update is formed
    sel_path, tgt_path = str(tmp_path / "sel.spectral"), str(tmp_path / "tgt.spectral")
    mmio.write_spectral(sf.real_lambda_from_eigenvalues([-0.7409032647635984,
                                                         -0.20700445868075643]), sel_path)
    mmio.write_spectral(sf.real_lambda_from_eigenvalues(values), tgt_path)
    out = tmp_path / "out"
    rc = run("embed", "--in", gen_dir, "--out", out, "--select", sel_path, "--targets", tgt_path)
    assert rc == sf.DegenerateSpectrum.exit_code == 13
    assert not out.exists()


@pytest.mark.parametrize("command", ["embed", "optimize", "gen", "solve", "demo"])
def test_a_refused_run_leaves_no_directory(gen_dir, tmp_path, command):
    # every command writes last, so one refused before that creates nothing
    sel_path = str(tmp_path / "sel.spectral")
    mmio.write_spectral(sf.real_lambda_from_eigenvalues([99.0]), sel_path)
    out = tmp_path / "out"
    argv, code = {
        "embed": (("embed", "--in", gen_dir, "--select", sel_path, "--out", out), 18),
        "optimize": (("optimize", "--in", gen_dir, "--select", sel_path, "--out", out), 18),
        # more eigenvalues to replace than the pencil has
        "gen": (("gen", "--nu", 2, "--nphi", 1, "--p", 4, "--out", out), 25),
        # no pencil to read, and the spectrum would go beside it
        "solve": (("solve", "--in", out), 29),
        # the spectrum offers fewer conjugate pairs than the example replaces
        "demo": (("demo", "--example", 1, "--nu", 6, "--nphi", 3, "--seed", 1, "--out", out), 25),
    }[command]
    assert run(*argv) == code
    assert not out.exists()


# The family's seeds whose spectral radii (5.7e7 to 1.6e10) leave no
# admissible target in the draw's unit box: exit 25 before any update.
_REFUSED_DRAWS = (3, 11, 14, 17, 19, 22, 24, 35, 43, 49)


def test_no_run_that_exits_0_writes_a_pencil_solve_or_verify_refuses(tmp_path):
    codes = {}
    for seed in ILL_SCALED_SEEDS:
        d = tmp_path / str(seed)
        d.mkdir()
        for name, A in zip(("M_u.mtx", "K.mtx"), ill_scaled_pencil(seed)):
            mmio.write_matrix(A, str(d / name))
        if run("solve", "--in", d) != 0:
            continue
        sel = str(d / "sel.spectral")
        spectrum = mmio.read_spectral(str(d / "spectrum.spectral"))
        mmio.write_spectral(sf.spectral._columns(spectrum, [0, 1]), sel)
        out, updated = d / "run", d / "updated"
        codes[seed] = run("embed", "--in", d, "--out", out, "--select", sel,
                          "--stilde", 0, "--seed", 1)
        if codes[seed]:
            assert 10 <= codes[seed] <= 28 and not out.exists(), (seed, codes[seed])
            continue
        assert run("verify", "--in", out) == 0, seed
        updated.mkdir()
        shutil.copy(out / "M_u_tilde.mtx", updated / "M_u.mtx")
        shutil.copy(out / "K_tilde.mtx", updated / "K.mtx")
        assert run("solve", "--in", updated) == 0, seed
    assert {s: codes[s] for s in _REFUSED_DRAWS} == dict.fromkeys(_REFUSED_DRAWS, 25)
    assert sorted(codes.values()).count(0) == 20


def test_optimize_never_loses_to_its_seed(gen_dir, tmp_path):
    # at the default weights the choice_a seed is certified: no search
    out = str(tmp_path)
    rc = run("optimize", "--in", gen_dir, "--out", out,
             "--p", 4, "--stilde", 1, "--seed", 3, "--restarts", 1)
    assert rc == 0
    report = read_report(out, "optimize.report")
    assert report["command"] == "optimize"
    best = float(report["best_rec_mk"])
    assert report["baseline_rec_mk"] != "unavailable"
    assert best == float(report["baseline_rec_mk"])
    assert best == pytest.approx(float(report["rec_mk"]), rel=1e-12)
    assert report["iterations"] == "0"
    assert report["converged"] == "true"
    assert float(report["seed_certificate"]) < 1.0
    assert run("verify", "--in", out) == 0


def test_optimize_searches_where_the_seed_is_not_certified(gen_dir, tmp_path):
    out = str(tmp_path)
    rc = run("optimize", "--in", gen_dir, "--out", out, "--p", 4, "--stilde", 1,
             "--seed", 3, "--restarts", 1, "--tau1", 0.01)
    assert rc == 0
    report = read_report(out, "optimize.report")
    assert int(report["iterations"]) >= 1
    assert float(report["seed_certificate"]) >= sf.objective.SEED_CERTIFICATE_MAX
    assert float(report["best_rec_mk"]) < float(report["baseline_rec_mk"])
    assert run("verify", "--in", out) == 0


@pytest.mark.parametrize("flags", [("--tau1", 0), ("--max-evals", -5)])
def test_optimize_rejects_bad_settings_before_searching(gen_dir, tmp_path, monkeypatch, flags):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("spilloverfree.cli.optimize_gamma_tilde", no_search)
    rc = run("optimize", "--in", gen_dir, "--out", tmp_path, "--p", 4, "--stilde", 1,
             "--seed", 3, *flags)
    assert rc == sf.DimensionMismatch.exit_code == 10
    assert not os.path.exists(os.path.join(tmp_path, "optimize.report"))


@pytest.mark.parametrize("argv", [
    ("embed", "--in", "GEN", "--p", 4, "--stilde", 1, "--seed", 3, "--tau1", 0),
    ("demo", "--example", 1, "--nu", 30, "--nphi", 12, "--seed", 5, "--tau1", 0),
])
def test_bad_weights_exit_before_any_output(gen_dir, tmp_path, argv):
    out = tmp_path / "out"
    argv = [gen_dir if a == "GEN" else a for a in argv]
    assert run(*argv, "--out", out) == sf.DimensionMismatch.exit_code == 10
    assert not out.exists()


EMBED = ("--in", "GEN", "--p", 4, "--stilde", 1, "--seed", 3)


@pytest.mark.parametrize("argv, code", [
    (("gen", "--nu", 8, "--nphi", 3, "--seed", -1), 10),
    (("embed", *EMBED, "--seed", -1), 10),
    (("optimize", *EMBED, "--seed", -1), 10),
    (("demo", "--example", 1, "--nu", 8, "--nphi", 3, "--seed", -1), 10),
    (("embed", *EMBED, "--max-perturb", -0.1), 10),
    (("optimize", *EMBED, "--max-perturb", -0.1), 10),
    (("embed", *EMBED, "--max-perturb", "nan"), 10),
    (("embed", *EMBED, "--max-perturb", "inf"), 10),
    (("gen", "--nu", 8, "--nphi", 3, "--max-perturb", "nan"), 10),
    (("embed", *EMBED, "--tau1", "nan"), 10),
    (("optimize", *EMBED, "--tau2", "inf"), 10),
    (("embed", *EMBED, "--tol-match", -1), 10),
    (("optimize", *EMBED, "--tol-match", -1), 10),
    (("optimize", *EMBED, "--restarts", -2), 10),
    # without --s the selection takes --stilde conjugate pairs; at p = 2
    # the spectrum has the 2 - 2 * (-1) reals such a selection would draw
    (("embed", *EMBED, "--p", 2, "--stilde", -1), 25),
    (("optimize", *EMBED, "--p", 2, "--stilde", -1), 25),
], ids=["gen-seed", "embed-seed", "optimize-seed", "demo-seed", "embed-max-perturb",
        "optimize-max-perturb", "embed-max-perturb-nan", "embed-max-perturb-inf",
        "gen-max-perturb-nan", "embed-tau1-nan", "optimize-tau2-inf", "embed-tol-match",
        "optimize-tol-match", "optimize-restarts", "embed-stilde", "optimize-stilde"])
def test_a_negative_or_non_finite_argument_exits_with_its_code(gen_dir, tmp_path, argv, code):
    out = tmp_path / "out"
    argv = [gen_dir if a == "GEN" else a for a in argv]
    assert run(*argv, "--out", out) == code
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--tol-match", -1), ("--tol-check", -1)])
def test_verify_refuses_a_negative_tolerance(embed_run, tmp_path, flags):
    run_dir = shutil.copytree(embed_run[1], tmp_path / "run")
    (run_dir / "verify.report").unlink(missing_ok=True)
    assert run("verify", "--in", run_dir, *flags) == 10
    assert not (run_dir / "verify.report").exists()


@pytest.mark.parametrize("command", ["solve", "embed"])
def test_a_K_of_lower_order_than_M_u_exits_10(gen_dir, tmp_path, command):
    M_u = mmio.read_matrix(os.path.join(gen_dir, "M_u.mtx"))
    pencil = tmp_path / "pencil"
    pencil.mkdir()
    mmio.write_matrix(M_u, pencil / "M_u.mtx")
    mmio.write_matrix(M_u[:5, :5], pencil / "K.mtx")
    argv = ("--out", tmp_path / "out", "--p", 2, "--stilde", 1) if command == "embed" else ()
    assert run(command, "--in", pencil, *argv) == 10
    assert sorted(os.listdir(pencil)) == ["K.mtx", "M_u.mtx"]


LEGACY_RUNS = os.path.join(os.path.dirname(__file__), "data", "legacy_runs")


@pytest.mark.parametrize("run_dir", ["embed", "optimize"])
def test_runs_written_by_an_earlier_version_still_verify(tmp_path, monkeypatch, run_dir):
    """gen --nu 12 --nphi 5 --seed 5, then embed --p 6 --s 2 --stilde 2
    --seed 3 and optimize --p 6 --s 2 --stilde 1 --seed 5, written with
    one BLAS thread by the version before the standard eigensolve and
    the Gram-matrix norms; their residuals must still reproduce."""
    shutil.copytree(LEGACY_RUNS, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)  # the reports name their pencil as "gen"
    assert run("verify", "--in", run_dir) == 0
    assert read_report(run_dir, "verify.report")["spectrum_source"] == "stored"


def test_verify_finds_the_pencil_relative_to_the_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--nu", 8, "--nphi", 3, "--seed", 5, "--out", "runs/gen") == 0
    for command in ("embed", "optimize"):
        assert run(command, "--in", "runs/gen", "--out", f"runs/{command}",
                   "--p", 4, "--stilde", 1, "--seed", 3) == 0
        report = read_report(f"runs/{command}", f"{command}.report")
        assert report["input_dir"] == os.path.join("..", "gen")
    monkeypatch.chdir("runs")
    assert run("verify", "--in", "embed") == 0
    assert read_report("embed", "verify.report")["pencil_dir"] == "gen"
    # the run and its pencil move together
    shutil.move(str(tmp_path / "runs"), str(tmp_path / "moved"))
    monkeypatch.chdir(tmp_path)
    assert run("verify", "--in", "moved/optimize") == 0


def test_verify_accepts_untampered_run(embed_run):
    gen, emb = embed_run
    assert run("verify", "--in", emb) == 0
    report = read_report(emb, "verify.report")
    assert report["failures"] == "0"
    assert float(report["res1_updated"]) < 1e-10
    assert report["pencil_dir"] == gen


def test_verify_detects_a_tampered_artifact(gen_dir, tmp_path, capsys):
    emb = str(tmp_path)
    assert run("embed", "--in", gen_dir, "--out", emb,
               "--p", 4, "--stilde", 1, "--seed", 3) == 0
    path = os.path.join(emb, "K_tilde.mtx")
    K_t = mmio.read_matrix(path)
    K_t[0, 0] += 1e-3
    mmio.write_matrix(K_t, path)
    capsys.readouterr()
    assert run("verify", "--in", emb) == 28
    err = capsys.readouterr().err
    assert "hash mismatch" in err
    assert int(read_report(emb, "verify.report")["failures"]) >= 1


def test_verify_refuses_a_target_on_a_retained_eigenvalue(embed_run, tmp_path, capsys):
    # a run whose target sits on a retained eigenvalue, its stored hash
    # updated to match: the rule embed applies before it writes refuses it
    gen, emb = embed_run
    run_dir = str(tmp_path / "emb")
    shutil.copytree(emb, run_dir)
    path = os.path.join(run_dir, "targets.spectral")
    target = mmio.read_spectral(path)
    selection = mmio.read_spectral(os.path.join(run_dir, "selection.spectral"))
    chosen = _expanded_values(selection.Lambda, selection.s)
    spectrum = mmio.read_spectral(os.path.join(gen, "spectrum.spectral"))
    retained = [v for v in _expanded_values(spectrum.Lambda, spectrum.s)
                if v.imag == 0 and np.abs(chosen - v).min() > 1e-6 * abs(v)]
    values = _expanded_values(target.Lambda, target.s)
    values[-1] = retained[0]
    mmio.write_spectral(sf.real_lambda_from_eigenvalues(list(values)), path)
    report = os.path.join(run_dir, "embed.report")
    stored = read_report(run_dir, "embed.report")["sha256_targets.spectral"]
    with open(report) as fh:
        text = fh.read()
    with open(report, "w") as fh:
        fh.write(text.replace(stored, mmio.sha256_file(path)))
    capsys.readouterr()
    assert run("verify", "--in", run_dir, "--pencil", gen) == 28
    err = capsys.readouterr().err
    assert "targets.spectral with the retained eigenvalues: two finite eigenvalues are only" in err
    assert "hash mismatch" not in err
    assert int(read_report(run_dir, "verify.report")["failures"]) >= 1


def test_verify_needs_a_run_report(tmp_path):
    assert run("verify", "--in", str(tmp_path)) == 28


def test_missing_directory_exits_with_io_code(tmp_path):
    rc = run("solve", "--in", str(tmp_path / "nope"))
    assert rc == 29


def test_corrupt_matrix_file_is_a_parse_error(tmp_path):
    d = str(tmp_path)
    with open(os.path.join(d, "M_u.mtx"), "w") as fh:
        fh.write("this is not a matrix\n")
    mmio.write_matrix(np.eye(3), os.path.join(d, "K.mtx"))
    assert run("solve", "--in", d) == 27


def test_negative_matrix_dimensions_are_a_parse_error(tmp_path, capsys):
    d = str(tmp_path)
    with open(os.path.join(d, "M_u.mtx"), "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n-1 3 0\n")
    mmio.write_matrix(np.eye(3), os.path.join(d, "K.mtx"))
    assert run("solve", "--in", d) == 27
    assert "M_u.mtx:2:" in capsys.readouterr().err


def test_asymmetric_input_is_rejected(tmp_path):
    d = str(tmp_path)
    mmio.write_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]),
                      os.path.join(d, "M_u.mtx"))
    mmio.write_matrix(np.eye(3), os.path.join(d, "K.mtx"))
    assert run("solve", "--in", d) == 11


def test_singular_mass_block_is_rejected(tmp_path):
    d = str(tmp_path)
    mmio.write_matrix(np.diag([1.0, 0.0]), os.path.join(d, "M_u.mtx"))
    mmio.write_matrix(np.eye(3), os.path.join(d, "K.mtx"))
    assert run("solve", "--in", d) == 12


def test_degenerate_spectrum_is_rejected(tmp_path):
    d = str(tmp_path)
    mmio.write_matrix(np.eye(2), os.path.join(d, "M_u.mtx"))
    mmio.write_matrix(np.diag([2.0, 2.0, 1.0]), os.path.join(d, "K.mtx"))
    assert run("solve", "--in", d) == 13


@pytest.mark.parametrize("example", [1, 2])
def test_demo_runs_end_to_end(example, tmp_path):
    out = str(tmp_path)
    rc = run("demo", "--example", example, "--nu", 12, "--nphi", 5,
             "--seed", 0, "--out", out)
    assert rc == 0
    report = read_report(out, "demo.report")
    assert report["example"] == str(example)
    seed_prefix = "choice_a" if example == 1 else "seed"
    assert float(report["choice_b_rec_mk"]) <= \
        float(report[f"{seed_prefix}_rec_mk"]) + 1e-15
    assert float(report["choice_b_res1_updated"]) < 1e-10
    if example == 1:
        assert float(report["choice_b_seed_certificate"]) < 1.0
        assert report["choice_b_iterations"] == "0"
    else:
        assert report["choice_b_seed_certificate"] == "unavailable"
        assert int(report["choice_b_iterations"]) >= 1
    assert run("verify", "--in", out) == 0


def test_verify_compares_the_residuals_stored_by_demo(tmp_path, capsys):
    out = str(tmp_path)
    assert run("demo", "--example", 1, "--nu", 12, "--nphi", 5, "--seed", 5,
               "--out", out) == 0
    path = os.path.join(out, "demo.report")
    with open(path) as fh:
        lines = fh.read().splitlines()
    tampered = [("choice_b_rec_mk = 9.99e+00" if l.startswith("choice_b_rec_mk ") else l)
                for l in lines]
    assert tampered != lines
    with open(path, "w") as fh:
        fh.write("\n".join(tampered) + "\n")
    capsys.readouterr()
    assert run("verify", "--in", out) == 28
    assert "choice_b_rec_mk: stored 9.99" in capsys.readouterr().err


def test_log_environment_variable_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv("SPILLOVERFREE_LOG", "DEBUG")
    assert run("gen", "--nu", 4, "--nphi", 1, "--seed", 2,
               "--out", str(tmp_path)) == 0


def test_main_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("example, stilde", [(1, 2), (2, 1)])
def test_demo_equals_gen_then_optimize(example, stilde, tmp_path):
    demo, gen, opt = (str(tmp_path / name) for name in ("demo", "gen", "opt"))
    size = ("--nu", 12, "--nphi", 5, "--seed", 5)
    assert run("demo", "--example", example, *size, "--out", demo) == 0
    assert run("gen", *size, "--out", gen) == 0
    assert run("optimize", "--in", gen, "--out", opt, "--p", 6, "--s", 2,
               "--stilde", stilde, "--max-perturb", 0.3, "--seed", 5) == 0
    files = [(gen, name) for name in ("M_u.mtx", "K.mtx")]
    files += [(opt, name) for name in ("M_u_tilde.mtx", "K_tilde.mtx", "X1_tilde.mtx",
                                       "theta.mtx", "gamma_tilde.mtx",
                                       "selection.spectral", "targets.spectral")]
    for directory, name in files:
        with open(os.path.join(demo, name), "rb") as a, \
                open(os.path.join(directory, name), "rb") as b:
            assert a.read() == b.read(), name
    demo_report = read_report(demo, "demo.report")
    opt_report = read_report(opt, "optimize.report")
    for key in ("rec_mk", "res1_updated", "res2_updated"):
        assert demo_report["choice_b_" + key] == opt_report[key]
    assert demo_report["choice_b_iterations"] == opt_report["iterations"]
    assert run("verify", "--in", demo) == 0


def _parity_set():
    """The CLI parity set at n = 140 in the working directory, each non-gen
    run verified; {path: bytes} of what it wrote, reports without '#' lines."""
    select = ("--p", 6, "--s", 2)
    runs = {"gen": ("gen", "--nu", 100, "--nphi", 40, "--seed", 7),
            "embed": ("embed", "--in", "gen", *select, "--stilde", 2, "--seed", 7),
            "tau1": ("optimize", "--in", "gen", *select, "--stilde", 2, "--seed", 7,
                     "--tau1", 0.01, "--restarts", 2),
            "stilde1": ("optimize", "--in", "gen", *select, "--stilde", 1, "--seed", 5),
            "demo1": ("demo", "--example", 1, "--nu", 100, "--nphi", 40, "--seed", 5),
            "demo2": ("demo", "--example", 2, "--nu", 100, "--nphi", 40, "--seed", 5)}
    for name, argv in runs.items():
        assert run(*argv, "--out", name) == 0, name
        assert name == "gen" or run("verify", "--in", name) == 0, name
    return {str(path): b"".join(l for l in path.read_bytes().splitlines(True)
                                if not l.startswith(b"#"))
            for path in sorted(Path().rglob("*")) if path.is_file()}


def test_the_solve_worker_writes_the_same_bytes(tmp_path, monkeypatch):
    files, calls, recorded = {}, {}, record_beside_threads(monkeypatch)
    for on in (True, False):
        (tmp_path / str(on)).mkdir()
        monkeypatch.chdir(tmp_path / str(on))
        with solve_worker(on):
            files[on] = _parity_set()
        calls[on] = recorded[:]
        del recorded[:]
    assert len(files[True]) == 53 and files[True] == files[False]
    main = threading.main_thread()
    names = [name for _, name in calls[True]]
    assert names == [name for _, name in calls[False]]
    assert all(t is not main for t, _ in calls[True]) and all(t is main for t, _ in calls[False])
    # gen, both demos and their verify runs solve (a demo run stores no
    # spectrum); the other commands certify the stored spectrum, whose
    # norms fill beside its products; every run but gen reports, a demo twice
    fills = [name for name in names if "_fill_call" in name]
    assert len(fills) == 5 + 6 and names.count("solve_spectrum.<locals>.<lambda>") == 5
    assert names.count("residual_report.<locals>.updated_k") == 12


# -- one spectrum per chain: stored, certified, or solved --------------------

SELECT = ("--p", 6, "--s", 2, "--stilde", 2, "--seed", 3)


@pytest.fixture(scope="module")
def run12(tmp_path_factory):
    gen = str(tmp_path_factory.mktemp("gen12"))
    emb = str(tmp_path_factory.mktemp("emb12"))
    assert run("gen", "--nu", 12, "--nphi", 5, "--seed", 5, "--out", gen) == 0
    assert run("embed", "--in", gen, "--out", emb, *SELECT) == 0
    return gen, emb


def test_one_eigensolve_per_chain(tmp_path, monkeypatch):
    calls = []
    for module in (sf.pencil.sla, sf.pencil.np.linalg):  # the QZ and the standard solve
        monkeypatch.setattr(module, "eig", lambda *a, _eig=module.eig, **k:
                            calls.append(a[0].shape) or _eig(*a, **k))
    gen, emb, opt = (str(tmp_path / name) for name in ("gen", "emb", "opt"))
    assert run("gen", "--nu", 12, "--nphi", 5, "--seed", 5, "--out", gen) == 0
    assert run("embed", "--in", gen, "--out", emb, *SELECT) == 0
    assert run("optimize", "--in", gen, "--out", opt, *SELECT,
               "--restarts", 1, "--max-evals", 20) == 0
    assert run("verify", "--in", emb) == 0
    assert run("verify", "--in", opt) == 0
    assert calls == [(12, 12)]


def test_the_spectrum_is_never_paired_again(tmp_path, monkeypatch):
    # a solved or stored spectrum is indexed in its block layout: only
    # the p selected or target values ever go through conjugate pairing
    sizes = []
    split = sf.spectral._split_conjugates

    def counting(values, **kwargs):
        sizes.append(len(values))
        return split(values, **kwargs)

    for module in (sf.spectral, sf.probgen):
        monkeypatch.setattr(module, "_split_conjugates", counting)
    gen, emb = (str(tmp_path / name) for name in ("gen", "emb"))
    assert run("gen", "--nu", 12, "--nphi", 5, "--seed", 5, "--out", gen) == 0
    assert run("embed", "--in", gen, "--out", emb, *SELECT) == 0
    assert run("verify", "--in", emb) == 0
    assert sizes and max(sizes) <= SELECT[1]


@pytest.mark.parametrize("command", ["embed", "optimize", "demo"])
def test_a_run_frees_the_retained_side_before_it_writes(command, gen_dir, tmp_path, monkeypatch):
    # the retained side serves reports on the pencil; demo's second report
    # still finds the first one's, and none is kept while the run files are
    # written
    pencils, kept_at_report, kept_at_write = [], [], []
    report, write = cli.residual_report, cli._write

    def recording_report(pencil, *args):
        pencils.append(pencil)
        kept_at_report.append(getattr(pencil, "_retained", None) is not None)
        return report(pencil, *args)

    def recording_write(*args):
        kept_at_write.extend(getattr(p, "_retained", None) is not None for p in pencils)
        return write(*args)

    monkeypatch.setattr(cli, "residual_report", recording_report)
    monkeypatch.setattr(cli, "_write", recording_write)
    out = str(tmp_path / command)
    if command == "demo":
        assert run("demo", "--example", 1, "--nu", 8, "--nphi", 3, "--seed", 5, "--out", out) == 0
        assert kept_at_report == [False, True]
    else:
        assert run(command, "--in", gen_dir, "--out", out, "--p", 4, "--stilde", 1, "--seed", 3,
                   *(["--restarts", 1] if command == "optimize" else [])) == 0
        assert kept_at_report == [False]
    assert kept_at_write == [False] * len(pencils)
    assert len({id(p) for p in pencils}) == 1


def test_verify_certifies_the_stored_spectrum(run12):
    gen, emb = run12
    assert run("verify", "--in", emb) == 0
    report = read_report(emb, "verify.report")
    assert report["spectrum_source"] == "stored"
    assert 0.0 < float(report["spectrum_enclosure_ratio"]) < 1e-6


def _tampered(d, how):
    Lam, X = d.Lambda.copy(), d.X.copy()
    if how == "perturbed_value":
        Lam[-1, -1] *= 1 + 1e-8
    elif how == "close_values":
        Lam[-1, -1] = Lam[-2, -2] * (1 + 1e-10)
    elif how == "dropped_pair":
        return sf.RealSpectralData(Lambda=Lam[2:, 2:], X=X[:, 2:], s=d.s - 1)
    elif how == "swapped_columns":
        X[:, [0, -1]] = X[:, [-1, 0]]
    elif how == "negated_column":
        X[:, -1] *= -1
    elif how == "doubled_column":
        X[:, -1] *= 2
    return sf.RealSpectralData(Lambda=Lam, X=X, s=d.s)


@pytest.mark.parametrize("how", ["perturbed_value", "close_values", "dropped_pair",
                                 "swapped_columns", "negated_column", "doubled_column",
                                 "duplicated_column"])
def test_verify_rejects_a_tampered_stored_spectrum(run12, how, tmp_path, capsys):
    gen, emb = run12
    pencil = str(tmp_path / "pencil")
    shutil.copytree(gen, pencil)
    path = os.path.join(pencil, "spectrum.spectral")
    d = mmio.read_spectral(path)
    assert d.s >= 2 and d.p - 2 * d.s >= 2
    mmio.write_spectral(_tampered(d, how), path)
    if how == "duplicated_column":
        # RealSpectralData refuses a rank-deficient X, so edit the text:
        # the body holds X column by column, one value per line
        with open(path) as fh:
            lines = fh.readlines()
        n = d.X.shape[0]
        lines[-n:] = lines[-2 * n:-n]
        with open(path, "w") as fh:
            fh.writelines(lines)
    capsys.readouterr()
    assert run("verify", "--in", emb, "--pencil", pencil) == 28
    err = capsys.readouterr().err
    assert f"{path} does not belong to the pencil" in err
    assert f"run `spilloverfree solve --in {pencil}`" in err


def test_embed_rejects_the_spectrum_of_another_pencil(run12, tmp_path, capsys):
    gen, _ = run12
    other, stale, out = (str(tmp_path / name) for name in ("other", "stale", "out"))
    assert run("gen", "--nu", 12, "--nphi", 5, "--seed", 6, "--out", other) == 0
    shutil.copytree(gen, stale)
    shutil.copy(os.path.join(other, "spectrum.spectral"), stale)
    capsys.readouterr()
    assert run("embed", "--in", stale, "--out", out, *SELECT) == 28
    assert f"run `spilloverfree solve --in {stale}`" in capsys.readouterr().err
    assert run("solve", "--in", stale) == 0
    assert run("embed", "--in", stale, "--out", out, *SELECT) == 0


def test_verify_solves_when_no_spectrum_is_stored(tmp_path):
    out = str(tmp_path)
    assert run("demo", "--example", 1, "--nu", 8, "--nphi", 3, "--seed", 5,
               "--out", out) == 0
    assert not os.path.exists(os.path.join(out, "spectrum.spectral"))
    assert run("verify", "--in", out) == 0
    report = read_report(out, "verify.report")
    assert report["spectrum_source"] == "solved"
    assert report["spectrum_enclosure_ratio"] == "unavailable"


def test_verify_uses_the_weights_of_the_run(run12, tmp_path, capsys):
    gen, _ = run12
    emb = str(tmp_path)
    assert run("embed", "--in", gen, "--out", emb, "--p", 6, "--s", 2, "--stilde", 1,
               "--seed", 3, "--tau1", 2) == 0
    assert run("verify", "--in", emb) == 0
    assert read_report(emb, "verify.report")["rec_mk"] == \
        read_report(emb, "embed.report")["rec_mk"]
    capsys.readouterr()
    # an explicit flag still overrides the stored weight
    assert run("verify", "--in", emb, "--tau1", 1) == 28
    assert "rec_mk: stored" in capsys.readouterr().err


def test_demo_stores_its_weights_for_verify(tmp_path):
    out = str(tmp_path)
    assert run("demo", "--example", 1, "--nu", 12, "--nphi", 5, "--seed", 5,
               "--tau2", 2, "--out", out) == 0
    report = read_report(out, "demo.report")
    assert (float(report["tau1"]), float(report["tau2"])) == (1.0, 2.0)
    assert run("verify", "--in", out) == 0


def _copy_run(embed_run, tmp_path):
    """A copy of the run beside a copy of its pencil: the report names the
    pencil relative to the run, and the fixtures make them siblings."""
    for directory in embed_run:
        shutil.copytree(directory, tmp_path / os.path.basename(directory))
    return str(tmp_path / os.path.basename(embed_run[1]))


def _edit_report(directory, name, **changes):
    path = os.path.join(directory, name)
    entries = mmio.read_report(path)
    entries.update(changes)
    mmio.write_report(entries, path)


def test_verify_accepts_residual_digits_below_the_floor(embed_run, tmp_path):
    # a stored residual may differ from the recomputed one by rounding
    # (another BLAS thread count, another order of operations): far
    # beyond 1e-6 relative at 1e-16, but below the absolute floor
    d = _copy_run(embed_run, tmp_path)
    stored = read_report(d, "embed.report")
    floor = sf.cli.RESIDUAL_FLOOR
    _edit_report(d, "embed.report",
                 **{key: repr(float(stored[key]) + 0.5 * floor)
                    for key in ("res1_updated", "res2_updated")})
    assert run("verify", "--in", d) == 0


@pytest.mark.parametrize("key", ["res1_updated", "res2_updated"])
def test_verify_rejects_a_residual_edited_above_the_floor(embed_run, tmp_path, capsys, key):
    d = _copy_run(embed_run, tmp_path)
    value = float(read_report(d, "embed.report")[key]) + 10 * sf.cli.RESIDUAL_FLOOR
    _edit_report(d, "embed.report", **{key: repr(value)})
    assert value < 1e-10  # still passes --tol-check
    assert run("verify", "--in", d) == 28
    assert f"{key}: stored" in capsys.readouterr().err


def test_verify_compares_rec_mk_relative_without_the_floor(embed_run, tmp_path, capsys):
    d = _copy_run(embed_run, tmp_path)
    rec = float(read_report(d, "embed.report")["rec_mk"])
    _edit_report(d, "embed.report", rec_mk=repr(rec * (1 + 1e-5)))
    assert run("verify", "--in", d) == 28
    assert "rec_mk: stored" in capsys.readouterr().err


@pytest.mark.parametrize("key,text", [("res1_updated", "abc"), ("res2_updated", "nan"),
                                      ("tau1", "x")])
def test_verify_rejects_a_stored_value_that_is_not_a_number(embed_run, tmp_path, capsys, key,
                                                            text):
    d = _copy_run(embed_run, tmp_path)
    _edit_report(d, "embed.report", **{key: text})
    capsys.readouterr()
    assert run("verify", "--in", d) == 28
    assert f"{key}: stored value {text!r} is not a finite number" in capsys.readouterr().err


def test_verify_skips_a_stored_value_that_is_unavailable(embed_run, tmp_path):
    d = _copy_run(embed_run, tmp_path)
    _edit_report(d, "embed.report", res2_updated="unavailable")
    assert run("verify", "--in", d) == 0


def test_verify_rejects_a_demo_distance_that_is_not_a_number(tmp_path, capsys):
    out = str(tmp_path)
    assert run("demo", "--example", 1, "--nu", 12, "--nphi", 5, "--seed", 5,
               "--out", out) == 0
    _edit_report(out, "demo.report", choice_b_rec_mk="abc")
    capsys.readouterr()
    assert run("verify", "--in", out) == 28
    assert "choice_b_rec_mk: stored value 'abc' is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("name,token", [("K_tilde.mtx", "inf"), ("X1_tilde.mtx", "nan")])
def test_verify_reports_a_non_finite_value_as_a_parse_error(embed_run, tmp_path, capsys, name,
                                                            token):
    d = _copy_run(embed_run, tmp_path)
    path = os.path.join(d, name)
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[3] = token
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert run("verify", "--in", d) == 27
    assert f"{name}:4:1:" in capsys.readouterr().err


# The commit before Rec.MK took its distances on a certified sketch and
# Res2 its numerators on the finite columns of Lam2_prime.
PARENT_COMMIT = "1ac61db36bbab2aaaf71bb45f99eb78b23cec083"


@pytest.mark.parametrize("n_u,n_phi", [(200, 60), (400, 160)])
def test_runs_written_before_the_sketch_distances_still_verify(tmp_path, n_u, n_phi):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        archive = subprocess.run(["git", "-C", root, "archive", PARENT_COMMIT, "src"],
                                 capture_output=True, check=True, timeout=120).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip(f"needs a git checkout holding commit {PARENT_COMMIT[:7]}")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp_path / "parent")
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "parent" / "src"))

    def parent_cli(*argv):
        subprocess.run([sys.executable, "-m", "spilloverfree.cli", *map(str, argv)], env=env,
                       cwd=tmp_path, capture_output=True, check=True, timeout=600)

    gen = tmp_path / "gen"
    select = ("--p", 6, "--s", 2, "--seed", 3)
    parent_cli("gen", "--nu", n_u, "--nphi", n_phi, "--seed", 3, "--out", gen)
    parent_cli("embed", "--in", gen, "--out", tmp_path / "embed", "--stilde", 2, *select)
    parent_cli("optimize", "--in", gen, "--out", tmp_path / "optimize", "--stilde", 1, *select,
               "--restarts", 1, "--max-evals", 60)
    for d in ("embed", "optimize"):
        assert run("verify", "--in", tmp_path / d) == 0, d
