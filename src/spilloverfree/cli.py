"""Batch command line driver.

Subcommands cover the full workflow on directories of artifact files:

  gen       draw a random admissible pencil and solve its spectrum
  solve     solve the spectrum of a stored pencil
  embed     replace selected eigenvalues, write the updated system
  optimize  same, then minimize the update distance over GammaTilde1
  verify    re-derive residuals and hashes of a stored run
  demo      canned end-to-end scenarios (perturb / restructure)

embed, optimize and verify do not solve a spectrum that gen or solve
stored next to the pencil: they read spectrum.spectral and certify it
against the pencil, and solve only when the file is absent.

Every command computes first and writes last, through one writer: a
command refused before that step creates no directory and writes no
file. A failure while writing (a full disk, say) can still leave part
of a run behind.

Matrices travel as Matrix Market files, eigendata in the spectral text
format, run summaries as key-value reports. Every domain error exits
with its own code; I/O failures exit 29. The SPILLOVERFREE_LOG
environment variable sets the log level.
"""

import argparse
import hashlib
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import mmio
from .embedding import (
    ParameterSet,
    UpdatedSystem,
    compute_gamma1,
    default_gamma_tilde,
    embed,
)
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    ParseError,
    SpilloverError,
    StructureInfeasible,
    UncertifiedSpectrum,
    VerificationFailed,
)
from .objective import OptimizeConfig, _check_weights, optimize_gamma_tilde, residual_report
from .pencil import _check_degeneracy, certified_spectrum, solve_spectrum, validate_pencil
from .probgen import ProblemSpec, _check_nonnegative, generate_pencil, perturb_targets
from .spectral import (
    DEFAULT_MATCH_TOL,
    _expanded_values,
    real_lambda_from_eigenvalues,
    retained_eigendata,
    select_eigendata,
)

log = logging.getLogger(__name__)

OS_ERROR_EXIT = 29
# verify accepts a stored residual within 1e-6 relative of its recomputed
# value or within this absolute floor: residuals sit at rounding level,
# where the BLAS thread count and the order of operations move their
# digits, and the floor is far below --tol-check's default of 1e-10.
RESIDUAL_FLOOR = 1e-13

_PENCIL_FILES = ("M_u.mtx", "K.mtx")
# What one embed, optimize or demo run writes: five matrices, then the
# selected and the target eigendata.
_RUN_FILES = (
    "M_u_tilde.mtx",
    "K_tilde.mtx",
    "X1_tilde.mtx",
    "theta.mtx",
    "gamma_tilde.mtx",
    "selection.spectral",
    "targets.spectral",
)


def _read_files(directory, names):
    """The bytes of each of `names` that exists in `directory`, and their hashes."""
    files = {name: Path(directory, name).read_bytes() for name in names
             if Path(directory, name).exists()}
    return files, {f"sha256_{n}": hashlib.sha256(data).hexdigest() for n, data in files.items()}


def _read_pencil(directory):
    """The pencil in `directory` and its files' hashes, from one read each."""
    files, hashes = _read_files(directory, _PENCIL_FILES)
    M_u, K = (mmio.read_matrix(os.path.join(directory, name), files.pop(name, None))
              for name in _PENCIL_FILES)
    return validate_pencil(M_u, K, M_u.shape[0], K.shape[0] - M_u.shape[0]), hashes


def _write(directory, command, entries, files=()):
    """Every command's last step and only writer: create `directory`,
    write each (name, data) of `files` there (a .mtx name as Matrix
    Market, any other in the spectral format) with its sha256_<name> in
    `entries`, then `entries` as <command>.report."""
    os.makedirs(directory, exist_ok=True)
    entries["command"] = command
    for name, data in files:
        write = mmio.write_matrix if name.endswith(".mtx") else mmio.write_spectral
        entries[f"sha256_{name}"] = write(data, os.path.join(directory, name))
    mmio.write_report(entries, os.path.join(directory, command + ".report"))


def _generate(args, p, s_tilde):
    """The ProblemSpec from args, its pencil and the pencil's (name, matrix) files."""
    spec = ProblemSpec(
        n_u=args.nu,
        n_phi=args.nphi,
        p=p,
        s_tilde=s_tilde,
        max_perturbation=args.max_perturb,
        seed=args.seed,
    )
    pencil = generate_pencil(spec)
    return spec, pencil, list(zip(_PENCIL_FILES, (pencil.M_u, pencil.K)))


def _load_spectrum(pencil, directory):
    """The pencil's spectrum and where it came from: spectrum.spectral
    in `directory`, certified against the pencil ("stored"), or a fresh
    solve when that file is absent ("solved").

    A file that fails to decode or to certify is UncertifiedSpectrum,
    named and with the hint to regenerate it. A ParseError keeps its
    file/line location, and DegenerateSpectrum (raised only after the
    certificate holds) is the pencil's, as it would be from a solve.
    """
    path = os.path.join(directory, "spectrum.spectral")
    if not os.path.exists(path):
        return solve_spectrum(pencil), "solved"
    try:
        return certified_spectrum(pencil, mmio.read_spectral(path)), "stored"
    except (ParseError, DegenerateSpectrum):
        raise
    except SpilloverError as exc:
        raise UncertifiedSpectrum(
            f"{path} does not belong to the pencil in {directory}: {exc}; "
            f"run `spilloverfree solve --in {directory}` to regenerate it"
        ) from None


def _spectrum_run(spectrum):
    """The report entries and the (name, data) file of a solved spectrum."""
    entries = {
        "finite_count": spectrum.finite.p,
        "pair_count": spectrum.pair_count(),
        "real_count": spectrum.real_count(),
        "min_gap": float(spectrum.condition_summary.min()),
    }
    return entries, [("spectrum.spectral", spectrum.finite)]


def _select_values(spectrum, p_sel, s_sel, rng):
    """Pick s_sel conjugate pairs and p_sel - 2*s_sel real eigenvalues
    from a solved spectrum, by seeded draw without replacement."""
    lams = spectrum.eigenvalues
    n_pairs, n_reals = spectrum.pair_count(), spectrum.real_count()
    n_real = p_sel - 2 * s_sel
    if s_sel > n_pairs or n_real > n_reals:
        raise StructureInfeasible(
            f"spectrum offers {n_pairs} conjugate pairs and "
            f"{n_reals} real eigenvalues; cannot select s={s_sel} "
            f"pairs plus {n_real} reals"
        )
    chosen = []
    for j in sorted(rng.choice(n_pairs, size=s_sel, replace=False)):
        chosen.extend(lams[2 * j : 2 * j + 2])
    for i in sorted(rng.choice(n_reals, size=n_real, replace=False)):
        chosen.append(lams[2 * n_pairs + i])
    return chosen


def _or_unavailable(value):
    return "unavailable" if value is None else value


def _residual_entries(report, prefix=""):
    return {
        prefix + "res1_original": report.res1_original,
        prefix + "res1_updated": report.res1_updated,
        prefix + "rec_mk": report.rec_mk,
        prefix + "method": report.method,
        prefix + "params_mode": report.params_mode,
        prefix + "res2_original": _or_unavailable(report.res2_original),
        prefix + "res2_updated": _or_unavailable(report.res2_updated),
    }


def _run_pipeline(args, pencil, spectrum, *, optimize, demo=False):
    """select -> targets -> seed -> (optimize) -> embed -> report on the
    pencil's spectrum. embed, optimize and demo all run this; demo is
    optimize with fixed settings.

    Returns the run's report entries, the search result (None without a
    search) and the (name, data) run files. The residuals of the embedded
    parameters go under plain keys, or for demo under choice_b_, after the
    seed parameters' own residuals under choice_a_ (or seed_ when the
    structure changes).
    """
    if args.select is not None:
        selection = mmio.read_spectral(args.select)
        wanted = _expanded_values(selection.Lambda, selection.s)
    else:
        if args.p is None:
            raise DimensionMismatch("provide --p (with optional --s) or --select FILE")
        s_sel = args.s if args.s is not None else args.stilde
        if not 0 <= 2 * s_sel <= args.p:
            raise StructureInfeasible(
                f"s={s_sel} conjugate pairs do not fit into p={args.p}"
            )
        rng = np.random.default_rng((args.seed, 1))
        wanted = _select_values(spectrum, args.p, s_sel, rng)

    old, retained_idx = select_eigendata(spectrum, wanted, match_tol=args.tol_match)
    retained = retained_eigendata(spectrum, retained_idx) if retained_idx else None

    retained_values = spectrum.eigenvalues[list(retained_idx)]
    if args.targets is not None:
        target = mmio.read_spectral(args.targets)
        if target.p != old.p:
            raise DimensionMismatch(f"targets file has p={target.p}, selection has p={old.p}")
    else:
        target = real_lambda_from_eigenvalues(perturb_targets(
            _expanded_values(old.Lambda, old.s), args.stilde, args.max_perturb, (args.seed, 2),
            avoid=retained_values))
    # the updated pencil's finite spectrum, judged by the rule its solve applies
    _check_degeneracy(np.concatenate([retained_values, _expanded_values(target.Lambda, target.s)]))

    gamma1 = compute_gamma1(pencil, old.X, s=old.s)
    seed_params = default_gamma_tilde(gamma1, old.s, target.s)
    entries = {
        "n_u": pencil.n_u,
        "n_phi": pencil.n_phi,
        "p": old.p,
        "s": old.s,
        "s_tilde": target.s,
        "seed": args.seed,
        "tau1": args.tau1,
        "tau2": args.tau2,
    }

    def embed_and_report(params, prefix):
        updated = embed(pencil, old, target.Lambda, params)
        report = residual_report(pencil, updated, old, target.Lambda, retained, args.tau1,
                                 args.tau2)
        entries.update(_residual_entries(report, prefix))
        return updated

    if demo:
        embed_and_report(seed_params, "choice_a_" if seed_params.mode == "choice_a" else "seed_")
    result = None
    params = seed_params
    if optimize:
        config = OptimizeConfig(max_evals=args.max_evals, restarts=args.restarts,
                                tau1=args.tau1, tau2=args.tau2)
        result = optimize_gamma_tilde(
            pencil, old, target.Lambda, np.eye(old.p), seed_params, config
        )
        params = result.best_params
    updated = embed_and_report(params, "choice_b_" if demo else "")
    pencil._retained = None  # the last report is made: free its retained side before writing
    return entries, result, list(zip(_RUN_FILES, (
        updated.M_u_tilde, updated.K_tilde, updated.X1_tilde, updated.params.Theta,
        updated.params.GammaTilde1, old, target)))


def _cmd_gen(args):
    p_sel = args.p if args.p is not None else min(6, args.nu)
    s_tilde = args.stilde if args.stilde is not None else min(2, p_sel // 2)
    spec, pencil, files = _generate(args, p_sel, s_tilde)
    spectrum = solve_spectrum(pencil)  # cached by generate_pencil
    entries, spectrum_file = _spectrum_run(spectrum)
    entries.update(n_u=pencil.n_u, n_phi=pencil.n_phi, p=spec.p, s_tilde=spec.s_tilde,
                   max_perturb=spec.max_perturbation, seed=spec.seed)
    _write(args.out_dir, "gen", entries, files + spectrum_file)
    print(
        f"gen: n_u={pencil.n_u} n_phi={pencil.n_phi} "
        f"pairs={spectrum.pair_count()} reals={spectrum.real_count()} "
        f"-> {args.out_dir}"
    )
    return 0


def _cmd_solve(args):
    out_dir = args.out_dir or args.in_dir
    pencil, hashes = _read_pencil(args.in_dir)
    spectrum = solve_spectrum(pencil)
    entries, spectrum_file = _spectrum_run(spectrum)
    entries.update(hashes, input_dir=args.in_dir, n_u=pencil.n_u, n_phi=pencil.n_phi)
    _write(out_dir, "solve", entries, spectrum_file)
    print(
        f"solve: {spectrum.finite.p} finite eigenvalues "
        f"({spectrum.pair_count()} pairs, {spectrum.real_count()} real), "
        f"{pencil.n_phi} at infinity -> {out_dir}"
    )
    return 0


def _cmd_embed(args):
    _check_weights(args.tau1, args.tau2)
    _check_nonnegative(seed=args.seed, tol_match=args.tol_match,
                       restarts=getattr(args, "restarts", 0))
    pencil, hashes = _read_pencil(args.in_dir)
    spectrum, _ = _load_spectrum(pencil, args.in_dir)
    command = args.command  # embed, or optimize: embed and then search
    entries, result, files = _run_pipeline(args, pencil, spectrum, optimize=command == "optimize")
    # relative to the run directory, so that the two directories move together
    entries.update(hashes, input_dir=os.path.relpath(args.in_dir, args.out_dir),
                   max_perturb=args.max_perturb)
    if result is not None:
        entries.update(
            {
                "best_rec_mk": result.best_rec_mk,
                "baseline_rec_mk": _or_unavailable(result.baseline_rec_mk),
                "iterations": result.iterations,
                "seed_certificate": _or_unavailable(result.certificate),
                "converged": result.converged,
            }
        )
    _write(args.out_dir, command, entries, files)
    print(
        f"{command}: p={entries['p']} s={entries['s']} s_tilde={entries['s_tilde']} "
        f"res1_updated={entries['res1_updated']:.3e} rec_mk={entries['rec_mk']:.6f} "
        f"-> {args.out_dir}"
    )
    return 0


def _stored_number(report, key, default=None):
    """report[key] (default when absent) as a finite float, else VerificationFailed."""
    text = report.get(key, default)
    try:
        if np.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise VerificationFailed(f"{key}: stored value {text!r} is not a finite number")


def _cmd_verify(args):
    _check_nonnegative(tol_match=args.tol_match, tol_check=args.tol_check)
    report = None
    for name in ("embed.report", "optimize.report", "demo.report"):
        path = os.path.join(args.in_dir, name)
        if os.path.exists(path):
            report = mmio.read_report(path)
            break
    if report is None:
        raise VerificationFailed(f"no run report found in {args.in_dir}")
    # demo.report keeps the written run's residuals under choice_b_
    prefix = "choice_b_" if name == "demo.report" else ""
    # input_dir is relative to the run directory, or in older runs to the working one
    stored = report.get("input_dir")
    beside = stored and os.path.normpath(os.path.join(args.in_dir, stored))
    pencil_dir = args.pencil or (beside if beside and os.path.isdir(beside) else stored)
    if not pencil_dir and os.path.exists(os.path.join(args.in_dir, "M_u.mtx")):
        pencil_dir = args.in_dir
    if not pencil_dir:
        raise VerificationFailed("report does not record input_dir; pass --pencil")

    failures = []
    pencil, actual = _read_pencil(pencil_dir)
    run_files, run_hashes = _read_files(args.in_dir, _RUN_FILES)
    actual |= run_hashes
    for name in _PENCIL_FILES + _RUN_FILES:
        key = f"sha256_{name}"
        if key not in report:
            continue
        if key not in actual:
            failures.append(f"{name}: file missing")
        elif actual[key] != report[key]:
            failures.append(f"{name}: hash mismatch (stored {report[key][:12]}.., "
                            f"actual {actual[key][:12]}..)")

    M_u_t, K_t, X1_t, theta, gamma_t, old, target = (
        (mmio.read_matrix if name.endswith(".mtx") else mmio.read_spectral)(
            os.path.join(args.in_dir, name), run_files.pop(name, None))
        for name in _RUN_FILES
    )
    params = ParameterSet(
        Theta=theta,
        GammaTilde1=gamma_t,
        s_tilde=target.s,
        mode=report.get(prefix + "params_mode", "custom"),
    )
    updated = UpdatedSystem(
        M_u_tilde=M_u_t,
        K_tilde=K_t,
        params=params,
        method=report.get(prefix + "method", "unknown"),
        X1_tilde=X1_t,
    )

    spectrum, source = _load_spectrum(pencil, pencil_dir)
    wanted = _expanded_values(old.Lambda, old.s)
    _, retained_idx = select_eigendata(spectrum, wanted, match_tol=args.tol_match)
    retained = retained_eigendata(spectrum, retained_idx) if retained_idx else None
    # the updated pencil's finite spectrum, judged by the rule embed and solve apply
    try:
        _check_degeneracy(np.concatenate([spectrum.eigenvalues[list(retained_idx)],
                                          _expanded_values(target.Lambda, target.s)]))
    except DegenerateSpectrum as exc:
        failures.append(f"targets.spectral with the retained eigenvalues: {exc}")

    # the run's own weights, unless overridden on the command line
    tau1, tau2 = (
        _stored_number(report, key, 1.0) if flag is None else flag
        for key, flag in (("tau1", args.tau1), ("tau2", args.tau2))
    )
    recomputed = residual_report(pencil, updated, old, target.Lambda, retained, tau1, tau2)

    for key in ("res1_updated", "res2_updated"):
        value = getattr(recomputed, key)
        if value is not None and value > args.tol_check:
            failures.append(f"{key} = {value:.3e} exceeds tolerance {args.tol_check:.1e}")
    for key in ("res1_updated", "res2_updated", "rec_mk"):
        value = getattr(recomputed, key)
        if value is None or report.get(prefix + key, "unavailable") == "unavailable":
            continue
        stored = _stored_number(report, prefix + key)
        floor = 0.0 if key == "rec_mk" else RESIDUAL_FLOOR
        if abs(stored - value) > max(1e-6 * max(abs(stored), abs(value), 1e-30), floor):
            failures.append(
                f"{prefix + key}: stored {stored:.6e} but recomputed {value:.6e}"
            )

    entries = {
        "input_dir": args.in_dir,
        "pencil_dir": pencil_dir,
        "failures": len(failures),
        "res1_updated": recomputed.res1_updated,
        "res2_updated": _or_unavailable(recomputed.res2_updated),
        "rec_mk": recomputed.rec_mk,
        "spectrum_source": source,
        "spectrum_enclosure_ratio": _or_unavailable(spectrum.enclosure_ratio),
    }
    _write(args.in_dir, "verify", entries)

    if failures:
        raise VerificationFailed(
            "verification failed:\n  " + "\n  ".join(failures)
        )
    print(f"verify: all checks passed for {args.in_dir}")
    return 0


def _cmd_demo(args):
    _check_weights(args.tau1, args.tau2)
    args.stilde = 2 if args.example == 1 else 1
    _, pencil, files = _generate(args, args.p, args.stilde)
    entries, result, run_files = _run_pipeline(args, pencil, solve_spectrum(pencil),
                                               optimize=True, demo=True)
    entries.update(
        {
            "example": args.example,
            "choice_b_iterations": result.iterations,
            "choice_b_seed_certificate": _or_unavailable(result.certificate),
            "choice_b_converged": result.converged,
        }
    )
    _write(args.out_dir, "demo", entries, files + run_files)
    seed_label = "choice_a" if "choice_a_rec_mk" in entries else "seed"
    print(
        f"demo {args.example}: {seed_label} rec_mk={entries[seed_label + '_rec_mk']:.4f} "
        f"res1={entries[seed_label + '_res1_updated']:.3e} | "
        f"choice_b rec_mk={entries['choice_b_rec_mk']:.4f} "
        f"res1={entries['choice_b_res1_updated']:.3e} -> {args.out_dir}"
    )
    return 0


def _add_update_flags(sub, default=1.0):
    sub.add_argument("--tau1", type=float, default=default)
    sub.add_argument("--tau2", type=float, default=default)


def _add_common_embed_flags(sub):
    sub.add_argument("--in", required=True, dest="in_dir")
    sub.add_argument("--out", required=True, dest="out_dir")
    sub.add_argument("--p", type=int, default=None, help="number of eigenvalues to replace")
    sub.add_argument("--s", type=int, default=None,
                     help="conjugate pairs in the selection (default: --stilde)")
    sub.add_argument("--stilde", type=int, default=2,
                     help="conjugate pairs among the targets")
    sub.add_argument("--max-perturb", type=float, default=0.3, dest="max_perturb")
    sub.add_argument("--seed", type=int, default=0)
    _add_update_flags(sub)
    sub.add_argument("--tol-match", type=float, default=DEFAULT_MATCH_TOL, dest="tol_match")
    sub.add_argument("--select", default=None,
                     help="spectral file naming the eigenvalues to replace")
    sub.add_argument("--targets", default=None,
                     help="spectral file with the replacement eigenvalues")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spilloverfree",
        description="eigenvalue embedding for structured pencils with singular mass",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen", help="generate a random admissible pencil")
    sub.add_argument("--nu", type=int, required=True)
    sub.add_argument("--nphi", type=int, required=True)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--stilde", type=int, default=None)
    sub.add_argument("--max-perturb", type=float, default=0.3, dest="max_perturb")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, dest="out_dir")
    sub.set_defaults(func=_cmd_gen)

    sub = subs.add_parser("solve", help="solve the spectrum of a stored pencil")
    sub.add_argument("--in", required=True, dest="in_dir")
    sub.add_argument("--out", default=None, dest="out_dir")
    sub.set_defaults(func=_cmd_solve)

    sub = subs.add_parser("embed", help="replace selected eigenvalues")
    _add_common_embed_flags(sub)
    sub.set_defaults(func=_cmd_embed)

    sub = subs.add_parser("optimize", help="embed, minimizing the update distance")
    _add_common_embed_flags(sub)
    sub.add_argument("--restarts", type=int, default=3)
    sub.add_argument("--max-evals", type=int, default=0, dest="max_evals")
    sub.set_defaults(func=_cmd_embed)

    sub = subs.add_parser("verify", help="re-derive residuals and hashes of a run")
    sub.add_argument("--in", required=True, dest="in_dir")
    sub.add_argument("--pencil", default=None,
                     help="directory with the original pencil (default: from report)")
    # default: the weights stored in the run report, else 1.0
    _add_update_flags(sub, default=None)
    sub.add_argument("--tol-match", type=float, default=DEFAULT_MATCH_TOL, dest="tol_match")
    sub.add_argument("--tol-check", type=float, default=1e-10, dest="tol_check")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("demo", help="canned end-to-end scenarios")
    sub.add_argument("--example", type=int, choices=(1, 2), required=True)
    sub.add_argument("--nu", type=int, default=100)
    sub.add_argument("--nphi", type=int, default=40)
    sub.add_argument("--seed", type=int, default=0)
    _add_update_flags(sub)
    sub.add_argument("--out", required=True, dest="out_dir")
    # demo is optimize --p 6 --s 2 --stilde {2|1} --max-perturb 0.3 on a
    # freshly generated pencil; these settings have no flags of their own.
    sub.set_defaults(func=_cmd_demo, p=6, s=2, max_perturb=0.3, select=None, targets=None,
                     tol_match=DEFAULT_MATCH_TOL, restarts=3, max_evals=0)

    return parser


def main(argv=None):
    level = os.environ.get("SPILLOVERFREE_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpilloverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return OS_ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
