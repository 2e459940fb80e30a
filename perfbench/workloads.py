"""The benchmark's workloads: inputs made from a seed, one job, its checks.

Each workload is a closed loop: one process runs one job after another
on a small pool of seeded instances, cycling through the pool. Import
this module only after the BLAS thread count has been pinned, because
it loads numpy.

optimize-n140   the README / acceptance-criterion-5 instance
                (n_u=100, n_phi=40): solve, select, perturb, then the
                Nelder-Mead search over GammaTilde1. One pencil serves
                hundreds of objective evaluations, so a prepared or
                cached update shows here first.
embed-n560      n_u=400, n_phi=160 with the identity parameters and no
                optimizer. Every job validates a fresh pencil from raw
                arrays, so no Schur or LU cache survives between jobs;
                the spectrum solve and the residual certificate dominate.
cli-chain-n560  gen -> embed -> optimize -> verify x2 through
                spilloverfree.cli.main on files in a temporary
                directory: the only workload where Matrix Market and
                spectral files are written, read and hashed.
"""

import contextlib
import io
import os
import tempfile

import numpy as np

import spilloverfree as sf
from spilloverfree import cli

RESIDUAL_TOL = 1e-12
# best_rec_mk may exceed the identity-parameter baseline by rounding only.
IMPROVEMENT_SLACK = 1e-15

# Replacement layout shared by all workloads: two conjugate pairs and
# two reals out, two pairs and two reals in, each moved by at most 0.3.
P, S, S_TILDE, MAX_PERTURB = 6, 2, 2, 0.3

SIZES = {
    "full": {"optimize": (100, 40), "embed": (400, 160), "cli": (400, 160), "cli_max_evals": 60},
    "tiny": {"optimize": (24, 10), "embed": (30, 12), "cli": (24, 10), "cli_max_evals": 20},
}


class Outcome:
    """Checked result of one job: every check is counted, and a job with
    any failed check counts as failed. rec_mk is the job's final Rec.MK."""

    def __init__(self):
        self.checks_run = 0
        self.failures = []
        self.rec_mk = None

    def require(self, ok, message):
        self.checks_run += 1
        if not ok:
            self.failures.append(message)

    def residuals(self, res1, res2, where):
        self.require(res1 <= RESIDUAL_TOL, f"{where}: res1_updated {res1!r} > {RESIDUAL_TOL}")
        self.require(res2 is not None and res2 <= RESIDUAL_TOL,
                     f"{where}: res2_updated {res2!r} > {RESIDUAL_TOL}")


def _replacement(spectrum, target_seed):
    """Old eigendata (first 2 pairs, first 2 reals in canonical order),
    retained eigendata and perturbed targets of a solved spectrum."""
    values = [lam for lam, _ in spectrum.finite_pairs]
    pairs = [v for v in values if v.imag > 0][:S]
    reals = [v for v in values if v.imag == 0][: P - 2 * S]
    wanted = [z for v in pairs for z in (v, v.conjugate())] + reals
    old, retained_idx = sf.select_eigendata(spectrum, wanted)
    retained = sf.retained_eigendata(spectrum, retained_idx)
    targets = sf.perturb_targets(wanted, s_tilde=S_TILDE, max_perturbation=MAX_PERTURB,
                                 seed=target_seed,
                                 avoid=[values[i] for i in retained_idx])
    return old, retained, sf.real_lambda_from_eigenvalues(targets)


def _generate(instance_seed, n_u, n_phi):
    return sf.generate_pencil(sf.ProblemSpec(n_u=n_u, n_phi=n_phi, p=P, s_tilde=S_TILDE,
                                             max_perturbation=MAX_PERTURB, seed=instance_seed))


class OptimizeN140:
    name = "optimize-n140"
    pool = 3

    def __init__(self, size, workdir):
        self.n_u, self.n_phi = SIZES[size]["optimize"]

    def make_input(self, instance_seed):
        return _generate(instance_seed, self.n_u, self.n_phi), (instance_seed, 1)

    def run(self, inp, span):
        pencil, target_seed = inp
        outcome = Outcome()
        spectrum = sf.solve_spectrum(pencil)
        old, retained, target = _replacement(spectrum, target_seed)
        gamma1 = sf.compute_gamma1(pencil, old.X, s=old.s)
        seed_params = sf.default_gamma_tilde(gamma1, old.s, target.s)
        result = sf.optimize_gamma_tilde(pencil, old, target.Lambda, np.eye(old.p),
                                         seed_params, sf.OptimizeConfig(restarts=1))
        updated = sf.embed(pencil, old, target.Lambda, result.best_params)
        report = sf.residual_report(pencil, updated, old, target.Lambda, retained, 1.0, 1.0)
        outcome.residuals(report.res1_updated, report.res2_updated, "optimize")
        baseline = result.baseline_rec_mk
        outcome.require(baseline is not None
                        and result.best_rec_mk <= baseline + IMPROVEMENT_SLACK,
                        f"best_rec_mk {result.best_rec_mk!r} above baseline {baseline!r}")
        outcome.rec_mk = report.rec_mk
        return outcome


class EmbedN560:
    name = "embed-n560"
    pool = 3

    def __init__(self, size, workdir):
        self.n_u, self.n_phi = SIZES[size]["embed"]

    def make_input(self, instance_seed):
        pencil = _generate(instance_seed, self.n_u, self.n_phi)
        return np.array(pencil.M_u), np.array(pencil.K), (instance_seed, 1)

    def run(self, inp, span):
        M_u, K, target_seed = inp
        outcome = Outcome()
        pencil = sf.validate_pencil(M_u, K, self.n_u, self.n_phi)
        spectrum = sf.solve_spectrum(pencil)
        old, retained, target = _replacement(spectrum, target_seed)
        gamma1 = sf.compute_gamma1(pencil, old.X, s=old.s)
        params = sf.default_gamma_tilde(gamma1, old.s, target.s)
        outcome.require(params.mode == "choice_a", f"parameters are {params.mode}, not choice_a")
        updated = sf.embed(pencil, old, target.Lambda, params)
        report = sf.residual_report(pencil, updated, old, target.Lambda, retained, 1.0, 1.0)
        outcome.residuals(report.res1_updated, report.res2_updated, "embed")
        outcome.rec_mk = report.rec_mk
        return outcome


class CliChainN560:
    name = "cli-chain-n560"
    pool = 2

    def __init__(self, size, workdir):
        (self.n_u, self.n_phi), self.max_evals = SIZES[size]["cli"], SIZES[size]["cli_max_evals"]
        self.workdir = workdir

    def make_input(self, instance_seed):
        return str(instance_seed)

    def _step(self, span, outcome, argv):
        with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        outcome.require(code == 0, f"{' '.join(argv)} exited {code}")

    def run(self, seed, span):
        outcome = Outcome()
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            gen, emb, opt = (os.path.join(tmp, d) for d in ("gen", "embed", "optimize"))
            select = ["--p", str(P), "--s", str(S), "--stilde", str(S_TILDE), "--seed", seed]
            self._step(span, outcome, ["gen", "--nu", str(self.n_u), "--nphi", str(self.n_phi),
                                       "--seed", seed, "--out", gen])
            self._step(span, outcome, ["embed", "--in", gen, "--out", emb] + select)
            self._step(span, outcome, ["optimize", "--in", gen, "--out", opt] + select
                       + ["--restarts", "1", "--max-evals", str(self.max_evals)])
            self._step(span, outcome, ["verify", "--in", emb])
            self._step(span, outcome, ["verify", "--in", opt])
            if outcome.failures:
                return outcome
            embed_report = sf.read_report(os.path.join(emb, "embed.report"))
            opt_report = sf.read_report(os.path.join(opt, "optimize.report"))
        for where, report in (("embed", embed_report), ("optimize", opt_report)):
            res2 = report["res2_updated"]
            outcome.residuals(float(report["res1_updated"]),
                              None if res2 == "unavailable" else float(res2), where)
        baseline = opt_report["baseline_rec_mk"]
        outcome.require(baseline != "unavailable"
                        and float(opt_report["best_rec_mk"]) <= float(baseline) + IMPROVEMENT_SLACK,
                        f"best_rec_mk {opt_report['best_rec_mk']} above baseline {baseline}")
        outcome.rec_mk = float(opt_report["rec_mk"])
        return outcome


WORKLOADS = {w.name: w for w in (OptimizeN140, EmbedN560, CliChainN560)}
