"""What the traced run wraps, and how per-layer metrics come from the spans.

Every traced function is public and named `<module>.<function>`; the CLI
steps are spans the benchmark opens itself (`cli.gen`, ...). A metric
`<span>.s` is the mean self time per job, `<span>.calls` the mean call
count per job, `<span>.mb` the mean megabytes per job of the files the
call wrote or read. The library runs no queues or worker threads, so no
layer has a time-waited metric.
"""

import os

import spilloverfree as sf


def _file_mb(arg_index, key):
    def observe(tracer, args, kwargs, result):
        path = args[arg_index] if len(args) > arg_index else kwargs["path"]
        tracer.count(key, os.path.getsize(path) / 1e6)

    return observe


def _penalties(tracer, args, kwargs, result):
    config = args[5] if len(args) > 5 else kwargs.get("config")
    penalty = (config or sf.OptimizeConfig()).penalty
    tracer.count("objective.trace_evals", len(result.trace))
    tracer.count("objective.penalty_evals", sum(v >= penalty for v in result.trace))


TARGETS = [
    ("pencil.validate_pencil", "spilloverfree.pencil", "validate_pencil", None),
    ("pencil.schur_reduce", "spilloverfree.pencil", "schur_reduce", None),
    ("pencil.solve_spectrum", "spilloverfree.pencil", "solve_spectrum", None),
    ("pencil.k_rcond", "spilloverfree.pencil", "StructuredPencil.k_rcond", None),
    ("spectral.select_eigendata", "spilloverfree.spectral", "select_eigendata", None),
    ("spectral.to_real_representation", "spilloverfree.spectral", "to_real_representation", None),
    ("embedding.compute_gamma1", "spilloverfree.embedding", "compute_gamma1", None),
    ("embedding.embed_smw", "spilloverfree.embedding", "embed_smw", None),
    ("embedding.embed_direct", "spilloverfree.embedding", "embed_direct", None),
    ("objective.evaluate_rec_mk", "spilloverfree.objective", "evaluate_rec_mk", None),
    ("objective.optimize_gamma_tilde", "spilloverfree.objective", "optimize_gamma_tilde",
     _penalties),
    ("objective.residual_report", "spilloverfree.objective", "residual_report", None),
    ("objective.rec_mk", "spilloverfree.objective", "rec_mk", None),
    ("probgen.generate_pencil", "spilloverfree.probgen", "generate_pencil", None),
    ("probgen.perturb_targets", "spilloverfree.probgen", "perturb_targets", None),
    ("mmio.write_matrix", "spilloverfree.mmio", "write_matrix",
     _file_mb(1, "mmio.write_matrix.mb")),
    ("mmio.read_matrix", "spilloverfree.mmio", "read_matrix", _file_mb(0, "mmio.read_matrix.mb")),
    ("mmio.write_spectral", "spilloverfree.mmio", "write_spectral", None),
    ("mmio.read_spectral", "spilloverfree.mmio", "read_spectral", None),
    ("mmio.sha256_file", "spilloverfree.mmio", "sha256_file", None),
]

SPAN_NAMES = {t[0] for t in TARGETS} | {f"cli.{c}" for c in ("gen", "embed", "optimize", "verify")}


def per_layer(names, tracer, jobs, *, chain, measured):
    """Value of every named per-layer metric over the traced `jobs`;
    `measured` holds the values the caller measured itself."""
    table = tracer.per_job()
    counters = tracer.counters

    def mean(value):
        return sum(value(job) for job in jobs) / len(jobs)

    def span(job, name, col):
        row = table[job].get(name)
        return row[col] if row else 0

    def total(name, col):
        return sum(span(job, name, col) for job in jobs)

    def ratio(num, den):
        return num / den if den else 0.0

    special = {
        "objective.evals_per_s": lambda: ratio(total("objective.evaluate_rec_mk", 2),
                                               total("objective.optimize_gamma_tilde", 1)),
        "objective.penalty_frac": lambda: ratio(
            sum(counters[j]["objective.penalty_evals"] for j in jobs),
            sum(counters[j]["objective.trace_evals"] for j in jobs)),
        "cli.spectrum_solves_per_chain": lambda: (
            mean(lambda j: span(j, "pencil.solve_spectrum", 2)) if chain else 0.0),
    }
    out = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name in measured:
            out[name] = measured[name]
        elif name in special:
            out[name] = special[name]()
        elif base in SPAN_NAMES and kind in ("s", "calls"):
            col = 0 if kind == "s" else 2
            out[name] = mean(lambda j: span(j, base, col))
        elif base in SPAN_NAMES and kind == "mb":
            out[name] = mean(lambda j: counters[j][name])
        else:
            raise KeyError(f"no rule computes the per-layer metric {name!r}")
    return out
