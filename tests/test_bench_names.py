"""The benchmark wraps library functions by name; a rename must not
leave it pointing at nothing, and an alias must not make the tracer
patch the wrong object. This loads perfbench/layers.py and
perfbench/tracing.py from their paths and runs one tiny job in process."""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np

import spilloverfree as sf

from conftest import make_pencil, record_beside_threads, solve_worker

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load("layers").TARGETS
    assert targets
    for span, module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), span


def test_every_exported_name_resolves():
    missing = [name for name in sf.__all__ if not hasattr(sf, name)]
    assert missing == []


def _library_names():
    """Every name in every library module and class namespace."""
    names = {}
    for name, module in sys.modules.items():
        if name == "spilloverfree" or name.startswith("spilloverfree."):
            names[name] = dict(vars(module))
            for key, value in vars(module).items():
                if isinstance(value, type):
                    names[f"{name}.{key}"] = dict(vars(value))
    return names


def test_tracer_records_each_layer_and_restores_every_name():
    tracer = _load("tracing").Tracer()
    source = make_pencil(8, 3, seed=7)
    before = _library_names()
    with tracer.installed(_load("layers").TARGETS), tracer.job(0):
        assert isinstance(sf.pencil.StructuredPencil, type)
        p = sf.validate_pencil(source.M_u, source.K, source.n_u, source.n_phi)
        spectrum = sf.solve_spectrum(p)
        vals = [lam for lam, _ in spectrum.finite_pairs]
        pair = next(v for v in vals if v.imag > 0)
        wanted = [pair, pair.conjugate(), next(v for v in vals if v.imag == 0)]
        old, kept = sf.select_eigendata(spectrum, wanted)
        retained = sf.retained_eigendata(spectrum, kept)
        target = sf.real_lambda_from_eigenvalues(
            sf.perturb_targets(wanted, 1, 0.3, 1, avoid=[vals[i] for i in kept]))
        seed = sf.default_gamma_tilde(sf.compute_gamma1(p, old.X, s=old.s), old.s, target.s)
        updated = sf.embed(p, old, target.Lambda, seed)
        sf.residual_report(p, updated, old, target.Lambda, retained)
        sf.optimize_gamma_tilde(p, old, target.Lambda, np.eye(old.p), seed,
                                sf.OptimizeConfig(max_evals=20, restarts=1))
    calls = {name: row[2] for name, row in tracer.per_job()[0].items()}
    for name in ("pencil.validate_pencil", "pencil.solve_spectrum", "pencil.k_rcond",
                 "embedding.embed_smw", "objective.evaluate_rec_mk",
                 "objective.residual_report"):
        assert calls.get(name, 0) >= 1, name
    assert isinstance(sf.pencil.StructuredPencil, type)
    after = _library_names()
    for module, names in before.items():
        for key, value in names.items():
            assert after[module][key] is value, f"{module}.{key}"


def test_traced_calls_stay_on_the_calling_thread_beside_the_solve_worker(monkeypatch):
    # the tracer keeps one span stack for all threads: the worker of every
    # pencil._beside site (the norms and rcond beside the eigensolve, the
    # backward errors beside the solve's layout, ||K~|| and Rec.MK beside
    # the report's retained side, the norms beside the certificate's
    # products) must call nothing it wraps (StructuredPencil.k_rcond among them)
    tracer = _load("tracing").Tracer()
    span, threads = tracer.span, []

    def recorded(name):
        threads.append(threading.current_thread())
        return span(name)
    tracer.span = recorded
    source = make_pencil(12, 5, seed=5)
    workers = record_beside_threads(monkeypatch)
    with solve_worker(True), tracer.installed(_load("layers").TARGETS), tracer.job(0):
        p = sf.validate_pencil(source.M_u, source.K, source.n_u, source.n_phi)
        spectrum = sf.solve_spectrum(p)
        vals = [lam for lam, _ in spectrum.finite_pairs]
        pair = next(v for v in vals if v.imag > 0)
        wanted = [pair, pair.conjugate(), next(v for v in vals if v.imag == 0)]
        old, kept = sf.select_eigendata(spectrum, wanted)
        retained = sf.retained_eigendata(spectrum, kept)
        target = sf.real_lambda_from_eigenvalues(
            sf.perturb_targets(wanted, 1, 0.3, 1, avoid=[vals[i] for i in kept]))
        seed = sf.default_gamma_tilde(sf.compute_gamma1(p, old.X, s=old.s), old.s, target.s)
        updated = sf.embed(p, old, target.Lambda, seed)
        sf.residual_report(p, updated, old, target.Lambda, retained)
        sf.certified_spectrum(sf.validate_pencil(p.M_u, p.K, p.n_u, p.n_phi), spectrum.finite)
    main = threading.main_thread()
    assert [name.split(".")[0] for _, name in workers] == [
        "StructuredPencil", "solve_spectrum", "residual_report", "StructuredPencil"]
    assert all(thread is not main for thread, _ in workers)
    assert threads and all(t is main for t in threads)
    spans = {s[0]: s for s in tracer.spans}
    names = [s[1] for s in tracer.spans]
    for name in ("pencil.solve_spectrum", "pencil.k_rcond", "objective.residual_report"):
        assert name in names, name
    for _, _, _, parent, start, end in tracer.spans:
        if parent is not None:
            assert spans[parent][4] <= start <= end <= spans[parent][5]
    children = {}
    for span_id, _, _, parent, start, end in tracer.spans:
        children.setdefault(parent, []).append((start, end))
    for siblings in children.values():
        siblings.sort()
        assert all(a[1] <= b[0] for a, b in zip(siblings, siblings[1:]))
