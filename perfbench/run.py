"""Benchmark entry point: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload optimize-n140 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The library is imported from ./src,
after the BLAS thread count has been pinned. Jobs run in whole passes
over the workload's seeded instance pool, as many as fit in --seconds
and at least one. Every job's output is checked; a job that raises or
fails a check counts as failed and is reported on stderr.

Standard output carries `#` lines (environment, summary, trace file)
and, last, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. A traced run runs
every job twice, untraced and then traced, and reports the median
difference as the tracing overhead.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

# Every workload pins BLAS to one thread; NOTES.md says why embed-n560
# does not use one thread per core.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_REPEATS = 3
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import spilloverfree, spilloverfree.cli; "
                 "print(time.perf_counter() - t)")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy problem sizes, for the smoke test")
    return parser.parse_args(argv)


def pin_blas_threads():
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_seconds(src):
    """Median wall time of importing the library in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(args):
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
    }


@dataclass
class Job:
    seconds: float
    outcome: object  # workloads.Outcome, or None when the job raised

    @property
    def ok(self):
        return self.outcome is not None and not self.outcome.failures


def attempt(workload, inp, span, label):
    start = time.perf_counter()
    try:
        outcome = workload.run(inp, span)
    except Exception:
        outcome = None
        print(f"job {label} raised:", file=sys.stderr)
        traceback.print_exc()
    job = Job(time.perf_counter() - start, outcome)
    if outcome is not None:
        for failure in outcome.failures:
            print(f"job {label} failed a check: {failure}", file=sys.stderr)
    return job


def timed_loop(inputs, seconds, run_one):
    """Run whole passes over `inputs`: at least one, and another only
    while the mean pass time says it ends within `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        i, n = len(results), len(inputs)
        if i and i % n == 0 and (time.perf_counter() - start) * (i // n + 1) / (i // n) > seconds:
            break
        results.append(run_one(i, inputs[i % n]))
    return results, time.perf_counter() - start


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    src = ROOT / "src"
    if not (src / "spilloverfree" / "__init__.py").is_file():
        print(f"error: library source not found under {src}", file=sys.stderr)
        return 2

    pin_blas_threads()
    sys.path.insert(0, str(src))
    import_s = import_seconds(src)
    import spilloverfree

    if Path(spilloverfree.__file__).resolve().parent != (src / "spilloverfree").resolve():
        print(f"error: imported spilloverfree from {spilloverfree.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracing import Tracer

    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    WORK.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]("tiny" if args.tiny else "full", WORK)

    input_times, inputs = [], []
    for k in range(workload.pool):
        start = time.perf_counter()
        inputs.append(workload.make_input(args.seed * workload.pool + k))
        input_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(input_times)

    def no_span(name):
        return contextlib.nullcontext()

    if args.trace:
        tracer = Tracer()
        pairs = []

        def run_pair(i, inp):
            plain = attempt(workload, inp, no_span, f"{i}/untraced")
            with tracer.installed(layers.TARGETS), tracer.job(i):
                traced = attempt(workload, inp, tracer.span, f"{i}/traced")
            pairs.append((plain, traced))
            return traced

        _, loop_s = timed_loop(inputs, args.seconds, run_pair)
        jobs = [job for pair in pairs for job in pair]
    else:
        jobs, loop_s = timed_loop(
            inputs, args.seconds,
            lambda i, inp: attempt(workload, inp, no_span, str(i)))

    correct = [job for job in jobs if job.ok]
    failed = len(jobs) - len(correct)
    rec_mks = [job.outcome.rec_mk for job in correct]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(jobs),
        "failed_frac": failed / len(jobs),
        "checks_run": sum(job.outcome.checks_run for job in jobs if job.outcome is not None),
        "job_s_p50": statistics.median(job.seconds for job in jobs),
        "job_s_samples": len(jobs),
        "rec_mk_gmean": statistics.geometric_mean(rec_mks) if rec_mks else 0.0,
        "import_s": import_s,
        "input_s": input_times,
        "loop_s": loop_s,
    }
    print("# summary " + json.dumps(summary), flush=True)

    if args.trace:
        measured = {
            "objective.rec_mk_gmean": summary["rec_mk_gmean"],
            "trace.overhead_s": statistics.median(
                traced.seconds - plain.seconds for plain, traced in pairs),
        }
        values = layers.per_layer([m["name"] for m in bench["per_layer"]], tracer,
                                  range(len(pairs)), chain=args.workload == "cli-chain-n560",
                                  measured=measured)
        spec = bench["per_layer"]
        path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, env)
        print(f"# trace {path.relative_to(ROOT)}", flush=True)
    else:
        values = {
            "setup_s": setup_s,
            "jobs_per_s": statistics.median(
                sum(job.ok for job in jobs[i:i + workload.pool])
                / sum(job.seconds for job in jobs[i:i + workload.pool])
                for i in range(0, len(jobs), workload.pool)),
            "job_s_p50": summary["job_s_p50"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        spec = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
