"""Smoke test of the benchmark at toy sizes. It is not part of the
tier-1 suite; run it from the repository root with

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def parse(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    tagged = {line.split()[1]: line.split(" ", 2)[2] for line in lines if line.startswith("# ")}
    return json.loads(lines[-1]), json.loads(tagged["env"]), json.loads(tagged["summary"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_and_checks_ran(workload, trace):
    result, env, summary = parse(run(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    assert summary["failed_frac"] == 0
    assert summary["checks_run"] >= 3 * result["attempted"]
    assert summary["rec_mk_gmean"] > 0
    assert env["seed"] == 3 and env["blas_threads"] == 1
    for key in ("numpy", "scipy", "numpy_blas", "scipy_blas", "cpu_count"):
        assert env[key]


@pytest.mark.parametrize("workload", ["optimize-n140", "cli-chain-n560"])
def test_counts_repeat_exactly(workload):
    first, _, _ = parse(run(ROOT, workload, 1))
    second, _, _ = parse(run(ROOT, workload, 1))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["objective.evaluate_rec_mk.calls"]["value"] > 0
    if workload == "cli-chain-n560":
        assert first["metrics"]["cli.spectrum_solves_per_chain"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = run(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_time_excludes_children():
    sys.path.insert(0, str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    with tracer.job(7):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
    spans = {s[0]: s for s in tracer.spans}
    rows = tracer.per_job()[7]
    inner_total = sum(s[5] - s[4] for s in spans.values() if s[1] == "inner")
    outer = next(s for s in spans.values() if s[1] == "outer")
    assert rows["inner"][2] == 2
    assert rows["outer"][0] == pytest.approx(outer[5] - outer[4] - inner_total)
    assert all(s[2] == 7 for s in tracer.spans)
    assert outer[3] == next(s[0] for s in spans.values() if s[1] == "job")


def test_wrappers_reach_every_lookup_site_and_come_off():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import layers
    from spilloverfree import cli, pencil
    from tracing import Tracer

    original = pencil.solve_spectrum
    k_rcond = pencil.StructuredPencil.k_rcond
    with Tracer().installed(layers.TARGETS):
        assert cli.solve_spectrum is pencil.solve_spectrum
        assert cli.solve_spectrum is not original
        assert pencil.StructuredPencil.k_rcond is not k_rcond
    assert cli.solve_spectrum is original and pencil.solve_spectrum is original
    assert pencil.StructuredPencil.k_rcond is k_rcond
