"""The benchmark's contract with the pipeline.

Every workload that BENCHMARK.json names is run here once at seed 0 with
the options `perfbench/workloads.py` builds, and its report must pass that
file's own known-answer check.  A renamed, added or dropped check, or a
changed `PipelineOptions` field, fails here before a benchmark run does.
So does a renamed or removed entry point that the traced run wraps
(`perfbench/tracing.py`) or the micro-benchmarks call (`perfbench/micro.py`),
and a per-layer metric of BENCHMARK.json that no live entry point feeds.
The traced benchmark itself runs once per workload too: it drops a metric
whose entry point is missing and still exits 0, so its result line is read.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from roquette.report import PipelineOptions, emit, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name: str):
    """perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
TRACING = _load("tracing")
MICRO = _load("micro")
# a point the tracer still lists although the function left jacobian long ago
RETIRED_POINTS = {("roquette.jacobian", "roots_with_multiplicity")}
POINTS = [point for point in TRACING.SPAN_POINTS + TRACING.COUNT_POINTS
          + TRACING.GROUP_MUL_POINTS if point[:2] not in RETIRED_POINTS]
# a metric perfbench/run.py derives in layer_metrics -> the traced names
# it is computed from
DERIVED_INPUTS = {
    "jacobian.act_on_class_ms": {"jacobian.act_on_class"},
    "jacobian.sample_yield": {"jacobian.random_divisor", "jacobian.torsion_basis"},
    "trace.overhead_ratio": {"report.run_pipeline"},
    "group.mul_calls": {"group.mul"},
}


def _traced_inputs() -> dict:
    """Metric -> the traced names perfbench/run.py computes it from: its
    SPAN_METRICS and COUNT_METRICS, read from its source (run.py imports
    its sibling modules by their bare names), and DERIVED_INPUTS."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in ("SPAN_METRICS", "COUNT_METRICS")}
    return {**{metric: {name} for metric, (name, _, _) in tables["SPAN_METRICS"].items()},
            **{metric: {name} for metric, name in tables["COUNT_METRICS"].items()},
            **DERIVED_INPUTS}


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workload_passes_its_known_answer_check(name):
    wl = WORKLOADS.WORKLOADS[name]
    report = run_pipeline(wl.p, PipelineOptions(**wl.options(0)))
    assert WORKLOADS.check_report(emit(report, "json"), wl, 0) == []


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_options_build(name, seed):
    # the call perfbench/child.py makes, at the seeds a claim is confirmed at
    kwargs = WORKLOADS.WORKLOADS[name].options(seed)
    options = PipelineOptions(**kwargs)
    assert options._asdict() == kwargs


@pytest.mark.parametrize("module,path", [(module, path) for module, path, _ in POINTS])
def test_every_traced_entry_point_resolves(module, path):
    assert TRACING._resolve(module, path) is not None


def test_every_micro_probe_runs(monkeypatch):
    monkeypatch.setattr(MICRO, "BATCH_S", 1e-4)
    monkeypatch.setattr(MICRO, "BATCHES", 1)
    values, absent = MICRO.run_micro(0)
    assert absent == []
    assert sorted(values) == sorted(name for name, _, _ in MICRO.PROBES)


@pytest.mark.parametrize("metric", [m["name"] for m in BENCHMARK["per_layer"]])
def test_every_per_layer_metric_has_a_live_source(metric):
    # a traced run leaves out a metric whose entry point did not resolve,
    # and still exits 0; so each metric needs a micro probe or traced
    # names that resolve and are not retired
    if metric in {name for name, _, _ in MICRO.PROBES}:
        return
    inputs = _traced_inputs().get(metric)
    assert inputs, f"{metric}: no span, count, micro probe or derivation produces it"
    live = {name for module, path, name in POINTS if TRACING._resolve(module, path)}
    assert inputs <= live, f"{metric}: no live entry point for {sorted(inputs - live)}"


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_benchmark_run_reports_every_layer(name):
    # the command line the benchmark runs, from the repository root; its
    # samples go to the gitignored perfbench/out/
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=40)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    missing = {m["name"] for m in BENCHMARK["per_layer"]} - set(result["metrics"])
    assert not missing, (sorted(missing), done.stderr)
