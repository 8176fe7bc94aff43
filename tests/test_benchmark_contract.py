"""The benchmark's contract with the pipeline.

Every workload that BENCHMARK.json names is run here once at seed 0 with
the options `perfbench/workloads.py` builds, and its report must pass that
file's own known-answer check.  A renamed, added or dropped check, or a
changed `PipelineOptions` field, fails here before a benchmark run does.
So does a renamed or removed entry point that the traced run wraps
(`perfbench/tracing.py`) or the micro-benchmarks call (`perfbench/micro.py`).
"""

import importlib.util
import json
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


@pytest.mark.parametrize("module,path", [
    (module, path)
    for module, path, _ in TRACING.SPAN_POINTS + TRACING.COUNT_POINTS + TRACING.GROUP_MUL_POINTS
    if (module, path) not in RETIRED_POINTS])
def test_every_traced_entry_point_resolves(module, path):
    assert TRACING._resolve(module, path) is not None


def test_every_micro_probe_runs(monkeypatch):
    monkeypatch.setattr(MICRO, "BATCH_S", 1e-4)
    monkeypatch.setattr(MICRO, "BATCHES", 1)
    values, absent = MICRO.run_micro(0)
    assert absent == []
    assert sorted(values) == sorted(name for name, _, _ in MICRO.PROBES)
