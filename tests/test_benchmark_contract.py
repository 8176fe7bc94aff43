"""The benchmark's contract with the pipeline.

Every workload that BENCHMARK.json names is run here once at seed 0 with
the options `perfbench/workloads.py` builds, and its report must pass that
file's own known-answer check.  A renamed, added or dropped check, or a
changed `PipelineOptions` field, fails here before a benchmark run does.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from roquette.report import PipelineOptions, emit, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workload_passes_its_known_answer_check(name):
    wl = WORKLOADS.WORKLOADS[name]
    report = run_pipeline(wl.p, PipelineOptions(**wl.options(0)))
    assert WORKLOADS.check_report(emit(report, "json"), wl, 0) == []
