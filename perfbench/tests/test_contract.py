import json

from conftest import HERE
from micro import PROBES
from run import COUNT_METRICS, END_TO_END_UNITS, SPAN_METRICS, layer_metrics, unit_of
from tracing import COUNT_POINTS, GROUP_MUL_POINTS, SPAN_POINTS

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def full_trace_runs():
    """Children results in which every entry point was wrapped."""
    names = sorted({n for _, _, n in SPAN_POINTS + COUNT_POINTS})
    summary = {n: {"calls": 2, "total_s": 1.0, "self_s": 0.5} for n in names}
    counts = dict.fromkeys(names, 2)
    plain = {"mode": "run", "verdict_s": 2.0}
    spans = {"mode": "spans", "verdict_s": 2.2, "summary": summary,
             "counts": counts, "installed": names}
    groupmul = {"mode": "groupmul", "counts": {"group.mul": 7},
                "installed": [n for _, _, n in GROUP_MUL_POINTS]}
    micro = {"mode": "micro", "micro": {name: 1.0 for name, _, _ in PROBES}}
    return [plain, spans, groupmul, micro]


def test_traced_run_reports_exactly_the_per_layer_metrics():
    produced = layer_metrics(full_trace_runs())
    assert sorted(produced) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_units_agree_with_the_benchmark_file():
    for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]:
        assert unit_of(m["name"]) == m["unit"], m["name"]
    assert sorted(END_TO_END_UNITS) == sorted(m["name"] for m in BENCHMARK["end_to_end"])


def test_metrics_of_a_missing_entry_point_are_left_out():
    runs = full_trace_runs()
    runs[1]["installed"].remove("jacobian.act_on_class")
    produced = layer_metrics(runs)
    assert "jacobian.act_on_class_ms" not in produced
    assert "jacobian.act_on_class_calls" not in produced
    assert "jacobian.add_calls" in produced


def test_every_span_metric_names_a_wrapped_point():
    names = {n for _, _, n in SPAN_POINTS}
    assert {name for name, _, _ in SPAN_METRICS.values()} <= names
    assert set(COUNT_METRICS.values()) <= names | {n for _, _, n in COUNT_POINTS}
