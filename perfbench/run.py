"""Time-to-verdict benchmark of roquette.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: roquette is imported from ./src.

Load shape: a closed loop with one client.  This process launches one
child interpreter at a time (perfbench/child.py), waits for it, and reads
its report.  Each child imports roquette, calls run_pipeline with the
workload's options and the given seed, and emits the JSON report.

--trace 0 measures end to end.  It first launches SETUP_PROBES children
that only import roquette (setup_s), then runs the pipeline in fresh
children until the next one would end more than --seconds after the
start (at least MIN_RUNS).  verdict_ref_s and peak_rss_mb are medians
over those runs.

verdict_ref_s is the wall time of a verdict at a fixed reference speed of
the core.  The shared host runs the same Python code up to 1.6x slower in
some minutes than in others, on each core independently.  So this process
pins itself, and every child, to one core, and runs the reference loop
(perfbench/pace.py) at the lowest priority on that core beside the
children.  Each verdict's wall time is scaled by REFERENCE_CHUNK_S over
the median CPU time of the reference chunks that ran during it.  The raw
wall time is printed as verdict_s and kept in the samples file.

--trace 1 measures layers: one untraced run, one run with span wrappers
(perfbench/tracing.py), one run counting group multiplications, and one
micro-benchmark child (perfbench/micro.py); all four count as attempted.

Every report is checked against known answers (perfbench/workloads.py)
and against the bytes of the first report of the same invocation.  A run
fails if it crashed, timed out, exited non-zero or failed either check.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric
with its unit.  Samples, context and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, check_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
PACE = HERE / "pace.py"

SETUP_PROBES = {0: 20, 1: 5}
MIN_RUNS = 2
HARD_LIMIT_S = 170  # a run must end within 180 s
# CPU time of one pace.py chunk at the reference core speed (about its
# median on the 2-core VM, CPython 3.11, this benchmark was tuned on);
# verdict_ref_s is a verdict's wall time times this over the median CPU
# time of the chunks that ran during it.
REFERENCE_CHUNK_S = 0.002
MIN_PACE_CHUNKS = 10

END_TO_END_UNITS = {"verdict_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# metric -> (span name, "total" or "self", scale)
SPAN_METRICS = {
    "poly.roots_s": ("poly.roots_with_multiplicity", "total", 1),
    "jacobian.torsion_basis_s": ("jacobian.torsion_basis", "total", 1),
    "jacobian.traces_s": ("jacobian.rho_ell_traces", "total", 1),
    "jacobian.crt_s": ("jacobian.crt_reconstruct", "total", 1),
    "group.elements_s": ("group.elements", "total", 1),
    "group.classes_s": ("group.conjugacy_classes", "total", 1),
    "series.wild_s": ("series.wild_translation_multiplicity", "total", 1),
    "curve.fixed_scheme_s": ("curve.fixed_scheme_degree", "self", 1),
    "curve.point_count_s": ("curve.point_count", "total", 1),
    "character.lefschetz_s": ("character.lefschetz_character", "total", 1),
    "character.fs_indicator_s": ("character.fs_indicator", "total", 1),
    "character.inner_product_s": ("character.inner_product", "total", 1),
    "report.self_s": ("report.run_pipeline", "self", 1),
    "report.emit_ms": ("report.emit", "total", 1e3),
}
# metric -> name of the counter in the spans child
COUNT_METRICS = {
    "poly.roots_calls": "poly.roots_with_multiplicity",
    "jacobian.add_calls": "jacobian.add",
    "jacobian.sample_attempts": "jacobian.random_divisor",
    "jacobian.act_on_class_calls": "jacobian.act_on_class",
    "series.mul_calls": "series.mul",
}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    for suffix, unit in (("_calls", "count"), ("_attempts", "count"), ("_ns", "ns"),
                         ("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if metric.endswith(suffix) or f"{suffix}." in metric:
            return unit
    return "ratio"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(mode: str, workload: str, seed: int, timeout: float) -> dict:
    """Run one child to completion; its parsed result, or {"error": ...}."""
    t0 = now()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(CHILD), str(SRC), mode, workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s"}
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    wall = now() - t0
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        return {"mode": mode, "error": f"exit {proc.returncode}, no result {tail}"}
    doc.update(mode=mode, exit_code=proc.returncode, wall_s=wall,
               setup_s=doc["ready"] - t0)
    return doc


def judge(runs: list, wl: Workload, seed: int) -> None:
    """Set run["failure"] (None when the run is correct) on each run."""
    reference = next((r["report"] for r in runs if "report" in r), None)
    for r in runs:
        if "error" in r:
            r["failure"] = r["error"]
        elif r["exit_code"] != 0:
            r["failure"] = f"exit code {r['exit_code']}"
        elif r["mode"] == "micro":
            r["failure"] = None
        elif problems := check_report(r["report"].encode(), wl, seed):
            r["failure"] = "; ".join(problems)
        elif r["report"] != reference:
            r["failure"] = "report bytes differ from the first report of this set"
        else:
            r["failure"] = None


def pin_to_one_core() -> int:
    """Pin this process, and so every process it starts, to one core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def measure_end_to_end(workload: str, seed: int, deadline: float, hard_deadline: float):
    """Pipeline runs, with the reference loop (pace.py) beside them."""
    runs: list = []
    pace = subprocess.Popen([sys.executable, "-I", str(PACE)], cwd=ROOT,
                            stdout=subprocess.PIPE)
    try:
        while now() < hard_deadline:
            walls = [r["wall_s"] for r in runs if "wall_s" in r]
            expected = statistics.median(walls) if walls else 0.0
            if len(runs) >= MIN_RUNS and now() + expected > deadline:
                break
            runs.append(launch("run", workload, seed, hard_deadline - now()))
        pace.terminate()
        out, _ = pace.communicate(timeout=30)
    finally:  # also when interrupted: leave no reference loop behind
        if pace.poll() is None:
            pace.kill()
            pace.wait()
    scale_to_reference(runs, json.loads(out))
    return runs


def scale_to_reference(runs: list, chunks: list) -> None:
    """Set verdict_ref_s on each run during which at least MIN_PACE_CHUNKS
    reference chunks ran: its wall time times REFERENCE_CHUNK_S over the
    median CPU time of those chunks."""
    for r in runs:
        if "start" not in r:
            continue
        during = [cpu for t0, t1, cpu in chunks if r["start"] <= t0 and t1 <= r["end"]]
        r["pace_chunks"] = len(during)
        if len(during) >= MIN_PACE_CHUNKS:
            r["pace_s"] = statistics.median(during)
            r["verdict_ref_s"] = r["verdict_s"] * REFERENCE_CHUNK_S / r["pace_s"]


def measure_layers(workload: str, seed: int, hard_deadline: float):
    return [launch(mode, workload, seed, hard_deadline - now())
            for mode in ("run", "spans", "groupmul", "micro")]


def layer_metrics(runs: list) -> dict:
    """Per-layer metrics.  A metric whose entry point could not be wrapped
    is left out; one whose layer did no work is 0."""
    plain, spans, groupmul, micro = runs
    out: dict = {}
    summary = spans.get("summary", {})
    counts = spans.get("counts", {})
    installed = set(spans.get("installed", []))
    for metric, (name, kind, scale) in SPAN_METRICS.items():
        if name in installed:
            out[metric] = summary.get(name, {f"{kind}_s": 0.0})[f"{kind}_s"] * scale
    for metric, name in COUNT_METRICS.items():
        if name in installed:
            out[metric] = counts.get(name, 0)
    if "jacobian.act_on_class" in installed:
        acts = counts.get("jacobian.act_on_class", 0)
        act_s = summary.get("jacobian.act_on_class", {"total_s": 0.0})["total_s"]
        out["jacobian.act_on_class_ms"] = act_s / acts * 1e3 if acts else 0.0
    if {"jacobian.random_divisor", "jacobian.torsion_basis"} <= installed:
        attempts = counts.get("jacobian.random_divisor", 0)
        kept = counts.get("jacobian.basis_kept", 0)
        out["jacobian.sample_yield"] = kept / attempts if attempts else 0.0
    if "verdict_s" in plain and "verdict_s" in spans:
        out["trace.overhead_ratio"] = spans["verdict_s"] / plain["verdict_s"]
    if "group.mul" in groupmul.get("installed", []):
        out["group.mul_calls"] = groupmul["counts"].get("group.mul", 0)
    out.update(micro.get("micro", {}))
    return out


def print_table(header: str, metrics: dict, notes: dict) -> None:
    print(header)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {unit_of(name):6s} {notes.get(name, '')}")


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM raises SystemExit, so a running child is killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = now()
    hard_deadline = started + HARD_LIMIT_S
    if not (SRC / "roquette" / "__init__.py").is_file():
        print(f"no roquette sources under {SRC}", file=sys.stderr)
        return 2

    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(),
               "python": platform.python_version(),
               "loadavg_before": os.getloadavg()}
    setups = [launch("setup", args.workload, args.seed, 60)
              for _ in range(SETUP_PROBES[args.trace])]
    broken = [s.get("error") or f"exit {s['exit_code']}" for s in setups
              if "error" in s or s["exit_code"] != 0]
    if broken:
        print(f"roquette cannot be imported: {broken[0]}", file=sys.stderr)
        return 2

    context["core"] = pin_to_one_core()
    if args.trace:
        runs = measure_layers(args.workload, args.seed, hard_deadline)
    else:
        runs = measure_end_to_end(args.workload, args.seed, started + args.seconds,
                                  hard_deadline)
    judge(runs, WORKLOADS[args.workload], args.seed)
    context["loadavg_after"] = os.getloadavg()
    good = [r for r in runs if r["failure"] is None]
    failed = len(runs) - len(good)
    for r in runs:
        if r["failure"] is not None:
            print(f"FAILED {r['mode']} run: {r['failure']}", file=sys.stderr)
    timed = [r for r in (good or runs) if r["mode"] == "run" and "verdict_s" in r]
    if not timed:
        print("no run produced a report", file=sys.stderr)
        return 1

    paced = [r for r in timed if "verdict_ref_s" in r]
    if not args.trace and not paced:
        print(f"fewer than {MIN_PACE_CHUNKS} reference chunks ran during each verdict",
              file=sys.stderr)
        return 1
    end_to_end = {}
    if paced:  # the traced mode runs no reference loop
        end_to_end["verdict_ref_s"] = statistics.median(r["verdict_ref_s"] for r in paced)
    end_to_end["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    end_to_end["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in timed)
    n_setup, n_runs = len(setups), len(timed)
    notes = {"verdict_ref_s": f"median of {len(paced)} runs, "
                              f"{sum(r['pace_chunks'] for r in paced)} reference chunks",
             "verdict_s": f"wall, median of {n_runs} runs",
             "setup_s": f"median of {n_setup} launches",
             "peak_rss_mb": f"median of {n_runs} runs",
             "failure_rate": f"{failed} of {len(runs)} runs"}
    shown = dict(end_to_end, verdict_s=statistics.median(r["verdict_s"] for r in timed),
                 failure_rate=failed / len(runs))
    result_metrics = end_to_end
    absent = []
    if args.trace:
        result_metrics = layer_metrics(runs)
        shown.update(result_metrics)
        absent = runs[-1].get("absent", []) + runs[1].get("missing", [])
        if absent:
            print(f"absent (entry point missing): {', '.join(absent)}", file=sys.stderr)
    context["samples"] = {"runs": n_runs, "setup_launches": n_setup}

    OUT.mkdir(exist_ok=True)
    record = {
        "context": context,
        "metrics": shown,
        "setup_s": [s["setup_s"] for s in setups],
        "runs": [{k: r.get(k) for k in ("mode", "verdict_s", "cpu_s", "setup_s", "wall_s",
                                          "pace_s", "pace_chunks", "verdict_ref_s",
                                          "rss_mb", "failure", "counts", "missing",
                                          "summary", "spans")} for r in runs],
        "absent": absent,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print_table(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={context['nproc']} python={context['python']} "
        f"load={context['loadavg_before'][0]:.2f}->{context['loadavg_after'][0]:.2f} "
        f"samples={out_file.relative_to(ROOT)}", shown, notes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
