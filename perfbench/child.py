"""One child interpreter of the benchmark.

    python3 -I perfbench/child.py SRC MODE WORKLOAD SEED

imports roquette from SRC and, by MODE:

- setup     exits as soon as roquette is imported;
- run       runs the workload's pipeline once and emits the JSON report;
- spans     the same, with span wrappers on the public entry points;
- groupmul  the same, counting RoquetteGroup.mul calls only;
- micro     runs the kernel micro-benchmarks.

It prints one JSON line.  `ready` is the CLOCK_MONOTONIC time at which
roquette was imported, which the parent compares with its launch time;
`start` and `end` bound the verdict on the same clock.
The exit code is the report's own exit code (0 for a clean verdict).
"""

import os
import sys
import time


def main(argv: list) -> int:
    src, mode, workload, seed = argv[0], argv[1], argv[2], int(argv[3])
    sys.path.insert(0, src)
    import roquette
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not os.path.realpath(roquette.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"roquette was imported from {roquette.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    import json
    import resource
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    out: dict = {"ready": ready}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    if mode == "micro":
        from micro import run_micro
        out["micro"], out["absent"] = run_micro(seed)
        print(json.dumps(out))
        return 0

    tracer = None
    if mode in ("spans", "groupmul"):
        from tracing import COUNT_POINTS, GROUP_MUL_POINTS, SPAN_POINTS, Tracer
        tracer = Tracer(run_id=f"{workload}:{seed}:{mode}:{os.getpid()}")
        if mode == "spans":
            tracer.install(SPAN_POINTS, "span")
            tracer.install(COUNT_POINTS, "count")
        else:
            tracer.install(GROUP_MUL_POINTS, "count")
    elif mode != "run":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2

    wl = WORKLOADS[workload]
    options = roquette.PipelineOptions(**wl.options(seed))
    run_pipeline, emit = roquette.run_pipeline, roquette.emit
    t0, c0 = time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()
    report = run_pipeline(wl.p, options)
    data = emit(report, "json")
    t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out["cpu_s"] = time.process_time() - c0
    out["verdict_s"], out["start"], out["end"] = t1 - t0, t0, t1
    if tracer is not None:
        tracer.uninstall()
        out["counts"] = tracer.counts
        out["installed"] = sorted(tracer.installed)
        out["missing"] = tracer.missing
        if mode == "spans":
            out["summary"] = tracer.summary()
            out["spans"] = tracer.spans
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["report"] = data.decode("ascii")
    print(json.dumps(out))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
