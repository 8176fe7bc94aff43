"""The reference loop: how fast the core runs Python, while a verdict runs.

    python3 -I perfbench/pace.py

run.py starts this process on the core it pins the pipeline children to.
It lowers its own priority to nice 19, so the scheduler gives it about
1.5% of the core while a child runs there, in slices spread over the
child's whole run.  It repeats a fixed chunk of interpreter work and
records, for each chunk, its CLOCK_MONOTONIC start and end and the CPU
time it took.  On SIGTERM it prints the chunks as one JSON list and exits.
If run.py dies without stopping it, it exits at the end of its chunk.

The CPU time of a chunk rises and falls with the speed the shared host
gives the core, so the median over the chunks that fall inside a verdict
measures the speed during that verdict (see run.py, REFERENCE_CHUNK_S).
"""

import json
import os
import signal
import time

CHUNK_ITERATIONS = 20_000


def chunk() -> int:
    """A fixed amount of small-integer arithmetic, as in the field kernels."""
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        acc = (acc + i * i) % 65_521
    return acc


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    os.nice(19)
    parent = os.getppid()
    chunks = []
    while not stop:
        if os.getppid() != parent:  # orphaned: nobody will read the chunks
            return 1
        t0, c0 = time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()
        chunk()
        chunks.append((t0, time.clock_gettime(time.CLOCK_MONOTONIC),
                       time.process_time() - c0))
    print(json.dumps(chunks))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
