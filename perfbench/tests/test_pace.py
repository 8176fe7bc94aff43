import json
import subprocess
import sys
import time

from conftest import HERE
from run import MIN_PACE_CHUNKS, REFERENCE_CHUNK_S, scale_to_reference


def chunks_every_tenth(cpu_s: float, until: float = 10.0) -> list:
    return [(i / 10, i / 10 + 0.01, cpu_s) for i in range(int(until * 10))]


def test_a_verdict_on_a_core_at_half_speed_is_scaled_to_half():
    run = {"verdict_s": 8.0, "start": 1.0, "end": 9.0}
    scale_to_reference([run], chunks_every_tenth(2 * REFERENCE_CHUNK_S))
    assert run["pace_chunks"] == 80
    assert run["verdict_ref_s"] == 4.0


def test_only_chunks_inside_the_verdict_count():
    fast = chunks_every_tenth(REFERENCE_CHUNK_S / 2)
    slow = [(t0 + 10, t1 + 10, REFERENCE_CHUNK_S) for t0, t1, _ in fast]
    run = {"verdict_s": 5.0, "start": 12.0, "end": 17.0}
    scale_to_reference([run], fast + slow)
    assert run["verdict_ref_s"] == 5.0


def test_a_verdict_with_too_few_chunks_is_not_scaled():
    run = {"verdict_s": 0.5, "start": 1.0, "end": 1.0 + (MIN_PACE_CHUNKS - 1) / 10}
    failed = {"mode": "run", "error": "timed out"}
    scale_to_reference([run, failed], chunks_every_tenth(REFERENCE_CHUNK_S))
    assert "verdict_ref_s" not in run and "verdict_ref_s" not in failed


def test_the_reference_loop_reports_its_chunks_when_terminated():
    proc = subprocess.Popen([sys.executable, "-I", str(HERE.parent / "pace.py")],
                            stdout=subprocess.PIPE)
    try:
        time.sleep(0.5)
        proc.terminate()
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    chunks = json.loads(out)
    assert chunks and all(t0 < t1 and cpu > 0 for t0, t1, cpu in chunks)
