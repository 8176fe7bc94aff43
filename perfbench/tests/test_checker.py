import json

from conftest import SEED, SMALL
from run import judge
from workloads import WORKLOADS, check_report, expected_check_names


def dump(doc) -> bytes:
    return json.dumps(doc, indent=2).encode()


def test_accepts_the_program_report(small_report):
    assert check_report(small_report, SMALL, SEED) == []


def test_rejects_a_flipped_character_value(small_doc):
    values = small_doc["character"]["values"]
    i = next(i for i, v in enumerate(values) if v not in (0, 4, -4))
    values[i] = -values[i]
    assert check_report(dump(small_doc), SMALL, SEED)


def test_rejects_every_single_changed_character_value(small_report):
    n = len(json.loads(small_report)["character"]["values"])
    for i in range(n):
        for delta in (-1, 1):
            doc = json.loads(small_report)
            doc["character"]["values"][i] += delta
            assert check_report(dump(doc), SMALL, SEED), (i, delta)


def test_rejects_a_dropped_check(small_doc):
    small_doc["checks"] = [c for c in small_doc["checks"] if c["name"] != "fs_indicator"]
    assert check_report(dump(small_doc), SMALL, SEED)


def test_rejects_a_changed_skip_set(small_doc):
    for c in small_doc["checks"]:
        if c["name"] == "crt_reconstruction":
            c["status"] = "pass"
    assert check_report(dump(small_doc), SMALL, SEED)


def test_rejects_an_extra_skip(small_doc):
    for c in small_doc["checks"]:
        if c["name"] == "char_faithful":
            c["status"] = "skipped"
    assert check_report(dump(small_doc), SMALL, SEED)


def test_rejects_a_trace_off_the_congruence(small_doc):
    small_doc["ell_witness"][0]["traces"][1] += 1
    assert check_report(dump(small_doc), SMALL, SEED)


def test_rejects_a_report_for_another_seed(small_report):
    assert check_report(small_report, SMALL, SEED + 1)


def test_rejects_garbage():
    assert check_report(b"not json", SMALL, SEED)
    assert check_report(b"{}", SMALL, SEED)


def test_differing_bytes_fail_the_later_run(small_report):
    good = {"mode": "run", "exit_code": 0, "report": small_report.decode()}
    runs = [dict(good), dict(good, report=small_report.decode() + " "), dict(good),
            {"mode": "run", "error": "timed out after 9 s"},
            dict(good, exit_code=1)]
    judge(runs, SMALL, SEED)
    assert [r["failure"] is None for r in runs] == [True, False, True, False, False]


def test_workload_check_lists():
    assert "crt_reconstruction" in expected_check_names(WORKLOADS["witness-p5"])
    assert "ell_witness_3" in expected_check_names(WORKLOADS["action-p7"])
    names = expected_check_names(WORKLOADS["classes-p29"])
    assert "ell_witness" in names and "crt_reconstruction" not in names
