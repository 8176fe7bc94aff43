"""Golden reports: the default JSON report at seed 0 for p = 11, 13 and 29,
regenerated and compared byte for byte with the committed files.

Only `tool.python` is normalised, since it names the interpreter.  These
primes skip the torsion witness, so the runs are quick; the group, point,
character and wild-series stages are all pinned.
"""

import re
from pathlib import Path

import pytest

from roquette.report import emit, run_pipeline

GOLDEN = Path(__file__).parent / "golden"
PYTHON_FIELD = re.compile(rb'"python": "[^"]*"')


def _normalised(raw: bytes) -> bytes:
    return PYTHON_FIELD.sub(b'"python": ""', raw, count=1)


@pytest.mark.parametrize("p", [11, 13, 29])
def test_report_matches_golden(p):
    expected = (GOLDEN / f"p{p}.json").read_bytes()
    assert PYTHON_FIELD.search(expected)
    assert _normalised(emit(run_pipeline(p), "json")) == _normalised(expected)
