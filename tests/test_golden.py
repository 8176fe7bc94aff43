"""Golden reports: the default JSON report at seed 0 for p = 5, 7, 11, 13,
29 and 31, and the markdown report for p = 5 and 29, regenerated and
compared byte for byte with the committed files.

Only `tool.python` is normalised, since it names the interpreter; the
markdown report does not carry it.  At
p = 5 and 7 the torsion witness runs, so the sampled basis and every
trace are pinned too; the larger primes skip it, and pin the group,
point, character and wild-series stages.
"""

import re
from pathlib import Path

import pytest

from roquette.report import emit, run_pipeline

GOLDEN = Path(__file__).parent / "golden"
PYTHON_FIELD = re.compile(rb'"python": "[^"]*"')


def _normalised(raw: bytes) -> bytes:
    return PYTHON_FIELD.sub(b'"python": ""', raw, count=1)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29, 31])
def test_report_matches_golden(p):
    report = run_pipeline(p)
    expected = (GOLDEN / f"p{p}.json").read_bytes()
    assert PYTHON_FIELD.search(expected)
    assert _normalised(emit(report, "json")) == _normalised(expected)
    if p in (5, 29):
        assert emit(report, "markdown") == (GOLDEN / f"p{p}.md").read_bytes()
