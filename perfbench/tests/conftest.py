import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import roquette  # noqa: E402
from workloads import Workload  # noqa: E402

# A cheap configuration with a torsion witness (ell = 3 over F_{5^4});
# CRT is skipped because 3 does not exceed 2(p-1).
SMALL = Workload(name="small-p5", p=5, ell=(3,), ell_bound=10_000, max_prime=13,
                 expected_ells=(3,),
                 expected_skipped=frozenset({"crt_reconstruction"}),
                 crt_computed=False)
SEED = 4


def run_small() -> bytes:
    """The report bytes, calling through the package attributes so that
    wrappers installed on them are seen."""
    options = roquette.PipelineOptions(**SMALL.options(SEED))
    return roquette.emit(roquette.run_pipeline(SMALL.p, options), "json")


@pytest.fixture(scope="session")
def small_report() -> bytes:
    return run_small()


@pytest.fixture
def small_doc(small_report) -> dict:
    return json.loads(small_report)
