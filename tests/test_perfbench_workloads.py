"""Each benchmark workload (perfbench/workloads.py) run at a fixed seed: warm-up,
two rounds and the oracle checks.  A change that breaks a workload, makes its
rounds differ or gives an output its oracle refuses fails here, before any
benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ["cauchy_sweep", "cli_sweep", "sharpness_search"]
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads imports oracles as a top-level module
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.WORKLOADS) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_workload_rounds_repeat_and_pass_their_oracles(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](SEED, tmp_path)
    workload.warm_up()
    first, second = workload.round(), workload.round()
    failed, problems = workload.check(first)
    assert problems == []
    assert first == second
    # The near-boundary band of cauchy_sweep fails no longer: no workload fails.
    assert failed == 0
