"""Each benchmark workload, run as the benchmark runs it, matches its recorded reference.

The workloads load and run through `perfbench/workloads.py` and are checked by
`perfbench/check.py`'s `Checker`: every column against the reference outputs
within its tolerance, plus the checker's spot checks.  A workload that has
left `BENCHMARK.json` is still checked here.
"""

import importlib
import sys
from pathlib import Path

import pytest

import typresp
from typresp import harness

PERFBENCH = Path(__file__).parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's `workloads` and `check` modules, imported as its runner imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads"), importlib.import_module("check")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", [
    "respond_diag",
    "pretherm",
    "sinusoid_trotter",
    pytest.param("fidelity_step", marks=pytest.mark.slow),  # m = 2048
])
def test_workload_matches_its_reference(tmp_path, perfbench, name):
    workloads, check = perfbench
    cfg = workloads.load(harness, name, 0)
    summary = workloads.call(harness, name, cfg, tmp_path)
    checker = check.Checker(name, workloads.model_seed(0))
    assert checker.check(tmp_path, summary, cfg, typresp) == []
