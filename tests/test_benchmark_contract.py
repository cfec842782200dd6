"""The package names and signatures the benchmark under `perfbench/` calls.

`perfbench/workloads.py`, `check.py`, `make_reference.py` and `spans.py` run
against every later commit, so dropping or re-signing one of these names
breaks the benchmark, not a test.  This module pins them, so the break
fails here first.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from typresp import harness, response, rmt

_EMPTY = inspect.Parameter.empty

# module -> function -> its parameters as (name, default), in order
SIGNATURES = {
    harness: {
        "load_config": [("path", _EMPTY)],
        "parse_config": [("text", _EMPTY)],
        "render_config": [("cfg", _EMPTY)],
        "validate_scenario_config": [("cfg", _EMPTY)],
        "build_profile": [("section", _EMPTY), ("d0_override", None)],
        "build_protocol": [("section", _EMPTY)],
        "run": [("cfg", _EMPTY), ("out_dir", _EMPTY)],
        "run_respond": [("cfg", _EMPTY), ("out_dir", _EMPTY)],
        "write_csv": [("path", _EMPTY), ("columns", _EMPTY)],
        "read_csv": [("path", _EMPTY)],
        "write_sidecar": [("csv_path", _EMPTY), ("meta", _EMPTY)],
    },
    response: {
        "solve_gamma": [("profile", _EMPTY), ("protocol", _EMPTY), ("t_prime", _EMPTY),
                        ("h", _EMPTY), ("n", _EMPTY)],
        "gamma_diagonal_values": [("profile", _EMPTY), ("protocol", _EMPTY), ("h", _EMPTY),
                                  ("n", _EMPTY)],
        "gamma_diagonal": [("profile", _EMPTY), ("protocol", _EMPTY), ("h", _EMPTY),
                           ("n", _EMPTY)],
        "default_step": [("profile", _EMPTY), ("protocol", _EMPTY), ("t_max", _EMPTY)],
    },
    rmt: {
        "propagate": [("model", _EMPTY), ("protocol", _EMPTY), ("t_grid", _EMPTY),
                      ("method", _EMPTY), ("step", None)],
        "undriven_series": [("model", _EMPTY), ("t_grid", _EMPTY)],
        "sample_v": [("energies", _EMPTY), ("profile", _EMPTY), ("master_seed", _EMPTY)],
        "eth_diagonal": [("energies", _EMPTY), ("e_top", _EMPTY), ("a0_plus", _EMPTY),
                         ("a0_minus", _EMPTY), ("master_seed", _EMPTY)],
        "fidelity_observable": [("m", _EMPTY), ("index", _EMPTY)],
        "build_eth_observable": [("energies", _EMPTY), ("e_top", _EMPTY), ("a0_plus", _EMPTY),
                                 ("a0_minus", _EMPTY), ("master_seed", _EMPTY)],
    },
}


@pytest.mark.parametrize("module, name", [(m, n) for m, fns in SIGNATURES.items() for n in fns],
                         ids=lambda x: getattr(x, "__name__", x))
def test_pinned_signature(module, name):
    params = inspect.signature(getattr(module, name)).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[module][name]


def test_pinned_constants_and_fields():
    assert isinstance(rmt.NORM_TOL, float) and rmt.NORM_TOL > 0
    fields = [f.name for f in dataclasses.fields(rmt.RandomMatrixModel)]
    assert fields == ["energies", "v_matrix", "observable", "initial_state"]
    assert "gamma" in {f.name for f in dataclasses.fields(response.ResponseSolution)}


def test_pinned_summaries(tmp_path):
    # check.py reads respond's metrics["solver_step"], make_reference.py the
    # written files of both commands and the metrics of a run
    profile = {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": 128.0}
    protocol = {"variant": "step", "f0": 0.08, "period": 0.5}
    respond = harness.run_respond({"profile": profile, "protocol": protocol,
                                   "grid": {"t_max": 0.5, "n_out": 10}}, tmp_path / "r")
    assert set(respond) == {"files", "metrics"}
    assert respond["metrics"]["solver_step"] > 0
    assert [f.rsplit("/", 1)[-1] for f in respond["files"]] == ["respond_diagonal.csv"]
    cfg = {"scenario": "strong_scale", "profile": profile, "protocol": protocol,
           "grid": {"t_max": 1.0, "n_out": 10}}
    harness.validate_scenario_config(cfg)
    run = harness.run(cfg, tmp_path / "s")
    assert set(run) == {"files", "metrics"}
    assert [f.rsplit("/", 1)[-1] for f in run["files"]] == ["strong_scale.csv", "metrics.json"]
    assert np.isfinite(run["metrics"]["sigma0"])
