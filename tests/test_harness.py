"""Config handling, CSV artifacts, metrics, scenario runs, CLI."""

import copy
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typresp import cli, harness, profiles, protocols, response, rmt
from typresp.errors import ConfigError, EmptyWindowError, GridMismatchError


def small_fidelity_cfg(f0=0.08, period=0.5, m=128, t_max=1.0, n_out=40):
    return {
        "scenario": "fidelity",
        "seed": 1,
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": None},
        "protocol": {"variant": "step", "f0": f0, "period": period},
        "model": {
            "m": m,
            "spectrum": {"variant": "flat", "spacing": 1.0 / 32},
            "observable": {"kind": "fidelity"},
            "initial_state": {"kind": "eigenstate", "index": "middle"},
            "method": "piecewise_exact",
        },
        "grid": {"t_max": t_max, "n_out": n_out},
    }


def small_eth_cfg(m=64):
    """double_pretherm's model at m = 64, spectral span 32 as in configs/double_pretherm.yaml."""
    return {
        "scenario": "double_pretherm",
        "seed": 1,
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": None},
        "protocol": {"variant": "step", "f0": 0.12, "period": 2.0},
        "model": {
            "m": m,
            "spectrum": {"variant": "cosine_modulated", "alpha": 0.1, "mean_spacing": 0.5},
            "observable": {"kind": "eth", "a0_plus": 1.0, "a0_minus": 0.25},
            "initial_state": {"kind": "filtered_random", "e_center": 12.0, "delta_e": 4.0,
                              "q": "one_plus_kappa_a", "kappa": 1.0, "sector": "even"},
            "method": "piecewise_exact",
        },
        "grid": {"t_max": 4.0, "n_out": 40},
        "prediction": {"t_max": 1.0},
    }


def small_trotter_cfg():
    """The fidelity config under split-step propagation: h = 1/120 divides T/2 = 0.25."""
    cfg = small_fidelity_cfg(n_out=30)
    cfg["model"].update(method="trotter", trotter_step=0.01)
    return cfg


def respond_cfg():
    return {
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": 128.0},
        "protocol": {"variant": "step", "f0": 0.08, "period": 0.5},
        "grid": {"t_max": 1.0, "n_out": 50},
        "t_primes": [0.25, 0.6],
    }


def strong_scale_cfg(protocol=None):
    return {
        "scenario": "strong_scale",
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": 128.0},
        "protocol": protocol or {"variant": "step", "f0": 0.08, "period": 0.5},
        "grid": {"t_max": 1.0, "n_out": 20},
    }


def quench_cfg():
    ramp = {"variant": "linear_ramp", "f0": 0.2, "period": 0.5}
    return {**strong_scale_cfg(ramp), "scenario": "quench_asymptotics"}


def table_csv(first, second, name="table.csv"):
    """A value to set: the path of a two-column CSV, written into the test's tmp_path."""
    def write(tmp_path):
        return str(harness.write_csv(tmp_path / name, {"x": first, "y": second}))
    return write


# tables a tabulated profile and protocol accept
PROFILE_TABLE = table_csv(np.linspace(0.0, 5.0, 51), np.exp(-np.linspace(0.0, 5.0, 51) / 0.5),
                          "profile.csv")
PROTOCOL_TABLE = table_csv(np.linspace(0.0, 2.0, 201),
                           0.08 * np.sin(2 * np.pi * np.linspace(0.0, 2.0, 201)), "protocol.csv")


def set_field(cfg, dotted, value):
    """Copy of cfg with the dotted field set to value (missing parents are added)."""
    cfg = copy.deepcopy(cfg)
    *parents, last = dotted.split(".")
    node = cfg
    for k in parents:
        node = node.setdefault(k, {})
    node[last] = value
    return cfg


# --- config --------------------------------------------------------------------


def test_config_round_trip():
    cfg = small_fidelity_cfg()
    text = harness.render_config(cfg)
    assert harness.parse_config(text) == cfg


def test_unknown_keys_rejected():
    cfg = small_fidelity_cfg()
    cfg["extra"] = 1
    with pytest.raises(ConfigError):
        harness.validate_scenario_config(cfg)
    cfg = small_fidelity_cfg()
    cfg["model"]["spectrum"]["bogus"] = 2
    with pytest.raises(ConfigError):
        harness.validate_scenario_config(cfg)
    cfg = small_fidelity_cfg()
    cfg["protocol"]["shape"] = "square"
    with pytest.raises(ConfigError):
        harness.validate_scenario_config(cfg)


def test_missing_sections_rejected():
    cfg = small_fidelity_cfg()
    del cfg["grid"]
    with pytest.raises(ConfigError):
        harness.validate_scenario_config(cfg)
    cfg = small_fidelity_cfg()
    del cfg["seed"]
    with pytest.raises(ConfigError):
        harness.validate_scenario_config(cfg)
    with pytest.raises(ConfigError):
        harness.validate_scenario_config({"scenario": "unknown"})


BAD_POSITIVE = [0, 0.0, -0.5, -1, float("nan"), float("inf"), "fast"]


def _must_not_run(*args, **kwargs):
    raise AssertionError("expensive work started before the config was rejected")


@pytest.mark.parametrize("key", ["solver_step", "t_max"])
@pytest.mark.parametrize("bad", BAD_POSITIVE)
def test_simulate_rejects_bad_prediction_grid_before_sampling(tmp_path, monkeypatch, key, bad):
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    cfg = small_fidelity_cfg()
    cfg["prediction"] = {key: bad}
    with pytest.raises(ConfigError, match=f"prediction.{key}"):
        harness.run(cfg, tmp_path)


@pytest.mark.parametrize("bad", BAD_POSITIVE)
def test_respond_rejects_bad_solver_step_before_solving(tmp_path, monkeypatch, bad):
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    monkeypatch.setattr(response, "default_step", _must_not_run)
    monkeypatch.setattr(response, "gamma_rows", _must_not_run)
    cfg = {
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": 128.0},
        "protocol": {"variant": "step", "f0": 0.08, "period": 0.5},
        "grid": {"t_max": 1.0, "n_out": 50},
        "solver_step": bad,
    }
    with pytest.raises(ConfigError, match="solver_step"):
        harness.run_respond(cfg, tmp_path)


# (command, config factory, dotted field, bad value, what the field must be)
ONE_FORM = [
    (harness.run, small_fidelity_cfg, "profile.d0", 0, "a finite number > 0"),
    (harness.run, small_fidelity_cfg, "protocol.period", 0, "a finite number > 0"),
    (harness.run, small_fidelity_cfg, "prediction.t_max", 0, "a finite number > 0"),
    (harness.run, small_fidelity_cfg, "prediction.solver_step", 0, "a finite number > 0"),
    (harness.run_respond, respond_cfg, "solver_step", 0, "a finite number > 0"),
    (harness.run_respond, respond_cfg, "t_primes", [-1],
     "a list of any number of values, each a finite number >= 0"),
]


@pytest.mark.parametrize("run,make_cfg,field,bad,what", ONE_FORM, ids=[c[2] for c in ONE_FORM])
def test_bad_value_message_is_one_form_for_every_key(tmp_path, monkeypatch, run, make_cfg, field,
                                                     bad, what):
    # an optional key with a None default reads as any other: a null is the absent key anyway
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    monkeypatch.setattr(response, "gamma_rows", _must_not_run)
    with pytest.raises(ConfigError) as exc:
        run(set_field(make_cfg(), field, bad), tmp_path / "out")
    assert str(exc.value) == f"{field} must be {what}, got {bad!r}"
    assert not (tmp_path / "out").exists()


# (config, dotted field, bad value): each must fail at load, naming the field
BAD_FIELDS = [
    ("fidelity", "grid.t_max", float("nan")),
    ("fidelity", "grid.t_max", float("inf")),
    ("fidelity", "grid.t_max", 0),
    ("fidelity", "grid.n_out", 2.7),
    ("fidelity", "grid.n_out", 0),
    ("fidelity", "seed", 1.5),
    ("fidelity", "seed", -1),
    ("fidelity", "seed", "one"),
    ("fidelity", "profile", 3),  # a section must be a mapping
    ("fidelity", "profile.variant", "gaussian"),
    ("fidelity", "profile.delta_v", -1),
    ("fidelity", "profile.v0", "x"),
    ("fidelity", "profile.d0", 0),
    ("fidelity", "protocol.variant", "square"),
    ("fidelity", "protocol.f0", "abc"),
    ("fidelity", "protocol.period", 0),
    ("fidelity", "protocol.table", "no/such/table.csv"),
    ("fidelity", "model.m", 2.5),
    ("fidelity", "model.m", 1),
    ("fidelity", "model.method", "rk4"),
    ("fidelity", "model.method", "trotter"),  # no trotter_step
    ("fidelity", "model.trotter_step", -1),
    ("fidelity", "model.spectrum.variant", "bogus"),
    ("fidelity", "model.spectrum.spacing", 0),
    ("fidelity", "model.spectrum.spacing", "x"),
    ("fidelity", "model.observable.kind", "bogus"),
    ("fidelity", "model.initial_state.kind", "bogus"),
    # fidelity needs an eigenstate (without an index, which a filtered state never reads)
    pytest.param("fidelity_unindexed", "model.initial_state.kind", "filtered_random",
                 id="fidelity-model.initial_state.kind-filtered_random"),
    ("fidelity", "model.initial_state.index", 9999),
    ("fidelity", "model.initial_state.index", 128),
    ("fidelity", "model.initial_state.index", -1),
    ("fidelity", "model.initial_state.index", 2.5),
    ("fidelity", "model.initial_state.index", "first"),
    ("fidelity", "prediction.t_max", 0.01),  # rounds to 0 steps of dt = 0.025
    ("fidelity", "protocol.variant", "sinusoid"),  # piecewise_exact needs piecewise constant
    ("trotter", "model.trotter_step", 0.012),  # h = 1/90 does not divide T/2 = 0.25
    ("eth", "model.m", 63),  # two sectors need an even m
    ("eth", "model.spectrum.alpha", -1),
    ("eth", "model.spectrum.mean_spacing", 0),
    ("eth", "model.observable.a0_plus", "x"),
    ("eth", "model.observable.a0_minus", None),
    ("eth", "model.initial_state.delta_e", -1),
    ("eth", "model.initial_state.e_center", float("nan")),
    ("eth", "model.initial_state.sector", "odd"),
    ("eth", "model.initial_state.q", "bogus"),
    ("eth", "model.initial_state.kappa", "x"),
    ("eth", "window_halfwidth_factor", "x"),
    ("eth", "window_halfwidth_factor", -2.0),
    ("eth", "model.initial_state.e_center", 500.0),  # window [492, 508] misses 0..32
    # the window [-128, 32] holds every level, but the nearest, E = 0, is 12 delta_e
    # away: its filter weight exp(-36) is under rmt.FILTER_CUT
    ("eth_wide", "model.initial_state.e_center", -48.0),
    # the window 12 +- 2e-17 rounds to [12, 12]: it holds the level E_24 but has no width
    ("eth_thin", "model.initial_state.e_center", 12.0),
    # delta_e**2 underflows to 0: the weight on the level E = 0 is 0/0 = NaN, under no cut
    ("eth_underflow", "model.initial_state.e_center", 0.0),
    ("strong_scale", "profile.d0", None),  # no model measures it
    ("strong_scale", "grid.n_out", 10**13),  # 160 TB of output times: not numpy's MemoryError
    # keys that are never read with the keys around them
    ("strong_scale", "seed", 3),
    ("quench", "seed", 3),
    pytest.param("strong_scale", "model", small_fidelity_cfg()["model"], id="strong_scale-model"),
    pytest.param("strong_scale_null_d0", "model", small_fidelity_cfg()["model"],
                 id="strong_scale_null_d0-model"),  # no model measures d0 here
    # a trotter model: the model's own checks pass it on a linear ramp
    pytest.param("quench", "model", small_trotter_cfg()["model"], id="quench-model"),
    ("tab_protocol", "protocol.f0", 5.0),
    ("tab_protocol", "seed", 3),
    pytest.param("strong_scale", "protocol.table", PROTOCOL_TABLE, id="step-protocol.table"),
    ("tab_profile", "profile.v0", 1.0),
    ("tab_profile", "profile.delta_v", 0.5),
    pytest.param("fidelity", "profile.table", PROFILE_TABLE, id="exponential-profile.table"),
    ("fidelity", "model.observable.a0_plus", 1.0),
    ("fidelity", "model.observable.a0_minus", 0.25),
    ("quench", "protocol.variant", "step"),  # the asymptotics are the linear ramp's
    pytest.param("tab_profile", "profile.table",
                 table_csv(np.linspace(0.5, 5.0, 10), np.ones(10)), id="profile_from_0.5"),
    pytest.param("tab_protocol", "protocol.table",
                 table_csv([0.0, 2.0, 1.0], [0.1, 0.2, 0.3]), id="protocol_times_decrease"),
    # optional keys that the run would never read
    ("fidelity", "model.trotter_step", 0.01),  # piecewise_exact takes no split step
    ("fidelity", "model.initial_state.q", "identity"),  # an eigenstate is not filtered
    ("fidelity", "model.initial_state.kappa", 1.0),
    # kappa weighs A in Q = 1 + kappa A, which only q: one_plus_kappa_a applies
    ("eth_identity", "model.initial_state.kappa", 5.0),
    ("eth_no_q", "model.initial_state.kappa", 5.0),
    ("fidelity", "model.initial_state.e_center", 0.0),
    ("fidelity", "model.initial_state.delta_e", 1.0),
    ("fidelity", "model.initial_state.sector", "all"),
    ("fidelity", "window_halfwidth_factor", 2.0),  # no occupied window without a filter
    ("eth", "model.initial_state.index", 3),  # a filtered state has no index
    ("eth", "model.initial_state.index", 9999),
    ("strong_scale", "window_halfwidth_factor", 2.0),
    pytest.param("strong_scale", "prediction", {"t_max": 0.5}, id="strong_scale-prediction"),
    pytest.param("quench", "prediction", {}, id="quench-empty-prediction"),
    ("trotter", "model.trotter_step", None),  # null is absent, and trotter needs the step
    ("fidelity", "model.spectrum.alpha", 0.1),  # a flat spectrum has no modulation
    ("fidelity", "model.spectrum.mean_spacing", 0.5),
    ("eth", "model.spectrum.spacing", 0.5),
    ("tab_protocol", "protocol.period", 1.0),  # a table sets its own time scale
    # YAML's true/yes/false pass neither as a number nor as a whole number
    ("fidelity", "grid.n_out", True),
    ("fidelity", "grid.t_max", True),
    ("fidelity", "protocol.f0", True),
    ("fidelity", "seed", False),
    ("fidelity", "model.initial_state.index", True),
    ("eth", "model.initial_state.kappa", False),
]


# the rule a BAD_FIELDS case must reach, where the message names it before the field
BAD_FIELD_RULES = {"fidelity_unindexed": "projects on an eigenstate, .*"}


@pytest.mark.parametrize("which,field,bad", BAD_FIELDS)
def test_bad_field_fails_at_load(tmp_path, monkeypatch, which, field, bad):
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    base = {"fidelity": small_fidelity_cfg, "eth": small_eth_cfg,
            "fidelity_unindexed": lambda: drop_field(small_fidelity_cfg(),
                                                     "model.initial_state.index"),
            "eth_wide": lambda: {**small_eth_cfg(), "window_halfwidth_factor": 20.0},
            "eth_thin": lambda: tiny_filtered_cfg(64, {"variant": "flat", "spacing": 0.5},
                                                  e_center=0.0, delta_e=1e-17),
            "eth_underflow": lambda: tiny_filtered_cfg(16, {"variant": "flat", "spacing": 1.0},
                                                       e_center=3.5, delta_e=1e-170),
            "eth_identity": lambda: set_field(small_eth_cfg(), "model.initial_state.q", "identity"),
            "eth_no_q": lambda: drop_field(small_eth_cfg(), "model.initial_state.q"),
            "trotter": small_trotter_cfg, "strong_scale": strong_scale_cfg, "quench": quench_cfg,
            "strong_scale_null_d0": lambda: set_field(strong_scale_cfg(), "profile.d0", None),
            "tab_profile": lambda: set_field(small_fidelity_cfg(), "profile", {
                "variant": "tabulated", "table": PROFILE_TABLE(tmp_path), "d0": None}),
            "tab_protocol": lambda: strong_scale_cfg({"variant": "tabulated",
                                                      "table": PROTOCOL_TABLE(tmp_path)})}[which]()
    cfg = set_field(base, field, bad(tmp_path) if callable(bad) else bad)
    match = BAD_FIELD_RULES.get(which, "") + re.escape(field)
    with pytest.raises(ConfigError, match=match):
        harness.validate_scenario_config(cfg)
    with pytest.raises(ConfigError, match=match):
        harness.run(cfg, tmp_path)


def drop_field(cfg, dotted):
    """Copy of cfg without the dotted field, where it is given."""
    cfg = copy.deepcopy(cfg)
    *parents, last = dotted.split(".")
    node = cfg
    for k in parents:
        node = node.get(k, {})
    node.pop(last, None)
    return cfg


def optional_keys(schema, where=""):
    """The dotted names of a schema's optional keys, those of its sections too."""
    for key, (check, _, _, required) in schema.items():
        if not required:
            yield where + key
        if isinstance(check, dict):
            yield from optional_keys(check, f"{where}{key}.")


# (config factory of tmp_path, schema, its check): the checked config of each command
NULL_BASES = {
    "fidelity": (lambda _: small_fidelity_cfg(), harness._SCENARIO,
                 harness.validate_scenario_config),
    "eth": (lambda _: small_eth_cfg(), harness._SCENARIO, harness.validate_scenario_config),
    "trotter": (lambda _: small_trotter_cfg(), harness._SCENARIO,
                harness.validate_scenario_config),
    "respond": (lambda _: respond_cfg(), harness._RESPOND,
                lambda c: harness._checked(harness._RESPOND, c)),
    "compare": (lambda tmp_path: compare_cfg(tmp_path), harness._COMPARE,
                lambda c: harness._checked(harness._COMPARE, c)),
}


@pytest.mark.parametrize("which,key", [(which, key) for which, (_, schema, _) in NULL_BASES.items()
                                       for key in optional_keys(schema)])
def test_null_is_the_absent_key(tmp_path, monkeypatch, which, key):
    # every optional key, read or not: a null index is "middle", a null prediction {}
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    base, _, check = NULL_BASES[which]

    def outcome(cfg):
        try:
            return check(cfg)
        except ConfigError as exc:  # the trotter base without its method rejects its step
            return f"ConfigError: {exc}"

    absent = outcome(drop_field(base(tmp_path), key))
    assert outcome(set_field(base(tmp_path), key, None)) == absent


def test_empty_default_prediction_fails_at_load(tmp_path, monkeypatch):
    # a null prediction.t_max means five periods here: 0.01, under half of dt = 0.025
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    cfg = small_fidelity_cfg(period=0.002)
    with pytest.raises(ConfigError, match=r"prediction\.t_max None .* horizon 0\.01,"):
        harness.validate_scenario_config(cfg)
    with pytest.raises(ConfigError, match=r"prediction\.t_max"):
        harness.run(cfg, tmp_path)


def text_file(name, text):
    """A value to set: the path of a file holding text, written into the test's tmp_path."""
    def write(tmp_path):
        (tmp_path / name).write_text(text, encoding="utf-8")
        return str(tmp_path / name)
    return write


def tabulated(base, table):
    """A config factory: base with its profile read from table, with a given d0."""
    return lambda tmp_path: set_field(base(), "profile", {
        "variant": "tabulated", "table": table(tmp_path), "d0": 128.0})


def compare_cfg(tmp_path):
    return {"file_a": text_file("a.csv", "t,x,x\n0,1,5\n1,2,6\n")(tmp_path), "column_a": "x",
            "file_b": text_file("b.csv", "t,x\n0,1\n1,2\n")(tmp_path), "column_b": "x"}


FINITE = r"profile\.table .*must be finite"
NAN_ENERGY = table_csv([0.0, 1.0, np.nan, 3.0], [1.0, 0.5, 0.25, 0.125], "nan.csv")
INF_ENERGY = table_csv([0.0, 1.0, 2.0, np.inf], [1.0, 0.5, 0.25, 0.125], "inf.csv")


def aliased_sweep(tmp_path):
    return {"sweep": {"base": small_fidelity_cfg(), "variations": [{"model.m": 1}]}}


# (command, config factory, (old, new) edit of its YAML text or None, what the error says):
# each error names the field (a YAML list, the config), and the table errors say what is
# wrong with the table
LOAD_FAILURES = [
    pytest.param(harness.run, lambda tmp_path: [small_fidelity_cfg()], None,
                 "^config must be a YAML mapping$", id="yaml-list"),
    # the alias repeats the anchored variation's node: not a key given twice, so the
    # variation's own check is what fails
    pytest.param(harness.run_sweep, aliased_sweep,
                 ("  - model.m: 1\n", "  - &v\n    model.m: 1\n  - *v\n"),
                 r"^model\.m must be a whole number >= 2, got 1$", id="yaml-alias"),
    pytest.param(harness.run, lambda tmp_path: small_fidelity_cfg(),
                 ("seed: 1\n", "seed: 1\nseed: 2\n"), r"'seed' is given twice",
                 id="yaml-key-twice"),
    pytest.param(harness.run, lambda tmp_path: small_fidelity_cfg(),
                 ("  m: 128\n", "  m: 128\n  m: 64\n"), r"'model\.m' is given twice",
                 id="yaml-nested-key-twice"),
    pytest.param(harness.compare_files, compare_cfg, None, r"file_a: .*'x' twice",
                 id="compare-header-twice"),
    pytest.param(harness.run, tabulated(small_fidelity_cfg, text_file("e.csv", "E,E\n0,1\n1,0\n")),
                 None, r"profile\.table .*'E' twice", id="profile-table-header-twice"),
    pytest.param(harness.run_respond, tabulated(respond_cfg, NAN_ENERGY), None, FINITE,
                 id="respond-nan-energy"),
    pytest.param(harness.run_respond, tabulated(respond_cfg, INF_ENERGY), None, FINITE,
                 id="respond-inf-energy"),
    pytest.param(harness.run, tabulated(small_fidelity_cfg, NAN_ENERGY), None, FINITE,
                 id="simulate-nan-energy"),
    pytest.param(harness.run, tabulated(small_fidelity_cfg, INF_ENERGY), None, FINITE,
                 id="simulate-inf-energy"),
]


@pytest.mark.parametrize("command,make_cfg,edit,match", LOAD_FAILURES)
def test_repeated_names_and_nonfinite_tables_fail_at_load(
        tmp_path, monkeypatch, command, make_cfg, edit, match):
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    monkeypatch.setattr(response, "gamma_rows", _must_not_run)
    text = harness.render_config(make_cfg(tmp_path))
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    path = tmp_path / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=match):
            command(harness.load_config(path), tmp_path / "out")


def test_load_checks_pass_fitting_configs():
    harness.validate_scenario_config(small_trotter_cfg())
    sinusoid = set_field(small_trotter_cfg(), "protocol.variant", "sinusoid")
    harness.validate_scenario_config(set_field(sinusoid, "model.trotter_step", 0.012))
    # the window [-16, 0] holds one level, E = 0
    harness.validate_scenario_config(set_field(small_eth_cfg(), "model.initial_state.e_center",
                                               -8.0))


@pytest.mark.parametrize("q_keys", [
    pytest.param({"q": "identity"}, id="identity"),
    pytest.param({"q": "one_plus_kappa_a", "kappa": 1.0}, id="one_plus_kappa_a"),
    pytest.param({"q": "one_plus_kappa_a", "kappa": 0.0}, id="kappa_0")])
def test_even_sector_filter_weight_checked_at_load(tmp_path, monkeypatch, q_keys):
    # a narrow filter on the odd level E_1 leaves the even levels no weight;
    # only Q = 1 + kappa A with kappa != 0 moves an even-sector state onto the odd levels
    cfg = small_eth_cfg()
    e = rmt.SpectrumSpec(m=64, **cfg["model"]["spectrum"]).energies()
    state = cfg["model"]["initial_state"]
    del state["kappa"]
    state.update(e_center=float(e[1]), delta_e=0.01, **q_keys)
    if q_keys.get("kappa"):
        harness.run(cfg, tmp_path)
        return
    with pytest.raises(EmptyWindowError):  # what the run would hit after sampling
        rmt.build_initial_state(e, "filtered_random", 1, e_center=float(e[1]), delta_e=0.01,
                                sector="even", observable=np.eye(64), **q_keys)
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    with pytest.raises(ConfigError, match=re.escape("model.initial_state.e_center")):
        harness.validate_scenario_config(cfg)


def tiny_filtered_cfg(m, spectrum, factor=None, **state):
    """small_eth_cfg at m levels of spectrum, with a filtered state of the given keys."""
    cfg = set_field(small_eth_cfg(m), "model.spectrum", spectrum)
    cfg["model"]["initial_state"] = {"kind": "filtered_random", **state}
    if factor is not None:
        cfg["window_halfwidth_factor"] = factor
    return cfg


@pytest.mark.parametrize("seed,cfg", [
    # the window [0.3, 0.58] holds the level E_1 = 0.3 on its edge
    pytest.param(1, tiny_filtered_cfg(16, {"variant": "flat", "spacing": 0.3}, e_center=0.44,
                                      delta_e=0.07), id="edge_level"),
    # the one weight above rmt.FILTER_CUT, 1.8e-12 on E_0, is a small share of the norm
    *[pytest.param(seed, tiny_filtered_cfg(16, {"variant": "flat", "spacing": 1.0}, 10.5,
                                           e_center=-10.4, delta_e=1.0), id=f"faint_{seed}")
      for seed in (1, 2, 3)],
])
def test_window_edge_configs_load_and_run(tmp_path, seed, cfg):
    cfg["seed"] = seed
    harness.validate_scenario_config(cfg)
    derived = harness.run(cfg, tmp_path)["metrics"]["derived"]
    assert derived["d0_window"] > 0 and np.isfinite(derived["a_th"])


SMALL_SPECTRA = st.one_of(
    st.builds(lambda s: {"variant": "flat", "spacing": s}, st.floats(0.05, 2.0)),
    st.builds(lambda a, s: {"variant": "cosine_modulated", "alpha": a, "mean_spacing": s},
              st.floats(0.0, 1.0), st.floats(0.05, 2.0)))


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([4, 8, 16]), spectrum=SMALL_SPECTRA, level=st.integers(0, 15),
       side=st.sampled_from([-1, 1]), offset=st.none() | st.floats(0.0, 12.0),
       delta_e=st.floats(0.01, 2.0), factor=st.floats(0.1, 12.0),
       sector=st.sampled_from([None, "all", "even"]),
       q=st.sampled_from([None, "identity", "one_plus_kappa_a"]),
       kappa=st.sampled_from([None, 0.0, 0.5]))
def test_a_config_that_loads_finds_its_window_after_sampling(
        tmp_path_factory, m, spectrum, level, side, offset, delta_e, factor, sector, q, kappa):
    # e_center lies offset delta_e from a level, or (offset None) puts the window's edge on it
    e = rmt.SpectrumSpec(m=m, **spectrum).energies()
    e_center = float(e[level % m] + side * (factor if offset is None else offset) * delta_e)
    state = {key: v for key, v in (("sector", sector), ("q", q), ("kappa", kappa))
             if v is not None}
    cfg = tiny_filtered_cfg(m, spectrum, factor, e_center=e_center, delta_e=delta_e, **state)
    try:
        harness.validate_scenario_config(cfg)
    except ConfigError:
        return
    # no EmptyWindowError after sampling, and a state that normalizes (a_bar0 reads |psi|^2)
    derived = harness.run(cfg, tmp_path_factory.mktemp("run"))["metrics"]["derived"]
    assert np.isfinite(derived["a_bar0"])


@pytest.mark.parametrize("state", [
    small_eth_cfg()["model"]["initial_state"],
    {"kind": "eigenstate", "index": "middle"},
])
def test_plan_profile_carries_the_measured_d0(tmp_path, monkeypatch, state):
    # a null d0 on a modulated spectrum is fixed at load, before any sampling, to the
    # window density the run reports
    cfg = set_field(small_eth_cfg(), "model.initial_state", state)
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    plan = harness._plan(cfg)
    monkeypatch.undo()
    harness.run(cfg, tmp_path)
    derived = json.loads((tmp_path / "metrics.json").read_text())["derived"]
    assert plan.profile.d0 == derived["d0_window"]


@pytest.mark.parametrize("run,cfg,key", [
    (harness.run, {**small_fidelity_cfg(), "out_dir": "results"}, "out_dir"),
    (harness.run_approx, {**{k: respond_cfg()[k] for k in ("profile", "protocol", "grid")},
                          "t_prime": 0.5}, "t_prime"),
])
def test_unread_keys_rejected(tmp_path, monkeypatch, run, cfg, key):
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    with pytest.raises(ConfigError, match=key):
        run(cfg, tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("field,bad", [
    ("t_primes", [-0.5]),
    ("t_primes", [float("nan")]),
    ("t_primes", ["x"]),
    ("t_primes", 0.3),
    ("t_primes", [True]),
    ("grid.n_out", 2.7),
    ("protocol.f0", "abc"),
    ("profile.delta_v", -1),
])
def test_respond_bad_field_fails_before_solving(tmp_path, monkeypatch, field, bad):
    monkeypatch.setattr(response, "gamma_rows", _must_not_run)
    monkeypatch.setattr(response, "solve_gamma", _must_not_run)
    with pytest.raises(ConfigError, match=re.escape(field)):
        harness.run_respond(set_field(respond_cfg(), field, bad), tmp_path)
    assert not (tmp_path / "respond_diagonal.csv").exists()


ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("configs/*.yaml")) + sorted(ROOT.glob("perfbench/workloads/*.yaml")),
    ids=lambda p: str(p.relative_to(ROOT)) if "perfbench" in p.parts else p.name)
def test_shipped_configs_validate(path):
    if "perfbench" not in path.parts:
        harness.validate_scenario_config(harness.load_config(path))
        return
    # a benchmark workload loads through the benchmark's own set-up path
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.load(harness, path.stem, 0)


def test_validate_returns_normalised_copy():
    cfg = small_fidelity_cfg()
    cfg["protocol"]["f0"] = "1e-2"  # YAML reads 1e-2 (no dot) as a string
    cfg["grid"]["n_out"] = 40.0
    raw = copy.deepcopy(cfg)
    c = harness.validate_scenario_config(cfg)
    assert cfg == raw  # the raw config (and so the sidecar echo) is untouched
    assert c["protocol"] == {"variant": "step", "f0": 0.01, "period": 0.5}
    assert c["grid"]["n_out"] == 40 and isinstance(c["grid"]["n_out"], int)
    assert c["prediction"] == {"t_max": None, "solver_step": None}
    assert c["window_halfwidth_factor"] == 2.0
    assert c["model"]["initial_state"]["index"] == 64  # "middle" of m = 128
    assert c["model"]["trotter_step"] is None
    # keys passed straight to a library call stay absent, so its default applies
    assert c["model"]["spectrum"] == {"variant": "flat", "spacing": 1.0 / 32}
    assert "period" not in harness.validate_scenario_config(
        set_field(cfg, "protocol", {"variant": "constant", "f0": 0.1}))["protocol"]


def test_filtered_random_state_defaults(tmp_path):
    cfg = small_eth_cfg()
    del cfg["model"]["initial_state"]["e_center"], cfg["model"]["initial_state"]["delta_e"]
    out = harness.run(cfg, tmp_path)
    # one default each (e_center 0, delta_e 1) feeds both the state and the window
    assert out["metrics"]["derived"]["window"] == (-2.0, 2.0)
    cfg["model"]["initial_state"].update(e_center=0.0, delta_e=1.0)
    harness.run(cfg, tmp_path / "explicit")
    for name in ("simulation.csv", "joined.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()


def test_null_prediction_grid_means_default(tmp_path, monkeypatch):
    cfg = small_fidelity_cfg(m=64, t_max=0.5, n_out=20)
    cfg["prediction"] = {"t_max": None, "solver_step": None}
    solves = []
    rows = response.gamma_rows
    monkeypatch.setattr(response, "gamma_rows",
                        lambda *a: solves.append((a[2], int(a[4][-1]), len(a[4]))) or rows(*a))
    harness.run(cfg, tmp_path)
    (h, n, n_rows), = solves
    n_pred = len(harness.read_csv(tmp_path / "prediction.csv")["t"]) - 1
    substeps = n // n_pred
    assert n_pred == 20 and substeps >= 1 and n == n_pred * substeps
    assert h * substeps == pytest.approx(0.025)
    assert n_rows == n_pred + 1  # only the output rows are solved


@pytest.mark.parametrize("run,cfg,rows", [
    pytest.param(harness.run_respond, set_field(respond_cfg(), "t_primes", None), 51,
                 id="respond"),
    pytest.param(harness.run_respond, set_field(respond_cfg(), "t_primes", [0.0, 0.25, 0.6]),
                 54, id="respond_3_tprimes"),
    pytest.param(harness.run, small_fidelity_cfg(m=64, t_max=0.5, n_out=20), 21, id="fidelity"),
    pytest.param(harness.run, small_eth_cfg(), 11, id="double_pretherm"),
])
def test_each_command_makes_one_kernel_call(tmp_path, monkeypatch, run, cfg, rows):
    # the output rows of the diagonal and every fixed-t' curve are one gamma_rows call
    calls, gamma_rows = [], response.gamma_rows
    monkeypatch.setattr(response, "gamma_rows",
                        lambda *a: calls.append(len(a[4])) or gamma_rows(*a))
    monkeypatch.setattr(response, "solve_gamma", lambda *a: pytest.fail("solve_gamma called"))
    run(cfg, tmp_path)
    assert calls == [rows]


@settings(max_examples=20, deadline=None)
@given(
    variant=st.sampled_from(["constant", "step", "sinusoid", "linear_ramp", "pseudorandom_b"]),
    f0=st.floats(0.0, 0.08),
    period=st.floats(0.2, 2.0),
    dt=st.floats(0.01, 0.05),
    n_out=st.integers(1, 30),
    substeps=st.integers(1, 6),
    t_primes=st.lists(st.floats(0.0, 3.0), max_size=3),
)
def test_output_rows_are_bitwise_the_strided_diagonal(variant, f0, period, dt, n_out, substeps,
                                                      t_primes):
    # only the output rows are solved, and each equals its row of the whole diagonal;
    # the fixed-t' rows of the same call equal their own one-row solves
    profile = profiles.PerturbationProfile(variant="exponential", v0=1.0, delta_v=0.5, d0=512.0)
    proto = protocols.DrivingProtocol(variant=variant, f0=f0, period=period)
    t_out = dt * np.arange(n_out + 1)
    h = dt / substeps
    diag, curves = harness._gamma_on_grid(profile, proto, (substeps, h), t_out, t_primes)
    full = response.gamma_diagonal_values(profile, proto, h, n_out * substeps)
    assert np.array_equal(diag, full[::substeps])
    assert len(curves) == len(t_primes)
    for tp, curve in zip(t_primes, curves):
        row = response.solve_gamma(profile, proto, tp, h, n_out * substeps).gamma[::substeps]
        assert np.array_equal(curve, row)


def test_tables_are_read_once_per_run(tmp_path, monkeypatch):
    reads, plans = Counter(), []
    loadtxt, plan = np.loadtxt, harness._plan

    def counted_loadtxt(path, *args, **kwargs):
        reads[Path(path).name] += 1
        return loadtxt(path, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
    monkeypatch.setattr(harness, "_plan", lambda cfg: plans.append(cfg) or plan(cfg))
    # a flat-spectrum trotter run whose protocol and profile are both tables
    cfg = small_fidelity_cfg(m=64, t_max=0.5, n_out=20)
    cfg["protocol"] = {"variant": "tabulated", "table": PROTOCOL_TABLE(tmp_path)}
    cfg["profile"] = {"variant": "tabulated", "table": PROFILE_TABLE(tmp_path), "d0": None}
    cfg["model"].update(method="trotter", trotter_step=0.01)
    harness.run(cfg, tmp_path / "flat")
    assert reads == {"protocol.csv": 1, "profile.csv": 1}
    reads.clear()
    # a modulated spectrum measures the null d0 in the model
    harness.run(set_field(small_eth_cfg(), "profile", cfg["profile"]), tmp_path / "modulated")
    assert reads == {"profile.csv": 1}
    reads.clear()
    plans.clear()
    harness.run_sweep({"sweep": {"base": cfg, "variations": [{"seed": 2}, {"seed": 3}]}},
                      tmp_path / "sweep")
    assert reads == {"protocol.csv": 3, "profile.csv": 3}  # the base, then each variation
    assert [c.get("seed") for c in plans] == [1, 2, 3]


def test_null_d0_run_equals_run_with_measured_d0(tmp_path):
    cfg = set_field(small_eth_cfg(m=128), "profile",
                    {"variant": "tabulated", "table": PROFILE_TABLE(tmp_path), "d0": None})
    harness.run(cfg, tmp_path / "null")
    d0 = json.loads((tmp_path / "null" / "metrics.json").read_text())["derived"]["d0_window"]
    harness.run(set_field(cfg, "profile.d0", d0), tmp_path / "measured")
    for name in ("simulation.csv", "prediction.csv", "approximations.csv", "joined.csv",
                 "metrics.json"):
        assert (tmp_path / "null" / name).read_bytes() == \
            (tmp_path / "measured" / name).read_bytes(), name


def test_tabulated_inputs_from_csv(tmp_path):
    table = tmp_path / "protocol.csv"
    t = np.linspace(0, 2, 21)
    harness.write_csv(table, {"t": t, "f": 0.1 * np.sin(t)})
    proto = harness.build_protocol({"variant": "tabulated", "table": str(table)})
    assert proto.variant == "tabulated"
    assert proto.timescale() == pytest.approx(0.1)

    ptab = tmp_path / "profile.csv"
    e = np.linspace(0, 5, 51)
    harness.write_csv(ptab, {"e": e, "v": np.exp(-e)})
    prof = harness.build_profile({"variant": "tabulated", "table": str(ptab), "d0": 64.0})
    assert prof.v0 == 1.0


# --- CSV IO ---------------------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    cols = {"t": np.linspace(0, 1, 17), "x": rng.standard_normal(17) * 1e-7}
    path = harness.write_csv(tmp_path / "data.csv", cols)
    back = harness.read_csv(path)
    assert list(back) == ["t", "x"]
    assert np.array_equal(back["t"], cols["t"])
    assert np.array_equal(back["x"], cols["x"])


def test_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(GridMismatchError):
        harness.write_csv(tmp_path / "bad.csv", {"a": np.ones(3), "b": np.ones(4)})


def write_csv_by_rows(path, columns):
    """A CSV written row by row with format(x, '.17g') (the writer np.savetxt replaced)."""
    arrays = [np.asarray(c, dtype=float) for c in columns.values()]
    lines = [",".join(columns)]
    lines += [",".join(format(a[i], ".17g") for a in arrays) for i in range(len(arrays[0]))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("rows", [None, 0, 1])
def test_csv_bytes_match_row_writer(tmp_path, rows):
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, -1e300, 1 / 3, 0.1, 123456789.0, -2.5e-17])
    cols = {"t": np.arange(special.size, dtype=float), "x": special, "y": special[::-1]}
    if rows is not None:
        cols = {k: v[:rows] for k, v in cols.items()}
    harness.write_csv(tmp_path / "new.csv", cols)
    write_csv_by_rows(tmp_path / "ref.csv", cols)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# --- metrics ---------------------------------------------------------------------


def test_compare_identical_and_offset():
    t = np.linspace(0, 1, 101)
    a = np.sin(t)
    m = harness.compare(t, a, a, (0.0, 1.0))
    assert m == {"rms": 0.0, "max_abs": 0.0, "window": [0.0, 1.0]}
    m = harness.compare(t, a, a + 0.25, (0.0, 1.0))
    assert m["rms"] == pytest.approx(0.25, rel=1e-12, abs=0.0)
    assert m["max_abs"] == pytest.approx(0.25, rel=1e-12, abs=0.0)
    assert m["rms"] <= m["max_abs"]


def test_compare_sine_rms():
    # whole periods sampled without the duplicated endpoint: rms = A / sqrt(2)
    n, periods, amp = 4000, 4, 0.7
    t = np.arange(n) * (periods / n)
    a = amp * np.sin(2 * np.pi * t)
    m = harness.compare(t, a, np.zeros(n), (t[0], t[-1]))
    assert m["rms"] == pytest.approx(amp / np.sqrt(2), abs=1e-6)


def test_compare_window_validation():
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        harness.compare(t, t, t, (0.5, 2.0))
    with pytest.raises(GridMismatchError):
        harness.compare(t, t, t[:5], (0.0, 1.0))
    with pytest.raises(ValueError, match=re.escape("window [0.05, 0.08] holds no grid point")):
        harness.compare(t, t, t, (0.05, 0.08))


# --- scenario runs ----------------------------------------------------------------


def test_fidelity_run_zero_amplitude(tmp_path):
    cfg = small_fidelity_cfg(f0=0.0)
    out = harness.run(cfg, tmp_path)
    assert out["metrics"]["rms_full"]["rms"] < 1e-10
    sim = harness.read_csv(tmp_path / "simulation.csv")
    assert np.allclose(sim["a_driven"], 1.0, atol=1e-12)
    assert np.allclose(sim["norm"], 1.0, atol=1e-12)


def test_fidelity_run_artifacts(tmp_path):
    cfg = small_fidelity_cfg()
    out = harness.run(cfg, tmp_path)
    for name in ("simulation.csv", "prediction.csv", "approximations.csv",
                 "joined.csv", "metrics.json"):
        assert (tmp_path / name).exists()
        if name.endswith(".csv"):
            assert (tmp_path / (name + ".meta.json")).exists()
    meta = json.loads((tmp_path / "simulation.csv.meta.json").read_text())
    assert meta["config"] == cfg
    assert meta["rng"] == "PCG64"
    assert "derived" in meta and "versions" in meta
    joined = harness.read_csv(tmp_path / "joined.csv")
    assert joined["gamma_sq"][0] == 1.0
    assert out["metrics"]["rms_early"]["rms"] < 0.2
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    for key, end in (("rms_early", 2 * cfg["protocol"]["period"]), ("rms_full", 1.0)):
        assert set(metrics[key]) == {"rms", "max_abs", "window"}
        assert metrics[key]["window"] == [0.0, end]
        assert metrics[key]["rms"] <= metrics[key]["max_abs"]


@pytest.mark.parametrize("make_cfg,method", [
    (small_fidelity_cfg, {"name": "piecewise_exact", "step": None}),
    # dt = 1/30 split into the fewest steps <= trotter_step 0.01: four of 1/120
    (small_trotter_cfg, {"name": "trotter", "step": pytest.approx(1 / 120, rel=1e-12, abs=0.0)}),
], ids=["piecewise_exact", "trotter"])
def test_sidecar_records_method_and_step(tmp_path, make_cfg, method):
    harness.run(make_cfg(), tmp_path)
    for name in ("simulation.csv", "prediction.csv", "approximations.csv", "joined.csv"):
        meta = json.loads((tmp_path / (name + ".meta.json")).read_text())
        assert meta["method"] == method


def test_fidelity_determinism(tmp_path):
    cfg = small_fidelity_cfg()
    harness.run(cfg, tmp_path / "a")
    harness.run(cfg, tmp_path / "b")
    for name in ("simulation.csv", "prediction.csv", "joined.csv", "approximations.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_strong_scale_run(tmp_path):
    cfg = {
        "scenario": "strong_scale",
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": 512.0},
        "protocol": {"variant": "step", "f0": 0.04, "period": 0.5},
        "grid": {"t_max": 5.0, "n_out": 500},
    }
    out = harness.run(cfg, tmp_path)
    data = harness.read_csv(tmp_path / "strong_scale.csv")
    assert out["metrics"]["sigma0"] == 1.0
    assert out["metrics"]["r_max_first_period"] > 2 * out["metrics"]["r_max_later"]
    assert np.all(data["r"] >= 0)
    assert 0.01 <= out["metrics"]["crossover_amplitude"] <= 0.02


def test_strong_scale_without_output_in_first_period(tmp_path):
    # outputs every 1.25 with T = 0.5: none falls in (0, T], so the per-period
    # maxima are left out, as when the grid ends before T
    cfg = strong_scale_cfg({"variant": "step", "f0": 0.04, "period": 0.5})
    cfg["grid"] = {"t_max": 5.0, "n_out": 4}
    out = harness.run(cfg, tmp_path)
    assert len(harness.read_csv(tmp_path / "strong_scale.csv")["r"]) == 5
    assert "r_max_first_period" not in out["metrics"]
    assert "r_max_later" not in out["metrics"]
    cfg["grid"] = {"t_max": 0.4, "n_out": 4}
    assert "r_max_later" not in harness.run(cfg, tmp_path / "short")["metrics"]


@pytest.mark.parametrize("run, cfg", [
    (harness.run_approx, {k: strong_scale_cfg()[k] for k in ("profile", "protocol", "grid")}),
    (harness.run, strong_scale_cfg()),
], ids=["approx", "strong_scale"])
def test_phi_evaluated_once_per_grid(tmp_path, monkeypatch, run, cfg):
    # every closed form takes phi, so the columns of one grid share one evaluation
    calls = []
    phi_arrays = protocols.phi_arrays
    monkeypatch.setattr(protocols, "phi_arrays", lambda *a: calls.append(a) or phi_arrays(*a))
    run(cfg, tmp_path)
    assert len(calls) == 1


def test_quench_asymptotics_run(tmp_path):
    cfg = {
        "scenario": "quench_asymptotics",
        "protocol": {"variant": "linear_ramp", "f0": 0.2, "period": 0.1},
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": 512.0},
        "grid": {"t_max": 5.0, "n_out": 100},
    }
    out = harness.run(cfg, tmp_path)
    m = out["metrics"]
    assert m["phi1_late"] == pytest.approx(m["phi1_limit"], rel=2e-2, abs=0.0)
    assert m["phi2_late"] == pytest.approx(m["phi2_limit"], rel=3e-2, abs=0.0)
    cfg["protocol"]["variant"] = "step"
    with pytest.raises(ConfigError):
        harness.run(cfg, tmp_path)


def test_compare_files_subcommand(tmp_path):
    t = np.linspace(0, 1, 21)
    harness.write_csv(tmp_path / "a.csv", {"t": t, "x": np.sin(t)})
    harness.write_csv(tmp_path / "b.csv", {"t": t, "y": np.sin(t) + 0.1})
    cfg = {
        "file_a": str(tmp_path / "a.csv"),
        "column_a": "x",
        "file_b": str(tmp_path / "b.csv"),
        "column_b": "y",
        "window": [0.0, 1.0],
    }
    out = harness.compare_files(cfg, tmp_path)
    assert out["metrics"]["rms"] == pytest.approx(0.1, rel=1e-9, abs=0.0)
    harness.write_csv(tmp_path / "c.csv", {"t": t + 1.0, "y": np.sin(t)})
    cfg["file_b"] = str(tmp_path / "c.csv")
    with pytest.raises(GridMismatchError):
        harness.compare_files(cfg, tmp_path)


def test_compare_files_missing_column_names_it(tmp_path):
    t = np.linspace(0, 1, 21)
    harness.write_csv(tmp_path / "a.csv", {"t": t, "x": np.sin(t)})
    cfg = {"file_a": str(tmp_path / "a.csv"), "column_a": "nope",
           "file_b": str(tmp_path / "a.csv"), "column_b": "x"}
    with pytest.raises(GridMismatchError, match=r"a\.csv has no column 'nope'"):
        harness.compare_files(cfg, tmp_path)


@pytest.mark.parametrize("field,bad", [
    ("window", [0.5]),
    ("window", 0.5),
    ("window", [0.0, "end"]),
    ("file_a", "missing.csv"),
    ("column_b", 3),
    ("window", [0.8, 0.2]),  # out of order
    ("window", [0, 5]),  # reaches past the grid's end, 1
    ("window", [0.51, 0.52]),  # between grid points 0.5 and 0.55
])
def test_compare_files_bad_field(tmp_path, field, bad):
    t = np.linspace(0, 1, 21)
    harness.write_csv(tmp_path / "a.csv", {"t": t, "x": np.sin(t)})
    cfg = {"file_a": str(tmp_path / "a.csv"), "column_a": "x",
           "file_b": str(tmp_path / "a.csv"), "column_b": "x", field: bad}
    with pytest.raises(ConfigError, match=field):
        harness.compare_files(cfg, tmp_path)


BAD_CSVS = {"header_wider": "t,x,y\n0,1\n1,2\n", "header_only": "t,x\n",
            "comments_only": "t,x\n# 0,1\n\n", "ragged": "t,x\n0,1\n1,2,3\n"}
TABLES = ["profile.table", "protocol.table"]


# every bad shape wherever a CSV is read, and a well-formed table of three columns
@pytest.mark.parametrize("where,text", [
    *(pytest.param(where, text, id=f"{where}-{name}") for where in
      ["read_csv", "file_a", "file_b", *TABLES] for name, text in BAD_CSVS.items()),
    *(pytest.param(where, "E,x,y\n0,1,2\n1,2,3\n", id=f"{where}-three_columns")
      for where in TABLES),
])
def test_bad_csv_shape_is_an_error_naming_the_file(tmp_path, text, where):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    good = str(harness.write_csv(tmp_path / "good.csv", {"t": [0.0, 1.0], "x": [1.0, 2.0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" fails the test
        if where == "read_csv":
            with pytest.raises(ValueError, match=r"bad\.csv"):
                harness.read_csv(bad)
        elif where.startswith("file_"):
            cfg = {"file_a": good, "column_a": "x", "file_b": good, "column_b": "x",
                   where: str(bad)}
            with pytest.raises(ConfigError, match=rf"{where}: .*bad\.csv"):
                harness.compare_files(cfg, tmp_path)
        elif where == "profile.table":
            with pytest.raises(ConfigError, match=r"profile\.table .*bad\.csv"):
                harness.build_profile({"variant": "tabulated", "table": str(bad), "d0": 1.0})
        else:
            with pytest.raises(ConfigError, match=r"protocol\.table .*bad\.csv"):
                harness.build_protocol({"variant": "tabulated", "table": str(bad)})


def test_sweep(tmp_path):
    base = small_fidelity_cfg(m=64, t_max=0.5, n_out=20)
    cfg = {"sweep": {"base": base, "variations": [
        {"protocol.f0": 0.04},
        {"protocol.f0": 0.12, "seed": 3},
    ]}}
    out = harness.run_sweep(cfg, tmp_path)
    assert out["variations"] == 2
    assert (tmp_path / "var_000" / "simulation.csv").exists()
    assert (tmp_path / "var_001" / "simulation.csv").exists()
    meta0 = json.loads((tmp_path / "var_000" / "simulation.csv.meta.json").read_text())
    assert meta0["config"]["protocol"]["f0"] == 0.04
    cfg["sweep"]["variations"] = [{"protocol.nope": 1}]
    with pytest.raises(ConfigError):
        harness.run_sweep(cfg, tmp_path)


def test_sweep_checks_every_variation_first(tmp_path, monkeypatch):
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    base = small_fidelity_cfg(m=64, t_max=0.5, n_out=20)
    cfg = {"sweep": {"base": base, "variations": [{"protocol.f0": 0.04}, {"grid.n_out": 2.5}]}}
    with pytest.raises(ConfigError, match=r"grid\.n_out"):
        harness.run_sweep(cfg, tmp_path)
    for bad in ({}, {"sweep": {"base": base}}, {"sweep": {"base": base, "variations": [1]}}):
        with pytest.raises(ConfigError):
            harness.run_sweep(bad, tmp_path)


@pytest.mark.parametrize("variation", [{1: 2}, {"grid.n_out": 5, 3: 1}],
                         ids=["int_key", "int_and_str_keys"])
def test_sweep_variation_keys_are_dotted_path_strings(tmp_path, variation):
    # YAML reads a bare 1: as an integer key, which no override path can be
    base = harness.load_config(ROOT / "configs" / "strong_scale.yaml")
    cfg = {"sweep": {"base": base, "variations": [variation]}}
    with pytest.raises(ConfigError, match=r"sweep\.variations .* dotted-path strings"):
        harness.run_sweep(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_sweep_checks_cross_field_rules_first(tmp_path):
    # the second variation breaks a rule of the scenario, not of the schema
    cfg = {"sweep": {"base": quench_cfg(),
                     "variations": [{"protocol.f0": 0.1}, {"protocol.variant": "step"}]}}
    with pytest.raises(ConfigError, match=r"protocol\.variant"):
        harness.run_sweep(cfg, tmp_path)
    assert not (tmp_path / "var_000").exists()


# --- package --------------------------------------------------------------------


def test_package_exposes_submodules_and_version():
    import typresp

    for name in ("approximations", "errors", "harness", "profiles", "protocols", "response",
                 "rmt"):
        assert inspect.ismodule(getattr(typresp, name))
    assert typresp.__version__ == harness.__version__ == "0.1.0"
    assert not hasattr(typresp, "solve_gamma")  # each function has one name, in its module


# --- CLI -------------------------------------------------------------------------


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(harness.render_config(cfg), encoding="utf-8")
    return path


def test_cli_simulate_and_summary(tmp_path, capsys):
    path = write_cfg(tmp_path, small_fidelity_cfg(m=64, t_max=0.5, n_out=20))
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(captured[-1])
    assert rc == 0
    assert summary["status"] == "ok" and summary["command"] == "simulate"
    assert (tmp_path / "out" / "joined.csv").exists()


@pytest.mark.parametrize("command,cfg,rc,stderr", [
    pytest.param("simulate", small_fidelity_cfg(m=64, t_max=0.5, n_out=20), 0, "", id="simulate"),
    pytest.param("simulate", {"scenario": "unknown"}, 1, "", id="error"),
    # h = 0.1 is too coarse for this drive: the rows reach |gamma| ~ 8, under the blow-up
    pytest.param("respond", {
        "profile": {"variant": "exponential", "v0": 5.0, "delta_v": 0.5, "d0": 512.0},
        "protocol": {"variant": "step", "f0": 0.3, "period": 3.0},
        "grid": {"t_max": 6.0, "n_out": 6}, "solver_step": 0.1},
        0, "overshoots", id="respond_overshoot"),
])
def test_cli_stdout_is_one_json_line(tmp_path, command, cfg, rc, stderr):
    # a process reading the summary gets one JSON object; warnings go to stderr
    path = write_cfg(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "typresp.cli", command, "--config", str(path), "--out",
         str(tmp_path / "out")], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == rc
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
    assert (stderr in proc.stderr) if stderr else proc.stderr == ""


def test_cli_seed_override(tmp_path, capsys):
    path = write_cfg(tmp_path, small_fidelity_cfg(m=64, t_max=0.5, n_out=20))
    cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "s7"), "--seed", "7"])
    capsys.readouterr()
    meta = json.loads((tmp_path / "s7" / "simulation.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 7


def test_cli_error_record(tmp_path, capsys):
    path = write_cfg(tmp_path, {"scenario": "unknown"})
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert record["status"] == "error"
    assert record["error"] == "ConfigError"


def cli_error(tmp_path, capsys, command, cfg, out):
    """The error name of a failed CLI run of cfg with --out tmp_path / out."""
    path = write_cfg(tmp_path, cfg)
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / out)])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and record["status"] == "error"
    return record["error"]


def test_cli_solver_blow_up_fails_before_sampling(tmp_path, monkeypatch, capsys):
    # a solver step of dt = 1 is far too coarse for f0 = 2: the solve blows up, and V is never drawn
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    cfg = set_field(small_fidelity_cfg(f0=2.0, period=2.0, m=64, t_max=4.0, n_out=4),
                    "prediction.solver_step", 1.0)
    assert cli_error(tmp_path, capsys, "simulate", cfg, "out") == "SolverBlowUpError"


# f0^2 overflows to inf, so default_step's step for a null solver_step is 0.0
F0_OVERFLOWS = [
    pytest.param("simulate", set_field(small_fidelity_cfg(m=64), "protocol.f0", 1e160),
                 "prediction.", id="step"),
    pytest.param("simulate", set_field(small_fidelity_cfg(m=64), "protocol",
                                       {"variant": "constant", "f0": 1e160}),
                 "prediction.", id="constant"),
    pytest.param("simulate", set_field(set_field(small_trotter_cfg(), "model.m", 64), "protocol",
                                       {"variant": "sinusoid", "f0": 1e160, "period": 0.5}),
                 "prediction.", id="sinusoid_trotter"),
    pytest.param("respond", set_field(respond_cfg(), "protocol.f0", 1e160), "", id="respond"),
]


# numpy warns of the overflow in np.square (a RuntimeWarning on stderr outside the suite, where
# filterwarnings makes it an error); the ConfigError that follows is what this test checks
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("command,cfg,where", F0_OVERFLOWS)
def test_cli_overflowing_drive_fails_at_load(tmp_path, monkeypatch, capsys, command, cfg, where):
    # a derived step passes the solver_step check as a given one does, before the directory
    gamma_rows = response.gamma_rows
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    monkeypatch.setattr(response, "gamma_rows", _must_not_run)
    path = write_cfg(tmp_path, cfg)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == "ConfigError"
    assert record["message"] == (f"{where}solver_step must be a finite number > 0, "
                                 "got default_step's 0.0")
    assert not (tmp_path / "out").exists()
    # a given step is not judged against the drive: its solve blows up, still before sampling
    monkeypatch.setattr(response, "gamma_rows", gamma_rows)
    given = set_field(cfg, where + "solver_step", 0.01)
    assert cli_error(tmp_path, capsys, command, given, "given") == "SolverBlowUpError"


# given and derived solver steps too fine for the arrays they size, split steps past the
# 2**52 whose midpoint times are exact (1e-310: too fine to count), split steps longer than
# the step drive's pieces, and step drives with pieces too many to count (period 1e-310)
def too_fine_trotter(protocol, step):
    return set_field(set_field(set_field(small_trotter_cfg(), "model.m", 64), "protocol", protocol),
                     "model.trotter_step", step)


def fast_step_trotter(period):
    cfg = too_fine_trotter({"variant": "step", "f0": 0.08, "period": period}, 0.01)
    return set_field(set_field(cfg, "grid", {"t_max": 160.0, "n_out": 1600}), "prediction.t_max",
                     1.0)


SINUSOID = {"variant": "sinusoid", "f0": 0.08, "period": 0.5}
MEMORY, MIDPOINTS, DIVIDE = "physical memory", "past 2**52 steps", "must divide"
COUNT = "pieces to t = 160 are too many to count"
TOO_FINE = [
    pytest.param("simulate", set_field(small_fidelity_cfg(m=64), "prediction.solver_step", 1e-300),
                 "prediction.solver_step", MEMORY, id="solver_step"),
    pytest.param("simulate", set_field(small_fidelity_cfg(m=64), "prediction.solver_step", 1e-310),
                 "prediction.solver_step", MEMORY, id="solver_step_inf"),
    pytest.param("simulate", set_field(small_fidelity_cfg(m=64), "protocol.f0", 1e100),
                 "prediction.solver_step", MEMORY, id="default_step"),
    pytest.param("respond", set_field(respond_cfg(), "solver_step", 1e-300), "solver_step",
                 MEMORY, id="respond"),
    pytest.param("respond", set_field(respond_cfg(), "solver_step", 1e-310), "solver_step",
                 MEMORY, id="respond_inf"),
    pytest.param("simulate", too_fine_trotter(SINUSOID, 1e-300), "model.trotter_step",
                 MIDPOINTS, id="trotter_sinusoid"),
    pytest.param("simulate", too_fine_trotter(small_fidelity_cfg()["protocol"], 1e-300),
                 "model.trotter_step", MIDPOINTS, id="trotter_step"),
    pytest.param("simulate", too_fine_trotter(SINUSOID, 1e-310), "model.trotter_step",
                 MIDPOINTS, id="trotter_inf"),
    pytest.param("simulate", fast_step_trotter(1e-7), "model.trotter_step", DIVIDE,
                 id="trotter_longer_than_a_piece"),
    pytest.param("simulate", fast_step_trotter(1e-310), "model.trotter_step", COUNT,
                 id="trotter_pieces_inf"),
    pytest.param("simulate", set_field(set_field(fast_step_trotter(1e-310), "model.method",
                                                 "piecewise_exact"), "model.trotter_step", None),
                 "protocol.period", COUNT, id="piecewise_pieces_inf"),
]


@pytest.mark.parametrize("command,cfg,key,rule", TOO_FINE)
def test_cli_too_fine_step_fails_at_load(tmp_path, monkeypatch, capsys, command, cfg, key, rule):
    # a step is checked at load: a solver step whose count overflows or whose arrays would not
    # fit in memory, a split step with more steps than exact midpoint times or longer than a
    # piece of the drive, or a drive with pieces past counting, is a ConfigError naming its
    # key, before the directory, a sample or a solve
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    monkeypatch.setattr(response, "gamma_rows", _must_not_run)
    path = write_cfg(tmp_path, cfg)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(key + " ") and rule in record["message"]
    assert not (tmp_path / "out").exists()


def test_grid_beyond_memory_fails_at_load(tmp_path, monkeypatch):
    # the benchmark's pretherm workload, on a host with one byte less than its solver's g and c
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    cfg = harness.load_config(ROOT / "perfbench" / "workloads" / "pretherm.yaml")
    plan = harness._plan(cfg)
    substeps, n_pred = plan.solver[0], plan.n_pred
    need = 16 * (n_pred + 1) * (substeps * n_pred + 1)  # rows x (n + 1), as _volterra_heun says
    monkeypatch.setattr(harness, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match=r"^prediction\.solver_step .* physical memory"):
        harness.run(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    monkeypatch.setattr(harness, "_physical_memory", lambda: need)
    assert harness._plan(cfg).solver == plan.solver  # exactly the memory: it loads


def test_split_step_past_exact_midpoints_fails_at_load(tmp_path, monkeypatch):
    # one output step of 1 split into 2**52 steps: each midpoint index k + 1/2 is an exact
    # float; one step more is refused at load, naming the key, with no directory
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    monkeypatch.setattr(response, "gamma_rows", _must_not_run)
    cfg = set_field(set_field(too_fine_trotter(SINUSOID, 2.0**-52), "grid.t_max", 1.0),
                    "grid.n_out", 1)
    assert harness._plan(cfg).split == (2**52, 2.0**-52)
    cfg = set_field(cfg, "model.trotter_step", 1.0 / (2**52 + 1))
    with pytest.raises(ConfigError, match=r"^model\.trotter_step .*: 4\.5e\+15 split steps to "
                                          r"t = 1: past 2\*\*52 steps"):
        harness.run(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# the output grid's times and their arange, 16 (n_out + 1) bytes, are sized at load
GRID_MEMORY = [
    pytest.param(harness.run, small_fidelity_cfg(m=64), "prediction.solver_step", id="simulate"),
    pytest.param(harness.run_respond, respond_cfg(), "solver_step", id="respond"),
    pytest.param(harness.run_approx, drop_field(strong_scale_cfg(), "scenario"), None,
                 id="approx"),
]


@pytest.mark.parametrize("command,cfg,next_key", GRID_MEMORY)
def test_output_grid_beyond_memory_fails_at_load(tmp_path, monkeypatch, command, cfg, next_key):
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    monkeypatch.setattr(response, "gamma_rows", _must_not_run)
    need = 16 * (cfg["grid"]["n_out"] + 1)
    monkeypatch.setattr(harness, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match=r"^grid\.n_out \d+: .* physical memory"):
        command(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    # exactly the memory: the grid passes, and a solver's larger g and c fail next
    monkeypatch.setattr(harness, "_physical_memory", lambda: need)
    if next_key is None:
        command(cfg, tmp_path / "out")
    else:
        with pytest.raises(ConfigError, match=rf"^{re.escape(next_key)} .* physical memory"):
            command(cfg, tmp_path / "out")


@pytest.mark.parametrize("run,cfg,after", [
    pytest.param(harness.run, small_fidelity_cfg(m=64, t_max=0.5, n_out=20), "_plan",
                 id="simulate"),
    pytest.param(harness.run, set_field(small_trotter_cfg(), "model.m", 64), "_plan",
                 id="simulate_trotter"),
    pytest.param(harness.run_respond, respond_cfg(), "_solver_grid", id="respond"),
])
def test_run_derives_no_step_after_load(tmp_path, monkeypatch, run, cfg, after):
    # each step grid is fixed once, at load; the run takes the plan's grids and derives no step.
    # rmt's propagate subdivides on its own, so only the harness's protocols is swapped
    calls, default_step, load = [], response.default_step, getattr(harness, after)
    monkeypatch.setattr(response, "default_step", lambda *a: calls.append(a) or default_step(*a))
    no_subdivide = types.SimpleNamespace(**{**vars(protocols), "subdivide": _must_not_run})

    def loaded(*args):
        out = load(*args)
        monkeypatch.setattr(response, "default_step", _must_not_run)
        monkeypatch.setattr(harness, "protocols", no_subdivide)
        return out

    monkeypatch.setattr(harness, after, loaded)
    run(cfg, tmp_path)  # completes: nothing after the load derives a step
    assert len(calls) == 1


@pytest.mark.parametrize("out,error", [("file", "FileExistsError"),
                                       ("file/sub", "NotADirectoryError")])
@pytest.mark.parametrize("command", ["simulate", "respond"])
def test_cli_bad_out_fails_before_sampling_or_solving(tmp_path, monkeypatch, capsys, command,
                                                      out, error):
    monkeypatch.setattr(rmt, "sample_v", _must_not_run)
    monkeypatch.setattr(response, "gamma_rows", _must_not_run)
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    cfg = small_fidelity_cfg(m=64, t_max=0.5, n_out=20) if command == "simulate" else respond_cfg()
    assert cli_error(tmp_path, capsys, command, cfg, out) == error


def test_cli_sweep_seed_without_sweep_section(tmp_path, capsys):
    path = write_cfg(tmp_path, small_fidelity_cfg(m=64, t_max=0.5, n_out=20))
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "3"])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert record["error"] == "ConfigError" and "sweep" in record["message"]


def test_cli_sweep_seed_override(tmp_path, capsys):
    base = small_fidelity_cfg(m=64, t_max=0.5, n_out=20)
    del base["seed"]
    path = write_cfg(tmp_path, {"sweep": {"base": base, "variations": [{"protocol.f0": 0.04}]}})
    rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "5"])
    capsys.readouterr()
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "var_000" / "simulation.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 5


@pytest.mark.parametrize("command", ["respond", "approx", "compare"])
def test_cli_seed_only_where_read(tmp_path, command):
    path = write_cfg(tmp_path, respond_cfg())
    with pytest.raises(SystemExit) as exc:  # argparse rejects it as any unknown flag
        cli.main([command, "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "7"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_cli_respond_and_approx(tmp_path, capsys):
    cfg = {
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": 128.0},
        "protocol": {"variant": "step", "f0": 0.08, "period": 0.5},
        "grid": {"t_max": 1.0, "n_out": 50},
        "t_primes": [0.25, 0.6],
    }
    path = write_cfg(tmp_path, cfg)
    rc = cli.main(["respond", "--config", str(path), "--out", str(tmp_path / "r")])
    assert rc == 0
    capsys.readouterr()
    diag = harness.read_csv(tmp_path / "r" / "respond_diagonal.csv")
    assert diag["gamma"][0] == 1.0 and diag["gamma_sq"][0] == 1.0
    assert (tmp_path / "r" / "respond_tprime_001.csv").exists()

    cfg.pop("t_primes")
    path = write_cfg(tmp_path, cfg, "approx.yaml")
    rc = cli.main(["approx", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 0
    capsys.readouterr()
    ap = harness.read_csv(tmp_path / "x" / "approximations.csv")
    for col in ("t", "gamma_bessel", "gamma_hf", "gamma_weak", "r_of_t", "margin"):
        assert col in ap
    assert ap["gamma_hf"][0] == pytest.approx(1.0, abs=1e-10)
