"""Config handling, CSV artifacts, metrics, scenario runs, CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from typresp import cli, harness
from typresp.errors import ConfigError, GridMismatchError


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


# --- metrics ---------------------------------------------------------------------


def test_compare_identical_and_offset():
    t = np.linspace(0, 1, 101)
    a = np.sin(t)
    m = harness.compare(t, a, a, (0.0, 1.0))
    assert m.rms == 0.0 and m.max_abs == 0.0
    m = harness.compare(t, a, a + 0.25, (0.0, 1.0))
    assert m.rms == pytest.approx(0.25, rel=1e-12)
    assert m.max_abs == pytest.approx(0.25, rel=1e-12)
    assert m.rms <= m.max_abs


def test_compare_sine_rms():
    # whole periods sampled without the duplicated endpoint: rms = A / sqrt(2)
    n, periods, amp = 4000, 4, 0.7
    t = np.arange(n) * (periods / n)
    a = amp * np.sin(2 * np.pi * t)
    m = harness.compare(t, a, np.zeros(n), (t[0], t[-1]))
    assert m.rms == pytest.approx(amp / np.sqrt(2), abs=1e-6)


def test_compare_window_validation():
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        harness.compare(t, t, t, (0.5, 2.0))
    with pytest.raises(GridMismatchError):
        harness.compare(t, t, t[:5], (0.0, 1.0))


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


def test_quench_asymptotics_run(tmp_path):
    cfg = {
        "scenario": "quench_asymptotics",
        "protocol": {"variant": "linear_ramp", "f0": 0.2, "period": 0.1},
        "profile": {"variant": "exponential", "v0": 1.0, "delta_v": 0.5, "d0": 512.0},
        "grid": {"t_max": 5.0, "n_out": 100},
    }
    out = harness.run(cfg, tmp_path)
    m = out["metrics"]
    assert m["phi1_late"] == pytest.approx(m["phi1_limit"], rel=2e-2)
    assert m["phi2_late"] == pytest.approx(m["phi2_limit"], rel=3e-2)
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
    assert out["metrics"]["rms"] == pytest.approx(0.1, rel=1e-9)
    harness.write_csv(tmp_path / "c.csv", {"t": t + 1.0, "y": np.sin(t)})
    cfg["file_b"] = str(tmp_path / "c.csv")
    with pytest.raises(GridMismatchError):
        harness.compare_files(cfg, tmp_path)


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
