"""Config-driven experiment harness: scenarios, CSV artifacts, metrics.

Configs are YAML with nested sections and strict unknown-key rejection, so
experiments stay auditable and diffable; `render_config` round-trips through
`parse_config`.  Every CSV is written with 17-significant-digit floats
(bit-exact round trips) and carries a JSON metadata sidecar with the config
echo, seeds, versions, and derived constants needed to re-run it.

Scenarios
---------
fidelity            survival probability of a mid-spectrum eigenstate under
                    periodic driving, compared with the predicted
                    |gamma(t,t)|^2 and both closed-form limits.
strong_scale        the strong-driving scale r(t) and its margin r/Sigma_0.
quench_asymptotics  phi1/phi2 of the linear ramp against their late-time
                    limits f0^2 and f0^2 T^2/16.
double_pretherm     two-sector model whose driven dynamics passes through
                    undriven equilibration, response oscillations between
                    the diagonal-ensemble and thermal values, and heating.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy
import yaml

from . import __version__, approximations, profiles, protocols, response, rmt
from .errors import ConfigError, GridMismatchError

SCENARIOS = ("fidelity", "strong_scale", "quench_asymptotics", "double_pretherm")


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

_PROFILE_KEYS = {"variant", "v0", "delta_v", "d0", "table"}
_PROTOCOL_KEYS = {"variant", "f0", "period", "table"}
_GRID_KEYS = {"t_max", "n_out"}
_SPECTRUM_KEYS = {"variant", "spacing", "alpha", "mean_spacing"}
_OBSERVABLE_KEYS = {"kind", "a0_plus", "a0_minus"}
_STATE_KEYS = {"kind", "index", "e_center", "delta_e", "q", "kappa", "sector"}
_MODEL_KEYS = {"m", "spectrum", "observable", "initial_state", "method", "trotter_step"}
_PREDICTION_KEYS = {"t_max", "solver_step"}
_SCENARIO_KEYS = {
    "scenario": {
        "scenario",
        "seed",
        "profile",
        "protocol",
        "model",
        "grid",
        "prediction",
        "window_halfwidth_factor",
        "out_dir",
    },
    "respond": {"profile", "protocol", "grid", "t_primes", "solver_step"},
    "approx": {"profile", "protocol", "grid", "t_prime"},
    "compare": {"file_a", "column_a", "file_b", "column_b", "window"},
}


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def _positive_or_null(cfg: dict, key: str, where: str) -> Optional[float]:
    """cfg[key] as a finite float > 0, or None when the key is absent or null."""
    value = cfg.get(key)
    try:
        x = None if value is None else float(value)
    except (TypeError, ValueError):
        x = np.nan
    if x is not None and not (np.isfinite(x) and x > 0):
        raise ConfigError(f"{where}.{key} must be null or a finite number > 0, got {value!r}")
    return x


def _check_keys(cfg: dict, allowed: set, where: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def parse_config(text: str) -> dict:
    """Parse a YAML config into a plain dict (validation happens per command)."""
    cfg = yaml.safe_load(text)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a YAML mapping")
    return cfg


def render_config(cfg: dict) -> str:
    """Canonical YAML rendering; parse_config(render_config(c)) == c."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


def load_config(path) -> dict:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def validate_scenario_config(cfg: dict) -> dict:
    """Validate a `simulate` config; returns the config unchanged."""
    _check_keys(cfg, _SCENARIO_KEYS["scenario"], "config")
    scenario = _require(cfg, "scenario", "config")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    _check_keys(_require(cfg, "profile", "config"), _PROFILE_KEYS, "profile")
    _check_keys(_require(cfg, "protocol", "config"), _PROTOCOL_KEYS, "protocol")
    _check_keys(_require(cfg, "grid", "config"), _GRID_KEYS, "grid")
    if scenario in ("fidelity", "double_pretherm"):
        model = _require(cfg, "model", "config")
        _check_keys(model, _MODEL_KEYS, "model")
        _check_keys(_require(model, "spectrum", "model"), _SPECTRUM_KEYS, "model.spectrum")
        _check_keys(_require(model, "observable", "model"), _OBSERVABLE_KEYS, "model.observable")
        _check_keys(
            _require(model, "initial_state", "model"), _STATE_KEYS, "model.initial_state"
        )
        if "seed" not in cfg:
            raise ConfigError("simulation scenarios need a seed")
    if "prediction" in cfg:
        _check_keys(cfg["prediction"], _PREDICTION_KEYS, "prediction")
        for key in ("t_max", "solver_step"):
            _positive_or_null(cfg["prediction"], key, "prediction")
    return cfg


def build_profile(cfg: dict, d0_override: Optional[float] = None) -> profiles.PerturbationProfile:
    variant = _require(cfg, "variant", "profile")
    d0 = d0_override if cfg.get("d0") is None else float(cfg["d0"])
    if d0 is None:
        raise ConfigError("profile.d0 is null and no measured value is available")
    if variant == "exponential":
        return profiles.PerturbationProfile(
            variant="exponential",
            v0=float(_require(cfg, "v0", "profile")),
            delta_v=float(_require(cfg, "delta_v", "profile")),
            d0=d0,
        )
    if variant == "tabulated":
        table = _read_two_column(_require(cfg, "table", "profile"))
        return profiles.PerturbationProfile(
            variant="tabulated", d0=d0, energies=table[0], values=table[1]
        )
    raise ConfigError(f"unknown profile variant {variant!r}")


def build_protocol(cfg: dict) -> protocols.DrivingProtocol:
    variant = _require(cfg, "variant", "protocol")
    if variant == "tabulated":
        table = _read_two_column(_require(cfg, "table", "protocol"))
        return protocols.DrivingProtocol(variant="tabulated", times=table[0], values=table[1])
    return protocols.DrivingProtocol(
        variant=variant,
        f0=float(_require(cfg, "f0", "protocol")),
        period=float(cfg.get("period", 1.0)),
    )


def _read_two_column(path) -> tuple:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ConfigError(f"{path}: expected a two-column CSV")
    return data[:, 0], data[:, 1]


# ---------------------------------------------------------------------------
# CSV and sidecar IO
# ---------------------------------------------------------------------------


def write_csv(path, columns: dict) -> Path:
    """UTF-8 CSV, header row, '.' decimal separator, 17 significant digits."""
    path = Path(path)
    names = list(columns)
    arrays = [np.asarray(columns[k], dtype=float) for k in names]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise GridMismatchError("CSV columns differ in length")
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(format(a[i], ".17g") for a in arrays))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_csv(path) -> dict:
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def _versions() -> dict:
    return {
        "typresp": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def write_sidecar(csv_path, meta: dict) -> Path:
    side = Path(str(csv_path) + ".meta.json")
    side.write_text(json.dumps(meta, sort_keys=True, indent=2, default=float) + "\n",
                    encoding="utf-8")
    return side


# ---------------------------------------------------------------------------
# comparison metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonMetrics:
    """RMS and max deviation between two aligned series over a time window."""

    rms: float
    max_abs: float
    window: tuple

    def as_dict(self) -> dict:
        return {"rms": self.rms, "max_abs": self.max_abs, "window": list(self.window)}


def compare(
    t_grid: np.ndarray,
    series_a: np.ndarray,
    series_b: np.ndarray,
    window: tuple,
) -> ComparisonMetrics:
    """Deviation metrics of two series sharing t_grid, over window = (t_a, t_b)."""
    t_grid = np.asarray(t_grid, dtype=float)
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if not (t_grid.shape == a.shape == b.shape):
        raise GridMismatchError("compared series must share one grid")
    ta, tb = float(window[0]), float(window[1])
    if tb < ta:
        raise ValueError("window must be ordered")
    if ta < t_grid[0] - 1e-12 or tb > t_grid[-1] + 1e-12:
        raise ValueError("window must lie within the grid")
    sel = (t_grid >= ta - 1e-12) & (t_grid <= tb + 1e-12)
    diff = a[sel] - b[sel]
    return ComparisonMetrics(
        rms=float(np.sqrt(np.mean(diff**2))),
        max_abs=float(np.max(np.abs(diff))),
        window=(ta, tb),
    )


def compare_files(cfg: dict, out_dir) -> dict:
    """`compare` subcommand: metrics between one column of each of two CSVs."""
    _check_keys(cfg, _SCENARIO_KEYS["compare"], "compare config")
    a = read_csv(_require(cfg, "file_a", "compare config"))
    b = read_csv(_require(cfg, "file_b", "compare config"))
    col_a = _require(cfg, "column_a", "compare config")
    col_b = _require(cfg, "column_b", "compare config")
    if "t" not in a or "t" not in b:
        raise GridMismatchError("both files need a 't' column")
    if not np.array_equal(a["t"], b["t"]):
        raise GridMismatchError("time grids differ between the two files")
    window = cfg.get("window") or [float(a["t"][0]), float(a["t"][-1])]
    metrics = compare(a["t"], a[col_a], b[col_b], (window[0], window[1]))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "compare_metrics.json"
    out.write_text(json.dumps(metrics.as_dict(), sort_keys=True, indent=2) + "\n",
                   encoding="utf-8")
    return {"files": [str(out)], "metrics": metrics.as_dict()}


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _output_grid(cfg: dict) -> np.ndarray:
    grid = _require(cfg, "grid", "config")
    t_max = float(_require(grid, "t_max", "grid"))
    n_out = int(_require(grid, "n_out", "grid"))
    if t_max <= 0 or n_out < 1:
        raise ConfigError("grid needs t_max > 0 and n_out >= 1")
    return t_max / n_out * np.arange(n_out + 1)


def _build_model(cfg: dict, profile: profiles.PerturbationProfile) -> rmt.RandomMatrixModel:
    mcfg = cfg["model"]
    seed = int(cfg["seed"])
    m = int(_require(mcfg, "m", "model"))
    scfg = mcfg["spectrum"]
    spec = rmt.SpectrumSpec(
        m=m,
        variant=_require(scfg, "variant", "spectrum"),
        spacing=float(scfg.get("spacing", 1.0)),
        alpha=float(scfg.get("alpha", 0.0)),
        mean_spacing=float(scfg.get("mean_spacing", 1.0)),
    )
    energies = spec.energies()
    v = rmt.sample_v(energies, profile, seed)

    ocfg = mcfg["observable"]
    kind = _require(ocfg, "kind", "observable")
    state_cfg = mcfg["initial_state"]
    state_kind = _require(state_cfg, "kind", "initial_state")
    index = state_cfg.get("index", "middle")
    index = m // 2 if index == "middle" else (None if index is None else int(index))

    if kind == "fidelity":
        if state_kind != "eigenstate":
            raise ConfigError("the fidelity observable projects on an eigenstate")
        observable = rmt.fidelity_observable(m, index)
    elif kind == "eth":
        observable = rmt.build_eth_observable(
            energies,
            spec.e_top,
            float(_require(ocfg, "a0_plus", "observable")),
            float(_require(ocfg, "a0_minus", "observable")),
            seed,
        )
    else:
        raise ConfigError(f"unknown observable kind {kind!r}")

    psi = rmt.build_initial_state(
        energies,
        state_kind,
        seed,
        index=index,
        e_center=float(state_cfg.get("e_center", 0.0)),
        delta_e=float(state_cfg.get("delta_e", 1.0)),
        q=state_cfg.get("q", "identity"),
        kappa=float(state_cfg.get("kappa", 1.0)),
        sector=state_cfg.get("sector", "all"),
        observable=observable,
    )

    window = None
    if state_kind == "filtered_random":
        k = float(cfg.get("window_halfwidth_factor", 2.0))
        e0, de = float(state_cfg["e_center"]), float(state_cfg["delta_e"])
        window = (e0 - k * de, e0 + k * de)

    model = rmt.RandomMatrixModel(
        spectrum=spec,
        energies=energies,
        v_matrix=v,
        observable=observable,
        initial_state=psi,
        master_seed=seed,
        window=window,
    )
    model.derived = rmt.reference_constants(
        energies,
        np.real(np.diag(observable)),
        np.abs(psi) ** 2,
        window,
    )
    return model


def _solver_grid(h_req, profile, protocol, dt: float, t_end: float):
    """(h, substeps): the largest h = dt / substeps <= h_req, default_step(t_end) if None."""
    h_req = response.default_step(profile, protocol, t_end) if h_req is None else h_req
    substeps = max(1, int(np.ceil(dt / h_req - 1e-12)))
    return dt / substeps, substeps


def _prediction_grid(cfg, profile, protocol, t_grid):
    """Solver step and output subsampling for the diagonal prediction."""
    dt = float(t_grid[1] - t_grid[0])
    pred_cfg = cfg.get("prediction") or {}
    t_end, t_ts = float(t_grid[-1]), protocol.timescale()
    t_default = t_end if t_ts is None else min(t_end, 5.0 * t_ts)  # default validity window
    pred_t_max = min(_positive_or_null(pred_cfg, "t_max", "prediction") or t_default, t_end)
    n_pred = int(round(pred_t_max / dt))
    h, substeps = _solver_grid(_positive_or_null(pred_cfg, "solver_step", "prediction"),
                               profile, protocol, dt, max(pred_t_max, dt))
    return h, substeps, n_pred


def _base_meta(cfg: dict) -> dict:
    return {
        "config": cfg,
        "rng": rmt.RNG_ALGORITHM,
        "seed_streams": rmt._STREAMS,
        "versions": _versions(),
    }


def _approx_columns(profile, protocol, t_grid):
    """Closed-form columns on the diagonal t' = t, one vectorised call each."""
    r_of_t = approximations.r_scale_array(profile, protocol, t_grid)
    return {
        "t": t_grid,
        "gamma_bessel": approximations.strong_driving_gamma(r_of_t, t_grid),
        "gamma_hf": approximations.fast_driving_gamma(profile, protocol, t_grid, t_grid),
        "gamma_weak": approximations.weak_fast_gamma(profile, protocol, t_grid, t_grid),
        "r_of_t": r_of_t,
        "margin": r_of_t / profiles.moment(profile, 0),
    }


def _run_simulation_scenario(cfg: dict, out_dir: Path) -> dict:
    """Shared fidelity / double_pretherm pipeline."""
    scenario = cfg["scenario"]
    protocol = build_protocol(cfg["protocol"])
    t_grid = _output_grid(cfg)

    # flat spectra fix d0 = 1/spacing; modulated spectra use the density
    # measured in the occupied window when profile.d0 is null.  Sampling V
    # needs only vtilde, so a placeholder d0 is fine until it is measured.
    flat = cfg["model"]["spectrum"]["variant"] == "flat"
    d0_guess = 1.0 / float(cfg["model"]["spectrum"]["spacing"]) if flat else 1.0
    profile = build_profile(cfg["profile"], d0_override=d0_guess)
    model = _build_model(cfg, profile)
    if cfg["profile"].get("d0") is None and not flat:
        profile = build_profile(cfg["profile"], d0_override=model.derived["d0_window"])

    method = cfg["model"].get("method", "piecewise_exact")
    traj = rmt.propagate(
        model, protocol, t_grid, method=method, step=cfg["model"].get("trotter_step")
    )

    # prediction on the output grid (solver runs on a refined grid)
    h, substeps, n_pred = _prediction_grid(cfg, profile, protocol, t_grid)
    gamma_sq_fine = response.gamma_diagonal(profile, protocol, h, n_pred * substeps)
    gamma_sq = gamma_sq_fine[::substeps]
    a_th = model.derived["a_th"]
    pred = response.predict_observable(
        t_grid[: n_pred + 1], gamma_sq, traj.undriven_a_series[: n_pred + 1], a_th
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _base_meta(cfg)
    meta["derived"] = model.derived
    meta["method"] = {"name": method, "step": traj.step}

    files = []
    files.append(
        write_csv(
            out_dir / "simulation.csv",
            {
                "t": t_grid,
                "a_driven": traj.a_series,
                "a_undriven": traj.undriven_a_series,
                "h0": traj.h0_series,
                "norm": traj.norm_series,
            },
        )
    )
    files.append(
        write_csv(
            out_dir / "prediction.csv",
            {"t": pred.t_grid, "gamma_sq": pred.gamma_sq, "a_pred": pred.a_pred},
        )
    )
    files.append(write_csv(out_dir / "approximations.csv",
                           _approx_columns(profile, protocol, t_grid)))
    files.append(
        write_csv(
            out_dir / "joined.csv",
            {
                "t": pred.t_grid,
                "a_sim": traj.a_series[: n_pred + 1],
                "a_pred": pred.a_pred,
                "a_undriven": pred.undriven,
                "gamma_sq": pred.gamma_sq,
            },
        )
    )

    # metrics: early window (two driving periods when defined) and full window
    t_pred_end = float(pred.t_grid[-1])
    ts = protocol.timescale()
    early_end = min(2.0 * ts, t_pred_end) if ts is not None else t_pred_end
    m_early = compare(pred.t_grid, pred.a_pred, traj.a_series[: n_pred + 1], (0.0, early_end))
    m_full = compare(pred.t_grid, pred.a_pred, traj.a_series[: n_pred + 1], (0.0, t_pred_end))
    metrics = {
        "rms_early": m_early.as_dict(),
        "rms_full": m_full.as_dict(),
        "derived": model.derived,
        "norm_max_drift": float(np.max(np.abs(traj.norm_series - 1.0))),
    }

    if scenario == "double_pretherm":
        metrics["undriven_h0_drift"] = float(np.ptp(traj.undriven_h0_series))
        if ts is not None and t_grid[-1] >= 2 * ts:
            per = max(1, int(round(ts / (t_grid[1] - t_grid[0]))))
            metrics["heating"] = {
                "h0_first_period": float(np.mean(traj.h0_series[: per + 1])),
                "h0_last_period": float(np.mean(traj.h0_series[-per:])),
            }
            band_sel = (pred.t_grid >= 2 * ts) & (pred.t_grid <= t_pred_end)
            if np.any(band_sel):
                band = pred.a_pred[band_sel]
                metrics["band"] = {
                    "min": float(band.min()),
                    "max": float(band.max()),
                    "center": float(0.5 * (band.min() + band.max())),
                    "a_th": a_th,
                    "a_bar0": model.derived["a_bar0"],
                }

    (out_dir / "metrics.json").write_text(
        json.dumps(metrics, sort_keys=True, indent=2, default=float) + "\n", encoding="utf-8"
    )
    files.append(out_dir / "metrics.json")
    for f in files:
        if str(f).endswith(".csv"):
            write_sidecar(f, meta)
    return {"files": [str(f) for f in files], "metrics": metrics}


def _run_strong_scale(cfg: dict, out_dir: Path) -> dict:
    profile = build_profile(cfg["profile"])
    protocol = build_protocol(cfg["protocol"])
    t_grid = _output_grid(cfg)
    sigma0 = profiles.moment(profile, 0)
    r = approximations.r_scale_array(profile, protocol, t_grid)
    phi1, phi2 = protocols.phi_arrays(protocol, t_grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    f = write_csv(
        out_dir / "strong_scale.csv",
        {"t": t_grid, "r": r, "margin": r / sigma0, "phi1": phi1, "phi2": phi2},
    )
    metrics = {"sigma0": sigma0}
    ts = protocol.timescale()
    if ts is not None and t_grid[-1] > ts:
        first = (t_grid > 0) & (t_grid <= ts)
        later = t_grid > ts
        metrics["r_max_first_period"] = float(np.max(r[first]))
        metrics["r_max_later"] = float(np.max(r[later]))
    if profile.variant == "exponential":
        metrics["crossover_amplitude"] = approximations.crossover_amplitude(
            profile, 1.0 / profile.d0
        )
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    write_sidecar(f, {**_base_meta(cfg), "derived": metrics})
    return {"files": [str(f), str(out_dir / "metrics.json")], "metrics": metrics}


def _run_quench_asymptotics(cfg: dict, out_dir: Path) -> dict:
    protocol = build_protocol(cfg["protocol"])
    if protocol.variant != "linear_ramp":
        raise ConfigError("quench asymptotics are defined for the linear ramp")
    t_grid = _output_grid(cfg)
    phi1, phi2 = protocols.phi_arrays(protocol, t_grid)
    f0, T = protocol.f0, protocol.period
    out_dir.mkdir(parents=True, exist_ok=True)
    f = write_csv(out_dir / "quench_asymptotics.csv", {"t": t_grid, "phi1": phi1, "phi2": phi2})
    tl = float(t_grid[-1])
    p1, p2 = protocols.phi_arrays(protocol, np.asarray([tl]))
    metrics = {
        "t_late": tl,
        "phi1_late": float(p1[0]),
        "phi1_limit": f0**2,
        "phi2_late": float(p2[0]),
        "phi2_limit": f0**2 * T**2 / 16.0,
    }
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    write_sidecar(f, {**_base_meta(cfg), "derived": metrics})
    return {"files": [str(f), str(out_dir / "metrics.json")], "metrics": metrics}


def run(cfg: dict, out_dir) -> dict:
    """Run the configured scenario; writes CSVs, sidecars and metrics into out_dir."""
    validate_scenario_config(cfg)
    out_dir = Path(out_dir)
    scenario = cfg["scenario"]
    if scenario in ("fidelity", "double_pretherm"):
        return _run_simulation_scenario(cfg, out_dir)
    if scenario == "strong_scale":
        return _run_strong_scale(cfg, out_dir)
    return _run_quench_asymptotics(cfg, out_dir)


# ---------------------------------------------------------------------------
# respond / approx subcommands
# ---------------------------------------------------------------------------


def run_respond(cfg: dict, out_dir) -> dict:
    """Solve for gamma: diagonal always, plus any requested fixed t' curves."""
    _check_keys(cfg, _SCENARIO_KEYS["respond"], "respond config")
    h_req = _positive_or_null(cfg, "solver_step", "respond config")
    profile = build_profile(cfg["profile"])
    protocol = build_protocol(cfg["protocol"])
    t_grid = _output_grid(cfg)
    h, substeps = _solver_grid(h_req, profile, protocol, float(t_grid[1] - t_grid[0]),
                               float(t_grid[-1]))
    n = (len(t_grid) - 1) * substeps

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _base_meta(cfg)
    files = []
    diag = response.gamma_diagonal_values(profile, protocol, h, n)[::substeps]
    files.append(
        write_csv(
            out_dir / "respond_diagonal.csv",
            {"t": t_grid, "gamma": diag, "gamma_sq": diag**2},
        )
    )
    for i, tp in enumerate(cfg.get("t_primes") or []):
        sol = response.solve_gamma(profile, protocol, float(tp), h, n)
        g = sol.gamma[::substeps]
        files.append(
            write_csv(
                out_dir / f"respond_tprime_{i:03d}.csv",
                {"t": t_grid, "gamma": g, "gamma_sq": g**2},
            )
        )
    for f in files:
        write_sidecar(f, meta)
    return {"files": [str(f) for f in files], "metrics": {"solver_step": h}}


def run_approx(cfg: dict, out_dir) -> dict:
    """Closed-form approximation curves (evaluated on the diagonal t' = t)."""
    _check_keys(cfg, _SCENARIO_KEYS["approx"], "approx config")
    profile = build_profile(cfg["profile"])
    protocol = build_protocol(cfg["protocol"])
    t_grid = _output_grid(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    f = write_csv(out_dir / "approximations.csv", _approx_columns(profile, protocol, t_grid))
    write_sidecar(f, _base_meta(cfg))
    return {"files": [str(f)], "metrics": {"sigma0": profiles.moment(profile, 0)}}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _apply_override(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"override path {dotted!r} does not exist in the base config")
        node = node[k]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"override path {dotted!r} does not exist in the base config")
    node[keys[-1]] = value


def run_sweep(cfg: dict, out_dir) -> dict:
    """Fan a base scenario config out over parameter variations.

    Each variation is a mapping of dotted config paths to values and runs in
    its own subdirectory; results are collected in variation order.
    """
    _check_keys(cfg, {"sweep"}, "sweep config")
    sweep = cfg["sweep"]
    _check_keys(sweep, {"base", "variations"}, "sweep")
    base = _require(sweep, "base", "sweep")
    variations = _require(sweep, "variations", "sweep")
    validate_scenario_config(base)
    out_dir = Path(out_dir)

    results = []
    for i, var in enumerate(variations):
        c = copy.deepcopy(base)
        for key, value in sorted(var.items()):
            _apply_override(c, key, value)
        validate_scenario_config(c)
        results.append(run(c, out_dir / f"var_{i:03d}"))
    summary = {
        "variations": len(results),
        "files": [f for r in results for f in r["files"]],
    }
    return summary
