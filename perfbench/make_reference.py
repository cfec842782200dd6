"""Record the reference outputs and tolerances the correctness gate uses.

    python3 perfbench/make_reference.py          # from the repository root

Runs every workload at every model seed in `workloads.REFERENCE_SEEDS` with
the package in `src/`, and writes `perfbench/reference/<workload>.npz` (the
checked CSV columns; seed-independent files once) and
`perfbench/reference/tolerances.json`.  Run it only on a commit whose
outputs are trusted; the files it wrote for the benchmark's first version
come from the commit that introduced the benchmark.

Each column's tolerance follows from the error of the method behind it,
so rounding-level changes (another BLAS, batched GEMMs, reordered sums)
pass and wrong answers fail:

- exact propagation (`piecewise_exact`, the undriven phase evolution): the
  only error is rounding, which the program itself bounds by rmt.NORM_TOL
  on the state norm.  A state error of norm d changes <A> by at most
  2 |A| d, so the tolerance is 2 NORM_TOL max(1, max|column|).
- split-step (`trotter`) columns: second order in the step h, so the error
  of the h solution is estimated as 4/3 max|x_h - x_{h/2}| (Richardson) over
  all reference seeds; the tolerance is twice that, and at least the exact
  tolerance.
- Volterra solutions (gamma, gamma_sq; the Heun scheme is second order):
  the error estimate is max|x_h - x_{2h}| / 3 on the shared grid points; the
  tolerance is twice that, at least 1e-10.  a_pred = a_th + gamma_sq (u -
  a_th) inherits tol(gamma_sq) max|u - a_th| + max|gamma_sq| tol(u).
- closed forms (approximations.csv): no discretisation; 1e-9 max(1,
  max|column|), far above rounding and far below any change of formula.
- the time column: 1e-12 max|t|.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from typresp import harness, response, rmt  # noqa: E402

import workloads  # noqa: E402
from check import REF_DIR, read_csv  # noqa: E402

SCRATCH = Path.cwd() / ".perfbench_tmp" / "reference"
SIM_FILES = ("simulation.csv", "prediction.csv", "approximations.csv")


def _outputs(cfg: dict, name: str, out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    summary = workloads.call(harness, name, cfg, out)
    files = [Path(f).name for f in summary["files"] if f.endswith(".csv")]
    if workloads.WORKLOADS[name] == "run":
        files = [f for f in files if f in SIM_FILES]
    got = {f: read_csv(out / f) for f in files}
    metrics = out / "metrics.json"
    got["metrics"] = json.loads(metrics.read_text()) if metrics.exists() else summary["metrics"]
    return got


def _scale(x) -> float:
    return max(1.0, float(np.max(np.abs(x))))


def _richardson(fine, coarse, order_factor: float) -> float:
    """Error estimate of the step-h result from the 2h one on shared points."""
    n = min(len(fine[::2]), len(coarse))
    return float(np.max(np.abs(fine[::2][:n] - coarse[:n]))) / order_factor


def _volterra_tol(fine, coarse) -> float:
    return max(1e-10, 2.0 * _richardson(fine, coarse, 3.0))


def _exact_tol(col: str, values) -> float:
    if col == "t":
        return 1e-12 * float(np.max(np.abs(values)))
    if col == "norm":
        return rmt.NORM_TOL
    return 2.0 * rmt.NORM_TOL * _scale(values)


def _prediction_solver(cfg: dict, metrics: dict):
    """The harness's prediction grid, rebuilt from public functions."""
    protocol = harness.build_protocol(cfg["protocol"])
    spec = cfg["model"]["spectrum"]
    d0 = 1.0 / spec["spacing"] if spec["variant"] == "flat" else metrics["derived"]["d0_window"]
    profile = harness.build_profile(cfg["profile"], d0_override=d0)
    dt = cfg["grid"]["t_max"] / cfg["grid"]["n_out"]
    pred_t_max = (cfg.get("prediction") or {}).get("t_max")
    if pred_t_max is None:
        ts = protocol.timescale()
        pred_t_max = cfg["grid"]["t_max"] if ts is None else min(cfg["grid"]["t_max"], 5.0 * ts)
    n_pred = int(round(pred_t_max / dt))
    h_req = response.default_step(profile, protocol, max(pred_t_max, dt))
    substeps = max(1, int(np.ceil(dt / h_req - 1e-12)))
    return profile, protocol, dt / substeps, n_pred * substeps


def _respond_reference(name: str, cfg0: dict):
    arrays, tol, basis = {}, {}, {}
    got = _outputs(cfg0, name, SCRATCH / name)
    profile = harness.build_profile(cfg0["profile"])
    protocol = harness.build_protocol(cfg0["protocol"])
    h = float(got["metrics"]["solver_step"])
    t = got["respond_diagonal.csv"]["t"]
    n = int(round(t[-1] / h))
    diag_h = response.gamma_diagonal_values(profile, protocol, h, n)
    diag_2h = response.gamma_diagonal_values(profile, protocol, 2 * h, n // 2)
    for fname, cols in got.items():
        if fname == "metrics":
            continue
        if fname == "respond_diagonal.csv":
            fine, coarse = diag_h, diag_2h
        else:
            tp = cfg0["t_primes"][int(fname[-7:-4])]
            fine = response.solve_gamma(profile, protocol, tp, h, n).gamma
            coarse = response.solve_gamma(profile, protocol, tp, 2 * h, n // 2).gamma
        for col, val in cols.items():
            arrays[f"*|{fname}|{col}"] = val
            if col == "t":
                tol[f"{fname}|t"], basis[f"{fname}|t"] = _exact_tol("t", val), "grid"
                continue
            p = 2 if col == "gamma_sq" else 1
            tol[f"{fname}|{col}"] = _volterra_tol(fine**p, coarse**p)
            basis[f"{fname}|{col}"] = "Volterra h vs 2h (Richardson), x2"
    return arrays, tol, basis


def _simulation_reference(name: str, cfg0: dict):
    arrays, tol, basis = {}, {}, {}
    method = cfg0["model"]["method"]
    per_seed, trotter_dev, metrics0, spread = {}, {}, None, 0.0
    for s in workloads.REFERENCE_SEEDS:
        cfg = harness.load_config(workloads.config_path(name))
        cfg["seed"] = s
        got = _outputs(cfg, name, SCRATCH / name)
        metrics0 = metrics0 or got["metrics"]
        pred = got["prediction.csv"]
        u = got["simulation.csv"]["a_undriven"][: len(pred["t"])]
        spread = max(spread, float(np.max(np.abs(u - got["metrics"]["derived"]["a_th"]))))
        for fname in SIM_FILES:
            for col, val in got[fname].items():
                per_seed.setdefault(f"{fname}|{col}", {})[s] = val
        if method == "trotter":
            cfg_half = harness.load_config(workloads.config_path(name))
            cfg_half["seed"] = s
            cfg_half["model"]["trotter_step"] = cfg["model"]["trotter_step"] / 2
            half = _outputs(cfg_half, name, SCRATCH / f"{name}_half")["simulation.csv"]
            for col in ("a_driven", "h0"):
                dev = float(np.max(np.abs(got["simulation.csv"][col] - half[col])))
                trotter_dev[col] = max(trotter_dev.get(col, 0.0), dev)
    for key, by_seed in per_seed.items():  # a column equal at every seed is stored once
        first = next(iter(by_seed.values()))
        if all(np.array_equal(first, v) for v in by_seed.values()):
            arrays[f"*|{key}"] = first
        else:
            arrays.update({f"{s}|{key}": v for s, v in by_seed.items()})

    def column(fname, col):
        return np.concatenate(list(per_seed[f"{fname}|{col}"].values()))

    for col in ("t", "a_driven", "a_undriven", "h0", "norm"):
        key = f"simulation.csv|{col}"
        tol[key], basis[key] = _exact_tol(col, column("simulation.csv", col)), "exact (NORM_TOL)"
        if col in trotter_dev:
            tol[key] = max(tol[key], 2.0 * 4.0 / 3.0 * trotter_dev[col])
            basis[key] = "split step h vs h/2 (Richardson), x2"
    profile, protocol, h, n = _prediction_solver(cfg0, metrics0)
    gsq_h = response.gamma_diagonal(profile, protocol, h, n)
    gsq_2h = response.gamma_diagonal(profile, protocol, 2 * h, n // 2)
    tol["prediction.csv|t"], basis["prediction.csv|t"] = (
        _exact_tol("t", column("prediction.csv", "t")), "grid")
    tol["prediction.csv|gamma_sq"] = _volterra_tol(gsq_h, gsq_2h)
    basis["prediction.csv|gamma_sq"] = "Volterra h vs 2h (Richardson), x2"
    tol["prediction.csv|a_pred"] = (tol["prediction.csv|gamma_sq"] * spread
                                    + _scale(gsq_h) * tol["simulation.csv|a_undriven"])
    basis["prediction.csv|a_pred"] = "propagated from gamma_sq and a_undriven"
    for col in ("t", "gamma_bessel", "gamma_hf", "gamma_weak", "r_of_t", "margin"):
        key = f"approximations.csv|{col}"
        vals = column("approximations.csv", col)
        tol[key] = _exact_tol("t", vals) if col == "t" else 1e-9 * _scale(vals)
        basis[key] = "grid" if col == "t" else "closed form, 1e-9 relative"
    return arrays, tol, basis


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    REF_DIR.mkdir(exist_ok=True)
    tol_path = REF_DIR / "tolerances.json"
    table = json.loads(tol_path.read_text()) if tol_path.exists() else {}
    for name in names:
        cfg0 = harness.load_config(workloads.config_path(name))
        build = _respond_reference if workloads.WORKLOADS[name] == "respond" else _simulation_reference
        arrays, tol, basis = build(name, cfg0)
        np.savez_compressed(REF_DIR / f"{name}.npz", **arrays)
        table[name] = {"tol": tol, "basis": basis}
        print(name, json.dumps(tol, sort_keys=True), flush=True)
    tol_path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
