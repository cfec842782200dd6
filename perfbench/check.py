"""Correctness gate for one benchmark call.

A call passes when (1) every column of its `simulation.csv`,
`prediction.csv`, `approximations.csv` and `respond_*.csv` matches the
reference recorded by `make_reference.py` within that column's tolerance
(`reference/tolerances.json` gives each tolerance and how it was derived
from the method's own error), and (2) independent spot checks hold:

- simulations: |norm - 1| <= rmt.NORM_TOL at every output, and for the
  fidelity scenario the survival probability lies in [0, 1] (up to that
  norm tolerance);
- respond: a few diagonal rows equal per-row `response.solve_gamma` solves.

CSVs are read with numpy directly, not with the package's reader.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import HERE, WORKLOADS

REF_DIR = HERE / "reference"
ROW_TOL = 1e-10  # per-row solve vs diagonal: same discretisation, rounding only
SPOT_ROWS = (0.25, 0.5, 0.75, 1.0)  # fractions of the diagonal checked per call


def read_csv(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


class Checker:
    def __init__(self, name: str, model_seed: int):
        self.scenario = WORKLOADS[name]
        self.tol = json.loads((REF_DIR / "tolerances.json").read_text())[name]["tol"]
        with np.load(REF_DIR / f"{name}.npz") as ref:
            self.expected = {}
            for key in ref.files:
                seed, fname, col = key.split("|")
                if seed in ("*", str(model_seed)):
                    self.expected.setdefault(fname, {})[col] = ref[key]
        if not self.expected:
            raise ValueError(f"no reference outputs for {name} at model seed {model_seed}")

    def check(self, out_dir: Path, summary: dict, cfg: dict, typresp) -> list:
        """Problems found in one call's outputs; an empty list means correct."""
        problems = []
        got = {}
        for fname, cols in sorted(self.expected.items()):
            path = out_dir / fname
            if not path.exists():
                problems.append(f"{fname}: missing")
                continue
            got[fname] = read_csv(path)
            for col, ref in sorted(cols.items()):
                val = got[fname].get(col)
                if val is None or val.shape != ref.shape:
                    problems.append(f"{fname}:{col}: shape {None if val is None else val.shape}"
                                    f" != reference {ref.shape}")
                    continue
                dev = float(np.max(np.abs(val - ref)))
                tol = self.tol[f"{fname}|{col}"]
                if not dev <= tol:
                    problems.append(f"{fname}:{col}: max deviation {dev:.3e} > tolerance {tol:.3e}")
        if self.scenario == "run" and "simulation.csv" in got:
            problems += self._spot_simulation(got["simulation.csv"], cfg, typresp.rmt.NORM_TOL)
        if self.scenario == "respond" and "respond_diagonal.csv" in got:
            problems += self._spot_respond(got["respond_diagonal.csv"], summary, cfg, typresp)
        return problems

    @staticmethod
    def _spot_simulation(sim: dict, cfg: dict, norm_tol: float) -> list:
        problems = []
        drift = float(np.max(np.abs(sim["norm"] - 1.0)))
        if not drift <= norm_tol:
            problems.append(f"norm drift {drift:.3e} > rmt.NORM_TOL {norm_tol:.1e}")
        if cfg["model"]["observable"]["kind"] == "fidelity":
            for col in ("a_driven", "a_undriven"):
                lo, hi = float(np.min(sim[col])), float(np.max(sim[col]))
                if lo < 0.0 or hi > (1.0 + norm_tol) ** 2:
                    problems.append(f"survival probability {col} outside [0, 1]: [{lo}, {hi}]")
        return problems

    @staticmethod
    def _spot_respond(diag: dict, summary: dict, cfg: dict, typresp) -> list:
        harness, response = typresp.harness, typresp.response
        profile = harness.build_profile(cfg["profile"])
        protocol = harness.build_protocol(cfg["protocol"])
        h = float(summary["metrics"]["solver_step"])
        t = diag["t"]
        substeps = int(round((t[1] - t[0]) / h))
        problems = []
        for frac in SPOT_ROWS:
            k = max(1, int(round(frac * (len(t) - 1))))
            row = response.solve_gamma(profile, protocol, float(t[k]), h, k * substeps)
            dev = abs(float(row.gamma[-1]) - float(diag["gamma"][k]))
            if not dev <= ROW_TOL:
                problems.append(f"diagonal row t={t[k]:g}: |solve_gamma - diagonal| = "
                                f"{dev:.3e} > {ROW_TOL:.0e}")
        return problems
