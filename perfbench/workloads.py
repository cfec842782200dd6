"""Benchmark workloads: which config each one runs and how it is called.

The configs live in `perfbench/workloads/*.yaml`, copied from the package's
`configs/` (and resized where noted) when the benchmark was written, so
later edits to `configs/` cannot change a workload silently.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent

# name -> entry point; why each workload is in the benchmark is in BENCHMARK.json
WORKLOADS = {
    "fidelity_step": "run",
    "pretherm": "run",
    "sinusoid_trotter": "run",
    "respond_diag": "respond",
}

# Model seeds with recorded reference outputs.  A benchmark seed s runs the
# model seed REFERENCE_SEEDS[s % len(REFERENCE_SEEDS)], so every run can be
# checked against the outputs the package produced when the benchmark was
# written.  respond_diag samples no random model; its inputs are fixed.
REFERENCE_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)


def model_seed(seed: int) -> int:
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def config_path(name: str) -> Path:
    return HERE / "workloads" / f"{name}.yaml"


def load(harness, name: str, seed: int) -> dict:
    """Parse and validate the workload's config, exactly as a run would start."""
    cfg = harness.load_config(config_path(name))
    if WORKLOADS[name] == "run":
        cfg["seed"] = model_seed(seed)
        harness.validate_scenario_config(cfg)
        harness.build_protocol(cfg["protocol"])
    else:
        harness.build_profile(cfg["profile"])
        harness.build_protocol(cfg["protocol"])
    return cfg


def call(harness, name: str, cfg: dict, out_dir) -> dict:
    """One user-visible run of the workload: `simulate` or `respond`."""
    if WORKLOADS[name] == "run":
        return harness.run(cfg, out_dir)
    return harness.run_respond(cfg, out_dir)
