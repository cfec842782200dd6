"""typresp benchmark: one workload (or all) end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Workloads are defined in `perfbench/workloads.py` and `perfbench/workloads/`.

Each workload runs in a fresh process (`worker.py`) that sets up, makes a
warm-up call, then calls the program again and again, one call at a time,
until the next call would end after `--seconds` (at least one timed call).
Every call's outputs, the warm-up's too, are checked against the recorded
references (`check.py`).  Extra set-up-only processes bring the set-up
samples of a run to SETUP_SAMPLES.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one harness.run / run_respond call, the mean
               over the timed calls (see below)
  cpu_s        user + system CPU time of the process over that call, mean
  setup_s      process start until typresp is imported and the config is
               parsed and validated, median over SETUP_SAMPLES processes
  peak_rss_mb  ru_maxrss of the process after its warm-up call, i.e. of
               one run in a fresh process, as a user's command sees it
The error rate (failed / attempted calls) is printed and is the result's
`failed` / `attempted`.  The median and tail percentile of the timed calls
and the warm-up call's time are printed too.

wall_s and cpu_s are means, not medians: the host's speed swings by up to
a factor of two in phases of 10 s to a minute, and the mean of the run's
calls is the run's busy time per call, which averages over those phases.
The median of a run's handful of calls follows whichever phase most of
them fell in: over a ten-minute trace of solver calls on a 2-core Intel
Xeon, medians of 35 s windows spread 1.7 times as much as means.

--trace 1 alternates untraced and traced calls after the warm-up.  It
reports the per-layer metrics of the traced calls
(medians; see spans.py), the traced wall time, the tracing overhead
(median over rounds of the traced minus the untraced wall time of the
round's two adjacent calls; warm-up excluded) and the share
of the traced wall time that the layers' self times cover.  Counters must
repeat exactly between the traced calls of a run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Every process reads and
writes only inside the checkout (`.perfbench_tmp/`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import COUNTERS  # noqa: E402

SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # each workload's run ends well inside 180 s
THREADS = min(2, len(os.sched_getaffinity(0)))  # BLAS threads, at most the cores we have

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    return "ratio" if metric.endswith("coverage") else "count"


def _environment(seed: int, root: Path) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads_requested": THREADS,
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "model_seed": workloads.model_seed(seed),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    def __init__(self, root: Path, seed: int):
        self.root, self.seed, self.start = root, seed, time.monotonic()
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)

    def spawn(self, name: str, *flags: str) -> dict:
        """Run one worker process to completion and return its report."""
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 1.0:
            raise BenchError("time limit reached")
        out = self.root / ".perfbench_tmp" / name
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(self.seed), "--out", str(out), *flags]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: worker exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{name}: worker failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - t0
        return report

    def workload(self, name: str, seconds: float, trace: bool) -> dict:
        """The calls of one workload, plus set-up samples from extra processes."""
        self.start = time.monotonic()
        result = self.spawn(name, "--seconds", str(seconds), *(["--trace"] if trace else []))
        result["setup_s"] = [result["setup_s"]]
        while len(result["setup_s"]) < SETUP_SAMPLES:
            result["setup_s"].append(self.spawn(name, "--setup-only")["setup_s"])
        return result


def tail_percentile(values):
    """Highest nearest-rank percentile with at least 10 samples above it, or None."""
    n = len(values)
    if n <= 10:
        return None
    p = int(100 * (n - 10) / n)
    rank = max(1, -(-p * n // 100))
    return p, sorted(values)[rank - 1]


def _metrics(result: dict, trace: bool):
    """(metrics, attempted, failed, problems) for one workload's calls."""
    calls = result["calls"]
    problems = [p for c in calls for p in c["problems"]]
    failed = sum(1 for c in calls if c["problems"])
    if not trace:
        timed = calls[1:]  # calls[0] is the warm-up
        metrics = {
            "wall_s": statistics.fmean(c["wall_s"] for c in timed),
            "cpu_s": statistics.fmean(c["cpu_s"] for c in timed),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return {m: (metrics[m], END_TO_END[m]) for m in END_TO_END}, len(calls), failed, problems
    traced = [c for c in calls if c["traced"] and "layers" in c]
    # after the warm-up, each pair of calls is one untraced and one traced
    rounds = [calls[i:i + 2] for i in range(1, len(calls) - 1, 2)]
    if not traced or len(traced) != len(rounds):
        return {}, len(calls), failed, problems
    layers = {k: statistics.median(c["layers"][k] for c in traced) for k in traced[0]["layers"]}
    for key in COUNTERS:  # exact counts: reported as counted, and must repeat
        seen = {c["layers"][key] for c in traced}
        layers[key] = traced[0]["layers"][key]
        if len(seen) > 1:
            problems.append(f"counter {key} differs between traced calls: {sorted(seen)}")
            failed += 1
    layers["trace.wall_s"] = statistics.median(c["wall_s"] for c in traced)
    layers["trace.overhead_s"] = statistics.median(
        sum(c["wall_s"] if c["traced"] else -c["wall_s"] for c in pair) for pair in rounds)
    layers["trace.coverage"] = statistics.median(
        c["layers"]["trace.self_sum_s"] / c["wall_s"] for c in traced)
    del layers["trace.self_sum_s"]
    return {k: (v, _unit(k)) for k, v in sorted(layers.items())}, len(calls), failed, problems


def _print_workload(name: str, metrics: dict, result: dict, attempted: int, failed: int,
                    problems: list, trace: bool) -> None:
    for metric, (value, unit) in metrics.items():
        line = f"{name:17s} {metric:26s} {value:14.6g} {unit}"
        if metric in ("wall_s", "cpu_s"):
            vals = [c[metric] for c in result["calls"][1:]]
            tail = tail_percentile(vals)
            line += (f"   mean of {len(vals)}; median {statistics.median(vals):.6g}; " + (
                f"p{tail[0]} = {tail[1]:.6g}" if tail else "no percentile has 10 samples above it")
                + f"; warm-up {result['calls'][0][metric]:.6g}")
        elif metric == "setup_s":
            line += f"   median of {len(result['setup_s'])} processes"
        elif metric == "peak_rss_mb":
            line += "   after the warm-up call of a fresh process"
        print(line)
    print(f"{name:17s} {'error_rate':26s} {failed / attempted:14.6g} ratio"
          f"   {failed} failed of {attempted} attempted" + (" (traced run)" if trace else ""))
    for p in problems:
        print(f"{name:17s} FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "typresp" / "__init__.py").is_file():
        print(f"run.py: no typresp package under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = _environment(args.seed, root)
    runner = Runner(root, args.seed)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    try:
        for name in names:
            result = runner.workload(name, args.seconds, bool(args.trace))
            metrics, attempted, failed, problems = _metrics(result, bool(args.trace))
            env.update(versions=result["versions"], blas=result["blas"])
            _print_workload(name, metrics, result, attempted, failed, problems, bool(args.trace))
            total["attempted"] += attempted
            total["failed"] += failed
            total["correct"] = total["correct"] and not problems and bool(metrics)
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, (value, unit) in metrics.items():
                total["metrics"][prefix + metric] = {"value": value, "unit": unit}
            records[name] = {**result, "problems": problems}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print("# env " + json.dumps(env, sort_keys=True))
    out = root / ".perfbench_tmp" / "result.json"
    out.write_text(json.dumps({"env": env, "args": vars(args), "result": total,
                               "workloads": records}, indent=1, default=str) + "\n")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
