"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
                                --seeds 1-10 [--seconds 50] [--trace 1]
                                [--baseline perfbench/baseline.json]

Runs `run.py` once per seed and workload, one at a time, from the current
directory.  For every metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the quartile distance
as a share of the median.  With --trace 1 it also checks that the exact
counters repeat between runs of the same seed.  --baseline merges the
results into that JSON file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import COUNTERS  # noqa: E402


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _run(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    env = next(json.loads(ln[6:]) for ln in proc.stdout.splitlines() if ln.startswith("# env "))
    return {"seed": seed, "env": env, **json.loads(proc.stdout.strip().splitlines()[-1])}


def summarize(runs: list) -> dict:
    out = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": med,
                       "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                       "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    table = {}
    for name in args.workload:
        runs = [_run(name, s, args.seconds, args.trace) for s in _seeds(args.seeds)]
        stats = summarize(runs)
        print(f"== {name} ({len(runs)} runs, seeds {args.seeds}, trace {args.trace})")
        for metric, st in stats.items():
            spread = "" if st["spread"] is None else f"{st['spread']:.4f}"
            print(f"{metric:26s} median {st['median']:12.6g} q1 {st['q1']:12.6g} "
                  f"q3 {st['q3']:12.6g} spread {spread} {st['unit']}")
        mismatched = []
        if args.trace:
            by_seed = {}
            for r in runs:
                by_seed.setdefault(r["seed"], []).append(r)
            for seed, same in by_seed.items():
                for key in COUNTERS:
                    if len({r["metrics"][key]["value"] for r in same}) > 1:
                        mismatched.append(f"seed {seed}: {key}")
            print("counters repeat exactly" if not mismatched else f"COUNTERS DIFFER: {mismatched}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"correct in all runs: {all(r['correct'] for r in runs)}; "
              f"error_rate {failed}/{attempted}")
        table[name] = {"runs": len(runs), "seeds": args.seeds, "seconds": args.seconds,
                       "attempted": attempted, "failed": failed, "metrics": stats,
                       "env": runs[0]["env"]}
        if args.trace:
            table[name]["counters_repeat"] = not mismatched
    if args.baseline:
        base = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        key = "traced" if args.trace else "end_to_end"
        for name, entry in table.items():
            base.setdefault(name, {})[key] = entry
        args.baseline.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
