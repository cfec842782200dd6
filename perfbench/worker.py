"""One benchmark process: set up, then make and check calls, and report.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
                                [--seconds S] [--trace] [--setup-only]

Set-up is what a `typresp` command does before its run starts: import the
package from `src/` of the current directory, then parse and validate the
workload's config.  The process prints `time.monotonic()` at that point
(the same clock in every process), so the parent can time set-up from just
before it started this process.

Without --setup-only the process then makes a warm-up call of
`harness.run` or `harness.run_respond`, then calls it again until the next
call would end after --seconds (at least once more), timing each call's
wall and CPU time and checking every call's outputs.  Peak RSS is read
after the warm-up call, so it is the high-water mark of one run in a fresh
process, as a user's command sees it.  With --trace the calls after the
warm-up alternate untraced and traced (U T, T U, ...); traced calls run
under the span recorder and also report per-layer metrics.  The report is
one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _setup(name: str, seed: int):
    src = Path.cwd() / "src"
    if not (src / "typresp" / "__init__.py").is_file():
        raise SystemExit(f"no typresp package under {src}")
    sys.path.insert(0, str(src))
    import typresp.cli  # noqa: F401  (what the command line imports)
    from typresp import harness

    if Path(typresp.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"imported typresp from {typresp.cli.__file__}, not {src}")
    import workloads

    return sys.modules["typresp"], workloads.load(harness, name, seed)


def _blas() -> dict:
    """BLAS library and the thread count it actually runs with."""
    import ctypes
    import glob
    import os

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(lib), fn)
            except (AttributeError, OSError):
                continue
            getter.restype = ctypes.c_int
            out["threads"] = getter()
            return out
    return out


def _calls(typresp, args, cfg) -> dict:
    """Repeat the call until the next one would end after --seconds."""
    import shutil
    import statistics

    import numpy as np
    import scipy

    import workloads
    from check import Checker
    from spans import Tracer, summarize

    checker = Checker(args.workload, workloads.model_seed(args.seed))
    tracer = Tracer({m: getattr(typresp, m) for m in
                     ("harness", "rmt", "response", "approximations", "protocols", "profiles")})
    out_dir = Path(args.out)
    # an untraced warm-up call, then (traced runs) alternate U T, T U, ...
    plan, rounds = [False], 0
    calls, peak_rss, t_begin = [], None, time.perf_counter()
    while True:
        if not plan:
            plan = ([False, True] if rounds % 2 == 0 else [True, False]) if args.trace else [False]
            rounds += 1
        traced = plan.pop(0)
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            tracer.spans.clear()
            tracer.install()
        error, summary = None, None
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            summary = workloads.call(typresp.harness, args.workload, cfg, out_dir / "run")
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        record = {"wall_s": wall, "traced": traced,
                  "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)}
        if peak_rss is None:  # the high-water mark of one run in a fresh process
            peak_rss = r1.ru_maxrss / 1024.0
        if traced:
            tracer.uninstall()
            tracer.dump(out_dir / "spans.json")
            if error is None:
                record["layers"] = summarize(tracer.spans)
        record["problems"] = ([error] if error else
                              checker.check(out_dir / "run", summary, cfg, typresp))
        calls.append(record)
        elapsed = time.perf_counter() - t_begin
        next_round = (2 if args.trace else 1) * statistics.median(c["wall_s"] for c in calls)
        if not plan and rounds and elapsed + next_round > args.seconds:
            break
    return {
        "calls": calls,
        "peak_rss_mb": peak_rss,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "blas": _blas(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    typresp, cfg = _setup(args.workload, args.seed)
    report = {"ready": time.monotonic()}
    if not args.setup_only:
        report.update(_calls(typresp, args, cfg))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
