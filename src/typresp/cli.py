"""Command-line interface.

    typresp respond|approx|simulate|compare|sweep --config <path> --out <dir>
    typresp simulate|sweep ... [--seed N]

Every subcommand prints a one-line JSON summary to standard output and exits
nonzero with a machine-readable error record on failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="typresp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("respond", "solve the response equation, write gamma curves"),
        ("approx", "closed-form approximation curves"),
        ("simulate", "run the configured scenario experiment"),
        ("compare", "deviation metrics between two CSV columns"),
        ("sweep", "fan a base config out over parameter variations"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("simulate", "sweep"):
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = harness.load_config(args.config)
        if args.command == "simulate" and args.seed is not None:
            cfg["seed"] = args.seed
        if args.command == "sweep" and args.seed is not None:
            harness.validate_sweep_config(cfg)  # a missing sweep.base is a ConfigError
            cfg["sweep"]["base"]["seed"] = args.seed
        runners = {"respond": harness.run_respond, "approx": harness.run_approx,
                   "simulate": harness.run, "compare": harness.compare_files,
                   "sweep": harness.run_sweep}
        summary = runners[args.command](cfg, args.out)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all failures
        record = {"command": args.command, "status": "error",
                  "error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True))
        return 1
    print(json.dumps({"command": args.command, "status": "ok", **summary},
                     sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
