"""Command-line interface.

    typresp respond|approx|simulate|compare|sweep --config <path> --out <dir>
            [--seed N]

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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = harness.load_config(args.config)
        if args.seed is not None and args.command == "simulate":
            cfg["seed"] = args.seed
        if args.seed is not None and args.command == "sweep":
            harness.validate_sweep_config(cfg)  # a missing sweep.base is a ConfigError
            cfg["sweep"]["base"]["seed"] = args.seed
        if args.command == "respond":
            summary = harness.run_respond(cfg, args.out)
        elif args.command == "approx":
            summary = harness.run_approx(cfg, args.out)
        elif args.command == "simulate":
            summary = harness.run(cfg, args.out)
        elif args.command == "compare":
            summary = harness.compare_files(cfg, args.out)
        else:
            summary = harness.run_sweep(cfg, args.out)
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
