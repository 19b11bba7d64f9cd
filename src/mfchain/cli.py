"""Command-line entry point.

    mfchain <command> [--config FILE] [--seed S] [--out DIR] [--threads K]
                      [--force] [--section.key=value ...]

Commands: solve, simulate, weak-error, stationary-gap, certify,
master-check, decay-fit.  Any flat config key can be overridden on the
command line with a dotted flag, e.g. `--run.R=40000` or `--model.name
weak_interaction`; dotted flags take precedence over the config file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import InputError, MfchainError, check_count
from .harness import COMMANDS, cfg_value, integer, load_config, run_command
from .rng import MASK64


def parse_dotted(tokens: list) -> dict:
    """Turn leftover --section.key[=value] tokens into config overrides."""
    out: dict = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--") or "." not in tok.split("=", 1)[0]:
            raise InputError(f"unrecognized argument: {tok}")
        body = tok[2:]
        if "=" in body:
            key, val = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens) or tokens[i + 1].startswith("--"):
                raise InputError(f"missing value for override {tok}")
            val = tokens[i + 1]
            i += 2
        out[key] = val
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit 1, not argparse's 2 ("inconclusive")."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mfchain",
        description="Mean-field jump systems: flows, particles, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides run.seed)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="Monte Carlo worker processes")
        p.add_argument("--force", action="store_true",
                       help="proceed past failed preconditions (recorded)")
    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        overrides = parse_dotted(extra)
        cfg = load_config(args.config)
        cfg.update(overrides)
        # a seed is an integer in [0, 2**64), as rng.stream_key takes it
        seed = (cfg_value(cfg, "run.seed", 0, integer("seed", 0, MASK64))
                if args.seed is None
                else check_count(args.seed, "--seed", 0, MASK64))
        threads = check_count(args.threads, "--threads")
        out = args.out if args.out else os.path.join("mfchain_out", args.command)
        return run_command(args.command, cfg, out, seed,
                           threads=threads, force=args.force)
    except MfchainError as exc:
        print(f"mfchain: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
