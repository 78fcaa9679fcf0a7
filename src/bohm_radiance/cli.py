"""Command-line entry point.

    bohm-radiance <subcommand> [--config FILE] [--constants paper|modern]
                  [--mode reproduction|simulation] [--out DIR]
                  [--n N] [--seed S] [--t-end T] [--y0-list a,b,...]

A list that starts with a negative launch takes the ``=`` form,
``--y0-list=-4.9e-5,4.9e-5``: argparse reads a separate value that
starts with ``-`` as an option.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .config import config_schema, load_config
from .errors import ConfigError, NumericalError
from .runner import SUBCOMMANDS, failure_note, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohm-radiance",
        description=("Radiation predictions for the electron two-slit "
                     "experiment: the free-particle zero versus the "
                     "per-trajectory pilot-wave emission."))
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="JSON config file")
    schema = config_schema()["properties"]
    parser.add_argument("--constants", choices=schema["constants"]["enum"])
    parser.add_argument("--mode", choices=schema["mode"]["enum"])
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--n", type=int, help="ensemble size")
    parser.add_argument("--seed", type=int, help="ensemble seed")
    parser.add_argument("--t-end", type=float, dest="t_end",
                        help="integration end time in seconds")
    parser.add_argument("--y0-list", dest="y0_list",
                        help=("comma-separated launch positions in cm; "
                              "write --y0-list=-4.9e-5,4.9e-5 when the "
                              "first is negative"))
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    over: dict = {}
    if args.constants:
        over["constants"] = args.constants
    if args.mode:
        over["mode"] = args.mode
    if args.out:
        over["output_dir"] = args.out
    ensemble = {}
    if args.n is not None:
        ensemble["n"] = args.n
    if args.seed is not None:
        ensemble["seed"] = args.seed
    if args.t_end is not None:
        ensemble["t_end_s"] = args.t_end
    if ensemble:
        over["ensemble"] = ensemble
    if args.y0_list:
        try:
            y0s = [float(tok) for tok in args.y0_list.split(",") if tok]
        except ValueError:
            raise ConfigError(f"cannot parse --y0-list {args.y0_list!r}")
        over["trajectories"] = {"y0_list_cm": y0s}
    return over


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        manifest = run(args.subcommand, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as exc:  # float overflow or division by zero
        print(f"numerical failure: {failure_note(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{args.subcommand}: wrote {len(manifest.files)} file(s) to "
          f"{cfg.output_dir} (manifest.json, status {manifest.status})")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
