"""Command-line interface to the experiment scenarios.

One subcommand per scenario family: it builds the scenario, checks the
paths, runs it and writes the CSV. Exit codes: 0 success, 2 invalid
configuration, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import traceback

from . import __version__
from .experiments import (
    SCENARIO_KINDS,
    Scenario,
    default_scenario,
    emit_csv,
    run_scenario,
)


def _int_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(token) for token in text.split(","))
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {error}")


def _float_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(token) for token in text.split(","))
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {error}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowbench",
        description="Compare LS, RLS, and classical-shadow state estimators "
        "over randomized POVM measurements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in SCENARIO_KINDS:
        sub = subparsers.add_parser(name, help=f"run the {name} scenario")
        sub.add_argument("--qubits", type=int, default=None)
        sub.add_argument("--trials", type=int, default=None)
        sub.add_argument(
            "--m-grid",
            type=_int_grid,
            default=None,
            help="comma-separated measurement counts (total copies M*L for multishot)",
        )
        sub.add_argument("--l-grid", type=_int_grid, default=None)
        sub.add_argument(
            "--mu",
            type=_float_grid,
            default=None,
            help="ridge weight(s); mu-sweep runs all values, other scenarios use the first",
        )
        sub.add_argument("--eta-grid", type=_float_grid, default=None)
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--out", default=None, help="output CSV path (default <kind>.csv)")
        sub.add_argument("--config", default=None, help="JSON file with scenario fields")
        sub.add_argument("--workers", type=int, default=1, help="accepted for compatibility "
                         "(>= 1) but no effect: trials run in order in one thread; a large "
                         "theorem1 run forks one child for its theory rows either way")
        sub.add_argument("--dump-records", default=None, metavar="PATH")
        sub.add_argument("--load-records", default=None, metavar="PATH")
        sub.add_argument("--force", action="store_true", help="skip the array-size resource guard")
    return parser


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    scenario = default_scenario(args.command)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError(f"scenario config {args.config} must hold a JSON object")
        if config.setdefault("kind", args.command) != args.command:
            raise ValueError(
                f"config kind {config['kind']!r} does not match subcommand {args.command!r}"
            )
        scenario = Scenario.from_dict(config)
    overrides = dict(
        qubits=args.qubits,
        trials=args.trials,
        m_grid=args.m_grid,
        l_grid=args.l_grid,
        mu_grid=args.mu,
        eta_grid=args.eta_grid,
        seed=args.seed,
    )
    scenario = dataclasses.replace(
        scenario, **{key: value for key, value in overrides.items() if value is not None}
    )
    scenario.validate()
    return scenario


def _check_paths(args: argparse.Namespace, out_path: str) -> None:
    """Reject, before any trial runs, a path flag that would fail only
    after every trial ran, or two flags naming one file."""
    if args.load_records is not None and not os.path.isfile(args.load_records):
        raise ValueError(f"--load-records: no such file {args.load_records!r}")
    for flag, path in (("--out", out_path), ("--dump-records", args.dump_records)):
        if path is None:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{flag}: {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag}: the directory of {path!r} does not exist")
    paths = {"--out": out_path, "--dump-records": args.dump_records,
             "--load-records": args.load_records}
    named = [(flag, path) for flag, path in paths.items() if path is not None]
    for (flag, path), (other, other_path) in itertools.combinations(named, 2):
        if os.path.realpath(path) == os.path.realpath(other_path):
            raise ValueError(f"{flag} and {other} both name {path!r}; "
                             "the run would overwrite it")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    out_path = args.out if args.out is not None else f"{args.command}.csv"
    try:
        scenario = _scenario_from_args(args)
        _check_paths(args, out_path)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        rows = run_scenario(
            scenario,
            workers=args.workers,
            force=args.force,
            dump_records_path=args.dump_records,
            load_records_path=args.load_records,
        )
        emit_csv(rows, out_path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
