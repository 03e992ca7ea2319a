"""Command-line interface to the experiment scenarios.

One subcommand per scenario family plus ``validate``, which runs a
quick in-process invariant suite. Exit codes: 0 success, 2 invalid
configuration or failed validation, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import traceback

import numpy as np

from . import __version__
from .core import (
    DensityMatrix,
    RankOnePovm,
    born_probabilities,
    eigenvalue_split,
    project_physical,
)
from .ensembles import GlobalHaar, RngStream, sample_global_haar
from .estimators import CS, LS, RLS, cs_channel_apply, cs_channel_inverse, estimate, shadow_map
from .experiments import (
    SCENARIO_KINDS,
    Scenario,
    default_scenario,
    emit_csv,
    run_scenario,
)
from .measurement import MeasurementPlan, adjoint_map, expand_to_single_shot, run_plan
from .theory import multinomial_moments


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
                         "(>= 1) but no effect: trials run in order in one thread, since a "
                         "thread pool ran slower (the GIL serializes the sampling)")
        sub.add_argument("--dump-records", default=None, metavar="PATH")
        sub.add_argument("--load-records", default=None, metavar="PATH")
        sub.add_argument("--force", action="store_true", help="skip the array-size resource guard")

    validate = subparsers.add_parser("validate", help="run the invariant suite")
    validate.add_argument("--seed", type=int, default=7)
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


def _validation_checks(seed: int):
    """The invariant suite behind the ``validate`` subcommand."""

    def haar_unitarity():
        for dim in (2, 4, 8):
            stream = RngStream(seed, (0, dim))
            for _ in range(50):
                unitary = sample_global_haar(dim, stream)
                defect = np.linalg.norm(unitary.conj().T @ unitary - np.eye(dim))
                assert defect < 1e-10, f"unitarity defect {defect:.2e} at D={dim}"

    def born_normalization():
        stream = RngStream(seed, (1, 0))
        generator = stream.generator
        for dim in (2, 8):
            for _ in range(50):
                ginibre = generator.standard_normal((dim, dim)) + 1j * generator.standard_normal((dim, dim))
                rho = ginibre @ ginibre.conj().T
                state = DensityMatrix(rho / rho.trace())
                povm = RankOnePovm(sample_global_haar(dim, generator))
                p = born_probabilities(povm, state)
                assert p.min() >= 0.0, "negative Born probability"
                assert abs(p.sum() - 1.0) < 1e-10, "Born probabilities do not sum to 1"

    def projection_idempotent():
        generator = RngStream(seed, (2, 0)).generator
        for _ in range(50):
            raw = generator.standard_normal((4, 4)) + 1j * generator.standard_normal((4, 4))
            hermitian = (raw + raw.conj().T) / 2
            hermitian += (1.0 - hermitian.trace().real) * np.eye(4) / 4
            once = project_physical(hermitian)
            twice = project_physical(once)
            assert np.abs(once.matrix - twice.matrix).max() < 1e-10, "projection not idempotent"

    def eigenvalue_split_trace():
        generator = RngStream(seed, (3, 0)).generator
        for _ in range(100):
            raw = generator.standard_normal((6, 6)) + 1j * generator.standard_normal((6, 6))
            hermitian = (raw + raw.conj().T) / 2
            positive, negative = eigenvalue_split(hermitian)
            assert abs(positive + negative - hermitian.trace().real) < 1e-9, "split != trace"

    def cs_shadow_structure():
        dim = 8
        state = DensityMatrix.computational_basis_state(dim)
        records = run_plan(state, MeasurementPlan(50, 1, GlobalHaar(dim)), RngStream(seed, (4, 0)))
        for shadow in shadow_map(CS(), adjoint_map(records.unitaries, records.frequencies)):
            assert abs(shadow.trace - 1.0) < 1e-10, "CS trace != 1"
            eigenvalues = np.linalg.eigvalsh(shadow.matrix)
            assert abs(eigenvalues[-1] - dim) < 1e-9, "CS top eigenvalue != D"
            assert np.abs(eigenvalues[:-1] + 1.0).max() < 1e-9, "CS tail eigenvalues != -1"

    def channel_inverse_identity():
        generator = RngStream(seed, (5, 0)).generator
        for _ in range(100):
            raw = generator.standard_normal((4, 4)) + 1j * generator.standard_normal((4, 4))
            hermitian = (raw + raw.conj().T) / 2
            roundtrip = cs_channel_inverse(cs_channel_apply(hermitian))
            assert np.abs(roundtrip - hermitian).max() < 1e-12, "channel inverse broken"

    def multishot_equivalence():
        dim = 4
        state = DensityMatrix.maximally_mixed(dim)
        plan = MeasurementPlan(6, 16, GlobalHaar(dim))
        records = run_plan(state, plan, RngStream(seed, (6, 0)))
        expanded = expand_to_single_shot(records)
        for method in (LS(), RLS(0.1), CS()):
            multi = estimate(records, method).average.matrix
            single = estimate(expanded, method).average.matrix
            assert np.abs(multi - single).max() < 1e-10, "multishot equivalence broken"

    def rls_matches_ls_when_invertible():
        dim = 2
        state = DensityMatrix.computational_basis_state(dim)
        plan = MeasurementPlan(12, 1, GlobalHaar(dim))
        records = run_plan(state, plan, RngStream(seed, (7, 0)))
        ls_avg = estimate(records, LS()).average.matrix
        rls_avg = estimate(records, RLS(0.0)).average.matrix
        assert np.abs(ls_avg - rls_avg).max() < 1e-8, "RLS(0) != LS on invertible frame"

    def stream_reproducibility():
        first = sample_global_haar(8, RngStream(seed, (9, 3)))
        second = sample_global_haar(8, RngStream(seed, (9, 3)))
        assert np.array_equal(first, second), "RNG streams are not reproducible"

    def multinomial_moment_identity():
        generator = RngStream(seed, (8, 0)).generator
        for _ in range(50):
            p = generator.dirichlet(np.ones(6))
            shots = int(generator.integers(1, 50))
            second, _ = multinomial_moments(p, shots)
            gap = second - p * p
            assert np.abs(gap - p * (1 - p) / shots).max() < 1e-15, "moment identity broken"

    return [
        ("haar-unitarity", haar_unitarity),
        ("born-normalization", born_normalization),
        ("projection-idempotent", projection_idempotent),
        ("eigenvalue-split-trace", eigenvalue_split_trace),
        ("cs-shadow-structure", cs_shadow_structure),
        ("channel-inverse-identity", channel_inverse_identity),
        ("multishot-equivalence", multishot_equivalence),
        ("rls-matches-ls-invertible", rls_matches_ls_when_invertible),
        ("stream-reproducibility", stream_reproducibility),
        ("multinomial-moment-identity", multinomial_moment_identity),
    ]


def run_validation(seed: int = 7, out=None) -> int:
    out = sys.stdout if out is None else out
    checks = _validation_checks(seed)
    failures = 0
    for name, check in checks:
        try:
            check()
        except AssertionError as error:
            failures += 1
            print(f"FAIL  {name}: {error}", file=out)
        else:
            print(f"ok    {name}", file=out)
    print(f"{len(checks) - failures}/{len(checks)} checks passed", file=out)
    return 0 if failures == 0 else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "validate":
        if args.seed < 0:
            print(f"error: seed must be >= 0, got {args.seed}", file=sys.stderr)
            return 2
        return run_validation(seed=args.seed)

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
