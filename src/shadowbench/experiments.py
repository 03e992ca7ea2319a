"""Experiment scenarios: configurable studies emitted as CSV rows.

Each scenario family reproduces one of the study designs at desk scale:
LS double descent over a measurement-count grid, the ridge-weight
sweep, RLS-versus-CS comparisons (including log-likelihood of the
physically projected estimates), Haar-random observables, ensemble
mismatch, multishot reallocation at fixed state-copy budget, and the
multishot MSE formula cross-check.

Trials are the unit of parallelism; every trial reads only its own
(seed, trial, measurement) RNG streams, so results are identical for
any worker count and rows are merged in deterministic order.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .core import (
    DensityMatrix,
    Observable,
    eigenvalue_split,
    expectation,
    frobenius_error,
    log_likelihood,
    project_physical,
)
from .ensembles import (
    AUX_STREAM_INDEX,
    GlobalHaar,
    HaarMixture,
    RngStream,
    sample_sphere_vector,
)
from .estimators import CS, LS, RLS, FramePrefix, ShadowMethod, average_estimate, solve_route
from .measurement import (
    PLAN_BLOCK,
    MeasurementPlan,
    RecordStack,
    adjoint_map,
    dump_records,
    load_records,
    run_plan,
)
from .theory import empirical_mse, mse_theorem1

SCENARIO_KINDS = (
    "double-descent",
    "mu-sweep",
    "rls-vs-cs",
    "random-obs",
    "mismatch",
    "multishot",
    "theorem1",
)

# A scenario needs an explicit opt-in when some grid point solves a dense
# system of larger order than the frame operator at 7 qubits: the frame
# is D^2 x D^2, real and symmetric (32 GiB at n = 8), and the Gram route's
# system is M*D x M*D.
MAX_ORDER_WITHOUT_FORCE = 4**7

AGGREGATE_TRIAL = -1  # trial index marking rows aggregated over all trials

CSV_HEADER = "scenario,trial,M,L,mu,eta,method,metric,value"


@dataclass(frozen=True)
class Scenario:
    """Configuration of one experiment run.

    ``m_grid`` holds measurement-setting counts, except for the
    multishot family where its entries are total state-copy budgets
    M*L. ``mu_grid`` is consulted by the mu-sweep family in full and by
    other RLS-bearing families through its first entry.
    """

    kind: str
    qubits: int = 3
    trials: int = 50
    m_grid: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256, 512)
    l_grid: tuple[int, ...] = (1,)
    mu_grid: tuple[float, ...] = (0.1,)
    eta_grid: tuple[float, ...] = (0.0,)
    observables: tuple[int, ...] = (0, 1, 2)  # canonical observable indices
    random_observables: int = 50
    ensemble_samples: int = 10000
    seed: int = 1

    def validate(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.qubits < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.qubits}")
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        for name, grid in (
            ("m-grid", self.m_grid),
            ("l-grid", self.l_grid),
            ("mu-grid", self.mu_grid),
            ("eta-grid", self.eta_grid),
        ):
            if len(grid) == 0:
                raise ValueError(f"{name} must not be empty")
        for name, grid in (("mu-grid", self.mu_grid), ("eta-grid", self.eta_grid)):
            if not all(math.isfinite(value) for value in grid):
                raise ValueError(f"{name} entries must be finite, got {list(grid)}")
        if min(self.m_grid) < 1 or min(self.l_grid) < 1:
            raise ValueError("m-grid and l-grid entries must be >= 1")
        if min(self.mu_grid) < 0:
            raise ValueError("mu values must be >= 0")
        if min(self.eta_grid) < 0 or max(self.eta_grid) > 1:
            raise ValueError("eta values must lie in [0, 1]")
        if self.trials >= AUX_STREAM_INDEX:
            raise ValueError("trial count exceeds the reserved stream index")
        if len(self.observables) == 0 or not set(self.observables) <= {0, 1, 2}:
            raise ValueError("observables must be a nonempty subset of {0, 1, 2}")
        if self.random_observables < 1:
            raise ValueError("random observable count must be >= 1")
        if self.ensemble_samples < 2:
            raise ValueError("ensemble sample count must be >= 2")

    @property
    def dim(self) -> int:
        return 2**self.qubits

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario config keys: {sorted(unknown)}")
        coerced = dict(data)
        for key in ("m_grid", "l_grid", "observables"):
            if key in coerced:
                coerced[key] = tuple(int(v) for v in coerced[key])
        for key in ("mu_grid", "eta_grid"):
            if key in coerced:
                coerced[key] = tuple(float(v) for v in coerced[key])
        return cls(**coerced)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "qubits": self.qubits,
            "trials": self.trials,
            "m_grid": list(self.m_grid),
            "l_grid": list(self.l_grid),
            "mu_grid": list(self.mu_grid),
            "eta_grid": list(self.eta_grid),
            "observables": list(self.observables),
            "random_observables": self.random_observables,
            "ensemble_samples": self.ensemble_samples,
            "seed": self.seed,
        }


def default_scenario(kind: str) -> Scenario:
    """Desk-scale defaults for each scenario family (n = 3 for CI speed;
    pass --qubits 5 for the full-scale configurations)."""
    if kind == "double-descent":
        return Scenario(kind=kind)
    if kind == "mu-sweep":
        return Scenario(kind=kind, mu_grid=(0.01, 0.1, 1.0))
    if kind == "rls-vs-cs":
        return Scenario(kind=kind)
    if kind == "random-obs":
        return Scenario(kind=kind)
    if kind == "mismatch":
        return Scenario(
            kind=kind,
            trials=100,
            m_grid=(256,),
            eta_grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
        )
    if kind == "multishot":
        return Scenario(
            kind=kind,
            trials=100,
            m_grid=(64, 128, 256, 512, 1024, 2048, 4096),
            l_grid=(1, 8, 64),
        )
    if kind == "theorem1":
        return Scenario(
            kind=kind,
            qubits=2,
            trials=10000,
            m_grid=(16,),
            l_grid=(1, 4, 16),
        )
    raise ValueError(f"unknown scenario kind {kind!r}")


@dataclass(frozen=True)
class ResultRow:
    """One scalar metric of one grid point; trial -1 marks aggregates."""

    scenario: str
    trial: int
    settings: int
    shots: int
    mu: float
    eta: float
    method: str
    metric: str
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(
                f"non-finite value for metric {self.metric!r} at trial {self.trial}"
            )


def canonical_state_and_observables(
    qubits: int,
) -> tuple[DensityMatrix, tuple[Observable, Observable, Observable]]:
    """The fixed pure ground-truth state and its three probe observables.

    The observables are rank-1 projectors with expectation values 1,
    1/2, and 0 against the ground truth at every dimension: the state's
    own projector, a balanced superposition overlapping it by half, and
    an orthogonal basis projector.
    """
    if qubits < 1:
        raise ValueError(f"qubit count must be >= 1, got {qubits}")
    dim = 2**qubits
    state = DensityMatrix.computational_basis_state(dim, 0)

    phi0 = np.zeros(dim, dtype=complex)
    phi0[0] = 1.0
    phi1 = np.full(dim, 1.0 / np.sqrt(2.0 * (dim - 1)), dtype=complex)
    phi1[0] = 1.0 / np.sqrt(2.0)
    phi2 = np.zeros(dim, dtype=complex)
    phi2[1] = 1.0
    observables = tuple(Observable.rank_one(phi) for phi in (phi0, phi1, phi2))
    return state, observables


@dataclass(frozen=True, eq=False)
class _Context:
    """Read-only per-scenario inputs shared by all trials."""

    scenario: Scenario
    state: DensityMatrix
    observables: tuple[Observable, ...]
    truths: tuple[float, ...]
    methods: tuple[ShadowMethod, ...]
    lambda_indices: tuple[int, ...] = ()
    emit_frobenius: bool = False
    emit_eigsplit: bool = False
    emit_trace: bool = False
    emit_loglik: bool = False
    emit_random: bool = False
    random_vectors: np.ndarray | None = None  # (D, J) columns on the sphere
    random_truths: np.ndarray | None = None


def _methods_for(scenario: Scenario) -> tuple[ShadowMethod, ...]:
    if scenario.kind == "double-descent":
        return (LS(),)
    if scenario.kind == "mu-sweep":
        return tuple(RLS(mu) for mu in scenario.mu_grid)
    if scenario.kind == "theorem1":
        return (CS(),)
    return (RLS(scenario.mu_grid[0]), CS())


def _build_context(scenario: Scenario) -> _Context:
    state, observables = canonical_state_and_observables(scenario.qubits)
    truths = tuple(expectation(obs, state) for obs in observables)
    kind = scenario.kind

    random_vectors = None
    random_truths = None
    want_random = kind in ("random-obs", "multishot")
    if want_random:
        stream = RngStream(scenario.seed, (AUX_STREAM_INDEX, 0))
        columns = [
            sample_sphere_vector(scenario.dim, stream)
            for _ in range(scenario.random_observables)
        ]
        random_vectors = np.stack(columns, axis=1)
        # Ground truth tr(phi phi† rho) against rho = |0><0|.
        random_truths = np.abs(random_vectors[0, :]) ** 2

    emit_lambdas = kind in (
        "double-descent", "mu-sweep", "rls-vs-cs", "mismatch", "multishot", "theorem1"
    )
    lambda_indices = (0,) if kind == "theorem1" else tuple(scenario.observables)
    return _Context(
        scenario=scenario,
        state=state,
        observables=observables,
        truths=truths,
        methods=_methods_for(scenario),
        lambda_indices=lambda_indices if emit_lambdas else (),
        emit_frobenius=kind in ("double-descent", "mu-sweep", "rls-vs-cs"),
        emit_eigsplit=kind in ("double-descent", "rls-vs-cs"),
        emit_trace=kind in ("double-descent", "rls-vs-cs"),
        emit_loglik=kind == "rls-vs-cs",
        emit_random=want_random,
        random_vectors=random_vectors,
        random_truths=random_truths,
    )


def _make_ensemble(scenario: Scenario, eta: float):
    if scenario.kind == "mismatch":
        return HaarMixture(scenario.qubits, eta)
    return GlobalHaar(scenario.dim)


def _shot_plan(scenario: Scenario) -> list[tuple[int, tuple[int, ...]]]:
    """(shots, ascending settings-grid) pairs to run per trial.

    For the multishot family the configured m-grid lists total copy
    budgets M*L; entries not divisible by a given L are skipped for
    that L.
    """
    if scenario.kind == "multishot":
        plan = []
        for shots in scenario.l_grid:
            settings = sorted(
                {budget // shots for budget in scenario.m_grid if budget % shots == 0 and budget >= shots}
            )
            if settings:
                plan.append((shots, tuple(settings)))
        if not plan:
            raise ValueError("multishot m-grid has no entries divisible by any l-grid value")
        return plan
    if scenario.kind == "theorem1":
        return [(shots, (scenario.m_grid[0],)) for shots in scenario.l_grid]
    return [(scenario.l_grid[0], tuple(sorted(set(scenario.m_grid))))]


def _metric_rows(
    ctx: _Context,
    trial: int,
    settings: int,
    shots: int,
    eta: float,
    method: ShadowMethod,
    estimate_matrix: np.ndarray,
    records: RecordStack,
) -> list[ResultRow]:
    sc = ctx.scenario
    base = dict(
        scenario=sc.kind,
        trial=trial,
        settings=settings,
        shots=shots,
        mu=getattr(method, "mu", 0.0),
        eta=eta,
        method=type(method).__name__,
    )
    rows = []
    if ctx.emit_frobenius:
        rows.append(
            ResultRow(metric="frobenius-error", value=frobenius_error(estimate_matrix, ctx.state), **base)
        )
    if ctx.emit_eigsplit:
        positive, negative = eigenvalue_split(estimate_matrix)
        rows.append(ResultRow(metric="eig-pos", value=positive, **base))
        rows.append(ResultRow(metric="eig-neg", value=negative, **base))
    if ctx.emit_trace:
        rows.append(ResultRow(metric="trace", value=float(estimate_matrix.trace().real), **base))
    for i in ctx.lambda_indices:
        rows.append(
            ResultRow(
                metric=f"lambda-hat-{i}",
                value=expectation(ctx.observables[i], estimate_matrix),
                **base,
            )
        )
    if ctx.emit_random:
        vectors = ctx.random_vectors
        lam_hat = np.einsum("aj,ab,bj->j", vectors.conj(), estimate_matrix, vectors).real
        squared = float(np.mean((lam_hat - ctx.random_truths) ** 2))
        rows.append(ResultRow(metric="mse-rand", value=squared, **base))
    if ctx.emit_loglik:
        physical = project_physical(estimate_matrix)
        rows.append(
            ResultRow(metric="loglik", value=log_likelihood(records, physical).value, **base)
        )
    return rows


def _run_trial(
    ctx: _Context, trial: int, records_override: RecordStack | None = None
) -> list[ResultRow]:
    sc = ctx.scenario
    dim = sc.dim
    rows: list[ResultRow] = []

    for eta in sc.eta_grid if sc.kind == "mismatch" else (0.0,):
        ensemble = _make_ensemble(sc, eta)
        for shots, settings_grid in _shot_plan(sc):
            max_settings = settings_grid[-1]
            if records_override is not None:
                records = records_override[:max_settings]
            else:
                plan = MeasurementPlan(max_settings, shots, ensemble)
                records = run_plan(ctx.state, plan, RngStream(sc.seed, (trial, 0)))

            # Made on first use, so trials that form no frame never build one.
            frames = functools.cache(lambda: FramePrefix(records.unitaries, shots))
            partial_sum = np.zeros((dim, dim), dtype=complex)
            done = 0
            for settings in settings_grid:
                partial_sum = _add_adjoints(partial_sum, records[done:settings])
                done = settings
                measured = records[:settings]
                for method in ctx.methods:
                    average = average_estimate(method, measured, partial_sum / settings, frames)
                    rows.extend(
                        _metric_rows(
                            ctx, trial, settings, shots, eta, method, average.matrix, measured
                        )
                    )
    return rows


def _add_adjoints(partial_sum: np.ndarray, records: RecordStack) -> np.ndarray:
    """``partial_sum`` plus the records' adjoints, added one at a time in
    record order, so every prefix sum has the same bits for any grid.
    The adjoints are made PLAN_BLOCK settings at a time."""
    for start in range(0, len(records), PLAN_BLOCK):
        block = records[start:start + PLAN_BLOCK]
        adjoints = adjoint_map(block.unitaries, block.frequencies)
        adjoints[0] += partial_sum
        partial_sum = np.add.accumulate(adjoints, axis=0, out=adjoints)[-1].copy()
    return partial_sum


def _aggregate_rows(ctx: _Context, rows: list[ResultRow]) -> list[ResultRow]:
    """Trial-aggregated MSE rows (trial index -1), plus the semi-analytic
    MSE (with its standard error) for the theorem1 family."""
    sc = ctx.scenario
    groups: dict[tuple, list[tuple[int, float]]] = {}
    for row in rows:
        if row.metric.startswith("lambda-hat-") or row.metric == "mse-rand":
            key = (row.settings, row.shots, row.mu, row.eta, row.method, row.metric)
            groups.setdefault(key, []).append((row.trial, row.value))

    aggregated = []
    for key in sorted(groups):
        settings, shots, mu, eta, method, metric = key
        values = [value for _, value in sorted(groups[key])]
        base = dict(
            scenario=sc.kind,
            trial=AGGREGATE_TRIAL,
            settings=settings,
            shots=shots,
            mu=mu,
            eta=eta,
            method=method,
        )
        if metric == "mse-rand":
            # Per-trial rows already hold squared errors averaged over
            # the random observable set.
            mean = float(np.mean(values))
            if len(values) > 1:
                err = float(np.std(values, ddof=1) / np.sqrt(len(values)))
            else:
                err = 0.0
            aggregated.append(ResultRow(metric="mse-rand", value=mean, **base))
            aggregated.append(ResultRow(metric="mse-rand-se", value=err, **base))
            continue
        index = int(metric.rsplit("-", 1)[1])
        if len(values) < 2:
            continue
        mse = empirical_mse(values, ctx.truths[index])
        label = "mse" if sc.kind == "theorem1" else f"mse-{index}"
        aggregated.append(ResultRow(metric=label, value=mse.value, **base))
        aggregated.append(ResultRow(metric=f"{label}-se", value=mse.std_error, **base))

    if sc.kind == "theorem1":
        stream = RngStream(sc.seed, (AUX_STREAM_INDEX, 1))
        for shots in sc.l_grid:
            settings = sc.m_grid[0]
            predicted = mse_theorem1(
                ctx.state,
                ctx.observables[0],
                GlobalHaar(sc.dim),
                settings,
                shots,
                sc.ensemble_samples,
                stream,
            )
            base = dict(
                scenario=sc.kind,
                trial=AGGREGATE_TRIAL,
                settings=settings,
                shots=shots,
                mu=0.0,
                eta=0.0,
                method="CS",
            )
            aggregated.append(ResultRow(metric="mse-theory", value=predicted.value, **base))
            aggregated.append(
                ResultRow(metric="mse-theory-se", value=predicted.std_error, **base)
            )
    return aggregated


def _largest_system(scenario: Scenario) -> int:
    """Order of the largest linear system any grid point's average solves:
    M*D on the Gram route, D^2 where the frame is formed, none for CS."""
    dim = scenario.dim
    return max(
        {"channel": 0, "gram": settings * dim, "frame": dim * dim}[
            solve_route(method, settings, dim)
        ]
        for method in _methods_for(scenario)
        for _, settings_grid in _shot_plan(scenario)
        for settings in settings_grid
    )


def run_scenario(
    scenario: Scenario,
    *,
    workers: int = 1,
    force: bool = False,
    dump_records_path=None,
    load_records_path=None,
) -> list[ResultRow]:
    """Run all trials of a scenario and return its result rows.

    Rows comprise per-trial metrics plus trial-aggregated MSE rows
    (marked with trial index -1). Worker count affects scheduling only;
    the rows are identical for any value.
    """
    scenario.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    order = _largest_system(scenario)
    if order > MAX_ORDER_WITHOUT_FORCE and not force:
        raise ValueError(
            f"resource-guard: {scenario.qubits} qubits needs a dense {order}x{order} "
            f"linear system; pass force=True (--force) to accept the memory cost"
        )
    ctx = _build_context(scenario)

    records_override = None
    if load_records_path is not None:
        if scenario.kind in ("multishot", "theorem1", "mismatch"):
            raise ValueError(
                f"load-records is not supported for the {scenario.kind} family "
                f"(records vary within a trial)"
            )
        if scenario.trials != 1:
            raise ValueError("load-records requires exactly one trial")
        records_override, _ = load_records(load_records_path)
        if records_override.dim != scenario.dim:
            raise ValueError(
                f"dim-mismatch: loaded records have dim {records_override.dim}, "
                f"scenario needs {scenario.dim}"
            )
        if len(records_override) < max(scenario.m_grid):
            raise ValueError(
                f"loaded file has {len(records_override)} records, "
                f"m-grid needs {max(scenario.m_grid)}"
            )
        if records_override.shots != scenario.l_grid[0]:
            raise ValueError(
                f"loaded records have {records_override.shots} shots, "
                f"scenario l-grid starts at {scenario.l_grid[0]}"
            )

    if workers == 1 or scenario.trials == 1:
        per_trial = [
            _run_trial(ctx, trial, records_override) for trial in range(scenario.trials)
        ]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_trial = list(
                pool.map(
                    lambda trial: _run_trial(ctx, trial, records_override),
                    range(scenario.trials),
                )
            )

    rows: list[ResultRow] = []
    for trial_rows in per_trial:
        rows.extend(trial_rows)
    rows.extend(_aggregate_rows(ctx, rows))

    if dump_records_path is not None:
        shots, settings_grid = _shot_plan(scenario)[0]
        ensemble = _make_ensemble(scenario, scenario.eta_grid[0])
        plan = MeasurementPlan(settings_grid[-1], shots, ensemble)
        trial_zero = run_plan(ctx.state, plan, RngStream(scenario.seed, (0, 0)))
        dump_records(trial_zero, dump_records_path, seed=scenario.seed)
    return rows


def _format_value(value: float) -> str:
    return format(value, ".17g")


def emit_csv(rows: Sequence[ResultRow], path) -> None:
    """Write rows as UTF-8 CSV with a byte-stable ordering.

    Floats carry 17 significant digits (lossless for doubles); rows are
    sorted by (trial, M, L, method, metric) with mu and eta breaking
    ties, so reruns of the same configuration diff byte-identically.
    """
    ordered = sorted(
        rows,
        key=lambda row: (
            row.trial,
            row.settings,
            row.shots,
            row.method,
            row.metric,
            row.mu,
            row.eta,
        ),
    )
    lines = [CSV_HEADER]
    for row in ordered:
        lines.append(
            f"{row.scenario},{row.trial},{row.settings},{row.shots},"
            f"{_format_value(row.mu)},{_format_value(row.eta)},"
            f"{row.method},{row.metric},{_format_value(row.value)}"
        )
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as error:
        raise RuntimeError(f"failed to write CSV to {path}: {error}") from error


def load_scenario_config(path) -> dict:
    """Read a scenario config dict from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"scenario config {path} must hold a JSON object")
    return data


def scenario_with_overrides(base: Scenario, **overrides) -> Scenario:
    """Apply non-None overrides onto a base scenario."""
    cleaned = {key: value for key, value in overrides.items() if value is not None}
    return replace(base, **cleaned)
