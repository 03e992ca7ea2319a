"""Experiment scenarios: configurable studies emitted as CSV rows.

Each scenario family reproduces one of the study designs at desk scale:
LS double descent over a measurement-count grid, the ridge-weight
sweep, RLS-versus-CS comparisons (including log-likelihood of the
physically projected estimates), Haar-random observables, ensemble
mismatch, multishot reallocation at fixed state-copy budget, and the
multishot MSE formula cross-check. ``FAMILIES`` holds everything that
sets one family apart from the others.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Sequence

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
    open_overwrite,
    sample_sphere_vector,
)
from .estimators import (
    CS,
    LS,
    RLS,
    FramePrefix,
    ShadowMethod,
    average_estimate,
    shadow_map,
    solve_route,
)
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

# A scenario needs an explicit opt-in when some grid point solves a dense
# system of larger order than the frame operator at 7 qubits: the frame
# is D^2 x D^2, real and symmetric (32 GiB at n = 8), and the Gram route's
# system is M*D x M*D. It needs one too when a plan entry samples more
# setting-unitary entries M*D^2 than that frame holds (2 GiB complex).
MAX_ORDER_WITHOUT_FORCE = 4**7
MAX_UNITARY_ENTRIES_WITHOUT_FORCE = 2**27

# Trials are sampled and processed in chunks of at most this many
# setting-unitary entries M*D^2 of one draw (one trial, when a trial alone
# draws more): 2048 settings at D = 4, 512 at D = 8, 32 at D = 32. So a
# chunk of several trials holds at most 512 KiB of sampled unitaries.
TRIAL_CHUNK_ENTRIES = 2048 * 4**2

# A theory family computes its theorem-1 Monte Carlo in a forked child
# beside the trials only when the trials draw at least this many settings
# (trials * largest M) and the Monte Carlo at least this many unitaries
# (ensemble samples * plan entries). On 2 vCPUs a fork with its pipe and
# join costs 7-12 ms, against about 50 us per trial setting and 3 us per
# Haar draw at D = 4: a theorem1 run of 2 trials of 16 settings ran about
# 10 ms slower forked, and theorem1-d4 (1,600 settings, 30,000 draws)
# about a quarter faster.
THEORY_FORK_DRAWS = 1024

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
        """Raise a ValueError naming the field unless every grid point
        of this scenario can run."""
        for f in fields(self):
            _coerce(f.name, getattr(self, f.name), f.default)
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.qubits < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.qubits}")
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name, grid in (
            ("m-grid", self.m_grid),
            ("l-grid", self.l_grid),
            ("mu-grid", self.mu_grid),
            ("eta-grid", self.eta_grid),
            ("observables", self.observables),
        ):
            if len(grid) == 0:
                raise ValueError(f"{name} must not be empty")
            # Repeated m-grid entries are merged; any other repeat would
            # emit its rows twice and count its trials twice.
            if name != "m-grid" and len(set(grid)) < len(grid):
                raise ValueError(f"{name} has repeated entries: {list(grid)}")
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
        if not set(self.observables) <= {0, 1, 2}:
            raise ValueError("observables must be a subset of {0, 1, 2}")
        if self.random_observables < 1:
            raise ValueError("random observable count must be >= 1")
        if self.ensemble_samples < 2:
            raise ValueError("ensemble sample count must be >= 2")
        FAMILIES[self.kind].plan(self)  # refuses multishot budgets no l-grid value divides

    @property
    def dim(self) -> int:
        return 2**self.qubits

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """A scenario from JSON-style data: lists become tuples and
        integers widen to floats; any other type mismatch raises a
        ValueError naming the field."""
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValueError(f"unknown scenario config keys: {sorted(unknown)}")
        if "kind" not in data:
            raise ValueError("scenario config needs a kind")
        return cls(**{key: _coerce(key, value, defaults[key]) for key, value in data.items()})

    def to_dict(self) -> dict:
        return asdict(self)


def _coerce(name: str, value, default):
    """``value`` as the type of field ``name``, read from its ``default``
    (a string where there is none): lists become tuples, and integers of
    any type become ``int``, or ``float`` for a float field."""
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)):
            return tuple(_coerce(name, item, default[0]) for item in value)
        expected = "a list"
    else:
        wanted = str if default is MISSING else type(default)
        accepted = {int: numbers.Integral, float: numbers.Real}.get(wanted, wanted)
        if isinstance(value, accepted) and not isinstance(value, bool):
            return wanted(value)
        expected = wanted.__name__
    raise ValueError(f"{name} must be {expected}, got {value!r}")


def _settings_plan(scenario: Scenario) -> list[tuple[int, tuple[int, ...]]]:
    """One settings grid at the first l-grid value."""
    return [(scenario.l_grid[0], tuple(sorted(set(scenario.m_grid))))]


def _budget_plan(scenario: Scenario) -> list[tuple[int, tuple[int, ...]]]:
    """The m-grid lists total copy budgets M*L; entries not divisible by
    a given L are skipped for that L."""
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


def _fixed_settings_plan(scenario: Scenario) -> list[tuple[int, tuple[int, ...]]]:
    """The first m-grid value at every l-grid value."""
    return [(shots, (scenario.m_grid[0],)) for shots in scenario.l_grid]


def _rls_and_cs(scenario: Scenario) -> tuple[ShadowMethod, ...]:
    return (RLS(scenario.mu_grid[0]), CS())


@dataclass(frozen=True)
class Family:
    """Everything that sets one scenario family apart from the others.

    ``methods`` gives a scenario's estimators and ``plan`` the
    (shots, ascending settings grid) pairs each trial runs. ``metrics``
    lists the per-trial metrics besides ``lambda-hat-i``, whose
    observables ``lambdas`` picks: "configured", "first" or "none".
    An ``eta_sweep`` family samples ``HaarMixture`` at every eta-grid
    value, the others ``GlobalHaar`` at eta 0. ``mse_label`` names the
    aggregated MSE of observable i, and ``theory`` adds the theorem-1
    prediction rows. Only a ``replayable`` family takes
    ``--load-records``. ``defaults`` are its desk-scale Scenario fields.
    """

    methods: Callable[[Scenario], tuple[ShadowMethod, ...]]
    plan: Callable[[Scenario], list[tuple[int, tuple[int, ...]]]]
    metrics: tuple[str, ...] = ()
    lambdas: str = "configured"
    eta_sweep: bool = False
    mse_label: str = "mse-{i}"
    theory: bool = False
    replayable: bool = False
    defaults: dict = field(default_factory=dict)

    def ensembles(self, scenario: Scenario) -> list[tuple[float, object]]:
        """(eta, ensemble) pairs each trial samples, in eta-grid order."""
        if self.eta_sweep:
            return [(eta, HaarMixture(scenario.qubits, eta)) for eta in scenario.eta_grid]
        return [(0.0, GlobalHaar(scenario.dim))]


# Desk-scale defaults use n = 3 for CI speed; pass --qubits 5 for the
# full-scale configurations.
FAMILIES: dict[str, Family] = {
    "double-descent": Family(
        methods=lambda scenario: (LS(),), plan=_settings_plan, replayable=True,
        metrics=("frobenius-error", "eig-pos", "eig-neg", "trace"),
    ),
    "mu-sweep": Family(
        methods=lambda scenario: tuple(RLS(mu) for mu in scenario.mu_grid),
        plan=_settings_plan, replayable=True, metrics=("frobenius-error",),
        defaults=dict(mu_grid=(0.01, 0.1, 1.0)),
    ),
    "rls-vs-cs": Family(
        methods=_rls_and_cs, plan=_settings_plan, replayable=True,
        metrics=("frobenius-error", "eig-pos", "eig-neg", "trace", "loglik"),
    ),
    "random-obs": Family(
        methods=_rls_and_cs, plan=_settings_plan, replayable=True,
        metrics=("mse-rand",), lambdas="none",
    ),
    "mismatch": Family(
        methods=_rls_and_cs, plan=_settings_plan, eta_sweep=True,
        defaults=dict(trials=100, m_grid=(256,), eta_grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),
    ),
    "multishot": Family(
        methods=_rls_and_cs, plan=_budget_plan, metrics=("mse-rand",),
        defaults=dict(trials=100, m_grid=(64, 128, 256, 512, 1024, 2048, 4096), l_grid=(1, 8, 64)),
    ),
    "theorem1": Family(
        methods=lambda scenario: (CS(),), plan=_fixed_settings_plan,
        lambdas="first", mse_label="mse", theory=True,
        defaults=dict(qubits=2, trials=10000, m_grid=(16,), l_grid=(1, 4, 16)),
    ),
}

SCENARIO_KINDS = tuple(FAMILIES)


def default_scenario(kind: str) -> Scenario:
    """The family's desk-scale defaults."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return Scenario(kind=kind, **FAMILIES[kind].defaults)


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
    family: Family
    state: DensityMatrix
    observables: tuple[Observable, ...]
    truths: tuple[float, ...]
    methods: tuple[ShadowMethod, ...]
    plan: list[tuple[int, tuple[int, ...]]]
    lambda_indices: tuple[int, ...]
    random_vectors: np.ndarray | None = None  # (D, J) columns on the sphere
    random_truths: np.ndarray | None = None


def _build_context(scenario: Scenario) -> _Context:
    family = FAMILIES[scenario.kind]
    state, observables = canonical_state_and_observables(scenario.qubits)
    truths = tuple(expectation(obs, state) for obs in observables)

    random_vectors = None
    random_truths = None
    if "mse-rand" in family.metrics:
        stream = RngStream(scenario.seed, (AUX_STREAM_INDEX, 0))
        columns = [
            sample_sphere_vector(scenario.dim, stream)
            for _ in range(scenario.random_observables)
        ]
        random_vectors = np.stack(columns, axis=1)
        # Ground truth tr(phi phi† rho) against rho = |0><0|.
        random_truths = np.abs(random_vectors[0, :]) ** 2

    lambda_indices = {"configured": scenario.observables, "first": (0,), "none": ()}
    return _Context(
        scenario=scenario,
        family=family,
        state=state,
        observables=observables,
        truths=truths,
        methods=family.methods(scenario),
        plan=family.plan(scenario),
        lambda_indices=lambda_indices[family.lambdas],
        random_vectors=random_vectors,
        random_truths=random_truths,
    )


def _metric_rows(
    ctx: _Context,
    trials: range,
    settings: int,
    shots: int,
    eta: float,
    method: ShadowMethod,
    estimates: np.ndarray,
    records: list[RecordStack],
) -> list[list[ResultRow]]:
    """The rows of one grid point for each trial of a chunk, from its
    estimate in the (T, D, D) ``estimates`` and its records."""
    metrics = ctx.family.metrics
    values = {}  # metric -> one value per trial
    if "frobenius-error" in metrics:
        values["frobenius-error"] = [frobenius_error(matrix, ctx.state) for matrix in estimates]
    if "eig-pos" in metrics:
        values["eig-pos"], values["eig-neg"] = zip(*map(eigenvalue_split, estimates))
    if "trace" in metrics:
        values["trace"] = [float(matrix.trace().real) for matrix in estimates]
    for i in ctx.lambda_indices:
        values[f"lambda-hat-{i}"] = expectation(ctx.observables[i], estimates).tolist()
    if "mse-rand" in metrics:
        vectors = ctx.random_vectors
        values["mse-rand"] = [
            float(np.mean((lam_hat.real - ctx.random_truths) ** 2))
            for lam_hat in (
                np.einsum("aj,ab,bj->j", vectors.conj(), matrix, vectors) for matrix in estimates
            )
        ]
    if "loglik" in metrics:
        values["loglik"] = [
            log_likelihood(measured, project_physical(matrix)).value
            for matrix, measured in zip(estimates, records)
        ]
    point = (settings, shots, getattr(method, "mu", 0.0), eta, type(method).__name__)
    return [
        [ResultRow(ctx.scenario.kind, trial, *point, metric, column[index])
         for metric, column in values.items()]
        for index, trial in enumerate(trials)
    ]


def _trial_chunks(ctx: _Context) -> list[range]:
    """Consecutive ranges of trials, as many per chunk as fit in
    TRIAL_CHUNK_ENTRIES unitary entries of one draw, and at least one."""
    per_trial = max(grid[-1] for _, grid in ctx.plan) * ctx.scenario.dim**2
    size = max(1, TRIAL_CHUNK_ENTRIES // per_trial)
    trials = ctx.scenario.trials
    return [range(start, min(start + size, trials)) for start in range(0, trials, size)]


def _trial_records(
    ctx: _Context, trials: range, ensemble, records_override: RecordStack | None
) -> list[list[RecordStack]]:
    """The records each of ``trials`` measures on ``ensemble``, one stack
    per plan entry holding its largest M: sampled for the whole chunk in
    one call, or cut from the loaded stack."""
    if records_override is not None:
        return [[records_override[:grid[-1]] for _, grid in ctx.plan] for _ in trials]
    # One call for every shot count: each setting is drawn once and
    # feeds the counts of every plan entry that holds it.
    plans = [MeasurementPlan(grid[-1], shots, ensemble) for shots, grid in ctx.plan]
    streams = [RngStream(ctx.scenario.seed, (trial, 0)) for trial in trials]
    return run_plan(ctx.state, plans, streams)


def _run_chunk(
    ctx: _Context, trials: range, records_override: RecordStack | None = None
) -> list[ResultRow]:
    """The rows of a chunk of trials, trial by trial, each in the order a
    run of that trial alone gives. Sampling, adjoint sums, CS estimates
    and lambda-hat values are computed for the chunk at once; LS and RLS
    solve each trial's frame or Gram systems on its own."""
    rows_of: list[list[ResultRow]] = [[] for _ in trials]
    solved = [method for method in ctx.methods if not isinstance(method, CS)]
    for eta, ensemble in ctx.family.ensembles(ctx.scenario):
        chunk = _trial_records(ctx, trials, ensemble, records_override)
        for entry, (shots, settings_grid) in enumerate(ctx.plan):
            stacks = [records[entry] for records in chunk]
            means = _prefix_adjoint_sums(stacks, settings_grid)
            for point, settings in enumerate(settings_grid):
                means[:, point] /= settings
            solutions = _solve_trials(solved, stacks, means, settings_grid)
            for point, settings in enumerate(settings_grid):
                measured = [records[:settings] for records in stacks]
                for method in ctx.methods:
                    if isinstance(method, CS):
                        estimates = shadow_map(method, means[:, point])
                        matrices = np.stack([estimate.matrix for estimate in estimates])
                    else:
                        matrices = solutions[method][:, point]
                    point_rows = _metric_rows(
                        ctx, trials, settings, shots, eta, method, matrices, measured
                    )
                    for rows, trial_rows in zip(rows_of, point_rows):
                        rows.extend(trial_rows)
    return [row for rows in rows_of for row in rows]


def _solve_trials(methods, stacks: list[RecordStack], means: np.ndarray, settings_grid):
    """For each LS or RLS method, the (T, G, D, D) estimates of each of
    T stacks at each M of the G-point grid, from their (T, G, D, D) mean
    adjoints. A trial's frames are built, used across its grid and
    dropped before the next trial's are built, so the D^2 x D^2 frame
    and eigensystem of one trial at a time are alive."""
    solutions = {method: np.empty_like(means) for method in methods}
    for trial, records in enumerate(stacks):
        frames = FramePrefix(records.unitaries, records.shots)
        for point, settings in enumerate(settings_grid):
            for method in methods:
                estimate = average_estimate(method, records[:settings], means[trial, point], frames)
                solutions[method][trial, point] = estimate.matrix
        del frames
    return solutions


def _prefix_adjoint_sums(stacks: list[RecordStack], settings_grid) -> np.ndarray:
    """(T, G, D, D): for each of T equally long stacks and each M of the
    G-point grid, the sum of the adjoints of its first M settings, added
    one at a time in setting order, so every sum has the same bits for
    any grid and any chunk. The adjoints are made PLAN_BLOCK settings at
    a time for all stacks at once."""
    dim = stacks[0].dim
    sums = np.empty((len(stacks), len(settings_grid), dim, dim), dtype=complex)
    partial_sums = np.zeros((len(stacks), dim, dim), dtype=complex)
    for start in range(0, settings_grid[-1], PLAN_BLOCK):
        stop = min(start + PLAN_BLOCK, settings_grid[-1])
        blocks = [records[start:stop] for records in stacks]
        adjoints = adjoint_map(
            np.stack([block.unitaries for block in blocks]),
            np.stack([block.frequencies for block in blocks]),
        )
        adjoints[:, 0] += partial_sums
        np.add.accumulate(adjoints, axis=1, out=adjoints)
        for point, settings in enumerate(settings_grid):
            if start < settings <= stop:
                sums[:, point] = adjoints[:, settings - start - 1]
        partial_sums = adjoints[:, -1]
    return sums


def _aggregate_rows(ctx: _Context, rows: list[ResultRow]) -> list[ResultRow]:
    """Trial-aggregated MSE rows (trial index -1)."""
    groups: dict[tuple, list[tuple[int, float]]] = {}
    for row in rows:
        if row.metric.startswith("lambda-hat-") or row.metric == "mse-rand":
            key = (row.settings, row.shots, row.mu, row.eta, row.method, row.metric)
            groups.setdefault(key, []).append((row.trial, row.value))

    stats: list[tuple[tuple, str, float]] = []  # (grid point, metric, value)
    for key in sorted(groups):
        *point, metric = key
        values = [value for _, value in sorted(groups[key])]
        if metric == "mse-rand":
            # Per-trial rows already hold squared errors averaged over
            # the random observable set.
            err = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
            stats += [(point, "mse-rand", float(np.mean(values))), (point, "mse-rand-se", err)]
        elif len(values) > 1:
            index = int(metric.rsplit("-", 1)[1])
            mse = empirical_mse(values, ctx.truths[index])
            label = ctx.family.mse_label.format(i=index)
            stats += [(point, label, mse.value), (point, f"{label}-se", mse.std_error)]
    return [ResultRow(ctx.scenario.kind, AGGREGATE_TRIAL, *point, metric, value)
            for point, metric, value in stats]


def _theory_rows(ctx: _Context) -> list[ResultRow]:
    """The semi-analytic theorem-1 MSE rows (with standard errors) of a
    theory family, from the stream (AUX, 1), which no trial draws from."""
    if not ctx.family.theory:
        return []
    sc, rows = ctx.scenario, []
    stream = RngStream(sc.seed, (AUX_STREAM_INDEX, 1))
    for shots, (settings,) in ctx.plan:
        predicted = mse_theorem1(ctx.state, ctx.observables[0], GlobalHaar(sc.dim),
                                 settings, shots, sc.ensemble_samples, stream)
        point = (sc.kind, AGGREGATE_TRIAL, settings, shots, 0.0, 0.0, "CS")
        rows += [ResultRow(*point, "mse-theory", predicted.value),
                 ResultRow(*point, "mse-theory-se", predicted.std_error)]
    return rows


@contextlib.contextmanager
def _theory_beside_trials(ctx: _Context):
    """Yield a function returning ``_theory_rows(ctx)``. A family with
    theory rows, whose trials and Monte Carlo both reach THEORY_FORK_DRAWS,
    on a platform with the fork start method and two or more usable CPUs,
    forks one child that computes them while the caller runs the trials;
    the function then waits for the child's rows or raises its exception.
    The child is terminated if the caller raises, and joined in any case,
    so it never outlives the block. Otherwise the function computes the
    rows when called."""
    sc = ctx.scenario
    settings = sc.trials * max(grid[-1] for _, grid in ctx.plan)
    draws = sc.ensemble_samples * len(ctx.plan)
    usable_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if not (ctx.family.theory and min(settings, draws) >= THEORY_FORK_DRAWS
            and usable_cpus >= 2):
        yield lambda: _theory_rows(ctx)
        return
    import multiprocessing

    # Not spawn: a fresh interpreter imports numpy and the package
    # (about 0.2 s), more than the Monte Carlo takes at desk scale. A
    # daemonic process may not start children.
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        yield lambda: _theory_rows(ctx)
        return
    context = multiprocessing.get_context("fork")

    def send(sender):
        try:
            message = (False, _theory_rows(ctx))
        except Exception as error:
            message = (True, error)
        sender.send(message)

    def receive() -> list[ResultRow]:
        try:
            failed, payload = receiver.recv()
        except EOFError:
            child.join()
            raise RuntimeError(f"theorem-1 process exited with code {child.exitcode} "
                               f"before sending its rows") from None
        if failed:
            raise payload
        return payload

    receiver, sender = context.Pipe(duplex=False)
    with receiver:
        with sender:  # the child keeps its own copy of the sending end
            child = context.Process(target=send, args=(sender,))
            child.start()
        try:
            yield receive
        except BaseException:
            child.terminate()
            raise
        finally:
            child.join()


def _resource_guard(scenario: Scenario) -> None:
    """Refuse a scenario whose largest dense linear system (M*D on the
    Gram route, D^2 where the frame is formed, none for CS) or largest
    sampled plan entry (M*D^2 unitary entries) exceeds its bound."""
    dim, family = scenario.dim, FAMILIES[scenario.kind]
    plan = family.plan(scenario)
    order = max(
        {"channel": 0, "gram": settings * dim, "frame": dim * dim}[
            solve_route(method, settings, dim)
        ]
        for _, grid in plan for settings in grid for method in family.methods(scenario)
    )
    entries = dim * dim * max(grid[-1] for _, grid in plan)
    if order > MAX_ORDER_WITHOUT_FORCE or entries > MAX_UNITARY_ENTRIES_WITHOUT_FORCE:
        raise ValueError(
            f"resource-guard: {scenario.qubits} qubits needs a linear system of order {order} "
            f"(bound {MAX_ORDER_WITHOUT_FORCE}) and {entries} sampled unitary entries M*D^2 "
            f"(bound {MAX_UNITARY_ENTRIES_WITHOUT_FORCE}); force=True (--force) accepts the cost"
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
    (marked with trial index -1). Trials run in order in the calling
    thread, in chunks of consecutive trials that draw at most
    TRIAL_CHUNK_ENTRIES unitary entries M*D^2 together (one trial when
    it draws more); every setting keeps its stream (seed, (trial, m)), so the rows
    are the same for any chunking. A theory family computes its
    theorem-1 rows in one forked child while the trials run, when both
    are large enough to pay for the fork (THEORY_FORK_DRAWS), the
    platform has the fork start method and two or more CPUs are usable;
    the child is joined before this returns or raises, and its exception
    is raised here. ``workers`` must be >= 1 but has no effect: the rows
    are the same either way, and trial chunks stay serial, because worker
    processes with one BLAS thread change CSV bytes and with the
    caller's BLAS threads they oversubscribe the CPUs.
    ``dump_records_path`` receives the records trial 0 measured at the
    first plan entry (first L, first eta) at its largest M: on a replay
    the loaded ones, under the loaded file's seed.
    """
    scenario.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not force:
        _resource_guard(scenario)
    ctx = _build_context(scenario)

    records_override = None
    dump_seed = scenario.seed
    if load_records_path is not None:
        if not ctx.family.replayable:
            raise ValueError(
                f"load-records is not supported for the {scenario.kind} family "
                f"(records vary within a trial)"
            )
        if scenario.trials != 1:
            raise ValueError("load-records requires exactly one trial")
        records_override, dump_seed = load_records(load_records_path)
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

    rows: list[ResultRow] = []
    with _theory_beside_trials(ctx) as theory_rows:
        for trials in _trial_chunks(ctx):
            rows.extend(_run_chunk(ctx, trials, records_override))
        rows.extend(_aggregate_rows(ctx, rows))
        rows.extend(theory_rows())

    if dump_records_path is not None:
        _, ensemble = ctx.family.ensembles(scenario)[0]
        trial_zero = _trial_records(ctx, range(1), ensemble, records_override)[0][0]
        dump_records(trial_zero, dump_records_path, seed=dump_seed)
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
        with open_overwrite(path) as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as error:
        raise RuntimeError(f"failed to write CSV to {path}: {error}") from error

