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
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    DensityMatrix,
    Observable,
    ObservedOutcomes,
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
    as_integer,
    open_overwrite,
    sample_sphere_vector,
    stream_generators,
)
from .estimators import (
    CS,
    LS,
    RLS,
    FramePrefix,
    ShadowMethod,
    gram_ridge_solve,
    shadow_map,
    solve_route,
)
from .measurement import (
    MAX_SHOTS,
    MeasurementPlan,
    RecordStack,
    _block_width,
    _write_records,
    adjoint_map,
    load_records,
    plan_blocks,
    trial_groups,
)
from .theory import empirical_mse, mse_theorem1

# A scenario needs an explicit opt-in when a grid point solves a dense system
# of larger order than the 6-qubit frame (the real D^2 x D^2 frame, or the
# M*D x M*D Gram system): at order 4^7 a frame's sum and syrk products take
# 2 GiB each and a Gram product 4 GiB, which crashed an 8 GiB machine. So does
# a trial's sampling block or observed-outcome store of more than 2^27 entries.
MAX_ORDER_WITHOUT_FORCE = 4**6
MAX_UNITARY_ENTRIES_WITHOUT_FORCE = 2**27

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

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _coerce(f.name, getattr(self, f.name), f.default))

    def validate(self) -> None:
        """Raise a ValueError naming the field unless every grid point
        of this scenario can run."""
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
        if max(self.m_grid) > 2**32:  # setting m draws from the 32-bit stream key m
            raise ValueError(f"m-grid entries must be <= 2^32, got {max(self.m_grid)}")
        if max(self.l_grid) > MAX_SHOTS:
            raise ValueError(f"l-grid entries must be <= 2^63 - 1, got {max(self.l_grid)}")
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
        """The family's :func:`default_scenario` with the fields of
        JSON-style ``data`` over it, converted as the constructor does."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown scenario config keys: {sorted(unknown)}")
        if "kind" not in data:
            raise ValueError("scenario config needs a kind")
        return replace(default_scenario(data["kind"]), **data)

    def to_dict(self) -> dict:
        return asdict(self)


def _coerce(name: str, value, default):
    """``value`` as the type of field ``name``, read from its ``default``
    (a string where there is none): lists become tuples, and integers of
    any type become ``int``, or ``float`` for a float field, where -0.0
    becomes 0.0 (the same run, so the same CSV bytes)."""
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)):
            return tuple(_coerce(name, item, default[0]) for item in value)
        expected = "a list"
    else:
        wanted = str if default is MISSING else type(default)
        accepted = {int: numbers.Integral, float: numbers.Real}.get(wanted, wanted)
        if isinstance(value, accepted) and not isinstance(value, bool):
            return wanted(value) + 0.0 if wanted is float else wanted(value)
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
    value, the others ``GlobalHaar`` at eta 0. A ``theory`` family adds
    the theorem-1 prediction rows and names the aggregated MSE of its
    one observable ``mse``; the others name that of observable i
    ``mse-i``. Only a ``replayable`` family takes
    ``--load-records``. ``defaults`` are its desk-scale Scenario fields.
    """

    methods: Callable[[Scenario], tuple[ShadowMethod, ...]]
    plan: Callable[[Scenario], list[tuple[int, tuple[int, ...]]]]
    metrics: tuple[str, ...] = ()
    lambdas: str = "configured"
    eta_sweep: bool = False
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
        lambdas="first", theory=True,
        defaults=dict(qubits=2, trials=10000, m_grid=(16,), l_grid=(1, 4, 16)),
    ),
}

SCENARIO_KINDS = tuple(FAMILIES)


def default_scenario(kind: str) -> Scenario:
    """The family's desk-scale defaults."""
    if kind not in SCENARIO_KINDS:
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
        (generator,) = stream_generators(scenario.seed, [AUX_STREAM_INDEX], [0])
        random_vectors = np.empty((scenario.dim, scenario.random_observables), dtype=complex)
        for column in random_vectors.T:
            column[...] = sample_sphere_vector(scenario.dim, generator)
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


def _metric_values(
    ctx: _Context, estimates: np.ndarray, outcomes: list[ObservedOutcomes] | None
) -> dict[str, list[float]]:
    """Each metric's per-trial values at one grid point, in the order of a
    trial's rows, from the (T, D, D) ``estimates`` of T trials; ``loglik``
    reads the observed ``outcomes`` of each trial's settings up to the
    point."""
    metrics = ctx.family.metrics
    values = {}
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
            log_likelihood(observed, project_physical(matrix)).value
            for matrix, observed in zip(estimates, outcomes)
        ]
    return values


def _observed_rows(settings: int, shots: int, dim: int) -> int:
    """A loglik store's rows: M settings of L shots observe M*min(L, D) outcomes at most."""
    return settings * min(shots, dim)


class _EntryStream:
    """One plan entry (shots, settings grid) at one eta of one trial
    group, fed by :func:`_run_chunk` the segments of the group's blocks
    in setting order, that finishes each grid point where the stream
    reaches it. A segment adds its adjoints to running sums one setting
    at a time (so a mean adjoint has the same bits for any grid, block
    and group) and, for loglik, its observed outcomes to a store. At a
    point CS maps the mean adjoint, LS and RLS solve on the route
    :func:`solve_route` names, Gram (M <= D, in the first block, which
    holds the first D settings) or frame, from the trial's shared
    FramePrefix at L shots, and the metric columns go to ``columns``."""

    def __init__(self, ctx: _Context, trials: int, eta: float, shots: int, grid: tuple[int, ...]):
        dim = ctx.scenario.dim
        self.ctx, self.eta, self.shots, self.grid = ctx, eta, shots, grid
        self.columns: dict[tuple, list[float]] = {}
        self.loglik = "loglik" in ctx.family.metrics
        rows = _observed_rows(grid[-1], shots, dim) if self.loglik else 0
        self._rows = np.empty((trials, rows, dim), dtype=complex)
        self._counts = np.empty((trials, rows), dtype=np.int64)
        self._filled = np.zeros(trials, dtype=np.intp)
        self._sum = np.zeros((trials, dim, dim), dtype=complex)

    def feed(self, start: int, first: int, stop: int, unitaries: np.ndarray, counts: np.ndarray,
             frames: list[FramePrefix]) -> None:
        """Take segment first..stop of a block: the (T, W, D, D) ``unitaries`` of settings
        start.., of which the entry holds the first R >= stop, and their (T, R, D) ``counts``."""
        segment, hits = unitaries[:, first:stop], counts[:, first:stop]
        adjoints = adjoint_map(segment, hits / self.shots)
        adjoints[:, 0] += self._sum
        np.add.accumulate(adjoints, axis=1, out=adjoints)
        self._sum = adjoints[:, -1].copy()
        del adjoints  # not held through a frame's syrk
        for trial, seen in enumerate(hits > 0 if self.loglik else ()):
            filled = self._filled[trial]
            self._filled[trial] += seen.sum()
            self._rows[trial, filled:self._filled[trial]] = segment[trial][seen]
            self._counts[trial, filled:self._filled[trial]] = hits[trial][seen]
        if start + stop in self.grid:
            self._finish(start + stop, unitaries, counts, frames)

    def _finish(self, settings: int, unitaries: np.ndarray, counts: np.ndarray,
                frames: list[FramePrefix]) -> None:
        """Write every method's metric columns at grid point ``settings``,
        the last setting fed, from the first block on the Gram route."""
        ctx = self.ctx
        means = self._sum / settings
        routes = {method: solve_route(method, settings, ctx.scenario.dim) for method in ctx.methods}
        solved = {method: np.empty_like(means)
                  for method, route in routes.items() if route != "channel"}
        for trial in range(len(means)) if solved else ():
            frame = frames[trial].frame(self.shots) if "frame" in routes.values() else None
            for method, out in solved.items():
                if routes[method] == "gram":
                    out[trial] = gram_ridge_solve(
                        unitaries[trial, :settings], counts[trial, :settings] / self.shots,
                        getattr(method, "mu", 0.0), self.shots)
                else:
                    out[trial] = shadow_map(method, means[trial], frame)
            del frame
        outcomes = [ObservedOutcomes(rows[:filled], hits[:filled], settings)
                    for rows, hits, filled in zip(self._rows, self._counts, self._filled)
                    ] if self.loglik else None
        for method in ctx.methods:
            estimates = solved[method] if method in solved else shadow_map(method, means)
            key = (settings, self.shots, getattr(method, "mu", 0.0), self.eta,
                   type(method).__name__)
            values = _metric_values(ctx, estimates, outcomes)
            self.columns.update(((*key, metric), column) for metric, column in values.items())


def _run_chunk(
    ctx: _Context, trials: range, records_override: RecordStack | None = None, dump=None
) -> dict[tuple, list[float]]:
    """The per-trial metric values of one trial group. Each key is a row
    key (M, L, mu, eta, method, metric), inserted in the order of one
    trial's rows, and its value holds one value per trial of ``trials``.
    Each eta's settings pass once, as the blocks of :func:`plan_blocks`
    (each setting drawn once for every shot count) or the loaded stack,
    cut at the union of the entries' grid points; each segment extends
    one FramePrefix per trial, shared by every entry, if a point is on the
    frame route, then feeds every entry's stream, and the entries' columns
    are merged in plan order. A ``dump`` handle takes the records of the
    first trial, eta and plan entry."""
    columns: dict[tuple, list[float]] = {}
    points = sorted({settings for _, grid in ctx.plan for settings in grid})
    framed = any(solve_route(method, points[-1], ctx.scenario.dim) == "frame"
                 for method in ctx.methods)
    for eta, ensemble in ctx.family.ensembles(ctx.scenario):
        entries = [_EntryStream(ctx, len(trials), eta, shots, grid) for shots, grid in ctx.plan]
        frames = [FramePrefix(ctx.scenario.dim) for _ in trials if framed]  # one for every L
        if records_override is None:
            plans = [MeasurementPlan(grid[-1], shots, ensemble) for shots, grid in ctx.plan]
            blocks = plan_blocks(ctx.state, plans, ctx.scenario.seed, trials)
        else:
            blocks = [(0, records_override.unitaries[None, :points[-1]],
                       [records_override.counts[None, :grid[-1]] for _, grid in ctx.plan])]
        for start, unitaries, counts in blocks:
            if dump is not None:
                _write_records(dump, unitaries[0, :counts[0].shape[1]], counts[0][0])
            width = unitaries.shape[1]
            stops = [settings - start for settings in points if start < settings < start + width]
            for first, stop in zip([0, *stops], [*stops, width]):
                for prefix, trial_unitaries in zip(frames, unitaries):
                    prefix.extend(trial_unitaries[first:stop])
                for entry, entry_counts in zip(entries, counts):
                    # An entry's last setting is a cut: it holds all of a segment or none.
                    if first < entry_counts.shape[1]:
                        entry.feed(start, first, stop, unitaries, entry_counts, frames)
        dump = None  # the records of the first eta only
        for entry in entries:
            columns.update(entry.columns)
    return columns


def _aggregate_rows(ctx: _Context, columns: dict[tuple, list[float]]) -> list[ResultRow]:
    """Trial-aggregated MSE rows (trial index -1), in row-key order, from
    the per-trial ``lambda-hat-i`` and ``mse-rand`` columns of a run."""
    observable = {f"lambda-hat-{i}": i for i in ctx.lambda_indices}
    stats: list[tuple[tuple, str, float]] = []  # (grid point, metric, value)
    for key in sorted(columns):
        *point, metric = key
        values = columns[key]
        if metric == "mse-rand":
            # Per-trial values already are squared errors averaged over
            # the random observable set.
            err = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
            stats += [(point, "mse-rand", float(np.mean(values))), (point, "mse-rand-se", err)]
        elif metric in observable and len(values) > 1:
            index = observable[metric]
            mse = empirical_mse(values, ctx.truths[index])
            label = "mse" if ctx.family.theory else f"mse-{index}"
            stats += [(point, label, mse.value), (point, f"{label}-se", mse.std_error)]
    return [ResultRow(ctx.scenario.kind, AGGREGATE_TRIAL, *point, metric, value)
            for point, metric, value in stats]


def _theory_rows(ctx: _Context) -> list[ResultRow]:
    """The semi-analytic theorem-1 MSE rows (with standard errors) of a
    theory family, from the stream (AUX, 1), which no trial draws from."""
    sc, rows = ctx.scenario, []
    (generator,) = stream_generators(sc.seed, [AUX_STREAM_INDEX], [1])
    for shots, (settings,) in ctx.plan:
        predicted = mse_theorem1(sc.dim, settings, shots, sc.ensemble_samples, generator)
        point = (sc.kind, AGGREGATE_TRIAL, settings, shots, 0.0, 0.0, "CS")
        rows += [ResultRow(*point, "mse-theory", predicted.value),
                 ResultRow(*point, "mse-theory-se", predicted.std_error)]
    return rows


@contextlib.contextmanager
def _theory_beside_trials(ctx: _Context):
    """Yield a function returning ``_theory_rows(ctx)``. A family with
    theory rows, in a process that can fork (the fork start method, not
    a daemonic process, two or more usable CPUs), forks one child that
    computes them while the caller runs the trials; the function then
    waits for the child's rows or raises its exception. The child is
    terminated if the caller raises, and joined in any case, so it never
    outlives the block. Otherwise the function computes the rows when
    called."""
    if not ctx.family.theory:
        yield lambda: []
        return
    import multiprocessing

    usable_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    # Not spawn: a fresh interpreter imports numpy and the package
    # (about 0.2 s), more than the Monte Carlo takes at desk scale. A
    # daemonic process may not start children, and on one usable CPU
    # the child only takes turns with the trials.
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or usable_cpus < 2):
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
    Gram route, D^2 where the frame is formed, none for CS) exceeds its
    bound, or whose largest array does: a trial's sampling block, its
    loglik outcome store, the mse-rand vector set or the theorem-1
    Monte Carlo's per-sample values."""
    dim, family = scenario.dim, FAMILIES[scenario.kind]
    plan = family.plan(scenario)
    order = max(
        {"channel": 0, "gram": settings * dim, "frame": dim * dim}[
            solve_route(method, settings, dim)
        ]
        for _, grid in plan for settings in grid for method in family.methods(scenario)
    )
    block = dim * dim * _block_width(max(grid[-1] for _, grid in plan), dim)
    store = (sum(_observed_rows(grid[-1], shots, dim) * dim for shots, grid in plan)
             if "loglik" in family.metrics else 0)
    vectors = dim * scenario.random_observables if "mse-rand" in family.metrics else 0
    samples = scenario.ensemble_samples if family.theory else 0
    if (order > MAX_ORDER_WITHOUT_FORCE
            or max(block, store, vectors, samples) > MAX_UNITARY_ENTRIES_WITHOUT_FORCE):
        raise ValueError(
            f"resource-guard: {scenario.qubits} qubits needs a linear system of order {order} "
            f"(bound {MAX_ORDER_WITHOUT_FORCE}), {block} sampled unitary entries per block, "
            f"{store} observed-outcome entries, {vectors} random-observable entries D*J and "
            f"{samples} ensemble_samples (bound {MAX_UNITARY_ENTRIES_WITHOUT_FORCE} each); "
            f"force=True (--force) accepts the cost"
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

    Per-trial rows come trial by trial, each trial's in one order of
    row keys (M, L, mu, eta, method, metric); then the trial-aggregated
    MSE rows (trial index -1) sorted by row key; then a theory family's
    theorem-1 rows (:func:`_theory_beside_trials`), whose forked child's
    exception is raised here.
    Trials run in order in the calling thread, one group of
    :func:`trial_groups` at a time (:func:`_run_chunk`), each one pass
    over its blocks of settings that finishes every grid point, metrics
    included, where the stream reaches it, so no trial's (M, D, D)
    unitaries, and no estimate of a point already passed, are held.
    Every setting keeps its stream (seed, (trial, m)), so the rows are
    the same for any grouping. ``workers`` must be an integer >= 1
    (``as_integer``: a bool or 2.5 raises a TypeError) but has no effect:
    trial groups stay serial, because worker processes with one BLAS thread
    change CSV bytes and with the caller's BLAS threads oversubscribe the CPUs.
    ``dump_records_path`` receives, block by block as trial 0's group
    streams them, the records trial 0 measured at the first plan entry
    (first L, first eta) at its largest M, or on a replay the loaded
    ones; a run that raises once its trials start leaves the file empty.
    A replay runs under the loaded file's seed, not ``scenario.seed``.
    """
    scenario.validate()
    if as_integer("workers", workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not force:
        _resource_guard(scenario)

    records_override = None
    if load_records_path is not None:
        if not FAMILIES[scenario.kind].replayable:
            raise ValueError(
                f"load-records is not supported for the {scenario.kind} family "
                f"(records vary within a trial)"
            )
        if scenario.trials != 1:
            raise ValueError("load-records requires exactly one trial")
        records_override, seed = load_records(load_records_path)
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
        scenario = replace(scenario, seed=seed)  # the random observables of the dumping run
    ctx = _build_context(scenario)

    columns: dict[tuple, list[float]] = {}
    trials = range(scenario.trials)
    settings = max(grid[-1] for _, grid in ctx.plan)
    dump_file = (contextlib.nullcontext() if dump_records_path is None
                 else open_overwrite(dump_records_path))
    # Opened after the theorem-1 child forks, so no child holds buffered text.
    with _theory_beside_trials(ctx) as theory_rows, dump_file as dump:
        if dump is not None:
            dump.write(f"{scenario.dim} {ctx.plan[0][1][-1]} {ctx.plan[0][0]} {scenario.seed}\n")
        for group in trial_groups(len(trials), settings, scenario.dim):
            for key, column in _run_chunk(ctx, trials[group], records_override, dump).items():
                columns.setdefault(key, []).extend(column)
            dump = None  # trial 0 is in the first group
        rows = [ResultRow(scenario.kind, trial, *key, column[trial])
                for trial in trials for key, column in columns.items()]
        rows += _aggregate_rows(ctx, columns)
        rows += theory_rows()
    return rows


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
    lines = [CSV_HEADER] + [
        f"{row.scenario},{row.trial},{row.settings},{row.shots},{row.mu:.17g},{row.eta:.17g},"
        f"{row.method},{row.metric},{row.value:.17g}"
        for row in ordered
    ]
    try:
        with open_overwrite(path) as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as error:
        raise RuntimeError(f"failed to write CSV to {path}: {error}") from error

