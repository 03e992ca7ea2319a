"""Tests for scenario execution, CSV emission, and the CLI."""

import contextlib
import filecmp
import importlib.util
import io
import json
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shadowbench
from shadowbench import estimators, experiments, measurement
from shadowbench.cli import build_parser, main
from shadowbench.core import DensityMatrix, expectation
from shadowbench.ensembles import GlobalHaar, RngStream
from shadowbench.estimators import CS, LS, RLS, FramePrefix, average_estimate, estimate
from shadowbench.experiments import (
    AGGREGATE_TRIAL,
    CSV_HEADER,
    FAMILIES,
    SCENARIO_KINDS,
    ResultRow,
    Scenario,
    canonical_state_and_observables,
    default_scenario,
    emit_csv,
    run_scenario,
)
from shadowbench.measurement import PLAN_BLOCK, MeasurementPlan, adjoint_map, run_plan
from shadowbench.theory import GRAM_SCHMIDT_MAX_DIM, mse_theorem1


def tiny_scenario(kind, **overrides):
    defaults = dict(kind=kind, qubits=2, trials=3, m_grid=(2, 4), seed=77)
    defaults.update(overrides)
    return Scenario(**defaults)


def ridge_free_rls_and_ls_rows(rows):
    """The RLS rows at mu = 0 and the LS rows of a run, each keyed by
    grid point and metric without the method and mu columns."""
    keyed = {"RLS": {}, "LS": {}}
    for row in rows:
        if row.method in keyed and row.mu == 0.0:
            key = (row.trial, row.settings, row.shots, row.eta, row.metric)
            keyed[row.method][key] = row.value
    return keyed["RLS"], keyed["LS"]


def assert_ridge_free_rls_rows_are_ls_rows(monkeypatch, scenario):
    # The same records solved by LS instead: methods do not change what
    # a trial samples.
    rls, _ = ridge_free_rls_and_ls_rows(run_scenario(scenario))
    family = FAMILIES[scenario.kind]
    monkeypatch.setitem(FAMILIES, scenario.kind, replace(family, methods=lambda _: (LS(),)))
    _, ls = ridge_free_rls_and_ls_rows(run_scenario(scenario))
    assert rls and rls == ls
    return {settings for _, settings, *_ in rls}


class TestCanonicalStateAndObservables:
    @pytest.mark.parametrize("qubits", [1, 2, 3, 5])
    def test_ground_truth_values(self, qubits):
        state, observables = canonical_state_and_observables(qubits)
        values = [expectation(obs, state) for obs in observables]
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == pytest.approx(0.5, abs=1e-12)
        assert values[2] == pytest.approx(0.0, abs=1e-12)

    def test_balanced_probe_is_normalized(self):
        _, observables = canonical_state_and_observables(5)
        assert np.linalg.norm(observables[1].vector) == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_edge_case(self):
        _, observables = canonical_state_and_observables(1)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(observables[1].vector, expected, atol=1e-12)

    def test_invalid_qubits(self):
        with pytest.raises(ValueError, match=">= 1"):
            canonical_state_and_observables(0)


# How validate's messages name each Scenario field, and one out-of-range
# value per field.
FIELD_NAMES = {
    "qubits": r"\bqubit", "trials": r"\btrial", "seed": r"\bseed\b", "m_grid": r"\bm-grid\b",
    "l_grid": r"\bl-grid\b", "mu_grid": r"\bmu\b", "eta_grid": r"\beta\b",
    "observables": r"\bobservables\b", "random_observables": r"\brandom observable",
    "ensemble_samples": r"\bensemble sample",
}
BROKEN_VALUES = {
    "qubits": 0, "trials": 0, "seed": -1, "m_grid": (0,), "l_grid": (1, 1),
    "mu_grid": (-0.5,), "eta_grid": (1.5,), "observables": (3,),
    "random_observables": 0, "ensemble_samples": 1,
}


@st.composite
def tiny_configs(draw):
    """A config of any family at n <= 3 and trials <= 3 whose m-grid
    entries sit at the rank edges M = D, D + 1, 3^n - 1 and 3^n, with at
    most one field set out of range; returns (config, that field or None)."""
    qubits = draw(st.integers(1, 3))
    dim = 2**qubits

    def grid(values, unique=True):
        return tuple(draw(st.lists(st.sampled_from(values), min_size=1, max_size=3,
                                   unique=unique)))

    config = dict(
        kind=draw(st.sampled_from(SCENARIO_KINDS)),
        qubits=qubits,
        trials=draw(st.integers(1, 3)),
        m_grid=grid(sorted({1, dim, dim + 1, 3**qubits - 1, 3**qubits}), unique=False),
        l_grid=grid((1, 2, 3)),
        mu_grid=grid((0.0, 1e-12, 0.1)),
        eta_grid=grid((0.0, 0.5, 1.0)),
        observables=grid((0, 1, 2)),
        random_observables=draw(st.integers(1, 3)),
        ensemble_samples=draw(st.integers(2, 20)),
        seed=draw(st.integers(0, 2**32 + 5)),
    )
    broken = draw(st.one_of(st.none(), st.sampled_from(sorted(BROKEN_VALUES))))
    if broken is not None:
        config[broken] = BROKEN_VALUES[broken]
    return config, broken


class TestScenarioValidation:
    def test_defaults_are_valid(self):
        for kind in (
            "double-descent",
            "mu-sweep",
            "rls-vs-cs",
            "random-obs",
            "mismatch",
            "multishot",
            "theorem1",
        ):
            default_scenario(kind).validate()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            Scenario(kind="nope").validate()
        with pytest.raises(ValueError, match="unknown scenario kind"):
            default_scenario("nope")

    def test_field_types_checked(self):
        for field, overrides in (
            ("qubits", dict(qubits=2.5)), ("m_grid", dict(m_grid=5)), ("trials", dict(trials=True))
        ):
            with pytest.raises(ValueError, match=f"{field} must be"):
                tiny_scenario("rls-vs-cs", **overrides).validate()
        tiny_scenario("rls-vs-cs", qubits=np.int64(2), mu_grid=[np.float32(0.5)]).validate()

    def test_repeated_m_grid_entries_are_merged(self):
        scenario = tiny_scenario("rls-vs-cs", trials=1, m_grid=(4, 2, 4))
        assert run_scenario(scenario) == run_scenario(replace(scenario, m_grid=(2, 4)))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(kind="mu-sweep", mu_grid=(0.1, 0.0), m_grid=(1, 5)),
            dict(kind="mismatch", mu_grid=(0.0,), m_grid=(2, 6)),
            dict(kind="multishot", mu_grid=(0.0,), m_grid=(8,), l_grid=(1, 2)),
        ],
    )
    def test_ridge_free_rls_is_ls_where_the_frame_is_singular(self, monkeypatch, overrides):
        # M settings span at most M(D-1)+1 < D^2 dimensions for M <= D = 4;
        # each config also has a point above D, on the frame route.
        settings = assert_ridge_free_rls_rows_are_ls_rows(monkeypatch, tiny_scenario(**overrides))
        assert min(settings) <= 4 < max(settings)

    @pytest.mark.parametrize(
        "qubits, eta_grid, fewest",
        [(1, (1.0,), 3), (2, (1.0,), 9), (2, (0.0, 0.5), 9), (3, (0.25,), 27), (2, (0.0,), 5)],
    )
    def test_ridge_free_rls_is_ls_around_full_rank_of_the_sampled_ensemble(
        self, monkeypatch, qubits, eta_grid, fewest
    ):
        # Local tensor-product frames reach full rank only at M = 3^n,
        # global ones at M = D + 1.
        scenario = tiny_scenario("mismatch", qubits=qubits, mu_grid=(0.0,), eta_grid=eta_grid,
                                 m_grid=(fewest - 1, fewest))
        assert_ridge_free_rls_rows_are_ls_rows(monkeypatch, scenario)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="m-grid"):
            tiny_scenario("rls-vs-cs", m_grid=()).validate()

    def test_bad_eta(self):
        with pytest.raises(ValueError, match="eta"):
            tiny_scenario("mismatch", eta_grid=(0.0, 2.0)).validate()

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("mu-grid", dict(mu_grid=(float("nan"),))),
            ("mu-grid", dict(mu_grid=(0.1, float("inf")))),
            ("eta-grid", dict(eta_grid=(0.0, float("nan")))),
            ("eta-grid", dict(eta_grid=(float("inf"),))),
        ],
    )
    def test_non_finite_grid_rejected(self, field, overrides):
        with pytest.raises(ValueError, match=field):
            tiny_scenario("mismatch", **overrides).validate()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_scenario(tiny_scenario("rls-vs-cs"), workers=workers)

    def test_resource_guard(self):
        # LS at 8 qubits (D = 256) and M = 128 needs a Gram system of order
        # 32768, above the 7-qubit frame's 16384.
        with pytest.raises(ValueError, match="resource-guard"):
            run_scenario(tiny_scenario("double-descent", qubits=8, m_grid=(2, 128)))

    def test_resource_guard_counts_sampled_unitaries(self, monkeypatch):
        # CS solves no system, but 16 unitaries of 8192 x 8192 are 16 GiB.
        def no_context(*args):
            raise AssertionError("the guard let the scenario through")

        monkeypatch.setattr(experiments, "_build_context", no_context)
        with pytest.raises(ValueError, match="resource-guard: 13 qubits .* 1073741824 sampled"):
            run_scenario(Scenario(kind="theorem1", qubits=13, trials=1, m_grid=(16,)))

    def test_resource_guard_bounds_are_inclusive(self):
        # 32 * (2^11)^2 = 2^27 unitary entries pass and 33 settings do not;
        # 8 qubits with M <= 64 needs neither a large system nor many entries.
        experiments._resource_guard(Scenario(kind="theorem1", qubits=11, m_grid=(32,)))
        with pytest.raises(ValueError, match="resource-guard"):
            experiments._resource_guard(Scenario(kind="theorem1", qubits=11, m_grid=(33,)))
        experiments._resource_guard(Scenario(kind="rls-vs-cs", qubits=8, m_grid=(2, 64)))
        experiments._resource_guard(Scenario(kind="double-descent", qubits=8, m_grid=(2, 64)))

    def test_config_round_trip(self):
        scenario = default_scenario("mismatch")
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert Scenario.from_dict(json.loads(json.dumps(scenario.to_dict()))) == scenario

    def test_config_without_kind_names_it(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario.from_dict({"qubits": 2})

    def test_unknown_config_key(self):
        with pytest.raises(ValueError, match="unknown scenario config"):
            Scenario.from_dict({"kind": "mismatch", "bogus": 1})

    # The pinned examples sit between the global (M > D) and local (M >= 3^n)
    # rank thresholds, where an RLS(0) solve on a local-setting frame fails.
    @settings(max_examples=200, deadline=None)
    @given(tiny_configs())
    @example((dict(kind="mismatch", qubits=2, trials=1, m_grid=(5,), mu_grid=(0.0,),
                   eta_grid=(1.0,)), None))
    @example((dict(kind="mismatch", qubits=3, trials=2, m_grid=(26,), mu_grid=(0.0, 0.1),
                   eta_grid=(0.0, 1.0)), None))
    def test_validate_admits_exactly_the_configs_that_run(self, case):
        config, broken = case
        scenario = Scenario(**config)
        try:
            scenario.validate()
        except ValueError as error:
            message = str(error)
        else:
            assert broken is None
            emit_csv(run_scenario(scenario), os.devnull)
            return
        named = [field for field, name in FIELD_NAMES.items() if re.search(name, message)]
        assert named and (broken is None or broken in named), message
        # The CLI refuses the same config with exit code 2 before any trial.
        trial_ran = AssertionError("a trial ran")
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err, \
                mock.patch.object(experiments, "_run_chunk", side_effect=trial_ran) as run_chunk:
            path, out = os.path.join(tmp, "scenario.json"), os.path.join(tmp, "x.csv")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            assert main([config["kind"], "--config", path, "--out", out]) == 2
            assert not os.path.exists(out)
        assert message in err.getvalue()
        assert not run_chunk.called


class TestRunScenario:
    def test_row_structure(self):
        rows = run_scenario(tiny_scenario("rls-vs-cs"))
        assert all(isinstance(row, ResultRow) for row in rows)
        methods = {row.method for row in rows}
        assert methods == {"RLS", "CS"}
        metrics = {row.metric for row in rows}
        for expected in (
            "frobenius-error",
            "eig-pos",
            "eig-neg",
            "trace",
            "loglik",
            "lambda-hat-0",
            "mse-0",
            "mse-0-se",
        ):
            assert expected in metrics
        trials = {row.trial for row in rows if row.trial != AGGREGATE_TRIAL}
        assert trials == {0, 1, 2}

    @pytest.mark.parametrize("chunk_trials, chunks", [(1, 3), (2, 2), (3, 1)])
    @pytest.mark.parametrize("kind, eta_grid", [("theorem1", (0.0,)), ("mismatch", (0.0, 0.5))])
    def test_one_sampler_call_per_chunk_and_eta(
        self, monkeypatch, kind, eta_grid, chunk_trials, chunks
    ):
        # Every shot count of every trial in a chunk shares one draw of
        # their settings, so the Born probabilities run once per block of
        # the chunk, not once per L or per trial.
        calls = {"run_plan": 0, "born_probabilities": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(experiments, "run_plan")
        counted(measurement, "born_probabilities")
        trials, settings = 3, PLAN_BLOCK + 1  # two blocks per draw
        scenario = tiny_scenario(kind, trials=trials, m_grid=(settings,), l_grid=(1, 4, 16),
                                 eta_grid=eta_grid, ensemble_samples=50)
        monkeypatch.setattr(experiments, "TRIAL_CHUNK_ENTRIES",
                            chunk_trials * settings * scenario.dim**2)
        run_scenario(scenario)
        assert calls == {"run_plan": chunks * len(eta_grid),
                         "born_probabilities": 2 * chunks * len(eta_grid)}

    def test_cs_trace_rows_are_one(self):
        rows = run_scenario(tiny_scenario("rls-vs-cs"))
        cs_traces = [r.value for r in rows if r.method == "CS" and r.metric == "trace"]
        assert cs_traces
        assert np.abs(np.array(cs_traces) - 1.0).max() < 1e-10

    def test_double_descent_uses_ls(self):
        rows = run_scenario(tiny_scenario("double-descent"))
        assert {row.method for row in rows} == {"LS"}

    def test_mu_sweep_covers_grid(self):
        rows = run_scenario(tiny_scenario("mu-sweep", mu_grid=(0.05, 0.5)))
        assert {row.mu for row in rows} == {0.05, 0.5}

    def test_random_obs_metric(self):
        rows = run_scenario(tiny_scenario("random-obs", random_observables=10))
        per_trial = [r for r in rows if r.metric == "mse-rand" and r.trial >= 0]
        assert len(per_trial) == 3 * 2 * 2  # trials x grid x methods
        assert all(row.value >= 0.0 for row in per_trial)

    def test_multishot_budget_semantics(self):
        scenario = tiny_scenario("multishot", m_grid=(8, 16), l_grid=(1, 4))
        rows = run_scenario(scenario)
        budgets = {(row.settings * row.shots) for row in rows}
        assert budgets == {8, 16}
        # L = 4 grid points exist with M = budget / 4.
        assert {row.settings for row in rows if row.shots == 4} == {2, 4}

    def test_multishot_rejects_indivisible_grid(self):
        scenario = tiny_scenario("multishot", m_grid=(7,), l_grid=(4,))
        with pytest.raises(ValueError, match="divisible"):
            run_scenario(scenario)

    def test_theorem1_rows(self):
        scenario = tiny_scenario(
            "theorem1", trials=50, m_grid=(4,), l_grid=(1, 2), ensemble_samples=200
        )
        rows = run_scenario(scenario)
        aggregate_metrics = {row.metric for row in rows if row.trial == AGGREGATE_TRIAL}
        assert aggregate_metrics == {"mse", "mse-se", "mse-theory", "mse-theory-se"}
        for shots in (1, 2):
            shot_rows = [r for r in rows if r.shots == shots and r.trial == AGGREGATE_TRIAL]
            assert {r.metric for r in shot_rows} == aggregate_metrics

    def test_mismatch_eta_zero_reproduces_global_rows(self):
        base = tiny_scenario("rls-vs-cs", m_grid=(4,), trials=2)
        mismatch = tiny_scenario("mismatch", m_grid=(4,), trials=2, eta_grid=(0.0, 0.5))
        reference = {
            (r.trial, r.settings, r.method, r.metric): r.value
            for r in run_scenario(base)
        }
        for row in run_scenario(mismatch):
            if row.eta != 0.0:
                continue
            key = (row.trial, row.settings, row.method, row.metric)
            if key in reference:
                assert abs(row.value - reference[key]) < 1e-12

    def test_trials_run_in_order_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(multiprocessing, "get_context", forbidden_fork)
        monkeypatch.setattr(experiments, "TRIAL_CHUNK_ENTRIES", 3 * 8 * 4**2)  # three trials a chunk
        run_chunk = experiments._run_chunk
        calls = []

        def recording(ctx, trials, *rest):
            calls.append((trials, threading.current_thread() is threading.main_thread()))
            return run_chunk(ctx, trials, *rest)

        monkeypatch.setattr(experiments, "_run_chunk", recording)
        scenario = tiny_scenario("mismatch", trials=4, m_grid=(8,), eta_grid=(0.0, 0.25))
        results = []
        for workers in (1, 3, 100000):
            calls.clear()
            results.append(run_scenario(scenario, workers=workers))
            assert calls == [(range(0, 3), True), (range(3, 4), True)]
        assert results[1] == results[0] and results[2] == results[0]


def forbidden_fork(*args):
    raise AssertionError("forked a theorem-1 child")


def assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


class TestTheoryBesideTrials:
    """Given trials and a Monte Carlo of THEORY_FORK_DRAWS, two usable
    CPUs and the fork start method, one forked child computes a theorem1
    run's mse-theory rows while the trials run; it never outlives the
    run, and ``workers`` changes nothing."""

    @staticmethod
    def counted_forks(monkeypatch, fork_draws=1):
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(experiments, "THEORY_FORK_DRAWS", fork_draws)
        forks = []
        get_context = multiprocessing.get_context

        def recording(method):
            forks.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", recording)
        return forks

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("qubits, ensemble_samples", [(2, 500), (4, 60)])
    def test_rows_and_bytes_do_not_depend_on_the_fork(
        self, monkeypatch, tmp_path, qubits, ensemble_samples, workers
    ):
        # D = 4 draws its unitaries by Gram-Schmidt, D = 16 by LAPACK's QR.
        assert (2**qubits <= GRAM_SCHMIDT_MAX_DIM) == (qubits == 2)
        scenario = tiny_scenario("theorem1", qubits=qubits, trials=4, m_grid=(16,),
                                 l_grid=(1, 4, 16), ensemble_samples=ensemble_samples)
        with monkeypatch.context() as serial_run:
            serial_run.setattr(multiprocessing, "get_context", forbidden_fork)
            serial = run_scenario(scenario)  # below THEORY_FORK_DRAWS
        emit_csv(serial, tmp_path / "serial.csv")
        forks = self.counted_forks(monkeypatch)
        parent_calls = []
        monkeypatch.setattr(experiments, "mse_theorem1",
                            lambda *args: parent_calls.append(args) or mse_theorem1(*args))
        forked = run_scenario(scenario, workers=workers)
        emit_csv(forked, tmp_path / "forked.csv")
        assert forks == ["fork"] and parent_calls == []  # the child made all three calls
        assert forked == serial
        assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_raising_mid_run_stops_the_child(self, monkeypatch, error):
        forks = self.counted_forks(monkeypatch)

        def failing(*args):
            raise error("chunk failed")

        monkeypatch.setattr(experiments, "_run_chunk", failing)
        # A child still computing is terminated, not waited for.
        monkeypatch.setattr(experiments, "mse_theorem1", lambda *args: time.sleep(60))
        started = time.monotonic()
        with pytest.raises(error, match="chunk failed"):
            run_scenario(tiny_scenario("theorem1", m_grid=(16,)))
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        assert_no_child_left()

    @staticmethod
    def refuse_theory(monkeypatch):
        def failing(*args):
            raise ValueError("theory refused")

        monkeypatch.setattr(experiments, "mse_theorem1", failing)  # the fork inherits it

    def test_child_error_is_raised_in_the_caller(self, monkeypatch):
        forks = self.counted_forks(monkeypatch)
        self.refuse_theory(monkeypatch)
        with pytest.raises(ValueError, match="^theory refused$"):
            run_scenario(tiny_scenario("theorem1", m_grid=(16,)))
        assert len(forks) == 1
        assert_no_child_left()

    def test_child_value_error_exits_two(self, monkeypatch, tmp_path, capsys):
        forks = self.counted_forks(monkeypatch)
        self.refuse_theory(monkeypatch)
        args = ["theorem1", "--qubits", "2", "--trials", "2", "--out", str(tmp_path / "out.csv")]
        assert main(args) == 2
        assert "error: theory refused" in capsys.readouterr().err
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("trials, ensemble_samples, forked", [
        (64, 512, True),  # 64 * 16 settings, 512 * 2 draws
        (63, 512, False),
        (64, 511, False),
    ])
    def test_forks_when_trials_and_monte_carlo_reach_the_bound(
        self, monkeypatch, trials, ensemble_samples, forked
    ):
        forks = self.counted_forks(monkeypatch, experiments.THEORY_FORK_DRAWS)
        assert experiments.THEORY_FORK_DRAWS == 1024
        run_scenario(tiny_scenario("theorem1", trials=trials, m_grid=(16,), l_grid=(1, 2),
                                   ensemble_samples=ensemble_samples))
        assert forks == (["fork"] if forked else [])
        assert_no_child_left()

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_forks_only_for_theory_rows_on_two_usable_cpus(self, monkeypatch, kind):
        monkeypatch.setattr(multiprocessing, "get_context", forbidden_fork)
        monkeypatch.setattr(experiments, "THEORY_FORK_DRAWS", 1)
        overrides = dict(trials=2, m_grid=(8,), l_grid=(1, 2), ensemble_samples=50,
                         random_observables=5)
        if kind == "theorem1":
            usable_cpus(monkeypatch, 1)
            run_scenario(tiny_scenario(kind, **overrides), workers=8)
            # os.cpu_count counts the host's CPUs, not the ones this process may use.
            monkeypatch.setattr(os, "cpu_count", lambda: 8)
            run_scenario(tiny_scenario(kind, **overrides), workers=8)
            usable_cpus(monkeypatch, 8)
            daemon = SimpleNamespace(daemon=True)
            monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
        else:
            usable_cpus(monkeypatch, 8)
        run_scenario(tiny_scenario(kind, **overrides), workers=8)
        assert_no_child_left()


class TestTrialChunks:
    """Rows and CSV bytes do not depend on how many trials a chunk holds."""

    SCENARIOS = {
        "theorem1": dict(kind="theorem1", m_grid=(16,), l_grid=(1, 4, 16), ensemble_samples=50),
        "multishot": dict(kind="multishot", m_grid=(8, 16, 64), l_grid=(1, 4, 8)),
        "mismatch": dict(kind="mismatch", m_grid=(8, 70), eta_grid=(0.0, 0.5, 1.0)),
        "rls-vs-cs": dict(kind="rls-vs-cs", m_grid=(2, 5, 9)),
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_chunks_of_one_seven_and_all_trials_agree(self, monkeypatch, tmp_path, name):
        scenario = tiny_scenario(trials=10, **self.SCENARIOS[name])
        settings = max(grid[-1] for _, grid in FAMILIES[scenario.kind].plan(scenario))
        per_trial = settings * scenario.dim**2
        outputs = []
        for chunk_trials in (1, 7, scenario.trials):
            monkeypatch.setattr(experiments, "TRIAL_CHUNK_ENTRIES", chunk_trials * per_trial)
            rows = run_scenario(scenario)
            path = tmp_path / f"{chunk_trials}.csv"
            emit_csv(rows, path)
            outputs.append((rows, path.read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_chunk_bound_counts_unitary_entries_of_one_draw(self, monkeypatch):
        chunks = []

        def recording(ctx, trials, *rest):
            chunks.append(trials)
            return []

        monkeypatch.setattr(experiments, "_run_chunk", recording)
        monkeypatch.setattr(experiments, "_aggregate_rows", lambda ctx, rows: [])
        monkeypatch.setattr(experiments, "TRIAL_CHUNK_ENTRIES", 100 * 4**2)
        run_scenario(tiny_scenario("multishot", trials=9, m_grid=(8, 32), l_grid=(1, 4)))
        assert chunks == [range(0, 3), range(3, 6), range(6, 9)]  # 32 settings a trial
        chunks.clear()
        run_scenario(tiny_scenario("rls-vs-cs", trials=2, m_grid=(2, 130)))
        assert chunks == [range(0, 1), range(1, 2)]  # a trial alone exceeds the bound
        chunks.clear()
        run_scenario(tiny_scenario("multishot", qubits=3, trials=9, m_grid=(8, 32), l_grid=(1, 4)))
        assert chunks == [range(trial, trial + 1) for trial in range(9)]  # 32 * 8^2 > 1600

    def test_one_trial_of_frames_is_alive_at_a_time(self, monkeypatch):
        # LS and RLS solve each trial of a chunk on its own, and its
        # D^2 x D^2 frames are dropped before the next trial's are built.
        alive, peak = [0], [0]

        class CountedPrefix(FramePrefix):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
                weakref.finalize(self, lambda: alive.__setitem__(0, alive[0] - 1))

        monkeypatch.setattr(experiments, "FramePrefix", CountedPrefix)
        scenario = tiny_scenario("rls-vs-cs", trials=6, m_grid=(2, 17, 32))
        assert len(experiments._trial_chunks(experiments._build_context(scenario))) == 1
        run_scenario(scenario)
        assert peak[0] == 1 and alive[0] == 0


class TestEmitCsv:
    def test_empty_rows_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_row(self, tmp_path):
        row = ResultRow("rls-vs-cs", 0, 4, 1, 0.1, 0.0, "RLS", "trace", 1.0)
        path = tmp_path / "one.csv"
        emit_csv([row], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        # Floats carry 17 significant digits, so they round-trip exactly.
        assert lines[1] == "rls-vs-cs,0,4,1,0.10000000000000001,0,RLS,trace,1"
        assert float(lines[1].split(",")[4]) == 0.1

    def test_sorted_output(self, tmp_path):
        rows = [
            ResultRow("x", 1, 4, 1, 0.0, 0.0, "CS", "trace", 1.0),
            ResultRow("x", 0, 4, 1, 0.0, 0.0, "CS", "trace", 1.0),
            ResultRow("x", 0, 2, 1, 0.0, 0.0, "CS", "trace", 1.0),
        ]
        path = tmp_path / "sorted.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()[1:]
        trials_then_settings = [tuple(line.split(",")[1:3]) for line in lines]
        assert trials_then_settings == [("0", "2"), ("0", "4"), ("1", "4")]

    def test_rerun_is_byte_identical(self, tmp_path):
        scenario = tiny_scenario("double-descent", trials=2)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_csv(run_scenario(scenario), first)
        emit_csv(run_scenario(scenario), second)
        assert filecmp.cmp(first, second, shallow=False)

    @staticmethod
    def _rows(count):
        return [ResultRow("x", t, 4, 1, 0.1, 0.0, "CS", "trace", 1.0 / 3) for t in range(count)]

    @pytest.mark.parametrize("old_rows", [500, 1])
    def test_overwrite_matches_a_fresh_file(self, tmp_path, old_rows):
        # A longer old file must lose its tail; a shorter one grows.
        fresh = tmp_path / "fresh.csv"
        emit_csv(self._rows(20), fresh)
        path = tmp_path / "rerun.csv"
        emit_csv(self._rows(old_rows), path)
        emit_csv(self._rows(20), path)
        assert path.read_bytes() == fresh.read_bytes()

    def test_devnull(self):
        emit_csv(self._rows(3), os.devnull)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_reader_gets_exact_bytes(self, tmp_path):
        rows = self._rows(2000)  # more than a pipe buffer
        expected = tmp_path / "expected.csv"
        emit_csv(rows, expected)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        emit_csv(rows, fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [expected.read_bytes()]

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs a file-size limit")
    def test_part_way_write_failure_leaves_an_empty_file(self, tmp_path):
        # A file-size limit below the new CSV's length makes the kernel
        # refuse the write part-way with EFBIG (Python ignores SIGXFSZ),
        # after the first bytes have already overwritten the old file.
        resource = pytest.importorskip("resource")
        expected = tmp_path / "expected.csv"
        emit_csv(self._rows(1000), expected)
        path = tmp_path / "partial.csv"
        emit_csv(self._rows(2000), path)
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (expected.stat().st_size // 2, hard))
        try:
            with pytest.raises(RuntimeError, match="partial.csv.*File too large"):
                emit_csv(self._rows(1000), path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert path.read_bytes() == b""

    def test_unwritable_path_raises_with_context(self, tmp_path):
        with pytest.raises(RuntimeError, match="no/such"):
            emit_csv([], tmp_path / "no" / "such" / "dir.csv")

    def test_nonfinite_value_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-finite"):
            ResultRow("x", 0, 1, 1, 0.0, 0.0, "CS", "trace", float("nan"))


class TestRecordFlags:
    def test_dump_then_load_reproduces_rows(self, tmp_path):
        scenario = tiny_scenario("rls-vs-cs", trials=1)
        path = tmp_path / "records.txt"
        direct = run_scenario(scenario, dump_records_path=path)
        loaded = run_scenario(scenario, load_records_path=path)
        assert direct == loaded

    def test_load_requires_single_trial(self, tmp_path):
        scenario = tiny_scenario("rls-vs-cs", trials=1)
        path = tmp_path / "records.txt"
        run_scenario(scenario, dump_records_path=path)
        with pytest.raises(ValueError, match="one trial"):
            run_scenario(tiny_scenario("rls-vs-cs", trials=2), load_records_path=path)

    def test_load_rejected_for_multishot(self, tmp_path):
        scenario = tiny_scenario("rls-vs-cs", trials=1)
        path = tmp_path / "records.txt"
        run_scenario(scenario, dump_records_path=path)
        bad = tiny_scenario("multishot", trials=1, m_grid=(4,), l_grid=(1,))
        with pytest.raises(ValueError, match="not supported"):
            run_scenario(bad, load_records_path=path)


class TestCli:
    def test_scenario_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(
            [
                "mismatch",
                "--qubits", "2",
                "--trials", "2",
                "--m-grid", "4",
                "--eta-grid", "0,0.5",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith(CSV_HEADER)
        assert "wrote" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(
            json.dumps({"qubits": 2, "trials": 2, "m_grid": [2, 4], "seed": 5})
        )
        out = tmp_path / "out.csv"
        code = main(
            [
                "double-descent",
                "--config", str(config),
                "--trials", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        body = out.read_text().splitlines()[1:]
        trials = {line.split(",")[1] for line in body}
        # Flag overrode the config's two trials down to one; single-trial
        # runs have no trial-aggregated MSE rows.
        assert trials == {"0"}
        settings = {line.split(",")[2] for line in body}
        assert settings == {"2", "4"}

    def test_invalid_configuration_exits_two(self, tmp_path, capsys):
        code = main(["rls-vs-cs", "--qubits", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_resource_guard_exits_two_without_force(self, tmp_path, capsys):
        code = main(["double-descent", "--qubits", "9", "--trials", "1",
                     "--m-grid", "2,64", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "resource-guard" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["rls-vs-cs", "double-descent"])
    def test_resource_guard_only_where_the_frame_is_formed(self, tmp_path, capsys, kind):
        # At 8 qubits (D = 256) LS and RLS at or below M = D and CS form no
        # frame, so no --force is needed at M = 2. The Gram systems at
        # M = 128 and M = 256 have orders 32768 and 65536, above the
        # 7-qubit frame's 16384.
        args = [kind, "--qubits", "8", "--trials", "1", "--out", str(tmp_path / "x.csv")]
        assert main(args + ["--m-grid", "2"]) == 0
        for grid in ("2,256", "128"):
            capsys.readouterr()
            assert main(args + ["--m-grid", grid]) == 2
            assert "resource-guard" in capsys.readouterr().err

    def test_truncated_record_file_exits_two(self, tmp_path, capsys):
        args = ["rls-vs-cs", "--qubits", "2", "--trials", "1", "--m-grid", "2",
                "--out", str(tmp_path / "x.csv")]
        records = tmp_path / "records.txt"
        assert main(args + ["--dump-records", str(records)]) == 0
        lines = records.read_text().splitlines(keepends=True)
        records.write_text("".join(lines[:-1]))
        capsys.readouterr()
        assert main(args + ["--load-records", str(records)]) == 2
        assert "records.txt, line" in capsys.readouterr().err

    def test_record_file_with_wrong_counts_sum_exits_two(self, tmp_path, capsys):
        args = ["rls-vs-cs", "--qubits", "2", "--trials", "1", "--m-grid", "2",
                "--out", str(tmp_path / "x.csv")]
        records = tmp_path / "records.txt"
        assert main(args + ["--dump-records", str(records)]) == 0
        lines = records.read_text().splitlines(keepends=True)
        # Header, then per record four unitary rows and one counts line.
        lines[5] = "0 0 0 0\n"
        records.write_text("".join(lines))
        capsys.readouterr()
        assert main(args + ["--load-records", str(records)]) == 2
        assert "records.txt, line 6: counts sum 0 != shots 1" in capsys.readouterr().err

    def test_record_file_with_trailing_content_exits_two(self, tmp_path, capsys):
        args = ["rls-vs-cs", "--qubits", "1", "--trials", "1", "--m-grid", "3",
                "--out", str(tmp_path / "x.csv")]
        records = tmp_path / "records.txt"
        assert main(args + ["--dump-records", str(records)]) == 0
        lines = records.read_text().count("\n")
        with open(records, "a", encoding="utf-8") as handle:
            handle.write("0.1 0.2 0.3 0.4\nGARBAGE here\n")
        capsys.readouterr()
        assert main(args + ["--load-records", str(records)]) == 2
        assert f"records.txt, line {lines + 1}: unexpected content" in capsys.readouterr().err

    def test_record_file_with_non_unitary_block_exits_two(self, tmp_path, capsys):
        args = ["rls-vs-cs", "--qubits", "1", "--trials", "1", "--m-grid", "2",
                "--out", str(tmp_path / "x.csv")]
        records = tmp_path / "records.txt"
        assert main(args + ["--dump-records", str(records)]) == 0
        lines = records.read_text().splitlines(keepends=True)
        lines[1] = "2 0 0 0\n"
        records.write_text("".join(lines))
        capsys.readouterr()
        assert main(args + ["--load-records", str(records)]) == 2
        assert "records.txt, line 2: non-unitary POVM matrix" in capsys.readouterr().err

    def test_strong_ridge_runs(self, tmp_path):
        # mu = 1000 shrinks the RLS trace to 1/(1 + mu/M), about 0.002 at M = 2.
        out = tmp_path / "x.csv"
        code = main(["rls-vs-cs", "--qubits", "2", "--trials", "1", "--mu", "1000",
                     "--m-grid", "2,4,8", "--out", str(out)])
        assert code == 0
        assert "loglik" in out.read_text()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["rls-vs-cs", "--mu", "nan"], "mu-grid"),
            (["mismatch", "--eta-grid", "0,inf"], "eta-grid"),
            (["rls-vs-cs", "--workers", "0"], "workers"),
            (["rls-vs-cs", "--workers", "-1"], "workers"),
            (["theorem1", "--l-grid", "1,1"], "l-grid"),
            (["mu-sweep", "--mu", "0.1,0.1"], "mu-grid"),
            (["mismatch", "--eta-grid", "0,0"], "eta-grid"),
            (["rls-vs-cs", "--seed", "-1"], "seed"),
            (["rls-vs-cs", "--load-records", "{tmp}/missing.txt"], "--load-records"),
            (["rls-vs-cs", "--out", "{tmp}"], "--out"),
            (["rls-vs-cs", "--out", "{tmp}/missing/x.csv"], "--out"),
            (["rls-vs-cs", "--dump-records", "{tmp}"], "--dump-records"),
            (["rls-vs-cs", "--dump-records", "{tmp}/missing/records.txt"], "--dump-records"),
        ],
    )
    def test_bad_value_exits_two_naming_field(self, tmp_path, capsys, monkeypatch, flags, field):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_run_chunk", no_trials)
        out = tmp_path / "x.csv"
        command, *rest = [flag.format(tmp=tmp_path) for flag in flags]
        # The case's own flags come last, so its --out replaces the default one.
        code = main([command, "--qubits", "2", "--trials", "1", "--m-grid", "2",
                     "--out", str(out), *rest])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--m-grid", "2", "--out", "./x.csv", "--dump-records", "x.csv"],
             ("--out", "--dump-records")),
            (["--m-grid", "8", "--out", "x.csv", "--load-records", "./x.csv"],
             ("--out", "--load-records")),
            (["--m-grid", "4", "--dump-records", "x.csv", "--load-records", "x.csv",
              "--out", "y.csv"], ("--dump-records", "--load-records")),
        ],
    )
    def test_out_and_dump_records_naming_one_file_exit_two(
        self, tmp_path, capsys, monkeypatch, flags, named
    ):
        monkeypatch.chdir(tmp_path)
        args = ["rls-vs-cs", "--qubits", "2", "--trials", "1"]
        before = None
        if "--load-records" in flags:
            assert main(args + ["--m-grid", "8", "--dump-records", "x.csv",
                                "--out", "first.csv"]) == 0
            before = (tmp_path / "x.csv").read_bytes()
            capsys.readouterr()

        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_run_chunk", no_trials)
        assert main(args + flags) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in named)
        if before is None:
            assert not (tmp_path / "x.csv").exists()
        else:
            assert (tmp_path / "x.csv").read_bytes() == before
        assert not (tmp_path / "y.csv").exists()

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"m_grid": 5}, "m_grid"),
            ({"qubits": "2"}, "qubits"),
            ({"qubits": 2.5}, "qubits"),
            ({"trials": 1.5}, "trials"),
            ({"trials": True}, "trials"),
            ({"mu_grid": [None]}, "mu_grid"),
            ({"observables": [0, 0]}, "observables"),
        ],
    )
    def test_bad_config_value_exits_two_naming_field(self, tmp_path, capsys, config, field):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"trials": 1, "m_grid": [2], **config}))
        out = tmp_path / "x.csv"
        assert main(["rls-vs-cs", "--config", str(path), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("[1, 2]")
        assert main(["rls-vs-cs", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_ridge_free_rls_below_local_full_rank_is_ls(self, tmp_path, monkeypatch):
        # Below M = 3^n local settings leave the frame singular; RLS at
        # mu = 0 gives the LS rows on the Gram (M = 4) and frame (M = 5) routes.
        args = ["mismatch", "--qubits", "2", "--trials", "1", "--m-grid", "4,5", "--mu", "0",
                "--eta-grid", "1"]
        assert main(args + ["--out", str(tmp_path / "rls.csv")]) == 0
        family = FAMILIES["mismatch"]
        monkeypatch.setitem(FAMILIES, "mismatch", replace(family, methods=lambda _: (LS(),)))
        assert main(args + ["--out", str(tmp_path / "ls.csv")]) == 0
        rls, ls = ([line.split(",") for line in (tmp_path / f"{name}.csv").read_text().splitlines()
                    if f",{name.upper()}," in line] for name in ("rls", "ls"))
        assert {row[2] for row in rls} == {"4", "5"}
        assert [row[:6] + row[7:] for row in rls] == [row[:6] + row[7:] for row in ls]

    @pytest.mark.parametrize("kind, mu", [("rls-vs-cs", "0"), ("mu-sweep", "0.1,0")])
    def test_ridge_free_rls_flag_gives_the_ls_rows(self, tmp_path, kind, mu):
        # Global Haar records depend only on the seed, so double-descent's
        # LS rows are the same solves as RLS at mu = 0, on both routes.
        args = ["--qubits", "2", "--trials", "1", "--m-grid", "2,5"]
        assert main([kind, *args, "--mu", mu, "--out", str(tmp_path / "rls.csv")]) == 0
        assert main(["double-descent", *args, "--out", str(tmp_path / "ls.csv")]) == 0
        rows = {}
        for name, method in (("rls", "RLS"), ("ls", "LS")):
            for line in (tmp_path / f"{name}.csv").read_text().splitlines()[1:]:
                _, trial, settings, shots, row_mu, eta, row_method, metric, value = line.split(",")
                if row_method == method and row_mu == "0":
                    rows.setdefault(method, {})[trial, settings, shots, eta, metric] = value
        shared = rows["RLS"].keys() & rows["LS"].keys()
        assert {metric for *_, metric in shared} >= {"frobenius-error", "lambda-hat-0"}
        assert {settings for _, settings, *_ in shared} == {"2", "5"}
        assert all(rows["RLS"][key] == rows["LS"][key] for key in shared)

    def test_ridge_free_rls_runs_at_local_full_rank(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["mismatch", "--qubits", "2", "--trials", "2", "--m-grid", "9", "--mu", "0",
                     "--eta-grid", "0,0.5,1", "--out", str(out)])
        assert code == 0
        assert ",RLS,lambda-hat-0," in out.read_text()

    def test_ridge_free_rls_runs_above_interpolation(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["rls-vs-cs", "--qubits", "2", "--trials", "1", "--mu", "0",
                     "--m-grid", "5,8", "--out", str(out)])
        assert code == 0
        assert ",RLS,trace," in out.read_text()

    def test_validate_subcommand_is_refused(self, capsys):
        # The invariant checks live in the test suite; the CLI only runs
        # scenario families.
        with pytest.raises(SystemExit) as exit_info:
            main(["validate"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'validate'" in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        # Every `shadowbench ...` line of README's sh blocks must parse, so
        # the README cannot advertise a removed subcommand or flag.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
        lines = [line.split("#", 1)[0] for block in blocks for line in block.splitlines()]
        commands = [shlex.split(line) for line in lines if line.startswith("shadowbench")]
        assert commands
        parser = build_parser()
        for command in commands:
            parser.parse_args(command[1:])

    def test_dump_and_load_records_flags(self, tmp_path):
        records = tmp_path / "records.txt"
        args = [
            "rls-vs-cs",
            "--qubits", "2",
            "--trials", "1",
            "--m-grid", "2,4",
            "--seed", "21",
        ]
        first = tmp_path / "direct.csv"
        second = tmp_path / "replayed.csv"
        third = tmp_path / "rereplayed.csv"
        redumped = tmp_path / "redumped.txt"
        code = main(args + ["--dump-records", str(records), "--out", str(first)])
        assert code == 0
        assert records.exists()
        # A replay dumps the records it loaded, whatever the seed flag says.
        code = main(args + ["--seed", "99", "--load-records", str(records),
                            "--dump-records", str(redumped), "--out", str(second)])
        assert code == 0
        assert filecmp.cmp(first, second, shallow=False)
        assert redumped.read_bytes() == records.read_bytes()
        assert main(args + ["--load-records", str(redumped), "--out", str(third)]) == 0
        assert filecmp.cmp(first, third, shallow=False)

    def test_observables_subset_via_config(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text(
            json.dumps(
                {"qubits": 2, "trials": 2, "m_grid": [4], "seed": 5, "observables": [0, 2]}
            )
        )
        out = tmp_path / "out.csv"
        assert main(["mismatch", "--config", str(config), "--out", str(out)]) == 0
        metrics = {line.split(",")[7] for line in out.read_text().splitlines()[1:]}
        assert "lambda-hat-0" in metrics and "lambda-hat-2" in metrics
        assert "lambda-hat-1" not in metrics

    def test_workers_flag_byte_identical(self, tmp_path):
        args = [
            "mismatch",
            "--qubits", "2",
            "--trials", "3",
            "--m-grid", "8",
            "--eta-grid", "0,0.25",
            "--seed", "11",
        ]
        first = tmp_path / "w1.csv"
        second = tmp_path / "w4.csv"
        assert main(args + ["--workers", "1", "--out", str(first)]) == 0
        assert main(args + ["--workers", "4", "--out", str(second)]) == 0
        assert filecmp.cmp(first, second, shallow=False)


class TestRlsRoutes:
    @pytest.mark.parametrize("method", [RLS(0.1), LS(), CS()], ids=["RLS", "LS", "CS"])
    @pytest.mark.parametrize("qubits", [2, 3])
    @pytest.mark.parametrize("shots", [1, 4])
    def test_kernel_matches_per_record_estimate_across_route_switch(
        self, monkeypatch, qubits, shots, method
    ):
        dim = 2**qubits
        records = run_plan(
            DensityMatrix.computational_basis_state(dim),
            MeasurementPlan(dim + 1, shots, GlobalHaar(dim)),
            RngStream(41, (0, 0)),
        )
        # LS and RLS at M = D take the Gram route and form no frame; M = D + 1
        # takes the primal route over all D + 1 settings in one block, the
        # summation order of estimate()'s own frame. CS never forms one.
        grid, expected_blocks = {
            "RLS": ((dim, dim + 1), ([], [dim + 1])),
            "LS": ((dim, dim + 1), ([], [dim + 1])),
            "CS": ((dim - 1, dim), ([], [])),
        }[type(method).__name__]
        # estimate() builds its frame from the same columns, so its
        # references are taken before the columns are counted.
        references = [estimate(records[:settings], method).average.matrix for settings in grid]
        frame_blocks = []
        columns = estimators.povm_operator_columns

        def counted(unitaries, out=None):
            frame_blocks.append(len(unitaries))
            return columns(unitaries, out=out)

        monkeypatch.setattr(estimators, "povm_operator_columns", counted)
        prefix = FramePrefix(records.unitaries, shots)
        for settings, blocks, reference in zip(grid, expected_blocks, references):
            first = records[:settings]
            partial_mean = np.mean(
                [adjoint_map(u, phat) for u, phat in zip(first.unitaries, first.frequencies)],
                axis=0,
            )
            kernel = average_estimate(method, first, partial_mean, prefix).matrix
            assert np.abs(kernel - reference).max() < 1e-10
            assert frame_blocks == blocks


@pytest.mark.parametrize("mu", [1e-16, 1e-300])
@pytest.mark.parametrize("qubits", [2, 3])
def test_rls_with_vanishing_ridge_matches_ls_at_interpolation(qubits, mu):
    # M = D settings give a singular frame. A ridge below rounding must
    # not leave RLS solving it: the Gram route gives the LS estimate.
    dim = 2**qubits
    rows = {}
    for kind in ("double-descent", "rls-vs-cs"):
        scenario = tiny_scenario(kind, qubits=qubits, trials=2, m_grid=(dim,), mu_grid=(mu,))
        rows[kind] = {(row.trial, row.metric): row.value for row in run_scenario(scenario)
                      if row.method in ("LS", "RLS") and row.trial != AGGREGATE_TRIAL}
    shared = rows["double-descent"].keys() & rows["rls-vs-cs"].keys()
    assert {metric for _, metric in shared} >= {"frobenius-error", "trace", "lambda-hat-0"}
    for key in shared:
        assert abs(rows["rls-vs-cs"][key] - rows["double-descent"][key]) < 1e-8, key


def test_ridge_below_rounding_gives_the_ls_value_on_a_singular_local_frame():
    # Six local tensor-product settings at n = 2 leave the frame singular
    # above M = D. A shift mu/M at or below the cutoff is the pseudoinverse;
    # mu = 1e-9 is an LU solve that stays within 1e-6 of it.
    values = {}
    for mu in (0.0, 1e-20, 1e-12, 1e-9):
        scenario = Scenario(kind="mismatch", qubits=2, trials=1, m_grid=(6,), eta_grid=(1.0,),
                            mu_grid=(mu,))
        (values[mu],) = [row.value for row in run_scenario(scenario)
                         if row.method == "RLS" and row.metric == "lambda-hat-0"]
    assert values[0.0] == values[1e-20] == values[1e-12]
    assert abs(values[1e-9] - values[0.0]) < 1e-6
    # The CS value of the same records is 1.0787.
    assert abs(values[0.0] - 1.081) < 1e-3


def test_rls_trace_is_the_ridge_shrinkage_on_both_routes():
    # The identity is an eigenvector of the frame with eigenvalue 1 and
    # tr A†(p̂) = 1, so the RLS trace is 1/(1 + mu/(M L)) at or below
    # M = D (Gram route) and above it (frame route).
    mu, shots = 3.0, 2
    scenario = tiny_scenario("rls-vs-cs", trials=1, m_grid=(2, 4, 8), l_grid=(shots,),
                             mu_grid=(mu,))
    traces = {
        row.settings: row.value
        for row in run_scenario(scenario)
        if row.method == "RLS" and row.metric == "trace"
    }
    assert sorted(traces) == [2, 4, 8]
    for settings, trace in traces.items():
        assert abs(trace - 1.0 / (1.0 + mu / (settings * shots))) < 1e-12


GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_family_csv_matches_golden_bytes(kind, tmp_path):
    # The golden files hold each family's CLI output at --qubits 2 --trials 3
    # and default settings otherwise. A change that moves any value by one
    # bit fails here; regenerate them only for an intended output change.
    out = tmp_path / f"{kind}.csv"
    assert main([kind, "--qubits", "2", "--trials", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{kind}.csv").read_bytes()


def test_tracer_layers_resolve_and_run_in_every_family():
    # The benchmark's tracer patches its layer functions and
    # FrameOperator.__post_init__ by name. A deleted or renamed one fails
    # here, named, and not only in a traced benchmark run; a layer no
    # family calls would read zero in every traced run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in [*tracing.LAYER_FUNCTIONS, ("estimators", "FrameOperator.__post_init__")]:
        owner = importlib.import_module(f"shadowbench.{module}")
        for part in name.split("."):
            assert hasattr(owner, part), f"shadowbench.{module}.{name} does not resolve"
            owner = getattr(owner, part)
    with tracing.Tracer() as tracer:
        for kind in SCENARIO_KINDS:
            overrides = dict(trials=2, ensemble_samples=50, random_observables=5)
            if kind == "multishot":
                overrides.update(m_grid=(8,), l_grid=(1, 2))
            if kind == "mismatch":
                overrides.update(eta_grid=(0.0, 0.5))
            if kind == "double-descent":
                # LS forms and diagonalizes the frame only above M = D = 4.
                overrides.update(m_grid=(2, 4, 5))
            rows = shadowbench.run_scenario(tiny_scenario(kind, **overrides))
            shadowbench.emit_csv(rows, os.devnull)
    called = {name for _, _, name, _, _ in tracer.spans}
    assert called == set(tracing.LAYER_NAMES)


def test_package_does_not_import_scipy(tmp_path):
    # scipy's own OpenBLAS adds start-up time and resident memory to
    # every run, so neither the package nor a scenario run may load it.
    code = (
        "import sys\n"
        "from shadowbench.cli import main\n"
        "assert main(['rls-vs-cs', '--qubits', '2', '--trials', '1',\n"
        "             '--m-grid', '2,4', '--out', sys.argv[1]]) == 0\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        # Only a run that forks its theorem-1 child imports multiprocessing.
        "assert 'multiprocessing' not in sys.modules\n"
    )
    source_root = str(Path(shadowbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=source_root)
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out.csv")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_public_names_are_the_exported_set():
    exported = {
        "CS", "DensityMatrix", "EnsembleSpec", "FrameOperator", "GlobalHaar",
        "HaarMixture", "LS", "LogLikelihoodResult", "MeasurementPlan", "MseEstimate",
        "Observable", "RLS", "RecordStack", "ResultRow", "RngStream", "Scenario",
        "ShadowEstimate", "ShadowSet", "adjoint_map", "born_probabilities", "canonical_state_and_observables",
        "cs_channel_apply", "cs_channel_inverse", "default_scenario", "dump_records",
        "eigenvalue_split", "emit_csv", "empirical_mse", "estimate", "expectation",
        "frobenius_error", "load_records", "log_likelihood", "mse_theorem1",
        "multinomial_moments", "project_physical", "random_observable_pdf", "run_plan",
        "run_scenario", "sample_counts", "sample_unitary", "shadow_map",
    }
    assert len(exported) == 42
    assert sorted(shadowbench.__all__) == sorted(exported)
    namespace = {}
    exec("from shadowbench import *", namespace)  # resolves every exported name
    assert set(namespace) - {"__builtins__"} == exported
