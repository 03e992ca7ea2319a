"""Tests for shot sampling, records, and the adjoint map."""

import os
import tempfile
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowbench import measurement
from shadowbench.core import DensityMatrix, born_probabilities
from shadowbench.ensembles import GlobalHaar, HaarMixture, RngStream, open_overwrite
from shadowbench.experiments import ResultRow, emit_csv
from shadowbench.measurement import (
    PLAN_BLOCK,
    MeasurementPlan,
    RecordError,
    RecordStack,
    adjoint_map,
    dump_records,
    expand_to_single_shot,
    load_records,
    run_plan,
    sample_counts,
)

from oracles import haar_unitaries, random_density_matrix, reference_unitary


class TestSampleCounts:
    def test_deterministic_distribution(self):
        counts = sample_counts(np.array([1.0, 0.0, 0.0]), 50, RngStream(1))
        assert np.array_equal(counts, [50, 0, 0])

    def test_single_shot_is_one_hot(self):
        generator = RngStream(2).generator
        for _ in range(200):
            p = generator.dirichlet(np.ones(5))
            counts = sample_counts(p, 1, generator)
            assert counts.sum() == 1
            assert counts.max() == 1

    def test_binomial_standard_error(self):
        shots = 1_000_000
        counts = sample_counts(np.array([0.5, 0.5]), shots, RngStream(3))
        margin = 3 * np.sqrt(0.25 / shots)
        assert abs(counts[0] / shots - 0.5) < margin

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sample_counts(np.array([1.1, -0.1]), 1, RngStream(0))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            sample_counts(np.array([0.5, 0.6]), 1, RngStream(0))


class TestRecords:
    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError, match="sum"):
            RecordStack([np.eye(2)], [[1, 1]], 3)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RecordStack([np.eye(2)], [[3, -1]], 2)

    def test_frequencies(self):
        record = RecordStack([np.eye(2)], [[3, 1]], 4)
        assert np.array_equal(record.frequencies, [[0.75, 0.25]])
        assert record.frequencies.sum() == 1.0

    def test_one_hot_frequencies(self):
        record = RecordStack([np.eye(3)], [[0, 0, 5]], 5)
        assert np.array_equal(record.frequencies, [[0, 0, 1]])


class TestAdjointMap:
    def test_identity_povm_one_hot(self):
        phat = np.array([0.0, 0.0, 1.0, 0.0])
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        assert np.abs(adjoint_map(np.eye(4), phat) - expected).max() < 1e-15

    def test_uniform_frequencies_give_mixed_state(self):
        unitary = haar_unitaries(4, 1, RngStream(5))[0]
        partial = adjoint_map(unitary, np.full(4, 0.25))
        assert np.abs(partial - np.eye(4) / 4).max() < 1e-12

    def test_one_hot_matches_outer_product_form(self):
        # Independent code path: the rank-1 simplification
        # (U† p̂)(U† p̂)† for one-hot frequencies.
        for index in range(6):
            unitary = haar_unitaries(8, 1, RngStream(6, (0, index)))[0]
            phat = np.zeros(8)
            phat[index] = 1.0
            general = adjoint_map(unitary, phat)
            vector = unitary.conj().T @ phat
            outer = np.outer(vector, vector.conj())
            assert np.abs(general - outer).max() < 1e-12

    def test_psd_with_unit_trace(self):
        generator = RngStream(7).generator
        for _ in range(50):
            unitary = haar_unitaries(4, 1, generator)[0]
            phat = generator.dirichlet(np.ones(4))
            partial = adjoint_map(unitary, phat)
            assert np.abs(partial - partial.conj().T).max() < 1e-14
            assert partial.trace().real == pytest.approx(phat.sum(), abs=1e-12)
            assert np.linalg.eigvalsh(partial).min() > -1e-12

    def test_sampled_mean_converges_to_exact(self):
        dim, trials = 2, 10_000
        state = DensityMatrix(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
        unitary = haar_unitaries(dim, 1, RngStream(8))[0]
        p = born_probabilities(unitary, state)
        exact = adjoint_map(unitary, p)
        generator = RngStream(9).generator
        sampled = np.zeros((dim, dim), dtype=complex)
        squared = np.zeros((dim, dim))
        for _ in range(trials):
            phat = sample_counts(p, 1, generator)
            partial = adjoint_map(unitary, phat.astype(float))
            sampled += partial
            squared += np.abs(partial) ** 2
        mean = sampled / trials
        variance = squared / trials - np.abs(mean) ** 2
        margin = 3 * np.sqrt(np.maximum(variance, 0.0) / trials) + 1e-12
        assert np.all(np.abs(mean - exact) <= margin)

    @pytest.mark.parametrize("dim", [2, 4, 8, 32])
    @pytest.mark.parametrize("shots", [1, 6])
    def test_matches_einsum_reference(self, dim, shots):
        # sum_k p̂_k conj(U_ki) U_kj as a three-operand contraction, for
        # one-hot (L = 1) and multi-shot (L = 6) frequencies.
        generator = np.random.default_rng(dim + shots)
        unitaries = haar_unitaries(dim, 5, generator)
        counts = np.stack([generator.multinomial(shots, np.full(dim, 1.0 / dim)) for _ in range(5)])
        phat = counts / shots
        reference = np.einsum("mk,mki,mkj->mij", phat, unitaries.conj(), unitaries)
        assert np.abs(adjoint_map(unitaries, phat) - reference).max() <= 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            adjoint_map(np.eye(4), np.array([1.0, 0.0]))

    def test_stack_dim_mismatch(self):
        stack = np.stack([np.eye(4)] * 3)
        with pytest.raises(ValueError, match="dim-mismatch"):
            adjoint_map(stack, np.full((2, 4), 0.25))
        with pytest.raises(ValueError, match="dim-mismatch"):
            adjoint_map(stack, np.full(4, 0.25))


class TestMultinomialMomentsEmpirically:
    def test_second_and_cross_moments(self):
        # Closed forms used in the multishot MSE proof, against a raw
        # multinomial sampling oracle.
        p = np.array([0.2, 0.5, 0.3])
        shots = 4
        draws = 100_000
        generator = RngStream(10).generator
        samples = generator.multinomial(shots, p, size=draws) / shots
        second_hat = (samples**2).mean(axis=0)
        cross_hat = (samples[:, 0] * samples[:, 1]).mean()

        second = (p + (shots - 1) * p * p) / shots
        cross = (1 - 1 / shots) * p[0] * p[1]
        second_margin = 3 * (samples**2).std(axis=0, ddof=1) / np.sqrt(draws)
        cross_margin = 3 * (samples[:, 0] * samples[:, 1]).std(ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(second_hat - second) <= second_margin)
        assert abs(cross_hat - cross) <= cross_margin


class TestRunPlan:
    def test_deterministic_identity_setting(self):
        probabilities = born_probabilities(np.eye(2), DensityMatrix.computational_basis_state(2))
        counts = sample_counts(probabilities, 1, RngStream(11, (0, 0)))
        assert np.array_equal(counts, [1, 0])

    def test_record_count_and_totals(self):
        plan = MeasurementPlan(4, 7, GlobalHaar(4))
        records = run_plan(DensityMatrix.maximally_mixed(4), plan, RngStream(12, (0, 0)))
        assert len(records) == 4
        assert records.counts.sum(axis=1).tolist() == [7] * 4

    def test_prefix_property(self):
        state = DensityMatrix.maximally_mixed(4)
        small = run_plan(state, MeasurementPlan(3, 2, GlobalHaar(4)), RngStream(13, (5, 0)))
        large = run_plan(state, MeasurementPlan(6, 2, GlobalHaar(4)), RngStream(13, (5, 0)))
        assert np.array_equal(small.unitaries, large.unitaries[:3])
        assert np.array_equal(small.counts, large.counts[:3])

    def test_mixed_state_frequencies(self):
        shots = 100_000
        probabilities = born_probabilities(np.eye(2), DensityMatrix.maximally_mixed(2))
        counts = sample_counts(probabilities, shots, RngStream(14, (0, 0)))
        margin = 3 * np.sqrt(0.25 / shots)
        assert abs(counts[0] / shots - 0.5) < margin

    def test_dim_mismatch(self):
        plan = MeasurementPlan(1, 1, GlobalHaar(4))
        with pytest.raises(ValueError, match="dim-mismatch"):
            run_plan(DensityMatrix.computational_basis_state(2), plan, RngStream(0, (0, 0)))


def reference_plan(state, ensemble, settings, shots, seed, trial):
    """run_plan's draws one setting at a time: stream (trial, m) draws the
    unitary (the per-setting oracle) and then the multinomial counts."""
    unitaries, counts = [], []
    for m in range(settings):
        stream = RngStream(seed, (trial, m))
        unitary = reference_unitary(ensemble, stream)
        probabilities = born_probabilities(unitary, state)
        counts.append(stream.generator.multinomial(shots, probabilities / probabilities.sum()))
        unitaries.append(unitary)
    return np.stack(unitaries), np.stack(counts)


STACKED_SETTINGS = PLAN_BLOCK + 5  # crosses a block edge
STACK_ENSEMBLES = {
    "global": GlobalHaar(4),
    "local": HaarMixture(2, 1.0),
    "mixture": HaarMixture(2, 0.3),
}


class TestStackedSampler:
    @pytest.mark.parametrize("shots", [1, 5])
    @pytest.mark.parametrize("name", sorted(STACK_ENSEMBLES))
    def test_matches_per_setting_reference(self, name, shots):
        ensemble = STACK_ENSEMBLES[name]
        state = DensityMatrix(random_density_matrix(4, np.random.default_rng(31)))
        plan = MeasurementPlan(STACKED_SETTINGS, shots, ensemble)
        records = run_plan(state, plan, RngStream(32, (3, 0)))
        unitaries, counts = reference_plan(state, ensemble, STACKED_SETTINGS, shots, 32, 3)
        assert np.array_equal(records.unitaries, unitaries)
        assert np.array_equal(records.counts, counts)
        assert records.shots == shots

    @pytest.mark.parametrize("name", sorted(STACK_ENSEMBLES))
    def test_one_sample_unitary_call_per_block(self, name, monkeypatch):
        blocks = []
        sample = measurement.sample_unitary

        def counted(spec, streams):
            blocks.append(len(streams))
            return sample(spec, streams)

        monkeypatch.setattr(measurement, "sample_unitary", counted)
        plan = MeasurementPlan(STACKED_SETTINGS, 1, STACK_ENSEMBLES[name])
        trials = [RngStream(37, (trial, 0)) for trial in range(2)]
        run_plan(DensityMatrix.maximally_mixed(4), plan, trials)
        assert blocks == [2 * PLAN_BLOCK, 2 * (STACKED_SETTINGS - PLAN_BLOCK)]

    def test_nested_prefix_across_block_edges(self):
        state = DensityMatrix.maximally_mixed(4)
        plan = MeasurementPlan(2 * PLAN_BLOCK + 1, 3, GlobalHaar(4))
        large = run_plan(state, plan, RngStream(33))
        for settings in (1, PLAN_BLOCK - 1, PLAN_BLOCK, PLAN_BLOCK + 1):
            small = run_plan(state, MeasurementPlan(settings, 3, GlobalHaar(4)), RngStream(33))
            assert np.array_equal(small.unitaries, large.unitaries[:settings])
            assert np.array_equal(small.counts, large.counts[:settings])

    def test_stacked_adjoints_and_probabilities_match_per_setting(self):
        for dim in (2, 4, 8, 32):
            state = DensityMatrix(random_density_matrix(dim, np.random.default_rng(dim)))
            records = run_plan(state, MeasurementPlan(40, 3, GlobalHaar(dim)), RngStream(34))
            probabilities = born_probabilities(records.unitaries, state)
            adjoints = adjoint_map(records.unitaries, records.frequencies)
            for m in range(len(records)):
                unitary = records.unitaries[m]
                assert np.array_equal(probabilities[m], born_probabilities(unitary, state))
                assert np.array_equal(adjoints[m], adjoint_map(unitary, records.frequencies[m]))

    def test_stacked_counts_use_one_generator_per_row(self):
        probabilities = np.array([[0.5, 0.5], [0.1, 0.9], [1.0, 0.0]])
        stacked = sample_counts(probabilities, 7, [RngStream(35, (0, m)) for m in range(3)])
        for m, row in enumerate(probabilities):
            assert np.array_equal(stacked[m], sample_counts(row, 7, RngStream(35, (0, m))))
        with pytest.raises(ValueError, match="longer"):
            sample_counts(probabilities, 7, [RngStream(35)])

    @pytest.mark.parametrize(
        "row, match",
        [
            ([0.5, 0.5], None),
            ([1.2, -0.2], "negative"),
            ([0.5, 0.6], "sum"),
            ([np.nan, 1.0], "sum"),
        ],
    )
    def test_stacked_probability_checks(self, row, match):
        probabilities = np.array([[0.25, 0.75], row])
        streams = [RngStream(36, (0, m)) for m in range(2)]
        if match is None:
            assert sample_counts(probabilities, 3, streams).sum(axis=1).tolist() == [3, 3]
        else:
            with pytest.raises(ValueError, match=match):
                sample_counts(probabilities, 3, streams)


SEQUENCE_SETTINGS = 2 * PLAN_BLOCK + 2  # plan sizes end on both sides of block edges
SEQUENCE_ENSEMBLES = {
    "global": GlobalHaar(4),
    "mixture-0": HaarMixture(2, 0.0),
    "mixture-0.5": HaarMixture(2, 0.5),
    "mixture-1": HaarMixture(2, 1.0),
}
SEQUENCES = [
    ((3, 1), (SEQUENCE_SETTINGS, 4), (PLAN_BLOCK, 16), (PLAN_BLOCK + 1, 4)),
    ((PLAN_BLOCK + 1, 16), (PLAN_BLOCK, 4), (3, 1)),
    ((SEQUENCE_SETTINGS, 1), (SEQUENCE_SETTINGS, 16)),
]


class TestPlanSequence:
    @pytest.mark.parametrize("sizes", SEQUENCES)
    @pytest.mark.parametrize("name", sorted(SEQUENCE_ENSEMBLES))
    def test_each_plan_matches_a_single_plan_call(self, name, sizes):
        ensemble = SEQUENCE_ENSEMBLES[name]
        state = DensityMatrix(random_density_matrix(4, np.random.default_rng(41)))
        plans = [MeasurementPlan(settings, shots, ensemble) for settings, shots in sizes]
        stacks = run_plan(state, plans, RngStream(42, (5, 0)))
        assert len(stacks) == len(plans)
        for plan, stack in zip(plans, stacks):
            alone = run_plan(state, plan, RngStream(42, (5, 0)))
            assert np.array_equal(stack.unitaries, alone.unitaries)
            assert np.array_equal(stack.counts, alone.counts)
            assert stack.shots == plan.shots
            assert not stack.unitaries.flags.writeable and not stack.counts.flags.writeable
        assert all(np.shares_memory(stacks[0].unitaries, stack.unitaries) for stack in stacks)

    def test_one_plan_sequence_gives_a_list(self):
        plan = MeasurementPlan(5, 2, GlobalHaar(2))
        state = DensityMatrix.maximally_mixed(2)
        (stack,) = run_plan(state, [plan], RngStream(43))
        alone = run_plan(state, plan, RngStream(43))
        assert isinstance(alone, RecordStack)
        assert np.array_equal(stack.counts, alone.counts)

    @pytest.mark.parametrize(
        "plans, match",
        [
            ([], "at least one plan"),
            ([MeasurementPlan(2, 1, GlobalHaar(4)), MeasurementPlan(2, 4, HaarMixture(2, 1.0))],
             "share one ensemble"),
            ([MeasurementPlan(2, 1, GlobalHaar(2)), MeasurementPlan(3, 4, GlobalHaar(2))],
             "dim-mismatch"),
        ],
    )
    def test_bad_sequence_rejected_before_any_draw(self, monkeypatch, plans, match):
        def no_draw(*args):
            raise AssertionError("a setting was drawn")

        monkeypatch.setattr(measurement, "sample_unitary", no_draw)
        with pytest.raises(ValueError, match=match):
            run_plan(DensityMatrix.maximally_mixed(4), plans, RngStream(44))


class TestTrialChunk:
    @pytest.mark.parametrize("name", sorted(SEQUENCE_ENSEMBLES))
    def test_each_trial_matches_a_call_of_its_own(self, name):
        ensemble = SEQUENCE_ENSEMBLES[name]
        state = DensityMatrix(random_density_matrix(4, np.random.default_rng(45)))
        plans = [MeasurementPlan(PLAN_BLOCK + 2, 3, ensemble), MeasurementPlan(5, 1, ensemble)]
        trials = [4, 0, 9]
        chunk = run_plan(state, plans, [RngStream(46, (trial, 0)) for trial in trials])
        assert len(chunk) == len(trials)
        for trial, stacks in zip(trials, chunk):
            for stack, alone in zip(stacks, run_plan(state, plans, RngStream(46, (trial, 0)))):
                assert np.array_equal(stack.unitaries, alone.unitaries)
                assert np.array_equal(stack.counts, alone.counts)
                assert not stack.unitaries.flags.writeable and not stack.counts.flags.writeable

    def test_single_plan_gives_one_stack_per_trial(self):
        plan = MeasurementPlan(3, 2, GlobalHaar(2))
        state = DensityMatrix.maximally_mixed(2)
        chunk = run_plan(state, plan, [RngStream(47, (trial, 0)) for trial in range(2)])
        assert [type(stack) for stack in chunk] == [RecordStack, RecordStack]
        assert np.array_equal(chunk[1].counts, run_plan(state, plan, RngStream(47, (1, 0))).counts)

    @pytest.mark.parametrize(
        "streams, match",
        [([], "at least one trial stream"), ([RngStream(1), RngStream(2, (1, 0))], "one seed")],
    )
    def test_bad_trial_streams_rejected(self, streams, match):
        with pytest.raises(ValueError, match=match):
            run_plan(DensityMatrix.maximally_mixed(2), MeasurementPlan(2, 1, GlobalHaar(2)),
                     streams)

    def test_failed_check_names_the_setting_within_its_trial(self, monkeypatch):
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = 2.0
        settings = [np.eye(2), np.eye(2), bad]
        monkeypatch.setattr(measurement, "sample_unitary",
                            lambda spec, streams: np.stack(settings * (len(streams) // 3)))
        plan = MeasurementPlan(3, 1, GlobalHaar(2))
        streams = [RngStream(48, (trial, 0)) for trial in range(3)]
        with pytest.raises(RecordError, match="setting 2: non-unitary"):
            run_plan(DensityMatrix.maximally_mixed(2), plan, streams)


class TestRecordStack:
    def make(self, settings=4, shots=3):
        return run_plan(
            DensityMatrix.maximally_mixed(2), MeasurementPlan(settings, shots, GlobalHaar(2)),
            RngStream(37),
        )

    def test_slices_only_and_no_iteration(self):
        stack = self.make()
        assert len(stack) == 4 and stack.dim == 2 and stack.shots == 3
        assert not isinstance(stack, Sequence)
        for index in (3, -1, np.int64(0)):
            with pytest.raises(TypeError, match="slices"):
                stack[index]
        with pytest.raises(TypeError):
            iter(stack)
        with pytest.raises(TypeError):
            list(stack)
        one = stack[3:4]
        assert isinstance(one, RecordStack) and len(one) == 1
        assert np.array_equal(one.unitaries[0], stack.unitaries[3])
        assert np.array_equal(one.frequencies[0], stack.frequencies[3])

    def test_needs_at_least_one_setting(self):
        with pytest.raises(ValueError, match="M >= 1"):
            RecordStack(np.zeros((0, 2, 2)), np.zeros((0, 2)), 1)

    @pytest.mark.parametrize(
        "index",
        [slice(3, None), slice(1, 1), slice(None, 0), slice(5, 9), slice(2, 0)],
        ids=["past-the-end", "empty-range", "zero-stop", "out-of-range", "reversed-bounds"],
    )
    def test_empty_slice_rejected(self, index):
        # An empty view would break the M >= 1 invariant that the
        # estimators, the log-likelihood and the record file rely on.
        with pytest.raises(ValueError, match="empty"):
            self.make(settings=3)[index]

    def test_reversed_and_negative_slices_keep_their_settings(self):
        stack = self.make(settings=3)
        assert np.array_equal(stack[::-1].counts, stack.counts[::-1])
        assert np.array_equal(stack[-1:].unitaries, stack.unitaries[2:])

    def test_prefix_is_a_read_only_view(self):
        stack = self.make()
        prefix = stack[:2]
        assert isinstance(prefix, RecordStack) and len(prefix) == 2
        assert np.shares_memory(prefix.unitaries, stack.unitaries)
        with pytest.raises(ValueError):
            stack.counts[0, 0] = 1
        with pytest.raises(ValueError):
            prefix.unitaries[0, 0, 0] = 1

    def test_construction_copies(self):
        unitaries = np.stack([np.eye(2), np.eye(2)])
        stack = RecordStack(unitaries, [[1, 0], [0, 1]], 1)
        unitaries[0, 0, 0] = 5.0
        assert stack.unitaries[0, 0, 0] == 1.0

    @pytest.mark.parametrize(
        "entry, counts, match",
        [
            (np.nan, [[1, 0]] * 3, "setting 2: non-unitary"),
            (0.5, [[1, 0]] * 3, "setting 2: non-unitary"),
            (1.0, [[1, 0], [1, 0], [2, -1]], "setting 2: outcome counts must be nonnegative"),
            (1.0, [[1, 0], [1, 0], [0, 0]], "setting 2: counts sum 0 != shots 1"),
        ],
    )
    def test_rejects_bad_setting_by_index(self, entry, counts, match):
        unitaries = np.stack([np.eye(2, dtype=complex)] * 3)
        unitaries[2, 1, 1] = entry
        with pytest.raises(ValueError, match=match):
            RecordStack(unitaries, counts, 1)

    def test_counts_shape_must_match(self):
        with pytest.raises(ValueError, match="one entry per outcome"):
            RecordStack(np.stack([np.eye(2)]), [[1, 0, 0]], 1)

    def test_run_plan_names_non_unitary_fixed_setting(self, monkeypatch):
        unitaries = np.stack([np.eye(2), np.eye(2), np.diag([1.0, 0.5])])
        monkeypatch.setattr(measurement, "sample_unitary", lambda spec, streams: unitaries)
        plan = MeasurementPlan(3, 1, GlobalHaar(2))
        with pytest.raises(RecordError, match="setting 2: non-unitary"):
            run_plan(DensityMatrix.maximally_mixed(2), plan, RngStream(38))


def loop_expanded(records):
    """One-hot single-shot settings built one outcome hit at a time:
    setting by setting, then outcome by outcome."""
    unitaries, counts = [], []
    for unitary, row in zip(records.unitaries, records.counts):
        for k, count in enumerate(row):
            for _ in range(count):
                unitaries.append(unitary)
                counts.append(np.eye(len(row), dtype=np.int64)[k])
    return np.stack(unitaries), np.stack(counts)


class TestExpandToSingleShot:
    def test_expansion_counts(self):
        record = RecordStack([np.eye(3)], [[2, 0, 3]], 5)
        expanded = expand_to_single_shot(record)
        assert isinstance(expanded, RecordStack)
        assert len(expanded) == 5 and expanded.shots == 1
        assert np.array_equal(expanded.counts.sum(axis=0), record.counts[0])

    @pytest.mark.parametrize("shots", [1, 3, 16])
    def test_matches_loop_reference_in_order(self, shots):
        plan = MeasurementPlan(7, shots, GlobalHaar(4))
        records = run_plan(DensityMatrix.maximally_mixed(4), plan, RngStream(39))
        expanded = expand_to_single_shot(records)
        unitaries, counts = loop_expanded(records)
        assert len(expanded) == 7 * shots
        assert np.array_equal(expanded.unitaries, unitaries)
        assert np.array_equal(expanded.counts, counts)


class TestRecordSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        plan = MeasurementPlan(3, 4, GlobalHaar(4))
        records = run_plan(DensityMatrix.maximally_mixed(4), plan, RngStream(15, (0, 0)))
        path = tmp_path / "records.txt"
        dump_records(records, path, seed=15)
        loaded, seed = load_records(path)
        assert seed == 15
        assert np.array_equal(loaded.unitaries, records.unitaries)
        assert np.array_equal(loaded.counts, records.counts)
        assert loaded.shots == records.shots

    def test_header_contents(self, tmp_path):
        plan = MeasurementPlan(2, 3, GlobalHaar(2))
        records = run_plan(DensityMatrix.maximally_mixed(2), plan, RngStream(16, (0, 0)))
        path = tmp_path / "records.txt"
        dump_records(records, path, seed=99)
        header = path.read_text().splitlines()[0]
        assert header == "2 2 3 99"

    def test_non_finite_value_rejected(self, tmp_path):
        plan = MeasurementPlan(2, 1, GlobalHaar(2))
        records = run_plan(DensityMatrix.maximally_mixed(2), plan, RngStream(18, (0, 0)))
        path = tmp_path / "records.txt"
        dump_records(records, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "nan" + lines[1][lines[1].index(" "):]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 2 has a non-finite value"):
            load_records(path)

    def test_non_unitary_block_names_its_line(self, tmp_path):
        plan = MeasurementPlan(2, 1, GlobalHaar(2))
        records = run_plan(DensityMatrix.maximally_mixed(2), plan, RngStream(19, (0, 0)))
        path = tmp_path / "records.txt"
        dump_records(records, path)
        lines = path.read_text().splitlines(keepends=True)
        # Header, then per record two unitary rows and one counts line.
        for index in (1, 4):
            broken = list(lines)
            broken[index] = "2 0 0 0\n"
            path.write_text("".join(broken))
            with pytest.raises(ValueError, match=f"records.txt, line {index + 1}: non-unitary"):
                load_records(path)

    def test_load_returns_a_stack(self, tmp_path):
        plan = MeasurementPlan(3, 2, GlobalHaar(2))
        records = run_plan(DensityMatrix.maximally_mixed(2), plan, RngStream(20, (0, 0)))
        path = tmp_path / "records.txt"
        dump_records(records, path)
        loaded, _ = load_records(path)
        assert isinstance(loaded, RecordStack)
        assert np.array_equal(loaded.unitaries, records.unitaries)
        assert np.array_equal(loaded.counts, records.counts)

    def test_trailing_content_rejected(self, tmp_path):
        records = run_plan(
            DensityMatrix.maximally_mixed(2), MeasurementPlan(3, 1, GlobalHaar(2)), RngStream(21)
        )
        path = tmp_path / "blocks.txt"
        dump_records(records, path)
        text = path.read_text()
        lines = text.count("\n")
        # Blank lines after the last block are harmless.
        path.write_text(text + "\n  \n")
        load_records(path)
        path.write_text(text + "\n0.1 0.2 0.3 0.4\nGARBAGE here\n")
        with pytest.raises(ValueError, match=f"blocks.txt, line {lines + 2}: unexpected content"):
            load_records(path)

    def test_overwriting_a_larger_dump_round_trips(self, tmp_path):
        state = DensityMatrix.maximally_mixed(4)
        large = run_plan(state, MeasurementPlan(20, 3, GlobalHaar(4)), RngStream(22))
        small = run_plan(state, MeasurementPlan(2, 5, GlobalHaar(4)), RngStream(23))
        path = tmp_path / "records.txt"
        dump_records(large, path, seed=22)
        dump_records(small, path, seed=23)
        loaded, seed = load_records(path)
        assert seed == 23
        assert np.array_equal(loaded.unitaries, small.unitaries)
        assert np.array_equal(loaded.counts, small.counts)

    @pytest.mark.parametrize("writer", ["emit_csv", "dump_records"])
    def test_writers_open_without_truncation(self, tmp_path, monkeypatch, writer):
        # Opening an existing file with O_TRUNC stalls for tens of
        # milliseconds on ext4; the writers overwrite in place instead.
        records = run_plan(
            DensityMatrix.maximally_mixed(2), MeasurementPlan(2, 1, GlobalHaar(2)), RngStream(24)
        )
        write = {
            "emit_csv": lambda path: emit_csv(
                [ResultRow("x", 0, 2, 1, 0.0, 0.0, "CS", "trace", 1.0)], path
            ),
            "dump_records": lambda path: dump_records(records, path),
        }[writer]
        expected = tmp_path / "expected.txt"
        write(expected)
        path = tmp_path / "out.txt"
        path.write_text("stale line\n" * 1000)
        opened = []
        real_open = os.open

        def spy(file, flags, *args, **kwargs):
            opened.append((os.fspath(file), flags))
            return real_open(file, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        write(path)
        monkeypatch.undo()
        flags = [flag for file, flag in opened if file == str(path)]
        assert len(flags) == 1
        assert not flags[0] & os.O_TRUNC
        assert path.read_bytes() == expected.read_bytes()

    def test_interrupt_before_the_cut_leaves_an_empty_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old line\n" * 1000)
        with pytest.raises(KeyboardInterrupt):
            with open_overwrite(path) as handle:
                handle.write("new line\n" * 2000)  # spans several buffer flushes
                raise KeyboardInterrupt
        assert path.read_bytes() == b""

    def test_failed_cut_leaves_an_empty_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old line\n" * 1000)
        real_ftruncate = os.ftruncate
        lengths = []

        def fail_unless_emptying(fd, length):
            lengths.append(length)
            if length:
                raise OSError("cut failed")
            real_ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", fail_unless_emptying)
        with pytest.raises(OSError, match="cut failed"):
            with open_overwrite(path) as handle:
                handle.write("new line\n")
        monkeypatch.undo()
        assert lengths == [len("new line\n"), 0]
        assert path.read_bytes() == b""

    def test_only_a_rewrite_of_existing_data_is_synced(self, tmp_path, monkeypatch):
        # Writing over old data in place can mix old and new blocks after a
        # crash unless the result is synced; a new or empty file cannot.
        synced_sizes = []
        real_fdatasync = os.fdatasync

        def spy(fd):
            synced_sizes.append(os.fstat(fd).st_size)
            real_fdatasync(fd)

        monkeypatch.setattr(os, "fdatasync", spy)
        path = tmp_path / "out.txt"
        for target, text in [(path, "new file\n"), (path, "rewrite\n"), (os.devnull, "device\n")]:
            with open_overwrite(target) as handle:
                handle.write(text)
        path.write_bytes(b"")
        with open_overwrite(path) as handle:
            handle.write("empty file\n")
        assert synced_sizes == [len("rewrite\n")]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 5), st.booleans())
    def test_every_proper_line_prefix_is_rejected(
        self, qubits, settings_count, shots, strip_newline
    ):
        dim = 2**qubits
        plan = MeasurementPlan(settings_count, shots, GlobalHaar(dim))
        records = run_plan(DensityMatrix.maximally_mixed(dim), plan, RngStream(17, (qubits, 0)))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "blocks.txt"
            dump_records(records, path, seed=17)
            lines = path.read_text().splitlines(keepends=True)
            load_records(path)
            for cut in range(len(lines)):
                prefix = "".join(lines[:cut])
                path.write_text(prefix.rstrip("\n") if strip_newline else prefix)
                with pytest.raises(ValueError, match="line"):
                    load_records(path)
