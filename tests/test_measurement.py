"""Tests for shot sampling, records, and the adjoint map."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowbench.core import DensityMatrix, RankOnePovm, born_probabilities
from shadowbench.ensembles import (
    FixedUnitaries,
    GlobalHaar,
    RngStream,
    load_fixed_ensemble,
    sample_global_haar,
    save_unitaries,
)
from shadowbench.measurement import (
    MeasurementPlan,
    MeasurementRecord,
    adjoint_map,
    dump_records,
    expand_to_single_shot,
    load_records,
    run_plan,
    sample_counts,
)


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
            MeasurementRecord(RankOnePovm(np.eye(2)), [1, 1], 3)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MeasurementRecord(RankOnePovm(np.eye(2)), [3, -1], 2)

    def test_frequencies(self):
        record = MeasurementRecord(RankOnePovm(np.eye(2)), [3, 1], 4)
        assert np.array_equal(record.frequencies, [0.75, 0.25])
        assert record.frequencies.sum() == 1.0

    def test_one_hot_frequencies(self):
        record = MeasurementRecord(RankOnePovm(np.eye(3)), [0, 0, 5], 5)
        assert np.array_equal(record.frequencies, [0, 0, 1])


class TestAdjointMap:
    def test_identity_povm_one_hot(self):
        povm = RankOnePovm(np.eye(4))
        phat = np.array([0.0, 0.0, 1.0, 0.0])
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        assert np.abs(adjoint_map(povm, phat) - expected).max() < 1e-15

    def test_uniform_frequencies_give_mixed_state(self):
        povm = RankOnePovm(sample_global_haar(4, RngStream(5)))
        partial = adjoint_map(povm, np.full(4, 0.25))
        assert np.abs(partial - np.eye(4) / 4).max() < 1e-12

    def test_one_hot_matches_outer_product_form(self):
        # Independent code path: the rank-1 simplification
        # (U† p̂)(U† p̂)† for one-hot frequencies.
        for index in range(6):
            povm = RankOnePovm(sample_global_haar(8, RngStream(6, (0, index))))
            phat = np.zeros(8)
            phat[index] = 1.0
            general = adjoint_map(povm, phat)
            vector = povm.unitary.conj().T @ phat
            outer = np.outer(vector, vector.conj())
            assert np.abs(general - outer).max() < 1e-12

    def test_psd_with_unit_trace(self):
        generator = RngStream(7).generator
        for _ in range(50):
            povm = RankOnePovm(sample_global_haar(4, generator))
            phat = generator.dirichlet(np.ones(4))
            partial = adjoint_map(povm, phat)
            assert np.abs(partial - partial.conj().T).max() < 1e-14
            assert partial.trace().real == pytest.approx(phat.sum(), abs=1e-12)
            assert np.linalg.eigvalsh(partial).min() > -1e-12

    def test_sampled_mean_converges_to_exact(self):
        dim, trials = 2, 10_000
        state = DensityMatrix(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
        povm = RankOnePovm(sample_global_haar(dim, RngStream(8)))
        p = born_probabilities(povm, state)
        exact = adjoint_map(povm, p)
        generator = RngStream(9).generator
        sampled = np.zeros((dim, dim), dtype=complex)
        squared = np.zeros((dim, dim))
        for _ in range(trials):
            phat = sample_counts(p, 1, generator)
            partial = adjoint_map(povm, phat.astype(float))
            sampled += partial
            squared += np.abs(partial) ** 2
        mean = sampled / trials
        variance = squared / trials - np.abs(mean) ** 2
        margin = 3 * np.sqrt(np.maximum(variance, 0.0) / trials) + 1e-12
        assert np.all(np.abs(mean - exact) <= margin)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            adjoint_map(RankOnePovm(np.eye(4)), np.array([1.0, 0.0]))


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
    def test_deterministic_fixed_plan(self):
        plan = MeasurementPlan(1, 1, FixedUnitaries((np.eye(2),)))
        records = run_plan(DensityMatrix.computational_basis_state(2), plan, RngStream(11, (0, 0)))
        assert len(records) == 1
        assert np.array_equal(records[0].counts, [1, 0])

    def test_record_count_and_totals(self):
        plan = MeasurementPlan(4, 7, GlobalHaar(4))
        records = run_plan(DensityMatrix.maximally_mixed(4), plan, RngStream(12, (0, 0)))
        assert len(records) == 4
        for record in records:
            assert record.counts.sum() == 7

    def test_prefix_property(self):
        state = DensityMatrix.maximally_mixed(4)
        small = run_plan(state, MeasurementPlan(3, 2, GlobalHaar(4)), RngStream(13, (5, 0)))
        large = run_plan(state, MeasurementPlan(6, 2, GlobalHaar(4)), RngStream(13, (5, 0)))
        for a, b in zip(small, large):
            assert np.array_equal(a.povm.unitary, b.povm.unitary)
            assert np.array_equal(a.counts, b.counts)

    def test_mixed_state_frequencies(self):
        shots = 100_000
        plan = MeasurementPlan(1, shots, FixedUnitaries((np.eye(2),)))
        records = run_plan(DensityMatrix.maximally_mixed(2), plan, RngStream(14, (0, 0)))
        margin = 3 * np.sqrt(0.25 / shots)
        assert abs(records[0].frequencies[0] - 0.5) < margin

    def test_dim_mismatch(self):
        plan = MeasurementPlan(1, 1, GlobalHaar(4))
        with pytest.raises(ValueError, match="dim-mismatch"):
            run_plan(DensityMatrix.computational_basis_state(2), plan, RngStream(0, (0, 0)))


class TestExpandToSingleShot:
    def test_expansion_counts(self):
        record = MeasurementRecord(RankOnePovm(np.eye(3)), [2, 0, 3], 5)
        expanded = expand_to_single_shot(record)
        assert len(expanded) == 5
        assert all(one.shots == 1 for one in expanded)
        totals = sum(one.counts for one in expanded)
        assert np.array_equal(totals, record.counts)


class TestRecordSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        plan = MeasurementPlan(3, 4, GlobalHaar(4))
        records = run_plan(DensityMatrix.maximally_mixed(4), plan, RngStream(15, (0, 0)))
        path = tmp_path / "records.txt"
        dump_records(records, path, seed=15)
        loaded, seed = load_records(path)
        assert seed == 15
        assert len(loaded) == len(records)
        for original, restored in zip(records, loaded):
            assert np.array_equal(original.povm.unitary, restored.povm.unitary)
            assert np.array_equal(original.counts, restored.counts)
            assert original.shots == restored.shots

    def test_header_contents(self, tmp_path):
        plan = MeasurementPlan(2, 3, GlobalHaar(2))
        records = run_plan(DensityMatrix.maximally_mixed(2), plan, RngStream(16, (0, 0)))
        path = tmp_path / "records.txt"
        dump_records(records, path, seed=99)
        header = path.read_text().splitlines()[0]
        assert header == "2 2 3 99"

    def test_empty_dump_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            dump_records([], tmp_path / "nothing.txt")

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

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from(["records", "unitaries"]),
        st.integers(1, 2),
        st.integers(1, 2),
        st.integers(1, 5),
        st.booleans(),
    )
    def test_every_proper_line_prefix_is_rejected(
        self, kind, qubits, settings_count, shots, strip_newline
    ):
        dim = 2**qubits
        plan = MeasurementPlan(settings_count, shots, GlobalHaar(dim))
        records = run_plan(DensityMatrix.maximally_mixed(dim), plan, RngStream(17, (qubits, 0)))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "blocks.txt"
            if kind == "records":
                dump_records(records, path, seed=17)
                load = load_records
            else:
                save_unitaries([record.povm.unitary for record in records], path)
                load = load_fixed_ensemble
            lines = path.read_text().splitlines(keepends=True)
            load(path)
            for cut in range(len(lines)):
                prefix = "".join(lines[:cut])
                path.write_text(prefix.rstrip("\n") if strip_newline else prefix)
                with pytest.raises(ValueError, match="line"):
                    load(path)
