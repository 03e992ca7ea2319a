"""Tests for the LS, RLS, and CS shadow constructions."""

import tracemalloc

import numpy as np
import pytest

from shadowbench.core import DensityMatrix, born_probabilities
from shadowbench.ensembles import GlobalHaar, RngStream
from shadowbench.estimators import (
    CS,
    DEFAULT_RCOND,
    FRAME_COLUMNS,
    LS,
    RLS,
    FramePrefix,
    ShadowSet,
    average_estimate,
    cs_channel_apply,
    cs_channel_inverse,
    estimate,
    gram_ridge_solve,
    povm_operator_columns,
    shadow_map,
    unvec,
    vec,
)
from shadowbench.measurement import (
    MeasurementPlan,
    RecordStack,
    adjoint_map,
    expand_to_single_shot,
    run_plan,
)

from oracles import (
    dense_ls_estimate,
    dense_ridge_solve,
    haar_unitaries,
    hermitian_basis,
    naive_frame_matrix,
    random_density_matrix,
    random_hermitian,
)


def forbid_eigh(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ridge solve with a shift above the cutoff called eigh")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)


def setting_cs_shadows(records):
    """The CS shadow of each setting, one setting at a time."""
    return [
        shadow_map(CS(), adjoint_map(unitary, frequencies))
        for unitary, frequencies in zip(records.unitaries, records.frequencies)
    ]


def frame_of(unitaries, shots=1):
    return FramePrefix(np.stack(unitaries), shots).frame(len(unitaries))


def haar_settings(dim, count, seed, trial=0):
    return [haar_unitaries(dim, 1, RngStream(seed, (trial, m)))[0] for m in range(count)]


class TestVectorization:
    def test_round_trip(self):
        generator = np.random.default_rng(0)
        matrix = random_hermitian(3, generator)
        coordinates = vec(matrix)
        assert coordinates.dtype == np.float64 and coordinates.shape == (9,)
        restored = unvec(coordinates, 3)
        assert np.abs(restored - matrix).max() < 1e-15
        assert np.array_equal(restored, restored.conj().T)
        stack = np.stack([random_hermitian(4, generator) for _ in range(5)])
        assert vec(stack).shape == (5, 16)
        assert np.abs(unvec(vec(stack), 4) - stack).max() < 1e-15

    def test_inner_product_identity(self):
        generator = np.random.default_rng(1)
        a = random_hermitian(4, generator)
        b = random_hermitian(4, generator)
        assert vec(a) @ vec(b) == pytest.approx(np.trace(a @ b).real)
        assert vec(a) @ vec(a) == pytest.approx(np.linalg.norm(a) ** 2)

    def test_coordinates_match_explicit_basis(self):
        matrix = random_hermitian(3, np.random.default_rng(4))
        expected = [np.trace(member @ matrix).real for member in hermitian_basis(3)]
        assert np.abs(vec(matrix) - expected).max() < 1e-15

    def test_operator_columns_match_naive_elements(self):
        unitary = haar_unitaries(4, 1, RngStream(2))[0]
        columns = povm_operator_columns(unitary)
        assert columns.dtype == np.float64 and columns.shape == (16, 4)
        for k in range(4):
            element = np.outer(unitary[k].conj(), unitary[k])
            assert np.abs(columns[:, k] - vec(element)).max() < 1e-15


class TestFrameOperator:
    def test_identity_povm_frame_by_hand(self):
        frame = frame_of([np.eye(2)])
        expected = np.diag([1.0, 0.0, 0.0, 1.0])
        assert np.abs(frame.entries - expected).max() < 1e-15
        eigenvalues = np.sort(np.linalg.eigvalsh(frame.entries))
        assert np.allclose(eigenvalues, [0, 0, 1, 1], atol=1e-12)

    def test_duplicate_settings_average_out(self):
        unitary = haar_unitaries(4, 1, RngStream(3))[0]
        single = frame_of([unitary])
        repeated = frame_of([unitary] * 5)
        assert np.abs(single.entries - repeated.entries).max() < 1e-14

    def test_matches_naive_construction(self):
        unitaries = haar_settings(4, 3, seed=4)
        frame = frame_of(unitaries)
        assert frame.entries.dtype == np.float64
        assert np.abs(frame.entries - naive_frame_matrix(unitaries)).max() < 1e-13

    def test_stacked_columns_concatenate_per_setting_columns(self):
        unitaries = haar_settings(4, 3, seed=8)
        stacked = povm_operator_columns(np.stack(unitaries))
        expected = np.concatenate([povm_operator_columns(unitary) for unitary in unitaries], axis=1)
        assert np.array_equal(stacked, expected)

    def test_chunked_columns_match_per_setting_columns_at_d32(self):
        # 5 settings at D = 32 are 160 rows: two full chunks of 64 rows and
        # a partial one, against one chunk per setting.
        unitaries = np.stack([haar_unitaries(32, 1, RngStream(10, (0, m)))[0] for m in range(5)])
        stacked = povm_operator_columns(unitaries)
        expected = np.concatenate([povm_operator_columns(unitary) for unitary in unitaries], axis=1)
        assert stacked.shape == (32 * 32, 5 * 32)
        assert np.array_equal(stacked, expected)

    def test_column_temporaries_stay_small_beside_the_result(self):
        # A frame block at D = 32: the 16 MiB real result plus chunked
        # temporaries, not the block's 32 MiB of complex outer products.
        unitaries = np.stack(
            [haar_unitaries(32, 1, RngStream(11, (0, m)))[0] for m in range(FRAME_COLUMNS // 32)]
        )
        tracemalloc.start()
        try:
            columns = povm_operator_columns(unitaries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert columns.nbytes == 16 * 2**20
        assert peak <= 1.25 * columns.nbytes

    def test_columns_fill_a_given_buffer_in_place(self):
        # With out= the columns are a view of the caller's buffer, with the
        # same bits, and only the 1 MiB chunk temporaries are allocated.
        unitaries = np.stack([haar_unitaries(32, 1, RngStream(12, (0, m)))[0] for m in range(5)])
        expected = povm_operator_columns(unitaries)
        buffer = np.full((5 * 32, 32 * 32), np.nan)
        tracemalloc.start()
        try:
            columns = povm_operator_columns(unitaries, out=buffer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert columns.base is buffer
        assert np.array_equal(columns, expected)
        assert peak <= 1.5 * 2**20
        with pytest.raises(ValueError, match="columns buffer"):
            povm_operator_columns(unitaries, out=buffer[:-1])
        with pytest.raises(ValueError, match="columns buffer"):
            povm_operator_columns(unitaries, out=np.empty((32 * 32, 5 * 32)).T)

    def test_blocked_accumulation_matches_naive_across_blocks(self):
        # Two full blocks of FRAME_COLUMNS // D settings at D = 2 and a
        # partial third.
        unitaries = haar_settings(2, 2 * (FRAME_COLUMNS // 2) + 5, seed=9)
        frame = frame_of(unitaries)
        assert np.abs(frame.entries - naive_frame_matrix(unitaries)).max() < 1e-13

    @pytest.mark.parametrize("dim", [2, 4, 32])
    def test_frame_is_symmetric_bit_for_bit_across_blocks(self, dim):
        # ridge_apply hands LAPACK the frame's transpose as the same matrix.
        settings = 2 * (FRAME_COLUMNS // dim) + 3
        unitaries = haar_unitaries(dim, settings, np.random.default_rng(dim))
        prefix = FramePrefix(unitaries)
        for count in (FRAME_COLUMNS // dim - 1, settings):
            entries = prefix.frame(count).entries
            assert np.array_equal(entries, entries.T)

    def test_ridge_solve_matches_solve_on_the_c_ordered_shifted_frame(self):
        unitaries = haar_settings(4, 20, seed=13)
        frame = frame_of(unitaries, shots=2)
        vector = np.random.default_rng(14).standard_normal((16, 3))
        shifted = frame.entries.copy()
        shifted[np.diag_indices_from(shifted)] += 0.1 / 40
        assert shifted.flags.c_contiguous
        assert np.array_equal(frame.ridge_apply(vector, 0.1), np.linalg.solve(shifted, vector))

    def test_growing_prefix_reuses_one_buffer_per_call(self):
        # Growing a D = 32 prefix from 32 to 128 settings makes two blocks
        # in one call. Its peak holds the running sum, one product buffer,
        # one columns buffer reused by both blocks, and under 2 MiB of
        # chunk temporaries. Keeping the frame of 32 settings, a columns
        # array per block, or the buffers while the new frame is made
        # would each add at least 7 MiB.
        dim, step = 32, FRAME_COLUMNS // 32
        unitaries = haar_unitaries(dim, 128, np.random.default_rng(15))
        prefix = FramePrefix(unitaries)
        square = dim**4 * 8
        tracemalloc.start()
        try:
            prefix.frame(32)
            tracemalloc.reset_peak()
            frame = prefix.frame(128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frame.settings == 128
        columns = step * dim * dim**2 * 8
        assert peak <= square + square + columns + 2 * 2**20

    def test_empty_prefix_rejected(self):
        prefix = FramePrefix(haar_unitaries(2, 3, np.random.default_rng(16)))
        with pytest.raises(ValueError, match="at least one setting, got 0"):
            prefix.frame(0)

    def test_trace_equals_dimension(self):
        for dim in (2, 4, 8):
            unitaries = haar_settings(dim, 5, seed=dim)
            frame = frame_of(unitaries)
            assert frame.entries.trace().real == pytest.approx(dim, abs=1e-8)

    def test_hermitian_psd(self):
        frame = frame_of(haar_settings(4, 6, seed=5))
        assert np.abs(frame.entries - frame.entries.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(frame.entries).min() > -1e-12

    def test_converges_to_analytic_channel(self):
        dim = 2
        identity_vec = vec(np.eye(dim))
        channel_matrix = (np.eye(dim * dim) + np.outer(identity_vec, identity_vec.conj())) / (
            dim + 1
        )
        errors = []
        for count in (100, 1_000, 10_000):
            frame = frame_of(haar_settings(dim, count, seed=6))
            errors.append(np.linalg.norm(frame.entries - channel_matrix))
        assert errors[0] > errors[1] > errors[2]

        frame = frame_of(haar_settings(dim, 10_000, seed=7))
        # Entrywise agreement within 3 standard errors, estimated from
        # the per-setting spread.
        blocks = np.stack(
            [
                povm_operator_columns(unitary) @ povm_operator_columns(unitary).conj().T
                for unitary in haar_settings(dim, 10_000, seed=7)
            ]
        )
        spread = blocks.std(axis=0, ddof=1) / np.sqrt(blocks.shape[0])
        gap = np.abs(frame.entries - channel_matrix)
        assert np.all(gap <= 3 * np.abs(spread) + 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FramePrefix(np.empty((0, 2, 2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            FramePrefix(np.zeros((2, 2, 4)))
        with pytest.raises(ValueError, match="dim-mismatch"):
            FramePrefix(np.eye(4))  # one setting, not a stack of them
        with pytest.raises(ValueError):
            FramePrefix([np.eye(2), np.eye(4)])

    def test_list_of_unitaries_matches_stack(self):
        unitaries = haar_settings(4, 3, seed=10)
        listed = FramePrefix(unitaries, shots=2).frame(3)
        stacked = FramePrefix(np.stack(unitaries), shots=2).frame(3)
        assert np.array_equal(listed.entries, stacked.entries)


class TestLsShadow:
    def test_projector_frame_acts_as_identity(self):
        frame = frame_of([np.eye(2)])
        partial = np.diag([1.0, 0.0]).astype(complex)
        shadow = shadow_map(LS(), partial, frame)
        assert shadow.method == "LS"
        assert np.abs(shadow.matrix - partial).max() < 1e-12

    def test_zero_partial_gives_zero(self):
        frame = frame_of(haar_settings(4, 3, seed=8))
        shadow = shadow_map(LS(), np.zeros((4, 4)), frame)
        assert np.abs(shadow.matrix).max() == 0.0

    def test_exact_probabilities_recover_state(self):
        # Informationally complete fixed settings with exact Born
        # probabilities; the dense SVD solve is the independent oracle.
        dim = 2
        state = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        unitaries = haar_settings(dim, 4, seed=9)
        probability_vectors = [born_probabilities(unitary, state) for unitary in unitaries]

        frame = frame_of(unitaries)
        partials = [adjoint_map(unitary, p) for unitary, p in zip(unitaries, probability_vectors)]
        average = np.mean([shadow.matrix for shadow in shadow_map(LS(), partials, frame)], axis=0)

        oracle = dense_ls_estimate(unitaries, probability_vectors)
        assert np.abs(average - oracle).max() < 1e-8
        assert np.abs(average - state.matrix).max() < 1e-8

    @pytest.mark.parametrize("qubits", [2, 3])
    def test_matches_svd_oracle_around_interpolation(self, qubits):
        # M = D - 1, D, D + 1 settings: the frame is singular up to M = D,
        # so the kept subspace decides the estimate at the peak.
        dim = 2**qubits
        state = DensityMatrix(random_density_matrix(dim, np.random.default_rng(200 + qubits)))
        for settings in (dim - 1, dim, dim + 1):
            records = run_plan(
                state, MeasurementPlan(settings, 3, GlobalHaar(dim)), RngStream(26, (qubits, 0))
            )
            unitaries = list(records.unitaries)
            frequencies = list(records.frequencies)
            mean_adjoint = np.mean(
                [adjoint_map(unitary, phat) for unitary, phat in zip(unitaries, frequencies)],
                axis=0,
            )
            shadow = shadow_map(LS(), mean_adjoint, frame_of(unitaries))
            oracle = dense_ls_estimate(unitaries, frequencies)
            assert np.abs(shadow.matrix - oracle).max() < 1e-8

    def test_hermitian_output(self):
        records = run_plan(
            DensityMatrix.maximally_mixed(4),
            MeasurementPlan(3, 1, GlobalHaar(4)),
            RngStream(10, (0, 0)),
        )
        unitaries = list(records.unitaries)
        frame = frame_of(unitaries)
        for unitary, frequencies in zip(unitaries, records.frequencies):
            shadow = shadow_map(LS(), adjoint_map(unitary, frequencies), frame)
            assert np.abs(shadow.matrix - shadow.matrix.conj().T).max() < 1e-12


class TestRlsShadow:
    def test_zero_mu_matches_ls_on_invertible_frame(self):
        dim = 2
        unitaries = haar_settings(dim, 8, seed=11)
        frame = frame_of(unitaries)
        partial = adjoint_map(unitaries[0], np.array([0.25, 0.75]))
        ridge = shadow_map(RLS(0.0), partial, frame).matrix
        assert np.abs(ridge - shadow_map(LS(), partial, frame).matrix).max() < 1e-8

    def test_huge_mu_shrinks_to_zero(self):
        frame = frame_of(haar_settings(2, 4, seed=12))
        partial = adjoint_map(
            np.eye(2), np.array([1.0, 0.0])
        )
        shadow = shadow_map(RLS(1e6), partial, frame)
        assert np.linalg.norm(shadow.matrix) < 1e-3

    def test_matches_dense_solver_oracle(self):
        dim = 2
        unitaries = haar_settings(dim, 5, seed=13)
        frame = frame_of(unitaries)
        partial = adjoint_map(unitaries[2], np.array([0.4, 0.6]))
        shadow = shadow_map(RLS(0.1), partial, frame)
        oracle = dense_ridge_solve(unitaries, 0.1, partial)
        assert np.abs(shadow.matrix - oracle).max() < 1e-10

    def test_zero_mu_is_ls_on_a_singular_frame(self):
        # One setting spans 4 of 16 dimensions at D = 4; RLS(0) applies the
        # same pseudoinverse as LS.
        unitaries = haar_settings(4, 1, seed=14)
        frame = frame_of(unitaries)
        partial = adjoint_map(unitaries[0], np.array([0.1, 0.2, 0.3, 0.4]))
        ridge = shadow_map(RLS(0.0), partial, frame).matrix
        assert np.array_equal(ridge, shadow_map(LS(), partial, frame).matrix)
        assert np.abs(ridge - dense_ls_estimate(unitaries, [[0.1, 0.2, 0.3, 0.4]])).max() < 1e-10

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf"), -1e-3])
    def test_non_finite_or_negative_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must be finite and >= 0"):
            RLS(mu)

    def test_shift_at_the_cutoff_takes_the_pseudoinverse(self, monkeypatch):
        # mu/(M L) at or below DEFAULT_RCOND is the pseudoinverse, bit for
        # bit; just above it is an LU solve that calls no eigh.
        unitaries = haar_settings(4, 6, seed=20)
        frame = frame_of(unitaries, shots=2)
        partial = vec(adjoint_map(unitaries[1], np.array([0.1, 0.2, 0.3, 0.4])))
        at_cutoff = 12 * DEFAULT_RCOND
        assert np.array_equal(frame.ridge_apply(partial, at_cutoff), frame.pinv_apply(partial))
        pinv = frame.pinv_apply(partial)
        forbid_eigh(monkeypatch)
        above = frame.ridge_apply(partial, 2 * at_cutoff)
        assert np.abs(above - pinv).max() < 1e-6

    def test_negative_mu_rejected(self):
        frame = frame_of(haar_settings(2, 4, seed=15))
        with pytest.raises(ValueError, match=">= 0"):
            frame.ridge_apply(vec(np.eye(2) / 2), -0.5)

    def test_shift_above_the_cutoff_needs_no_eigendecomposition(self, monkeypatch):
        unitaries = haar_settings(4, 6, seed=16)
        frame = frame_of(unitaries)
        partial = adjoint_map(unitaries[1], np.array([0.1, 0.2, 0.3, 0.4]))
        oracle = dense_ridge_solve(unitaries, 0.1, partial)
        forbid_eigh(monkeypatch)
        shadow = shadow_map(RLS(0.1), partial, frame)
        assert np.abs(shadow.matrix - oracle).max() < 1e-10

    def test_estimate_solves_all_records_without_eigendecomposition(self, monkeypatch):
        records = run_plan(
            DensityMatrix.computational_basis_state(4),
            MeasurementPlan(6, 3, GlobalHaar(4)),
            RngStream(17, (0, 0)),
        )
        unitaries = list(records.unitaries)
        frame = frame_of(unitaries, shots=3)
        expected = [
            shadow_map(RLS(0.2), adjoint_map(unitary, frequencies), frame).matrix
            for unitary, frequencies in zip(unitaries, records.frequencies)
        ]
        forbid_eigh(monkeypatch)
        shadows = estimate(records, RLS(0.2)).shadows
        for shadow, single in zip(shadows, expected):
            assert np.abs(shadow.matrix - single).max() < 1e-12


@pytest.mark.parametrize("settings", [2, 5])
def test_unknown_method_type_rejected_on_both_routes(settings):
    # M = 2 takes the Gram route at D = 4 and M = 5 the frame route.
    class Unknown:
        pass

    records = run_plan(
        DensityMatrix.maximally_mixed(4), MeasurementPlan(settings, 1, GlobalHaar(4)),
        RngStream(21, (0, 0)),
    )
    frames = FramePrefix(records.unitaries)
    mean = np.mean(adjoint_map(records.unitaries, records.frequencies), axis=0)
    with pytest.raises(TypeError, match="unknown shadow method Unknown"):
        average_estimate(Unknown(), records, mean, frames)
    with pytest.raises(TypeError, match="unknown shadow method Unknown"):
        shadow_map(Unknown(), mean, frames.frame(settings))


class TestGramRidgeSolve:
    @pytest.mark.parametrize("qubits", [2, 3])
    @pytest.mark.parametrize("shots", [1, 4])
    def test_matches_dense_ridge_oracle_below_interpolation(self, qubits, shots):
        dim = 2**qubits
        generator = np.random.default_rng(100 + qubits)
        state = DensityMatrix(random_density_matrix(dim, generator))
        for settings in range(1, dim):
            records = run_plan(
                state,
                MeasurementPlan(settings, shots, GlobalHaar(dim)),
                RngStream(18, (qubits, 0)),
            )
            unitaries = list(records.unitaries)
            mean_adjoint = np.mean(
                [
                    adjoint_map(unitary, phat)
                    for unitary, phat in zip(unitaries, records.frequencies)
                ],
                axis=0,
            )
            # Effective single-shot view: each setting counts L times.
            oracle = dense_ridge_solve(unitaries * shots, 0.1, mean_adjoint)
            solution = gram_ridge_solve(records.unitaries, records.frequencies, 0.1, shots)
            assert np.abs(solution - oracle).max() < 1e-10

    @pytest.mark.parametrize("qubits", [2, 3])
    @pytest.mark.parametrize("shots", [1, 4])
    def test_zero_mu_matches_svd_ls_oracle_at_and_below_interpolation(self, qubits, shots):
        # The Gram route of LS: A† G⁺ p̂ is the minimum-norm least-squares
        # state for every M <= D, where the frame is singular.
        dim = 2**qubits
        state = DensityMatrix(random_density_matrix(dim, np.random.default_rng(110 + qubits)))
        for settings in range(1, dim + 1):
            records = run_plan(
                state, MeasurementPlan(settings, shots, GlobalHaar(dim)), RngStream(19, (qubits, 0))
            )
            solution = gram_ridge_solve(records.unitaries, records.frequencies, 0.0, shots)
            oracle = dense_ls_estimate(list(records.unitaries), list(records.frequencies))
            assert np.abs(solution - oracle).max() < 1e-10

    def test_shift_above_the_cutoff_needs_no_eigendecomposition(self, monkeypatch):
        # Two settings of four shots: the shift mu/(M L) crosses
        # DEFAULT_RCOND at mu = 8e-10.
        unitaries = np.stack(haar_settings(4, 2, seed=19))
        frequencies = np.full((2, 4), 0.25)
        ls = gram_ridge_solve(unitaries, frequencies, 0.0, 4)
        assert np.array_equal(gram_ridge_solve(unitaries, frequencies, 8 * DEFAULT_RCOND, 4), ls)
        forbid_eigh(monkeypatch)
        ridge = gram_ridge_solve(unitaries, frequencies, 16 * DEFAULT_RCOND, 4)
        assert np.abs(ridge - ls).max() < 1e-8

    def test_negative_mu_rejected(self):
        unitaries = np.stack(haar_settings(4, 2, seed=19))
        with pytest.raises(ValueError, match=">= 0"):
            gram_ridge_solve(unitaries, np.full((2, 4), 0.25), -1.0)


class TestCsChannel:
    def test_maximally_mixed_fixed_point(self):
        mixed = np.eye(4) / 4
        assert np.abs(cs_channel_apply(mixed) - mixed).max() < 1e-15
        assert np.abs(cs_channel_inverse(mixed) - mixed).max() < 1e-15

    def test_pure_state_examples(self):
        pure = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(cs_channel_apply(pure), np.diag([2 / 3, 1 / 3]), atol=1e-15)
        assert np.allclose(cs_channel_inverse(pure), np.diag([2.0, -1.0]), atol=1e-15)

    def test_trace_preservation(self):
        generator = np.random.default_rng(16)
        matrix = random_hermitian(8, generator)
        assert cs_channel_apply(matrix).trace() == pytest.approx(matrix.trace(), abs=1e-12)

    def test_inverse_composition_is_identity(self):
        generator = np.random.default_rng(17)
        for _ in range(100):
            matrix = random_hermitian(4, generator)
            roundtrip = cs_channel_inverse(cs_channel_apply(matrix))
            assert np.abs(roundtrip - matrix).max() < 1e-12


class TestCsShadow:
    def test_identity_povm_single_shot(self):
        dim = 4
        counts = np.zeros(dim, dtype=np.int64)
        counts[2] = 1
        (shadow,) = setting_cs_shadows(RecordStack([np.eye(dim)], [counts], 1))
        expected = -np.eye(dim).astype(complex)
        expected[2, 2] = dim
        assert np.abs(shadow.matrix - expected).max() < 1e-12
        eigenvalues = np.linalg.eigvalsh(shadow.matrix)
        assert eigenvalues[-1] == pytest.approx(dim, abs=1e-9)
        assert np.abs(eigenvalues[:-1] + 1).max() < 1e-9

    def test_unit_trace(self):
        records = run_plan(
            DensityMatrix.maximally_mixed(8),
            MeasurementPlan(20, 3, GlobalHaar(8)),
            RngStream(18, (0, 0)),
        )
        for shadow in setting_cs_shadows(records):
            assert abs(shadow.trace - 1.0) < 1e-10

    def test_single_shot_outer_product_form(self):
        records = run_plan(
            DensityMatrix.computational_basis_state(8),
            MeasurementPlan(10, 1, GlobalHaar(8)),
            RngStream(19, (0, 0)),
        )
        shadows = setting_cs_shadows(records)
        for unitary, frequencies, shadow in zip(records.unitaries, records.frequencies, shadows):
            vector = unitary.conj().T @ frequencies
            outer_form = 9 * np.outer(vector, vector.conj()) - np.eye(8)
            assert np.abs(shadow.matrix - outer_form).max() < 1e-12

    def test_adjoint_without_unit_trace_rejected(self):
        with pytest.raises(RuntimeError, match="trace"):
            shadow_map(CS(), np.eye(2))

    def test_unbiasedness_monte_carlo(self):
        dim, count = 2, 100_000
        state = DensityMatrix(np.array([[0.75, 0.25 - 0.2j], [0.25 + 0.2j, 0.25]]))
        records = run_plan(
            state, MeasurementPlan(count, 1, GlobalHaar(dim)), RngStream(20, (0, 0))
        )
        shadows = np.stack([shadow.matrix for shadow in setting_cs_shadows(records)])
        mean = shadows.mean(axis=0)
        spread_re = shadows.real.std(axis=0, ddof=1) / np.sqrt(count)
        spread_im = shadows.imag.std(axis=0, ddof=1) / np.sqrt(count)
        assert np.all(np.abs(mean.real - state.matrix.real) <= 3 * spread_re)
        assert np.all(np.abs(mean.imag - state.matrix.imag) <= 3 * spread_im + 1e-12)


class TestEstimate:
    def test_identical_records_average(self):
        result = estimate(RecordStack([np.eye(2)] * 4, [[1, 0]] * 4, 1), CS())
        for shadow in result.shadows:
            assert np.abs(shadow.matrix - result.average.matrix).max() < 1e-14

    def test_cs_average_trace(self):
        records = run_plan(
            DensityMatrix.computational_basis_state(4),
            MeasurementPlan(12, 1, GlobalHaar(4)),
            RngStream(21, (0, 0)),
        )
        result = estimate(records, CS())
        assert result.average.trace == pytest.approx(1.0, abs=1e-10)

    def test_ls_trace_one_in_range_space(self):
        # M*K <= D^2 with generic Haar settings: linearly independent
        # operators, so the frequencies lie in the frame's range space.
        dim = 4
        for trial in range(20):
            settings = 1 + trial % dim
            records = run_plan(
                DensityMatrix.maximally_mixed(dim),
                MeasurementPlan(settings, 1, GlobalHaar(dim)),
                RngStream(22, (trial, 0)),
            )
            result = estimate(records, LS())
            assert abs(result.average.trace - 1.0) < 1e-8
            defect = np.abs(result.average.matrix - result.average.matrix.conj().T).max()
            assert defect < 1e-10

    def test_multishot_equivalence(self):
        dim = 4
        records = run_plan(
            DensityMatrix.maximally_mixed(dim),
            MeasurementPlan(5, 12, GlobalHaar(dim)),
            RngStream(23, (0, 0)),
        )
        expanded = expand_to_single_shot(records)
        for method in (LS(), RLS(0.1), CS()):
            multi = estimate(records, method).average.matrix
            single = estimate(expanded, method).average.matrix
            assert np.abs(multi - single).max() < 1e-10

    def test_rls_norm_monotone_in_mu(self):
        records = run_plan(
            DensityMatrix.computational_basis_state(4),
            MeasurementPlan(6, 1, GlobalHaar(4)),
            RngStream(24, (0, 0)),
        )
        norms = [
            np.linalg.norm(estimate(records, RLS(mu)).average.matrix)
            for mu in (0.01, 0.1, 1.0, 10.0)
        ]
        for smaller_mu, larger_mu in zip(norms, norms[1:]):
            assert larger_mu <= smaller_mu + 1e-10

    def test_shadow_set_average_consistency_enforced(self):
        shadow, wrong = setting_cs_shadows(RecordStack([np.eye(2)] * 2, [[1, 0], [0, 1]], 1))
        with pytest.raises(ValueError, match="average"):
            ShadowSet((shadow,), wrong)


class TestFrameShotScaling:
    def test_effective_settings_count(self):
        unitaries = haar_settings(2, 3, seed=25)
        frame = frame_of(unitaries, shots=4)
        assert frame.settings == 12
        plain = frame_of(unitaries)
        assert np.abs(frame.entries - plain.entries).max() < 1e-15
