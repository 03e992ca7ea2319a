"""Tests for the moment identities and the multishot MSE formula."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from shadowbench.core import DensityMatrix, Observable, expectation
from shadowbench.ensembles import AUX_STREAM_INDEX, GlobalHaar
from shadowbench.estimators import CS, estimate
from shadowbench.experiments import canonical_state_and_observables
from shadowbench.measurement import MeasurementPlan, run_plan
from shadowbench import theory
from shadowbench.theory import (
    THEOREM1_BATCH,
    THEOREM1_CHUNK,
    MseEstimate,
    empirical_mse,
    mse_theorem1,
)

from oracles import (
    cs_mse_exact,
    haar_unitaries,
    multinomial_moments,
    random_observable_cdf,
    random_observable_pdf,
    stream,
    theorem1_mse_exact,
)


class TestMultinomialMoments:
    def test_single_shot(self):
        p = np.array([0.2, 0.5, 0.3])
        second, cross = multinomial_moments(p, 1)
        assert np.allclose(second, p)
        off_diagonal = cross[~np.eye(3, dtype=bool)]
        assert np.abs(off_diagonal).max() == 0.0

    def test_large_shot_limit(self):
        p = np.array([0.25, 0.75])
        second, _ = multinomial_moments(p, 10**9)
        assert np.allclose(second, p * p, atol=1e-8)

    def test_fair_coin_at_four_shots(self):
        second, cross = multinomial_moments(np.array([0.5, 0.5]), 4)
        assert second[0] == pytest.approx(0.3125, abs=1e-15)
        assert cross[0, 1] == pytest.approx((1 - 0.25) * 0.25, abs=1e-15)

    def test_monte_carlo_agreement(self):
        p = np.array([0.5, 0.5])
        draws = 1_000_000
        samples = stream(1).multinomial(4, p, size=draws) / 4
        squared = samples[:, 0] ** 2
        margin = 3 * squared.std(ddof=1) / np.sqrt(draws)
        assert abs(squared.mean() - 0.3125) <= margin

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        st.integers(1, 1000),
    )
    def test_variance_identity(self, weights, shots):
        p = np.array(weights) / np.sum(weights)
        second, _ = multinomial_moments(p, shots)
        assert np.allclose(second - p * p, p * (1 - p) / shots, atol=1e-15)
        assert np.all(second - p * p >= -1e-15)

    def test_invalid_shots_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            multinomial_moments(np.array([1.0]), 0)


def _single_shot_reduction_oracle(state, obs, settings, samples, generator):
    """Independently coded L = 1 special case:
    (1/M) E[sum_k p_k t_k^2] - (1/M) lambda^2."""
    dim = state.dim
    truth = expectation(obs, state)
    unitaries = haar_unitaries(dim, samples, generator)
    p = np.einsum("bki,ij,bkj->bk", unitaries, state.matrix, unitaries.conj()).real
    overlap = np.einsum("bki,ij,bkj->bk", unitaries, obs.matrix, unitaries.conj()).real
    t = (dim + 1) * overlap - obs.matrix.trace().real
    per_draw = (p * t * t).sum(axis=1) / settings - truth * truth / settings
    return per_draw.mean(), per_draw.std(ddof=1) / np.sqrt(samples)


class TestMseTheorem1:
    @pytest.mark.parametrize("dim, scaled", [(2, Fraction(1, 2)), (4, 1), (8, Fraction(7, 5))])
    def test_exact_oracle_at_one_shot(self, dim, scaled):
        # At L = 1 the MSE is (D E[x t^2] - 1)/M, whatever M.
        for settings in (1, 16, 64):
            assert settings * theorem1_mse_exact(dim, settings, 1) == scaled

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_monte_carlo_matches_the_exact_value(self, dim):
        # The points drawn one after another from the theory stream (AUX, 1),
        # as a theorem1 run draws its plan entries.
        generator = stream(7, (AUX_STREAM_INDEX, 1))
        for settings, shots in ((16, 1), (16, 4), (64, 8)):
            predicted = mse_theorem1(dim, settings, shots, 100_000, generator)
            exact = float(theorem1_mse_exact(dim, settings, shots))
            assert abs(predicted.value - exact) < 3 * predicted.std_error, (settings, shots)

    def test_single_shot_reduces_to_simple_form(self):
        state = DensityMatrix.computational_basis_state(4)
        obs = Observable.rank_one([1.0, 0, 0, 0])
        full = mse_theorem1(4, 8, 1, 4000, stream(2, (0, 0)))
        reduced_value, _ = _single_shot_reduction_oracle(
            state, obs, 8, 4000, stream(2, (0, 0))
        )
        # Same seed, same draws: the reduction is algebraic, not statistical.
        assert full.value == pytest.approx(reduced_value, abs=1e-12)

    def test_matches_full_simulation(self):
        dim, settings, trials = 2, 8, 10_000
        state = DensityMatrix.computational_basis_state(dim)
        obs = Observable.rank_one(np.array([1.0, 0.0]))
        truth = expectation(obs, state)

        stacks = run_plan(state, MeasurementPlan(settings, 1, GlobalHaar(dim)), 3, range(trials))
        estimates = [expectation(obs, estimate(records, CS()).mean(axis=0)) for records in stacks]
        empirical = empirical_mse(estimates, truth)
        predicted = mse_theorem1(dim, settings, 1, 10_000, stream(4))
        combined = np.hypot(empirical.std_error, predicted.std_error)
        assert abs(empirical.value - predicted.value) < 3 * combined

    def test_inverse_scaling_in_settings(self):
        small = mse_theorem1(4, 8, 2, 2000, stream(5, (0, 0)))
        large = mse_theorem1(4, 16, 2, 2000, stream(5, (0, 0)))
        # Same draws: every term carries exactly 1/M.
        assert large.value == pytest.approx(small.value / 2, rel=1e-12)

    def test_nonnegative_when_resolved(self):
        result = mse_theorem1(4, 4, 2, 20_000, stream(6))
        assert result.value > 3 * result.std_error
        assert result.value > 0.0

    def test_larger_shots_never_beat_single_shot_at_fixed_budget(self):
        dim, budget = 4, 64
        results = {
            shots: mse_theorem1(dim, budget // shots, shots, 40_000, stream(7, (0, shots)))
            for shots in (1, 8, 64)
        }
        for shots in (8, 64):
            combined = np.hypot(results[1].std_error, results[shots].std_error)
            assert results[1].value <= results[shots].value + 3 * combined

    @pytest.mark.parametrize("dim", [4, 8, 16, 32])
    def test_makes_no_qr_call_at_every_dimension(self, dim, monkeypatch):
        # p and t read the first column of U alone, which its normals'
        # norm fixes: LAPACK is not called.
        qr_calls = []
        qr = np.linalg.qr

        def counted_qr(matrices, *args, **kwargs):
            qr_calls.append(matrices.shape)
            return qr(matrices, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        mse_theorem1(dim, 4, 1, 10, stream(14))
        assert qr_calls == []

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            mse_theorem1(2, 4, 1, 1, stream(9))

    @pytest.mark.parametrize("counts, message", [
        ((1, 4, 1, 100), "dimension must be >= 2, got 1"),
        ((0, 4, 1, 100), "dimension must be >= 2, got 0"),
        ((2, 0, 1, 100), "settings and shots must both be >= 1"),
        ((2, 4, 0, 100), "settings and shots must both be >= 1"),
    ])
    def test_out_of_range_counts_rejected_before_any_draw(self, counts, message):
        generator = stream(9)
        before = generator.bit_generator.state
        with pytest.raises(ValueError, match=f"^{message}$"):
            mse_theorem1(*counts, generator)
        assert generator.bit_generator.state == before

    @pytest.mark.parametrize("name, counts", [
        ("dim", (1.5, 4, 1, 100)), ("settings", (2, 1.5, 1, 100)), ("shots", (2, 4, 1.5, 100)),
        ("ensemble_samples", (2, 4, 1, 1.5)),
    ])
    def test_non_integral_counts_rejected(self, name, counts):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got 1.5"):
            mse_theorem1(*counts, stream(9))
        numpy_counts = [np.int64(count) for count in (2, 4, 1, 100)]
        assert mse_theorem1(*numpy_counts, stream(9)) == mse_theorem1(2, 4, 1, 100, stream(9))


class TestChunkedNormals:
    @pytest.mark.parametrize("chunk", [THEOREM1_CHUNK, 1000])
    @pytest.mark.parametrize("dim", [8, 32])
    def test_estimate_has_the_bits_of_one_draw_per_batch(self, dim, chunk, monkeypatch):
        # Batches of 128 unitaries and 300 samples, so the last batch is
        # partial; at D = 8 a default chunk is 128 unitaries and at D = 32
        # 64, and 1000 entries are 125 or 31 rows, dividing no batch.
        monkeypatch.setattr(theory, "THEOREM1_BATCH", 128)
        monkeypatch.setattr(theory, "THEOREM1_CHUNK", chunk)
        assert np.array_equal(theory._leading_normals(stream(18), 300, dim),
                              stream(18).standard_normal((2, 300, dim, dim))[..., 0])
        batches = []

        def one_draw(rng, batch, dim):
            batches.append(batch)
            return rng.standard_normal((2, batch, dim, dim))[..., 0]

        chunked_rng, drawn_rng = stream(19, (0, dim)), stream(19, (0, dim))
        chunked = mse_theorem1(dim, 8, 4, 300, chunked_rng)
        monkeypatch.setattr(theory, "_leading_normals", one_draw)
        drawn = mse_theorem1(dim, 8, 4, 300, drawn_rng)
        assert batches == [128, 128, 44]
        assert (chunked.value, chunked.std_error) == (drawn.value, drawn.std_error)
        # Both leave the stream at the same place.
        assert chunked_rng.bit_generator.state == drawn_rng.bit_generator.state

    def test_batch_holds_its_kept_columns_and_one_chunk(self):
        # At D = 32 a full batch of 4096 draws is 64 MiB of normals; kept,
        # its first column is 2 MiB.
        mse_theorem1(32, 16, 1, 10, stream(20))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            mse_theorem1(32, 16, 1, 4096, stream(20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _theorem1_oracle(state, obs, settings, shots_grid, samples, generator):
    """mse_theorem1 for each L from haar_unitaries draws and the
    unfolded sum t^T E[p̂ p̂^T] t over every pair (k, k')."""
    dim = state.dim
    truth = expectation(obs, state)
    p_parts, t_parts = [], []
    for start in range(0, samples, THEOREM1_BATCH):
        unitaries = haar_unitaries(dim, min(THEOREM1_BATCH, samples - start), generator)
        conj = unitaries.conj()
        p_parts.append(np.einsum("bki,ij,bkj->bk", unitaries, state.matrix, conj).real)
        overlap = np.einsum("bki,ij,bkj->bk", unitaries, obs.matrix, conj).real
        t_parts.append((dim + 1) * overlap - obs.matrix.trace().real)
    p, t = np.concatenate(p_parts), np.concatenate(t_parts)
    results = {}
    for shots in shots_grid:
        moments = (1.0 - 1.0 / shots) * p[:, :, None] * p[:, None, :]
        diagonal = np.arange(dim)
        moments[:, diagonal, diagonal] = (p + (shots - 1) * p * p) / shots
        values = (np.einsum("bk,bkl,bl->b", t, moments, t) - truth * truth) / settings
        results[shots] = (values.mean(), values.std(ddof=1) / np.sqrt(samples))
    return results


class TestMseTheorem1Oracle:
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
    def test_matches_lapack_oracle_at_every_dimension(self, qubits):
        # The extra 7 samples make a partial last batch.
        state, observables = canonical_state_and_observables(qubits)
        samples, shots_grid = THEOREM1_BATCH + 7, (1, 4, 16)
        oracle = _theorem1_oracle(
            state, observables[0], 16, shots_grid, samples, stream(15, (0, qubits))
        )
        for shots in shots_grid:
            result = mse_theorem1(state.dim, 16, shots, samples, stream(15, (0, qubits)))
            value, std_error = oracle[shots]
            assert result.samples == samples
            assert result.value == pytest.approx(value, rel=1e-12)
            assert result.std_error == pytest.approx(std_error, rel=1e-12)


class TestCsMseExact:
    @pytest.mark.parametrize("dim", [2, 4, 8, 32])
    def test_equals_theorem1_at_full_overlap(self, dim):
        for settings in (1, 16, 64):
            assert cs_mse_exact(dim, settings, 1) == theorem1_mse_exact(dim, settings, 1)

    @pytest.mark.parametrize("dim, scaled", [
        (8, (Fraction(7, 5), Fraction(27, 20), Fraction(4, 5))),
        (32, (Fraction(31, 17), Fraction(111, 68), Fraction(16, 17))),
    ])
    def test_canonical_probe_values(self, dim, scaled):
        # The canonical probes overlap the state by 1, 1/2 and 0.
        for overlap, value in zip((1, Fraction(1, 2), 0), scaled):
            assert 8 * cs_mse_exact(dim, 8, overlap) == value

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_haar_monte_carlo(self, dim):
        # One shot of setting U at outcome k, drawn with probability
        # p_k = |U_k0|^2, estimates (D+1) q_k - 1, q_k = |<k|U|phi>|^2.
        samples = 20_000
        unitaries = haar_unitaries(dim, samples, stream(22, (0, dim)))
        p = np.abs(unitaries[:, :, 0]) ** 2
        for overlap in (0.0, 0.5, 1.0):
            phi = np.zeros(dim)
            phi[0], phi[1] = np.sqrt(overlap), np.sqrt(1.0 - overlap)
            q = np.abs(unitaries @ phi) ** 2
            scaled = (p * ((dim + 1) * q - 1.0) ** 2).sum(axis=1) - overlap**2
            error = scaled.std(ddof=1) / np.sqrt(samples)
            exact = float(cs_mse_exact(dim, 1, overlap))
            assert abs(scaled.mean() - exact) < 3 * error, overlap


class TestRandomObservablePdf:
    def test_normalized(self):
        integral, _ = quad(lambda x: random_observable_pdf(x, 32), 0.0, 1.0)
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_mean_is_inverse_dimension(self):
        mean, _ = quad(lambda x: x * random_observable_pdf(x, 32), 0.0, 1.0)
        assert mean == pytest.approx(1.0 / 32, abs=1e-10)

    def test_mode_at_zero(self):
        grid = np.linspace(0.0, 1.0, 101)
        density = random_observable_pdf(grid, 8)
        assert np.argmax(density) == 0
        assert np.all(np.diff(density) <= 0)

    def test_cdf_consistency(self):
        grid = np.linspace(0.0, 1.0, 21)
        for upper in grid[1:]:
            integral, _ = quad(lambda x: random_observable_pdf(x, 8), 0.0, upper)
            assert integral == pytest.approx(random_observable_cdf(upper, 8), abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_sampled_overlaps_match_density(self, dim):
        # Monte Carlo oracle: overlaps |phi† e0|^2 for uniform sphere
        # vectors phi, generated directly from normalized Gaussians.
        count = 100_000
        generator = stream(11, (0, dim))
        vectors = generator.standard_normal((count, dim)) + 1j * generator.standard_normal(
            (count, dim)
        )
        overlaps = np.abs(vectors[:, 0]) ** 2 / np.sum(np.abs(vectors) ** 2, axis=1)
        result = stats.kstest(overlaps, lambda x: random_observable_cdf(x, dim))
        assert result.pvalue > 0.01

    def test_domain_checks(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            random_observable_pdf(1.5, 4)
        with pytest.raises(ValueError, match=">= 2"):
            random_observable_pdf(0.5, 1)


class TestEmpiricalMse:
    def test_exact_estimates(self):
        result = empirical_mse([2.0, 2.0, 2.0], 2.0)
        assert result.value == 0.0
        assert result.std_error == 0.0
        assert result.samples == 3

    def test_symmetric_unit_errors(self):
        result = empirical_mse([3.0, 1.0], 2.0)
        assert result.value == pytest.approx(1.0)

    def test_standard_normal_deviations(self):
        deviations = stream(10).standard_normal(10_000)
        result = empirical_mse(5.0 + deviations, 5.0)
        assert abs(result.value - 1.0) <= 3 * result.std_error

    def test_single_estimate_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            empirical_mse([1.0], 1.0)

    @pytest.mark.parametrize("estimates, truth, name", [
        ([float("nan"), 1.0], 0.0, "estimates"),
        ([1.0, float("inf")], 0.0, "estimates"),
        ([1.0, 2.0], float("nan"), "truth"),
        ([1.0, 2.0], -float("inf"), "truth"),
    ])
    def test_non_finite_input_rejected(self, estimates, truth, name):
        # A NaN gave MseEstimate(nan, nan, 2) instead of an error.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            empirical_mse(estimates, truth)

    @pytest.mark.parametrize("value, std_error", [
        (float("nan"), 0.1), (float("inf"), 0.1), (1.0, float("nan")), (1.0, float("inf")),
        (1.0, -0.1),
    ])
    def test_estimate_refuses_a_non_finite_value_or_standard_error(self, value, std_error):
        with pytest.raises(ValueError, match="must be finite"):
            MseEstimate(value, std_error, 2)

    @pytest.mark.parametrize("samples", [True, 2.5, 2.0, "2"])
    def test_estimate_refuses_a_non_integral_sample_count(self, samples):
        with pytest.raises(TypeError, match="samples must be an integer"):
            MseEstimate(1.0, 0.1, samples)

    def test_estimate_stores_its_sample_count_as_an_int(self):
        estimate = MseEstimate(1.0, 0.1, np.int64(3))
        assert type(estimate.samples) is int and estimate.samples == 3
