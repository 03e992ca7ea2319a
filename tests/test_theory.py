"""Tests for the moment identities and the multishot MSE formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from shadowbench.core import DensityMatrix, Observable, expectation
from shadowbench.ensembles import (
    GlobalHaar,
    HaarMixture,
    RngStream,
    haar_from_normals,
)
from shadowbench.estimators import CS, estimate
from shadowbench.experiments import canonical_state_and_observables
from shadowbench.measurement import MeasurementPlan, run_plan
from shadowbench.theory import (
    GRAM_SCHMIDT_MAX_DIM,
    THEOREM1_BATCH,
    _gram_schmidt_unitaries,
    empirical_mse,
    mse_theorem1,
    multinomial_moments,
    random_observable_cdf,
    random_observable_pdf,
)

from oracles import haar_unitaries


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
        samples = RngStream(1).generator.multinomial(4, p, size=draws) / 4
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


def _single_shot_reduction_oracle(state, obs, settings, samples, stream):
    """Independently coded L = 1 special case:
    (1/M) E[sum_k p_k t_k^2] - (1/M) lambda^2."""
    dim = state.dim
    truth = expectation(obs, state)
    unitaries = haar_unitaries(dim, samples, stream)
    p = np.einsum("bki,ij,bkj->bk", unitaries, state.matrix, unitaries.conj()).real
    overlap = np.einsum("bki,ij,bkj->bk", unitaries, obs.matrix, unitaries.conj()).real
    t = (dim + 1) * overlap - obs.matrix.trace().real
    per_draw = (p * t * t).sum(axis=1) / settings - truth * truth / settings
    return per_draw.mean(), per_draw.std(ddof=1) / np.sqrt(samples)


class TestMseTheorem1:
    def test_single_shot_reduces_to_simple_form(self):
        state = DensityMatrix.computational_basis_state(4)
        obs = Observable.rank_one([1.0, 0, 0, 0])
        full = mse_theorem1(state, obs, GlobalHaar(4), 8, 1, 4000, RngStream(2, (0, 0)))
        reduced_value, _ = _single_shot_reduction_oracle(
            state, obs, 8, 4000, RngStream(2, (0, 0))
        )
        # Same seed, same draws: the reduction is algebraic, not statistical.
        assert full.value == pytest.approx(reduced_value, abs=1e-12)

    def test_matches_full_simulation(self):
        dim, settings, trials = 2, 8, 10_000
        state = DensityMatrix.computational_basis_state(dim)
        obs = Observable.rank_one(np.array([1.0, 0.0]))
        truth = expectation(obs, state)

        estimates = []
        for trial in range(trials):
            records = run_plan(
                state, MeasurementPlan(settings, 1, GlobalHaar(dim)), RngStream(3, (trial, 0))
            )
            estimates.append(expectation(obs, estimate(records, CS()).average))
        empirical = empirical_mse(estimates, truth)
        predicted = mse_theorem1(
            state, obs, GlobalHaar(dim), settings, 1, 10_000, RngStream(4)
        )
        combined = np.hypot(empirical.std_error, predicted.std_error)
        assert abs(empirical.value - predicted.value) < 3 * combined

    def test_inverse_scaling_in_settings(self):
        state = DensityMatrix.computational_basis_state(4)
        obs = Observable.rank_one([0.0, 1.0, 0.0, 0.0])
        small = mse_theorem1(state, obs, GlobalHaar(4), 8, 2, 2000, RngStream(5, (0, 0)))
        large = mse_theorem1(state, obs, GlobalHaar(4), 16, 2, 2000, RngStream(5, (0, 0)))
        # Same draws: every term carries exactly 1/M.
        assert large.value == pytest.approx(small.value / 2, rel=1e-12)

    def test_nonnegative_when_resolved(self):
        state = DensityMatrix.computational_basis_state(4)
        obs = Observable.rank_one([1.0, 0, 0, 0])
        result = mse_theorem1(state, obs, GlobalHaar(4), 4, 2, 20_000, RngStream(6))
        assert result.value > 3 * result.std_error
        assert result.value > 0.0

    def test_larger_shots_never_beat_single_shot_at_fixed_budget(self):
        dim, budget = 4, 64
        state = DensityMatrix.computational_basis_state(dim)
        obs = Observable.rank_one([1.0, 0, 0, 0])
        results = {
            shots: mse_theorem1(
                state,
                obs,
                GlobalHaar(dim),
                budget // shots,
                shots,
                40_000,
                RngStream(7, (0, shots)),
            )
            for shots in (1, 8, 64)
        }
        for shots in (8, 64):
            combined = np.hypot(results[1].std_error, results[shots].std_error)
            assert results[1].value <= results[shots].value + 3 * combined

    def test_unsupported_ensemble_rejected(self):
        state = DensityMatrix.computational_basis_state(4)
        obs = Observable.rank_one([1.0, 0, 0, 0])
        with pytest.raises(ValueError, match="unsupported-ensemble"):
            mse_theorem1(state, obs, HaarMixture(2, 1.0), 4, 1, 100, RngStream(8))

    def test_too_few_samples_rejected(self):
        state = DensityMatrix.computational_basis_state(2)
        obs = Observable.rank_one([1.0, 0.0])
        with pytest.raises(ValueError, match=">= 2"):
            mse_theorem1(state, obs, GlobalHaar(2), 4, 1, 1, RngStream(9))


def _unitarity_error(unitaries):
    dim = unitaries.shape[-1]
    gram = np.einsum("bki,bkj->bij", unitaries.conj(), unitaries)
    return np.abs(gram - np.eye(dim)).max()


class TestGramSchmidtUnitaries:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_lapack_route_on_the_same_normals(self, dim):
        normals = RngStream(12, (0, dim)).generator.standard_normal((2, 2000, dim, dim))
        lapack = haar_from_normals(normals)
        kernel = _gram_schmidt_unitaries(normals).transpose(2, 0, 1)
        assert np.abs(kernel - lapack).max() <= 1e-13
        assert _unitarity_error(kernel) <= 1e-14

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_nearly_rank_deficient_draw_stays_unitary(self, dim):
        # A = Q0 R0 with R0 = I except a last column of ones above the
        # diagonal entry delta: the last column of A lies within delta of
        # the span of the others, and cond(A) = cond(R0) is about 1e8. One
        # Gram-Schmidt pass would leave it orthogonal to about 1e-8 only.
        delta = dim * 1e-8
        r0 = np.eye(dim)
        r0[:, -1] = 1.0
        r0[-1, -1] = delta
        assert 5e7 < np.linalg.cond(r0) < 2e8
        q0 = haar_unitaries(dim, 64, RngStream(13, (0, dim)))
        matrices = q0 @ r0
        normals = np.stack([matrices.real, matrices.imag])
        kernel = _gram_schmidt_unitaries(normals).transpose(2, 0, 1)
        lapack = haar_from_normals(normals)
        assert _unitarity_error(kernel) <= 1e-14
        assert np.abs(kernel[..., :-1] - lapack[..., :-1]).max() <= 1e-13
        # The last column is fixed by the others up to its phase, and that
        # phase only to about cond * eps, by either route: both stay that
        # close to the exact factor Q0.
        phase_overlap = np.abs(np.einsum("bk,bk->b", kernel[..., -1].conj(), lapack[..., -1]))
        assert np.abs(phase_overlap - 1.0).max() <= 1e-13
        assert np.abs(kernel - q0).max() <= 1e-7
        assert np.abs(lapack - q0).max() <= 1e-7

    @pytest.mark.parametrize("dim, qr_calls", [(GRAM_SCHMIDT_MAX_DIM, 0), (16, 1)])
    def test_lapack_qr_runs_only_above_the_cut_off(self, dim, qr_calls, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counted_qr(matrices, *args, **kwargs):
            calls.append(matrices.shape)
            return qr(matrices, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        state, observables = canonical_state_and_observables(dim.bit_length() - 1)
        mse_theorem1(state, observables[0], GlobalHaar(dim), 4, 1, 10, RngStream(14))
        assert len(calls) == qr_calls


def _theorem1_oracle(state, obs, settings, shots_grid, samples, stream):
    """mse_theorem1 for each L from haar_unitaries draws and the
    unfolded sum t^T E[p̂ p̂^T] t over every pair (k, k')."""
    dim = state.dim
    truth = expectation(obs, state)
    generator = stream.generator
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
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_matches_lapack_oracle_across_the_cut_off(self, qubits):
        # D = 16 is above the Gram-Schmidt cut-off; the extra 7 samples
        # make a partial last batch.
        state, observables = canonical_state_and_observables(qubits)
        samples, shots_grid = THEOREM1_BATCH + 7, (1, 4, 16)
        oracle = _theorem1_oracle(
            state, observables[0], 16, shots_grid, samples, RngStream(15, (0, qubits))
        )
        for shots in shots_grid:
            result = mse_theorem1(state, observables[0], GlobalHaar(state.dim), 16, shots,
                                  samples, RngStream(15, (0, qubits)))
            value, std_error = oracle[shots]
            assert result.samples == samples
            assert result.value == pytest.approx(value, rel=1e-12)
            assert result.std_error == pytest.approx(std_error, rel=1e-12)


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
        generator = RngStream(11, (0, dim)).generator
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
        deviations = RngStream(10).generator.standard_normal(10_000)
        result = empirical_mse(5.0 + deviations, 5.0)
        assert abs(result.value - 1.0) <= 3 * result.std_error

    def test_single_estimate_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            empirical_mse([1.0], 1.0)
