"""Tests for unitary ensembles and reproducible RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shadowbench.core import DensityMatrix
from shadowbench.ensembles import (
    AUX_STREAM_INDEX,
    GlobalHaar,
    HaarMixture,
    RngStream,
    haar_from_normals,
    sample_sphere_vector,
    sample_unitary,
    stream_generators,
)
from shadowbench.measurement import MeasurementPlan, adjoint_map, run_plan
from shadowbench.theory import random_observable_cdf

from oracles import haar_entry_second_moment_qubit, haar_unitaries, reference_unitary


def unitarity_defect(unitary):
    dim = unitary.shape[0]
    return np.linalg.norm(unitary.conj().T @ unitary - np.eye(dim))


def corner_overlap_samples(dim, count, stream, chunk=10_000):
    """|U_00|^2 over ``count`` Haar draws, generated in memory-bounded chunks."""
    values = np.empty(count)
    filled = 0
    while filled < count:
        size = min(chunk, count - filled)
        batch = haar_from_normals(stream.generator.standard_normal((2, size, dim, dim)))
        values[filled : filled + size] = np.abs(batch[:, 0, 0]) ** 2
        filled += size
    return values


class TestRngStream:
    def test_identical_keys_reproduce_bitwise(self):
        first = sample_unitary(GlobalHaar(8), [RngStream(123, (4, 9))])
        second = sample_unitary(GlobalHaar(8), [RngStream(123, (4, 9))])
        assert np.array_equal(first, second)

    def test_distinct_keys_differ(self):
        a, b = sample_unitary(GlobalHaar(4), [RngStream(123, (0, 0)), RngStream(123, (0, 1))])
        c = sample_unitary(GlobalHaar(4), [RngStream(124, (0, 0))])[0]
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_substream_keys(self):
        # Setting m of trial t draws from the stream keyed (seed, (t, m)).
        plan = MeasurementPlan(12, 1, GlobalHaar(4))
        records = run_plan(DensityMatrix.maximally_mixed(4), plan, RngStream(7, (3, 0)))
        expected = reference_unitary(GlobalHaar(4), RngStream(7, (3, 11)))
        assert np.array_equal(records.unitaries[11], expected)


def seed_sequence_state(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).bit_generator.state


WORD = 2**32
ONE_WORD_SEEDS = st.sampled_from([0, 1, WORD - 1]) | st.integers(0, WORD - 1)
TRIALS = st.sampled_from([0, 1, AUX_STREAM_INDEX]) | st.integers(0, AUX_STREAM_INDEX)


class TestBatchedSeeding:
    @settings(max_examples=60, deadline=None)
    @given(
        ONE_WORD_SEEDS,
        st.lists(TRIALS, min_size=1, max_size=3),
        st.lists(st.sampled_from([0, 1, WORD - 1]) | st.integers(0, WORD - 1), min_size=1,
                 max_size=3),
    )
    def test_states_match_seed_sequence(self, seed, trials, setting_keys):
        generators = stream_generators(seed, trials, setting_keys)
        keys = [(trial, setting) for trial in trials for setting in setting_keys]
        assert len(generators) == len(keys)
        for generator, key in zip(generators, keys):
            assert generator.bit_generator.state == seed_sequence_state(seed, key)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([0, 1, WORD - 1, WORD]) | st.integers(0, 2**70),
        TRIALS,
        st.sampled_from([0, WORD - 1, WORD]) | st.integers(0, 2**40),
    )
    def test_multi_word_seeds_and_keys_take_the_seed_sequence_fallback(
        self, seed, trial, setting
    ):
        built = []
        seed_sequence = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append((args, kwargs))
            return seed_sequence(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "SeedSequence", counted)
            (generator,) = stream_generators(seed, [trial], [setting])
        one_word = max(seed, trial, setting) < WORD
        assert len(built) == (0 if one_word else 1)
        assert generator.bit_generator.state == seed_sequence_state(seed, (trial, setting))

    def test_block_generators_match_the_streams_of_their_keys(self):
        generators = stream_generators(5, [2, 7], range(3, 5))
        for generator, key in zip(generators, [(2, 3), (2, 4), (7, 3), (7, 4)], strict=True):
            alone = RngStream(5, key).generator
            assert generator.bit_generator.state == alone.bit_generator.state

    def test_longer_setting_range_extends_each_trial(self):
        # The nested-prefix property: a plan of fewer settings draws the
        # first settings of a longer one.
        short = stream_generators(6, [3, 8], range(2))
        long = stream_generators(6, [3, 8], range(5))
        for generator, position in zip(short, [0, 1, 5, 6], strict=True):
            assert generator.bit_generator.state == long[position].bit_generator.state

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError):
            stream_generators(-1, [0], [0])


class TestGlobalHaar:
    def test_unitarity(self):
        for dim in (2, 3, 8, 32):
            (unitary,) = sample_unitary(GlobalHaar(dim), [RngStream(1, (0, dim))])
            assert unitarity_defect(unitary) < 1e-10

    def test_batch_matches_dimension(self):
        batch = sample_unitary(GlobalHaar(4), stream_generators(2, [0], range(10)))
        assert batch.shape == (10, 4, 4)
        for unitary in batch:
            assert unitarity_defect(unitary) < 1e-10

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            GlobalHaar(1)

    def test_qubit_entry_second_moment(self):
        # Independent oracle: direct integration over the D=2 Haar
        # parameterization gives E|U_00|^2 = 1/2.
        expected = haar_entry_second_moment_qubit()
        assert expected == pytest.approx(0.5, abs=1e-10)
        values = corner_overlap_samples(2, 100_000, RngStream(3))
        margin = 3 * values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - expected) < margin

    def test_entry_distribution_matches_overlap_density(self):
        dim = 32
        values = corner_overlap_samples(dim, 100_000, RngStream(4))
        result = stats.kstest(values, lambda x: random_observable_cdf(x, dim))
        assert result.pvalue > 0.01

    def test_left_invariance(self):
        dim = 8
        count = 100_000
        (fixed,) = sample_unitary(GlobalHaar(dim), [RngStream(5, (0, 0))])
        plain = np.empty(count)
        rotated = np.empty(count)
        stream = RngStream(6)
        filled = 0
        while filled < count:
            size = min(20_000, count - filled)
            batch = haar_from_normals(stream.generator.standard_normal((2, size, dim, dim)))
            plain[filled : filled + size] = np.abs(batch[:, 0, 0]) ** 2
            rotated[filled : filled + size] = (
                np.abs(np.einsum("ij,bjk->bik", fixed, batch)[:, 0, 0]) ** 2
            )
            filled += size
        result = stats.ks_2samp(plain, rotated)
        assert result.pvalue > 0.01


class TestLocalHaarTensor:
    """The local tensor-product ensemble, HaarMixture(n, 1.0)."""

    def test_single_qubit_equals_global(self):
        local = sample_unitary(HaarMixture(1, 1.0), [RngStream(7, (0, 0))])
        globl = sample_unitary(GlobalHaar(2), [RngStream(7, (0, 0))])
        assert np.array_equal(local, globl)

    def test_unitarity(self):
        (unitary,) = sample_unitary(HaarMixture(3, 1.0), [RngStream(8)])
        assert unitary.shape == (8, 8)
        assert unitarity_defect(unitary) < 1e-10

    def test_two_qubit_entry_second_moment(self):
        # Product of independent qubit factors: 1/2 * 1/2, cross-checked
        # by a Monte Carlo oracle on a single factor.
        factor = haar_from_normals(RngStream(9).generator.standard_normal((2, 200_000, 2, 2)))
        factor_mean = (np.abs(factor[:, 0, 0]) ** 2).mean()
        generators = stream_generators(10, [0], range(20_000))
        values = np.abs(sample_unitary(HaarMixture(2, 1.0), generators)[:, 0, 0]) ** 2
        margin = 3 * values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - factor_mean**2) < margin
        assert abs(values.mean() - 0.25) < margin + 0.01

    def test_qubit_count_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            HaarMixture(0, 1.0)


class TestHaarMixture:
    def test_degenerate_global_is_bitwise_identical(self):
        mixture = HaarMixture(qubits=2, eta=0.0)
        mixed = sample_unitary(mixture, stream_generators(11, [2], range(5, 9)))
        pure = sample_unitary(GlobalHaar(4), stream_generators(11, [2], range(5, 9)))
        assert np.array_equal(mixed, pure)

    def test_degenerate_local_is_bitwise_identical(self):
        mixture = HaarMixture(qubits=2, eta=1.0)
        mixed = sample_unitary(mixture, stream_generators(12, [1], range(3, 7)))
        # No coin: each setting is the product of the stream's first two
        # qubit factors.
        for unitary, generator in zip(mixed, stream_generators(12, [1], range(3, 7))):
            first, second = haar_unitaries(2, 1, generator)[0], haar_unitaries(2, 1, generator)[0]
            assert np.array_equal(unitary, np.kron(first, second))

    def test_component_fraction(self):
        # Two qubits, so the local and global branches draw different
        # unitaries from the same generator.
        mixture = HaarMixture(qubits=2, eta=0.5)
        coins = []
        mixed = sample_unitary(mixture, stream_generators(13, [0], range(10_000)))
        for i in range(10_000):
            replay = RngStream(13, (0, i)).generator
            local = replay.random() < mixture.eta
            (branch,) = sample_unitary(HaarMixture(2, 1.0) if local else GlobalHaar(4), [replay])
            assert np.array_equal(mixed[i], branch)
            coins.append(local)
        fraction = np.mean(coins)
        margin = 3 * np.sqrt(0.25 / len(coins))
        assert abs(fraction - 0.5) < margin

    def test_invalid_eta_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            HaarMixture(qubits=1, eta=1.5)


BLOCK_ENSEMBLES = {
    **{f"global-{qubits}": GlobalHaar(2**qubits) for qubits in (1, 2, 3)},
    **{
        f"mixture-{qubits}-{eta}": HaarMixture(qubits, eta)
        for qubits in (1, 2, 3)
        for eta in (0.0, 0.3, 1.0)
    },
}


class TestSampleUnitary:
    @pytest.mark.parametrize("name", sorted(BLOCK_ENSEMBLES))
    def test_block_matches_per_setting_oracle(self, name):
        ensemble = BLOCK_ENSEMBLES[name]
        keys = [(trial, setting) for trial in (0, 6) for setting in range(3, 33)]
        generators = stream_generators(20, [0, 6], range(3, 33))
        unitaries = sample_unitary(ensemble, generators)
        assert unitaries.shape == (len(keys), ensemble.dim, ensemble.dim)
        for key, generator, unitary in zip(keys, generators, unitaries):
            alone = RngStream(20, key)
            assert np.array_equal(unitary, reference_unitary(ensemble, alone))
            assert generator.random() == alone.generator.random()
        if isinstance(ensemble, HaarMixture) and 0.0 < ensemble.eta < 1.0:
            coins = [RngStream(20, key).generator.random() < ensemble.eta for key in keys]
            assert 0 < sum(coins) < len(keys)  # the block mixes local and global settings

    @pytest.mark.parametrize(
        "streams",
        [[], (), stream_generators(1, [0], range(0)), stream_generators(1, [], range(3))],
        ids=["list", "tuple", "no-settings", "no-trials"],
    )
    def test_empty_block_rejected(self, streams):
        with pytest.raises(ValueError, match="at least one stream"):
            sample_unitary(GlobalHaar(4), streams)

    def test_streams_and_generators_draw_the_same_block(self):
        keys = [(1, m) for m in range(4)]
        mixed = [RngStream(21, key) if m % 2 else RngStream(21, key).generator
                 for m, key in enumerate(keys)]
        ensemble = HaarMixture(2, 0.5)
        assert np.array_equal(
            sample_unitary(ensemble, mixed),
            sample_unitary(ensemble, [RngStream(21, key) for key in keys]),
        )

    def test_unitaries_are_not_an_ensemble(self):
        # A setting list is passed as an array, never as an ensemble.
        with pytest.raises(TypeError, match="unknown ensemble spec tuple"):
            sample_unitary((np.eye(2),), [RngStream(22)])


def povm_elements(unitary):
    """The elements u_k u_k† of a setting: its adjoint at each one-hot p̂."""
    dim = len(unitary)
    return adjoint_map(np.broadcast_to(unitary, (dim, dim, dim)), np.eye(dim))


class TestPovmFromUnitary:
    def test_elements_resolve_identity(self):
        total = povm_elements(haar_unitaries(4, 1, RngStream(16))[0]).sum(axis=0)
        assert np.abs(total - np.eye(4)).max() < 1e-10

    def test_elements_are_rank_one_projectors(self):
        for element in povm_elements(haar_unitaries(4, 1, RngStream(17))[0]):
            eigenvalues = np.linalg.eigvalsh(element)
            assert abs(eigenvalues[-1] - 1.0) < 1e-10
            assert np.abs(eigenvalues[:-1]).max() < 1e-10

    def test_identity_unitary_gives_basis_projectors(self):
        for k, element in enumerate(povm_elements(np.eye(3))):
            expected = np.zeros((3, 3))
            expected[k, k] = 1.0
            assert np.array_equal(element, expected)


class TestSphereSampling:
    def test_unit_norm(self):
        vector = sample_sphere_vector(32, RngStream(18))
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
