"""Tests for the state primitives and diagnostics."""

import numpy as np
import pytest

from shadowbench.core import (
    DensityMatrix,
    Observable,
    born_probabilities,
    eigenvalue_split,
    expectation,
    frobenius_error,
    log_likelihood,
    project_physical,
)
from shadowbench.estimators import povm_operator_columns
from shadowbench.experiments import canonical_state_and_observables
from shadowbench.measurement import RecordStack, adjoint_map

from oracles import (
    canonical_vectors,
    closest_physical_state_bloch,
    haar_unitaries,
    random_density_matrix,
    random_hermitian,
    stream,
)


def basis_state(dim, index=0):
    return DensityMatrix.computational_basis_state(dim, index)


def unitary_with_first_row(vector):
    """Complete a unit vector to a unitary whose first row is its conjugate."""
    dim = vector.size
    columns = np.eye(dim, dtype=complex)
    columns[:, 0] = vector
    q, r = np.linalg.qr(columns)
    q0 = q[:, 0] * (r[0, 0] / abs(r[0, 0]))
    q[:, 0] = q0
    return q.conj().T


class TestTypeInvariants:
    def test_density_matrix_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[1.0, 1e-6], [0.0, 0.0]]))

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("kind", [DensityMatrix, Observable])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="non-finite"):
            kind(np.full((2, 2), bad))

    @pytest.mark.parametrize("build", [DensityMatrix.pure, Observable.rank_one])
    @pytest.mark.parametrize(
        "vector, message",
        [
            (np.zeros(2), "zero vector"),
            (np.array([np.nan, 1.0]), "non-finite"),
            (np.array([np.inf, 1.0]), "non-finite"),
        ],
        ids=["zero", "nan", "inf"],
    )
    def test_zero_or_non_finite_vector_rejected(self, build, vector, message):
        with pytest.raises(ValueError, match=message):
            build(vector)

    def test_stored_arrays_are_readonly(self):
        state = basis_state(2)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.0


class TestBornProbabilities:
    def test_identity_povm_on_own_basis_state(self):
        p = born_probabilities(np.eye(4), basis_state(4))
        assert np.allclose(p, [1, 0, 0, 0], atol=1e-14)

    def test_maximally_mixed_is_isotropic(self):
        dim = 8
        unitary = haar_unitaries(dim, 1, stream(3, (0, 0)))[0]
        p = born_probabilities(unitary, DensityMatrix.maximally_mixed(dim))
        assert np.allclose(p, np.full(dim, 1.0 / dim), atol=1e-12)

    def test_balanced_probe_row_gives_half_overlap(self):
        # First POVM row set to the balanced canonical probe vector; the
        # ground state then lands on that outcome with probability 1/2.
        phi1 = canonical_vectors(32)[:, 1]
        p = born_probabilities(unitary_with_first_row(phi1), basis_state(32))
        assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            born_probabilities(np.eye(4), basis_state(2))

    def test_stack_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            born_probabilities(np.stack([np.eye(4)] * 3), basis_state(2))

    def test_normalized_and_nonnegative_on_random_inputs(self):
        generator = np.random.default_rng(11)
        for dim in (2, 4, 8):
            for _ in range(20):
                state = DensityMatrix(random_density_matrix(dim, generator))
                p = born_probabilities(haar_unitaries(dim, 1, generator)[0], state)
                assert p.min() >= 0.0
                assert abs(p.sum() - 1.0) <= 1e-10


SETTING_FUNCTIONS = {
    "born_probabilities": lambda unitaries: born_probabilities(unitaries, basis_state(4)),
    "adjoint_map": lambda unitaries: adjoint_map(
        unitaries, np.full(np.shape(unitaries)[:-1], 0.25)
    ),
    "povm_operator_columns": povm_operator_columns,
}


class TestUnitaryInputs:
    """A setting is a (D, D) unitary and a block of them an (M, D, D)
    stack; anything np.asarray turns into one is taken as it."""

    @pytest.mark.parametrize("form", ["single", "stack"])
    @pytest.mark.parametrize("name", sorted(SETTING_FUNCTIONS))
    def test_nested_lists_match_arrays(self, name, form):
        unitaries = haar_unitaries(4, 3, stream(12))
        if form == "single":
            unitaries = unitaries[1]
        function = SETTING_FUNCTIONS[name]
        assert np.array_equal(function(unitaries.tolist()), function(unitaries))


class TestExpectation:
    def test_ground_truth_values(self):
        state, observables = canonical_state_and_observables(3)
        assert expectation(observables[0], state) == pytest.approx(1.0, abs=1e-12)
        assert expectation(observables[1], state) == pytest.approx(0.5, abs=1e-12)
        assert expectation(observables[2], state) == pytest.approx(0.0, abs=1e-12)

    def test_identity_observable_gives_trace(self):
        obs = Observable(np.eye(4))
        generator = np.random.default_rng(5)
        state = DensityMatrix(random_density_matrix(4, generator))
        assert expectation(obs, state) == pytest.approx(1.0, abs=1e-12)

    def test_linearity(self):
        generator = np.random.default_rng(17)
        obs = Observable(random_hermitian(4, generator))
        a = random_hermitian(4, generator)
        b = random_hermitian(4, generator)
        alpha, beta = 0.3, -1.7
        combined = expectation(obs, alpha * a + beta * b)
        separate = alpha * expectation(obs, a) + beta * expectation(obs, b)
        assert combined == pytest.approx(separate, abs=1e-10)

    def test_nonhermitian_input_rejected(self):
        obs = Observable(np.eye(2))
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]]) * 1j  # Hermitian
        not_hermitian = np.array([[0.0, 1.0], [0.0, 0.0]]) * 1j
        assert expectation(obs, skew) == pytest.approx(0.0)
        with pytest.raises(ValueError, match="non-hermitian-input"):
            expectation(Observable(np.array([[0, 1], [1, 0]], dtype=complex)), not_hermitian)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            expectation(Observable(np.eye(2)), basis_state(4))

    def test_stack_gives_each_matrix_its_own_bits(self):
        rng = np.random.default_rng(3)
        obs = Observable(random_hermitian(4, rng))
        stack = np.stack([random_hermitian(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        values = expectation(obs, stack)
        assert values.shape == (2, 3)
        for index in np.ndindex(2, 3):
            assert values[index] == expectation(obs, stack[index])

    def test_stack_keeps_the_imaginary_part_check(self):
        obs = Observable(np.array([[0, 1], [1, 0]], dtype=complex))
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]) * 1j]).astype(complex)
        with pytest.raises(ValueError, match="non-hermitian-input"):
            expectation(obs, stack)


class TestFrobeniusError:
    def test_zero_for_equal(self):
        state = basis_state(4)
        assert frobenius_error(state, state) == 0.0

    def test_orthogonal_projectors(self):
        assert frobenius_error(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(np.sqrt(2))

    def test_pure_versus_mixed(self):
        value = frobenius_error(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
        assert value == pytest.approx(np.sqrt(2) / 2, abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim-mismatch"):
            frobenius_error(np.eye(2), np.eye(4))


class TestEigenvalueSplit:
    def test_density_matrix_splits_to_trace(self):
        positive, negative = eigenvalue_split(basis_state(4))
        assert positive == pytest.approx(1.0, abs=1e-12)
        assert negative == pytest.approx(0.0, abs=1e-12)

    def test_single_shot_shadow_spectrum(self):
        dim = 32
        shadow = (dim + 1) * basis_state(dim).matrix - np.eye(dim)
        positive, negative = eigenvalue_split(shadow)
        assert positive == pytest.approx(dim, abs=1e-9)
        assert negative == pytest.approx(-(dim - 1), abs=1e-9)

    def test_explicit_diagonal(self):
        assert eigenvalue_split(np.diag([2.0, -1.0])) == pytest.approx((2.0, -1.0))

    def test_components_sum_to_trace(self):
        generator = np.random.default_rng(23)
        for _ in range(100):
            matrix = random_hermitian(6, generator)
            positive, negative = eigenvalue_split(matrix)
            assert positive + negative == pytest.approx(matrix.trace().real, abs=1e-9)

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValueError, match="non-hermitian"):
            eigenvalue_split(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nan_input_rejected(self):
        # NaN compares false with any tolerance, so a guard "defect > tol"
        # would let it through.
        with pytest.raises(ValueError, match="non-hermitian"):
            eigenvalue_split(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="non-hermitian"):
            eigenvalue_split(np.array([[0.5, np.nan], [0.5, 0.5]]))


class TestProjectPhysical:
    def test_physical_input_is_fixed_point(self):
        generator = np.random.default_rng(31)
        state = random_density_matrix(4, generator)
        projected = project_physical(state)
        assert np.abs(projected.matrix - state).max() < 1e-10

    def test_simple_indefinite_input(self):
        projected = project_physical(np.diag([1.5, -0.5]))
        assert np.allclose(projected.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_single_shot_shadow_projects_to_outcome(self):
        shadow = np.diag([2.0, -1.0])
        projected = project_physical(shadow)
        assert np.allclose(projected.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotent(self):
        generator = np.random.default_rng(37)
        for _ in range(25):
            matrix = random_hermitian(5, generator)
            matrix += (1.0 - matrix.trace().real) * np.eye(5) / 5
            once = project_physical(matrix)
            twice = project_physical(once)
            assert np.abs(once.matrix - twice.matrix).max() < 1e-10

    def test_matches_bloch_oracle(self):
        generator = np.random.default_rng(41)
        for _ in range(200):
            matrix = random_hermitian(2, generator, scale=0.8)
            matrix += (1.0 + 0.3 * generator.uniform(-1, 1) - matrix.trace().real) * np.eye(2) / 2
            projected = project_physical(matrix)
            oracle = closest_physical_state_bloch(matrix)
            assert np.abs(projected.matrix - oracle).max() < 1e-6

    def test_trace_precondition(self):
        # Only a trace that cannot be renormalized to 1 is rejected.
        for diagonal in ([1.0, -1.0], [-0.5, 0.2], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="trace"):
                project_physical(np.diag(diagonal))

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            project_physical(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="non-hermitian"):
            project_physical(np.array([[0.5, np.nan], [0.5, 0.5]]))

    @pytest.mark.parametrize("scale", [0.002, 2.0])
    def test_positive_trace_far_from_one_is_renormalized(self, scale):
        projected = project_physical(np.diag([0.75, 0.25]) * scale)
        assert np.abs(projected.matrix - np.diag([0.75, 0.25])).max() < 1e-15


class TestLogLikelihood:
    def test_certain_outcome_gives_zero(self):
        records = RecordStack([np.eye(4)], [[5, 0, 0, 0]], 5)
        result = log_likelihood(records, basis_state(4))
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.floored_terms == 0

    def test_maximally_mixed_value(self):
        dim, shots = 4, 7
        records = RecordStack([np.eye(dim)], [[shots, 0, 0, 0]], shots)
        result = log_likelihood(records, DensityMatrix.maximally_mixed(dim))
        assert result.value == pytest.approx(shots * np.log(1.0 / dim), abs=1e-12)

    def test_average_over_identical_records(self):
        state = DensityMatrix(np.diag([0.8, 0.2]))
        single = log_likelihood(RecordStack([np.eye(2)], [[3, 1]], 4), state)
        double = log_likelihood(RecordStack([np.eye(2)] * 2, [[3, 1]] * 2, 4), state)
        assert double.value == pytest.approx(single.value, abs=1e-12)

    def test_floor_applies_to_impossible_outcome(self):
        records = RecordStack([np.eye(2)], [[0, 1]], 1)
        result = log_likelihood(records, basis_state(2, 0))
        assert result.floored_terms == 1
        assert result.value == pytest.approx(np.log(1e-12), abs=1e-9)

    def test_matches_per_record_traces(self):
        # (D, L): multi-shot counts on a mixed state, and one-hot counts on
        # a pure state with an identity setting whose observed outcome has
        # probability 0, so one term is floored.
        for dim, shots, seed in ((4, 6, 27), (8, 1, 28)):
            generator = np.random.default_rng(seed)
            if shots == 1:
                state = basis_state(dim, 0)
            else:
                state = DensityMatrix(random_density_matrix(dim, generator))
            unitaries = [haar_unitaries(dim, 1, stream(seed, (0, m)))[0] for m in range(5)]
            counts = [generator.multinomial(shots, np.full(dim, 1.0 / dim)) for _ in range(5)]
            if shots == 1:
                unitaries.append(np.eye(dim))
                counts.append(np.eye(dim, dtype=int)[3])
            records = RecordStack(unitaries, counts, shots)
            terms = [
                (count, np.trace(np.outer(unitary[k].conj(), unitary[k]) @ state.matrix).real)
                for unitary, row in zip(records.unitaries, records.counts)
                for k, count in enumerate(row)
                if count > 0
            ]
            expected = sum(count * np.log(max(p, 1e-12)) for count, p in terms) / len(records)
            result = log_likelihood(records, state)
            assert result.value == pytest.approx(expected, rel=1e-12)
            assert result.floored_terms == sum(p < 1e-12 for _, p in terms)
            assert result.floored_terms == (1 if shots == 1 else 0)
