"""Quantum state primitives and estimator diagnostics.

Defines the basic immutable value types (density matrices, observables,
shadow estimates) plus the pure functions that operate on them and on
measurement unitaries: Born-rule probabilities, expectation values,
Frobenius error, positive/negative eigenvalue sums, projection onto
physical states, and the average log-likelihood of a record set.

All functions are pure and safe for concurrent use; stored arrays are
copied on construction and marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

# Tolerances for type invariants and numerical guards.
STATE_HERMITICITY_ATOL = 1e-12
STATE_TRACE_ATOL = 1e-12
STATE_EIGENVALUE_ATOL = 1e-10
SHADOW_HERMITICITY_ATOL = 1e-10
EXPECTATION_IMAG_ATOL = 1e-9
PROBABILITY_DRIFT_ATOL = 1e-12
LIKELIHOOD_FLOOR = 1e-12


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Return (X + X†)/2, killing rounding-induced asymmetry; a stack of
    matrices is hermitized one by one."""
    return 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest entrywise deviation |X - X†|."""
    return float(np.abs(matrix - matrix.conj().T).max())


def _frozen_array(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def as_matrix(op) -> np.ndarray:
    """Extract the underlying square array from a wrapper type or ndarray."""
    matrix = getattr(op, "matrix", op)
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return matrix


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise ValueError(f"dim-mismatch: operands have shapes {a.shape} and {b.shape}")
    return a.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A physical quantum state: Hermitian, PSD, unit-trace D x D matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"density matrix must be square, got {matrix.shape}")
        if hermiticity_defect(matrix) > STATE_HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        trace = matrix.trace()
        if abs(trace - 1.0) > STATE_TRACE_ATOL:
            raise ValueError(f"density matrix trace {trace} is not 1 within 1e-12")
        eigenvalues = np.linalg.eigvalsh(hermitize(matrix))
        if eigenvalues.min() < -STATE_EIGENVALUE_ATOL:
            raise ValueError(
                f"density matrix has eigenvalue {eigenvalues.min():.3e} below -1e-10"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        """Rank-1 state |v><v| from a (normalized) state vector."""
        v = np.asarray(vector, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def computational_basis_state(cls, dim: int, index: int = 0) -> "DensityMatrix":
        vector = np.zeros(dim, dtype=complex)
        vector[index] = 1.0
        return cls.pure(vector)


@dataclass(frozen=True, eq=False)
class ShadowEstimate:
    """A point estimate of a state produced by one of the shadow methods.

    Hermitian by construction but generally indefinite: negative
    eigenvalues are allowed by design and are essential to the methods'
    behavior, so no positivity is enforced here.
    """

    matrix: np.ndarray
    method: str  # "LS" | "RLS" | "CS"

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"shadow estimate must be square, got {matrix.shape}")
        if self.method not in ("LS", "RLS", "CS"):
            raise ValueError(f"unknown shadow method tag {self.method!r}")
        if hermiticity_defect(matrix) > SHADOW_HERMITICITY_ATOL:
            raise ValueError("shadow estimate is not Hermitian within 1e-10")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian observable, optionally with its rank-1 vector.

    When ``vector`` is supplied the matrix must equal the projector
    v v†; keeping the vector around lets downstream code use O(D)
    overlap formulas instead of O(D^2) traces.
    """

    matrix: np.ndarray
    vector: np.ndarray | None = None

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"observable must be square, got {matrix.shape}")
        if hermiticity_defect(matrix) > STATE_HERMITICITY_ATOL:
            raise ValueError("observable is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", _frozen_array(matrix))
        if self.vector is not None:
            vector = np.array(self.vector, dtype=complex).ravel()
            if abs(np.linalg.norm(vector) - 1.0) > STATE_HERMITICITY_ATOL:
                raise ValueError("rank-1 observable vector is not unit norm within 1e-12")
            if np.abs(matrix - np.outer(vector, vector.conj())).max() > STATE_HERMITICITY_ATOL:
                raise ValueError("observable matrix does not equal v v† of its vector")
            object.__setattr__(self, "vector", _frozen_array(vector))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def rank_one(cls, vector) -> "Observable":
        v = np.asarray(vector, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), vector=v)


MatrixLike = Union[DensityMatrix, ShadowEstimate, np.ndarray]


def _outcome_probabilities(unitaries: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Unchecked u_k† rho u_k for every row k of a unitary, of each unitary
    in a stack, or of an (R, D) array of rows: row k of U rho times
    conj(U) sums to it. Each setting's values are the same bits whether
    or not it is stacked."""
    return ((unitaries @ rho) * unitaries.conj()).sum(axis=-1).real


def born_probabilities(unitaries, state: DensityMatrix) -> np.ndarray:
    """Outcome probabilities p_k = u_k† rho u_k of the rank-1 POVM whose
    elements u_k u_k† come from the rows u_k† of a setting's unitary.

    ``unitaries`` is a (D, D) unitary, or an (M, D, D) stack of unitaries
    with one row of probabilities per setting. Equals the
    diagonal of U rho U†. Entries are clipped to [0, 1] and a row is
    renormalized whenever its total drifts from 1 by more than 1e-12,
    which protects the multinomial sampler from rounding.
    """
    u = np.asarray(unitaries)
    rho = as_matrix(state)
    if u.shape[-1] != rho.shape[0]:
        raise ValueError(f"dim-mismatch: povm dim {u.shape[-1]} != state dim {rho.shape[0]}")
    probabilities = _outcome_probabilities(u, rho)
    lowest = probabilities.min()
    if lowest < -PROBABILITY_DRIFT_ATOL - 1e-10:
        raise ValueError(f"born probability {lowest:.3e} is negative beyond tolerance")
    probabilities = np.clip(probabilities, 0.0, 1.0)
    total = probabilities.sum(axis=-1, keepdims=True)
    drifted = np.abs(total - 1.0) > PROBABILITY_DRIFT_ATOL
    return np.where(drifted, probabilities / total, probabilities)


def expectation(obs: Observable, op: MatrixLike):
    """Real expectation value tr(Lambda op) of a Hermitian observable, or
    an array of them, one per matrix of an (..., D, D) stack, each with
    the same bits as its own call."""
    matrix = np.asarray(getattr(op, "matrix", op))
    if matrix.shape[-2:] != obs.matrix.shape:
        raise ValueError(
            f"dim-mismatch: operands have shapes {obs.matrix.shape} and {matrix.shape}"
        )
    values = np.einsum("ij,...ji->...", obs.matrix, matrix)
    imaginary = np.abs(values.imag)
    if (imaginary >= EXPECTATION_IMAG_ATOL).any():
        worst = values.imag.flat[np.argmax(imaginary)]
        raise ValueError(f"non-hermitian-input: expectation has imaginary part {worst:.3e}")
    return float(values.real) if values.ndim == 0 else values.real


def frobenius_error(a: MatrixLike, b: MatrixLike) -> float:
    """Frobenius distance ||A - B||_F."""
    left, right = as_matrix(a), as_matrix(b)
    _check_same_dim(left, right)
    return float(np.linalg.norm(left - right))


def eigenvalue_split(op: MatrixLike) -> tuple[float, float]:
    """Sum of strictly positive and strictly negative eigenvalues.

    The two components add up to the trace; for a physical state the
    result is (1, 0).
    """
    matrix = as_matrix(op)
    if hermiticity_defect(matrix) > 1e-8:
        raise ValueError("non-hermitian-input: eigenvalue_split needs a Hermitian matrix")
    eigenvalues = np.linalg.eigvalsh(hermitize(matrix))
    positive = float(eigenvalues[eigenvalues > 0].sum())
    negative = float(eigenvalues[eigenvalues < 0].sum())
    return positive, negative


def project_physical(op: MatrixLike) -> DensityMatrix:
    """Project a Hermitian estimate onto the closest physical state.

    Renormalizes a positive trace to 1, then finds the closest (Frobenius) PSD
    trace-1 matrix by eigenvalue truncation: eigenvalues are sorted
    descending, the negative tail is zeroed while its deficit
    accumulates, and the accumulated deficit is spread uniformly over
    the surviving eigenvalues.
    """
    matrix = as_matrix(op)
    if hermiticity_defect(matrix) > 1e-8:
        raise ValueError("non-hermitian-input: project_physical needs a Hermitian matrix")
    trace = matrix.trace().real
    # Shrinkage such as a strong ridge scales the trace down, never to 0 or below.
    if not (np.isfinite(trace) and trace > 0.0):
        raise ValueError(f"trace {trace:.4g} of a physical projection's input must be positive")
    matrix = hermitize(matrix) / trace

    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    if eigenvalues.min() >= 0.0:
        return DensityMatrix(matrix)

    # Descending order; walk the negative tail, zeroing entries and
    # spreading the accumulated deficit over what remains.
    descending = eigenvalues[::-1].copy()
    dim = descending.size
    accumulator = 0.0
    cut = dim
    while cut > 0 and descending[cut - 1] + accumulator / cut < 0.0:
        accumulator += descending[cut - 1]
        descending[cut - 1] = 0.0
        cut -= 1
    descending[:cut] += accumulator / cut
    adjusted = descending[::-1]
    projected = (eigenvectors * adjusted) @ eigenvectors.conj().T
    return DensityMatrix(hermitize(projected))


class LogLikelihoodResult(NamedTuple):
    """Average log-likelihood plus the number of probability floors applied."""

    value: float
    floored_terms: int


def log_likelihood(records, rho_phy: DensityMatrix) -> LogLikelihoodResult:
    """Average log-likelihood (1/M) sum_mk f_mk log tr(A_mk rho) of the
    settings in a RecordStack.

    Outcome probabilities are floored at 1e-12 before the log so that a
    physical state assigning (numerically) zero probability to an
    observed outcome yields a finite value; the number of floored terms
    is reported as a diagnostic.
    """
    observed = records.counts > 0
    # Only the rows of observed outcomes enter the Born product: at L = 1
    # that is one row per setting, M*D^2 work rather than M*D^3.
    probabilities = _outcome_probabilities(records.unitaries[observed], rho_phy.matrix)
    floored = int((probabilities < LIKELIHOOD_FLOOR).sum())
    total = float(records.counts[observed] @ np.log(np.maximum(probabilities, LIKELIHOOD_FLOOR)))
    return LogLikelihoodResult(total / len(records), floored)
