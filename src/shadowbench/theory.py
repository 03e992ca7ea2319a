"""Closed-form and semi-analytic verification tools.

Multinomial moment identities, the proved multishot MSE formula for
classical shadows (evaluated by Monte Carlo over the unitary ensemble),
the density of Haar-random rank-1 observable overlaps, and empirical
MSE aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Observable, expectation
from .ensembles import EnsembleSpec, GlobalHaar, RngLike, as_generator, haar_from_normals

# Unitaries per Monte Carlo batch in mse_theorem1. Each batch draws its
# normals in one call, real parts of the whole batch before imaginary
# parts, so another value changes the estimate's bits.
THEOREM1_BATCH = 4096

# Largest D at which mse_theorem1 orthonormalizes a batch by Gram-Schmidt
# (_gram_schmidt_unitaries) instead of LAPACK's stacked QR, which makes two
# LAPACK calls per matrix. Per 4096-matrix batch on 2 vCPUs (numpy 2.4,
# OpenBLAS at 2 threads), Gram-Schmidt against LAPACK took 4.1 against
# 12.1 ms at D = 4 and 27 against 35 ms at D = 8, but 199 against 126 ms
# at D = 16 and 1.73 against 0.35 s at D = 32.
GRAM_SCHMIDT_MAX_DIM = 8


@dataclass(frozen=True)
class MseEstimate:
    """A mean squared error with its standard error and sample count."""

    value: float
    std_error: float
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.samples}")
        if self.std_error < 0.0:
            raise ValueError(f"standard error must be >= 0, got {self.std_error}")


def multinomial_moments(
    probabilities: np.ndarray, shots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact second moments of multinomial frequencies p̂ = f / L.

    Returns the vector E[p̂_k^2] = (p_k + (L-1) p_k^2) / L and the matrix
    E[p̂_k p̂_k'] = (1 - 1/L) p_k p_k' for k != k'; the matrix diagonal is
    filled with the second moments so the matrix is E[p̂ p̂ᵀ] in full.
    """
    p = np.asarray(probabilities, dtype=float)
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    second = (p + (shots - 1) * p * p) / shots
    cross = (1.0 - 1.0 / shots) * np.outer(p, p)
    np.fill_diagonal(cross, second)
    return second, cross


def mse_theorem1(
    state: DensityMatrix,
    obs: Observable,
    spec: EnsembleSpec,
    settings: int,
    shots: int,
    ensemble_samples: int,
    rng: RngLike,
) -> MseEstimate:
    """MSE of the CS estimate of tr(Lambda rho) for M settings x L shots.

    Evaluates the exact per-unitary expression

        (1/(ML)) sum_k (p_k + (L-1) p_k^2) t_k^2
        + ((1-1/L)/M) sum_{k != k'} p_k p_k' t_k t_k'
        - (1/M) (tr(Lambda rho))^2

    with p_k = tr(A_k rho) and t_k = tr(Lambda M^{-1}(A_k)), then
    averages over Monte Carlo draws of the measurement unitary,
    reporting the standard error of that ensemble average. The k != k'
    double sum is folded into (sum p t)^2 - sum p^2 t^2 for O(K) cost.

    Each batch of ``THEOREM1_BATCH`` unitaries comes from one draw of
    (2, batch, D, D) normals, real parts of the whole batch before
    imaginary parts, so the estimate is fixed by the stream and the
    batch size. Up to D = ``GRAM_SCHMIDT_MAX_DIM`` each batch is
    orthonormalized by a Gram-Schmidt kernel that makes no BLAS call and
    agrees to rounding with the LAPACK QR of
    :func:`ensembles.haar_from_normals`, which takes the batch above that
    size; the kernel is several times faster than LAPACK's per-matrix
    calls up to that size, while LAPACK wins above it.

    Only global-Haar ensembles are supported: the analytic channel
    inverse baked into t_k is specific to that ensemble.
    """
    if not isinstance(spec, GlobalHaar):
        raise ValueError(
            f"unsupported-ensemble: theorem-1 evaluation needs GlobalHaar, "
            f"got {type(spec).__name__}"
        )
    if spec.dim != state.dim or obs.dim != state.dim:
        raise ValueError(
            f"dim-mismatch: ensemble {spec.dim}, state {state.dim}, observable {obs.dim}"
        )
    if ensemble_samples < 2:
        raise ValueError(f"need >= 2 ensemble samples, got {ensemble_samples}")
    if settings < 1 or shots < 1:
        raise ValueError("settings and shots must both be >= 1")

    dim = state.dim
    rho = state.matrix
    lam_matrix = obs.matrix
    trace_lam = float(lam_matrix.trace().real)
    truth = expectation(obs, state)
    generator = as_generator(rng)

    values = np.empty(ensemble_samples)
    filled = 0
    while filled < ensemble_samples:
        batch = min(THEOREM1_BATCH, ensemble_samples - filled)
        normals = generator.standard_normal((2, batch, dim, dim))
        if dim <= GRAM_SCHMIDT_MAX_DIM:
            unitaries = _gram_schmidt_unitaries(normals)
            diagonals = _diagonals
        else:
            unitaries = haar_from_normals(normals)
            diagonals = _batch_diagonals
        p = diagonals(unitaries, rho)
        t = (dim + 1) * diagonals(unitaries, lam_matrix) - trace_lam

        weighted = (p + (shots - 1) * p * p) * t * t
        first = weighted.sum(axis=0) / (settings * shots)
        pt = (p * t).sum(axis=0)
        second = (pt * pt - (p * p * t * t).sum(axis=0)) * (1.0 - 1.0 / shots) / settings
        values[filled : filled + batch] = first + second - truth * truth / settings
        filled += batch

    std_error = float(values.std(ddof=1) / np.sqrt(ensemble_samples))
    return MseEstimate(float(values.mean()), std_error, ensemble_samples)


def _gram_schmidt_unitaries(normals: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a (2, B, D, D) Ginibre draw, laid out as a
    (row, column, B) array.

    Orthonormalizes the columns of each matrix ``normals[0] + i
    normals[1]`` left to right by classical Gram-Schmidt, twice per
    column: one pass leaves an ill-conditioned draw's columns orthogonal
    only to about cond^2 * eps, two passes to eps. The result is the QR
    factor whose R has a positive real diagonal, i.e. the unitary of
    ``ensembles.haar_from_normals`` up to rounding. The batch sees
    elementwise operations and ``einsum`` only: OpenBLAS, run with two
    threads, keeps its second thread spin-waiting for a while after each
    call, so BLAS calls here would raise a run's CPU time above its wall
    time.
    """
    unitaries = np.ascontiguousarray((normals[0] + 1j * normals[1]).transpose(1, 2, 0))
    for j in range(unitaries.shape[1]):
        column, done = unitaries[:, j], unitaries[:, :j]
        for _ in range(2 if j else 0):
            overlaps = np.einsum("kib,kb->ib", done.conj(), column)
            column -= np.einsum("kib,ib->kb", done, overlaps)
        column /= np.sqrt(np.einsum("kb,kb->b", column.real, column.real)
                          + np.einsum("kb,kb->b", column.imag, column.imag))
    return unitaries


def _diagonals(unitaries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(U M U^dagger)_kk of a Hermitian M for each unitary U of a (row,
    column, B) stack, as a real (D, B) array."""
    product = np.einsum("ij,kib->kjb", matrix, unitaries)
    return (np.einsum("kjb,kjb->kb", product.real, unitaries.real)
            + np.einsum("kjb,kjb->kb", product.imag, unitaries.imag))


def _batch_diagonals(unitaries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """:func:`_diagonals` of a (B, row, column) stack: one batched BLAS
    product, where the LAPACK route has woken OpenBLAS already. At D = 32
    and B = 4096 it took 0.08 s against the einsum's 0.58 s on 2 vCPUs."""
    product = unitaries @ matrix
    return (np.einsum("bkj,bkj->kb", product.real, unitaries.real)
            + np.einsum("bkj,bkj->kb", product.imag, unitaries.imag))


def random_observable_pdf(lam, dim: int):
    """Density (D-1)(1-lam)^(D-2) of tr(Lambda rho) for a Haar-random
    rank-1 observable against a fixed pure state."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    values = np.asarray(lam, dtype=float)
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("overlap values must lie in [0, 1]")
    density = (dim - 1) * (1.0 - values) ** (dim - 2)
    return float(density) if np.isscalar(lam) else density


def random_observable_cdf(lam, dim: int):
    """CDF 1 - (1-lam)^(D-1) matching :func:`random_observable_pdf`."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    values = np.asarray(lam, dtype=float)
    cdf = 1.0 - (1.0 - values) ** (dim - 1)
    return float(cdf) if np.isscalar(lam) else cdf


def empirical_mse(estimates, truth: float) -> MseEstimate:
    """Mean squared deviation from the ground truth, with standard error."""
    values = np.asarray(estimates, dtype=float)
    if values.size < 2:
        raise ValueError(f"need >= 2 estimates, got {values.size}")
    squared = (values - truth) ** 2
    std_error = float(squared.std(ddof=1) / np.sqrt(squared.size))
    return MseEstimate(float(squared.mean()), std_error, int(squared.size))
