"""Closed-form and semi-analytic verification tools.

The proved multishot MSE formula for classical shadows (evaluated by
Monte Carlo over the unitary ensemble) and empirical MSE aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Observable, expectation
from .ensembles import EnsembleSpec, GlobalHaar, haar_from_normals

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


def mse_theorem1(
    state: DensityMatrix,
    obs: Observable,
    spec: EnsembleSpec,
    settings: int,
    shots: int,
    ensemble_samples: int,
    rng: np.random.Generator,
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
    batch size. p and t read only the first J columns of U, where J - 1
    is the last basis index at which rho or Lambda has a nonzero row or
    column (J = 1 for |0><0|), and both orthonormalizations below fix
    column j from columns 0..j alone; so only ``normals[..., :J]`` is
    orthonormalized, with the bits of the full unitaries' first J
    columns. Up to D = ``GRAM_SCHMIDT_MAX_DIM`` each batch is
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
    trace_lam = float(obs.matrix.trace().real)
    truth = expectation(obs, state)
    nonzero = (state.matrix != 0) | (obs.matrix != 0)
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    cut = int(support[-1]) + 1 if support.size else 1
    rho = state.matrix[:cut, :cut]
    lam_matrix = obs.matrix[:cut, :cut]

    values = np.empty(ensemble_samples)
    filled = 0
    while filled < ensemble_samples:
        batch = min(THEOREM1_BATCH, ensemble_samples - filled)
        # A copy, so that the full draw is freed before the next one.
        normals = rng.standard_normal((2, batch, dim, dim))[..., :cut].copy()
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
    """The first J columns of the Haar unitaries of a Ginibre draw, from
    its (2, B, D, J) normals, laid out as a (D, J, B) array.

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
    """(U M U^dagger)_kk of a Hermitian J x J M for each U of a (D, J, B)
    stack of the first J columns of unitaries, as a real (D, B) array."""
    product = np.einsum("ij,kib->kjb", matrix, unitaries)
    return (np.einsum("kjb,kjb->kb", product.real, unitaries.real)
            + np.einsum("kjb,kjb->kb", product.imag, unitaries.imag))


def _batch_diagonals(unitaries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """:func:`_diagonals` of a (B, D, J) stack: one batched BLAS
    product, where the LAPACK route has woken OpenBLAS already. At D = 32
    and B = 4096 it took 0.08 s against the einsum's 0.58 s on 2 vCPUs."""
    product = unitaries @ matrix
    return (np.einsum("bkj,bkj->kb", product.real, unitaries.real)
            + np.einsum("bkj,bkj->kb", product.imag, unitaries.imag))


def empirical_mse(estimates, truth: float) -> MseEstimate:
    """Mean squared deviation from the ground truth, with standard error."""
    values = np.asarray(estimates, dtype=float)
    if values.size < 2:
        raise ValueError(f"need >= 2 estimates, got {values.size}")
    squared = (values - truth) ** 2
    std_error = float(squared.std(ddof=1) / np.sqrt(squared.size))
    return MseEstimate(float(squared.mean()), std_error, int(squared.size))
