"""Closed-form and semi-analytic verification tools.

The proved multishot MSE formula for classical shadows (evaluated by
Monte Carlo over the unitary ensemble) and empirical MSE aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Observable, expectation
from .ensembles import EnsembleSpec, GlobalHaar, as_integer

# Unitaries per Monte Carlo batch in mse_theorem1. Each batch draws its
# normals as one stream, real parts of the whole batch before imaginary
# parts, so another value changes the estimate's bits.
THEOREM1_BATCH = 4096
# Normals per draw call in mse_theorem1, in whole rows of D: a batch holds
# only its kept columns and one such chunk. Any value gives the same bits.
THEOREM1_CHUNK = 2**16


@dataclass(frozen=True)
class MseEstimate:
    """A mean squared error with its standard error and sample count."""

    value: float
    std_error: float
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.samples}")
        if not -math.inf < self.value < math.inf:
            raise ValueError(f"MSE value must be finite, got {self.value}")
        if not 0.0 <= self.std_error < math.inf:
            raise ValueError(f"standard error must be finite and >= 0, got {self.std_error}")


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

    Each batch of ``THEOREM1_BATCH`` unitaries comes from the normals of
    ``rng.standard_normal((2, batch, D, D))``, real parts of the whole
    batch before imaginary parts, so the estimate is fixed by the stream
    and the batch size. p and t read only the first J columns of U, where
    J - 1 is the last basis index at which rho or Lambda has a nonzero
    row or column (J = 1 for |0><0|), and Gram-Schmidt fixes column j
    from columns 0..j alone; so only ``normals[..., :J]`` is kept (see
    :func:`_leading_normals`) and orthonormalized, with the bits of the
    full unitaries' first J columns, by a kernel
    that makes no BLAS call and agrees to rounding with the LAPACK QR of
    :func:`ensembles.haar_from_normals`.

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
    settings, shots = as_integer("settings", settings), as_integer("shots", shots)
    if as_integer("ensemble_samples", ensemble_samples) < 2:
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
        unitaries = _gram_schmidt_unitaries(_leading_normals(rng, batch, dim, cut))
        p = _diagonals(unitaries, rho)
        t = (dim + 1) * _diagonals(unitaries, lam_matrix) - trace_lam

        weighted = (p + (shots - 1) * p * p) * t * t
        first = weighted.sum(axis=0) / (settings * shots)
        pt = (p * t).sum(axis=0)
        second = (pt * pt - (p * p * t * t).sum(axis=0)) * (1.0 - 1.0 / shots) / settings
        values[filled : filled + batch] = first + second - truth * truth / settings
        filled += batch

    std_error = float(values.std(ddof=1) / np.sqrt(ensemble_samples))
    return MseEstimate(float(values.mean()), std_error, ensemble_samples)


def _leading_normals(rng: np.random.Generator, batch: int, dim: int, cut: int) -> np.ndarray:
    """``rng.standard_normal((2, batch, dim, dim))[..., :cut]`` with the
    same bits, drawn in chunks of whole rows of at most THEOREM1_CHUNK
    normals (one row at least): the same stream in the same order, of
    which only the (2, batch, dim, cut) kept entries and one chunk are
    held at a time."""
    normals = np.empty((2, batch * dim, cut))
    chunk = np.empty((max(1, THEOREM1_CHUNK // dim), dim))
    for part in normals:
        for start in range(0, len(part), len(chunk)):
            rows = chunk[: len(part) - start]
            rng.standard_normal(out=rows)
            part[start : start + len(rows)] = rows[:, :cut]
    return normals.reshape(2, batch, dim, cut)


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


def empirical_mse(estimates, truth: float) -> MseEstimate:
    """Mean squared deviation from the ground truth, with standard error."""
    values = np.asarray(estimates, dtype=float)
    if values.size < 2:
        raise ValueError(f"need >= 2 estimates, got {values.size}")
    if not np.isfinite(values).all():
        raise ValueError(f"estimates must be finite, got {values[~np.isfinite(values)][0]}")
    if not -math.inf < truth < math.inf:
        raise ValueError(f"truth must be finite, got {truth}")
    squared = (values - truth) ** 2
    std_error = float(squared.std(ddof=1) / np.sqrt(squared.size))
    return MseEstimate(float(squared.mean()), std_error, int(squared.size))
