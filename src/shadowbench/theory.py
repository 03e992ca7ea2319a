"""Closed-form and semi-analytic verification tools.

The proved multishot MSE formula for classical shadows (evaluated by
Monte Carlo over the unitary ensemble) and empirical MSE aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import as_integer

# Unitaries per Monte Carlo batch in mse_theorem1. Each batch draws its
# normals as one stream, real parts of the whole batch before imaginary
# parts, so another value changes the estimate's bits.
THEOREM1_BATCH = 4096
# Normals per draw call in mse_theorem1, in whole rows of D: a batch holds
# only its kept column and one such chunk. Any value gives the same bits.
THEOREM1_CHUNK = 2**16


@dataclass(frozen=True)
class MseEstimate:
    """A mean squared error with its standard error and sample count."""

    value: float
    std_error: float
    samples: int

    def __post_init__(self):
        object.__setattr__(self, "samples", as_integer("samples", self.samples))
        if self.samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.samples}")
        if not -math.inf < self.value < math.inf:
            raise ValueError(f"MSE value must be finite, got {self.value}")
        if not 0.0 <= self.std_error < math.inf:
            raise ValueError(f"standard error must be finite and >= 0, got {self.std_error}")


def mse_theorem1(dim: int, settings: int, shots: int, ensemble_samples: int,
                 rng: np.random.Generator) -> MseEstimate:
    """MSE of the CS estimate of tr(Lambda rho) for M global-Haar settings
    x L shots in dimension D, at any pure rho = Lambda = |psi><psi|.

    Evaluates the exact per-unitary expression

        (1/(ML)) sum_k (p_k + (L-1) p_k^2) t_k^2
        + ((1-1/L)/M) sum_{k != k'} p_k p_k' t_k t_k'
        - (1/M) (tr(Lambda rho))^2

    with p_k = tr(A_k rho) and t_k = tr(Lambda M^{-1}(A_k)), then
    averages over Monte Carlo draws of the measurement unitary,
    reporting the standard error of that ensemble average. The k != k'
    double sum is folded into (sum p t)^2 - sum p^2 t^2 for O(K) cost.

    At rho = Lambda = |psi><psi|, p_k = |<k|U|psi>|^2, t_k = (D+1) p_k - 1
    and tr(Lambda rho) = 1; U|psi> has the law of U|0>, so the MSE is a
    function of D, M and L alone and takes the draws of |0>. Each batch
    of ``THEOREM1_BATCH`` unitaries keeps column 0 of the normals of
    ``rng.standard_normal((2, batch, D, D))`` (:func:`_leading_normals`)
    and normalizes it: the first column of
    :func:`ensembles.haar_from_normals` up to rounding, with no QR.
    """
    dim = as_integer("dim", dim)
    settings, shots = as_integer("settings", settings), as_integer("shots", shots)
    if as_integer("ensemble_samples", ensemble_samples) < 2:
        raise ValueError(f"need >= 2 ensemble samples, got {ensemble_samples}")
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    if settings < 1 or shots < 1:
        raise ValueError("settings and shots must both be >= 1")

    values = np.empty(ensemble_samples)
    filled = 0
    while filled < ensemble_samples:
        batch = min(THEOREM1_BATCH, ensemble_samples - filled)
        column = _leading_normals(rng, batch, dim)
        column = np.ascontiguousarray((column[0] + 1j * column[1]).T)
        column /= np.sqrt(np.einsum("kb,kb->b", column.real, column.real)
                          + np.einsum("kb,kb->b", column.imag, column.imag))
        p = column.real * column.real + column.imag * column.imag
        t = (dim + 1) * p - 1.0

        weighted = (p + (shots - 1) * p * p) * t * t
        first = weighted.sum(axis=0) / (settings * shots)
        pt = (p * t).sum(axis=0)
        second = (pt * pt - (p * p * t * t).sum(axis=0)) * (1.0 - 1.0 / shots) / settings
        values[filled : filled + batch] = first + second - 1.0 / settings
        filled += batch

    std_error = float(values.std(ddof=1) / np.sqrt(ensemble_samples))
    return MseEstimate(float(values.mean()), std_error, ensemble_samples)


def _leading_normals(rng: np.random.Generator, batch: int, dim: int) -> np.ndarray:
    """``rng.standard_normal((2, batch, dim, dim))[..., 0]`` with the same
    bits, drawn in chunks of whole rows of at most THEOREM1_CHUNK normals
    (one row at least): the same stream in the same order, of which only
    the (2, batch, dim) kept entries and one chunk are held at a time."""
    normals = np.empty((2, batch * dim))
    chunk = np.empty((max(1, THEOREM1_CHUNK // dim), dim))
    for part in normals:
        for start in range(0, len(part), len(chunk)):
            rows = chunk[: len(part) - start]
            rng.standard_normal(out=rows)
            part[start : start + len(rows)] = rows[:, 0]
    return normals.reshape(2, batch, dim)


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
