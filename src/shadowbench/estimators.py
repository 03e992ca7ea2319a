"""The three shadow constructions: LS, RLS, and CS.

All three estimators map each measurement record to a "shadow" matrix
and average the shadows. They differ only in how the frame operator
(1/M) A†A is inverted: LS applies its pseudoinverse, RLS shifts it by
mu/M before a true inverse, and CS replaces it with the analytic
global-Haar expectation channel whose inverse is closed-form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import RankOnePovm, ShadowEstimate, as_matrix, hermitize
from .measurement import MeasurementRecord, adjoint_map

logger = logging.getLogger(__name__)

DEFAULT_RCOND = 1e-10
DEFAULT_MU = 0.1
FRAME_BLOCK = 32  # settings per frame-accumulation GEMM


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, so <A, B> = vec(A)† vec(B)."""
    return np.asarray(matrix).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vector).reshape(dim, dim, order="F")


def povm_operator_columns(povms) -> np.ndarray:
    """The (D^2, m*D) matrix whose columns are vec(u_k u_k†) for every
    outcome k of every setting in ``povms``: one RankOnePovm, one (D, D)
    unitary, or an (m, D, D) stack of unitaries."""
    unitaries = np.asarray(povms.unitary if isinstance(povms, RankOnePovm) else povms)
    dim = unitaries.shape[-1]
    # rows[i, r] = U_{ri} over all outcome rows r; the column for row r
    # holds conj(U_{ri}) U_{rj} at position i + D j.
    rows = unitaries.reshape(-1, dim).T
    return (rows[:, None, :] * rows.conj()[None, :, :]).reshape(dim * dim, -1)


def accumulate_frame(total: np.ndarray, unitaries: Sequence[np.ndarray]) -> None:
    """Add sum_mk vec(A_mk) vec(A_mk)† over the settings' (D, D) unitaries
    to ``total`` in place, one GEMM per block of FRAME_BLOCK settings."""
    for start in range(0, len(unitaries), FRAME_BLOCK):
        columns = povm_operator_columns(unitaries[start:start + FRAME_BLOCK])
        total += columns @ columns.conj().T


@dataclass(eq=False)
class FrameOperator:
    """Dense D^2 x D^2 representation of (1/M) A†A on vectorized operators.

    Hermitian PSD with trace D for rank-1 orthonormal POVMs. The
    eigendecomposition behind the pseudoinverse is computed once on
    demand and reused across records and observables; a ridge solve with
    mu > 0 needs no eigendecomposition.
    """

    entries: np.ndarray
    dim: int
    settings: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        expected = self.dim * self.dim
        if entries.shape != (expected, expected):
            raise ValueError(
                f"frame entries must be {expected}x{expected}, got {entries.shape}"
            )
        self.entries = entries
        self._eigenvalues: np.ndarray | None = None
        self._eigenvectors: np.ndarray | None = None

    @classmethod
    def from_povms(cls, povms: Sequence[RankOnePovm], shots: int = 1) -> "FrameOperator":
        """Frame of the given settings; ``shots`` > 1 switches to the
        effective single-shot view where each POVM counts shots times.

        Probing each of M settings L times is equivalent to M*L
        single-shot settings with duplicated POVMs; the entries are
        unchanged (the duplication cancels in the average) but the
        setting count becomes M*L, which is what the ridge shift mu/M
        divides by. This keeps multishot records and their expanded
        one-hot form producing identical RLS shadows.
        """
        if len(povms) == 0:
            raise ValueError("frame operator needs at least one POVM")
        if shots < 1:
            raise ValueError(f"shot count must be >= 1, got {shots}")
        dim = povms[0].dim
        if any(povm.dim != dim for povm in povms):
            raise ValueError(f"dim-mismatch: POVM dims differ from {dim}")
        accumulator = np.zeros((dim * dim, dim * dim), dtype=complex)
        accumulate_frame(accumulator, [povm.unitary for povm in povms])
        return cls(hermitize(accumulator / len(povms)), dim, len(povms) * shots)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eigenvalues is None:
            self._eigenvalues, self._eigenvectors = np.linalg.eigh(hermitize(self.entries))
        return self._eigenvalues, self._eigenvectors

    def pinv_apply(self, vector: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
        """Apply the pseudoinverse, discarding eigenvalues <= rcond * max."""
        eigenvalues, eigenvectors = self.eigensystem()
        largest = eigenvalues[-1]
        if largest <= 0.0:
            raise ValueError("frame operator is identically zero")
        keep = eigenvalues > rcond * largest
        basis = eigenvectors[:, keep]
        return basis @ ((basis.conj().T @ vector) / eigenvalues[keep])

    def ridge_apply(self, vector: np.ndarray, mu: float) -> np.ndarray:
        """Solve ((1/M)(A†A + mu I)) x = vector for one right-hand side or
        a (D^2, R) stack of them.

        mu > 0 is a direct LU solve. mu = 0 goes through the eigensystem,
        whose spectrum rejects a singular frame.
        """
        if mu < 0.0:
            raise ValueError(f"ridge parameter must be >= 0, got {mu}")
        if mu > 0.0:
            order = self.entries.shape[0]
            return np.linalg.solve(self.entries + (mu / self.settings) * np.eye(order), vector)
        eigenvalues, eigenvectors = self.eigensystem()
        if eigenvalues[0] <= DEFAULT_RCOND * max(eigenvalues[-1], 0.0):
            raise ValueError("singular-frame: mu = 0 requires an invertible frame operator")
        return (eigenvectors / eigenvalues) @ (eigenvectors.conj().T @ vector)


def gram_ridge_solve(
    unitaries: Sequence[np.ndarray], frequencies: Sequence[np.ndarray], mu: float, shots: int = 1
) -> np.ndarray:
    """RLS average estimate of M settings from their M*D-dimensional Gram system.

    With V the (M*D, D) stack of the settings' unitary rows, G = |V V†|^2
    is the Gram matrix <A_mk, A_m'k'>. By the push-through identity
    ((1/M) A†A + mu/(M L) I)^-1 A†(p̂)/M = A†((G + (mu/L) I)^-1 p̂),
    so the D^2 x D^2 frame is neither formed nor solved. Below M = D the
    frame is singular, so mu = 0 is rejected as on the primal route.
    """
    if mu < 0.0:
        raise ValueError(f"ridge parameter must be >= 0, got {mu}")
    if mu == 0.0:
        raise ValueError("singular-frame: mu = 0 requires an invertible frame operator")
    unitaries = np.asarray(unitaries)
    rows = unitaries.reshape(-1, unitaries.shape[-1])
    phat = np.asarray(frequencies, dtype=float).reshape(-1)
    gram = np.abs(rows @ rows.conj().T) ** 2
    weights = np.linalg.solve(gram + (mu / shots) * np.eye(len(rows)), phat)
    return hermitize((rows.conj().T * weights) @ rows)


def build_frame_operator(povms: Sequence[RankOnePovm]) -> FrameOperator:
    """Assemble (1/M) sum_mk vec(A_mk) vec(A_mk)† for the given settings."""
    return FrameOperator.from_povms(povms)


@dataclass(frozen=True)
class LS:
    """Pseudoinverse (minimum-norm) shadows; rcond sets the spectral cutoff."""

    rcond: float = DEFAULT_RCOND

    def __post_init__(self):
        if not 0.0 < self.rcond < 1.0:
            raise ValueError(f"rcond must lie in (0, 1), got {self.rcond}")


@dataclass(frozen=True)
class RLS:
    """Ridge-regularized shadows with penalty weight mu."""

    mu: float = DEFAULT_MU

    def __post_init__(self):
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")


@dataclass(frozen=True)
class CS:
    """Classical shadows under the analytic global-Haar channel inverse."""


ShadowMethod = Union[LS, RLS, CS]


@dataclass(frozen=True, eq=False)
class ShadowSet:
    """Per-record shadows and their arithmetic mean."""

    shadows: tuple
    average: ShadowEstimate

    def __post_init__(self):
        object.__setattr__(self, "shadows", tuple(self.shadows))
        stack = np.mean([shadow.matrix for shadow in self.shadows], axis=0)
        if np.abs(stack - self.average.matrix).max() > 1e-10:
            raise ValueError("shadow set average disagrees with the shadow mean")


def ls_shadow(
    frame: FrameOperator, partial: np.ndarray, rcond: float = DEFAULT_RCOND
) -> ShadowEstimate:
    """Minimum-norm shadow ((1/M) A†A)^+ applied to one adjoint A_m†(p̂_m)."""
    partial = as_matrix(partial)
    solution = frame.pinv_apply(vec(partial), rcond=rcond)
    return ShadowEstimate(hermitize(unvec(solution, frame.dim)), "LS")


def rls_shadow(frame: FrameOperator, mu: float, partial: np.ndarray) -> ShadowEstimate:
    """Ridge shadow ((1/M)(A†A + mu I))^-1 applied to one adjoint."""
    partial = as_matrix(partial)
    solution = frame.ridge_apply(vec(partial), mu)
    return ShadowEstimate(hermitize(unvec(solution, frame.dim)), "RLS")


def cs_channel_apply(op) -> np.ndarray:
    """The global-Haar measurement channel X -> (X + tr(X) I) / (D + 1)."""
    matrix = as_matrix(op)
    dim = matrix.shape[0]
    return (matrix + matrix.trace() * np.eye(dim)) / (dim + 1)


def cs_channel_inverse(op) -> np.ndarray:
    """Inverse channel X -> (D + 1) X - tr(X) I."""
    matrix = as_matrix(op)
    dim = matrix.shape[0]
    return (dim + 1) * matrix - matrix.trace() * np.eye(dim)


def cs_shadow(record: MeasurementRecord) -> ShadowEstimate:
    """Classical shadow (D + 1) A†(p̂) - I of one record.

    Uses tr(A†(p̂)) = sum(p̂) = 1 so the identity term is exact; for a
    single shot this equals the rank-1 outer-product form
    (D + 1)(U† p̂)(U† p̂)† - I.
    """
    partial = adjoint_map(record.povm, record.frequencies)
    dim = record.dim
    return ShadowEstimate((dim + 1) * partial - np.eye(dim), "CS")


def estimate(records: Sequence[MeasurementRecord], method: ShadowMethod) -> ShadowSet:
    """Per-record shadows of the chosen method plus their average.

    LS/RLS build one frame operator from exactly these records' POVMs
    and reuse its single factorization for every record's solve.
    """
    if len(records) == 0:
        raise ValueError("estimate needs at least one measurement record")
    dim = records[0].dim
    if any(record.dim != dim for record in records):
        raise ValueError("dim-mismatch: records have inconsistent dimensions")
    shots = records[0].shots
    if any(record.shots != shots for record in records):
        raise ValueError("records must share one shot count")

    if isinstance(method, CS):
        shadows = [cs_shadow(record) for record in records]
    else:
        frame = FrameOperator.from_povms([record.povm for record in records], shots=shots)
        partials = [adjoint_map(record.povm, record.frequencies) for record in records]
        if isinstance(method, LS):
            shadows = [ls_shadow(frame, partial, rcond=method.rcond) for partial in partials]
        elif isinstance(method, RLS):
            # One solve for all records' right-hand sides at once.
            columns = np.stack([vec(partial) for partial in partials], axis=1)
            solutions = frame.ridge_apply(columns, method.mu)
            shadows = [
                ShadowEstimate(hermitize(unvec(column, dim)), "RLS") for column in solutions.T
            ]
        else:
            raise TypeError(f"unknown shadow method {type(method).__name__}")

    mean = hermitize(np.mean([shadow.matrix for shadow in shadows], axis=0))
    average = ShadowEstimate(mean, shadows[0].method)
    if isinstance(method, LS):
        # Trace 1 is only guaranteed when p̂ lies in the frame's range
        # space; elsewhere we just log what came out.
        logger.debug("LS average trace: %.12f", average.trace)
    return ShadowSet(tuple(shadows), average)
