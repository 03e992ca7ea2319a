"""The three shadow constructions: LS, RLS, and CS.

All three estimators map each measurement record's adjoint A†(p̂) to a
"shadow" matrix and average the shadows. They differ only in how the
frame operator (1/M) A†A is inverted: RLS shifts it by mu/M, LS is its
mu = 0 end (the pseudoinverse), and CS replaces it with the analytic
global-Haar expectation channel whose inverse is closed-form.
:func:`shadow_map` is that one map; since it is linear, the average
estimate is the same map applied to the mean adjoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ShadowEstimate, as_matrix
from .measurement import RecordStack, adjoint_map

DEFAULT_RCOND = 1e-10
DEFAULT_MU = 0.1
# Outcome columns per frame-accumulation syrk: FRAME_COLUMNS // D settings
# per block. numpy mirrors each syrk result into its lower triangle, an
# O(D^4) copy against the O(D^4 k) product, so a fixed column count k keeps
# the copy's share fixed at any D. On 2 vCPUs (OpenBLAS 0.3.31) one order-1024
# syrk took 24 ms at 1024 columns and 41 ms at 2048; 4096 columns raised the
# peak RSS of rls-vs-cs --qubits 5 from 85 to 117 MiB.
FRAME_COLUMNS = 2048
# Complex outer-product entries per chunk of povm_operator_columns: 64 rows
# at D = 32, a 1 MiB temporary. A whole block's outer products would hold
# 32 MiB at D = 32 and 128 MiB at D = 64 beside the real result.
FRAME_CHUNK_ENTRIES = 2**16


@functools.lru_cache(maxsize=8)
def _basis_layout(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Where :func:`vec` keeps a real part (i <= j) and the scale that
    makes its basis orthonormal: 1 on the diagonal, sqrt(2) off it.
    Cached per dimension, so both arrays are read-only."""
    i, j = np.indices((dim, dim))
    upper, scale = i <= j, np.where(i == j, 1.0, np.sqrt(2.0))
    upper.setflags(write=False)
    scale.setflags(write=False)
    return upper, scale


def _vec_into(matrix: np.ndarray, out: np.ndarray) -> None:
    """Write the coordinates of :func:`vec` of an (..., D, D) stack into
    the real (..., D, D) array ``out``, with no temporary of its size."""
    upper, scale = _basis_layout(matrix.shape[-1])
    np.copyto(out, matrix.imag)
    np.copyto(out, matrix.real, where=upper)
    out *= scale


def vec(matrix: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian (D, D) matrix, or of each matrix in
    an (R, D, D) stack, in an orthonormal Hermitian basis: at position
    i*D + j, X_ii on the diagonal, sqrt(2) Re X_ij for i < j and
    sqrt(2) Im X_ij for i > j. So tr(A B) = vec(A) @ vec(B)."""
    matrix = np.asarray(matrix)
    coordinates = np.empty(matrix.shape)
    _vec_into(matrix, coordinates)
    return coordinates.reshape(*matrix.shape[:-2], -1)


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian matrix of one coordinate vector or of each row of an
    (R, D^2) stack; inverse of :func:`vec` on Hermitian matrices."""
    vector = np.asarray(vector)
    upper, scale = _basis_layout(dim)
    halves = vector.reshape(*vector.shape[:-1], dim, dim) / scale
    imaginary = np.where(upper, 0.0, halves)
    real = np.where(upper, halves, halves.swapaxes(-1, -2))
    return real + 1j * (imaginary - imaginary.swapaxes(-1, -2))


def povm_operator_columns(unitaries, out: np.ndarray | None = None) -> np.ndarray:
    """The real (D^2, m*D) matrix whose columns are vec(u_k u_k†) for every
    outcome k of every setting in ``unitaries``: one (D, D) unitary, or an
    (m, D, D) stack of unitaries.

    The result is a transposed view of one (m*D, D^2) array: ``out`` if
    given, which must be C-contiguous of that shape, else a new one. It
    is filled FRAME_CHUNK_ENTRIES outer-product entries at a time, so the
    complex outer products held beside it stay near 1 MiB at any D rather
    than twice the result's size. Each column has the same bits whether
    its setting is stacked or not.
    """
    unitaries = np.asarray(unitaries)
    dim = unitaries.shape[-1]
    rows = unitaries.reshape(-1, dim)
    if out is None:
        out = np.empty((len(rows), dim * dim))
    elif out.shape != (len(rows), dim * dim) or not out.flags.c_contiguous:
        raise ValueError(
            f"columns buffer must be C-contiguous {(len(rows), dim * dim)}, got {out.shape}"
        )
    columns = out.reshape(len(rows), dim, dim)
    step = max(1, FRAME_CHUNK_ENTRIES // (dim * dim))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        # Row r of U gives the element u u† with entries conj(U_ri) U_rj.
        _vec_into(chunk.conj()[:, :, None] * chunk[:, None, :], columns[start:start + step])
    return out.T


@dataclass(eq=False)
class FrameOperator:
    """(1/M) A†A as a real symmetric D^2 x D^2 matrix on the coordinates
    of :func:`vec`, which is all it acts on: A maps Hermitian operators
    to real probabilities.

    PSD with trace D for rank-1 orthonormal POVMs. The
    eigendecomposition behind the pseudoinverse is computed once on
    demand and reused across records and observables; a ridge solve whose
    shift is above DEFAULT_RCOND needs no eigendecomposition.
    """

    entries: np.ndarray
    dim: int
    settings: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        expected = self.dim * self.dim
        if entries.shape != (expected, expected):
            raise ValueError(
                f"frame entries must be {expected}x{expected}, got {entries.shape}"
            )
        self.entries = entries
        self._eigenvalues: np.ndarray | None = None
        self._eigenvectors: np.ndarray | None = None

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eigenvalues is None:
            self._eigenvalues, self._eigenvectors = np.linalg.eigh(self.entries)
        return self._eigenvalues, self._eigenvectors

    def pinv_apply(self, vector: np.ndarray) -> np.ndarray:
        """Apply the pseudoinverse to one vector or a (D^2, R) stack of them."""
        return _pinv_solve(*self.eigensystem(), vector)

    def ridge_apply(self, vector: np.ndarray, mu: float) -> np.ndarray:
        """Solve ((1/M)(A†A + mu I)) x = vector for one right-hand side or
        a (D^2, R) stack of them.

        The frame averages projectors and fixes vec(I), so its largest
        eigenvalue is 1: a shift mu/M at or below DEFAULT_RCOND applies
        the pseudoinverse, and a larger one is a direct LU solve.
        """
        if mu < 0.0:
            raise ValueError(f"ridge parameter must be >= 0, got {mu}")
        if mu / self.settings <= DEFAULT_RCOND:
            return self.pinv_apply(vector)
        shifted = self.entries.copy()
        shifted[np.diag_indices_from(shifted)] += mu / self.settings
        # The frame is symmetric bit for bit (numpy mirrors each syrk), so
        # its transpose is the same matrix in LAPACK's column-major order,
        # which solve copies without transposing.
        return np.linalg.solve(shifted.T, vector)


def _pinv_solve(eigenvalues, eigenvectors, vector: np.ndarray) -> np.ndarray:
    """Apply the pseudoinverse of a PSD matrix, given its ascending
    eigensystem, to one vector or a stack of column vectors, discarding
    eigenvalues <= DEFAULT_RCOND * max."""
    largest = eigenvalues[-1]
    if largest <= 0.0:
        raise ValueError("frame operator is identically zero")
    keep = eigenvalues > DEFAULT_RCOND * largest
    basis = eigenvectors[:, keep]
    # The transposes divide each column of a stack by the eigenvalues
    # and leave a single vector's arithmetic as it is.
    return basis @ ((basis.T @ vector).T / eigenvalues[keep]).T


class FramePrefix:
    """Frames of growing prefixes of one sequence of settings.

    This is where every frame is built. Settings enter the running sum
    only when a frame first needs them, one syrk per block of
    FRAME_COLUMNS // D settings, and each frame is that sum divided by M.
    """

    def __init__(self, unitaries: np.ndarray, shots: int = 1):
        """``unitaries`` is an (M, D, D) stack or a list of (D, D) unitaries."""
        if len(unitaries) == 0:
            raise ValueError("frame operator needs at least one POVM")
        if shots < 1:
            raise ValueError(f"shot count must be >= 1, got {shots}")
        self.unitaries = np.asarray(unitaries)
        if self.unitaries.ndim != 3 or self.unitaries.shape[1] != self.unitaries.shape[2]:
            raise ValueError(f"dim-mismatch: settings of shape {self.unitaries.shape[1:]}")
        self.dim = self.unitaries.shape[-1]
        self.shots = shots
        self._sum: np.ndarray | None = None
        self._count = 0
        self._frame: FrameOperator | None = None

    def frame(self, settings: int) -> FrameOperator:
        """Frame of the first ``settings`` settings; calls must not go back."""
        if settings < 1:
            raise ValueError(f"frame prefix needs at least one setting, got {settings}")
        if not self._count <= settings <= len(self.unitaries):
            raise ValueError(
                f"frame prefix of {settings} settings after {self._count} "
                f"of {len(self.unitaries)}"
            )
        if self._count != settings:
            # The previous frame goes before this call's buffers are made.
            self._frame = None
            if self._sum is None:
                self._sum = np.zeros((self.dim**2, self.dim**2))
            step = max(1, FRAME_COLUMNS // self.dim)
            # One columns buffer and one product buffer serve every block.
            buffer = np.empty((min(step, settings - self._count) * self.dim, self.dim**2))
            product = np.empty_like(self._sum)
            for start in range(self._count, settings, step):
                block = self.unitaries[start:min(start + step, settings)]
                columns = povm_operator_columns(block, out=buffer[:len(block) * self.dim])
                np.matmul(columns, columns.T, out=product)
                self._sum += product
            # Free the buffers, which can outgrow the frame, before the
            # frame below is made.
            del buffer, product, columns
            self._count = settings
            # Probing each of M settings L times is equivalent to M*L
            # single-shot settings with duplicated POVMs: the entries are
            # unchanged, but the ridge shift mu/M divides by M*L. This keeps
            # multishot records and their expanded one-hot form producing
            # identical RLS shadows.
            self._frame = FrameOperator(self._sum / settings, self.dim, settings * self.shots)
        return self._frame


def gram_ridge_solve(
    unitaries: np.ndarray, frequencies: np.ndarray, mu: float, shots: int = 1
) -> np.ndarray:
    """RLS average estimate (LS at mu = 0) of M settings from their
    M*D-dimensional Gram system.

    With V the (M*D, D) stack of the settings' unitary rows, G = |V V†|^2
    is the Gram matrix <A_mk, A_m'k'>. By the push-through identity
    ((1/M) A†A + mu/(M L) I)^-1 A†(p̂)/M = A†((G + (mu/L) I)^-1 p̂),
    so the D^2 x D^2 frame is neither formed nor solved. G shares the
    nonzero spectrum of A†A, whose largest eigenvalue is M, so its shift
    is mu/(M L) of that, as on the frame; at or below DEFAULT_RCOND the
    pseudoinverse of G is applied.
    """
    if mu < 0.0:
        raise ValueError(f"ridge parameter must be >= 0, got {mu}")
    unitaries = np.asarray(unitaries)
    rows = unitaries.reshape(-1, unitaries.shape[-1])
    phat = np.asarray(frequencies, dtype=float).reshape(-1)
    gram = np.abs(rows @ rows.conj().T) ** 2
    if mu / (len(unitaries) * shots) <= DEFAULT_RCOND:
        weights = _pinv_solve(*np.linalg.eigh(gram), phat)
    else:
        gram[np.diag_indices_from(gram)] += mu / shots
        # G is symmetric (bit for bit in almost every draw, to rounding in
        # all), so G.T is G in LAPACK's column-major order, which solve
        # copies without transposing.
        weights = np.linalg.solve(gram.T, phat)
    return adjoint_map(rows, weights)


@dataclass(frozen=True)
class LS:
    """Pseudoinverse (minimum-norm) shadows, cut off at DEFAULT_RCOND."""


@dataclass(frozen=True)
class RLS:
    """Ridge-regularized shadows with penalty weight mu."""

    mu: float = DEFAULT_MU

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")


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


def shadow_map(
    method: ShadowMethod,
    adjoint: np.ndarray,
    frame: FrameOperator | None = None,
):
    """The shadow of one adjoint A†(p̂), or a tuple of shadows of each
    adjoint in an (R, D, D) stack.

    LS and RLS apply the frame's ridge inverse, LS at mu = 0, one solve
    for the whole stack. CS applies the closed-form inverse
    channel as (D + 1) X - I, which uses tr(A†(p̂)) = sum(p̂) = 1 and
    needs no frame; for a single shot it equals the rank-1 form
    (D + 1)(U† p̂)(U† p̂)† - I.
    """
    adjoint = np.asarray(adjoint)
    dim = adjoint.shape[-1]
    name = type(method).__name__
    if isinstance(method, CS):
        matrices = (dim + 1) * adjoint - np.eye(dim)
        traces = np.trace(matrices, axis1=-2, axis2=-1).real
        if np.abs(traces - 1.0).max() > 1e-10:
            raise RuntimeError("CS estimate trace deviates from 1 beyond 1e-10")
    else:
        mu = _ridge_weight(method)
        if frame is None:
            raise ValueError(f"{name} shadows need the frame operator")
        # Stacked adjoints become the columns of one real (D^2, R)
        # right-hand side; unvec makes each solution Hermitian.
        columns = np.moveaxis(vec(adjoint), -1, 0)
        solution = frame.ridge_apply(columns, mu)
        matrices = unvec(np.moveaxis(solution, 0, -1), dim)
    if matrices.ndim == 2:
        return ShadowEstimate(matrices, name)
    return tuple(ShadowEstimate(matrix, name) for matrix in matrices)


def _ridge_weight(method: ShadowMethod) -> float:
    """The ridge weight of an LS or RLS method: LS is RLS at mu = 0."""
    if isinstance(method, RLS):
        return method.mu
    if isinstance(method, LS):
        return 0.0
    raise TypeError(f"unknown shadow method {type(method).__name__}")


def solve_route(method: ShadowMethod, settings: int, dim: int) -> str:
    """How the average estimate of ``settings`` settings is solved.

    "channel" for CS, whose inverse is closed-form; "gram" for LS and RLS
    at or below interpolation (M <= D, where the frame is singular),
    solved in the M*D-dimensional Gram space; "frame" otherwise, where
    the D^2 x D^2 frame is formed.
    """
    if isinstance(method, CS):
        return "channel"
    return "gram" if settings <= dim else "frame"


def average_estimate(
    method: ShadowMethod, records: RecordStack, mean_adjoint: np.ndarray, frames: FramePrefix
) -> ShadowEstimate:
    """Mean shadow of ``records``, the first settings of ``frames``.

    By linearity it is the shadow map of the records' mean adjoint; at
    or below interpolation it is the equivalent Gram solve. Only the
    "frame" route asks ``frames`` for a frame.
    """
    settings = len(records)
    route = solve_route(method, settings, records.dim)
    if route == "gram":
        matrix = gram_ridge_solve(
            records.unitaries, records.frequencies, _ridge_weight(method), records.shots
        )
        return ShadowEstimate(matrix, type(method).__name__)
    return shadow_map(method, mean_adjoint, frames.frame(settings) if route == "frame" else None)


def estimate(records: RecordStack, method: ShadowMethod) -> ShadowSet:
    """Per-setting shadows of the chosen method plus their average.

    LS/RLS build one frame operator from exactly these settings and
    solve every setting against it at once.
    """
    adjoints = adjoint_map(records.unitaries, records.frequencies)
    frame = None
    if not isinstance(method, CS):
        frame = FramePrefix(records.unitaries, records.shots).frame(len(records))
    shadows = shadow_map(method, adjoints, frame)
    mean = np.mean([shadow.matrix for shadow in shadows], axis=0)
    return ShadowSet(shadows, ShadowEstimate(mean, shadows[0].method))
