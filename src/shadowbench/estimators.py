"""The three shadow constructions: LS, RLS, and CS.

All three estimators map each measurement record's adjoint A†(p̂) to a
"shadow", a Hermitian (D, D) array, and average the shadows. They
differ only in how the frame operator (1/M) A†A is inverted: RLS shifts
it by mu/M, LS is its mu = 0 end (the pseudoinverse), and CS replaces
it with the analytic global-Haar expectation channel whose inverse is
closed-form.
:func:`shadow_map` is that one map; since it is linear, the average
estimate is the same map applied to the mean adjoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .ensembles import as_integer
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
        self.dim = as_integer("dim", self.dim)
        self.settings = as_integer("settings", self.settings)
        if self.dim < 1 or self.settings < 1:
            raise ValueError(f"frame needs dim and settings >= 1, got {self.dim}, {self.settings}")
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
        if not 0.0 <= mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {mu}")
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
    """Frames of the growing prefixes of one sequence of settings, fed to
    it in setting order by :meth:`extend`.

    This is where every frame is built. A fed setting waits, as the view
    of its unitary, until a frame is asked for or FRAME_COLUMNS // D
    settings wait; the waiting settings then enter the running sum as one
    syrk. So a syrk block starts at the previous frame's last setting and
    spans FRAME_COLUMNS // D settings, whatever sizes were fed, and each
    frame is the sum divided by M.
    """

    def __init__(self, dim: int):
        self.dim = as_integer("dim", dim)
        if self.dim < 1:
            raise ValueError(f"frame prefix needs a dimension >= 1, got {dim}")
        self.settings = 0  # settings fed so far
        self._summed = 0  # settings in the running sum
        self._waiting: list[np.ndarray] = []
        self._sum: np.ndarray | None = None

    def extend(self, unitaries) -> None:
        """Feed the next settings, an (m, D, D) stack or a list of (D, D)
        unitaries, which must not change until they enter the sum."""
        unitaries = np.asarray(unitaries)
        if unitaries.ndim != 3 or unitaries.shape[1:] != (self.dim, self.dim):
            raise ValueError(
                f"dim-mismatch: settings of shape {unitaries.shape[1:]} for a "
                f"frame of dimension {self.dim}"
            )
        step = max(1, FRAME_COLUMNS // self.dim)
        while len(unitaries):
            room = step - (self.settings - self._summed)
            self._waiting.append(unitaries[:room])
            self.settings += len(self._waiting[-1])
            unitaries = unitaries[room:]
            if self.settings - self._summed == step:
                self._accumulate()

    def _accumulate(self) -> None:
        """Add the waiting settings to the running sum as one syrk."""
        if self._sum is None:
            self._sum = np.zeros((self.dim**2, self.dim**2))
        buffer = np.empty(((self.settings - self._summed) * self.dim, self.dim**2))
        offset = 0
        for block in self._waiting:
            povm_operator_columns(block, out=buffer[offset:offset + len(block) * self.dim])
            offset += len(block) * self.dim
        self._waiting, self._summed = [], self.settings
        self._sum += np.matmul(buffer.T, buffer)

    def frame(self, shots: int = 1) -> FrameOperator:
        """Frame of every setting fed so far, each probed ``shots`` times."""
        if as_integer("shots", shots) < 1:
            raise ValueError(f"shot count must be >= 1, got {shots}")
        if self.settings < 1:
            raise ValueError("frame prefix needs at least one setting, got 0")
        if self._summed < self.settings:
            self._accumulate()
        # Probing each of M settings L times is equivalent to M*L
        # single-shot settings with duplicated POVMs: the entries do not
        # depend on L, so one prefix serves every shot count, but the ridge
        # shift mu/M divides by M*L. So multishot records and their
        # expanded one-hot form give identical RLS shadows.
        return FrameOperator(self._sum / self.settings, self.dim, self.settings * shots)


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
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    if as_integer("shots", shots) < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
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


def shadow_map(
    method: ShadowMethod,
    adjoint: np.ndarray,
    frame: FrameOperator | None = None,
) -> np.ndarray:
    """The (D, D) shadow of one adjoint A†(p̂), or the (R, D, D) stack of
    the shadows of each adjoint in an (R, D, D) stack.

    LS and RLS apply the frame's ridge inverse, LS at mu = 0, one solve
    for the whole stack. CS applies the closed-form inverse
    channel as (D + 1) X - I, which uses tr(A†(p̂)) = sum(p̂) = 1 and
    needs no frame; for a single shot it equals the rank-1 form
    (D + 1)(U† p̂)(U† p̂)† - I. Every shadow is Hermitian bit for bit:
    the CS form scales a Hermitian adjoint, and :func:`unvec` assembles
    the LS and RLS solutions as Hermitian matrices.
    """
    adjoint = np.asarray(adjoint)
    dim = adjoint.shape[-1]
    if isinstance(method, CS):
        shadows = (dim + 1) * adjoint - np.eye(dim)
        traces = np.trace(shadows, axis1=-2, axis2=-1).real
        if np.abs(traces - 1.0).max() > 1e-10:
            raise RuntimeError("CS estimate trace deviates from 1 beyond 1e-10")
        return shadows
    mu = _ridge_weight(method)
    if frame is None:
        raise ValueError(f"{type(method).__name__} shadows need the frame operator")
    # Stacked adjoints become the columns of one real (D^2, R)
    # right-hand side; unvec makes each solution Hermitian. Its rows are
    # made contiguous so that the stack is C-ordered, one (D, D) block
    # per shadow, as the CS branch's is.
    columns = np.moveaxis(vec(adjoint), -1, 0)
    solution = frame.ridge_apply(columns, mu)
    return unvec(np.ascontiguousarray(np.moveaxis(solution, 0, -1)), dim)


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
    _ridge_weight(method)  # refuses an unknown method
    return "gram" if settings <= dim else "frame"


def estimate(records: RecordStack, method: ShadowMethod) -> np.ndarray:
    """The (M, D, D) stack of the per-setting shadows of the chosen
    method; their mean over the first axis is the estimate.

    LS/RLS build one frame operator from exactly these settings and
    solve every setting against it at once.
    """
    adjoints = adjoint_map(records.unitaries, records.frequencies)
    frame = None
    if not isinstance(method, CS):
        frames = FramePrefix(records.dim)
        frames.extend(records.unitaries)
        frame = frames.frame(records.shots)
    return shadow_map(method, adjoints, frame)
