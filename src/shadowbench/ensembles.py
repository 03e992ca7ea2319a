"""Random measurement-setting ensembles.

Haar-random unitaries, global or local tensor-product, and mixtures of
the two, drawn as (M, D, D) arrays from counter-based RNG streams so
that every (seed, trial, measurement) triple reproduces the same
unitary regardless of execution order.
"""

from __future__ import annotations

import operator
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Reserved stream index for scenario-level draws (random observables,
# theory Monte Carlo); trial indices must stay below it.
AUX_STREAM_INDEX = 2**31 - 1

# numpy's SeedSequence hash (NEP 19 keeps it stream-compatible). Hash
# step k xors a 32-bit word with the k-th running constant, init * mult^k,
# and multiplies it by the next one.
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, xor, mul):
    """One hash step of a 32-bit word, elementwise on uint32 arrays (one
    step per entry of the constants' first axis)."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _hash_steps(init: int, mult: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` hash steps from
    ``first``, along the first of three axes (step, trial, setting)."""
    constants = [init * pow(mult, step, 2**32) & _MASK32 for step in range(first, first + count + 1)]
    steps = np.array(constants, dtype=np.uint32).reshape(-1, 1, 1)
    return steps[:-1], steps[1:]


# generate_state takes 8 steps of its own constants for PCG64's four
# 64-bit seed words.
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 0, 8)


class _StateWords(ISeedSequence):
    """The four 64-bit words that ``SeedSequence.generate_state(4, uint64)``
    returns, computed in advance: all that PCG64 asks of its seed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"precomputed seed words cannot give {n_words} of {dtype}")
        return self.words


def as_integer(name: str, value) -> int:
    """``value`` as an int by ``operator.index``, so numpy integers pass;
    a bool or any other value (2.5, say) raises a TypeError that names
    ``name``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def stream_generators(seed: int, trials, settings) -> list[np.random.Generator]:
    """Generators of the streams (seed, (t, m)) for t in ``trials`` and m
    in ``settings``, trial-major: each has the state of
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, m)))``.
    This is the only place a stream is seeded, so identical keys give
    bitwise-identical draws in any order. A seed or key that is not an
    integer (a bool included) raises TypeError, a negative one or a key
    above 2^32 - 1 ValueError.

    SeedSequence's hash runs once for all streams: numpy hashes the seed
    into the pool, then the two key words of every stream and the PCG64
    seed words are hashed on uint32 arrays.
    """
    seed = as_integer("seed", seed)
    trials = [as_integer("trial key", t) for t in trials]
    settings = [as_integer("setting key", m) for m in settings]
    for key in (*trials, *settings):
        if not 0 <= key <= _MASK32:
            raise ValueError(f"stream keys must lie in [0, 2^32 - 1], got {key}")
    # The pool hash takes 4 steps for the seed zero-padded to four words,
    # 12 to mix the words and 4 for each seed word past the fourth; each
    # key word then takes 4. Pool words, trials and settings lie along
    # three axes.
    pool = np.random.SeedSequence(seed).pool.reshape(-1, 1, 1)
    seed_words = max(1, (seed.bit_length() + 31) // 32)
    xor, mul = _hash_steps(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, seed_words - 4), 8)
    pool = _mix(pool, _hashmix(np.array(trials, dtype=np.uint32)[:, None], xor[:4], mul[:4]))
    pool = _mix(pool, _hashmix(np.array(settings, dtype=np.uint32), xor[4:], mul[4:]))
    # PCG64's four 64-bit words are eight 32-bit ones, little-endian pairs.
    words = _hashmix(pool[np.arange(8) % 4], *_STATE_STEPS).reshape(8, -1)
    state = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in state]


@dataclass(frozen=True)
class GlobalHaar:
    """Haar measure on the full unitary group U(D)."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"ensemble dimension must be >= 2, got {self.dim}")


@dataclass(frozen=True)
class HaarMixture:
    """Mixture drawing local settings with probability eta, global otherwise.

    A local setting is a tensor product of independent single-qubit Haar
    unitaries, so ``HaarMixture(n, 1.0)`` is the local tensor-product
    ensemble. The Bernoulli coin is drawn once per measurement setting.
    Degenerate mixtures (eta exactly 0 or 1) skip the coin entirely so
    that their draws are bitwise identical to the corresponding pure
    ensemble.
    """

    qubits: int
    eta: float

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.qubits}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"mixture weight eta must lie in [0, 1], got {self.eta}")

    @property
    def dim(self) -> int:
        return 2**self.qubits


EnsembleSpec = Union[GlobalHaar, HaarMixture]


def haar_from_normals(normals: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a (2, count, D, D) standard normal draw, whose
    halves are the real and imaginary parts of ``count`` Ginibre
    matrices, as a (count, D, D) array.

    QR-factorizes the stack and absorbs the phases of R's diagonal into Q,
    so the distribution is exactly Haar rather than merely uniform over
    QR outputs. Each unitary has the same bits whether or not it is
    factorized in a stack.
    """
    q, r = np.linalg.qr((normals[0] + 1j * normals[1]) / np.sqrt(2.0))
    diag = np.einsum("bii->bi", r)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def sample_unitary(spec: EnsembleSpec, generators) -> np.ndarray:
    """The measurement unitaries of a block of settings, one per
    generator, as a (len(generators), D, D) array; an empty block is
    refused.

    Each generator draws its own setting: a mixture's Bernoulli coin first,
    only when 0 < eta < 1, then all of its normals in one call, (2, D, D)
    for a global setting and (n, 2, 2, 2) for a local one, with real
    parts before imaginary parts. The block then factorizes its global
    settings as one QR stack and the n 2x2 factors of its local settings
    as another, and joins each local setting's factors by broadcast
    Kronecker products, so every unitary has the same bits as in a block
    of its own.
    """
    if isinstance(spec, GlobalHaar):
        eta = 0.0
    elif isinstance(spec, HaarMixture):
        eta = spec.eta
    else:
        raise TypeError(f"unknown ensemble spec {type(spec).__name__}")
    dim, count = spec.dim, len(generators)
    if count == 0:
        raise ValueError("sample_unitary needs at least one generator")
    qubits = spec.qubits if eta > 0.0 else 0
    local = np.empty(count, dtype=bool)
    # Global and local normals, each packed in draw order.
    normals = (np.empty((count, 2, dim, dim)), np.empty((count, qubits, 2, 2, 2)))
    drawn = [0, 0]
    for index, generator in enumerate(generators):
        kind = local[index] = eta >= 1.0 or (eta > 0.0 and generator.random() < eta)
        generator.standard_normal(out=normals[kind][drawn[kind]])
        drawn[kind] += 1
    parts = [None, None]
    if drawn[0]:
        parts[0] = haar_from_normals(normals[0][: drawn[0]].swapaxes(0, 1))
    if drawn[1]:
        factors = haar_from_normals(normals[1][: drawn[1]].reshape(-1, 2, 2, 2).swapaxes(0, 1))
        factors = factors.reshape(-1, qubits, 2, 2)
        product = factors[:, 0]
        for qubit in range(1, qubits):
            size = 2 * product.shape[-1]
            product = product[:, :, None, :, None] * factors[:, qubit, None, :, None, :]
            product = product.reshape(-1, size, size)
        parts[1] = product
    if drawn[0] and drawn[1]:
        unitaries = np.empty((count, dim, dim), dtype=complex)
        unitaries[~local], unitaries[local] = parts
        return unitaries
    return parts[0] if drawn[0] else parts[1]


def sample_sphere_vector(dim: int, generator: np.random.Generator) -> np.ndarray:
    """Uniform random unit vector on the complex D-sphere."""
    vector = generator.standard_normal(dim) + 1j * generator.standard_normal(dim)
    return vector / np.linalg.norm(vector)


@contextmanager
def open_overwrite(path):
    """A UTF-8 text handle that overwrites ``path`` in place.

    The file is opened without ``O_TRUNC``, and on leaving the block a
    regular file is cut at the handle's final position, so a rewrite
    leaves no stale tail. A file that held data when opened is
    fdatasynced after the cut, since an in-place write lacks the crash
    ordering that truncate-and-rewrite gets on ext4; new and empty files
    are not. An exception from the block, the cut or the sync cuts a
    regular file to length 0 before it propagates. Devices and FIFOs
    (``os.devnull``, a pipe) are written without a cut or a sync. README
    "CSV output" gives the measurements behind this.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        try:
            with open(fd, "w", encoding="utf-8", newline="\n", closefd=False) as handle:
                yield handle
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
                if info.st_size:
                    os.fdatasync(fd)
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)
