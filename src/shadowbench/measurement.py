"""Shot acquisition: multinomial outcome counts and the adjoint map.

Simulates probing POVM settings with a finite number of shots, stores
a plan's unitaries and integer outcome counts as stacked arrays
(:class:`RecordStack`), and samples several plans over one ensemble
(different shot counts, say) from a single draw of their settings. It
also provides the adjoint A†(p̂) = sum_k p̂_k A_k of one setting or of
each setting in a stack, which every estimator consumes, and the text
file format of a record stack (:func:`dump_records`, :func:`load_records`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import DensityMatrix, born_probabilities, hermitize
from .ensembles import (
    EnsembleSpec,
    RngStream,
    as_generator,
    open_overwrite,
    sample_unitary,
    stream_generators,
)

PLAN_BLOCK = 64  # settings per batched draw, QR, Born and counts step in run_plan
POVM_UNITARITY_ATOL = 1e-8


@dataclass(frozen=True)
class MeasurementPlan:
    """M settings from an ensemble, each probed with L shots."""

    settings: int
    shots: int
    ensemble: EnsembleSpec

    def __post_init__(self):
        if self.settings < 1:
            raise ValueError(f"plan needs at least one setting, got {self.settings}")
        if self.shots < 1:
            raise ValueError(f"plan needs at least one shot, got {self.shots}")


class RecordError(ValueError):
    """A setting of a record stack that fails validation: ``setting`` is
    its index and ``part`` is "unitary" or "counts"."""

    def __init__(self, setting: int, part: str, reason: str):
        super().__init__(f"setting {setting}: {reason}")
        self.setting = int(setting)
        self.part = part
        self.reason = reason


def _check_unitaries(unitaries: np.ndarray, first: int = 0) -> None:
    """Check an (..., M, D, D) stack of settings first..first+M-1: the
    largest entrywise |U†U - I| of each, NaN for a non-finite entry."""
    product = unitaries.conj().swapaxes(-1, -2) @ unitaries
    defects = np.abs(product - np.eye(unitaries.shape[-1])).max(axis=(-2, -1))
    # Negated so that the NaN defect of a non-finite entry fails too.
    bad = np.argwhere(~(defects <= POVM_UNITARITY_ATOL))
    if bad.size:
        reason = f"non-unitary POVM matrix: |U†U - I| = {defects[tuple(bad[0])]:.3e} > 1e-8"
        raise RecordError(first + bad[0][-1], "unitary", reason)


def _check_counts(counts: np.ndarray, shots: int, first: int = 0) -> None:
    """Check the (..., M, K) counts of settings first..first+M-1."""
    negative = np.argwhere(counts.min(axis=-1) < 0)
    if negative.size:
        raise RecordError(first + negative[0][-1], "counts", "outcome counts must be nonnegative")
    totals = counts.sum(axis=-1)
    wrong = np.argwhere(totals != shots)
    if wrong.size:
        reason = f"counts sum {totals[tuple(wrong[0])]} != shots {shots}"
        raise RecordError(first + wrong[0][-1], "counts", reason)


@dataclass(frozen=True, eq=False)
class RecordStack:
    """M settings of one dimension and shot count as stacked arrays.

    ``unitaries`` is (M, D, D) and ``counts`` (M, K); both are copied on
    construction, checked (unitarity within 1e-8, counts nonnegative and
    summing to ``shots``, with a failure naming its setting) and marked
    read-only. Setting m is ``unitaries[m]`` and ``counts[m]``; the stack
    itself takes only slices, each a view that shares the arrays.
    """

    unitaries: np.ndarray
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        unitaries = np.array(self.unitaries, dtype=complex)
        counts = np.array(self.counts, dtype=np.int64)
        if unitaries.ndim != 3 or unitaries.shape[1] != unitaries.shape[2] or len(unitaries) < 1:
            raise ValueError(
                f"record stack needs (M, D, D) unitaries with M >= 1, got {unitaries.shape}"
            )
        if counts.shape != unitaries.shape[:2]:
            raise ValueError(
                f"counts must have one row per setting and one entry per outcome "
                f"{unitaries.shape[:2]}, got shape {counts.shape}"
            )
        if self.shots < 1:
            raise ValueError(f"shot count must be >= 1, got {self.shots}")
        _check_unitaries(unitaries)
        _check_counts(counts, self.shots)
        unitaries.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "unitaries", unitaries)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def _checked(cls, unitaries: np.ndarray, counts: np.ndarray, shots: int) -> "RecordStack":
        """A stack over read-only arrays that already passed the checks,
        without copying them."""
        stack = object.__new__(cls)
        for name, value in (("unitaries", unitaries), ("counts", counts), ("shots", shots)):
            object.__setattr__(stack, name, value)
        return stack

    @property
    def dim(self) -> int:
        return self.unitaries.shape[-1]

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots

    def __len__(self) -> int:
        return len(self.unitaries)

    def __getitem__(self, index: slice) -> "RecordStack":
        if not isinstance(index, slice):
            raise TypeError("a record stack takes slices; setting m is unitaries[m], counts[m]")
        if not len(range(*index.indices(len(self)))):
            raise ValueError(f"slice {index} of a {len(self)}-setting record stack is empty")
        return RecordStack._checked(self.unitaries[index], self.counts[index], self.shots)

    __iter__ = None  # a stack is not a sequence of per-setting objects


def sample_counts(probabilities: np.ndarray, shots: int, rng) -> np.ndarray:
    """Exact multinomial draw of outcome counts for one setting, or for
    each row of an (M, K) probability stack with ``rng`` a sequence of M
    streams or generators, one per row.

    For a single shot the result is one-hot. Sampling is delegated to
    numpy's generator, which implements the sequential conditional
    binomial scheme (exact, O(K), robust for tiny probabilities).
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    if probabilities.min() < 0.0:
        raise ValueError(f"negative probability {probabilities.min():.3e}")
    totals = probabilities.sum(axis=-1, keepdims=True)
    # Negated so that a NaN total fails too.
    off = ~(np.abs(totals - 1.0) <= 1e-10)
    if off.any():
        raise ValueError(f"probabilities sum to {totals[off][0]}, expected 1 within 1e-10")
    normalized = probabilities / totals
    if normalized.ndim == 1:
        return as_generator(rng).multinomial(shots, normalized)
    counts = np.empty(normalized.shape, dtype=np.int64)
    for stream, row, out in zip(rng, normalized, counts, strict=True):
        out[...] = as_generator(stream).multinomial(shots, row)
    return counts


def adjoint_map(unitaries, phat: np.ndarray) -> np.ndarray:
    """The weighted POVM sum A†(p̂) = sum_k p̂_k u_k u_k† = U† diag(p̂) U.

    ``unitaries`` is a (D, D) unitary with K frequencies, or an
    (M, D, D) stack of unitaries with (M, K) frequencies, giving one
    adjoint per setting; any (R, D) array of rows u_k† with R weights
    gives their weighted sum too. It is one batched matrix product, (U† scaled by
    p̂ column-wise) @ U, which numpy runs as one BLAS product per
    setting, so a stacked setting has the same bits as its own call; a
    three-operand ``einsum`` would instead loop over D^3 scalar triple
    products per setting. Hermitian and PSD with trace equal to sum(p̂);
    for a one-hot p̂ this is the rank-1 projector (U† p̂)(U† p̂)†.
    """
    phat = np.asarray(phat, dtype=float)
    unitaries = np.asarray(unitaries)
    if phat.shape != unitaries.shape[:-1]:
        raise ValueError(
            f"dim-mismatch: frequency shape {phat.shape} != POVM outcomes "
            f"{unitaries.shape[:-1]}"
        )
    weighted = unitaries.conj().swapaxes(-1, -2) * phat[..., None, :]
    return hermitize(weighted @ unitaries)


def _plan_sequence(plans, state: DensityMatrix) -> tuple[MeasurementPlan, ...]:
    """``plans`` as a non-empty tuple of plans over one ensemble of the
    state's dimension, or a ValueError naming what is wrong."""
    plans = (plans,) if isinstance(plans, MeasurementPlan) else tuple(plans)
    if not plans:
        raise ValueError("run_plan needs at least one plan")
    ensemble = plans[0].ensemble
    if any(plan.ensemble != ensemble for plan in plans):
        raise ValueError("plans of one run_plan call must share one ensemble")
    if ensemble.dim != state.dim:
        raise ValueError(f"dim-mismatch: ensemble dim {ensemble.dim} != state dim {state.dim}")
    return plans


def run_plan(state: DensityMatrix, plans, rng: RngStream | Sequence[RngStream]):
    """Simulate a plan: draw settings, Born probabilities, counts.

    ``plans`` is one MeasurementPlan, giving one RecordStack, or a
    sequence of plans over one ensemble, giving one stack per plan.
    ``rng`` identifies the trial, or is a sequence of trial streams on
    one seed (a chunk of trials), giving a list with that result for
    each trial in order. Setting m of trial t consumes the substream
    (t, m), so no draw depends on the chunk, and records for a smaller
    plan are an exact prefix of records for a larger plan at the same
    seed and trial.

    Settings are sampled PLAN_BLOCK at a time for every trial of the
    chunk at once. The block's generators are seeded in one pass
    (:func:`stream_generators`), and one :func:`sample_unitary` call draws
    and factorizes the block's settings for any ensemble. The checks and
    the Born probabilities then run once for the block.
    Each plan that holds setting m draws its counts from the stream's
    state right after that setting's draw, so every stack has the same
    bits as a separate call with its plan and trial alone. A trial's
    stacks share one read-only unitary array.
    """
    sequence = _plan_sequence(plans, state)
    trial_streams = [rng] if isinstance(rng, RngStream) else list(rng)
    if not trial_streams:
        raise ValueError("run_plan needs at least one trial stream")
    seed = trial_streams[0].seed
    if any(stream.seed != seed for stream in trial_streams):
        raise ValueError("trial streams of one run_plan call must share one seed")
    trials = [stream.stream_id[0] for stream in trial_streams]
    sizes = sorted((plan.settings for plan in sequence), reverse=True)
    total = sizes[0]
    shared = sizes[1] if len(sizes) > 1 else 0  # settings held by two plans or more
    dim = state.dim
    ensemble = sequence[0].ensemble
    unitaries = np.empty((len(trials), total, dim, dim), dtype=complex)
    counts = [np.empty((len(trials), plan.settings, dim), dtype=np.int64) for plan in sequence]
    for start in range(0, total, PLAN_BLOCK):
        stop = min(start + PLAN_BLOCK, total)
        width = stop - start
        generators = stream_generators(seed, trials, range(start, stop))
        block = sample_unitary(ensemble, generators).reshape(len(trials), width, dim, dim)
        _check_unitaries(block, start)
        probabilities = born_probabilities(block, state)
        # One row of generators per trial; the first ``held`` settings of
        # the block are in two plans or more.
        rows_of = [generators[index:index + width] for index in range(0, len(generators), width)]
        held = max(min(shared, stop) - start, 0)
        snapshots = [[generator.bit_generator.state for generator in row[:held]]
                     for row in rows_of]
        drawn = 0  # leading settings of the block whose counts were drawn
        for plan, plan_counts in zip(sequence, counts):
            rows = min(stop, plan.settings) - start
            if rows <= 0:
                continue
            for row, states in zip(rows_of, snapshots):
                for generator, snapshot in zip(row[: min(drawn, rows)], states):
                    generator.bit_generator.state = snapshot
            drawn = max(drawn, rows)
            drawing = [generator for row in rows_of for generator in row[:rows]]
            block_counts = sample_counts(
                probabilities[:, :rows].reshape(-1, dim), plan.shots, drawing
            ).reshape(len(trials), rows, dim)
            _check_counts(block_counts, plan.shots, start)
            plan_counts[:, start:start + rows] = block_counts
        unitaries[:, start:stop] = block
    unitaries.setflags(write=False)
    for plan_counts in counts:
        plan_counts.setflags(write=False)
    results = []
    for index in range(len(trials)):
        stacks = [
            RecordStack._checked(unitaries[index, : plan.settings], plan_counts[index], plan.shots)
            for plan, plan_counts in zip(sequence, counts)
        ]
        results.append(stacks[0] if isinstance(plans, MeasurementPlan) else stacks)
    return results[0] if isinstance(rng, RngStream) else results


def expand_to_single_shot(records: RecordStack) -> RecordStack:
    """Rewrite M L-shot settings as M*L one-hot single-shot settings with
    the same unitaries: setting by setting, then outcome by outcome."""
    outcomes = records.counts.shape[1]
    flat = np.repeat(np.arange(records.counts.size), records.counts.ravel())
    settings, hits = np.divmod(flat, outcomes)
    return RecordStack(records.unitaries[settings], np.eye(outcomes, dtype=np.int64)[hits], 1)


def dump_records(records: RecordStack, path, seed: int = 0) -> None:
    """Serialize a RecordStack to a line-oriented text file.

    Header line: ``D M L seed``. Then per setting: D unitary rows as
    "re im" pairs (17 significant digits, round-trip exact), followed by
    one line of K integer counts.
    """
    with open_overwrite(path) as handle:
        handle.write(f"{records.dim} {len(records)} {records.shots} {seed}\n")
        for unitary, counts in zip(records.unitaries, records.counts):
            for row in unitary:
                pairs = (f"{value.real:.17g} {value.imag:.17g}" for value in row)
                handle.write(" ".join(pairs) + "\n")
            handle.write(" ".join(str(int(count)) for count in counts) + "\n")


def _line_values(path, lines: list[str], index: int, kind, count: int) -> np.ndarray:
    """Line ``index`` (from 0) of a record file as exactly ``count`` finite
    floats (``kind`` float) or 64-bit integers (``kind`` int); a missing,
    short, non-numeric or non-finite line raises ValueError naming the
    path and the line."""
    where = f"{path}, line {index + 1}"
    if index >= len(lines):
        raise ValueError(f"truncated file: {where} is missing")
    tokens = lines[index].split()
    if len(tokens) != count:
        raise ValueError(f"malformed file: {where} has {len(tokens)} values, expected {count}")
    try:
        values = np.array([kind(token) for token in tokens], dtype=kind)
    except (ValueError, OverflowError):
        raise ValueError(
            f"malformed file: {where} has a non-numeric or out-of-range value"
        ) from None
    if not np.isfinite(values).all():
        raise ValueError(f"malformed file: {where} has a non-finite value")
    return values


def load_records(path) -> tuple[RecordStack, int]:
    """Read records written by :func:`dump_records`; returns (records, seed)."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    header = _line_values(path, lines, 0, int, 4).tolist()
    if min(header[:3]) < 1:
        raise ValueError(f"malformed file: {path}, line 1 header {header}")
    dim, count, shots, seed = header
    unitaries, counts = [], []
    # After the header line, each record is D unitary rows and a counts line.
    for first in range(1, 1 + count * (dim + 1), dim + 1):
        rows = [_line_values(path, lines, first + row, float, 2 * dim) for row in range(dim)]
        unitaries.append(np.stack(rows).view(complex))
        counts.append(_line_values(path, lines, first + dim, int, dim))
    for index in range(1 + count * (dim + 1), len(lines)):
        if lines[index].strip():
            raise ValueError(
                f"malformed file: {path}, line {index + 1}: unexpected content after the last block"
            )
    try:
        return RecordStack(np.stack(unitaries), np.stack(counts), shots), seed
    except RecordError as error:
        line = 2 + error.setting * (dim + 1) + (dim if error.part == "counts" else 0)
        raise ValueError(f"malformed file: {path}, line {line}: {error.reason}") from None
