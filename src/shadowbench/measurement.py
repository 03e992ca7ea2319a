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

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DensityMatrix, born_probabilities, hermitize
from .ensembles import EnsembleSpec, as_integer, open_overwrite, sample_unitary, stream_generators

PLAN_BLOCK = 64  # settings per batched draw, QR, Born and counts step (D where D is larger)
PLAN_STREAMS = 4 * PLAN_BLOCK  # random streams (trial, setting) of one plan_blocks block
GROUP_ENTRIES = 2048 * 4**2  # caps a trial group at GROUP_ENTRIES // (M*D^2) trials
POVM_UNITARITY_ATOL = 1e-8
MAX_SHOTS = 2**63 - 1  # numpy's multinomial draws int64 counts


def as_shots(value) -> int:
    """``value`` as the shot count of any entry point: an int in [1, MAX_SHOTS]."""
    shots = as_integer("shots", value)
    if not 1 <= shots <= MAX_SHOTS:
        rule = "shot count must be >= 1" if shots < 1 else "shots must be <= 2^63 - 1"
        raise ValueError(f"{rule}, got {shots}")
    return shots


@dataclass(frozen=True)
class MeasurementPlan:
    """M settings from an ensemble, each probed with L shots
    (:func:`as_shots`); both are stored as ints."""

    settings: int
    shots: int
    ensemble: EnsembleSpec

    def __post_init__(self):
        settings = as_integer("settings", self.settings)
        if settings < 1:
            raise ValueError(f"plan needs at least one setting, got {settings}")
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "shots", as_shots(self.shots))


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
    read-only; ``shots`` passes :func:`as_shots` and is stored as an int.
    Setting m is ``unitaries[m]`` and ``counts[m]``; the stack itself
    takes only slices, each a view that shares the arrays.
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
        shots = as_shots(self.shots)
        _check_unitaries(unitaries)
        _check_counts(counts, shots)
        unitaries.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "unitaries", unitaries)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", shots)

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
    """Exact multinomial draw of outcome counts for one setting from the
    generator ``rng``, or for each row of an (M, K) probability stack
    with ``rng`` a sequence of M generators, one per row.

    ``shots`` passes :func:`as_shots` before any draw; one shot gives a
    one-hot result. numpy's generator draws by the sequential conditional
    binomial scheme (exact, O(K), robust for tiny probabilities).
    """
    probabilities = np.asarray(probabilities, dtype=float)
    shots = as_shots(shots)
    if probabilities.min(initial=0.0) < 0.0:
        raise ValueError(f"negative probability {probabilities.min():.3e}")
    totals = probabilities.sum(axis=-1, keepdims=True)
    # Negated so that a NaN total fails too.
    off = ~(np.abs(totals - 1.0) <= 1e-10)
    if off.any():
        raise ValueError(f"probabilities sum to {totals[off][0]}, expected 1 within 1e-10")
    normalized = probabilities / totals
    if normalized.ndim == 1:
        return rng.multinomial(shots, normalized)
    counts = np.empty(normalized.shape, dtype=np.int64)
    for generator, row, out in zip(rng, normalized, counts, strict=True):
        out[...] = generator.multinomial(shots, row)
    return counts


def as_frequencies(unitaries: np.ndarray, phat) -> np.ndarray:
    """``phat`` as floats, one per outcome of ``unitaries``, else a dim-mismatch ValueError."""
    phat = np.asarray(phat, dtype=float)
    if phat.shape != unitaries.shape[:-1]:
        raise ValueError(
            f"dim-mismatch: frequency shape {phat.shape} != POVM outcomes {unitaries.shape[:-1]}"
        )
    return phat


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
    unitaries = np.asarray(unitaries)
    phat = as_frequencies(unitaries, phat)
    weighted = unitaries.conj().swapaxes(-1, -2) * phat[..., None, :]
    return hermitize(weighted @ unitaries)


def _plan_sequence(plans, state: DensityMatrix) -> tuple[MeasurementPlan, ...]:
    """``plans`` as a non-empty tuple of plans over one ensemble of the
    state's dimension, or a ValueError naming what is wrong."""
    plans = (plans,) if isinstance(plans, MeasurementPlan) else tuple(plans)
    if not plans:
        raise ValueError("sampling needs at least one plan")
    ensemble = plans[0].ensemble
    if any(plan.ensemble != ensemble for plan in plans):
        raise ValueError("plans sampled together must share one ensemble")
    if ensemble.dim != state.dim:
        raise ValueError(f"dim-mismatch: ensemble dim {ensemble.dim} != state dim {state.dim}")
    return plans


def run_plan(state: DensityMatrix, plans, seed: int, trials):
    """Simulate a plan: draw settings, Born probabilities, counts.

    ``plans`` is one MeasurementPlan, giving one RecordStack, or a
    sequence of plans over one ensemble, giving one stack per plan.
    ``trials`` is one trial index, giving that trial's result, or a
    non-empty sequence of them, giving a list with the result of each in
    order. The trials are drawn group by group of :func:`trial_groups`,
    and the blocks of :func:`plan_blocks` (of max(PLAN_BLOCK, D)
    settings) are collected into arrays, so records for a smaller plan
    are an exact prefix of records for a larger plan at the same seed
    and trial, and every stack has the same bits as a separate call with
    its plan and trial alone, for any group or block width. A trial's
    stacks share one read-only unitary array.
    """
    sequence = _plan_sequence(plans, state)
    single = not isinstance(trials, Iterable)
    trials = [trials] if single else list(trials)
    if not trials:
        raise ValueError("run_plan needs at least one trial")
    total, dim = max(plan.settings for plan in sequence), state.dim
    unitaries = np.empty((len(trials), total, dim, dim), dtype=complex)
    counts = [np.empty((len(trials), plan.settings, dim), dtype=np.int64) for plan in sequence]
    for rows in trial_groups(len(trials), total, dim):
        for start, block, block_counts in plan_blocks(state, sequence, seed, trials[rows]):
            unitaries[rows, start:start + block.shape[1]] = block
            for plan_counts, plan_block in zip(counts, block_counts):
                plan_counts[rows, start:start + plan_block.shape[1]] = plan_block
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
    return results[0] if single else results


def _block_width(settings: int, dim: int) -> int:
    """The settings of the widest block of a draw of ``settings`` settings
    of dimension ``dim``: max(PLAN_BLOCK, D), or all of them if fewer."""
    return min(max(PLAN_BLOCK, dim), settings)


def trial_groups(trials: int, settings: int, dim: int) -> list[slice]:
    """Consecutive slices of ``trials`` trials that each draw ``settings``
    settings of dimension ``dim``, one per trial group: as many trials as
    keep a block (:func:`_block_width`) within PLAN_STREAMS streams and
    M*D^2 times the trial count within GROUP_ENTRIES, and one trial at
    least. In a scenario run that last cap bounds the running sums, frames
    and observed-outcome stores of a group's trials, alive at once."""
    size = max(1, min(PLAN_STREAMS // _block_width(settings, dim),
                      GROUP_ENTRIES // (settings * dim * dim)))
    return [slice(first, min(first + size, trials)) for first in range(0, trials, size)]


def plan_blocks(state: DensityMatrix, plans, seed: int, trials):
    """Sample a sequence of ``plans`` over one ensemble for a non-empty
    sequence of ``trials``, drawn together as one trial group, one block
    of settings at a time in setting order, each drawn only when asked
    for. A block is (start, unitaries, counts): ``unitaries`` is the
    read-only (T, W, D, D) array of settings start..start+W-1 of the T
    trials, and ``counts`` holds each plan's read-only (T, R, D) counts
    of the first R of them that it holds (R may be 0). Setting m of
    trial t is drawn from the stream (seed, (t, m)) and no other, so no
    draw depends on the group or the block; :func:`trial_groups` sizes
    the groups that keep a block's streams bounded.

    A block holds max(PLAN_BLOCK, D) settings at most (:func:`_block_width`),
    so the first block holds the first D. Its generators are seeded in one
    pass (:func:`stream_generators`), one :func:`sample_unitary` call draws
    and factorizes its settings for any ensemble, and the checks and
    Born probabilities run once for it; its generators are released
    before the next block's are seeded. Every plan draws its counts from
    the states its streams had right after the unitary draw, saved once
    for the settings two plans hold, so each draws as it would alone.
    """
    sequence = _plan_sequence(plans, state)
    trials = list(trials)
    if not trials:
        raise ValueError("plan_blocks needs at least one trial")
    sizes = sorted((plan.settings for plan in sequence), reverse=True)
    total, width = sizes[0], _block_width(sizes[0], state.dim)
    shared = sizes[1] if len(sizes) > 1 else 0  # settings held by two plans or more
    for start in range(0, total, width):
        settings = range(start, min(start + width, total))
        yield start, *_sample_block(state, sequence, shared, seed, trials, settings)


def _sample_block(state, sequence, shared: int, seed: int, trials, settings: range):
    """The (T, W, D, D) unitaries of ``settings`` of ``trials`` and each
    plan's (T, R, D) counts of those it holds. The streams of the first
    ``shared`` settings, held by two plans or more, are saved once and
    restored before each later plan; the saved states go on return."""
    start, stop, width, dim = settings.start, settings.stop, len(settings), state.dim
    generators = stream_generators(seed, trials, settings)
    block = sample_unitary(sequence[0].ensemble, generators).reshape(len(trials), width, dim, dim)
    _check_unitaries(block, start)
    block.setflags(write=False)
    probabilities = born_probabilities(block, state)
    # One row of generators per trial; the block's first ``held`` settings are shared.
    rows_of = [generators[index:index + width] for index in range(0, len(generators), width)]
    held = max(min(shared, stop) - start, 0)
    saved = [[generator.bit_generator.state for generator in row[:held]] for row in rows_of]
    counts = []
    for plan in sequence:
        rows = max(min(stop, plan.settings) - start, 0)
        if counts:  # a plan after the first: restore the saved states it draws from
            for row, saved_row in zip(rows_of, saved):
                for generator, snapshot in zip(row[:rows], saved_row):
                    generator.bit_generator.state = snapshot
        drawing = [generator for row in rows_of for generator in row[:rows]]
        block_counts = sample_counts(
            probabilities[:, :rows].reshape(-1, dim), plan.shots, drawing
        ).reshape(len(trials), rows, dim)
        _check_counts(block_counts, plan.shots, start)
        block_counts.setflags(write=False)
        counts.append(block_counts)
    return block, counts


def dump_records(records: RecordStack, path, seed: int = 0) -> None:
    """Serialize a RecordStack to a line-oriented text file.

    Header line: ``D M L seed``. Then per setting: D unitary rows as
    "re im" pairs (17 significant digits, round-trip exact), followed by
    one line of K integer counts. A seed :func:`load_records` would
    refuse (non-integral or negative) is refused before the file opens.
    """
    seed = as_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    with open_overwrite(path) as handle:
        handle.write(f"{records.dim} {len(records)} {records.shots} {seed}\n")
        _write_records(handle, records.unitaries, records.counts)


def _write_records(handle, unitaries: np.ndarray, counts: np.ndarray) -> None:
    """Write M settings' (M, D, D) unitaries and (M, D) counts as :func:`dump_records` does."""
    dim = unitaries.shape[-1]
    setting = (" ".join(["%.17g %.17g"] * dim) + "\n") * dim + " ".join(["%d"] * dim) + "\n"
    for unitary, setting_counts in zip(np.ascontiguousarray(unitaries).view(float), counts):
        handle.write(setting % (*unitary.ravel().tolist(), *setting_counts.tolist()))


def _line_values(path, lines: list[str], index: int, kind, count: int):
    """Line ``index`` (from 0) of a record file as exactly ``count`` finite
    floats (``kind`` float) or 64-bit integers (``kind`` np.int64) in an
    array, or as a list of integers of any size (``kind`` int); a
    missing, short, non-numeric, out-of-range or non-finite line raises
    ValueError naming the path and the line."""
    where = f"{path}, line {index + 1}"
    if index >= len(lines):
        raise ValueError(f"truncated file: {where} is missing")
    tokens = lines[index].split()
    if len(tokens) != count:
        raise ValueError(f"malformed file: {where} has {len(tokens)} values, expected {count}")
    try:
        values = [kind(token) for token in tokens]
    except (ValueError, OverflowError):
        raise ValueError(
            f"malformed file: {where} has a non-numeric or out-of-range value"
        ) from None
    if kind is int:
        return values
    values = np.array(values, dtype=kind)
    if not np.isfinite(values).all():
        raise ValueError(f"malformed file: {where} has a non-finite value")
    return values


def load_records(path) -> tuple[RecordStack, int]:
    """Read records written by :func:`dump_records`; returns (records, seed)."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    header = _line_values(path, lines, 0, int, 4)
    if min(header[:3]) < 1 or header[2] > MAX_SHOTS or header[3] < 0:
        raise ValueError(f"malformed file: {path}, line 1 header {header}")
    dim, count, shots, seed = header
    unitaries, counts = [], []
    # After the header line, each record is D unitary rows and a counts line.
    for first in range(1, 1 + count * (dim + 1), dim + 1):
        rows = [_line_values(path, lines, first + row, float, 2 * dim) for row in range(dim)]
        unitaries.append(np.stack(rows).view(complex))
        counts.append(_line_values(path, lines, first + dim, np.int64, dim))
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
