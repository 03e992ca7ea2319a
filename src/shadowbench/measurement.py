"""Shot acquisition: multinomial outcome counts and the adjoint map.

Simulates probing POVM settings with a finite number of shots, stores
the integer outcome counts, and provides the per-setting adjoint
A†(p̂) = sum_k p̂_k A_k that every estimator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DensityMatrix, RankOnePovm, born_probabilities, hermitize
from .ensembles import (
    BlockReader,
    EnsembleSpec,
    RngLike,
    RngStream,
    as_generator,
    sample_unitary,
    unitary_lines,
)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Outcome counts of one POVM setting probed with ``shots`` shots."""

    povm: RankOnePovm
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size != self.povm.outcomes:
            raise ValueError(
                f"counts must have one entry per outcome ({self.povm.outcomes}), "
                f"got shape {counts.shape}"
            )
        if counts.min() < 0:
            raise ValueError("outcome counts must be nonnegative")
        if counts.sum() != self.shots:
            raise ValueError(f"counts sum {counts.sum()} != shots {self.shots}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return self.povm.dim

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots


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


def sample_counts(probabilities: np.ndarray, shots: int, rng: RngLike) -> np.ndarray:
    """Exact multinomial draw of outcome counts for one setting.

    For a single shot the result is one-hot. Sampling is delegated to
    numpy's generator, which implements the sequential conditional
    binomial scheme (exact, O(K), robust for tiny probabilities).
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    if probabilities.min() < 0.0:
        raise ValueError(f"negative probability {probabilities.min():.3e}")
    total = probabilities.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-10")
    return as_generator(rng).multinomial(shots, probabilities / total)


def adjoint_map(povm: RankOnePovm, phat: np.ndarray) -> np.ndarray:
    """The weighted POVM sum A†(p̂) = sum_k p̂_k u_k u_k† = U† diag(p̂) U.

    Hermitian and PSD with trace equal to sum(p̂); for a one-hot p̂ this
    is the rank-1 projector (U† p̂)(U† p̂)†.
    """
    phat = np.asarray(phat, dtype=float)
    unitary = povm.unitary
    if phat.size != unitary.shape[0]:
        raise ValueError(
            f"dim-mismatch: frequency vector length {phat.size} != POVM outcomes "
            f"{unitary.shape[0]}"
        )
    partial = np.einsum("k,ki,kj->ij", phat, unitary.conj(), unitary)
    return hermitize(partial)


def run_plan(
    state: DensityMatrix, plan: MeasurementPlan, rng: RngStream
) -> list[MeasurementRecord]:
    """Simulate the full plan: draw settings, Born probabilities, counts.

    ``rng`` identifies the trial; setting m consumes the substream
    (trial, m), so records for a smaller plan are an exact prefix of
    records for a larger plan at the same seed and trial.
    """
    if plan.ensemble.dim != state.dim:
        raise ValueError(
            f"dim-mismatch: ensemble dim {plan.ensemble.dim} != state dim {state.dim}"
        )
    trial = rng.stream_id[0]
    records = []
    for m in range(plan.settings):
        stream = RngStream(rng.seed, (trial, m))
        povm = RankOnePovm(sample_unitary(plan.ensemble, stream))
        probabilities = born_probabilities(povm, state)
        counts = sample_counts(probabilities, plan.shots, stream.generator)
        records.append(MeasurementRecord(povm, counts, plan.shots))
    return records


def expand_to_single_shot(record: MeasurementRecord) -> list[MeasurementRecord]:
    """Rewrite an L-shot record as L one-hot records with the same POVM."""
    expanded = []
    for k, count in enumerate(record.counts):
        if count == 0:
            continue
        one_hot = np.zeros(record.povm.outcomes, dtype=np.int64)
        one_hot[k] = 1
        expanded.extend(
            MeasurementRecord(record.povm, one_hot, 1) for _ in range(int(count))
        )
    return expanded


def dump_records(records: Sequence[MeasurementRecord], path, seed: int = 0) -> None:
    """Serialize records to a line-oriented text file.

    Header line: ``D M L seed``. Then per record: D unitary rows as
    "re im" pairs (17 significant digits, round-trip exact), followed by
    one line of K integer counts.
    """
    if len(records) == 0:
        raise ValueError("cannot dump an empty record list")
    dim = records[0].dim
    shots = records[0].shots
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{dim} {len(records)} {shots} {seed}\n")
        for record in records:
            if record.dim != dim or record.shots != shots:
                raise ValueError("records must share one dimension and shot count")
            handle.write(unitary_lines(record.povm.unitary))
            handle.write(" ".join(str(int(count)) for count in record.counts) + "\n")


def load_records(path) -> tuple[list[MeasurementRecord], int]:
    """Read records written by :func:`dump_records`; returns (records, seed)."""
    reader = BlockReader(path)
    dim, count, shots, seed = reader.header(4, positive=3)
    records = []
    for _ in range(count):
        povm = RankOnePovm(reader.unitary(dim))
        counts = reader.values(int, dim)
        try:
            records.append(MeasurementRecord(povm, counts, shots))
        except ValueError as error:
            raise ValueError(f"malformed file: {path}, line {reader.cursor}: {error}") from None
    return records, seed
