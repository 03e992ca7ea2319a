"""Output checks behind the benchmark's failure count.

A run passes when its CSV holds exactly the rows its config implies,
every value is finite, and, at a workload's reference seed, every value
matches the recorded reference CSV within tolerance.
"""

from __future__ import annotations

import math

CSV_HEADER = "scenario,trial,M,L,mu,eta,method,metric,value"

# A reordered sum or a re-routed well-conditioned solve moves values by
# ~1e-13 relative; a wrong estimator (another mu, a lost 1/M) moves them
# by 1e-3 or more. Every workload row is well conditioned: CS, or RLS at
# mu = 0.1, and no LS row at the interpolation peak.
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-10


def parse_csv(text: str) -> dict[tuple, float]:
    """Map each row key (scenario, trial, M, L, mu, eta, method, metric)
    to its value; raises ValueError on a malformed or duplicated row."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows = {}
    for number, line in enumerate(lines[1:-1], start=2):
        fields = line.split(",")
        if len(fields) != 9:
            raise ValueError(f"line {number} has {len(fields)} fields, expected 9")
        scenario, trial, settings, shots, mu, eta, method, metric, value = fields
        key = (scenario, int(trial), int(settings), int(shots), float(mu), float(eta),
               method, metric)
        if key in rows:
            raise ValueError(f"line {number} repeats row {key}")
        rows[key] = float(value)
    return rows


def structural_problems(rows: dict[tuple, float], expected: set[tuple]) -> list[str]:
    problems = []
    missing = expected - rows.keys()
    extra = rows.keys() - expected
    if missing:
        problems.append(f"{len(missing)} expected rows missing, e.g. {min(missing)}")
    if extra:
        problems.append(f"{len(extra)} unexpected rows, e.g. {min(extra)}")
    bad = [key for key, value in rows.items() if not math.isfinite(value)]
    if bad:
        problems.append(f"{len(bad)} non-finite values, e.g. {min(bad)}")
    return problems


def reference_problems(rows: dict[tuple, float], reference: dict[tuple, float]) -> list[str]:
    if rows.keys() != reference.keys():
        return ["row keys differ from the reference CSV"]
    off = [
        key
        for key, value in rows.items()
        if not math.isclose(value, reference[key], rel_tol=REFERENCE_RTOL,
                            abs_tol=REFERENCE_ATOL)
    ]
    if not off:
        return []
    worst = max(off, key=lambda key: abs(rows[key] - reference[key]))
    return [
        f"{len(off)} values differ from the reference beyond rtol {REFERENCE_RTOL}, "
        f"worst {worst}: {rows[worst]!r} vs {reference[worst]!r}"
    ]
