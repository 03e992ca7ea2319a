"""Record each workload's reference CSV at its reference seed.

Run from the root of a checkout, only at a commit whose output is
trusted (the references were recorded at the commit that added the
benchmark):

    python3 perfbench/make_reference.py
"""

import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import shadowbench

    reference_dir = BENCH_DIR / "reference"
    reference_dir.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        scenario = shadowbench.Scenario(**workload.config, seed=workload.reference_seed)
        rows = shadowbench.run_scenario(scenario, workers=workload.workers)
        shadowbench.emit_csv(rows, reference_dir / f"{workload.name}.csv")
        print(f"{workload.name}: {len(rows)} rows")


if __name__ == "__main__":
    main()
