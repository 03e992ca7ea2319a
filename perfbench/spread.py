"""Run-to-run spread of the end-to-end metrics.

Runs every workload once per seed, interleaving the workloads so that
slow drift on a shared host hits all of them alike, then reports each
metric's median and its quartile spread (q3 - q1) / median next to the
bound in BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10 --first-seed 100

Results also go to perfbench/out/spread-<first seed>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description="quartile spread of the end-to-end metrics")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values = {workload: {} for workload in workloads}
    for index in range(args.runs):
        seed = args.first_seed + index
        for workload in workloads:
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            output = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                    check=True, timeout=600).stdout
            result = json.loads(output.strip().split("\n")[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{name}={metric['value']:.4g}"
                             for name, metric in result["metrics"].items()), flush=True)

    report = {}
    print(f"\n{'workload':15} {'metric':14} {'median':>10} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        report[workload] = {}
        for metric in config["end_to_end"]:
            series = values[workload][metric["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            report[workload][metric["name"]] = {"median": median, "spread": spread,
                                                "values": series}
            flag = "" if spread < metric["bound"] / 3 else "  above a third of the bound"
            print(f"{workload:15} {metric['name']:14} {median:10.4g} {spread:8.4f} "
                  f"{metric['bound']:6.3f}{flag}")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.first_seed}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
