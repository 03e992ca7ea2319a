"""Benchmark of shadowbench scenario runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rls-vs-cs-d32 --seed 1 --seconds 40 --trace 0

The process imports shadowbench from the checkout's ``src/``, runs the
workload once at its reference seed as an untimed warm-up (checked
against ``perfbench/reference/<workload>.csv``), then repeats the
scenario at ``--seed`` until ``--seconds`` have passed. Each repetition
is ``run_scenario`` plus ``emit_csv`` through the public API. With
``--trace 1`` untraced and traced repetitions alternate and the per-layer
split is reported instead of the end-to-end metrics. The last line of
standard output is the result as one JSON object; the run manifest and
the spans of the last traced repetition go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import parse_csv, reference_problems, structural_problems
from workloads import WORKLOADS, expected_keys

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

# Host speed drifts in phases a few seconds long, so set-up samples are
# spread through the run: a few at each edge of the timed window and one
# more per SETUP_INTERVAL_S seconds of repetitions.
SETUP_EDGE_SAMPLES = 5
SETUP_INTERVAL_S = 3.0
BLAS_THREADS_MAX = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="scenario seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of timed repetitions (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def measure_setup(env, count: int) -> list[float]:
    """Seconds each of ``count`` fresh interpreters spends importing shadowbench."""
    code = "import time; t = time.perf_counter(); import shadowbench; print(time.perf_counter() - t)"
    samples = []
    for _ in range(count):
        output = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                capture_output=True, text=True, timeout=120).stdout
        samples.append(float(output))
    return samples


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip()


def blas_library(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def tail_percentile(values: list[float]) -> dict | None:
    """The highest of p50..p99 with at least ten samples beyond it."""
    for percent in (99, 95, 90, 75, 50):
        if len(values) * (100 - percent) >= 1000:
            cut = statistics.quantiles(values, n=100, method="inclusive")[percent - 1]
            return {"percentile": percent, "value": cut}
    return None


def timing_summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "samples": len(values),
            "tail": tail_percentile(values), "values": values}


class Runner:
    """Runs one workload's scenario repeatedly and checks every output."""

    def __init__(self, shadowbench, workload, seed: int):
        self.sb = shadowbench
        self.workload = workload
        self.scenario = shadowbench.Scenario(**workload.config, seed=seed)
        self.expected = expected_keys(workload.config)
        self.csv_path = OUT_DIR / f"{workload.name}-{os.getpid()}.csv"
        self.attempted = 0
        self.failed = 0
        self.first_csv: str | None = None

    def run(self, scenario=None) -> tuple[float, float, str | None]:
        """One timed repetition: (wall seconds, CPU seconds, CSV text or None)."""
        scenario = scenario or self.scenario
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            rows = self.sb.run_scenario(scenario, workers=self.workload.workers)
            self.sb.emit_csv(rows, self.csv_path)
        except Exception as error:  # a failing run is counted, not fatal
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            self.fail(f"run raised {type(error).__name__}: {error}")
            return wall, cpu, None
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        text = self.csv_path.read_text(encoding="utf-8")
        try:
            problems = structural_problems(parse_csv(text), self.expected)
        except ValueError as error:
            problems = [str(error)]
        if scenario is self.scenario:
            if self.first_csv is None:
                self.first_csv = text
            elif text != self.first_csv:
                problems.append("CSV differs from the first repetition at the same seed")
        if problems:
            self.fail("; ".join(problems))
            return wall, cpu, None
        return wall, cpu, text

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: {self.workload.name}: {message}", file=sys.stderr)

    def warm_up(self) -> dict:
        """Untimed run at the reference seed, compared with the reference CSV."""
        reference_seed = self.workload.reference_seed
        scenario = self.sb.Scenario(**self.workload.config, seed=reference_seed)
        _, _, text = self.run(scenario)
        reference = (REFERENCE_DIR / f"{self.workload.name}.csv").read_text(encoding="utf-8")
        status = {"seed": reference_seed, "passed": False, "byte_identical": False}
        if text is None:
            return status
        problems = reference_problems(parse_csv(text), parse_csv(reference))
        if problems:
            self.fail("; ".join(problems))
            return status
        status.update(passed=True, byte_identical=text == reference)
        return status


def end_to_end(runner: Runner, seconds: float, env) -> tuple[dict, dict]:
    """Repetitions until their summed wall time reaches ``seconds``, with
    set-up samples taken between them (outside the repetitions' time)."""
    walls, cpus = [], []
    setup = measure_setup(env, SETUP_EDGE_SAMPLES)
    while sum(walls) < seconds:
        wall, cpu, _ = runner.run()
        walls.append(wall)
        cpus.append(cpu)
        due = SETUP_EDGE_SAMPLES + int(sum(walls) / SETUP_INTERVAL_S) - len(setup)
        setup += measure_setup(env, due)
    setup += measure_setup(env, SETUP_EDGE_SAMPLES)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": peak_mib,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        "setup_s": statistics.median(setup),
    }
    details = {"run_s": timing_summary(walls), "cpu_s": timing_summary(cpus),
               "setup_s": timing_summary(setup)}
    return metrics, details


def traced(runner: Runner, seconds: float) -> tuple[dict, dict, list]:
    from tracing import COUNTER_UNITS, LAYER_NAMES, Tracer, self_times

    tracer = Tracer()
    untraced_walls, traced_walls, self_sums = [], [], []
    per_layer = {name: [] for name in LAYER_NAMES}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        wall, _, plain_csv = runner.run()
        untraced_walls.append(wall)
        tracer.reset()
        with tracer:
            wall, _, traced_csv = runner.run()
        traced_walls.append(wall)
        if plain_csv is not None and traced_csv is not None and plain_csv != traced_csv:
            runner.fail("traced CSV differs from the untraced CSV")
        totals = self_times(tracer.spans)
        self_sums.append(sum(total for _, total in totals.values()))
        for name in LAYER_NAMES:
            per_layer[name].append(totals.get(name, (0, 0.0))[1])
        run_calls = {name: totals.get(name, (0, 0.0))[0] for name in LAYER_NAMES}
        run_counters = {name: tracer.counters[name] for name in COUNTER_UNITS}
        if calls and (run_calls != calls or run_counters != counters):
            runner.fail("call counts or counters changed between traced repetitions")
        calls, counters = run_calls, run_counters

    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(per_layer[name]), "s")
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = (counters[name], unit)
    untraced_s = statistics.median(untraced_walls)
    traced_s = statistics.median(traced_walls)
    metrics["traced.run_s"] = (traced_s, "s")
    metrics["traced.untraced_run_s"] = (untraced_s, "s")
    metrics["traced.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["traced.self_sum_s"] = (statistics.median(self_sums), "s")
    details = {"traced.run_s": timing_summary(traced_walls),
               "traced.untraced_run_s": timing_summary(untraced_walls)}
    return metrics, details, tracer.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shadowbench" / "__init__.py").is_file():
        print(f"perfbench: no shadowbench sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = min(BLAS_THREADS_MAX, nproc)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: str(blas_threads) for name in BLAS_ENV})
    os.environ.update({name: str(blas_threads) for name in BLAS_ENV})

    sys.path.insert(0, str(SRC))
    import numpy
    import shadowbench

    if not Path(shadowbench.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported shadowbench from {shadowbench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seed = workload.reference_seed if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(shadowbench, workload, seed)
    spans = None
    try:
        reference = runner.warm_up()
        if args.trace:
            metrics, details, spans = traced(runner, args.seconds)
        else:
            values, details = end_to_end(runner, args.seconds, env)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    finally:
        runner.csv_path.unlink(missing_ok=True)

    manifest = {
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "scenario": runner.scenario.to_dict(),
        "workers": workload.workers,
        "trace": args.trace,
        "seconds": args.seconds,
        "reference_check": reference,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_library(numpy),
        "blas_threads": blas_threads,
        "nproc": nproc,
        "timings": details,
    }
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end"),
                                                 span))) + "\n")
    print(json.dumps({"manifest": manifest}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
