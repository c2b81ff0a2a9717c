"""chebgcn benchmark: run one workload for a fixed time, check it, print metrics.

    python3 perfbench/run.py --workload cv-deep --seed 0 --seconds 52 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this directory
and is not installed. Each pass runs the workload's CLI commands (see
workloads.py) one at a time, each in a fresh ``python3 -m chebgcn.cli``
process with BLAS pinned to BLAS_THREADS threads. Passes repeat until the
next one would end after ``--seconds``; at least MIN_PASSES run.

The host's speed drifts by up to half over minutes, so every CLI command and
every set-up sample is preceded by a run of calibrate.py, a fixed reference
workload. The end-to-end times are each command's wall time divided by the
calibration's and multiplied by CALIBRATION_S: seconds on a host where the
calibration takes CALIBRATION_S. The raw times are printed as well.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` alternates an untraced pass, a pass with spans (tracer.py) and
a pass with tracemalloc peaks, and reports the per-layer metrics.

Every CLI command is one operation. It fails when its exit code is not 0, a
fold diverged, its deterministic result files differ from the run's first
pass, or, at the default seed, a model's per-fold accuracies differ from
reference.json. The last line of stdout is the JSON result; without a
usable ``src/chebgcn`` the benchmark exits 2 and prints none.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACER = HERE / "tracer.py"
CALIBRATE = HERE / "calibrate.py"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
BLAS_THREADS = 1
SETUP_SAMPLES = 5
# Median wall time of one calibrate.py process on the 2-vCPU VM where the
# benchmark was defined (Xeon, Python 3.11, NumPy 2.4.6, SciPy 1.17.1).
CALIBRATION_S = 0.83
MIN_PASSES = 2
DETERMINISTIC = ("boxplot.csv", "compare.csv", "cv.csv", "summary.json", "features.csv", "edges.txt")


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHEBGCN_")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def spawn(argv, cwd: Path, env: dict, log: Path):
    """Run argv to completion; returns (wall seconds, peak RSS in KiB, exit code)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def calibrate(work: Path, env: dict) -> float:
    """Wall seconds of one calibrate.py process."""
    wall, _, code = spawn([sys.executable, str(CALIBRATE)], work, env, work / "calibrate.log")
    if code != 0:
        raise BenchError("calibrate.py failed:\n" + (work / "calibrate.log").read_text())
    return wall


def measure_setup(work: Path, env: dict) -> list:
    """(wall, calibration) seconds from a fresh interpreter to ``import chebgcn`` done."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cal = calibrate(work, env)
        wall, _, code = spawn([sys.executable, "-c", "import chebgcn"], work, env, work / "setup.log")
        if code != 0:
            raise BenchError("cannot import chebgcn:\n" + (work / "setup.log").read_text())
        samples.append((wall, cal))
    return samples


def normalized(wall: float, cal: float) -> float:
    return wall / cal * CALIBRATION_S


def summary_results(summary: dict) -> dict:
    """Model name -> ExperimentResult dict, from any command's summary.json."""
    if "result" in summary:
        return {"model": summary["result"]}
    if "models" in summary:
        return summary["models"]
    return summary["cells"]


def digest(directory: Path) -> dict:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in DETERMINISTIC
        if (directory / name).is_file()
    }


@dataclass
class Pass:
    mode: str  # "plain", "spans" or "memory"
    walls: list = field(default_factory=list)  # per step
    calibrations: list = field(default_factory=list)  # per step: calibrate.py run before it
    kinds: list = field(default_factory=list)  # per step: Step.kind
    rss_kib: int = 0
    epochs: int = 0
    traces: list = field(default_factory=list)  # tracer.py records, per step

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def norm(self, kind=None) -> float:
        """Normalized seconds of the pass's steps of this kind (default: all)."""
        return sum(normalized(wall, cal)
                   for wall, cal, k in zip(self.walls, self.calibrations, self.kinds)
                   if kind in (None, k))


class Runner:
    """Runs passes of one workload and checks every command they run."""

    def __init__(self, steps, work: Path, env: dict, reference):
        self.steps = steps
        self.work = work
        self.env = env
        self.reference = reference
        self.expected = [None] * len(steps)
        self.attempted = 0
        self.failed = 0

    def run_pass(self, mode: str) -> Pass:
        result = Pass(mode)
        for step in self.steps:
            shutil.rmtree(self.work / step.out, ignore_errors=True)
        for op, step in enumerate(self.steps):
            trace_file = self.work / f"trace-{op}.json"
            if mode == "plain":
                argv = [sys.executable, "-m", "chebgcn.cli", *step.args]
            else:
                argv = [sys.executable, str(TRACER), mode, trace_file.name, str(op), *step.args]
            log = self.work / f"step-{op}.log"
            result.calibrations.append(calibrate(self.work, self.env))
            wall, rss, code = spawn(argv, self.work, self.env, log)
            result.walls.append(wall)
            result.kinds.append(step.kind)
            result.rss_kib = max(result.rss_kib, rss)
            problems = [] if code == 0 else [f"exit code {code}: {log.read_text()[-2000:]}"]
            if code == 0:
                problems += self.check_outputs(op, step, result)
                if mode != "plain":
                    result.traces.append(json.loads(trace_file.read_text()))
            self.attempted += 1
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"FAILED {mode} pass, {' '.join(step.args[:1])}: {problem}", file=sys.stderr)
        return result

    def check_outputs(self, op: int, step, result: Pass) -> list:
        out = self.work / step.out
        problems = []
        hashes = digest(out)
        if not hashes:
            problems.append(f"no result files in {step.out}/")
        if self.expected[op] is None:
            self.expected[op] = hashes
        elif hashes != self.expected[op]:
            changed = sorted(k for k in set(hashes) | set(self.expected[op])
                             if hashes.get(k) != self.expected[op].get(k))
            problems.append(f"results differ from the first pass: {changed}")
        if step.kind != "train":
            return problems
        if "summary.json" not in hashes:
            return problems + ["no summary.json"]
        models = summary_results(json.loads((out / "summary.json").read_text()))
        for name, res in models.items():
            result.epochs += sum(res["epochs"])
            if res["failed_folds"]:
                problems.append(f"{name}: folds {res['failed_folds']} diverged")
            if self.reference is not None and res["accuracies"] != self.reference.get(name):
                problems.append(f"{name}: accuracies {res['accuracies']} differ from the reference")
        return problems

    def run_for(self, seconds: float, modes) -> list:
        """Repeat the cycle of pass modes until the next cycle would end late."""
        passes = []
        cycles = []
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            passes += [self.run_pass(mode) for mode in modes]
            cycles.append(time.perf_counter() - start)
            enough = len(cycles) * len(modes) >= MIN_PASSES
            if enough and time.perf_counter() + statistics.median(cycles) > deadline:
                return passes


def self_times(records) -> tuple:
    """Per span name: [self seconds, calls, count]; and the pass's total self time.

    A span's self time is its duration minus the durations of its direct
    children (spans nest, one thread per process).
    """
    totals = {}
    spent = 0.0
    for record in records:
        spans = record["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _count in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, _op, count) in enumerate(spans):
            own = (end - start) - child[i]
            entry = totals.setdefault(name, [0.0, 0, 0])
            entry[0] += own
            entry[1] += 1
            entry[2] += count
            spent += own
    return totals, spent


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup, passes) -> dict:
    return {
        "setup_s": metric(statistics.median(normalized(w, c) for w, c in setup), "s"),
        "wall_s": metric(statistics.median(p.norm() for p in passes), "s"),
        "fold_epochs_per_s": metric(statistics.median(p.epochs / p.norm("train") for p in passes), "1/s"),
        "graph_build_s": metric(statistics.median(p.norm("graph") for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p.rss_kib for p in passes) / 1024.0, "MB"),
    }


def per_layer(passes, runner: Runner) -> dict:
    plain = [p for p in passes if p.mode == "plain"]
    traced = [p for p in passes if p.mode == "spans"]
    per_pass = []
    for p in traced:
        totals, spent = self_times(p.traces)
        if spent > p.wall:
            runner.failed += 1
            print(f"FAILED: self times sum to {spent:.3f} s, more than the pass's {p.wall:.3f} s",
                  file=sys.stderr)
        per_pass.append(totals)

    def med(name, column):
        return statistics.median(t.get(name, [0.0, 0, 0])[column] for t in per_pass)

    def med_sum(names):
        return statistics.median(sum(t.get(n, [0.0, 0, 0])[2] for n in names) for t in per_pass)

    metrics = {}
    for name in dict.fromkeys(n for n, _, _ in tracer.TRACED):
        metrics[f"{name}.s"] = metric(med(name, 0), "s")
        metrics[f"{name}.calls"] = metric(med(name, 1), "count")
    metrics["graph.chebyshev_apply.terms"] = metric(med("graph.chebyshev_apply", 2), "count")
    metrics["io.bytes_written"] = metric(med_sum(("io.write_edge_list", "io.write_features_csv")), "B")
    metrics["io.bytes_read"] = metric(
        med_sum(("io.read_features_csv", "io.read_meta_csv", "io.read_edge_list")), "B")
    for name in tracer.MEMORY:
        peak = max((r["peaks"].get(name, 0) for p in passes if p.mode == "memory" for r in p.traces),
                   default=0)
        metrics[f"{name}.peak_mb"] = metric(peak / 2**20, "MB")
    overhead = statistics.median(p.norm() for p in traced) - statistics.median(p.norm() for p in plain)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return metrics


def report(workload, seed, setup, passes, runner, metrics) -> None:
    for mode in ("plain", "spans", "memory"):
        chosen = [p for p in passes if p.mode == mode]
        if chosen:
            print(f"{workload} seed {seed}: {mode} passes {len(chosen)}, raw wall_s "
                  + " ".join(f"{p.wall:.3f}" for p in chosen) + ", calibration_s "
                  + " ".join(f"{sum(p.calibrations):.3f}" for p in chosen))
    print(f"{workload} seed {seed}: setup_s samples {len(setup)}, raw "
          + " ".join(f"{w:.3f}" for w, _ in setup) + ", calibration_s "
          + " ".join(f"{c:.3f}" for _, c in setup))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':40s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} failed / {runner.attempted} attempted)")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "chebgcn" / "__init__.py").is_file():
        raise BenchError(f"no chebgcn package under {SRC}")
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[workload_name]
    work = WORK_ROOT / f"{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = child_env()
        print("env " + json.dumps(environment_record(), sort_keys=True))
        setup = measure_setup(work, env)
        runner = Runner(workloads.WORKLOADS[workload_name](work, seed), work, env, reference)
        modes = ("plain", "spans", "memory") if trace else ("plain",)
        passes = runner.run_for(seconds, modes)
        if trace:
            metrics = per_layer(passes, runner)
        else:
            metrics = end_to_end(setup, passes)
        report(workload_name, seed, setup, passes, runner, metrics)
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=52.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
