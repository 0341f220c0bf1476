"""Benchmark of the ``sgmor`` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload one after the other and ends
with one JSON line whose metric names carry the workload as a prefix.

Run from the root of a source checkout: the program under test is
``src/sgmor``, put first on PYTHONPATH of every child process.  Without it
the benchmark exits with code 2 and prints no result.

Untraced (``--trace 0``): a closed loop with one client.  Each command is
one subcommand in a fresh interpreter with a fresh output directory, the way
a user runs ``sgmor``; the next command starts when the previous one has
exited and its outputs have been checked (see checks.py).  At least
MIN_COMMANDS commands run; more start while the elapsed time plus the median
command time stays within S seconds.  Before the loop, the set-up prefix
(setup_probe.py) runs SETUP_REPEATS times in fresh interpreters.  Reported:
wall_s (median process wall time), setup_s (median set-up time) and
peak_rss_mb (median peak resident memory, 10^6 bytes), with quartiles,
sample counts and fail_ratio on the lines before the JSON result.

Traced (``--trace 1``): the untraced loop runs first; the median of its
commands is the reference for trace.overhead_s.  Then one traced pass
(tracing.py, in-process ``sgmor.cli.main``) with BLAS_THREADS threads and
one with a single BLAS thread.  Reported: the per-layer metrics of the first
pass, the single-thread time of the main layers and their speed-up from the
extra threads.  The spans of the first pass are kept in
perfbench/.work/spans-<workload>-seed<n>.json.

Every child gets BLAS_THREADS BLAS/OpenMP threads (at most nproc).  The last
line of standard output is the JSON result; the lines before it are a
human-readable report starting with '#'.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, Workload, write_config

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
SETUP_REPEATS = 9
MIN_COMMANDS = 3
# every run must end within 180 s; commands are killed at this budget
RUN_BUDGET_S = 170.0
CLI_SNIPPET = "import sys; from sgmor.cli import main; sys.exit(main())"

# layers whose single-thread time and speed-up from BLAS_THREADS are reported
SPEEDUP_LAYERS = (
    "galerkin.assemble", "galerkin.to_first_order", "lyapsylv.real_schur", "lyapsylv.solve_lyapunov",
    "lyapsylv.solve_sylvester", "lyapsylv.symmetric_factor", "bt_quadratic.balance",
    "bt_quadratic.h2_error", "arnoldi.arnoldi_basis", "passivity.check_passivity",
    "simulate.integrate", "cli.main",
)


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, as BENCHMARK.json lists it."""
    return {m["name"]: m["unit"] for m in load_spec()["per_layer"]}


class Run:
    """One benchmark run: work directory, child environment and the tally."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = BENCH_DIR / ".work" / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work / "config.json"
        write_config(workload, seed, self.config_path)
        with open(self.config_path, "r", encoding="ascii") as fh:
            self.config = json.load(fh)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.reference = seed == 0 and WORKLOADS.get(workload.name) == workload
        self.attempted = 0
        self.failures: list[str] = []
        self.children = 0

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        return env

    def timed_process(self, argv: list[str], threads: int = BLAS_THREADS) -> tuple[float, float, int, str]:
        """(wall seconds, peak RSS in 10^6 bytes, exit code, stderr tail) of one child."""
        self.children += 1
        err_path = self.work / f"stderr-{self.children}.txt"
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env(threads),
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, tail

    def cli_argv(self, out: Path) -> list[str]:
        return [sys.executable, "-c", CLI_SNIPPET, self.workload.command,
                "--config", str(self.config_path), "--out", str(out)]

    def record(self, what: str, rc: int, tail: str, out: Path | None) -> None:
        """Count one attempted process and its failure, if any."""
        self.attempted += 1
        problems = [f"exit code {rc}: {tail}"] if rc != 0 else []
        if rc == 0 and out is not None:
            problems = checks.check_outputs(self.workload.command, self.config, out, reference=self.reference)
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems[:5]))

    def setup_times(self) -> list[float]:
        probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(self.config_path)]
        times = []
        for i in range(SETUP_REPEATS):
            wall, _, rc, tail = self.timed_process(probe)
            self.record(f"setup probe {i + 1}", rc, tail, None)
            times.append(wall)
        return times

    def command_loop(self, seconds: float) -> tuple[list[float], list[float]]:
        """Closed loop of fresh-process commands; (wall times, peak RSS values)."""
        walls, rss = [], []
        start = time.perf_counter()
        while True:
            out = self.work / f"out-{len(walls) + 1}"
            wall, peak, rc, tail = self.timed_process(self.cli_argv(out))
            self.record(f"command {len(walls) + 1}", rc, tail, out)
            shutil.rmtree(out, ignore_errors=True)
            walls.append(wall)
            rss.append(peak)
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_COMMANDS and elapsed + statistics.median(walls) > seconds:
                return walls, rss
            if time.perf_counter() + 2 * max(walls) > self.deadline:
                return walls, rss

    def traced_pass(self, threads: int) -> tuple[float, dict, Path]:
        out = self.work / f"traced-{threads}t"
        spans_path = self.work / f"spans-{threads}t.json"
        argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_path), self.workload.command,
                "--config", str(self.config_path), "--out", str(out)]
        wall, _, rc, tail = self.timed_process(argv, threads)
        self.record(f"traced pass, {threads} BLAS thread(s)", rc, tail, out)
        spans = []
        if spans_path.exists():
            with open(spans_path, "r", encoding="ascii") as fh:
                spans = json.load(fh)["spans"]
        return wall, tracing.layer_metrics(spans), out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
    }


def untraced(run: Run, seconds: float, report: list[str]) -> dict:
    setup = run.setup_times()
    walls, rss = run.command_loop(seconds)
    metrics = {}
    for name, unit, values in (("wall_s", "s", walls), ("setup_s", "s", setup), ("peak_rss_mb", "MB", rss)):
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        report.append(f"{name:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    return metrics


def traced(run: Run, seconds: float, report: list[str]) -> dict:
    walls, _ = run.command_loop(seconds)
    untraced_wall = statistics.median(walls)
    wall, layers, out = run.traced_pass(BLAS_THREADS)
    wall_1t, layers_1t, _ = run.traced_pass(1)
    values = dict(layers)
    sweep = out / "reduce_arnoldi.csv"
    table = checks.read_csv(sweep)[1] if sweep.exists() else []
    rows, stable = len(table), sum(row["stable"] == "true" for row in table)
    values["arnoldi.stable_rows"] = stable
    values["arnoldi.rows"] = rows
    values["arnoldi.stable_ratio"] = stable / rows if rows else 0.0
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = wall - untraced_wall
    values["trace.wall_1thread_s"] = wall_1t
    for layer in SPEEDUP_LAYERS:
        one, many = layers_1t[f"{layer}.s"], layers[f"{layer}.s"]
        values[f"{layer}.onethread_s"] = one
        values[f"speedup.{layer}"] = one / many if many > 0 else 0.0
    report.append(f"traced wall {wall:.4f} s, untraced median {untraced_wall:.4f} s (n={len(walls)}), "
                  f"single-thread traced wall {wall_1t:.4f} s")
    units = layer_units()
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run stops its current child before it exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "sgmor" / "cli.py").is_file():
        print(f"perfbench: no sgmor source tree at {root / 'src' / 'sgmor'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name], report = benchmark(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for line in report:
            print(f"# {line}")
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


def benchmark(root: Path, workload: Workload, seed: int, seconds: float, traced_run: bool) -> tuple[dict, list[str]]:
    """(JSON result, report lines) of one run; spans of a traced run stay in .work/."""
    run = Run(root, workload, seed)
    report = [f"workload {workload.name} seed {seed} seconds {seconds:g} trace {int(traced_run)}",
              f"command: sgmor {workload.command} --config CONFIG --out DIR "
              f"(fresh process per command, closed loop, 1 client)",
              "machine " + json.dumps(machine_record(), sort_keys=True)]
    try:
        if traced_run:
            metrics = traced(run, seconds, report)
            spans = run.work / f"spans-{BLAS_THREADS}t.json"
            if spans.exists():
                shutil.copy(spans, run.work.parent / f"spans-{workload.name}-seed{seed}.json")
        else:
            metrics = untraced(run, seconds, report)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    failed = len(run.failures)
    report.append(f"fail_ratio   {failed}/{run.attempted} = {failed / run.attempted:.4f} ratio")
    report += [f"FAILED {msg}" for msg in run.failures]
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    return result, report


if __name__ == "__main__":
    raise SystemExit(main())
