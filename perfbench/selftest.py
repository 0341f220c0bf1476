"""Quick self-test of the benchmark harness and its output checks.

    python3 perfbench/selftest.py

from the root of a checkout.  It takes well under a minute:

1. The output checks accept the committed seed-0 reference and reject
   corrupted copies of it, while accepting the changes a correct program may
   make (a resolved H2 error in the dead zone, the lambda_max drift at
   r = 100).
2. Every workload runs untraced and traced at d = 1 (m = 120) through the
   same harness code, passes its checks and reports exactly the metrics
   that BENCHMARK.json lists.
3. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits with a non-zero code and prints nothing on standard output.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import checks
import run
from workloads import WORKLOADS, experiment_config

BENCH_DIR = Path(__file__).resolve().parent

SCRATCH = BENCH_DIR / ".work" / "selftest"


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        raise SystemExit(1)


def edit_csv(src: Path, dst_dir: Path, edit) -> Path:
    """Copy a reference CSV into dst_dir after applying edit(rows) to its rows."""
    with open(src, "r", encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    dst_dir.mkdir(parents=True, exist_ok=True)
    with open(dst_dir / src.name, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return dst_dir


def row(rows, r: int) -> dict:
    return next(x for x in rows if x["r"] == str(r))


def set_h2(rows, r: int, rel: float) -> None:
    """Set h2_rel of row r, keeping h2_abs / h2_rel at the table's H2 norm."""
    norm = next(float(x["h2_abs"]) / float(x["h2_rel"]) for x in rows if x["h2_rel"] not in ("", "0"))
    row(rows, r)["h2_rel"] = repr(rel)
    row(rows, r)["h2_abs"] = repr(rel * norm)


def scale(rows, r: int, col: str, factor: float) -> None:
    row(rows, r)[col] = repr(float(row(rows, r)[col]) * factor)


def check_logic() -> None:
    cases = {
        "reduce-bt-d2": [
            ("reference itself", lambda rows: None, True),
            ("resolved dead-zone error 1.2e-5 at r = 80", lambda rows: set_h2(rows, 80, 1.2e-5), True),
            ("lambda_max(100) moved by 0.6 %", lambda rows: scale(rows, 100, "lambda_max", 1.006), True),
            ("garbage 1e-3 in the dead zone at r = 80", lambda rows: set_h2(rows, 80, 1e-3), False),
            ("negative h2_rel at r = 90", lambda rows: set_h2(rows, 90, -1e-7), False),
            ("resolved h2_rel at r = 30 off by 1e-3", lambda rows: set_h2(rows, 30, float(row(rows, 30)["h2_rel"]) * 1.001),
             False),
            ("lambda_max(10) moved by 1 %", lambda rows: scale(rows, 10, "lambda_max", 1.01), False),
            ("sigma_r increasing at r = 40", lambda rows: scale(rows, 40, "sigma_r", 1.5), False),
            ("unstable balanced row", lambda rows: row(rows, 7).update(stable="false"), False),
            ("missing row", lambda rows: rows.pop(), False),
        ],
        "reduce-arnoldi-d2": [
            ("reference itself", lambda rows: None, True),
            ("stable flag flipped at r = 1", lambda rows: row(rows, 1).update(
                stable="false", h2_abs="", h2_rel=""), False),
            ("lambda_max(50) moved by 1e-4", lambda rows: scale(rows, 50, "lambda_max", 1.0001), False),
        ],
        "verify-d2": [
            ("reference itself", lambda rows: None, True),
            ("bound does not hold at r = 30", lambda rows: row(rows, 30).update(holds="false"), False),
            ("full-order model not passive", lambda rows: rows[-1].update(passive="false"), False),
            ("certificate residual 1e-3", lambda rows: row(rows, 10).update(cert_residual="0.001"), False),
            ("sup_error off by 1e-4", lambda rows: scale(rows, 50, "sup_error", 1.0001), False),
        ],
    }
    files = {"reduce-bt-d2": "reduce_bt.csv", "reduce-arnoldi-d2": "reduce_arnoldi.csv", "verify-d2": "verify.csv"}
    for name, items in cases.items():
        workload = WORKLOADS[name]
        config = experiment_config(workload, 0)
        for i, (what, edit, passes) in enumerate(items):
            out = edit_csv(checks.REFERENCE_DIR / files[name], SCRATCH / f"{name}-{i}", edit)
            fails = checks.check_outputs(workload.command, config, out, reference=True)
            expect(not fails if passes else bool(fails), f"{name}: {what} {'passes' if passes else 'fails'}"
                   + (f" ({fails[0]})" if fails and not passes else ""))


def small(name: str):
    """The workload at d = 1 (m = 120) with r ranges inside its numerical rank 33."""
    w = WORKLOADS[name]
    experiment = dict(w.experiment, degree=1)
    if "r" in experiment:
        experiment["r"] = {"min": 1, "max": 30}
    if "simulation" in experiment:
        experiment["simulation"] = dict(experiment["simulation"], r_values=[5, 10, 20])
    return replace(w, experiment=experiment)


def check_harness(root: Path) -> None:
    with open(root / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "BENCHMARK.json lists known workloads")
    for name in WORKLOADS:
        workload = small(name)
        for trace in (0, 1):
            result, report = run.benchmark(root, workload, seed=3, seconds=0.5, traced_run=bool(trace))
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} at d = 1, trace {trace}: correct, {result['attempted']} attempted"
                   + "".join(f"\n     {line}" for line in report if line.startswith("FAILED")))
            got = set(result["metrics"])
            expect(got == names[trace], f"{name} at d = 1, trace {trace}: metrics match BENCHMARK.json"
                   + (f" (extra {sorted(got - names[trace])}, missing {sorted(names[trace] - got)})"
                      if got != names[trace] else ""))
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if workload.command == "reduce" and workload.experiment["reducer"] == "balanced-truncation":
                    expect(m["bt_quadratic.h2_error.calls"] == 30 and m["lyapsylv.solve_sylvester.calls"] == 60,
                           "balanced sweep: 30 h2_error and 60 solve_sylvester calls")
                if workload.command == "verify":
                    sim = workload.experiment["simulation"]
                    steps = round(sim["T"] / sim["h"])
                    expect(m["simulate.integrate.steps"] == 4 * steps and m["simulate.integrate.fom_s"] > 0,
                           f"verify: one FOM and three ROM integrations of {steps} steps")


def check_bare_directory(root: Path) -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "reduce-arnoldi-d2", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and proc.stdout == "", f"bare directory: exit code {proc.returncode}, no result")


def main() -> int:
    root = Path.cwd()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_logic()
        check_harness(root)
        check_bare_directory(root)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
