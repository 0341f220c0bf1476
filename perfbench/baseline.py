"""Measure the checkout with the benchmark and write perfbench/baseline.json.

    python3 perfbench/baseline.py

from the root of a checkout.  For every workload of BENCHMARK.json it makes
one untraced run per seed 0..SEEDS-1 of run_seconds each, all through
run.py, and records per end-to-end metric the median and quartiles over the
seeds and the spread (q3 - q1) / median.  For every workload of workloads.py,
listed or not, it makes two traced runs at seed 0 and records whether their
exact counts agree.  Last come the stage times next to the ROADMAP figures.
One pass takes about 30 minutes on 2 cores.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import layer_units, load_spec, machine_record
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SEEDS = 10

# stage figures of ROADMAP (d = 2, 2 cores): metric, workload, low, high.
# The FOM integration there is 10,000 steps (T = 100); it is scaled to the
# workload's horizon.
ROADMAP_STAGES = (
    ("bt_quadratic.balance.s", "reduce-bt-d2", 5.5, 7.2),
    ("sweep_s", "reduce-bt-d2", 12.5, 15.7),
    ("simulate.integrate.fom_s", "verify-d2", 19.5, 19.5),
)
ROADMAP_FOM_T = 100.0


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["report"] = [line for line in proc.stdout.splitlines() if line.startswith("# FAILED")]
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def exact(metrics: dict, units: dict) -> dict:
    """The counts and count ratios that must repeat exactly between traced runs."""
    return {k: v["value"] for k, v in metrics.items()
            if units[k] in ("count", "flop") or (units[k] == "ratio" and not k.startswith("speedup."))}


def main() -> int:
    spec = load_spec()
    seconds, units = spec["run_seconds"], layer_units()
    listed = [w["name"] for w in spec["workloads"]]
    record = {"machine": machine_record(), "seeds": list(range(SEEDS)), "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = [bench(name, seed, seconds, 0) for seed in range(SEEDS)] if name in listed else []
        traced = [bench(name, 0, seconds, 1) for _ in range(2)]
        first, second = exact(traced[0]["metrics"], units), exact(traced[1]["metrics"], units)
        entry = record["workloads"][name] = {
            "listed": name in listed,
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "failures": [line for r in runs + traced for line in r["report"]],
            "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "exact_counts_repeat": first == second,
            "exact_counts_differ": sorted(k for k in first if first[k] != second.get(k)),
        }
        if runs:
            entry["end_to_end"] = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]}
            print(name, json.dumps({m: round(v["spread"], 4) for m, v in entry["end_to_end"].items()}), flush=True)

    checks = []
    for metric, workload, low, high in ROADMAP_STAGES:
        layers = record["workloads"][workload]["per_layer"]
        if metric == "sweep_s":
            value = sum(layers[f"{k}.s"] for k in ("bt_quadratic.truncate", "bt_quadratic.h2_error",
                                                   "passivity.check_passivity"))
        else:
            value = layers[metric]
        if metric == "simulate.integrate.fom_s":
            scale = WORKLOADS[workload].experiment["simulation"]["T"] / ROADMAP_FOM_T
            low, high = low * scale, high * scale
        checks.append({"stage": metric, "workload": workload, "measured_s": value,
                       "roadmap_s": [low, high], "ratio_to_roadmap": value / ((low + high) / 2)})
    record["roadmap_cross_check"] = checks
    with open(BENCH_DIR / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
