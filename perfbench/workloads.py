"""Benchmark workloads and the seeded experiment configs they run.

Each workload is one ``sgmor`` subcommand on one experiment config.  The
config is generated from the seed and written to a JSON file; the CLI
receives only that file and an output directory.

Seed 0 is the README default model (4 masses, 6 springs, 4 dampers,
q = 14).  Any other seed multiplies every nominal mass, spring stiffness and
damper coefficient by its own factor drawn uniformly from
[1 - SEED_BAND, 1 + SEED_BAND] with ``random.Random(seed)``.  The band is
narrow so that every seed keeps the properties the workloads rely on: a
numerical rank above 100 for the r = 1..100 balanced-truncation sweep, a
stable reduced model at every r, and an a priori bound that holds.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass

SEED_BAND = 0.02

# README default model, spelled out so that the generated config is the only
# model input the CLI sees.
NOMINAL_MODEL = {
    "masses": [1.0, 1.5, 2.0, 2.5],
    "springs": [
        {"ends": [0, 1], "stiffness": 120.0},
        {"ends": [1, 2], "stiffness": 100.0},
        {"ends": [2, 3], "stiffness": 90.0},
        {"ends": [3, 4], "stiffness": 140.0},
        {"ends": [1, 3], "stiffness": 50.0},
        {"ends": [4, 0], "stiffness": 110.0},
    ],
    "dampers": [
        {"ends": [1, 2], "coefficient": 0.05},
        {"ends": [2, 3], "coefficient": 0.22},
        {"ends": [3, 4], "coefficient": 0.04},
        {"mass": 4, "coefficient": 0.55},
    ],
    "input_spring": 6,
    "delta": 0.1,
}


@dataclass(frozen=True)
class Workload:
    """One subcommand on one experiment config.

    ``command`` is the subcommand name; ``experiment`` holds the config keys
    besides ``model`` (degree, reducer, r range, simulation settings).
    """

    name: str
    command: str
    experiment: dict
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reduce-bt-d2",
            command="reduce",
            experiment={"degree": 2, "reducer": "balanced-truncation", "r": {"min": 1, "max": 100}},
            why="the paper's r = 1..100 balanced-truncation sweep at d = 2 (m = 960); "
            "Lyapunov, Sylvester and H2 work dominate, no time integration",
        ),
        Workload(
            name="verify-d2",
            command="verify",
            experiment={
                "degree": 2,
                "reducer": "balanced-truncation",
                "simulation": {"h": 0.01, "T": 20.0, "input": "default", "r_values": [10, 30, 50]},
            },
            why="a priori bound checks at r = 10, 30, 50: one balance, 3 H2 errors and a "
            "2,000-step dense FOM trapezoid run dominate; the only time integration",
        ),
        Workload(
            name="reduce-arnoldi-d2",
            command="reduce",
            experiment={"degree": 2, "reducer": "arnoldi", "omega": 1.0, "r": {"min": 1, "max": 100}},
            why="Arnoldi sweep: FOM Gramians without factors or SVD and H2 errors of "
            "non-balanced models; bypasses every balanced-only path",
        ),
    )
}


def seeded_model(seed: int) -> dict:
    """Model section of the config: nominal at seed 0, scaled otherwise."""
    model = copy.deepcopy(NOMINAL_MODEL)
    if seed == 0:
        return model
    rng = random.Random(seed)

    def factor() -> float:
        return rng.uniform(1.0 - SEED_BAND, 1.0 + SEED_BAND)

    model["masses"] = [m * factor() for m in model["masses"]]
    for spring in model["springs"]:
        spring["stiffness"] *= factor()
    for damper in model["dampers"]:
        damper["coefficient"] *= factor()
    return model


def experiment_config(workload: Workload, seed: int) -> dict:
    """Full JSON experiment config of one workload and seed."""
    return {"model": seeded_model(seed), **workload.experiment}


def write_config(workload: Workload, seed: int, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(experiment_config(workload, seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
