"""Set-up prefix that every sgmor subcommand pays, in a fresh interpreter.

Imports ``sgmor.cli``, reads the experiment config the way the CLI does and
builds the Galerkin system with ``build_msd``, ``PcBasis`` and ``assemble``.
The benchmark times this process from start to exit.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG_JSON
"""

import argparse
import sys

from sgmor.cli import experiment_from_args
from sgmor.galerkin import assemble
from sgmor.msd import build_msd
from sgmor.polychaos import PcBasis


def main(config_path: str) -> int:
    cfg = experiment_from_args(argparse.Namespace(config=config_path, degree=None, out=None))
    system = build_msd(cfg.model)
    galerkin = assemble(system, PcBasis(q=system.q, d=cfg.degree))
    return 0 if galerkin.dimension > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
