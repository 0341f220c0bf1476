"""The README's library quick start runs as written, so a signature change
that breaks the documented example fails here, and its example config is
the built-in default it says it is."""

import argparse
import re
from pathlib import Path

from sgmor.cli import ExperimentConfig, experiment_from_args
from sgmor.msd import default_config

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The Python block of the README section "## Library quick start"."""
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    """The block prints the H2 error, the passivity check, the bound check
    (which holds) and the largest internal energy of the FOM run."""
    exec(compile(quick_start(), f"{README.name} quick start", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4, printed
    assert float(printed[0]) > 0.0
    assert "holds=True" in printed[2]
    assert float(printed[3]) > 0.0


def test_example_config_is_the_default(tmp_path):
    """The README says the keys of its JSON example default to the values
    shown, so the example read as a config file is the built-in default."""
    block = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    path = tmp_path / "experiment.json"
    path.write_text(block, encoding="utf-8")
    cfg = experiment_from_args(argparse.Namespace(config=str(path)))
    assert cfg == ExperimentConfig(model=default_config())
