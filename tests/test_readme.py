"""The README's library quick start runs as written, so a signature change
that breaks the documented example fails here."""

import re
from pathlib import Path

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
