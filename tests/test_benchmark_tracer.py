"""The benchmark tracer names package functions; every name must still resolve.

``perfbench/tracing.py`` wraps the functions listed in its ``WRAPPED`` table
by name, so a rename or deletion in ``sgmor`` breaks a traced benchmark run.
The table is read from the file without running or changing it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_wrapped_entries_resolve_to_callables():
    missing = []
    for mod_name, quals in wrapped_table().items():
        home = importlib.import_module(f"sgmor.{mod_name}")
        for qual in quals:
            # a dotted name is a method looked up on its class
            target = home
            for part in qual.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"sgmor.{mod_name}.{qual}")
    assert not missing, f"tracer entries that no longer resolve: {missing}"
