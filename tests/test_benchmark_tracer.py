"""The benchmark tracer names package functions; every name must still resolve.

``perfbench/tracing.py`` wraps the functions listed in its ``WRAPPED`` table
by name, so a rename or deletion in ``sgmor`` breaks a traced benchmark run.
Its ``ATTRS`` table reads arguments of those functions by parameter name
(``a["A"]``), so a renamed parameter breaks it too.  Both tables are read
from the file without changing it.  A traced run of each benchmark command
on a small model checks the result reads of ``ATTRS`` as well.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_table() -> dict:
    return tracing_module().WRAPPED


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


def resolve(span_name: str):
    """The package function a span name ("module.function") of the tracer wraps."""
    mod_name, name = span_name.split(".")
    qual = next(q for q in wrapped_table()[mod_name] if q.rsplit(".", 1)[-1] == name)
    target = importlib.import_module(f"sgmor.{mod_name}")
    for part in qual.split("."):
        target = getattr(target, part)
    return target


def attrs_reads() -> dict[str, set[str]]:
    """Span name -> the keys its ``ATTRS`` entry reads off the bound arguments.

    Parsed from the source: each entry is a lambda (a, res), and a read is a
    subscript of its first parameter by a string constant.
    """
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ATTRS" for t in node.targets)
    )
    reads = {}
    for key, entry in zip(table.keys, table.values):
        arg = entry.args.args[0].arg
        reads[key.value] = {
            node.slice.value for node in ast.walk(entry.body)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == arg and isinstance(node.slice, ast.Constant)
        }
    return reads


def test_attrs_read_parameters_of_the_wrapped_functions():
    reads = attrs_reads()
    assert any(reads.values()), "no argument reads parsed from ATTRS"
    missing = []
    for span_name, keys in reads.items():
        params = inspect.signature(resolve(span_name)).parameters
        missing += [f"{span_name}: {key}" for key in sorted(keys - set(params))]
    assert not missing, f"ATTRS reads arguments the wrapped functions do not take: {missing}"



def test_traced_commands_record_every_attribute(tmp_path):
    """Balanced-truncation ``reduce``, Arnoldi ``reduce`` and ``verify`` on the
    default model at d = 1 (m = 120), each run by the tracer script in a child
    process, exit 0.  Every call of a function with an ``ATTRS`` entry carries
    its attributes, and the three commands call each such function.  The
    ``verify`` run integrates the FOM once and each of the two reduced models
    once, all through ``integrate``, which is what the tracer times."""
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "degree": 1,
        "r": {"max": 20},
        "simulation": {"h": 0.05, "T": 5.0, "r_values": [4, 8]},
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    names = set(tracing_module().ATTRS)
    called = set()
    for args in (["reduce"], ["reduce", "--reducer", "arnoldi"], ["verify"]):
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(TRACING), str(spans), *args, "--config", str(config),
             "--out", str(tmp_path / "out")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, f"{args} exited {proc.returncode}: {proc.stderr[-2000:]}"
        labels = []
        for span in json.loads(spans.read_text())["spans"]:
            if span["name"] in names:
                called.add(span["name"])
                assert "attrs" in span, f"{args}: span {span['name']} has no attributes"
            if span["name"] == "simulate.integrate":
                labels.append(span["attrs"]["label"])
        if args == ["verify"]:
            assert sorted(labels) == ["fom", "rom", "rom"], f"verify integrations by label: {labels}"
    assert called == names, f"never called: {sorted(names - called)}"
