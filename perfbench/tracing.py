"""Traced in-process run of one ``sgmor`` subcommand, and the layer metrics.

Run as a script::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS_JSON <sgmor arguments...>

it wraps the public functions of each package module at every name they are
bound to (``from .x import f`` makes ``sgmor.cli.balance`` and
``sgmor.bt_quadratic.balance`` separate bindings of one function), runs
``sgmor.cli.main`` in this process, keeps one span per call in memory and
writes them to SPANS_JSON when the command has finished.  The exit code is
the command's.

A span is {id, parent, name, start, end, attrs}; ``attrs`` holds the counts
read from the call's arguments and result after its end time was taken.

``layer_metrics`` turns a span list into the per-layer metrics.  For every
wrapped function it reports ``.s`` (total time), ``.self_s`` (total time
minus the time of child spans) and ``.calls``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

# defining module -> functions wrapped wherever they are bound; a dotted name
# is a method patched on its class.
WRAPPED = {
    "polychaos": ("PcBasis.linear_weight_matrix",),
    "galerkin": ("assemble", "to_first_order"),
    "lyapsylv": ("real_schur", "solve_lyapunov", "solve_sylvester", "symmetric_factor"),
    "bt_quadratic": ("gramian_cache", "balance", "truncate", "h2_error", "write_report_csv"),
    "arnoldi": ("arnoldi_basis",),
    "passivity": ("check_passivity", "shifted_dissipation_certificate"),
    "simulate": ("integrate", "verify_error_bound"),
}
ROOT = "cli.main"
TIMED = [f"{mod}.{qual.rsplit('.', 1)[-1]}" for mod, quals in WRAPPED.items() for qual in quals] + [ROOT]


def _n(a) -> int:
    return int(np.shape(a)[0])


def _biorth_defect(rom) -> float:
    """||W^T V - I||_2 of a projection; the sweep's conditioning record."""
    return float(np.linalg.norm(rom.W.T @ rom.V - np.eye(rom.r), 2))


# span attributes read from (bound arguments, result) after the call ended
ATTRS = {
    "galerkin.assemble": lambda a, res: {
        "basis_size": int(a["basis"].size),
        "state_dim": 2 * int(res.dimension),
        "nnz": int(res.M.nnz + res.D.nnz + res.K.nnz),
    },
    "lyapsylv.real_schur": lambda a, res: {"n": _n(a["A"])},
    "lyapsylv.solve_lyapunov": lambda a, res: {"n": _n(a["A"])},
    "lyapsylv.solve_sylvester": lambda a, res: {"n": _n(a["A"]), "cols": _n(a["F"])},
    "lyapsylv.symmetric_factor": lambda a, res: {"n": _n(a["X"]), "rank": int(res.shape[1])},
    "bt_quadratic.balance": lambda a, res: {
        "numerical_rank": res.numerical_rank, "zp_rank": int(res.Zp.shape[1]), "zq_rank": int(res.Zq.shape[1]),
    },
    "bt_quadratic.truncate": lambda a, res: {"biorth_defect": _biorth_defect(res)},
    "bt_quadratic.h2_error": lambda a, res: {"resolved": res > 0.0},
    "arnoldi.arnoldi_basis": lambda a, res: {"deflated": int(res[1]["deflated"])},
    "simulate.integrate": lambda a, res: {
        "label": a["sys"].label, "steps": int(round(a["T"] / a["h"])),
    },
}


class Tracer:
    """Span recorder; spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        return self._call(name, fn, args, kwargs)[0]

    def _call(self, name: str, fn, args, kwargs):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None, "name": name}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs), record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, record = self._call(name, fn, args, kwargs)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record["attrs"] = attrs(bound.arguments, result)
            return result

        return traced

    def dump(self, path, rc: int) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"rc": rc, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Replace every binding of each wrapped function in the loaded sgmor modules."""
    modules = [m for key, m in sys.modules.items() if key == "sgmor" or key.startswith("sgmor.")]
    for mod_name, quals in WRAPPED.items():
        home = sys.modules[f"sgmor.{mod_name}"]
        for qual in quals:
            span_name = f"{mod_name}.{qual.rsplit('.', 1)[-1]}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, attr, tracer.wrap(span_name, getattr(cls, attr)))
                continue
            original = getattr(home, qual)
            traced = tracer.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def _flops(span: dict) -> float:
    """Operation count of one solver call from its shapes (dense estimates).

    real_schur 25 n^3 (Hessenberg QR with Schur vectors, Golub & Van Loan);
    solve_lyapunov 14 n^3 (two-sided transforms 8 n^3, trsyl 2 n^3, residual
    4 n^3); solve_sylvester with k columns 7 n^2 k + 7 n k^2 for transforms,
    trsyl and residual (the Schur form of the k x k side is a real_schur
    span of its own);
    symmetric_factor 9 n^3 (eigh with vectors) plus 2 n^2 r for the defect.
    """
    a = span.get("attrs", {})
    n = a.get("n", 0)
    name = span["name"]
    if name == "lyapsylv.real_schur":
        return 25.0 * n**3
    if name == "lyapsylv.solve_lyapunov":
        return 14.0 * n**3
    if name == "lyapsylv.solve_sylvester":
        k = a["cols"]
        return 7.0 * n * n * k + 7.0 * n * k * k
    if name == "lyapsylv.symmetric_factor":
        return 9.0 * n**3 + 2.0 * n * n * a["rank"]
    return 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run (zero where a layer did not run)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {}
    for name in TIMED:
        mine = [s for s in spans if s["name"] == name]
        out[f"{name}.s"] = sum(s["end"] - s["start"] for s in mine)
        out[f"{name}.self_s"] = sum(s["end"] - s["start"] - child_time[s["id"]] for s in mine)
        out[f"{name}.calls"] = len(mine)

    def attrs(name):
        # a call that raised has no attributes
        return [s["attrs"] for s in spans if s["name"] == name and "attrs" in s]

    assembled = attrs("galerkin.assemble")
    for key, metric in (("state_dim", "galerkin.state_dim"), ("nnz", "galerkin.nnz"),
                        ("basis_size", "polychaos.basis_size")):
        out[metric] = max((a[key] for a in assembled), default=0)
    out["lyapsylv.solve_sylvester.cols"] = sum(a["cols"] for a in attrs("lyapsylv.solve_sylvester"))
    out["lyapsylv.flops_computed"] = sum(_flops(s) for s in spans)
    balanced = attrs("bt_quadratic.balance")
    for key in ("numerical_rank", "zp_rank", "zq_rank"):
        out[f"bt_quadratic.{key}"] = max((a[key] for a in balanced), default=0)
    out["bt_quadratic.biorth_defect_max"] = max(
        (a["biorth_defect"] for a in attrs("bt_quadratic.truncate")), default=0.0)
    resolved = sum(a["resolved"] for a in attrs("bt_quadratic.h2_error"))
    out["bt_quadratic.h2_resolved"] = resolved
    calls = out["bt_quadratic.h2_error.calls"]
    out["bt_quadratic.h2_resolved_ratio"] = resolved / calls if calls else 0.0
    out["arnoldi.deflated"] = sum(a["deflated"] for a in attrs("arnoldi.arnoldi_basis"))
    integrations = [s for s in spans if s["name"] == "simulate.integrate" and "attrs" in s]
    for label in ("fom", "rom"):
        out[f"simulate.integrate.{label}_s"] = sum(
            s["end"] - s["start"] for s in integrations if s["attrs"]["label"] == label)
    out["simulate.integrate.steps"] = sum(s["attrs"]["steps"] for s in integrations)
    out["trace.spans"] = len(spans)
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import sgmor.cli  # loads every package module

    tracer = Tracer()
    install(tracer)
    rc = tracer.span(ROOT, sgmor.cli.main, cli_args)
    tracer.dump(spans_path, rc)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
