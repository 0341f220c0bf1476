"""Config-driven experiment runner.

Subcommands: ``assemble`` (Galerkin matrices plus a summary record),
``reduce`` (r-sweep of balanced truncation or Arnoldi with error and
passivity columns), ``verify`` (time-domain error-bound and certificate
checks of balanced truncations), and ``report`` (merge of the emitted CSVs
into one table keyed by reduced dimension).  ``reduce`` and ``verify`` share
one reduction stage: it builds one reduced model at the command's largest r,
and every row reads its model as the leading block of that one.  All numeric
CSV fields carry 17 significant digits, so repeated runs at a fixed BLAS
thread count are byte-identical.

Each fact is stated once: an ``ExperimentConfig`` field gives its setting's
default, config path, flag and help text, and its annotation is both the
setting's JSON kind and the flag's type; ``REDUCERS`` gives each reducer's
CSV tag and ``INPUTS`` each input signal.  A config or model file that gives
a key twice in one object is refused.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys as _sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from numpy.linalg import LinAlgError

from .arnoldi import reduce_arnoldi
from .bt_quadratic import balance, gramian_cache, sweep, truncate, write_csv, write_report_csv
from .errors import ConfigError, NumericalError
from .galerkin import assemble, to_first_order
from .jsonconfig import JSON_NAMES, read, read_object
from .msd import MsdConfig, build_msd, config_from_dict, default_config
from .passivity import shifted_dissipation_certificate
from .polychaos import PcBasis
from .simulate import _steps, default_input, verify_error_bound

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_assemble",
    "run_reduce",
    "run_verify",
    "run_report",
    "main",
]

# reducer -> its tag, which names its sweep CSV reduce_<tag>.csv and prefixes
# that file's columns in the report
REDUCERS = {"balanced-truncation": "bt", "arnoldi": "arnoldi"}
# input signal -> the input ``verify`` integrates; None is zero input
INPUTS = {"default": default_input, "zero": None}


def _setting(default, path: str, flag: str | None = None, **argument):
    """An ExperimentConfig setting: its default, its config path and, if a
    command-line flag sets it, the flag and its argparse arguments but ``type``."""
    return field(default=default, metadata={"path": path, "flag": flag, "argument": argument})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; flags override file values.

    Every field but ``model`` is a setting, and its annotation is both its
    JSON kind and its flag's type.  A setting that neither the file nor a
    flag sets keeps its default.
    """

    model: MsdConfig
    degree: int = _setting(2, "degree", "degree", help="total polynomial degree")
    reducer: str = _setting("balanced-truncation", "reducer", "reducer",
                            choices=tuple(REDUCERS), help="reduction method")
    omega: float = _setting(1.0, "omega", "omega", help="Arnoldi expansion point")
    r_min: int = _setting(1, "r.min")
    r_max: int = _setting(100, "r.max", "rmax", help="largest reduced dimension")
    sim_h: float = _setting(0.01, "simulation.h")
    sim_T: float = _setting(100.0, "simulation.T")
    sim_input: str = _setting("default", "simulation.input")
    verify_r: tuple[int, ...] = _setting((10, 30, 50), "simulation.r_values")
    out: str = _setting("results", "out", "out", help="output directory")

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigError(f"config key 'degree' must be >= 0, got {self.degree}")
        if self.reducer not in REDUCERS:
            raise ConfigError(f"config key 'reducer' must be one of {tuple(REDUCERS)}, got {self.reducer!r}")
        if not math.isfinite(self.omega):
            raise ConfigError(f"config key 'omega': expansion point must be finite, got {self.omega}")
        if self.r_min < 1 or self.r_max < self.r_min:
            raise ConfigError(f"invalid r range ['r.min', 'r.max'] = [{self.r_min}, {self.r_max}]")
        try:
            _steps(self.sim_h, self.sim_T)
        except ValueError as exc:
            raise ConfigError(f"'simulation.h' and 'simulation.T': {exc}") from None
        if self.sim_input not in INPUTS:
            raise ConfigError(
                f"input signal 'simulation.input' must be {' or '.join(map(repr, INPUTS))}, "
                f"got {self.sim_input!r}"
            )
        # an empty list would balance and integrate the FOM for no row
        if not self.verify_r or min(self.verify_r) < 1:
            raise ConfigError(
                f"verification dimensions 'simulation.r_values' must be a non-empty list of "
                f"integers >= 1, got {list(self.verify_r)}"
            )
        # verify.csv keys its rows by r, which ``report`` refuses to see twice
        if len(set(self.verify_r)) != len(self.verify_r):
            raise ConfigError(
                f"verification dimensions 'simulation.r_values' repeat a dimension: {list(self.verify_r)}"
            )


def _load_json(path: str | Path, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names the file in errors.

    A key that one object of the file gives twice is refused: ``json.load``
    would keep the last value silently."""

    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(
                    f"malformed JSON in {path}: key {json.dumps(key)} appears twice in one object"
                )
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be an object, got {JSON_NAMES[type(raw)]}")
    return raw


def _settings() -> list[tuple[str, type, dict]]:
    """(field name, annotation, metadata) of each ExperimentConfig setting."""
    kinds = get_type_hints(ExperimentConfig)
    return [(f.name, kinds[f.name], f.metadata) for f in fields(ExperimentConfig) if f.metadata]


def _file_settings(raw: dict) -> dict:
    """The ExperimentConfig settings that the config file sets, each read as its annotation."""
    settings = _settings()
    keys = {"": {"model"}}  # section of the file ("" for the top level) -> the keys it may hold
    for _, _, meta in settings:
        section, _, key = meta["path"].rpartition(".")
        keys.setdefault(section, set()).add(key)
        keys[""].add(section or key)
    objects = {s: read_object(raw.get(s, {}) if s else raw, s, known) for s, known in keys.items()}
    values = {}
    for name, kind, meta in settings:
        section, _, key = meta["path"].rpartition(".")
        if key in objects[section]:
            values[name] = read(objects[section][key], kind, meta["path"])
    return values


def experiment_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config file (if any) and command-line flags into one config."""
    raw = _load_json(args.config, "the config file") if args.config else {}
    values = _file_settings(raw)
    model_entry = raw.get("model")
    if model_entry is None:
        model = default_config()
    elif isinstance(model_entry, str):
        path = Path(model_entry)
        if not path.is_absolute() and args.config:
            path = Path(args.config).parent / path
        model = config_from_dict(_load_json(path, f"the model file {path}"))
    else:
        model = config_from_dict(read(model_entry, dict, "model"))
    # a subcommand registers only the flags it reads
    for name, _, meta in _settings():
        if meta["flag"] and getattr(args, meta["flag"], None) is not None:
            values[name] = getattr(args, meta["flag"])
    return ExperimentConfig(model=model, **values)


def _assemble_fom(cfg: ExperimentConfig):
    sys = build_msd(cfg.model)
    return assemble(sys, PcBasis(q=sys.q, d=cfg.degree))


def _out_dir(cfg: ExperimentConfig) -> Path:
    """The output directory, created."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_assemble(cfg: ExperimentConfig) -> dict:
    """Write Galerkin matrices (Matrix Market) and a summary record."""
    # imported here: scipy.io takes about 21 ms to import, and every command
    # imports this module
    import scipy.io
    import scipy.sparse as sp

    out = _out_dir(cfg)
    galerkin = _assemble_fom(cfg)
    for name in ("M", "D", "K"):
        mat = getattr(galerkin, name)
        scipy.io.mmwrite(out / f"galerkin_{name}.mtx", mat, symmetry="symmetric", precision=17)
    # a coordinate file for B too, not the dense array format
    scipy.io.mmwrite(out / "galerkin_B.mtx", sp.coo_matrix(galerkin.B), precision=17)
    nnz = galerkin.nnz_percentages()
    summary = {
        "degree": cfg.degree,
        "parameters": galerkin.basis.q,
        "basis_size": galerkin.basis.size,
        "dimension": galerkin.dimension,
        "nnz_percent": {key: round(val, 2) for key, val in nnz.items()},
        "model": {
            "masses": list(cfg.model.masses),
            "springs": [list(e) for e in cfg.model.springs],
            "dampers": [list(e) for e in cfg.model.dampers],
            "input_spring": cfg.model.input_spring,
            "delta": cfg.model.delta,
        },
    }
    with open(out / "summary.json", "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _reduction(fom, reducer: str, omega: float | None, r: int, key: str):
    """The FOM's record, its reduced model at r and the balancing singular
    values (None for Arnoldi): the one reduction stage of ``reduce`` and
    ``verify``.

    Both reducers build nested bases, so each caller reads its smaller
    models as leading blocks of this one.  The balanced factorization dies
    on return, so no row runs with Z_P, Z_Q or the SVD factors alive.  A
    balanced r above the numerical rank is a ConfigError naming ``key``.
    """
    if reducer == "arnoldi":
        # the sweep needs the FOM's Schur form and norm, not its Gramian.  They
        # come first: the Gramian solve is the run's peak, and the Krylov
        # basis and projected model would otherwise sit on top of it
        ref = gramian_cache(fom)[0]
        return ref, reduce_arnoldi(fom, r, omega=omega), None
    bal = balance(fom)
    if r > bal.numerical_rank:
        raise ConfigError(f"{key} = {r} exceeds the numerical rank {bal.numerical_rank}")
    return bal.ref, truncate(bal, r), bal.sigma


def run_reduce(cfg: ExperimentConfig) -> Path:
    """Sweep the configured reducer over the r range and write the CSV."""
    out = _out_dir(cfg)
    fom = to_first_order(_assemble_fom(cfg))
    if cfg.r_max > fom.m:
        raise ConfigError(f"'r.max' = {cfg.r_max} exceeds the state dimension {fom.m}")
    ref, rom, sigma = _reduction(fom, cfg.reducer, cfg.omega, cfg.r_max, "'r.max'")
    path = out / f"reduce_{REDUCERS[cfg.reducer]}.csv"
    write_report_csv(sweep(ref, rom, range(cfg.r_min, cfg.r_max + 1), sigma=sigma), path)
    return path


def run_verify(cfg: ExperimentConfig) -> Path:
    """Error-bound and passivity checks for the configured dimensions.

    The model is always balanced, whatever the config's reducer, and each
    row's model is the leading block of the one at the largest dimension.
    One row per verification dimension plus a sentinel row for the full
    system (r equal to the full state dimension), which must be passive;
    a dimension that is not below the state dimension is a ConfigError, so
    no r appears twice.
    """
    out = _out_dir(cfg)
    fom = to_first_order(_assemble_fom(cfg))
    r_max = max(cfg.verify_r)
    # the sentinel row already has r = m
    if r_max >= fom.m:
        raise ConfigError(f"max 'simulation.r_values' = {r_max} is not below the state dimension {fom.m}")
    ref, rom, _ = _reduction(fom, "balanced-truncation", None, r_max, "max 'simulation.r_values'")
    roms = [rom.leading(r).system for r in cfg.verify_r]
    del rom  # the rows read only the systems; V and W go before the FOM run
    checks = verify_error_bound(ref, roms, u=INPUTS[cfg.sim_input], h=cfg.sim_h, T=cfg.sim_T)

    rows = []
    for r, rsys, check in zip(cfg.verify_r, roms, checks):
        cert = shifted_dissipation_certificate(rsys)
        rows.append([r, check.observed, check.bound, check.holds,
                     cert.lambda_max, cert.passive, cert.residual])
    cert = shifted_dissipation_certificate(fom)
    rows.append([fom.m, None, None, None, cert.lambda_max, cert.passive, cert.residual])
    path = out / "verify.csv"
    write_csv(path, ("r", "sup_error", "bound", "holds", "lambda_max", "passive", "cert_residual"), rows)
    return path


def run_report(cfg: ExperimentConfig) -> Path:
    """Merge the reduce/verify CSVs in the output directory, keyed by r.

    A CSV that is not ASCII text, has no header holding an 'r' column, has a
    header that repeats a column, a row whose field count differs from its
    header's, an r that is not an integer or an r it already gave is refused
    with a ConfigError that names it and the line.
    """
    out = Path(cfg.out)
    sources = {tag: out / f"reduce_{tag}.csv" for tag in REDUCERS.values()}
    sources["verify"] = out / "verify.csv"
    present = {name: path for name, path in sources.items() if path.exists()}
    if not present:
        raise FileNotFoundError(f"no reduction or verification CSVs found in {out}")

    merged: dict[int, dict[str, str]] = {}
    columns: list[str] = []
    for name, path in present.items():
        try:
            reader = csv.DictReader(path.read_text(encoding="ascii").splitlines(keepends=True))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"malformed CSV {path}: not ASCII text ({exc})") from None
        if reader.fieldnames is None or "r" not in reader.fieldnames:
            raise ConfigError(f"malformed CSV {path}: no header with an 'r' column")
        # DictReader keeps the last of two equal columns and loses the first
        repeated = [f for i, f in enumerate(reader.fieldnames) if f in reader.fieldnames[:i]]
        if repeated:
            raise ConfigError(f"malformed CSV {path}: header repeats column {repeated[0]!r}")
        fields = [f for f in reader.fieldnames if f != "r"]
        prefixed = [f"{name}_{f}" for f in fields]
        columns.extend(prefixed)
        lines: dict[int, int] = {}  # r -> the line that gave it
        for row in reader:
            where = f"malformed CSV {path}: line {reader.line_num}"
            # DictReader files a long row's extra fields under None and fills
            # a short row's missing ones with None
            if None in row or None in row.values():
                raise ConfigError(f"{where} does not have the header's {len(reader.fieldnames)} fields")
            try:
                r = int(row["r"])
            except ValueError:
                raise ConfigError(f"{where} has r = {row['r']!r}, not an integer") from None
            if r in lines:
                raise ConfigError(f"{where} repeats r = {r} of line {lines[r]}")
            lines[r] = reader.line_num
            target = merged.setdefault(r, {})
            for field, col in zip(fields, prefixed):
                target[col] = row[field]

    report_path = out / "report.csv"
    rows = ([r] + [merged[r].get(col, "") for col in columns] for r in sorted(merged))
    write_csv(report_path, ["r"] + columns, rows)
    return report_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgmor",
        description="Stochastic Galerkin assembly and energy-output model reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {meta["flag"]: dict(type=kind, **meta["argument"]) for _, kind, meta in _settings() if meta["flag"]}
    for name, run, help_text, reads in (
        ("assemble", run_assemble, "write Galerkin matrices and a summary record", ("degree", "out")),
        ("reduce", run_reduce, "sweep a reducer over r and write per-dimension diagnostics",
         ("degree", "reducer", "omega", "rmax", "out")),
        ("verify", run_verify, "check output error bounds and dissipation certificates", ("degree", "out")),
        ("report", run_report, "merge emitted CSVs into one table", ("out",)),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(run=run)
        cmd.add_argument("--config", help="JSON experiment config")
        for flag in reads:
            cmd.add_argument(f"--{flag}", **flags[flag])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = experiment_from_args(args)
        args.run(cfg)
    except (LinAlgError, NumericalError) as exc:
        # LinAlgError (eigh, svd, ...) subclasses ValueError, so it is caught first
        print(f"sgmor: numerical failure: {exc}", file=_sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and RankError included
        print(f"sgmor: config error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"sgmor: I/O error: {exc}", file=_sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
