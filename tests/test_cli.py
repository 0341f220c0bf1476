"""Tests for the experiment command line and its runner functions."""

import argparse
import csv
import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.linalg
from numpy.linalg import LinAlgError
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid

from conftest import traced_peak

import sgmor
from sgmor import lyapsylv
from sgmor.arnoldi import reduce_arnoldi
from sgmor.bt_quadratic import BalancedFactorization, balance, gramian_cache, h2_error, sweep, truncate
from sgmor.cli import (
    ConfigError,
    ExperimentConfig,
    experiment_from_args,
    main,
    run_assemble,
    run_reduce,
    run_verify,
)
from sgmor.errors import RankError
from sgmor.galerkin import assemble, to_first_order
from sgmor.msd import DEFAULT_DAMPERS, DEFAULT_MASSES, DEFAULT_SPRINGS, build_msd, config_from_dict, default_config
from sgmor.passivity import check_passivity
from sgmor.polychaos import PcBasis
from sgmor.simulate import _input_samples, _time_grid, default_input

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one mass, one grounded spring, one grounded damper: 3 parameters, so the
# degree-1 chaos basis has 4 members and the first-order system dimension 8
SMALL_MODEL = {
    "masses": [1.0],
    "springs": [{"ends": [0, 1], "stiffness": 4.0}],
    "dampers": [{"mass": 1, "coefficient": 0.5}],
    "input_spring": 1,
    "delta": 0.1,
}

# the README default model: 4 masses, 6 springs, 4 dampers; m = 8 at degree 0
DEFAULT_MODEL = {
    "masses": list(DEFAULT_MASSES),
    "springs": [{"ends": [a, b], "stiffness": v} for a, b, v in DEFAULT_SPRINGS],
    "dampers": [{"ends": [a, b], "coefficient": v} for a, b, v in DEFAULT_DAMPERS],
    "input_spring": 6,
    "delta": 0.1,
}


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py as a module, read without changing it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def reference_failures(name, tmp_path, monkeypatch):
    """The benchmark's reference comparison of ``sgmor`` run on the seed-0
    config of workload ``name``: the list of failures, empty when it holds."""
    workloads = load_perfbench("workloads", monkeypatch)
    checks = load_perfbench("checks", monkeypatch)
    workload = workloads.WORKLOADS[name]
    path, out = tmp_path / f"{name}-0.json", tmp_path / "out"
    workloads.write_config(workload, 0, path)
    assert main([workload.command, "--config", str(path), "--out", str(out)]) == 0
    config = workloads.experiment_config(workload, 0)
    return checks.check_outputs(workload.command, config, out, reference=True)


def write_config(tmp_path, **overrides):
    raw = {
        "model": SMALL_MODEL,
        "degree": 1,
        "r": {"min": 1, "max": 4},
        "simulation": {"h": 0.01, "T": 20.0, "r_values": [2, 3]},
        "out": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(raw))
    return path


def ns(**kw):
    base = dict(config=None, degree=None, reducer=None, omega=None, rmax=None, out=None)
    base.update(kw)
    return argparse.Namespace(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def verify_d2(tmp_path_factory):
    """``sgmor verify`` on the benchmark's seed-0 verify-d2 config (d = 2,
    T = 20): the config, its file and the output directory."""
    base = tmp_path_factory.mktemp("verify-d2")
    with pytest.MonkeyPatch.context() as mp:
        workloads = load_perfbench("workloads", mp)
    workload = workloads.WORKLOADS["verify-d2"]
    path, out = base / "verify-d2-0.json", base / "out"
    workloads.write_config(workload, 0, path)
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    return workloads.experiment_config(workload, 0), path, out


@pytest.fixture(scope="module")
def small_fom():
    model = config_from_dict(SMALL_MODEL)
    return to_first_order(assemble(build_msd(model), PcBasis(q=3, d=1)))


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(model=default_config())
        assert cfg.degree == 2
        assert cfg.reducer == "balanced-truncation"
        assert (cfg.r_min, cfg.r_max) == (1, 100)
        assert cfg.verify_r == (10, 30, 50)
        assert cfg.out == "results"

    def test_validation(self):
        model = default_config()
        with pytest.raises(ConfigError, match="degree"):
            ExperimentConfig(model=model, degree=-1)
        with pytest.raises(ConfigError, match="reducer"):
            ExperimentConfig(model=model, reducer="modal")
        with pytest.raises(ConfigError, match="r range"):
            ExperimentConfig(model=model, r_min=0)
        with pytest.raises(ConfigError, match="r range"):
            ExperimentConfig(model=model, r_min=5, r_max=4)
        with pytest.raises(ConfigError, match="positive"):
            ExperimentConfig(model=model, sim_h=0.0)
        with pytest.raises(ConfigError, match="input signal"):
            ExperimentConfig(model=model, sim_input="ramp")
        with pytest.raises(ConfigError, match="verification dimensions"):
            ExperimentConfig(model=model, verify_r=(0, 10))


class TestConfigParsing:
    def test_no_config_uses_defaults(self):
        cfg = experiment_from_args(ns())
        assert cfg.model == default_config()
        assert cfg.degree == 2 and cfg.out == "results"

    def test_file_values_parsed(self, tmp_path):
        path = write_config(tmp_path, degree=1, reducer="arnoldi", omega=2.0)
        cfg = experiment_from_args(ns(config=str(path)))
        assert cfg.model == config_from_dict(SMALL_MODEL)
        assert cfg.degree == 1
        assert cfg.reducer == "arnoldi" and cfg.omega == 2.0
        assert (cfg.r_min, cfg.r_max) == (1, 4)
        assert cfg.sim_T == 20.0 and cfg.verify_r == (2, 3)

    def test_integral_floats_accepted(self, tmp_path):
        path = write_config(tmp_path, degree=1.0, r={"min": 1.0, "max": 4.0})
        cfg = experiment_from_args(ns(config=str(path)))
        assert (cfg.degree, cfg.r_min, cfg.r_max) == (1, 1, 4)
        assert all(type(v) is int for v in (cfg.degree, cfg.r_min, cfg.r_max))

    def test_model_path_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "model.json").write_text(json.dumps(SMALL_MODEL))
        path = write_config(tmp_path, model="model.json")
        cfg = experiment_from_args(ns(config=str(path)))
        assert cfg.model == config_from_dict(SMALL_MODEL)

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, degree=1)
        cfg = experiment_from_args(
            ns(config=str(path), degree=3, reducer="arnoldi", omega=2.5, rmax=7, out="elsewhere")
        )
        assert cfg.degree == 3
        assert cfg.reducer == "arnoldi" and cfg.omega == 2.5
        assert cfg.r_max == 7 and cfg.r_min == 1
        assert cfg.out == "elsewhere"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            experiment_from_args(ns(config=str(path)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            experiment_from_args(ns(config=str(tmp_path / "absent.json")))

    def test_invalid_model_entry(self, tmp_path):
        path = write_config(tmp_path, model={"springs": []})
        with pytest.raises(ConfigError, match="missing model key 'masses'"):
            experiment_from_args(ns(config=str(path)))

    def test_bad_reducer_in_file(self, tmp_path):
        path = write_config(tmp_path, reducer="modal")
        with pytest.raises(ConfigError, match="reducer"):
            experiment_from_args(ns(config=str(path)))


def bt_sweep(fom, r_values):
    bal = balance(fom)
    return sweep(bal.ref, truncate(bal, max(r_values)), r_values, sigma=bal.sigma), bal


# reducer name -> r-dimensional model of small_fom built directly
SINGLE_RUNS = {
    "balanced-truncation": lambda fom, r: truncate(balance(fom), r),
    "arnoldi": reduce_arnoldi,
}


class TestSweeps:
    def test_bt_rows(self, small_fom):
        rows, bal = bt_sweep(small_fom, range(1, 5))
        assert [row.r for row in rows] == [1, 2, 3, 4]
        sigmas = [row.sigma for row in rows]
        assert sigmas == sorted(sigmas, reverse=True), f"sigma not sorted: {sigmas}"
        assert_allclose(sigmas, bal.sigma[:4], atol=0.0)
        for row in rows:
            assert row.stable, f"r={row.r} unexpectedly unstable"
            assert row.h2_abs is not None and row.h2_abs >= 0.0
            assert_allclose(row.h2_rel, row.h2_abs / bal.ref.norm, rtol=1e-12)

    def test_bt_errors_non_increasing(self, small_fom):
        rows, _ = bt_sweep(small_fom, range(1, 5))
        errs = [row.h2_abs for row in rows]
        assert errs[-1] <= errs[0], f"errors did not improve: {errs}"

    @pytest.mark.parametrize("reducer", sorted(SINGLE_RUNS))
    def test_leading_block_matches_single_runs(self, small_fom, reducer):
        r_max = 4
        single = SINGLE_RUNS[reducer]
        ref = gramian_cache(small_fom)[0]
        rows = sweep(ref, single(small_fom, r_max), range(1, r_max + 1))
        assert [row.r for row in rows] == list(range(1, r_max + 1))
        for row in rows:
            # the direct model at r, evaluated without the sweep and its leading blocks
            direct = single(small_fom, row.r)
            assert row.stable == direct.is_stable, f"{reducer} r={row.r}: stable flags differ"
            assert_allclose(
                [row.lambda_max, row.h2_abs],
                [check_passivity(direct.system).lambda_max, h2_error(ref, direct.system)], rtol=1e-8,
                err_msg=f"{reducer} r={row.r}: leading block disagrees with a direct reduction",
            )
            assert row.sigma is None
        with pytest.raises(RankError):
            sweep(ref, single(small_fom, r_max), [r_max + 1])

    def test_empty_r_values(self, small_fom):
        bal = balance(small_fom)
        arnoldi = reduce_arnoldi(small_fom, 2)
        assert sweep(bal.ref, arnoldi, []) == []
        assert sweep(bal.ref, truncate(bal, 2), [], sigma=bal.sigma) == []


class TestRunAssemble:
    def test_outputs_and_summary(self, tmp_path):
        cfg = experiment_from_args(ns(config=str(write_config(tmp_path))))
        summary = run_assemble(cfg)
        out = tmp_path / "out"
        galerkin = assemble(build_msd(cfg.model), PcBasis(q=3, d=1))
        for name in ("M", "D", "K", "B"):
            path = out / f"galerkin_{name}.mtx"
            symmetry = "general" if name == "B" else "symmetric"
            assert path.read_text().startswith(f"%%MatrixMarket matrix coordinate real {symmetry}\n")
            back = scipy.io.mmread(path).toarray()
            expected = getattr(galerkin, name)
            assert np.array_equal(back, expected if name == "B" else expected.toarray()), name
        on_disk = json.loads((out / "summary.json").read_text())
        assert on_disk == summary
        assert summary["degree"] == 1
        assert summary["parameters"] == 3
        assert summary["basis_size"] == 4
        assert summary["dimension"] == 4
        assert set(summary["nnz_percent"]) == {"M", "D", "K"}
        assert summary["model"]["masses"] == [1.0]

    def test_degree_zero_is_the_nominal_system(self, tmp_path):
        cfg = experiment_from_args(ns(config=str(write_config(tmp_path, degree=0))))
        summary = run_assemble(cfg)
        assert summary["basis_size"] == 1
        assert summary["dimension"] == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = experiment_from_args(ns(config=str(write_config(tmp_path))))
        run_assemble(cfg)
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_assemble(cfg)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second, "assemble output changed between identical runs"


class TestRunReduce:
    def test_bt_csv(self, tmp_path):
        cfg = experiment_from_args(ns(config=str(write_config(tmp_path))))
        path = run_reduce(cfg)
        assert path.name == "reduce_bt.csv"
        rows = read_csv(path)
        assert [int(row["r"]) for row in rows] == [1, 2, 3, 4]
        sigmas = [float(row["sigma_r"]) for row in rows]
        assert sigmas == sorted(sigmas, reverse=True)
        for row in rows:
            assert row["stable"] == "true"
            assert float(row["h2_abs"]) >= 0.0
        first = path.read_bytes()
        run_reduce(cfg)
        assert path.read_bytes() == first, "reduce output not reproducible"

    def test_arnoldi_csv_has_no_sigma(self, tmp_path):
        cfg = experiment_from_args(
            ns(config=str(write_config(tmp_path, reducer="arnoldi")))
        )
        path = run_reduce(cfg)
        assert path.name == "reduce_arnoldi.csv"
        rows = read_csv(path)
        assert [row["sigma_r"] for row in rows] == [""] * 4
        assert all(row["lambda_max"] != "" for row in rows)

    def test_rmax_beyond_dimension(self, tmp_path):
        cfg = experiment_from_args(ns(config=str(write_config(tmp_path)), rmax=9))
        with pytest.raises(ConfigError, match="exceeds the state dimension"):
            run_reduce(cfg)

    def test_rmax_beyond_rank(self, tmp_path):
        """Balanced truncation refuses an r.max within the state dimension 8
        but above the numerical rank 4, naming the config key."""
        cfg = experiment_from_args(ns(config=str(write_config(tmp_path)), rmax=5))
        with pytest.raises(ConfigError, match="'r.max' = 5 exceeds the numerical rank 4"):
            run_reduce(cfg)
        assert not (tmp_path / "out" / "reduce_bt.csv").exists()

    def test_arnoldi_sweep_peak_memory(self, tmp_path):
        """The default d = 2 Arnoldi sweep (m = 960, r = 1..100) peaks at the
        FOM's Gramian solve, 2.8 dense m x m arrays (2.71 measured), because
        the Schur form and norm are taken before the Krylov basis; with the
        basis and its projected model held through the solve it read 3.08."""
        cfg = ExperimentConfig(model=default_config(), reducer="arnoldi", out=str(tmp_path))
        parametric = build_msd(cfg.model)
        m = 2 * parametric.n * PcBasis(q=parametric.q, d=cfg.degree).size
        path, peak = traced_peak(lambda: run_reduce(cfg), (m, m))
        assert path.name == "reduce_arnoldi.csv"
        assert peak <= 2.8, f"the Arnoldi sweep peaked at {peak:.2f} dense matrices"

    def test_arnoldi_benchmark_reference_comparison_holds(self, tmp_path, monkeypatch):
        """``sgmor reduce`` on the benchmark's seed-0 reduce-arnoldi-d2 config
        passes the benchmark's comparison with its reference outputs, so an
        Arnoldi CSV that drifts past its tolerances fails here and not only in
        a benchmark run."""
        assert reference_failures("reduce-arnoldi-d2", tmp_path, monkeypatch) == []

    def test_bt_benchmark_reference_comparison_holds(self, tmp_path, monkeypatch):
        """``sgmor reduce`` on the benchmark's seed-0 reduce-bt-d2 config, the
        paper's r = 1..100 balanced-truncation sweep, passes the benchmark's
        comparison with its reference outputs, so a balanced-truncation CSV
        that drifts past its tolerances fails here and not only in a
        benchmark run."""
        assert reference_failures("reduce-bt-d2", tmp_path, monkeypatch) == []


class TestRunVerify:
    def test_verify_csv(self, tmp_path):
        cfg = experiment_from_args(ns(config=str(write_config(tmp_path))))
        path = run_verify(cfg)
        rows = read_csv(path)
        assert [int(row["r"]) for row in rows] == [2, 3, 8]
        for row in rows[:2]:
            assert row["holds"] == "true", f"bound failed at r={row['r']}: {row}"
            assert float(row["bound"]) >= float(row["sup_error"])
            assert row["passive"] in ("true", "false")
        sentinel = rows[-1]
        assert sentinel["passive"] == "true", "full model must be passive"
        assert sentinel["sup_error"] == "" and sentinel["bound"] == ""
        assert float(sentinel["lambda_max"]) <= 1e-10
        # the shifted certificate holds by construction, including at the sentinel
        assert [row["cert_residual"] for row in rows] == ["0"] * 3

    def test_zero_input_gives_zero_columns(self, tmp_path):
        path = write_config(
            tmp_path, simulation={"h": 0.01, "T": 5.0, "r_values": [2], "input": "zero"}
        )
        cfg = experiment_from_args(ns(config=str(path)))
        rows = read_csv(run_verify(cfg))
        assert float(rows[0]["sup_error"]) == 0.0
        assert float(rows[0]["bound"]) == 0.0
        assert rows[0]["holds"] == "true"

    def test_verify_r_beyond_rank(self, tmp_path):
        """r = 5 lies below the state dimension 8 but above the numerical rank 4."""
        path = write_config(
            tmp_path, simulation={"h": 0.01, "T": 5.0, "r_values": [5]}
        )
        cfg = experiment_from_args(ns(config=str(path)))
        with pytest.raises(ConfigError, match="max 'simulation.r_values' = 5 exceeds the numerical rank 4"):
            run_verify(cfg)

    def test_bound_is_the_leading_block_error(self, verify_d2):
        """Each row's bound is the H2 error of the leading block of the one
        truncation at the largest r, times the input's L4 norm, bitwise.  At
        d = 2 (m = 960) a truncation at r itself differs in its last bits."""
        _, path, out = verify_d2
        cfg = experiment_from_args(ns(config=str(path)))
        parametric = build_msd(cfg.model)
        bal = balance(to_first_order(assemble(parametric, PcBasis(q=parametric.q, d=cfg.degree))))
        rom = truncate(bal, max(cfg.verify_r))
        t = _time_grid(cfg.sim_h, cfg.sim_T)
        u4 = np.linalg.norm(_input_samples(default_input, t, bal.ref.system.n_in), axis=1) ** 4
        u_l4 = float(np.sqrt(trapezoid(u4, t)))
        rows = read_csv(out / "verify.csv")
        for r, row in zip(cfg.verify_r, rows):
            assert float(row["bound"]) == h2_error(bal.ref, rom.leading(r).system) * u_l4, f"r={r}"

    def test_benchmark_reference_comparison_holds(self, verify_d2, monkeypatch):
        """The verify-d2 outputs pass the benchmark's comparison with its
        reference outputs, so a CSV that drifts past its tolerances fails here
        and not only in a benchmark run."""
        config, _, out = verify_d2
        checks = load_perfbench("checks", monkeypatch)
        assert checks.check_outputs("verify", config, out, reference=True) == []


def live_factorizations(fom):
    """How many BalancedFactorization objects of ``fom`` are alive."""
    return sum(isinstance(o, BalancedFactorization) and o.ref.system is fom for o in gc.get_objects())


class TestReductionStage:
    """``reduce`` and ``verify`` get their model from one balance and one
    truncation at their largest r, and release the factorization before the
    first row is computed."""

    # command -> (the name its rows start at, its largest r in write_config's config)
    ROWS = {"reduce": ("sweep", 4), "verify": ("verify_error_bound", 3)}

    @pytest.mark.parametrize("command", sorted(ROWS))
    def test_one_balance_and_one_truncation(self, tmp_path, monkeypatch, command):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, args[1:]))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sgmor.cli, "balance", counted("balance", balance))
        monkeypatch.setattr(sgmor.cli, "truncate", counted("truncate", truncate))
        assert main([command, "--config", str(write_config(tmp_path))]) == 0
        assert calls == [("balance", ()), ("truncate", (self.ROWS[command][1],))]

    @pytest.mark.parametrize("command", sorted(ROWS))
    def test_factorization_released_before_the_rows(self, tmp_path, monkeypatch, command):
        name = self.ROWS[command][0]
        rows_fn = getattr(sgmor.cli, name)
        alive = []

        def checked(ref, *args, **kwargs):
            alive.append(live_factorizations(ref.system))
            return rows_fn(ref, *args, **kwargs)

        monkeypatch.setattr(sgmor.cli, name, checked)
        assert main([command, "--config", str(write_config(tmp_path))]) == 0
        assert alive == [0], f"{command}: a BalancedFactorization was alive when {name} started"


class TestMain:
    def test_full_chain(self, tmp_path):
        config = str(write_config(tmp_path))
        assert main(["assemble", "--config", config]) == 0
        assert main(["reduce", "--config", config]) == 0
        assert main(["reduce", "--config", config, "--reducer", "arnoldi"]) == 0
        assert main(["verify", "--config", config]) == 0
        assert main(["report", "--config", config]) == 0

        out = tmp_path / "out"
        rows = read_csv(out / "report.csv")
        assert [int(row["r"]) for row in rows] == [1, 2, 3, 4, 8]
        header = rows[0].keys()
        for col in ("bt_sigma_r", "bt_stable", "arnoldi_lambda_max", "verify_holds"):
            assert col in header, f"missing merged column {col}"
        bt_rows = {int(row["r"]): row for row in read_csv(out / "reduce_bt.csv")}
        for row in rows[:4]:
            assert row["bt_h2_abs"] == bt_rows[int(row["r"])]["h2_abs"]
        assert rows[-1]["verify_passive"] == "true"
        assert rows[-1]["bt_sigma_r"] == "", "sentinel row must not carry sweep data"

    def test_usage_error_without_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command, flag, value", [
        ("verify", "--reducer", "arnoldi"),
        ("verify", "--omega", "2"),
        ("verify", "--rmax", "3"),
        ("assemble", "--reducer", "arnoldi"),
        ("assemble", "--omega", "2"),
        ("assemble", "--rmax", "3"),
        ("report", "--degree", "1"),
        ("report", "--reducer", "arnoldi"),
    ])
    def test_flag_the_command_ignores_is_exit_2(self, tmp_path, capsys, command, flag, value):
        config = str(write_config(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config, flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists(), "rejected before any output was written"

    def test_malformed_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["assemble", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ({"r": 5}, "config key 'r' must be an object, got a number"),
        ({"simulation": 3}, "config key 'simulation' must be an object, got a number"),
        ({"simulation": {"r_values": 7}}, "config key 'simulation.r_values' must be an array, got a number"),
        ({"model": [1]}, "config key 'model' must be an object, got an array"),
        ([1, 2], "the config file must be an object, got an array"),
        # a string key takes JSON strings only; str() would write "out": 5 into ./5
        ({"out": 5}, "config key 'out' must be a string, got a number 5"),
        ({"out": ["x"]}, "config key 'out' must be a string, got an array"),
        ({"reducer": None}, "config key 'reducer' must be a string, got null"),
        ({"simulation": {"input": 0}}, "config key 'simulation.input' must be a string, got a number 0"),
        # float() of an integer beyond the double range raises OverflowError
        ({"omega": 10**400}, "config key 'omega' must be a number in the double range"),
        # no verification dimension leaves verify a FOM run whose output nothing reads
        ({"simulation": {"r_values": []}}, "'simulation.r_values' must be a non-empty list"),
    ])
    def test_wrong_json_type_names_the_key(self, tmp_path, capsys, monkeypatch, raw, message):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert main(["assemble", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["typed.json"], "rejected before any output was written"

    @pytest.mark.parametrize("value", [1.5, True])
    @pytest.mark.parametrize("key, overrides", [
        ("degree", lambda v: {"degree": v}),
        ("r.min", lambda v: {"r": {"min": v, "max": 4}}),
        ("r.max", lambda v: {"r": {"min": 1, "max": v}}),
        ("simulation.r_values", lambda v: {"simulation": {"r_values": [2, v]}}),
        ("input_spring", lambda v: {"model": {**SMALL_MODEL, "input_spring": v}}),
        ("springs[0].ends", lambda v: {"model": {**SMALL_MODEL, "springs": [{"ends": [0, v], "stiffness": 4.0}]}}),
        ("dampers[0].ends", lambda v: {"model": {**SMALL_MODEL, "dampers": [{"ends": [v, 0], "coefficient": 0.5}]}}),
        ("dampers[0].mass", lambda v: {"model": {**SMALL_MODEL, "dampers": [{"mass": v, "coefficient": 0.5}]}}),
    ])
    def test_non_integer_value_is_exit_2(self, tmp_path, capsys, key, overrides, value):
        """Integer keys reject non-integral numbers and booleans instead of truncating them."""
        path = write_config(tmp_path, **overrides(value))
        assert main(["report", "--config", str(path)]) == 2
        assert f"config key '{key}' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "1.5"])
    @pytest.mark.parametrize("key, overrides", [
        ("omega", lambda v: {"omega": v}),
        ("simulation.h", lambda v: {"simulation": {"h": v}}),
        ("simulation.T", lambda v: {"simulation": {"T": v}}),
        ("masses[0]", lambda v: {"model": {**SMALL_MODEL, "masses": [v]}}),
        ("springs[0].stiffness", lambda v: {"model": {**SMALL_MODEL, "springs": [{"ends": [0, 1], "stiffness": v}]}}),
        ("dampers[0].coefficient", lambda v: {"model": {**SMALL_MODEL, "dampers": [{"mass": 1, "coefficient": v}]}}),
        ("delta", lambda v: {"model": {**SMALL_MODEL, "delta": v}}),
    ])
    def test_non_number_value_is_exit_2(self, tmp_path, capsys, key, overrides, value):
        """Real-valued keys reject booleans and strings instead of reading true as 1.0."""
        path = write_config(tmp_path, **overrides(value))
        assert main(["report", "--config", str(path)]) == 2
        assert f"config key '{key}' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"dt": 0.5}, "unknown config key 'dt'"),
        ({"r": {"max": 4, "minimum": 2}}, "unknown config key 'r.minimum'"),
        ({"simulation": {"dt": 0.5, "T": 5.0}}, "unknown config key 'simulation.dt'"),
        ({"model": {**SMALL_MODEL, "input_sprng": 1}}, "unknown model key 'input_sprng'"),
        ({"model": {**SMALL_MODEL, "springs": [{"ends": [0, 1], "stiffness": 4.0, "damping": 9.0}]}},
         "unknown model key 'springs[0].damping'"),
    ])
    def test_unknown_key_is_exit_2(self, tmp_path, capsys, overrides, message):
        """A misspelled key is refused, not replaced by the default it was meant to override."""
        path = write_config(tmp_path, **overrides)
        assert main(["reduce", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists(), "rejected before any output was written"

    @pytest.mark.parametrize("model, message", [
        ({**SMALL_MODEL, "springs": [{"ends": [0, 1, 2], "stiffness": 4.0}]},
         "config key 'springs[0].ends' must hold 2 entries, got 3"),
        ({**SMALL_MODEL, "springs": [{"ends": [1], "stiffness": 4.0}]},
         "config key 'springs[0].ends' must hold 2 entries, got 1"),
        ({**SMALL_MODEL, "springs": [{"ends": [0, 1]}]}, "missing model key 'springs[0].stiffness'"),
        ({**SMALL_MODEL, "dampers": [{"coefficient": 0.5}]},
         "model key 'dampers[0]' gives neither of 'ends' and 'mass'"),
        ({key: value for key, value in SMALL_MODEL.items() if key != "masses"}, "missing model key 'masses'"),
    ])
    def test_malformed_model_names_the_key(self, tmp_path, capsys, model, message):
        """A malformed element or a missing key is refused with its key path."""
        path = write_config(tmp_path, model=model)
        assert main(["assemble", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists(), "rejected before any output was written"

    def test_element_with_mass_and_ends_is_exit_2(self, tmp_path, capsys):
        """A damper that names both a ground mass and two ends is refused, not read as its ends."""
        damper = {"mass": 1, "ends": [0, 1], "coefficient": 0.5}
        path = write_config(tmp_path, model={**SMALL_MODEL, "dampers": [damper]})
        assert main(["reduce", "--config", str(path)]) == 2
        assert "model key 'dampers[0]' gives both 'ends' and 'mass'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists(), "rejected before any output was written"

    def test_benchmark_configs_hold_only_known_keys(self, tmp_path, monkeypatch):
        """The configs the benchmark writes for each of its workloads parse."""
        workloads = load_perfbench("workloads", monkeypatch)
        for workload in workloads.WORKLOADS.values():
            for seed in (0, 1):
                path = tmp_path / f"{workload.name}-{seed}.json"
                workloads.write_config(workload, seed, path)
                experiment_from_args(ns(config=str(path)))

    def test_benchmark_output_invariants_hold(self, tmp_path, monkeypatch):
        """The benchmark's own output checks (perfbench/checks.py, without the
        reference comparison) pass on balanced-truncation and Arnoldi
        ``reduce`` and on ``verify`` of its nominal model at d = 1, so a broken
        CSV format fails here and not only in a benchmark run.  The reducer
        sits in the config, where the checks read it."""
        workloads = load_perfbench("workloads", monkeypatch)
        checks = load_perfbench("checks", monkeypatch)
        runs = (
            ("reduce", {"reducer": "balanced-truncation", "r": {"min": 1, "max": 20}}),
            ("reduce", {"reducer": "arnoldi", "r": {"min": 1, "max": 20}}),
            ("verify", {"reducer": "balanced-truncation",
                        "simulation": {"h": 0.05, "T": 5.0, "r_values": [4, 8]}}),
        )
        for i, (command, experiment) in enumerate(runs):
            config = {"model": workloads.NOMINAL_MODEL, "degree": 1, **experiment}
            path = tmp_path / f"experiment-{i}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"out-{i}"
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            assert checks.check_outputs(command, config, out, reference=False) == [], (command, experiment)

    @pytest.mark.parametrize("which", ["config", "model"])
    def test_non_utf8_file_is_exit_2(self, tmp_path, capsys, which):
        """A config or model file that is not UTF-8 is a config error naming the file."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"degree": 1, "out": "\xff"}')
        path = bad if which == "config" else write_config(tmp_path, model="bad.json")
        assert main(["report", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"sgmor: config error: malformed JSON in {bad}: 'utf-8' codec can't decode byte 0xff" in err

    @pytest.mark.parametrize("content", [None, "{not json", "[1]"])
    def test_bad_model_file_is_exit_2(self, tmp_path, capsys, content):
        """A missing, malformed or non-object model file is a config error naming the file."""
        if content is not None:
            (tmp_path / "nope.json").write_text(content)
        path = write_config(tmp_path, model="nope.json")
        assert main(["report", "--config", str(path)]) == 2
        assert str(tmp_path / "nope.json") in capsys.readouterr().err

    def test_rmax_too_large_is_exit_2(self, tmp_path, capsys):
        config = str(write_config(tmp_path))
        assert main(["reduce", "--config", config, "--rmax", "9"]) == 2
        assert "sgmor: config error: 'r.max' = 9 exceeds the state dimension 8" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["nan", "inf"])
    def test_non_finite_omega_is_exit_2(self, tmp_path, capsys, omega):
        config = str(write_config(tmp_path, reducer="arnoldi"))
        assert main(["reduce", "--config", config, "--omega", omega]) == 2
        assert "expansion point must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists(), "rejected before any output was written"

    @pytest.mark.parametrize("command", ["assemble", "reduce", "verify"])
    def test_ungrounded_network_is_exit_2(self, tmp_path, capsys, command):
        """A mass without a spring path to the ground makes K singular: a config error."""
        model = {
            "masses": [1.0, 1.0, 1.0],
            "springs": [{"ends": [0, 1], "stiffness": 4.0}, {"ends": [2, 3], "stiffness": 4.0}],
            "dampers": [{"mass": 1, "coefficient": 0.5}],
            "input_spring": 1,
        }
        config = str(write_config(tmp_path, model=model))
        assert main([command, "--config", config]) == 2
        assert "mass 2 has no spring path to the ground" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [{"T": float("inf")}, {"h": float("nan")}])
    def test_non_finite_simulation_setting_is_exit_2(self, tmp_path, capsys, setting):
        simulation = {"h": 0.01, "T": 20.0, "r_values": [2, 3], **setting}
        config = str(write_config(tmp_path, simulation=simulation))
        assert main(["verify", "--config", config]) == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists(), "rejected before any output was written"

    @pytest.mark.parametrize("T", [0.4, 0.5])
    def test_horizon_without_a_step_is_exit_2(self, tmp_path, capsys, T):
        """T <= h/2 leaves a one-point grid, which used to verify as sup_error 0 and holds."""
        simulation = {"h": 1.0, "T": T, "r_values": [2]}
        config = str(write_config(tmp_path, degree=0, simulation=simulation))
        assert main(["verify", "--config", config]) == 2
        assert "shorter than half a step" in capsys.readouterr().err
        assert not (tmp_path / "out").exists(), "rejected before any output was written"

    def test_missing_report_inputs_is_exit_4(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 4
        assert "I/O error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("", "no header with an 'r' column"),
        ("rank,sup_error\n1,0.5\n", "no header with an 'r' column"),
        ("r,sup_error\n1,0.5\n2.5,0.25\n", "line 3 has r = '2.5', not an integer"),
        ("r,sup_error\n1,\xff\n", "not ASCII text ('ascii' codec can't decode byte 0xff"),
        ("r,sup_error,bound\n1,0.5,1.0\n2,0.25\n", "line 3 does not have the header's 3 fields"),
        ("r,sup_error\n1,0.5\n2,0.25,1.0\n", "line 3 does not have the header's 2 fields"),
        ("r,sup_error\n1,0.5\n2,0.25\n1,0.125\n", "line 4 repeats r = 1 of line 2"),
    ])
    def test_malformed_report_input_is_exit_2(self, tmp_path, capsys, text, message):
        """An empty CSV, one without an r column, one with a non-integer r, one
        with a byte outside ASCII, a row shorter or longer than the header and
        a repeated r are refused as config errors naming the file, and no
        report is written."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "verify.csv").write_bytes(text.encode("latin-1"))
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"sgmor: config error: malformed CSV {out / 'verify.csv'}: {message}" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("degree, r_values, message", [
        (1, [10, 10], "verification dimensions 'simulation.r_values' repeat a dimension: [10, 10]"),
        (0, [8], "max 'simulation.r_values' = 8 is not below the state dimension 8"),
    ], ids=["repeated", "state-dimension"])
    def test_verify_row_report_would_refuse_is_exit_2(self, tmp_path, capsys, degree, r_values, message):
        """A repeated r, or r = m beside the sentinel row of the full system,
        would write a verify.csv with an r twice, which ``report`` refuses:
        each is a config error, and no verify.csv is written.  The default
        model at degree 0 has m = 8 and numerical rank 8."""
        config = str(write_config(
            tmp_path, model=DEFAULT_MODEL, degree=degree,
            simulation={"h": 0.01, "T": 2.0, "r_values": r_values},
        ))
        assert main(["verify", "--config", config]) == 2
        assert f"sgmor: config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "verify.csv").exists()

    def test_default_model_without_variation_runs(self, tmp_path):
        """delta = 0 leaves Q with an eigenvalue of -1e-12 relative, rounding
        that balancing tolerates."""
        config = str(write_config(
            tmp_path, model=dict(DEFAULT_MODEL, delta=0.0), r={"min": 1, "max": 3},
            simulation={"h": 0.01, "T": 2.0, "r_values": [3]},
        ))
        assert main(["reduce", "--config", config]) == 0
        assert main(["verify", "--config", config]) == 0

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        model = dict(SMALL_MODEL, delta=0.0)
        config = str(write_config(tmp_path, model=model, reducer="arnoldi"))
        assert main(["reduce", "--config", config]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_schur_failure_is_exit_3(self, tmp_path, capsys, monkeypatch):
        """A QR iteration that does not converge is a numerical failure, not a config error."""
        gees = lyapsylv.dgees

        def unconverged(*args, **kwargs):
            out = gees(*args, **kwargs)
            # the workspace query passes; the real call reports info > 0
            return out if kwargs.get("lwork") == -1 else (*out[:-1], 1)

        monkeypatch.setattr(lyapsylv, "dgees", unconverged)
        config = str(write_config(tmp_path))
        assert main(["reduce", "--config", config]) == 3
        err = capsys.readouterr().err
        assert "sgmor: numerical failure: Schur form not found" in err
        assert "config error" not in err

    def test_lapack_failure_is_exit_3(self, tmp_path, capsys, monkeypatch):
        """A LinAlgError from LAPACK, a ValueError subclass, is a numerical failure."""
        def unconverged(*args, **kwargs):
            raise LinAlgError("SVD did not converge")

        # the balancing SVD; the balanced reduce path makes no other
        monkeypatch.setattr(scipy.linalg, "svd", unconverged)
        config = str(write_config(tmp_path))
        assert main(["reduce", "--config", config]) == 3
        err = capsys.readouterr().err
        assert "sgmor: numerical failure: SVD did not converge" in err
        assert "config error" not in err


def test_import_leaves_out_unused_scipy_subpackages():
    """Importing the command line loads neither scipy.integrate nor what it pulls
    in, nor scipy.io, which only ``assemble`` imports."""
    unused = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.io")
    code = f"import sys, sgmor.cli; print(*(m for m in {unused!r} if m in sys.modules))"
    src = str(Path(sgmor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == []
