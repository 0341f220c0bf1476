"""Output checks for one benchmark command.

``check_outputs`` returns a list of failure messages; an empty list means
the outputs passed.  Two kinds of checks run:

Invariants, on every seed:
  * CSV header and row count (one row per requested r, in order).
  * reduce_bt.csv: sigma_r positive and non-increasing, every row stable,
    h2_abs and h2_rel present, non-negative, and tied together by one H2
    norm (h2_abs / h2_rel is the same for every row with h2_rel > 0).
  * reduce_arnoldi.csv: no sigma_r; h2 columns filled exactly on stable rows.
  * verify.csv: one row per verification r plus the full-order sentinel
    row r = m; every reduced row has holds=true and a certificate residual at
    roundoff level; the sentinel row has passive=true.

Reference comparison, on seed 0 only, against perfbench/reference/ (the
outputs of the parent commit on the README default model).  Tolerances:
  * sigma_r: |s - s_ref| <= SIGMA_RTOL * s_ref + SIGMA_ATOL * sigma_1.
  * h2_rel where the reference is resolved (> 0):
    |e - e_ref| <= H2_RTOL * e_ref + H2_ATOL.
  * h2_rel where the reference reads 0.0 (the h2_error dead zone, where the
    trace argument is below 1e-10 of ||H||^2 + ||H_r||^2):
    0 <= e <= DEAD_ZONE_H2_REL.  A method that resolves these rows passes,
    since their true error is below the threshold; garbage does not.
  * the H2 norm ||H|| = h2_abs / h2_rel: relative NORM_RTOL.
  * lambda_max of balanced truncations is ill-conditioned for small
    sigma_r/sigma_1 (the projection carries S^{-1/2}), so its tolerance
    grows with the condition number: |l - l_ref| <=
    (LAMBDA_RTOL + LAMBDA_COND_RTOL * sigma_1 / sigma_r) * max|l_ref|.
    At r = 100 (sigma_1/sigma_r = 1.7e8) this allows 1.7 % of the column
    scale, which covers the third-digit drift between BLAS builds.  Every
    row is compared; none is skipped.
  * Arnoldi lambda_max (orthonormal projection, well conditioned):
    relative LAMBDA_RTOL of the column scale; stable flags must match.
  * verify.csv: sup_error relative VERIFY_RTOL; bound (the H2 error times
    the input's L4 norm) relative H2_RTOL; lambda_max as for balanced
    truncation.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Between one and two BLAS threads the outputs at seed 0 move by up to
# 3.3e-11 sigma_1 in sigma_r (r = 99), 8.7e-10 in h2_rel (r = 60), 8.4e-12
# sigma_1/sigma_r max|lambda| in lambda_max (r = 79) and 4.2e-10 relative in
# sup_error; each tolerance below leaves at least ten times that.
SIGMA_RTOL = 1e-8
SIGMA_ATOL = 1e-9
H2_RTOL = 1e-5
H2_ATOL = 1e-8
# h2_error maps value <= 1e-10 * (||H||^2 + ||H_r||^2) to 0, i.e. h2_rel at or
# below sqrt(2e-10) = 1.41e-5 when ||H_r|| ~ ||H||.  The cancellation noise of
# the formula (about 4e-14 ||H||^2, from the thread-count drift above) is far
# below that threshold, so the true error of a dead-zone row is below it too;
# 5 % covers ||H_r|| != ||H||.
DEAD_ZONE_H2_REL = 1.05 * math.sqrt(2e-10)
NORM_RTOL = 1e-9
LAMBDA_RTOL = 1e-6
LAMBDA_COND_RTOL = 1e-10
VERIFY_RTOL = 1e-6
CERT_ATOL = 1e-9

REDUCE_HEADER = ["r", "sigma_r", "h2_abs", "h2_rel", "lambda_max", "stable"]
VERIFY_HEADER = ["r", "sup_error", "bound", "holds", "lambda_max", "passive", "cert_residual"]


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _num(text: str) -> float | None:
    """Parse a numeric CSV field; '' is None, anything unparsable is NaN."""
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return math.nan


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def _second_order_dim(config: dict) -> int:
    """ns = n * C(q + d, d): masses times the chaos basis size."""
    model = config["model"]
    n = len(model["masses"])
    q = n + len(model["springs"]) + len(model["dampers"])
    d = int(config["degree"])
    return n * math.comb(q + d, d)


def _r_values(config: dict) -> list[int]:
    r = config.get("r", {})
    return list(range(int(r.get("min", 1)), int(r.get("max", 100)) + 1))


def check_outputs(command: str, config: dict, out: Path, reference: bool) -> list[str]:
    """Failure messages for one command's output directory (empty: passed)."""
    try:
        if command == "reduce":
            return _check_reduce(config, out, reference)
        if command == "verify":
            return _check_verify(config, out, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command} outputs unreadable: {exc!r}"]
    return [f"no checks for command {command!r}"]


# ---------------------------------------------------------------- reduce


def _check_reduce(config: dict, out: Path, reference: bool) -> list[str]:
    bt = config.get("reducer", "balanced-truncation") == "balanced-truncation"
    name = "reduce_bt.csv" if bt else "reduce_arnoldi.csv"
    header, rows = read_csv(out / name)
    if header != REDUCE_HEADER:
        return [f"{name}: header {header} != {REDUCE_HEADER}"]
    want_r = _r_values(config)
    got_r = [row["r"] for row in rows]
    if got_r != [str(r) for r in want_r]:
        return [f"{name}: r column {got_r[:3]}..{got_r[-3:]} (n={len(got_r)}), expected {want_r[0]}..{want_r[-1]}"]
    table = _reduce_table(rows)
    fails = _reduce_invariants(name, want_r, table, bt)
    if reference and not fails:
        ref = _reduce_table(read_csv(REFERENCE_DIR / name)[1])
        fails += _reduce_vs_reference(name, want_r, table, ref, bt)
    return fails


def _reduce_table(rows: list[dict]) -> list[dict]:
    return [{k: _num(row[k]) for k in ("sigma_r", "h2_abs", "h2_rel", "lambda_max")} | {"stable": row["stable"]}
            for row in rows]


def _reduce_invariants(name: str, r_values: list[int], table: list[dict], bt: bool) -> list[str]:
    fails = []
    for r, row in zip(r_values, table):
        if row["stable"] not in ("true", "false"):
            fails.append(f"{name} r={r}: stable={row['stable']!r}")
            continue
        stable = row["stable"] == "true"
        if bt and not stable:
            fails.append(f"{name} r={r}: balanced truncation row is not stable")
        if not _finite(row["lambda_max"]):
            fails.append(f"{name} r={r}: lambda_max {row['lambda_max']}")
        if bt:
            if not (_finite(row["sigma_r"]) and row["sigma_r"] > 0):
                fails.append(f"{name} r={r}: sigma_r {row['sigma_r']} is not positive")
        elif row["sigma_r"] is not None:
            fails.append(f"{name} r={r}: Arnoldi row carries sigma_r")
        if stable:
            for col in ("h2_abs", "h2_rel"):
                if not (_finite(row[col]) and row[col] >= 0):
                    fails.append(f"{name} r={r}: {col} {row[col]} on a stable row")
        elif row["h2_abs"] is not None or row["h2_rel"] is not None:
            fails.append(f"{name} r={r}: unstable row carries an H2 error")
    if fails:
        return fails
    if bt:
        sigma = [row["sigma_r"] for row in table]
        for r, (a, b) in zip(r_values[1:], zip(sigma, sigma[1:])):
            if b > a:
                fails.append(f"{name} r={r}: sigma_r {b!r} > sigma_(r-1) {a!r}")
    norms = [row["h2_abs"] / row["h2_rel"] for row in table if row["h2_rel"]]
    if norms and max(norms) - min(norms) > 1e-12 * max(norms):
        fails.append(f"{name}: h2_abs / h2_rel varies over rows ({min(norms)!r}..{max(norms)!r})")
    return fails


def _lambda_tol(scale: float, sigma: float | None, sigma_1: float | None) -> float:
    cond = sigma_1 / sigma if sigma and sigma_1 else 0.0
    return (LAMBDA_RTOL + LAMBDA_COND_RTOL * cond) * scale


def _reduce_vs_reference(name: str, r_values, table, ref, bt: bool) -> list[str]:
    if len(ref) != len(table):
        return [f"{name}: {len(table)} rows, reference has {len(ref)}"]
    fails = []
    ref_norms = [row["h2_abs"] / row["h2_rel"] for row in ref if row["h2_rel"]]
    norms = [row["h2_abs"] / row["h2_rel"] for row in table if row["h2_rel"]]
    if ref_norms and norms and abs(norms[0] - ref_norms[0]) > NORM_RTOL * ref_norms[0]:
        fails.append(f"{name}: H2 norm {norms[0]!r} != reference {ref_norms[0]!r}")
    lam_scale = max(abs(row["lambda_max"]) for row in ref)
    sigma_1 = ref[0]["sigma_r"]
    for r, row, want in zip(r_values, table, ref):
        if row["stable"] != want["stable"]:
            fails.append(f"{name} r={r}: stable={row['stable']}, reference {want['stable']}")
            continue
        if bt:
            s, s_ref = row["sigma_r"], want["sigma_r"]
            if abs(s - s_ref) > SIGMA_RTOL * s_ref + SIGMA_ATOL * sigma_1:
                fails.append(f"{name} r={r}: sigma_r {s!r} != reference {s_ref!r}")
        tol = _lambda_tol(lam_scale, want["sigma_r"], sigma_1)
        if abs(row["lambda_max"] - want["lambda_max"]) > tol:
            fails.append(f"{name} r={r}: lambda_max {row['lambda_max']!r} != reference "
                         f"{want['lambda_max']!r} (tol {tol:.3g})")
        e, e_ref = row["h2_rel"], want["h2_rel"]
        if e_ref is None:
            continue
        if e_ref > 0.0:
            if abs(e - e_ref) > H2_RTOL * e_ref + H2_ATOL:
                fails.append(f"{name} r={r}: h2_rel {e!r} != reference {e_ref!r}")
        elif not 0.0 <= e <= DEAD_ZONE_H2_REL:
            fails.append(f"{name} r={r}: h2_rel {e!r} outside the dead zone [0, {DEAD_ZONE_H2_REL:.3g}]")
    return fails


# ---------------------------------------------------------------- verify


def _check_verify(config: dict, out: Path, reference: bool) -> list[str]:
    header, rows = read_csv(out / "verify.csv")
    if header != VERIFY_HEADER:
        return [f"verify.csv: header {header} != {VERIFY_HEADER}"]
    r_values = [int(r) for r in config["simulation"]["r_values"]]
    m = 2 * _second_order_dim(config)
    want_r = [str(r) for r in r_values + [m]]
    if [row["r"] for row in rows] != want_r:
        return [f"verify.csv: r column {[row['r'] for row in rows]} != {want_r}"]
    fails = []
    table = _verify_table(rows)
    for r, row in zip(r_values, table[:-1]):
        if row["holds"] != "true":
            fails.append(f"verify.csv r={r}: holds={row['holds']!r}")
        for col in ("sup_error", "bound"):
            if not (_finite(row[col]) and row[col] >= 0):
                fails.append(f"verify.csv r={r}: {col} {row[col]}")
    for r, row in zip(r_values + [m], table):
        if not _finite(row["lambda_max"]):
            fails.append(f"verify.csv r={r}: lambda_max {row['lambda_max']}")
        elif not (_finite(row["cert_residual"])
                  and abs(row["cert_residual"]) <= CERT_ATOL * max(1.0, abs(row["lambda_max"]))):
            fails.append(f"verify.csv r={r}: certificate residual {row['cert_residual']} is not at roundoff")
        if row["passive"] not in ("true", "false"):
            fails.append(f"verify.csv r={r}: passive={row['passive']!r}")
    sentinel = table[-1]
    if sentinel["passive"] != "true":
        fails.append(f"verify.csv r={m}: full-order model is not passive")
    if any(sentinel[col] is not None for col in ("sup_error", "bound")) or sentinel["holds"] != "":
        fails.append(f"verify.csv r={m}: sentinel row carries bound columns")
    if reference and not fails:
        fails += _verify_vs_reference(r_values, table)
    return fails


def _verify_table(rows: list[dict]) -> list[dict]:
    return [{k: (row[k] if k in ("holds", "passive") else _num(row[k])) for k in VERIFY_HEADER[1:]}
            for row in rows]


def _verify_vs_reference(r_values, table) -> list[str]:
    _, ref_rows = read_csv(REFERENCE_DIR / "verify.csv")
    _, bt_rows = read_csv(REFERENCE_DIR / "reduce_bt.csv")
    sigma = {int(row["r"]): float(row["sigma_r"]) for row in bt_rows}
    sigma_1 = sigma[1]
    ref = _verify_table(ref_rows)
    if len(ref) != len(table):
        return [f"verify.csv: {len(table)} rows, reference has {len(ref)}"]
    fails = []
    lam_scale = max(abs(row["lambda_max"]) for row in ref)
    for r, row, want in zip(r_values, table, ref):
        for col, rtol in (("sup_error", VERIFY_RTOL), ("bound", H2_RTOL)):
            if abs(row[col] - want[col]) > rtol * abs(want[col]):
                fails.append(f"verify.csv r={r}: {col} {row[col]!r} != reference {want[col]!r}")
        tol = _lambda_tol(lam_scale, sigma.get(r), sigma_1)
        if abs(row["lambda_max"] - want["lambda_max"]) > tol:
            fails.append(f"verify.csv r={r}: lambda_max {row['lambda_max']!r} != reference {want['lambda_max']!r}")
    return fails
