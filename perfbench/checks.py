"""Correctness checks on the output of one invocation.

Each output is reduced to a summary: per grid point of a table, the counts
of ok, errored and covering replications and the rmse, median absolute error
and mean width; for a standalone check, its headline numbers.  Summaries are
compared with a reference (the recorded one at the default and held-out
seeds, and the run's own first pass for every later pass): integers and
strings exactly, floats to REL_TOL.  Seed-free invariants are checked at every
seed.  The SHA-256 of each output is reported but not compared.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import statistics
from dataclasses import dataclass

# Loose enough for a last-bit change in a kernel, tight enough for a wrong
# answer.
REL_TOL = 1e-6


@dataclass
class Checked:
    summary: object
    problems: list
    errored: int  # replications the program itself reported as errored
    sha256: str


def check(inv, path: str) -> Checked:
    """Summarize and check the output `inv` wrote for the path it was given."""
    if path.endswith(".csv"):
        # panel-rate appends the experiment name to the path it is given.
        found = sorted(glob.glob(glob.escape(path[: -len(".csv")]) + "*.csv"))
        if len(found) != 1:
            return Checked(None, [f"expected one CSV table, found {found}"], 0, "")
        path = found[0]
    with open(path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    if path.endswith(".csv"):
        summary, problems = _table(inv, path)
        errored = sum(g["n_error"] for g in summary)
    else:
        with open(path) as fh:
            summary, problems = _STANDALONE[inv.command](json.load(fh))
        errored = 0
    return Checked(summary, problems, errored, sha)


def _table(inv, path: str) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(path + ".meta.json") as fh:
        config = json.load(fh)
    problems = []
    if len(rows) != inv.replications:
        problems.append(f"{len(rows)} rows, expected {inv.replications}")
    grids: dict[int, list] = {}
    for row in rows:
        grids.setdefault(int(row["grid_index"]), []).append(row)
    if sorted(grids) != list(range(inv.grid_points)):
        problems.append(f"grid indices {sorted(grids)}, expected {inv.grid_points} points")

    summary = []
    for gi, group in sorted(grids.items()):
        ok = [r for r in group if not r["error_tag"]]
        errors = [float(r["estimate"]) - float(r["truth"]) for r in ok if r["estimate"] != ""]
        widths = [float(r["width"]) for r in ok if r["width"] != ""]
        if not all(math.isfinite(v) for v in errors + widths):
            problems.append(f"grid {gi}: non-finite estimate or width")
        summary.append({
            "grid_index": gi,
            "params": group[0]["params"],
            "n_ok": len(ok),
            "n_error": len(group) - len(ok),
            "n_covered": sum(r["covered"] == "1" for r in ok),
            "rmse": math.sqrt(math.fsum(e * e for e in errors) / len(errors)) if errors else None,
            "median_abs_error": statistics.median(abs(e) for e in errors) if errors else None,
            "mean_width": math.fsum(widths) / len(widths) if widths else None,
        })
        problems += [f"grid {gi}: {p}" for p in _table_invariants(inv.command, config, summary[-1], widths)]
    return summary, problems


def _table_invariants(command: str, config: dict, grid: dict, widths: list) -> list:
    n, t = config["n"], config["T"]
    problems = []
    params = dict(kv.split("=", 1) for kv in grid["params"].split(";") if kv)
    if command == "entrywise-coverage" and math.isclose(
        float(params["tau"]), 2.0 * math.sqrt(n + t), rel_tol=1e-12
    ):
        # Far below the detection threshold the interval is the trivial one.
        if grid["n_covered"] != grid["n_ok"]:
            problems.append(f"sub-threshold coverage {grid['n_covered']}/{grid['n_ok']}, expected 1")
    if command == "panel-tradeoff":
        exact = 3.92 / (math.sqrt(n * t) * math.sqrt(1.0 + config["kappa2"] ** 2))
        if not all(math.isclose(w, exact, rel_tol=1e-9) for w in widths):
            problems.append(f"interval widths differ from {exact!r}")
    return problems


def _lower_bound(doc: dict) -> tuple[dict, list]:
    keys = ("size", "power", "critical_value", "tv_upper", "chi2_cross", "separation")
    problems = []
    if doc["tv_upper"] > doc["alpha"]:
        problems.append(f"TV upper bound {doc['tv_upper']} exceeds alpha {doc['alpha']}")
    return {k: doc[k] for k in keys}, problems


def _oracle(doc: dict) -> tuple[dict, list]:
    summary = {
        "kl": {k: doc["kl"][k] for k in ("exact", "mc")},
        "chi2": {k: doc["chi2"][k] for k in ("exact", "mc_trimmed")},
        "tv": {k: doc["tv"][k] for k in ("upper", "mc")},
    }
    problems = []
    # The panel shift pair at c = 1 has KL exactly 1/2 at any size.
    if abs(doc["kl"]["exact"] - 0.5) > 1e-10:
        problems.append(f"exact KL {doc['kl']['exact']!r}, expected 0.5")
    return summary, problems


def _noise_norm(doc: dict) -> tuple[dict, list]:
    problems = []
    if not math.isclose(doc["bound"], doc["factor"] * math.sqrt(doc["n"] + doc["T"]), rel_tol=1e-12):
        problems.append(f"bound {doc['bound']!r} is not factor * sqrt(n + T)")
    if not 0.0 <= doc["frequency"] <= 1.0:
        problems.append(f"frequency {doc['frequency']!r} outside [0, 1]")
    return {"frequency": doc["frequency"], "bound": doc["bound"]}, problems


def _calibrate(c0: float) -> tuple[dict, list]:
    problems = [] if math.isfinite(c0) and c0 > 0 else [f"C0 = {c0!r} is not positive"]
    return {"c0": c0}, problems


_STANDALONE = {
    "lower-bound-check": _lower_bound,
    "oracle-check": _oracle,
    "experiments.noise_norm_check": _noise_norm,
    "entrywise.calibrate_c0": _calibrate,
}


def compare(actual, expected, where: str = "") -> list[str]:
    """Differences between two summaries; floats agree to REL_TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{where}: fields differ"]
        return [p for k in expected for p in compare(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: lengths differ"]
        return [p for i, (a, e) in enumerate(zip(actual, expected)) for p in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and type(actual) is float:
        if actual == expected or math.isclose(actual, expected, rel_tol=REL_TOL):
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{where}: {actual!r}, expected {expected!r}"]
