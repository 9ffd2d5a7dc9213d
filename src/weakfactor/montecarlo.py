"""Replication engine: estimators x instance generators -> coverage tables.

An :class:`ExperimentSpec` names a registered instance generator and
procedure, a grid of design points, a replication count and a master seed.
:func:`run_experiment` executes every (grid point, replication) cell with an
independent RNG stream derived from (master_seed, grid index, rep index), so
results are bitwise reproducible at any worker count.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import single_blas_thread
from .model import replication_rng

__all__ = [
    "ExperimentSpec",
    "ReplicationRecord",
    "GridSummary",
    "ResultTable",
    "ExperimentError",
    "InvalidGridPoint",
    "register_generator",
    "register_procedure",
    "get_generator",
    "get_procedure",
    "build_grid",
    "run_experiment",
    "rate_slope",
    "write_csv",
    "write_json_summary",
]

# Plugins are called with the keywords they read.  A generator is called as
# gen(**grid_point, **spec.generator_params) -> (truth, draw): it builds the
# grid point's ground truth once, and draw(rng) -> data samples one
# replication from it.  A procedure is called as
# proc(data, **spec.procedure_params) -> a result dict with at least
# "estimate", optionally "lower"/"upper" for interval procedures, plus
# free-form extras.  Each plugin's signature names the keys it reads, so a
# key that the plugin does not read raises InvalidGridPoint before any
# replication: a generator's when build_grid calls it, a procedure's when
# build_grid binds the procedure's signature to its keys.
_GENERATORS: dict[str, Callable] = {}
_PROCEDURES: dict[str, Callable] = {}

# Experiments abort if more than this fraction of a grid point's replications
# raise.
MAX_ERROR_FRACTION = 0.10


class ExperimentError(RuntimeError):
    pass


class InvalidGridPoint(ExperimentError):
    """A grid point that cannot be built: invalid input, before any replication."""


def register_generator(name: str):
    def deco(fn):
        _GENERATORS[name] = fn
        return fn

    return deco


def register_procedure(name: str):
    def deco(fn):
        _PROCEDURES[name] = fn
        return fn

    return deco


def get_generator(name: str) -> Callable:
    try:
        return _GENERATORS[name]
    except KeyError:
        raise KeyError(f"unknown generator {name!r}; known: {sorted(_GENERATORS)}")


def get_procedure(name: str) -> Callable:
    try:
        return _PROCEDURES[name]
    except KeyError:
        raise KeyError(f"unknown procedure {name!r}; known: {sorted(_PROCEDURES)}")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    generator: str
    procedure: str
    replications: int
    master_seed: int
    grid: tuple  # tuple of dicts of design parameters (n, T, strengths, ...)
    generator_params: dict = field(default_factory=dict)
    procedure_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"reps must be >= 1, got {self.replications}")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        object.__setattr__(self, "grid", tuple(dict(g) for g in self.grid))


@dataclass(frozen=True)
class ReplicationRecord:
    grid_index: int
    rep: int
    estimate: Optional[float]
    truth: Optional[float]
    covered: Optional[bool]
    width: Optional[float]
    error_tag: str = ""
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GridSummary:
    grid_index: int
    grid_point: dict
    n_ok: int
    n_error: int
    coverage: Optional[float]
    coverage_se: Optional[float]
    mean_width: Optional[float]
    width_se: Optional[float]
    rmse: Optional[float]
    rmse_se: Optional[float]
    median_abs_error: Optional[float]


@dataclass(frozen=True)
class ResultTable:
    spec: ExperimentSpec
    rows: tuple  # of ReplicationRecord
    summaries: tuple  # of GridSummary

    def ok_rows(self, grid_index: int) -> list:
        """The error-free rows of one grid point, in replication order."""
        return [r for r in self.rows if r.grid_index == grid_index and not r.error_tag]


def _run_cell(spec: ExperimentSpec, proc, points, gi: int, rep: int) -> ReplicationRecord:
    truth, draw = points[gi]
    try:
        data = draw(replication_rng(spec.master_seed, gi, rep))
        result = proc(data, **spec.procedure_params)
        estimate = result.get("estimate")
        lower, upper = result.get("lower"), result.get("upper")
        width = None if lower is None or upper is None else float(upper) - float(lower)
        for name, value in (("estimate", estimate), ("lower", lower), ("upper", upper),
                            ("width", width)):
            if value is not None and not math.isfinite(value):
                raise FloatingPointError(f"non-finite {name} {value!r}")
    except Exception as exc:  # recorded, not retried: retries would bias coverage
        return ReplicationRecord(
            grid_index=gi, rep=rep, estimate=None, truth=None,
            covered=None, width=None, error_tag=f"{type(exc).__name__}: {exc}",
        )
    covered = None if width is None else bool(lower <= truth <= upper)
    aux = {
        k: v for k, v in result.items() if k not in ("estimate", "lower", "upper")
    }
    return ReplicationRecord(
        grid_index=gi, rep=rep,
        estimate=None if estimate is None else float(estimate),
        truth=float(truth), covered=covered, width=width, aux=aux,
    )


def _summarize(spec: ExperimentSpec, gi: int, rows: list) -> GridSummary:
    ok = [r for r in rows if not r.error_tag]
    n_err = len(rows) - len(ok)

    coverage = coverage_se = None
    cov_rows = [r for r in ok if r.covered is not None]
    if cov_rows:
        p = float(np.mean([r.covered for r in cov_rows]))
        coverage = p
        coverage_se = math.sqrt(p * (1 - p) / len(cov_rows))

    mean_width = width_se = None
    widths = [r.width for r in ok if r.width is not None]
    if widths:
        mean_width = float(np.mean(widths))
        width_se = float(np.std(widths, ddof=1) / math.sqrt(len(widths))) if len(widths) > 1 else 0.0

    rmse = rmse_se = median_abs = None
    errs = [r.estimate - r.truth for r in ok if r.estimate is not None]
    if errs:
        sq = np.asarray(errs) ** 2
        rmse = float(np.sqrt(np.mean(sq)))
        if len(sq) > 1 and rmse > 0:
            # Delta method: se(rmse) ~ se(mean sq) / (2 rmse).
            rmse_se = float(np.std(sq, ddof=1) / math.sqrt(len(sq)) / (2 * rmse))
        median_abs = float(np.median(np.abs(errs)))

    return GridSummary(
        grid_index=gi, grid_point=dict(spec.grid[gi]),
        n_ok=len(ok), n_error=n_err,
        coverage=coverage, coverage_se=coverage_se,
        mean_width=mean_width, width_se=width_se,
        rmse=rmse, rmse_se=rmse_se, median_abs_error=median_abs,
    )


def build_grid(spec: ExperimentSpec) -> list:
    """Build every grid point of `spec`, in grid order, on one BLAS thread.

    A grid point that cannot be built raises :class:`InvalidGridPoint`, and
    so, before any point is built, do procedure keywords that the
    procedure's signature does not accept.
    """
    try:
        inspect.signature(get_procedure(spec.procedure)).bind(None, **spec.procedure_params)
    except TypeError as exc:
        raise InvalidGridPoint(f"{spec.name}: procedure {spec.procedure!r} cannot take "
                               f"{sorted(spec.procedure_params)}: {exc}") from exc
    gen = get_generator(spec.generator)
    points = []
    with single_blas_thread():
        for gi, grid_point in enumerate(spec.grid):
            try:
                points.append(gen(**grid_point, **spec.generator_params))
            except Exception as exc:
                raise InvalidGridPoint(f"{spec.name}: grid point {gi} {grid_point} "
                                       f"cannot be built: {type(exc).__name__}: {exc}") from exc
    return points


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ResultTable:
    """Run all replications; deterministic output regardless of worker count.

    Each grid point is built once, by :func:`build_grid`, before any
    replication runs; one that cannot be built raises
    :class:`InvalidGridPoint`, and more than MAX_ERROR_FRACTION error rows
    at a grid point raise :class:`ExperimentError`.  Builds and replications
    run on one BLAS thread (:func:`linalg.single_blas_thread`) at every
    worker count, and `workers` is clamped to the number of cells and of
    CPUs this process may run on (its affinity mask where the platform
    reports one, else os.cpu_count()), so workers never compete with BLAS
    threads for them.
    """
    proc = get_procedure(spec.procedure)
    cells = [
        (gi, rep)
        for gi in range(len(spec.grid))
        for rep in range(spec.replications)
    ]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(workers, len(cells), cpus)
    with single_blas_thread():
        points = build_grid(spec)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(lambda c: _run_cell(spec, proc, points, *c), cells))
        else:
            records = [_run_cell(spec, proc, points, gi, rep) for gi, rep in cells]

    summaries = []
    for gi in range(len(spec.grid)):
        grid_rows = [r for r in records if r.grid_index == gi]
        n_err = sum(1 for r in grid_rows if r.error_tag)
        if n_err > MAX_ERROR_FRACTION * len(grid_rows):
            tags = sorted({r.error_tag for r in grid_rows if r.error_tag})
            raise ExperimentError(
                f"{spec.name}: grid point {gi} had {n_err}/{len(grid_rows)} "
                f"errored replications ({tags[:3]})"
            )
        summaries.append(_summarize(spec, gi, grid_rows))
    return ResultTable(spec=spec, rows=tuple(records), summaries=tuple(summaries))


def rate_slope(table: ResultTable, x_key: str, y_key: str) -> float:
    """Log-log least-squares slope of a summary statistic across the grid.

    `x_key` is looked up in each grid point; `y_key` is a GridSummary field
    (e.g. "median_abs_error", "rmse", "mean_width").  All values must be
    positive and at least 3 grid points are required.
    """
    xs, ys = [], []
    for summ in table.summaries:
        x = summ.grid_point.get(x_key)
        y = getattr(summ, y_key)
        if x is None or y is None:
            raise ValueError(f"missing {x_key!r} or {y_key!r} at grid {summ.grid_index}")
        xs.append(float(x))
        ys.append(float(y))
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError("need at least 3 points for a rate slope")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("rate_slope requires positive values")
    lx, ly = np.log(xs), np.log(ys)
    return float(np.polyfit(lx, ly, 1)[0])


CSV_COLUMNS = [
    "experiment", "n", "T", "params", "grid_index", "rep",
    "estimate", "truth", "covered", "width", "error_tag",
]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)  # round-trippable, keeps determinism checks exact
    return str(v)


def write_csv(table: ResultTable, path) -> None:
    """One row per replication; schema documented in docs/schema.md."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in table.rows:
            gp = dict(table.spec.grid[r.grid_index])
            n = gp.pop("n", "")
            t = gp.pop("T", "")
            params = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(gp.items()))
            writer.writerow([
                table.spec.name, n, t, params, r.grid_index, r.rep,
                _fmt(r.estimate), _fmt(r.truth), _fmt(r.covered),
                _fmt(r.width), r.error_tag,
            ])


def write_json_summary(table: ResultTable, path, config: Optional[dict] = None) -> None:
    """Aggregated per-grid-point statistics plus full provenance."""
    from . import __version__

    doc = {
        "library_version": __version__,
        "experiment": table.spec.name,
        "spec": {
            "generator": table.spec.generator,
            "procedure": table.spec.procedure,
            "replications": table.spec.replications,
            "master_seed": table.spec.master_seed,
            "grid": list(table.spec.grid),
            "generator_params": table.spec.generator_params,
            "procedure_params": table.spec.procedure_params,
        },
        "config": config or {},
        "summaries": [asdict(s) for s in table.summaries],
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
