"""Command-line front end for the prebuilt experiments.

Subcommands map one-to-one onto the experiment builders in
:mod:`weakfactor.experiments`, and everything the front end knows of them is
in two tables.  ``_OPTIONS`` declares each option once: its flag, its type or
choices, and its valid range.  ``_SUBCOMMANDS`` has one row per subcommand:
its help, its builder, the options it takes beyond the common ones, the
defaults of the options only the front end reads, its report handler, and
any minimum it raises above an option's own.  The parser, the config-file
keys, the defaults, the range checks and the builder calls all read these
two tables.

Option values resolve in three layers: the keyword defaults of the
subcommand's builder, then a config file (INI style, a ``[common]`` section
plus one section per subcommand, each value parsed by its option's type and
choices), then command-line flags.  Builder signatures are read from the
references the table holds, never from a module attribute at call time, and
``run_experiment``, ``calibrate_c0`` and the two checks are called through
their module bindings, so a tracer that rebinds those names still sees the
calls.

Exit codes: 0 on success, 1 on experiment failure (more than 10% of a grid
point's replications raised), 2 on usage errors and invalid input, a grid
point that cannot be built included; invalid input stops before any
replication runs.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import math
import os
import sys
import warnings
from typing import Callable, NamedTuple

from . import __version__, experiments, panel
from .entrywise import _PRETEST_K_MAX, DefaultC0Warning, calibrate_c0
from .montecarlo import (
    ExperimentError,
    InvalidGridPoint,
    ResultTable,
    build_grid,
    rate_slope,
    run_experiment,
    write_csv,
    write_json_summary,
)

__all__ = ["main", "build_parser", "resolve_config"]


class Option(NamedTuple):
    """One option.  Its key in ``_OPTIONS`` is the name it resolves to and,
    but for --config, its config-file key."""

    flag: str
    type: Callable = str  # bool: an on/off flag
    choices: tuple | None = None
    minimum: int | None = None  # the least valid value
    bounds: tuple[float, float] | None = None  # the open interval of valid values
    help: str | None = None
    metavar: str | None = None


class Subcommand(NamedTuple):
    """One subcommand: the builder whose keyword defaults are its defaults
    (a dict holds one builder per --mode), the options it takes beyond the
    common ones, the defaults of the options that only the front end reads,
    the handler that runs it and reports, and the minimums it raises above
    those of ``_OPTIONS``."""

    help: str
    builder: Callable | dict
    options: tuple[str, ...]
    defaults: dict
    report: Callable[[dict], int]
    minimums: dict = {}


_RATE_BUILDERS = {"tau": experiments.rate_in_tau_spec, "size": experiments.rate_in_size_spec}
_POSITIVE = (0, math.inf)

# Every option, under the name it resolves to; a subcommand's --help lists
# the common ones first, then its own in the order its row gives them.
_OPTIONS = {
    "config": Option("--config", metavar="FILE", help="INI config file"),
    "out": Option("--out", metavar="PATH", help="output file path"),
    "format": Option("--format", choices=("csv", "json")),
    "threads": Option(
        "--threads", int, minimum=1, help="worker cap (default: WEAKFACTOR_THREADS or 1)"
    ),
    "reps": Option("--reps", int, minimum=1, help="replications per grid point"),
    "seed": Option("--seed", int, minimum=0, help="master seed"),
    "n": Option("--n", int, minimum=2),
    "T": Option("--T", int, minimum=2),
    "mode": Option("--mode", choices=tuple(_RATE_BUILDERS), help="grid direction (default tau)"),
    "kappa": Option("--kappa", float, bounds=_POSITIVE),
    "spike_frac": Option("--spike-frac", float),
    "c0": Option("--C0", float, bounds=_POSITIVE),
    "calibrate": Option(
        "--calibrate", bool, help="calibrate C0 on a reference grid before running"
    ),
    "eta": Option("--eta", float, bounds=(0, 1)),
    "tau2": Option("--tau2", float, bounds=_POSITIVE),
    "alpha": Option("--alpha", float, bounds=(0, 1)),
    "tau": Option("--tau", float, bounds=_POSITIVE),
    "panel_config": Option("--panel-config", choices=tuple(experiments.PANEL_CONFIGS) + ("all",)),
    "beta": Option("--beta", float),
    "kappa2": Option("--kappa2", float, bounds=_POSITIVE),
    "c": Option("--c", float, bounds=(0, 4)),
}
_COMMON = ("config", "out", "format", "threads", "reps", "seed", "n", "T")

# Builder parameters whose option has another name.
_OPTION_NAMES = {"t": "T", "config": "panel_config"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakfactor",
        description="Factor-model inference experiments at arbitrary factor strength.",
    )
    parser.add_argument("--version", action="version", version=f"weakfactor {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, row in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=row.help)
        for key in _COMMON + row.options:
            option = _OPTIONS[key]
            if option.type is bool:
                kind = {"action": "store_true", "default": None}
            else:
                kind = {"type": option.type, "choices": option.choices, "metavar": option.metavar}
            sub.add_argument(option.flag, dest=key, help=option.help, **kind)
    return parser


def _builder(sub: str, mode: str | None) -> Callable:
    """The builder that `sub` runs in `mode`, as its row holds it.

    Signatures are read from this reference, never from the module attribute,
    which a wrapper taking (*args, **kwargs) may have replaced."""
    builder = _SUBCOMMANDS[sub].builder
    return builder[mode] if isinstance(builder, dict) else builder


def _arguments(cfg: dict) -> dict:
    """The keywords of the subcommand's builder that `cfg` has options for."""
    params = inspect.signature(_builder(cfg["subcommand"], cfg.get("mode"))).parameters
    names = {name: _OPTION_NAMES.get(name, name) for name in params}
    return {name: cfg[key] for name, key in names.items() if key in cfg}


def _ini_value(ini: configparser.ConfigParser, section: str, key: str, option: Option):
    """A config-file value, parsed by the type and choices of its option."""
    raw = ini.get(section, key)
    try:
        if option.type is bool:
            return ini.getboolean(section, key)
        value = option.type(raw)
        if option.choices is not None and value not in option.choices:
            raise ValueError(f"invalid choice {raw!r}, choose from {', '.join(option.choices)}")
    except ValueError as exc:
        raise ValueError(f"config key {key!r} in [{section}]: {exc}") from None
    return value


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and flags (highest priority last)."""
    sub = args.subcommand
    row = _SUBCOMMANDS[sub]
    keys = [key for key in _COMMON + row.options if key != "config"]
    # An option defaults to the front end's own default, or to the keyword
    # default of the subcommand's builder, or else to None.
    params = inspect.signature(_builder(sub, row.defaults.get("mode"))).parameters
    defaults = {_OPTION_NAMES.get(name, name): p.default for name, p in params.items()}
    cfg = {key: row.defaults.get(key, defaults.get(key)) for key in keys}
    given = []  # (option, its section or None for a flag, where it was given)

    if args.config:
        ini = configparser.ConfigParser()
        if not ini.read(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        # Keys name the subcommand's options in any case; configparser lowercases them.
        by_name = {key.lower(): key for key in keys}
        for section in ("common", sub):
            if ini.has_section(section):
                for name in ini.options(section):
                    key = by_name.get(name.replace("-", "_"))
                    if key is None:
                        raise ValueError(f"unknown config key {name!r} in [{section}]")
                    cfg[key] = _ini_value(ini, section, name, _OPTIONS[key])
                    given.append((key, section, f"{name} in [{section}]"))

    for key in keys:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
            given.append((key, None, _OPTIONS[key].flag))

    # panel-rate and entrywise-rate --mode size run their builder's own
    # sizes: a size asked of them alone is refused, a [common] one ignored.
    sizes = inspect.signature(_builder(sub, cfg.get("mode"))).parameters.get("sizes")
    if sizes is not None:
        sized = [where for key, section, where in given
                 if key in ("n", "T") and section != "common"]
        if sized:
            raise ValueError(f"{' and '.join(sized)} cannot apply: this command runs its own "
                             f"sizes, n = T in {sizes.default}")
        cfg["n"] = cfg["T"] = None

    # Calibration chooses C0, so a C0 given with it would be silently discarded.
    c0_given = [where for key, _, where in given if key == "c0"]
    if cfg.get("calibrate") and c0_given:
        raise ValueError(f"{c0_given[-1]} cannot apply: calibration chooses C0")

    if cfg["threads"] is None:
        raw = os.environ.get("WEAKFACTOR_THREADS", "1")
        try:
            cfg["threads"] = int(raw)
            if cfg["threads"] < _OPTIONS["threads"].minimum:
                raise ValueError(f"threads must be >= {_OPTIONS['threads'].minimum}, got {raw}")
        except ValueError as exc:
            raise ValueError(f"environment variable WEAKFACTOR_THREADS: {exc}") from None
    for key in keys:
        value, option = cfg[key], _OPTIONS[key]
        if value is None:
            continue
        minimum = row.minimums.get(key, option.minimum)
        if minimum is not None and value < minimum:
            raise ValueError(f"{key} must be >= {minimum}, got {value}")
        if option.bounds is not None and not option.bounds[0] < value < option.bounds[1]:
            low, high = option.bounds
            valid = f"> {low:g}" if high == math.inf else f"in ({low:g}, {high:g})"
            raise ValueError(f"{key} must be {valid}, got {value}")
    cfg["subcommand"] = sub
    cfg["library_version"] = __version__
    return cfg


def _recorded(cfg: dict) -> dict:
    """The config an output records: all but the output path, so that one
    command writes the same bytes wherever its output goes."""
    return {key: value for key, value in cfg.items() if key != "out"}


def _write_table(table: ResultTable, cfg: dict) -> None:
    out = cfg.get("out")
    if not out:
        return
    if cfg["format"] == "csv":
        write_csv(table, out)
        with open(out + ".meta.json", "w") as fh:
            json.dump(_recorded(cfg), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        write_json_summary(table, out, config=_recorded(cfg))


def _write_doc(doc: dict, cfg: dict) -> None:
    out = cfg.get("out")
    if not out:
        return
    doc = {"config": _recorded(cfg), **doc}
    if cfg["format"] == "csv":
        import csv as _csv

        with open(out, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["key", "value"])
            for key, value in sorted(_flatten(doc).items()):
                writer.writerow([key, value])
    else:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        else:
            flat[name] = value
    return flat


def _print_summaries(table: ResultTable) -> None:
    for s in table.summaries:
        parts = [f"  grid {s.grid_index} {s.grid_point}"]
        if s.coverage is not None:
            parts.append(f"coverage {s.coverage:.3f} (se {s.coverage_se:.3f})")
        if s.mean_width is not None:
            parts.append(f"width {s.mean_width:.4g}")
        if s.rmse is not None:
            parts.append(f"rmse {s.rmse:.4g}")
        if s.median_abs_error is not None:
            parts.append(f"med|err| {s.median_abs_error:.4g}")
        if s.n_error:
            parts.append(f"errors {s.n_error}")
        print("  ".join(parts))


def _spec(cfg: dict):
    """The experiment spec that the subcommand's builder makes of `cfg`."""
    return _builder(cfg["subcommand"], cfg.get("mode"))(**_arguments(cfg))


def _run(cfg: dict) -> ResultTable:
    return run_experiment(_spec(cfg), workers=cfg["threads"])


def _cmd_entrywise_rate(cfg: dict) -> int:
    table = _run(cfg)
    print(f"{table.spec.name}: R = {table.spec.replications}, seed = {table.spec.master_seed}")
    _print_summaries(table)
    if cfg["mode"] == "tau":
        slope = rate_slope(table, "tau", "median_abs_error")
        print(f"log-log slope of median error vs tau: {slope:.3f} (theory: -1)")
    else:
        for s in table.summaries:
            gp = s.grid_point
            norm = s.median_abs_error * gp["tau"] / math.sqrt(gp["n"] + gp["T"])
            print(f"  n=T={gp['n']}: med|err| * tau / sqrt(n+T) = {norm:.4f}")
    _write_table(table, cfg)
    return 0


def _cmd_entrywise_coverage(cfg: dict) -> int:
    if cfg["calibrate"]:
        # Calibrate on the spec's strong grid points; the last one is the weak
        # point.  Every point is built first, so that one that cannot be built
        # stops the run before the calibration's replications.
        spec = _spec(cfg)
        build_grid(spec)
        taus = [gp["tau"] for gp in spec.grid[:-1]]
        # calibrate_c0 warns when no replication calibrated C0 and it returns
        # the default: record its warnings, label the value, then re-emit them.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DefaultC0Warning)
            cfg["c0"] = calibrate_c0(
                cfg["n"], cfg["T"], cfg["kappa"], taus, reps=cfg["reps"], seed=cfg["seed"],
                workers=cfg["threads"],
            )
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
        fell_back = any(issubclass(w.category, DefaultC0Warning) for w in caught)
        note = "  (default: no replication above the detection threshold)" if fell_back else ""
        print(f"calibrated C0 = {cfg['c0']:.3f}{note}")
    table = _run(cfg)
    print(f"{table.spec.name}: R = {table.spec.replications}, C0 = {cfg['c0']:g}")
    _print_summaries(table)
    _write_table(table, cfg)
    return 0


def _cmd_adaptivity_demo(cfg: dict) -> int:
    table = _run(cfg)
    print(f"{table.spec.name}: R = {table.spec.replications}")
    _print_summaries(table)
    alt = table.summaries[1]
    print(
        f"alternative-arm coverage {alt.coverage:.3f} "
        "(worst-case bound for shrinking-width intervals: 0.5)"
    )
    _write_table(table, cfg)
    return 0


def _cmd_lower_bound_check(cfg: dict) -> int:
    result = experiments.lr_power_check(**_arguments(cfg), workers=cfg["threads"])
    print(f"two-point testing pair at n={result['n']}, T={result['T']}, tau={result['tau']:g}")
    print(f"  TV upper bound      {result['tv_upper']:.6f} (target <= alpha = {result['alpha']})")
    print(f"  chi2 cross moment   {result['chi2_cross']:.6f}")
    print(f"  calibrated size     {result['size']:.4f}")
    print(f"  power               {result['power']:.4f} (bound 2*alpha = {result['power_bound']})")
    _write_doc(result, cfg)
    return 0


def _cmd_panel_rate(cfg: dict) -> int:
    names = (
        tuple(experiments.PANEL_CONFIGS)
        if cfg["panel_config"] == "all"
        else (cfg["panel_config"],)
    )
    tables = []
    for name in names:
        table = _run(dict(cfg, panel_config=name))
        tables.append(table)
        print(f"{table.spec.name}: R = {table.spec.replications}")
        for s in table.summaries:
            scaled = s.rmse * math.sqrt(s.grid_point["n"] * s.grid_point["T"])
            print(f"  n=T={s.grid_point['n']}: sqrt(nT) * RMSE = {scaled:.3f}")
    if cfg.get("out"):
        root, ext = os.path.splitext(cfg["out"])
        for table in tables:
            sub_cfg = dict(cfg, out=f"{root}-{table.spec.name}{ext}")
            _write_table(table, sub_cfg)
    return 0


def _cmd_panel_tradeoff(cfg: dict) -> int:
    table = _run(cfg)
    width = 2.0 * panel.ci_star_half_width(cfg["n"], cfg["T"], cfg["kappa2"])
    bound = 0.5 + panel.Z_975 / math.sqrt(1 + cfg["kappa2"] ** 2)
    print(f"{table.spec.name}: R = {table.spec.replications}, exact width = {width:.6g}")
    _print_summaries(table)
    print(f"alternative coverage bound 1/2 + 1.96 (1+kappa2^2)^(-1/2) = {bound:.4f}")
    _write_table(table, cfg)
    return 0


def _cmd_oracle_check(cfg: dict) -> int:
    result = experiments.oracle_checks(**_arguments(cfg))
    kl, chi2, tv = result["kl"], result["chi2"], result["tv"]
    print(f"oracle checks at n={result['n']}, T={result['T']}, R={result['reps']}")
    print(f"  KL   exact {kl['exact']:.6f}  MC {kl['mc']:.6f}  rel err {kl['rel_err']:.4f}")
    print(f"  chi2 exact {chi2['exact']:.6f}  MC(trimmed) {chi2['mc_trimmed']:.6f}")
    print(f"  TV   upper {tv['upper']:.6f}  MC mean|LR-1| {tv['mc']:.6f}")
    _write_doc(result, cfg)
    return 0


_SUBCOMMANDS = {
    "entrywise-rate": Subcommand(
        "plug-in estimator error rate in strength or in matrix size", _RATE_BUILDERS,
        ("mode", "kappa", "spike_frac"), {"mode": "tau", "format": "csv"}, _cmd_entrywise_rate,
    ),
    "entrywise-coverage": Subcommand(
        "adaptive confidence interval coverage and length", experiments.adaptive_coverage_spec,
        ("kappa", "c0", "calibrate"), {"calibrate": False, "format": "csv"},
        _cmd_entrywise_coverage,
    ),
    # The pre-test takes _PRETEST_K_MAX + 1 triplets of the n x (T - 1) data
    # without column 1.
    "adaptivity-demo": Subcommand(
        "pre-test interval coverage collapse on the hidden-entry pair",
        experiments.pretest_control_spec, ("kappa", "eta", "tau2", "alpha"), {"format": "csv"},
        _cmd_adaptivity_demo, {"n": _PRETEST_K_MAX + 1, "T": _PRETEST_K_MAX + 2},
    ),
    "lower-bound-check": Subcommand(
        "likelihood-ratio test power at the two-point testing pair", experiments.lr_power_check,
        ("kappa", "tau", "alpha"), {"format": "json"}, _cmd_lower_bound_check,
    ),
    "panel-rate": Subcommand(
        "panel trace estimator RMSE across sizes and strengths", experiments.panel_rate_spec,
        ("panel_config", "beta"), {"format": "csv"}, _cmd_panel_rate,
    ),
    "panel-tradeoff": Subcommand(
        "fixed-width strong-factor interval against the shifted alternative",
        experiments.panel_tradeoff_spec, ("kappa2", "c"), {"format": "csv"}, _cmd_panel_tradeoff,
    ),
    # The oracle checks report Monte Carlo standard errors, which need two draws.
    "oracle-check": Subcommand(
        "information-theory oracles against Monte Carlo", experiments.oracle_checks, (),
        {"format": "json"}, _cmd_oracle_check, {"reps": 2},
    ),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _SUBCOMMANDS[args.subcommand].report(cfg)
    except InvalidGridPoint as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, ValueError, OSError) as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
