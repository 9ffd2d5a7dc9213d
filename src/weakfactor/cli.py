"""Command-line front end for the prebuilt experiments.

Subcommands map one-to-one onto the experiment builders in
:mod:`weakfactor.experiments`.  Option values resolve in three layers:
the keyword defaults of the subcommand's builder, then a config file (INI
style, a ``[common]`` section plus one section per subcommand, each value
parsed by its flag's own type and choices), then command-line flags.

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
from functools import partial

from . import __version__, experiments
from .entrywise import DefaultC0Warning, calibrate_c0
from .montecarlo import (
    ExperimentError,
    InvalidGridPoint,
    ResultTable,
    rate_slope,
    run_experiment,
    write_csv,
    write_json_summary,
)

__all__ = ["main", "build_parser", "resolve_config"]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="INI config file")
    sub.add_argument("--out", metavar="PATH", help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), dest="format")
    sub.add_argument("--threads", type=int, help="worker cap (default: WEAKFACTOR_THREADS or 1)")
    sub.add_argument("--reps", type=int, help="replications per grid point")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--n", type=int)
    sub.add_argument("--T", type=int, dest="T")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakfactor",
        description="Factor-model inference experiments at arbitrary factor strength.",
    )
    parser.add_argument("--version", action="version", version=f"weakfactor {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser(
        "entrywise-rate",
        help="plug-in estimator error rate in strength or in matrix size",
    )
    _add_common(p)
    p.add_argument("--mode", choices=("tau", "size"), help="grid direction (default tau)")
    p.add_argument("--kappa", type=float)
    p.add_argument("--spike-frac", type=float, dest="spike_frac")

    p = subs.add_parser(
        "entrywise-coverage", help="adaptive confidence interval coverage and length"
    )
    _add_common(p)
    p.add_argument("--kappa", type=float)
    p.add_argument("--C0", type=float, dest="c0")
    p.add_argument(
        "--calibrate", action="store_true", default=None,
        help="calibrate C0 on a reference grid before running",
    )

    p = subs.add_parser(
        "adaptivity-demo",
        help="pre-test interval coverage collapse on the hidden-entry pair",
    )
    _add_common(p)
    p.add_argument("--kappa", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--tau2", type=float)
    p.add_argument("--alpha", type=float)

    p = subs.add_parser(
        "lower-bound-check",
        help="likelihood-ratio test power at the two-point testing pair",
    )
    _add_common(p)
    p.add_argument("--kappa", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--alpha", type=float)

    p = subs.add_parser(
        "panel-rate", help="panel trace estimator RMSE across sizes and strengths"
    )
    _add_common(p)
    p.add_argument(
        "--panel-config", dest="panel_config",
        choices=tuple(experiments.PANEL_CONFIGS) + ("all",),
    )
    p.add_argument("--beta", type=float)

    p = subs.add_parser(
        "panel-tradeoff",
        help="fixed-width strong-factor interval against the shifted alternative",
    )
    _add_common(p)
    p.add_argument("--kappa2", type=float)
    p.add_argument("--c", type=float)

    p = subs.add_parser(
        "oracle-check", help="information-theory oracles against Monte Carlo"
    )
    _add_common(p)

    return parser


# Builder parameters whose option has another name.
_OPTION_NAMES = {"t": "T", "config": "panel_config"}


def _ini_value(ini: configparser.ConfigParser, section: str, key: str, action):
    """A config-file value, parsed by the type and choices of its option."""
    raw = ini.get(section, key)
    try:
        if action.nargs == 0:  # an on/off flag such as --calibrate
            return ini.getboolean(section, key)
        value = action.type(raw) if action.type else raw
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"invalid choice {raw!r}, choose from {', '.join(action.choices)}")
    except ValueError as exc:
        raise ValueError(f"config key {key!r} in [{section}]: {exc}") from None
    return value


def _fixed_size_builder(sub: str, cfg: dict):
    """The builder that runs its own grid of sizes for this command, or None."""
    if sub == "panel-rate":
        return experiments.panel_rate_spec
    if sub == "entrywise-rate" and cfg["mode"] == "size":
        return experiments.rate_in_size_spec
    return None


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and flags (highest priority last)."""
    sub = args.subcommand
    # An option defaults to the front end's own default, or to the keyword
    # default of the subcommand's builder, or else to None.
    _, builder, front_end = _SUBCOMMANDS[sub]
    params = inspect.signature(builder).parameters
    defaults = {_OPTION_NAMES.get(name, name): p.default for name, p in params.items()}
    cfg = {
        key: front_end.get(key, defaults.get(key))
        for key in vars(args) if key not in ("subcommand", "config")
    }
    sized = []  # where the subcommand itself was given n or T
    c0_given = None  # where C0 was given, if it was

    if args.config:
        ini = configparser.ConfigParser()
        read = ini.read(args.config)
        if not read:
            raise FileNotFoundError(f"config file not found: {args.config}")
        # Keys name the subcommand's options in any case; configparser lowercases them.
        subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand")
        options = {a.dest.lower(): a for a in subparsers.choices[sub]._actions if a.dest in cfg}
        for section in ("common", sub):
            if ini.has_section(section):
                for key in ini.options(section):
                    action = options.get(key.replace("-", "_"))
                    if action is None:
                        raise ValueError(f"unknown config key {key!r} in [{section}]")
                    cfg[action.dest] = _ini_value(ini, section, key, action)
                    if section == sub and action.dest in ("n", "T"):
                        sized.append(f"{key} in [{sub}]")
                    if action.dest == "c0":
                        c0_given = f"{key} in [{section}]"

    for key, value in vars(args).items():
        if key in ("subcommand", "config") or value is None:
            continue
        cfg[key] = value
        if key in ("n", "T"):
            sized.append(f"--{key}")
        if key == "c0":
            c0_given = "--C0"

    # panel-rate and entrywise-rate --mode size run their builder's own
    # sizes: a size asked of them alone is refused, a [common] one ignored.
    builder = _fixed_size_builder(sub, cfg)
    if builder is not None:
        if sized:
            sizes = inspect.signature(builder).parameters["sizes"].default
            raise ValueError(f"{' and '.join(sized)} cannot apply: this command runs its own "
                             f"sizes, n = T in {sizes}")
        cfg["n"] = cfg["T"] = None

    # Calibration chooses C0, so a C0 given with it would be silently discarded.
    if cfg.get("calibrate") and c0_given:
        raise ValueError(f"{c0_given} cannot apply: calibration chooses C0")

    # The oracle checks report Monte Carlo standard errors, which need two draws.
    min_reps = 2 if sub == "oracle-check" else 1
    if cfg["reps"] < min_reps:
        raise ValueError(f"reps must be >= {min_reps}, got {cfg['reps']}")
    for key in ("n", "T"):
        if cfg[key] is not None and cfg[key] < 2:
            raise ValueError(f"{key} must be >= 2, got {cfg[key]}")
    for key in ("kappa", "kappa2", "c0", "tau", "tau2"):
        if cfg.get(key) is not None and not cfg[key] > 0:
            raise ValueError(f"{key} must be > 0, got {cfg[key]}")
    for key, upper in (("eta", 1.0), ("alpha", 1.0), ("c", 4.0)):
        if key in cfg and not 0 < cfg[key] < upper:
            raise ValueError(f"{key} must be in (0, {upper:g}), got {cfg[key]}")
    if cfg["threads"] is None:
        cfg["threads"] = int(os.environ.get("WEAKFACTOR_THREADS", "1"))
    if cfg["threads"] < 1:
        raise ValueError(f"threads must be >= 1, got {cfg['threads']}")
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


def _cmd_entrywise_rate(cfg: dict) -> int:
    if cfg["mode"] == "size":
        spec = experiments.rate_in_size_spec(
            reps=cfg["reps"], seed=cfg["seed"], kappa=cfg["kappa"],
            spike_frac=cfg["spike_frac"],
        )
    else:
        spec = experiments.rate_in_tau_spec(
            n=cfg["n"], t=cfg["T"], reps=cfg["reps"], seed=cfg["seed"],
            kappa=cfg["kappa"], spike_frac=cfg["spike_frac"],
        )
    table = run_experiment(spec, workers=cfg["threads"])
    print(f"{spec.name}: R = {spec.replications}, seed = {spec.master_seed}")
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
    build = partial(
        experiments.adaptive_coverage_spec,
        n=cfg["n"], t=cfg["T"], reps=cfg["reps"], seed=cfg["seed"], kappa=cfg["kappa"],
    )
    if cfg["calibrate"]:
        # Calibrate on the spec's strong grid points; the last one is the weak point.
        taus = [gp["tau"] for gp in build().grid[:-1]]
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
    spec = build(c0=cfg["c0"])
    table = run_experiment(spec, workers=cfg["threads"])
    print(f"{spec.name}: R = {spec.replications}, C0 = {cfg['c0']:g}")
    _print_summaries(table)
    _write_table(table, cfg)
    return 0


def _cmd_adaptivity_demo(cfg: dict) -> int:
    spec = experiments.pretest_control_spec(
        n=cfg["n"], t=cfg["T"], reps=cfg["reps"], seed=cfg["seed"],
        kappa=cfg["kappa"], eta=cfg["eta"], tau2=cfg["tau2"], alpha=cfg["alpha"],
    )
    table = run_experiment(spec, workers=cfg["threads"])
    print(f"{spec.name}: R = {spec.replications}")
    _print_summaries(table)
    alt = table.summaries[1]
    print(
        f"alternative-arm coverage {alt.coverage:.3f} "
        "(worst-case bound for shrinking-width intervals: 0.5)"
    )
    _write_table(table, cfg)
    return 0


def _cmd_lower_bound_check(cfg: dict) -> int:
    result = experiments.lr_power_check(
        n=cfg["n"], t=cfg["T"], tau=cfg["tau"], kappa=cfg["kappa"],
        alpha=cfg["alpha"], reps=cfg["reps"], seed=cfg["seed"], workers=cfg["threads"],
    )
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
        spec = experiments.panel_rate_spec(
            config=name, reps=cfg["reps"], seed=cfg["seed"], beta=cfg["beta"],
        )
        table = run_experiment(spec, workers=cfg["threads"])
        tables.append(table)
        print(f"{spec.name}: R = {spec.replications}")
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
    spec = experiments.panel_tradeoff_spec(
        n=cfg["n"], t=cfg["T"], reps=cfg["reps"], seed=cfg["seed"],
        kappa2=cfg["kappa2"], c=cfg["c"],
    )
    table = run_experiment(spec, workers=cfg["threads"])
    width = 3.92 / math.sqrt(cfg["n"] * cfg["T"]) / math.sqrt(1 + cfg["kappa2"] ** 2)
    bound = 0.5 + 1.96 / math.sqrt(1 + cfg["kappa2"] ** 2)
    print(f"{spec.name}: R = {spec.replications}, exact width = {width:.6g}")
    _print_summaries(table)
    print(f"alternative coverage bound 1/2 + 1.96 (1+kappa2^2)^(-1/2) = {bound:.4f}")
    _write_table(table, cfg)
    return 0


def _cmd_oracle_check(cfg: dict) -> int:
    result = experiments.oracle_checks(
        reps=cfg["reps"], seed=cfg["seed"], n=cfg["n"], t=cfg["T"],
    )
    kl, chi2, tv = result["kl"], result["chi2"], result["tv"]
    print(f"oracle checks at n={result['n']}, T={result['T']}, R={result['reps']}")
    print(f"  KL   exact {kl['exact']:.6f}  MC {kl['mc']:.6f}  rel err {kl['rel_err']:.4f}")
    print(f"  chi2 exact {chi2['exact']:.6f}  MC(trimmed) {chi2['mc_trimmed']:.6f}")
    print(f"  TV   upper {tv['upper']:.6f}  MC mean|LR-1| {tv['mc']:.6f}")
    _write_doc(result, cfg)
    return 0


# Per subcommand: its handler, the builder whose keyword defaults are its
# defaults, and the defaults of the options that only the front end reads.
_SUBCOMMANDS = {
    "entrywise-rate": (
        _cmd_entrywise_rate, experiments.rate_in_tau_spec, {"mode": "tau", "format": "csv"},
    ),
    "entrywise-coverage": (
        _cmd_entrywise_coverage, experiments.adaptive_coverage_spec,
        {"calibrate": False, "format": "csv"},
    ),
    "adaptivity-demo": (_cmd_adaptivity_demo, experiments.pretest_control_spec, {"format": "csv"}),
    "lower-bound-check": (_cmd_lower_bound_check, experiments.lr_power_check, {"format": "json"}),
    "panel-rate": (_cmd_panel_rate, experiments.panel_rate_spec, {"format": "csv"}),
    "panel-tradeoff": (_cmd_panel_tradeoff, experiments.panel_tradeoff_spec, {"format": "csv"}),
    "oracle-check": (_cmd_oracle_check, experiments.oracle_checks, {"format": "json"}),
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
        return _SUBCOMMANDS[args.subcommand][0](cfg)
    except InvalidGridPoint as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, ValueError, OSError) as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
