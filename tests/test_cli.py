import inspect
import json
import os
import subprocess
import sys

import pytest

import weakfactor
from weakfactor import __version__, cli, experiments, montecarlo
from weakfactor.cli import build_parser, main, resolve_config


def run_cli(args):
    return main(list(args))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "weakfactor" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["not-a-subcommand"])
    assert exc.value.code == 2


def test_entrywise_rate_deterministic_outputs(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    common = ["entrywise-rate", "--n", "50", "--T", "50", "--reps", "10",
              "--seed", "7"]
    assert run_cli(common + ["--out", str(out1), "--threads", "1"]) == 0
    assert run_cli(common + ["--out", str(out2), "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["library_version"]
    assert meta["subcommand"] == "entrywise-rate"


def test_json_output_embeds_config(tmp_path):
    out = tmp_path / "cov.json"
    code = run_cli(["entrywise-coverage", "--n", "30", "--T", "30",
                    "--reps", "5", "--seed", "3", "--format", "json",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["n"] == 30
    assert doc["library_version"]
    assert len(doc["summaries"]) == 4


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[common]\nreps = 4\nseed = 11\n\n[entrywise-coverage]\nc0 = 6.5\n")
    code = run_cli(["entrywise-coverage", "--config", str(cfg),
                    "--n", "30", "--T", "30", "--reps", "6"])
    assert code == 0
    out = capsys.readouterr().out
    # Flag beats config file; config file beats default.
    assert "R = 6" in out
    assert "C0 = 6.5" in out


def test_config_file_missing_and_bad_key(tmp_path):
    code = run_cli(["entrywise-rate", "--config", str(tmp_path / "absent.ini")])
    assert code == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[common]\nbogus_key = 1\n")
    assert run_cli(["entrywise-rate", "--config", str(bad)]) == 2


def test_config_keys_match_options_case_insensitively(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[common]\nT = 20\n")
    resolved = resolve_config(build_parser().parse_args(["entrywise-rate", "--config", str(cfg)]))
    assert resolved["T"] == 20 and type(resolved["T"]) is int


@pytest.mark.parametrize("sub, ini", [
    ("entrywise-rate", "[common]\nmode = bogus\n"),
    ("entrywise-rate", "[common]\nformat = xml\n"),
    ("panel-rate", "[panel-rate]\npanel_config = bogus\n"),
    ("entrywise-coverage", "[entrywise-coverage]\ncalibrate = maybe\n"),
], ids=["mode", "format", "panel_config", "calibrate"])
def test_bad_config_value_exit_code(sub, ini, tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(ini)
    assert run_cli([sub, "--config", str(cfg), "--reps", "1"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""  # nothing ran


# Each case is (argv, environment variables).
@pytest.mark.parametrize("flags", [
    (["entrywise-rate", "--reps", "0"], {}),
    (["entrywise-rate", "--n", "1"], {}),
    (["entrywise-rate", "--T", "1"], {}),
    (["entrywise-rate", "--threads", "0"], {}),
    (["entrywise-rate", "--threads", "-4"], {}),
    (["entrywise-rate", "--config", "threads0.ini"], {}),
    (["entrywise-rate"], {"WEAKFACTOR_THREADS": "0"}),
    (["oracle-check", "--reps", "1"], {}),
    (["entrywise-coverage", "--kappa", "-1"], {}),
    (["panel-tradeoff", "--kappa2", "0"], {}),
    (["entrywise-coverage", "--C0", "0"], {}),
    (["lower-bound-check", "--tau", "0"], {}),
    (["lower-bound-check", "--tau", "-1"], {}),
    (["lower-bound-check", "--alpha", "1"], {}),
    (["adaptivity-demo", "--tau2", "-1"], {}),
    (["adaptivity-demo", "--eta", "1.5"], {}),
    (["adaptivity-demo", "--eta", "0"], {}),
    (["adaptivity-demo", "--alpha", "0"], {}),
    (["panel-tradeoff", "--c", "5"], {}),
    (["panel-tradeoff", "--c", "0"], {}),
    (["entrywise-coverage", "--seed", "-1"], {}),
    (["entrywise-coverage", "--config", "seed-1.ini"], {}),
    (["oracle-check", "--seed", "-1"], {}),
    (["oracle-check", "--config", "seed-1.ini"], {}),
    # The pre-test takes 3 triplets of the n x (T - 1) data without column 1;
    # tau2 = 0.1 lies below the hidden-entry pair's tau0 at both sizes.
    (["adaptivity-demo", "--n", "3", "--T", "3", "--tau2", "0.1", "--reps", "2"], {}),
    (["adaptivity-demo", "--n", "2", "--T", "10", "--tau2", "0.1", "--reps", "2"], {}),
    # At n = T = 6 the coverage run's weak point asks for tau = 2 sqrt(n + T),
    # above kappa sqrt(nT): the grid is built before anything is calibrated.
    (["entrywise-coverage", "--calibrate", "--n", "6", "--T", "6", "--reps", "2"], {}),
    # An output that cannot be written: its directory is missing, or it is
    # a directory.  panel-rate's per-experiment files share the directory.
    (["panel-tradeoff", "--n", "10", "--T", "10", "--reps", "1", "--out", "missing/x.csv"], {}),
    (["panel-rate", "--panel-config", "all", "--reps", "1", "--out", "missing/x.csv"], {}),
    (["oracle-check", "--reps", "20", "--out", "missing/x.json"], {}),
    (["entrywise-rate", "--reps", "1", "--out", "."], {}),
])
def test_invalid_size_exit_code(flags, tmp_path, monkeypatch, capsys):
    argv, env = flags
    draws = []
    # The engine's draws, and those of the standalone checks.
    for module in (montecarlo, experiments):
        monkeypatch.setattr(module, "replication_rng", lambda *key: draws.append(key))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "threads0.ini").write_text("[common]\nthreads = 0\n")
    (tmp_path / "seed-1.ini").write_text("[common]\nseed = -1\n")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == "" and draws == []  # nothing ran


# panel-rate, and entrywise-rate in size mode, run their builders' own sizes.
@pytest.mark.parametrize("argv, ini", [
    (["panel-rate", "--n", "10", "--T", "10", "--panel-config", "strong"], None),
    (["panel-rate", "--T", "10"], None),
    (["panel-rate"], "[panel-rate]\nn = 10\n"),
    (["entrywise-rate", "--mode", "size", "--n", "10"], None),
    (["entrywise-rate", "--mode", "size"], "[entrywise-rate]\nT = 10\n"),
    (["entrywise-rate"], "[entrywise-rate]\nmode = size\nn = 10\n"),
], ids=["panel-rate-flags", "panel-rate-T", "panel-rate-ini", "entrywise-rate-size-flag",
        "entrywise-rate-size-ini", "entrywise-rate-ini-mode"])
def test_fixed_size_commands_reject_n_and_t(argv, ini, tmp_path, capsys):
    if ini is not None:
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
    assert run_cli(argv + ["--reps", "1", "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "runs its own sizes" in captured.err
    assert captured.out == ""  # nothing ran
    assert list(tmp_path.glob("out*")) == []


def test_common_sizes_apply_only_where_read(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[common]\nn = 30\nT = 20\n")

    def resolved(*argv):
        return resolve_config(build_parser().parse_args([*argv, "--config", str(cfg)]))

    assert resolved("panel-rate")["n"] is None and resolved("panel-rate")["T"] is None
    size_mode = resolved("entrywise-rate", "--mode", "size")
    assert size_mode["n"] is None and size_mode["T"] is None
    assert resolved("entrywise-rate")["n"] == 30
    assert resolved("entrywise-coverage")["T"] == 20


def _assert_invalid_grid_point(argv, grid_point, capsys, monkeypatch):
    draws = []
    monkeypatch.setattr(montecarlo, "replication_rng", lambda *key: draws.append(key))
    assert run_cli(argv + ["--reps", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"grid point {grid_point}" in captured.err and "cannot be built" in captured.err
    assert draws == [] and captured.out == ""  # no replication ran
    return captured.err


def test_experiment_failure_exit_code(capsys, monkeypatch):
    # A grid point that cannot be built is invalid input: exit 2 before any
    # replication runs.  At n = T = 10 the hidden-entry pair has no room for
    # its perturbation (tau0 = sqrt(nT)/24 < tau2), and the message names both.
    err = _assert_invalid_grid_point(["adaptivity-demo", "--n", "10", "--T", "10"], 0,
                                     capsys, monkeypatch)
    assert "tau2 = 1 must not exceed tau0 = 0.416667" in err


@pytest.mark.parametrize("argv, grid_point", [
    # The strongest point asks for tau = sqrt(nT), above kappa sqrt(nT).
    (["entrywise-coverage", "--n", "20", "--T", "20", "--kappa", "0.5"], 2),
    # tau = 5 lies above the testing pair's limit kappa sqrt(nT) / 12.
    (["lower-bound-check", "--n", "20", "--T", "20", "--tau", "5"], 0),
    # The panel pair declares ranks r0 + r1 = 3, not below min(n, T); at
    # n = T = 3 the least-squares slope is not identified.
    (["panel-tradeoff", "--n", "2", "--T", "2"], 0),
    (["panel-tradeoff", "--n", "3", "--T", "3"], 0),
    # A NaN slope fails |beta| <= kappa.
    (["panel-rate", "--panel-config", "strong", "--beta", "nan"], 0),
], ids=["entrywise-coverage", "lower-bound-check", "panel-tradeoff", "panel-tradeoff-n3",
        "panel-rate-beta-nan"])
def test_invalid_grid_point_exit_code(argv, grid_point, capsys, monkeypatch):
    _assert_invalid_grid_point(argv, grid_point, capsys, monkeypatch)


def test_error_rows_abort_exit_code(capsys, monkeypatch):
    # More than 10% of a grid point's replications raising is an experiment
    # failure, not invalid input.
    def failing(data):
        raise FloatingPointError("no estimate")

    monkeypatch.setitem(montecarlo._PROCEDURES, "pca_point", failing)
    assert run_cli(["entrywise-rate", "--n", "10", "--T", "10", "--reps", "3"]) == 1
    assert "errored replications" in capsys.readouterr().err


def test_overflowing_interval_width_exit_code(tmp_path, capsys):
    # kappa_bar = 1e308 makes the trivial interval [-1e308, 1e308], whose
    # width overflows: an error row, not a cover, and no summary is written.
    out = tmp_path / "x.json"
    argv = ["entrywise-coverage", "--kappa", "1e308", "--n", "20", "--T", "20", "--reps", "2",
            "--format", "json", "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "errored replications" in err and "non-finite interval bound or width" in err
    assert not out.exists()


def test_lower_bound_check_prints_tv(tmp_path, capsys):
    out = tmp_path / "lb.json"
    code = run_cli(["lower-bound-check", "--reps", "100", "--seed", "2",
                    "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "TV upper bound" in text
    doc = json.loads(out.read_text())
    assert doc["tv_upper"] <= 0.05
    assert doc["config"]["alpha"] == 0.05


def test_oracle_check_runs_small(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    code = run_cli(["oracle-check", "--reps", "2000", "--seed", "2",
                    "--out", str(out), "--format", "csv"])
    assert code == 0
    assert "KL" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "key,value"
    assert any(row.startswith("kl.exact") for row in rows)


def test_panel_rate_splits_outputs(tmp_path, capsys):
    out = tmp_path / "panel.csv"
    code = run_cli(["panel-rate", "--panel-config", "strong", "--reps", "3",
                    "--seed", "2", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "panel-panel-rate-strong.csv").exists()
    assert "sqrt(nT) * RMSE" in capsys.readouterr().out


def test_adaptivity_demo_and_tradeoff_run(capsys):
    assert run_cli(["adaptivity-demo", "--n", "30", "--T", "30",
                    "--reps", "5", "--seed", "2"]) == 0
    assert "alternative-arm coverage" in capsys.readouterr().out
    assert run_cli(["panel-tradeoff", "--n", "20", "--T", "20",
                    "--reps", "3", "--seed", "2"]) == 0
    assert "coverage bound" in capsys.readouterr().out


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("WEAKFACTOR_THREADS", "2")
    out1 = tmp_path / "env.csv"
    assert run_cli(["entrywise-rate", "--n", "40", "--T", "40", "--reps", "4",
                    "--seed", "5", "--out", str(out1)]) == 0
    meta = json.loads((tmp_path / "env.csv.meta.json").read_text())
    assert meta["threads"] == 2


@pytest.mark.parametrize("value, reason", [
    ("abc", "invalid literal"), ("2.5", "invalid literal"), ("0", "threads must be >= 1"),
])
def test_threads_env_errors_name_the_variable(value, reason, monkeypatch, capsys):
    monkeypatch.setenv("WEAKFACTOR_THREADS", value)
    assert run_cli(["oracle-check", "--reps", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: environment variable WEAKFACTOR_THREADS: ")
    assert reason in captured.err and captured.out == ""


def test_lower_bound_check_same_result_at_two_threads(tmp_path):
    docs = []
    for threads in (1, 2):
        out = tmp_path / f"lb{threads}.json"
        assert run_cli(["lower-bound-check", "--n", "20", "--T", "20", "--reps", "50",
                        "--seed", "3", "--threads", str(threads), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"].pop("threads") == threads
        assert "out" not in doc["config"]
        docs.append(doc)
    assert docs[0] == docs[1]


# Each command writes one file, or a CSV table beside its .meta.json.
@pytest.mark.parametrize("argv, names", [
    (["lower-bound-check", "--n", "20", "--T", "20", "--reps", "20"], ["out"]),
    (["oracle-check", "--reps", "200"], ["out"]),
    (["entrywise-coverage", "--n", "20", "--T", "20", "--reps", "2", "--format", "json"],
     ["out"]),
    (["entrywise-rate", "--n", "20", "--T", "20", "--reps", "2"], ["out", "out.meta.json"]),
], ids=["lower-bound-check", "oracle-check", "json-summary", "csv-meta"])
def test_output_bytes_independent_of_output_directory(argv, names, tmp_path):
    written = []
    for where in ("a", "b/deeper"):
        folder = tmp_path / where
        folder.mkdir(parents=True)
        assert run_cli(argv + ["--seed", "4", "--out", str(folder / "out")]) == 0
        written.append([(folder / name).read_bytes() for name in names])
    assert written[0] == written[1]
    assert str(tmp_path).encode() not in b"".join(written[0])


# resolve_config at default flags, as the literal defaults table gave it.
_COMMON = {"out": None, "seed": 20260823, "threads": 1}
DEFAULT_CONFIGS = {
    "entrywise-rate": {
        "T": 100, "format": "csv", "kappa": 1.0, "mode": "tau", "n": 100,
        "reps": 500, "spike_frac": 0.75,
    },
    "entrywise-coverage": {
        "T": 100, "c0": 8.0, "calibrate": False, "format": "csv", "kappa": 1.0,
        "n": 100, "reps": 500,
    },
    "adaptivity-demo": {
        "T": 100, "alpha": 0.05, "eta": 0.5, "format": "csv", "kappa": 1.0,
        "n": 100, "reps": 500, "tau2": 1.0,
    },
    "lower-bound-check": {
        "T": 100, "alpha": 0.05, "format": "json", "kappa": 1.0, "n": 100,
        "reps": 2000, "tau": None,
    },
    "panel-rate": {
        "T": None, "beta": 0.5, "format": "csv", "n": None, "panel_config": "strong",
        "reps": 500,
    },
    "panel-tradeoff": {
        "T": 100, "c": 3.9, "format": "csv", "kappa2": 10.0, "n": 100, "reps": 500,
    },
    "oracle-check": {"T": 8, "format": "json", "n": 8, "reps": 100000},
}


@pytest.mark.parametrize("sub", list(DEFAULT_CONFIGS))
def test_resolve_config_defaults(sub, monkeypatch):
    monkeypatch.delenv("WEAKFACTOR_THREADS", raising=False)
    cfg = resolve_config(build_parser().parse_args([sub]))
    expected = {
        **_COMMON, **DEFAULT_CONFIGS[sub], "subcommand": sub, "library_version": __version__,
    }
    assert cfg == expected
    assert {k: type(v) for k, v in cfg.items()} == {k: type(v) for k, v in expected.items()}


def _wrap_every_function(monkeypatch):
    """Rebind every function name of every weakfactor module to a wrapper
    taking (*args, **kwargs), as a tracer does; a signature read through
    such a name has no parameters and no defaults."""
    wrappers = {}

    def wrap(fn):
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "weakfactor" or name.startswith("weakfactor."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__.startswith("weakfactor"):
                    monkeypatch.setattr(module, attr, wrappers.setdefault(id(value), wrap(value)))
    assert wrappers


@pytest.mark.parametrize("sub", list(DEFAULT_CONFIGS))
def test_resolve_config_defaults_with_wrapped_functions(sub, monkeypatch):
    monkeypatch.delenv("WEAKFACTOR_THREADS", raising=False)
    _wrap_every_function(monkeypatch)
    assert inspect.signature(experiments.rate_in_tau_spec).parameters.keys() == {"args", "kwargs"}
    cfg = resolve_config(build_parser().parse_args([sub]))
    expected = {
        **_COMMON, **DEFAULT_CONFIGS[sub], "subcommand": sub, "library_version": __version__,
    }
    assert cfg == expected


# One small run per subcommand and mode, each with options off their defaults.
@pytest.mark.parametrize("argv", [
    ["entrywise-rate", "--n", "20", "--T", "20", "--kappa", "2", "--spike-frac", "0.5"],
    ["entrywise-rate", "--mode", "size", "--kappa", "2"],
    ["entrywise-coverage", "--n", "20", "--T", "20", "--kappa", "2", "--C0", "6"],
    ["adaptivity-demo", "--n", "30", "--T", "30", "--eta", "0.4", "--alpha", "0.1"],
    ["lower-bound-check", "--n", "20", "--T", "20", "--tau", "1", "--alpha", "0.1"],
    ["panel-rate", "--panel-config", "weak_d", "--beta", "0.3"],
    ["panel-tradeoff", "--n", "20", "--T", "20", "--kappa2", "8", "--c", "2"],
    ["oracle-check", "--n", "4", "--T", "4"],
], ids=["entrywise-rate-tau", "entrywise-rate-size", "entrywise-coverage", "adaptivity-demo",
        "lower-bound-check", "panel-rate", "panel-tradeoff", "oracle-check"])
def test_wrapped_functions_write_the_same_bytes(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("WEAKFACTOR_THREADS", raising=False)
    written = []
    for folder in ("plain", "wrapped"):
        if folder == "wrapped":
            _wrap_every_function(monkeypatch)
        (tmp_path / folder).mkdir()
        out = tmp_path / folder / "out"
        assert run_cli(argv + ["--reps", "3", "--seed", "4", "--out", str(out)]) == 0
        files = {path.name: path.read_bytes() for path in (tmp_path / folder).iterdir()}
        written.append((capsys.readouterr().out, files))
    assert written[0] == written[1]


def test_calibrate_reports_the_default_when_nothing_calibrates(capsys):
    # At n = T = 20 every calibration replication lies below the detection threshold.
    with pytest.warns(RuntimeWarning, match="calibrated 0 of 3 replications"):
        assert run_cli(["entrywise-coverage", "--calibrate", "--n", "20", "--T", "20",
                        "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "calibrated C0 = 8.000  (default: no replication above the detection threshold)" in out


def test_calibrate_labels_a_calibrated_value_equal_to_the_default(monkeypatch, capsys):
    # The label says whether anything calibrated, not whether C0 equals 8.
    monkeypatch.setattr(cli, "calibrate_c0", lambda *args, **kwargs: 8.0)
    assert run_cli(["entrywise-coverage", "--calibrate", "--n", "20", "--T", "20",
                    "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "calibrated C0 = 8.000\n" in out and "(default" not in out


def test_calibrate_reads_draws_the_coverage_run_does_not(monkeypatch):
    # Both runs key their streams on (master seed, grid index, rep): a
    # calibration on the coverage run's own seed would read its draws.
    keys = {"calibration": set(), "coverage": set()}
    phase = ["coverage"]
    replication_rng, calibrate_c0 = montecarlo.replication_rng, cli.calibrate_c0

    def recording_rng(*key):
        keys[phase[0]].add(key)
        return replication_rng(*key)

    def calibrating(*args, **kwargs):
        phase[0] = "calibration"
        try:
            return calibrate_c0(*args, **kwargs)
        finally:
            phase[0] = "coverage"

    monkeypatch.setattr(montecarlo, "replication_rng", recording_rng)
    monkeypatch.setattr(cli, "calibrate_c0", calibrating)
    with pytest.warns(RuntimeWarning, match="calibrated 0 of 6 replications"):
        assert cli.main(["entrywise-coverage", "--calibrate", "--n", "20", "--T", "20",
                         "--reps", "2"]) == 0
    assert len(keys["calibration"]) == 6 and len(keys["coverage"]) == 8
    assert keys["calibration"].isdisjoint(keys["coverage"])


# Calibration chooses C0, so a C0 given with it, from the flag or from the
# config file and equal to the default or not, is refused before anything runs.
@pytest.mark.parametrize("argv, ini", [
    (["--C0", "3.0", "--calibrate"], None),
    (["--C0", "8.0", "--calibrate"], None),
    (["--calibrate"], "[entrywise-coverage]\nc0 = 3.0\n"),
    (["--C0", "3.0"], "[entrywise-coverage]\ncalibrate = true\n"),
    ([], "[entrywise-coverage]\nc0 = 8.0\ncalibrate = true\n"),
], ids=["flags", "flags-default-value", "ini-c0", "ini-calibrate", "ini-both"])
def test_calibrate_refuses_a_given_c0(argv, ini, tmp_path, monkeypatch, capsys):
    def ran(*args, **kwargs):
        raise AssertionError("ran despite the refusal")

    monkeypatch.setattr(cli, "calibrate_c0", ran)
    monkeypatch.setattr(cli, "run_experiment", ran)
    if ini is not None:
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
    assert run_cli(["entrywise-coverage", "--n", "20", "--T", "20", "--reps", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "calibration chooses C0" in captured.err
    assert captured.out == ""


def test_c0_applies_without_calibration(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[entrywise-coverage]\nc0 = 3.0\ncalibrate = false\n")
    args = build_parser().parse_args(["entrywise-coverage", "--config", str(cfg)])
    assert resolve_config(args)["c0"] == 3.0


# Every ground truth of a command (panel-rate's fixed-effect and regressor
# means at n = T = 50, 100 and 200, the coverage and calibration means of
# entrywise-coverage) has rank at most 2, so its spectrum comes from the
# rank-4 sketch: no values-only SVD has a shorter side above 4.
@pytest.mark.parametrize("argv", [
    ["panel-rate", "--panel-config", "all", "--reps", "1"],
    ["entrywise-coverage", "--calibrate", "--n", "20", "--T", "20", "--reps", "1"],
], ids=["panel-rate-all", "entrywise-coverage-calibrate"])
def test_each_ground_truth_decomposed_once_per_command(argv, svd_values_calls):
    assert run_cli(argv) == 0
    assert svd_values_calls
    assert all(min(shape) <= 4 for shape in svd_values_calls), svd_values_calls


# Every subcommand at small sizes, then noise_norm_check at n = T = 200 (Krylov
# route) and one ground truth (its spectrum's sketch).
# With "blocked" as its first argument the run fails any import of scipy.
_SCIPY_FREE_RUN = """
import json, os, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
    try:
        import scipy.linalg
    except ImportError:
        pass
    else:
        raise SystemExit("scipy was not blocked")
import numpy as np
from weakfactor import cli, experiments, model
out = sys.argv[2]
for i, argv in enumerate(json.loads(sys.argv[3])):
    code = cli.main(argv + ["--out", os.path.join(out, f"{i}-{argv[0]}")])
    if code != 0:
        raise SystemExit(f"{argv}: exit {code}")
print(json.dumps(experiments.noise_norm_check(n=200, t=200, reps=2)))
u, v = np.linspace(-1.0, 1.0, 40), np.cos(np.arange(30.0))
truth = model.FactorInstance(np.outer(u, v) + 0.5 * np.outer(u**2, v**2), kappa=2.0)
print(truth.spectrum.tobytes().hex())
print(sorted(name for name, module in sys.modules.items() if name.startswith("scipy") and module))
"""
_SMALL_RUNS = [
    ["entrywise-rate", "--n", "20", "--T", "20", "--reps", "2"],
    ["entrywise-coverage", "--n", "20", "--T", "20", "--reps", "2"],
    ["adaptivity-demo", "--n", "30", "--T", "30", "--reps", "2"],
    ["lower-bound-check", "--n", "20", "--T", "20", "--reps", "20"],
    ["panel-rate", "--panel-config", "strong", "--reps", "1"],
    ["panel-tradeoff", "--n", "20", "--T", "20", "--reps", "2"],
    ["oracle-check", "--n", "4", "--T", "4", "--reps", "200"],
]


def test_cli_runs_without_scipy(tmp_path):
    assert sorted(run[0] for run in _SMALL_RUNS) == sorted(cli._SUBCOMMANDS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(weakfactor.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = {}
    for mode in ("blocked", "plain"):
        out = tmp_path / mode
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN, mode, str(out),
                               json.dumps(_SMALL_RUNS)],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.splitlines()[-1] == b"[]"  # no scipy module loaded
        runs[mode] = proc.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(runs["blocked"][1]) >= len(_SMALL_RUNS)
    assert runs["blocked"] == runs["plain"]
