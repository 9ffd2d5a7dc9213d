"""Acceptance gate: the eleven desk-scale checks, each printed pass/fail.

Every test computes its statistic at the stated design size and tolerance,
records the verdict for the terminal summary, then asserts.  These are the
expensive Monte Carlo checks; the fast unit-level oracles live in the other
test modules.
"""

import math

import numpy as np
import pytest

from weakfactor import experiments as ex
from weakfactor.entrywise import calibrate_c0, estimate_m11
from weakfactor.montecarlo import rate_slope, run_experiment, write_csv

SEED = 20260823
WORKERS = 4


def test_criterion_1_noiseless_exactness(record_criterion):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        l = rng.standard_normal(12)
        f = rng.standard_normal(15)
        # Keep the identity well posed: mass off row 1 and column 1.
        l[1:] += np.sign(l[1:]) * 0.1
        f[1:] += np.sign(f[1:]) * 0.1
        m = np.outer(l, f)
        worst = max(worst, abs(estimate_m11(m) - m[0, 0]))
    passed = worst <= 1e-9
    record_criterion(1, "noiseless plug-in exactness", passed,
                     f"max |error| = {worst:.2e}")
    assert passed


def test_criterion_2_rate_in_tau(record_criterion):
    table = run_experiment(ex.rate_in_tau_spec(reps=500, seed=SEED),
                           workers=WORKERS)
    slope = rate_slope(table, "tau", "median_abs_error")
    passed = -1.15 <= slope <= -0.85
    record_criterion(2, "median error slope in tau within [-1.15, -0.85]",
                     passed, f"slope = {slope:.3f}")
    assert passed


def test_criterion_3_rate_in_size(record_criterion):
    table = run_experiment(ex.rate_in_size_spec(reps=500, seed=SEED),
                           workers=WORKERS)
    normalized = [
        s.median_abs_error * s.grid_point["tau"]
        / math.sqrt(s.grid_point["n"] + s.grid_point["T"])
        for s in table.summaries
    ]
    ratio = max(normalized) / min(normalized)
    passed = ratio < 2.0
    record_criterion(3, "size-normalized median error flat within factor 2",
                     passed, f"ratio = {ratio:.3f}")
    assert passed


def test_criterion_4_adaptive_coverage(record_criterion):
    n = t = 100
    taus = [f * math.sqrt(n * t) for f in (0.3, 0.5, 1.0)]
    c0 = calibrate_c0(n, t, kappa=1.0, tau_grid=taus, reps=200, seed=SEED)
    table = run_experiment(
        ex.adaptive_coverage_spec(n=n, t=t, reps=500, seed=SEED, c0=c0),
        workers=WORKERS,
    )
    coverages = [s.coverage for s in table.summaries]
    passed = all(c >= 0.93 for c in coverages)
    # The final grid point is far below the detection threshold and must
    # return the trivial interval with exact coverage.
    passed = passed and coverages[-1] == 1.0
    record_criterion(4, "adaptive CI coverage >= 0.93 on the strength grid",
                     passed, f"C0 = {c0:g}, coverages = {coverages}")
    assert passed


def test_criterion_5_pretest_coverage_collapse(record_criterion):
    n = t = 100
    table = run_experiment(ex.pretest_control_spec(n=n, t=t, reps=500, seed=SEED),
                           workers=WORKERS)
    base, alt = table.summaries
    widths = [r.width for r in table.rows if r.grid_index == 1 and r.width is not None]
    median_width = float(np.median(widths))
    width_budget = 5.0 * (n**-0.5 + t**-0.5)
    passed = (
        alt.coverage <= 0.6
        and base.coverage >= 0.90
        and median_width <= width_budget
    )
    record_criterion(
        5, "pre-test CI: nominal on base, collapses on hidden-entry alt",
        passed,
        f"base = {base.coverage:.3f}, alt = {alt.coverage:.3f}, "
        f"median width = {median_width:.3f} <= {width_budget:.3f}",
    )
    assert passed


def test_criterion_6_two_point_power_bound(record_criterion):
    result = ex.lr_power_check(n=100, t=100, kappa=1.0, alpha=0.05,
                               reps=2000, seed=SEED)
    budget = 0.10 + 3.0 * result["power_se"]
    passed = result["power"] <= budget and result["tv_upper"] <= 0.05
    record_criterion(
        6, "calibrated LR-test power bounded by 2 alpha at the testing pair",
        passed,
        f"power = {result['power']:.4f} <= {budget:.4f}, "
        f"TV bound = {result['tv_upper']:.4f}",
    )
    assert passed


def test_criterion_7_info_oracles(record_criterion):
    result = ex.oracle_checks(reps=100_000, seed=SEED, n=8, t=8)
    kl, chi2 = result["kl"], result["chi2"]
    kl_exact_ok = abs(kl["exact"] - 0.5) <= 1e-10
    kl_mc_ok = kl["rel_err"] <= 0.02
    chi2_ok = abs(chi2["mc_trimmed"] - chi2["exact"]) <= 3.0 * chi2["mc_se"]
    passed = kl_exact_ok and kl_mc_ok and chi2_ok
    record_criterion(
        7, "information oracles match closed forms and Monte Carlo",
        passed,
        f"KL exact = {kl['exact']:.12f}, MC rel err = {kl['rel_err']:.4f}, "
        f"chi2 |diff| = {abs(chi2['mc_trimmed'] - chi2['exact']):.2e}",
    )
    assert passed


@pytest.mark.parametrize("config", sorted(ex.PANEL_CONFIGS))
def test_criterion_8_panel_uniform_rate(config, record_criterion):
    table = run_experiment(ex.panel_rate_spec(config=config, reps=500, seed=SEED),
                           workers=WORKERS)
    scaled = [
        s.rmse * math.sqrt(s.grid_point["n"] * s.grid_point["T"])
        for s in table.summaries
    ]
    finite = all(np.isfinite(v) for v in scaled)
    ratio = max(scaled) / min(scaled)
    passed = finite and ratio < 2.0
    record_criterion(
        8, f"panel sqrt(nT) RMSE stable across sizes [{config}]",
        passed, f"values = {[round(v, 3) for v in scaled]}, ratio = {ratio:.3f}",
    )
    assert passed


def test_criterion_9_panel_tradeoff(record_criterion):
    n = t = 100
    kappa2 = 10.0
    table = run_experiment(
        ex.panel_tradeoff_spec(n=n, t=t, kappa2=kappa2, c=3.9, reps=500, seed=SEED),
        workers=WORKERS,
    )
    null_s, alt_s = table.summaries
    exact_width = 3.92 / (100.0 * math.sqrt(101.0))
    widths = {r.width for r in table.rows if r.width is not None}
    width_ok = all(abs(w - exact_width) <= 1e-15 for w in widths)
    passed = width_ok and alt_s.coverage <= 0.80 and null_s.coverage >= 0.90
    record_criterion(
        9, "fixed-width interval: exact width, undercovers the alternative",
        passed,
        f"width = {exact_width:.6e}, null = {null_s.coverage:.3f}, "
        f"alt = {alt_s.coverage:.3f}",
    )
    assert passed


def test_criterion_10_spectral_concentration(record_criterion):
    result = ex.noise_norm_check(n=100, t=100, reps=500, seed=SEED)
    passed = result["frequency"] >= 0.99
    record_criterion(10, "noise spectral norm within 3 sqrt(n+T)", passed,
                     f"frequency = {result['frequency']:.3f}")
    assert passed


def test_criterion_11_determinism(record_criterion, tmp_path):
    spec = ex.rate_in_tau_spec(n=50, t=50, reps=25, seed=SEED)
    files = []
    for i, workers in enumerate((1, 3, 7)):
        table = run_experiment(spec, workers=workers)
        path = tmp_path / f"run{i}.csv"
        write_csv(table, path)
        files.append(path.read_bytes())
    passed = files[0] == files[1] == files[2]
    record_criterion(11, "bitwise-identical CSV at any worker count", passed)
    assert passed
