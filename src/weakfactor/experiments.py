"""Prebuilt experiments: instance families, registered procedures, checks.

This module wires the estimators to the replication engine.  It registers
the instance generators and procedures used by the command-line front end,
and provides builder functions returning ready-to-run
:class:`~weakfactor.montecarlo.ExperimentSpec` objects for each headline
experiment (rate in strength, rate in size, adaptive coverage, the
pre-test negative control, panel rates, and the panel coverage tradeoff).

The likelihood-ratio power and noise-norm checks, like
:func:`weakfactor.entrywise.calibrate_c0`, run as specs through
:func:`~weakfactor.montecarlo.run_experiment` and reduce its error-free rows;
more than 10% error rows at a grid point abort them with ExperimentError.
Only the information-theory oracle cross-checks run outside the engine, on
one BLAS thread, each reading its RNG stream in fixed blocks of
replications.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .adversarial import (
    chi_square_cross,
    entry_perturbation_pair,
    gaussian_kl,
    likelihood_ratio_stat,
    panel_shift_pair,
    rank_one_testing_pair,
)
from .entrywise import (
    DEFAULT_C0,
    adaptive_ci_from_estimate,
    adaptive_estimate_m11,
    estimate_m11,
    naive_pretest_ci,
)
from .linalg import single_blas_thread, spectral_norm
from .model import (
    DEFAULT_SEED,
    FactorInstance,
    PanelInstance,
    replication_rng,
    sample_observation,
    sample_panel,
)
from .montecarlo import ExperimentSpec, register_generator, register_procedure, run_experiment
from .panel import ci_star, estimate_beta

__all__ = [
    "spiked_rank_one_instance",
    "flat_rank_one_instance",
    "orthogonal_unit_pair",
    "panel_means",
    "rate_in_tau_spec",
    "rate_in_size_spec",
    "adaptive_coverage_spec",
    "pretest_control_spec",
    "panel_rate_spec",
    "panel_tradeoff_spec",
    "lr_power_check",
    "noise_norm_check",
    "oracle_checks",
    "PANEL_CONFIGS",
]


def flat_rank_one_instance(n: int, t: int, tau: float, kappa: float = 1.0) -> FactorInstance:
    """Constant matrix with sigma_1 = tau; every entry equals tau/sqrt(nT)."""
    if not 0 < tau <= kappa * math.sqrt(n * t):
        raise ValueError("tau must lie in (0, kappa sqrt(nT)]")
    return FactorInstance(np.full((n, t), tau / math.sqrt(n * t)), kappa)


def spiked_rank_one_instance(
    n: int,
    t: int,
    tau: float,
    kappa: float = 1.0,
    spike_frac: float = 0.75,
) -> FactorInstance:
    """Rank-one instance with a distinguished first loading coordinate.

    M = L 1_T' with L = (s, c, ..., c), s = spike_frac * kappa and c chosen
    so that sigma_1 = tau.  The first coordinate stays fixed as tau varies,
    which makes the family suitable for rate-in-tau experiments; the flat
    instance is the best case for the plug-in estimator and hides the rate.
    The spike is capped below the loading norm when tau is small, and raised
    when matching tau would push c above kappa (at tau = kappa sqrt(nT) the
    instance degenerates to the flat one).
    """
    if not 0.0 < spike_frac < 1.0:
        raise ValueError("spike_frac must be in (0, 1)")
    if not 0 < tau <= kappa * math.sqrt(n * t):
        raise ValueError("tau must lie in (0, kappa sqrt(nT)]")
    norm_sq = tau * tau / t  # required ||L||^2
    # Cap the spike below both the entry bound and the total loading norm so
    # the remaining coordinates stay real and nonzero.
    s = spike_frac * min(kappa, math.sqrt(norm_sq))
    c_sq = (norm_sq - s * s) / (n - 1)
    if c_sq > kappa * kappa:
        s = math.sqrt(norm_sq - kappa * kappa * (n - 1))
        c_sq = kappa * kappa
    loading = np.full(n, math.sqrt(c_sq))
    loading[0] = s
    return FactorInstance(np.outer(loading, np.ones(t)), kappa)


def orthogonal_unit_pair(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Two deterministic orthonormal vectors in R^m.

    The first is the normalized ones vector; the second alternates sign and
    is projected against the first (exactly orthogonal for even m).
    """
    a = np.ones(m) / math.sqrt(m)
    c = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    c = c - (c @ a) * a
    return a, c / np.linalg.norm(c)


def panel_means(
    n: int, t: int, sigma_m: float, sigma_d: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one fixed-effect and regressor means with M'D = 0 and MD' = 0."""
    a, c = orthogonal_unit_pair(n)
    b, d = orthogonal_unit_pair(t)
    return sigma_m * np.outer(a, b), sigma_d * np.outer(c, d)


# ---------------------------------------------------------------------------
# Registered generators.  Signature: (grid_point, params) -> (truth, draw),
# where draw(rng) -> data samples from the instance built once per grid point.
# params carry every key that the spec's builder sets; no defaults live here.


def _arm(grid_point, null: str = "null") -> str:
    """The field of a two-point pair holding the instance the arm names.

    Called before the pair is built, so a bad arm costs no decomposition.
    """
    arm = grid_point["arm"]
    if arm not in (null, "alt"):
        raise ValueError(f"arm must be {null!r} or 'alt', got {arm!r}")
    return "null_instance" if arm == null else "alt_instance"


@register_generator("rank_one_entrywise")
def _gen_rank_one(grid_point, params):
    n, t, tau = int(grid_point["n"]), int(grid_point["T"]), float(grid_point["tau"])
    kappa = float(params["kappa"])
    spike_frac = params.get("spike_frac")
    if spike_frac is None:
        inst = flat_rank_one_instance(n, t, tau, kappa)
    else:
        inst = spiked_rank_one_instance(n, t, tau, kappa, float(spike_frac))
    return inst.mean[0, 0], partial(sample_observation, inst)


@register_generator("perturbation_pair_arm")
def _gen_perturbation_arm(grid_point, params):
    arm = _arm(grid_point, null="base")
    n, t = int(grid_point["n"]), int(grid_point["T"])
    kappa = float(params["kappa"])
    eta = float(params["eta"])
    tau0 = math.sqrt(n * t) / 24.0
    tau2 = float(params["tau2"])
    base = FactorInstance(np.full((n, t), kappa * (1.0 - eta)), kappa)
    pair = entry_perturbation_pair(base, eta=eta, tau0=tau0, tau2=tau2)
    inst = getattr(pair, arm)
    return inst.mean[0, 0], partial(sample_observation, inst)


@register_generator("panel_config")
def _gen_panel(grid_point, params):
    n, t = int(grid_point["n"]), int(grid_point["T"])
    beta = float(params["beta"])
    sigma_m = math.sqrt(n + t) if params["weak_m"] else math.sqrt(n * t)
    sigma_d = math.sqrt(n + t) if params["weak_d"] else math.sqrt(n * t)
    m, d = panel_means(n, t, sigma_m, sigma_d)
    inst = PanelInstance(
        mean=m, regressor_mean=d, sigma_eps=1.0, sigma_u=1.0, beta=beta,
        r0=1, r1=1, kappa=10.0,
    )
    return beta, partial(sample_panel, inst)


@register_generator("panel_pair_arm")
def _gen_panel_arm(grid_point, params):
    arm = _arm(grid_point)
    n, t = int(grid_point["n"]), int(grid_point["T"])
    kappa2 = float(params["kappa2"])
    c = float(params["c"])
    m1, d1 = panel_means(n, t, math.sqrt(n * t), kappa2 * math.sqrt(n * t))
    pair = panel_shift_pair(m1, d1, c)
    inst = getattr(pair, arm)
    return inst.beta, partial(sample_panel, inst)


@register_generator("testing_pair_arm")
def _gen_testing_arm(grid_point, params):
    arm = _arm(grid_point)
    n, t = int(grid_point["n"]), int(grid_point["T"])
    pair = rank_one_testing_pair(n, t, params["tau"], params["kappa"], params["alpha"])
    inst = getattr(pair, arm)
    # Draws carry both means, which the likelihood-ratio statistic needs.
    null_m, alt_m = pair.null_instance.mean, pair.alt_instance.mean
    return inst.mean[0, 0], lambda rng: (sample_observation(inst, rng), null_m, alt_m)


@register_generator("pure_noise")
def _gen_pure_noise(grid_point, params):
    shape = (int(grid_point["n"]), int(grid_point["T"]))
    return 0.0, lambda rng: rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# Registered procedures.  Signature: (data, grid_point, params) -> result dict,
# with params as for the generators.


@register_procedure("pca_point")
def _proc_pca(data, grid_point, params):
    return {"estimate": estimate_m11(data)}


@register_procedure("adaptive_point")
def _proc_adaptive(data, grid_point, params):
    est = adaptive_estimate_m11(data, float(params["kappa_bar"]))
    return {"estimate": est.value, "truncated": est.truncated, "spectral_stat": est.spectral_stat}


@register_procedure("adaptive_interval")
def _proc_adaptive_ci(data, grid_point, params):
    kappa_bar = float(params["kappa_bar"])
    c0 = float(params["c0"])
    est = adaptive_estimate_m11(data, kappa_bar)
    iv = adaptive_ci_from_estimate(est, *data.shape, kappa_bar, c0)
    return {
        "estimate": est.value,
        "lower": iv.lower,
        "upper": iv.upper,
        "truncated": est.truncated,
    }


@register_procedure("naive_interval")
def _proc_naive_ci(data, grid_point, params):
    iv = naive_pretest_ci(data, alpha=float(params["alpha"]))
    return {
        "estimate": 0.5 * (iv.lower + iv.upper),
        "lower": iv.lower,
        "upper": iv.upper,
    }


@register_procedure("lr_stat")
def _proc_lr_stat(data, grid_point, params):
    x, null_m, alt_m = data
    return {"estimate": likelihood_ratio_stat(x, null_m, alt_m)}


@register_procedure("spectral_norm")
def _proc_spectral_norm(data, grid_point, params):
    return {"estimate": spectral_norm(data)}


@register_procedure("panel_trace")
def _proc_panel_trace(data, grid_point, params):
    x, y = data
    est = estimate_beta(x, y, int(params["r0"]), int(params["r1"]))
    return {"estimate": est.beta_hat, "r_hat": est.r_hat}


@register_procedure("panel_ci_star")
def _proc_panel_ci_star(data, grid_point, params):
    x, y = data
    iv = ci_star(x, y, float(params["kappa2"]))
    return {
        "estimate": 0.5 * (iv.lower + iv.upper),
        "lower": iv.lower,
        "upper": iv.upper,
    }


# ---------------------------------------------------------------------------
# Experiment builders.


def rate_in_tau_spec(
    n: int = 100,
    t: int = 100,
    tau_fracs=(0.1, 0.2, 0.4, 0.8),
    reps: int = 500,
    seed: int = DEFAULT_SEED,
    kappa: float = 1.0,
    spike_frac: float = 0.75,
) -> ExperimentSpec:
    """Median plug-in error against factor strength; slope should be -1."""
    grid = tuple(
        {"n": n, "T": t, "tau": f * math.sqrt(n * t)} for f in tau_fracs
    )
    return ExperimentSpec(
        name="entrywise-rate-tau",
        generator="rank_one_entrywise",
        procedure="pca_point",
        replications=reps,
        master_seed=seed,
        grid=grid,
        generator_params={"kappa": kappa, "spike_frac": spike_frac},
    )


def rate_in_size_spec(
    sizes=(50, 100, 200),
    tau_frac: float = 0.5,
    reps: int = 500,
    seed: int = DEFAULT_SEED,
    kappa: float = 1.0,
    spike_frac: float = 0.75,
) -> ExperimentSpec:
    """Median error across matrix sizes at proportional strength.

    The normalization median * tau / sqrt(n + T) should be flat.
    """
    grid = tuple(
        {"n": m, "T": m, "tau": tau_frac * m} for m in sizes
    )
    return ExperimentSpec(
        name="entrywise-rate-size",
        generator="rank_one_entrywise",
        procedure="pca_point",
        replications=reps,
        master_seed=seed,
        grid=grid,
        generator_params={"kappa": kappa, "spike_frac": spike_frac},
    )


def adaptive_coverage_spec(
    n: int = 100,
    t: int = 100,
    tau_fracs=(0.3, 0.5, 1.0),
    reps: int = 500,
    seed: int = DEFAULT_SEED,
    kappa: float = 1.0,
    c0: float = DEFAULT_C0,
) -> ExperimentSpec:
    """Adaptive CI coverage over a strength grid plus a weak-signal point.

    The final grid point has tau of order sqrt(n + T), far below the
    detection threshold; there the interval is the trivial one and coverage
    is exact.
    """
    grid = [
        {"n": n, "T": t, "tau": f * math.sqrt(n * t)} for f in tau_fracs
    ]
    grid.append({"n": n, "T": t, "tau": 2.0 * math.sqrt(n + t)})
    return ExperimentSpec(
        name="entrywise-coverage",
        generator="rank_one_entrywise",
        procedure="adaptive_interval",
        replications=reps,
        master_seed=seed,
        grid=tuple(grid),
        generator_params={"kappa": kappa},
        procedure_params={"kappa_bar": kappa, "c0": c0},
    )


def pretest_control_spec(
    n: int = 100,
    t: int = 100,
    reps: int = 500,
    seed: int = DEFAULT_SEED,
    kappa: float = 1.0,
    eta: float = 0.5,
    tau2: float = 1.0,
    alpha: float = 0.05,
) -> ExperimentSpec:
    """Pre-test interval coverage on the hidden-entry pair: the negative control.

    Grid point 0 is the strong base instance (coverage should be nominal),
    grid point 1 the alternative whose observed-data law is identical but
    whose (1,1) entry moved; a shrinking-width interval must miss it.
    """
    grid = (
        {"n": n, "T": t, "arm": "base"},
        {"n": n, "T": t, "arm": "alt"},
    )
    return ExperimentSpec(
        name="adaptivity-demo",
        generator="perturbation_pair_arm",
        procedure="naive_interval",
        replications=reps,
        master_seed=seed,
        grid=grid,
        generator_params={"kappa": kappa, "eta": eta, "tau2": tau2},
        procedure_params={"alpha": alpha},
    )


# Panel strength configurations for the uniform-rate experiment: the fitted
# ranks in (d) overstate the true ranks (1, 1) by one each.
PANEL_CONFIGS = {
    "strong": {"weak_m": False, "weak_d": False, "r0": 1, "r1": 1},
    "weak_m": {"weak_m": True, "weak_d": False, "r0": 1, "r1": 1},
    "weak_d": {"weak_m": False, "weak_d": True, "r0": 1, "r1": 1},
    "overstated": {"weak_m": False, "weak_d": False, "r0": 2, "r1": 2},
}


def panel_rate_spec(
    config: str = "strong",
    sizes=(50, 100, 200),
    reps: int = 500,
    seed: int = DEFAULT_SEED,
    beta: float = 0.5,
) -> ExperimentSpec:
    """sqrt(nT)-scaled RMSE of the trace estimator across sizes."""
    cfg = PANEL_CONFIGS[config]
    grid = tuple({"n": m, "T": m} for m in sizes)
    return ExperimentSpec(
        name=f"panel-rate-{config}",
        generator="panel_config",
        procedure="panel_trace",
        replications=reps,
        master_seed=seed,
        grid=grid,
        generator_params={
            "beta": beta, "weak_m": cfg["weak_m"], "weak_d": cfg["weak_d"],
        },
        procedure_params={"r0": cfg["r0"], "r1": cfg["r1"]},
    )


def panel_tradeoff_spec(
    n: int = 100,
    t: int = 100,
    kappa2: float = 10.0,
    c: float = 3.9,
    reps: int = 500,
    seed: int = DEFAULT_SEED,
) -> ExperimentSpec:
    """Fixed-width strong-factor interval against the shifted alternative.

    Grid point 0 is the strong-factor null (nominal coverage), grid point 1
    the KL-close alternative where the fixed width forces undercoverage.
    """
    grid = (
        {"n": n, "T": t, "arm": "null"},
        {"n": n, "T": t, "arm": "alt"},
    )
    return ExperimentSpec(
        name="panel-tradeoff",
        generator="panel_pair_arm",
        procedure="panel_ci_star",
        replications=reps,
        master_seed=seed,
        grid=grid,
        generator_params={"kappa2": kappa2, "c": c},
        procedure_params={"kappa2": kappa2},
    )


# ---------------------------------------------------------------------------
# Standalone checks.


def lr_power_check(
    n: int = 100,
    t: int = 100,
    tau: float | None = None,
    kappa: float = 1.0,
    alpha: float = 0.05,
    reps: int = 2000,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> dict:
    """Power of the empirically calibrated likelihood-ratio test.

    The critical value is the (1 - alpha) quantile of the statistic over an
    independent batch of null draws, so the test has exact finite-sample
    size up to Monte Carlo error.  At the two-point construction the power
    cannot exceed 2 alpha plus statistical slack.
    """
    if tau is None:
        tau = kappa * math.sqrt(n * t) / 12.0
    spec = ExperimentSpec(
        name="lr-power",
        generator="testing_pair_arm",
        procedure="lr_stat",
        replications=reps,
        master_seed=seed,
        grid=({"n": n, "T": t, "arm": "null"}, {"n": n, "T": t, "arm": "alt"}),
        generator_params={"tau": tau, "kappa": kappa, "alpha": alpha},
    )
    # Validating the pair runs dense linear algebra outside the engine; cap
    # BLAS as the engine does, or idle BLAS threads spin on the other cores.
    # The engine builds the pair first, so a pair that cannot be built stops
    # there, as InvalidGridPoint, before any replication.
    with single_blas_thread():
        table = run_experiment(spec, workers)
        pair = rank_one_testing_pair(n, t, tau, kappa, alpha)
    null_stats, alt_stats = (np.array([r.estimate for r in table.ok_rows(gi)]) for gi in (0, 1))
    critical = float(np.quantile(null_stats, 1.0 - alpha))
    power = float(np.mean(alt_stats > critical))
    size = float(np.mean(null_stats > critical))
    power_se = math.sqrt(max(power * (1.0 - power), 1e-12) / alt_stats.size)
    return {
        "n": n, "T": t, "tau": tau, "kappa": kappa, "alpha": alpha,
        "reps": reps, "seed": seed,
        "critical_value": critical,
        "size": size,
        "power": power,
        "power_se": power_se,
        "power_bound": 2.0 * alpha,
        "tv_upper": pair.info["tv_upper"],
        "chi2_cross": pair.info["chi2_cross"],
        "separation": pair.separation,
    }


def noise_norm_check(
    n: int = 100,
    t: int = 100,
    factor: float = 3.0,
    reps: int = 500,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> dict:
    """Frequency of ||noise|| <= factor * sqrt(n + T) for iid Gaussian noise."""
    bound = factor * math.sqrt(n + t)
    spec = ExperimentSpec(
        name="noise-norm",
        generator="pure_noise",
        procedure="spectral_norm",
        replications=reps,
        master_seed=seed,
        grid=({"n": n, "T": t},),
    )
    norms = [r.estimate for r in run_experiment(spec, workers).ok_rows(0)]
    return {
        "n": n, "T": t, "factor": factor, "reps": reps, "seed": seed,
        "bound": bound, "frequency": sum(norm <= bound for norm in norms) / len(norms),
    }


# Replications per block of the oracle Monte Carlo.  Each stream is drawn in
# blocks of this many, so the draws held at once stay a few MB at any `reps`;
# chunked standard_normal calls give exactly the draws of one call.
_ORACLE_BLOCK = 8192


def _blocks(reps: int):
    """(start, stop) of each _ORACLE_BLOCK-sized block of range(reps)."""
    for start in range(0, reps, _ORACLE_BLOCK):
        yield start, min(start + _ORACLE_BLOCK, reps)


@single_blas_thread()
def oracle_checks(
    reps: int = 100_000,
    seed: int = DEFAULT_SEED,
    n: int = 8,
    t: int = 8,
) -> dict:
    """Monte Carlo consistency checks for the information-theory oracles.

    Three checks, all on small instances so the simulation is exact enough:
    the closed-form Gaussian KL against the mean log-likelihood-ratio under
    the alternative, the chi-square cross moment against the (trimmed)
    empirical second moment of the likelihood ratio, and the total-variation
    upper bound against the empirical mean absolute deviation of the ratio.

    Each check reads its own RNG stream in blocks of _ORACLE_BLOCK
    replications and keeps one value per replication.  Every per-replication
    value is a fixed function of that replication's draws, computed without
    BLAS reductions whose rounding depends on how many rows share a call, so
    the result does not depend on the block size.
    """
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for Monte Carlo standard errors, got {reps}")
    results: dict = {"reps": reps, "seed": seed, "n": n, "T": t}

    # KL of the panel shift pair at c = 1 is 1/2 in closed form.  Simulate
    # E_2[log dP2/dP1] directly from the stacked Gaussian representation.
    c = 1.0
    delta = c / math.sqrt(n * t)
    block1 = np.eye(2)
    block2 = np.array([[delta * delta + 1.0, delta], [delta, 1.0]])
    # The nT pairs are independent with a shared (zero) mean: nT times one pair's KL.
    kl_exact = n * t * gaussian_kl(np.zeros(2), block1, np.zeros(2), block2)
    rng = replication_rng(seed, 0)
    chol2 = np.linalg.cholesky(block2)
    inv1 = np.linalg.inv(block1)
    inv2 = np.linalg.inv(block2)
    logdet = math.log(np.linalg.det(block1) / np.linalg.det(block2))
    log_ratio = np.empty(reps)
    for lo, hi in _blocks(reps):
        draws = rng.standard_normal((hi - lo, n * t, 2)) @ chol2.T
        # The log ratio factorizes over the nT iid 2-vectors: each quadratic
        # form is <inv, S> with S the replication's 2 x 2 sum of products.
        gram = draws.transpose(0, 2, 1) @ draws
        quad1 = np.einsum("rij,ij->r", gram, inv1)
        quad2 = np.einsum("rij,ij->r", gram, inv2)
        log_ratio[lo:hi] = 0.5 * (quad1 - quad2) + 0.5 * n * t * logdet
    kl_mc = float(np.mean(log_ratio))
    results["kl"] = {
        "exact": kl_exact,
        "mc": kl_mc,
        "mc_se": float(np.std(log_ratio, ddof=1) / math.sqrt(reps)),
        "rel_err": abs(kl_mc - kl_exact) / kl_exact,
    }

    # Likelihood-ratio moments at a small testing pair.  E_null[LR^2] equals
    # the chi-square cross moment with both alternatives equal; the ratio is
    # heavy tailed, so the comparison trims the top 0.01%.
    pair = rank_one_testing_pair(
        n, t, tau=math.sqrt(n * t) / 12.0, kappa=1.0, alpha=0.05
    )
    # Flat indices 1.. are the observed entries, (1,1) being flat index 0.
    null_m, alt_m = pair.null_instance.mean.ravel(), pair.alt_instance.mean.ravel()
    null_o, alt_o = null_m[1:], alt_m[1:]
    diff = alt_o - null_o
    rng = replication_rng(seed, 1)
    log_lr = np.empty(reps)
    for lo, hi in _blocks(reps):
        x = null_m + rng.standard_normal((hi - lo, n * t))
        log_lr[lo:hi] = np.einsum("ri,i->r", x[:, 1:] - null_o, diff)
    log_lr -= 0.5 * float(diff @ diff)
    lr = np.exp(log_lr)
    cross_exact = chi_square_cross(null_o, alt_o, alt_o)
    cut = np.quantile(lr**2, 0.9999)
    second_trimmed = float(np.mean(np.minimum(lr**2, cut)))
    second_se = float(np.std(np.minimum(lr**2, cut), ddof=1) / math.sqrt(reps))
    tv_mc = float(np.mean(np.abs(lr - 1.0)))
    tv_se = float(np.std(np.abs(lr - 1.0), ddof=1) / math.sqrt(reps))
    results["chi2"] = {
        "exact": cross_exact,
        "mc_trimmed": second_trimmed,
        "mc_se": second_se,
        "trim_quantile": 0.9999,
    }
    results["tv"] = {
        "upper": pair.info["tv_upper"],
        "mc": tv_mc,
        "mc_se": tv_se,
    }
    return results
