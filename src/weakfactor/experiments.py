"""Prebuilt experiments: instance families, registered procedures, checks.

This module wires the estimators to the replication engine.  It registers
the instance generators and procedures used by the command-line front end,
and provides builder functions returning ready-to-run
:class:`~weakfactor.montecarlo.ExperimentSpec` objects for each headline
experiment (rate in strength, rate in size, adaptive coverage, the
pre-test negative control, panel rates, and the panel coverage tradeoff).
The plug-in rate family, the adaptive coverage family and the two-point
grid are each declared once, in a private helper: both rate builders share
one, and :func:`weakfactor.entrywise.calibrate_c0` runs the coverage
builder's spec at C0 = 1.

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
    adaptive_ci,
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
    if n < 2:
        raise ValueError(f"need n >= 2: the spike sits in row 1 of n rows, got n={n}")
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
# Registered generators, called as gen(**grid_point, **generator_params) ->
# (truth, draw), where draw(rng) -> data samples from the instance built once
# per grid point.  Each plugin's signature names the keys it reads; no
# defaults live here, except that an absent spike_frac selects the flat
# instance.


def _arm(arm: str, null: str = "null") -> str:
    """The field of a two-point pair holding the instance `arm` names.

    Called before the pair is built, so a bad arm costs no decomposition.
    """
    if arm not in (null, "alt"):
        raise ValueError(f"arm must be {null!r} or 'alt', got {arm!r}")
    return "null_instance" if arm == null else "alt_instance"


@register_generator("rank_one_entrywise")
def _gen_rank_one(n, T, tau, kappa, spike_frac=None):
    if spike_frac is None:
        inst = flat_rank_one_instance(n, T, tau, kappa)
    else:
        inst = spiked_rank_one_instance(n, T, tau, kappa, spike_frac)
    return inst.mean[0, 0], partial(sample_observation, inst)


@register_generator("perturbation_pair_arm")
def _gen_perturbation_arm(n, T, arm, kappa, eta, tau2):
    field = _arm(arm, null="base")
    base = FactorInstance(np.full((n, T), kappa * (1.0 - eta)), kappa)
    pair = entry_perturbation_pair(base, eta=eta, tau0=math.sqrt(n * T) / 24.0, tau2=tau2)
    inst = getattr(pair, field)
    return inst.mean[0, 0], partial(sample_observation, inst)


@register_generator("panel_config")
def _gen_panel(n, T, beta, weak_m, weak_d):
    sigma_m = math.sqrt(n + T) if weak_m else math.sqrt(n * T)
    sigma_d = math.sqrt(n + T) if weak_d else math.sqrt(n * T)
    m, d = panel_means(n, T, sigma_m, sigma_d)
    inst = PanelInstance(
        mean=m, regressor_mean=d, sigma_eps=1.0, sigma_u=1.0, beta=beta,
        r0=1, r1=1, kappa=10.0,
    )
    return beta, partial(sample_panel, inst)


@register_generator("panel_pair_arm")
def _gen_panel_arm(n, T, arm, kappa2, c):
    field = _arm(arm)
    m1, d1 = panel_means(n, T, math.sqrt(n * T), kappa2 * math.sqrt(n * T))
    pair = panel_shift_pair(m1, d1, c)
    inst = getattr(pair, field)
    return inst.beta, partial(sample_panel, inst)


@register_generator("testing_pair_arm")
def _gen_testing_arm(n, T, arm, tau, kappa, alpha):
    field = _arm(arm)
    pair = rank_one_testing_pair(n, T, tau, kappa, alpha)
    inst = getattr(pair, field)
    # Draws carry both means, which the likelihood-ratio statistic needs.
    null_m, alt_m = pair.null_instance.mean, pair.alt_instance.mean
    return inst.mean[0, 0], lambda rng: (sample_observation(inst, rng), null_m, alt_m)


@register_generator("pure_noise")
def _gen_pure_noise(n, T):
    return 0.0, lambda rng: rng.standard_normal((n, T))


# ---------------------------------------------------------------------------
# Registered procedures, called as proc(data, **procedure_params) -> result
# dict; each plugin's signature names the keys it reads.


def _midpoint(iv) -> dict:
    """The result of an interval procedure whose estimate is its midpoint."""
    return {"estimate": 0.5 * (iv.lower + iv.upper), "lower": iv.lower, "upper": iv.upper}


@register_procedure("pca_point")
def _proc_pca(data):
    return {"estimate": estimate_m11(data)}


@register_procedure("adaptive_interval")
def _proc_adaptive_ci(data, kappa_bar, c0):
    est, iv = adaptive_ci(data, kappa_bar, c0)
    return {
        "estimate": est.value,
        "lower": iv.lower,
        "upper": iv.upper,
        "truncated": est.truncated,
    }


@register_procedure("naive_interval")
def _proc_naive_ci(data, alpha):
    return _midpoint(naive_pretest_ci(data, alpha=alpha))


@register_procedure("lr_stat")
def _proc_lr_stat(data):
    x, null_m, alt_m = data
    return {"estimate": likelihood_ratio_stat(x, null_m, alt_m)}


@register_procedure("spectral_norm")
def _proc_spectral_norm(data):
    return {"estimate": spectral_norm(data)}


@register_procedure("panel_trace")
def _proc_panel_trace(data, r0, r1):
    x, y = data
    est = estimate_beta(x, y, r0, r1)
    return {"estimate": est.beta_hat, "r_hat": est.r_hat}


@register_procedure("panel_ci_star")
def _proc_panel_ci_star(data, kappa2):
    x, y = data
    return _midpoint(ci_star(x, y, kappa2))


# ---------------------------------------------------------------------------
# Experiment builders.  Each family's generator, procedure and parameter
# names are declared once, in the three helpers below.


def _rate_spec(
    name: str, grid, reps: int, seed: int, kappa: float, spike_frac: float
) -> ExperimentSpec:
    """The plug-in's error on spiked rank-one instances over `grid`."""
    return ExperimentSpec(
        name=name,
        generator="rank_one_entrywise",
        procedure="pca_point",
        replications=reps,
        master_seed=seed,
        grid=grid,
        generator_params={"kappa": kappa, "spike_frac": spike_frac},
    )


def _coverage_spec(
    name: str, n: int, t: int, taus, reps: int, seed: int, kappa: float, c0: float
) -> ExperimentSpec:
    """The adaptive interval's coverage on flat rank-one instances, one per tau.

    :func:`adaptive_coverage_spec` runs it, and
    :func:`weakfactor.entrywise.calibrate_c0` runs it at c0 = 1.
    """
    return ExperimentSpec(
        name=name,
        generator="rank_one_entrywise",
        procedure="adaptive_interval",
        replications=reps,
        master_seed=seed,
        grid=tuple({"n": n, "T": t, "tau": tau} for tau in taus),
        generator_params={"kappa": kappa},
        procedure_params={"kappa_bar": kappa, "c0": c0},
    )


def _arms(n: int, t: int, null: str = "null") -> tuple:
    """The grid of a two-point pair: the `null` arm, then the alternative."""
    return ({"n": n, "T": t, "arm": null}, {"n": n, "T": t, "arm": "alt"})


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
    return _rate_spec("entrywise-rate-tau", grid, reps, seed, kappa, spike_frac)


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
    return _rate_spec("entrywise-rate-size", grid, reps, seed, kappa, spike_frac)


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
    taus = [f * math.sqrt(n * t) for f in tau_fracs]
    taus.append(2.0 * math.sqrt(n + t))
    return _coverage_spec("entrywise-coverage", n, t, taus, reps, seed, kappa, c0)


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
    return ExperimentSpec(
        name="adaptivity-demo",
        generator="perturbation_pair_arm",
        procedure="naive_interval",
        replications=reps,
        master_seed=seed,
        grid=_arms(n, t, null="base"),
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
    return ExperimentSpec(
        name="panel-tradeoff",
        generator="panel_pair_arm",
        procedure="panel_ci_star",
        replications=reps,
        master_seed=seed,
        grid=_arms(n, t),
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
        grid=_arms(n, t),
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
    """Frequency of ||noise|| <= factor * sqrt(n + T) for iid Gaussian noise.

    A `factor` that is not positive is refused with ValueError before any
    replication.
    """
    if not factor > 0:
        raise ValueError("factor must be positive")
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


# Replications per block of the oracle Monte Carlo.  Each stream reuses one
# set of block buffers per call, so memory grows with `reps` only by a few
# floats per replication.  At n = T = 8 a KL block of 1024 replications is
# 1 MB of normals (1024 x 64 x 2 floats) plus 1 MB for their transform, and a
# likelihood-ratio block 0.5 MB: about one core's L2 cache (typically 1-2 MB)
# rather than a stream through main memory, while per-block overhead stays a
# few calls.  Chunked standard_normal calls give exactly the draws of one call.
_ORACLE_BLOCK = 1024


def _blocks(reps: int):
    """(start, stop) of each _ORACLE_BLOCK-sized block of range(reps)."""
    for start in range(0, reps, _ORACLE_BLOCK):
        yield start, min(start + _ORACLE_BLOCK, reps)


def _kl_log_ratios(rng, reps: int, pairs: int, chol2, inv1, inv2, logdet: float) -> np.ndarray:
    """log dP2/dP1 of `reps` draws from P2, each `pairs` iid 2-vectors N(0, chol2 chol2').

    The log ratio factorizes over the 2-vectors: each quadratic form is
    <inv, S>, S being the replication's 2 x 2 sum of products.  The block
    buffers live as long as the call.
    """
    log_ratio = np.empty(reps)
    block = min(_ORACLE_BLOCK, reps)
    z, draws = np.empty((block, pairs, 2)), np.empty((block, pairs, 2))
    gram, quad2 = np.empty((block, 2, 2)), np.empty(block)
    for lo, hi in _blocks(reps):
        m = hi - lo
        rng.standard_normal(out=z[:m])
        np.matmul(z[:m], chol2.T, out=draws[:m])
        np.matmul(draws[:m].transpose(0, 2, 1), draws[:m], out=gram[:m])
        quad1 = log_ratio[lo:hi]
        np.einsum("rij,ij->r", gram[:m], inv1, out=quad1)
        np.einsum("rij,ij->r", gram[:m], inv2, out=quad2[:m])
        quad1 -= quad2[:m]
        quad1 *= 0.5
        quad1 += 0.5 * pairs * logdet
    return log_ratio


def _log_lrs(rng, reps: int, null_m: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """<x_obs - null_obs, diff> of `reps` draws x ~ N(null_m, I), entry 0 unobserved."""
    log_lr = np.empty(reps)
    x = np.empty((min(_ORACLE_BLOCK, reps), null_m.size))
    for lo, hi in _blocks(reps):
        obs = x[:hi - lo]
        rng.standard_normal(out=obs)
        obs += null_m
        obs = obs[:, 1:]
        obs -= null_m[1:]
        np.einsum("ri,i->r", obs, diff, out=log_lr[lo:hi])
    return log_lr


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

    Each check reads its own RNG stream in blocks of _ORACLE_BLOCK (1024)
    replications through one set of buffers allocated per call, and keeps one
    value per replication; at n = T = 8 the buffers take about 2 MB for the
    KL check and 0.5 MB for the likelihood ratio, against 0.8 MB per
    100 000 replications for the kept values.  Every per-replication value
    is a fixed function of that replication's draws, computed without BLAS
    reductions whose rounding depends on how many rows share a call, so the
    result does not depend on the block size.
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
    logdet = math.log(np.linalg.det(block1) / np.linalg.det(block2))
    log_ratio = _kl_log_ratios(
        replication_rng(seed, 0), reps, n * t, np.linalg.cholesky(block2),
        np.linalg.inv(block1), np.linalg.inv(block2), logdet,
    )
    kl_mc = float(np.mean(log_ratio))
    results["kl"] = {
        "exact": kl_exact,
        "mc": kl_mc,
        "mc_se": float(np.std(log_ratio, ddof=1) / math.sqrt(reps)),
        "rel_err": abs(kl_mc - kl_exact) / kl_exact,
    }
    del log_ratio  # each per-replication array is freed at its last use

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
    log_lr = _log_lrs(replication_rng(seed, 1), reps, null_m, diff)
    log_lr -= 0.5 * float(diff @ diff)
    lr = np.exp(log_lr, out=log_lr)
    cross_exact = chi_square_cross(null_o, alt_o, alt_o)
    trimmed = lr**2
    cut = np.quantile(trimmed, 0.9999)
    np.minimum(trimmed, cut, out=trimmed)
    second_trimmed = float(np.mean(trimmed))
    second_se = float(np.std(trimmed, ddof=1) / math.sqrt(reps))
    del trimmed
    abs_dev = np.abs(np.subtract(lr, 1.0, out=lr), out=lr)
    tv_mc = float(np.mean(abs_dev))
    tv_se = float(np.std(abs_dev, ddof=1) / math.sqrt(reps))
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
