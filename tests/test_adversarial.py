import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from weakfactor.adversarial import (
    chi_square_cross,
    entry_perturbation_pair,
    gaussian_kl,
    likelihood_ratio_stat,
    panel_shift_pair,
    rank_one_testing_pair,
    tv_discrepancy_upper,
)
from weakfactor.experiments import orthogonal_unit_pair, panel_means
from weakfactor.linalg import zero_entry_11
from weakfactor.model import FactorInstance, replication_rng, sample_observation

RNG = np.random.default_rng(5)


def test_testing_pair_construction_constants():
    n, t, kappa, alpha = 40, 60, 1.0, 0.05
    tau = kappa * math.sqrt(n * t) / 12.0
    pair = rank_one_testing_pair(n, t, tau, kappa, alpha)
    q = math.sqrt(math.log(alpha**2 + 1.0)) / 2.0
    c1 = 2.0 * tau / math.sqrt(n * t)
    c2 = q * min(0.5, math.sqrt(t) / tau)
    assert pair.info["q"] == pytest.approx(q, rel=1e-12)
    assert pair.info["c1"] == pytest.approx(c1, rel=1e-12)
    assert pair.info["c2"] == pytest.approx(c2, rel=1e-12)
    assert pair.separation == pytest.approx(c2 * kappa / 2.0, rel=1e-12)

    null_m = pair.null_instance.mean
    alt_m = pair.alt_instance.mean
    assert null_m[0, 0] == 0.0
    s = np.linalg.svd(null_m, compute_uv=False)
    assert s[1] <= 1e-10 * s[0]
    # Observed designs differ only in column 1.
    assert np.array_equal(null_m[:, 1:], alt_m[:, 1:])

    diff_sq = np.sum((zero_entry_11(alt_m) - zero_entry_11(null_m)) ** 2)
    assert diff_sq == pytest.approx(c1**2 * c2**2 * (n - 1), rel=1e-12)
    assert pair.info["observed_diff_fro_sq"] == pytest.approx(diff_sq, rel=1e-12)
    assert pair.info["tv_upper"] <= alpha + 1e-12


def test_testing_pair_validation():
    with pytest.raises(ValueError):
        rank_one_testing_pair(40, 60, tau=100.0, kappa=1.0, alpha=0.05)
    with pytest.raises(ValueError):
        rank_one_testing_pair(40, 60, tau=1.0, kappa=1.0, alpha=1.5)
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="tau must be > 0"):
            rank_one_testing_pair(40, 60, tau=tau, kappa=1.0, alpha=0.05)


def test_perturbation_pair_bitwise_and_c0():
    n = t = 100
    kappa, eta, tau2 = 1.0, 0.5, 1.0
    tau0 = math.sqrt(n * t) / 24.0
    base = FactorInstance(np.full((n, t), kappa * (1 - eta)), kappa)
    pair = entry_perturbation_pair(base, eta, tau0, tau2)
    assert pair.separation == pytest.approx(0.5, rel=1e-12)
    assert np.array_equal(
        zero_entry_11(pair.null_instance.mean), zero_entry_11(pair.alt_instance.mean)
    )
    assert pair.info["tv_upper"] == 0.0
    s = np.linalg.svd(pair.alt_instance.mean, compute_uv=False)
    assert s[1] <= pair.separation + 1e-10
    assert s[0] >= tau0


def test_perturbation_pair_validation():
    base = FactorInstance(np.full((10, 10), 0.9), 1.0)
    with pytest.raises(ValueError):
        entry_perturbation_pair(base, eta=0.5, tau0=1.0, tau2=1.0)
    weak_base = FactorInstance(np.full((10, 10), 0.01), 1.0)
    with pytest.raises(ValueError):
        entry_perturbation_pair(weak_base, eta=0.5, tau0=5.0, tau2=1.0)


@pytest.mark.parametrize("tau0, tau2", [(4.0, 0.0), (4.0, -1.0), (0.0, 1.0), (-1.0, 1.0)])
def test_perturbation_pair_rejects_nonpositive_strengths(tau0, tau2, monkeypatch):
    base = FactorInstance(np.full((30, 30), 0.5), 1.0)
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(a) or svd(*a, **k))
    with pytest.raises(ValueError, match="tau0 and tau2 must be > 0"):
        entry_perturbation_pair(base, eta=0.5, tau0=tau0, tau2=tau2)
    assert svd_calls == []


def test_panel_shift_pair_kl_values():
    n = t = 30
    m1, d1 = panel_means(n, t, math.sqrt(n * t), math.sqrt(n * t))
    for c, expect in ((1.0, 0.5), (2.0, 2.0)):
        pair = panel_shift_pair(m1, d1, c)
        assert pair.info["kl"] == pytest.approx(expect, abs=1e-10)
        assert pair.info["kl_closed_form"] == expect
        assert pair.alt_instance.beta == pytest.approx(c / math.sqrt(n * t))
        # Y-means coincide: M2 + beta2 D1 = M1.
        alt = pair.alt_instance
        assert np.allclose(alt.mean + alt.beta * alt.regressor_mean, m1, atol=1e-12)
    small = panel_shift_pair(m1, d1, 1e-4)
    assert small.info["kl"] < 1e-8


def test_panel_shift_pair_validation():
    n = t = 20
    m1, d1 = panel_means(n, t, 10.0, 10.0)
    with pytest.raises(ValueError):
        panel_shift_pair(m1, d1, 5.0)
    with pytest.raises(ValueError):
        panel_shift_pair(m1, m1, 1.0)  # not orthogonal
    # The alternative declares rank r0 = 2, which must lie below min(n, T).
    with pytest.raises(ValueError, match="must lie below min"):
        panel_shift_pair(*panel_means(2, 3, 1.0, 1.0), 1.0)


def test_panel_shift_pair_refuses_a_tilt_off_orthogonal():
    # Tilting D1's left (then right) factor toward M1's by eps leaves both
    # rank one but makes M1'D1 (then M1 D1') nonzero.  The dense products
    # decide which tilts exceed the tolerance 1e-8 scale^2; eps = 4e-7 and
    # 1e-7 put their largest entry at 2 and 1/2 times it.
    n = t = 20
    a, c = orthogonal_unit_pair(n)
    b, d = orthogonal_unit_pair(t)
    m1 = 10.0 * np.outer(a, b)
    refused = 0
    for eps in (1e-4, 4e-7, 1e-7):
        for d1 in (10.0 * np.outer(c + eps * a, d), 10.0 * np.outer(c, d + eps * b)):
            scale = max(np.linalg.norm(m1), np.linalg.norm(d1), 1.0)
            dense = max(np.max(np.abs(m1.T @ d1)), np.max(np.abs(m1 @ d1.T)))
            if dense > 1e-8 * scale**2:
                refused += 1
                with pytest.raises(ValueError, match="must be orthogonal"):
                    panel_shift_pair(m1, d1, 1.0)
            else:
                assert panel_shift_pair(m1, d1, 1.0).info["kl"] == pytest.approx(0.5, abs=1e-10)
    assert refused == 4


def test_gaussian_kl_trivial_and_mean_shift():
    mu = np.zeros(4)
    eye = np.eye(4)
    assert gaussian_kl(mu, eye, mu, eye) == pytest.approx(0.0, abs=1e-12)
    d = np.array([0.5, -1.0, 2.0, 0.0])
    assert gaussian_kl(mu, eye, d, eye) == pytest.approx(np.sum(d * d) / 2, rel=1e-12)


@pytest.mark.parametrize("c", [1e-3, 0.5, 1.0, 2.0, 3.9])
def test_panel_shift_pair_kl_is_that_of_the_full_law(c):
    # The dense KL of the 2nT-dimensional law of (vec Y, vec X): shared mean,
    # covariance I against the 2x2 tilt kron I_nT.
    n = t = 3
    m1, d1 = panel_means(n, t, math.sqrt(n * t), math.sqrt(n * t))
    pair = panel_shift_pair(m1, d1, c)
    delta = c / math.sqrt(n * t)
    tilt = np.array([[delta**2 + 1.0, delta], [delta, 1.0]])
    mu = np.concatenate([m1.ravel(), d1.ravel()])
    dense = gaussian_kl(mu, np.eye(2 * n * t), mu, np.kron(tilt, np.eye(n * t)))
    assert pair.info["kl"] == pytest.approx(dense, rel=1e-12)


def test_gaussian_kl_validation():
    with pytest.raises(ValueError):
        gaussian_kl(np.zeros(2), -np.eye(2), np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        gaussian_kl(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))


def test_chi_square_cross_values():
    mu0 = np.zeros(3)
    assert chi_square_cross(mu0, mu0, mu0) == 1.0
    d1 = np.array([1.0, 0.0, 0.0])
    d2 = np.array([0.0, 1.0, 0.0])
    assert chi_square_cross(mu0, d1, d2) == 1.0  # orthogonal shifts
    d = np.array([0.6, 0.0, 0.0])
    assert chi_square_cross(mu0, d, d) == pytest.approx(math.exp(0.36), rel=1e-12)


def test_chi_square_cross_quadrature_oracle():
    # 1-D check: integral of g_mu1 g_mu2 / g_mu0 over R.
    mu0, mu1, mu2 = 0.1, 0.7, -0.4

    def integrand(x):
        return (
            stats.norm.pdf(x, mu1) * stats.norm.pdf(x, mu2) / stats.norm.pdf(x, mu0)
        )

    oracle, err = integrate.quad(integrand, -12, 12, limit=200)
    assert err < 1e-7
    value = chi_square_cross([mu0], [mu1], [mu2])
    assert value == pytest.approx(oracle, abs=1e-6)


def test_tv_discrepancy_upper_cases():
    a = RNG.standard_normal((5, 5))
    assert tv_discrepancy_upper(a, a) == 0.0
    b = a.copy()
    b[0, 0] += 100.0
    assert tv_discrepancy_upper(a, b) == 0.0  # hidden-entry difference only
    b[0, 0] = np.nan
    assert tv_discrepancy_upper(a, b) == 0.0
    c = a.copy()
    c[1, 2] += 0.3
    assert tv_discrepancy_upper(a, c) == pytest.approx(
        math.sqrt(math.expm1(0.09)), rel=1e-12
    )


def test_likelihood_ratio_stat_cases():
    x = RNG.standard_normal((6, 6))
    m = RNG.standard_normal((6, 6))
    assert likelihood_ratio_stat(x, m, m) == 0.0
    alt = m + 0.2
    # Evaluated at the alternative itself the statistic is half the observed
    # squared distance.
    diff = zero_entry_11(alt) - zero_entry_11(m)
    expect = 0.5 * np.sum(diff * diff)
    assert likelihood_ratio_stat(alt, m, alt) == pytest.approx(expect, rel=1e-10)
    # The hidden entry never contributes.
    x2 = x.copy()
    x2[0, 0] = 1e9
    assert likelihood_ratio_stat(x2, m, alt) == likelihood_ratio_stat(x, m, alt)
    x2[0, 0] = np.nan
    assert likelihood_ratio_stat(x2, m, alt) == likelihood_ratio_stat(x, m, alt)


def test_lr_moments_match_oracles_mc():
    # Lemma-style validations on a small instance: mean absolute deviation of
    # the likelihood ratio below the TV upper bound, and the trimmed second
    # moment near the chi-square cross moment.
    n = t = 8
    pair = rank_one_testing_pair(n, t, tau=math.sqrt(n * t) / 12, kappa=1.0, alpha=0.05)
    null_m = pair.null_instance.mean
    alt_m = pair.alt_instance.mean
    reps = 20000
    rng = replication_rng(107, 0)
    obs = np.ones((n, t), dtype=bool)
    obs[0, 0] = False
    diff = (alt_m - null_m)[obs]
    noise = rng.standard_normal((reps, obs.sum()))
    log_lr = noise @ diff - 0.5 * float(diff @ diff)
    lr = np.exp(log_lr)

    tv_mc = np.abs(lr - 1.0)
    assert tv_mc.mean() <= pair.info["tv_upper"] + 3 * tv_mc.std(ddof=1) / math.sqrt(reps)

    cut = np.quantile(lr**2, 0.9999)
    second = np.minimum(lr**2, cut)
    assert abs(second.mean() - pair.info["chi2_cross"]) <= 3 * second.std(ddof=1) / math.sqrt(reps)


def _two_sum_lr(x, null_m, alt_m):
    # The definition: half the difference of the two residual sums of
    # squares over the observed entries, and the larger of the two sums.
    sq_null = np.sum((zero_entry_11(x) - zero_entry_11(null_m)) ** 2)
    sq_alt = np.sum((zero_entry_11(x) - zero_entry_11(alt_m)) ** 2)
    return 0.5 * (sq_null - sq_alt), max(sq_null, sq_alt)


@given(n=st.integers(1, 8), t=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
@settings(max_examples=100, deadline=None)
def test_likelihood_ratio_stat_properties(n, t, seed, scale):
    rng = np.random.default_rng(seed)
    x, null_m, alt_m = (scale * rng.standard_normal((n, t)) for _ in range(3))
    stat = likelihood_ratio_stat(x, null_m, alt_m)
    expect, size = _two_sum_lr(x, null_m, alt_m)
    assert abs(stat - expect) <= 1e-13 * size
    # Swapping null and alternative flips the sign exactly.
    assert likelihood_ratio_stat(x, alt_m, null_m) == -stat
    # Entry (1,1) is never read, in the data or in either mean.
    for hidden in (np.nan, np.inf, -np.inf):
        for i in range(3):
            mats = [x.copy(), null_m.copy(), alt_m.copy()]
            mats[i][0, 0] = hidden
            assert likelihood_ratio_stat(*mats) == stat


@given(n=st.integers(1, 6), t=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       which=st.integers(0, 2), index=st.integers(1, 10**6),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=100, deadline=None)
def test_likelihood_ratio_stat_rejects_non_finite_observed_entry(n, t, seed, which, index, bad):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, t)) for _ in range(3)]
    mats[which].ravel()[1 + index % (n * t - 1)] = bad
    with pytest.raises(ValueError, match="non-finite"):
        likelihood_ratio_stat(*mats)
