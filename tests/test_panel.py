import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakfactor import panel
from weakfactor.experiments import panel_means
from weakfactor.model import PanelInstance, replication_rng, sample_panel
from weakfactor.panel import (
    DegenerateDesignError,
    ci_star,
    effective_rank_rhat,
    estimate_beta,
    ls_estimator,
    sigma_theta,
)

RNG = np.random.default_rng(4)


def test_estimate_beta_zero_y():
    x = RNG.standard_normal((10, 12))
    est = estimate_beta(x, np.zeros((10, 12)), r0=1, r1=1)
    assert est.beta_hat == 0.0
    assert est.numerator == 0.0


def test_estimate_beta_flip_consistency():
    n, t = 8, 14
    x = RNG.standard_normal((n, t))
    y = RNG.standard_normal((n, t))
    a = estimate_beta(x, y, r0=1, r1=1)
    b = estimate_beta(x.T, y.T, r0=1, r1=1)
    assert a.beta_hat == pytest.approx(b.beta_hat, abs=1e-8)
    assert a.flipped != b.flipped


def test_estimate_beta_errors():
    x = np.zeros((6, 6))
    with pytest.raises((DegenerateDesignError, ValueError)):
        estimate_beta(x, np.ones((6, 6)), r0=1, r1=1)
    with pytest.raises(ValueError):
        estimate_beta(RNG.standard_normal((4, 4)), RNG.standard_normal((4, 4)),
                      r0=3, r1=2)


def test_estimate_beta_equivariance_under_regressor_shift():
    # Adding X c to Y shifts the estimand by c; the estimator follows within
    # its own sampling error (Lambda_hat is the only object that changes).
    n = t = 50
    m, d = panel_means(n, t, math.sqrt(n * t), math.sqrt(n * t))
    inst = PanelInstance(m, d, sigma_eps=1.0, sigma_u=1.0, beta=0.5, r0=1, r1=1)
    c = 0.3
    tol = 0.5 / math.sqrt(n * t) * 10
    for r in range(20):
        x, y = sample_panel(inst, replication_rng(105, 0, r))
        base = estimate_beta(x, y, 1, 1).beta_hat
        shifted = estimate_beta(x, y + x * c, 1, 1).beta_hat
        assert abs(shifted - base - c) <= tol


def test_effective_rank_examples():
    q, _ = np.linalg.qr(RNG.standard_normal((20, 4)))
    alpha, lam = q[:, :1], q[:, 1:4]
    assert effective_rank_rhat(alpha, lam, 1, 3) == pytest.approx(4.0, abs=1e-10)
    lam2 = q[:, :3]  # span includes alpha
    assert effective_rank_rhat(alpha, lam2, 1, 3) == pytest.approx(3.0, abs=1e-10)


def test_effective_rank_dense_projector_oracle():
    for _ in range(10):
        qa, _ = np.linalg.qr(RNG.standard_normal((20, 1)))
        ql, _ = np.linalg.qr(RNG.standard_normal((20, 3)))
        oracle = 3 + 1 - np.trace((ql @ ql.T) @ (qa @ qa.T))
        assert effective_rank_rhat(qa, ql, 1, 3) == pytest.approx(oracle, abs=1e-10)


def test_effective_rank_range_property():
    for _ in range(25):
        r1, k = 2, 3
        qa, _ = np.linalg.qr(RNG.standard_normal((15, r1)))
        ql, _ = np.linalg.qr(RNG.standard_normal((15, k)))
        r_hat = effective_rank_rhat(qa, ql, r1, k)
        assert k - 1e-6 <= r_hat <= k + r1 + 1e-6


def test_ls_estimator_trivial_cases():
    x = RNG.standard_normal((8, 8))
    beta, a, converged = ls_estimator(x, np.zeros((8, 8)), rank=2)
    assert beta == 0.0 and converged and np.allclose(a, 0)

    y = RNG.standard_normal((8, 8))
    beta, a, converged = ls_estimator(x, y, rank=0)
    assert beta == pytest.approx(np.sum(x * y) / np.sum(x * x), rel=1e-12)
    assert np.array_equal(a, np.zeros((8, 8)))

    with pytest.raises(DegenerateDesignError):
        ls_estimator(np.zeros((5, 5)), y[:5, :5], rank=1)
    with pytest.raises(ValueError):
        ls_estimator(x, y, rank=8)


def test_ls_estimator_objective_monotone():
    x = RNG.standard_normal((15, 15))
    y = np.outer(RNG.standard_normal(15), RNG.standard_normal(15)) + 0.7 * x
    objectives = []
    for iters in range(1, 8):
        beta, a, _ = ls_estimator(x, y, rank=1, tol=0.0, max_iter=iters)
        objectives.append(float(np.sum((y - a - x * beta) ** 2)))
    assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_ls_estimator_sd_matches_sigma_theta():
    # Strong-factor configuration: scaled error sd within 25% of sigma(theta).
    n = t = 100
    kappa2 = 1.0
    m, d = panel_means(n, t, math.sqrt(n * t), kappa2 * math.sqrt(n * t))
    inst = PanelInstance(m, d, sigma_eps=1.0, sigma_u=1.0, beta=0.5, r0=1, r1=1)
    target = sigma_theta(inst)
    errs = []
    for r in range(500):
        x, y = sample_panel(inst, replication_rng(106, 0, r))
        beta_ls, _, _ = ls_estimator(x, y, rank=2)
        errs.append((beta_ls - inst.beta) * math.sqrt(n * t))
    sd = float(np.std(errs, ddof=1))
    assert abs(sd - target) / target <= 0.25


def test_sigma_theta_examples():
    n, t = 12, 9
    m = np.outer(np.ones(n), np.ones(t))
    inst = PanelInstance(m, np.zeros((n, t)), 1.0, 1.0, 0.0, r0=1, r1=0)
    assert sigma_theta(inst) == pytest.approx(1.0, rel=1e-12)

    kappa2 = 3.0
    m2, d2 = panel_means(20, 20, 5.0, kappa2 * 20.0)  # ||D||_F = kappa2 sqrt(nT)
    inst2 = PanelInstance(m2, d2, 1.0, 1.0, 0.0, r0=1, r1=1)
    assert sigma_theta(inst2) == pytest.approx(1 / math.sqrt(1 + kappa2**2), rel=1e-10)


def test_sigma_theta_dense_oracle_and_bound():
    n, t = 10, 7
    for r0 in (1, 2, 0):  # M of rank one, of rank two, and M = 0
        m = np.zeros((n, t))
        for _ in range(r0):
            m += np.outer(RNG.standard_normal(n), RNG.standard_normal(t))
        d = np.outer(RNG.standard_normal(n), RNG.standard_normal(t))
        inst = PanelInstance(m, d, sigma_eps=0.8, sigma_u=1.2, beta=0.1, r0=max(r0, 1), r1=1)
        pi_m = np.eye(n) - m @ np.linalg.pinv(m)
        pi_mt = np.eye(t) - m.T @ np.linalg.pinv(m.T)
        extra = np.trace(pi_mt @ d.T @ pi_m @ d) / (n * t)
        oracle = 0.8 / math.sqrt(1.2**2 + extra)
        assert sigma_theta(inst) == pytest.approx(oracle, rel=1e-10)
        assert sigma_theta(inst) <= 0.8 / 1.2 + 1e-12


def test_ci_star_exact_widths():
    x = RNG.standard_normal((10, 10))
    y = RNG.standard_normal((10, 10))
    # 3.92 (nT)^{-1/2} with nT = 100 and no shrinkage from kappa2.
    assert ci_star(x, y, kappa2=0.0).width == pytest.approx(0.392, rel=1e-12)
    x = RNG.standard_normal((100, 100))
    y = RNG.standard_normal((100, 100))
    width = ci_star(x, y, kappa2=10.0).width
    assert width == pytest.approx(3.92 / (100 * math.sqrt(101)), rel=1e-12)


def test_ci_star_rejects_unconverged_fit(monkeypatch):
    x = y = np.ones((10, 10))
    monkeypatch.setattr(panel, "ls_estimator", lambda x, y, rank: (0.0, None, False))
    with pytest.raises(RuntimeError, match="did not converge"):
        ci_star(x, y, kappa2=10.0)


@given(n=st.integers(4, 14), t=st.integers(4, 14), seed=st.integers(0, 2**32 - 1),
       beta=st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_estimate_beta_transpose_equivariant(n, t, seed, beta):
    assume(n != t)
    rng = np.random.default_rng(seed)
    m, d = panel_means(n, t, math.sqrt(n * t), math.sqrt(n * t))
    inst = PanelInstance(m, d, sigma_eps=1.0, sigma_u=1.0, beta=beta, r0=1, r1=1)
    x, y = sample_panel(inst, rng)
    a = estimate_beta(x, y, r0=1, r1=1)
    b = estimate_beta(x.T, y.T, r0=1, r1=1)
    assert b.beta_hat == a.beta_hat and b.r_hat == a.r_hat
    assert b.flipped == (not a.flipped)
