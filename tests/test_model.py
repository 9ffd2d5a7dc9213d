import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakfactor.model import (
    FactorInstance,
    PanelInstance,
    SpaceSpec,
    check_membership,
    replication_rng,
    sample_observation,
    sample_panel,
)


def test_factor_instance_validation():
    FactorInstance(np.full((3, 3), 0.5), kappa=1.0)
    with pytest.raises(ValueError):
        FactorInstance(np.full((3, 3), 2.0), kappa=1.0)
    with pytest.raises(ValueError):
        FactorInstance(np.eye(3), kappa=1.0)  # rank 3
    with pytest.raises(ValueError):
        FactorInstance(np.zeros((2, 2)), kappa=-1.0)


@given(n=st.integers(2, 40), t=st.integers(2, 40), rank=st.integers(0, 2),
       exponent=st.integers(-20, 20), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_factor_instance_keeps_its_validation_spectrum(n, t, rank, exponent, seed):
    rng = np.random.default_rng(seed)
    m = 2.0**exponent * rng.standard_normal((n, rank)) @ rng.standard_normal((rank, t))
    inst = FactorInstance(m, kappa=max(np.max(np.abs(m)), 1.0))
    s = np.linalg.svd(m, compute_uv=False)[:3]
    assert inst.spectrum.shape == s.shape
    assert np.all(np.abs(inst.spectrum - s) <= 1e-10 * s[0])


def test_panel_instance_keeps_its_ranks():
    m = np.outer(np.ones(4), np.ones(5))
    inst = PanelInstance(m, np.zeros((4, 5)), 1.0, 1.0, 0.0, r0=2, r1=1)
    assert (inst.mean_rank, inst.regressor_rank) == (1, 0)


def test_panel_instance_validation():
    m = np.outer(np.ones(4), np.ones(5))
    d = np.outer(np.r_[1.0, -1, 1, -1], np.r_[1.0, -1, 1, -1, 0])
    with pytest.raises(ValueError):
        PanelInstance(m, d, sigma_eps=100.0, sigma_u=1.0, beta=0.5, r0=1, r1=1)
    with pytest.raises(ValueError):
        PanelInstance(m + np.eye(4, 5), d, sigma_eps=1.0, sigma_u=1.0, beta=0.5,
                      r0=1, r1=1)  # rank(M) > r0


def test_space_spec_validation():
    SpaceSpec(kind="one_factor", kappa=1.0, tau=5.0)
    with pytest.raises(ValueError):
        SpaceSpec(kind="one_factor", kappa=1.0)
    with pytest.raises(ValueError):
        SpaceSpec(kind="strong_plus_weak", kappa=1.0, tau1=1.0, tau2=2.0)
    with pytest.raises(ValueError):
        SpaceSpec(kind="separated_entry", kappa=1.0, tau=1.0)
    with pytest.raises(ValueError):
        SpaceSpec(kind="bogus", kappa=1.0, tau=1.0)


def test_membership_one_factor():
    m = np.outer(np.full(10, 0.5), np.ones(10))
    inst = FactorInstance(m, kappa=1.0)
    tau = np.linalg.svd(m, compute_uv=False)[0]
    report = check_membership(inst, SpaceSpec(kind="one_factor", kappa=1.0, tau=tau))
    assert report
    assert all(sat for _, sat, _ in report.checks)
    # Demanding more strength than available fails with a named check.
    report = check_membership(inst, SpaceSpec(kind="one_factor", kappa=1.0, tau=tau + 1))
    assert not report
    failed = [name for name, sat, _ in report.checks if not sat]
    assert failed == ["sigma_1 >= tau"]


def test_membership_null_and_separated_entry():
    inst = FactorInstance(np.outer(np.r_[0.0, 0.3, 0.3], np.ones(4)), kappa=1.0)
    assert check_membership(inst, SpaceSpec(kind="null_entry", kappa=1.0, tau=0.5))
    inst2 = FactorInstance(np.outer(np.r_[0.4, 0.3, 0.3], np.ones(4)), kappa=1.0)
    assert check_membership(
        inst2, SpaceSpec(kind="separated_entry", kappa=1.0, tau=0.5, rho=0.4)
    )
    assert not check_membership(
        inst2, SpaceSpec(kind="separated_entry", kappa=1.0, tau=0.5, rho=0.5)
    )


def test_membership_strong_plus_weak():
    m = (np.outer(np.full(8, 1.0), np.ones(8))
         + np.outer(np.r_[0.1, np.zeros(7)], np.r_[0.1, np.zeros(7)]))
    s = np.linalg.svd(m, compute_uv=False)
    spec = SpaceSpec(kind="strong_plus_weak", kappa=1.1, tau1=s[0], tau2=s[1] + 1e-9)
    assert check_membership(FactorInstance(m, kappa=1.1), spec)


def test_membership_report_str():
    # The instance admits entries up to 2; the space only up to 1.
    inst = FactorInstance(np.full((2, 2), 2.0), kappa=2.0)
    report = check_membership(inst, SpaceSpec(kind="one_factor", kappa=1.0, tau=1.0))
    text = str(report)
    assert "FAIL" in text and "max|entry| <= kappa" in text


def test_replication_rng_deterministic_and_independent():
    a = replication_rng(7, 0, 3).standard_normal(5)
    b = replication_rng(7, 0, 3).standard_normal(5)
    c = replication_rng(7, 0, 4).standard_normal(5)
    d = replication_rng(8, 0, 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_observation_moments():
    inst = FactorInstance(np.full((40, 50), 0.2), 1.0)
    x = sample_observation(inst, replication_rng(11, 0))
    resid = x - inst.mean
    assert abs(np.mean(resid)) < 0.05
    assert np.std(resid) == pytest.approx(1.0, abs=0.05)


def test_sample_panel_structure():
    n, t = 30, 40
    m = np.outer(np.ones(n), np.ones(t))
    d = np.zeros((n, t))
    inst = PanelInstance(m, d, sigma_eps=0.5, sigma_u=2.0, beta=1.0, r0=1, r1=0)
    x, y = sample_panel(inst, replication_rng(12, 0))
    assert np.std(x) == pytest.approx(2.0, abs=0.1)
    eps = y - m - x * inst.beta
    assert np.std(eps) == pytest.approx(0.5, abs=0.05)
    # Same stream reproduces the same draw.
    x2, y2 = sample_panel(inst, replication_rng(12, 0))
    assert np.array_equal(x, x2) and np.array_equal(y, y2)
