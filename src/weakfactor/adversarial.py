"""Hard two-point instances and exact information-theoretic oracles.

The constructions here pin down what no procedure can do: pairs of parameter
values whose observed-data distributions are provably close (or identical)
while their targets differ.  Each constructor checks that its instances lie
in the parameter spaces its docstring claims, as inequalities on the spectra
and ranks those instances kept (a failed check raises AssertionError naming
the arm and the inequality), and attaches exact divergence values
(chi-square cross moment, total-variation upper bound, Gaussian KL) that the
Monte Carlo suite cross-checks empirically; nothing here decomposes a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .linalg import RANK_RTOL, zero_entry_11
from .model import FactorInstance, PanelInstance

__all__ = [
    "TwoPointPair",
    "rank_one_testing_pair",
    "entry_perturbation_pair",
    "panel_shift_pair",
    "gaussian_kl",
    "chi_square_cross",
    "tv_discrepancy_upper",
    "likelihood_ratio_stat",
]


@dataclass(frozen=True)
class TwoPointPair:
    """A null/alternative pair with its separation and divergence bookkeeping."""

    null_instance: Union[FactorInstance, PanelInstance]
    alt_instance: Union[FactorInstance, PanelInstance]
    separation: float
    info: dict = field(default_factory=dict)


# The space checks compare with the tolerance tol = RANK_RTOL max(sigma_1, 1),
# so that exactly-constructed instances are not rejected for floating-point
# reasons.  None re-checks the entry bound: a FactorInstance has
# max|M| <= kappa (1 + 1e-12), and where max|M| > kappa, sigma_1 >= max|M|
# puts the excess kappa 1e-12 below tol.
def _top_two(inst: FactorInstance) -> tuple[float, float, float]:
    """sigma_1 and sigma_2 of the kept spectrum (0 past its end), and tol."""
    s = inst.spectrum
    s1 = float(s[0]) if s.size else 0.0
    s2 = float(s[1]) if s.size > 1 else 0.0
    return s1, s2, RANK_RTOL * max(s1, 1.0)


def _claim(arm: str, checks: dict) -> None:
    """Raise AssertionError naming the arm and every inequality that fails."""
    failed = [name for name, holds in checks.items() if not holds]
    if failed:
        raise AssertionError(f"{arm} mean fails {'; '.join(failed)}")


def rank_one_testing_pair(
    n: int,
    t: int,
    tau: float,
    kappa: float,
    alpha: float,
) -> TwoPointPair:
    """Rank-one pair that defeats any size-alpha test of a zero (1,1) entry.

    Both means share the loading (kappa/2, c1, ..., c1); the null factor has a
    zero first coordinate while the alternative's is c2, chosen so the
    total-variation distance between the observed-data laws is at most alpha:
    c2 = q min(1/2, sqrt(T)/tau) with q = sqrt(log1p(alpha^2)) / 2, where
    log1p keeps alpha^2 from being rounded away at small alpha.
    Both means lie in the one-factor space (sigma_1 >= tau, sigma_2 = 0,
    entries bounded by kappa); the null's (1,1) entry is 0 and the
    alternative's is the separation c2 kappa/2.
    Requires 0 < tau <= kappa sqrt(nT) / 12.  The large loading kappa/2 sits
    in row 1 and the perturbed factor coordinate in column 1; to swap the
    roles of n and T, build the pair at (t, n) and transpose both means.
    """
    if n < 2 or t < 2:
        raise ValueError("need n, T >= 2")
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau:g}")
    limit = kappa * math.sqrt(n * t) / 12.0
    if tau > limit * (1 + 1e-12):
        raise ValueError(
            f"tau={tau:g} violates tau <= kappa*sqrt(nT)/12 = {limit:g}"
        )
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")

    c1 = 2.0 * tau / math.sqrt(n * t)
    q = math.sqrt(math.log1p(alpha**2)) / 2.0
    c2 = q * min(0.5, math.sqrt(t) / tau)

    loading = np.concatenate(([kappa / 2.0], np.full(n - 1, c1)))
    null_factor = np.concatenate(([0.0], np.ones(t - 1)))
    alt_factor = np.concatenate(([c2], np.ones(t - 1)))
    null_m, alt_m = np.outer(loading, null_factor), np.outer(loading, alt_factor)
    null, alt = FactorInstance(null_m, kappa), FactorInstance(alt_m, kappa)

    separation = c2 * kappa / 2.0
    for arm, inst in (("null", null), ("alt", alt)):
        s1, s2, tol = _top_two(inst)
        m11 = abs(inst.mean[0, 0])
        checks = {
            f"sigma_1 = {s1:.6g} >= tau - tol = {tau - tol:.6g}": s1 >= tau - tol,
            f"sigma_2 = {s2:.6g} <= 2 tol = {2 * tol:.6g}": s2 <= 2 * tol,
        }
        if arm == "null":
            checks[f"|M11| = {m11:.6g} <= 2 tol = {2 * tol:.6g}"] = m11 <= 2 * tol
        else:
            checks[f"|M11| = {m11:.6g} >= separation - tol = {separation - tol:.6g}"] = (
                m11 >= separation - tol
            )
        _claim(arm, checks)

    diff_sq = c1**2 * c2**2 * (n - 1)
    info = {
        "c1": c1,
        "c2": c2,
        "q": q,
        "observed_diff_fro_sq": diff_sq,
        "tv_upper": tv_discrepancy_upper(null_m, alt_m),
        "chi2_cross": chi_square_cross(
            zero_entry_11(null_m).ravel(),
            zero_entry_11(alt_m).ravel(),
            zero_entry_11(alt_m).ravel(),
        ),
    }
    return TwoPointPair(null_instance=null, alt_instance=alt, separation=separation, info=info)


def entry_perturbation_pair(
    base: FactorInstance,
    eta: float,
    tau0: float,
    tau2: float,
) -> TwoPointPair:
    """Perturb only the hidden entry: observationally identical designs.

    The base, the null instance, must be a strict one-factor instance with
    headroom eta (entry bound kappa(1-eta) for kappa = base.kappa, strength
    at least tau0(1+eta) by its kept spectrum), and 0 < tau2 <= tau0.  The
    alternative adds c0 = min{kappa eta, tau0 eta, tau2} to entry (1,1) only,
    landing inside the strong-plus-weak space (sigma_1 >= tau0,
    sigma_2 <= tau2) while the observed data (entry (1,1) removed) are
    bit-for-bit identical.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    if not (tau0 > 0 and tau2 > 0):
        raise ValueError(f"tau0 and tau2 must be > 0, got {tau0:g} and {tau2:g}")
    if tau2 > tau0:
        raise ValueError(f"tau2 = {tau2:g} must not exceed tau0 = {tau0:g}")
    m, kappa = base.mean, base.kappa
    s1, s2, _ = _top_two(base)
    if np.max(np.abs(m)) > kappa * (1 - eta) * (1 + 1e-12):
        raise ValueError("base violates the entry bound kappa(1 - eta)")
    if s1 < tau0 * (1 + eta) * (1 - 1e-12):
        raise ValueError("base strength below tau0(1 + eta)")
    if s2 > RANK_RTOL * s1:
        raise ValueError("base is not a one-factor instance")

    c0 = min(kappa * eta, tau0 * eta, tau2)
    alt_m = m.copy()
    alt_m[0, 0] += c0
    if not np.array_equal(zero_entry_11(alt_m), zero_entry_11(m)):
        raise AssertionError("perturbation leaked outside entry (1,1)")

    alt = FactorInstance(alt_m, kappa)
    s1, s2, tol = _top_two(alt)
    _claim("alt", {
        f"sigma_1 = {s1:.6g} >= tau0 - tol = {tau0 - tol:.6g}": s1 >= tau0 - tol,
        f"sigma_2 = {s2:.6g} <= tau2 + tol = {tau2 + tol:.6g}": s2 <= tau2 + tol,
    })

    return TwoPointPair(
        null_instance=base, alt_instance=alt, separation=c0, info={"c0": c0, "tv_upper": 0.0},
    )


def panel_shift_pair(m1, d1, c: float) -> TwoPointPair:
    """Panel pair with identical means and a covariance tilt of known KL.

    Null: (M1, D1, 1, 1, 0).  Alternative: (M1 - delta D1, D1, 1, 1, delta)
    with delta = c (nT)^{-1/2}, so the Y-means coincide and the divergence is
    carried entirely by the noise covariance: KL = c^2 / 2 exactly.  The
    alternative is the null with M and beta replaced, validated by the
    PanelInstance constructor like any other instance.

    M1 must be rank one and orthogonal to the rank-one D1 in both row and
    column spaces (the strong-factor configuration), and min(n, T) must
    exceed r0 + r1 = 3 for the ranks the pair declares, the bound
    estimate_beta enforces.  At n = T = 3 the rank-2 least-squares fit plus
    the slope has 2 (3 + 3 - 2) + 1 = 9 parameters for 9 entries, so the
    least-squares slope is not identified.
    """
    if not 0.0 < c < 4.0:
        raise ValueError("c must be in (0, 4)")
    m1 = np.asarray(m1, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    if m1.shape != d1.shape:
        raise ValueError("M1 and D1 must have the same shape")
    n, t = m1.shape
    if min(n, t) <= 3:
        raise ValueError(f"r0 + r1 = 3 must lie below min(n, T) = {min(n, t)}")
    null = PanelInstance(
        mean=m1, regressor_mean=d1, sigma_eps=1.0, sigma_u=1.0, beta=0.0, r0=2, r1=1,
    )
    if null.mean_rank != 1 or null.regressor_rank != 1:
        raise ValueError("M1 and D1 must both be rank one")
    scale = max(np.linalg.norm(m1), np.linalg.norm(d1), 1.0)
    # For rank-one M1 = a b' and D1 = c d', M1'D1 = (a'c) b d' and
    # M1 D1' = (b'd) a c'.  Their largest entries pair the columns (and the
    # rows) that hold each matrix's largest entry, so two inner products
    # stand in for the two dense n x n products.
    i, j = np.unravel_index(np.argmax(np.abs(m1)), m1.shape)
    k, l = np.unravel_index(np.argmax(np.abs(d1)), d1.shape)
    if (
        abs(m1[:, j] @ d1[:, l]) > 1e-8 * scale**2
        or abs(m1[i, :] @ d1[k, :]) > 1e-8 * scale**2
    ):
        raise ValueError("M1 and D1 must be orthogonal (M'D = 0 and MD' = 0)")

    delta = c / math.sqrt(n * t)
    alt = replace(null, mean=m1 - delta * d1, beta=delta)
    # The nT pairs (Y_it, X_it) are independent and share their mean under
    # both laws, so the KL is nT times that of one pair: covariance I against
    # the 2x2 tilt, with no mean term.
    tilt = np.array([[delta**2 + 1.0, delta], [delta, 1.0]])
    kl = n * t * gaussian_kl(np.zeros(2), np.eye(2), np.zeros(2), tilt)
    return TwoPointPair(
        null_instance=null,
        alt_instance=alt,
        separation=delta,
        info={"delta": delta, "kl": kl, "kl_closed_form": 0.5 * c**2},
    )


def _chol(mat: np.ndarray, name: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} is not positive definite") from exc


def gaussian_kl(mu1, sigma1, mu2, sigma2) -> float:
    """KL(N(mu2, sigma2) || N(mu1, sigma1)) in closed form."""
    mu1 = np.asarray(mu1, dtype=float).ravel()
    mu2 = np.asarray(mu2, dtype=float).ravel()
    if mu1.shape != mu2.shape:
        raise ValueError("mean vectors must have the same length")
    d = mu1.size
    diff = mu1 - mu2
    s1 = np.asarray(sigma1, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    if s1.shape != (d, d) or s2.shape != (d, d):
        raise ValueError("covariance shapes do not match the means")
    l1 = _chol(s1, "sigma1")
    _chol(s2, "sigma2")
    s1_inv = np.linalg.inv(s1)
    quad = float(diff @ s1_inv @ diff)
    tr = float(np.trace(s1_inv @ s2))
    logdet1 = 2.0 * float(np.sum(np.log(np.diag(l1))))
    _, logdet2 = np.linalg.slogdet(s2)
    return 0.5 * (quad + tr - d + logdet1 - float(logdet2))


def chi_square_cross(mu0, mu1, mu2) -> float:
    """Cross moment of two identity-covariance Gaussian likelihood ratios.

    Equals exp((mu1 - mu0)'(mu2 - mu0)); with mu1 = mu2 this is the second
    moment of the likelihood ratio under mu0 (one plus the chi-square
    divergence).
    """
    mu0 = np.asarray(mu0, dtype=float).ravel()
    mu1 = np.asarray(mu1, dtype=float).ravel()
    mu2 = np.asarray(mu2, dtype=float).ravel()
    if not mu0.shape == mu1.shape == mu2.shape:
        raise ValueError("mean vectors must have the same length")
    return float(np.exp((mu1 - mu0) @ (mu2 - mu0)))


def tv_discrepancy_upper(null_m, alt_m) -> float:
    """Upper bound on E_null |likelihood ratio - 1| for the observed data.

    The observed-data law excludes entry (1,1), so the bound is
    sqrt(exp(||diff with (1,1) zeroed||_F^2) - 1); matrices differing only at
    (1,1) give exactly zero.
    """
    null_m = np.asarray(null_m, dtype=float)
    alt_m = np.asarray(alt_m, dtype=float)
    if null_m.shape != alt_m.shape:
        raise ValueError("shapes must match")
    diff = zero_entry_11(alt_m) - zero_entry_11(null_m)
    return math.sqrt(math.expm1(float(np.sum(diff * diff))))


def likelihood_ratio_stat(x, null_m, alt_m) -> float:
    """Log likelihood ratio of alt vs null on the observed entries.

    Gaussian unit-variance model with entry (1,1) excluded: the sum over
    observed (i,t) of [(x - null)^2 - (x - alt)^2] / 2, computed in one pass
    over flat indices 1.. as <d, x - (null + alt)/2> with d = alt - null.
    That form has no cancellation between two large sums of squares.  Entry
    (1,1), flat index 0, is never read; a non-finite entry anywhere else
    raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    null_m = np.asarray(null_m, dtype=float)
    alt_m = np.asarray(alt_m, dtype=float)
    if not x.shape == null_m.shape == alt_m.shape:
        raise ValueError("shapes must match")
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {x.shape}")
    x_o, null_o, alt_o = (a.ravel()[1:] for a in (x, null_m, alt_m))
    stat = float((alt_o - null_o) @ (x_o - 0.5 * (null_o + alt_o)))
    # A non-finite entry makes the inner product non-finite, so the entries
    # are scanned only then.
    if not math.isfinite(stat) and not all(np.isfinite(a).all() for a in (x_o, null_o, alt_o)):
        raise ValueError("matrix contains non-finite entries")
    return stat
