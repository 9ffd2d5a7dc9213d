"""Entry (1,1) estimation and inference in the one-missing-entry factor model.

Implements the rank-one PCA plug-in estimator, its spectral-threshold
truncated variant, the adaptive confidence interval whose width tracks the
observed signal strength, and the naive "pre-test then PCA" interval used as
a negative control.

All estimators treat entry (1,1) of the data matrix as missing: they never
read ``x[0, 0]``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .linalg import _KRYLOV_RTOL, SvdResult, spectral_norm, svd_truncated
from .model import DEFAULT_SEED

__all__ = [
    "Interval",
    "EntrywiseEstimate",
    "DegenerateLoadingError",
    "estimate_m11",
    "spectral_threshold",
    "adaptive_estimate_m11",
    "adaptive_ci",
    "adaptive_ci_from_estimate",
    "naive_pretest_ci",
    "calibrate_c0",
    "DefaultC0Warning",
    "DEFAULT_C0",
]

# Largest number of factors the pre-test of naive_pretest_ci considers.
_PRETEST_K_MAX = 2

# Default width constant for the adaptive interval.  The theory guarantees
# existence of a universal constant but does not pin it down; use
# calibrate_c0() for a reproducible data-driven choice.
DEFAULT_C0 = 8.0

# The unit roundoff and the smallest normal float64, for the Frobenius screen.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
_SMALLEST_NORMAL = np.finfo(float).tiny


class DegenerateLoadingError(ValueError):
    """Raised when the estimated loading vector has no mass on rows 2..n."""


class DefaultC0Warning(RuntimeWarning):
    """Warned by calibrate_c0 when nothing calibrated and it returns DEFAULT_C0."""


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"non-finite interval bound: lower={self.lower}, upper={self.upper}")
        if self.lower > self.upper:
            raise ValueError(f"lower={self.lower} > upper={self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


@dataclass(frozen=True)
class EntrywiseEstimate:
    """Truncated estimate together with the spectral statistic that drove it.

    `spectral_stat` is sigma_1 of the data with entry (1,1) zeroed whenever
    sigma_1 was computed, which every non-truncated estimate includes.  When
    the Frobenius screen of :func:`adaptive_estimate_m11` decided the
    truncation, it is that statistic instead: the Frobenius norm of the same
    matrix as computed, an upper bound on sigma_1 (up to the screen's
    rounding allowance) that lies at or below `threshold`.  Its last bits
    may depend on how many threads the BLAS sums it on (run_experiment runs
    each replication on one); the truncation decision does not.
    """

    value: float
    spectral_stat: float
    threshold: float
    truncated: bool


def estimate_m11(x) -> float:
    """Rank-one PCA plug-in estimate of the (1,1) entry.

    Loadings come from the submatrix excluding column 1; the estimate combines
    them with column 1 restricted to rows 2..n, so ``x[0, 0]`` is never used.
    The result is invariant to the scale and sign of the loading vector.
    """
    x = np.asarray(x, dtype=float)
    n, t = x.shape
    if n < 2 or t < 2:
        raise ValueError("need at least a 2x2 data matrix")
    w = x[:, 1:]
    lhat = svd_truncated(w, 1).U[:, 0]
    rest = lhat[1:]
    denom = float(rest @ rest)
    if denom == 0.0:
        raise DegenerateLoadingError("estimated loading vanishes on rows 2..n")
    return float(lhat[0] * (rest @ x[1:, 0]) / denom)


def spectral_threshold(kappa_bar: float, n: int, t: int) -> float:
    """Signal-detection cutoff 4 max{sqrt(10) kappa_bar, 2} sqrt(3 (n + T))."""
    if kappa_bar <= 0:
        raise ValueError("kappa_bar must be positive")
    return 4.0 * max(math.sqrt(10.0) * kappa_bar, 2.0) * math.sqrt(3.0 * (n + t))


def adaptive_estimate_m11(x, kappa_bar: float) -> EntrywiseEstimate:
    """Spectral-threshold estimate: zero below the cutoff, PCA plug-in above.

    `kappa_bar` must upper-bound the true entry bound; this is the caller's
    responsibility.  Entry (1,1) is never read, and a non-finite entry
    elsewhere raises ValueError.

    The test sigma_1 <= threshold is first screened with sigma_1 <= |z|_F,
    where z is the data with entry (1,1) zeroed: s = sum z^2 is one BLAS
    pass over flat indices 1.. of the data itself, with no copy, and when s
    is a finite normal float and sqrt(s) (1 + m) <= threshold the estimate
    is truncated without any decomposition.  At kappa_bar = 1
    and n = T the threshold is 4 sqrt(60 n), about 31 sqrt(n), while |z|_F
    is about sqrt(n^2 + tau^2) for signal strength tau and unit noise; so
    below n = T of about 960 the trivial branch costs one pass.  Where the
    screen does not decide, z is formed and sigma_1 computed from it: a
    non-finite entry makes s non-finite and raises in spectral_norm's scan
    of z, and an s that overflowed or fell below the normal range is not
    trusted.

    The allowance m = 2 gamma_k + 1e-12, with gamma_k = k u / (1 - k u) for
    the k = nT entries and the unit roundoff u, makes the screen decide as
    ``spectral_norm(z) <= threshold`` does.  A finite s means no entry is
    infinite or NaN and no square overflowed, and a sum of k - 1 squares is
    computed to within gamma_k |z|_F^2 in any order (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1).  Squares that
    underflow lose at most k 2^-1075 in all, below k u s once s is normal,
    so |z|_F <= sqrt(s) (1 + gamma_k) to first order.  spectral_norm in turn
    exceeds |z|_F by at most gamma_k relative: on the Gram route the
    rounding of bb' (products of length T) and dsyevr's backward error (a
    modest multiple of p u for the shorter side p; even p^2 u is below
    gamma_k) move sigma_1^2 by less than 2 gamma_k |z|_F^2, and the Krylov
    route returns |bv| for a unit v, rounded in products of length T.  The
    Krylov certificate's tolerance 1e-12 is kept on top as margin: it covers
    the second-order terms and the screen's own few roundings.
    """
    x = np.asarray(x, dtype=float)
    n, t = x.shape
    thr = spectral_threshold(kappa_bar, n, t)
    # Flat index 0 is entry (1,1): the screen sums the other k - 1 squares
    # of x itself, and the zeroed copy is made only when it does not decide.
    rest = np.ravel(x)[1:]
    with np.errstate(over="ignore"):
        s = float(rest @ rest)
    if _SMALLEST_NORMAL <= s < math.inf:
        frob = math.sqrt(s)
        gamma = x.size * _UNIT_ROUNDOFF / (1.0 - x.size * _UNIT_ROUNDOFF)
        if frob * (1.0 + (2.0 * gamma + _KRYLOV_RTOL)) <= thr:
            return EntrywiseEstimate(0.0, frob, thr, truncated=True)
    z = np.array(x, order="C")
    z[0, 0] = 0.0
    stat = spectral_norm(z)
    if stat <= thr:
        return EntrywiseEstimate(0.0, stat, thr, truncated=True)
    return EntrywiseEstimate(estimate_m11(x), stat, thr, truncated=False)


def adaptive_ci(x, kappa_bar: float, c0: float = DEFAULT_C0) -> Interval:
    """Confidence interval whose width adapts to the observed signal strength.

    Below the spectral threshold no consistent estimate exists, so the trivial
    interval [-kappa_bar, kappa_bar] is returned (always valid).  Above it, the
    interval is centered at the plug-in estimate with half-width
    (c0/2) min{sqrt(n+T)/spectral_stat, 1}, spectral_stat being sigma_1
    there.  The branch is decided by :func:`adaptive_estimate_m11`: when
    sigma_1 <= |X_-11|_F lies below the threshold with its rounding
    allowance, as at every n = T below about 960, the trivial interval costs
    one pass over the data and no decomposition.
    """
    x = np.asarray(x, dtype=float)
    n, t = x.shape
    return adaptive_ci_from_estimate(adaptive_estimate_m11(x, kappa_bar), n, t, kappa_bar, c0)


def adaptive_ci_from_estimate(
    est: EntrywiseEstimate, n: int, t: int, kappa_bar: float, c0: float = DEFAULT_C0
) -> Interval:
    """The :func:`adaptive_ci` interval of an n x T matrix whose estimate is
    already computed, so that the data are decomposed once."""
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    if est.truncated:
        return Interval(-kappa_bar, kappa_bar)
    half = 0.5 * c0 * min(math.sqrt(n + t) / est.spectral_stat, 1.0)
    return Interval(est.value - half, est.value + half)


def _residual_mean_square(x: np.ndarray, top: SvdResult, k: int) -> float:
    # The residual itself, not ||x||_F^2 - sum(s^2), which cancels.
    u, s, v = top
    resid = x - (u[:, :k] * s[:k]) @ v[:, :k].T
    return float(np.sum(resid * resid) / resid.size)


def _ratio_khat(lam: np.ndarray, k_max: int) -> int:
    """Eigenvalue-ratio rule for the number of factors.

    Given the eigenvalues lam of XX' in nonincreasing order (at least
    k_max + 1 of them), returns argmax_{1<=j<=k_max} lambda_j / lambda_{j+1}.
    If a denominator falls below 1e-12 * lambda_1 the scan stops and the
    current j is returned (the spectrum has effectively terminated).
    """
    floor = 1e-12 * lam[0] if lam[0] > 0 else 0.0
    best_j, best_ratio = 1, -np.inf
    for j in range(1, k_max + 1):
        if lam[j] <= floor:
            return j
        ratio = lam[j - 1] / lam[j]
        if ratio > best_ratio:
            best_j, best_ratio = j, ratio
    return best_j


def naive_pretest_ci(x, alpha: float = 0.05) -> Interval:
    """Pre-test the number of factors, then a classical PCA interval.

    This pipeline has width of order n^{-1/2} + T^{-1/2} whenever the detected
    factors are strong, which is exactly why it cannot be uniformly valid when
    an undetected weak factor may be present.  It is provided as the negative
    control for the coverage-collapse experiments.

    The pre-test and all estimation steps use only the data excluding entry
    (1,1): the submatrix of columns 2..T plus rows 2..n of column 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    x = np.asarray(x, dtype=float)
    n, t = x.shape
    w = x[:, 1:]
    top = svd_truncated(w, _PRETEST_K_MAX + 1)  # one decomposition for every step
    khat = _ratio_khat(top.s**2, _PRETEST_K_MAX)
    lhat = top.U[:, :khat]               # n x khat, orthonormal
    # Column-1 factor score by least squares on the observed rows 2..n.
    l_rest = lhat[1:, :]
    gram = l_rest.T @ l_rest
    try:
        f1 = np.linalg.solve(gram, l_rest.T @ x[1:, 0])
    except np.linalg.LinAlgError as exc:
        raise DegenerateLoadingError("singular leverage system") from exc
    value = float(lhat[0, :] @ f1)

    # Leverage-based plug-in standard error.  Row leverage uses the
    # orthonormal loadings; column leverage uses the factor scores of w.
    h_row = float(lhat[0, :] @ lhat[0, :])
    scores = w.T @ lhat                   # (T-1) x khat
    score_cov = scores.T @ scores / t
    try:
        h_col = float(f1 @ np.linalg.solve(score_cov, f1)) / t
    except np.linalg.LinAlgError as exc:
        raise DegenerateLoadingError("singular score covariance") from exc
    sigma2 = _residual_mean_square(w, top, khat)
    se = math.sqrt(max(sigma2 * (h_row + h_col), 0.0))
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)  # Wichura's AS241
    return Interval(value - z * se, value + z * se)


def calibrate_c0(
    n: int,
    t: int,
    kappa: float,
    tau_grid,
    alpha: float = 0.05,
    reps: int = 1000,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> float:
    """Smallest width constant reaching 1 - alpha coverage on a reference grid.

    For each grid strength a flat rank-one instance with sigma_1 = tau is
    sampled `reps` times through :func:`~weakfactor.montecarlo.run_experiment`;
    each non-truncated replication yields the smallest c0 that would have
    covered the truth, and the calibrated value is the largest (1 - alpha)
    quantile of those requirements across the grid.

    When no replication lies above the detection threshold (at n = T = 100
    none does) nothing is calibrated: a DefaultC0Warning (a RuntimeWarning)
    names the grid and the count, and DEFAULT_C0 is returned.  At such
    sizes |X_-11|_F itself lies below the threshold, so the Frobenius screen
    of :func:`adaptive_estimate_m11` truncates each replication in one pass;
    the non-truncated replications, which set the result, carry sigma_1
    itself, so the screen changes no calibrated value.
    """
    # Imported here because experiments imports this module; it also
    # registers the generator and procedure that the spec names.
    from . import experiments

    spec = experiments.ExperimentSpec(
        name="calibrate-c0",
        generator="rank_one_entrywise",
        procedure="adaptive_point",
        replications=reps,
        master_seed=seed,
        grid=tuple({"n": n, "T": t, "tau": tau} for tau in tau_grid),
        generator_params={"kappa": kappa},
        procedure_params={"kappa_bar": kappa},
    )
    table = experiments.run_experiment(spec, workers)
    required = 0.0
    calibrated = 0
    sqrt_nt = math.sqrt(n + t)
    for gi in range(len(spec.grid)):
        # A truncated replication's trivial interval always covers.
        needs = [
            2.0 * abs(r.estimate - r.truth) / min(sqrt_nt / r.aux["spectral_stat"], 1.0)
            for r in table.ok_rows(gi) if not r.aux["truncated"]
        ]
        calibrated += len(needs)
        if needs:
            required = max(required, float(np.quantile(needs, 1.0 - alpha)))
    if required > 0:
        return required
    warnings.warn(
        f"calibrate_c0 calibrated {calibrated} of {reps * len(spec.grid)} replications on the "
        f"grid n={n}, T={t}, tau={[gp['tau'] for gp in spec.grid]} (detection threshold "
        f"{spectral_threshold(kappa, n, t):.4g}); returning DEFAULT_C0 = {DEFAULT_C0:g}",
        DefaultC0Warning, stacklevel=2,
    )
    return DEFAULT_C0
