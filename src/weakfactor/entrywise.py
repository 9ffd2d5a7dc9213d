"""Entry (1,1) estimation and inference in the one-missing-entry factor model.

Implements the rank-one PCA plug-in estimator, its spectral-threshold
truncated variant, the adaptive confidence interval whose width tracks the
observed signal strength, and the naive "pre-test then PCA" interval used as
a negative control; the plug-in and the pre-test share one least-squares fit.
The adaptive interval's rule lives in :func:`adaptive_ci` alone:
:func:`calibrate_c0` runs the coverage experiment's own spec at C0 = 1, on
draws that a coverage run at the same seed does not read, and reads the
constant from its widths.

All estimators treat entry (1,1) of the data matrix as missing: they never
read ``x[0, 0]``.  Each refuses data that are not 2-D, or that have a
non-finite entry outside (1,1), with ``ValueError`` before any decomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .linalg import _KRYLOV_RTOL, SvdResult, _as_matrix, spectral_norm, svd_truncated
from .model import DEFAULT_SEED

__all__ = [
    "Interval",
    "EntrywiseEstimate",
    "DegenerateLoadingError",
    "estimate_m11",
    "spectral_threshold",
    "adaptive_estimate_m11",
    "adaptive_ci",
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
    """Raised when the estimated loadings are singular on rows 2..n."""


class DefaultC0Warning(RuntimeWarning):
    """Warned by calibrate_c0 when nothing calibrated and it returns DEFAULT_C0."""


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float

    def __post_init__(self):
        # The width is non-finite when a bound is, or when finite bounds are
        # further apart than the largest float.
        if not math.isfinite(float(self.upper) - float(self.lower)):
            raise ValueError(f"non-finite interval bound or width: lower={self.lower}, "
                             f"upper={self.upper}")
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


def _data(x) -> tuple[np.ndarray, int, int]:
    """(x, n, T) for the data `x` as a float array; data that are not 2-D
    are refused with the kernels' message.  No entry is read."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        _as_matrix(x)  # raises "expected a 2-D array"
    return (x, *x.shape)


def estimate_m11(x) -> float:
    """Rank-one PCA plug-in estimate of the (1,1) entry.

    Loadings come from the submatrix excluding column 1; the estimate combines
    them with column 1 restricted to rows 2..n, so ``x[0, 0]`` is never used.
    The result is invariant to the scale and sign of the loading vector.
    """
    x, n, t = _data(x)
    if n < 2 or t < 2:
        raise ValueError("need at least a 2x2 data matrix")
    _as_matrix(x[1:, :1])  # rows 2..n of column 1; svd_truncated checks columns 2..T
    return _fit_entry_11(x, svd_truncated(x[:, 1:], 1).U)[0]


def _fit_entry_11(x: np.ndarray, lhat: np.ndarray) -> tuple[float, np.ndarray]:
    """The plug-in m11 = lhat[0] @ f1 and its column-1 factor score
    f1 = (L'L)^-1 L'x[1:, 0], fitted on rows 2..n: L = lhat[1:], n x k."""
    l_rest = lhat[1:, :]
    try:
        f1 = np.linalg.solve(l_rest.T @ l_rest, l_rest.T @ x[1:, 0])
    except np.linalg.LinAlgError as exc:
        raise DegenerateLoadingError("estimated loadings are singular on rows 2..n") from exc
    return float(lhat[0, :] @ f1), f1


def spectral_threshold(kappa_bar: float, n: int, t: int) -> float:
    """Signal-detection cutoff 4 max{sqrt(10) kappa_bar, 2} sqrt(3 (n + T))."""
    if not kappa_bar > 0:
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
    x, n, t = _data(x)
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


def adaptive_ci(
    x, kappa_bar: float, c0: float = DEFAULT_C0
) -> tuple[EntrywiseEstimate, Interval]:
    """Confidence interval whose width adapts to the observed signal strength.

    Returns the :func:`adaptive_estimate_m11` estimate and its interval.
    Below the spectral threshold no consistent estimate exists, so the trivial
    interval [-kappa_bar, kappa_bar] is returned (always valid).  Above it, the
    interval is centered at the plug-in estimate with half-width
    (c0/2) min{sqrt(n+T)/spectral_stat, 1}, spectral_stat being sigma_1
    there.  When sigma_1 <= |X_-11|_F lies below the threshold with its
    rounding allowance, as at every n = T below about 960, the trivial
    interval costs one pass over the data and no decomposition.
    """
    if not c0 > 0:
        raise ValueError("c0 must be positive")
    est = adaptive_estimate_m11(x, kappa_bar)
    if est.truncated:
        return est, Interval(-kappa_bar, kappa_bar)
    n, t = np.shape(x)
    half = 0.5 * c0 * min(math.sqrt(n + t) / est.spectral_stat, 1.0)
    return est, Interval(est.value - half, est.value + half)


def _residual_mean_square(x: np.ndarray, top: SvdResult, k: int, e: int) -> float:
    # The residual itself, not ||x||_F^2 - sum(s^2), which cancels, in units
    # of 2**e so that its squares neither overflow nor underflow.
    u, s, v = top
    resid = np.ldexp(x - (u[:, :k] * s[:k]) @ v[:, :k].T, -e)
    return float(np.sum(resid * resid) / resid.size)


def _ratio_khat(lam: np.ndarray, k_max: int) -> int:
    """Eigenvalue-ratio rule for the number of factors.

    Given the eigenvalues lam of XX', or a positive multiple of them, in
    nonincreasing order (at least k_max + 1 of them), returns
    argmax_{1<=j<=k_max} lambda_j / lambda_{j+1}.
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
    (1,1): the submatrix w of columns 2..T plus rows 2..n of column 1.  The
    standard error is the plug-in variance of an estimated common component
    (Bai, "Inferential theory for factor models of large dimensions",
    Econometrica 71, 2003):

        se^2 = sigma2 (|l_1|^2 + sum_{j <= khat} f_j^2 / s_j^2),

    with sigma2 the residual mean square of w, l_1 row 1 of the orthonormal
    loadings, s_j the singular values of w, and f the factor score fitted
    from column 1.  The second term is Bai's f'(F'F/T)^-1 f / T: the scores
    of w are F = w'L = V S, so F'F/T = S^2/T and the T cancels.  Since f is
    fitted from column 1, the noise that moves the estimate also moves the
    standard error.  s and the residual are squared in units of 2**e, e the
    exponent of s_1, so the endpoints are exactly scale-equivariant: those of
    2**j x are those of x times 2**j unless an entry, a residual, a product
    of the fit or an endpoint falls below the normal floats.  Data zero
    outside column 1 (s_1 = 0) raise DegenerateLoadingError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    x = _data(x)[0]
    _as_matrix(x[1:, :1])  # rows 2..n of column 1; svd_truncated checks w
    w = x[:, 1:]
    top = svd_truncated(w, _PRETEST_K_MAX + 1)  # one decomposition for every step
    if top.s[0] == 0.0:
        raise DegenerateLoadingError("data are zero outside column 1")
    e = int(np.frexp(top.s[0])[1])  # s and the residual are squared in units of 2**e
    khat = _ratio_khat(np.ldexp(top.s, -e) ** 2, _PRETEST_K_MAX)
    lhat = top.U[:, :khat]               # n x khat, orthonormal
    value, f1 = _fit_entry_11(x, lhat)
    h_row = float(lhat[0, :] @ lhat[0, :])
    h_col = float(np.sum((f1 / top.s[:khat]) ** 2))
    rms = _residual_mean_square(w, top, khat, e)  # in units of 4**e
    se = math.ldexp(math.sqrt(rms * (h_row + h_col)), e)
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

    The calibration is the coverage run itself at c0 = 1: the spec that
    :func:`~weakfactor.experiments.adaptive_coverage_spec` builds, on the
    strengths `tau_grid`, sampled `reps` times per strength through
    :func:`~weakfactor.montecarlo.run_experiment`.  The width of
    :func:`adaptive_ci` is linear in c0, so each non-truncated replication
    requires c0 = 2 |estimate - truth| / width to cover the truth; the
    calibrated value is the largest (1 - alpha) quantile of those
    requirements across the grid.

    The draws are held out from a coverage run with master seed `seed`:
    the calibration's master seed is the first 64-bit word of
    ``np.random.SeedSequence(seed).generate_state(1, np.uint64)``.  Both
    runs key their streams on (master seed, grid index, replication), so
    calibrating on `seed` itself would reuse the coverage run's draws, and
    calibrating on seed + 1 would reuse those of the run at seed + 1.

    When no replication lies above the detection threshold (at n = T = 100
    none does) nothing is calibrated: a DefaultC0Warning (a RuntimeWarning)
    names the grid and the count, and DEFAULT_C0 is returned.  At such
    sizes |X_-11|_F itself lies below the threshold, so the Frobenius screen
    of :func:`adaptive_estimate_m11` truncates each replication in one pass;
    the non-truncated replications, which set the result, carry sigma_1
    itself, so the screen changes no calibrated value.

    An `alpha` outside (0, 1) is refused with ValueError before any
    replication.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    # Imported here because experiments imports this module; it also
    # registers the generator and procedure that the spec names.
    from . import experiments

    held_out = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    spec = experiments._coverage_spec("calibrate-c0", n, t, tau_grid, reps, held_out, kappa, 1.0)
    table = experiments.run_experiment(spec, workers)
    required = 0.0
    calibrated = 0
    for gi in range(len(spec.grid)):
        # A truncated replication's trivial interval always covers.
        needs = [2.0 * abs(r.estimate - r.truth) / r.width
                 for r in table.ok_rows(gi) if not r.aux["truncated"]]
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
