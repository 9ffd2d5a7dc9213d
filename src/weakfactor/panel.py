"""Panel regression with a low-rank interactive fixed effect.

Model: Y = M + X beta + eps with X = D + u, both M and D low rank.  The main
estimator is a bias-corrected trace ratio built from the leading eigenspaces
of X and Y; it achieves the (nT)^{-1/2} rate uniformly over factor strengths.
Also provided: the least-squares estimator via alternating minimization, the
strong-factor confidence interval whose width is known in closed form, and
the asymptotic standard deviation of the least-squares estimator.

The estimators (estimate_beta, ls_estimator and ci_star) refuse an X or Y that
is not 2-D or not finite with ``ValueError`` before any decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entrywise import Interval
from .linalg import _as_matrix, svd_truncated
from .model import PanelInstance

__all__ = [
    "PanelEstimate",
    "DegenerateDesignError",
    "estimate_beta",
    "effective_rank_rhat",
    "ls_estimator",
    "sigma_theta",
    "ci_star",
    "ci_star_half_width",
    "Z_975",
]

# The 97.5% standard normal quantile, to the two decimals that ci_star's
# closed-form width uses.
Z_975 = 1.96

# ls_estimator's stopping rule: the relative decrease of the objective at
# which it has converged, and the iterations after which it gives up.
_LS_RTOL = 1e-10
_LS_MAX_ITER = 5000


class DegenerateDesignError(ValueError):
    """Raised when the regressor matrix carries no usable variation."""


@dataclass(frozen=True)
class PanelEstimate:
    beta_hat: float
    r_hat: float
    numerator: float
    denominator: float
    flipped: bool


def effective_rank_rhat(alpha_hat, lambda_hat, r1: int, k: int) -> float:
    """Effective rank k + r1 - trace(P_Lambda P_alpha).

    Both arguments must have orthonormal columns (r1 and k of them), so
    P_Lambda = Lambda Lambda', P_alpha = alpha alpha' and the trace reduces
    to ||Lambda' alpha||_F^2.
    """
    alpha_hat = np.asarray(alpha_hat, dtype=float)
    lambda_hat = np.asarray(lambda_hat, dtype=float)
    if alpha_hat.shape[1] != r1 or lambda_hat.shape[1] != k:
        raise ValueError("column counts must match declared ranks")
    overlap = float(np.sum((lambda_hat.T @ alpha_hat) ** 2))
    return k + r1 - overlap


def estimate_beta(x, y, r0: int, r1: int) -> PanelEstimate:
    """Bias-corrected trace estimator of the regression coefficient.

    If T < n the data are transposed first (the construction estimates the
    lower-dimensional side of the factor structure).  r0 and r1 are upper
    bounds on the ranks of M and D; overstating them is allowed.
    """
    x, y = _as_matrix(x)[0], _as_matrix(y)[0]
    if x.shape != y.shape:
        raise ValueError("X and Y must have the same shape")
    n, t = x.shape
    if min(n, t) < 2:
        raise ValueError("need at least a 2x2 panel")
    flipped = False
    if t < n:
        x, y = x.T, y.T
        n, t = t, n
        flipped = True
    k = r0 + r1
    if k >= min(n, t):
        raise ValueError("r0 + r1 must be below min(n, T)")

    alpha_hat = (
        svd_truncated(x, r1).U if r1 > 0 else np.zeros((n, 0))
    )
    lambda_hat = svd_truncated(y, k).U if k > 0 else np.zeros((n, 0))
    r_hat = effective_rank_rhat(alpha_hat, lambda_hat, r1, k)
    if n - r_hat <= 0:
        raise ValueError(f"effective rank {r_hat:g} >= n = {n}")

    pi_alpha_x = x - alpha_hat @ (alpha_hat.T @ x)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        denominator = float(np.sum(x * pi_alpha_x))
    if not 0.0 < denominator < math.inf:
        raise DegenerateDesignError(
            f"trace(X' Pi_alpha X) = {denominator:g}: X is degenerate or the sum overflowed")
    pi_lambda_pi_alpha_x = pi_alpha_x - lambda_hat @ (lambda_hat.T @ pi_alpha_x)
    numerator = float(np.sum(y * pi_lambda_pi_alpha_x))
    beta_hat = (n - r1) / (n - r_hat) * numerator / denominator
    return PanelEstimate(
        beta_hat=float(beta_hat),
        r_hat=float(r_hat),
        numerator=float(numerator),
        denominator=float(denominator),
        flipped=flipped,
    )


def ls_estimator(x, y, rank: int) -> tuple[float, np.ndarray, bool]:
    """Least-squares fit of Y = A + X beta with rank(A) <= `rank`.

    Alternating minimization: the A-step is a truncated SVD of Y - X beta,
    the beta-step is scalar least squares on the residual.  The objective is
    monotonically nonincreasing; iteration stops when its relative decrease
    falls below the fixed tolerance _LS_RTOL = 1e-10, a test invariant to
    scaling X and Y together (a zero objective stops at once), and gives up
    unconverged at the fixed cap of _LS_MAX_ITER = 5000 iterations.  An X
    whose sum of squares is zero or overflows, or a Y whose sum of squares
    overflows, raises DegenerateDesignError before the first iteration.

    Returns (beta_ls, a_hat, converged).
    """
    x = np.ascontiguousarray(_as_matrix(x)[0])
    y = np.ascontiguousarray(_as_matrix(y)[0])
    if x.shape != y.shape:
        raise ValueError("X and Y must have the same shape")
    if rank >= min(x.shape):
        raise ValueError("rank must be below min(n, T)")
    with np.errstate(over="ignore"):  # refused below
        x_ss = float(np.sum(x * x))
        obj = float(np.sum(y * y))  # the objective at beta = 0, A = 0
    if not 0.0 < x_ss < math.inf:
        raise DegenerateDesignError(
            f"sum of X^2 = {x_ss:g}: X is identically zero or the sum overflowed")
    if obj == math.inf:
        raise DegenerateDesignError("sum of Y^2 overflowed")

    beta = 0.0
    a = np.zeros_like(y)
    converged = False
    for _ in range(_LS_MAX_ITER):
        # a's buffer holds Y - X beta for the A-step, then the new A.  Y - A
        # is taken once and becomes the residual in place; it and the scratch
        # array are freed before the next A-step, so that only a is held
        # through the SVD.
        if rank > 0:
            u, s, v = svd_truncated(np.subtract(y, np.multiply(x, beta, out=a), out=a), rank)
            np.matmul(u, s[:, None] * v.T, out=a)
        resid = y - a
        work = x * resid
        beta = float(np.sum(work) / x_ss)
        resid -= np.multiply(x, beta, out=work)
        new_obj = float(np.sum(np.square(resid, out=resid)))
        del resid, work
        if obj - new_obj <= _LS_RTOL * obj:
            converged = True
            obj = new_obj
            break
        obj = new_obj
    return beta, a, converged


def sigma_theta(inst: PanelInstance) -> float:
    """Asymptotic sd of the least-squares slope under strong factors.

    sigma_eps / sqrt(sigma_u^2 + ||Pi_M D Pi_{M'}||_F^2 / (nT)), where Pi_M
    annihilates the column space of M and Pi_{M'} its row space.  Both are
    applied through the singular vectors of one thin SVD of M (singular
    values at or below max(n, T) sigma_1 1e-12 count as zero), and the
    squared norm is taken as trace(D' Pi_M D Pi_{M'}); no n x n or T x T
    matrix is formed.
    """
    m = inst.mean
    d = inst.regressor_mean
    n, t = m.shape
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > max(n, t) * s[0] * 1e-12
    u, v = u[:, keep], vt[keep].T
    r = d - u @ (u.T @ d)
    r -= (r @ v) @ v.T
    extra = float(np.sum(d * r)) / (n * t)
    return inst.sigma_eps / math.sqrt(inst.sigma_u**2 + extra)


def ci_star_half_width(n: int, t: int, kappa2: float) -> float:
    """Half-width Z_975 (nT)^{-1/2} (1 + kappa2^2)^{-1/2} of ci_star."""
    return Z_975 / math.sqrt(n * t) / math.sqrt(1.0 + kappa2**2)


def ci_star(x, y, kappa2: float) -> Interval:
    """Strong-factor 95% interval around the least-squares slope.

    Half-width ci_star_half_width(n, T, kappa2); valid only when the fixed
    effects are strong, orthogonal to a strong regressor structure with
    ||D||_F >= kappa2 sqrt(nT).  Raises RuntimeError if the least-squares
    fit has not converged.
    """
    beta_ls, _, converged = ls_estimator(x, y, rank=2)
    if not converged:
        raise RuntimeError("ls_estimator did not converge")
    half = ci_star_half_width(*np.shape(x), kappa2)
    return Interval(beta_ls - half, beta_ls + half)
