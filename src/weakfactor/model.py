"""Ground-truth instances, Gaussian samplers, and per-replication RNG streams.

A :class:`FactorInstance` is a low-rank mean matrix with an entry bound; a
:class:`PanelInstance` is the full parameter of the panel regression model
(low-rank fixed effects, low-rank regressor mean, noise scales, slope).

An instance decomposes each matrix once, when built, and keeps the result
for the two-point pairs, which check the spaces they claim against it
(:mod:`weakfactor.adversarial`): the spectra come from
:func:`weakfactor.linalg.singular_values`, which certifies the leading four
values of a matrix of rank 4 or less from a randomized sketch and takes a
full SVD of any other; the rank decisions are those of the full SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import RANK_RTOL, max_abs_entry, numerical_rank, singular_values

__all__ = [
    "FactorInstance",
    "PanelInstance",
    "sample_observation",
    "sample_panel",
    "replication_rng",
    "DEFAULT_SEED",
]

# Master seed of every experiment and check unless the caller gives one.
DEFAULT_SEED = 20260823


@dataclass(frozen=True)
class FactorInstance:
    """A true mean matrix for the one-missing-entry problem.

    The mean must respect the entry bound `kappa` and have rank at most 2
    (sigma_3 <= RANK_RTOL sigma_1); `spectrum` keeps its leading 3 or fewer
    singular values from that validation.
    """

    mean: np.ndarray
    kappa: float
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if max_abs_entry(self.mean) > self.kappa * (1 + 1e-12):
            raise ValueError(
                f"entry bound violated: max |entry| = {max_abs_entry(self.mean):g} "
                f"> kappa = {self.kappa:g}"
            )
        s = singular_values(self.mean)[:3]
        if s.size > 2 and s[0] > 0 and s[2] > RANK_RTOL * s[0]:
            raise ValueError("mean matrix has numerical rank > 2")
        object.__setattr__(self, "spectrum", s)


@dataclass(frozen=True)
class PanelInstance:
    """Parameter of the panel regression model Y = M + X beta + eps, X = D + u."""

    mean: np.ndarray          # fixed-effect matrix M
    regressor_mean: np.ndarray  # D
    sigma_eps: float
    sigma_u: float
    beta: float
    r0: int = 2
    r1: int = 1
    kappa: float = 10.0
    mean_rank: int = field(init=False, repr=False, compare=False)  # rank(M), as validated
    regressor_rank: int = field(init=False, repr=False, compare=False)  # rank(D)

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(
            self, "regressor_mean", np.asarray(self.regressor_mean, dtype=float)
        )
        if self.mean.shape != self.regressor_mean.shape:
            raise ValueError("M and D must have the same shape")
        object.__setattr__(self, "mean_rank", numerical_rank(self.mean))
        if self.mean_rank > self.r0:
            raise ValueError(f"rank(M) exceeds declared bound r0={self.r0}")
        if "regressor_rank" not in vars(self):  # else kept by _shifted, with D
            object.__setattr__(self, "regressor_rank", numerical_rank(self.regressor_mean))
        if self.regressor_rank > self.r1:
            raise ValueError(f"rank(D) exceeds declared bound r1={self.r1}")
        for name, sig in (("sigma_eps", self.sigma_eps), ("sigma_u", self.sigma_u)):
            if not (1.0 / self.kappa <= sig <= self.kappa):
                raise ValueError(f"{name}={sig:g} outside [1/kappa, kappa]")
        if not abs(self.beta) <= self.kappa:
            raise ValueError("|beta| exceeds kappa")

    def _shifted(self, mean, beta: float) -> PanelInstance:
        """This instance with M and beta replaced, validated as any other,
        except that D is unchanged and keeps its validated rank."""
        inst = object.__new__(type(self))
        object.__setattr__(inst, "regressor_rank", self.regressor_rank)
        inst.__init__(mean, self.regressor_mean, self.sigma_eps, self.sigma_u, beta,
                      self.r0, self.r1, self.kappa)
        return inst


def replication_rng(master_seed: int, *indices: int) -> np.random.Generator:
    """Deterministic per-replication RNG stream.

    Streams are keyed on (master_seed, *indices) via SeedSequence spawn keys,
    so replications are order-independent and safe to run in parallel.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(indices))
    )


def sample_observation(inst: FactorInstance, rng: np.random.Generator) -> np.ndarray:
    """One draw X = M + u with u iid standard normal."""
    return inst.mean + rng.standard_normal(inst.mean.shape)


def sample_panel(
    inst: PanelInstance, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One draw (X, Y) with X = D + u and Y = M + X beta + eps.

    u and eps are mutually independent Gaussian matrices; u is drawn first so
    the stream layout is fixed.
    """
    shape = inst.mean.shape
    u = inst.sigma_u * rng.standard_normal(shape)
    eps = inst.sigma_eps * rng.standard_normal(shape)
    x = inst.regressor_mean + u
    y = inst.mean + x * inst.beta + eps
    return x, y
