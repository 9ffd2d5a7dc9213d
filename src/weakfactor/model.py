"""Ground-truth instances, parameter-space predicates, and Gaussian samplers.

A :class:`FactorInstance` is a low-rank mean matrix with an entry bound; a
:class:`PanelInstance` is the full parameter of the panel regression model
(low-rank fixed effects, low-rank regressor mean, noise scales, slope).
:func:`check_membership` turns the parameter-space definitions into checkable
predicates with per-inequality slack reporting.

Every check that needs singular values takes the spectrum from
:func:`weakfactor.linalg.singular_values`, which certifies the leading four
values of a matrix of rank 4 or less from a randomized sketch and takes a
full SVD of any other; the rank decisions are those of the full SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import RANK_RTOL, max_abs_entry, numerical_rank, singular_values

__all__ = [
    "FactorInstance",
    "PanelInstance",
    "SpaceSpec",
    "MembershipReport",
    "check_membership",
    "sample_observation",
    "sample_panel",
    "make_rank_one",
    "replication_rng",
    "DEFAULT_SEED",
]

# Master seed of every experiment and check unless the caller gives one.
DEFAULT_SEED = 20260823


def make_rank_one(l, f) -> np.ndarray:
    """Outer product l f'; sigma_1 equals ||l|| * ||f||."""
    l = np.asarray(l, dtype=float).ravel()
    f = np.asarray(f, dtype=float).ravel()
    if l.size == 0 or f.size == 0:
        raise ValueError("factor vectors must be nonempty")
    return np.outer(l, f)


@dataclass(frozen=True)
class FactorInstance:
    """A true mean matrix for the one-missing-entry problem.

    The mean must respect the entry bound `kappa` and have rank at most 2.
    """

    mean: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if max_abs_entry(self.mean) > self.kappa * (1 + 1e-12):
            raise ValueError(
                f"entry bound violated: max |entry| = {max_abs_entry(self.mean):g} "
                f"> kappa = {self.kappa:g}"
            )
        s = singular_values(self.mean)
        if s.size > 2 and s[0] > 0 and s[2] > RANK_RTOL * s[0]:
            raise ValueError("mean matrix has numerical rank > 2")


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

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(
            self, "regressor_mean", np.asarray(self.regressor_mean, dtype=float)
        )
        if self.mean.shape != self.regressor_mean.shape:
            raise ValueError("M and D must have the same shape")
        if numerical_rank(self.mean) > self.r0:
            raise ValueError(f"rank(M) exceeds declared bound r0={self.r0}")
        if numerical_rank(self.regressor_mean) > self.r1:
            raise ValueError(f"rank(D) exceeds declared bound r1={self.r1}")
        for name, sig in (("sigma_eps", self.sigma_eps), ("sigma_u", self.sigma_u)):
            if not (1.0 / self.kappa <= sig <= self.kappa):
                raise ValueError(f"{name}={sig:g} outside [1/kappa, kappa]")
        if abs(self.beta) > self.kappa:
            raise ValueError("|beta| exceeds kappa")


@dataclass(frozen=True)
class SpaceSpec:
    """A parameter-space predicate for mean matrices.

    kind:
      - "one_factor":        sigma_1 >= tau and sigma_2 = 0
      - "strong_plus_weak":  sigma_1 >= tau1 and sigma_2 <= tau2
      - "null_entry":        one_factor with M[0, 0] = 0
      - "separated_entry":   one_factor with |M[0, 0]| >= rho
    All kinds additionally require max |entry| <= kappa and rank <= 2.
    """

    kind: str
    kappa: float
    tau: Optional[float] = None
    tau1: Optional[float] = None
    tau2: Optional[float] = None
    rho: Optional[float] = None

    _KINDS = ("one_factor", "strong_plus_weak", "null_entry", "separated_entry")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "strong_plus_weak":
            if self.tau1 is None or self.tau2 is None:
                raise ValueError("strong_plus_weak requires tau1 and tau2")
            if self.tau1 < self.tau2:
                raise ValueError("tau1 must be >= tau2")
        elif self.tau is None:
            raise ValueError(f"kind {self.kind!r} requires tau")
        if self.kind == "separated_entry" and self.rho is None:
            raise ValueError("separated_entry requires rho")


@dataclass
class MembershipReport:
    ok: bool
    checks: list = field(default_factory=list)  # (name, satisfied, slack)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        lines = [
            f"  [{'ok' if sat else 'FAIL'}] {name}: slack = {slack:+.3e}"
            for name, sat, slack in self.checks
        ]
        return "membership {}\n{}".format("passed" if self.ok else "FAILED", "\n".join(lines))


def check_membership(m, spec: SpaceSpec) -> MembershipReport:
    """Check every defining inequality of the space, reporting per-check slack.

    Slack is positive when the inequality holds strictly.  Comparisons carry a
    tolerance of RANK_RTOL * sigma_1 so that exactly-constructed instances are
    not rejected for floating-point reasons.
    """
    m = np.asarray(m, dtype=float)
    s = singular_values(m)
    s1 = s[0] if s.size else 0.0
    s2 = s[1] if s.size > 1 else 0.0
    s3 = s[2] if s.size > 2 else 0.0
    tol = RANK_RTOL * max(s1, 1.0)

    checks: list[tuple[str, bool, float]] = []

    def add(name: str, slack: float):
        checks.append((name, slack >= -tol, slack))

    add("max|entry| <= kappa", spec.kappa - max_abs_entry(m))
    add("rank <= 2 (sigma_3 ~ 0)", tol - s3)

    if spec.kind == "strong_plus_weak":
        add("sigma_1 >= tau1", s1 - spec.tau1)
        add("sigma_2 <= tau2", spec.tau2 - s2)
    else:
        add("sigma_1 >= tau", s1 - spec.tau)
        add("sigma_2 = 0", tol - s2)
        if spec.kind == "null_entry":
            add("entry (1,1) = 0", tol - abs(m[0, 0]))
        elif spec.kind == "separated_entry":
            add("|entry (1,1)| >= rho", abs(m[0, 0]) - spec.rho)

    return MembershipReport(ok=all(sat for _, sat, _ in checks), checks=checks)


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
