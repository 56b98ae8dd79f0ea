"""Exact simulation of GARCH(1,1), EGARCH(1,1) and GJR-GARCH(1,1) returns.

Returns follow r_t = mu + eps_t with eps_t = sigma_t * z_t and standard
normal innovations z_t.  The variance recursions:

    GARCH   sigma2_t = omega + alpha1 * eps2_{t-1} + beta1 * sigma2_{t-1}
    EGARCH  log sigma2_t = omega + alpha1 * (|z_{t-1}| - E|z|)
                         + gamma1 * z_{t-1} + beta1 * log sigma2_{t-1}
    GJR     sigma2_t = omega + alpha1 * eps2_{t-1}
                     + gamma1 * eps2_{t-1} * 1[eps_{t-1} < 0]
                     + beta1 * sigma2_{t-1}

The recursion is seeded at the unconditional variance (the log-variance
fixed point for EGARCH) and a burn-in prefix is discarded.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries

# E|z| for standard normal innovations, used exactly rather than sampled.
E_ABS_NORMAL = math.sqrt(2.0 / math.pi)

# Identity of the deterministic generator behind `seed`, recorded in metadata.
GENERATOR = "numpy.random.default_rng (PCG64)"


class ModelKind(str, enum.Enum):
    GARCH = "garch"
    EGARCH = "egarch"
    GJR = "gjr"


def as_kind(kind: ModelKind | str) -> ModelKind:
    if isinstance(kind, ModelKind):
        return kind
    try:
        return ModelKind(str(kind).lower())
    except ValueError:
        raise ValueError(f"unknown model kind {kind!r}; expected garch, egarch or gjr") from None


@dataclass(frozen=True)
class GarchParams:
    """Model kind plus (mu, omega, alpha1, beta1, gamma1), admissibility-checked.

    gamma1 must be 0 for plain GARCH.  Stationarity: alpha1 + beta1 < 1 for
    GARCH, alpha1 + beta1 + gamma1/2 < 1 for GJR with Gaussian innovations,
    |beta1| < 1 for the EGARCH log-variance recursion.
    """

    kind: ModelKind
    mu: float
    omega: float
    alpha1: float
    beta1: float
    gamma1: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", as_kind(self.kind))
        for name in ("mu", "omega", "alpha1", "beta1", "gamma1"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        kind = self.kind
        if kind is ModelKind.EGARCH:
            if not abs(self.beta1) < 1.0:
                raise ValueError("egarch requires |beta1| < 1 for a stationary log variance")
            return
        if not self.omega > 0:
            raise ValueError(f"{kind.value} requires omega > 0, got {self.omega}")
        if self.alpha1 < 0 or self.beta1 < 0:
            raise ValueError(f"{kind.value} requires alpha1 >= 0 and beta1 >= 0")
        if kind is ModelKind.GARCH:
            if self.gamma1 != 0.0:
                raise ValueError("plain garch has no asymmetry term; gamma1 must be 0")
            if not self.alpha1 + self.beta1 < 1.0:
                raise ValueError("garch requires alpha1 + beta1 < 1 (covariance stationarity)")
        else:  # GJR
            if not self.alpha1 + self.beta1 + self.gamma1 / 2.0 < 1.0:
                raise ValueError(
                    "gjr requires alpha1 + beta1 + gamma1/2 < 1 (Gaussian stationarity)"
                )
            if self.alpha1 + min(self.gamma1, 0.0) < 0:
                raise ValueError(
                    "gjr requires alpha1 + gamma1 >= 0 so conditional variances stay positive"
                )


def unconditional_variance(params: GarchParams) -> float:
    """Stationary variance; for EGARCH, exp of the stationary mean log variance."""
    if params.kind is ModelKind.EGARCH:
        return math.exp(params.omega / (1.0 - params.beta1))
    persistence = params.alpha1 + params.beta1 + params.gamma1 / 2.0  # gamma1 is 0 for GARCH
    if persistence >= 1.0:  # unreachable for validated params; guarded anyway
        raise ValueError("non-stationary parameters have no unconditional variance")
    return params.omega / (1.0 - persistence)


@dataclass(frozen=True)
class SimulationResult:
    """Simulated returns with their conditional variances and provenance."""

    returns: TimeSeries
    variances: np.ndarray
    innovations_seed: int
    burn_in: int

    def __post_init__(self):
        variances = np.asarray(self.variances, dtype=float)
        if variances.shape != (len(self.returns),):
            raise ValueError("variances must align one-to-one with returns")
        if not np.all(variances > 0):
            raise ValueError("conditional variances must be strictly positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        variances = variances.copy()
        variances.setflags(write=False)
        object.__setattr__(self, "variances", variances)


def variance_path(
    params: GarchParams, innovations: np.ndarray, initial_variance: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run the variance recursion over caller-supplied innovations.

    Returns (eps, sigma2) with eps_t = sigma_t * z_t.  initial_variance
    defaults to the unconditional variance (log-variance fixed point for
    EGARCH).
    """
    z = np.asarray(innovations, dtype=float)
    n = z.size
    eps = np.empty(n)
    sigma2 = np.empty(n)
    if params.kind is ModelKind.EGARCH:
        logv = (
            math.log(initial_variance)
            if initial_variance is not None
            else params.omega / (1.0 - params.beta1)
        )
        for t in range(n):
            sigma2[t] = math.exp(logv)
            eps[t] = math.sqrt(sigma2[t]) * z[t]
            logv = (
                params.omega
                + params.alpha1 * (abs(z[t]) - E_ABS_NORMAL)
                + params.gamma1 * z[t]
                + params.beta1 * logv
            )
        return eps, sigma2
    v = initial_variance if initial_variance is not None else unconditional_variance(params)
    if not v > 0:
        raise ValueError("initial variance must be positive")
    for t in range(n):  # GARCH runs as GJR with gamma1 = 0; adding 0.0 is exact
        sigma2[t] = v
        eps[t] = math.sqrt(v) * z[t]
        arch = params.alpha1
        if eps[t] < 0.0:
            arch += params.gamma1
        v = params.omega + arch * eps[t] * eps[t] + params.beta1 * v
    return eps, sigma2


def simulate(
    params: GarchParams, length: int, seed: int, burn_in: int = 1000
) -> SimulationResult:
    """Simulate `length` returns after discarding `burn_in` steps.

    Deterministic given (params, length, seed, burn_in): innovations come
    from numpy's default generator seeded with `seed`.
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(burn_in + length)
    eps, sigma2 = variance_path(params, z)
    label = f"{params.kind.value}-sim-seed{seed}"
    returns = TimeSeries(params.mu + eps[burn_in:], step=1.0, label=label)
    return SimulationResult(
        returns=returns,
        variances=sigma2[burn_in:],
        innovations_seed=int(seed),
        burn_in=int(burn_in),
    )
