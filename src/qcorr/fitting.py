"""Gaussian quasi-maximum-likelihood estimation of GJR-GARCH(1,1).

The likelihood is maximized with a derivative-free simplex search run from
several start points in an unconstrained reparameterization:

    omega = exp(t1)                      positivity
    p     = sigmoid(t2) * (1 - 1e-6)     alpha1 + beta1 + gamma1/2 = p < 1
    a     = sigmoid(t3) * p              a = alpha1 + gamma1/2, beta1 = p - a
    gamma1 = 2 a tanh(t4)                keeps alpha1 >= 0 and alpha1+gamma1 >= 0

so every visited point is admissible and the constrained optimum is an
interior point of the transformed space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .garch import GarchParams, ModelKind, simulate, SimulationResult
from .series import TimeSeries, as_values

LOG_2PI = math.log(2.0 * math.pi)

# Stationarity sum alpha1 + beta1 + gamma1/2 is kept at or below 1 - 1e-6.
PERSISTENCE_CAP = 1.0 - 1e-6

MIN_FIT_LENGTH = 50

# Multi-start policy: anchor at (0.05, 0.90, 0.0) plus four admissible
# perturbations, one of them in the negative-asymmetry region.
START_POINTS = (
    (0.05, 0.90, 0.00),
    (0.10, 0.80, 0.00),
    (0.05, 0.85, 0.08),
    (0.08, 0.85, -0.06),
    (0.02, 0.95, 0.02),
)


def gjr_log_likelihood(returns, params: GarchParams) -> float:
    """Gaussian log likelihood of returns under a GJR-GARCH(1,1) filter.

    eps_t = r_t - mu; sigma2_1 is the variance of eps (divisor n) and the
    recursion runs from t = 2.
    """
    if params.kind is not ModelKind.GJR:
        raise ValueError("likelihood is defined for GJR parameters")
    r = as_values(returns)
    if r.size < 10:
        raise ValueError("need at least 10 observations")
    from scipy.signal import lfilter

    eps = r - params.mu
    sigma2 = _gjr_variance_filter(lfilter, eps, params.omega, params.alpha1, params.beta1, params.gamma1)
    if np.any(sigma2 <= 0) or not np.all(np.isfinite(sigma2)):
        raise ValueError("conditional variance left the positive domain")
    return float(-0.5 * np.sum(LOG_2PI + np.log(sigma2) + eps * eps / sigma2))


def _gjr_variance_filter(lfilter, eps, omega, alpha1, beta1, gamma1):
    """sigma2 path for demeaned returns; linear recursion solved with the lfilter passed in."""
    v0 = float(np.var(eps))
    if v0 <= 0:
        raise ValueError("zero-variance returns")
    drive = omega + (alpha1 + gamma1 * (eps[:-1] < 0.0)) * eps[:-1] ** 2
    tail, _ = lfilter([1.0], [1.0, -beta1], drive, zi=np.array([beta1 * v0]))
    sigma2 = np.empty(eps.size)
    sigma2[0] = v0
    sigma2[1:] = tail
    return sigma2


@dataclass(frozen=True)
class FitResult:
    """Outcome of one GJR fit: parameters, likelihood and optimizer status."""

    params: GarchParams
    log_likelihood: float
    converged: bool
    iterations: int
    n_obs: int

    def __post_init__(self):
        if self.converged and not math.isfinite(self.log_likelihood):
            raise ValueError("a converged fit must carry a finite log likelihood")
        if self.iterations < 0 or self.n_obs < 1:
            raise ValueError("iterations must be >= 0 and n_obs >= 1")


@dataclass(frozen=True)
class FitBatch:
    """Per-day fits plus the days that were excluded, with reasons."""

    fits: dict[str, FitResult]
    excluded: dict[str, str]

    def __post_init__(self):
        overlap = set(self.fits) & set(self.excluded)
        if overlap:
            raise ValueError(f"days cannot be both fitted and excluded: {sorted(overlap)}")

    def converged_fits(self) -> dict[str, FitResult]:
        return {day: fit for day, fit in self.fits.items() if fit.converged}


def _sigmoid(t: float) -> float:
    # 1/(1+exp(-t)) in a form that cannot overflow
    return 0.5 * (1.0 + math.tanh(0.5 * t))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _unpack(theta) -> tuple[float, float, float, float, float]:
    mu = float(theta[0])
    omega = math.exp(float(theta[1]))
    p = _sigmoid(float(theta[2])) * PERSISTENCE_CAP
    a = _sigmoid(float(theta[3])) * p
    beta1 = p - a
    gamma1 = 2.0 * a * math.tanh(float(theta[4]))
    alpha1 = a - gamma1 / 2.0
    return mu, omega, alpha1, beta1, gamma1


def _pack(mu, omega, alpha1, beta1, gamma1) -> np.ndarray:
    a = alpha1 + gamma1 / 2.0
    p = min(max(a + beta1, 1e-6), PERSISTENCE_CAP * (1.0 - 1e-9))
    share = min(max(a / p, 1e-9), 1.0 - 1e-9)
    ratio = 0.0 if a <= 0 else min(max(gamma1 / (2.0 * a), -(1.0 - 1e-9)), 1.0 - 1e-9)
    return np.array(
        [mu, math.log(omega), _logit(p / PERSISTENCE_CAP), _logit(share), math.atanh(ratio)]
    )


def fit_gjr(returns, max_iter: int = 3000) -> FitResult:
    """Fit GJR-GARCH(1,1) with constant mean by Gaussian QMLE.

    Runs a Nelder-Mead simplex search from five deterministic start points
    and keeps the best final likelihood.  Never raises on optimizer
    trouble; converged=False reports it instead.
    """
    # scipy.optimize and scipy.signal take over a second to import; only fits need them.
    from scipy.optimize import minimize
    from scipy.signal import lfilter

    r = as_values(returns)
    if r.size < MIN_FIT_LENGTH:
        raise ValueError(f"need at least {MIN_FIT_LENGTH} observations to fit, got {r.size}")
    variance = float(np.var(r))
    if variance <= 0:
        raise ValueError("zero-variance returns")
    mean = float(np.mean(r))

    def negative_ll(theta):
        mu, omega, alpha1, beta1, gamma1 = _unpack(theta)
        eps = r - mu
        try:
            sigma2 = _gjr_variance_filter(lfilter, eps, omega, alpha1, beta1, gamma1)
        except ValueError:
            return np.inf
        if np.any(sigma2 <= 0) or not np.all(np.isfinite(sigma2)):
            return np.inf
        return 0.5 * np.sum(LOG_2PI + np.log(sigma2) + eps * eps / sigma2)

    best = None
    for alpha1, beta1, gamma1 in START_POINTS:
        omega0 = max(variance * (1.0 - (alpha1 + beta1 + gamma1 / 2.0)), 1e-12)
        theta0 = _pack(mean, omega0, alpha1, beta1, gamma1)
        result = minimize(
            negative_ll,
            theta0,
            method="Nelder-Mead",
            options={"maxiter": max_iter, "maxfev": 2 * max_iter, "xatol": 1e-6, "fatol": 1e-9},
        )
        if best is None or result.fun < best.fun:
            best = result
    mu, omega, alpha1, beta1, gamma1 = _unpack(best.x)
    params = GarchParams(
        kind=ModelKind.GJR, mu=mu, omega=omega, alpha1=alpha1, beta1=beta1, gamma1=gamma1
    )
    converged = bool(best.success) and math.isfinite(best.fun)
    return FitResult(
        params=params,
        log_likelihood=float(-best.fun),
        converged=converged,
        iterations=int(best.nit),
        n_obs=int(r.size),
    )


def _day_keys(days: list[TimeSeries]) -> list[str]:
    keys = []
    seen = set()
    for i, day in enumerate(days):
        key = day.label if getattr(day, "label", "") else f"day-{i:03d}"
        while key in seen:
            key = f"{key}#{i}"
        seen.add(key)
        keys.append(key)
    return keys


def fit_per_day(days: list[TimeSeries]) -> FitBatch:
    """One GJR fit per trading day; every day lands in fits or excluded."""
    if not days:
        raise ValueError("empty input")
    fits: dict[str, FitResult] = {}
    excluded: dict[str, str] = {}
    for key, day in zip(_day_keys(days), days):
        r = as_values(day)
        if r.size < MIN_FIT_LENGTH:
            excluded[key] = f"series too short ({r.size} < {MIN_FIT_LENGTH})"
            continue
        if float(np.var(r)) <= 0:
            excluded[key] = "zero-variance returns"
            continue
        fit = fit_gjr(day)
        if fit.converged:
            fits[key] = fit
        else:
            excluded[key] = "optimizer did not converge"
    return FitBatch(fits=fits, excluded=excluded)


def average_params(batch: FitBatch) -> GarchParams:
    """Arithmetic mean of (mu, omega, alpha1, beta1, gamma1) over converged fits.

    The admissible set is an intersection of half-spaces, so the mean of
    admissible parameter sets is itself admissible.
    """
    converged = list(batch.converged_fits().values())
    if not converged:
        raise ValueError("no converged fits to average")
    n = len(converged)
    return GarchParams(
        kind=ModelKind.GJR,
        mu=sum(f.params.mu for f in converged) / n,
        omega=sum(f.params.omega for f in converged) / n,
        alpha1=sum(f.params.alpha1 for f in converged) / n,
        beta1=sum(f.params.beta1 for f in converged) / n,
        gamma1=sum(f.params.gamma1 for f in converged) / n,
    )


def derived_seeds(seed: int, n_series: int) -> list[int]:
    """Deterministic per-series seeds spawned from one master seed."""
    state = np.random.SeedSequence(seed).generate_state(n_series, np.uint64)
    return [int(s) for s in state]


def resimulate_experiment(
    params: GarchParams, n_series: int, length: int, seed: int, burn_in: int = 1000
) -> list[SimulationResult]:
    """n_series independent simulations with seeds derived from one master seed."""
    if n_series < 1:
        raise ValueError("n_series must be positive")
    return [simulate(params, length, s, burn_in) for s in derived_seeds(seed, n_series)]
