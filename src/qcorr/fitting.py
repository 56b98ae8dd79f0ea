"""Gaussian quasi-maximum-likelihood estimation of GJR-GARCH(1,1).

The returns are standardized, and the likelihood is maximized by BFGS
on its analytic score, run from several start points in an unconstrained
reparameterization:

    omega = exp(t1)                      positivity
    p     = sigmoid(t2) * (1 - 1e-6)     alpha1 + beta1 + gamma1/2 = p < 1
    a     = sigmoid(t3) * p              a = alpha1 + gamma1/2, beta1 = p - a
    gamma1 = 2 a tanh(t4)                keeps alpha1 >= 0 and alpha1+gamma1 >= 0

so every visited point is admissible and the constrained optimum is an
interior point of the transformed space.  d sigma2_t / d(parameters)
follows the variance recursion's own filter with coefficient beta1
(Fiorentini, Calzolari & Panattoni 1996), so the score costs one more
lfilter pass over a 5-row drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .garch import PARAM_NAMES, GarchParams, ModelKind, SimulationResult, _simulate_seeds
from .series import TimeSeries, as_values

LOG_2PI = math.log(2.0 * math.pi)

# Stationarity sum alpha1 + beta1 + gamma1/2 is kept at or below 1 - 1e-6.
PERSISTENCE_CAP = 1.0 - 1e-6

MIN_FIT_LENGTH = 50

# A fit converged when a successful start ended this close (in log
# likelihood) to the best start's objective.
CONVERGENCE_TOL = 1e-6

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


def _negative_ll_and_score(theta, lfilter, r) -> tuple[float, np.ndarray]:
    """Negative log likelihood at theta and its gradient with respect to theta.

    d sigma2_t / d(mu, omega, alpha1, beta1, gamma1) obeys the variance
    recursion's own first-order filter with coefficient beta1, driven by
    one row of drive per parameter; sigma2_1 = var(r) does not depend on
    the parameters, so the filter starts from zero.
    """
    try:
        mu, omega, alpha1, beta1, gamma1 = _unpack(theta)
        eps = r - mu
        sigma2 = _gjr_variance_filter(lfilter, eps, omega, alpha1, beta1, gamma1)
    except (OverflowError, ValueError):
        return np.inf, np.zeros(5)
    if np.any(sigma2 <= 0) or not np.all(np.isfinite(sigma2)):
        return np.inf, np.zeros(5)
    inv = 1.0 / sigma2
    sq = eps * eps
    value = 0.5 * np.sum(LOG_2PI + np.log(sigma2) + sq * inv)
    prev, prev_sq = eps[:-1], sq[:-1]
    down = prev < 0.0
    drive = np.empty((5, prev.size))
    drive[0] = -2.0 * (alpha1 + gamma1 * down) * prev
    drive[1] = 1.0
    drive[2] = prev_sq
    drive[3] = sigma2[:-1]
    drive[4] = down * prev_sq
    dsigma2 = lfilter([1.0], [1.0, -beta1], drive, axis=-1)
    # d(-ll)/d sigma2_t for t >= 2
    weight = 0.5 * inv[1:] * (1.0 - sq[1:] * inv[1:])
    g_mu, g_omega, g_alpha, g_beta, g_gamma = dsigma2 @ weight
    g_mu -= float(np.dot(eps, inv))
    # chain through _unpack; 1 - sigmoid(t) = sigmoid(-t)
    a = alpha1 + gamma1 / 2.0
    rest_p, rest_a = _sigmoid(-float(theta[2])), _sigmoid(-float(theta[3]))
    sech2 = 1.0 - math.tanh(float(theta[4])) ** 2
    score = np.array([
        g_mu,
        omega * g_omega,
        rest_p * (alpha1 * g_alpha + beta1 * g_beta + gamma1 * g_gamma),
        rest_a * (alpha1 * g_alpha - a * g_beta + gamma1 * g_gamma),
        a * sech2 * (2.0 * g_gamma - g_alpha),
    ])
    if not np.all(np.isfinite(score)) or not math.isfinite(value):
        return np.inf, np.zeros(5)
    return float(value), score


def fit_gjr(returns, max_iter: int = 3000) -> FitResult:
    """Fit GJR-GARCH(1,1) with constant mean by Gaussian QMLE.

    Runs BFGS on the analytic score from five deterministic start points
    and keeps the best final likelihood; iterations counts the BFGS
    iterations of that start.  converged is True when some start that
    BFGS reports as successful (score below its tolerance) ended within
    CONVERGENCE_TOL of the best objective.  Never raises on optimizer
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
    # Fitting standardized returns makes the score, and so BFGS's stopping
    # test, independent of the data's location and scale.
    scale = math.sqrt(variance)
    z = (r - mean) / scale

    runs = []
    for alpha1, beta1, gamma1 in START_POINTS:
        omega0 = max(1.0 - (alpha1 + beta1 + gamma1 / 2.0), 1e-12)
        runs.append(minimize(
            _negative_ll_and_score,
            _pack(0.0, omega0, alpha1, beta1, gamma1),
            args=(lfilter, z),
            jac=True,
            method="BFGS",
            options={"maxiter": max_iter},
        ))
    best = min(runs, key=lambda run: run.fun)
    mu, omega, alpha1, beta1, gamma1 = _unpack(best.x)
    params = GarchParams(
        kind=ModelKind.GJR, mu=mean + scale * mu, omega=scale * scale * omega,
        alpha1=alpha1, beta1=beta1, gamma1=gamma1,
    )
    converged = math.isfinite(best.fun) and any(
        run.success and run.fun <= best.fun + CONVERGENCE_TOL for run in runs
    )
    return FitResult(
        params=params,
        log_likelihood=float(-best.fun) - r.size * math.log(scale),
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
    means = (sum(getattr(f.params, name) for f in converged) / len(converged) for name in PARAM_NAMES)
    return GarchParams(ModelKind.GJR, *means)


def derived_seeds(seed: int, n_series: int) -> list[int]:
    """Deterministic per-series seeds spawned from one master seed."""
    state = np.random.SeedSequence(seed).generate_state(n_series, np.uint64)
    return [int(s) for s in state]


def resimulate_experiment(
    params: GarchParams, n_series: int, length: int, seed: int, burn_in: int = 1000
) -> list[SimulationResult]:
    """n_series independent simulations with seeds derived from one master seed.

    Series i is bit-identical to simulate(params, length,
    derived_seeds(seed, n_series)[i], burn_in), but the series run
    together in one variance recursion over rows of up to 256 values.
    """
    if n_series < 1:
        raise ValueError("n_series must be positive")
    return _simulate_seeds(params, length, derived_seeds(seed, n_series), burn_in)
