"""Gaussian quasi-maximum-likelihood estimation of GJR-GARCH(1,1).

The returns are standardized, and the likelihood is maximized by BFGS
on its analytic score, run from several start points in an unconstrained
reparameterization:

    omega = exp(t1)                      positivity
    p     = sigmoid(t2) * (1 - 1e-6)     alpha1 + beta1 + gamma1/2 = p < 1
    a     = sigmoid(t3) * p              a = alpha1 + gamma1/2, beta1 = p - a
    gamma1 = 2 a tanh(t4)                keeps alpha1 >= 0 and alpha1+gamma1 >= 0

so every visited point is admissible and the constrained optimum is an
interior point of the transformed space.  The variance path is a
first-order linear recursion with coefficient beta1, and so is the score:
d sigma2_t / d(parameters) follows the same filter (Fiorentini, Calzolari
& Panattoni 1996), and its adjoint, run backwards once, gives all five
derivatives.  `_recursion` solves both in numpy.  The starts run in
lockstep: each round evaluates every running start in one call.
_lockstep alone holds the set of running starts and tells the objective
which they are.  A batch's days of one length share one lockstep stack,
capped at _STACK elements, with one row of returns per running start,
gathered again only when that set changes; each day's fit is
bit-identical to fitting it alone, and fit_gjr is the one-day batch.
This module only estimates: simulating from the averaged fit,
resimulate_experiment, is garch's.  Nothing here imports scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .garch import PARAM_NAMES, GarchParams, ModelKind
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

# BFGS with the defaults of scipy.optimize.minimize, which is not imported:
# a start succeeds once max|score| <= GTOL.  Its line search (More &
# Thuente 1994) looks for a step with sufficient decrease WOLFE_C1 and
# curvature WOLFE_C2, within [STEP_MIN, STEP_MAX], in at most
# LINE_SEARCH_EVALS trials, and gives up when its bracket is narrower than
# STEP_XTOL relative.
GTOL = 1e-5
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
STEP_MIN, STEP_MAX, STEP_XTOL = 1e-100, 1e100, 1e-14
LINE_SEARCH_EVALS = 100

# Steps per block in _recursion.
_BLOCK = 32

# Elements (rows x T) in one lockstep stack of starts, about 2 MB per
# temporary of the objective.
_STACK = 1 << 18


def _recursion(u, beta, start):
    """y[:, t] = u[:, t] + beta * y[:, t-1] along each row of u, where y[:, -1] = start.

    One beta in [0, 1) and one start value per row.  Each block of _BLOCK
    steps is solved by doubling (log2 _BLOCK passes), and the block ends by
    the same recursion in beta**_BLOCK, so T steps take O(log T) numpy
    passes.  Powers of beta are exp(k log beta), which keeps every term
    within a few ulps of the sequential loop's.
    """
    with np.errstate(divide="ignore"):
        return _scan(u, np.log(beta), start)


def _scan(u, log_beta, start):
    rows, n = u.shape
    b = min(n, _BLOCK)
    blocks = -(-n // b)
    y = np.zeros((rows, blocks * b))
    y[:, :n] = u
    y = y.reshape(rows, blocks, b)
    powers = np.exp(log_beta[:, None] * np.arange(1, b + 1))  # beta**1 .. beta**b
    # After the pass with shift s, y holds each block's sums over the last 2s steps.
    s = 1
    while s < b:
        y[..., s:] += powers[:, s - 1, None, None] * y[..., :-s]
        s *= 2
    # Block j starts from the true end of block j - 1.
    carry = start[:, None]
    if blocks > 1:
        carry = np.concatenate([carry, _scan(y[..., -1], b * log_beta, start)[:, :-1]], axis=1)
    y += powers[:, None, :] * carry[..., None]
    return y.reshape(rows, blocks * b)[:, :n]


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
    eps = (r - params.mu)[None, :]
    one_row = np.array([[params.omega], [params.alpha1], [params.beta1], [params.gamma1]])
    sigma2 = _gjr_variance_filter(eps, *one_row)
    if not sigma2[0, 0] > 0:
        raise ValueError("zero-variance returns")
    if np.any(sigma2 <= 0) or not np.all(np.isfinite(sigma2)):
        raise ValueError("conditional variance left the positive domain")
    return float(-0.5 * np.sum(LOG_2PI + np.log(sigma2) + eps * eps / sigma2))


def _gjr_variance_filter(eps, omega, alpha1, beta1, gamma1):
    """sigma2 paths for rows of demeaned returns, one parameter set per row.

    sigma2_1 is the row's variance (divisor n); the parameters do not move it.
    """
    prev = eps[:, :-1]
    drive = omega[:, None] + (alpha1[:, None] + gamma1[:, None] * (prev < 0.0)) * prev ** 2
    sigma2 = np.empty(eps.shape)
    sigma2[:, 0] = np.var(eps, axis=1)
    sigma2[:, 1:] = _recursion(drive, beta1, sigma2[:, 0])
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


def _sigmoid(t):
    # 1/(1+exp(-t)) in a form that cannot overflow
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _unpack(theta):
    """(mu, omega, alpha1, beta1, gamma1) of one theta (5,) or of each row of a stack (k, 5)."""
    theta = np.asarray(theta, dtype=float)
    p = _sigmoid(theta[..., 2]) * PERSISTENCE_CAP
    a = _sigmoid(theta[..., 3]) * p
    gamma1 = 2.0 * a * np.tanh(theta[..., 4])
    return theta[..., 0], np.exp(theta[..., 1]), a - gamma1 / 2.0, p - a, gamma1


def _pack(mu, omega, alpha1, beta1, gamma1) -> np.ndarray:
    a = alpha1 + gamma1 / 2.0
    p = min(max(a + beta1, 1e-6), PERSISTENCE_CAP * (1.0 - 1e-9))
    share = min(max(a / p, 1e-9), 1.0 - 1e-9)
    ratio = 0.0 if a <= 0 else min(max(gamma1 / (2.0 * a), -(1.0 - 1e-9)), 1.0 - 1e-9)
    return np.array(
        [mu, math.log(omega), _logit(p / PERSISTENCE_CAP), _logit(share), math.atanh(ratio)]
    )


def _negative_ll_and_score(thetas, r):
    """Negative log likelihood and its gradient with respect to theta, for
    each row of a stack thetas (k, 5): (k,) values and (k, 5) scores.

    With w_t = d(-ll)/d sigma2_t, the adjoint z_t = w_t + beta1 z_{t+1}
    turns the derivative of every sigma2_t into one sum over the recursion's
    drives: d(-ll)/dx = sum_t z_t d(drive_t)/dx for each of (mu, omega,
    alpha1, beta1, gamma1), where drive_t is sigma2_{t+1} - beta1 sigma2_t.
    A point whose variance path leaves the positive finite domain scores inf
    with a zero gradient.
    """
    with np.errstate(all="ignore"):
        mu, omega, alpha1, beta1, gamma1 = _unpack(thetas)
        eps = r - mu[:, None]
        sigma2 = _gjr_variance_filter(eps, omega, alpha1, beta1, gamma1)
        inv = 1.0 / sigma2
        sq = eps * eps
        ratio = sq * inv
        value = 0.5 * np.sum(LOG_2PI + np.log(sigma2) + ratio, axis=1)
        prev, prev_sq, down = eps[:, :-1], sq[:, :-1], eps[:, :-1] < 0.0
        weight = 0.5 * inv[:, 1:] * (1.0 - ratio[:, 1:])
        z = _recursion(weight[:, ::-1], beta1, np.zeros(thetas.shape[0]))[:, ::-1]
        z_sq = z * prev_sq
        g_mu = -2.0 * np.sum(z * prev * (alpha1[:, None] + gamma1[:, None] * down), axis=1)
        g_mu -= np.sum(eps * inv, axis=1)
        g_omega = np.sum(z, axis=1)
        g_alpha = np.sum(z_sq, axis=1)
        g_beta = np.sum(z * sigma2[:, :-1], axis=1)
        g_gamma = np.sum(z_sq * down, axis=1)
        # chain through _unpack; 1 - sigmoid(t) = sigmoid(-t)
        a = alpha1 + gamma1 / 2.0
        rest_p, rest_a = _sigmoid(-thetas[:, 2]), _sigmoid(-thetas[:, 3])
        sech2 = 1.0 - np.tanh(thetas[:, 4]) ** 2
        score = np.stack([
            g_mu,
            omega * g_omega,
            rest_p * (alpha1 * g_alpha + beta1 * g_beta + gamma1 * g_gamma),
            rest_a * (alpha1 * g_alpha - a * g_beta + gamma1 * g_gamma),
            a * sech2 * (2.0 * g_gamma - g_alpha),
        ], axis=1)
    # value is finite only where every sigma2 is positive and finite
    bad = ~(np.isfinite(value) & np.all(np.isfinite(score), axis=1))
    value[bad] = np.inf
    score[bad] = 0.0
    return value, score


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """More & Thuente's safeguarded trial step; updates the interval [stx, sty].

    stx holds the lowest function value so far and sty the interval's other
    end; fp and dp are the function and its derivative at the trial step stp.
    Returns the updated interval and the next trial step.
    """
    opposite = (dp < 0.0 < dx) or (dx < 0.0 < dp)
    if fp > fx:
        # Higher value: a minimum lies between stx and stp.  Cubic step,
        # or halfway to the quadratic one when that is closer to stx.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + (p / q) * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # Lower value, derivative changed sign: bracketed.  The cubic or
        # secant step, whichever lies farther from stp.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp)
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + (p / q) * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # Lower value, same sign, derivative shrinking in magnitude.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp, clip=True)
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # Lower value, same sign, derivative not shrinking: cubic step
        # toward sty.
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, dy, dp)
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + (p / q) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _cubic_gamma(theta, d1, d2, clip=False):
    # sqrt(theta^2 - d1 d2), scaled against overflow; nan when negative
    # unless clipped at zero
    s = max(abs(theta), abs(d1), abs(d2))
    v = (theta / s) * (theta / s) - (d1 / s) * (d2 / s)
    if clip:
        v = max(0.0, v)
    return s * math.sqrt(v) if v >= 0.0 else math.nan


def _line_search(x, direction, f0, g0, f_prev):
    """More & Thuente's (1994) search for a step with the strong Wolfe conditions.

    A generator: yields trial points x + step * direction and receives
    (value, score) at each.  Returns (step, value, score) at the accepted
    point, or None when no step can be found: rounding errors, a bracket
    narrower than STEP_XTOL, a bound reached, or LINE_SEARCH_EVALS trials.
    The first trial is min(1, 2.02 (f0 - f_prev) / slope).
    """
    d0 = float(g0 @ direction)
    if not d0 < 0.0:
        return None
    step = min(1.0, 2.02 * (f0 - f_prev) / d0)
    if step < 0.0:
        step = 1.0
    if step < STEP_MIN:
        return None
    gtest = WOLFE_C1 * d0
    brackt, stage = False, 1
    width, width1 = STEP_MAX - STEP_MIN, (STEP_MAX - STEP_MIN) / 0.5
    stx, fx, gx = 0.0, f0, d0
    sty, fy, gy = 0.0, f0, d0
    stmin, stmax = 0.0, 5.0 * step
    for _ in range(LINE_SEARCH_EVALS):
        f, g = yield x + step * direction
        f, d = float(f), float(g @ direction)
        ftest = f0 + step * gtest
        if f <= ftest and abs(d) <= WOLFE_C2 * -d0:
            return step, f, g
        if (brackt and (step <= stmin or step >= stmax or stmax - stmin <= STEP_XTOL * stmax)
                or step == STEP_MAX and f <= ftest and d <= gtest
                or step == STEP_MIN and (f > ftest or d >= gtest)):
            return None
        if stage == 1 and f <= ftest and d >= 0.0:
            stage = 2
        try:
            if stage == 1 and fx >= f > ftest:
                # Steps on psi(step) = f - f0 - WOLFE_C1 step d0 until
                # psi has a nonpositive value and a nonnegative slope.
                stx, fxm, gxm, sty, fym, gym, step, brackt = _dcstep(
                    stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                    step, f - step * gtest, d - gtest, brackt, stmin, stmax)
                fx, fy, gx, gy = fxm + stx * gtest, fym + sty * gtest, gxm + gtest, gym + gtest
            else:
                stx, fx, gx, sty, fy, gy, step, brackt = _dcstep(
                    stx, fx, gx, sty, fy, gy, step, f, d, brackt, stmin, stmax)
        except (ArithmeticError, ValueError):
            return None
        if brackt:
            # Bisect when the interval did not shrink enough in two steps.
            if abs(sty - stx) >= 0.66 * width1:
                step = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = step + 1.1 * (step - stx), step + 4.0 * (step - stx)
        step = min(max(step, STEP_MIN), STEP_MAX)
        if brackt and (step <= stmin or step >= stmax or stmax - stmin <= STEP_XTOL * stmax):
            step = stx
        if not math.isfinite(step):
            return None
    return None


def _bfgs(x, max_iter):
    """One BFGS run, as a generator: yields points and receives (value, score) at each.

    H0 = I, a first step about 1 long, and the inverse-Hessian update
    after every accepted step.  Returns (x, value, iterations, success).
    Success means max|score| <= GTOL within max_iter iterations; a failed
    line search or a nonfinite value ends the run without it.
    """
    f, g = yield x
    f = float(f)
    h = np.eye(x.size)
    f_prev = f + float(np.linalg.norm(g)) / 2.0
    nit = 0
    while np.max(np.abs(g)) > GTOL and nit < max_iter:
        direction = -(h @ g)
        found = yield from _line_search(x, direction, f, g, f_prev)
        if found is None:
            return x, f, nit, False
        step, f_new, g_new = found
        s = step * direction
        x = x + s
        y = g_new - g
        f_prev, f, g = f, f_new, g_new
        nit += 1
        if np.max(np.abs(g)) <= GTOL:
            break
        if not math.isfinite(f):
            return x, f, nit, False
        sy = float(y @ s)
        rho = 1000.0 if sy == 0.0 else 1.0 / sy
        a = np.eye(x.size) - rho * np.outer(s, y)
        h = a @ h @ a.T + rho * np.outer(s, s)
    return x, f, nit, nit < max_iter


def _lockstep(runs, objective):
    """Drive generator runs (such as _bfgs) to their ends, one objective call per round.

    Each round stacks the points of the runs still going, evaluates them
    with one call objective(live, stack) -> (values, scores), where live is
    the tuple of those runs' indices in stack order, and sends each run its
    row.  A run that returns leaves the stack, and live with it: this is the
    one record of which runs are going.  Returns the runs' return values in
    order.
    """
    points = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while points:
        live = tuple(points)
        values, scores = objective(live, np.array(list(points.values())))
        for i, value, score in zip(live, values, scores):
            try:
                points[i] = runs[i].send((value, score))
            except StopIteration as stop:
                results[i] = stop.value
                del points[i]
    return results


def fit_gjr(returns, max_iter: int = 3000) -> FitResult:
    """Fit GJR-GARCH(1,1) with constant mean by Gaussian QMLE.

    Runs BFGS on the analytic score from five deterministic start points,
    in lockstep, and keeps the best final likelihood; iterations counts the
    BFGS iterations of that start.  converged is True when some start that
    succeeded (max|score| <= GTOL) ended within CONVERGENCE_TOL of the best
    objective.  Never raises on optimizer trouble; converged=False reports
    it instead.  This is the one-day case of fit_per_day's batch.
    """
    r = as_values(returns)
    if reason := _unfittable(r):
        raise ValueError(reason)
    return _fit_days([r], max_iter)[0]


def _unfittable(r: np.ndarray) -> str | None:
    """Why returns r cannot be fitted, or None: too short, or constant."""
    if r.size < MIN_FIT_LENGTH:
        return f"series too short ({r.size} < {MIN_FIT_LENGTH})"
    return "zero-variance returns" if float(np.var(r)) <= 0 else None


def _fit_days(days, max_iter: int = 3000) -> list[FitResult]:
    """fit_gjr of each day in days, arrays fit_gjr would accept, in order.
    Days of one length share one lockstep, in stacks of at most _STACK
    elements: each start is one row of T returns."""
    fits = {}
    for n in dict.fromkeys(r.size for r in days):
        members = [i for i, r in enumerate(days) if r.size == n]
        per_stack = max(1, _STACK // (len(START_POINTS) * n))
        for first in range(0, len(members), per_stack):
            chunk = members[first : first + per_stack]
            fits.update(zip(chunk, _fit_stack([days[i] for i in chunk], max_iter)))
    return [fits[i] for i in range(len(days))]


def _fit_stack(days, max_iter: int) -> list[FitResult]:
    """One lockstep over the five starts of every day of one length.

    The runs are _bfgs generators; _lockstep tells the objective which
    of them are live, and each live run is scored on its own day's row of
    standardized returns, gathered once per change of the live set."""
    means = [float(np.mean(r)) for r in days]
    # Fitting standardized returns makes the score, and so BFGS's stopping
    # test, independent of the data's location and scale.
    scales = [math.sqrt(float(np.var(r))) for r in days]
    z = np.array([(r - mean) / scale for r, mean, scale in zip(days, means, scales)])
    starts = [_pack(0.0, max(1.0 - (alpha1 + beta1 + gamma1 / 2.0), 1e-12), alpha1, beta1, gamma1)
              for alpha1, beta1, gamma1 in START_POINTS]
    k = len(starts)
    # Run i is start i % k on day i // k.  A gather copies the whole stack,
    # so rows keeps the last one until the live set changes.
    rows = functools.lru_cache(maxsize=1)(lambda live: z[np.array(live) // k])
    ends = _lockstep([_bfgs(starts[i % k], max_iter) for i in range(k * len(days))],
                     lambda live, thetas: _negative_ll_and_score(thetas, rows(live)))
    fits = []
    for day, (r, mean, scale) in enumerate(zip(days, means, scales)):
        own = ends[day * k : (day + 1) * k]
        theta, best, iterations, _ = min(own, key=lambda end: end[1])
        mu, omega, alpha1, beta1, gamma1 = (float(v) for v in _unpack(theta))
        params = GarchParams(ModelKind.GJR, mean + scale * mu, scale * scale * omega, alpha1, beta1, gamma1)
        converged = math.isfinite(best) and any(
            success and value <= best + CONVERGENCE_TOL for _, value, _, success in own
        )
        fits.append(FitResult(params, -best - r.size * math.log(scale), converged, iterations, r.size))
    return fits


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
    returns = dict(zip(_day_keys(days), map(as_values, days)))
    reasons = {key: _unfittable(r) for key, r in returns.items()}
    fittable = [key for key, reason in reasons.items() if reason is None]
    done = dict(zip(fittable, _fit_days([returns[key] for key in fittable])))
    fits: dict[str, FitResult] = {}
    excluded: dict[str, str] = {}
    # In input order: an unconverged day sits among the other exclusions.
    for key, reason in reasons.items():
        if reason is None and done[key].converged:
            fits[key] = done[key]
        else:
            excluded[key] = reason or "optimizer did not converge"
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
