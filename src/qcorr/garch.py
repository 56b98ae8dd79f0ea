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

Both simulation entry points live here, and both run one variance
recursion, `_variance_rows`.  `simulate` and `variance_path` give it one
series, which it steps through Python floats.  `resimulate_experiment`
gives it many series, with seeds derived from one master seed, one per
column, which it steps through numpy rows.  Both paths run the same
expressions in the same order, with `math.exp` for EGARCH, so each
resimulated series is bit-identical to `simulate` at its seed.  An EGARCH
variance beyond the largest float, at any step of the burn-in or after
it, is refused by both with one text.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries, frozen_array

# E|z| for standard normal innovations, used exactly rather than sampled.
E_ABS_NORMAL = math.sqrt(2.0 / math.pi)

# Identity of the deterministic generator behind `seed`, recorded in metadata.
GENERATOR = "numpy.random.default_rng (PCG64)"

# Series per block of the many-series recursion.  A step costs a few numpy
# calls of any width, so wide blocks are cheaper per series: 1370 steps took
# 343 us per series at width 32, 70 at 256 and 30 at 1024 (2-core Xeon).
# 256 bounds the innovation buffer at about 2.7 MiB for 1370 steps.
_BLOCK_SERIES = 256

# The real parameters of every model, in GarchParams field order.
PARAM_NAMES = ("mu", "omega", "alpha1", "beta1", "gamma1")

# The one refusal of both recursions when math.exp of an EGARCH log
# variance overflows.
EGARCH_OVERFLOW = "egarch conditional variance overflows a float"


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
        for name in PARAM_NAMES:
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
    persistence = params.alpha1 + params.beta1 + params.gamma1 / 2.0  # below 1; gamma1 is 0 for GARCH
    return params.omega / (1.0 - persistence)


@dataclass(frozen=True)
class SimulationResult:
    """Simulated returns with their conditional variances and provenance."""

    returns: TimeSeries
    variances: np.ndarray
    innovations_seed: int
    burn_in: int

    def __post_init__(self):
        variances = frozen_array(self.variances)
        if variances.shape != (len(self.returns),):
            raise ValueError("variances must align one-to-one with returns")
        if not np.all(variances > 0):
            raise ValueError("conditional variances must be strictly positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        object.__setattr__(self, "variances", variances)


def _variance_rows(
    params: GarchParams, z: np.ndarray, burn_in: int
) -> tuple[np.ndarray, np.ndarray]:
    """The variance recursion over innovations z of shape (steps,), one
    series, or (steps, width), one series per column, from the unconditional
    variance, keeping only steps t >= burn_in: (eps, sigma2), each of shape
    (steps - burn_in,) + z.shape[1:].

    One series steps through Python floats and many through numpy rows, with
    the same expressions in the same order, correctly rounded sqrt and
    math.exp in both.  So every column is bit-identical to its own one-series
    run.  EGARCH takes exp at every step, burn-in included, so an overflow
    anywhere is refused.
    """
    omega, alpha1, beta1, gamma1 = params.omega, params.alpha1, params.beta1, params.gamma1
    egarch = params.kind is ModelKind.EGARCH
    start = omega / (1.0 - beta1) if egarch else unconditional_variance(params)
    if z.ndim == 1:
        rows, state, sqrt, exp = z.tolist(), start, math.sqrt, math.exp
    else:
        # math.exp over the row: np.exp differs from it in the last bit on
        # about 1 value in 20.
        rows, state, sqrt = z, np.full(z.shape[1], start), np.sqrt
        def exp(logv):
            return np.fromiter(map(math.exp, logv.tolist()), float, logv.size)
    sigma2 = np.empty((len(z) - burn_in, *z.shape[1:]))
    if egarch:
        for t, row in enumerate(rows):
            try:
                variance = exp(state)
            except OverflowError:
                raise ValueError(EGARCH_OVERFLOW) from None
            if t >= burn_in:
                sigma2[t - burn_in] = variance
            state = omega + alpha1 * (abs(row) - E_ABS_NORMAL) + gamma1 * row + beta1 * state
    else:  # GARCH runs as GJR with gamma1 = 0; adding 0.0 is exact
        for t, row in enumerate(rows):
            if t >= burn_in:
                sigma2[t - burn_in] = state
            eps = sqrt(state) * row
            # gamma1 * True is gamma1, and gamma1 * False is a zero of either
            # sign, which adds nothing to alpha1.
            state = omega + (alpha1 + gamma1 * (eps < 0.0)) * eps * eps + beta1 * state
    return np.sqrt(sigma2) * z[burn_in:], sigma2


def variance_path(params: GarchParams, innovations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the variance recursion over one series of caller-supplied
    innovations from the unconditional variance (log-variance fixed point
    for EGARCH).

    Returns (eps, sigma2) with eps_t = sigma_t * z_t.
    """
    z = np.asarray(innovations, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"variance_path takes one series, a 1-D array; got shape {z.shape}")
    return _variance_rows(params, z, 0)


def _check_lengths(length: int, burn_in: int) -> None:
    if length < 2:
        raise ValueError("length must be at least 2")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")


def _result(params: GarchParams, seed: int, burn_in: int, eps, sigma2) -> SimulationResult:
    """The SimulationResult of simulate() from its kept eps and sigma2."""
    label = f"{params.kind.value}-sim-seed{seed}"
    returns = TimeSeries(params.mu + eps, label=label)
    return SimulationResult(
        returns=returns,
        variances=sigma2,
        innovations_seed=int(seed),
        burn_in=int(burn_in),
    )


def simulate(
    params: GarchParams, length: int, seed: int, burn_in: int = 1000
) -> SimulationResult:
    """Simulate `length` returns after discarding `burn_in` steps.

    Deterministic given (params, length, seed, burn_in): innovations come
    from numpy's default generator seeded with `seed`.
    """
    _check_lengths(length, burn_in)
    z = np.random.default_rng(seed).standard_normal(burn_in + length)
    return _result(params, seed, burn_in, *_variance_rows(params, z, burn_in))


def derived_seeds(seed: int, n_series: int) -> list[int]:
    """Deterministic per-series seeds spawned from one master seed."""
    state = np.random.SeedSequence(seed).generate_state(n_series, np.uint64)
    return [int(s) for s in state]


def resimulate_experiment(
    params: GarchParams, n_series: int, length: int, seed: int, burn_in: int = 1000
) -> list[SimulationResult]:
    """n_series independent simulations with seeds derived from one master seed.

    Series i is bit-identical to simulate(params, length,
    derived_seeds(seed, n_series)[i], burn_in), but the variance recursion
    runs over all series at once, in blocks of _BLOCK_SERIES.
    """
    if n_series < 1:
        raise ValueError("n_series must be positive")
    _check_lengths(length, burn_in)
    seeds = derived_seeds(seed, n_series)
    steps = burn_in + length
    results = []
    for first in range(0, n_series, _BLOCK_SERIES):
        block = seeds[first : first + _BLOCK_SERIES]
        z = np.empty((steps, len(block)))  # one column of innovations per series
        for column, series_seed in enumerate(block):
            z[:, column] = np.random.default_rng(series_seed).standard_normal(steps)
        eps, sigma2 = _variance_rows(params, z, burn_in)
        del z  # freed before the per-series copies below
        results += [
            _result(params, series_seed, burn_in, eps[:, column], sigma2[:, column])
            for column, series_seed in enumerate(block)
        ]
    return results
