"""Acceptance suite: one test per criterion, each printing a pass line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Monte Carlo checks use fixed master seeds, so every run is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from conftest import RECOVERY_ELAPSED, RECOVERY_SEEDS
from helpers import EXAMPLE_BITS, EXAMPLE_SERIES, tick_group
from qcorr import (
    DayRejection,
    GarchParams,
    ProbabilityLevel,
    QcfCurve,
    asymmetry,
    average_params,
    confidence_band,
    filter_series,
    fit_gjr,
    qcf,
    qcf_fast,
    qcf_from_filtered,
    resample_day,
    resimulate_experiment,
    simulate,
)

LEVEL_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {text}")


def averaged_curves(params, pairs, n_seeds, length, max_lag, seed_base, burn_in=1000):
    """Per-seed curves for each quantile pair, as (n_seeds, n_lags) arrays."""
    stacks = {pair: [] for pair in pairs}
    for i in range(n_seeds):
        sim = simulate(params, length=length, seed=seed_base + i, burn_in=burn_in)
        for pair in pairs:
            stacks[pair].append(qcf_fast(sim.returns, pair[0], pair[1], max_lag).values)
    return {pair: np.vstack(rows) for pair, rows in stacks.items()}


def test_criterion_01_worked_example_regression():
    x = list(EXAMPLE_SERIES)
    filter_series(x, 0.5)  # warm-up so the timed call measures steady state
    start = time.perf_counter()
    filtered = filter_series(x, 0.5)
    elapsed = time.perf_counter() - start
    assert filtered.bits.tolist() == list(EXAMPLE_BITS)
    assert filtered.quantile_value == 0.0
    assert elapsed < 1e-3
    report(1, f"worked-example filter exact, q=0, {elapsed * 1e6:.0f} us")


def test_criterion_02_oracle_equivalence_1000_instances():
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(64, 4097))
        x = rng.standard_normal(T)
        alpha, beta = rng.choice(LEVEL_GRID, size=2)
        max_lag = int(rng.integers(1, T // 4 + 1))
        direct = qcf(x, alpha, beta, max_lag)
        fast = qcf_fast(x, alpha, beta, max_lag)
        worst = max(worst, float(np.max(np.abs(direct.values - fast.values))))
        assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"1000 randomized instances, max |fast - direct| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_invariance_suite_200_series():
    rng = np.random.default_rng(31415)
    transforms = [np.exp, lambda v: v**3 + v, lambda v: 0.5 * v + 3.0]
    worst_corr = 0.0
    for case in range(200):
        T = int(rng.integers(50, 301))
        x = rng.standard_normal(T)
        max_lag = int(rng.integers(1, min(20, T // 2 - 1) + 1))
        alpha, beta = rng.choice(LEVEL_GRID, size=2)
        equal = float(rng.choice(LEVEL_GRID))

        # symmetry at alpha = beta, exact
        sym = qcf(x, equal, equal, max_lag)
        assert np.array_equal(sym.values, sym.values[::-1])
        assert sym.value_at(0) == 1.0

        # swap identity, exact
        ab = qcf(x, alpha, beta, max_lag)
        ba = qcf(x, beta, alpha, max_lag)
        assert np.array_equal(ab.values, ba.values[::-1])

        # complements: double leaves values, single flips the sign (<= 1e-12)
        fa = filter_series(x, alpha)
        fb = filter_series(x, beta)
        base = qcf_from_filtered(fa, fb, max_lag)
        double = qcf_from_filtered(fa.complement(), fb.complement(), max_lag)
        single = qcf_from_filtered(fa.complement(), fb, max_lag)
        worst_corr = max(worst_corr, float(np.max(np.abs(double.values - base.values))))
        worst_corr = max(worst_corr, float(np.max(np.abs(single.values + base.values))))
        assert worst_corr <= 1e-12

        # monotone transform: identical bits, identical curves
        f = transforms[case % len(transforms)]
        assert np.array_equal(filter_series(f(x), alpha).bits, fa.bits)
        after = qcf(f(x), alpha, beta, max_lag)
        assert np.array_equal(after.values, ab.values)
    report(3, f"200 series: symmetry/swap/monotone exact, complements <= {worst_corr:.2e}")


def test_criterion_04_garch_null_and_symmetry():
    start = time.perf_counter()
    params = GarchParams(kind="garch", mu=0.001, omega=1e-5, alpha1=0.05, beta1=0.9)
    pairs = [(0.5, 0.5), (0.05, 0.05), (0.95, 0.95)]
    curves = averaged_curves(params, pairs, n_seeds=250, length=5000, max_lag=100, seed_base=0)
    lags = np.arange(-100, 101)
    nonzero = lags != 0

    # (0.5, 0.5) within Monte Carlo error of zero at all lags 1..100
    median = curves[(0.5, 0.5)]
    mean = median.mean(axis=0)[nonzero]
    se = median.std(axis=0, ddof=1)[nonzero] / math.sqrt(median.shape[0])
    null_t = float(np.max(np.abs(mean) / se))
    assert null_t < 4.0  # per-lag 4-sigma guard across the 200 comparisons

    # (0.05, 0.05) equals (0.95, 0.95) within 3 Monte Carlo standard errors
    lo, hi = curves[(0.05, 0.05)], curves[(0.95, 0.95)]
    diff = np.abs(lo.mean(axis=0) - hi.mean(axis=0))[nonzero]
    se_sum = (lo.std(axis=0, ddof=1) + hi.std(axis=0, ddof=1))[nonzero] / math.sqrt(lo.shape[0])
    sym_ratio = float(np.max(diff / se_sum))
    assert sym_ratio < 3.0

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(4, f"GARCH null max|t| = {null_t:.2f} (<4), tail symmetry {sym_ratio:.2f} (<3 SE), {elapsed:.0f} s")


def test_criterion_05_gjr_asymmetry_direction():
    params = GarchParams(kind="gjr", mu=0.001, omega=1e-5, alpha1=0.05, beta1=0.9, gamma1=0.06)
    pairs = [(0.05, 0.05), (0.95, 0.95), (0.05, 0.95)]
    curves = averaged_curves(params, pairs, n_seeds=250, length=5000, max_lag=100, seed_base=10000)
    lags = np.arange(-100, 101)
    first20 = (lags >= 1) & (lags <= 20)
    both20 = (np.abs(lags) >= 1) & (np.abs(lags) <= 20)

    lo = curves[(0.05, 0.05)].mean(axis=0)
    hi = curves[(0.95, 0.95)].mean(axis=0)
    assert np.all(lo[first20] > hi[first20])

    cross = curves[(0.05, 0.95)].mean(axis=0)
    assert np.all(cross[both20] < 0.0)

    curve = QcfCurve(
        alpha=ProbabilityLevel(0.05), beta=ProbabilityLevel(0.95),
        values=cross, series_length=5000, n_averaged=250,
    )
    delta = asymmetry(curve).delta
    # gamma1 > 0 loads the response onto negative shocks, so the bigger area
    # sits on the positive-lag side of the estimator as written: delta < 0
    assert abs(delta) > 0.05
    assert delta < 0.0
    report(5, f"GJR: low tail above high tail at lags 1..20, cross-curve < 0, dA = {delta:+.3f}")


def test_criterion_06_egarch_one_sidedness():
    params = GarchParams(kind="egarch", mu=0.001, omega=1e-5, alpha1=0.05, beta1=0.9, gamma1=-0.06)
    pairs = [(0.5, 0.5), (0.05, 0.95)]
    curves = averaged_curves(params, pairs, n_seeds=250, length=1500, max_lag=60, seed_base=20000)
    lags = np.arange(-60, 61)
    nonzero = lags != 0

    reference = QcfCurve(
        alpha=ProbabilityLevel(0.5), beta=ProbabilityLevel(0.5),
        values=curves[(0.5, 0.5)].mean(axis=0), series_length=1500, n_averaged=250,
    )
    band = confidence_band(reference)
    cross = curves[(0.05, 0.95)].mean(axis=0)

    pos_first10 = cross[(lags >= 1) & (lags <= 10)]
    assert np.all(pos_first10 < -band)  # significantly negative at positive lags
    neg_50 = cross[(lags >= -50) & (lags <= -1)]
    assert np.all(neg_50 > -band)  # never significantly negative at negative lags
    report(
        6,
        f"EGARCH: lags 1..10 below -band ({band:.4f}), negative lags 1..50 "
        f"never significantly negative (min {neg_50.min():+.4f})",
    )


def test_criterion_07_parameter_recovery(gjr_recovery_fits):
    gamma_errors = [abs(f.params.gamma1 - 0.06) for f in gjr_recovery_fits.values()]
    persistence_errors = [
        abs(f.params.alpha1 + f.params.beta1 + f.params.gamma1 / 2.0 - 0.98)
        for f in gjr_recovery_fits.values()
    ]
    assert all(f.converged for f in gjr_recovery_fits.values())
    median_gamma = float(np.median(gamma_errors))
    worst_persistence = max(persistence_errors)
    assert median_gamma < 0.02
    assert worst_persistence <= 0.02
    elapsed = RECOVERY_ELAPSED.get("seconds", float("nan"))
    assert not elapsed > 600.0
    report(
        7,
        f"20 fits at T=50000: median |gamma err| = {median_gamma:.4f} (<0.02), "
        f"max persistence err = {worst_persistence:.4f} (<=0.02), {elapsed:.0f} s",
    )


def test_criterion_08_averaging_cancellation():
    base = dict(mu=0.0, omega=0.05, alpha1=0.10, beta1=0.85)
    plus = GarchParams(kind="gjr", gamma1=+0.08, **base)
    minus = GarchParams(kind="gjr", gamma1=-0.08, **base)
    days = [simulate(plus, length=5000, seed=500 + i).returns for i in range(3)]
    days += [simulate(minus, length=5000, seed=600 + i).returns for i in range(3)]
    fits = [fit_gjr(day) for day in days]
    gammas = [f.params.gamma1 for f in fits]
    assert max(gammas) > 0 and min(gammas) < 0  # straddle zero

    from qcorr import FitBatch

    batch = FitBatch(fits={f"day-{i}": f for i, f in enumerate(fits)}, excluded={})
    averaged = average_params(batch)
    assert abs(averaged.gamma1) < max(abs(g) for g in gammas)

    def resim_delta(params):
        sims = resimulate_experiment(params, n_series=100, length=2000, seed=99)
        stack = np.vstack([qcf_fast(s.returns, 0.05, 0.95, 50).values for s in sims])
        curve = QcfCurve(
            alpha=ProbabilityLevel(0.05), beta=ProbabilityLevel(0.95),
            values=stack.mean(axis=0),
            series_length=2000, n_averaged=100,
        )
        return asymmetry(curve).delta

    delta_reference = resim_delta(plus)
    delta_averaged = resim_delta(averaged)
    assert abs(delta_averaged) < abs(delta_reference)
    report(
        8,
        f"gammas straddle zero, |avg gamma| = {abs(averaged.gamma1):.4f} < "
        f"{max(abs(g) for g in gammas):.4f}, resim |dA| {abs(delta_averaged):.3f} < "
        f"{abs(delta_reference):.3f}",
    )


def test_criterion_09_delta_a_calibration():
    # values on lags -4..4
    one_sided = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.3, 0.2, 0.1, 0.05])

    def curve(values):
        return QcfCurve(
            alpha=ProbabilityLevel(0.05), beta=ProbabilityLevel(0.95),
            values=values, series_length=100,
        )

    assert asymmetry(curve(one_sided)).delta == -1.0
    assert asymmetry(curve(one_sided[::-1])).delta == 1.0
    symmetric = np.array([0.05, 0.1, 0.2, 0.3, 1.0, 0.3, 0.2, 0.1, 0.05])
    assert asymmetry(curve(symmetric)).delta == 0.0
    report(9, "dA = -1 / +1 / 0 on one-sided, mirrored and symmetric curves, exact")


def test_criterion_10_ingestion_gates():
    session_open, session_close = 0, 23400

    def day_with(n_seconds):
        ticks = tick_group([600 + 25 * k for k in range(n_seconds)], [10.0 + 1e-5 * k for k in range(n_seconds)])
        return resample_day(ticks, session_open, session_close, date="2007-01-03")

    rejected = day_with(799)
    assert isinstance(rejected, DayRejection)
    assert rejected.reason == "insufficient liquidity"

    accepted = day_with(800)
    assert not isinstance(accepted, DayRejection)
    assert len(accepted) == 22200

    rng = np.random.default_rng(12)
    for trial in range(5):
        n = int(rng.integers(800, 5000))
        seconds = np.sort(rng.choice(np.arange(session_open, session_close), size=n, replace=False))
        if seconds[0] > 600:
            seconds[0] = 0
        ticks = tick_group(seconds, [float(10 + rng.random()) for _ in seconds], "ZZZ")
        day = resample_day(ticks, session_open, session_close, date=f"d{trial}")
        assert not isinstance(day, DayRejection)
        assert len(day) == 22200
    report(10, "799 s rejected, 800 s accepted, all resampled grids exactly 22200 points")
