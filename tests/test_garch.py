import math
import re

import numpy as np
import pytest

from helpers import oracle_gjr_sigma2
from qcorr.garch import EGARCH_OVERFLOW, derived_seeds
from qcorr import (
    GarchParams,
    ModelKind,
    SimulationResult,
    TimeSeries,
    qcf_fast,
    resimulate_experiment,
    simulate,
    unconditional_variance,
    variance_path,
)

DEMO_SET = dict(mu=0.001, omega=1e-5, alpha1=0.05, beta1=0.9)


class TestGarchParams:
    def test_demonstration_sets_admissible(self):
        GarchParams(kind="garch", **DEMO_SET)
        GarchParams(kind="egarch", gamma1=-0.06, **DEMO_SET)
        GarchParams(kind="gjr", gamma1=0.06, **DEMO_SET)

    @pytest.mark.parametrize(
        "kind,overrides,message",
        [
            ("garch", {"omega": 0.0}, "omega > 0"),
            ("garch", {"alpha1": -0.1}, "alpha1 >= 0"),
            ("garch", {"alpha1": 0.2, "beta1": 0.8}, "alpha1 \\+ beta1 < 1"),
            ("garch", {"gamma1": 0.1}, "gamma1 must be 0"),
            ("gjr", {"gamma1": 0.11}, "gamma1/2 < 1"),
            ("gjr", {"alpha1": 0.02, "gamma1": -0.05}, "alpha1 \\+ gamma1 >= 0"),
            ("egarch", {"beta1": 1.0}, r"\|beta1\| < 1"),
        ],
    )
    def test_violations_named(self, kind, overrides, message):
        params = {**DEMO_SET, **overrides}
        with pytest.raises(ValueError, match=message):
            GarchParams(kind=kind, **params)

    def test_kind_coercion(self):
        assert GarchParams(kind="GJR", gamma1=0.06, **DEMO_SET).kind is ModelKind.GJR
        with pytest.raises(ValueError, match="unknown model kind"):
            GarchParams(kind="arch", **DEMO_SET)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GarchParams(kind="garch", mu=math.nan, omega=1e-5, alpha1=0.05, beta1=0.9)


class TestUnconditionalVariance:
    def test_garch(self):
        params = GarchParams(kind="garch", mu=0.0, omega=0.1, alpha1=0.2, beta1=0.7)
        assert unconditional_variance(params) == pytest.approx(1.0, rel=1e-12)

    def test_collapsed_recursion(self):
        params = GarchParams(kind="garch", mu=0.0, omega=0.37, alpha1=0.0, beta1=0.0)
        assert unconditional_variance(params) == pytest.approx(0.37, rel=1e-12)

    def test_gjr(self):
        params = GarchParams(kind="gjr", mu=0.0, omega=0.1, alpha1=0.1, beta1=0.7, gamma1=0.2)
        assert unconditional_variance(params) == pytest.approx(1.0, rel=1e-12)

    def test_egarch_log_fixed_point(self):
        params = GarchParams(kind="egarch", mu=0.0, omega=-0.2, alpha1=0.1, beta1=0.9, gamma1=-0.05)
        assert unconditional_variance(params) == pytest.approx(math.exp(-2.0), rel=1e-12)


class TestVariancePath:
    def test_gjr_hand_unrolled(self):
        # The path starts at the unconditional variance 0.25 / (1 - 0.75) = 1.
        # z = (+1, -1): sigma2 = 0.25 + 0.125 + 0.5 = 0.875 after the positive
        # shock, then the indicator activates gamma:
        # 0.25 + (0.125 + 0.25) * 0.875 + 0.5 * 0.875 = 1.015625
        params = GarchParams(kind="gjr", mu=0.0, omega=0.25, alpha1=0.125, beta1=0.5, gamma1=0.25)
        eps, sigma2 = variance_path(params, np.array([1.0, -1.0, 0.5]))
        assert sigma2[0] == 1.0
        assert sigma2[1] == pytest.approx(0.875, abs=1e-15)
        assert sigma2[2] == pytest.approx(1.015625, abs=1e-15)

    def test_matches_oracle_recursion(self):
        params = GarchParams(kind="gjr", mu=0.0, omega=0.05, alpha1=0.08, beta1=0.85, gamma1=0.04)
        rng = np.random.default_rng(11)
        z = rng.standard_normal(200)
        eps, sigma2 = variance_path(params, z)
        expected = oracle_gjr_sigma2(eps.tolist(), 0.05, 0.08, 0.85, 0.04, unconditional_variance(params))
        assert np.allclose(sigma2, expected, rtol=1e-12, atol=0.0)

    def test_egarch_fixed_point_initialization(self):
        params = GarchParams(kind="egarch", mu=0.0, omega=0.5, alpha1=0.1, beta1=0.9, gamma1=-0.06)
        _, sigma2 = variance_path(params, np.zeros(1))
        assert sigma2[0] == pytest.approx(math.exp(0.5 / 0.1), rel=1e-12)

    def test_sign_flip_symmetry_plain_garch(self):
        # mu = 0: negated innovations flip returns and leave variances alone
        params = GarchParams(kind="garch", mu=0.0, omega=1e-5, alpha1=0.05, beta1=0.9)
        z = np.random.default_rng(21).standard_normal(500)
        eps_pos, var_pos = variance_path(params, z)
        eps_neg, var_neg = variance_path(params, -z)
        assert np.array_equal(var_pos, var_neg)
        assert np.array_equal(eps_pos, -eps_neg)

    @pytest.mark.parametrize("shape", [(5, 2), (1, 5), ()])
    def test_innovations_of_one_series_only(self, shape):
        params = GarchParams(kind="gjr", mu=0.0, omega=0.25, alpha1=0.125, beta1=0.5, gamma1=0.25)
        message = f"variance_path takes one series, a 1-D array; got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            variance_path(params, np.zeros(shape))


class TestSimulate:
    def test_bit_identical_reproducibility(self):
        params = GarchParams(kind="gjr", gamma1=0.06, **DEMO_SET)
        a = simulate(params, length=1000, seed=123, burn_in=200)
        b = simulate(params, length=1000, seed=123, burn_in=200)
        assert np.array_equal(a.returns.values, b.returns.values)
        assert np.array_equal(a.variances, b.variances)
        assert a.innovations_seed == 123 and a.burn_in == 200

    def test_different_seed_differs(self):
        params = GarchParams(kind="garch", **DEMO_SET)
        a = simulate(params, length=500, seed=1)
        b = simulate(params, length=500, seed=2)
        assert not np.array_equal(a.returns.values, b.returns.values)

    def test_positivity(self):
        for kind, gamma in (("garch", 0.0), ("gjr", 0.06), ("egarch", -0.06)):
            params = GarchParams(kind=kind, gamma1=gamma, **DEMO_SET)
            sim = simulate(params, length=2000, seed=5)
            assert np.all(sim.variances > 0)

    def test_collapsed_recursion_sample_variance(self):
        n = 100_000
        params = GarchParams(kind="garch", mu=0.0, omega=0.04, alpha1=0.0, beta1=0.0)
        sim = simulate(params, length=n, seed=9)
        assert np.all(sim.variances == 0.04)
        sample = float(np.var(sim.returns.values))
        assert abs(sample - 0.04) < 3.0 * math.sqrt(2.0 / n) * 0.04

    def test_long_run_variance_matches_unconditional(self):
        params = GarchParams(kind="garch", **DEMO_SET)
        target = unconditional_variance(params)
        sims = [simulate(params, length=50_000, seed=s) for s in range(4)]
        sample = float(np.mean([np.var(s.returns.values) for s in sims]))
        # kurtosis of GARCH inflates the variance of the sample variance;
        # a 10% corridor at N=200k is a loose but meaningful Monte Carlo gate
        assert abs(sample - target) / target < 0.10

    def test_validation(self):
        params = GarchParams(kind="garch", **DEMO_SET)
        with pytest.raises(ValueError, match="length"):
            simulate(params, length=1, seed=0)
        with pytest.raises(ValueError, match="burn_in"):
            simulate(params, length=10, seed=0, burn_in=-1)

    @pytest.mark.parametrize("burn_in", [0, 1000])
    @pytest.mark.parametrize(
        "run",
        [lambda p, b: simulate(p, 10, 1, b), lambda p, b: resimulate_experiment(p, 3, 10, 1, b)],
        ids=["simulate", "resimulate_experiment"],
    )
    def test_egarch_overflow_is_one_refusal(self, run, burn_in):
        # The log-variance fixed point 800 / 0.9 is beyond log(max float),
        # so math.exp overflows in the one-series path and in the row path alike.
        params = GarchParams(kind="egarch", mu=0.0, omega=800.0, alpha1=0.1, beta1=0.1)
        with pytest.raises(ValueError, match=f"^{EGARCH_OVERFLOW}$"):
            run(params, burn_in)

    def test_egarch_burn_in_overflow_is_refused_by_both(self):
        # The log variance starts at 700, inside a float, and alpha1 = 5 lifts
        # it past log(max float) during the burn-in only: the two kept rows
        # would be finite.  Series 0 is simulate at its derived seed, so both
        # must refuse it with the one text.
        params = GarchParams(kind="egarch", mu=0.0, omega=700.0, alpha1=5.0, beta1=0.0)
        with pytest.raises(ValueError, match=f"^{EGARCH_OVERFLOW}$"):
            simulate(params, 2, derived_seeds(3, 1)[0])
        with pytest.raises(ValueError, match=f"^{EGARCH_OVERFLOW}$"):
            resimulate_experiment(params, 1, 2, 3)

    def test_returns_carry_drift(self):
        params = GarchParams(kind="garch", mu=5.0, omega=0.01, alpha1=0.0, beta1=0.0)
        sim = simulate(params, length=20_000, seed=3)
        assert float(np.mean(sim.returns.values)) == pytest.approx(5.0, abs=0.01)


class TestSimulationResult:
    def test_alignment_enforced(self):
        returns = TimeSeries(np.array([0.1, -0.2, 0.3]))
        with pytest.raises(ValueError, match="one-to-one"):
            SimulationResult(returns, np.array([1.0, 1.0]), innovations_seed=0, burn_in=0)

    def test_positive_variances_enforced(self):
        returns = TimeSeries(np.array([0.1, -0.2]))
        with pytest.raises(ValueError, match="positive"):
            SimulationResult(returns, np.array([1.0, 0.0]), innovations_seed=0, burn_in=0)

    def test_burn_in_nonnegative(self):
        returns = TimeSeries(np.array([0.1, -0.2]))
        with pytest.raises(ValueError, match="^burn_in must be nonnegative$"):
            SimulationResult(returns, np.array([1.0, 1.0]), innovations_seed=0, burn_in=-1)


class TestSignCorrelationNull:
    @pytest.mark.parametrize("kind,gamma", [("garch", 0.0), ("gjr", 0.06), ("egarch", -0.06)])
    def test_median_filter_correlation_is_zero(self, kind, gamma):
        # Gaussian innovations make the return distribution symmetric, so the
        # (0.5,0.5) correlation vanishes for every model in the family
        params = GarchParams(kind=kind, gamma1=gamma, **DEMO_SET)
        rows = []
        for seed in range(200):
            sim = simulate(params, length=2000, seed=3000 + seed, burn_in=500)
            rows.append(qcf_fast(sim.returns, 0.5, 0.5, 50).values)
        stack = np.vstack(rows)
        lags = np.arange(-50, 51)
        nonzero = lags != 0
        mean = stack.mean(axis=0)[nonzero]
        se = stack.std(axis=0, ddof=1)[nonzero] / math.sqrt(stack.shape[0])
        assert np.max(np.abs(mean) / se) < 4.0


class TestDistributionalSymmetry:
    def test_extreme_tail_curves_agree_across_seeds(self):
        # plain GARCH: (0.05,0.05) and (0.95,0.95) curves are equal in
        # distribution; 40-seed averages must agree within Monte Carlo noise
        params = GarchParams(kind="garch", **DEMO_SET)
        lo, hi = [], []
        for seed in range(40):
            sim = simulate(params, length=3000, seed=seed)
            lo.append(qcf_fast(sim.returns, 0.05, 0.05, 20).values)
            hi.append(qcf_fast(sim.returns, 0.95, 0.95, 20).values)
        lo = np.vstack(lo)
        hi = np.vstack(hi)
        diff = lo.mean(axis=0) - hi.mean(axis=0)
        scale = lo.std(axis=0, ddof=1) / math.sqrt(lo.shape[0])
        scale += hi.std(axis=0, ddof=1) / math.sqrt(hi.shape[0])
        lags = np.arange(-20, 21)
        assert np.all(np.abs(diff[lags != 0]) < 3.0 * scale[lags != 0])
