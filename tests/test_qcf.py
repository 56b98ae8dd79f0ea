import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EXAMPLE_BITS, EXAMPLE_SERIES, oracle_filter, oracle_qcf, oracle_quantile
from qcorr import (
    AsymmetryReport,
    BinarySeries,
    DegenerateLevelError,
    GarchParams,
    PPGrid,
    ProbabilityLevel,
    QcfCurve,
    TimeSeries,
    TradingDay,
    asymmetry,
    average_curves,
    average_grids,
    confidence_band,
    empirical_quantile,
    filter_series,
    pp_grid,
    qcf,
    qcf_fast,
    qcf_from_filtered,
    simulate,
)
from qcorr.cli import DEFAULT_PAIRS
from qcorr.qcf import _assemble, _curves, _grids, _next_fast_len, asymmetry_from_arrays
from qcorr.series import as_values

LEVEL_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


def tie_heavy(T, seed):
    """Gaussian noise with 20% exact zeros, so several levels share one threshold."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(T)
    x[rng.choice(T, T // 5, replace=False)] = 0.0
    return x


# Short series of 2-4 distinct integers, so most levels share a threshold
# with another and the higher levels often threshold at the maximum.
TIE_HEAVY_LISTS = st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True).flatmap(
    lambda support: st.lists(st.sampled_from(support), min_size=8, max_size=200)
)


def first_degenerate(xs, ps):
    """The first level in ps whose threshold is the maximum of xs, or None."""
    return next((p for p in ps if oracle_quantile(xs, p) == max(xs)), None)


def make_curve(values, alpha=0.05, beta=0.95, series_length=1000, **kw):
    """A curve on lags -L..L, L = len(values) // 2."""
    return QcfCurve(
        alpha=ProbabilityLevel(alpha),
        beta=ProbabilityLevel(beta),
        values=np.asarray(values, dtype=float),
        series_length=series_length,
        **kw,
    )


class TestEmpiricalQuantile:
    def test_worked_example_median(self):
        assert empirical_quantile(list(EXAMPLE_SERIES), 0.5) == 0.0

    def test_constant_series(self):
        for p in (0.0, 0.3, 0.5, 1.0):
            assert empirical_quantile([7.0] * 9, p) == 7.0

    def test_third_of_three(self):
        # sort-and-index oracle: x_(ceil(1)) = 1
        assert empirical_quantile([3.0, 1.0, 2.0], 1.0 / 3.0) == 1.0

    def test_p_zero_is_minimum_p_one_is_maximum(self):
        x = [4.0, -2.0, 9.0, 0.5]
        assert empirical_quantile(x, 0.0) == -2.0
        assert empirical_quantile(x, 1.0) == 9.0

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            empirical_quantile([], 0.5)

    def test_float_noise_at_integer_rank(self):
        # 0.05 * 5000 is 250 up to representation error, not rank 251
        x = np.arange(1.0, 5001.0)
        assert empirical_quantile(x, 0.05) == 250.0

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_sort_oracle(self, xs, p):
        assert empirical_quantile(xs, p) == oracle_quantile(xs, p)


class TestFilterSeries:
    def test_worked_example(self):
        f = filter_series(list(EXAMPLE_SERIES), 0.5)
        assert f.bits.tolist() == list(EXAMPLE_BITS)
        assert f.quantile_value == 0.0
        assert f.achieved_fraction == 0.6

    def test_p_one_all_ones(self):
        f = filter_series([3.0, -1.0, 2.0, 5.0], 1.0)
        assert f.bits.tolist() == [1, 1, 1, 1]

    def test_two_fifths(self):
        f = filter_series([5.0, 4.0, 3.0, 2.0, 1.0], 0.4)
        assert f.bits.tolist() == [0, 0, 0, 1, 1]
        assert f.quantile_value == 2.0

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=50),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_achieved_fraction_at_least_nominal_rank(self, xs, p):
        f = filter_series(xs, p)
        T = len(xs)
        assert f.achieved_fraction * T >= math.ceil(p * T) - 1e-9
        assert f.bits.tolist() == oracle_filter(xs, p)

    def test_complement_flips_everything(self):
        f = filter_series(list(EXAMPLE_SERIES), 0.5)
        c = f.complement()
        assert c.bits.tolist() == [1 - b for b in EXAMPLE_BITS]
        assert c.level.p == 0.5
        assert c.achieved_fraction == pytest.approx(0.4)
        assert c.quantile_value == f.quantile_value


class TestBinarySeriesValidation:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            BinarySeries(np.array([0, 2, 1]), ProbabilityLevel(0.5), 0.0)

    def test_level_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityLevel(1.5)


class TestQcf:
    def test_lag_zero_is_one_for_equal_levels(self):
        rng = np.random.default_rng(0)
        c = qcf(rng.standard_normal(100), 0.3, 0.3, 10)
        assert c.value_at(0) == 1.0

    def test_worked_example_matches_double_loop_oracle(self):
        expected = oracle_qcf(list(EXAMPLE_SERIES), 0.5, 0.5, 4)
        c = qcf(list(EXAMPLE_SERIES), 0.5, 0.5, 4)
        for lag in range(-4, 5):
            assert c.value_at(lag) == pytest.approx(expected[lag], abs=1e-14)
        # frozen oracle values; lag 1 is -2/5 under the estimator as written
        assert c.value_at(1) == pytest.approx(-0.4, abs=1e-14)
        assert c.value_at(2) == pytest.approx(11.0 / 30.0, abs=1e-14)

    @pytest.mark.parametrize("case", range(8))
    def test_matches_oracle_on_random_pairs(self, case):
        rng = np.random.default_rng(100 + case)
        T = int(rng.integers(30, 120))
        x = rng.standard_normal(T)
        alpha, beta = rng.choice(LEVEL_GRID, size=2)
        max_lag = int(rng.integers(1, T // 2))
        expected = oracle_qcf(x.tolist(), alpha, beta, max_lag)
        c = qcf(x, alpha, beta, max_lag)
        for lag, value in zip(c.lags, c.values):
            assert value == pytest.approx(expected[int(lag)], abs=1e-12)

    def test_white_noise_is_small(self):
        rng = np.random.default_rng(7)
        T = 100_000
        c = qcf_fast(rng.standard_normal(T), 0.05, 0.05, 100)
        nonzero = c.lags != 0
        assert np.max(np.abs(c.values[nonzero])) < 4.0 / math.sqrt(T)

    def test_degenerate_levels_refused(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        with pytest.raises(DegenerateLevelError, match="degenerate quantile level"):
            qcf(x, 1.0, 1.0, 5)
        with pytest.raises(DegenerateLevelError):
            qcf([5.0] * 50, 0.5, 0.5, 5)

    def test_max_lag_too_large(self):
        with pytest.raises(ValueError, match="max_lag"):
            qcf(np.arange(10.0), 0.5, 0.5, 5)

    def test_filtered_series_length_mismatch(self):
        a = filter_series(np.arange(10.0), 0.5)
        b = filter_series(np.arange(12.0), 0.5)
        with pytest.raises(ValueError, match="equal length"):
            qcf_from_filtered(a, b, 2)


class TestQcfFast:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(80, 2000))
        x = rng.standard_normal(T)
        alpha, beta = rng.choice(LEVEL_GRID, size=2)
        max_lag = int(rng.integers(1, T // 4 + 1))
        direct = qcf(x, alpha, beta, max_lag)
        fast = qcf_fast(x, alpha, beta, max_lag)
        assert np.array_equal(direct.lags, fast.lags)
        assert np.max(np.abs(direct.values - fast.values)) <= 1e-10

    def test_matches_direct_at_day_length(self):
        """A 22 140-second day with one-hour lags, the paper's curves;
        test_matches_direct draws T below 2000."""
        x = tie_heavy(22140, seed=30)
        for alpha, beta in DEFAULT_PAIRS:
            direct = qcf(x, alpha, beta, 3600)
            fast = qcf_fast(x, alpha, beta, 3600)
            assert np.max(np.abs(direct.values - fast.values)) <= 1e-10, (alpha, beta)

    def test_worked_example(self):
        direct = qcf(list(EXAMPLE_SERIES), 0.5, 0.5, 4)
        fast = qcf_fast(list(EXAMPLE_SERIES), 0.5, 0.5, 4)
        assert np.max(np.abs(direct.values - fast.values)) <= 1e-10

    @pytest.mark.parametrize("alpha, beta", [(0.3, 0.3), (0.1, 0.7)])
    def test_lag_zero_only(self, alpha, beta):
        x = np.random.default_rng(11).standard_normal(200)
        direct = qcf(x, alpha, beta, 0)
        fast = qcf_fast(x, alpha, beta, 0)
        assert direct.lags.tolist() == fast.lags.tolist() == [0]
        assert abs(direct.values[0] - fast.values[0]) <= 1e-10
        if alpha == beta:
            assert direct.values[0] == fast.values[0] == 1.0

    @pytest.mark.parametrize("seed, length, level", [(3, 500, 0.25)] + [(s, 2000, 0.5) for s in range(5)])
    def test_symmetric_for_equal_levels(self, seed, length, level):
        rng = np.random.default_rng(seed)
        c = qcf_fast(rng.standard_normal(length), level, level, 40)
        assert np.array_equal(c.values, c.values[::-1])
        assert c.value_at(0) == 1.0

    def test_next_fast_len_is_scipys_rule(self):
        import scipy.fft

        targets = range(1, 200_001)
        assert [_next_fast_len(t) for t in targets] == [scipy.fft.next_fast_len(t, real=True) for t in targets]

    @pytest.mark.parametrize("T, max_lag", [(370, 100), (22140, 3600), (50000, 3600)])
    def test_bits_match_scipy_fft(self, T, max_lag):
        import scipy.fft

        x = tie_heavy(T, T)
        for alpha, beta in DEFAULT_PAIRS:
            # qcf_fast's steps with scipy.fft at scipy's padded length, on
            # centered 0/1 rows built here from empirical_quantile.
            same = alpha == beta
            rows = [(x <= empirical_quantile(x, p)).astype(float) for p in (alpha, beta)]
            for row in rows:
                row -= row.mean()
            sumsq = [c * (1.0 - c / T) for c in (np.count_nonzero(x <= empirical_quantile(x, p)) for p in (alpha, beta))]
            n = scipy.fft.next_fast_len(T + max_lag, real=True)
            fa_hat = scipy.fft.rfft(rows[0], n)
            corr = scipy.fft.irfft(np.conj(fa_hat) * scipy.fft.rfft(rows[-1], n), n)
            if same:
                corr[0] = sumsq[0]
            denom = math.sqrt(sumsq[0] * sumsq[-1])
            neg = None if same else corr[n - max_lag :][::-1] / denom
            expected = _assemble(corr[: max_lag + 1] / denom, neg)
            assert np.array_equal(qcf_fast(x, alpha, beta, max_lag).values, expected), (alpha, beta)


class TestInvariances:
    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_equal_levels_exact(self, seed):
        rng = np.random.default_rng(seed)
        c = qcf(rng.standard_normal(200), 0.1, 0.1, 30)
        assert np.array_equal(c.values, c.values[::-1])
        assert c.value_at(0) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_swap_identity_exact(self, seed):
        rng = np.random.default_rng(10 + seed)
        x = rng.standard_normal(300)
        ab = qcf(x, 0.05, 0.6, 25)
        ba = qcf(x, 0.6, 0.05, 25)
        assert np.array_equal(ab.values, ba.values[::-1])

    @pytest.mark.parametrize("seed", range(5))
    def test_complement_identities(self, seed):
        rng = np.random.default_rng(20 + seed)
        x = rng.standard_normal(250)
        fa = filter_series(x, 0.05)
        fb = filter_series(x, 0.9)
        base = qcf_from_filtered(fa, fb, 20)
        double = qcf_from_filtered(fa.complement(), fb.complement(), 20)
        single = qcf_from_filtered(fa.complement(), fb, 20)
        assert np.max(np.abs(double.values - base.values)) <= 1e-12
        assert np.max(np.abs(single.values + base.values)) <= 1e-12

    @pytest.mark.parametrize("transform", [np.exp, lambda v: v**3 + v, lambda v: 2.5 * v + 7.0])
    def test_monotone_transform_invariance(self, transform):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(300)
        for p in (0.05, 0.5, 0.95):
            assert np.array_equal(filter_series(transform(x), p).bits, filter_series(x, p).bits)
        before = qcf(x, 0.05, 0.95, 20)
        after = qcf(transform(x), 0.05, 0.95, 20)
        assert np.array_equal(before.values, after.values)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_values_in_range(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(20, 200))
        x = rng.standard_normal(T)
        alpha, beta = rng.choice(LEVEL_GRID, size=2)
        c = qcf(x, alpha, beta, max(1, T // 4))
        assert np.all(np.abs(c.values) <= 1.0 + 1e-12)


class TestAverageCurves:
    def test_single_curve_identity(self):
        c = qcf(np.random.default_rng(0).standard_normal(100), 0.2, 0.8, 10)
        avg = average_curves([c])
        assert np.array_equal(avg.values, c.values)
        assert avg.n_averaged == 1

    def test_cancellation(self):
        a = make_curve([0.5, 0.2, -0.3])
        b = make_curve([-0.5, -0.2, 0.3])
        avg = average_curves([a, b])
        assert np.array_equal(avg.values, np.zeros(3))
        assert avg.n_averaged == 2

    def test_mean_of_three_constants(self):
        curves = [make_curve([v] * 3) for v in (0.1, 0.2, 0.3)]
        avg = average_curves(curves)
        assert np.allclose(avg.values, 0.2, atol=1e-15)

    def test_mismatched_pair_rejected(self):
        a = make_curve([0.1] * 3, alpha=0.05)
        b = make_curve([0.1] * 3, alpha=0.10)
        with pytest.raises(ValueError, match="quantile pair"):
            average_curves([a, b])

    def test_mismatched_grid_rejected(self):
        a = make_curve([0.1] * 3)
        b = make_curve([0.1] * 5)
        with pytest.raises(ValueError, match="lag grid"):
            average_curves([a, b])


class TestConfidenceBand:
    def test_zero_reference(self):
        ref = make_curve([0, 0, 1, 0, 0], alpha=0.5, beta=0.5)
        assert confidence_band(ref) == 0.0

    def test_alternating_values(self):
        c = 0.03
        ref = make_curve([c, -c, 1, -c, c], alpha=0.5, beta=0.5)
        assert confidence_band(ref) == pytest.approx(1.96 * c, rel=1e-12)

    def test_requires_median_pair(self):
        ref = make_curve([0, 1, 0], alpha=0.05, beta=0.05)
        with pytest.raises(ValueError, match=r"\(0.5, 0.5\)"):
            confidence_band(ref)

    def test_lag_zero_only_rejected(self):
        ref = make_curve([1.0], alpha=0.5, beta=0.5)
        with pytest.raises(ValueError, match="only lag 0"):
            confidence_band(ref)

    def test_covers_own_reference_fluctuations(self):
        # a 95% construction should cover >= 93% of the reference's own values
        params = GarchParams(kind="garch", mu=0.0, omega=1e-5, alpha1=0.05, beta1=0.9)
        inside = total = 0
        for seed in range(100):
            sim = simulate(params, length=2000, seed=seed, burn_in=500)
            ref = qcf_fast(sim.returns, 0.5, 0.5, 50)
            band = confidence_band(ref)
            nonzero = ref.lags != 0
            inside += int(np.count_nonzero(np.abs(ref.values[nonzero]) <= band))
            total += int(np.count_nonzero(nonzero))
        assert inside / total >= 0.93


class TestAsymmetry:
    def test_all_area_on_negative_lags(self):
        curve = make_curve([0.2, 0.1, 1.0, 0.0, 0.0])
        assert asymmetry(curve).delta == 1.0

    def test_symmetric_curve(self):
        curve = make_curve([0.2, -0.1, 1.0, -0.1, 0.2])
        report = asymmetry(curve)
        assert report.delta == 0.0
        assert not report.degenerate

    def test_ratio_half(self):
        curve = make_curve([0.2, 0.1, 1.0, -0.1, 0.0])
        assert asymmetry(curve).delta == pytest.approx(0.5, rel=1e-12)

    def test_mirror_negates_delta(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(-0.5, 0.5, size=21)
        d = asymmetry(make_curve(values)).delta
        d_mirror = asymmetry(make_curve(values[::-1])).delta
        assert d_mirror == pytest.approx(-d, abs=1e-15)

    def test_zero_area_degenerate(self):
        curve = make_curve([0.0, 1.0, 0.0])
        report = asymmetry(curve)
        assert report.delta == 0.0
        assert report.degenerate

    def test_report_derives_delta_from_its_areas(self):
        report = AsymmetryReport(0.1, 0.2, 5)
        assert report.delta == (0.1 - 0.2) / (0.1 + 0.2)
        assert not report.degenerate
        with pytest.raises(TypeError):
            AsymmetryReport(0.1, 0.2, 0.9, 5)

    @pytest.mark.parametrize("lags", [[-1, 0, 1, 1], [1, -1, 0]], ids=["repeated", "unsorted"])
    def test_lags_must_increase(self, lags):
        with pytest.raises(ValueError, match=r"lags must be -L\.\.L"):
            asymmetry_from_arrays(lags, [0.2] * len(lags))

    def test_asymmetric_grid_rejected(self):
        with pytest.raises(ValueError, match=r"lags must be -L\.\.L"):
            asymmetry_from_arrays([-1, 0, 1, 2], [0.1, 1.0, 0.1, 0.2])

    @pytest.mark.parametrize(
        "lags",
        [[-1, 1], [-2, -1, 1, 2], [-2, 0, 2], np.array([-1.0, 0.0, 1.0]), np.array([True, False, True])],
        ids=["no-lag-0", "no-lag-0-sparse", "sparse", "float", "bool"],
    )
    def test_lags_must_be_the_grid(self, lags):
        with pytest.raises(ValueError, match=r"lags must be -L\.\.L"):
            asymmetry_from_arrays(lags, [0.2] * len(lags))

    def test_grid_lags_accepted_in_any_integer_dtype(self):
        values = [0.2, 1.0, 0.1]
        for lags in ([-1, 0, 1], np.arange(-1, 2, dtype=np.int32), range(-1, 2)):
            assert asymmetry_from_arrays(lags, values) == asymmetry(make_curve(values))

    def test_max_lag_truncation(self):
        curve = make_curve([0.4, 0.1, 1.0, 0.1, 0.0])
        assert asymmetry(curve, max_lag=1).delta == 0.0
        assert asymmetry(curve, max_lag=2).delta == pytest.approx(0.4 / 0.6, rel=1e-12)
        with pytest.raises(ValueError, match="max_lag"):
            asymmetry(curve, max_lag=3)

    def test_delta_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            values = rng.uniform(-1, 1, size=11)
            report = asymmetry(make_curve(values))
            assert -1.0 <= report.delta <= 1.0


class TestPPGrid:
    # In the tie-heavy inputs several levels share one threshold, so the
    # grid is built on fewer distinct thresholds and expanded by rank.
    @pytest.mark.parametrize(
        "x, levels",
        [
            (np.random.default_rng(2).standard_normal(200), [0.1, 0.5, 0.9]),
            (tie_heavy(5000, seed=2), LEVEL_GRID),
        ],
        ids=["gaussian", "ties"],
    )
    def test_diagonal_at_lag_zero(self, x, levels):
        grid = pp_grid(x, levels, 0)
        assert np.array_equal(np.diagonal(grid.matrix), np.ones(len(levels)))

    @pytest.mark.parametrize(
        "x, levels",
        [
            (np.random.default_rng(3).standard_normal(400), [0.05, 0.3, 0.5, 0.95]),
            (tie_heavy(5000, seed=3), LEVEL_GRID),
        ],
        ids=["gaussian", "ties"],
    )
    def test_transpose_identity(self, x, levels):
        plus = pp_grid(x, levels, 7)
        minus = pp_grid(x, levels, -7)
        assert np.array_equal(plus.matrix, minus.matrix.T)

    @pytest.mark.parametrize("lag", [3, -3], ids=["lag3", "lag-3"])
    @pytest.mark.parametrize(
        "x",
        [np.random.default_rng(5).standard_normal(60), tie_heavy(60, seed=5)],
        ids=["gaussian", "ties"],
    )
    def test_matches_per_pair_oracle(self, x, lag):
        levels = [0.2, 0.5, 0.8]
        grid = pp_grid(x, levels, lag)
        for i, a in enumerate(levels):
            for j, b in enumerate(levels):
                expected = oracle_qcf(x.tolist(), a, b, abs(lag))[lag]
                assert grid.matrix[i, j] == pytest.approx(expected, abs=1e-12)

    # At T=22140 subtracting the two cross terms one at a time breaks the
    # symmetry; at T=5000 it happens to survive.
    @pytest.mark.parametrize("T", [5000, 22140])
    def test_lag_zero_is_exactly_symmetric(self, T):
        for x in (np.random.default_rng(4).standard_normal(T), tie_heavy(T, seed=4)):
            grid = pp_grid(x, LEVEL_GRID, 0).matrix
            assert np.array_equal(grid, grid.T)

    def test_shared_threshold_pairs_read_one_at_lag_zero(self):
        x = tie_heavy(5000, seed=2)
        grid = pp_grid(x, LEVEL_GRID, 0).matrix
        thresholds = [empirical_quantile(x, p) for p in LEVEL_GRID]
        shared = [
            (i, j)
            for i in range(len(LEVEL_GRID))
            for j in range(len(LEVEL_GRID))
            if i != j and thresholds[i] == thresholds[j]
        ]
        assert len(shared) == 12
        assert all(grid[i, j] == 1.0 for i, j in shared)
        assert np.array_equal(grid, grid.T)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_on_short_tie_heavy_series(self, data):
        T = data.draw(st.integers(8, 200), label="T")
        support = data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True))
        xs = data.draw(st.lists(st.sampled_from(support), min_size=T, max_size=T))
        levels = data.draw(st.lists(st.sampled_from(LEVEL_GRID), min_size=1, max_size=5))
        # Unsorted levels with at least one duplicate.
        levels = levels + [levels[0]]
        m = data.draw(st.integers(0, (T - 1) // 2), label="m")
        x = np.array(xs, dtype=float)
        if any(oracle_quantile(xs, p) == max(xs) for p in levels):
            with pytest.raises(DegenerateLevelError):
                pp_grid(x, levels, m)
            return
        oracle = {(a, b): oracle_qcf(xs, a, b, m) for a in set(levels) for b in set(levels)}
        for lag in range(-m, m + 1):
            grid = pp_grid(x, levels, lag).matrix
            for i, a in enumerate(levels):
                for j, b in enumerate(levels):
                    assert grid[i, j] == pytest.approx(oracle[(a, b)][lag], abs=1e-12)
            if lag > 0:
                assert np.array_equal(grid, pp_grid(x, levels, -lag).matrix.T)

    def test_more_than_255_distinct_thresholds(self):
        # Buckets then run past 255, so they cannot be held in uint8.
        x = np.random.default_rng(6).standard_normal(1000)
        levels = [i / 400 for i in range(1, 400)]
        grid = pp_grid(x, levels, 3).matrix
        for i, j in [(0, 398), (300, 10), (255, 256), (398, 398), (397, 1)]:
            expected = qcf(x, levels[i], levels[j], 3).value_at(3)
            assert grid[i, j] == pytest.approx(expected, abs=1e-12)

    def test_rejects_boundary_levels(self):
        with pytest.raises(ValueError, match="strictly inside"):
            pp_grid(np.arange(20.0), [0.0, 0.5], 1)

    def test_degenerate_from_ties(self):
        with pytest.raises(DegenerateLevelError):
            pp_grid(np.ones(40), [0.5], 1)

    def test_degenerate_message_names_first_level_in_input_order(self):
        # Levels 0.5 and above threshold at the repeated maximum; 0.9 comes
        # first in the input although 0.5 is the lowest of them.
        x = np.concatenate([np.arange(10.0), np.full(30, 10.0)])
        with pytest.raises(DegenerateLevelError, match=r"at p=0\.9 is constant"):
            pp_grid(x, [0.1, 0.9, 0.2, 0.5, 0.8], 1)


class TestBatches:
    """_curves and _grids serve many requests from one sort of a series; each
    result must equal the one-request call (qcf_fast, pp_grid) bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(xs=TIE_HEAVY_LISTS, data=st.data())
    def test_curves_equal_one_request_each(self, xs, data):
        x = np.array(xs, dtype=float)
        level = st.sampled_from(LEVEL_GRID)
        pairs = data.draw(st.lists(st.tuples(level, level), min_size=1, max_size=4), label="pairs")
        a, b = pairs[0]
        shared = [p for p in LEVEL_GRID if p != a and oracle_quantile(xs, p) == oracle_quantile(xs, a)]
        # Swapped, repeated, equal levels, and distinct levels that share one threshold.
        pairs += [(b, a), (a, b), (b, b)] + [(a, p) for p in shared[:1]]
        max_lag = data.draw(st.integers(0, (x.size - 1) // 2), label="max_lag")
        first = first_degenerate(xs, [p for pair in pairs for p in pair])
        if first is not None:
            with pytest.raises(DegenerateLevelError, match=rf"at p={re.escape(str(first))} is"):
                _curves(x, pairs, max_lag)
            return
        batch = _curves(x, pairs, max_lag)
        assert len(batch) == len(pairs)
        for (alpha, beta), curve in zip(pairs, batch):
            one = qcf_fast(x, alpha, beta, max_lag)
            assert (curve.alpha, curve.beta) == (one.alpha, one.beta)
            assert np.array_equal(curve.lags, one.lags)
            assert np.array_equal(curve.values, one.values)

    @settings(max_examples=100, deadline=None)
    @given(xs=TIE_HEAVY_LISTS, data=st.data())
    def test_grids_equal_one_request_each(self, xs, data):
        x = np.array(xs, dtype=float)
        levels = data.draw(st.lists(st.sampled_from(LEVEL_GRID), min_size=1, max_size=5), label="levels")
        m = (x.size - 1) // 2
        lags = data.draw(st.lists(st.integers(-m, m), min_size=1, max_size=4), label="lags")
        # Lag 0, a negative lag and a repeated lag.
        lags += [0, -max(abs(lags[0]), 1), lags[0]]
        first = first_degenerate(xs, levels)
        if first is not None:
            with pytest.raises(DegenerateLevelError, match=rf"at p={re.escape(str(first))} is"):
                _grids(x, levels, lags)
            return
        batch = _grids(x, levels, lags)
        assert [grid.lag for grid in batch] == lags
        for lag, grid in zip(lags, batch):
            assert np.array_equal(grid.matrix, pp_grid(x, levels, lag).matrix)

    def test_grids_refuse_a_long_lag_before_a_degenerate_level(self):
        x = np.ones(40)
        with pytest.raises(ValueError, match="lag -20 too large for series of length 40"):
            pp_grid(x, [0.5], -20)
        with pytest.raises(ValueError, match="lag 20 too large"):
            _grids(x, [0.5], [1, 20])

    def test_curves_refuse_a_degenerate_level_before_max_lag(self):
        x = np.concatenate([np.arange(10.0), np.full(30, 10.0)])
        with pytest.raises(DegenerateLevelError, match=r"at p=0\.5 is constant"):
            qcf_fast(x, 0.5, 0.1, 20)
        with pytest.raises(DegenerateLevelError, match=r"at p=0\.9 is constant"):
            _curves(x, [(0.1, 0.2), (0.9, 0.5)], 20)


class TestQcfCurveValidation:
    @pytest.mark.parametrize("values", [[0.1, 0.1], [], [[0.1, 1.0, 0.1]]], ids=["even", "empty", "2-d"])
    def test_values_are_one_per_lag_of_a_grid(self, values):
        with pytest.raises(ValueError, match="odd length"):
            make_curve(values)

    def test_lag_bound(self):
        make_curve([0.1] * 4 + [1.0] + [0.1] * 4, series_length=9)
        with pytest.raises(ValueError, match="max_lag 5 too large for series of length 10"):
            make_curve([0.1] * 5 + [1.0] + [0.1] * 5, series_length=10)

    def test_value_range(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            make_curve([0.5, 1.0, 1.5])

    def test_with_ci(self):
        curve = make_curve([0.1, 0.9, 0.1])
        banded = curve.with_ci(0.05)
        assert banded.ci_half_width == 0.05
        assert curve.ci_half_width is None
        with pytest.raises(ValueError, match="nonnegative"):
            curve.with_ci(-0.1)

    def test_value_at_indexes_the_grid(self):
        curve = make_curve([0.1, 0.2, 0.9, 0.3, 0.4])
        assert [curve.value_at(lag) for lag in (-2, -1, 0, 1, np.int64(2))] == [0.1, 0.2, 0.9, 0.3, 0.4]

    def test_value_at_missing_lag(self):
        curve = make_curve([0.1, 0.9, 0.1])
        for lag in (5, 2, -2, 1.0, 0.5, "1", None):
            with pytest.raises(KeyError):
                curve.value_at(lag)

    def test_lag_grid_is_derived_from_the_values(self):
        assert "lags" not in {f.name for f in dataclasses.fields(QcfCurve)}
        x = np.random.default_rng(3).standard_normal(400)
        for curve in _curves(x, [(0.05, 0.95), (0.5, 0.5)], 20):
            assert curve.max_lag == 20
            assert curve.lags.tolist() == list(range(-20, 21))
            assert curve.lags is not curve.lags  # a fresh array: writing one changes no curve
        assert make_curve([1.0]).lags.tolist() == [0]

    def test_arrays_passed_in_are_copied(self):
        values = np.array([0.1, 0.9, 0.1])
        curve = make_curve(values)
        assert not np.shares_memory(curve.values, values)
        assert not curve.values.flags.writeable


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            TimeSeries(np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            TimeSeries(np.array([1.0, np.nan]))

    def test_immutable(self):
        ts = TimeSeries(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestNonFiniteValues:
    @settings(max_examples=200, deadline=None)
    @given(L=st.integers(1, 6), k=st.integers(1, 4), data=st.data())
    def test_one_nan_or_infinity_is_refused_everywhere(self, L, k, data):
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="bad")
        values = np.full(2 * L + 1, 0.25)  # a correlation and a price
        values[data.draw(st.integers(0, 2 * L), label="position")] = bad
        matrix = np.full((k, k), 0.25)
        matrix.flat[data.draw(st.integers(0, k * k - 1), label="entry")] = bad
        builders = {
            "TimeSeries": lambda: TimeSeries(values),
            "QcfCurve": lambda: QcfCurve(0.05, 0.95, values, series_length=1000),
            "PPGrid": lambda: PPGrid(1, [(i + 1) / (k + 1) for i in range(k)], matrix),
            "TradingDay": lambda: TradingDay("AAA", "2007-01-03", values, values.size),
            "asymmetry_from_arrays": lambda: asymmetry_from_arrays(np.arange(-L, L + 1), values),
        }
        for name, build in builders.items():
            with pytest.raises(ValueError):
                build()
                pytest.fail(f"{name} accepted {bad}")


def one_level_grid(lag=1, level=0.5, **kw):
    return PPGrid(lag, [level], np.full((1, 1), 0.1), **kw)


class TestRefusals:
    """Each refusal of the value types and estimators, with its exact text."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: pp_grid(np.arange(20.0), [], 1), "empty level grid"),
            (lambda: BinarySeries(np.array([], np.uint8), ProbabilityLevel(0.5), 0.0),
             "bits must be a nonempty one-dimensional array"),
            (lambda: BinarySeries(np.array([[0, 1]]), ProbabilityLevel(0.5), 0.0),
             "bits must be a nonempty one-dimensional array"),
            (lambda: make_curve([1.0], series_length=1), "series_length must be at least 2"),
            (lambda: make_curve([1.0], n_averaged=0), "n_averaged must be positive"),
            (lambda: qcf_fast(np.arange(20.0), 0.5, 0.5, -1), "max_lag must be nonnegative"),
            (lambda: average_curves([]), "empty input"),
            (lambda: AsymmetryReport(-0.1, 0.2, 5), "areas are sums of absolute values; must be nonnegative"),
            (lambda: AsymmetryReport(0.1, 0.2, 0), "max_lag must be at least 1"),
            (lambda: asymmetry_from_arrays([-1, 0, 1], [[0.1, 1.0, 0.1]]), "values must be a 1-d array"),
            (lambda: asymmetry_from_arrays([0], [1.0]), "curve must extend to at least lag 1"),
            (lambda: PPGrid(1, [0.5], np.zeros((1, 2))), "matrix must be square with one row/column per level"),
            (lambda: one_level_grid(n_averaged=0), "n_averaged must be positive"),
            (lambda: average_grids([]), "empty input"),
            (lambda: average_grids([one_level_grid(lag=1), one_level_grid(lag=2)]),
             "grids must share the same lag"),
            (lambda: average_grids([one_level_grid(level=0.5), one_level_grid(level=0.4)]),
             "grids must share the same level grid"),
            (lambda: as_values(np.zeros((2, 2))), "expected a one-dimensional series, got shape (2, 2)"),
        ],
        ids=["grid-without-levels", "bits-empty", "bits-2-d", "curve-length-1", "curve-averaged-0",
             "negative-max-lag", "no-curves", "negative-area", "report-max-lag-0", "asymmetry-2-d",
             "asymmetry-lag-0-only", "grid-not-square", "grid-averaged-0", "no-grids",
             "grids-lags-differ", "grids-levels-differ", "series-2-d"],
    )
    def test_refusal_text(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
