import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from conftest import RECOVERY_SEEDS, RECOVERY_TRUE
from helpers import oracle_gjr_loglik
from qcorr import (
    FitBatch,
    FitResult,
    GarchParams,
    TimeSeries,
    average_params,
    fit_gjr,
    fit_per_day,
    gjr_log_likelihood,
    resimulate_experiment,
    simulate,
)
from qcorr import fitting, serialize
from qcorr.garch import _BLOCK_SERIES, derived_seeds
from qcorr.fitting import (
    MIN_FIT_LENGTH, START_POINTS, _bfgs, _lockstep, _negative_ll_and_score, _pack, _recursion, _unpack,
)

GJR_UNIT = GarchParams(kind="gjr", mu=0.0, omega=1.0, alpha1=0.0, beta1=0.0, gamma1=0.0)


@pytest.fixture(scope="module")
def optimality_fits():
    """(day, fit) for 50 fixed T=369 days: gamma1 from -0.08 to 0.08, unconditional variance 1."""
    days = [
        simulate(
            GarchParams(kind="gjr", mu=0.0, omega=1.0 - 0.12 - 0.8 - g / 2.0,
                        alpha1=0.12, beta1=0.8, gamma1=float(g)),
            length=369, seed=4000 + i,
        ).returns.values
        for i, g in enumerate(np.linspace(-0.08, 0.08, 50))
    ]
    return [(day, fit_gjr(day)) for day in days]


def _lfilter_rows(u, beta, start):
    """The recursion row by row through scipy's filter, the reference."""
    return np.array([lfilter([1.0], [1.0, -b], row, zi=[b * y0])[0]
                     for row, b, y0 in zip(u, beta, start)])


class TestRecursion:
    @pytest.mark.parametrize("length", [1, 2, 369, 50_000])
    @pytest.mark.parametrize("beta", [0.0, 1e-12, 0.5, 1.0 - 1e-6])
    def test_matches_lfilter(self, beta, length):
        rng = np.random.default_rng(length)
        u = rng.standard_normal((3, length)) * rng.uniform(0.1, 10.0, (3, 1))
        betas, start = np.full(3, beta), rng.standard_normal(3)
        # the error bound scales with the recursion of |u| from |start|
        bound = 1e-13 * _lfilter_rows(np.abs(u), betas, np.abs(start))
        assert np.all(np.abs(_recursion(u, betas, start) - _lfilter_rows(u, betas, start)) <= bound)

    @given(st.integers(1, 6), st.integers(1, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_stacks_match_lfilter(self, rows, length, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((rows, length))
        betas = rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0 - 10.0 ** -rng.uniform(1, 9)], rows)
        start = rng.standard_normal(rows)
        bound = 1e-13 * _lfilter_rows(np.abs(u), betas, np.abs(start))
        assert np.all(np.abs(_recursion(u, betas, start) - _lfilter_rows(u, betas, start)) <= bound)


class TestLockstepBfgs:
    def test_runs_are_scipys_bfgs_on_rosenbrock(self):
        from scipy.optimize import minimize, rosen, rosen_der

        starts = [np.array(x, dtype=float) for x in (
            [-1.2, 1.0, -0.5, 0.3, 2.0], [0.0] * 5, [2.0] * 5, [1.5, -0.5, 0.8, 1.1, 0.2],
            [-2.0, 3.0, 0.1, -1.0, 1.0])]

        def objective(live, stack):
            return np.array([rosen(x) for x in stack]), np.array([rosen_der(x) for x in stack])

        ends = _lockstep([_bfgs(x, 3000) for x in starts], objective)
        for x0, (x, value, iterations, success) in zip(starts, ends):
            ref = minimize(rosen, x0, jac=rosen_der, method="BFGS")
            assert success == ref.success
            assert abs(iterations - ref.nit) <= 2
            assert np.max(np.abs(x - ref.x)) <= 1e-8
            assert value == pytest.approx(ref.fun, abs=1e-12)


class TestLogLikelihood:
    def test_iid_gaussian_analytic_value(self):
        n = 10_000
        r = np.random.default_rng(0).standard_normal(n)
        value = gjr_log_likelihood(r, GJR_UNIT)
        expected = -(n / 2.0) * (math.log(2.0 * math.pi) + 1.0)
        assert abs(value - expected) / abs(expected) < 0.05

    def test_location_shift_invariance(self):
        r = np.random.default_rng(1).standard_normal(500)
        params = GarchParams(kind="gjr", mu=0.0, omega=0.01, alpha1=0.1, beta1=0.5, gamma1=0.2)
        shifted = GarchParams(kind="gjr", mu=3.7, omega=0.01, alpha1=0.1, beta1=0.5, gamma1=0.2)
        assert gjr_log_likelihood(r + 3.7, shifted) == gjr_log_likelihood(r, params)

    def test_three_point_hand_example(self):
        r = [0.1, -0.2, 0.05]
        # too short for the library guard; compare on a padded variant too
        expected = oracle_gjr_loglik(r * 4, 0.0, 0.01, 0.1, 0.5, 0.2)
        params = GarchParams(kind="gjr", mu=0.0, omega=0.01, alpha1=0.1, beta1=0.5, gamma1=0.2)
        value = gjr_log_likelihood(np.array(r * 4), params)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_hand_unrolled_oracle_on_random_data(self):
        rng = np.random.default_rng(6)
        r = rng.standard_normal(300) * 0.02
        params = GarchParams(kind="gjr", mu=0.0005, omega=1e-5, alpha1=0.07, beta1=0.88, gamma1=0.05)
        value = gjr_log_likelihood(r, params)
        expected = oracle_gjr_loglik(r.tolist(), 0.0005, 1e-5, 0.07, 0.88, 0.05)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError, match="at least 10"):
            gjr_log_likelihood(np.arange(5.0), GJR_UNIT)
        with pytest.raises(ValueError, match="GJR"):
            gjr_log_likelihood(
                np.arange(20.0), GarchParams(kind="garch", mu=0, omega=1e-5, alpha1=0.0, beta1=0.0)
            )
        with pytest.raises(ValueError, match="zero-variance"):
            gjr_log_likelihood(np.full(20, 0.25), GJR_UNIT)

    def test_overflowing_variance_is_refused(self):
        huge = np.array([1e200, -1e200] * 10)  # their variance is beyond the largest float
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="left the positive domain"):
                gjr_log_likelihood(huge, GJR_UNIT)


class TestFitGjr:
    def test_iid_data_has_no_arch_terms(self):
        r = np.random.default_rng(2).standard_normal(50_000)
        fit = fit_gjr(r)
        assert fit.converged
        assert abs(fit.params.alpha1) < 0.02
        assert abs(fit.params.gamma1) < 0.02

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match=r"series too short \(49 < 50\)"):
            fit_gjr(np.random.default_rng(0).standard_normal(49))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            fit_gjr(np.full(100, 1.0))

    def test_likelihood_ascent_over_start_points(self, gjr_recovery_fits):
        seed = RECOVERY_SEEDS[0]
        fit = gjr_recovery_fits[seed]
        r = simulate(RECOVERY_TRUE, length=50000, seed=seed).returns
        variance = float(np.var(r.values))
        mean = float(np.mean(r.values))
        for alpha1, beta1, gamma1 in START_POINTS:
            omega0 = max(variance * (1.0 - (alpha1 + beta1 + gamma1 / 2.0)), 1e-12)
            start = GarchParams(
                kind="gjr", mu=mean, omega=omega0, alpha1=alpha1, beta1=beta1, gamma1=gamma1
            )
            assert fit.log_likelihood >= gjr_log_likelihood(r, start) - 1e-8

    def test_recovery_consistency_error_shrinks_with_t(
        self, gjr_recovery_fits, gjr_recovery_fits_short
    ):
        long_err = np.median(
            [abs(gjr_recovery_fits[s].params.gamma1 - 0.06) for s in RECOVERY_SEEDS]
        )
        short_err = np.median(
            [abs(gjr_recovery_fits_short[s].params.gamma1 - 0.06) for s in RECOVERY_SEEDS]
        )
        assert long_err < short_err

    def test_location_equivariance(self):
        r = simulate(RECOVERY_TRUE, length=8000, seed=31).returns.values
        base = fit_gjr(r)
        shifted = fit_gjr(r + 0.5)
        assert shifted.params.mu - base.params.mu == pytest.approx(0.5, abs=2e-3)
        assert shifted.params.alpha1 == pytest.approx(base.params.alpha1, abs=2e-3)
        assert shifted.params.beta1 == pytest.approx(base.params.beta1, abs=2e-3)
        assert shifted.params.gamma1 == pytest.approx(base.params.gamma1, abs=2e-3)
        assert shifted.params.omega == pytest.approx(base.params.omega, rel=0.05)

    def test_scale_equivariance(self):
        r = simulate(RECOVERY_TRUE, length=8000, seed=32).returns.values
        s = 3.0
        base = fit_gjr(r)
        scaled = fit_gjr(s * r)
        assert scaled.params.mu == pytest.approx(s * base.params.mu, abs=2e-3 * s)
        assert scaled.params.omega == pytest.approx(s * s * base.params.omega, rel=0.05)
        assert scaled.params.alpha1 == pytest.approx(base.params.alpha1, abs=2e-3)
        assert scaled.params.beta1 == pytest.approx(base.params.beta1, abs=2e-3)
        assert scaled.params.gamma1 == pytest.approx(base.params.gamma1, abs=2e-3)

    def test_fit_params_always_admissible(self):
        # the reparameterization cannot leave the admissible set
        r = np.random.default_rng(4).standard_normal(300) * 0.01
        fit = fit_gjr(r)
        p = fit.params
        assert p.omega > 0 and p.alpha1 >= 0 and p.beta1 >= 0
        assert p.alpha1 + p.beta1 + p.gamma1 / 2.0 < 1.0


class TestScoreAndOptimality:
    @pytest.mark.parametrize("length", [369, 5000])
    def test_score_matches_central_differences(self, length):
        r = simulate(RECOVERY_TRUE, length=length, seed=length).returns.values
        rng = np.random.default_rng(length)
        thetas = [rng.normal(size=5) * [0.1, 1.0, 2.0, 2.0, 1.5] for _ in range(6)]
        thetas.append(np.array([0.05, -2.0, 12.0, -1.0, -0.8]))  # persistence at the cap, gamma1 < 0
        thetas.append(np.array([-0.02, -3.0, 3.0, -0.5, -2.0]))  # alpha1 + gamma1 close to 0
        for theta in thetas:
            _, [score] = _negative_ll_and_score(theta[None], r)
            numeric = np.empty(5)
            for k in range(5):
                step = np.zeros(5)
                step[k] = 1e-5 * max(1.0, abs(theta[k]))
                [up], _ = _negative_ll_and_score((theta + step)[None], r)
                [down], _ = _negative_ll_and_score((theta - step)[None], r)
                numeric[k] = (up - down) / (2.0 * step[k])
            scale = np.max(np.abs(numeric))
            assert np.max(np.abs(score - numeric)) <= 1e-6 * scale, _unpack(theta)

    def test_a_stack_scores_each_row_as_alone(self):
        # lockstep rounds evaluate the starts together; each must see its own bits
        r = simulate(RECOVERY_TRUE, length=369, seed=3).returns.values
        thetas = np.random.default_rng(0).normal(size=(6, 5)) * [0.1, 1.0, 2.0, 2.0, 1.5]
        thetas[5] = [0.0, 800.0, 0.0, 0.0, 0.0]  # omega overflows
        values, scores = _negative_ll_and_score(thetas, r)
        assert values[5] == np.inf and not np.any(scores[5])
        for theta, value, score in zip(thetas, values, scores):
            [alone], [alone_score] = _negative_ll_and_score(theta[None], r)
            assert alone == value and np.array_equal(alone_score, score)

    def test_every_fixed_day_converges(self, optimality_fits):
        assert len(optimality_fits) >= 50
        assert all(fit.converged for _, fit in optimality_fits)

    def test_nelder_mead_polish_cannot_improve(self, optimality_fits):
        from scipy.optimize import minimize

        for day, fit in optimality_fits:
            def negative_ll(theta):
                mu, omega, alpha1, beta1, gamma1 = _unpack(theta)
                params = GarchParams(kind="gjr", mu=mu, omega=omega,
                                     alpha1=alpha1, beta1=beta1, gamma1=gamma1)
                return -gjr_log_likelihood(day, params)

            p = fit.params
            theta = _pack(p.mu, p.omega, p.alpha1, p.beta1, p.gamma1)
            polish = minimize(negative_ll, theta, method="Nelder-Mead",
                              options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": 4000})
            assert -polish.fun <= fit.log_likelihood + 1e-6

    def test_fit_likelihood_is_the_kernel_at_the_fitted_parameters(self, optimality_fits):
        for day, fit in optimality_fits:
            assert fit.log_likelihood == pytest.approx(gjr_log_likelihood(day, fit.params), rel=1e-10)

    def test_iteration_limit_is_not_convergence(self):
        fit = fit_gjr(simulate(RECOVERY_TRUE, length=369, seed=1).returns, max_iter=2)
        assert not fit.converged and fit.iterations <= 2


class TestFitResultBatch:
    def test_converged_requires_finite_ll(self):
        with pytest.raises(ValueError, match="finite"):
            FitResult(GJR_UNIT, math.inf, converged=True, iterations=5, n_obs=100)

    def test_counts_nonnegative(self):
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            FitResult(GJR_UNIT, -10.0, converged=True, iterations=-1, n_obs=100)

    def test_batch_disjointness(self):
        fit = FitResult(GJR_UNIT, -10.0, converged=True, iterations=5, n_obs=100)
        with pytest.raises(ValueError, match="both fitted and excluded"):
            FitBatch(fits={"d": fit}, excluded={"d": "reason"})


class TestFitPerDay:
    def test_three_synthetic_days(self):
        days = [simulate(RECOVERY_TRUE, length=3000, seed=s).returns for s in (1, 2, 3)]
        batch = fit_per_day(days)
        assert len(batch.fits) == 3 and not batch.excluded
        for fit in batch.fits.values():
            assert fit.converged
            assert abs(fit.params.gamma1 - 0.06) < 0.05

    def test_constant_day_excluded(self):
        good = simulate(RECOVERY_TRUE, length=500, seed=4).returns
        flat = TimeSeries(np.zeros(370) + 0.5, label="flat-day")
        batch = fit_per_day([good, flat])
        assert len(batch.fits) == 1
        assert batch.excluded == {"flat-day": "zero-variance returns"}

    def test_partition_exhaustive_and_disjoint(self):
        days = [
            simulate(RECOVERY_TRUE, length=500, seed=5).returns,
            TimeSeries(np.ones(100), label="const"),
            TimeSeries(np.random.default_rng(0).standard_normal(30), label="short"),
        ]
        batch = fit_per_day(days)
        keys = set(batch.fits) | set(batch.excluded)
        assert len(keys) == len(days)
        assert not set(batch.fits) & set(batch.excluded)
        assert "short" in batch.excluded and "const" in batch.excluded

    def test_unconverged_day_excluded(self, monkeypatch):
        def unconverged(days, max_iter=3000):
            return [FitResult(GJR_UNIT, math.nan, converged=False, iterations=3, n_obs=len(day))
                    for day in days]

        monkeypatch.setattr(fitting, "_fit_days", unconverged)
        days = [TimeSeries(np.random.default_rng(2).standard_normal(370), label="stuck"),
                TimeSeries(np.ones(100), label="const")]
        batch = fit_per_day(days)
        assert not batch.fits
        assert batch.excluded == {"stuck": "optimizer did not converge", "const": "zero-variance returns"}

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            fit_per_day([])

    def test_duplicate_labels_get_unique_keys(self):
        same = simulate(RECOVERY_TRUE, length=400, seed=8).returns
        batch = fit_per_day([same, same])
        assert len(set(batch.fits) | set(batch.excluded)) == 2


@st.composite
def _mixed_batches(draw):
    """GJR days at 2-3 lengths, short and constant days among them, and a stack cap."""
    lengths = draw(st.lists(st.integers(MIN_FIT_LENGTH, 400), min_size=2, max_size=3, unique=True))
    days = []
    for length in lengths:
        for _ in range(draw(st.integers(1, 2))):
            gamma1 = draw(st.floats(-0.05, 0.08))
            params = GarchParams(kind="gjr", mu=0.0, omega=0.05, alpha1=0.06, beta1=0.88, gamma1=gamma1)
            days.append(simulate(params, length=length, seed=draw(st.integers(0, 2**32 - 1))).returns)
    days.append(TimeSeries(np.full(draw(st.sampled_from(lengths)), 0.25)))
    days.append(TimeSeries(np.random.default_rng(0).standard_normal(draw(st.integers(10, 49)))))
    cap = draw(st.sampled_from([fitting._STACK, 1, 600, 2000]))
    return draw(st.permutations(days)), cap


class TestBatchStack:
    """fit_per_day fits each length's days in shared lockstep stacks; every
    fit must be the fit of its day alone, bit for bit."""

    @staticmethod
    def _assert_stacked_equals_alone(days, batch):
        keys = fitting._day_keys(days)
        assert set(batch.fits) | set(batch.excluded) == set(keys)
        for key, day in zip(keys, days):
            if day.values.size < MIN_FIT_LENGTH or np.var(day.values) <= 0:
                assert key in batch.excluded
            elif (alone := fit_gjr(day)).converged:
                # repr spells each float exactly, sign of zero included.
                assert repr(batch.fits[key]) == repr(alone)
            else:
                assert batch.excluded[key] == "optimizer did not converge"

    @given(_mixed_batches())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_stacked_equals_alone(self, drawn):
        days, cap = drawn
        with mock.patch.object(fitting, "_STACK", cap):
            batch = fit_per_day(days)
        self._assert_stacked_equals_alone(days, batch)

    def test_a_batch_across_the_stack_cap(self):
        # Three T=20000 days take two stacks at the module's own cap.
        length = 20_000
        assert 2 * len(START_POINTS) * length <= fitting._STACK < 3 * len(START_POINTS) * length
        days = [simulate(RECOVERY_TRUE, length=length, seed=s).returns for s in (31, 32, 33)]
        self._assert_stacked_equals_alone(days, fit_per_day(days))

    def test_scored_rows_follow_the_live_runs(self, monkeypatch):
        # Run i of a stack is start i % k on day i // k.  Every round scores
        # each live run on its own day's standardized returns, in stack
        # order, and the rows are gathered once per live set, not per round.
        days = [simulate(RECOVERY_TRUE, length=369, seed=s).returns.values for s in (41, 42, 43)]
        z = np.array([(r - float(np.mean(r))) / math.sqrt(float(np.var(r))) for r in days])
        k = len(START_POINTS)
        rounds = []
        real_lockstep, real_score = fitting._lockstep, fitting._negative_ll_and_score

        def lockstep(runs, objective):
            def watched(live, stack):
                rounds.append((live, len(stack)))
                return objective(live, stack)
            return real_lockstep(runs, watched)

        def score(thetas, r):
            rounds[-1] += (r,)
            return real_score(thetas, r)

        monkeypatch.setattr(fitting, "_lockstep", lockstep)
        monkeypatch.setattr(fitting, "_negative_ll_and_score", score)
        fitting._fit_days(days)
        assert rounds[0][0] == tuple(range(k * len(days)))
        for live, size, r in rounds:
            assert len(live) == size
            assert np.array_equal(r, z[[i // k for i in live]])
        # Every array passed is still referenced by rounds, so ids are unique.
        gathered = {id(r) for _, _, r in rounds}
        assert len(gathered) == len({live for live, _, _ in rounds}) == len({size for _, size, _ in rounds})
        assert len(gathered) < len(rounds)

    def test_exclusions_keep_input_order(self, monkeypatch):
        days = [TimeSeries(np.random.default_rng(2).standard_normal(370), label="stuck"),
                TimeSeries(np.ones(100), label="const"),
                TimeSeries(simulate(RECOVERY_TRUE, length=370, seed=9).returns.values, label="good"),
                TimeSeries(np.ones(20), label="short")]
        good = fit_gjr(days[2])
        # The first fittable day gets one BFGS iteration, so it cannot converge.
        real = fitting._fit_days
        monkeypatch.setattr(fitting, "_fit_days", lambda days: real(days[:1], 1) + real(days[1:]))
        batch = fit_per_day(days)
        assert list(batch.fits) == ["good"]
        assert repr(batch.fits["good"]) == repr(good)
        assert list(batch.excluded.items()) == [
            ("stuck", "optimizer did not converge"),
            ("const", "zero-variance returns"),
            ("short", f"series too short (20 < {MIN_FIT_LENGTH})"),
        ]
        assert serialize.excluded_to_csv(batch) == (
            "day,reason\nstuck,optimizer did not converge\nconst,zero-variance returns\n"
            f"short,series too short (20 < {MIN_FIT_LENGTH})\n"
        )


class TestAverageParams:
    @staticmethod
    def _fit(mu, omega, alpha1, beta1, gamma1, converged=True):
        params = GarchParams(kind="gjr", mu=mu, omega=omega, alpha1=alpha1, beta1=beta1, gamma1=gamma1)
        return FitResult(params, -1.0, converged=converged, iterations=1, n_obs=370)

    def test_single_fit_identity(self):
        fit = self._fit(0.001, 0.05, 0.05, 0.9, 0.06)
        avg = average_params(FitBatch(fits={"a": fit}, excluded={}))
        assert avg == fit.params

    def test_opposite_gammas_cancel(self):
        batch = FitBatch(
            fits={
                "a": self._fit(0.0, 0.05, 0.12, 0.8, 0.1),
                "b": self._fit(0.0, 0.05, 0.12, 0.8, -0.1),
            },
            excluded={},
        )
        assert average_params(batch).gamma1 == 0.0

    def test_mean_of_omegas(self):
        batch = FitBatch(
            fits={k: self._fit(0.0, w, 0.05, 0.9, 0.0) for k, w in zip("abc", (0.1, 0.2, 0.3))},
            excluded={},
        )
        assert average_params(batch).omega == pytest.approx(0.2, rel=1e-12)

    def test_requires_converged_fits(self):
        batch = FitBatch(fits={"a": self._fit(0.0, 0.05, 0.05, 0.9, 0.0, converged=False)}, excluded={})
        with pytest.raises(ValueError, match="no converged fits"):
            average_params(batch)


class TestResimulate:
    def test_simulation_lives_in_garch(self):
        import qcorr
        from qcorr import garch

        assert qcorr.resimulate_experiment is garch.resimulate_experiment
        assert not {"resimulate_experiment", "derived_seeds", "_simulate_seeds"} & set(vars(fitting))
        assert not hasattr(garch, "_simulate_seeds")

    def test_single_series_matches_simulate_with_derived_seed(self):
        sims = resimulate_experiment(RECOVERY_TRUE, n_series=1, length=500, seed=42)
        expected = simulate(RECOVERY_TRUE, length=500, seed=derived_seeds(42, 1)[0])
        assert np.array_equal(sims[0].returns.values, expected.returns.values)
        assert np.array_equal(sims[0].variances, expected.variances)
        assert sims[0].innovations_seed == expected.innovations_seed

    @pytest.mark.parametrize("n_series", [1, 5, _BLOCK_SERIES + 3])
    @pytest.mark.parametrize("burn_in", [0, 1000])
    @pytest.mark.parametrize("kind", ["garch", "gjr", "egarch", "gjr-negative-gamma", "gjr-zero-alpha"])
    def test_every_series_is_simulate_bit_for_bit(self, kind, burn_in, n_series):
        # The row path of the variance recursion against its one-series path.
        # The egarch parameters put exp on values where np.exp and math.exp
        # disagree; with gamma1 < 0 the indicator term of a positive eps is
        # gamma1 * False = -0.0, and with alpha1 = 0 only gamma1 weighs eps.
        params = {
            "garch": GarchParams(kind="garch", mu=-0.002, omega=0.1, alpha1=0.1, beta1=0.85),
            "gjr": GarchParams(kind="gjr", mu=0.001, omega=0.05, alpha1=0.04, beta1=0.88, gamma1=0.1),
            "egarch": GarchParams(kind="egarch", mu=0.0, omega=-0.1, alpha1=0.15, beta1=0.95, gamma1=-0.08),
            "gjr-negative-gamma": GarchParams(kind="gjr", mu=0.001, omega=0.05, alpha1=0.08, beta1=0.88, gamma1=-0.06),
            "gjr-zero-alpha": GarchParams(kind="gjr", mu=0.001, omega=0.05, alpha1=0.0, beta1=0.88, gamma1=0.1),
        }[kind]
        sims = resimulate_experiment(params, n_series, length=200, seed=9, burn_in=burn_in)
        seeds = derived_seeds(9, n_series)
        assert len(sims) == n_series
        for sim, seed in zip(sims, seeds):
            expected = simulate(params, 200, seed, burn_in)
            assert np.array_equal(sim.returns.values, expected.returns.values)
            assert np.array_equal(sim.variances, expected.variances)
            assert (sim.returns.label, sim.innovations_seed, sim.burn_in) == (
                expected.returns.label, expected.innovations_seed, expected.burn_in)

    def test_deterministic_batch(self):
        a = resimulate_experiment(RECOVERY_TRUE, n_series=5, length=370, seed=7)
        b = resimulate_experiment(RECOVERY_TRUE, n_series=5, length=370, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.returns.values, y.returns.values)

    def test_experiment_shape(self):
        sims = resimulate_experiment(RECOVERY_TRUE, n_series=4, length=370, seed=1)
        assert len(sims) == 4
        assert all(len(s.returns) == 370 for s in sims)
        seeds = {s.innovations_seed for s in sims}
        assert len(seeds) == 4

    def test_n_series_positive(self):
        with pytest.raises(ValueError, match="n_series"):
            resimulate_experiment(RECOVERY_TRUE, n_series=0, length=100, seed=0)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            (dict(length=1), "length must be at least 2"),
            (dict(burn_in=-1), "burn_in must be nonnegative"),
            (dict(n_series=0, length=1), "n_series must be positive"),
        ],
        ids=["length", "burn-in", "n-series-first"],
    )
    def test_invalid_sizes_keep_their_messages(self, sizes, message):
        args = dict(n_series=2, length=100, seed=0, burn_in=10) | sizes
        with pytest.raises(ValueError, match=f"^{message}$"):
            resimulate_experiment(RECOVERY_TRUE, **args)
