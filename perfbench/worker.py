"""The measured process of one benchmark run.

    python3 perfbench/worker.py <workload> <run-dir> <seconds> <trace 0|1>

Loads the fixture that run.py wrote into <run-dir>, then runs passes (at
least MIN_PASSES) until they add up to <seconds> of pass time; pass_s is
their median.  With
trace 1, untraced and traced passes alternate, so the tracing overhead is
measured in the same process.  Outputs are checked outside the timed
region: the first pass's fully, later passes' against the first one's
fingerprint.  An exception or a failed check counts as a failed operation
and the run goes on.  The last line printed is one JSON object for run.py.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import qcorr
import qcorr.fitting
from qcorr import serialize

import calibrate
import oracles
from fixtures import DEFAULT_PAIRS, GRID_LEVELS
from spans import Tracer, per_pass

EQUAL_PAIRS = [(a, b) for a, b in DEFAULT_PAIRS if a == b]
CURVE_TOL = 1e-10
# Three passes let the median drop a first pass slowed by cold caches.
MIN_PASSES = 3


def _close(a, b, rel) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_curves(curves, reports, band, series, lags_to_check):
    """Invariants and oracle agreement of averaged curves, band and ΔA."""
    failures = []
    levels = sorted({p for pair in DEFAULT_PAIRS for p in pair})
    at_lags = sorted({abs(l) for l in lags_to_check})
    oracle = {pair: np.zeros(len(lags_to_check)) for pair in DEFAULT_PAIRS}
    for x in series:
        mats = oracles.lagged_matrices(x, levels, at_lags)
        for a, b in DEFAULT_PAIRS:
            i, j = levels.index(a), levels.index(b)
            oracle[(a, b)] += [mats[l][i, j] if l >= 0 else mats[-l][j, i] for l in lags_to_check]
    for pair, curve in curves.items():
        lags, values = np.asarray(curve.lags), np.asarray(curve.values)
        at = {int(l): v for l, v in zip(lags, values)}
        got = np.array([at.get(l, np.nan) for l in lags_to_check])
        if not np.all(np.abs(got - oracle[pair] / len(series)) <= CURVE_TOL):
            failures.append(f"qcf_fast {pair}: differs from the oracle by more than {CURVE_TOL}")
        if pair in EQUAL_PAIRS:
            if not np.array_equal(values, values[::-1]):
                failures.append(f"qcf_fast {pair}: equal-level curve is not exactly symmetric")
            if abs(at.get(0, np.nan) - 1.0) > CURVE_TOL:
                failures.append(f"qcf_fast {pair}: lag-0 value {at.get(0)!r} is not 1")
        report = reports[pair]
        if abs(report.delta - oracles.area_delta(lags, values)) > 1e-12:
            failures.append(f"asymmetry {pair}: delta {report.delta!r} disagrees with the areas")
    ref = curves[(0.5, 0.5)]
    if not _close(band, oracles.band_half_width(np.asarray(ref.lags), np.asarray(ref.values)), 1e-12):
        failures.append(f"confidence_band: {band!r} disagrees with the reference curve")
    return failures


def _check_grids(grids, series):
    failures = []
    lags = sorted(grids)
    oracle = {lag: np.zeros((len(GRID_LEVELS),) * 2) for lag in lags}
    for x in series:
        for lag, m in oracles.lagged_matrices(x, GRID_LEVELS, lags).items():
            oracle[lag] += m
    for lag, grid in grids.items():
        if not np.all(np.abs(np.asarray(grid.matrix) - oracle[lag] / len(series)) <= CURVE_TOL):
            failures.append(f"pp_grid lag {lag}: differs from the oracle by more than {CURVE_TOL}")
    return failures


def _check_csv_round_trips(curve_csv, curves, grid_csv, grids):
    failures = []
    for pair, text in curve_csv.items():
        lags, values, _ = serialize.curve_arrays_from_csv(text)
        if not (np.array_equal(lags, curves[pair].lags) and np.array_equal(values, curves[pair].values)):
            failures.append(f"curve_to_csv {pair}: round trip is not bitwise exact")
    for lag, text in grid_csv.items():
        rows = [line.split(",")[1:] for line in text.splitlines()[1:]]
        if not np.array_equal(np.array(rows, dtype=float), grids[lag].matrix):
            failures.append(f"grid_to_csv lag {lag}: round trip is not bitwise exact")
    return failures


def _curves_and_grids(tr, series, max_lag, grid_lags):
    """Six averaged curves with band and ΔA, then averaged p-p grids."""
    curves = {}
    for a, b in DEFAULT_PAIRS:
        per_series = [tr.call("qcf.qcf_fast", qcorr.qcf_fast, x, a, b, max_lag) for x in series]
        curves[(a, b)] = tr.call("qcf.average", qcorr.average_curves, per_series)
    band = tr.call("qcf.band_asym", qcorr.confidence_band, curves[(0.5, 0.5)])
    curves = {pair: c.with_ci(band) for pair, c in curves.items()}
    reports = {pair: tr.call("qcf.band_asym", qcorr.asymmetry, c) for pair, c in curves.items()}
    grids = {}
    for lag in grid_lags:
        per_series = [tr.call("qcf.pp_grid", qcorr.pp_grid, x, GRID_LEVELS, lag) for x in series]
        grids[lag] = tr.call("qcf.average", qcorr.average_grids, per_series)
    return curves, band, reports, grids


class Ticks:
    """Tick CSV -> day grids -> returns -> index -> day CSVs written and read back."""

    def __init__(self, run_dir: Path, design: dict):
        self.design = design
        self.text = (run_dir / "ticks.csv").read_text(encoding="utf-8")
        self.expected = {p.name: p.read_text(encoding="utf-8")
                         for p in (run_dir / "expected").iterdir()}
        self.out = run_dir / "out"
        grids = {name: reference_prices(text) for name, text in self.expected.items()}
        self.expected_returns = {(name, stride): reference_returns(g, 60, stride)
                                 for name, g in grids.items() for stride in (1, 60)}
        by_date: dict[str, list[np.ndarray]] = {}
        for name, g in sorted(grids.items()):
            by_date.setdefault(name[: -len(".csv")].rsplit("_", 1)[1], []).append(g / g[0])
        self.expected_index = {f"INDEX_{date}": np.mean(gs, axis=0) for date, gs in by_date.items()}

    def run_pass(self, tr):
        groups = tr.call("ingest.read_ticks_csv", qcorr.read_ticks_csv, self.text)
        days, rejected = [], []
        for (date, _instrument), ticks in groups.items():
            day = tr.call("ingest.resample_day", qcorr.resample_day, ticks, 0, 23400, date=date)
            (rejected if isinstance(day, qcorr.DayRejection) else days).append(day)
        returns = {(f"{d.instrument}_{d.date}.csv", stride):
                   tr.call("ingest.compute_returns", qcorr.compute_returns, d, 60, stride)
                   for d in days for stride in (1, 60)}
        by_date: dict[str, list] = {}
        for d in days:
            by_date.setdefault(d.date, []).append(d)
        index = [tr.call("ingest.build_index", qcorr.build_index, ds) for ds in by_date.values()]
        texts, readback = {}, {}
        for d in days + index:
            name = f"{d.instrument}_{d.date}.csv"
            texts[name] = tr.call("serialize.day_to_csv", serialize.day_to_csv, d)
            path = self.out / name
            tr.call("serialize.write_text_atomic", serialize.write_text_atomic, path, texts[name])
            readback[name] = tr.call("serialize.prices_from_day_csv", serialize.prices_from_day_csv,
                                     path.read_text(encoding="utf-8"))
        kept = sum(len(ticks) for ticks in groups.values())
        return dict(kept=kept, days=days, rejected=rejected, returns=returns, index=index,
                    texts=texts, readback=readback)

    def check(self, out):
        d = self.design
        failures = []
        if out["kept"] != d["rows"] - d["nonregular_rows"]:
            failures.append(f"read_ticks_csv kept {out['kept']} rows, expected "
                            f"{d['rows'] - d['nonregular_rows']}")
        accepted = sorted(f"{x.date}|{x.instrument}" for x in out["days"])
        if accepted != d["accepted"] or len(out["rejected"]) != d["illiquid_days"]:
            failures.append(f"resample_day accepted {accepted}, rejected {len(out['rejected'])}")
        for x in out["days"]:
            name = f"{x.instrument}_{x.date}.csv"
            if out["texts"][name] != self.expected.get(name):
                failures.append(f"day_to_csv {name}: text differs from the reference")
        for key, series in out["returns"].items():
            ref = self.expected_returns.get(key)
            if ref is None or series.values.shape != ref.shape or not np.allclose(
                    series.values, ref, rtol=1e-12, atol=1e-15):
                failures.append(f"compute_returns {key}: differs from the reference")
        for day in out["index"]:
            ref = self.expected_index.get(f"{day.instrument}_{day.date}")
            if ref is None or not np.allclose(day.prices, ref, rtol=1e-12, atol=0):
                failures.append(f"build_index {day.date}: differs from the reference")
        for x in out["days"] + out["index"]:
            name = f"{x.instrument}_{x.date}.csv"
            if not np.array_equal(out["readback"][name], x.prices):
                failures.append(f"prices_from_day_csv {name}: round trip is not bitwise exact")
        return failures

    def counts(self, out):
        return {
            "ingest.rows_read": self.design["rows"],
            "ingest.rows_kept_ratio": out["kept"] / self.design["rows"],
            "ingest.days_accepted_ratio": len(out["days"]) / self.design["groups"],
            "serialize.bytes_written": sum(len(t.encode()) for t in out["texts"].values()),
        }


def reference_prices(day_csv: str) -> np.ndarray:
    """Prices column of a reference day CSV, parsed without qcorr."""
    return np.array([float(line.split(",")[1]) for line in day_csv.splitlines()[1:]])


def reference_returns(prices: np.ndarray, horizon: int, stride: int) -> np.ndarray:
    """(S(t+h) - S(t)) / S(t) at t = 0, stride, ... while t + h stays on the grid."""
    starts = np.arange(0, prices.size - horizon, stride)
    return (prices[starts + horizon] - prices[starts]) / prices[starts]


class Curves:
    """A few dozen long return series -> six averaged curves, band, ΔA, p-p grids."""

    CHECK_LAGS = [0, 1, 2, 5, 10, 60, 120, 600, 1200, 1800, 3599, 3600]

    def __init__(self, run_dir: Path, design: dict):
        self.design = design
        self.series = list(np.load(run_dir / "series.npy"))
        self.max_lag = design["max_lag"]
        self.lags = sorted({s * l for l in self.CHECK_LAGS for s in (1, -1)})

    def run_pass(self, tr):
        curves, band, reports, grids = _curves_and_grids(
            tr, self.series, self.max_lag, self.design["grid_lags"])
        curve_csv = {p: tr.call("serialize.curve_to_csv", serialize.curve_to_csv, c)
                     for p, c in curves.items()}
        grid_csv = {lag: tr.call("serialize.grid_to_csv", serialize.grid_to_csv, g)
                    for lag, g in grids.items()}
        return dict(curves=curves, band=band, reports=reports, grids=grids,
                    curve_csv=curve_csv, grid_csv=grid_csv)

    def check(self, out):
        return (_check_curves(out["curves"], out["reports"], out["band"], self.series, self.lags)
                + _check_grids(out["grids"], self.series)
                + _check_csv_round_trips(out["curve_csv"], out["curves"], out["grid_csv"], out["grids"]))

    def counts(self, out):
        return {}


class MonteCarlo:
    """Fit per day -> average -> resimulate -> sim CSVs -> short curves and grids."""

    def __init__(self, run_dir: Path, design: dict):
        self.design = design
        days = np.load(run_dir / "days.npy")
        self.days = [qcorr.TimeSeries(d, label=f"day-{k:02d}") for k, d in enumerate(days)]
        self.truth_ll = {
            f"day-{k:02d}": oracles.gjr_log_likelihood(d, **p)
            for k, (d, p) in enumerate(zip(days, design["true_params"]))
        }
        self.out = run_dir / "out"

    def run_pass(self, tr):
        d = self.design
        batch = tr.call("fitting.fit_per_day", qcorr.fit_per_day, self.days)
        by_key = {day.label: day for day in self.days}
        kernel_ll = {k: tr.call("fitting.gjr_log_likelihood", qcorr.gjr_log_likelihood,
                                by_key[k], f.params) for k, f in batch.fits.items()}
        params = tr.call("fitting.average_params", qcorr.average_params, batch)
        sims = tr.call("fitting.resimulate_experiment", qcorr.resimulate_experiment,
                       params, d["n_series"], d["sim_length"], d["resim_seed"])
        series, nbytes = [], 0
        for i, sim in enumerate(sims):
            text = tr.call("serialize.simulation_to_csv", serialize.simulation_to_csv, sim)
            path = self.out / f"sim_{i:04d}.csv"
            tr.call("serialize.write_text_atomic", serialize.write_text_atomic, path, text)
            series.append(tr.call("serialize.returns_from_sim_csv", serialize.returns_from_sim_csv,
                                  path.read_text(encoding="utf-8")))
            nbytes += len(text.encode())
        curves, band, reports, grids = _curves_and_grids(tr, series, d["max_lag"], d["grid_lags"])
        return dict(batch=batch, kernel_ll=kernel_ll, params=params, sims=sims, series=series,
                    nbytes=nbytes, curves=curves, band=band, reports=reports, grids=grids)

    def check(self, out):
        d = self.design
        failures = []
        batch = out["batch"]
        if len(batch.fits) != d["days"] or batch.excluded:
            failures.append(f"fit_per_day fitted {len(batch.fits)} of {d['days']} days: {batch.excluded}")
        for key, fit in batch.fits.items():
            if not fit.converged:
                failures.append(f"fit_per_day {key}: did not converge")
            elif fit.log_likelihood < self.truth_ll[key] - 1e-6:
                failures.append(f"fit_per_day {key}: log likelihood {fit.log_likelihood!r} is below "
                                f"the true parameters' {self.truth_ll[key]!r}")
            if not _close(out["kernel_ll"][key], fit.log_likelihood, 1e-8):
                failures.append(f"gjr_log_likelihood {key}: disagrees with the fit's likelihood")
        fits = list(batch.converged_fits().values())
        for name in ("mu", "omega", "alpha1", "beta1", "gamma1"):
            mean = sum(getattr(f.params, name) for f in fits) / max(len(fits), 1)
            if not _close(getattr(out["params"], name), mean, 1e-12):
                failures.append(f"average_params {name}: not the mean of the fits")
        sims = out["sims"]
        if len(sims) != d["n_series"] or any(len(s.returns) != d["sim_length"] for s in sims):
            failures.append("resimulate_experiment: wrong number or length of series")
        elif len({s.innovations_seed for s in sims}) != len(sims):
            failures.append("resimulate_experiment: derived seeds repeat")
        else:
            for sim in (sims[0], sims[-1]):
                again = qcorr.simulate(out["params"], d["sim_length"], sim.innovations_seed, sim.burn_in)
                if not (np.array_equal(again.returns.values, sim.returns.values)
                        and np.array_equal(again.variances, sim.variances)):
                    failures.append(f"resimulate_experiment seed {sim.innovations_seed}: "
                                    "not bit-identical to simulate")
        for i, (sim, values) in enumerate(zip(sims, out["series"])):
            if not np.array_equal(values, sim.returns.values):
                failures.append(f"returns_from_sim_csv sim_{i:04d}: round trip is not bitwise exact")
        lags = list(range(-d["max_lag"], d["max_lag"] + 1))
        return (failures
                + _check_curves(out["curves"], out["reports"], out["band"], out["series"], lags)
                + _check_grids(out["grids"], out["series"]))

    def counts(self, out):
        fits = out["batch"].fits
        return {
            "fitting.days_fitted": len(fits),
            "fitting.converged_ratio": sum(f.converged for f in fits.values()) / len(self.days),
            "fitting.iterations": sum(f.iterations for f in fits.values()),
            "garch.simulate.steps": sum(len(s.returns) + s.burn_in for s in out["sims"]),
            "serialize.bytes_written": out["nbytes"],
        }


def fingerprint(out) -> str:
    """Digest of the objects a pass returned."""
    return hashlib.sha256(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()


WORKLOADS = {"ticks": Ticks, "curves": Curves, "montecarlo": MonteCarlo}


@contextmanager
def nested_spans(tr: Tracer):
    """Route resimulate_experiment's calls to simulate through spans, so the
    trace shows garch.simulate nested under fitting.resimulate_experiment."""
    original = getattr(qcorr.fitting, "simulate", None)
    if original is None:
        yield
        return

    def traced(*args, **kwargs):
        with tr.span("garch.simulate"):
            return original(*args, **kwargs)

    qcorr.fitting.simulate = traced
    try:
        yield
    finally:
        qcorr.fitting.simulate = original


def run(workload, run_dir: Path, seconds: float, trace: bool) -> dict:
    design = json.loads((run_dir / "design.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[workload](run_dir, design)
    tr = Tracer(record=False)
    failed = 0
    failures: list[str] = []
    raw = {False: [], True: []}
    scaled = {False: [], True: []}
    speed = []  # calibration kernel seconds, one sample before and after each pass
    layer_rows = []  # (pass id, reference-speed factor, counts) of each traced pass
    reference = None  # fingerprint of the first pass whose outputs passed every check

    def one_pass(record: bool):
        nonlocal failed, reference
        tr.record = record
        tr.pass_id += 1
        out = None
        before = calibrate.sample()
        start = time.perf_counter()
        try:
            with tr.span("pass"), (nested_spans(tr) if record else nullcontext()):
                out = wl.run_pass(tr)
        except Exception as exc:  # counted in error_rate; the run goes on
            failed += 1
            failures.append(f"pass {tr.pass_id}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        after = calibrate.sample()
        speed.extend((before, after))
        raw[record].append(elapsed)
        scaled[record].append(calibrate.scale(elapsed, before, after))
        if out is None:
            return
        try:
            if reference is None:
                found = wl.check(out)
                if not found:
                    reference = fingerprint(out)
            else:  # the program is deterministic, so later passes must match
                found = [] if fingerprint(out) == reference else [
                    "outputs differ from the checked first pass"]
        except Exception as exc:
            found = [f"check raised {type(exc).__name__}: {exc}"]
        failed += len(found)
        failures.extend(f"pass {tr.pass_id}: {msg}" for msg in found)
        if record:
            layer_rows.append((tr.pass_id, scaled[True][-1] / elapsed, wl.counts(out)))

    n = 0
    while True:  # measures `seconds` of pass time; checks run between passes
        one_pass(record=trace and n % 2 == 1)
        n += 1
        if n >= MIN_PASSES and sum(raw[False]) + sum(raw[True]) >= seconds and (
                not trace or raw[True]):
            break

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "attempted": tr.attempted,
        "failed": failed,
        "failures": failures[:20],
        "pass_s": scaled[False],
        "traced_pass_s": scaled[True],
        "raw_pass_s": raw[False],
        "calibration_s": speed,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    if trace:
        rows = per_pass(tr.spans)
        result["layers"] = [
            {**{k: v * factor if k.endswith((".s", "_s")) else v for k, v in rows.get(pass_id, {}).items()},
             **counts}
            for pass_id, factor, counts in layer_rows
        ]
        tr.write(run_dir / "spans.json")
    return result


def main(argv) -> int:
    workload, run_dir, seconds, trace = argv[1], Path(argv[2]), float(argv[3]), argv[4] == "1"
    print(json.dumps(run(workload, run_dir, seconds, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
