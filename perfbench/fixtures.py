"""Seeded fixture generators for the qcorr benchmark.

Uses numpy only and never imports qcorr: the program under test receives
nothing but the generated text and arrays.  Every generator is a pure
function of its seed, so the same seed gives byte-identical files.

Each workload's fixture is written to a run directory as

    design.json    sizes and designed properties, plus the reference facts
                   the output checks need (accepted days, true parameters)
    expected/      reference outputs derived from the design, not from qcorr
    setup/         tiny inputs for the first calls timed by the set-up probe

and `build` returns the parsed design.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Trading-session conventions the program documents (README, ingest.py).
SESSION_OPEN = 0
SESSION_CLOSE = 23400
TRIM_SECONDS = 600
GRID_SECONDS = 22200
MIN_TRADED_SECONDS = 800
OVERLAPPING_MINUTE_RETURNS = 22140

GRID_LEVELS = [i / 20 for i in range(1, 20)]
DEFAULT_PAIRS = [(0.05, 0.05), (0.5, 0.5), (0.95, 0.95), (0.05, 0.5), (0.5, 0.95), (0.05, 0.95)]

DAY_HEADER = "second,price"
TICKS_HEADER = "date,time_seconds,instrument,price,regular"


def gjr_returns(rng, length, omega, alpha1, beta1, gamma1, mu=0.0, burn_in=500):
    """GJR-GARCH(1,1) returns from the benchmark's own recursion."""
    z = rng.standard_normal(burn_in + length).tolist()
    v = omega / (1.0 - alpha1 - beta1 - gamma1 / 2.0)
    out = []
    for zt in z:
        eps = v**0.5 * zt
        out.append(mu + eps)
        v = omega + (alpha1 + (gamma1 if eps < 0.0 else 0.0)) * eps * eps + beta1 * v
    return np.array(out[burn_in:])


def expected_day_csv(prices) -> str:
    """Day CSV as the README specifies it: `second,price`, 17 significant digits."""
    rows = ["%d,%.17g" % (i, p) for i, p in enumerate(prices.tolist())]
    return DAY_HEADER + "\n" + "\n".join(rows) + "\n"


def _price_path(rng):
    """Per-second prices: each minute's GJR return spread over its 60 seconds
    plus Gaussian noise, so one-minute returns keep the GJR clustering."""
    minutes = SESSION_CLOSE // 60 + 1
    minute_returns = gjr_returns(rng, minutes, 1e-7, 0.08, 0.85, 0.04)
    steps = np.repeat(minute_returns / 60.0, 60) + rng.standard_normal(minutes * 60) * 1e-4
    log_price = np.log(rng.uniform(20.0, 80.0)) + np.cumsum(steps)
    return np.exp(log_price[: SESSION_CLOSE + 1])


def _tick_times(rng, n_ticks, liquid):
    """Sorted trade seconds; liquid days open before the grid starts, illiquid
    days trade in fewer than MIN_TRADED_SECONDS distinct seconds."""
    if liquid:
        times = rng.integers(SESSION_OPEN, SESSION_CLOSE + 1, n_ticks)
        times[0] = rng.integers(SESSION_OPEN, SESSION_OPEN + TRIM_SECONDS)
    else:
        times = rng.choice(SESSION_CLOSE + 1, n_ticks, replace=False)
    return np.sort(times)


def tick_fixture(seed, dates, instruments, ticks_per_day, illiquid_days, illiquid_ticks,
                 nonregular_share):
    """A tick CSV with several instruments per date, rows interleaved by time.

    Returns (csv_text, design, expected) where expected maps the accepted
    `(date, instrument)` groups to their per-second grid, computed here by
    previous-tick fill from the regular rows alone.
    """
    if illiquid_days and illiquid_ticks >= MIN_TRADED_SECONDS:
        raise ValueError("illiquid days must trade in fewer than MIN_TRADED_SECONDS seconds")
    rng = np.random.default_rng(seed)
    groups = [(d, i) for d in dates for i in instruments]
    illiquid = {groups[k] for k in rng.choice(len(groups), illiquid_days, replace=False)}
    grid = np.arange(SESSION_OPEN + TRIM_SECONDS, SESSION_OPEN + TRIM_SECONDS + GRID_SECONDS)
    lines = [TICKS_HEADER]
    expected = {}
    rows = nonregular = 0
    for date in dates:
        cols = []  # (time, instrument, price text, regular flag) per row of this date
        for instrument in instruments:
            liquid = (date, instrument) not in illiquid
            n = ticks_per_day if liquid else illiquid_ticks
            times = _tick_times(rng, n, liquid)
            text = np.char.mod("%.4f", _price_path(rng)[times])
            n_bad = int(round(nonregular_share * n))
            bad_times = np.sort(rng.integers(SESSION_OPEN, SESSION_CLOSE + 1, n_bad))
            bad_text = np.char.mod("%.4f", rng.uniform(1.0, 200.0, n_bad))
            cols.append((np.concatenate([times, bad_times]),
                         np.full(n + n_bad, instrument),
                         np.concatenate([text, bad_text]),
                         np.concatenate([np.full(n, "1"), np.full(n_bad, "0")])))
            rows += n + n_bad
            nonregular += n_bad
            if liquid:
                prices = text.astype(float)
                expected[(date, instrument)] = prices[np.searchsorted(times, grid, side="right") - 1]
        t, ins, price, reg = (np.concatenate(c) for c in zip(*cols))
        order = np.argsort(t, kind="stable")
        lines.extend(
            f"{date},{a},{b},{c},{d}"
            for a, b, c, d in zip(t[order].tolist(), ins[order].tolist(),
                                  price[order].tolist(), reg[order].tolist())
        )
    text = "\n".join(lines) + "\n"
    design = {
        "rows": rows,
        "bytes": len(text.encode()),
        "groups": len(groups),
        "dates": len(dates),
        "instruments_per_date": len(instruments),
        "nonregular_rows": nonregular,
        "nonregular_share": nonregular / rows,
        "illiquid_days": len(illiquid),
        "accepted_days": len(groups) - len(illiquid),
        "accepted": sorted(f"{d}|{i}" for d, i in expected),
    }
    return text, design, expected


def _write_ticks(directory: Path, name, text, expected):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(text, encoding="utf-8")
    out = directory / "expected"
    out.mkdir(exist_ok=True)
    for (date, instrument), prices in expected.items():
        (out / f"{instrument}_{date}.csv").write_text(expected_day_csv(prices), encoding="utf-8")


def _seed(seed, stream):
    """Independent, reproducible child seed for one part of a fixture."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


DATES = ["2007-01-03", "2007-01-04", "2007-01-05"]


def build_ticks(seed, directory: Path):
    text, design, expected = tick_fixture(
        _seed(seed, 1), DATES, ["AAA", "BBB", "CCC", "DDD"],
        ticks_per_day=22000, illiquid_days=2, illiquid_ticks=500, nonregular_share=0.03,
    )
    _write_ticks(directory, "ticks.csv", text, expected)
    return design


def build_curves(seed, directory: Path, n_series=24, zero_share=0.10):
    rng = np.random.default_rng(_seed(seed, 2))
    T = OVERLAPPING_MINUTE_RETURNS
    series = np.empty((n_series, T))
    n_zero = int(round(zero_share * T))
    for k in range(n_series):
        series[k] = gjr_returns(rng, T, 0.02, 0.05, 0.90, 0.06) * 1e-3
        series[k, rng.choice(T, n_zero, replace=False)] = 0.0
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "series.npy", series)
    return {
        "series": n_series,
        "length": T,
        "bytes": series.nbytes,
        "zero_returns": n_zero,
        "zero_share": n_zero / T,
        "max_lag": 3600,
        "grid_lags": [120, 600, 1200, 3600],
        "levels": len(GRID_LEVELS),
    }


def build_montecarlo(seed, directory: Path, n_days=8, length=369):
    rng = np.random.default_rng(_seed(seed, 3))
    # Per-day asymmetry straddles zero: the averaging-cancellation setting.
    gammas = rng.permutation(np.linspace(-0.08, 0.08, n_days))
    truth = []
    days = np.empty((n_days, length))
    for k, gamma in enumerate(gammas.tolist()):
        # alpha1 + gamma1 stays >= 0.07: away from the admissibility edge, so
        # the fitter's work varies less from seed to seed.
        p = {"mu": 0.0, "omega": 1.0 - 0.15 - 0.75 - gamma / 2.0,
             "alpha1": 0.15, "beta1": 0.75, "gamma1": gamma}
        days[k] = gjr_returns(rng, length, p["omega"], p["alpha1"], p["beta1"], p["gamma1"])
        truth.append(p)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "days.npy", days)
    return {
        "days": n_days,
        "length": length,
        "bytes": days.nbytes,
        "gamma_min": float(gammas.min()),
        "gamma_max": float(gammas.max()),
        "gamma_spread": float(gammas.max() - gammas.min()),
        "true_params": truth,
        "resim_seed": _seed(seed, 4) % 2**31,
        "n_series": 250,
        "sim_length": 370,
        "max_lag": 60,
        "grid_lags": [2, 10],
    }


def build_setup_inputs(directory: Path):
    """Tiny inputs for the set-up probe's first calls; the same for every seed."""
    text, _, _ = tick_fixture(0, DATES[:1], ["AAA", "BBB"], ticks_per_day=1500,
                              illiquid_days=0, illiquid_ticks=0, nonregular_share=0.0)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "ticks.csv").write_text(text, encoding="utf-8")
    rng = np.random.default_rng(0)
    np.save(directory / "day.npy", gjr_returns(rng, 369, 0.1, 0.10, 0.80, 0.0))
    small = rng.standard_normal(500)
    small[:50] = 0.0
    np.save(directory / "series.npy", small)


BUILDERS = {
    "ticks": build_ticks,
    "curves": build_curves,
    "montecarlo": build_montecarlo,
}


def build(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's fixture for `seed` into `directory`; return its design."""
    directory = Path(directory)
    design = BUILDERS[workload](seed, directory)
    design["seed"] = seed
    build_setup_inputs(directory / "setup")
    (directory / "design.json").write_text(json.dumps(design, indent=2) + "\n", encoding="utf-8")
    return design
