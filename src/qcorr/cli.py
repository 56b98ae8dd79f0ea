"""Command-line front end: ingest, qcf, ppgrid, asym, simulate, fit, resim, index.

Every file format, provenance documents included, is defined in serialize;
_output_pairs is the one rule mapping --out and --format to files.  Each
command returns its outputs as (path, text) pairs in write order, and the
text it prints.  main passes the pairs to serialize.write_files, the one
writer, which writes each to a temp file before it renames any, and prints
only after the last rename.  Outputs are deterministic given the inputs and
flags.  QCORR_SEED in the environment overrides --seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

from . import serialize
from .errors import QcorrError
from .fitting import average_params, fit_per_day
from .garch import PARAM_NAMES, GarchParams, resimulate_experiment, simulate
from .ingest import (
    MIN_TRADED_SECONDS,
    SESSION_TRIM_SECONDS,
    TradingDay,
    DayRejection,
    build_index,
    compute_returns,
    resample_day,
)
from .qcf import _curves, _grid_levels, _grids
from .qcf import asymmetry_from_arrays, average_curves, average_grids, confidence_band
from .series import TimeSeries, as_level

DEFAULT_PAIRS = [(0.05, 0.05), (0.5, 0.5), (0.95, 0.95), (0.05, 0.5), (0.5, 0.95), (0.05, 0.95)]
DEFAULT_GRID_LEVELS = [i / 20 for i in range(1, 20)]  # 0.05 .. 0.95
DEFAULT_SIM_GRID_LAGS = [2, 10]
DEFAULT_DAY_GRID_LAG_SECONDS = [120, 600, 1200, 3600]
# A grid of K levels holds K x K matrices per lag and input: at 1000 levels the
# two default lags of one 22 140-return series raise peak memory by about
# 50 MB, and the cost grows as K^2.
MAX_GRID_LEVELS = 1000


def resolve_seed(args) -> int:
    env = os.environ.get("QCORR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"QCORR_SEED must be an integer, got {env!r}") from None
    return int(args.seed)


def _parse_file(path: str | Path, parse):
    """parse applied to the text of path; a malformed file's error names the path."""
    return _named(path, lambda: parse(Path(path).read_text(encoding="utf-8")))


def _named(path, compute, *args):
    """compute(*args); a refusal names the input path it came from."""
    try:
        return compute(*args)
    except (QcorrError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _output_pairs(args, outputs: dict, to_csv, to_json):
    """(path, text) of each output keyed by file stem, laid out as it is due:
    one file if --out ends in .csv or .json, in that format, else the --out
    directory's <stem>.<--format, default csv>.
    """
    out = Path(args.out)
    if out.suffix in (".csv", ".json"):
        fmt = out.suffix[1:]
        if args.format not in (None, fmt):
            raise ValueError(f"--format {args.format} contradicts the suffix of --out {out}")
        if len(outputs) > 1:
            raise ValueError(f"--out {out} is one file but {len(outputs)} outputs are due; name a directory")
        paths = [out]
    else:
        fmt = args.format or "csv"
        paths = [out / f"{stem}.{fmt}" for stem in outputs]
    to_text = to_json if fmt == "json" else to_csv
    return ((path, to_text(value)) for path, value in zip(paths, outputs.values()))


# Log artifacts our own commands drop next to their data outputs.
_NON_DATA_NAMES = {"rejections.csv", "manifest.json"}


def _expand_inputs(paths: list[str], suffixes: tuple[str, ...] = (".csv",)) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(
                q for q in p.iterdir() if q.suffix in suffixes and q.name not in _NON_DATA_NAMES
            )
            if not found:
                raise ValueError(f"no {' or '.join(suffixes)} files inside directory {p}")
            out.extend(found)
        elif p.exists():
            out.append(p)
        else:
            raise ValueError(f"input path does not exist: {p}")
    return out


def load_series(path: Path, horizon: int, stride: int) -> tuple[str, TimeSeries]:
    """(kind, series) of a CSV by header; day prices become returns.  A refusal
    names the path."""
    kind, values = _parse_file(path, serialize.series_from_csv)
    if kind == "day":
        day = _named(path, TradingDay, path.stem, "", values, values.size)
        values = _named(path, compute_returns, day, horizon, stride).values
    return kind, _named(path, TimeSeries, values, path.stem)


def _parse_pairs(args) -> list[tuple[float, float]]:
    alphas = args.alpha or []
    betas = args.beta or []
    if len(alphas) != len(betas):
        raise ValueError("--alpha and --beta must be given the same number of times")
    if not alphas:
        return list(DEFAULT_PAIRS)
    return [(as_level(alpha).p, as_level(beta).p) for alpha, beta in zip(alphas, betas)]


def _load_all_series(args) -> tuple[bool, list[tuple[Path, TimeSeries]]]:
    """Whether the inputs are day prices, and the path and series of every input,
    in input order.  Inputs that mix day prices with returns are refused."""
    paths = _expand_inputs(args.input)
    loaded = [load_series(p, args.horizon, args.stride) for p in paths]
    by_kind = {kind == "day": path for path, (kind, _) in zip(paths, loaded)}  # one path per kind
    if len(by_kind) > 1:
        raise ValueError(f"inputs mix day prices ({by_kind[True]}) with returns ({by_kind[False]})")
    return True in by_kind, [(path, series) for path, (_, series) in zip(paths, loaded)]


def cmd_qcf(args) -> tuple[Iterable[tuple[Path, str]], str]:
    _, inputs = _load_all_series(args)
    pairs = _parse_pairs(args)
    # The band's (0.5, 0.5) curve is one more pair, last and not written, unless
    # it is requested already.
    requested = pairs + ([] if args.no_band or (0.5, 0.5) in pairs else [(0.5, 0.5)])
    per_input = [_named(path, _curves, s, requested, args.max_lag) for path, s in inputs]
    curves = [average_curves(list(c)) for c in zip(*per_input)]
    if not args.no_band:
        band = confidence_band(curves[requested.index((0.5, 0.5))])
        curves = [c.with_ci(band) for c in curves]
    # repr is the shortest text that round-trips, so distinct pairs get distinct names.
    stems = [f"qcf_a{alpha!r}_b{beta!r}" for alpha, beta in pairs]
    return _output_pairs(args, dict(zip(stems, curves)), serialize.curve_to_csv, serialize.curve_to_json), ""


def _parse_levels(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("--levels range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        # step <= 0 is refused before it can divide; NaN fails the count test.
        if step <= 0 or not 0 <= (stop - start) / step < math.inf:
            raise ValueError("--levels range must increase in a finite number of steps")
        # At most one level beyond the bound is built, so 0.1:0.9:1e-300 is
        # refused below without a list of 8e299 levels.
        count = min(int(round((stop - start) / step)), MAX_GRID_LEVELS)
        # rounding keeps 0.05:0.95:0.05 at exactly i/20, not 0.15000000000000002
        levels = [round(start + i * step, 12) for i in range(count + 1)]
        levels = [l for l in levels if l <= stop + 1e-12]
    else:
        levels = [float(p) for p in text.split(",") if p.strip()]
    if len(levels) > MAX_GRID_LEVELS:
        raise ValueError(f"--levels asks for more than {MAX_GRID_LEVELS} levels")
    return levels


def cmd_ppgrid(args) -> tuple[Iterable[tuple[Path, str]], str]:
    days, inputs = _load_all_series(args)
    levels = _parse_levels(args.levels) if args.levels else list(DEFAULT_GRID_LEVELS)
    _grid_levels(tuple(levels))  # refused here, so a bad level names no input
    if args.lag:
        lags = list(args.lag)
    elif days:
        lags = []
        for seconds in DEFAULT_DAY_GRID_LAG_SECONDS:
            if seconds % args.stride:
                raise ValueError(f"default lag {seconds}s is not a multiple of stride {args.stride}")
            lags.append(seconds // args.stride)
    else:
        lags = list(DEFAULT_SIM_GRID_LAGS)
    per_input = [_named(path, _grids, s, levels, lags) for path, s in inputs]
    grids = {f"ppgrid_lag{lag}": average_grids(list(g)) for lag, g in zip(lags, zip(*per_input))}
    return _output_pairs(args, grids, serialize.grid_to_csv, serialize.grid_to_json), ""


def load_curve(path: Path):
    """(lags, values) of a stored curve, JSON or CSV by suffix."""
    if path.suffix == ".json":
        curve = _parse_file(path, serialize.curve_from_json)
        return curve.lags, curve.values
    lags, values, _ = _parse_file(path, serialize.curve_arrays_from_csv)
    return lags, values


def cmd_asym(args) -> tuple[Iterable[tuple[Path, str]], str]:
    rows = []
    for path in _expand_inputs(args.input, (".csv", ".json")):
        report = _named(path, asymmetry_from_arrays, *load_curve(path), args.max_lag)
        rows.append((args.dataset or path.stem, args.year, report))
    summary, full = serialize.asymmetry_to_csv(rows)
    return [(args.out, full)], summary


def cmd_simulate(args) -> tuple[Iterable[tuple[Path, str]], str]:
    params = GarchParams(args.model, *(getattr(args, name) for name in PARAM_NAMES))
    sim = simulate(params, args.length, resolve_seed(args), args.burn_in)
    [pair] = _output_pairs(args, {"sim": sim}, serialize.simulation_to_csv,
                           lambda s: serialize.simulation_to_json(s, params))
    meta = (pair[0].with_suffix(".meta.json"), serialize.provenance_json(params, [sim]))
    return [pair, meta] if pair[0].suffix == ".csv" else [pair], ""


def cmd_fit(args) -> tuple[Iterable[tuple[Path, str]], str]:
    _, inputs = _load_all_series(args)
    batch = fit_per_day([series for _, series in inputs])
    pairs = [(args.out, serialize.batch_to_csv(batch))]
    if args.excluded_out:
        pairs.append((args.excluded_out, serialize.excluded_to_csv(batch)))
    if args.params_out:
        pairs.append((args.params_out, serialize.params_to_json(average_params(batch))))
    return pairs, f"fitted {len(batch.fits)} day(s), excluded {len(batch.excluded)}\n"


def cmd_resim(args) -> tuple[Iterable[tuple[Path, str]], str]:
    params = _parse_file(args.params, serialize.params_from_json)
    seed = resolve_seed(args)
    sims = resimulate_experiment(params, args.n_series, args.length, seed, args.burn_in)
    out = Path(args.out)
    csvs = ((out / f"sim_{i:04d}.csv", serialize.simulation_to_csv(sim)) for i, sim in enumerate(sims))
    return chain(csvs, [(out / "manifest.json", serialize.provenance_json(params, sims, seed))]), ""


def _resample_groups(args):
    groups = _parse_file(args.input, serialize.read_ticks_csv)
    accepted: list[TradingDay] = []
    rejections: list[DayRejection] = []
    for (date, _instrument), ticks in groups.items():
        result = resample_day(
            ticks,
            args.session_open,
            args.session_close,
            date=date,
            trim_seconds=args.trim,
            min_traded_seconds=args.min_traded,
        )
        if isinstance(result, DayRejection):
            rejections.append(result)
        else:
            accepted.append(result)
    return accepted, rejections


def _safe_name(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "._-") else "_" for c in name) or "_"


def _day_pairs(args, days: list[TradingDay], rejections: list[DayRejection]):
    """(path, text) of each day in --out as <instrument>_<date>.csv, made safe,
    then of rejections.csv.  Two days that would share a file are refused
    here, where the error can name both."""
    named: dict[str, TradingDay] = {}
    for day in days:
        name = f"{_safe_name(day.instrument)}_{_safe_name(day.date)}.csv"
        if (first := named.setdefault(name, day)) is not day:
            both = " and ".join(f"{d.instrument!r} on {d.date!r}" for d in (first, day))
            raise ValueError(f"{both} would both be written to {name}")
    out = Path(args.out)
    rejected = (out / "rejections.csv", serialize.rejections_to_csv(rejections))
    return chain(((out / name, serialize.day_to_csv(day)) for name, day in named.items()), [rejected])


def cmd_ingest(args) -> tuple[Iterable[tuple[Path, str]], str]:
    accepted, rejections = _resample_groups(args)
    shown = f"accepted {len(accepted)} day(s), rejected {len(rejections)}\n"
    return _day_pairs(args, accepted, rejections), shown


def cmd_index(args) -> tuple[Iterable[tuple[Path, str]], str]:
    accepted, rejections = _resample_groups(args)
    by_date: dict[str, list[TradingDay]] = {}
    for day in accepted:
        by_date.setdefault(day.date, []).append(day)
    days = [build_index(by_date[date]) for date in sorted(by_date)]
    shown = f"built {len(days)} index day(s), rejected {len(rejections)} day(s)\n"
    return _day_pairs(args, days, rejections), shown


def _add_input(parser):
    parser.add_argument(
        "--input", "-i", action="append", required=True,
        help="input file or directory of .csv files (asym: .csv and .json); repeatable",
    )


def _add_common_series(parser):
    parser.add_argument("--horizon", type=int, default=60,
                        help="return horizon in grid seconds for day-price inputs")
    parser.add_argument("--stride", type=int, default=1,
                        help="spacing of return start points in grid seconds")


def _add_output(parser):
    parser.add_argument("--out", required=True, help="a .csv or .json file, else a directory")
    parser.add_argument("--format", choices=("csv", "json"), help="default: the --out suffix, else csv")


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--burn-in", type=int, default=1000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Quantile-correlation analysis of time series with GARCH-family tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qcf", help="quantile-correlation curves with confidence band")
    _add_input(p)
    p.add_argument("--alpha", type=float, action="append", help="quantile level; repeatable, paired with --beta")
    p.add_argument("--beta", type=float, action="append")
    p.add_argument("--max-lag", type=int, required=True)
    _add_common_series(p)
    p.add_argument("--no-band", action="store_true", help="skip the (0.5,0.5) confidence band")
    _add_output(p)
    p.set_defaults(func=cmd_qcf)

    p = sub.add_parser("ppgrid", help="probability-probability grid at fixed lags")
    _add_input(p)
    p.add_argument("--levels", help="comma list or start:stop:step; default 0.05:0.95:0.05")
    p.add_argument("--lag", type=int, action="append",
                   help="lag in observation steps; repeatable; defaults depend on input kind")
    _add_common_series(p)
    _add_output(p)
    p.set_defaults(func=cmd_ppgrid)

    p = sub.add_parser("asym", help="area asymmetry of stored curves")
    _add_input(p)
    p.add_argument("--max-lag", type=int, default=None)
    p.add_argument("--dataset", default="", help="dataset label for the report; default: file stem")
    p.add_argument("--year", default="", help="year label for the report")
    p.add_argument("--out", required=True, help="full-precision CSV output")
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("simulate", help="simulate a GARCH-family process")
    p.add_argument("--model", required=True, choices=("garch", "egarch", "gjr"))
    p.add_argument("--mu", type=float, default=0.001)
    p.add_argument("--omega", type=float, default=1e-5)
    p.add_argument("--alpha1", type=float, default=0.05)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--gamma1", type=float, default=0.0)
    p.add_argument("--length", type=int, required=True)
    _add_seed(p)
    _add_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="per-day GJR-GARCH fits")
    _add_input(p)
    _add_common_series(p)
    p.set_defaults(stride=60)  # non-overlapping one-minute returns
    p.add_argument("--out", required=True, help="fit batch CSV")
    p.add_argument("--params-out", help="averaged parameter JSON")
    p.add_argument("--excluded-out", help="CSV log of excluded days")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("resim", help="simulate many series from a parameter JSON")
    p.add_argument("--params", required=True)
    p.add_argument("--n-series", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    _add_seed(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_resim)

    for name, func, help_text in (
        ("ingest", cmd_ingest, "resample tick data onto per-second day grids"),
        ("index", cmd_index, "build the equally weighted index per date"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", "-i", required=True, help="tick CSV")
        p.add_argument("--session-open", type=int, default=0)
        p.add_argument("--session-close", type=int, default=23400)
        p.add_argument("--trim", type=int, default=SESSION_TRIM_SECONDS)
        p.add_argument("--min-traded", type=int, default=MIN_TRADED_SECONDS)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pairs, shown = args.func(args)
        serialize.write_files(pairs)
    # json.JSONDecodeError is a ValueError; a MemoryError is a size no array can take
    except (QcorrError, ValueError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    sys.stdout.write(shown)
    return 0
