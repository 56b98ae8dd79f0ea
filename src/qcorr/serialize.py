"""Every file format qcorr writes and reads back: CSV tables and JSON documents.

Data values are written with 17 significant digits so every IEEE double
round-trips exactly.  Writes go through a temp file plus rename so partial
outputs are never left behind.  The external tick format is read by
ingest.read_ticks_csv.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import secrets
from contextlib import contextmanager
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .fitting import FitBatch
from .garch import GENERATOR, GarchParams, SimulationResult
from .ingest import DayRejection, TradingDay
from .qcf import AsymmetryReport, PPGrid, QcfCurve
from .series import ProbabilityLevel

CURVE_HEADER_CI = "lag,qcf,ci"
CURVE_HEADER = "lag,qcf"
SIM_HEADER = "t,return,variance"
DAY_HEADER = "second,price"
VALUES_HEADER = "value"
BATCH_HEADER = "day,mu,omega,alpha1,beta1,gamma1,loglik,converged"
EXCLUDED_HEADER = "day,reason"
REJECTION_HEADER = "date,instrument,reason"
ASYM_HEADER = "dataset,year,delta,area_neg,area_pos,max_lag"
ASYM_SUMMARY_HEADER = "Dataset,Year,dA"

# Series inputs by header: the kind of series and the column holding it.
SERIES_HEADERS = {DAY_HEADER: ("day", 1), SIM_HEADER: ("sim", 1), VALUES_HEADER: ("value", 0)}
_CURVE_COLUMNS = {CURVE_HEADER: ((0, int), (1, float)), CURVE_HEADER_CI: ((0, int), (1, float), (2, float))}


def fmt(x: float) -> str:
    """A real with 17 significant digits (lossless for doubles)."""
    return format(float(x), ".17g")


def _floats(values) -> list[str]:
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def _table(header: str, *columns) -> str:
    """CSV text: the header, then one row per position of the string columns."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via temp file + rename in the target directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    # Mode 0o666 less the umask, like any file the user creates (mkstemp's
    # 0o600 would survive the rename); O_EXCL never opens an existing file.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_columns(text: str, columns: dict, what: str) -> tuple:
    """(header, *arrays) of a CSV whose first nonblank line is a key of columns,
    which maps it to the (index, type) of every column the caller needs.

    Blank lines are skipped.  A row with the wrong number of fields, or a
    value its column's type does not parse, raises DataFormatError naming its line.
    """
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    header = lines[start].strip() if start < len(lines) else ""
    if header not in columns:
        expected = ", ".join(map(repr, columns))
        raise DataFormatError(f"unrecognized header {header!r} for a {what}; expected one of {expected}")
    width = header.count(",") + 1
    wanted = columns[header]
    pick = itemgetter(*(index for index, _ in wanted))
    picked = []
    for number, line in enumerate(islice(lines, start + 1, None), start + 2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise DataFormatError(f"line {number}: expected {width} field(s), got {len(fields)}")
        picked.append(pick(fields))
    del lines  # the picked fields are all the conversion needs
    # itemgetter gives a bare field for one column and a tuple for several.
    by_column = [picked] if len(wanted) == 1 else [[row[k] for row in picked] for k in range(len(wanted))]
    del picked
    # Each column is converted in bulk; only a failure rescans text for its line.
    arrays = []
    for (_, kind), strings in zip(wanted, by_column):
        try:
            arrays.append(np.array(list(map(kind, strings)), dtype=kind))
        except ValueError:
            rows = text.splitlines()[start + 1 :]
            numbers = [n for n, line in enumerate(rows, start + 2) if line.strip()]
            for number, value in zip(numbers, strings):
                try:
                    kind(value)
                except ValueError:
                    name = "an integer" if kind is int else "a number"
                    raise DataFormatError(f"line {number}: {value!r} is not {name}") from None
    return (header, *arrays)


@contextmanager
def _load_object(text: str, what: str):
    """The JSON object in text; a missing or malformed field raises DataFormatError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise DataFormatError(f"{what} must be an object, got {type(doc).__name__}")
    try:
        yield doc
    except KeyError as exc:
        raise DataFormatError(f"{what} is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{what} has a field of the wrong type or value: {exc}") from None


def series_from_csv(text: str) -> tuple[str, np.ndarray]:
    """(kind, values) of a series CSV, the kind matched from SERIES_HEADERS."""
    columns = {header: ((column, float),) for header, (_, column) in SERIES_HEADERS.items()}
    header, values = _read_columns(text, columns, "series CSV")
    return SERIES_HEADERS[header][0], values


def values_to_csv(values) -> str:
    return _table(VALUES_HEADER, _floats(values))


# --- quantile-correlation curves -------------------------------------------


def curve_to_csv(curve: QcfCurve) -> str:
    columns = [map(str, curve.lags.tolist()), _floats(curve.values)]
    if curve.ci_half_width is None:
        return _table(CURVE_HEADER, *columns)
    return _table(CURVE_HEADER_CI, *columns, [fmt(curve.ci_half_width)] * curve.lags.size)


def curve_to_json(curve: QcfCurve) -> str:
    return _dump({
        "alpha": curve.alpha.p,
        "beta": curve.beta.p,
        "lags": [int(l) for l in curve.lags],
        "values": [float(v) for v in curve.values],
        "ci_half_width": curve.ci_half_width,
        "series_length": curve.series_length,
        "n_averaged": curve.n_averaged,
    })


def curve_from_json(text: str) -> QcfCurve:
    with _load_object(text, "curve JSON") as doc:
        return QcfCurve(
            alpha=ProbabilityLevel(doc["alpha"]),
            beta=ProbabilityLevel(doc["beta"]),
            lags=np.array(doc["lags"], dtype=int),
            values=np.array(doc["values"], dtype=float),
            series_length=int(doc["series_length"]),
            ci_half_width=doc.get("ci_half_width"),
            n_averaged=int(doc.get("n_averaged", 1)),
        )


def curve_arrays_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(lags, values, ci) from a curve CSV; quantile metadata lives in JSON only."""
    _, lags, values, *ci = _read_columns(text, _CURVE_COLUMNS, "curve CSV")
    return lags, values, float(ci[0][-1]) if ci and ci[0].size else None


def asymmetry_to_csv(rows: list[tuple[str, str, AsymmetryReport]]) -> tuple[str, str]:
    """(summary, full) tables: the paper's delta in whole percent, rounded half
    away from zero, and every field at full precision; one row per input."""
    datasets, years, reports = zip(*rows)
    percents = [f"{int(math.copysign(math.floor(abs(r.delta) * 100.0 + 0.5), r.delta))}%" for r in reports]
    areas = [_floats([getattr(r, name) for r in reports]) for name in ("delta", "area_neg", "area_pos")]
    return (
        _table(ASYM_SUMMARY_HEADER, datasets, years, percents),
        _table(ASYM_HEADER, datasets, years, *areas, [str(r.max_lag) for r in reports]),
    )


# --- probability-probability grids ------------------------------------------


def grid_to_csv(grid: PPGrid) -> str:
    levels = [str(l.p) for l in grid.levels]
    return _table("alpha\\beta," + ",".join(levels), levels, *map(_floats, grid.matrix.T))


def grid_to_json(grid: PPGrid) -> str:
    return _dump({
        "lag": grid.lag,
        "levels": [l.p for l in grid.levels],
        "matrix": [[float(v) for v in row] for row in grid.matrix],
        "n_averaged": grid.n_averaged,
    })


# --- simulations -------------------------------------------------------------


def simulation_to_csv(sim: SimulationResult) -> str:
    return _table(
        SIM_HEADER, map(str, range(len(sim.returns))), _floats(sim.returns.values), _floats(sim.variances)
    )


def simulation_meta(sim: SimulationResult, params: GarchParams) -> dict:
    return {
        **params_to_dict(params),
        "seed": sim.innovations_seed,
        "burn_in": sim.burn_in,
        "length": len(sim.returns),
        "generator": GENERATOR,
    }


def simulation_meta_json(sim: SimulationResult, params: GarchParams) -> str:
    return _dump(simulation_meta(sim, params))


def simulation_to_json(sim: SimulationResult, params: GarchParams) -> str:
    """One document: the sidecar's metadata, then the returns and variances."""
    return _dump({
        **simulation_meta(sim, params),
        "returns": sim.returns.values.tolist(),
        "variances": sim.variances.tolist(),
    })


def resim_manifest_json(params: GarchParams, master_seed: int, files: dict[str, SimulationResult]) -> str:
    """Provenance of simulations sharing params, length and burn-in, keyed by file name."""
    sims = list(files.values())
    return _dump({
        "params": params_to_dict(params),
        "master_seed": master_seed,
        "n_series": len(sims),
        "length": len(sims[0].returns),
        "burn_in": sims[0].burn_in,
        "seeds": [sim.innovations_seed for sim in sims],
        "files": list(files),
    })


def returns_from_sim_csv(text: str) -> np.ndarray:
    return _read_columns(text, {SIM_HEADER: ((1, float),)}, "simulation CSV")[1]


# --- model parameters ---------------------------------------------------------


def params_to_dict(params: GarchParams) -> dict:
    """Every GarchParams field in declaration order (kind, mu, omega, alpha1, beta1, gamma1)."""
    return {**dataclasses.asdict(params), "kind": params.kind.value}


def params_to_json(params: GarchParams) -> str:
    return _dump(params_to_dict(params))


def params_from_json(text: str) -> GarchParams:
    with _load_object(text, "params JSON") as doc:
        return GarchParams(
            kind=doc["kind"],
            mu=float(doc["mu"]),
            omega=float(doc["omega"]),
            alpha1=float(doc["alpha1"]),
            beta1=float(doc["beta1"]),
            gamma1=float(doc.get("gamma1", 0.0)),
        )


# --- fit batches ---------------------------------------------------------------


def batch_to_csv(batch: FitBatch) -> str:
    fits = list(batch.fits.values())
    params = [[getattr(f.params, name) for f in fits] for name in ("mu", "omega", "alpha1", "beta1", "gamma1")]
    return _table(
        BATCH_HEADER,
        batch.fits.keys(),
        *map(_floats, params),
        _floats([f.log_likelihood for f in fits]),
        ["true" if f.converged else "false" for f in fits],
    )


def excluded_to_csv(batch: FitBatch) -> str:
    return _table(EXCLUDED_HEADER, batch.excluded.keys(), batch.excluded.values())


# --- trading days ---------------------------------------------------------------


def day_to_csv(day: TradingDay) -> str:
    return _table(DAY_HEADER, map(str, range(day.prices.size)), _floats(day.prices))


def prices_from_day_csv(text: str) -> np.ndarray:
    return _read_columns(text, {DAY_HEADER: ((1, float),)}, "day CSV")[1]


def rejections_to_csv(rejections: list[DayRejection]) -> str:
    fields = ("date", "instrument", "reason")
    return _table(REJECTION_HEADER, *([getattr(r, name) for r in rejections] for name in fields))
