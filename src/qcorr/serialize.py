"""CSV/JSON serialization for curves, grids, simulations, fits and days.

Data values are written with 17 significant digits so every IEEE double
round-trips exactly.  Writes go through a temp file plus rename so partial
outputs are never left behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .fitting import FitBatch
from .garch import GENERATOR, GarchParams, SimulationResult
from .ingest import DayRejection, TradingDay
from .qcf import PPGrid, QcfCurve
from .series import ProbabilityLevel

CURVE_HEADER_CI = "lag,qcf,ci"
CURVE_HEADER = "lag,qcf"
SIM_HEADER = "t,return,variance"
DAY_HEADER = "second,price"
BATCH_HEADER = "day,mu,omega,alpha1,beta1,gamma1,loglik,converged"
REJECTION_HEADER = "date,instrument,reason"


def fmt(x: float) -> str:
    """A real with 17 significant digits (lossless for doubles)."""
    return format(float(x), ".17g")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via temp file + rename in the target directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
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


def _read_column(text: str, header: str, column: int) -> np.ndarray:
    """Floats in one column of a CSV whose first nonblank line is header.

    Blank lines are skipped.  A row with the wrong number of fields, or with
    a value that is not a number, raises DataFormatError naming its line.
    """
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip()), None)
    if start is None or lines[start].strip() != header:
        raise DataFormatError(f"expected a CSV with header {header!r}")
    width = header.count(",") + 1
    values = []
    for number, line in enumerate(lines[start + 1 :], start + 2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise DataFormatError(f"line {number}: expected {width} field(s), got {len(fields)}")
        try:
            values.append(float(fields[column]))
        except ValueError:
            raise DataFormatError(f"line {number}: {fields[column]!r} is not a number") from None
    return np.array(values, dtype=float)


# --- quantile-correlation curves -------------------------------------------


def curve_to_csv(curve: QcfCurve) -> str:
    lines = []
    if curve.ci_half_width is None:
        lines.append(CURVE_HEADER)
        for lag, value in zip(curve.lags, curve.values):
            lines.append(f"{int(lag)},{fmt(value)}")
    else:
        ci = fmt(curve.ci_half_width)
        lines.append(CURVE_HEADER_CI)
        for lag, value in zip(curve.lags, curve.values):
            lines.append(f"{int(lag)},{fmt(value)},{ci}")
    return "\n".join(lines) + "\n"


def curve_to_json(curve: QcfCurve) -> str:
    doc = {
        "alpha": curve.alpha.p,
        "beta": curve.beta.p,
        "lags": [int(l) for l in curve.lags],
        "values": [float(v) for v in curve.values],
        "ci_half_width": curve.ci_half_width,
        "series_length": curve.series_length,
        "n_averaged": curve.n_averaged,
    }
    return json.dumps(doc, indent=2) + "\n"


def curve_from_json(text: str) -> QcfCurve:
    doc = json.loads(text)
    try:
        return QcfCurve(
            alpha=ProbabilityLevel(doc["alpha"]),
            beta=ProbabilityLevel(doc["beta"]),
            lags=np.array(doc["lags"], dtype=int),
            values=np.array(doc["values"], dtype=float),
            series_length=int(doc["series_length"]),
            ci_half_width=doc.get("ci_half_width"),
            n_averaged=int(doc.get("n_averaged", 1)),
        )
    except KeyError as exc:
        raise DataFormatError(f"curve JSON is missing field {exc}") from None


def curve_arrays_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(lags, values, ci) from a curve CSV; quantile metadata lives in JSON only."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] not in (CURVE_HEADER, CURVE_HEADER_CI):
        raise DataFormatError("expected a curve CSV with header 'lag,qcf[,ci]'")
    has_ci = lines[0] == CURVE_HEADER_CI
    lags, values, ci = [], [], None
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != (3 if has_ci else 2):
            raise DataFormatError(f"malformed curve row: {line!r}")
        lags.append(int(parts[0]))
        values.append(float(parts[1]))
        if has_ci:
            ci = float(parts[2])
    return np.array(lags, dtype=int), np.array(values, dtype=float), ci


# --- probability-probability grids ------------------------------------------


def grid_to_csv(grid: PPGrid) -> str:
    levels = [str(l.p) for l in grid.levels]
    lines = ["alpha\\beta," + ",".join(levels)]
    for label, row in zip(levels, grid.matrix):
        lines.append(label + "," + ",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def grid_to_json(grid: PPGrid) -> str:
    doc = {
        "lag": grid.lag,
        "levels": [l.p for l in grid.levels],
        "matrix": [[float(v) for v in row] for row in grid.matrix],
        "n_averaged": grid.n_averaged,
    }
    return json.dumps(doc, indent=2) + "\n"


# --- simulations -------------------------------------------------------------


def simulation_to_csv(sim: SimulationResult) -> str:
    lines = [SIM_HEADER]
    for t, (r, v) in enumerate(zip(sim.returns.values, sim.variances)):
        lines.append(f"{t},{fmt(r)},{fmt(v)}")
    return "\n".join(lines) + "\n"


def simulation_meta_json(sim: SimulationResult, params: GarchParams) -> str:
    doc = params_to_dict(params)
    doc.update(
        {
            "seed": sim.innovations_seed,
            "burn_in": sim.burn_in,
            "length": len(sim.returns),
            "generator": GENERATOR,
        }
    )
    return json.dumps(doc, indent=2) + "\n"


def returns_from_sim_csv(text: str) -> np.ndarray:
    return _read_column(text, SIM_HEADER, 1)


# --- model parameters ---------------------------------------------------------


def params_to_dict(params: GarchParams) -> dict:
    return {
        "kind": params.kind.value,
        "mu": params.mu,
        "omega": params.omega,
        "alpha1": params.alpha1,
        "beta1": params.beta1,
        "gamma1": params.gamma1,
    }


def params_to_json(params: GarchParams) -> str:
    return json.dumps(params_to_dict(params), indent=2) + "\n"


def params_from_json(text: str) -> GarchParams:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise DataFormatError(f"params JSON must be an object, got {type(doc).__name__}")
    try:
        return GarchParams(
            kind=doc["kind"],
            mu=float(doc["mu"]),
            omega=float(doc["omega"]),
            alpha1=float(doc["alpha1"]),
            beta1=float(doc["beta1"]),
            gamma1=float(doc.get("gamma1", 0.0)),
        )
    except KeyError as exc:
        raise DataFormatError(f"params JSON is missing field {exc}") from None
    except TypeError as exc:
        raise DataFormatError(f"params JSON has a field of the wrong type: {exc}") from None


# --- fit batches ---------------------------------------------------------------


def batch_to_csv(batch: FitBatch) -> str:
    lines = [BATCH_HEADER]
    for day, fit in batch.fits.items():
        p = fit.params
        lines.append(
            f"{day},{fmt(p.mu)},{fmt(p.omega)},{fmt(p.alpha1)},{fmt(p.beta1)},"
            f"{fmt(p.gamma1)},{fmt(fit.log_likelihood)},{'true' if fit.converged else 'false'}"
        )
    return "\n".join(lines) + "\n"


def excluded_to_csv(batch: FitBatch) -> str:
    lines = ["day,reason"]
    for day, reason in batch.excluded.items():
        lines.append(f"{day},{reason}")
    return "\n".join(lines) + "\n"


# --- trading days ---------------------------------------------------------------


def day_to_csv(day: TradingDay) -> str:
    lines = [DAY_HEADER]
    for second, price in enumerate(day.prices):
        lines.append(f"{second},{fmt(price)}")
    return "\n".join(lines) + "\n"


def prices_from_day_csv(text: str) -> np.ndarray:
    return _read_column(text, DAY_HEADER, 1)


def rejections_to_csv(rejections: list[DayRejection]) -> str:
    lines = [REJECTION_HEADER]
    for r in rejections:
        lines.append(f"{r.date},{r.instrument},{r.reason}")
    return "\n".join(lines) + "\n"
