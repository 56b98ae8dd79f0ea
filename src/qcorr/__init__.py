"""Quantile-based correlation functions for time series, with GARCH-family
simulators, a GJR-GARCH fitter and intraday tick-data preparation."""

from .errors import DataFormatError, DegenerateLevelError, QcorrError
from .fitting import (
    FitBatch,
    FitResult,
    average_params,
    fit_gjr,
    fit_per_day,
    gjr_log_likelihood,
)
from .garch import (
    GarchParams,
    ModelKind,
    SimulationResult,
    resimulate_experiment,
    simulate,
    unconditional_variance,
    variance_path,
)
from .ingest import (
    DayRejection,
    TickGroup,
    TradingDay,
    build_index,
    compute_returns,
    resample_day,
)
from .qcf import (
    AsymmetryReport,
    BinarySeries,
    PPGrid,
    QcfCurve,
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
)
from .serialize import read_ticks_csv
from .series import ProbabilityLevel, TimeSeries

__version__ = "0.1.0"

__all__ = [
    "AsymmetryReport",
    "BinarySeries",
    "DataFormatError",
    "DayRejection",
    "DegenerateLevelError",
    "FitBatch",
    "FitResult",
    "GarchParams",
    "ModelKind",
    "PPGrid",
    "ProbabilityLevel",
    "QcfCurve",
    "QcorrError",
    "SimulationResult",
    "TickGroup",
    "TimeSeries",
    "TradingDay",
    "asymmetry",
    "average_curves",
    "average_grids",
    "average_params",
    "build_index",
    "compute_returns",
    "confidence_band",
    "empirical_quantile",
    "filter_series",
    "fit_gjr",
    "fit_per_day",
    "gjr_log_likelihood",
    "pp_grid",
    "qcf",
    "qcf_fast",
    "qcf_from_filtered",
    "read_ticks_csv",
    "resample_day",
    "resimulate_experiment",
    "simulate",
    "unconditional_variance",
    "variance_path",
]
