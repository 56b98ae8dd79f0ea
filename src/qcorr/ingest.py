"""Tick-data preparation: second-grid resampling, liquidity gates, returns.

One instrument-day of trades becomes a gap-free per-second price grid via
previous-tick fill.  The first and last `trim_seconds` of the session are
discarded (auction effects); with the default 6.5 h session and 600 s trim
the grid has exactly 22200 seconds.  Days with trades in fewer than 800
distinct seconds are rejected, not errored.  The tick CSV format is read by
serialize.read_ticks_csv into one TickGroup per instrument-day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .series import TimeSeries, frozen_array

SESSION_TRIM_SECONDS = 600
MIN_TRADED_SECONDS = 800


def valid_prices(prices: np.ndarray) -> np.ndarray:
    """Where prices are positive and finite: the one rule for a price, written
    so that NaN fails it."""
    return (prices > 0) & (prices < np.inf)


@dataclass(frozen=True)
class TickGroup:
    """One instrument-day of trades in file order: int64 seconds and their prices."""

    instrument: str
    times: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.int64)
        prices = np.asarray(self.prices, dtype=float)
        if times.ndim != 1 or times.shape != prices.shape:
            raise ValueError("times and prices must be one-dimensional and of equal length")
        # Kept as views, not frozen_array copies: every tick read builds these.
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class TradingDay:
    """One instrument-day of second-resolution prices after session filtering.

    traded_seconds counts distinct seconds with at least one trade before
    the previous-tick fill.
    """

    instrument: str
    date: str
    prices: np.ndarray
    traded_seconds: int

    def __post_init__(self):
        prices = frozen_array(self.prices)
        if prices.ndim != 1 or prices.size == 0:
            raise ValueError("prices must be a nonempty one-dimensional array")
        if not valid_prices(prices).all():
            raise ValueError("all prices must be positive and finite")
        if self.traded_seconds < 1:
            raise ValueError("traded_seconds must be positive")
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return int(self.prices.size)


@dataclass(frozen=True)
class DayRejection:
    """A day filtered out by a quality gate; a pipeline outcome, not an error."""

    instrument: str
    date: str
    reason: str


def resample_day(
    ticks: TickGroup,
    session_open: int,
    session_close: int,
    date: str = "",
    trim_seconds: int = SESSION_TRIM_SECONDS,
    min_traded_seconds: int = MIN_TRADED_SECONDS,
) -> TradingDay | DayRejection:
    """Resample one instrument-day onto the trimmed per-second grid.

    The grid spans [session_open + trim, session_close - trim) and each
    second carries the most recent trade price at or before it; trades in
    the trimmed opening minutes seed the first grid second.  Returns a
    DayRejection for illiquid days (distinct traded seconds below the
    threshold) or when no price precedes the grid.  Malformed input
    (unsorted ticks, out-of-session timestamps) raises DataFormatError.
    """
    if not len(ticks):
        return DayRejection(ticks.instrument, date, "no ticks")
    instrument, times, prices = ticks.instrument, ticks.times, ticks.prices
    grid_length = int(session_close) - int(session_open) - 2 * int(trim_seconds)
    if grid_length <= 0:
        raise ValueError("session is shorter than twice the trim")
    steps = np.diff(times)
    if np.any(steps < 0):
        raise DataFormatError(f"{instrument} {date}: ticks are not sorted by timestamp")
    if times[0] < session_open or times[-1] > session_close:
        raise DataFormatError(f"{instrument} {date}: tick outside the session window")
    traded = 1 + int(np.count_nonzero(steps))
    if traded < min_traded_seconds:
        return DayRejection(instrument, date, "insufficient liquidity")
    grid = np.arange(session_open + trim_seconds, session_open + trim_seconds + grid_length)
    last_at_or_before = np.searchsorted(times, grid, side="right") - 1
    if last_at_or_before[0] < 0:
        return DayRejection(instrument, date, "no price before the first grid second")
    return TradingDay(
        instrument=instrument,
        date=date,
        prices=prices[last_at_or_before],
        traded_seconds=traded,
    )


def compute_returns(day: TradingDay, horizon_seconds: int, stride_seconds: int = 1) -> TimeSeries:
    """Simple returns (S(t+h) - S(t)) / S(t) at t = 0, stride, 2*stride, ...

    Start points run while t + horizon stays on the grid; on the standard
    22200 s day this yields 22140 overlapping one-minute returns at stride 1
    and 369 non-overlapping ones at stride 60 (the last start is t = 22080,
    since t = 22140 would need the off-grid price S(22200)).
    """
    horizon = int(horizon_seconds)
    stride = int(stride_seconds)
    if horizon < 1 or stride < 1:
        raise ValueError("horizon and stride must be positive")
    prices = day.prices
    if horizon > prices.size - 1:
        raise ValueError(f"horizon {horizon} exceeds the {prices.size}-second grid")
    # A stride past the grid leaves start 0 alone, and so does the grid's
    # length, which np.arange can take where a stride beyond int64 fails.
    starts = np.arange(0, prices.size - horizon, min(stride, prices.size))
    r = (prices[starts + horizon] - prices[starts]) / prices[starts]
    label = f"{day.instrument} {day.date} r{horizon}s/{stride}s".strip()
    return TimeSeries(r, label=label)


def build_index(days: list[TradingDay]) -> TradingDay:
    """Equally weighted index: mean of day-normalized prices S_k(t) / S_k(0)."""
    if not days:
        raise ValueError("empty input")
    date = days[0].date
    length = len(days[0])
    for day in days[1:]:
        if day.date != date:
            raise ValueError(f"index days must share a date: {date} vs {day.date}")
        if len(day) != length:
            raise ValueError("index days must share the same grid length")
    normalized = np.vstack([day.prices / day.prices[0] for day in days])
    return TradingDay(
        instrument="INDEX",
        date=date,
        prices=normalized.mean(axis=0),
        traded_seconds=length,
    )
