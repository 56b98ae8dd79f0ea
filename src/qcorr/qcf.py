"""Quantile filtering and lagged quantile-correlation estimation.

A series is thresholded at its empirical alpha-quantile into a binary
series; two such series are cross-correlated lag by lag.  The estimator
divides the (T - l)-term lagged sum by T and normalizes with the
full-series mean and population standard deviation of each binary series.
Negative lags are defined through the swap identity
qcf(-l; alpha, beta) = qcf(l; beta, alpha).

A curve is its values on the signed lags -L..L, so its lag grid is derived
from its length, never stored; a curve read from a file must carry exactly
those lags (check_lag_grid).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLevelError
from .series import ProbabilityLevel, as_level, as_values, frozen_array

# Correlations are bounded by 1 in exact arithmetic; allow roundoff.
VALUE_TOL = 1e-12

# 95% two-sided standard score used for confidence bands.
Z_95 = 1.96


@functools.lru_cache(maxsize=1024)
def _order_index(p: float, n: int) -> int:
    """1-based order-statistic index ceil(p*n), tolerant of float noise.

    p*n that is an integer up to ~1e-9 (e.g. 0.05 * 5000) counts as exact,
    so it is not bumped up a rank by binary representation error.  Cached:
    a grid asks for the same few levels at the same length call after call,
    and the lookup costs a fifth of the arithmetic.
    """
    target = p * n
    nearest = round(target)
    k = nearest if abs(target - nearest) < 1e-9 else math.ceil(target)
    return min(max(k, 1), n)


@functools.lru_cache(maxsize=256)
def _grid_levels(ps: tuple[float, ...]) -> tuple[ProbabilityLevel, ...]:
    """The levels of a p-p grid, each strictly inside (0, 1).  Cached like
    _order_index: a Monte Carlo run asks for the same levels call after call."""
    if not ps:
        raise ValueError("empty level grid")
    levels = tuple(map(ProbabilityLevel, ps))
    for level in levels:
        if not 0.0 < level.p < 1.0:
            raise ValueError(f"grid levels must be strictly inside (0, 1), got {level.p}")
    return levels


@functools.lru_cache(maxsize=None)
def _smooth_lengths(bound: int) -> list[int]:
    """Every 2*3*5-smooth number up to bound, sorted; cached per power of two.
    7 and 11 are left out on measurement: see _next_fast_len."""
    lengths = [1]
    for p in (2, 3, 5):
        more = []
        for m in lengths:
            while m <= bound:
                more.append(m)
                m *= p
        lengths = more
    return sorted(lengths)


def _next_fast_len(target: int) -> int:
    """Smallest 2*3*5-smooth n >= target, scipy.fft.next_fast_len(target,
    real=True) (scipy is not imported).

    Not scipy's default complex-input rule, which also allows 7 and 11:
    numpy's FFT is slower at such lengths.  That rule pads a 22 140-second
    day with one-hour lags (target 25 799) to 25 872 = 2**4*3*7**2*11, where
    an rfft/irfft pair takes 0.72 ms, against 0.54 ms at 25 920 (numpy
    2.4.6, 2-core Intel Xeon, best of 9 x 300 calls).  numpy.fft gives
    scipy.fft's bits at the lengths of either rule, so matching scipy is no
    reason to bring 7 and 11 back.
    """
    lengths = _smooth_lengths(1 << (target - 1).bit_length())
    return lengths[bisect.bisect_left(lengths, target)]


def _filters(values: np.ndarray, ps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quantile filters 1[x <= x_(ceil(p*T))] of values at every level p in
    ps: their distinct thresholds in increasing order, each level's index into
    them, and each threshold's count of values at or below it.  Raises for the
    first level, in the order of ps, whose filtered series is constant.

    One np.sort serves every level: its order statistics are np.partition's
    bit for bit, and at T=22140 the sort takes about a sixth of the time of
    a 19-index partition.
    """
    ordered = np.sort(values)
    per_level = ordered[[_order_index(p, ordered.size) - 1 for p in ps]]
    # A set, not np.unique: on the few levels of one call, np.unique takes
    # about 14 us more, a tenth of the time of a whole curve at T=370.
    thresholds = np.array(sorted(set(per_level.tolist())))
    index = np.searchsorted(thresholds, per_level)
    counts = np.searchsorted(ordered, thresholds, side="right")
    _refuse_degenerate(ps, ordered.size - counts[index])
    return thresholds, index, counts


def empirical_quantile(x, level: float | ProbabilityLevel) -> float:
    """Order statistic x_(ceil(p*T)) of the sorted values; the minimum for p = 0."""
    ordered = np.sort(as_values(x))
    return float(ordered[_order_index(as_level(level).p, ordered.size) - 1])


@dataclass(frozen=True)
class BinarySeries:
    """A quantile-filtered 0/1 series: bit_t = 1 iff x_t <= quantile_value.

    achieved_fraction is the realized share of ones, computed from the bits;
    ties at the threshold can only push it above the nominal level.
    """

    bits: np.ndarray
    level: ProbabilityLevel
    quantile_value: float
    achieved_fraction: float = field(init=False)

    def __post_init__(self):
        bits = frozen_array(self.bits, np.uint8)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("bits must be a nonempty one-dimensional array")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must contain only 0 and 1")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "achieved_fraction", float(np.count_nonzero(bits)) / bits.size)

    def __len__(self) -> int:
        return int(self.bits.size)

    def complement(self) -> "BinarySeries":
        """Bitwise NOT: marks observations strictly above the threshold.

        The stored level becomes 1 - p and the threshold is unchanged (the
        comparison flips from <= to >).
        """
        return BinarySeries(
            bits=np.uint8(1) - self.bits,
            level=ProbabilityLevel(1.0 - self.level.p),
            quantile_value=self.quantile_value,
        )


def filter_series(x, level: float | ProbabilityLevel) -> BinarySeries:
    """Threshold x at its empirical quantile into a BinarySeries."""
    values = as_values(x)
    lvl = as_level(level)
    q = empirical_quantile(values, lvl)
    return BinarySeries(bits=values <= q, level=lvl, quantile_value=q)


@dataclass(frozen=True)
class QcfCurve:
    """Quantile-correlation values on the signed lags -L..L, plus metadata.

    values[L + l] is the value at lag l, so values has the odd length 2L + 1,
    and max_lag (L) and lags are derived from it, not stored.  ci_half_width,
    when set, is one confidence half-width shared by every lag (the band is
    built once per dataset from the (0.5, 0.5) reference).  n_averaged counts
    the per-series curves averaged into this one.  alpha and beta may be
    given as floats; they are stored as ProbabilityLevel.
    """

    alpha: ProbabilityLevel
    beta: ProbabilityLevel
    values: np.ndarray
    series_length: int
    ci_half_width: float | None = None
    n_averaged: int = 1

    def __post_init__(self):
        values = frozen_array(self.values)
        if values.ndim != 1 or values.size % 2 == 0:
            raise ValueError("values must be a one-dimensional array of odd length, one per lag -L..L")
        if self.series_length < 2:
            raise ValueError("series_length must be at least 2")
        _check_max_lag(values.size // 2, self.series_length)
        _check_correlations(values)
        check_ci_half_width(self.ci_half_width)
        if self.n_averaged < 1:
            raise ValueError("n_averaged must be positive")
        # Curves built from one series at alpha = beta are exactly symmetric
        # with value 1 at lag 0; that is guaranteed by construction (negative
        # lags mirror positive ones when both filters share the same bits)
        # rather than checked here, because equal levels do not imply equal
        # bits for externally supplied binary series (e.g. complements).
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "series_length", int(self.series_length))
        object.__setattr__(self, "alpha", as_level(self.alpha))
        object.__setattr__(self, "beta", as_level(self.beta))

    @property
    def max_lag(self) -> int:
        return self.values.size // 2

    @property
    def lags(self) -> np.ndarray:
        """-max_lag..max_lag, a fresh array."""
        return np.arange(-self.max_lag, self.max_lag + 1)

    def value_at(self, lag: int) -> float:
        L = self.max_lag
        if not isinstance(lag, numbers.Integral) or not -L <= lag <= L:
            raise KeyError(f"lag {lag!r} not on this curve's grid -{L}..{L}")
        return float(self.values[L + int(lag)])

    def with_ci(self, half_width: float) -> "QcfCurve":
        return dataclasses.replace(self, ci_half_width=float(half_width))


def _check_correlations(values: np.ndarray) -> None:
    """Refuse values that are not all in [-1, 1] up to VALUE_TOL: the one
    rule for a correlation, written so that NaN fails it.  values is nonempty."""
    if not np.abs(values).max() <= 1.0 + VALUE_TOL:
        raise ValueError("correlation values must lie in [-1, 1] up to 1e-12")


def check_ci_half_width(ci: float | None) -> None:
    """Refuse a confidence half-width outside 0 <= ci < inf, None meaning no
    band: the one rule for a band, in a curve object or a curve file, written
    so that NaN fails it."""
    if ci is not None and not 0 <= ci < math.inf:
        raise ValueError("ci_half_width must be finite and nonnegative")


def _refuse_degenerate(ps, spreads) -> None:
    """Raise for the first level, in the order of ps, whose spread is zero: its
    filtered series is constant."""
    for p, spread in zip(ps, spreads):
        if spread == 0:
            raise DegenerateLevelError(
                f"degenerate quantile level: filtered series at p={p} is constant"
            )


def check_lag_grid(lags, size: int) -> None:
    """Refuse lags other than the integers -L..L in order, one per value of a
    curve of size values, L = size // 2: the one lag grid of every curve."""
    lags = np.asarray(lags)
    if lags.dtype.kind not in "iu" or not np.array_equal(lags, np.arange(-(size // 2), size // 2 + 1)):
        raise ValueError("lags must be -L..L: every integer from -L to L once, in order, one per value")


def _check_max_lag(max_lag: int, length: int, shown: str = "") -> int:
    """max_lag as an int below length / 2; shown names it in the error."""
    max_lag = int(max_lag)
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if max_lag >= length / 2:
        raise ValueError(f"{shown or f'max_lag {max_lag}'} too large for series of length {length}")
    return max_lag


def _assemble(pos: np.ndarray, neg: np.ndarray | None) -> np.ndarray:
    """Stack one-sided results into the values on lags -max_lag..max_lag.

    neg[l-1] is the value at lag -l; None mirrors pos (equal-bits case), which
    keeps the equal-level curve symmetric to the bit.
    """
    left = pos[1:][::-1] if neg is None else neg[::-1]
    return np.concatenate([left, pos])


def qcf_from_filtered(a: BinarySeries, b: BinarySeries, max_lag: int) -> QcfCurve:
    """Direct O(T * max_lag) evaluation of the lagged correlation of two
    binary series, including negative lags via the swap identity."""
    if len(a) != len(b):
        raise ValueError("filtered series must have equal length")
    T = len(a)
    max_lag = _check_max_lag(max_lag, T)
    # bits - c / T is each 0/1 series minus its mean, exactly.
    da, db = (s.bits - s.achieved_fraction for s in (a, b))
    sa2, sb2 = np.dot(da, da), np.dot(db, db)
    _refuse_degenerate([a.level.p, b.level.p], [sa2, sb2])
    same = a is b or np.array_equal(a.bits, b.bits)
    # T * sigma_a * sigma_b; sqrt(s * s) == s exactly, so equal bits give
    # exactly 1 at lag 0.
    denom = math.sqrt(sa2 * sb2)
    pos = np.empty(max_lag + 1)
    for l in range(max_lag + 1):
        pos[l] = np.dot(da[: T - l], db[l:]) / denom
    if same:
        neg = None
    else:
        neg = np.empty(max_lag)
        for l in range(1, max_lag + 1):
            neg[l - 1] = np.dot(db[: T - l], da[l:]) / denom
    return QcfCurve(alpha=a.level, beta=b.level, values=_assemble(pos, neg), series_length=T)


def qcf(x, alpha, beta, max_lag: int) -> QcfCurve:
    """Quantile correlation of x with itself at levels (alpha, beta), by
    direct summation."""
    values = as_values(x)
    a = as_level(alpha)
    b = as_level(beta)
    fa = filter_series(values, a)
    fb = fa if b.p == a.p else filter_series(values, b)
    return qcf_from_filtered(fa, fb, max_lag)


def qcf_fast(x, alpha, beta, max_lag: int) -> QcfCurve:
    """Same contract as qcf, computed via frequency-domain cross-correlation
    in O(T log T); matches qcf within 1e-10 at every lag."""
    return _curves(x, [(alpha, beta)], max_lag)[0]


def _curves(x, pairs, max_lag: int) -> list[QcfCurve]:
    """qcf_fast of x at every (alpha, beta) in pairs, in order: one sort, one
    rfft of the rows of every distinct threshold and one irfft per pair."""
    values = as_values(x)
    levels = [(as_level(alpha), as_level(beta)) for alpha, beta in pairs]
    thresholds, index, counts = _filters(values, [level.p for pair in levels for level in pair])
    T = values.size
    max_lag = _check_max_lag(max_lag, T)
    # bits - c / T is each 0/1 row minus its mean, exactly.
    rows = (values <= thresholds[:, None]) - (counts / T)[:, None]
    # Sum over t of (bit - c / T)**2 is c * (1 - c / T): no BLAS sum, whose
    # bits would depend on its thread count.
    sumsq = counts * (1.0 - counts / T)
    n = _next_fast_len(T + max_lag)
    spectra = np.fft.rfft(rows, n, axis=1)
    curves = []
    for (a, b), i, j in zip(levels, index[::2], index[1::2]):
        same = a.p == b.p
        corr = np.fft.irfft(np.conj(spectra[i]) * spectra[j], n)
        if same:
            # Lag 0 from the sum the denominator uses, so it is exactly 1.
            corr[0] = sumsq[i]
        denom = math.sqrt(sumsq[i] * sumsq[j])
        pos = corr[: max_lag + 1] / denom
        # corr[n - l] = sum_t db_t * da_{t+l}, the swap-identity value at -l.
        neg = None if same else corr[n - max_lag :][::-1] / denom
        curves.append(QcfCurve(alpha=a, beta=b, values=_assemble(pos, neg), series_length=T))
    return curves


def average_curves(curves: list[QcfCurve]) -> QcfCurve:
    """Pointwise arithmetic mean of curves sharing a quantile pair and lag grid."""
    if not curves:
        raise ValueError("empty input")
    first = curves[0]
    for c in curves[1:]:
        if c.alpha.p != first.alpha.p or c.beta.p != first.beta.p:
            raise ValueError("curves must share the same quantile pair")
        if c.max_lag != first.max_lag:
            raise ValueError("curves must share an identical lag grid")
    stacked = np.vstack([c.values for c in curves])
    return QcfCurve(
        alpha=first.alpha,
        beta=first.beta,
        values=stacked.mean(axis=0),
        series_length=min(c.series_length for c in curves),
        n_averaged=len(curves),
    )


def confidence_band(reference: QcfCurve) -> float:
    """Pointwise 95% half-width from the (0.5, 0.5) reference curve of the same data.

    The null is zero correlation, so the spread is the RMS of the reference
    values around zero over all nonzero lags, scaled by 1.96.  The band is
    pointwise: under the null each nonzero lag lies inside it about 95% of
    the time, so a null curve leaves it at about 5% of its lags, and the
    whole curve lies inside it far less often than 95% of the time.
    """
    if reference.alpha.p != 0.5 or reference.beta.p != 0.5:
        raise ValueError("reference must be the (0.5, 0.5) curve of the same data")
    L = reference.max_lag
    if L == 0:
        raise ValueError("reference has only lag 0; no fluctuations to pool")
    return Z_95 * float(np.sqrt(np.mean(np.delete(reference.values, L) ** 2)))


@dataclass(frozen=True)
class AsymmetryReport:
    """Absolute areas under a curve on negative/positive lags and their
    normalized difference delta = (A- - A+) / (A- + A+), which is 0 for a
    degenerate report, one whose areas are both zero."""

    area_neg: float
    area_pos: float
    max_lag: int

    def __post_init__(self):
        if not (self.area_neg >= 0 and self.area_pos >= 0):
            raise ValueError("areas are sums of absolute values; must be nonnegative")
        if self.max_lag < 1:
            raise ValueError("max_lag must be at least 1")

    @property
    def degenerate(self) -> bool:
        return not self.area_neg + self.area_pos > 0

    @property
    def delta(self) -> float:
        total = self.area_neg + self.area_pos
        return (self.area_neg - self.area_pos) / total if total > 0 else 0.0


def asymmetry(curve: QcfCurve, max_lag: int | None = None) -> AsymmetryReport:
    """Area asymmetry of a curve over a symmetric lag range; lag 0 excluded.

    max_lag defaults to the curve's own range (averaged empirical curves are
    often truncated, e.g. to one-hour lags).
    """
    return asymmetry_from_arrays(curve.lags, curve.values, max_lag)


def asymmetry_from_arrays(lags, values, max_lag: int | None = None) -> AsymmetryReport:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be a 1-d array")
    check_lag_grid(lags, values.size)
    L = values.size // 2
    if L < 1:
        raise ValueError("curve must extend to at least lag 1")
    _check_correlations(values)
    if max_lag is not None and not 1 <= max_lag <= L:
        raise ValueError(f"max_lag must lie in [1, {L}]")
    limit = L if max_lag is None else int(max_lag)
    # sum both sides in increasing |lag| order so an exactly mirrored curve
    # yields exactly mirrored areas (identical summation order)
    area_neg = float(np.abs(values[L - limit : L][::-1]).sum())
    area_pos = float(np.abs(values[L + 1 : L + 1 + limit]).sum())
    return AsymmetryReport(area_neg, area_pos, limit)


@dataclass(frozen=True)
class PPGrid:
    """Matrix of quantile-correlation values over a level grid at one lag.

    Row i, column j holds the value for the pair (levels[i], levels[j]).
    """

    lag: int
    levels: tuple[ProbabilityLevel, ...]
    matrix: np.ndarray
    n_averaged: int = 1

    def __post_init__(self):
        matrix = frozen_array(self.matrix)
        n = len(self.levels)
        if n == 0 or matrix.shape != (n, n):
            raise ValueError("matrix must be square with one row/column per level")
        _check_correlations(matrix)
        if self.n_averaged < 1:
            raise ValueError("n_averaged must be positive")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "lag", int(self.lag))
        object.__setattr__(self, "levels", tuple(map(as_level, self.levels)))


def pp_grid(x, levels, lag: int) -> PPGrid:
    """Quantile correlation at one fixed lag for every pair of levels.

    Negative lags use the swap identity, so grid(l) is the transpose of
    grid(-l) for a single series.

    The filters 1[x <= q_i] are nested, so every lagged pair sum is read
    from integer counts.  A value's bucket is the number of distinct
    thresholds below it; one bincount of the bucket pairs (t, t + m) is a
    histogram whose 2-D cumulative sum N_ij counts the t < T - m with
    x_t <= q_i and x_{t+m} <= q_j.  With the level counts c_i, f_i = c_i / T
    and the marginals of N, h_i = #{t < T - m : x_t <= q_i} and
    g_j = #{t < T - m : x_{t+m} <= q_j}, the centered lagged sum is
    N - (h f' + f g') + (T - m) f f', and the denominators are
    s_i = c_i (1 - f_i).  The grid is built on the distinct thresholds and
    expanded to the requested levels, so levels that share a threshold
    share a row and read exactly 1 against each other at lag 0.
    """
    return _grids(x, levels, [lag])[0]


def _grids(x, levels, lags) -> list[PPGrid]:
    """pp_grid of x at every lag in lags, in order: one sort, one bucket pass
    and one bincount per lag.  Every lag is checked before the levels."""
    values = as_values(x)
    T = values.size
    lags = [int(lag) for lag in lags]
    shifts = [_check_max_lag(abs(lag), T, f"lag {lag}") for lag in lags]
    ps = tuple(map(float, levels))
    lvls = _grid_levels(ps)
    thresholds, expand, counts = _filters(values, ps)
    f = counts / T
    sumsq = counts * (1.0 - f)
    # x_t <= thresholds[i] iff bucket_t <= i.  The comparisons are summed
    # through a uint8 view, which needs no cast, into the smallest dtype that
    # holds every bucket; K * K fits no dtype that small, so pairs are intp.
    bucket = (values > thresholds[:, None]).view(np.uint8).sum(
        axis=0, dtype=np.min_scalar_type(thresholds.size)
    )
    K = thresholds.size + 1
    fc = f[:, None]
    grids = []
    for lag, m in zip(lags, shifts):
        pair = np.multiply(bucket[: T - m], K, dtype=np.intp)
        pair += bucket[m:]
        joint = np.bincount(pair, minlength=K * K).reshape(K, K).cumsum(axis=0).cumsum(axis=1)
        head, tail = joint[:-1, -1], joint[-1, :-1]
        # One sum for both cross terms: at lag 0, head == tail and the sum
        # stays exactly symmetric, which subtracting them in turn does not.
        products = joint[:-1, :-1] - (head[:, None] * f + fc * tail) + (T - m) * (fc * f)
        if m == 0:
            # The lag-0 diagonal is each level's own sum of squares; s / sqrt(s * s)
            # is exactly 1.
            np.fill_diagonal(products, sumsq)
        matrix = (products / np.sqrt(np.outer(sumsq, sumsq)))[expand[:, None], expand]
        grids.append(PPGrid(lag=lag, levels=lvls, matrix=matrix if lag >= 0 else matrix.T))
    return grids


def average_grids(grids: list[PPGrid]) -> PPGrid:
    """Pointwise mean of grids sharing the same lag and level grid."""
    if not grids:
        raise ValueError("empty input")
    first = grids[0]
    for g in grids[1:]:
        if g.lag != first.lag:
            raise ValueError("grids must share the same lag")
        if tuple(l.p for l in g.levels) != tuple(l.p for l in first.levels):
            raise ValueError("grids must share the same level grid")
    stacked = np.stack([g.matrix for g in grids])
    return PPGrid(
        lag=first.lag,
        levels=first.levels,
        matrix=stacked.mean(axis=0),
        n_averaged=len(grids),
    )
