"""Independent reference computations for the benchmark's output checks.

Written from the conventions the README documents, with numpy only, so
they share no code with the qcorr functions they check.  Any correct
implementation matches them within the stated tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def quantile_bits_centered(x: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """Centered 0/1 series marking x <= x_(ceil(p*T)), and its sum of squares.

    The order index uses the exact decimal value of p, so 0.05 * 22140 is
    the integer 1107, not the next rank up.
    """
    T = x.size
    k = min(max(math.ceil(Fraction(repr(p)) * T), 1), T)
    threshold = np.sort(x)[k - 1]
    bits = (x <= threshold).astype(float)
    centered = bits - bits.mean()
    return centered, float(centered @ centered)


def lagged_matrices(x: np.ndarray, levels, lags) -> dict[int, np.ndarray]:
    """M[lag][i, j] = quantile correlation at (levels[i], levels[j], lag).

    Positive lags sum c_i[t] * c_j[t + lag] over T - lag terms; negative lags
    follow the swap identity, so M[-m] is the transpose of M[m].
    """
    T = x.size
    pairs = [quantile_bits_centered(x, p) for p in levels]
    C = np.vstack([c for c, _ in pairs])
    norm = np.sqrt(np.array([s for _, s in pairs]))
    denom = np.outer(norm, norm)
    out = {}
    for lag in lags:
        m = abs(int(lag))
        M = (C[:, : T - m] @ C[:, m:].T) / denom
        out[int(lag)] = M if lag >= 0 else M.T
    return out


def area_delta(lags: np.ndarray, values: np.ndarray) -> float:
    """(A- - A+) / (A- + A+) over all nonzero lags of a symmetric grid."""
    neg = float(np.abs(values[lags < 0]).sum())
    pos = float(np.abs(values[lags > 0]).sum())
    return 0.0 if neg + pos == 0 else (neg - pos) / (neg + pos)


def band_half_width(lags: np.ndarray, values: np.ndarray) -> float:
    """1.96 times the RMS of the (0.5, 0.5) curve over nonzero lags."""
    return 1.96 * float(np.sqrt(np.mean(values[lags != 0] ** 2)))


def gjr_log_likelihood(r: np.ndarray, mu, omega, alpha1, beta1, gamma1) -> float:
    """Gaussian GJR-GARCH(1,1) log likelihood with sigma2_1 = var(eps), divisor n."""
    eps = (r - mu).tolist()
    n = len(eps)
    mean = sum(eps) / n
    v = sum((e - mean) ** 2 for e in eps) / n
    total = 0.0
    for t, e in enumerate(eps):
        if t:
            prev = eps[t - 1]
            v = omega + (alpha1 + (gamma1 if prev < 0 else 0.0)) * prev * prev + beta1 * v
        total += math.log(2 * math.pi) + math.log(v) + e * e / v
    return -0.5 * total
