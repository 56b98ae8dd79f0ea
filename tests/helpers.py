"""Independent oracles used to pin expected values.

Everything here is deliberately written pure-Python / double-loop so it
shares no code path with the package implementations it checks.
"""

import math


def oracle_quantile(xs, p):
    xs = list(xs)
    n = len(xs)
    s = sorted(xs)
    if p == 0:
        return s[0]
    target = p * n
    nearest = round(target)
    k = nearest if abs(target - nearest) < 1e-9 else math.ceil(target)
    return s[min(max(k, 1), n) - 1]


def oracle_filter(xs, p):
    q = oracle_quantile(xs, p)
    return [1 if v <= q else 0 for v in xs]


def oracle_qcf(xs, alpha, beta, max_lag):
    """Double-loop evaluation of the lagged correlation of the filtered
    series: (1/T) * sum_{t=1}^{T-l}, full-series mean, population std.
    Negative lags via the swap identity. Returns {lag: value}."""
    xa = oracle_filter(xs, alpha)
    xb = oracle_filter(xs, beta)
    T = len(xs)
    ma = sum(xa) / T
    mb = sum(xb) / T
    sa = math.sqrt(sum((v - ma) ** 2 for v in xa) / T)
    sb = math.sqrt(sum((v - mb) ** 2 for v in xb) / T)
    out = {}
    for lag in range(max_lag + 1):
        total = 0.0
        for t in range(T - lag):
            total += (xa[t] - ma) * (xb[t + lag] - mb)
        out[lag] = total / (T * sa * sb)
        if lag:
            total = 0.0
            for t in range(T - lag):
                total += (xb[t] - mb) * (xa[t + lag] - ma)
            out[-lag] = total / (T * sa * sb)
    return out


def oracle_gjr_sigma2(eps, omega, alpha1, beta1, gamma1, v0):
    sig2 = [v0]
    for t in range(1, len(eps)):
        prev = eps[t - 1]
        arch = alpha1 + (gamma1 if prev < 0 else 0.0)
        sig2.append(omega + arch * prev * prev + beta1 * sig2[-1])
    return sig2


def oracle_gjr_loglik(returns, mu, omega, alpha1, beta1, gamma1):
    """Hand-unrolled Gaussian log likelihood under the GJR filter."""
    eps = [r - mu for r in returns]
    n = len(eps)
    mean = sum(eps) / n
    v0 = sum((e - mean) ** 2 for e in eps) / n
    sig2 = oracle_gjr_sigma2(eps, omega, alpha1, beta1, gamma1, v0)
    return -0.5 * sum(
        math.log(2 * math.pi) + math.log(s) + e * e / s for e, s in zip(eps, sig2)
    )


# The ten-point worked example used throughout.
EXAMPLE_SERIES = (1.0, -5.0, 10.0, 0.0, -6.0, -2.0, -2.0, 2.0, 0.0, 2.0)
EXAMPLE_BITS = (0, 1, 0, 1, 1, 1, 1, 0, 1, 0)


# Characters a perturbed CSV gains: each sends the bulk CSV splitter to a row loop
# (or, for "," and "\n", changes a field count); "" deletes one instead.
CSV_EDITS = ["", ",", "\n", "\r", " ", '"', "x", "\t", "\x0b", "\x00", "ü"]


def perturb(text, edits):
    """text with each (position in [0, 1], insert) of edits applied in turn."""
    for at, insert in edits:
        k = int(at * len(text))
        text = text[:k] + insert + text[k + (insert == ""):]
    return text
