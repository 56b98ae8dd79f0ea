"""Independent oracles used to pin expected values, and test input builders.

Every oracle here is deliberately written pure-Python / double-loop so it
shares no code path with the package implementations it checks.
"""

import csv
import io
import math

import numpy as np

from qcorr import DataFormatError, TickGroup


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


def tick_group(times, prices, instrument="XYZ"):
    """A TickGroup of hand-built trades; a single price is every trade's."""
    times = np.asarray(times)
    return TickGroup(instrument, times, np.broadcast_to(np.asarray(prices, dtype=float), times.shape))


# Characters a perturbed CSV gains: each makes the text not plain for the bulk
# CSV splitter (or, for "," and "\n", changes a field count; "x" and "ü" spoil
# a value); "" deletes one instead.
CSV_EDITS = ["", ",", "\n", "\r", " ", '"', "x", "\t", "\x0b", "\x00", "ü"]


def perturb(text, edits):
    """text with each (position in [0, 1], insert) of edits applied in turn."""
    for at, insert in edits:
        k = int(at * len(text))
        text = text[:k] + insert + text[k + (insert == ""):]
    return text


def reference_records(text):
    """(line, fields) of each nonblank csv record of text, in file order, its
    fields stripped; a record that cannot be read ends them as (line, error text).

    One record at a time: a line holding NUL ends the text before the csv
    module sees it, and a field holding a comma or a line break is refused.
    """
    lines = io.StringIO(text, newline="").readlines()
    clean = []
    for line in lines:
        if "\x00" in line:
            break
        clean.append(line)
    reader = csv.reader(clean)
    records, number = [], 1
    try:
        for record in reader:
            for field in record:
                if "," in field or "\r" in field or "\n" in field:
                    return records + [(number, f"line {number}: field {field!r:.60} holds a separator")]
            fields = [field.strip() for field in record]
            if fields not in ([], [""]):
                records.append((number, fields))
            number = reader.line_num + 1
    except csv.Error as exc:
        return records + [(number, f"line {number}: {exc}")]
    if len(clean) < len(lines):
        records.append((number, f"line {number}: line contains NUL"))
    return records


def _fields_of(record):
    """A record's fields; a record that could not be read raises its error."""
    number, fields = record
    if isinstance(fields, str):
        raise DataFormatError(fields)
    return number, fields


def reference_read_columns(text, columns, what, first_row=0):
    """serialize._read_columns, one record at a time; the index column counts
    from first_row."""
    records = reference_records(text)
    header = ",".join(_fields_of(records[0])[1]) if records else ""
    if header not in columns:
        expected = ", ".join(map(repr, columns))
        raise DataFormatError(f"unrecognized header {header!r} for a {what}; expected one of {expected}")
    width = header.count(",") + 1
    index = header.split(",")[0] if header in ("second,price", "t,return,variance") else None
    values = []
    for row, record in enumerate(records[1:], first_row):
        number, fields = _fields_of(record)
        if len(fields) != width:
            raise DataFormatError(f"line {number}: expected {width} fields, got {len(fields)}")
        if index and fields[0] != str(row):
            raise DataFormatError(f"line {number}: {index} must be {row}, got {fields[0]!r}")
        for column, kind in columns[header]:
            value = fields[column]
            try:
                converted = kind(value)
            except ValueError:
                name = "an integer" if kind is int else "a number"
                raise DataFormatError(f"line {number}: {value!r} is not {name}") from None
            if kind is int and not -(2**63) <= converted < 2**63:
                raise DataFormatError(f"line {number}: {value!r} is out of range")
            values.append(converted)
    step = len(columns[header])
    return (header, *(np.array(values[k::step], dtype=kind) for k, (_, kind) in enumerate(columns[header])))


def reference_read_ticks(text):
    """serialize.read_ticks_csv, one record at a time."""
    records = reference_records(text)
    if not records:
        raise DataFormatError("empty ticks file; header row required")
    header = [name.lower() for name in _fields_of(records[0])[1]]
    names = ["date", "time_seconds", "instrument", "price", "regular"]
    if header[:4] != names[:4] or len(header) > 5:
        raise DataFormatError(
            "ticks header must be 'date,time_seconds,instrument,price[,regular]', "
            f"got {','.join(header)!r}"
        )
    if len(header) == 5 and header[4] != "regular":
        raise DataFormatError(f"fifth ticks column must be 'regular', got {header[4]!r}")
    groups = {}
    for record in records[1:]:
        number, fields = _fields_of(record)
        if len(fields) != len(header):
            raise DataFormatError(f"line {number}: expected {len(header)} fields, got {len(fields)}")
        if len(fields) == 5 and fields[4].lower() not in ("1", "true", "t", "yes", "y"):
            continue
        date, stamp, instrument, price = fields[:4]
        try:
            time = int(stamp)
            if not -(2**63) <= time < 2**63:
                raise DataFormatError(f"line {number}: timestamp {time} is out of range")
            price = float(price)
        except ValueError as exc:
            raise DataFormatError(f"line {number}: {exc}") from None
        if time < 0:
            raise DataFormatError(f"line {number}: negative timestamp {time}")
        if not 0 < price < math.inf:
            kind = "infinite" if price == math.inf else "nonpositive"
            raise DataFormatError(f"line {number}: {kind} price {price!r}")
        groups.setdefault((date, instrument), []).append((time, price))
    return {
        key: TickGroup(key[1], [time for time, _ in trades], [price for _, price in trades])
        for key, trades in groups.items()
    }
