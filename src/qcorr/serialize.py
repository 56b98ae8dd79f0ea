"""Every file format qcorr writes and reads back: CSV tables and JSON documents.

Data values are written with 17 significant digits so every IEEE double
round-trips exactly: the bytes of format(v, ".17g"), laid out for whole
blocks of rows by one vectorized pass that falls back to format() for each
value whose rounding it cannot certify.  Writes go through a temp file plus
rename so partial outputs are never left behind.  The tick input format is
read here too.

The index column of a day or simulation CSV must read 0, 1, ..., n - 1; a
simulation's variance column is never parsed.

Every CSV reader first tries one bulk splitter, which converts whole columns
of ~256 KiB runs of lines at a time.  Input it does not take as plain (quotes,
stray whitespace, CR, blank lines, a wrong field count, a value that does
not convert) goes through the format's row loop, which gives the same
result or names the first bad line.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import os
import secrets
from contextlib import contextmanager
from functools import partial
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .fitting import FitBatch
from .garch import GENERATOR, GarchParams, SimulationResult
from .ingest import DayRejection, TickGroup, TradingDay
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

# Headers whose first column is the row index 0, 1, ..., n - 1, which the
# readers require.
_INDEXED_HEADERS = (DAY_HEADER, SIM_HEADER)
# Series inputs by header: the kind of series and the column holding it.
SERIES_HEADERS = {DAY_HEADER: ("day", 1), SIM_HEADER: ("sim", 1), VALUES_HEADER: ("value", 0)}
_CURVE_COLUMNS = {CURVE_HEADER: ((0, int), (1, float)), CURVE_HEADER_CI: ((0, int), (1, float), (2, float))}
TICKS_HEADER = ("date", "time_seconds", "instrument", "price")
# Values of the optional `regular` tick column that keep a row.
_REGULAR_TRUE = {"1", "true", "t", "yes", "y"}

# The bulk splitter's unit of work: this many characters, extended to the
# next newline.  It bounds the field strings alive at once.
_CHUNK_CHARS = 1 << 18
# What the bulk splitter leaves to the row loops: csv quoting, NUL (an error
# to the csv module before Python 3.11), and every ASCII character other than
# "\n" that str.strip() or str.splitlines() acts on.
_NOT_PLAIN = ('"', "\x00", "\r", " ", "\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f")


def fmt(x: float) -> str:
    """A real with 17 significant digits (lossless for doubles)."""
    return format(float(x), ".17g")


# --- CSV tables ------------------------------------------------------------
#
# A table is laid out in blocks of rows as a uint8 matrix: each field in a
# fixed-width slot padded with _PAD, then its separator.  One bytes.translate
# drops the padding; _PAD never occurs in UTF-8 text.
#
# Floats are written by one vectorized pass with the bytes of %.17g.  A value
# v on the fast path is scaled to y = |v| * 10**(16 - k), k = floor(log10 |v|),
# as a double-double hi + lo (Dekker 1971): the exact Veltkamp product of |v|
# with 10**s stored as hi + lo, plus |v| times that lo.  Its error is below
# 2**-43, so when y lies in [1e16, 1e17) and its fraction is not within
# 2**-30 of 1/2, D = round(y) are the 17 correctly rounded digits.  Every
# other value (NaN, inf, 0, subnormal, beyond 1e+-280, exact and near ties,
# which format() rounds half to even) is written by fmt().  The text is then
# picked byte by byte from a 32-byte source row per value, "-0." and the 17
# digits, 4 pad bytes, and the exponent text "e+XX" or "e-XXX", by a template
# chosen by the value's sign, notation, exponent and digit count.

_PAD = b"\xff"
# The widest %.17g text of a double, "-1.2345678901234567e-308".
_WIDTH = 24
# Scale exponents s = 16 - k for |v| in (1e-280, 1e280); k may be off by one.
_S_MIN, _S_MAX = -265, 298
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
# Byte offsets in the source row.
_SRC_POINT, _SRC_DIGITS, _SRC_PAD, _SRC_EXP, _SRC_WIDTH = 2, 3, 20, 24, 32
# Exponent texts in the lookup table, for k in [-_EXP_BIAS, _EXP_BIAS).
_EXP_BIAS = 300


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows (hi, hi_hi, hi_lo, lo) for s in [_S_MIN, _S_MAX]: 10**s = hi + lo,
    both correctly rounded, and hi = hi_hi + hi_lo split for the product."""
    rows = []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            hi = float(10**s)
            lo = float(10**s - int(hi))
        else:  # int / int is correctly rounded, and hi = num / den exactly
            hi = 1 / 10**-s
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-s) / (den * 10**-s)
        c = _SPLIT * hi
        rows.append((hi, c - (c - hi), hi - (c - (c - hi)), lo))
    return np.array(rows)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - k) as a double-double (hi, lo) with |lo| <= ulp(hi) / 2:
    the exact product of a and the power's hi, plus a times its lo."""
    b, b_hi, b_lo, b_tail = _powers_of_ten().take(16 - _S_MIN - k, axis=0).T
    product = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    err += a * b_tail
    hi = product + err
    return hi, err - (hi - product)


def _decade_shift(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1 where hi + lo < 1e16, +1 where hi + lo >= 1e17, else 0.

    hi - edge is exact near each edge and, unless 0, larger than |lo|, so
    the sign of (hi - edge) + lo is the sign of hi + lo - edge.
    """
    return ((hi - 1e17) + lo >= 0).astype(np.intp) - ((hi - 1e16) + lo < 0)


@functools.cache
def _layout_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of the text layout.

    ascii4 and zeros4: the four ASCII digits of each group 0..9999 as one
    uint32, and the group's trailing zero count.  head: the source row's
    first word, "-0." and the leading digit, for each leading digit.
    exponents and forms, indexed by k + _EXP_BIAS: the exponent text as one
    uint64, and 17 times the form, k + 4 for fixed notation (k in [-4, 16]),
    21 and 22 for exponent notation with 2 and 3 exponent digits.
    templates, indexed by (sign * 23 + form) * 17 + trailing zeros: the
    source bytes of the text, padded to _WIDTH with the source's pad byte;
    a negative value's text is its positive text after "-".
    """
    group = np.arange(10000)
    ascii4 = (np.stack([group // 10**p % 10 for p in (3, 2, 1, 0)], axis=1) + ord("0")).astype(np.uint8)
    zeros4 = sum((group % 10**p == 0) for p in range(1, 5))
    head = np.frombuffer(b"".join(b"-0.%d" % d for d in range(10)), dtype=np.uint32)
    k = np.arange(-_EXP_BIAS, _EXP_BIAS)
    exponents = np.array([b"e%+03d" % e for e in k.tolist()], dtype="S8")
    forms = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) < 100, 21, 22)) * 17
    positive = []
    for form in range(23):
        for trailing in range(17):
            d = list(range(_SRC_DIGITS, _SRC_DIGITS + 17 - trailing))
            if 4 <= form <= 20:  # k >= 0: the point after digit k
                whole = list(range(_SRC_DIGITS, _SRC_DIGITS + form - 3))
                part = d[form - 3 :]
                text = whole + ([_SRC_POINT] + part if part else [])
            elif form < 4:  # k < 0: "0.", then -k - 1 zeros, then the digits
                text = [1, _SRC_POINT] + [1] * (3 - form) + d
            else:
                mantissa = d[:1] + ([_SRC_POINT] + d[1:] if len(d) > 1 else [])
                text = mantissa + list(range(_SRC_EXP, _SRC_EXP + form - 17))
            positive.append(text + [_SRC_PAD] * (_WIDTH - len(text)))
    positive = np.array(positive)
    negative = np.concatenate([np.zeros_like(positive[:, :1]), positive[:, :-1]], axis=1)  # "-" first
    tables = ascii4.view(np.uint32).ravel(), zeros4, head, exponents.view(np.uint64), forms
    return (*tables, np.concatenate([positive, negative]))


def _format_g17(values: np.ndarray) -> np.ndarray:
    """Row i holds the bytes of format(values[i], ".17g"), padded with _PAD."""
    a = np.abs(values)
    fast = (a > 1e-280) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k)
    shift = _decade_shift(hi, lo)
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        hi[moved], lo[moved] = _scaled(a[moved], k[moved])
        fast[moved] &= _decade_shift(hi[moved], lo[moved]) == 0
    floor = np.floor(lo)
    frac = lo - floor
    fast &= np.abs(frac - 0.5) > 2.0**-30
    digits = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17  # y within 1/2 below 1e17 rounds up a decade
    digits[carry] = 10**16
    k += carry

    ascii4, zeros4, head, exponents, forms, templates = _layout_tables()
    upper, lower = np.divmod(digits, 10**8)
    lead, upper = np.divmod(upper.astype(np.uint32), 10**8)
    groups = [*np.divmod(upper, 10**4), *np.divmod(lower.astype(np.uint32), 10**4)]
    k += _EXP_BIAS
    src = np.empty((values.size, _SRC_WIDTH), dtype=np.uint8)
    words = src.view(np.uint32)
    words[:, 0] = head.take(lead)
    for column, group in enumerate(groups, 1):
        words[:, column] = ascii4.take(group)
    words[:, _SRC_PAD // 4] = np.frombuffer(_PAD * 4, dtype=np.uint32)
    src.view(np.uint64)[:, _SRC_EXP // 8] = exponents.take(k)
    trailing = zeros4.take(groups[0])
    for group in groups[1:]:
        trailing = np.where(group == 0, trailing + 4, zeros4.take(group))
    key = forms.take(k) + trailing
    key[np.signbit(values)] += 23 * 17
    picks = templates.take(key, axis=0)
    picks += np.arange(0, src.size, _SRC_WIDTH)[:, None]
    cells = src.ravel().take(picks)
    for i in np.flatnonzero(~fast):
        cells[i] = np.frombuffer(fmt(values[i]).encode().ljust(_WIDTH, _PAD), dtype=np.uint8)
    return cells


def _string_cells(strings: list[str]) -> np.ndarray:
    """Row i holds the UTF-8 bytes of strings[i], padded with _PAD."""
    encoded = [s.encode() for s in strings]
    width = max([1, *map(len, encoded)])
    padded = b"".join(e.ljust(width, _PAD) for e in encoded)
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(encoded), width)


@functools.lru_cache(maxsize=2)
def _row_index(n: int) -> np.ndarray:
    """The cells of the index column 0, 1, ..., n - 1 of a day or sim CSV.
    Cached: a run writes table after table of one length.  A million rows
    hold about 6 MB, so only the last two lengths are kept."""
    return _string_cells(list(map(str, range(n))))


def _table(header: str, *columns) -> str:
    """CSV text: the header, then one row per position of the columns.

    A column is a float array, each value written as format(v, ".17g"), the
    row index range(n), a sequence of str, or one str for every row.  Rows
    are laid out in blocks of about _CHUNK_CHARS bytes, every float of a
    block in one _format_g17 call.
    """
    columns = [c if isinstance(c, (np.ndarray, range, str)) else list(c) for c in columns]
    floats = [j for j, c in enumerate(columns) if isinstance(c, np.ndarray)]
    n = len(columns[0])
    step = max(1, _CHUNK_CHARS // ((_WIDTH + 1) * len(columns)))
    pieces = [header, "\n"]
    for start in range(0, n, step):
        stop = min(n, start + step)
        cells = {}
        if floats:
            block = np.stack([np.asarray(columns[j][start:stop], dtype=float) for j in floats], axis=1)
            text = _format_g17(block.ravel()).reshape(stop - start, len(floats), _WIDTH)
            cells = {j: text[:, i] for i, j in enumerate(floats)}
        for j, column in enumerate(columns):
            if isinstance(column, range):
                cells[j] = _row_index(len(column))[start:stop]
            elif isinstance(column, str):
                cell = _string_cells([column])
                cells[j] = np.broadcast_to(cell, (stop - start, cell.shape[1]))
            elif j not in cells:
                cells[j] = _string_cells(column[start:stop])
        comma, newline = (np.full((stop - start, 1), ord(c), dtype=np.uint8) for c in ",\n")
        fields = [part for j in range(len(columns)) for part in (cells[j], comma)]
        fields[-1] = newline
        line = np.concatenate(fields, axis=1)
        pieces.append(line.tobytes().translate(None, _PAD).decode())
    return "".join(pieces)


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


def _first_line(text: str) -> tuple[str, int]:
    """The first line of text and the offset just past its newline."""
    end = text.find("\n")
    return (text, len(text)) if end < 0 else (text[:end], end + 1)


def _bulk_split(text: str, start: int, width: int, convert) -> list[np.ndarray] | None:
    """The columns convert() returns, concatenated over every run of whole lines
    of text[start:], where it gets a run's fields with column k at fields[k::width].

    None, for the row loop to take over, as soon as a run is not plain ASCII
    lines of exactly `width` fields or convert raises ValueError or OverflowError.
    """
    pattern = np.array([ord(",")] * (width - 1) + [ord("\n")], dtype=np.uint8)
    parts = [convert([])]  # gives each column its dtype, even for no lines
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        chunk = text[start:end]
        start = end
        if not chunk.endswith("\n"):
            chunk += "\n"  # the last line of a file without a final newline
        if not chunk.isascii() or any(map(chunk.__contains__, _NOT_PLAIN)):
            return None
        chars = np.frombuffer(chunk.encode(), dtype=np.uint8)
        seps = chars[(chars == ord(",")) | (chars == ord("\n"))]
        if seps.size % width or not (seps.reshape(-1, width) == pattern).all():
            return None
        chunk = chunk.replace("\n", ",")
        fields = chunk.split(",")
        del chars, seps, chunk  # only the fields stay alive during conversion
        fields.pop()  # the empty string after the last newline
        try:
            parts.append(convert(fields))
        except (ValueError, OverflowError):
            return None
        del fields
    return [np.concatenate(column) for column in zip(*parts)]


def _convert_columns(wanted, width: int, fields: list[str]) -> list[np.ndarray]:
    rows = len(fields) // width
    return [np.fromiter(map(kind, fields[index::width]), kind, rows) for index, kind in wanted]


def _read_columns(text: str, columns: dict, what: str) -> tuple:
    """(header, *arrays) of a CSV whose first nonblank line is a key of columns,
    which maps it to the (index, type) of every column the caller needs.

    Blank lines are skipped.  A row with the wrong number of fields, or a
    value its column's type does not parse, raises DataFormatError naming its line.
    """
    header, start = _first_line(text)
    if header in columns:
        width = header.count(",") + 1
        convert = partial(_convert_columns, columns[header], width)
        if header in _INDEXED_HEADERS:
            convert = _checking_index(convert, width)
        arrays = _bulk_split(text, start, width, convert)
        if arrays is not None:
            return (header, *arrays)
    return _read_columns_by_row(text, columns, what)


_INDEX_BLOCK = 4096


@functools.lru_cache(maxsize=16)
def _index_block(b: int) -> list[str]:
    """Row indices b * _INDEX_BLOCK, ... of the next _INDEX_BLOCK rows, as the
    writer spells them.  Cached by block, not by table length, so a run that
    reads table after table reuses them while a long table keeps at most 16
    blocks alive."""
    return list(map(str, range(b * _INDEX_BLOCK, (b + 1) * _INDEX_BLOCK)))


def _index_strings(start: int, stop: int) -> list[str]:
    """The row indices start, ..., stop - 1 as the writer spells them."""
    strings = []
    for b in range(start // _INDEX_BLOCK, -(-stop // _INDEX_BLOCK)):
        base = b * _INDEX_BLOCK
        strings += _index_block(b)[max(start - base, 0) : stop - base]
    return strings


def _checking_index(convert, width: int):
    """convert, after requiring that the first column of each run of fields
    continues the row index; a mismatch is left to the row loop to name."""
    done = 0

    def check(fields: list[str]):
        nonlocal done
        rows = len(fields) // width
        if fields[0::width] != _index_strings(done, done + rows):
            raise ValueError("a row index the row loop must name")
        done += rows
        return convert(fields)

    return check


def _read_columns_by_row(text: str, columns: dict, what: str) -> tuple:
    """_read_columns one line at a time: any input, the first bad line named."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    header = lines[start].strip() if start < len(lines) else ""
    if header not in columns:
        expected = ", ".join(map(repr, columns))
        raise DataFormatError(f"unrecognized header {header!r} for a {what}; expected one of {expected}")
    width = header.count(",") + 1
    wanted = columns[header]
    pick = itemgetter(*(index for index, _ in wanted))
    index_name = header.split(",")[0] if header in _INDEXED_HEADERS else None
    picked = []
    for number, line in enumerate(islice(lines, start + 1, None), start + 2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise DataFormatError(f"line {number}: expected {width} field(s), got {len(fields)}")
        if index_name and fields[0].strip() != str(len(picked)):
            raise DataFormatError(f"line {number}: {index_name} must be {len(picked)}, got {fields[0]!r}")
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
        except (ValueError, OverflowError):
            rows = text.splitlines()[start + 1 :]
            numbers = [n for n, line in enumerate(rows, start + 2) if line.strip()]
            for number, value in zip(numbers, strings):
                try:  # as the bulk conversion: int() takes any size, the int64 array does not
                    np.array([kind(value)], dtype=kind)
                except ValueError:
                    name = "an integer" if kind is int else "a number"
                    raise DataFormatError(f"line {number}: {value!r} is not {name}") from None
                except OverflowError:
                    raise DataFormatError(f"line {number}: {value!r} is out of range") from None
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
    return _table(VALUES_HEADER, np.asarray(values, dtype=float))


# --- quantile-correlation curves -------------------------------------------


def curve_to_csv(curve: QcfCurve) -> str:
    # Lags are integers far below 2**53, and the %.17g text of such a float
    # is the integer's decimal text.
    columns = [curve.lags.astype(float), curve.values]
    if curve.ci_half_width is None:
        return _table(CURVE_HEADER, *columns)
    return _table(CURVE_HEADER_CI, *columns, fmt(curve.ci_half_width))


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
    areas = [np.array([getattr(r, name) for r in reports], dtype=float) for name in ("delta", "area_neg", "area_pos")]
    return (
        _table(ASYM_SUMMARY_HEADER, datasets, years, percents),
        _table(ASYM_HEADER, datasets, years, *areas, [str(r.max_lag) for r in reports]),
    )


# --- probability-probability grids ------------------------------------------


def grid_to_csv(grid: PPGrid) -> str:
    levels = [str(l.p) for l in grid.levels]
    return _table("alpha\\beta," + ",".join(levels), levels, *grid.matrix.T)


def grid_to_json(grid: PPGrid) -> str:
    return _dump({
        "lag": grid.lag,
        "levels": [l.p for l in grid.levels],
        "matrix": [[float(v) for v in row] for row in grid.matrix],
        "n_averaged": grid.n_averaged,
    })


# --- simulations -------------------------------------------------------------


def simulation_to_csv(sim: SimulationResult) -> str:
    return _table(SIM_HEADER, range(len(sim.returns)), sim.returns.values, sim.variances)


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
        *np.array(params, dtype=float),
        np.array([f.log_likelihood for f in fits], dtype=float),
        ["true" if f.converged else "false" for f in fits],
    )


def excluded_to_csv(batch: FitBatch) -> str:
    return _table(EXCLUDED_HEADER, batch.excluded.keys(), batch.excluded.values())


# --- trading days ---------------------------------------------------------------


def day_to_csv(day: TradingDay) -> str:
    return _table(DAY_HEADER, range(day.prices.size), day.prices)


def prices_from_day_csv(text: str) -> np.ndarray:
    return _read_columns(text, {DAY_HEADER: ((1, float),)}, "day CSV")[1]


def rejections_to_csv(rejections: list[DayRejection]) -> str:
    fields = ("date", "instrument", "reason")
    return _table(REJECTION_HEADER, *([getattr(r, name) for r in rejections] for name in fields))


# --- tick input -------------------------------------------------------------------


def _ticks_width(header: list[str]) -> int:
    """The field count a tick CSV's header row declares; a bad header raises."""
    header = [h.strip().lower() for h in header]
    if tuple(header[:4]) != TICKS_HEADER or len(header) > 5:
        raise DataFormatError(
            "ticks header must be 'date,time_seconds,instrument,price[,regular]', "
            f"got {','.join(header)!r}"
        )
    if len(header) == 5 and header[4] != "regular":
        raise DataFormatError(f"fifth ticks column must be 'regular', got {header[4]!r}")
    return len(header)


def _tick_columns(width: int, keys: dict, fields: list[str]) -> tuple[np.ndarray, ...]:
    """(group code, time, price) of the kept rows among the tick fields; keys
    numbers each new (date, instrument) in order of first appearance."""
    if width == 5:
        flags = fields[4::5]
        truth = {flag: flag.lower() in _REGULAR_TRUE for flag in set(flags)}
        keep = list(map(truth.__getitem__, flags))
    else:
        keep = [True] * (len(fields) // 4)
    rows = sum(keep)
    pairs = list(compress(zip(fields[0::width], fields[2::width]), keep))
    for key in dict.fromkeys(pairs):
        keys.setdefault(key, len(keys))
    codes = np.fromiter(map(keys.__getitem__, pairs), np.intp, rows)
    times = np.fromiter(map(int, compress(fields[1::width], keep)), np.int64, rows)
    prices = np.fromiter(map(float, compress(fields[3::width], keep)), float, rows)
    if rows and (times.min() < 0 or not np.all(prices > 0)):
        raise ValueError("a tick the row loop must name")
    return codes, times, prices


def _tick_rows(text: str, keys: dict) -> tuple[np.ndarray, ...]:
    """_tick_columns over the csv module's rows of the whole text, one at a
    time: any input, the first bad line named."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise DataFormatError("empty ticks file; header row required")
        width = _ticks_width(header)
        codes, times, prices = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataFormatError(f"line {line_no}: expected {width} fields, got {len(row)}")
            if width == 5 and row[4].strip().lower() not in _REGULAR_TRUE:
                continue
            date, time_s, instrument, price_s = (field.strip() for field in row[:4])
            try:
                time, price = int(time_s), float(price_s)
            except ValueError as exc:
                raise DataFormatError(f"line {line_no}: {exc}") from None
            if time < 0:
                raise DataFormatError(f"line {line_no}: negative timestamp {time}")
            if time >= 2**63:
                raise DataFormatError(f"line {line_no}: timestamp {time} is out of range")
            if not price > 0:
                raise DataFormatError(f"line {line_no}: nonpositive price {price!r}")
            codes.append(keys.setdefault((date, instrument), len(keys)))
            times.append(time)
            prices.append(price)
    except csv.Error as exc:  # e.g. a bare CR inside a line
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None
    return np.array(codes, np.intp), np.array(times, np.int64), np.array(prices, float)


def read_ticks_csv(text: str) -> dict[tuple[str, str], TickGroup]:
    """Parse tick CSV "date,time_seconds,instrument,price[,regular]".

    Rows whose optional `regular` flag is not truthy are dropped here.
    Returns one TickGroup per (date, instrument), in order of first
    appearance; each keeps the file's row order, so unsorted data is still
    detected downstream.
    """
    head, start = _first_line(text)
    keys: dict[tuple[str, str], int] = {}
    columns = None
    if text and not any(map(head.__contains__, _NOT_PLAIN)):
        # Then the csv module's first row is the first line split at commas.
        width = _ticks_width(next(csv.reader([head])))
        columns = _bulk_split(text, start, width, partial(_tick_columns, width, keys))
    if columns is None:
        keys.clear()
        columns = _tick_rows(text, keys)
    return _group_ticks(keys, *columns)


def _group_ticks(keys: dict, codes, times, prices) -> dict[tuple[str, str], TickGroup]:
    """One TickGroup per key, in the keys' order, each in row order."""
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=len(keys)))[:-1]
    groups = zip(keys, np.split(times[order], ends), np.split(prices[order], ends))
    return {key: TickGroup(key[1], t, p) for key, t, p in groups}
