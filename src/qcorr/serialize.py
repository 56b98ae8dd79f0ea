"""Every file format qcorr writes and reads back: CSV tables and JSON documents.

Data values are written with 17 significant digits so every IEEE double
round-trips exactly: the bytes of format(v, ".17g"), laid out for whole
blocks of rows by one vectorized pass that falls back to format() for each
value whose rounding it cannot certify.  write_files writes every output of
a run to a temp file, with its blocks reserved first, before it renames any
into place.  A string cell holding a comma, a quote or a line break is
refused, not written.  The tick input format is read here too.

The index column of a day or simulation CSV must read 0, 1, ..., n - 1; a
simulation's variance column is never parsed.

Every CSV is read by one rule: csv quoting, LF, CRLF or CR line ends, blank
rows skipped, fields stripped, a field holding a separator (a comma or a
line break) or a line holding NUL refused, and the first bad line in file
order named.  One bulk splitter reads every format, whole columns of
~256 KiB runs of lines at a time; text that is not plain already passes
once through a normalizer that applies the rule.  Every column is read from
each run's UTF-8 bytes and separator offsets, so no field becomes a Python
string.  A day, simulation or curve number -?digits[.digits][e±dd[d]] of at
most 24 bytes, its digits spelling an integer below 9 * 10**18, is read as
N * 10**E in double-double and kept where its rounding is certain.  Tick
times, tick prices and the index column of a day or simulation are read by
one word reader: a field digits[.digits] of 1 to 18 bytes as the integer
its digits spell and the power of ten after its point, exactly.  Any field
that a byte pass cannot certify ("+5", "1E5", "nan", a subnormal, a tie,
more digits) is read from its text by int(), float() or the lower-cased
flag, so the groups and bits are the same either way.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from functools import partial
from itertools import chain, takewhile
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .fitting import FitBatch
from .garch import GENERATOR, PARAM_NAMES, GarchParams, SimulationResult
from .ingest import DayRejection, TickGroup, TradingDay, valid_prices
from .qcf import AsymmetryReport, PPGrid, QcfCurve, check_ci_half_width, check_lag_grid

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
# ASCII text holding none of these reads the same with or without the
# normalizer: csv quoting, NUL (an error to the csv module before Python
# 3.11), and every ASCII character other than "\n" that str.strip() acts on
# or that ends a csv line.  The bulk splitter drops blank lines itself.
_NOT_PLAIN = ('"', "\x00", "\r", " ", "\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f")
# The bulk splitter's separators, as 0-d arrays: numpy compares an array
# with one faster than with a Python int.
_NEWLINE, _COMMA = np.array(ord("\n"), np.uint8), np.array(ord(","), np.uint8)
# What no string cell written may hold.
_CELL_SEPARATORS = (b",", b'"', b"\r", b"\n")


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


def _scaled(a: np.ndarray, k: np.ndarray, tail=None) -> tuple[np.ndarray, np.ndarray]:
    """(a + tail) * 10**(16 - k) as a double-double (hi, lo) with |lo| <=
    ulp(hi) / 2: the exact product of a and the power's hi, plus a times its
    lo and tail (at most ulp(a) / 2) times its hi."""
    b, b_hi, b_lo, b_tail = _powers_of_ten().take(16 - _S_MIN - k, axis=0).T
    product = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    err += a * b_tail
    if tail is not None:
        err += tail * b
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
    """Row i holds the UTF-8 bytes of strings[i], padded with _PAD.  A string
    holding a comma, a quote or a line break raises ValueError."""
    encoded = [s.encode() for s in strings]
    width = max([1, *map(len, encoded)])
    padded = b"".join(e.ljust(width, _PAD) for e in encoded)
    if any(map(padded.__contains__, _CELL_SEPARATORS)):
        bad = next(s for s, e in zip(strings, encoded) if any(map(e.__contains__, _CELL_SEPARATORS)))
        raise ValueError(f"{bad!r} cannot be a CSV cell: it holds a comma, a quote or a line break")
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(encoded), width)


@functools.lru_cache(maxsize=2)
def _range_cells(first: int, stop: int) -> np.ndarray:
    """The cells of the integer column first, first + 1, ..., stop - 1: a day
    or sim CSV's row index or a curve's lags.  Cached: a run writes table
    after table of one range.  A million rows hold about 6 MB, so only the
    last two ranges are kept."""
    return _string_cells(list(map(str, range(first, stop))))


def _table(header: str, *columns) -> str:
    """CSV text: the header, then one row per position of the columns.

    A column is a float array, each value written as format(v, ".17g"), an
    integer range(first, stop), a sequence of str, or one str for every row.
    Rows are laid out in blocks of about _CHUNK_CHARS bytes, every float of a
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
                cells[j] = _range_cells(column.start, column.stop)[start:stop]
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


def write_files(pairs) -> None:
    """Write every (path, text) of pairs, in order, then rename them all into place.

    Each text goes, UTF-8 encoded, to a temp file in its path's directory as
    its pair arrives, so pairs may lay out each text only when it is due.  The
    temp file's blocks are reserved (posix_fallocate) before its bytes are
    written, where the platform and filesystem allow: ext4 then has no delayed
    allocation to flush when the rename replaces an existing file, a flush
    that stalls for seconds under I/O load.  Nothing is fsynced, so after a
    system crash an output renamed just before it may read as zeros.  A path
    named twice, held by a directory or inside another output's path is
    refused.  If anything fails before the renames, every temp file is
    removed, and so is every directory made for the outputs that is still
    empty, deepest first.  The renames are not transactional: one that fails
    leaves those before it done.  An OSError names the output path, never a
    temp file.
    """
    targets: dict[str, tuple[Path, Path]] = {}  # absolute path -> (path, temp file)
    made: list[Path] = []  # directories made for the outputs, each after its parent
    try:
        for path, text in pairs:
            path, key = Path(path), os.path.abspath(path)
            if key in targets or path.is_dir():
                raise ValueError(f"output {path} is {'named twice' if key in targets else 'a directory'}")
            try:
                # An earlier output's path is not on disk yet, so it would be made here.
                fresh = list(takewhile(lambda d: not d.exists(), chain([path.parent], path.parent.parents)))
                holder = next((d for d in fresh if os.path.abspath(d) in targets), None)
                if holder:
                    raise ValueError(f"output {path} is inside output {holder}")
                for directory in reversed(fresh):
                    try:
                        directory.mkdir()
                        made.append(directory)
                    except FileExistsError:  # another run made it first
                        if not directory.is_dir():
                            raise
                data = text.encode()
                tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
                # Mode 0o666 less the umask, like any file the user creates (mkstemp's
                # 0o600 would survive the rename); O_EXCL never opens an existing file.
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                targets[key] = path, tmp
                with suppress(AttributeError, OSError):  # not on every platform or filesystem
                    os.posix_fallocate(fd, 0, len(data))  # refused for 0 bytes
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
            except OSError as exc:  # its own text may name a temp file
                raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
            del text, data  # so they are freed before the next one is laid out
        for path, tmp in targets.values():
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
    except BaseException:
        for _, tmp in targets.values():
            with suppress(OSError):  # a renamed temp file is gone already
                os.unlink(tmp)
        for directory in reversed(made):
            with suppress(OSError):  # one that holds a file stays
                directory.rmdir()
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to path through a temp file plus rename in its directory."""
    write_files([(path, text)])


def _normalize(text: str) -> tuple[str, DataFormatError | None]:
    """text as plain CSV, line for line, and the error that ends it early, if any.

    Each line holds one csv record of text with its quoting undone and its
    fields stripped; a blank record leaves an empty line.  The lines end
    before the first record that cannot be one plain line: a field holding a
    separator, a line holding NUL (the csv module refuses NUL before Python
    3.11, so it never sees one) or a csv error.  That error is raised here
    when only blank lines precede it; otherwise the caller raises it after
    reading the lines before it.
    """
    nul = text.find("\x00")
    if nul >= 0:
        text = text[: max(text.rfind("\n", 0, nul), text.rfind("\r", 0, nul)) + 1]
    rows, error = [], None
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            line = ",".join(row)
            if line.count(",") >= max(len(row), 1) or "\r" in line or "\n" in line:
                held = next(field for field in row if any(map(field.__contains__, ",\r\n")))
                error = DataFormatError(f"line {len(rows) + 1}: field {held!r:.60} holds a separator")
                break
            rows.append(",".join(map(str.strip, row)))
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        error = DataFormatError(f"line {len(rows) + 1}: {exc}")
    if nul >= 0 and error is None:
        error = DataFormatError(f"line {len(rows) + 1}: line contains NUL")
    if error and not any(rows):
        raise error
    return "\n".join(rows), error


def _bulk_split(text: str, layout) -> tuple[str, list[np.ndarray]]:
    """The header line of a CSV and the columns of the nonblank lines after it.

    Text that is not plain goes once through _normalize first.
    layout(header) gives the field count `width` and convert(run, row),
    which returns (columns, row count) for a run of whole lines whose first
    is data row `row` (counted from 0), split by _split_run, or raises
    ValueError.  Runs are whole lines of about _CHUNK_CHARS characters; their
    columns are concatenated.  A run that fails is halved until the first bad
    line is found (_name_bad_row), so an error text of convert need only be
    right for a run of one line.
    """
    error = None
    if not text.isascii() or any(map(text.__contains__, _NOT_PLAIN)):
        text, error = _normalize(text)
    begin = len(text) - len(text.lstrip("\n"))  # blank lines before the header
    start = text.find("\n", begin) + 1 or len(text)
    header = text[begin:start].removesuffix("\n")
    width, convert = layout(header)
    parts, row = [], 0
    while start < len(text):
        begin, start = start, text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        try:
            columns, rows = convert(text[begin:start], row)
        except ValueError:
            _name_bad_row(text, begin, start, width, convert, row)
        parts.append(columns)
        row += rows
    if error:
        raise error
    if not parts:  # an empty run gives each column its dtype
        parts.append(convert("", 0)[0])
    return header, [column[0] if len(parts) == 1 else np.concatenate(column) for column in zip(*parts)]


# Table and tick columns are converted from each run's UTF-8 bytes and the
# offsets of its separators, behind _WINDOW zero bytes.  A field is read from
# a window of 8, 16 or 24 bytes that ends at its separator, as uint64 words
# with the bytes before the field's first masked off.  A field that this byte
# pass cannot certify is read from its text by its column's rule
# (_fallback).  Constants that meet arrays are 0-d arrays of the arrays'
# dtype, which numpy applies faster than Python numbers; no operation mixes
# signed and unsigned integers, which numpy before 2.0 promotes to float64.
_WINDOW = 24
_ONE, _WINDOW_BYTES = np.array(1), np.array(_WINDOW)
# A window's dtype by its uint64 words.
_WINDOWS = {w: np.dtype(f"V{8 * w}") for w in (1, 2, 3)}


def _last_bytes(words: int, least: int) -> np.ndarray:
    """By field length k up to _WINDOW, the mask that keeps the last
    max(k, least) bytes of a window of `words` words (all of them at most),
    on either byte order."""
    keep = [min(max(k, least), 8 * words) for k in range(_WINDOW + 1)]
    return np.frombuffer(b"".join(bytes(8 * words - n) + b"\xff" * n for n in keep), np.uint64).reshape(-1, words)


_LAST_BYTES = {w: _last_bytes(w, 0) for w in (1, 2, 3)}
# A number's mask keeps the last byte of an empty field, which is the comma
# before it, so that an empty number is never certified.
_NUMBER_BYTES_KEPT = {w: _last_bytes(w, 1) for w in (1, 2, 3)}
# A number's bytes are xored with "0", which leaves a digit its value and
# makes any other byte more than 9 (a point 30).
_DIGIT_ZEROS = np.array(int.from_bytes(b"0" * 8, "little"), np.uint64)
_NINE, _POINT = np.array(9, np.uint8), np.array(ord(".") ^ ord("0"), np.uint8)


def _split_run(run: str, width: int) -> tuple[bytes, np.ndarray, np.ndarray]:
    """(UTF-8 bytes, and by row and field the byte offset of the field's
    separator and the field's length) of run, whole lines with its blank
    lines dropped and its last line ended; ValueError if a line has other
    than `width` fields.

    Blank lines and a missing final newline are found on the newline mask the
    separator offsets need anyway, and only such a run is rebuilt.  The
    separators are checked as one bytes comparison, which costs a short run
    less than an array comparison does.
    """
    data = run.encode()
    chars = np.frombuffer(data, dtype=np.uint8)
    newline = chars == _NEWLINE
    if data and (data.startswith(b"\n") or not data.endswith(b"\n") or np.count_nonzero(newline[1:] & newline[:-1])):
        return _split_run("".join(line + "\n" for line in run.split("\n") if line), width)
    cuts = ((chars == _COMMA) | newline).nonzero()[0]
    if chars[cuts].tobytes() != _line_pattern(width) * (cuts.size // width):
        raise ValueError("a line has another field count")
    lengths = cuts - _ONE
    lengths[1:] -= cuts[:-1]
    lengths[:1] += _ONE  # the first field follows no separator
    return data, cuts.reshape(-1, width), lengths.reshape(-1, width)


@functools.cache
def _line_pattern(width: int) -> bytes:
    """The separators of a line of `width` fields."""
    return b"," * (width - 1) + b"\n"


def _fallback(rule, data: bytes, ends: np.ndarray, lengths: np.ndarray, rows: np.ndarray) -> list:
    """rule applied to the text data[end - length:end] of each field at rows:
    how every field the byte pass cannot certify is read."""
    return [rule(data[e - n : e].decode()) for e, n in zip(ends[rows].tolist(), lengths[rows].tolist())]


def _windows(padded: bytes, ends: np.ndarray, lengths: np.ndarray, words: int, masks, xor=None) -> np.ndarray:
    """Per end, the 8 * words bytes before it (xored with xor) as `words`
    uint64 words, masked by masks[words] at each field's length, taken as
    _WINDOW beyond it."""
    view = np.ndarray((len(padded) - _WINDOW + 1,), _WINDOWS[words], padded, _WINDOW - 8 * words, (1,))
    windows = view[ends].view(np.uint64).reshape(*ends.shape, words)
    if xor is not None:
        windows ^= xor
    windows &= masks[words].take(lengths, axis=0, mode="clip")
    return windows


def _name_bad_row(text: str, begin: int, end: int, width: int, convert, row: int):
    """Raise DataFormatError naming the first nonblank line of text[begin:end],
    data row `row` on, that has other than `width` fields or that convert
    refuses as a run of one line.

    The run is cut at a line boundary near its middle; convert reads the
    first part, and the search goes on in that part if it is refused, else in
    the rest.  A run of n lines so takes about log2(n) conversions.
    """
    while True:
        half = (begin + end) // 2
        cut = text.find("\n", half, end - 1) + 1 or text.rfind("\n", begin, half) + 1
        if not cut:  # one line
            break
        try:
            _, rows = convert(text[begin:cut], row)
        except ValueError:
            end = cut
        else:
            begin, row = cut, row + rows
    number = text.count("\n", 0, begin) + 1
    line = text[begin:end].removesuffix("\n")
    fields = line.count(",") + 1
    if fields != width:
        raise DataFormatError(f"line {number}: expected {width} fields, got {fields}")
    try:
        convert(line + "\n", row)
    except ValueError as exc:
        raise DataFormatError(f"line {number}: {exc}") from None
    raise AssertionError("a run of rows failed, but none of its rows")


def _convert_columns(wanted, width: int, index: str | None, run: str, row: int) -> tuple[list[np.ndarray], int]:
    """The (column, type) arrays wanted from a run of rows, and the row count.

    Each field is read from the run's bytes (_decimals): an int field
    -?digits, a float field -?digits[.digits][e±dd[d]].  Every field that
    pass cannot certify is converted from its text with int() or float(), so
    each value has their bits.  A first column named by index must read row,
    row + 1, ... as the writer spells them, digits only and no leading zero,
    which _digit_words checks from ceil(longest / 8) words.  Error texts name
    the run's first row.
    """
    data, ends, lengths = _split_run(run, width)
    rows = len(ends)
    if not rows:
        return [np.empty(0, kind) for _, kind in wanted], 0
    padded = bytes(_WINDOW) + data
    if index:
        digits, tens = _digit_words(padded, ends[:, 0], lengths[:, 0])
        spelled = (tens == _ZERO) & (digits >= _LEAST_OF_LENGTH.take(lengths[:, 0], mode="clip"))
        if not (spelled & (digits == np.arange(row, row + rows))).all():
            raise ValueError(f"{index} must be {row}, got {_fallback(str, data, ends[:, 0], lengths[:, 0], [0])[0]!r}")
    columns = [column for column, _ in wanted]
    ends, lengths = ends.T[columns], lengths.T[columns]  # one row per column read
    digits, exponents, negative, whole, certified = _decimals(padded, ends, lengths)
    arrays = []
    for i, (_, kind) in enumerate(wanted):
        if kind is int:
            values, read = np.where(negative[i], -digits[i], digits[i]), whole[i]
        else:
            values, read = _decimal_floats(digits[i], exponents[i], negative[i], certified[i])
        if not read.all():
            other = (~read).nonzero()[0]
            text = _fallback(str, data, ends[i], lengths[i], other[:1])[0]  # named if a field fails
            try:
                values[other] = _fallback(kind, data, ends[i], lengths[i], other)
            except ValueError:
                raise ValueError(f"{text!r} is not {'an integer' if kind is int else 'a number'}") from None
            except OverflowError:  # int() takes any size, the int64 array does not
                raise ValueError(f"{text!r} is out of range") from None
        arrays.append(values)
    return arrays, rows


# A decimal field's digits and points are found as bit masks of its window,
# bit d - 1 for the byte at distance d from the separator, and its other
# bytes must sit where the form -?digits[.digits][e±dd[d]] puts them.  Its
# digits, each other byte read as a 0, give one integer per 8-byte word by
# three SWAR steps, in place on the little-endian words: pairs, fours, then
# eights of digits.  Temporaries are few and narrow: on a long run a fresh
# array costs more in page faults than the arithmetic on it.
_MINUS = np.array(ord("-"), np.uint8)
# (scale, shift, mask) of each step, on int64 words: a mask clears the sign
# bits that a shift copies, and the last step, whose sum stays below 2**31,
# needs none.
_SWAR_STEPS = [(np.array(m), np.array(s), k if k is None else np.array(k))
               for m, s, k in ((10 << 8 | 1, 8, 0x00FF00FF00FF00FF), (100 << 16 | 1, 16, 0x0000FFFF0000FFFF),
                               (10000 << 32 | 1, 32, None))]
_E8 = np.array(10**8)


def _spell(words: np.ndarray) -> np.ndarray:
    """In place, each little-endian int64 word of 8 digit values, its first
    byte the most significant, as the integer they spell."""
    for scale, shift, keep in _SWAR_STEPS:
        words *= scale
        words >>= shift
        if keep is not None:
            words &= keep
    return words


# Tick times, tick prices and the index column of a day or simulation CSV
# are read by one word reader, _digit_words.  A field is read from the last
# ceil(longest / 8) words before its separator, at most 3, xored with "0" as
# for _decimals.  Each byte's class (2 a digit, 0 a point, 1 any other
# byte) gives one class word per word; its points are zeroed, and a point is
# dropped by moving the bytes before it one byte on within its word:
# w + (w & below) * 255 moves the bytes of w under the mask below.  Then
# _spell sums each word's digits, and each word is joined to those before it
# by 10**8, or 10**7 if it held the point.
_NUMBER_BYTES = 18
_LITTLE_I64 = np.dtype("<i8")
_ZERO, _BYTE_MOVE = np.array(0), np.array(255)
# A class word mod 555 tells the nine words of no point or one point from
# every other: 555 is the least modulus under which no other class word
# leaves one of their residues.  By residue: 10**(7 - p) for a point at byte
# p, the digits after it (0 for no point, -1 for any other word); the mask
# of the bytes before the point; and the power that joins the word to the
# words before it.
_MOD_CLASS = np.array(555)
_DIGIT_CLASSES = 0x0202020202020202
_POINT_RESIDUES = [(_DIGIT_CLASSES ^ 2 << 8 * p) % 555 for p in range(8)]
_TENS_OF = np.full(555, -1)
_TENS_OF[[_DIGIT_CLASSES % 555, *_POINT_RESIDUES]] = [0, *(10 ** (7 - p) for p in range(8))]
_BELOW_OF = np.zeros(555, np.int64)
_BELOW_OF[_POINT_RESIDUES] = [256**p - 1 for p in range(8)]
_JOIN = np.where(_TENS_OF > 0, 10**7, 10**8)


def _digit_words(padded: bytes, ends: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, T) of each field, each of ends' shape.

    A field digits[.digits] of 1 to 18 bytes spells the integer N, its point
    dropped, and T = 10**(digits after its point), 0 without a point.  T is
    -1 for any other field, whose N means nothing.
    """
    longest = int(np.maximum.reduce(lengths, axis=None, initial=1))
    count = -(-min(longest, _NUMBER_BYTES) // 8)
    words = _windows(padded, ends, lengths, count, _NUMBER_BYTES_KEPT, _DIGIT_ZEROS).view(_LITTLE_I64)
    window = words.view(np.uint8)
    no_point = window != _POINT
    residues = np.add(no_point, window <= _NINE, dtype=np.uint8).view(_LITTLE_I64) % _MOD_CLASS
    window *= no_point
    below = _BELOW_OF.take(residues)
    below &= words
    below *= _BYTE_MOVE
    words += below
    values = _spell(words)
    tens_words = _TENS_OF.take(residues)
    digits, tens = values[..., 0], tens_words[..., 0]
    for k in range(1, count):
        digits = digits * _JOIN.take(residues[..., k]) + values[..., k]
        tens = tens * _E8 + tens_words[..., k]
    if count > 1:  # every word read, and a point in one at most
        tens[(tens_words.min(axis=-1) < _ZERO) | (np.count_nonzero(tens_words, axis=-1) > _ONE)] = -1
    if longest > _NUMBER_BYTES:
        tens[lengths > _NUMBER_BYTES] = -1
    return digits, tens


# A row's 24 flags pack to 3 bytes, read with the next row's first as one
# big-endian uint32.
_BYTE, _ALL_BITS = np.array(8, np.uint32), np.array(2**_WINDOW - 1, np.uint32)


def _signed_tail(t: int) -> np.ndarray:
    """By an "e" and its sign, xored with "0", as a little-endian uint16 at
    distance t and t - 1: the exponent's length t with its sign, else 0."""
    table = np.zeros(2**16, np.int8)
    for sign in "+-":
        table[(ord(sign) ^ ord("0")) << 8 | ord("e") ^ ord("0")] = t if sign == "+" else -t
    return table


# An exponent has 2 or 3 digits; a run without an "e" has none.
_SIGNED_TAIL = {t: _signed_tail(t) for t in (4, 5)}
_NO_TAIL = np.array(0, np.int8)
# By field length L: its bits, the top one that of a leading minus, and the
# least index that is L digits long (none beyond 18 digits).
_FIELD_BITS = np.array([2**n - 1 for n in range(_WINDOW + 1)], np.uint32)
_LEAD_BIT = np.array([2 ** (n - 1) if n else 0 for n in range(_WINDOW + 1)], np.uint32)
_LEAST_OF_LENGTH = np.array([0 if n == 1 else 10 ** (n - 1) if 1 < n <= 18 else 2**63 - 1 for n in range(_WINDOW + 1)])
# By exponent length t (0, 4 or 5): the bits of "e" and its sign; the power
# that splits the exponent's digits off the low word; the power that moves
# the 16 upper digits above the rest, which must stay below the limit so that
# the digits' integer is below 9 * 10**18.
_TAIL_BITS = np.array([3 << (t - 2) if t > 1 else 0 for t in range(6)], np.uint32)
_SHIFT_DOWN = np.array([10**t for t in range(6)])
_SHIFT_UP = np.array([10 ** (8 - t) for t in range(6)])
_UPPER_LIMIT = np.array([9 * 10 ** (10 + t) for t in range(6)])
# 2**k mod 37 differs for each k < 36: by a mask of points mod 37, the
# distance r of its one point (0 for none), and by r that point's bit.
_MOD = np.array(37, np.uint32)
_POINT_DISTANCE = np.zeros(37, np.intp)
_POINT_DISTANCE[[2**k % 37 for k in range(_WINDOW)]] = range(1, _WINDOW + 1)
_BIT_AT = np.array([0] + [2**k for k in range(_WINDOW)], np.uint32)
# By the point's distance r from the exponent's "e" (or the separator), 0 for
# no point: 10**r, where the digits above the point start once it reads as a
# 0; 9 * 10**(r - 1), which times those digits is what the 0 added (0 where no
# digit can be above it); and the digits after the point.
_ABOVE = np.array([10**r if 0 < r <= 18 else 1 for r in range(_WINDOW + 1)])
_BELOW = np.array([9 * 10 ** (r - 1) if 0 < r <= 18 else 0 for r in range(_WINDOW + 1)])
_AFTER = np.array([max(r - 1, 0) for r in range(_WINDOW + 1)])


def _decimals(padded: bytes, ends: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """(N, E, negative, whole, certified) of each field, each of ends' shape.

    A certified field is -?digits[.digits][e±dd[d]] with at most 24 bytes,
    whose digits, the point read as a 0, spell an integer below 9 * 10**18:
    it spells (-1)**negative * N * 10**E.  A whole one has no point and no
    exponent, so that E is 0.
    """
    shape, n = ends.shape, ends.size
    ends, lengths = ends.ravel(), lengths.ravel()
    clipped = np.minimum(lengths, _WINDOW_BYTES)
    negative = np.frombuffer(padded, np.uint8, offset=_WINDOW)[ends - lengths] == _MINUS
    words = _windows(padded, ends, clipped, 3, _NUMBER_BYTES_KEPT, _DIGIT_ZEROS)
    signed = _NO_TAIL
    if b"e" in padded:
        signed = sum(_SIGNED_TAIL[t][np.ndarray((n,), "<u2", words, _WINDOW - t, (_WINDOW,))] for t in (4, 5))
    tail = np.abs(signed).view(np.uint8)
    window = words.view(np.uint8)
    flags = np.zeros(2 * n * _WINDOW + 8, bool)
    is_digit = flags[: n * _WINDOW].reshape(n, _WINDOW)
    np.less_equal(window, _NINE, out=is_digit)
    np.equal(window, _POINT, out=flags[n * _WINDOW : -8].reshape(n, _WINDOW))
    digit_bits, point_bits = np.ndarray((2, n), ">u4", np.packbits(flags), 0, (3 * n, 3)) >> _BYTE
    point_bits >>= tail  # a point within the exponent is no point
    window *= is_digit.view(np.uint8)
    r = _POINT_DISTANCE.take(point_bits % _MOD)
    lead = _LEAD_BIT.take(clipped) * negative
    certified = (digit_bits ^ (_BIT_AT.take(r) << tail | lead | _TAIL_BITS.take(tail))) == _ALL_BITS
    whole = (digit_bits ^ lead) == _ALL_BITS
    certified &= (digit_bits & _FIELD_BITS.take(clipped)) >> tail != 0  # a digit before the exponent
    if n and int(lengths.max()) > _WINDOW:
        certified &= lengths <= _WINDOW_BYTES
    upper, middle, lower = _spell(words.view(_LITTLE_I64)).T
    upper = upper * _E8
    upper += middle
    certified &= upper < _UPPER_LIMIT.take(tail)
    rest, exponents = np.divmod(lower, _SHIFT_DOWN.take(tail))
    upper *= _SHIFT_UP.take(tail)
    upper += rest
    digits = upper - upper // _ABOVE.take(r) * _BELOW.take(r)
    exponents *= np.sign(signed)
    exponents -= _AFTER.take(r)
    whole &= certified
    return tuple(a.reshape(shape) for a in (digits, exponents, negative, whole, certified))


# Exponents E for which N * 10**E is read as a double-double: the powers
# _scaled has, and N * 10**E < 9 * 10**307 stays below the largest double.
_E_MIN, _E_MAX = _S_MIN, 289
# hi is float()'s value when hi + lo, within 2**-100 of the exact value, lies
# more than 2**-30 of a gap from the halfway point to either neighbour.
_HALFWAY_MARGIN = 1.0 + 2.0**-29


def _decimal_floats(digits, exponents, negative, certified) -> tuple[np.ndarray, np.ndarray]:
    """(values, certified) of the fields (-1)**negative * N * 10**E that
    _decimals read: N * 10**E as a double-double hi + lo (_scaled, with N
    split into a double and the integer it leaves), and certified where hi
    is float()'s correctly rounded value."""
    a = digits.astype(float)
    tail = (digits - a.astype(np.int64)).astype(float)
    bounded = np.minimum(np.maximum(exponents, _E_MIN), _E_MAX)
    hi, lo = _scaled(a, 16 - bounded, tail)
    certified = certified & (bounded == exponents) & (hi + lo * _HALFWAY_MARGIN == hi)
    np.negative(hi, out=hi, where=negative)
    return hi, certified


def _read_columns(text: str, columns: dict, what: str) -> tuple:
    """(header, *arrays) of a CSV whose header is a key of columns, which maps
    it to the (index, type) of every column the caller needs.

    A row with the wrong number of fields, or a value its column's type does
    not parse, raises DataFormatError naming its line.
    """

    def layout(header: str):
        if header not in columns:
            expected = ", ".join(map(repr, columns))
            raise DataFormatError(f"unrecognized header {header!r} for a {what}; expected one of {expected}")
        width = header.count(",") + 1
        index = header.split(",")[0] if header in _INDEXED_HEADERS else None
        return width, partial(_convert_columns, columns[header], width, index)

    header, arrays = _bulk_split(text, layout)
    return (header, *arrays)


@contextmanager
def _load_object(text: str, what: str):
    """The JSON object in text; a missing or malformed field, or nesting too
    deep for the parser, raises DataFormatError."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise DataFormatError(f"{what} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{what} must be an object, got {type(doc).__name__}")
    try:
        yield doc
    except KeyError as exc:
        raise DataFormatError(f"{what} is missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond a double
        raise DataFormatError(f"{what} has a field of the wrong type or value: {exc}") from None


# The types json.loads gives a JSON number; true and false are bools, not numbers.
_NUMBER = (int, float)


def _check_json_types(what: str, fields: dict, kinds: tuple, noun: str) -> None:
    """Refuse a field, or an item of a list field, whose type is not one of
    kinds: the one type rule of every JSON reader, so a value is refused,
    not converted, where it does not fit."""
    for name, value in fields.items():
        for v in value if isinstance(value, list) else [value]:
            if type(v) not in kinds:
                raise DataFormatError(f"{what} field {name!r} holds {v!r}, not {noun}")


def series_from_csv(text: str) -> tuple[str, np.ndarray]:
    """(kind, values) of a series CSV, the kind matched from SERIES_HEADERS."""
    columns = {header: ((column, float),) for header, (_, column) in SERIES_HEADERS.items()}
    header, values = _read_columns(text, columns, "series CSV")
    return SERIES_HEADERS[header][0], values


def values_to_csv(values) -> str:
    return _table(VALUES_HEADER, np.asarray(values, dtype=float))


# --- quantile-correlation curves -------------------------------------------


def curve_to_csv(curve: QcfCurve) -> str:
    columns = [range(-curve.max_lag, curve.max_lag + 1), curve.values]
    if curve.ci_half_width is None:
        return _table(CURVE_HEADER, *columns)
    return _table(CURVE_HEADER_CI, *columns, fmt(curve.ci_half_width))


def curve_to_json(curve: QcfCurve) -> str:
    return _dump({
        "alpha": curve.alpha.p,
        "beta": curve.beta.p,
        "lags": curve.lags.tolist(),
        "values": [float(v) for v in curve.values],
        "ci_half_width": curve.ci_half_width,
        "series_length": curve.series_length,
        "n_averaged": curve.n_averaged,
    })


def curve_from_json(text: str) -> QcfCurve:
    """The curve in a JSON document.  Its lags must be -L..L (check_lag_grid),
    its lags and counts JSON integers, its levels and values JSON numbers and
    its ci_half_width a number or null: 1.5, 1.0, true, null and "0.5" are
    refused where they do not fit, not converted."""
    with _load_object(text, "curve JSON") as doc:
        ints = {"lags": doc["lags"], "series_length": doc["series_length"],
                "n_averaged": doc.get("n_averaged", 1)}
        numbers = {"alpha": doc["alpha"], "beta": doc["beta"], "values": doc["values"]}
        ci = {"ci_half_width": doc.get("ci_half_width")}
        for fields, kinds, noun in ((ints, (int,), "an integer"), (numbers, _NUMBER, "a number"),
                                    (ci, (*_NUMBER, type(None)), "a number or null")):
            _check_json_types("curve JSON", fields, kinds, noun)
        values = np.array(numbers.pop("values"), dtype=float)
        check_lag_grid(ints.pop("lags"), values.size)
        return QcfCurve(values=values, **numbers, **ci, **ints)


def curve_arrays_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(lags, values, ci) from a curve CSV; quantile metadata lives in JSON only.
    A ci column holds one half-width (check_ci_half_width) on every row."""
    _, lags, values, *ci = _read_columns(text, _CURVE_COLUMNS, "curve CSV")
    half_width = float(ci[0][0]) if ci and ci[0].size else None
    check_ci_half_width(half_width)
    if half_width is not None and np.any(ci[0] != half_width):
        raise ValueError("the ci column must hold one value on every row")
    return lags, values, half_width


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


def provenance_json(params: GarchParams, sims: list[SimulationResult], master_seed: int | None = None,
                    **data) -> str:
    """The one provenance layout of every simulation output: the params fields
    flat, so the document is also a params document, then generator, burn_in,
    length, master_seed (None when the seeds were not derived from one) and
    seeds, where seeds[i] is the seed of sims[i], then data."""
    return _dump({
        **params_to_dict(params),
        "generator": GENERATOR,
        "burn_in": sims[0].burn_in,
        "length": len(sims[0].returns),
        "master_seed": master_seed,
        "seeds": [sim.innovations_seed for sim in sims],
        **data,
    })


def simulation_to_json(sim: SimulationResult, params: GarchParams) -> str:
    """One document: the sidecar's provenance, then the returns and variances."""
    return provenance_json(params, [sim], returns=sim.returns.values.tolist(), variances=sim.variances.tolist())


def returns_from_sim_csv(text: str) -> np.ndarray:
    return _read_columns(text, {SIM_HEADER: ((1, float),)}, "simulation CSV")[1]


# --- model parameters ---------------------------------------------------------


def params_to_dict(params: GarchParams) -> dict:
    """Every GarchParams field in declaration order (kind, mu, omega, alpha1, beta1, gamma1)."""
    return {**dataclasses.asdict(params), "kind": params.kind.value}


def params_to_json(params: GarchParams) -> str:
    return _dump(params_to_dict(params))


def params_from_json(text: str) -> GarchParams:
    """The model in a JSON document; a missing gamma1 reads 0.0.  Every
    parameter must be a JSON number: true, "1e-5" and null are refused, not
    converted."""
    with _load_object(text, "params JSON") as doc:
        doc = {"gamma1": 0.0, **doc}
        _check_json_types("params JSON", {name: doc[name] for name in PARAM_NAMES}, _NUMBER, "a number")
        return GarchParams(doc["kind"], *(float(doc[name]) for name in PARAM_NAMES))


# --- fit batches ---------------------------------------------------------------


def batch_to_csv(batch: FitBatch) -> str:
    fits = list(batch.fits.values())
    params = [[getattr(f.params, name) for f in fits] for name in PARAM_NAMES]
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


# Whether a flag of one byte (or none) keeps its row, by its last byte; an
# empty flag's is its separator, and no byte >= 0x80 is a whole UTF-8 field.
_FLAG_BYTE_TRUE = np.array([b < 128 and chr(b).lower() in _REGULAR_TRUE for b in range(256)])
# A date and an instrument are packed into two uint64 words each, their last
# 16 bytes.  No field holds NUL, so the zero bytes before a shorter field
# keep the packing one to one.  No UTF-8 text holds 0xff: a longer key is
# packed as its number among the run's longer keys and three words of 0xff.
_KEY_WORDS = 2
_LONG_KEY = np.uint64(2**64 - 1)
_LONG_TAIL = b"\xff" * 24
# Per number column (time, price), the greatest T (-1, for a field
# _digit_words cannot read, is above any as uint64) and the least and
# greatest N certified.  A time has no point.  A price D / T has 1 <= D <=
# 2**53: both operands are exact, so the quotient is float()'s correctly
# rounded value (Clinger 1990).
_MOST_TENS = np.array([0, 10**17], np.uint64)
_LEAST_DIGITS = np.array([0, 1])
_DIGITS_SPAN = np.array([2**63 - 1, 2**53 - 1], np.uint64)


def _regular(flag: str) -> bool:
    return flag.lower() in _REGULAR_TRUE


def _key_names(records: bytes, long_keys: list) -> list[tuple[str, str]]:
    """The (date, instrument) that each packed 32-byte record spells."""
    names = []
    for k in range(0, len(records), 32):
        record = records[k : k + 32]
        if record[8:] == _LONG_TAIL:
            names.append(long_keys[int.from_bytes(record[:8], sys.byteorder)])
        else:
            names.append((record[:16].lstrip(b"\0").decode(), record[16:].lstrip(b"\0").decode()))
    return names


def _group_codes(keys: dict, data: bytes, padded: bytes, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The uint32 group code of each row's (date, instrument) fields; keys
    numbers each new group in order of first appearance.  Rows are grouped by
    one stable sort of their packed fields, and each group's name is decoded
    once."""
    clipped = np.minimum(lengths, _WINDOW_BYTES)
    packed = _windows(padded, ends, clipped, _KEY_WORDS, _LAST_BYTES).reshape(-1, 2 * _KEY_WORDS)
    long_keys: list[tuple[str, str]] = []
    if np.maximum.reduce(clipped, axis=None, initial=0) > 8 * _KEY_WORDS:  # numbered by their text
        longer = (clipped > 8 * _KEY_WORDS).any(axis=1).nonzero()[0]
        numbers: dict[tuple[str, str], int] = {}
        texts = zip(*(_fallback(str, data, ends[:, k], lengths[:, k], longer) for k in (0, 1)))
        packed[longer, 0] = [numbers.setdefault(key, len(numbers)) for key in texts]
        packed[longer, 1:] = _LONG_KEY
        long_keys = list(numbers)
    order = np.lexsort(packed.T)
    ordered = packed[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    new[1:] = (ordered[1:] != ordered[:-1]).view(np.uint32)[:, 0]  # any of 4 words
    names = _key_names(ordered[new].tobytes(), long_keys)
    for k in order[new].argsort().tolist():
        keys.setdefault(names[k], len(keys))
    codes = np.empty(len(order), dtype=np.uint32)
    codes[order] = np.fromiter(chain((0,), map(keys.__getitem__, names)), np.uint32, len(names) + 1)[new.cumsum()]
    return codes


def _tick_columns(width: int, keys: dict, run: str, row: int) -> tuple[tuple[np.ndarray, ...], int]:
    """((group code, time, price) of the kept rows, row count) of a run, each
    column read from the run's bytes; keys numbers each new (date,
    instrument) in order of first appearance among kept rows."""
    data, ends, lengths = _split_run(run, width)
    padded = bytes(_WINDOW) + data
    rows = len(ends)
    if width == 5:
        keep = _FLAG_BYTE_TRUE[np.frombuffer(padded, np.uint8, offset=_WINDOW - 1)[ends[:, 4]]]
        other = (lengths[:, 4] > _ONE).nonzero()[0]
        if other.size:
            keep[other] = _fallback(_regular, data, ends[:, 4], lengths[:, 4], other)
        kept = keep.nonzero()[0]
        ends, lengths = ends.take(kept, axis=0), lengths.take(kept, axis=0)
    codes = _group_codes(keys, data, padded, ends[:, 0:3:2], lengths[:, 0:3:2])
    digits, tens = _digit_words(padded, ends[:, 1::2], lengths[:, 1::2])
    certified = (tens.view(np.uint64) <= _MOST_TENS) & ((digits - _LEAST_DIGITS).view(np.uint64) <= _DIGITS_SPAN)
    times, prices = digits[:, 0], digits[:, 1] / np.maximum(tens[:, 1], _ONE)
    if not certified.all():
        other = (~certified[:, 0]).nonzero()[0]
        exact = _fallback(int, data, ends[:, 1], lengths[:, 1], other)
        beyond = next((t for t in exact if not -(2**63) <= t < 2**63), None)
        if beyond is not None:
            raise ValueError(f"timestamp {beyond} is out of range")
        times[other] = exact
        other = (~certified[:, 1]).nonzero()[0]
        prices[other] = _fallback(float, data, ends[:, 3], lengths[:, 3], other)
        if times.min() < 0:  # a certified time has no sign
            raise ValueError(f"negative timestamp {times[times < 0][0]}")
        valid = valid_prices(prices[other])  # a certified price is positive and finite
        if not valid.all():
            bad = float(prices[other][~valid][0])
            raise ValueError(f"{'infinite' if bad == math.inf else 'nonpositive'} price {bad!r}")
    return (codes, times, prices), rows


def read_ticks_csv(text: str) -> dict[tuple[str, str], TickGroup]:
    """Parse tick CSV "date,time_seconds,instrument,price[,regular]".

    Rows whose optional `regular` flag is not truthy are dropped here, before
    their time and price are parsed.  Returns one TickGroup per (date,
    instrument), in order of first appearance among the kept rows, so a key
    seen only on dropped rows forms no group; each keeps the file's row
    order, so unsorted data is still detected downstream.

    Each run of rows is read from its bytes (_tick_columns): a time of 1 to
    18 ASCII digits, a price digits[.digits] of at most 18 bytes whose digits
    spell an integer from 1 to 2**53, a one-byte flag and keys of at most 16
    bytes.  Every other field is read from its text with int(), float() or
    the flag rule, one field at a time, so each value has float()'s and
    int()'s bits and an error names the same line.  A run groups its rows with one stable sort
    of their packed keys, and _group_ticks gathers every group's rows with
    one stable sort of the group codes.
    """
    keys: dict[tuple[str, str], int] = {}

    def layout(header: str):
        if not header:
            raise DataFormatError("empty ticks file; header row required")
        width = _ticks_width(header.split(","))
        return width, partial(_tick_columns, width, keys)

    _, columns = _bulk_split(text, layout)
    return _group_ticks(keys, *columns)


def _group_ticks(keys: dict, codes, times, prices) -> dict[tuple[str, str], TickGroup]:
    """One TickGroup per key, in the keys' order, each in row order.  The
    codes are sorted in the narrowest unsigned type that holds them: a stable
    sort of uint8 or uint16 is a radix sort, and every stable sort gives the
    same order.  Each group's arrays are slices of the sorted columns, taken
    in one loop: np.split costs some microseconds a group, which a file of
    many small groups notices."""
    order = np.argsort(codes.astype(np.min_scalar_type(len(keys))), kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=len(keys))).tolist()
    times, prices = times[order], prices[order]
    return {key: TickGroup(key[1], times[a:b], prices[a:b]) for key, a, b in zip(keys, [0, *ends], ends)}
