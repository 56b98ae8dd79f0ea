import csv
import errno
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from helpers import CSV_EDITS, perturb, reference_read_columns
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    DataFormatError,
    FitBatch,
    GarchParams,
    PPGrid,
    ProbabilityLevel,
    QcfCurve,
    TradingDay,
    DayRejection,
    asymmetry,
    build_index,
    fit_gjr,
    pp_grid,
    qcf_fast,
    read_ticks_csv,
    resample_day,
    resimulate_experiment,
    simulate,
)
from qcorr.cli import main
from qcorr.fitting import FitResult
from qcorr.garch import SimulationResult
from qcorr.qcf import asymmetry_from_arrays
from qcorr.series import TimeSeries
from qcorr import serialize
from qcorr.serialize import values_to_csv


@pytest.fixture
def curve():
    rng = np.random.default_rng(0)
    return qcf_fast(rng.standard_normal(300), 0.05, 0.95, 12)


class TestCurveSerialization:
    def test_csv_headers_exact(self, curve):
        assert serialize.curve_to_csv(curve).splitlines()[0] == "lag,qcf"
        assert serialize.curve_to_csv(curve.with_ci(0.01)).splitlines()[0] == "lag,qcf,ci"

    def test_csv_roundtrip_exact(self, curve):
        banded = curve.with_ci(0.0123456789012345678)
        lags, values, ci = serialize.curve_arrays_from_csv(serialize.curve_to_csv(banded))
        assert np.array_equal(lags, banded.lags)
        assert np.array_equal(values, banded.values)
        assert ci == banded.ci_half_width

    def test_json_roundtrip_exact(self, curve):
        banded = curve.with_ci(0.004)
        back = serialize.curve_from_json(serialize.curve_to_json(banded))
        assert back.alpha.p == banded.alpha.p and back.beta.p == banded.beta.p
        assert np.array_equal(back.lags, banded.lags)
        assert np.array_equal(back.values, banded.values)
        assert back.ci_half_width == banded.ci_half_width
        assert back.series_length == banded.series_length
        assert back.n_averaged == banded.n_averaged

    def test_float_levels_are_coerced(self):
        curve = QcfCurve(alpha=0.05, beta=0.95, values=np.array([0.1, 1.0, 0.2]), series_length=10)
        assert (curve.alpha, curve.beta) == (ProbabilityLevel(0.05), ProbabilityLevel(0.95))
        back = serialize.curve_from_json(serialize.curve_to_json(curve))
        assert (back.alpha, back.beta) == (curve.alpha, curve.beta)
        assert np.array_equal(back.values, curve.values)

    def test_csv_rejects_garbage(self):
        with pytest.raises(Exception, match="curve CSV"):
            serialize.curve_arrays_from_csv("foo,bar\n1,2\n")

    @settings(max_examples=150, deadline=None)
    @given(L=st.integers(1, 30), data=st.data())
    def test_one_lag_grid_rule_for_curve_files(self, L, data):
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * L + 1, max_size=2 * L + 1), label="values")
        curve = QcfCurve(
            ProbabilityLevel(0.05), ProbabilityLevel(0.95), np.array(values),
            series_length=data.draw(st.integers(2 * L + 1, 10**6), label="series_length"),
            ci_half_width=data.draw(st.none() | st.floats(0.0, 1.0), label="ci"),
            n_averaged=data.draw(st.integers(1, 500), label="n_averaged"),
        )
        back = serialize.curve_from_json(serialize.curve_to_json(curve))
        for name in ("alpha", "beta", "series_length", "ci_half_width", "n_averaged", "max_lag"):
            assert getattr(back, name) == getattr(curve, name), name
        assert np.array_equal(back.values, curve.values) and np.array_equal(back.lags, curve.lags)
        via_csv = asymmetry_from_arrays(*serialize.curve_arrays_from_csv(serialize.curve_to_csv(curve))[:2])
        assert repr(asymmetry(back)) == repr(via_csv) == repr(asymmetry(curve))  # repr spells every bit

        # One edit takes the lags off -L..L; both readers must refuse the file.
        lags = list(range(-L, L + 1))
        i = data.draw(st.integers(0, 2 * L), label="i")
        edit = data.draw(st.sampled_from(["drop lag 0", "repeat", "swap", "fractional", "outer"]), label="edit")
        if edit == "drop lag 0":
            del lags[L], values[L]
        elif edit == "repeat":
            lags.insert(i, lags[i])
            values.insert(i, values[i])
        elif edit == "swap":
            j = (i + data.draw(st.integers(1, 2 * L), label="offset")) % (2 * L + 1)
            lags[i], lags[j] = lags[j], lags[i]
        elif edit == "fractional":
            lags[i] += math.copysign(0.5, lags[i])  # truncation would give back the grid
        else:
            lags.append(L + 1)
            values.append(0.0)
        doc = json.loads(serialize.curve_to_json(curve)) | {"lags": lags, "values": values}
        with pytest.raises((ValueError, DataFormatError)):
            serialize.curve_from_json(json.dumps(doc))
        csv_text = "lag,qcf\n" + "".join(f"{lag},{value!r}\n" for lag, value in zip(lags, values))
        with pytest.raises((ValueError, DataFormatError)):
            asymmetry_from_arrays(*serialize.curve_arrays_from_csv(csv_text)[:2])

    def test_seventeen_significant_digits(self):
        assert serialize.fmt(1.0 / 3.0) == "0.33333333333333331"
        assert float(serialize.fmt(0.1 + 0.2)) == 0.1 + 0.2


def g17_lines(values) -> list[str]:
    """The value lines values_to_csv writes for values."""
    return serialize.values_to_csv(np.asarray(values, dtype=float)).split("\n")[1:-1]


def reference_lines(values) -> list[str]:
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def powers_of_ten_and_neighbours() -> np.ndarray:
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    values = [powers]
    below, above = powers, powers
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        values += [below, above]
    return np.concatenate(values)


def decade_edges() -> np.ndarray:
    """Doubles at and next to 9.999999999999999eX, 1eX, 9.9999999999999999eX
    and 9.99999999999999995eX: their 17 digits D sit on or next to 10**16 - 1,
    10**16 and 10**17 - 1, where the decade of the scaled value decides the
    exponent."""
    texts = [f"{m}e{e}" for e in range(-300, 301) for m in ("9.999999999999999", "1.0000000000000000",
                                                         "9.9999999999999999", "9.99999999999999995")]
    centre = np.array([float(t) for t in texts])
    return np.concatenate([centre, np.nextafter(centre, 0.0), np.nextafter(centre, np.inf)])


def exact_ties() -> np.ndarray:
    """Doubles with exactly 18 significant digits, the last a 5: format()
    rounds them half to even."""
    odd = np.arange(1, 20000, 2, dtype=float)
    quarters = 2.0**50 + np.arange(1000) + 0.25  # 16 integer digits and ".25"
    candidates = np.concatenate([odd * 2.0**-25, odd * 2.0**-30, odd * 2.0**10, quarters, quarters + 0.5])
    ties = [v for v in candidates.tolist() if Decimal(v).as_tuple().digits[-1:] == (5,)
            and len(Decimal(v).normalize().as_tuple().digits) == 18]
    assert len(ties) > 2000
    return np.array(ties)


class TestSeventeenDigitColumns:
    """The vectorized %.17g writer against format(v, ".17g"), value by value."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(width=64),
        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                         2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                         1e-280, 1e280, 0.1 + 0.2]),
    ), max_size=60))
    def test_matches_format(self, values):
        assert g17_lines(values) == reference_lines(values)

    def test_million_random_bit_patterns(self):
        bits = np.random.default_rng(20261018).integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert g17_lines(values) == reference_lines(values)

    @pytest.mark.parametrize("crafted", [powers_of_ten_and_neighbours, decade_edges, exact_ties],
                             ids=["powers-of-ten", "decade-edges", "exact-ties"])
    def test_crafted_values(self, crafted):
        values = crafted()
        assert g17_lines(values) == reference_lines(values)
        assert g17_lines(-values) == reference_lines(-values)

    def test_ties_are_left_to_format(self, monkeypatch):
        values = exact_ties()
        calls = []
        monkeypatch.setattr(serialize, "fmt", lambda v: calls.append(v) or format(v, ".17g"))
        assert g17_lines(values) == reference_lines(values)
        assert sorted(calls) == sorted(values.tolist())

    def test_layout(self):
        values = [0.1 + 0.2, 1 / 3, -2.0, 100.0, 1e16, 1e17, 1.5e-5, 1e-4, 1e-5, 123456789.125,
                  12345678901234567.0, -1.2345678901234567e-308, 2.5e300]
        assert g17_lines(values) == [
            "0.30000000000000004", "0.33333333333333331", "-2", "100", "10000000000000000", "1e+17",
            "1.5e-05", "0.0001", "1.0000000000000001e-05", "123456789.125", "12345678901234568",
            "-1.2345678901234567e-308", "2.5000000000000001e+300",
        ]

    def test_bench_like_columns_take_the_fast_path(self, monkeypatch):
        """At most 1% of realistic columns may fall back to format(), so the
        speed of the writer does not quietly rest on the fallback."""
        rng = np.random.default_rng(9)
        gjr = GarchParams(kind="gjr", mu=0.0, omega=1e-6, alpha1=0.05, beta1=0.9, gamma1=0.06)
        sims = resimulate_experiment(gjr, n_series=20, length=370, seed=3)
        x = np.concatenate([sim.returns.values for sim in sims])
        columns = {
            "prices": np.round(50.0 * np.exp(np.cumsum(rng.normal(0.0, 2e-4, 22200))), 4),
            "returns": x,
            "variances": np.concatenate([sim.variances for sim in sims]),
            "curve": qcf_fast(x, 0.05, 0.95, 600).values,
        }
        for name, values in columns.items():
            calls = []
            monkeypatch.setattr(serialize, "fmt", lambda v: calls.append(v) or format(v, ".17g"))
            assert g17_lines(values) == reference_lines(values), name
            assert len(calls) <= 0.01 * values.size, name


class TestGridSerialization:
    def test_csv_header_literal_backslash(self):
        grid = pp_grid(np.random.default_rng(1).standard_normal(200), [0.05, 0.5, 0.95], 2)
        text = serialize.grid_to_csv(grid)
        assert text.splitlines()[0] == "alpha\\beta,0.05,0.5,0.95"
        rows = text.splitlines()[1:]
        assert len(rows) == 3
        assert rows[0].split(",")[0] == "0.05"
        parsed = float(rows[1].split(",")[2])
        assert parsed == grid.matrix[1, 1]

    def test_json_fields(self):
        grid = pp_grid(np.random.default_rng(1).standard_normal(200), [0.2, 0.8], -3)
        doc = json.loads(serialize.grid_to_json(grid))
        assert doc["lag"] == -3
        assert doc["levels"] == [0.2, 0.8]
        assert np.array_equal(np.array(doc["matrix"]), grid.matrix)


class TestSimulationSerialization:
    def test_csv_and_sidecar(self):
        params = GarchParams(kind="gjr", mu=0.001, omega=1e-5, alpha1=0.05, beta1=0.9, gamma1=0.06)
        sim = simulate(params, length=50, seed=7, burn_in=10)
        text = serialize.simulation_to_csv(sim)
        lines = text.splitlines()
        assert lines[0] == "t,return,variance"
        assert len(lines) == 51
        back = serialize.returns_from_sim_csv(text)
        assert np.array_equal(back, sim.returns.values)
        meta = json.loads(serialize.provenance_json(params, [sim]))
        assert meta["seeds"] == [7] and meta["master_seed"] is None and meta["burn_in"] == 10
        assert meta["kind"] == "gjr" and meta["gamma1"] == 0.06
        assert "generator" in meta


class TestParamsSerialization:
    def test_roundtrip(self):
        params = GarchParams(kind="egarch", mu=-0.0008, omega=0.0009, alpha1=0.0527,
                             beta1=0.8986, gamma1=-0.0218)
        back = serialize.params_from_json(serialize.params_to_json(params))
        assert back == params

    def test_missing_field(self):
        with pytest.raises(Exception, match="missing field"):
            serialize.params_from_json('{"kind": "gjr", "mu": 0.0}')


@pytest.mark.parametrize("read, what", [(serialize.params_from_json, "params JSON"),
                                        (serialize.curve_from_json, "curve JSON")])
def test_json_nested_beyond_the_parser_is_refused(read, what):
    # json.loads raises RecursionError well before this depth.
    with pytest.raises(DataFormatError, match=f"^{what} is nested too deeply$"):
        read("[" * 5000 + "]" * 5000)


class TestBatchSerialization:
    def test_csv_schema(self):
        params = GarchParams(kind="gjr", mu=0.0, omega=0.05, alpha1=0.05, beta1=0.9, gamma1=0.02)
        fit = FitResult(params, -123.456, converged=True, iterations=10, n_obs=370)
        batch = FitBatch(fits={"2007-01-03": fit}, excluded={"2007-01-04": "zero-variance returns"})
        text = serialize.batch_to_csv(batch)
        lines = text.splitlines()
        assert lines[0] == "day,mu,omega,alpha1,beta1,gamma1,loglik,converged"
        fields = lines[1].split(",")
        assert fields[0] == "2007-01-03"
        assert float(fields[2]) == 0.05
        assert fields[7] == "true"
        excl = serialize.excluded_to_csv(batch).splitlines()
        assert excl == ["day,reason", "2007-01-04,zero-variance returns"]


class TestDaySerialization:
    def test_day_csv_roundtrip(self):
        day = TradingDay("AAA", "2007-01-03", np.array([10.0, 10.5, 11.0]), traded_seconds=3)
        text = serialize.day_to_csv(day)
        assert text.splitlines()[0] == "second,price"
        assert np.array_equal(serialize.prices_from_day_csv(text), day.prices)

    def test_rejections_csv(self):
        text = serialize.rejections_to_csv(
            [DayRejection("AAA", "2007-01-03", "insufficient liquidity")]
        )
        assert text == "date,instrument,reason\n2007-01-03,AAA,insufficient liquidity\n"


DAY_COLUMNS = {serialize.DAY_HEADER: ((1, float),)}
SIM_COLUMNS = {serialize.SIM_HEADER: ((1, float),)}
CURVE_COLUMNS = serialize._CURVE_COLUMNS


def columns_outcome(read, text, columns):
    """The header and each array's dtype and bytes, or the error text."""
    try:
        header, *arrays = read(text, columns, "test CSV")
    except Exception as exc:  # the type counts too: only DataFormatError is expected
        return str(exc) if isinstance(exc, DataFormatError) else repr(exc)
    return header, [(a.dtype, a.tobytes()) for a in arrays]


# Prices at the edges of the byte pass, each on the third line of a day CSV:
# forms it certifies, and forms it leaves to float(), which reads or refuses
# them.  Then index fields that are numbers but not the writer's spelling.
CRAFTED_PRICES = [
    "-0", "0.0", "5.", ".5", "1E5", "1e5", "1e+05", "1e-05", "+1.5", "00.5", "9007199254740993",
    "0.1000000000000000055511151231257827", "2.4703282292062328e-324", "1e-320", "1.7976931348623157e308",
    "1e309", "123456789012345678901", "-", "e5", "1e", "1.2.3", "--1",
]


def _crafted_price(field):
    try:
        expected = [10.5, float(field)]
    except ValueError:
        expected = f"line 3: {field!r} is not a number"
    return f"second,price\n0,10.5\n1,{field}\n", expected


CRAFTED_CASES = [_crafted_price(field) for field in CRAFTED_PRICES] + [
    ("second,price\n0,10.5\n+1,11.0\n", "line 3: second must be 1, got '+1'"),
    ("second,price\n0,10.5\n1.0,11.0\n", "line 3: second must be 1, got '1.0'"),
]
CRAFTED_IDS = [f"price-{field}" for field in CRAFTED_PRICES] + ["index-plus", "index-with-point"]


class TestColumnReaderPaths:
    """_read_columns and the reference reader give the same arrays or error."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("second,price\n0,10.5\n1,11.0\n", [10.5, 11.0]),
            ("second,price\r\n0,10.5\r\n1,11.0\r\n", [10.5, 11.0]),
            ("second,price\n0, 10.5\n1,11.0 \n", [10.5, 11.0]),
            ("second,price\n0,10.5\n\n1,11.0\n", [10.5, 11.0]),
            ("second,price\n0,10.5\n1,11.0", [10.5, 11.0]),
            ("\nsecond,price\n0,10.5\n1,11.0\n", [10.5, 11.0]),
            ("second,price\n", []),
            ("second,price", []),
            ("second,price\n0,1_0.5\n1,nan\n", [10.5, float("nan")]),
            ("second,price\n0,10.5\n1,1é\n", "line 3: '1é' is not a number"),
            ("second,price\n0,10.5\n1,\n", "line 3: '' is not a number"),
            ("second,price\n0,10.5\n1,11.0,3\n", "line 3: expected 2 fields, got 3"),
            ("second,prices\n0,10.5\n", "unrecognized header"),
            ("second,price\n0,10.5\n2,11.0\n", "line 3: second must be 1, got '2'"),
            ("second,price\n1,10.5\n", "line 2: second must be 0, got '1'"),
            ("second,price\n0,10.5\n01,11.0\n", "line 3: second must be 1, got '01'"),
            ('second,price\n"0","10.5"\n1,11.0\n', [10.5, 11.0]),
            ("second,price\r0,10.5\r1,11.0\r", [10.5, 11.0]),
            ("second,price\n0,10.5\x0c1,11.0\n", "line 2: expected 2 fields, got 3"),
            ("second,price\n0, 1x \n", "line 2: '1x' is not a number"),
            ("second,price\n0,x\n5,1\n", "line 2: 'x' is not a number"),
            ('second,price\n0,"1,5"\n', "line 2: field '1,5' holds a separator"),
            ("second,price\n0,1\n1,1\x00\n", "line 3: line contains NUL"),
            ('second,price\n0,"10.5\n"\n1,x\n', "line 2: field '10.5\\n' holds a separator"),
            ('second,price\n0,10.5\n1,"' + "1" * (csv.field_size_limit() + 1) + '"\n',
             f"line 3: field larger than field limit ({csv.field_size_limit()})"),
            *CRAFTED_CASES,
        ],
        ids=[
            "plain", "crlf", "padded", "blank-line", "no-final-newline", "leading-blank-line",
            "header-only", "header-without-newline", "underscore-and-nan", "non-ascii-value",
            "empty-value", "field-count", "unknown-header", "index-skips", "index-from-one",
            "index-leading-zero", "quoted-values", "bare-cr", "form-feed-in-a-line", "padded-bad-value",
            "first-bad-line", "separator-in-field", "nul", "quoted-line-break", "field-beyond-size-limit",
            *CRAFTED_IDS,
        ],
    )
    def test_day_paths_agree(self, text, expected):
        bulk = columns_outcome(serialize._read_columns, text, DAY_COLUMNS)
        assert bulk == columns_outcome(reference_read_columns, text, DAY_COLUMNS)
        if isinstance(expected, str):
            assert expected in bulk
        else:
            assert bulk == ("second,price", [(np.dtype(float), np.array(expected, float).tobytes())])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["bulk", "row-loop"])
    @pytest.mark.parametrize("lag", ["99999999999999999999999", "-9223372036854775809"])
    def test_lag_beyond_int64_is_named(self, newline, lag):
        text = newline.join(["lag,qcf", "0,1", f"{lag},0.5", ""])
        outcome = columns_outcome(serialize._read_columns, text, CURVE_COLUMNS)
        assert outcome == columns_outcome(reference_read_columns, text, CURVE_COLUMNS)
        assert outcome == f"line 3: {lag!r} is out of range"
        with pytest.raises(DataFormatError, match="line 3"):
            serialize.curve_arrays_from_csv(text)

    def test_plain_input_never_reaches_the_normalizer(self, monkeypatch):
        monkeypatch.setattr(serialize, "_normalize", None)
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", 16)
        params = GarchParams(kind="gjr", mu=0.0, omega=1e-5, alpha1=0.05, beta1=0.9, gamma1=0.06)
        sim = simulate(params, 200, seed=4)
        returns = serialize.returns_from_sim_csv(serialize.simulation_to_csv(sim))
        assert np.array_equal(returns, sim.returns.values)
        lags, values, ci = serialize.curve_arrays_from_csv("lag,qcf,ci\n0,1,0.1\n1,-0.25,0.1\n2,0.5,0.1\n")
        assert lags.dtype == int and lags.tolist() == [0, 1, 2] and values.tolist() == [1, -0.25, 0.5]
        assert ci == 0.1
        assert columns_outcome(serialize._read_columns, "second,price\n0,1\n1,x\n", DAY_COLUMNS) == (
            "line 3: 'x' is not a number"
        )

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["day", "sim", "curve"]),
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=30),
        edits=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(CSV_EDITS)), max_size=3),
        chunk=st.sampled_from([1, 32, 1 << 18]),
    )
    def test_perturbed_inputs_agree(self, kind, values, edits, chunk):
        columns, rows = {
            "day": (DAY_COLUMNS, [f"{i},{serialize.fmt(v)}" for i, v in enumerate(values)]),
            "sim": (SIM_COLUMNS, [f"{i},{serialize.fmt(v)},{abs(v)!r}" for i, v in enumerate(values)]),
            "curve": (CURVE_COLUMNS, [f"{i},{v!r}" for i, v in enumerate(values)]),
        }[kind]
        text = perturb("\n".join([next(iter(columns)), *rows]) + "\n", edits)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_CHUNK_CHARS", chunk)
            assert columns_outcome(serialize._read_columns, text, columns) == columns_outcome(
                reference_read_columns, text, columns
            )


def _bench_like_tables() -> dict[str, tuple[str, callable, np.ndarray]]:
    """CSVs shaped like the bench's, as the writers lay them out: a day of
    per-second prices with four decimals and its index day, a GJR simulation
    and a curve with a band; by name, (text, reader, values it must read)."""
    rng = np.random.default_rng(5)
    prices = np.round(50.0 * np.exp(np.cumsum(rng.normal(0.0, 2e-4, 23401))), 4)
    day = TradingDay("AAA", "2007-01-03", prices, traded_seconds=prices.size)
    index = build_index([day, TradingDay("BBB", "2007-01-03", prices[::-1].copy(), traded_seconds=prices.size)])
    gjr = GarchParams(kind="gjr", mu=0.0, omega=1e-6, alpha1=0.05, beta1=0.9, gamma1=0.06)
    sim = resimulate_experiment(gjr, n_series=1, length=20000, seed=3)[0]
    curve = qcf_fast(sim.returns.values, 0.05, 0.95, 600).with_ci(0.0123)
    read_curve = lambda text: np.concatenate(serialize.curve_arrays_from_csv(text)[:2])
    return {
        "day": (serialize.day_to_csv(day), serialize.prices_from_day_csv, prices),
        "index": (serialize.day_to_csv(index), serialize.prices_from_day_csv, index.prices),
        "sim": (serialize.simulation_to_csv(sim), serialize.returns_from_sim_csv, sim.returns.values),
        "curve": (serialize.curve_to_csv(curve), read_curve, np.concatenate([curve.lags, curve.values])),
    }


class TestDecimalBytePass:
    """Day, simulation and curve columns are read from their bytes, with
    float()'s and int()'s bits, and a bad line is found by halving runs."""

    def test_million_random_bit_patterns(self):
        bits = np.random.default_rng(20261021).integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]  # a series is finite
        sim = SimulationResult(TimeSeries(values), np.ones(values.size), innovations_seed=0, burn_in=0)
        text = serialize.simulation_to_csv(sim)
        expected = np.array([float(line.split(",")[1]) for line in text.splitlines()[1:]])
        assert serialize.returns_from_sim_csv(text).tobytes() == expected.tobytes()

    def test_plain_tables_need_no_fallback(self, monkeypatch):
        tables = _bench_like_tables()

        def refuse(*args):
            raise AssertionError("a field was read from its text")

        monkeypatch.setattr(serialize, "_fallback", refuse)
        for name, (text, read, values) in tables.items():
            assert read(text).tobytes() == values.tobytes(), name

    @pytest.mark.parametrize("lines", [1, 2, 3, 1000, 23401])
    def test_a_bad_last_line_is_found_by_halving(self, monkeypatch, lines):
        rows = [f"{i},{50.0 + i / 8}" for i in range(lines)]
        rows[-1] = f"{lines - 1},x"
        text = "\n".join(["second,price", *rows]) + "\n"
        calls = []
        convert = serialize._convert_columns
        monkeypatch.setattr(serialize, "_convert_columns", lambda *args: calls.append(args) or convert(*args))
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", len(text))
        with pytest.raises(DataFormatError, match=f"^line {lines + 1}: 'x' is not a number$"):
            serialize.prices_from_day_csv(text)
        assert len(calls) <= 2 * math.log2(lines) + 3


def index_counted_from(first):
    """serialize._read_columns, and the reference reader, with the index
    column counted from row `first`."""

    def read(text, columns, what):
        def layout(header):
            width, index = header.count(",") + 1, header.split(",")[0]
            return width, lambda run, row: serialize._convert_columns(columns[header], width, index, run, first + row)

        header, arrays = serialize._bulk_split(text, layout)
        return (header, *arrays)

    return read, lambda text, columns, what: reference_read_columns(text, columns, what, first)


# Spellings of the second line's index i; all but the first are refused.
INDEX_SPELLINGS = {
    "exact": str,
    "leading-zero": lambda i: f"0{i}",
    "plus": lambda i: f"+{i}",
    "point-zero": lambda i: f"{i}.0",
    "trailing-point": lambda i: f"{i}.",
    "inner-point": lambda i: f"{str(i)[:-1]}.{str(i)[-1]}",
    "zeros": lambda i: "00",
    "nineteen-digits": lambda i: f"1{'0' * 18}",
    "non-ascii": lambda i: f"{str(i)[:1]}é{str(i)[1:]}",
    "empty": lambda i: "",
}


class TestIndexWords:
    """The index column is read from ceil(longest / 8) words by the word
    reader: day and simulation runs whose index crosses from 8 to 9 digits
    (one word to two) or from 16 to 17 (two to three) agree with the
    reference reader, value for value and error for error."""

    @pytest.mark.parametrize("chunk", [1, 16, serialize._CHUNK_CHARS], ids=["chunk-1", "chunk-16", "chunk-default"])
    @pytest.mark.parametrize("first", [0, 99_999_998, 10**16 - 2, 10**18 - 5],
                             ids=["from-0", "8-to-9-digits", "16-to-17-digits", "18-digits"])
    @pytest.mark.parametrize("kind", ["day", "sim"])
    @pytest.mark.parametrize("spelling", list(INDEX_SPELLINGS))
    def test_index_runs_agree(self, monkeypatch, chunk, first, kind, spelling):
        columns = {"day": DAY_COLUMNS, "sim": SIM_COLUMNS}[kind]
        values = [50.0 + k / 8 for k in range(4)]
        rows = [f"{first + k},{v!r}" + (f",{v / 100!r}" if kind == "sim" else "") for k, v in enumerate(values)]
        rows[1] = INDEX_SPELLINGS[spelling](first + 1) + rows[1][rows[1].index(","):]
        text = "\n".join([next(iter(columns)), *rows]) + "\n"
        read, reference = index_counted_from(first)
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", chunk)
        outcome = columns_outcome(read, text, columns)
        assert outcome == columns_outcome(reference, text, columns)
        if spelling == "exact":
            assert outcome == (next(iter(columns)), [(np.dtype(float), np.array(values).tobytes())])
        else:
            assert outcome.startswith("line 3: ")


class TestTableBytes:
    """Every float _table writes has fmt()'s bytes, beside its neighbours in
    the column and across block boundaries."""

    NAN_BITS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF8000000000001, 0xFFF8000000000000,
                         0x7FF0000000000001], np.uint64).view(float)
    CASES = {
        "signed-zeros": [[0.0, -0.0, -0.0, 0.0, 0.0, -0.0]],
        "nan-bit-patterns": [NAN_BITS],
        "inf-runs": [[1.5, math.inf, math.inf, math.inf, -math.inf, -math.inf, 1.5]],
        "alternating": [[0.1, 0.2] * 12],
        "run-across-blocks": [[0.25] * 3 + [1 / 3] * 40 + [0.25] * 9],
        "constant-ci-beside-qcf": [[1.0, 0.5, 0.5, -0.25, 0.125] * 5, [0.0123] * 25],
        "sim-two-floats": [[0.01, -0.02, -0.02, 0.0, -0.0] * 4, [1e-4] * 7 + [2e-4] * 6 + [1e-4] * 7],
    }

    @pytest.mark.parametrize("chunk", [1, 100, serialize._CHUNK_CHARS], ids=["chunk-1", "chunk-100", "chunk-default"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_equal_fmt(self, monkeypatch, case, chunk):
        columns = [np.array(c, dtype=float) for c in self.CASES[case]]
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", chunk)
        text = serialize._table("h", *columns)
        assert text == "h\n" + "".join(",".join(map(serialize.fmt, row)) + "\n" for row in zip(*columns))

    def test_signed_range_beside_floats(self):
        """A curve's lag column, a range from below 0, over four blocks."""
        step = serialize._CHUNK_CHARS // ((serialize._WIDTH + 1) * 2)
        L = 3 * step // 2
        lags = range(-L, L + 1)
        rng = np.random.default_rng(30)
        values = rng.standard_normal(len(lags)) * 10.0 ** rng.integers(-20, 20, len(lags))
        assert len(lags) > 3 * step
        text = serialize._table("lag,qcf", lags, values)
        assert text == "lag,qcf\n" + "".join("%d,%s\n" % (lag, serialize.fmt(v)) for lag, v in zip(lags, values))


def restyle(rows, newline, padded, quoted, blanks):
    """rows of fields as CSV text with the given line end: the fields at the
    (row, column) positions in padded surrounded by whitespace, those in
    quoted in quotes, and a blank line before each row number in blanks."""
    lines = []
    for i, row in enumerate(rows):
        if i in blanks:
            lines.append(" \t" * (i % 2))
        row = [f" {field}\t" if (i, j) in padded else field for j, field in enumerate(row)]
        lines.append(",".join(f'"{field}"' if (i, j) in quoted else field for j, field in enumerate(row)))
    return newline.join(lines + [""] * (1 + (len(rows) in blanks)))


class TestRestyledInput:
    """Line ends, padding, blank lines and quoting do not change what a CSV reads as."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["day", "sim", "curve", "ticks"]),
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=20),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        padded=st.sets(st.tuples(st.integers(0, 20), st.integers(0, 4)), max_size=10),
        quoted=st.sets(st.tuples(st.integers(0, 20), st.integers(0, 4)), max_size=10),
        blanks=st.sets(st.integers(0, 21), max_size=5),
        chunk=st.sampled_from([1, 32, 1 << 18]),
    )
    def test_arrays_are_bit_identical(self, kind, values, newline, padded, quoted, blanks, chunk):
        fmt = serialize.fmt
        header, rows = {
            "day": (serialize.DAY_HEADER, [[str(i), fmt(v)] for i, v in enumerate(values)]),
            "sim": (serialize.SIM_HEADER, [[str(i), fmt(v), fmt(abs(v))] for i, v in enumerate(values)]),
            "curve": (serialize.CURVE_HEADER, [[str(i), repr(v)] for i, v in enumerate(values)]),
            "ticks": ("date,time_seconds,instrument,price,regular", [
                [f"2007-01-0{1 + i % 2}", str(i), "AB"[i % 3 % 2], fmt(abs(v)) if 0 < abs(v) < np.inf else "1", "yes"]
                for i, v in enumerate(values)
            ]),
        }[kind]
        rows = [header.split(","), *rows]

        def read(text):
            if kind == "ticks":
                groups = read_ticks_csv(text)
                return [(key, g.times.tobytes(), g.prices.tobytes()) for key, g in groups.items()]
            return columns_outcome(serialize._read_columns, text, {**DAY_COLUMNS, **SIM_COLUMNS, **CURVE_COLUMNS})

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_CHUNK_CHARS", chunk)
            plain = read(restyle(rows, "\n", set(), set(), set()))
            assert not isinstance(plain, str)
            assert read(restyle(rows, newline, padded, quoted, blanks)) == plain


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "deep" / "file.csv"
        serialize.write_text_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path / "deep") if p != "file.csv"]
        assert leftovers == []

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "f.csv"
        serialize.write_text_atomic(target, "one\n")
        serialize.write_text_atomic(target, "two\n")
        assert target.read_text() == "two\n"

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_mode_follows_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            serialize.write_text_atomic(tmp_path / "f.csv", "x\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "f.csv").stat().st_mode) == 0o666 & ~umask

    def test_a_pair_that_fails_to_lay_out_leaves_nothing(self, tmp_path):
        def pairs():
            yield tmp_path / "a.csv", "a\n"
            yield tmp_path / "b.csv", "b\n"
            raise ValueError("the third text cannot be laid out")

        with pytest.raises(ValueError, match="third text"):
            serialize.write_files(pairs())
        assert os.listdir(tmp_path) == []

    def test_a_path_named_twice_leaves_nothing(self, tmp_path):
        (tmp_path / "b.csv").write_text("kept\n")
        # sub/../a.csv is a.csv again; sub is never made.
        pairs = [(tmp_path / "a.csv", "a\n"), (tmp_path / "b.csv", "b\n"),
                 (tmp_path / "sub" / ".." / "a.csv", "c\n")]
        with pytest.raises(ValueError, match="named twice"):
            serialize.write_files(pairs)
        assert os.listdir(tmp_path) == ["b.csv"] and (tmp_path / "b.csv").read_text() == "kept\n"

    def test_a_failed_rename_names_the_output(self, tmp_path):
        def pairs():
            yield tmp_path / "a.csv", "a\n"
            (tmp_path / "a.csv").mkdir()  # taken by a directory after its text is written
            yield tmp_path / "b.csv", "b\n"

        with pytest.raises(OSError, match="cannot write .*a.csv: Is a directory") as refused:
            serialize.write_files(pairs())
        assert ".tmp" not in str(refused.value)
        assert os.listdir(tmp_path) == ["a.csv"] and os.listdir(tmp_path / "a.csv") == []

    def test_a_directory_made_meanwhile_by_another_run(self, tmp_path, monkeypatch):
        # Another run makes study/ between the check and this run's mkdir.
        real = Path.mkdir

        def racing(self, *args, **kwargs):
            if self.name == "study" and not self.exists():
                real(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", racing)
        serialize.write_files([(tmp_path / "study" / "s1" / "a.csv", "a\n")])
        assert (tmp_path / "study" / "s1" / "a.csv").read_text() == "a\n"

        (tmp_path / "study" / "s1" / "a.csv").unlink()
        (tmp_path / "study" / "s1").rmdir()
        (tmp_path / "study").rmdir()

        def refused():
            yield tmp_path / "study" / "s2" / "a.csv", "a\n"
            raise ValueError("refused")

        with pytest.raises(ValueError, match="refused"):
            serialize.write_files(refused())
        # s2 was made by this run and goes; study was not and stays.
        assert os.listdir(tmp_path) == ["study"] and os.listdir(tmp_path / "study") == []

    def test_each_temp_file_reserves_exactly_its_bytes(self, tmp_path, monkeypatch):
        # The reserved length is the UTF-8 length: "é" is two bytes.  A longer
        # reservation would leave zeros after the text.
        reserved, real = [], getattr(os, "posix_fallocate", None)

        def spy(fd, offset, length):
            reserved.append((offset, length))
            if real is not None:
                real(fd, offset, length)

        monkeypatch.setattr(os, "posix_fallocate", spy, raising=False)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("an older and longer text\n")
        serialize.write_files([(a, "é\n" * 3), (b, "b\n")])
        assert reserved == [(0, 9), (0, 2)]
        assert a.read_bytes() == "é\n".encode() * 3 and b.read_bytes() == b"b\n"
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]

    @pytest.mark.parametrize("fallocate", ["missing", "refused", "real"])
    def test_a_write_needs_no_reservation(self, tmp_path, monkeypatch, fallocate):
        # Not every platform has posix_fallocate, not every filesystem takes
        # it, and it refuses an empty text; each is written all the same.
        def refuse(fd, offset, length):
            raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))

        if fallocate == "missing":
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        elif fallocate == "refused":
            monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
        a, empty = tmp_path / "a.csv", tmp_path / "empty.csv"
        a.write_text("old\n")
        empty.write_text("old\n")
        serialize.write_files([(a, "new text\n"), (empty, "")])
        assert a.read_text() == "new text\n" and empty.read_bytes() == b""
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "empty.csv"]


# Tiny fixed inputs whose writer output is pinned byte for byte below: a value
# with a 17-digit tail (0.1 + 0.2), negatives, integer-valued floats and a fit
# that did not converge.
TAIL = 0.1 + 0.2
PINNED_PARAMS = GarchParams(kind="gjr", mu=-0.5, omega=TAIL, alpha1=0.05, beta1=0.9, gamma1=0.0)
PINNED_SIM = SimulationResult(
    TimeSeries(np.array([TAIL, -1.5, 2.0])), np.array([1.0, 0.25, TAIL]),
    innovations_seed=7, burn_in=10,
)
PINNED_CURVE = QcfCurve(ProbabilityLevel(0.05), ProbabilityLevel(0.95), np.array([-0.5, 1.0, TAIL]),
                        series_length=10)
PINNED_GRID = PPGrid(lag=2, levels=(0.05, 0.5), matrix=np.array([[1.0, -0.25], [TAIL, 0.5]]))
PINNED_BATCH = FitBatch(
    fits={"d1": FitResult(PINNED_PARAMS, -123.0, True, 5, 10),
          "d2": FitResult(PINNED_PARAMS, TAIL, False, 5, 10)},
    excluded={"d3": "zero-variance returns", "d4": "too short"},
)


def _asym_report_via_cli(tmp_path):
    src = tmp_path / "curve.csv"
    src.write_text(serialize.curve_to_csv(PINNED_CURVE))
    out = tmp_path / "asym.csv"
    assert main(["asym", "-i", str(src), "--dataset", "X", "--year", "2007", "--out", str(out)]) == 0
    return out.read_text()


def _seeded_ticks() -> str:
    """A tick CSV: two dates of three instruments, 4-decimal prices, ~3% of
    rows flagged non-regular."""
    rng = np.random.default_rng(2026)
    rows = ["date,time_seconds,instrument,price,regular"]
    for date in ("2007-01-03", "2007-01-04"):
        for instrument in ("AAA", "BBB", "CCC"):
            times = np.sort(rng.choice(23400, 4000, replace=False)).tolist()
            prices = np.round(40.0 * np.exp(np.cumsum(rng.normal(0.0, 4e-4, len(times)))), 4).tolist()
            flags = (rng.random(len(times)) > 0.03).tolist()
            rows += [f"{date},{t},{instrument},{p!r},{int(f)}" for t, p, f in zip(times, prices, flags)]
    return "\n".join(rows) + "\n"


def _seeded_days() -> list[TradingDay]:
    return [resample_day(group, 0, 23400, date=date) for (date, _), group in read_ticks_csv(_seeded_ticks()).items()]


def _seeded_index_csvs() -> str:
    days = _seeded_days()
    dates = sorted({day.date for day in days})
    return "".join(serialize.day_to_csv(build_index([d for d in days if d.date == date])) for date in dates)


RESIM_PARAMS = {
    "garch": GarchParams(kind="garch", mu=0.0005, omega=2e-6, alpha1=0.08, beta1=0.9),
    "gjr": GarchParams(kind="gjr", mu=0.001, omega=0.05, alpha1=0.04, beta1=0.88, gamma1=0.1),
    "egarch": GarchParams(kind="egarch", mu=0.0, omega=-0.1, alpha1=0.15, beta1=0.95, gamma1=-0.08),
    "gjr-negative-gamma": GarchParams(kind="gjr", mu=0.001, omega=0.05, alpha1=0.08, beta1=0.88, gamma1=-0.06),
    "gjr-zero-alpha": GarchParams(kind="gjr", mu=0.001, omega=0.05, alpha1=0.0, beta1=0.88, gamma1=0.1),
}


def _seeded_resim_csvs(kind: str) -> str:
    sims = resimulate_experiment(RESIM_PARAMS[kind], n_series=4, length=370, seed=17)
    return "".join(map(serialize.simulation_to_csv, sims))


def _seeded_curve() -> QcfCurve:
    rng = np.random.default_rng(5)
    values = rng.normal(0.0, 0.02, 1201)
    values[600] = 1.0
    curve = QcfCurve(ProbabilityLevel(0.05), ProbabilityLevel(0.95), values, series_length=22140)
    return curve.with_ci(1.96 / np.sqrt(22140))


def _seeded_grid() -> PPGrid:
    x = np.random.default_rng(6).standard_t(4, 22140)
    return pp_grid(x, [round(0.05 * i, 2) for i in range(1, 20)], 120)


def _seeded_batch() -> FitBatch:
    rng = np.random.default_rng(8)
    fits = {}
    for day in range(40):
        params = GarchParams(kind="gjr", mu=rng.normal(0.0, 1e-4), omega=rng.uniform(1e-7, 1e-5),
                             alpha1=rng.uniform(0.01, 0.1), beta1=rng.uniform(0.6, 0.85),
                             gamma1=rng.uniform(-0.01, 0.1))
        fits[f"AAA_2007-{day:03d}"] = FitResult(params, rng.normal(1800.0, 50.0), bool(day % 7), 40, 369)
    return FitBatch(fits=fits, excluded={})


def _sha256(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _seeded_gjr_sim_csvs() -> list[str]:
    return [serialize.simulation_to_csv(simulate(RESIM_PARAMS["gjr"], 2000, seed)) for seed in (1, 2, 3)]


def _seeded_cent_day_csvs() -> list[str]:
    """Three 22 200-second days of cent prices, so many returns tie."""
    rng = np.random.default_rng(9)
    prices = [np.round(40.0 * np.exp(np.cumsum(rng.normal(0.0, 2e-4, 22200))), 2) for _ in range(3)]
    return [serialize.day_to_csv(TradingDay("AAA", "", p, traded_seconds=p.size)) for p in prices]


def _inputs(tmp_path, texts: list[str]) -> Path:
    """A directory holding the input CSVs."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i, text in enumerate(texts):
        (inputs / f"s{i}.csv").write_text(text)
    return inputs


def _outputs_digest(out: Path) -> str:
    """sha256 of the names and bytes of every file in out."""
    return _sha256("".join(p.name + p.read_text() for p in sorted(out.iterdir())))


def _cli_outputs(tmp_path, texts: list[str], command: list[str]) -> str:
    """sha256 of the names and bytes of every file a `qcorr` command writes,
    run through main over the input CSVs at its default levels, pairs and lags."""
    out = tmp_path / "out"
    assert main([*command, "-i", str(_inputs(tmp_path, texts)), "--out", str(out)]) == 0
    return _outputs_digest(out)


PINNED_WRITERS = {
    "day": (
        lambda _: serialize.day_to_csv(
            TradingDay("AAA", "2007-01-03", np.array([TAIL, 2.0, 10.5]), traded_seconds=3)),
        "second,price\n0,0.30000000000000004\n1,2\n2,10.5\n",
    ),
    "sim": (
        lambda _: serialize.simulation_to_csv(PINNED_SIM),
        "t,return,variance\n0,0.30000000000000004,1\n1,-1.5,0.25\n2,2,0.30000000000000004\n",
    ),
    "curve": (
        lambda _: serialize.curve_to_csv(PINNED_CURVE),
        "lag,qcf\n-1,-0.5\n0,1\n1,0.30000000000000004\n",
    ),
    "curve-ci": (
        lambda _: serialize.curve_to_csv(PINNED_CURVE.with_ci(TAIL)),
        "lag,qcf,ci\n-1,-0.5,0.30000000000000004\n0,1,0.30000000000000004\n"
        "1,0.30000000000000004,0.30000000000000004\n",
    ),
    "grid": (
        lambda _: serialize.grid_to_csv(PINNED_GRID),
        "alpha\\beta,0.05,0.5\n0.05,1,-0.25\n0.5,0.30000000000000004,0.5\n",
    ),
    "batch": (
        lambda _: serialize.batch_to_csv(PINNED_BATCH),
        "day,mu,omega,alpha1,beta1,gamma1,loglik,converged\n"
        "d1,-0.5,0.30000000000000004,0.050000000000000003,0.90000000000000002,0,-123,true\n"
        "d2,-0.5,0.30000000000000004,0.050000000000000003,0.90000000000000002,0,"
        "0.30000000000000004,false\n",
    ),
    "excluded": (
        lambda _: serialize.excluded_to_csv(PINNED_BATCH),
        "day,reason\nd3,zero-variance returns\nd4,too short\n",
    ),
    "rejections": (
        lambda _: serialize.rejections_to_csv([
            DayRejection("AAA", "2007-01-03", "insufficient liquidity"),
            DayRejection("B-B", "2007-01-04", "too short"),
        ]),
        "date,instrument,reason\n2007-01-03,AAA,insufficient liquidity\n2007-01-04,B-B,too short\n",
    ),
    "values": (
        lambda _: values_to_csv([TAIL, -1.0, 2.0]),
        "value\n0.30000000000000004\n-1\n2\n",
    ),
    "asym-report": (
        _asym_report_via_cli,
        "dataset,year,delta,area_neg,area_pos,max_lag\n"
        "X,2007,0.24999999999999994,0.5,0.30000000000000004,1\n",
    ),
    "params-json": (
        lambda _: serialize.params_to_json(PINNED_PARAMS),
        '{\n  "kind": "gjr",\n  "mu": -0.5,\n  "omega": 0.30000000000000004,\n'
        '  "alpha1": 0.05,\n  "beta1": 0.9,\n  "gamma1": 0.0\n}\n',
    ),
    "curve-json": (
        lambda _: serialize.curve_to_json(PINNED_CURVE.with_ci(TAIL)),
        '{\n  "alpha": 0.05,\n  "beta": 0.95,\n  "lags": [\n    -1,\n    0,\n    1\n  ],\n'
        '  "values": [\n    -0.5,\n    1.0,\n    0.30000000000000004\n  ],\n'
        '  "ci_half_width": 0.30000000000000004,\n  "series_length": 10,\n  "n_averaged": 1\n}\n',
    ),
    "grid-json": (
        lambda _: serialize.grid_to_json(PINNED_GRID),
        '{\n  "lag": 2,\n  "levels": [\n    0.05,\n    0.5\n  ],\n  "matrix": [\n'
        '    [\n      1.0,\n      -0.25\n    ],\n    [\n      0.30000000000000004,\n      0.5\n    ]\n'
        '  ],\n  "n_averaged": 1\n}\n',
    ),
    # One provenance layout: the params fields flat, then how the series were
    # made; seeds[i] is the seed of the i-th series written.
    "sim-meta-json": (
        lambda _: serialize.provenance_json(PINNED_PARAMS, [PINNED_SIM]),
        '{\n  "kind": "gjr",\n  "mu": -0.5,\n  "omega": 0.30000000000000004,\n'
        '  "alpha1": 0.05,\n  "beta1": 0.9,\n  "gamma1": 0.0,\n'
        '  "generator": "numpy.random.default_rng (PCG64)",\n  "burn_in": 10,\n  "length": 3,\n'
        '  "master_seed": null,\n  "seeds": [\n    7\n  ]\n}\n',
    ),
    "sim-json": (
        lambda _: serialize.simulation_to_json(PINNED_SIM, PINNED_PARAMS),
        '{\n  "kind": "gjr",\n  "mu": -0.5,\n  "omega": 0.30000000000000004,\n'
        '  "alpha1": 0.05,\n  "beta1": 0.9,\n  "gamma1": 0.0,\n'
        '  "generator": "numpy.random.default_rng (PCG64)",\n  "burn_in": 10,\n  "length": 3,\n'
        '  "master_seed": null,\n  "seeds": [\n    7\n  ],\n'
        '  "returns": [\n    0.30000000000000004,\n    -1.5,\n    2.0\n  ],\n'
        '  "variances": [\n    1.0,\n    0.25,\n    0.30000000000000004\n  ]\n}\n',
    ),
    "resim-manifest": (
        lambda _: serialize.provenance_json(PINNED_PARAMS, [PINNED_SIM], 3),
        '{\n  "kind": "gjr",\n  "mu": -0.5,\n  "omega": 0.30000000000000004,\n'
        '  "alpha1": 0.05,\n  "beta1": 0.9,\n  "gamma1": 0.0,\n'
        '  "generator": "numpy.random.default_rng (PCG64)",\n  "burn_in": 10,\n  "length": 3,\n'
        '  "master_seed": 3,\n  "seeds": [\n    7\n  ]\n}\n',
    ),
}


# Larger seeded outputs, pinned by sha256: a fault in the writers that shows
# only in some exponent or digit pattern changes these.
PINNED_WRITERS.update({
    "ticks-day-csvs": (lambda _: _sha256("".join(map(serialize.day_to_csv, _seeded_days()))), "sha256:a1af2f69f7e265a1e34466045931612c54c7826631414ea4d2eb6880d8992b95"),
    "ticks-index-csvs": (lambda _: _sha256(_seeded_index_csvs()), "sha256:0c3f4af68fb1efc6ecb540bb91cfa29e31f167e36bc7b911ee4ec7367a8190ae"),
    **{f"resim-{kind}": (lambda _, kind=kind: _sha256(_seeded_resim_csvs(kind)), digest) for kind, digest in [
        ("garch", "sha256:9738a1db9aacfd6f2eec75f8e420e38fe490831317f09a1adccc8a77a33233c4"),
        ("gjr", "sha256:7c37fc72fcefa6c5e589518f8f56ae6c4e2c78785f736b16c24d65626a690fe2"),
        ("egarch", "sha256:1387feea922a02342485313595b0db2f52b47f2327e411a8c8ad3f9588d57a47"),
        ("gjr-negative-gamma", "sha256:0f4571abaf559bb7b47b18b828dba8ff324bcb063f69947ece55516fce3c6c30"),
        ("gjr-zero-alpha", "sha256:b7950657da1ea3664333daead67153cd085f0d420cb21a710b09c02940f1cf30"),
    ]},
    "curve-ci-1201": (lambda _: _sha256(serialize.curve_to_csv(_seeded_curve())), "sha256:fb124b2724c4df75f576c87f5e3a117dc42be957cbb48f95f1ac29b68b1b71de"),
    "grid-19-levels": (lambda _: _sha256(serialize.grid_to_csv(_seeded_grid())), "sha256:27afe832cbf3b1081898f048ae541f6e0ffc5886dadedf6e7a2ab241dd7ac04d"),
    "batch-40-days": (lambda _: _sha256(serialize.batch_to_csv(_seeded_batch())), "sha256:61f4eb5dcf45d3ba8a4d475a1a25ae9e07122dca0d6045f14c70c2d1b405b0d8"),
    "ppgrid-cli-gjr-sims": (lambda tmp: _cli_outputs(tmp, _seeded_gjr_sim_csvs(), ["ppgrid"]),
                            "sha256:7dcdf12a0bb919fa8214cd91090c85f0d7267d2e8b415967d3c554cc7b0a179e"),
    "ppgrid-cli-cent-days": (lambda tmp: _cli_outputs(tmp, _seeded_cent_day_csvs(), ["ppgrid"]),
                             "sha256:0cdbadd20ce61df471d8f0b55b664849e133b6f65e21a0639770c3624b0e8ccd"),
    # The FFT path of `qcorr qcf`: T + max-lag is 2200 on the sims and 25 799
    # on the days, padded to the 2*3*5-smooth 2250 and 25 920.
    "qcf-cli-gjr-sims": (lambda tmp: _cli_outputs(tmp, _seeded_gjr_sim_csvs(), ["qcf", "--max-lag", "200"]),
                         "sha256:b547f785312ceba936d80c74b3f732bca1ea0cc1e049d779fdef1d231a892fda"),
    "qcf-cli-cent-days": (lambda tmp: _cli_outputs(tmp, _seeded_cent_day_csvs(), ["qcf", "--max-lag", "3600"]),
                          "sha256:2fea61da51466eaf8a3e03486dacbd47f222b7af1cfb56a7849e09929d16e260"),
})


@pytest.mark.parametrize("writer", sorted(PINNED_WRITERS))
def test_writer_bytes_pinned(tmp_path, writer):
    write, expected = PINNED_WRITERS[writer]
    assert write(tmp_path) == expected


def test_qcf_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The qcf-cli-cent-days curves, whose series are longer than the length
    at which OpenBLAS splits a dot product across threads, written by `qcorr
    qcf` with one BLAS thread and with two."""
    inputs = _inputs(tmp_path, _seeded_cent_day_csvs())
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        subprocess.run([sys.executable, "-m", "qcorr", "qcf", "-i", str(inputs), "--max-lag", "3600", "--out", str(out)],
                       env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, check=True, capture_output=True)
        digests.append(_outputs_digest(out))
    assert digests == [PINNED_WRITERS["qcf-cli-cent-days"][1]] * 2
