import json
import os
import stat

import numpy as np
import pytest
from helpers import CSV_EDITS, perturb
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
    fit_gjr,
    pp_grid,
    qcf_fast,
    simulate,
)
from qcorr.cli import main
from qcorr.fitting import FitResult
from qcorr.garch import SimulationResult
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

    def test_csv_rejects_garbage(self):
        with pytest.raises(Exception, match="curve CSV"):
            serialize.curve_arrays_from_csv("foo,bar\n1,2\n")

    def test_seventeen_significant_digits(self):
        assert serialize.fmt(1.0 / 3.0) == "0.33333333333333331"
        assert float(serialize.fmt(0.1 + 0.2)) == 0.1 + 0.2


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
        meta = json.loads(serialize.simulation_meta_json(sim, params))
        assert meta["seed"] == 7 and meta["burn_in"] == 10
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


class TestColumnReaderPaths:
    """_read_columns in bulk and one row at a time give the same arrays or error."""

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
            ("second,price\n0,10.5\n1,11.0,3\n", "line 3: expected 2 field(s), got 3"),
            ("second,prices\n0,10.5\n", "unrecognized header"),
        ],
        ids=[
            "plain", "crlf", "padded", "blank-line", "no-final-newline", "leading-blank-line",
            "header-only", "header-without-newline", "underscore-and-nan", "non-ascii-value",
            "empty-value", "field-count", "unknown-header",
        ],
    )
    def test_day_paths_agree(self, text, expected):
        bulk = columns_outcome(serialize._read_columns, text, DAY_COLUMNS)
        assert bulk == columns_outcome(serialize._read_columns_by_row, text, DAY_COLUMNS)
        if isinstance(expected, str):
            assert expected in bulk
        else:
            assert bulk == ("second,price", [(np.dtype(float), np.array(expected, float).tobytes())])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["bulk", "row-loop"])
    @pytest.mark.parametrize("lag", ["99999999999999999999999", "-9223372036854775809"])
    def test_lag_beyond_int64_is_named(self, newline, lag):
        text = newline.join(["lag,qcf", "0,1", f"{lag},0.5", ""])
        outcome = columns_outcome(serialize._read_columns, text, CURVE_COLUMNS)
        assert outcome == columns_outcome(serialize._read_columns_by_row, text, CURVE_COLUMNS)
        assert outcome == f"line 3: {lag!r} is out of range"
        with pytest.raises(DataFormatError, match="line 3"):
            serialize.curve_arrays_from_csv(text)

    def test_plain_input_never_reaches_the_row_loop(self, monkeypatch):
        monkeypatch.setattr(serialize, "_read_columns_by_row", None)
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", 16)
        params = GarchParams(kind="gjr", mu=0.0, omega=1e-5, alpha1=0.05, beta1=0.9, gamma1=0.06)
        sim = simulate(params, 200, seed=4)
        returns = serialize.returns_from_sim_csv(serialize.simulation_to_csv(sim))
        assert np.array_equal(returns, sim.returns.values)
        lags, values, ci = serialize.curve_arrays_from_csv("lag,qcf,ci\n0,1,0.1\n1,-0.25,0.1\n2,0.5,0.1\n")
        assert lags.dtype == int and lags.tolist() == [0, 1, 2] and values.tolist() == [1, -0.25, 0.5]
        assert ci == 0.1

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
                serialize._read_columns_by_row, text, columns
            )


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


# Tiny fixed inputs whose writer output is pinned byte for byte below: a value
# with a 17-digit tail (0.1 + 0.2), negatives, integer-valued floats and a fit
# that did not converge.
TAIL = 0.1 + 0.2
PINNED_PARAMS = GarchParams(kind="gjr", mu=-0.5, omega=TAIL, alpha1=0.05, beta1=0.9, gamma1=0.0)
PINNED_SIM = SimulationResult(
    TimeSeries(np.array([TAIL, -1.5, 2.0])), np.array([1.0, 0.25, TAIL]),
    innovations_seed=7, burn_in=10,
)
PINNED_CURVE = QcfCurve(ProbabilityLevel(0.05), ProbabilityLevel(0.95), np.array([-1, 0, 1]),
                        np.array([-0.5, 1.0, TAIL]), series_length=10)
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
    "sim-meta-json": (
        lambda _: serialize.simulation_meta_json(PINNED_SIM, PINNED_PARAMS),
        '{\n  "kind": "gjr",\n  "mu": -0.5,\n  "omega": 0.30000000000000004,\n'
        '  "alpha1": 0.05,\n  "beta1": 0.9,\n  "gamma1": 0.0,\n  "seed": 7,\n  "burn_in": 10,\n'
        '  "length": 3,\n  "generator": "numpy.random.default_rng (PCG64)"\n}\n',
    ),
    "sim-json": (
        lambda _: serialize.simulation_to_json(PINNED_SIM, PINNED_PARAMS),
        '{\n  "kind": "gjr",\n  "mu": -0.5,\n  "omega": 0.30000000000000004,\n'
        '  "alpha1": 0.05,\n  "beta1": 0.9,\n  "gamma1": 0.0,\n  "seed": 7,\n  "burn_in": 10,\n'
        '  "length": 3,\n  "generator": "numpy.random.default_rng (PCG64)",\n'
        '  "returns": [\n    0.30000000000000004,\n    -1.5,\n    2.0\n  ],\n'
        '  "variances": [\n    1.0,\n    0.25,\n    0.30000000000000004\n  ]\n}\n',
    ),
    "resim-manifest": (
        lambda _: serialize.resim_manifest_json(PINNED_PARAMS, 3, {"sim_0000.csv": PINNED_SIM}),
        '{\n  "params": {\n    "kind": "gjr",\n    "mu": -0.5,\n    "omega": 0.30000000000000004,\n'
        '    "alpha1": 0.05,\n    "beta1": 0.9,\n    "gamma1": 0.0\n  },\n  "master_seed": 3,\n'
        '  "n_series": 1,\n  "length": 3,\n  "burn_in": 10,\n  "seeds": [\n    7\n  ],\n'
        '  "files": [\n    "sim_0000.csv"\n  ]\n}\n',
    ),
}


@pytest.mark.parametrize("writer", sorted(PINNED_WRITERS))
def test_writer_bytes_pinned(tmp_path, writer):
    write, expected = PINNED_WRITERS[writer]
    assert write(tmp_path) == expected
