import numpy as np
import pytest
from helpers import CSV_EDITS, perturb, reference_read_ticks, tick_group
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    DataFormatError,
    DayRejection,
    TickGroup,
    TradingDay,
    build_index,
    compute_returns,
    read_ticks_csv,
    resample_day,
    serialize,
)

SESSION_OPEN = 0
SESSION_CLOSE = 23400  # 6.5 h; trimming 600 s each side leaves 22200 s


class TestResampleDay:
    def test_trade_every_second_is_identity(self):
        times = range(SESSION_OPEN, SESSION_CLOSE)
        ticks = tick_group(times, [100.0 + t * 1e-4 for t in times])
        day = resample_day(ticks, SESSION_OPEN, SESSION_CLOSE, date="2007-01-03")
        assert isinstance(day, TradingDay)
        assert len(day) == 22200
        assert day.traded_seconds == 23400
        expected = np.array([100.0 + t * 1e-4 for t in range(600, 600 + 22200)])
        assert np.array_equal(day.prices, expected)

    def test_liquidity_gate_799_rejected_800_accepted(self):
        ticks_799 = tick_group([600 + 25 * k for k in range(799)], 10.0)
        result = resample_day(ticks_799, SESSION_OPEN, SESSION_CLOSE, date="d")
        assert isinstance(result, DayRejection)
        assert result.reason == "insufficient liquidity"

        ticks_800 = tick_group([600 + 25 * k for k in range(800)], 10.0)
        day = resample_day(ticks_800, SESSION_OPEN, SESSION_CLOSE, date="d")
        assert isinstance(day, TradingDay)
        assert len(day) == 22200

    def test_toy_six_second_session_no_trim(self):
        ticks = tick_group([0, 3], [10.0, 11.0], "T")
        day = resample_day(ticks, 0, 6, date="toy", trim_seconds=0, min_traded_seconds=1)
        assert day.prices.tolist() == [10.0, 10.0, 10.0, 11.0, 11.0, 11.0]

    def test_opening_trades_seed_first_grid_price(self):
        # single trade inside the trimmed opening minutes carries forward
        times = [30, *range(700, 23400, 25)]
        ticks = tick_group(times, [42.0] + [43.0] * (len(times) - 1))
        day = resample_day(ticks, SESSION_OPEN, SESSION_CLOSE, date="d")
        assert day.prices[0] == 42.0
        assert day.prices[-1] == 43.0

    def test_no_price_before_grid_rejected(self):
        ticks = tick_group(range(700, 23400, 20), 10.0)
        # grid starts at 600; first trade at 700 with nothing earlier
        result = resample_day(ticks, SESSION_OPEN, SESSION_CLOSE, date="d")
        assert isinstance(result, DayRejection)
        assert "no price" in result.reason

    def test_empty_group_rejected(self):
        result = resample_day(TickGroup("X", [], []), SESSION_OPEN, SESSION_CLOSE, date="d")
        assert result == DayRejection("X", "d", "no ticks")

    def test_session_shorter_than_twice_the_trim(self):
        with pytest.raises(ValueError, match="^session is shorter than twice the trim$"):
            resample_day(tick_group([10, 20], 10.0), 0, 1200, date="d", trim_seconds=600)

    def test_unsorted_ticks_error(self):
        ticks = tick_group([10, 5], 10.0)
        with pytest.raises(DataFormatError, match="sorted"):
            resample_day(ticks, 0, 20, date="d", trim_seconds=0, min_traded_seconds=1)

    def test_out_of_session_error(self):
        ticks = tick_group([5, 30], 10.0)
        with pytest.raises(DataFormatError, match="session"):
            resample_day(ticks, 0, 20, date="d", trim_seconds=0, min_traded_seconds=1)

    def test_fill_idempotence(self):
        rng = np.random.default_rng(8)
        prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 1e-4, SESSION_CLOSE)))
        day = resample_day(tick_group(range(SESSION_CLOSE), prices), SESSION_OPEN, SESSION_CLOSE, date="d")
        again = tick_group(range(600, 600 + day.prices.size), day.prices)
        day2 = resample_day(again, 600, 600 + 22200, date="d", trim_seconds=0)
        assert np.array_equal(day.prices, day2.prices)

    def test_tick_group_and_records_agree(self):
        times = [30, *range(700, 23400, 25)]
        group = tick_group(times, [42.0] + [43.0] * (len(times) - 1))
        assert len(group) == len(times) and group.times.dtype == np.int64
        rows = "".join(f"2007-01-03,{t},XYZ,{p!r}\n" for t, p in zip(times, group.prices.tolist()))
        read = read_ticks_csv("date,time_seconds,instrument,price\n" + rows)[("2007-01-03", "XYZ")]
        day = resample_day(group, SESSION_OPEN, SESSION_CLOSE, date="d")
        assert np.array_equal(day.prices, resample_day(read, SESSION_OPEN, SESSION_CLOSE, date="d").prices)
        with pytest.raises(ValueError, match="equal length"):
            TickGroup("XYZ", [1, 2], [10.0])

    def test_last_trade_in_second_wins(self):
        ticks = tick_group([0, 2, 2], [10.0, 11.0, 12.0], "T")
        day = resample_day(ticks, 0, 4, date="d", trim_seconds=0, min_traded_seconds=1)
        assert day.prices.tolist() == [10.0, 10.0, 12.0, 12.0]


def standard_day(seed=0, instrument="XYZ", date="2007-01-03"):
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 1e-4, 22200)))
    return TradingDay(instrument=instrument, date=date, prices=prices, traded_seconds=22200)


class TestComputeReturns:
    def test_constant_prices_zero_returns(self):
        day = TradingDay("X", "d", np.full(22200, 55.0), traded_seconds=22200)
        r = compute_returns(day, 60, 60)
        assert np.all(r.values == 0.0)

    def test_non_overlapping_count_is_369(self):
        # start points 0, 60, ..., 22080; t = 22140 would need S(22200), off grid
        r = compute_returns(standard_day(), 60, 60)
        assert len(r) == 369

    def test_overlapping_count_is_22140(self):
        r = compute_returns(standard_day(), 60, 1)
        assert len(r) == 22140

    def test_two_point_return(self):
        day = TradingDay("X", "d", np.array([100.0, 101.0]), traded_seconds=2)
        with pytest.raises(ValueError):
            # a single return cannot form a TimeSeries; widen the grid
            compute_returns(day, 1, 1)
        day = TradingDay("X", "d", np.array([100.0, 101.0, 102.01]), traded_seconds=3)
        r = compute_returns(day, 1, 1)
        assert r.values[0] == pytest.approx(0.01, rel=1e-12)

    def test_scale_invariance(self):
        day = standard_day()
        scaled = TradingDay(day.instrument, day.date, day.prices * 7.3, day.traded_seconds)
        assert np.allclose(
            compute_returns(day, 60, 60).values,
            compute_returns(scaled, 60, 60).values,
            rtol=1e-12,
            atol=1e-14,
        )

    def test_horizon_exceeding_grid(self):
        day = TradingDay("X", "d", np.full(100, 10.0), traded_seconds=100)
        with pytest.raises(ValueError, match="exceeds"):
            compute_returns(day, 100, 1)

    def test_stride_and_horizon_positive(self):
        day = standard_day()
        with pytest.raises(ValueError, match="positive"):
            compute_returns(day, 0, 1)
        with pytest.raises(ValueError, match="positive"):
            compute_returns(day, 60, 0)

    @pytest.mark.parametrize("stride", [22200, 10**20], ids=["grid-length", "beyond-int64"])
    def test_stride_past_the_grid_leaves_one_return(self, stride):
        # Only start 0 is left, and one return is not a series.
        with pytest.raises(ValueError, match="^a time series needs at least 2 observations, got 1$"):
            compute_returns(standard_day(), 60, stride)


class TestBuildIndex:
    def test_single_stock_normalized_path(self):
        day = standard_day()
        index = build_index([day])
        assert index.instrument == "INDEX"
        assert np.array_equal(index.prices, day.prices / day.prices[0])

    def test_mirror_paths_cancel(self):
        t = np.linspace(0, 1, 22200)
        f = 0.05 * np.sin(8 * np.pi * t)
        a = TradingDay("A", "d", 10.0 * (1.0 + f), traded_seconds=22200)
        b = TradingDay("B", "d", 20.0 * (1.0 - f), traded_seconds=22200)
        index = build_index([a, b])
        assert np.allclose(index.prices, 1.0, atol=1e-15)

    def test_constant_stocks_give_unit_index(self):
        days = [
            TradingDay(k, "d", np.full(1000, level), traded_seconds=1000)
            for k, level in (("A", 12.0), ("B", 345.0), ("C", 0.07))
        ]
        assert np.array_equal(build_index(days).prices, np.ones(1000))

    def test_permutation_invariance(self):
        days = [standard_day(seed=s, instrument=f"S{s}") for s in range(3)]
        forward = build_index(days)
        backward = build_index(days[::-1])
        assert np.allclose(forward.prices, backward.prices, rtol=1e-15, atol=1e-15)

    def test_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="empty input"):
            build_index([])
        with pytest.raises(ValueError, match="date"):
            build_index([standard_day(date="a"), standard_day(date="b")])

    def test_grid_lengths_must_match(self):
        days = [TradingDay(k, "d", np.full(n, 10.0), traded_seconds=n) for k, n in (("A", 10), ("B", 11))]
        with pytest.raises(ValueError, match="same grid length"):
            build_index(days)


class TestTradingDay:
    @pytest.mark.parametrize(
        "prices, traded_seconds, message",
        [
            ([], 1, "prices must be a nonempty one-dimensional array"),
            ([[10.0, 10.5]], 2, "prices must be a nonempty one-dimensional array"),
            ([10.0, 10.5], 0, "traded_seconds must be positive"),
        ],
        ids=["empty", "2-d", "no-traded-seconds"],
    )
    def test_refusals(self, prices, traded_seconds, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TradingDay("X", "d", np.array(prices), traded_seconds)


class TestReadTicksCsv:
    def test_groups_and_regular_filter(self):
        text = (
            "date,time_seconds,instrument,price,regular\n"
            "2007-01-03,1,AAA,10.0,1\n"
            "2007-01-03,2,AAA,10.5,0\n"
            "2007-01-03,3,AAA,11.0,true\n"
            "2007-01-04,1,AAA,12.0,1\n"
            "2007-01-03,1,BBB,50.0,1\n"
        )
        groups = read_ticks_csv(text)
        assert set(groups) == {("2007-01-03", "AAA"), ("2007-01-04", "AAA"), ("2007-01-03", "BBB")}
        assert groups[("2007-01-03", "AAA")].times.tolist() == [1, 3]

    def test_header_required(self):
        with pytest.raises(DataFormatError, match="header"):
            read_ticks_csv("2007-01-03,1,AAA,10.0\n")
        with pytest.raises(DataFormatError, match="header"):
            read_ticks_csv("")

    def test_without_regular_column(self):
        text = "date,time_seconds,instrument,price\n2007-01-03,1,AAA,10.0\n"
        groups = read_ticks_csv(text)
        assert groups[("2007-01-03", "AAA")].prices[0] == 10.0

    def test_malformed_rows(self):
        with pytest.raises(DataFormatError, match="line 2"):
            read_ticks_csv("date,time_seconds,instrument,price\n2007-01-03,xx,AAA,10.0\n")
        with pytest.raises(DataFormatError, match="fields"):
            read_ticks_csv("date,time_seconds,instrument,price\n2007-01-03,1,AAA\n")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2007-01-03,-1,AAA,10.0", "line 3: negative timestamp -1"),
            ("2007-01-03,4,AAA,0", "line 3: nonpositive price 0.0"),
        ],
    )
    def test_value_errors_name_their_line(self, row, message):
        text = f"date,time_seconds,instrument,price\n2007-01-03,1,AAA,10.0\n{row}\n"
        with pytest.raises(DataFormatError) as error:
            read_ticks_csv(text)
        assert str(error.value) == message


TICKS_HEAD = "date,time_seconds,instrument,price,regular"
TICK_ROWS = ["2007-01-03,1,AAA,10.0,1", "2007-01-03,2,BBB,20.0,1", "2007-01-03,3,AAA,11.0,1"]
TWO_GROUPS = {("2007-01-03", "AAA"): [1, 3], ("2007-01-03", "BBB"): [2]}


def with_rows(*rows, head=TICKS_HEAD, end="\n"):
    return end.join([head, *rows]) + end


def outcome(read, text):
    """Each group's instrument, times, prices and dtypes, or the error text."""
    try:
        groups = read(text)
    except Exception as exc:  # the type counts too: only DataFormatError is expected
        return str(exc) if isinstance(exc, DataFormatError) else repr(exc)
    return [
        (key, g.instrument, g.times.tolist(), g.prices.tolist(), g.times.dtype, g.prices.dtype)
        for key, g in groups.items()
    ]


class TestTickReaderPaths:
    """read_ticks_csv and the reference reader give equal groups or the same error."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            (with_rows(*TICK_ROWS), TWO_GROUPS),
            (with_rows(*TICK_ROWS, end="\r\n"), TWO_GROUPS),
            (with_rows(TICK_ROWS[0], '2007-01-03,2,"BBB",20.0,1', TICK_ROWS[2]), TWO_GROUPS),
            (with_rows(TICK_ROWS[0], "2007-01-03, 2 , BBB,20.0 ,1 ", TICK_ROWS[2]), TWO_GROUPS),
            (with_rows(TICK_ROWS[0], "", *TICK_ROWS[1:]), TWO_GROUPS),
            (with_rows(*TICK_ROWS)[:-1], TWO_GROUPS),
            (with_rows(), {}),
            (TICKS_HEAD, {}),
            (with_rows(*TICK_ROWS, head=TICKS_HEAD.upper()), TWO_GROUPS),
            (with_rows(*TICK_ROWS, head=" date, time_seconds,instrument,price ,regular"), TWO_GROUPS),
            (with_rows(TICK_ROWS[0], "2007-01-03,xx,AAA,1.0,0", *TICK_ROWS[1:]), TWO_GROUPS),
            (with_rows(TICK_ROWS[0], "2007-01-03,-5,AAA,0,no", *TICK_ROWS[1:]), TWO_GROUPS),
            (with_rows(TICK_ROWS[0], "2007-01-03,xx,AAA,1.0,1"),
             "line 3: invalid literal for int() with base 10: 'xx'"),
            (with_rows(TICK_ROWS[0], "2007-01-03,-1,AAA,1.0,1"), "line 3: negative timestamp -1"),
            (with_rows(TICK_ROWS[0], "2007-01-03,4,AAA,nan,1"), "line 3: nonpositive price nan"),
            (with_rows(TICK_ROWS[0], "2007-01-03,4,AAA,0,1"), "line 3: nonpositive price 0.0"),
            (with_rows(TICK_ROWS[0], "2007-01-03,4,AAA,inf,1"), "line 3: infinite price inf"),
            (with_rows(TICK_ROWS[0], "2007-01-03,2,BBB,20.0"), "line 3: expected 5 fields, got 4"),
            (with_rows(TICK_ROWS[0], "2007-01-03,1_0,AAA,1_1.5,1", *TICK_ROWS[1:]),
             {("2007-01-03", "AAA"): [1, 10, 3], ("2007-01-03", "BBB"): [2]}),
            (with_rows(TICK_ROWS[0], "2007-01-03,2,BÖRSE,20.0,1", TICK_ROWS[2]),
             {("2007-01-03", "AAA"): [1, 3], ("2007-01-03", "BÖRSE"): [2]}),
            ("", "empty ticks file; header row required"),
            (with_rows(*TICK_ROWS, end="\r"), TWO_GROUPS),
            (with_rows(TICK_ROWS[0], " \t", *TICK_ROWS[1:]), TWO_GROUPS),
            (with_rows(TICK_ROWS[0], '2007-01-03,2,"BRK,B",20.0,1'), "line 3: field 'BRK,B' holds a separator"),
            (with_rows(TICK_ROWS[0], "2007-01-03,2,B\x00B,20.0,1"), "line 3: line contains NUL"),
            (with_rows(TICK_ROWS[0], "2007-01-03,9223372036854775808,AAA,1.0,1"),
             "line 3: timestamp 9223372036854775808 is out of range"),
            (with_rows(TICK_ROWS[0], "2007-01-03,2,AAA, 0 ,1", '2007-01-03,3,"A,A",1.0,1'),
             "line 3: nonpositive price 0.0"),
            (with_rows(*TICK_ROWS, head="date,time_seconds,instrument,price,flag"),
             "fifth ticks column must be 'regular', got 'flag'"),
        ],
        ids=[
            "plain", "crlf", "quoted-field", "padded-fields", "blank-line", "no-final-newline",
            "header-only", "header-without-newline", "upper-case-header", "padded-header", "nonregular-xx",
            "nonregular-negative", "bad-int", "negative-time", "nan-price", "zero-price", "inf-price",
            "field-count", "underscore-digits", "non-ascii-instrument", "empty", "bare-cr",
            "whitespace-line", "separator-in-field", "nul", "time-beyond-int64", "first-bad-line",
            "fifth-column-not-regular",
        ],
    )
    def test_paths_agree(self, text, expected):
        bulk = outcome(read_ticks_csv, text)
        assert bulk == outcome(reference_read_ticks, text)
        if isinstance(expected, str):
            assert bulk == expected
        else:
            assert {key: times for key, _, times, *_ in bulk} == expected

    def test_plain_input_never_reaches_the_normalizer(self, monkeypatch):
        monkeypatch.setattr(serialize, "_normalize", None)
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", 40)
        assert outcome(read_ticks_csv, with_rows(*TICK_ROWS * 20))[0][2] == [1, 3] * 20
        plain = with_rows(*(row[: row.rindex(",")] for row in TICK_ROWS), head=TICKS_HEAD[:-8])
        assert {key: times for key, _, times, *_ in outcome(read_ticks_csv, plain)} == TWO_GROUPS

    def test_bad_row_in_a_later_chunk_is_named(self, monkeypatch):
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", 64)
        rows = [f"2007-01-03,{t},AAA,10.0,1" for t in range(100)]
        rows[70] = "2007-01-03,70,AAA,-1,1"
        assert outcome(read_ticks_csv, with_rows(*rows)) == "line 72: nonpositive price -1.0"

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["2007-01-03", "2007-01-04"]),
                st.integers(-1, 300).map(str),
                # rare faults, so that many inputs stay plain enough for the bulk path
                st.sampled_from(["AAA", "BBB"] * 30 + ["É"]),
                st.sampled_from(["10.0", "7", "1e3", "2.25"] * 30 + ["0", "-2.5", "nan", "1_0"]),
                st.sampled_from(["1", "0", "true", "T", "no", "Yes"]),
            ),
            max_size=25,
        ),
        regular=st.booleans(),
        edits=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(CSV_EDITS)), max_size=3),
        chunk=st.sampled_from([1, 32, 1 << 18]),
    )
    def test_perturbed_inputs_agree(self, rows, regular, edits, chunk):
        width = 5 if regular else 4
        head = ",".join(TICKS_HEAD.split(",")[:width])
        text = perturb(with_rows(*(",".join(row[:width]) for row in rows), head=head), edits)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_CHUNK_CHARS", chunk)
            assert outcome(read_ticks_csv, text) == outcome(reference_read_ticks, text)


# Rows at the limits of the tick reader's byte pass, each with the value of
# one field replaced; the row goes between TICK_ROWS[0] and TICK_ROWS[1:].
EDGE_FIELDS = {
    "time-18-digits": (1, "123456789012345678"),
    "time-19-digits": (1, "1234567890123456789"),
    "time-leading-zeros": (1, "0000000000000000000000042"),
    "time-18-bytes-leading-zeros": (1, "000000000000000042"),
    "time-empty": (1, ""),
    "time-plus": (1, "+5"),
    "time-underscore": (1, "1_0"),
    "time-with-point": (1, "5."),
    "price-15-digits": (3, "123456789.012345"),
    "price-16-digits": (3, "1234567.890123456"),
    "price-17-digits-beyond-2**53": (3, "9007199254740993"),
    # D / 10**k with D rounded to a double first would end in ...323.
    "price-17-digits-with-point": (3, "747784910.27943236"),
    "price-trailing-point": (3, "5."),
    "price-leading-point": (3, ".5"),
    "price-point-alone": (3, "."),
    "price-exponent": (3, "1e3"),
    "price-negative": (3, "-2.5"),
    "price-nan": (3, "nan"),
    "price-zero": (3, "0.000"),
    "price-empty": (3, ""),
    "price-18-bytes": (3, "0000000000000001.5"),
    "price-19-bytes": (3, "00000000000000001.5"),
    "date-longer-than-packed": (0, "2007-01-03T09:30:00-05:00"),
    "instrument-longer-than-packed": (2, "ABCDEFGHIJKLMNOPQRS"),
    "instrument-non-ascii": (2, "BÖRSE"),
    "instrument-non-ascii-longer-than-packed": (2, "株式会社テスト"),
    "flag-true": (4, "true"),
    "flag-Yes": (4, "Yes"),
    "flag-no": (4, "no"),
}


def with_field(column, value):
    fields = TICK_ROWS[1].split(",")
    fields[column] = value
    return with_rows(TICK_ROWS[0], ",".join(fields), *TICK_ROWS[1:])


CHUNKS = pytest.mark.parametrize("chunk", [1, 32, serialize._CHUNK_CHARS], ids=["chunk-1", "chunk-32", "chunk-default"])


class TestTickBytePass:
    """Each column is read from the run's bytes, and a field the byte pass
    cannot certify from its text: either way the reference reader's groups,
    bits or error text, at any run length."""

    @CHUNKS
    @pytest.mark.parametrize("case", list(EDGE_FIELDS))
    def test_edge_fields_agree(self, monkeypatch, case, chunk):
        text = with_field(*EDGE_FIELDS[case])
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", chunk)
        assert outcome(read_ticks_csv, text) == outcome(reference_read_ticks, text)

    @CHUNKS
    def test_keys_sharing_their_packed_bytes_stay_apart(self, monkeypatch, chunk):
        # The last 16 bytes of each pair of keys are equal.
        rows = [f"{d},{t},{i},1.5,1" for t, (d, i) in enumerate([
            ("x2007-01-03T09:30:00", "XABCDEFGHIJKLMNOP"), ("y2007-01-03T09:30:00", "YABCDEFGHIJKLMNOP"),
            ("x2007-01-03T09:30:00", "YABCDEFGHIJKLMNOP"), ("x2007-01-03T09:30:00", "XABCDEFGHIJKLMNOP"),
            ("d", "XABCDEFGHIJKLMNOP"), ("d", "ABCDEFGHIJKLMNOP"),
        ])]
        text = with_rows(*rows)
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", chunk)
        bulk = outcome(read_ticks_csv, text)
        assert bulk == outcome(reference_read_ticks, text)
        assert [times for _, _, times, *_ in bulk] == [[0, 3], [1], [2], [4], [5]]

    def test_keys_with_high_bytes_round_trip(self):
        # Bytes >= 0x80 fill the top byte of a packed uint64 word.
        keys = [("２００７-01-03", "ÉÉÉÉ"), ("２００７-01-03", "€"), ("2007-01-03", "ÿÿÿÿÿÿÿÿ"), ("2007-01-03", "ÉÉÉÉ")]
        text = with_rows(*(f"{d},{t},{i},{t + 1}.25,1" for t, (d, i) in enumerate(keys * 2)))
        groups = read_ticks_csv(text)
        assert list(groups) == keys
        assert [g.instrument for g in groups.values()] == [i for _, i in keys]
        assert [g.times.tolist() for g in groups.values()] == [[0, 4], [1, 5], [2, 6], [3, 7]]
        assert outcome(read_ticks_csv, text) == outcome(reference_read_ticks, text)

    def test_plain_ticks_need_no_fallback(self, monkeypatch):
        """A file shaped like the bench's tick fixture: every field certified."""
        rng = np.random.default_rng(3)
        rows = []
        for date in ("2007-01-03", "2007-01-04"):
            times = np.sort(rng.integers(0, 23401, 4000))
            instruments = rng.choice(["AAA", "BBB", "CCC", "DDD"], times.size)
            prices = np.char.mod("%.4f", rng.uniform(1.0, 200.0, times.size))
            flags = np.where(rng.random(times.size) < 0.03, "0", "1")
            rows += [f"{date},{t},{i},{p},{f}" for t, i, p, f in
                     zip(times.tolist(), instruments.tolist(), prices.tolist(), flags.tolist())]
        text = with_rows(*rows)
        expected = outcome(reference_read_ticks, text)

        def refuse(*args):
            raise AssertionError("a field was read from its text")

        monkeypatch.setattr(serialize, "_fallback", refuse)
        assert outcome(read_ticks_csv, text) == expected
        assert len(expected) == 8


def interleaved_ticks():
    """4 dates x 6 instruments, every date's rows interleaved by time, about a
    tenth of them flagged non-regular."""
    rng = np.random.default_rng(11)
    rows = []
    for date in ("2007-01-05", "2007-01-03", "2007-01-04", "2007-01-02"):
        for t in range(120):
            instrument = ("FFF", "BBB", "EEE", "AAA", "DDD", "CCC")[rng.integers(6)]
            flag = "0" if rng.random() < 0.1 else "1"
            rows.append(f"{date},{t},{instrument},{rng.uniform(5, 50):.4f},{flag}")
    return with_rows(*rows)


def one_row_per_group(n):
    """n (date, instrument) groups of one row each; seven dates cycle within
    each instrument, so that neither column alone orders the groups."""
    return with_rows(*(f"2007-01-{1 + k % 7:02d},{k},I{k // 7},1.5,1" for k in range(n)))


class TestTickGroupOrder:
    """Groups come in order of first appearance among kept rows, whatever the
    run length the bulk splitter cuts the file into."""

    CASES = {
        "interleaved": interleaved_ticks(),
        # ZZZ is first seen on a non-regular row, so AAA's first kept row comes first.
        "first-seen-non-regular": with_rows(
            "2007-01-03,1,ZZZ,9.0,0", "2007-01-03,2,AAA,10.0,1", "2007-01-03,3,ZZZ,9.5,1",
            "2007-01-03,4,AAA,10.5,1",
        ),
        # YYY appears on non-regular rows only and forms no group.
        "non-regular-only": with_rows(
            "2007-01-03,1,YYY,9.0,0", "2007-01-03,2,AAA,10.0,1", "2007-01-04,3,YYY,9.5,no",
            "2007-01-04,4,AAA,10.5,1",
        ),
        "300-groups": one_row_per_group(300),
        "70000-groups": one_row_per_group(70_000),
    }
    EXPECTED_KEYS = {
        "first-seen-non-regular": [("2007-01-03", "AAA"), ("2007-01-03", "ZZZ")],
        "non-regular-only": [("2007-01-03", "AAA"), ("2007-01-04", "AAA")],
    }

    @pytest.mark.parametrize("chunk", [1, 64, serialize._CHUNK_CHARS], ids=["chunk-1", "chunk-64", "chunk-default"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_groups_match_the_reference(self, monkeypatch, case, chunk):
        text = self.CASES[case]
        monkeypatch.setattr(serialize, "_CHUNK_CHARS", chunk)
        bulk = outcome(read_ticks_csv, text)
        assert bulk == outcome(reference_read_ticks, text)
        keys = [key for key, *_ in bulk]
        assert keys == self.EXPECTED_KEYS.get(case, keys)

    def test_cases_have_their_shape(self):
        keys = [key for key, *_ in outcome(read_ticks_csv, self.CASES["interleaved"])]
        assert len(keys) == 24 and len({date for date, _ in keys}) == 4
        assert keys[:6] != sorted(keys[:6])  # first appearance, not sorted order
        assert len(outcome(read_ticks_csv, self.CASES["300-groups"])) == 300
        assert len(outcome(read_ticks_csv, self.CASES["70000-groups"])) == 70_000


class TestTradingDayValidation:
    def test_positive_prices(self):
        with pytest.raises(ValueError, match="positive"):
            TradingDay("X", "d", np.array([1.0, -1.0]), traded_seconds=2)

    def test_immutable(self):
        day = TradingDay("X", "d", np.array([1.0, 2.0]), traded_seconds=2)
        with pytest.raises(ValueError):
            day.prices[0] = 9.0
