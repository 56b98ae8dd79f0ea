import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import EXAMPLE_SERIES, oracle_qcf
from qcorr import GarchParams, TradingDay, asymmetry, confidence_band, qcf_fast, resimulate_experiment, simulate
from qcorr.cli import MAX_GRID_LEVELS, _parse_levels, build_parser, main
from qcorr import serialize
from qcorr.serialize import values_to_csv

GRID_RULE = "lags must be -L..L: every integer from -L to L once, in order, one per value"
CURVE_JSON = ('{"alpha": 0.05, "beta": 0.95, "lags": [-1, 0, 1], "values": [0.1, 1.0, 0.2], '
              '"ci_half_width": null, "series_length": 10, "n_averaged": 1}')


def run(args, capsys=None):
    code = main([str(a) for a in args])
    return code


def write_example_series(path):
    path.write_text(values_to_csv(EXAMPLE_SERIES), encoding="utf-8")


def make_tick_file(path, n_traded_seconds, spacing=25, price=10.0):
    lines = ["date,time_seconds,instrument,price"]
    for k in range(n_traded_seconds):
        lines.append(f"2007-01-03,{600 + spacing * k},XYZ,{price}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestQcfCommand:
    def test_worked_example_matches_oracle(self, tmp_path):
        src = tmp_path / "x.csv"
        write_example_series(src)
        out = tmp_path / "curve.csv"
        code = run(["qcf", "-i", src, "--alpha", 0.5, "--beta", 0.5,
                    "--max-lag", 2, "--out", out])
        assert code == 0
        lags, values, ci = serialize.curve_arrays_from_csv(out.read_text())
        expected = oracle_qcf(list(EXAMPLE_SERIES), 0.5, 0.5, 2)
        for lag, value in zip(lags, values):
            assert value == pytest.approx(expected[int(lag)], abs=1e-12)
        assert values[np.nonzero(lags == 1)[0][0]] == pytest.approx(-0.4, abs=1e-12)
        assert ci is not None

    def test_default_pairs_produce_six_files(self, tmp_path):
        sim = tmp_path / "sim.csv"
        run(["simulate", "--model", "garch", "--length", 400, "--seed", 3, "--out", sim])
        outdir = tmp_path / "curves"
        code = run(["qcf", "-i", sim, "--max-lag", 20, "--out", outdir])
        assert code == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert files == [
            "qcf_a0.05_b0.05.csv",
            "qcf_a0.05_b0.5.csv",
            "qcf_a0.05_b0.95.csv",
            "qcf_a0.5_b0.5.csv",
            "qcf_a0.5_b0.95.csv",
            "qcf_a0.95_b0.95.csv",
        ]

    def test_default_pairs_compute_each_curve_once(self, tmp_path, monkeypatch):
        import qcorr.cli

        inputs = []
        for seed in (1, 2):
            path = tmp_path / f"s{seed}.csv"
            run(["simulate", "--model", "garch", "--length", 300, "--seed", seed, "--out", path])
            inputs += ["-i", path]
        calls = []
        curves = qcorr.cli._curves

        def counting(x, pairs, max_lag):
            calls.append(list(pairs))
            return curves(x, pairs, max_lag)

        monkeypatch.setattr(qcorr.cli, "_curves", counting)
        custom = ["--alpha", 0.05, "--beta", 0.95, "--alpha", 0.5, "--beta", 0.05]
        cases = [
            # (0.5, 0.5) is one of the six defaults, so the band adds no pair.
            ([], qcorr.cli.DEFAULT_PAIRS, 6),
            # Custom pairs without it: the band's pair is appended once.
            (custom, [(0.05, 0.95), (0.5, 0.05), (0.5, 0.5)], 2),
            (custom + ["--no-band"], [(0.05, 0.95), (0.5, 0.05)], 2),
        ]
        for k, (flags, requested, written) in enumerate(cases):
            calls.clear()
            out = tmp_path / f"curves{k}"
            assert run(["qcf", *inputs, *flags, "--max-lag", 10, "--out", out]) == 0
            # One call per input, each carrying every pair.
            assert calls == [requested, requested]
            assert sorted(p.name for p in out.iterdir()) == sorted(
                f"qcf_a{a!r}_b{b!r}.csv" for a, b in requested[:written]
            )

    def test_multi_input_averages(self, tmp_path):
        params = GarchParams(kind="garch", mu=0.0, omega=1e-5, alpha1=0.05, beta1=0.9)
        for seed in (1, 2):
            sim = simulate(params, length=500, seed=seed)
            (tmp_path / f"s{seed}.csv").write_text(serialize.simulation_to_csv(sim))
        out = tmp_path / "avg.json"
        code = run(["qcf", "-i", tmp_path / "s1.csv", "-i", tmp_path / "s2.csv",
                    "--alpha", 0.05, "--beta", 0.05, "--max-lag", 10,
                    "--out", out, "--format", "json"])
        assert code == 0
        curve = serialize.curve_from_json(out.read_text())
        assert curve.n_averaged == 2
        a = qcf_fast(simulate(params, length=500, seed=1).returns, 0.05, 0.05, 10)
        b = qcf_fast(simulate(params, length=500, seed=2).returns, 0.05, 0.05, 10)
        assert np.array_equal(curve.values, (np.vstack([a.values, b.values])).mean(axis=0))

    def test_close_pairs_get_distinct_files(self, tmp_path):
        write_example_series(tmp_path / "s.csv")
        code = run(["qcf", "-i", tmp_path / "s.csv", "--alpha", 0.5, "--beta", 0.5,
                    "--alpha", 0.5000001, "--beta", 0.5, "--max-lag", 2, "--no-band",
                    "--out", tmp_path / "c"])
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "c").iterdir())
        assert files == ["qcf_a0.5000001_b0.5.csv", "qcf_a0.5_b0.5.csv"]

    def test_determinism_byte_identical(self, tmp_path):
        sim = tmp_path / "sim.csv"
        run(["simulate", "--model", "gjr", "--gamma1", 0.06, "--length", 600,
             "--seed", 9, "--out", sim])
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            run(["qcf", "-i", sim, "--alpha", 0.05, "--beta", 0.95,
                 "--max-lag", 30, "--out", out])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_day_price_input_with_horizon_and_stride(self, tmp_path):
        rng = np.random.default_rng(0)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 2e-4, 22200)))
        day_csv = tmp_path / "day.csv"
        lines = ["second,price"] + [f"{i},{p:.10f}" for i, p in enumerate(prices)]
        day_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.json"
        code = run(["qcf", "-i", day_csv, "--alpha", 0.05, "--beta", 0.05,
                    "--max-lag", 30, "--horizon", 60, "--stride", 60,
                    "--out", out, "--format", "json"])
        assert code == 0
        curve = serialize.curve_from_json(out.read_text())
        assert curve.series_length == 369  # non-overlapping one-minute returns


class TestAsymCommand:
    def test_symmetric_curve_reports_zero_percent(self, tmp_path, capsys):
        lines = ["lag,qcf"]
        for lag in range(-5, 6):
            lines.append(f"{lag},{0.1 * abs(lag):.17g}")
        src = tmp_path / "sym.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        code = run(["asym", "-i", src, "--dataset", "SYNTH", "--year", "2007", "--out", out])
        assert code == 0
        shown = capsys.readouterr().out.splitlines()
        assert shown[0] == "Dataset,Year,dA"
        assert shown[1] == "SYNTH,2007,0%"
        row = out.read_text().splitlines()[1].split(",")
        assert row[0] == "SYNTH" and float(row[2]) == 0.0

    def test_pipeline_matches_in_process_exactly(self, tmp_path, capsys):
        # simulate | qcf | asym through files == the in-process computation
        sim_path = tmp_path / "sim.csv"
        curve_path = tmp_path / "curve.csv"
        report_path = tmp_path / "rep.csv"
        run(["simulate", "--model", "gjr", "--gamma1", 0.06, "--length", 800,
             "--seed", 21, "--out", sim_path])
        run(["qcf", "-i", sim_path, "--alpha", 0.05, "--beta", 0.95,
             "--max-lag", 40, "--out", curve_path])
        run(["asym", "-i", curve_path, "--out", report_path])
        capsys.readouterr()

        params = GarchParams(kind="gjr", mu=0.001, omega=1e-5, alpha1=0.05, beta1=0.9, gamma1=0.06)
        sim = simulate(params, length=800, seed=21)
        curve = qcf_fast(sim.returns, 0.05, 0.95, 40)
        band = confidence_band(qcf_fast(sim.returns, 0.5, 0.5, 40))
        report = asymmetry(curve)

        lags, values, ci = serialize.curve_arrays_from_csv(curve_path.read_text())
        assert np.array_equal(values, curve.values)
        assert ci == band
        row = report_path.read_text().splitlines()[1].split(",")
        assert float(row[2]) == report.delta
        assert float(row[3]) == report.area_neg
        assert float(row[4]) == report.area_pos

    def test_json_curve_input(self, tmp_path, capsys):
        curve = qcf_fast(np.random.default_rng(0).standard_normal(300), 0.05, 0.95, 10)
        src = tmp_path / "curve.json"
        src.write_text(serialize.curve_to_json(curve))
        out = tmp_path / "rep.csv"
        assert run(["asym", "-i", src, "--out", out]) == 0
        capsys.readouterr()
        assert float(out.read_text().splitlines()[1].split(",")[2]) == asymmetry(curve).delta

    def test_json_curve_directory_matches_csv_run(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        run(["simulate", "--model", "gjr", "--gamma1", 0.06, "--length", 800,
             "--seed", 21, "--out", sim])
        reports = {}
        for fmt in ("csv", "json"):
            curves = tmp_path / fmt
            assert run(["qcf", "-i", sim, "--max-lag", 40, "--format", fmt, "--out", curves]) == 0
            out = tmp_path / f"report_{fmt}.csv"
            assert run(["asym", "-i", curves, "--out", out]) == 0
            reports[fmt] = (capsys.readouterr().out, out.read_text())
        assert len(reports["csv"][1].splitlines()) == 7  # header + the six default pairs
        assert reports["json"] == reports["csv"]

    def test_dataset_holding_a_separator_is_refused(self, tmp_path, capsys):
        src = tmp_path / "c.csv"
        src.write_text("lag,qcf\n-1,0.5\n0,1\n1,0.25\n")
        out = tmp_path / "a.csv"
        assert run(["asym", "-i", src, "--dataset", "GJR, sim", "--out", out]) == 2
        shown = capsys.readouterr()
        assert shown.out == ""
        err = shown.err.strip().splitlines()
        assert len(err) == 1 and "'GJR, sim'" in json.loads(err[0])["error"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["-1,0.1", "0,1", "1,0.2", "1,0.2"], GRID_RULE),
            (["1,0.2", "-1,0.1", "0,1"], GRID_RULE),
            (["-1,0.1", "0,1", "1,0.2", "2,0.3"], GRID_RULE),
            (["-1,0.1", "1,0.2"], GRID_RULE),
        ],
        ids=["repeated-lag", "unsorted-lags", "one-sided-lag", "no-lag-0"],
    )
    def test_refused_curve_is_named_and_writes_nothing(self, tmp_path, capsys, rows, message):
        good = tmp_path / "in" / "a.csv"
        good.parent.mkdir()
        good.write_text("lag,qcf\n-1,0.1\n0,1\n1,0.2\n")
        src = tmp_path / "in" / "b.csv"
        src.write_text("\n".join(["lag,qcf", *rows]) + "\n")
        out = tmp_path / "a.csv"
        assert run(["asym", "-i", good.parent, "--out", out]) == 2
        shown = capsys.readouterr()
        assert shown.out == ""
        assert shown.err.splitlines() == [json.dumps({"error": f"{src}: {message}"})]
        assert not out.exists()


class TestSimulateCommand:
    def test_env_seed_overrides_flag(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        run(["simulate", "--model", "garch", "--length", 100, "--seed", 5, "--out", a])
        os.environ["QCORR_SEED"] = "5"
        try:
            run(["simulate", "--model", "garch", "--length", 100, "--seed", 999, "--out", b])
        finally:
            del os.environ["QCORR_SEED"]
        run(["simulate", "--model", "garch", "--length", 100, "--seed", 999, "--out", c])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_json_format_single_document(self, tmp_path):
        out = tmp_path / "sim.json"
        run(["simulate", "--model", "egarch", "--gamma1", -0.06, "--length", 64,
             "--seed", 2, "--out", out, "--format", "json"])
        doc = json.loads(out.read_text())
        assert doc["kind"] == "egarch" and len(doc["returns"]) == 64
        assert not (tmp_path / "sim.meta.json").exists()

    def test_inadmissible_params_exit_nonzero(self, tmp_path, capsys):
        code = run(["simulate", "--model", "garch", "--alpha1", 0.5, "--beta1", 0.6,
                    "--length", 100, "--out", tmp_path / "x.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"]
        assert not (tmp_path / "x.csv").exists()


class TestIngestCommands:
    def test_liquidity_gate_and_grid(self, tmp_path, capsys):
        accept = tmp_path / "ok.csv"
        reject = tmp_path / "thin.csv"
        make_tick_file(accept, 800)
        make_tick_file(reject, 799)
        out_ok = tmp_path / "days_ok"
        out_thin = tmp_path / "days_thin"
        assert run(["ingest", "-i", accept, "--out", out_ok]) == 0
        assert run(["ingest", "-i", reject, "--out", out_thin]) == 0
        capsys.readouterr()
        day = serialize.prices_from_day_csv((out_ok / "XYZ_2007-01-03.csv").read_text())
        assert day.size == 22200
        rej = (out_thin / "rejections.csv").read_text().splitlines()
        assert rej[1] == "2007-01-03,XYZ,insufficient liquidity"
        assert not any(p.name.startswith("XYZ") for p in out_thin.iterdir())

    @pytest.mark.parametrize("command", ["ingest", "index"])
    @pytest.mark.parametrize(
        "instrument, reason",
        [('"BRK,B"', "line 2: field 'BRK,B' holds a separator"), ('BRK"B', "cannot be a CSV cell")],
        ids=["read", "written"],
    )
    def test_instrument_holding_a_separator_writes_nothing(self, tmp_path, capsys, command, instrument, reason):
        # A quoted instrument holding a comma is refused on input.  A bare
        # quote is read as part of the name and refused when the rejection
        # row is laid out, which happens before the accepted day is written.
        src = tmp_path / "ticks.csv"
        make_tick_file(src, 800)
        header, rows = src.read_text().split("\n", 1)
        src.write_text(f"{header}\n2007-01-03,600,{instrument},10.0\n{rows}")
        out = tmp_path / "days"
        assert run([command, "-i", src, "--out", out]) == 2
        shown = capsys.readouterr()
        assert shown.out == ""
        err = shown.err.strip().splitlines()
        assert len(err) == 1 and reason in json.loads(err[0])["error"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, keys, name",
        [
            ("ingest", [("2007-01-03", "BRK/B"), ("2007-01-03", "BRK_B")], "BRK_B_2007-01-03.csv"),
            ("index", [("2007/01/03", "AAA"), ("2007_01_03", "AAA")], "INDEX_2007_01_03.csv"),
        ],
    )
    def test_keys_sharing_a_file_name_write_nothing(self, tmp_path, capsys, command, keys, name):
        # Both keys of each case make one file name.  A day of a third key,
        # due first, must not be written either.
        lines = ["date,time_seconds,instrument,price"]
        for (date, instrument), price in zip([("2007-01-02", "AAA"), *keys], (30.0, 10.0, 20.0)):
            lines += [f"{date},{25 * k},{instrument},{price}" for k in range(900)]
        src = tmp_path / "ticks.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "days"
        assert run([command, "-i", src, "--out", out]) == 2
        shown = capsys.readouterr()
        assert shown.out == ""
        err = shown.err.strip().splitlines()
        assert len(err) == 1
        message = json.loads(err[0])["error"]
        assert name in message and all(repr(date) in message for date, _ in keys)
        if command == "ingest":
            assert all(repr(instrument) in message for _, instrument in keys)
        assert not out.exists()

    def test_ingested_directory_feeds_fit_and_qcf(self, tmp_path, capsys):
        # rejections.csv in the ingest output directory must not trip
        # directory expansion in downstream commands
        ticks = tmp_path / "ticks.csv"
        lines = ["date,time_seconds,instrument,price"]
        rng = np.random.default_rng(3)
        price = 100.0
        for k in range(1200):
            price *= float(np.exp(rng.normal(0, 5e-4)))
            lines.append(f"2007-01-03,{19 * k},GOOD,{price:.8f}")
        for k in range(700):
            lines.append(f"2007-01-03,{30 * k},THIN,50.0")
        ticks.write_text("\n".join(lines) + "\n")
        days = tmp_path / "days"
        assert run(["ingest", "-i", ticks, "--out", days]) == 0
        assert (days / "rejections.csv").exists()
        out = tmp_path / "curves"
        code = run(["qcf", "-i", days, "--alpha", 0.05, "--beta", 0.05,
                    "--max-lag", 20, "--horizon", 60, "--stride", 60, "--out", out])
        assert code == 0
        capsys.readouterr()
        assert (out / "qcf_a0.05_b0.05.csv").exists()

    def test_index_command(self, tmp_path, capsys):
        ticks = tmp_path / "ticks.csv"
        lines = ["date,time_seconds,instrument,price"]
        for inst, price in (("AAA", 10.0), ("BBB", 200.0)):
            for k in range(900):
                lines.append(f"2007-01-03,{25 * k},{inst},{price}")
        ticks.write_text("\n".join(lines) + "\n")
        out = tmp_path / "idx"
        assert run(["index", "-i", ticks, "--out", out]) == 0
        capsys.readouterr()
        prices = serialize.prices_from_day_csv((out / "INDEX_2007-01-03.csv").read_text())
        assert np.array_equal(prices, np.ones(22200))


class TestFitResimCommands:
    def test_excluded_day_name_holding_a_comma_writes_nothing(self, tmp_path, capsys):
        days = tmp_path / "days"
        days.mkdir()
        (days / "x,y.csv").write_text(values_to_csv(np.linspace(1.0, 2.0, 5)))  # too short to fit
        out, excluded = tmp_path / "fits.csv", tmp_path / "excluded.csv"
        assert run(["fit", "-i", days, "--out", out, "--excluded-out", excluded]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'x,y'" in json.loads(err[0])["error"]
        assert not out.exists() and not excluded.exists()

    def test_fit_and_resim_roundtrip(self, tmp_path, capsys):
        params = GarchParams(kind="gjr", mu=0.0, omega=0.05, alpha1=0.05, beta1=0.9, gamma1=0.06)
        for seed in (1, 2):
            sim = simulate(params, length=600, seed=seed)
            (tmp_path / f"day{seed}.csv").write_text(serialize.simulation_to_csv(sim))
        batch_csv = tmp_path / "batch.csv"
        avg_json = tmp_path / "avg.json"
        code = run(["fit", "-i", tmp_path / "day1.csv", "-i", tmp_path / "day2.csv",
                    "--out", batch_csv, "--params-out", avg_json])
        assert code == 0
        capsys.readouterr()
        lines = batch_csv.read_text().splitlines()
        assert lines[0] == "day,mu,omega,alpha1,beta1,gamma1,loglik,converged"
        assert len(lines) == 3
        avg = serialize.params_from_json(avg_json.read_text())
        assert avg.kind.value == "gjr"

        resim_dir = tmp_path / "resim"
        code = run(["resim", "--params", avg_json, "--n-series", 3, "--length", 370,
                    "--seed", 4, "--out", resim_dir])
        assert code == 0
        manifest = json.loads((resim_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 4 and len(manifest["seeds"]) == 3
        returns = serialize.returns_from_sim_csv((resim_dir / "sim_0000.csv").read_text())
        assert returns.size == 370

    def test_one_provenance_layout(self, tmp_path):
        # The sidecar, the simulation JSON less its data and the resim
        # manifest share one key list, and each reads back as the params
        # that made it.
        params = GarchParams(kind="egarch", mu=0.0, omega=-0.1, alpha1=0.15, beta1=0.95, gamma1=-0.08)
        flags = ["--model", "egarch", *(x for name in ("mu", "omega", "alpha1", "beta1", "gamma1")
                                        for x in (f"--{name}", getattr(params, name)))]
        for out in ("sim.csv", "sim.json"):
            assert run(["simulate", *flags, "--length", 50, "--seed", 3, "--out", tmp_path / out]) == 0
        assert run(["resim", "--params", tmp_path / "sim.meta.json", "--n-series", 2, "--length", 50,
                    "--out", tmp_path / "r"]) == 0
        texts = [(tmp_path / name).read_text() for name in ("sim.meta.json", "sim.json", "r/manifest.json")]
        sidecar, sim_json, manifest = map(json.loads, texts)
        del sim_json["returns"], sim_json["variances"]
        assert list(sidecar) == list(sim_json) == list(manifest)
        assert sidecar == sim_json and sidecar["seeds"] == [3] and sidecar["master_seed"] is None
        assert manifest["master_seed"] == 0 and len(manifest["seeds"]) == 2
        assert [serialize.params_from_json(text) for text in texts] == [params] * 3

    def test_manifest_replays_its_files(self, tmp_path):
        # A sidecar and a manifest are params documents too.  resim run on a
        # manifest with its master seed, series count, length and burn-in
        # writes the same files, the manifest included, byte for byte.
        assert run(["simulate", "--model", "gjr", "--gamma1", 0.06, "--length", 50, "--seed", 1,
                    "--out", tmp_path / "sim.csv"]) == 0
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["resim", "--params", tmp_path / "sim.meta.json", "--n-series", 3, "--length", 120,
                    "--seed", 5, "--burn-in", 20, "--out", r1]) == 0
        doc = json.loads((r1 / "manifest.json").read_text())
        assert run(["resim", "--params", r1 / "manifest.json", "--seed", doc["master_seed"],
                    "--n-series", len(doc["seeds"]), "--length", doc["length"], "--burn-in", doc["burn_in"],
                    "--out", r2]) == 0
        names = sorted(p.name for p in r1.iterdir())
        assert names == ["manifest.json", "sim_0000.csv", "sim_0001.csv", "sim_0002.csv"]
        assert names == sorted(p.name for p in r2.iterdir())
        assert all((r1 / name).read_bytes() == (r2 / name).read_bytes() for name in names)

    def test_a_rerun_replaces_its_own_files(self, tmp_path, capsys):
        # A rerun over its own outputs writes the same bytes and report and
        # leaves no temp file; another seed's series replace them exactly.
        gjr = GarchParams(kind="gjr", mu=0.0, omega=0.05, alpha1=0.05, beta1=0.9, gamma1=0.06)
        params = tmp_path / "params.json"
        params.write_text(serialize.params_to_json(gjr))
        out = tmp_path / "r"

        def resim(seed):
            assert run(["resim", "--params", params, "--n-series", 3, "--length", 50, "--seed", seed,
                        "--out", out]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr().out

        first = resim(4)
        assert sorted(first[0]) == ["manifest.json", "sim_0000.csv", "sim_0001.csv", "sim_0002.csv"]
        assert resim(4) == first
        third, _ = resim(5)
        assert sorted(third) == sorted(first[0])
        for i, sim in enumerate(resimulate_experiment(gjr, 3, 50, 5)):
            name = f"sim_{i:04d}.csv"
            assert third[name] == serialize.simulation_to_csv(sim).encode() != first[0][name]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--length", 1, "length must be at least 2"),
            ("--burn-in", -1, "burn_in must be nonnegative"),
            ("--n-series", 0, "n_series must be positive"),
        ],
    )
    def test_resim_rejects_bad_sizes_without_output(self, tmp_path, capsys, flag, value, message):
        params = tmp_path / "params.json"
        params.write_text(serialize.params_to_json(
            GarchParams(kind="gjr", mu=0.0, omega=0.05, alpha1=0.05, beta1=0.9, gamma1=0.06)))
        sizes = {"--n-series": 2, "--length": 50, "--burn-in": 10, flag: value}
        out = tmp_path / "resim"
        args = ["resim", "--params", params, *(x for item in sizes.items() for x in item), "--out", out]
        assert run(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == message
        assert not out.exists()


class TestPpgridCommand:
    def test_default_sim_lags(self, tmp_path):
        sim = tmp_path / "sim.csv"
        run(["simulate", "--model", "garch", "--length", 500, "--seed", 6, "--out", sim])
        out = tmp_path / "grids"
        assert run(["ppgrid", "-i", sim, "--levels", "0.05,0.5,0.95", "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["ppgrid_lag10.csv", "ppgrid_lag2.csv"]
        header = (out / "ppgrid_lag2.csv").read_text().splitlines()[0]
        assert header == "alpha\\beta,0.05,0.5,0.95"

    def test_levels_range_spec(self, tmp_path):
        sim = tmp_path / "sim.csv"
        run(["simulate", "--model", "garch", "--length", 500, "--seed", 6, "--out", sim])
        out = tmp_path / "g.csv"
        assert run(["ppgrid", "-i", sim, "--levels", "0.1:0.9:0.2", "--lag", 3,
                    "--out", out]) == 0
        header = out.read_text().splitlines()[0]
        assert header.split(",")[1:] == ["0.1", "0.3", "0.5", "0.7", "0.9"]

    def test_levels_bound_holds_for_both_spellings(self):
        # 0.0005 + 999 * 0.001 = 0.9995 is the 1000th level; with step 0.000999
        # the same stop is the 1001st.
        assert len(_parse_levels("0.0005:0.9995:0.001")) == MAX_GRID_LEVELS
        assert len(_parse_levels(",".join(["0.5"] * MAX_GRID_LEVELS))) == MAX_GRID_LEVELS
        for text in ("0.0005:0.9995:0.000999", ",".join(["0.5"] * (MAX_GRID_LEVELS + 1))):
            with pytest.raises(ValueError, match=f"^--levels asks for more than {MAX_GRID_LEVELS} levels$"):
                _parse_levels(text)

    def test_default_range_matches_default_levels(self, tmp_path):
        sim = tmp_path / "sim.csv"
        run(["simulate", "--model", "garch", "--length", 500, "--seed", 6, "--out", sim])
        ranged, default = tmp_path / "ranged.csv", tmp_path / "default.csv"
        assert run(["ppgrid", "-i", sim, "--levels", "0.05:0.95:0.05", "--lag", 2,
                    "--out", ranged]) == 0
        assert run(["ppgrid", "-i", sim, "--lag", 2, "--out", default]) == 0
        assert ranged.read_bytes() == default.read_bytes()

    def test_default_day_lags_in_seconds(self, tmp_path):
        rng = np.random.default_rng(1)
        prices = 40.0 * np.exp(np.cumsum(rng.normal(0.0, 2e-4, 22200)))
        day_csv = tmp_path / "day.csv"
        day_csv.write_text("\n".join(["second,price"] +
                                     [f"{i},{p:.10f}" for i, p in enumerate(prices)]) + "\n")
        out = tmp_path / "grids"
        assert run(["ppgrid", "-i", day_csv, "--levels", "0.05,0.95", "--out", out]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"ppgrid_lag{l}.csv" for l in (120, 1200, 3600, 600)]

    @pytest.mark.parametrize("lag", [1500, -1500])
    def test_too_long_lag_is_named_as_given(self, tmp_path, capsys, lag):
        sim = tmp_path / "sim.csv"
        run(["simulate", "--model", "garch", "--length", 3000, "--seed", 6, "--out", sim])
        out = tmp_path / "g"
        assert run(["ppgrid", "-i", sim, "--lag", 2, "--lag", lag, "--out", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [json.dumps({"error": f"{sim}: lag {lag} too large for series of length 3000"})]
        assert not out.exists()


class TestOutputResolution:
    @pytest.fixture
    def sim(self, tmp_path):
        path = tmp_path / "s.csv"
        assert run(["simulate", "--model", "gjr", "--gamma1", 0.06, "--length", 300,
                    "--seed", 8, "--out", path]) == 0
        return path

    @staticmethod
    def command_line(args, sim, out):
        """args with the input series after the subcommand and --out's value replaced by out."""
        command, *rest = args
        return [command, *([] if command == "simulate" else ["-i", sim]), *rest[:-1], out]

    @pytest.mark.parametrize(
        "args, written, read",
        [
            (["qcf", "--alpha", 0.05, "--beta", 0.95, "--max-lag", 5, "--out", "c.json"],
             "c.json", serialize.curve_from_json),
            (["ppgrid", "--lag", 2, "--out", "g1.json"], "g1.json", json.loads),
            (["ppgrid", "--lag", 2, "--format", "json", "--out", "g"], "g/ppgrid_lag2.json", json.loads),
            (["simulate", "--model", "garch", "--length", 50, "--out", "sim.json"],
             "sim.json", json.loads),
            (["simulate", "--model", "garch", "--length", 50, "--format", "json", "--out", "sims"],
             "sims/sim.json", json.loads),
        ],
        ids=["qcf-json-suffix", "ppgrid-json-suffix", "ppgrid-json-directory",
             "simulate-json-suffix", "simulate-json-directory"],
    )
    def test_suffix_or_format_decides(self, tmp_path, sim, args, written, read):
        assert run(self.command_line(args, sim, tmp_path / args[-1])) == 0
        read((tmp_path / written).read_text())
        assert not (tmp_path / written).with_suffix(".meta.json").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["qcf", "--alpha", 0.05, "--beta", 0.95, "--max-lag", 5, "--format", "json", "--out", "c.csv"],
            ["qcf", "--max-lag", 5, "--out", "c.csv"],
            ["ppgrid", "--out", "g.json"],
            ["ppgrid", "--lag", 2, "--format", "json", "--out", "g1.csv"],
            ["simulate", "--model", "garch", "--length", 50, "--format", "csv", "--out", "sim.json"],
        ],
        ids=["qcf-format-contradicts-suffix", "qcf-six-pairs-one-file", "ppgrid-two-lags-one-file",
             "ppgrid-format-contradicts-suffix", "simulate-format-contradicts-suffix"],
    )
    def test_mismatched_out_is_refused(self, tmp_path, sim, capsys, args):
        out = tmp_path / args[-1]
        assert run(self.command_line(args, sim, out)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--out" in json.loads(err[0])["error"]
        assert not out.exists()
        assert not out.with_suffix(".meta.json").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "qcorr", "simulate", "--model", "garch",
             "--length", "50", "--seed", "1", "--out", str(tmp_path / "s.csv")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "s.csv").exists()

    def test_import_skips_fit_only_scipy_modules(self):
        import subprocess
        import sys

        code = ("import sys, qcorr.cli; "
                "print([m for m in ('scipy.optimize', 'scipy.signal') if m in sys.modules]); "
                "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "[]"]

    def test_no_command_loads_scipy(self, tmp_path):
        import subprocess
        import sys

        make_tick_file(tmp_path / "ticks.csv", 900)
        (tmp_path / "params.json").write_text(serialize.params_to_json(
            GarchParams(kind="gjr", mu=0.0, omega=0.05, alpha1=0.05, beta1=0.9, gamma1=0.06)))
        commands = [
            ["simulate", "--model", "gjr", "--length", "400", "--seed", "1", "--out", "sim.csv"],
            ["qcf", "-i", "sim.csv", "--max-lag", "20", "--out", "curves"],
            ["ppgrid", "-i", "sim.csv", "--out", "grids"],
            ["asym", "-i", "curves/qcf_a0.05_b0.95.csv", "--out", "asym.csv"],
            ["resim", "--params", "params.json", "--n-series", "2", "--length", "370", "--out", "resim"],
            ["ingest", "-i", "ticks.csv", "--out", "days"],
            ["index", "-i", "ticks.csv", "--out", "idx"],
            ["fit", "-i", "sim.csv", "--out", "fits.csv"],
        ]
        # Runs the commands in order in one interpreter; its last line maps each
        # command to the scipy modules loaded by the end of it.
        code = ("import json, os, sys\n"
                "from qcorr.cli import main\n"
                "os.chdir(sys.argv[2])\n"
                "loaded = {}\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    assert main(argv) == 0, argv\n"
                "    loaded[argv[0]] = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
                "print(json.dumps(loaded))\n")
        result = subprocess.run([sys.executable, "-c", code, json.dumps(commands), str(tmp_path)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout.splitlines()[-1])
        assert loaded == {argv[0]: [] for argv in commands}

    def test_help_lists_subcommands(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "qcorr", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        for name in ("ingest", "qcf", "ppgrid", "asym", "simulate", "fit", "resim", "index"):
            assert name in result.stdout


def _readme_command_line_section() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def _accepted_flags(capsys, command: str) -> set[str]:
    """The long options a subcommand defines, read from its --help option list."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, "--help"])
    assert exit_info.value.code == 0, f"README names unknown subcommand {command!r}"
    # Option lines start with two spaces and a dash; help text is indented further.
    invocations = re.findall(r"^  (-\S.*?)(?:  |$)", capsys.readouterr().out, re.M)
    return set(re.findall(r"--[a-z][a-z0-9-]*", " ".join(invocations)))


def test_readme_command_line_matches_parser(capsys):
    section = _readme_command_line_section()
    usage = [line.split() for line in section.splitlines() if line.startswith("qcorr ")]
    commands = sorted({words[1] for words in usage})
    flags = {command: _accepted_flags(capsys, command) for command in commands}
    for words in usage:
        unknown = {w for w in words if w.startswith("--")} - flags[words[1]]
        assert not unknown, f"README usage of {words[1]} names {unknown}"
    # An inline span that starts with a subcommand names flags of that subcommand.
    for span in re.findall(r"`([^`\n]+)`", section):
        words = span.split()
        owner = flags.get(words[0], set().union(*flags.values()))
        unknown = {w for w in re.findall(r"--[a-z][a-z0-9-]*", span)} - owner
        assert not unknown, f"README names {unknown} in `{span}`"


class TestErrorHandling:
    def test_missing_input_machine_readable(self, tmp_path, capsys):
        code = run(["qcf", "-i", tmp_path / "nope.csv", "--alpha", 0.5, "--beta", 0.5,
                    "--max-lag", 2, "--out", tmp_path / "o.csv"])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "does not exist" in json.loads(err)["error"]
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command, name, text, reason",
        [
            ("qcf", "sim.csv", "t,return,variance\n0,0.1,1.0\n1\n", "line 3"),
            ("ppgrid", "day.csv", "second,price\n0,10.0\n\n2\n", "line 4"),
            ("resim", "params.json", "[0.0, 1e-05, 0.05, 0.9]", "must be an object"),
            ("resim", "params.json",
             '{"kind": "gjr", "mu": null, "omega": 1e-05, "alpha1": 0.05, "beta1": 0.9}',
             "params JSON field 'mu' holds None, not a number"),
            ("asym", "curve.json", "[1, 2]", "must be an object"),
            ("asym", "curve.json", CURVE_JSON.replace("[-1, 0, 1]", "[-1.5, 0, 1.9]"),
             "curve JSON field 'lags' holds -1.5, not an integer"),
            ("asym", "curve.json", CURVE_JSON.replace('"series_length": 10', '"series_length": 10.9'),
             "curve JSON field 'series_length' holds 10.9, not an integer"),
            ("asym", "curve.json", CURVE_JSON.replace('"n_averaged": 1', '"n_averaged": true'),
             "curve JSON field 'n_averaged' holds True, not an integer"),
            ("asym", "curve.csv", "lag,qcf\n1.5,0.1\n", "line 2"),
            ("asym", "curve.csv", "lag,qcf\n0,1\n99999999999999999999999,0.5\n", "line 3"),
            ("qcf", "sim.csv", "t,return,variance\nx,0.1,1.0\n5,0.2,-3\n7,0.3,1\n2,0.1,1\nzz,0.5,abc\n",
             "line 2: t must be 0, got 'x'"),
            ("ppgrid", "day.csv", "second,price\n0,10.0\n2,10.5\n1,11.0\n", "line 3: second must be 1, got '2'"),
            # Refused after parsing, by the day, the returns or the series.
            ("qcf", "day.csv", "second,price\n0,10.0\n1,-1.0\n2,11.0\n", "all prices must be positive"),
            ("qcf", "values.csv", "value\n0.1\nnan\n0.3\n", "values must all be finite"),
            ("ppgrid", "day.csv", "second,price\n0,10.0\n1,10.5\n2,11.0\n", "horizon 60 exceeds the 3-second grid"),
            # JSON numbers only: true, false and "1e-5" are not converted.
            ("resim", "params.json",
             '{"kind": "gjr", "mu": true, "omega": 1e-05, "alpha1": 0.05, "beta1": 0.9, "gamma1": false}',
             "'mu' holds True, not a number"),
            ("resim", "params.json",
             '{"kind": "gjr", "mu": 0.0, "omega": "1e-5", "alpha1": 0.05, "beta1": 0.9}',
             "'omega' holds '1e-5', not a number"),
            ("resim", "params.json",
             '{"kind": "gjr", "mu": 0.0, "omega": 1e-05, "alpha1": 0.05, "beta1": 0.9, "gamma1": false}',
             "'gamma1' holds False, not a number"),
            ("resim", "params.json",
             '{"kind": "gjr", "mu": 0.0, "omega": 1e-05, "alpha1": 0.05, "beta1": 0.9, "gamma1": 1' + "0" * 400 + "}",
             "int too large to convert to float"),
            ("asym", "curve.json", CURVE_JSON.replace('"alpha": 0.05', '"alpha": true'),
             "curve JSON field 'alpha' holds True, not a number"),
            ("asym", "curve.json", CURVE_JSON.replace('"ci_half_width": null', '"ci_half_width": true'),
             "curve JSON field 'ci_half_width' holds True, not a number or null"),
            # json.loads reads the non-JSON literals Infinity and NaN; a band
            # half-width must be finite and nonnegative.
            ("asym", "curve.json", CURVE_JSON.replace('"ci_half_width": null', '"ci_half_width": Infinity'),
             "ci_half_width must be finite and nonnegative"),
            ("asym", "curve.json", CURVE_JSON.replace('"ci_half_width": null', '"ci_half_width": NaN'),
             "ci_half_width must be finite and nonnegative"),
            # Curve values are JSON numbers in [-1, 1], and prices positive and finite.
            ("asym", "curve.json", CURVE_JSON.replace("[0.1, 1.0, 0.2]", "[0.1, null, 0.2]"),
             "curve JSON field 'values' holds None, not a number"),
            ("asym", "curve.json", CURVE_JSON.replace("[0.1, 1.0, 0.2]", '[0.1, 1.0, "0.5"]'),
             "curve JSON field 'values' holds '0.5', not a number"),
            ("asym", "curve.json", CURVE_JSON.replace("[0.1, 1.0, 0.2]", "[true, 1.0, 0.2]"),
             "curve JSON field 'values' holds True, not a number"),
            ("asym", "curve.csv", "lag,qcf\n-1,0.1\n0,nan\n1,0.2\n", "correlation values must lie in [-1, 1]"),
            ("asym", "curve.csv", "lag,qcf\n-1,inf\n0,1\n1,0.2\n", "correlation values must lie in [-1, 1]"),
            ("asym", "curve.csv", "lag,qcf\n-1,0.1\n0,5\n1,0.2\n", "correlation values must lie in [-1, 1]"),
            ("qcf", "day.csv", "second,price\n0,10.0\n1,inf\n2,11.0\n", "all prices must be positive and finite"),
            # A CSV curve's ci column holds one finite, nonnegative half-width.
            ("asym", "curve.csv", "lag,qcf,ci\n-1,0.1,nan\n0,1,nan\n1,0.2,nan\n",
             "ci_half_width must be finite and nonnegative"),
            ("asym", "curve.csv", "lag,qcf,ci\n-1,0.1,inf\n0,1,inf\n1,0.2,inf\n",
             "ci_half_width must be finite and nonnegative"),
            ("asym", "curve.csv", "lag,qcf,ci\n-1,0.1,-5\n0,1,-5\n1,0.2,-5\n",
             "ci_half_width must be finite and nonnegative"),
            ("asym", "curve.csv", "lag,qcf,ci\n-1,0.1,0.2\n0,1,0.3\n1,0.2,0.2\n",
             "the ci column must hold one value on every row"),
        ],
        ids=["sim-row-without-comma", "day-row-without-comma", "params-not-object",
             "params-null-field", "curve-json-not-object", "curve-json-fractional-lag",
             "curve-json-fractional-length", "curve-json-bool-count", "curve-csv-fractional-lag",
             "curve-csv-lag-beyond-int64", "sim-index-not-row-numbers", "day-index-out-of-order",
             "day-negative-price", "values-nan", "day-shorter-than-horizon", "params-bool-field",
             "params-string-field", "params-bool-gamma1", "params-integer-beyond-double",
             "curve-json-bool-alpha", "curve-json-bool-ci", "curve-json-infinite-ci",
             "curve-json-nan-ci", "curve-json-null-value",
             "curve-json-string-value", "curve-json-bool-value", "curve-csv-nan", "curve-csv-inf",
             "curve-csv-beyond-one", "day-infinite-price", "curve-csv-nan-ci", "curve-csv-infinite-ci",
             "curve-csv-negative-ci", "curve-csv-ci-differs-between-rows"],
    )
    def test_malformed_input_reports_one_error(self, tmp_path, capsys, command, name, text, reason):
        src = tmp_path / name
        src.write_text(text)
        out = tmp_path / "out"
        if command == "resim":
            args = ["resim", "--params", src, "--n-series", 2, "--length", 50, "--out", out]
        elif command == "asym":
            args = ["asym", "-i", src, "--out", out]
        else:
            args = [command, "-i", src, "--lag" if command == "ppgrid" else "--max-lag", 1,
                    "--out", out]
        assert run(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert reason in error
        assert error.count(str(src)) == 1
        assert not out.exists()

    def test_unrecognized_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        code = run(["qcf", "-i", bad, "--alpha", 0.5, "--beta", 0.5,
                    "--max-lag", 2, "--out", tmp_path / "o.csv"])
        assert code == 2
        assert "unrecognized header" in json.loads(capsys.readouterr().err.strip())["error"]

    @pytest.mark.parametrize("command", ["ppgrid", "qcf", "fit"])
    @pytest.mark.parametrize("day_first", [True, False], ids=["day-first", "sim-first"])
    def test_mixed_input_kinds_write_nothing(self, tmp_path, capsys, command, day_first):
        # Default lags and horizons depend on the input kind, so day prices
        # and returns cannot share one run, in either order.
        day_csv, sim_csv = tmp_path / "day.csv", tmp_path / "sim.csv"
        day_csv.write_text(serialize.day_to_csv(TradingDay("AAA", "", np.linspace(40.0, 41.0, 22200), 22200)))
        assert run(["simulate", "--model", "garch", "--length", 500, "--seed", 6, "--out", sim_csv]) == 0
        inputs = [day_csv, sim_csv] if day_first else [sim_csv, day_csv]
        out = tmp_path / "out"
        extra = {"qcf": ["--max-lag", 5], "ppgrid": [], "fit": []}[command]
        assert run([command, "-i", inputs[0], "-i", inputs[1], *extra, "--out", out]) == 2
        shown = capsys.readouterr()
        assert shown.out == ""
        err = shown.err.strip().splitlines()
        assert len(err) == 1
        message = json.loads(err[0])["error"]
        assert str(day_csv) in message and str(sim_csv) in message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qcf", "ppgrid"])
    @pytest.mark.parametrize(
        "second, reason",
        [
            (np.random.default_rng(2).standard_normal(300), "{lag} 200 too large for series of length 300"),
            (np.full(3000, 1.5), "degenerate quantile level: filtered series at p=0.05 is constant"),
        ],
        ids=["too-short-for-lag", "constant"],
    )
    def test_estimator_refusal_names_its_input(self, tmp_path, capsys, command, second, reason):
        first, bad = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(values_to_csv(np.random.default_rng(1).standard_normal(3000)))
        bad.write_text(values_to_csv(second))
        out = tmp_path / "out"
        lag = {"qcf": "--max-lag", "ppgrid": "--lag"}[command]
        assert run([command, "-i", first, "-i", bad, lag, 200, "--out", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        shown = reason.format(lag={"qcf": "max_lag", "ppgrid": "lag"}[command])
        assert err == [json.dumps({"error": f"{bad}: {shown}"})]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["qcf", "--alpha", 1.5, "--beta", 0.5, "--max-lag", 5],
             "probability level must lie in [0, 1], got 1.5"),
            (["ppgrid", "--levels", "0,0.5", "--lag", 5], "grid levels must be strictly inside (0, 1), got 0.0"),
        ],
        ids=["qcf-alpha", "ppgrid-levels"],
    )
    def test_level_refusal_names_no_input(self, tmp_path, capsys, args, reason):
        src = tmp_path / "a.csv"
        src.write_text(values_to_csv(np.random.default_rng(1).standard_normal(300)))
        out = tmp_path / "out"
        assert run([args[0], "-i", src, *args[1:], "--out", out]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [json.dumps({"error": reason})]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["simulate", "--model", "garch", "--length", 100], "QCORR_SEED must be an integer"),
            (["qcf", "-i", "empty", "--max-lag", 2], "no .csv files inside directory"),
            (["qcf", "-i", "x.csv", "--alpha", 0.1, "--alpha", 0.2, "--beta", 0.3, "--max-lag", 2],
             "--alpha and --beta must be given the same number of times"),
            (["ppgrid", "-i", "x.csv", "--levels", "0.1:0.5"], "--levels range must be start:stop:step"),
            (["ppgrid", "-i", "x.csv", "--levels", "0.5:0.1:0.1"], "--levels range must increase"),
            (["ppgrid", "-i", "day.csv", "--stride", 7], "default lag 120s is not a multiple of stride 7"),
            (["simulate", "--model", "egarch", "--omega", 800, "--alpha1", 0.1, "--beta1", 0.1, "--length", 10],
             "egarch conditional variance overflows a float"),
            (["resim", "--params", "egarch.json", "--n-series", 2, "--length", 10],
             "egarch conditional variance overflows a float"),
            (["qcf", "-i", "day.csv", "--stride", 10**20, "--max-lag", 5],
             "day.csv: a time series needs at least 2 observations, got 1"),
            (["ppgrid", "-i", "day.csv", "--stride", 10**20, "--lag", 1],
             "day.csv: a time series needs at least 2 observations, got 1"),
            (["fit", "-i", "day.csv", "--stride", 10**20],
             "day.csv: a time series needs at least 2 observations, got 1"),
            (["ppgrid", "-i", "x.csv", "--levels", "0.1:inf:0.1"], "--levels range must increase in a finite number of steps"),
            (["ppgrid", "-i", "x.csv", "--levels", "0.1:0.9:1e-300"], "--levels asks for more than 1000 levels"),
            # Every size below asks numpy for more than 2**47 bytes (128 TiB),
            # more than a 64-bit process can address, so the allocation fails
            # before any memory is touched.
            (["simulate", "--model", "gjr", "--length", 10**14], "Unable to allocate"),
            (["simulate", "--model", "gjr", "--length", 10, "--burn-in", 10**14], "Unable to allocate"),
            (["resim", "--params", "gjr.json", "--n-series", 10**14, "--length", 10], "Unable to allocate"),
            (["resim", "--params", "gjr.json", "--n-series", 2, "--length", 10**14], "Unable to allocate"),
            (["resim", "--params", "gjr.json", "--n-series", 2, "--length", 10, "--burn-in", 10**14],
             "Unable to allocate"),
            (["ingest", "-i", "ticks.csv", "--session-close", 10**17], "Unable to allocate"),
            (["index", "-i", "ticks.csv", "--session-close", 10**17], "Unable to allocate"),
            (["resim", "--params", "deep.json", "--n-series", 2, "--length", 10],
             "deep.json: params JSON is nested too deeply"),
            (["asym", "-i", "deep.json"], "deep.json: curve JSON is nested too deeply"),
        ],
        ids=["seed-not-integer", "directory-without-csv", "unpaired-levels", "levels-not-a-range",
             "levels-decreasing", "day-lag-off-stride", "egarch-simulate-overflows", "egarch-resim-overflows",
             "qcf-stride-beyond-int64", "ppgrid-stride-beyond-int64", "fit-stride-beyond-int64",
             "levels-infinite-range", "levels-range-beyond-the-bound",
             "simulate-length-beyond-memory", "simulate-burn-in-beyond-memory", "resim-n-series-beyond-memory",
             "resim-length-beyond-memory", "resim-burn-in-beyond-memory", "ingest-session-beyond-memory",
             "index-session-beyond-memory", "resim-params-nested-too-deeply", "asym-curve-nested-too-deeply"],
    )
    def test_refusals_write_nothing(self, tmp_path, capsys, monkeypatch, args, reason):
        if reason.startswith("QCORR_SEED"):
            monkeypatch.setenv("QCORR_SEED", "1.5")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "egarch.json").write_text(serialize.params_to_json(
            GarchParams(kind="egarch", mu=0.0, omega=800.0, alpha1=0.1, beta1=0.1)))
        (tmp_path / "gjr.json").write_text(serialize.params_to_json(
            GarchParams(kind="gjr", mu=0.0, omega=0.05, alpha1=0.05, beta1=0.9, gamma1=0.02)))
        (tmp_path / "deep.json").write_text("[" * 5000 + "]" * 5000)
        make_tick_file(tmp_path / "ticks.csv", 900)
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "notes.txt").write_text("no data here\n")
        write_example_series(tmp_path / "x.csv")
        day = TradingDay("AAA", "", np.linspace(40.0, 41.0, 500), 500)
        (tmp_path / "day.csv").write_text(serialize.day_to_csv(day))
        before = sorted(tmp_path.rglob("*"))
        assert run([*args, "--out", "out"]) == 2
        shown = capsys.readouterr()
        assert shown.out == ""
        err = shown.err.strip().splitlines()
        assert len(err) == 1 and reason in json.loads(err[0])["error"]
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "args, output, reason",
        [
            (["qcf", "-i", "sim.csv", "--max-lag", 5, "--out", "d"], "d/qcf_a0.5_b0.5.csv", "is a directory"),
            (["resim", "--params", "p.json", "--n-series", 3, "--length", 100, "--out", "r"],
             "r/sim_0001.csv", "is a directory"),
            (["fit", "-i", "sim.csv", "--out", "fits.csv", "--params-out", "sim.csv/avg.json"],
             "sim.csv/avg.json", "cannot write"),
            (["fit", "-i", "sim.csv", "--out", "f.csv", "--excluded-out", "f.csv", "--params-out", "f.csv"],
             "f.csv", "is named twice"),
            (["fit", "-i", "sim.csv", "--out", "g.csv", "--params-out", "g.csv/avg.json"],
             "g.csv/avg.json", "inside output g.csv"),
            (["fit", "-i", "sim.csv", "--out", "new/f.csv", "--params-out", "new/f.csv"],
             "new/f.csv", "is named twice"),
            (["fit", "-i", "sim.csv", "--out", "new/deep/f.csv", "--params-out", "new"],
             "new", "is a directory"),
        ],
        ids=["qcf-curve-path-is-a-directory", "resim-series-path-is-a-directory",
             "fit-params-under-a-file", "fit-one-path-three-times",
             "fit-params-inside-the-fit-table", "fit-one-path-twice-in-a-new-directory",
             "fit-params-at-a-directory-made-for-the-fit-table"],
    )
    def test_refused_outputs_write_nothing(self, tmp_path, capsys, monkeypatch, args, output, reason):
        # Each is refused only after earlier outputs of the run are laid out.
        monkeypatch.chdir(tmp_path)
        params = GarchParams(kind="gjr", mu=0.0, omega=0.05, alpha1=0.05, beta1=0.9, gamma1=0.06)
        Path("sim.csv").write_text(serialize.simulation_to_csv(simulate(params, length=600, seed=1)))
        Path("p.json").write_text(serialize.params_to_json(params))
        Path("d/qcf_a0.5_b0.5.csv").mkdir(parents=True)
        Path("r/sim_0001.csv").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert run(args) == 2
        shown = capsys.readouterr()
        assert shown.out == ""
        err = shown.err.strip().splitlines()
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert output in error and reason in error and ".tmp" not in error
        assert sorted(tmp_path.rglob("*")) == before
