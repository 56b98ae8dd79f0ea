"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fixtures  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(fixtures.BUILDERS))
def test_same_seed_gives_byte_identical_fixtures(workload, tmp_path):
    first = fixtures.build(workload, 7, tmp_path / "a")
    second = fixtures.build(workload, 7, tmp_path / "b")
    other = fixtures.build(workload, 8, tmp_path / "c")
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert other["seed"] == 8


def test_tick_fixture_has_its_designed_properties():
    text, design, expected = fixtures.tick_fixture(
        3, ["2007-01-03", "2007-01-04"], ["AAA", "BBB"], ticks_per_day=2000,
        illiquid_days=1, illiquid_ticks=300, nonregular_share=0.05)
    rows = text.splitlines()[1:]
    assert len(rows) == design["rows"]
    assert sum(r.endswith(",0") for r in rows) == design["nonregular_rows"] == 3 * 100 + 15
    assert design["illiquid_days"] == 1 and len(expected) == design["accepted_days"] == 3
    assert all(g.size == fixtures.GRID_SECONDS for g in expected.values())


def test_self_and_busy_time_on_a_hand_built_span_tree():
    S = spans.Span
    tree = [
        S(0, "pass", 0.0, 10.0, None, 1),
        S(1, "fitting.resimulate_experiment", 1.0, 4.0, 0, 1),
        S(2, "garch.simulate", 2.0, 3.0, 1, 1),
        S(3, "qcf.pp_grid", 5.0, 9.0, 0, 1),
        S(4, "qcf.qcf_fast", 6.0, 7.0, 3, 1),  # two overlapping children:
        S(5, "serialize.grid_to_csv", 6.5, 8.0, 3, 1),  # their union is 2.0
    ]
    assert spans.self_times(tree) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.5})
    row = spans.per_pass(tree)[1]
    assert row["fitting.resimulate_experiment.s"] == pytest.approx(3.0)
    assert row["fitting.self_s"] == pytest.approx(2.0)
    assert row["garch.busy_s"] == pytest.approx(1.0)
    # qcf spans nest: busy time counts the union once, self times add up.
    assert row["qcf.busy_s"] == pytest.approx(4.0)
    assert row["qcf.self_s"] == pytest.approx(3.0)
    assert row["qcf.qcf_fast.calls"] == 1


def test_tracer_records_nested_spans_with_parent_and_pass():
    tr = spans.Tracer(record=True)
    tr.pass_id = 4
    with tr.span("pass"):
        assert tr.call("qcf.outer", lambda: tr.call("qcf.inner", lambda: 5)) == 5
    outer, inner = tr.spans[1], tr.spans[2]
    assert (outer.parent, inner.parent, inner.pass_id, tr.attempted) == (0, 1, 4, 2)
    assert outer.start <= inner.start <= inner.end <= outer.end


@pytest.fixture
def ticks_run(tmp_path):
    text, design, expected = fixtures.tick_fixture(
        5, ["2007-01-03"], ["AAA", "BBB", "CCC"], ticks_per_day=3000,
        illiquid_days=1, illiquid_ticks=300, nonregular_share=0.03)
    fixtures._write_ticks(tmp_path, "ticks.csv", text, expected)
    wl = worker.Ticks(tmp_path, design)
    return wl, wl.run_pass(spans.Tracer(record=False))


def test_ticks_check_passes_and_catches_a_corrupted_day_csv(ticks_run):
    wl, out = ticks_run
    assert wl.check(out) == []
    name = next(n for n in out["texts"] if not n.startswith("INDEX"))
    out["texts"][name] = out["texts"][name].replace("\n1,", "\n1,9", 1)
    assert [f for f in wl.check(out) if name in f] == [
        f"day_to_csv {name}: text differs from the reference"]


def test_curves_check_catches_an_asymmetric_curve(tmp_path):
    rng = np.random.default_rng(0)
    series = [rng.standard_normal(400) for _ in range(2)]
    tr = spans.Tracer(record=False)
    curves, band, reports, grids = worker._curves_and_grids(tr, series, 20, [2])
    lags = list(range(-20, 21))
    assert worker._check_curves(curves, reports, band, series, lags) == []
    assert worker._check_grids(grids, series) == []
    bad = curves[(0.5, 0.5)]
    values = np.array(bad.values)
    values[0] += 1e-9
    object.__setattr__(bad, "values", values)
    found = worker._check_curves(curves, reports, band, series, lags)
    assert "qcf_fast (0.5, 0.5): equal-level curve is not exactly symmetric" in found


class _FailsOnPassesTwoAndThree:
    """Pass 2 raises; pass 3 returns other outputs than the checked pass 1."""

    def __init__(self, run_dir, design):
        self.passes = 0

    def run_pass(self, tr):
        self.passes += 1
        tr.call("qcf.ok", time.sleep, 0.01)
        if self.passes == 2:
            tr.call("qcf.broken", lambda: 1 / 0)
        return "other" if self.passes == 3 else "expected"

    def check(self, out):
        return [] if out == "expected" else ["wrong output"]

    def counts(self, out):
        return {}


def test_a_failure_during_the_run_is_counted_not_raised(tmp_path, monkeypatch):
    (tmp_path / "design.json").write_text("{}")
    monkeypatch.setitem(worker.WORKLOADS, "ticks", _FailsOnPassesTwoAndThree)
    result = worker.run("ticks", tmp_path, seconds=0.05, trace=False)
    assert result["failed"] == 2  # one raised call, one pass whose outputs changed
    assert result["attempted"] >= 5
    assert any("ZeroDivisionError" in f for f in result["failures"])


def test_run_exits_nonzero_without_a_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ticks", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_and_layer_map_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layer_map["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(layer_map["workloads"]) == list(
        fixtures.BUILDERS)
