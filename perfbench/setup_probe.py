"""Set-up probe, run in a fresh interpreter:

    python3 perfbench/setup_probe.py <workload> <setup-dir>

Times `import qcorr.cli`, then one first call on a tiny input into every
public function the workload uses.  Counting the first calls means work
moved from import time into a first call still shows in set-up time.
Loading the tiny inputs is not timed.  Prints one JSON line.
"""

import json
import shutil
import sys
import time
from pathlib import Path

PAIR = (0.05, 0.95)
LEVELS = [0.05, 0.5, 0.95]


class Calls:
    def __init__(self):
        self.attempted = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)


def ticks(q, call, d: Path, text):
    groups = call(q.read_ticks_csv, text)
    days = [call(q.resample_day, t, 0, 23400, date=k[0]) for k, t in groups.items()]
    call(q.compute_returns, days[0], 60, 1)
    index = call(q.build_index, days)
    csv = call(q.serialize.day_to_csv, index)
    call(q.serialize.write_text_atomic, d / "probe_out" / "day.csv", csv)
    call(q.serialize.prices_from_day_csv, csv)


def curves(q, call, d: Path, x):
    curve = call(q.qcf_fast, x, *PAIR, 5)
    ref = call(q.average_curves, [call(q.qcf_fast, x, 0.5, 0.5, 5)])
    call(q.asymmetry, curve.with_ci(call(q.confidence_band, ref)))
    grid = call(q.average_grids, [call(q.pp_grid, x, LEVELS, 2)])
    call(q.serialize.curve_to_csv, curve)
    call(q.serialize.grid_to_csv, grid)


def montecarlo(q, call, d: Path, day):
    batch = call(q.fit_per_day, [day])
    fit = next(iter(batch.fits.values()))
    call(q.gjr_log_likelihood, day, fit.params)
    sims = call(q.resimulate_experiment, call(q.average_params, batch), 2, 100, 1)
    text = call(q.serialize.simulation_to_csv, sims[0])
    call(q.serialize.write_text_atomic, d / "probe_out" / "sim.csv", text)
    x = call(q.serialize.returns_from_sim_csv, text)
    curves(q, call, d, x)


def load_inputs(workload, d: Path):
    import numpy as np
    import qcorr

    if workload == "ticks":
        return (d / "ticks.csv").read_text(encoding="utf-8")
    if workload == "curves":
        return np.load(d / "series.npy")
    return qcorr.TimeSeries(np.load(d / "day.npy"), label="day")


def main(argv) -> int:
    workload, d = argv[1], Path(argv[2])
    shutil.rmtree(d / "probe_out", ignore_errors=True)
    start = time.perf_counter()
    import qcorr.cli
    import qcorr.serialize

    import_s = time.perf_counter() - start
    q = sys.modules["qcorr"]
    inputs = load_inputs(workload, d)
    call = Calls()
    error = None
    start = time.perf_counter()
    try:
        {"ticks": ticks, "curves": curves, "montecarlo": montecarlo}[workload](
            q, call, d, inputs)
    except Exception as exc:  # reported as one failed operation
        error = f"{type(exc).__name__}: {exc}"
    first_call_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "first_call_s": first_call_s,
                      "attempted": call.attempted, "failed": int(error is not None),
                      "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
