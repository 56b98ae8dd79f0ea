"""qcorr benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {ticks,curves,montecarlo} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  The run

  1. writes the workload's fixture for the seed under .perfbench_work/,
  2. starts SETUP_SAMPLES fresh interpreters that each time `import
     qcorr.cli` plus one first call into every function the workload uses
     (setup_s is their median),
  3. starts the worker process, which runs checked passes for S seconds
     of pass time (pass_s is the median untraced pass; peak_rss_mb is the
     worker's peak resident memory),
  4. prints every metric by name with its unit, machine information and
     the fixture's design, and as its last line one JSON object:
     {"correct", "attempted", "failed", "metrics"}; the same, with every
     sample, goes to .perfbench_work/<workload>/result.json.

Times are scaled to a reference machine speed measured by a calibration
kernel run around each sample (see calibrate.py); raw times are printed too.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics, derived from spans recorded around each
call into qcorr (written to .perfbench_work/<workload>/spans.json).
Failures of the program are counted in `failed`; the run still exits 0.
It exits 2 without a result if the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
TIMEOUT_S = 170  # the whole run, so that it ends within three minutes
# One BLAS thread: the workloads are single-process and the 2-core
# sandbox is shared, so extra threads add noise and no signal.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def machine_info() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "loadavg_1m": os.getloadavg()[0],
    }


def run_json(argv, env, cwd, deadline) -> dict:
    """Run a helper in its own process group; parse its last stdout line."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(argv[1]).name} did not finish within {TIMEOUT_S} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{Path(argv[1]).name} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile_line(samples) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} s over {n} pass(es)"
    if n >= 20:
        text += f"; p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.6g} s"
    return text


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "qcorr" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {src / 'qcorr'} is missing")
    os.environ.update(THREAD_ENV)  # before numpy is imported, here and in every child
    env = {k: v for k, v in os.environ.items() if k != "QCORR_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(HERE))
    import calibrate
    import fixtures

    run_dir = root / ".perfbench_work" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    design = fixtures.build(args.workload, args.seed, run_dir)

    machine = machine_info()

    probes = []
    before = calibrate.sample()
    for _ in range(SETUP_SAMPLES):
        probe = run_json([sys.executable, str(HERE / "setup_probe.py"), args.workload,
                          str(run_dir / "setup")], env, run_dir, deadline)
        after = calibrate.sample()
        probe["setup_s"] = calibrate.scale(probe["import_s"] + probe["first_call_s"], before, after)
        probe["scaled_import_s"] = calibrate.scale(probe["import_s"], before, after)
        probes.append(probe)
        before = after
    worker = run_json(
        [sys.executable, str(HERE / "worker.py"), args.workload, str(run_dir), str(args.seconds),
         str(args.trace)],
        env, run_dir, deadline,
    )

    setup = [p["setup_s"] for p in probes]
    speed = worker["calibration_s"]
    machine["calibration_median_s"] = statistics.median(speed)
    machine["calibration_spread"] = (max(speed) - min(speed)) / statistics.median(speed)
    attempted = worker["attempted"] + sum(p["attempted"] for p in probes)
    failed = worker["failed"] + sum(p["failed"] for p in probes)
    failures = [p["error"] for p in probes if p["error"]] + worker["failures"]
    passes = worker["pass_s"]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(passes),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# machine {json.dumps(machine)}")
    print(f"# fixture {json.dumps({k: v for k, v in design.items() if k not in ('accepted', 'true_params')})}")
    print(f"# setup_s samples {[round(s, 4) for s in setup]}; raw import + first call "
          f"{[(round(p['import_s'], 4), round(p['first_call_s'], 4)) for p in probes]}")
    print(f"# pass_s {percentile_line(passes)}; raw {percentile_line(worker['raw_pass_s'])}")
    print(f"# pass_s samples {[round(x, 4) for x in passes]}")
    if args.trace:
        layer_rows = worker.get("layers", [])
        layers = {}
        for m in spec["per_layer"]:
            values = [row.get(m["name"], 0.0) for row in layer_rows]
            layers[m["name"]] = statistics.median(values) if values else 0.0
        layers["cli.import_s"] = statistics.median(p["scaled_import_s"] for p in probes)
        traced = worker["traced_pass_s"]
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(passes)
        print(f"# traced pass_s {percentile_line(traced)}")
        metrics = layers
    else:
        metrics = end_to_end
    error_rate = failed / attempted if attempted else 1.0
    for name, value in {**end_to_end, **metrics}.items():
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}")
    print(f"{args.workload}  error_rate = {error_rate:.6g} ratio ({failed} of {attempted} operations)")
    for message in failures:
        print(f"# failure: {message}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"args": vars(args), "machine": machine, "fixture": design, "setup": probes,
              "worker": {k: v for k, v in worker.items() if k != "layers"}, "result": result}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
