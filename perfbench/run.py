"""Benchmark runner: times one workload of psdfit and checks its outputs.

    python3 perfbench/run.py --workload mc-atomic --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src``.
The run sets up its inputs several times (median reported as
``setup_s``), then repeats whole rounds of the workload's operations,
as many as come closest to ``--seconds`` in total, checks every output
against independent references and prints one JSON object as the last
line of standard output.

End-to-end times are scaled to a reference machine speed.  A fixed
calibration job (plain Python and numpy, no psdfit) runs after every
operation, once per CAL_EVERY_S of its time, and around every set-up;
each round's time is multiplied by CALIBRATION_S / median(calibration
time during that round), and the set-up times by the same ratio over
the set-up's calibrations.  On a shared host the same replication takes
anywhere from 0.5 s to 0.8 s from one minute to the next, and the
scaling cancels most of that drift (see README.md).  Raw times and the
scales go to standard error.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` odd rounds run with span-recording wrappers around the
package's layer functions and even rounds without, on the same inputs;
the per-layer metrics (raw seconds) come from the traced rounds and the
overhead from comparing the two.  Spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: single-process runs measure the program, not the
# machine's other tenants; must be set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# median calibration time on the reference box at its usual speed; it
# only fixes the unit of the scaled times
CALIBRATION_S = 0.015
CAL_EVERY_S = 0.5

sys.path.insert(0, str(SRC))
try:
    import psdfit
except ImportError as err:
    print(f"perfbench: cannot import psdfit from {SRC}: {err}", file=sys.stderr)
    sys.exit(2)
if SRC not in Path(psdfit.__file__).resolve().parents:
    print(f"perfbench: psdfit comes from {psdfit.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Verdict  # noqa: E402

LAYERS = {      # per-layer metric -> span name, all in seconds per operation
    "simulate.population_s": "simulate.population",
    "simulate.spectrum_s": "simulate.spectrum",
    "estimator.build_unet_s": "estimator.build_unet",
    "estimator.fit_discrete_s": "estimator.fit_discrete",
    "estimator.fit_laguerre_s": "estimator.fit_laguerre",
    "estimator.fit_inverse_cubic_s": "estimator.fit_inverse_cubic",
    "models.wasserstein_atomic_s": "models.wasserstein_atomic",
    "models.wasserstein_smooth_s": "models.wasserstein_smooth",
    "mptransform.curve_s": "mptransform.curve",
    "mptransform.support_s": "mptransform.support",
    "dataio.load_returns_s": "dataio.load_returns",
    "dataio.correlation_spectrum_s": "dataio.correlation_spectrum",
    "dataio.kde_s": "dataio.kde",
    "dataio.write_outputs_s": "dataio.write_outputs",
}

_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.standard_normal((120, 120))
_CAL_MATRIX = _CAL_MATRIX @ _CAL_MATRIX.T
_CAL_TABLE = _CAL_RNG.random(4_000_000)                 # 32 MB, beyond the caches
_CAL_INDEX = _CAL_RNG.integers(0, _CAL_TABLE.size, 200_000)
_CAL_CSV = "\n".join(",".join(repr(float(v)) for v in row)
                     for row in _CAL_RNG.standard_normal((150, 100)))


def calibrate():
    """Seconds taken by a fixed job shaped like the program's work: a
    scalar complex iteration, small-array numpy, one eigvalsh, scattered
    reads from a table larger than the caches and CSV float parsing.

    Host slowdowns hit cache-bound code hardest, so a tight loop alone
    follows them poorly; the table reads and the parsing are there to
    slow down with the program.
    """
    start = time.perf_counter()
    s = 0j
    for _ in range(10_000):
        s = 0.5 * s - 0.5 / (0.3 + 0.2j - 0.5 / (1.0 + s))
    for _ in range(100):
        np.sort(_CAL_MATRIX[0] * s.real)
    np.linalg.eigvalsh(_CAL_MATRIX)
    _CAL_TABLE[_CAL_INDEX].sum()
    [[float(cell) for cell in row] for row in csv.reader(io.StringIO(_CAL_CSV))]
    return time.perf_counter() - start


def time_import():
    """Seconds for a fresh interpreter to import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import psdfit"], env=env, check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def set_up(workload, seed, workdir):
    """Set up SETUP_REPEATS times: (state, seconds each, calibrations)."""
    times, cal, state = [], [calibrate()], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        time_import()
        state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
        cal.append(calibrate())
    return state, times, cal


def run_round(workload, state, k, inputs, tracer=None):
    """One round: its operations and the calibration times taken after
    each, one per CAL_EVERY_S of operation time and at least one."""
    ops, cal = [], []
    for label, call in workload.round_ops(state, k, inputs):
        op = Op(label)
        if tracer is not None:
            tracer.op = f"{k}:{label}"
            span = tracer.begin("op")
        start = time.perf_counter()
        try:
            op.output = call()
        except Exception as err:   # recorded as a failed operation
            op.error = f"{type(err).__name__}: {err}"
        op.seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
        ops.append(op)
        cal += [calibrate() for _ in range(max(1, round(op.seconds / CAL_EVERY_S)))]
    return ops, cal


def measure(workload, state, seconds, trace):
    """Whole rounds, as many as come closest to ``seconds`` in total.

    Returns the rounds, each round's raw seconds and its scale
    CALIBRATION_S / median calibration time.  Traced runs alternate
    untraced and traced rounds, a pair sharing its inputs, and always
    end on a whole pair.
    """
    tracer = tracing.Tracer() if trace else None
    rounds, times, scales, traced = [], [], [], []
    begin = time.perf_counter()
    k = 0
    while True:
        on = trace and k % 2 == 1
        if on:
            tracing.install(tracer)
        try:
            ops, cal = run_round(workload, state, k, k // 2 if trace else k,
                                 tracer if on else None)
        finally:
            if on:
                tracer.restore()
        times.append(sum(op.seconds for op in ops))
        scales.append(CALIBRATION_S / statistics.median(cal))
        traced.append(on)
        rounds.append((k, ops))
        k += 1
        elapsed = time.perf_counter() - begin
        # stop at the whole number of rounds closest to ``seconds``
        if (elapsed + 0.5 * elapsed / k > seconds and k >= (2 if trace else 1)
                and not (trace and k % 2)):
            break
    return rounds, times, scales, traced, tracer


def layer_metrics(workload, state, tracer, rounds, scaled, traced):
    ops_traced = sum(len(ops) for (k, ops), on in zip(rounds, traced) if on)
    selfs = tracer.self_times()
    counters = tracer.counters
    metrics = {name: (selfs.get(span, 0.0) / ops_traced, "s")
               for name, span in LAYERS.items()}
    points = counters["curve_points"]
    metrics["mptransform.curve_point_ms"] = (
        1e3 * selfs.get("mptransform.curve", 0.0) / points if points else 0.0, "ms")
    calls = counters["objective_calls"]
    metrics["estimator.fit_iterations"] = (counters["fit_iterations"] / ops_traced, "count")
    metrics["estimator.objective_calls"] = (calls / ops_traced, "count")
    metrics["estimator.pole_guard_hits"] = (counters["pole_guard_hits"] / ops_traced, "count")
    metrics["estimator.useful_objective_ratio"] = (
        (calls - counters["pole_guard_hits"]) / calls if calls else 1.0, "ratio")
    dists = [d for (k, ops), on in zip(rounds, traced) if on
             for d in workload.distances(state, ops)]
    metrics["estimator.mean_w"] = (statistics.fmean(dists) if dists else 0.0, "W1")
    layer_total = sum(v for n, v in selfs.items() if n != "op")
    op_total = layer_total + selfs.get("op", 0.0)
    metrics["trace.layer_share"] = (layer_total / op_total, "ratio")
    on = [t for t, flag in zip(scaled, traced) if flag]
    off = [t for t, flag in zip(scaled, traced) if not flag]
    metrics["trace.overhead_pct"] = (100.0 * (sum(on) / sum(off) - 1.0), "%")
    metrics["trace.spans_per_op"] = (len(tracer.spans) / ops_traced, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state, setup_times, setup_cal = set_up(workload, args.seed, workdir)
        rounds, times, scales, traced, tracer = measure(
            workload, state, args.seconds, bool(args.trace))
        verdict = Verdict()
        workload.check(state, rounds, verdict)
        attempted = sum(len(ops) for _, ops in rounds)
        scaled = [t * f for t, f in zip(times, scales)]
        setup_scale = CALIBRATION_S / statistics.median(setup_cal)
        if args.trace:
            metrics = layer_metrics(workload, state, tracer, rounds, scaled, traced)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            metrics = {"setup_s": (statistics.median(setup_times) * setup_scale, "s"),
                       "round_p50_s": (statistics.median(scaled), "s"),
                       "ops_per_s": (attempted / sum(scaled), "1/s")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = {"setup_s": statistics.median(setup_times),
           "round_p50_s": statistics.median(times),
           "ops_per_s": attempted / sum(times)}
    print(json.dumps({"raw": raw, "setup_scale": setup_scale,
                      "round_s": [round(t, 4) for t in times],
                      "round_scale": [round(f, 4) for f in scales]}), file=sys.stderr)
    for problem in verdict.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not verdict.problems,
        "attempted": attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
