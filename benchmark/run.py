#!/usr/bin/env python3
"""Benchmark for qsu2: one workload per invocation, in a fresh interpreter.

    python3 benchmark/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Workloads: verify-sweep, verify-high, harmonic-gram, radial-shooting (see
README.md in this directory).  The work runs on one thread with every
BLAS/OpenMP pool pinned to 1.

--trace 0 times whole rounds of the workload for --seconds and prints the
end-to-end metrics.  --trace 1 runs one warm-up round, rounds untraced for
half of --seconds, then the same number of rounds with every layer's
public functions wrapped, and prints per-layer figures per round plus the
tracing overhead; the spans go to .bench_trace/ at the checkout root.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the run and
its environment.  The exit code is nonzero, and no result is printed, when
qsu2 cannot be imported from src/ next to this directory.
"""

from __future__ import annotations

import os

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
# before numpy is imported anywhere in this process or its children
for _var in PINNED:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
# the speed sample's time at the reference host speed
REFERENCE_SAMPLE_S = 0.0025
# speed samples around each timed segment: at least this many, and after
# it at least this share of its time
MIN_SAMPLES, SAMPLE_SHARE = 2, 0.03

SETUP = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import qsu2, qsu2.cli
import workloads
workloads.WORKLOADS[{name!r}]({seed!r}, '.')
"""


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(1)


def speed_sample():
    """A fixed slice of plain-Python float and dict work (2-3 ms on a
    2.1 GHz Xeon vCPU).

    Timed between items, it follows the host's speed: on a shared machine
    that speed drifts by up to 45% over tens of seconds, and every timing
    metric is rescaled by it (see README.md)."""
    v0, v1, acc = 0.0, 1e-3, 0.0
    for i in range(1, 12000):
        f = 1.0 / (i * i) - 0.5
        v0, v1 = v1, (2.0 + f * 1e-4) * v1 - v0
        acc += abs(v1)
    a = {k: 1.0 / (k + 1) for k in range(40)}
    out = {}
    for i, x in a.items():
        for j, y in a.items():
            out[i + j] = out.get(i + j, 0.0) + x * y
    return acc, out


class HostSpeed:
    """Times segments of a run between sets of speed samples.  A segment
    is rescaled by the median of the sample sets just before and after it,
    which follows the host's speed at that moment.  Back-to-back segments
    share the set between them."""

    def __init__(self, back_to_back: bool):
        self.back_to_back = back_to_back
        self.segments, self.slowdowns = [], []
        self._last = None

    def _sample(self, segment_s: float) -> list:
        times = []
        while len(times) < MIN_SAMPLES or sum(times) < SAMPLE_SHARE * segment_s:
            t0 = clock()
            speed_sample()
            times.append(clock() - t0)
        return times

    def time(self, fn, *args):
        before = self._last if self.back_to_back and self._last else self._sample(0.0)
        t0 = clock()
        fn(*args)
        segment_s = clock() - t0
        self._last = self._sample(segment_s)
        self.segments.append(segment_s)
        self.slowdowns.append(statistics.median(before + self._last) / REFERENCE_SAMPLE_S)

    def rescaled(self) -> list:
        return [t / f for t, f in zip(self.segments, self.slowdowns)]


class SetupTimer:
    """Fresh interpreters that import qsu2 and qsu2.cli and build the
    workload's inputs, spread evenly over the timed phase."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.code = SETUP.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
        self.seconds = seconds
        self.speed = HostSpeed(back_to_back=False)

    def _run(self):
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up interpreter failed:\n{proc.stderr}")

    def catch_up(self, elapsed: float):
        due = SETUP_RUNS if elapsed >= self.seconds else math.ceil(SETUP_RUNS * elapsed / self.seconds)
        while len(self.speed.segments) < due:
            self.speed.time(self._run)


def import_qsu2() -> float:
    sys.path[:0] = [str(SRC)]
    t0 = clock()
    try:
        import qsu2
        import qsu2.cli  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import qsu2 from {SRC}: {exc}")
    dt = clock() - t0
    if Path(qsu2.__file__).resolve().parent.parent != SRC:
        fail(f"qsu2 was imported from {qsu2.__file__}, not from {SRC}")
    return dt


def run_rounds(workload, tally, seconds: float, rounds: int | None = None, run_item=None,
               speed: HostSpeed | None = None, after_round=None):
    """Whole rounds until `seconds` have passed (or exactly `rounds`).
    With `speed`, each item and the checks after it are one segment."""
    run_item = run_item or workload.run_item
    done = 0
    t0 = clock()
    while True:
        for item in workload.items:
            if speed is None:
                run_item(item, tally)
            else:
                speed.time(run_item, item, tally)
        done += 1
        elapsed = clock() - t0
        if after_round is not None:
            after_round(elapsed)
        if (rounds is None and elapsed >= seconds) or done == rounds:
            return done


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {v: os.environ.get(v) for v in PINNED},
    }


def end_to_end(name, seed, seconds, workload):
    from workloads import Tally

    setup = SetupTimer(name, seed, seconds)
    tally = Tally()
    speed = HostSpeed(back_to_back=True)
    rounds = run_rounds(workload, tally, seconds, speed=speed, after_round=setup.catch_up)
    item_s = [t / f for t, f in zip(tally.item_s, speed.slowdowns)]
    metrics = {
        "setup_s": statistics.median(setup.speed.rescaled()),
        "ops_per_s": tally.attempted / sum(speed.rescaled()),
        "item_p50_s": statistics.median(item_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": statistics.median(setup.speed.segments),
        "ops_per_s": tally.attempted / sum(speed.segments),
        "item_p50_s": statistics.median(tally.item_s),
    }
    info = {"rounds": rounds, "items": len(tally.item_s), "wall_s": sum(speed.segments), "raw": raw,
            "slowdown": {"setup": statistics.median(setup.speed.slowdowns),
                         "timed": statistics.median(speed.slowdowns)}}
    return tally, metrics, info


def per_layer(name, seed, seconds, workload, import_s):
    import spans
    from workloads import Tally

    run_rounds(workload, Tally(), 0, rounds=1)  # first-call costs stay out of both phases
    plain = HostSpeed(back_to_back=True)
    rounds = run_rounds(workload, Tally(), seconds / 2, speed=plain)
    rec = spans.Recorder()
    tally = Tally()
    traced = HostSpeed(back_to_back=True)
    patches = spans.install(rec)
    try:
        run_rounds(workload, tally, 0, rounds, rec.wrap(workload.run_item, "bench.item"), speed=traced)
    finally:
        spans.uninstall(patches)
    rec.dump(ROOT / ".bench_trace" / f"{name}-seed{seed}.npz")
    summary = rec.summary()
    wall = sum(traced.segments)

    def get(span, key):
        return summary.get(span, {}).get(key, 0) / rounds

    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    for span, s in summary.items():
        layer = span.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s["self_s"] / rounds
    calls = summary.get("jackson.inner_product", {}).get("count", 0)
    metrics = {
        "cli.import_s": import_s,
        **{f"{layer}.self_s": v for layer, v in layer_self.items()},
        "bench.self_s": wall / rounds - sum(layer_self.values()),
        "trace.wall_s": wall / rounds,
        "trace.overhead_s": (sum(traced.rescaled()) - sum(plain.rescaled())) / rounds,
        "qcore.qnum_calls": get("qcore.qnum", "count"),
        "irrep.matmul_s": get("irrep.matmul", "incl_s"),
        "irrep.matmul_calls": get("irrep.matmul", "count"),
        "irrep.verify_algebra_s": get("irrep.verify_algebra", "incl_s"),
        "angular.build_y_calls": get("angular.build_y", "count"),
        "jackson.inner_product_us": 1e6 * summary["jackson.inner_product"]["incl_s"] / calls if calls else 0.0,
        "jackson.gram_err_max": tally.gram_err_max,
        "spectra.radial_verify_s": get("spectra.radial_verify", "incl_s"),
        "spectra.bisections": tally.bisections / rounds,
        "spectra.grid_steps": tally.grid_steps / rounds,
        "spectra.abs_err_max": tally.abs_err_max,
    }
    return tally, metrics, {"rounds": rounds, "wall_s": wall, "untraced_wall_s": sum(plain.segments),
                            "spans": len(rec.start)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # samples, items and set-up interpreters share one CPU, so the samples
    # see the speed the work sees
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    import_s = import_qsu2()
    import mpmath
    import workloads

    dps_start = mpmath.mp.dps
    tmpdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        if args.trace:
            tally, metrics, info = per_layer(args.workload, args.seed, args.seconds, workload, import_s)
        else:
            tally, metrics, info = end_to_end(args.workload, args.seed, args.seconds, workload)
        workload.check(tally)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if dps_start != 15:
        tally.problem(f"mpmath.mp.dps was {dps_start} before the workload ran, not the default 15")
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    record = {"workload": args.workload, "seed": args.seed, **info, "env": environment(),
              "mpmath_dps": [dps_start, mpmath.mp.dps], "problems": tally.problems}
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
