"""One workload process: set up, run operations, report one JSON line.

Started by run.py in a fresh interpreter with the checkout's src on
PYTHONPATH and PYTHONHASHSEED pinned. Modes:

  setup  build the workload and stop where the first timed op would start
  timed  build, then run whole rounds until --seconds have passed; each
         later round is generated between rounds, outside the op timings
  fixed  build and generate the fixed rounds of a traced run, then run them
         (--trace 1 wraps the package first, so set-up is traced too)

The last line of stdout is the result; "ready" is time.monotonic() when the
first timed operation starts, which run.py compares with the spawn time.
"setup_calib_s" is the mean time of calibrate() over ten samples right after
set-up, and "calib_s" its mean over samples taken between operations, at
most one per CALIB_EVERY_S, so they spread evenly over the timed phase.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

MIN_OPS = 100
CALIB_EVERY_S = 0.1


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work: Fraction
    arithmetic in a dict keyed by tuples, like logsym's kernels, but touching
    no logsym code. Its time follows how fast the machine runs Python at the
    moment, so run.py can take drifts in machine speed out of the figures."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(2000):
        e = (i % 7, i % 5)
        acc[e] = acc.get(e, 0) + Fraction(i % 11 - 5, i % 4 + 1)
    return time.perf_counter() - t0


class Calibration:
    """calibrate() samples taken between operations, at most one per
    CALIB_EVERY_S."""

    def __init__(self):
        self.samples = []
        self.last = time.perf_counter()

    def between_ops(self):
        if time.perf_counter() - self.last >= CALIB_EVERY_S:
            self.samples.append(calibrate())
            self.last = time.perf_counter()


def run_ops(ops, tracer=None, calibration=None):
    """Run ops one after another; return per-op seconds and the indexes of
    ops that raised or whose verdict differs from the known answer."""
    latencies, failed = [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.start_op(i + 1)
        t0 = clock()
        try:
            ok = op.run() == op.expected
        except Exception as e:  # a raising op is a counted failure
            ok = False
            print("op %d (%s) raised %r" % (i, op.kind, e), file=sys.stderr)
        latencies.append(clock() - t0)
        if not ok:
            failed.append(i)
        if calibration is not None:
            calibration.between_ops()
    return latencies, failed


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.build(args.workload, args.seed, root)
    if args.mode == "fixed":
        fixed = itertools.islice(wl.rounds(), workloads.TRACE_ROUNDS[args.workload])
        ops = [op for ops in fixed for op in ops]
    out = {"ready": time.monotonic()}
    out["setup_calib_s"] = statistics.fmean(calibrate() for _ in range(10))
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "timed":
        latencies, failed, kinds = [], [], []
        calibration = Calibration()
        t_end = time.perf_counter() + args.seconds
        for r, ops in enumerate(wl.rounds(), 1):
            lat, bad = run_ops(ops, calibration=calibration)
            failed += [len(latencies) + i for i in bad]
            latencies += lat
            kinds += [op.kind for op in ops]
            if time.perf_counter() >= t_end and len(latencies) >= MIN_OPS:
                break
        out["rounds"] = r
    else:
        kinds = [op.kind for op in ops]
        calibration = Calibration()
        latencies, failed = run_ops(ops, tracer, calibration)
        out["verdicts"] = [i not in failed for i in range(len(ops))]
        if tracer is not None:
            out["layers"] = tracer.layer_metrics(sum(latencies))
            out["calls"] = dict(sorted(tracer.calls.items()))
            out["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write_spans(args.spans)

    calibration.samples.append(calibrate())
    lat = sorted(latencies)
    out.update({
        "calib_s": statistics.fmean(calibration.samples),
        "attempted": len(latencies),
        "failed": len(failed),
        "failed_kinds": sorted({kinds[i] for i in failed}),
        "op_s": sum(latencies),
        "op_p50_ms": percentile(lat, 0.5) * 1e3,
        "op_p90_ms": percentile(lat, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
