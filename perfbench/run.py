"""logsym benchmark: seeded workloads with known answers, end to end and per layer.

Usage, from the root of a checkout (nothing needs installing):

  python3 perfbench/run.py --workload poisson_identities --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30

--trace 0 measures the end-to-end metrics with tracing off, with times
scaled to a reference machine speed (REF_CALIB_S below); --trace 1 runs the
fixed rounds of a traced run and reports the per-layer metrics. The
last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}; the lines before it print each metric by name and unit. A
result file with the interpreter, core count, seed, hash seed and git
commit is written under .bench_out/.

Load model: closed loop, one client. One process runs one workload's
operations one after another and waits for each verdict; nothing queues.
Every process this script starts is a fresh interpreter started from it,
with the checkout's src added to PYTHONPATH and PYTHONHASHSEED derived from
the seed, and is waited for before it returns.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5  # set-up-only interpreters per run, besides the timed one
# Mean time of worker.calibrate() on the reference machine, a 2-core
# container running CPython 3.11.7. Each process's times are multiplied by
# REF_CALIB_S over the calibration time it measured itself, so they read as
# times at the reference speed and drifts in machine speed cancel.
REF_CALIB_S = 0.0055
DEADLINE_S = 170  # a run must end within 180 s

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def git_commit(root):
    """The checked-out commit read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def hash_seed(seed):
    return seed % 4294967296


def child_env(seed):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    return env


def spawn(args, seed, deadline):
    """Run worker.py to completion; return (spawn time, its JSON result)."""
    argv = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv, env=child_env(seed), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out: %s" % " ".join(args)) from None
    if proc.returncode != 0:
        raise BenchError("worker failed (%d): %s\n%s" % (proc.returncode, " ".join(args),
                                                          proc.stderr[-2000:]))
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(workload, seed, seconds, deadline):
    common = ["--workload", workload, "--seed", seed]
    setups, raw_setups = [], []
    for k in range(SETUP_RUNS + 1):
        mode = ["--mode", "setup"] if k < SETUP_RUNS else ["--mode", "timed", "--seconds", seconds]
        t0, res = spawn(common + mode, seed, deadline)
        raw_setups.append(res["ready"] - t0)
        setups.append(raw_setups[-1] * REF_CALIB_S / res["setup_calib_s"])
    scale = REF_CALIB_S / res["calib_s"]
    raw = {"ops_per_s": res["attempted"] / res["op_s"], "op_p50_ms": res["op_p50_ms"],
           "op_p90_ms": res["op_p90_ms"], "setup_s": statistics.median(raw_setups)}
    metrics = {
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "op_p90_ms": raw["op_p90_ms"] * scale,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {"fail_ratio": res["failed"] / res["attempted"], "rounds": res["rounds"],
             "failed_kinds": res["failed_kinds"], "speed_scale": scale,
             "raw": raw, "raw_setup_samples_s": raw_setups}
    return res, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, extra


def traced(workload, seed, deadline, out_dir):
    """The fixed rounds once untraced and twice traced; the two traced runs
    must agree on every call count and every verdict."""
    common = ["--workload", workload, "--seed", seed, "--mode", "fixed"]
    _, plain = spawn(common + ["--trace", 0], seed, deadline)
    runs = []
    for k in (1, 2):
        spans = out_dir / ("spans-%s-seed%d-%d.jsonl" % (workload, seed, k))
        runs.append(spawn(common + ["--trace", 1, "--spans", spans], seed, deadline)[1])
    first, second = runs
    deterministic = (first["calls"] == second["calls"]
                     and first["verdicts"] == second["verdicts"] == plain["verdicts"])
    layers = dict(first["layers"])
    layers["trace.overhead_ratio"] = (first["op_s"] / first["calib_s"]) / (
        plain["op_s"] / plain["calib_s"])
    layers["trace.ops"] = first["attempted"]
    layers["trace.op_s"] = first["op_s"]
    units = layer_units()
    missing = sorted(set(units) - set(layers))
    if missing:
        raise BenchError("traced run lacks per-layer metrics: %s" % ", ".join(missing))
    extra = {"deterministic": deterministic, "spans": first["spans"],
             "untraced_op_s": plain["op_s"], "failed_kinds": first["failed_kinds"]}
    metrics = {k: (layers[k], unit) for k, unit in units.items()}
    return first, metrics, extra, deterministic


def layer_units():
    """Name -> unit of every per-layer metric that BENCHMARK.json lists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_workload(workload, seed, seconds, trace, out_dir):
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        res, metrics, extra, deterministic = traced(workload, seed, deadline, out_dir)
    else:
        res, metrics, extra = untraced(workload, seed, seconds, deadline)
        deterministic = True
    result = {
        "correct": res["failed"] == 0 and deterministic,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "hash_seed": hash_seed(seed),
        "seconds": seconds, "trace": trace, "python": sys.version.split()[0],
        "implementation": platform.python_implementation(), "cores": os.cpu_count(),
        "commit": git_commit(ROOT), "result": result, "detail": extra,
    }
    with open(out_dir / ("%s-seed%d-trace%d.json" % (workload, seed, trace)), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    missing = [p for p in ("src/logsym/__init__.py", "sessions/exact.lsx", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print("not a logsym checkout: missing %s" % ", ".join(missing), file=sys.stderr)
        return 2
    # the build step: byte-compile once, so set-up times exclude compilation
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, extra = run_workload(name, args.seed, args.seconds, args.trace, out_dir)
        except BenchError as e:
            print("%s: %s" % (name, e), file=sys.stderr)
            return 1
        results[name] = result
        for metric, m in result["metrics"].items():
            print("%-20s %-34s %-14.6g %s" % (name, metric, m["value"], m["unit"]))
        if not args.trace:
            print("%-20s %-34s %-14.6g %s" % (name, "fail_ratio", extra["fail_ratio"], "ratio"))
        print("%-20s %-34s %-14d %s" % (name, "samples", result["attempted"], "ops"))
        if not result["correct"]:
            print("%s: incorrect: %d failed (%s)%s" % (
                name, result["failed"], ", ".join(extra["failed_kinds"]),
                "" if extra.get("deterministic", True) else "; traced runs disagree"),
                file=sys.stderr)
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
