#!/usr/bin/env python3
"""Benchmark of dihedral-magic: one seeded workload, one process.

    python3 mrsbench/run.py --workload linear_pipeline --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source tree; the library is imported from its
src/ directory, with whichever kernel backend imports.  The op loop is
closed: one client, each op starts when the previous one returns.
--workload all runs the three workloads in turn, each in a fresh process.

--trace 0 measures the end-to-end metrics: ops run until their timed
library calls add up to --seconds, and the times are scaled to a
reference machine speed measured during the run (calibration.py; the
raw values are printed too).  --trace 1 measures the per-layer
metrics: it runs the workload's first trace_ops ops as a fixed pass,
alternating untraced and traced passes until --seconds of wall time
have gone, and writes the spans of the traced passes to
mrsbench/out/trace-<workload>-<seed>.jsonl.

Every op's output is checked against mrsbench/reference.py.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from itertools import islice
from pathlib import Path

from calibration import EVERY_S, Calibration
from spans import Tracer, per_layer_metrics
from workloads import OUT_DIR, WORKLOADS, CheckFailed, Stopwatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 5
WARMUP_OPS = 3
WARMUP_SEED = 0  # the same warm-up whatever the seed, so set-up time is too

_clock = time.perf_counter


def fresh_import():
    """Import dihedral_magic (and its cli) from scratch, from SRC."""
    for name in [n for n in sys.modules
                 if n == "dihedral_magic" or n.startswith("dihedral_magic.")]:
        del sys.modules[name]
    dm = importlib.import_module("dihedral_magic")
    importlib.import_module("dihedral_magic.cli")
    if Path(dm.__file__).resolve().parent != SRC / "dihedral_magic":
        raise ImportError(f"dihedral_magic came from {dm.__file__}, "
                          f"not from {SRC}")
    return dm


def setup(workload_cls, seed):
    """Import, generate the seeded inputs and warm up, SETUP_REPS times;
    returns the last workload and the median set-up time."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = _clock()
        wl = workload_cls(fresh_import(), seed)
        for _, op in islice(wl.ops(WARMUP_SEED), WARMUP_OPS):
            wl.run(op, Stopwatch())
        times.append(_clock() - t0)
    return wl, statistics.median(times)


def git_commit():
    """HEAD of the source tree's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(dm, args):
    from dihedral_magic import _backend
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": dm.active_backend(),
        "compiled_loaded": _backend.compiled is not None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def run_op(wl, op, tally, tracer=None):
    """Run and check one op (the check outside any trace); returns the
    op's timed seconds."""
    sw = Stopwatch()
    tally["attempted"] += 1
    try:
        out = wl.run(op, sw)
        if tracer is not None:
            tracer.paused = True
        try:
            wl.check(op, out)
        finally:
            if tracer is not None:
                tracer.paused = False
    except CheckFailed as exc:
        tally["failed"] += 1
        tally[f"wrong: {exc}"] += 1
    except Exception as exc:  # any raise is a failed op, not a crash
        tally["failed"] += 1
        reason = f"raised: {type(exc).__name__}: {exc}"[:200]
        if not tally[reason]:
            traceback.print_exc(file=sys.stderr)
        tally[reason] += 1
    return sw.total


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def measure(wl, seconds, tally, cal):
    """Run ops until their timed calls add up to `seconds`, taking a
    calibration sample every EVERY_S of them; returns raw metrics."""
    latencies = []
    busy = next_sample = 0.0
    for _, op in wl.ops():
        if busy >= next_sample:
            cal.sample()
            next_sample += EVERY_S
        dt = run_op(wl, op, tally)
        latencies.append(dt)
        busy += dt
        if busy >= seconds:
            break
    latencies.sort()
    ok = tally["attempted"] - tally["failed"]
    ms = 1e3
    return {
        "ops_per_s": (ok / busy, "ops/s"),
        "op_p50_ms": (percentile(latencies, 0.50) * ms, "ms"),
        "op_p90_ms": (percentile(latencies, 0.90) * ms, "ms"),
        "op_p99_ms": (percentile(latencies, 0.99) * ms, "ms"),
    }


# Printed but not in the JSON metrics: failed_frac is 0 on correct code,
# and op_p99_ms spread by up to 0.31 (IQR/median) over ten runs of
# search_certify on a shared machine, more than any bound allows.
UNBOUNDED = ("op_p99_ms",)


def measure_traced(wl, seconds, tally, trace_path, header):
    """Alternate untraced and traced passes over the first trace_ops ops."""
    ops = [op for _, op in islice(wl.ops(), wl.trace_ops)]
    tracer = Tracer()
    plain, traced, passes = [], [], []
    t_end = _clock() + seconds
    pair_no = 0
    while pair_no == 0 or _clock() < t_end:
        for with_trace in ((False, True) if pair_no % 2 == 0
                           else (True, False)):
            if not with_trace:
                plain.append(sum(run_op(wl, op, tally) for op in ops))
                continue
            first = len(tracer.start)
            before = tracer.counts + wl.events
            tracer.install()
            try:
                total = 0.0
                for n, op in enumerate(ops):
                    tracer.op_id = n
                    span = tracer.open("op")
                    total += run_op(wl, op, tally, tracer)
                    tracer.close(span)
            finally:
                tracer.uninstall()
            traced.append(total)
            last = len(tracer.start)
            counts = tracer.counts + wl.events - before
            passes.append({"layers": tracer.layer_totals(first, last),
                           "counts": counts})
        pair_no += 1
    for p in passes[1:]:
        if p["counts"] != passes[0]["counts"]:
            tally["failed"] += 1
            tally["wrong: traced passes disagree on counts"] += 1
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    tracer.write(trace_path, header)
    return per_layer_metrics(passes, overhead)


def run_all(args):
    """Run every workload, one fresh process each, one after another."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode
        worst = max(worst, code)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help='"all" runs each workload in a process of its own')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        sys.exit(run_all(args))
    if not (SRC / "dihedral_magic" / "__init__.py").is_file():
        sys.exit(f"error: no dihedral_magic sources under {SRC}; run from "
                 "the root of a source tree of the repository")
    sys.path.insert(0, str(SRC))

    wl, setup_s = setup(WORKLOADS[args.workload], args.seed)
    env = environment(wl.dm, args)
    print("env " + json.dumps(env, sort_keys=True))
    tally = Counter()
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        metrics = measure_traced(wl, args.seconds, tally, path, env)
        print(f"spans written to {path}")
    else:
        cal = Calibration()
        raw = measure(wl, args.seconds, tally, cal)
        raw["setup_s"] = (setup_s, "s")
        f = cal.factor()
        print(f"speed factor {f:.4f}: calibration median "
              f"{1e3 * statistics.median(cal.samples):.4f} ms over "
              f"{len(cal.samples)} samples; raw:", ", ".join(
                  f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))
        metrics = {k: (v / f if k == "ops_per_s" else v * f, unit)
                   for k, (v, unit) in raw.items()}
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    attempted, failed = tally.pop("attempted"), tally.pop("failed", 0)
    print(f"ops attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.6f} ratio")
    for reason, count in sorted(tally.items()):
        print(f"  {count} x {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name in UNBOUNDED:
        metrics.pop(name, None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
