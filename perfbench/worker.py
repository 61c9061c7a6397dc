"""One workload in one fresh process: set up, run the closed loop, check.

run.py starts this file with the environment pinned; it prints one JSON
line with the raw measurements.  With ``--setup-only`` it stops after set-up
and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MAX_JOBS = 10_000
# Times are reported in calibrated seconds: wall time scaled by CAL_REF_S over
# the calibration kernel's time measured beside it.
CAL_REF_S = 0.002
WALL_CAP = 1.25


def calibrate():
    """Mean of five runs of a fixed kernel in the style of the library's hot
    loops: numpy scalar indexing in a triple loop, then float arithmetic
    over a list of tuples.  The mean, not the fastest run: the host's speed
    changes from one millisecond to the next and a job runs at its average
    speed (the mean gave the least job-to-job dispersion of calibrated job
    times among the mean, the median and the fastest of three or five)."""
    a = np.arange(256, dtype=float).reshape(16, 16) % 7.0
    pts = [(0.01 * i, 0.003 * i) for i in range(1500)]
    total = 0.0
    for _ in range(5):
        start = time.perf_counter()
        acc = 0.0
        for i in range(16):
            for j in range(16):
                for k in range(0, 16, 2):
                    if a[i, k] > a[i, j] + a[j, k]:
                        acc += 1.0
        for p, q in zip(pts, pts[1:]):
            acc += math.sqrt(abs((q[0] - p[0]) ** 2 - (q[1] - p[1]) ** 2))
        total += time.perf_counter() - start
    return total / 5


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the launcher just before "
                             "it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    return parser.parse_args()


def main():
    args = parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import lorentz_lab
    if Path(lorentz_lab.__file__).resolve().parent != ROOT / "src" / "lorentz_lab":
        raise SystemExit(f"imported lorentz_lab from {lorentz_lab.__file__}, "
                         f"not from {ROOT / 'src'}")
    import jobs
    from oracles import Mismatch
    from tracing import NullTracer, Tracer

    job = jobs.WORKLOADS[args.workload]
    job_rng = random.Random(f"{args.workload}/{args.seed}")
    seeds = [job_rng.randrange(1, 2 ** 31) for _ in range(MAX_JOBS)]
    setup_wall = time.monotonic() - args.t0
    setup = {"setup_wall_s": setup_wall,
             "setup_s": setup_wall * CAL_REF_S / calibrate()}
    if args.setup_only:
        print(json.dumps(setup))
        return

    # In a traced run every other job is traced; the untraced ones give the
    # baseline for the tracing overhead.
    tracer = Tracer() if args.trace else None
    untraced = NullTracer()
    job_s, cal_s, traced, failures = [], [], [], []
    # The loop runs until the calibrated job time reaches --seconds, so the
    # job count, and with it the tail percentile, does not follow the host's
    # speed; a slow host stops it at WALL_CAP times --seconds of wall time.
    busy = wall = 0.0
    index = 0
    min_jobs = 2 if tracer is not None else 1
    while (index < min_jobs or (busy < args.seconds
                                and wall < WALL_CAP * args.seconds)) \
            and index < MAX_JOBS:
        is_traced = tracer is not None and index % 2 == 1
        tr = tracer if is_traced else untraced
        gc.collect()
        cal_before = calibrate()
        if is_traced:
            tracer.begin_job(index)
        error = None
        start = time.perf_counter()
        try:
            checks = job(tr, seeds[index], index)
        except Exception as exc:
            checks = []
            error = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        cal = 0.5 * (cal_before + calibrate())
        if is_traced:
            tracer.end_job(index, start, end, CAL_REF_S / cal)
        job_s.append(end - start)
        cal_s.append(cal)
        traced.append(is_traced)
        busy += (end - start) * CAL_REF_S / cal
        wall += end - start
        try:
            for check in checks:
                check()
        except Mismatch as exc:
            error = f"oracle: {exc}"
        except Exception:
            error = "oracle raised: " + traceback.format_exc(limit=3)
        if error is not None:
            failures.append({"job": index, "seed": seeds[index],
                             "error": error})
        index += 1

    calibrated = [t * CAL_REF_S / c for t, c in zip(job_s, cal_s)]
    out = {
        **setup,
        "job_wall_s": [t for t, tr in zip(job_s, traced) if not tr],
        "job_s": [t for t, tr in zip(calibrated, traced) if not tr],
        "attempted": index,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        layers = tracer.layer_table(jobs.CALLS, jobs.SIZED, jobs.PER_CALL,
                                    jobs.COUNTS)
        on = [v for v, tr in zip(calibrated, traced) if tr]
        off = [v for v, tr in zip(calibrated, traced) if not tr]
        layers["trace.overhead_ratio"] = (
            statistics.mean(on) / statistics.mean(off) - 1.0, "ratio")
        out["layers"] = layers
        out["traced_jobs"] = len(on)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
