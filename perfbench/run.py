#!/usr/bin/env python3
"""Benchmark of lorentz-lab: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py                        # every workload
    python3 perfbench/run.py --workload splitting --seed 3 --seconds 30
    python3 perfbench/run.py --workload curvature --trace 1

Each workload runs in fresh processes started from the repository root with
LORENTZ_LAB_THREADS and the BLAS thread counts pinned to 1: a few that only
set up (imports plus fixed inputs), then one that runs a closed loop of jobs
for ``--seconds`` of job time and checks every verdict against the
benchmark's oracles.  Untraced runs print the end-to-end metrics; traced runs
(``--trace 1``) print the per-layer metrics and write the spans and the
layer table under perfbench/out/.  The last line of the output is one JSON
object.  The exit code is 1 when any job failed (error ratio above 0) and 2
when the benchmark could not run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
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
OUT = HERE / "out"
WORKLOADS = ("causal-sets", "splitting", "curvature")
REQUIRED = ("src/lorentz_lab/__init__.py", "docs/golden/product_segment.json",
            "docs/golden/product_vertical_line.json",
            "docs/golden/minkowski_strip.json")
SETUP_PROBES = 14         # set-up-only processes besides the measuring one
PINNED = {"LORENTZ_LAB_THREADS": "1", "OMP_NUM_THREADS": "1",
          "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
DEADLINE_S = 170.0        # a single workload must finish within 180 s
MAX_SECONDS = 60          # largest --seconds that fits under DEADLINE_S


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(workload, seed, seconds, trace, setup_only, timeout,
               spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **PINNED}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """The highest percentile with at least ten jobs above it: (value,
    percentile).  With ten jobs or fewer it is the slowest job."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setups, result):
    times = result["job_s"]
    wall = result["job_wall_s"]
    tail_s, tail_pct = tail(times)
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "jobs/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(c for _, c in setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {"jobs_per_s": f"wall {len(wall) / sum(wall):.6g}",
             "job_s.p50": f"wall {statistics.median(wall):.6g}",
             "job_s.tail": f"p{tail_pct:.1f} of {len(times)} jobs, "
                           f"wall {tail(wall)[0]:.6g}",
             "setup_s": f"median of {len(setups)} fresh processes, wall "
                        f"{statistics.median(s for s, _ in setups):.6g}"}
    return metrics, notes


def git_commit():
    """Commit of the checkout, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(result):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lorentz_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": result["python"],
            "numpy": result["numpy"], "commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16], "pinned": PINNED}


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    def probe_setups(count):
        for _ in range(count):
            probe = run_worker(workload, seed, seconds, 0, True,
                               min(30.0, remaining()))
            setups.append((probe["setup_wall_s"], probe["setup_s"]))

    spans = None
    setups = []
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{workload}-seed{seed}-spans.jsonl"
    else:
        # half of the probes before the measuring process and half after,
        # so that the median samples the host over the whole run
        probe_setups(SETUP_PROBES // 2)
    result = run_worker(workload, seed, seconds, trace, False, remaining(),
                        spans)
    if not trace:
        probe_setups(SETUP_PROBES - SETUP_PROBES // 2)
    env = environment(result)
    if trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        notes = {"trace.overhead_ratio":
                 f"{result['traced_jobs']} traced jobs against "
                 f"{len(result['job_s'])} untraced"}
        table = OUT / f"{workload}-seed{seed}-layers.json"
        table.write_text(json.dumps(
            {"workload": workload, "seed": seed, "seconds": seconds,
             "env": env, "metrics": {k: {"value": v, "unit": u}
                                     for k, (v, u) in metrics.items()}},
            indent=1) + "\n")
        notes["spans"] = str(spans.relative_to(ROOT))
        notes["layer table"] = str(table.relative_to(ROOT))
    else:
        setups.append((result["setup_wall_s"], result["setup_s"]))
        metrics, notes = end_to_end(setups, result)
    attempted, failed = result["attempted"], result["failed"]
    # a traced run lists every per-layer metric in its JSON line, but prints
    # only those of the layers this workload touches
    print("\n".join(f"{workload:12s} {name:58s} {value:.6g} {unit}"
                    + (f"  ({notes[name]})" if name in notes else "")
                    for name, (value, unit) in metrics.items()
                    if value or not trace))
    print(f"{workload:12s} {'error_ratio':58s} {failed / attempted:.6g} "
          f"ratio  ({failed} of {attempted} jobs)")
    for note in ("spans", "layer table"):
        if note in notes:
            print(f"{workload:12s} {note}: {notes[note]}")
    for failure in result["failures"]:
        print(f"{workload:12s} FAILED job {failure['job']} "
              f"(seed {failure['seed']}): {failure['error']}")
    print(f"{workload:12s} env {json.dumps(env)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}),
          flush=True)
    return failed == 0


def seconds(text):
    value = int(text)
    if not 1 <= value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"{value} is not in 1..{MAX_SECONDS}")
    return value


def main():
    parser = argparse.ArgumentParser(
        description="lorentz-lab benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=seconds, default=30,
                        help=f"job time measured per run, 1 to {MAX_SECONDS} "
                             f"(default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a lorentz-lab checkout, missing {missing}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    try:
        for workload in workloads:
            ok &= run_workload(workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
