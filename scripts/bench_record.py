"""The shared parts of the scaling scripts that write BENCH_<topic>.json.

A run is a dict that starts with the sha256 of src/lorentz_lab, the machine
and the Python and numpy versions, and the repeat count; the script adds its
own measurements.  ``save_run`` replaces an earlier run of the same source
and keeps runs of other sources, so that two checkouts can be compared in
one file.
"""

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def best_time(fn, repeats, reset=lambda: None):
    """The shortest of ``repeats`` timed calls of fn, each after a call of
    ``reset`` that is not timed."""
    best = float("inf")
    for _ in range(repeats):
        reset()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for row in f:
                if row.startswith("model name"):
                    return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lorentz_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def new_run(repeats):
    return {"src_sha256": src_sha256(),
            "env": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
            "repeats": repeats}


def save_run(out, run):
    """Write run into the file ``out`` in place of any run of the same
    source."""
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    runs = [r for r in runs if r["src_sha256"] != run["src_sha256"]] + [run]
    out.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
