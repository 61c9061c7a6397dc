"""The shared parts of the scaling scripts that write BENCH_<topic>.json.

A run is a dict that starts with the sha256 of src/lorentz_lab, the machine
and the Python and numpy versions, and the repeat count; the script adds its
own measurements.  ``save_run`` replaces an earlier run of the same source
timed the same way (on its own, or interleaved with the same other source)
and keeps every other run, so that two checkouts can be compared in one
file and a source keeps each of its interleaved pairings.

Two checkouts are best compared in one interleaved run: ``interleaved``
starts the script once per checkout, as a worker that imports that
checkout's src/lorentz_lab and times one item per request (``serve``), and
the workers take turns on each item.  The host's speed drifts over
minutes, so only times taken side by side compare.
"""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
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


def src_sha256(root=ROOT):
    digest = hashlib.sha256()
    for path in sorted((Path(root) / "src" / "lorentz_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def new_run(repeats, root=ROOT):
    return {"src_sha256": src_sha256(root),
            "env": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
            "repeats": repeats}


def save_run(out, run):
    """Write run into the file ``out`` in place of any run of the same
    source with the same ``interleaved_with`` (none for a run on its
    own)."""
    def key(r):
        return r["src_sha256"], r.get("interleaved_with")

    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    runs = [r for r in runs if key(r) != key(run)] + [run]
    out.write_text(json.dumps({"runs": runs}, indent=2) + "\n")


def serve(items):
    """The worker loop of ``interleaved``: print the path of the imported
    lorentz_lab, then, for each item index read from stdin, time the
    item's call once and print its time and the digest of its result as
    one JSON line.  ``items`` is a list of (call, reset, digest) triples:
    ``reset()`` runs before the timed ``call()``, and ``digest(result)``
    after the clock has stopped."""
    import lorentz_lab
    print(json.dumps(lorentz_lab.__file__), flush=True)
    for row in sys.stdin:
        call, reset, digest = items[int(row)]
        reset()
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        print(json.dumps({"s": seconds, "digest": digest(result)}),
              flush=True)


def checkout_env(root):
    """The environment with the src directory of the checkout ``root``
    first on PYTHONPATH."""
    src = Path(root).resolve() / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}


def run_in(script, root, *args):
    """The JSON document that ``script args`` prints when it imports the
    checkout ``root``'s src."""
    done = subprocess.run([sys.executable, str(script), *args],
                          stdout=subprocess.PIPE, text=True, check=True,
                          env=checkout_env(root))
    return json.loads(done.stdout)


def interleaved(script, roots, count, rounds, *args):
    """For each of ``count`` items, the best time and the digest that each
    checkout in ``roots`` gives, as a list of (seconds, digest) pairs per
    item.  ``script --serve args`` runs once per checkout with that
    checkout's src first on PYTHONPATH; the workers take turns on each
    item, ``rounds`` times, in alternating order."""
    workers = []
    try:
        for root in roots:
            src = Path(root).resolve() / "src"
            proc = subprocess.Popen([sys.executable, str(script), "--serve",
                                     *args],
                                    stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, text=True,
                                    env=checkout_env(root))
            workers.append(proc)
            imported = Path(json.loads(proc.stdout.readline()))
            if src not in imported.parents:
                raise RuntimeError(f"worker for {root} imported {imported}")
        out = []
        for index in range(count):
            best = [math.inf] * len(workers)
            digests = [None] * len(workers)
            for r in range(rounds):
                order = range(len(workers))
                for w in (order if r % 2 == 0 else reversed(order)):
                    workers[w].stdin.write(f"{index}\n")
                    workers[w].stdin.flush()
                    got = json.loads(workers[w].stdout.readline())
                    best[w] = min(best[w], got["s"])
                    digests[w] = got["digest"]
            out.append(list(zip(best, digests)))
        return out
    finally:
        for proc in workers:
            proc.stdin.close()
            proc.wait()
