"""Growth of the causal-set kernels with the number of sprinkled points.

    PYTHONPATH=src python scripts/causal_scaling.py [--against CHECKOUT]

At n = 400, 1000, 2000 and 4000 points (seed 1) it times, best of five:

* ``weighted_sprinkle_s`` and ``flat_sprinkle_s``: ``sprinkle_causal_set``
  with drawn weights and with flat separations;
* ``distance_table_s``: the first read of a fresh weighted sprinkle's
  distance table ``d``, which the space builds then (a sprinkle that
  filled ``d`` itself returns it at once, and its sprinkle time holds
  this work instead);
* ``causal_order_s``: the topological order and packed successor lists
  that the first ``maximize_tau`` on a space builds;
* ``maximize_tau_s``: ``maximize_tau`` on the widest pair (the related
  pair with the most points between it, first in index order) once that
  order is built, so ``causal_order_s + maximize_tau_s`` is the cost of a
  first maximization.

It also records the longest-chain value, length and tie count of that
pair, and the traced-heap peaks (``tracemalloc``) of one weighted sprinkle
and of one first maximization, at those sizes and, for this checkout
only, at n = 10^4 (``REACH``), which it does not time.  A process holds one
space at a time: about 10 n² bytes until its ``d`` is read and 18 n²
bytes after (0.3 GB at n = 4000).  At n = 10^4 the space takes 1 GB and
the widest pair's float32 product 0.8 GB more.

At n = 48, 64 and 400 it times ``validate_axioms`` on
``flat_finite_space(n, 1)``, best of five, with its verdict.

Beside each time the script keeps a sha256 of what the timed call
returned: the tables of a sprinkle (``d`` included, built after the
clock stops), the distance table, the order with its packed lists, the
maximizer's value, chain and tie count, the axiom report.  The run goes
into BENCH_causal_chains.json at the repository root under the sha256 of
src/lorentz_lab, together with the machine and the Python and numpy
versions.  An earlier run of the same source is replaced and runs of other
sources are kept.

With ``--against CHECKOUT`` (the root of another checkout, say a parent
commit's ``git archive``) the script times both sources in one run: one
worker process per checkout, taking turns on each item five times, in
alternating order, best of five each.  The heap peaks, which do not depend
on the host's speed, come from one further process per checkout.  It stops
with an error when the two sources' digests of any item, or the values,
chains and tie counts of any pair, differ.  Both runs go into the file,
each naming the other under ``interleaved_with``.
"""

import argparse
import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from bench_record import (ROOT, best_time, interleaved, new_run, run_in,
                          save_run, serve, src_sha256)
import lorentz_lab
from lorentz_lab import chains
from lorentz_lab.core import validate_axioms
from lorentz_lab.sampling import flat_finite_space, sprinkle_causal_set

OUT = ROOT / "BENCH_causal_chains.json"
SIZES = [400, 1000, 2000, 4000]
AXIOM_SIZES = [48, 64, 400]
# sizes whose facts are recorded for this checkout alone and not timed
REACH = [10_000]
SEED = 1
REPEATS = 5


def digest(*parts):
    out = hashlib.sha256()
    for part in parts:
        out.update(part if isinstance(part, bytes) else repr(part).encode())
    return out.hexdigest()[:16]


def table_digest(space):
    return digest(*(a.tobytes() for a in (space._d, space._leq, space._ll,
                                           space._tau)))


def order_digest(order, start, targets, weights):
    return digest(np.asarray(order, dtype=np.int64).tobytes(),
                  np.asarray(start, dtype=np.int64).tobytes(),
                  targets.astype(np.int32).tobytes(), weights.tobytes())


def result_facts(result):
    return {"value": result.value, "chain_points": len(result.chain),
            "tie_count": result.tie_count}


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def widest_pair(space):
    """The related pair with the most points between it, first in index
    order (float32 counts are exact up to 2^24 points)."""
    leq = space.leq_table()
    paths = leq.astype(np.float32)
    between = paths @ paths
    del paths
    between[~leq] = -1.0
    np.fill_diagonal(between, -1.0)
    i, j = np.unravel_index(int(np.argmax(between)), between.shape)
    return int(i), int(j)


def items():
    """The timed items in order: (section, n, record, call, reset,
    digest).  ``reset()`` runs untimed before the timed ``call()``, and
    ``digest(result)`` after it.  The order and maximizer items share the
    weighted sprinkle of their size, built by a reset and dropped before a
    sprinkle is timed or another sprinkle is built, so a process holds one
    at a time; the distance item's reset builds a fresh one each time."""
    held = {}

    def space(n):
        if n not in held:
            held.clear()
            built = sprinkle_causal_set(n, SEED)
            held[n] = built, widest_pair(built)
        return held[n]

    def forget_order(n):
        space(n)[0]._causal_order = None

    def fresh(n):
        held.clear()
        held["fresh"] = sprinkle_causal_set(n, SEED)

    out = [("validate_axioms", n, "validate_axioms_s",
            lambda space=flat_finite_space(n, SEED): validate_axioms(space),
            lambda: None, digest)
           for n in AXIOM_SIZES]
    for n in SIZES:
        out += [
            ("sizes", n, "weighted_sprinkle_s",
             lambda n=n: sprinkle_causal_set(n, SEED), held.clear,
             table_digest),
            ("sizes", n, "flat_sprinkle_s",
             lambda n=n: sprinkle_causal_set(n, SEED, False), held.clear,
             table_digest),
            ("sizes", n, "distance_table_s", lambda: held["fresh"]._d,
             lambda n=n: fresh(n), lambda d: digest(d.tobytes())),
            ("sizes", n, "causal_order_s",
             lambda n=n: chains._causal_order(space(n)[0]),
             lambda n=n: forget_order(n), lambda order: order_digest(*order)),
            ("sizes", n, "maximize_tau_s",
             lambda n=n: chains.maximize_tau(space(n)[0], *space(n)[1]),
             lambda n=n: chains._causal_order(space(n)[0]),
             lambda result: digest(result_facts(result))),
        ]
    return out


def facts(sizes):
    """What does not depend on the host's speed, per size in ``sizes``:
    the widest pair, its longest chain, the heap peaks; and the axiom
    verdicts."""
    found = []
    for n in sizes:
        space, sprinkle_peak = traced_peak_mb(
            lambda: sprinkle_causal_set(n, SEED))
        pair = widest_pair(space)
        result, maximize_peak = traced_peak_mb(
            lambda: chains.maximize_tau(space, *pair))
        found.append({"n": n, "seed": SEED, "pair": list(pair),
                      "relations": int(np.count_nonzero(space.leq_table())) - n,
                      **result_facts(result),
                      "sprinkle_peak_mb": sprinkle_peak,
                      "first_maximize_peak_mb": maximize_peak})
        del space
    axioms = [{"n": n, "seed": SEED,
               "passed": validate_axioms(flat_finite_space(n, SEED)).passed}
              for n in AXIOM_SIZES]
    return {"imported": lorentz_lab.__file__, "validate_axioms": axioms,
            "sizes": found}


def record(run, found, timed):
    """The run's sections: ``found`` (from ``facts``) with each timed
    item's seconds and digest, given as ``(section, n, name, seconds,
    digest)``."""
    for section in ("validate_axioms", "sizes"):
        run[section] = [dict(entry, digests={}) for entry in found[section]]
    for section, n, name, seconds, item_digest in timed:
        entry = next(e for e in run[section] if e["n"] == n)
        entry[name] = seconds
        entry["digests"][name] = item_digest
    for entry in run["validate_axioms"]:
        print(f"n {entry['n']:5d}  validate_axioms "
              f"{entry['validate_axioms_s']:.4f} s")
    for entry in run["sizes"]:
        if "weighted_sprinkle_s" not in entry:
            print(f"n {entry['n']:5d}  peaks {entry['sprinkle_peak_mb']:.1f}"
                  f" / {entry['first_maximize_peak_mb']:.1f} MB")
            continue
        print(f"n {entry['n']:5d}  sprinkle {entry['weighted_sprinkle_s']:.3f}"
              f" s (flat {entry['flat_sprinkle_s']:.3f} s)  d "
              f"{entry['distance_table_s']:.3f} s  order "
              f"{entry['causal_order_s']:.3f} s  maximize_tau "
              f"{entry['maximize_tau_s']:.3f} s  peaks "
              f"{entry['sprinkle_peak_mb']:.1f} / "
              f"{entry['first_maximize_peak_mb']:.1f} MB")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--facts", nargs="*", type=int,
                        help=argparse.SUPPRESS)
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="time this checkout's source against that one's, "
                             "interleaved")
    args = parser.parse_args()
    if args.facts is not None:
        print(json.dumps(facts(SIZES + args.facts)))
        return
    timed = items()
    if args.serve:
        serve([item[3:] for item in timed])
        return
    if args.against is None:
        run = new_run(REPEATS)
        found = facts(SIZES + REACH)
        del found["imported"]
        results = []
        for section, n, name, call, reset, digest_of in timed:
            seconds = best_time(call, REPEATS, reset)
            reset()
            results.append((section, n, name, seconds, digest_of(call())))
        record(run, found, results)
        save_run(OUT, run)
        return

    roots = [ROOT, args.against]
    # one process at a time: the reach sizes need gigabytes
    found = [run_in(__file__, root, "--facts",
                    *(map(str, REACH) if root == ROOT else ()))
             for root in roots]
    for root, got in zip(roots, found):
        imported = Path(got.pop("imported"))
        if Path(root).resolve() / "src" not in imported.parents:
            sys.exit(f"the run for {root} imported {imported}")
    runs = [new_run(REPEATS, root) for root in roots]
    for run, other in zip(runs, roots[::-1]):
        run["interleaved_with"] = src_sha256(other)
    results = interleaved(__file__, roots, len(timed), REPEATS)
    for (section, n, name, *_), pairs in zip(timed, results):
        if len({item_digest for _, item_digest in pairs}) != 1:
            sys.exit(f"{section} n={n} {name}: the sources' results differ: "
                     f"{[item_digest for _, item_digest in pairs]}")
    keys = ("pair", "value", "chain_points", "tie_count")
    for a, b in zip(*(f["sizes"] for f in found)):
        if any(a[k] != b[k] for k in keys):
            sys.exit(f"n={a['n']}: the sources' maximizers differ: "
                     f"{[{k: e[k] for k in keys} for e in (a, b)]}")
    for w, (run, root, got) in enumerate(zip(runs, roots, found)):
        print(src_sha256(root))
        record(run, got, [(section, n, name, *pairs[w]) for
                          (section, n, name, *_), pairs in
                          zip(timed, results)])
    for run in runs[::-1]:
        save_run(OUT, run)


if __name__ == "__main__":
    main()
