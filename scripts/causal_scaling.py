"""Growth of the causal-set kernels with the number of sprinkled points.

    PYTHONPATH=src python scripts/causal_scaling.py

At n = 400, 1000, 2000 and 4000 points (seed 1) it times, best of three:

* ``weighted_sprinkle_s`` and ``flat_sprinkle_s``: ``sprinkle_causal_set``
  with drawn weights and with flat separations;
* ``causal_order_s``: the causality check, topological order and packed
  successor lists that the first ``maximize_tau`` on a space builds;
* ``maximize_tau_s``: ``maximize_tau`` on the widest pair (the related
  pair with the most points between it, first in index order) once that
  order is built, so ``causal_order_s + maximize_tau_s`` is the cost of a
  first maximization.

It also records the longest-chain value, length and tie count of that
pair, and the traced-heap peaks (``tracemalloc``) of one weighted sprinkle
and of one first maximization.  A run needs about 40 n² bytes at its peak:
0.6 GB at n = 4000.

At n = 48, 64 and 400 it times ``validate_axioms`` on
``flat_finite_space(n, 1)``, best of three, with its verdict.

The run goes into BENCH_causal_chains.json at the repository root under
the sha256 of src/lorentz_lab, together with the machine and the Python
and numpy versions.  An earlier run of the same source is replaced and runs
of other sources are kept, so that two checkouts can be compared in one
file.
"""

import sys
import tracemalloc

import numpy as np

from bench_record import ROOT, best_time, new_run, save_run
from lorentz_lab import chains
from lorentz_lab.core import validate_axioms
from lorentz_lab.sampling import flat_finite_space, sprinkle_causal_set

OUT = ROOT / "BENCH_causal_chains.json"
SIZES = [400, 1000, 2000, 4000]
AXIOM_SIZES = [48, 64, 400]
SEED = 1
REPEATS = 3


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
    between = leq.astype(np.float32) @ leq.astype(np.float32)
    between[~leq] = -1.0
    np.fill_diagonal(between, -1.0)
    i, j = np.unravel_index(int(np.argmax(between)), between.shape)
    return int(i), int(j)


def measure(n):
    weighted = best_time(lambda: sprinkle_causal_set(n, SEED), REPEATS)
    flat = best_time(lambda: sprinkle_causal_set(n, SEED, weighted=False),
                     REPEATS)
    space, sprinkle_peak = traced_peak_mb(lambda: sprinkle_causal_set(n, SEED))
    i, j = widest_pair(space)

    def forget():
        space._causal_order = None

    order = best_time(lambda: chains._causal_order(space), REPEATS, forget)
    maximize = best_time(lambda: chains.maximize_tau(space, i, j), REPEATS)
    forget()
    result, maximize_peak = traced_peak_mb(
        lambda: chains.maximize_tau(space, i, j))
    return {"n": n, "seed": SEED, "pair": [i, j],
            "relations": int(np.count_nonzero(space.leq_table())) - n,
            "weighted_sprinkle_s": weighted, "flat_sprinkle_s": flat,
            "causal_order_s": order, "maximize_tau_s": maximize,
            "value": result.value, "chain_points": len(result.chain),
            "tie_count": result.tie_count,
            "sprinkle_peak_mb": sprinkle_peak,
            "first_maximize_peak_mb": maximize_peak}


def measure_axioms(n):
    space = flat_finite_space(n, SEED)
    return {"n": n, "seed": SEED,
            "validate_axioms_s": best_time(lambda: validate_axioms(space),
                                           REPEATS),
            "passed": validate_axioms(space).passed}


def main():
    run = new_run(REPEATS)
    run["validate_axioms"] = []
    for n in AXIOM_SIZES:
        size = measure_axioms(n)
        run["validate_axioms"].append(size)
        print(f"n {n:5d}  validate_axioms {size['validate_axioms_s']:.4f} s")
    run["sizes"] = []
    for n in SIZES:
        size = measure(n)
        run["sizes"].append(size)
        print(f"n {n:5d}  sprinkle {size['weighted_sprinkle_s']:.3f} s "
              f"(flat {size['flat_sprinkle_s']:.3f} s)  order "
              f"{size['causal_order_s']:.3f} s  maximize_tau "
              f"{size['maximize_tau_s']:.3f} s  peaks "
              f"{size['sprinkle_peak_mb']:.1f} / "
              f"{size['first_maximize_peak_mb']:.1f} MB")
    save_run(OUT, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
