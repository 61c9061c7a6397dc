"""Per-call times of the comparison testers, at several sizes.

    PYTHONPATH=src python scripts/curvature_scaling.py

Times, best of ten:

* ``test_curvature_lower0`` in the lower mode at 50, 500 and 5000
  triangles (``sampling.minkowski_triangles``, seed 0, eight pairs per
  triangle) on the golden strip and the golden segment product, and at 20
  triangles (``sampling.finite_triangles``, seed 0) on a flat 32-point
  table;
* ``test_monotonicity_comparison`` per call, in each sense, over the 20
  hinges of ``sampling.product_hinges`` (segment product, seed 0);
* ``solve_angle`` per call over 500 side triples, half with the middle
  vertex between the others and half with it a time endpoint.

Beside each time the script records a sha256 of the ``repr`` of every report
it timed (and of every angle), so that runs of two sources can be checked
to agree.  The run goes into BENCH_curvature.json at the repository root
under the sha256 of src/lorentz_lab, together with the machine and the
Python and numpy versions; an earlier run of the same source is replaced
and runs of other sources are kept.
"""

import hashlib
import random

from bench_record import ROOT, best_time, new_run, save_run
from lorentz_lab import cli, comparison, sampling

OUT = ROOT / "BENCH_curvature.json"
GOLDEN = ROOT / "docs" / "golden"
TRIANGLES = (50, 500, 5000)
TABLE_POINTS, TABLE_TRIANGLES = 32, 20
HINGES = 20
SIDE_TRIPLES = 500
REPEATS = 10


def digest(values):
    return hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()[:16]


def time_calls(calls):
    """Best time of the whole list of calls, and the digest of their
    results."""
    results = [call() for call in calls]
    return best_time(lambda: [call() for call in calls], REPEATS), digest(results)


def side_triples(count):
    rng = random.Random(0)
    out = []
    while len(out) < count:
        a, b = 0.2 * 25.0 ** rng.random(), 0.2 * 25.0 ** rng.random()
        if len(out) % 2 == 0:
            out.append(comparison.SideTriple(a, b, a + b + rng.uniform(0.01, 3.0),
                                             "chain"))
        elif abs(a - b) >= 0.5:
            out.append(comparison.SideTriple(
                a, b, abs(a - b) * rng.uniform(0.2, 0.9), "endpoint"))
    return out


def main():
    run = new_run(REPEATS)
    strip, _ = cli.load_space(str(GOLDEN / "minkowski_strip.json"))
    segment, _ = cli.load_space(str(GOLDEN / "product_segment.json"))

    run["curvature"] = []
    for name, space in (("strip", strip), ("segment", segment)):
        for count in TRIANGLES:
            triangles = sampling.minkowski_triangles(space, count, 0)
            seconds, reports = time_calls([
                lambda: comparison.test_curvature_lower0(space, triangles)])
            run["curvature"].append({"space": name, "triangles": count,
                                     "s": seconds, "reports": reports})
            print(f"test_curvature_lower0 {name:8s} {count:5d} triangles "
                  f"{seconds * 1e3:9.2f} ms")
    table = sampling.flat_finite_space(TABLE_POINTS, 0)
    triangles = sampling.finite_triangles(table, TABLE_TRIANGLES, 0)
    seconds, reports = time_calls([
        lambda: comparison.test_curvature_lower0(table, triangles)])
    run["curvature"].append({"space": f"table{TABLE_POINTS}",
                             "triangles": TABLE_TRIANGLES, "s": seconds,
                             "reports": reports})
    print(f"test_curvature_lower0 table{TABLE_POINTS} {TABLE_TRIANGLES:5d} "
          f"triangles {seconds * 1e3:9.2f} ms")

    run["monotonicity"] = []
    hinges = sampling.product_hinges(segment, HINGES, 0)
    for sense in ("lower", "upper"):
        seconds, reports = time_calls([
            (lambda a=a, b=b: comparison.test_monotonicity_comparison(
                segment, a, b, sense)) for a, b in hinges])
        run["monotonicity"].append({"sense": sense, "calls": len(hinges),
                                    "s_per_call": seconds / len(hinges),
                                    "reports": reports})
        print(f"test_monotonicity_comparison {sense:5s} "
              f"{seconds / len(hinges) * 1e6:8.1f} us per call")

    triples = side_triples(SIDE_TRIPLES)
    seconds, angles = time_calls([lambda: [comparison.solve_angle(sides)
                                           for sides in triples]])
    run["solve_angle"] = {"calls": len(triples),
                          "s_per_call": seconds / len(triples),
                          "angles": angles}
    print(f"solve_angle {seconds / len(triples) * 1e6:8.2f} us per call")
    save_run(OUT, run)


if __name__ == "__main__":
    main()
