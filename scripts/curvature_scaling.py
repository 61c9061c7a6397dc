"""Per-call times of the comparison testers, at several sizes.

    PYTHONPATH=src python scripts/curvature_scaling.py [--against CHECKOUT]

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

With ``--against CHECKOUT`` (the root of another checkout, say a parent
commit's ``git archive``) the script times both sources in one run: one
worker process per checkout, taking turns on each item ten times, in
alternating order, best of ten each.  It stops with an error when the two
sources' digests of any item differ.  Both runs go into the file, each
naming the other under ``interleaved_with``.
"""

import argparse
import hashlib
import random
import sys

from bench_record import (ROOT, best_time, interleaved, new_run, save_run,
                          serve, src_sha256)
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


def items():
    """The timed items in order: (section, record, per, calls).  The
    record names the item; ``per`` is the number of calls its time is
    divided by (0: the whole time is recorded under ``s``); the function
    ``calls`` makes every call and returns the digest of the results."""
    strip, _ = cli.load_space(str(GOLDEN / "minkowski_strip.json"))
    segment, _ = cli.load_space(str(GOLDEN / "product_segment.json"))

    def calling(*calls):
        return lambda: digest([call() for call in calls])

    out = []
    for name, space in (("strip", strip), ("segment", segment)):
        for count in TRIANGLES:
            triangles = sampling.minkowski_triangles(space, count, 0)
            out.append(("curvature", {"space": name, "triangles": count}, 0,
                        calling(lambda space=space, triangles=triangles:
                                comparison.test_curvature_lower0(space,
                                                                 triangles))))
    table = sampling.flat_finite_space(TABLE_POINTS, 0)
    triangles = sampling.finite_triangles(table, TABLE_TRIANGLES, 0)
    out.append(("curvature", {"space": f"table{TABLE_POINTS}",
                              "triangles": TABLE_TRIANGLES}, 0,
                calling(lambda: comparison.test_curvature_lower0(table,
                                                                 triangles))))
    hinges = sampling.product_hinges(segment, HINGES, 0)
    for sense in ("lower", "upper"):
        out.append(("monotonicity", {"sense": sense, "calls": len(hinges)},
                    len(hinges), calling(*[
                        (lambda a=a, b=b, sense=sense:
                         comparison.test_monotonicity_comparison(
                             segment, a, b, sense)) for a, b in hinges])))
    triples = side_triples(SIDE_TRIPLES)
    out.append(("solve_angle", {"calls": len(triples)}, len(triples),
                calling(lambda: [comparison.solve_angle(sides)
                                 for sides in triples])))
    return out


def record(run, section, named, per, seconds, reports):
    entry = {**named, **({"s_per_call": seconds / per} if per else
                         {"s": seconds}), "reports": reports}
    run.setdefault(section, []).append(entry)
    label = " ".join(str(v) for v in named.values())
    shown = f"{seconds / per * 1e6:10.2f} us per call" if per else \
        f"{seconds * 1e3:9.2f} ms"
    print(f"{section:13s} {label:16s} {shown}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="time this checkout's source against that one's, "
                             "interleaved")
    args = parser.parse_args()
    timed = items()
    if args.serve:
        # each call returns the digest of its reports
        serve([(calls, lambda: None, str) for _, _, _, calls in timed])
        return
    if args.against is None:
        run = new_run(REPEATS)
        for section, named, per, calls in timed:
            reports = calls()
            record(run, section, named, per, best_time(calls, REPEATS),
                   reports)
        save_run(OUT, run)
        return

    roots = [ROOT, args.against]
    runs = [new_run(REPEATS, root) for root in roots]
    for run, other in zip(runs, roots[::-1]):
        run["interleaved_with"] = src_sha256(other)
    results = interleaved(__file__, roots, len(timed), REPEATS)
    for (section, named, per, _), pairs in zip(timed, results):
        if len({reports for _, reports in pairs}) != 1:
            sys.exit(f"{section} {named}: the sources' reports differ: "
                     f"{[reports for _, reports in pairs]}")
        for run, root, (seconds, reports) in zip(runs, roots, pairs):
            print(f"{src_sha256(root)} ", end="")
            record(run, section, named, per, seconds, reports)
    for run in runs[::-1]:
        save_run(OUT, run)


if __name__ == "__main__":
    main()
