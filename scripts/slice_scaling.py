"""Growth of slice extraction and of the splitting map with the member count.

    PYTHONPATH=src python scripts/slice_scaling.py [--cover-up-to MEMBERS]

Extracts the slice of the canonical segment product (a vertical line at
x = 0.5, one seed per factor point, knot extent 2.5 as the split command
takes it, so every asymptotic line has 3 knots) at 21, 41, 101, 201 and 401
factor points, with time steps 0.05, 0.025, 0.01, 0.005 and 0.0025, and
times it, best of five:

* ``extract_slice_s``: the whole extraction;
* ``verdict_pass_s``: the extraction with its seed steps (the envelope
  check, the synchronized times, the asymptotic lines and their
  footpoints) replayed from an earlier call, so that what remains is the
  parallel verdict of every member pair, with the member dedupe and the
  metric check of the table, the part that grows with the number of
  member pairs;
* ``build_splitting_map_s``: the map of that slice on the 41 time knots
  -2, -1.9, ..., 2 without a cover sample, as ``splitting_demo.py`` builds
  it.  Its tau defect, causal-order mismatches and bijectivity verdict are
  recorded with it, so that runs of two sources can be checked to agree;
* ``cover_map_s``: the same map with the ``split`` command's cover check:
  the grid points within half a knot step (0.05) of the knots, each to be
  within ``0.5 * 0.1 + 2 * mesh`` of an image.  Its sample and image
  counts, bijectivity verdict, number of witnesses and a sha256 of the
  witness list are recorded with it.  With ``--cover-up-to MEMBERS`` it is
  taken only up to that many members: an exhaustive cover scan, sample x
  images, reaches about 1.7e8 distances at 101 members;
* ``check_cauchy_slices_s``: the Cauchy check of that map at the levels
  -1, 0 and 1 along one spanning timelike chain (seed 0) per member, with
  its verdict and its number of spanning chains;
* ``check_slice_alexandrov_s``: the quadruple test of the slice at
  ``tol=1e-6`` and ``metric_tol`` the parallel tolerance, with its verdict,
  worst excess and quadruple count, up to 101 members only: the scan is
  quartic (2.6e8 quadruples at 201 members).

Beside the sizes, ``is_line`` is timed on the vertical line at x = 0.5 of
the canonical product, first call on a fresh chain as the split command
makes it, with 521 knots (the reference line above) and 2001 knots.

The run goes into BENCH_slice.json at the repository root under the sha256
of src/lorentz_lab, together with the machine and the Python and numpy
versions.  An earlier run of the same source is replaced and runs of other
sources are kept, so that two checkouts can be compared in one file.
"""

import argparse
import hashlib
import math
import sys

from bench_record import ROOT, best_time, new_run, save_run
from lorentz_lab import chains, sampling, splitting
from lorentz_lab.asymptotics import vertical_line
from lorentz_lab.models import EuclideanSegment, ProductSpace

OUT = ROOT / "BENCH_slice.json"
HORIZONS = [2 ** k for k in range(1, 9)]
SIZES = [(21, 0.05), (41, 0.025), (101, 0.01), (201, 0.005), (401, 0.0025)]
KNOT_STEP = 0.1
KNOTS = [round(-2 + KNOT_STEP * k, 10) for k in range(41)]
LEVELS = [-1.0, 0.0, 1.0]
ALEXANDROV_MAX_MEMBERS = 101
LINE_KNOTS = (521, 2001)
REPEATS = 5
# what extract_slice builds for its seeds before it compares member pairs
REPLAYED = ("in_timelike_envelopes", "_busemann_values", "_asymptotic_lines",
            "_line_points")


class Replaying:
    """fn, recording its results while ``recording``, then answering its
    calls with the recorded results in turn: one extraction makes the same
    calls in the same order every time."""

    def __init__(self, fn):
        self.fn, self.results, self.recording, self.turn = fn, [], True, 0

    def __call__(self, *args, **kw):
        if self.recording:
            self.results.append(self.fn(*args, **kw))
            return self.results[-1]
        self.turn += 1
        return self.results[(self.turn - 1) % len(self.results)]


def measure_cover(space, sl, tol):
    lo, hi = KNOTS[0] - 0.5 * KNOT_STEP, KNOTS[-1] + 0.5 * KNOT_STEP
    cover = [z for z in space.sample_points() if lo <= z[0] <= hi]

    def split():
        return splitting.build_splitting_map(
            space, sl, KNOTS, tolerance=tol, cover_sample=cover,
            cover_radius=0.5 * KNOT_STEP + 2.0 * space.mesh)

    result = split()
    return {"cover_map_s": best_time(split, REPEATS),
            "cover_sample": len(cover), "images": len(result.images),
            "cover_bijective": result.bijective,
            "cover_witnesses": len(result.witnesses),
            "cover_witnesses_sha256": hashlib.sha256(
                repr(result.witnesses).encode()).hexdigest()[:16]}


def measure(factor_points, t_step, cover_up_to):
    space = ProductSpace(EuclideanSegment(0.0, 1.0, factor_points), -2.0, 2.0,
                         t_step)
    line = vertical_line(space, 0.5, range(-260, 261))
    tol = 3.0 * (space.mesh + 0.5 ** 2 / (2.0 * HORIZONS[-1]))
    seeds = [(0.0, q) for q in space.factor.sample()]

    def extract():
        return splitting.extract_slice(space, line, seeds, HORIZONS,
                                       tolerance=tol, knot_extent=2.5)

    sl = extract()
    whole = best_time(extract, REPEATS)

    def split():
        return splitting.build_splitting_map(space, sl, KNOTS, tolerance=tol)

    result = split()
    mapped = best_time(split, REPEATS)
    saved = {name: getattr(splitting, name) for name in REPLAYED}
    try:
        replays = [Replaying(fn) for fn in saved.values()]
        for name, replay in zip(saved, replays):
            setattr(splitting, name, replay)
        extract()
        for replay in replays:
            replay.recording = False
        verdicts = best_time(extract, REPEATS)
    finally:
        for name, fn in saved.items():
            setattr(splitting, name, fn)
    members = len(sl)
    probes = sampling.spanning_timelike_chains(space, members, 0)

    def cauchy():
        return splitting.check_cauchy_slices(space, result, probes, LEVELS)

    report = cauchy()
    out = {"factor_points": factor_points, "t_step": t_step,
           "members": members, "member_pairs": members * (members - 1) // 2,
           "extract_slice_s": whole, "verdict_pass_s": verdicts,
           "build_splitting_map_s": mapped, "tau_defect": result.tau_defect,
           "leq_mismatches": result.leq_mismatches,
           "bijective": result.bijective,
           "check_cauchy_slices_s": best_time(cauchy, REPEATS),
           "chain_points": sum(len(chain) for chain in probes),
           "cauchy_ok": report.each_chain_hits_each_slice_once,
           "n_spanning": report.n_spanning}
    if members <= cover_up_to:
        out.update(measure_cover(space, sl, tol))
    if members <= ALEXANDROV_MAX_MEMBERS:
        def alexandrov():
            return splitting.check_slice_alexandrov(sl, tol=1e-6,
                                                    metric_tol=tol)

        curvature = alexandrov()
        out.update(check_slice_alexandrov_s=best_time(alexandrov, REPEATS),
                   nonneg_curvature=curvature.nonneg_curvature,
                   worst_excess=curvature.worst_excess,
                   n_quadruples=curvature.n_quadruples)
    return out


def measure_is_line(knots):
    space = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)
    lines = []

    def fresh():
        lines[:] = [vertical_line(space, 0.5, range(-(knots // 2),
                                                    knots // 2 + 1))]

    fresh()
    check = chains.is_line(space, lines[0].chain)
    return {"knots": knots,
            "is_line_s": best_time(lambda: chains.is_line(space,
                                                          lines[0].chain),
                                   REPEATS, fresh),
            "is_line": check.is_line, "tau_length": check.tau_length}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cover-up-to", type=int, default=SIZES[-1][0],
                        metavar="MEMBERS",
                        help="time the map with a cover sample up to this "
                        "many members (default: every size)")
    args = parser.parse_args()
    run = new_run(REPEATS)
    run["is_line"] = [measure_is_line(knots) for knots in LINE_KNOTS]
    run["sizes"] = [measure(*size, args.cover_up_to) for size in SIZES]
    save_run(OUT, run)
    for line in run["is_line"]:
        print(f"{line['knots']:4d} knots    is_line {line['is_line_s']:.4f} s")
    for size in run["sizes"]:
        print(f"{size['members']:4d} members  extract_slice "
              f"{size['extract_slice_s']:.4f} s  verdict pass "
              f"{size['verdict_pass_s']:.4f} s  build_splitting_map "
              f"{size['build_splitting_map_s']:.4f} s  check_cauchy_slices "
              f"{size['check_cauchy_slices_s']:.4f} s  "
              f"check_slice_alexandrov "
              f"{size.get('check_slice_alexandrov_s', math.nan):.4f} s  "
              f"with cover {size.get('cover_map_s', math.nan):.4f} s  "
              f"tau defect {size['tau_defect']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
