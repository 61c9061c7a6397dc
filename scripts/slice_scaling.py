"""Growth of slice extraction and of the splitting map with the member count.

    PYTHONPATH=src python scripts/slice_scaling.py [--cover-up-to MEMBERS]
        [--against CHECKOUT]

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

Beside each time the script records what the timed call returned: the
verdicts and counts above, and for the extraction a sha256 of the slice's
members and distance table, so that runs of two sources can be checked to
agree.  The run goes into BENCH_slice.json at the repository root under the
sha256 of src/lorentz_lab, together with the machine and the Python and
numpy versions.  An earlier run of the same source is replaced and runs of
other sources are kept, so that two checkouts can be compared in one file.

With ``--against CHECKOUT`` (the root of another checkout, say a parent
commit's ``git archive``) the script times both sources in one run: one
worker process per checkout, taking turns on each item five times, in
alternating order, best of five each.  It stops with an error when what the
two sources return for any item differs.  Both runs go into the file, each
naming the other under ``interleaved_with``.
"""

import argparse
import hashlib
import math
import sys
from functools import cached_property

from bench_record import (ROOT, best_time, interleaved, new_run, save_run,
                          serve, src_sha256)
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


def sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


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


class Size:
    """The canonical product at one size and what its items share: the
    slice, its map and the spanning chains, each built on first use."""

    def __init__(self, factor_points, t_step):
        self.space = ProductSpace(EuclideanSegment(0.0, 1.0, factor_points),
                                  -2.0, 2.0, t_step)
        self.line = vertical_line(self.space, 0.5, range(-260, 261))
        self.tol = 3.0 * (self.space.mesh + 0.5 ** 2 / (2.0 * HORIZONS[-1]))
        self.seeds = [(0.0, q) for q in self.space.factor.sample()]

    def extract(self):
        return splitting.extract_slice(self.space, self.line, self.seeds,
                                       HORIZONS, tolerance=self.tol,
                                       knot_extent=2.5)

    @cached_property
    def replays(self):
        """The seed steps of one extraction, recorded to be answered in
        turn."""
        replays = {name: Replaying(getattr(splitting, name))
                   for name in REPLAYED}
        self.replayed_extract(replays)
        for replay in replays.values():
            replay.recording = False
        return replays

    def replayed_extract(self, replays=None):
        """The extraction with its seed steps answered by ``replays``."""
        saved = {name: getattr(splitting, name) for name in REPLAYED}
        try:
            for name, replay in (replays or self.replays).items():
                setattr(splitting, name, replay)
            return self.extract()
        finally:
            for name, fn in saved.items():
                setattr(splitting, name, fn)

    @cached_property
    def slice(self):
        return self.extract()

    def split(self, cover=None):
        if cover is None:
            return splitting.build_splitting_map(self.space, self.slice, KNOTS,
                                                 tolerance=self.tol)
        return splitting.build_splitting_map(
            self.space, self.slice, KNOTS, tolerance=self.tol,
            cover_sample=cover,
            cover_radius=0.5 * KNOT_STEP + 2.0 * self.space.mesh)

    @cached_property
    def result(self):
        return self.split()

    @cached_property
    def probes(self):
        return sampling.spanning_timelike_chains(self.space, len(self.slice), 0)

    @cached_property
    def cover(self):
        """The grid points within half a knot step of the knots."""
        lo, hi = KNOTS[0] - 0.5 * KNOT_STEP, KNOTS[-1] + 0.5 * KNOT_STEP
        return [z for z in self.space.sample_points() if lo <= z[0] <= hi]


def slice_facts(sl):
    members = len(sl)
    return {"members": members, "member_pairs": members * (members - 1) // 2,
            "slice_sha256": sha((sl.members, sl.d_S.tobytes()))}


def items(cover_up_to):
    """The timed items in order: (section, key, name, call, reset, facts).
    ``reset()`` runs untimed before the timed ``call()``, and
    ``facts(result)`` gives what the run records beside the time, for the
    record whose ``key`` (factor points or knots) is given."""
    held = {}

    def size(factor_points, t_step):
        if factor_points not in held:
            held.clear()
            held[factor_points] = Size(factor_points, t_step)
        return held[factor_points]

    # is_line's first call on a fresh chain, as the split command makes it
    line_space = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)
    lines = {}

    def fresh(knots):
        lines[knots] = vertical_line(line_space, 0.5,
                                     range(-(knots // 2), knots // 2 + 1))

    def is_line(knots):
        return chains.is_line(line_space, lines[knots].chain)

    out = [("is_line", knots, "is_line_s", lambda knots=knots: is_line(knots),
            lambda knots=knots: fresh(knots),
            lambda check: {"is_line": check.is_line,
                           "tau_length": check.tau_length})
           for knots in LINE_KNOTS]
    for points, t_step in SIZES:
        def at(points=points, t_step=t_step):
            return size(points, t_step)

        out += [
            ("sizes", points, "extract_slice_s", lambda at=at: at().extract(),
             at, slice_facts),
            ("sizes", points, "verdict_pass_s",
             lambda at=at: at().replayed_extract(),
             lambda at=at: at().replays, slice_facts),
            ("sizes", points, "build_splitting_map_s",
             lambda at=at: at().split(), lambda at=at: at().slice,
             lambda result: {"tau_defect": result.tau_defect,
                             "leq_mismatches": result.leq_mismatches,
                             "bijective": result.bijective}),
            ("sizes", points, "check_cauchy_slices_s",
             lambda at=at: splitting.check_cauchy_slices(
                 at().space, at().result, at().probes, LEVELS),
             lambda at=at: (at().result, at().probes),
             lambda report, at=at: {
                 "chain_points": sum(len(chain) for chain in at().probes),
                 "cauchy_ok": report.each_chain_hits_each_slice_once,
                 "n_spanning": report.n_spanning}),
        ]
        if points <= cover_up_to:
            out.append(
                ("sizes", points, "cover_map_s",
                 lambda at=at: at().split(at().cover),
                 lambda at=at: (at().slice, at().cover),
                 lambda result, at=at: {
                     "cover_sample": len(at().cover),
                     "images": len(result.images),
                     "cover_bijective": result.bijective,
                     "cover_witnesses": len(result.witnesses),
                     "cover_witnesses_sha256": sha(result.witnesses)}))
        if points <= ALEXANDROV_MAX_MEMBERS:
            out.append(
                ("sizes", points, "check_slice_alexandrov_s",
                 lambda at=at: splitting.check_slice_alexandrov(
                     at().slice, tol=1e-6, metric_tol=at().tol),
                 lambda at=at: at().slice,
                 lambda curvature: {
                     "nonneg_curvature": curvature.nonneg_curvature,
                     "worst_excess": curvature.worst_excess,
                     "n_quadruples": curvature.n_quadruples}))
    return out


def record(run, timed):
    """The run's sections from each timed item, given as ``(section, key,
    name, seconds, facts)``."""
    run["is_line"] = [{"knots": knots} for knots in LINE_KNOTS]
    run["sizes"] = [{"factor_points": points, "t_step": t_step}
                    for points, t_step in SIZES]
    first = {"is_line": "knots", "sizes": "factor_points"}
    for section, key, name, seconds, facts in timed:
        entry = next(e for e in run[section] if e[first[section]] == key)
        entry[name] = seconds
        entry.update(facts)
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cover-up-to", type=int, default=SIZES[-1][0],
                        metavar="MEMBERS",
                        help="time the map with a cover sample up to this "
                        "many members (default: every size)")
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="time this checkout's source against that one's, "
                             "interleaved")
    args = parser.parse_args()
    timed = items(args.cover_up_to)
    if args.serve:
        serve([item[3:] for item in timed])
        return 0
    if args.against is None:
        run = new_run(REPEATS)
        results = []
        for section, key, name, call, reset, facts in timed:
            seconds = best_time(call, REPEATS, reset)
            reset()
            results.append((section, key, name, seconds, facts(call())))
        record(run, results)
        save_run(OUT, run)
        return 0

    roots = [ROOT, args.against]
    runs = [new_run(REPEATS, root) for root in roots]
    for run, other in zip(runs, roots[::-1]):
        run["interleaved_with"] = src_sha256(other)
    results = interleaved(__file__, roots, len(timed), REPEATS,
                          "--cover-up-to", str(args.cover_up_to))
    for (section, key, name, *_), pairs in zip(timed, results):
        if pairs[0][1] != pairs[1][1]:
            sys.exit(f"{section} {key} {name}: the sources' results differ: "
                     f"{[facts for _, facts in pairs]}")
    for w, (run, root) in enumerate(zip(runs, roots)):
        print(src_sha256(root))
        record(run, [(section, key, name, *pairs[w]) for
                     (section, key, name, *_), pairs in zip(timed, results)])
    for run in runs[::-1]:
        save_run(OUT, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
