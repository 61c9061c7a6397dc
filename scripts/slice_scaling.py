"""Growth of slice extraction and of the splitting map with the member count.

    PYTHONPATH=src python scripts/slice_scaling.py

Extracts the slice of the canonical segment product (a vertical line at
x = 0.5, one seed per factor point, knot extent 2.5 as the split command
takes it, so every asymptotic line has 3 knots) at 21, 41, 101, 201 and 401
factor points, with time steps 0.05, 0.025, 0.01, 0.005 and 0.0025, and
times it, best of five:

* ``extract_slice_s``: the whole extraction;
* ``verdict_pass_s``: the extraction with its asymptotes replayed from an
  earlier call, so that what remains is the parallel verdict of every
  member pair, with the member dedupe and the metric check of the table,
  the part that grows with the number of member pairs;
* ``build_splitting_map_s``: the map of that slice on the 41 time knots
  -2, -1.9, ..., 2 without a cover sample, as ``splitting_demo.py`` builds
  it.  Its tau defect, causal-order mismatches and bijectivity verdict are
  recorded with it, so that runs of two sources can be checked to agree.

The run goes into BENCH_slice.json at the repository root under the sha256
of src/lorentz_lab, together with the machine and the Python and numpy
versions.  An earlier run of the same source is replaced and runs of other
sources are kept, so that two checkouts can be compared in one file.
"""

import sys

from bench_record import ROOT, best_time, new_run, save_run
from lorentz_lab import splitting
from lorentz_lab.asymptotics import vertical_line
from lorentz_lab.models import EuclideanSegment, ProductSpace

OUT = ROOT / "BENCH_slice.json"
HORIZONS = [2 ** k for k in range(1, 9)]
SIZES = [(21, 0.05), (41, 0.025), (101, 0.01), (201, 0.005), (401, 0.0025)]
KNOTS = [round(-2 + 0.1 * k, 10) for k in range(41)]
REPEATS = 5
# what extract_slice builds per seed before it compares member pairs
REPLAYED = ("in_timelike_envelope", "busemann_value", "build_asymptotic_line",
            "line_point")


def replaying(fn):
    """fn, answering each argument list it has seen (by the identity of the
    arguments) with its first result."""
    seen = {}

    def replay(*args, **kw):
        key = tuple(map(id, args)) + tuple((k, id(v)) for k, v in kw.items())
        if key not in seen:
            seen[key] = (fn(*args, **kw), args, kw)   # keeps the ids alive
        return seen[key][0]
    return replay


def measure(factor_points, t_step):
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
        for name, fn in saved.items():
            setattr(splitting, name, replaying(fn))
        extract()
        verdicts = best_time(extract, REPEATS)
    finally:
        for name, fn in saved.items():
            setattr(splitting, name, fn)
    members = len(sl)
    return {"factor_points": factor_points, "t_step": t_step,
            "members": members, "member_pairs": members * (members - 1) // 2,
            "extract_slice_s": whole, "verdict_pass_s": verdicts,
            "build_splitting_map_s": mapped, "tau_defect": result.tau_defect,
            "leq_mismatches": result.leq_mismatches,
            "bijective": result.bijective}


def main():
    run = new_run(REPEATS)
    run["sizes"] = [measure(*size) for size in SIZES]
    save_run(OUT, run)
    for size in run["sizes"]:
        print(f"{size['members']:4d} members  extract_slice "
              f"{size['extract_slice_s']:.4f} s  verdict pass "
              f"{size['verdict_pass_s']:.4f} s  build_splitting_map "
              f"{size['build_splitting_map_s']:.4f} s  tau defect "
              f"{size['tau_defect']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
