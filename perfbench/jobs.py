"""The three workloads.  One job is one call of a function below.

Every job calls only public functions of lorentz_lab, each through
``tr.call`` so that a traced run puts a span around it, and returns the
oracle checks for its verdicts.  The caller runs those checks after the
job's clock has stopped.  A job's work does not depend on its seed; the seed
only picks the random inputs.
"""

from __future__ import annotations

import random
from functools import partial
from pathlib import Path

import numpy as np

from lorentz_lab import (asymptotics, chains, cli, comparison, core, models,
                         parallel, sampling, splitting)

import oracles
from oracles import ANGLE_TOL, EPS, FLAT_TOL

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "golden"
SEGMENT = str(GOLDEN / "product_segment.json")
VERTICAL_LINE = str(GOLDEN / "product_vertical_line.json")
STRIP = str(GOLDEN / "minkowski_strip.json")
HORIZONS = [2 ** k for k in range(1, 9)]   # the split command's default


# ---------------------------------------------------------------------------
# causal-sets: finite-table kernels

PLANTED_AXIOMS = ("d triangle inequality", "leq transitive",
                  "reverse triangle inequality")


def plant(space, axiom, seed):
    """Copy of the tables with one violation of ``axiom`` that is certain to
    be detected."""
    d, leq, ll, tau = oracles.table_arrays(space)
    n = space.n
    rng = np.random.default_rng(seed)
    if axiom == "d triangle inequality":
        i, j, k = rng.choice(n, 3, replace=False)
        d[i, k] = d[k, i] = d[i, j] + d[j, k] + 1.0
        return d, leq, ll, tau
    # a related triple i < j < k of distinct points, uniform over all such
    # triples: a related pair (i, j) weighted by the successors of j, then one
    # of those successors (n² memory, so the peak RSS stays the library's)
    rel = (leq if axiom == "leq transitive" else ll) & ~np.eye(n, dtype=bool)
    pairs = np.argwhere(rel)
    weights = rel.sum(axis=1)[pairs[:, 1]].astype(float)
    i, j = pairs[rng.choice(len(pairs), p=weights / weights.sum())]
    k = rng.choice(np.flatnonzero(rel[j]))
    if axiom == "leq transitive":
        leq[i, k] = ll[i, k] = False
        tau[i, k] = 0.0
    else:
        # still positive, so only the reverse triangle inequality breaks
        tau[i, k] = 0.5 * (tau[i, j] + tau[j, k])
    return d, leq, ll, tau


def widest_pair(space):
    """The related pair with the most points between it (first in index
    order), and the number of related pairs."""
    leq = np.asarray(space.leq_table(), dtype=bool)
    rel = leq & ~np.eye(len(leq), dtype=bool)
    lf = leq.astype(float)
    between = np.where(rel, lf @ lf, -1.0)
    i, j = np.unravel_index(int(np.argmax(between)), between.shape)
    return int(i), int(j), int(rel.sum())


def causal_sets(tr, seed, index):
    checks = []
    flat = {}
    for n in (48, 64):
        space = tr.call("sampling.flat_finite_space",
                        sampling.flat_finite_space, n, seed)
        report = tr.call("core.validate_axioms", core.validate_axioms, space,
                         tag=f"n{n}")
        tr.count("core.validate_axioms.triples", n ** 3)
        flat[n] = space
        checks.append(lambda s=space, r=report:
                      oracles.check_axioms(oracles.table_arrays(s), r))

    axiom = PLANTED_AXIOMS[index % len(PLANTED_AXIOMS)]
    tables = tr.call("bench.glue", plant, flat[48], axiom, seed)
    bad = tr.call("core.FiniteLorentzSpace", core.FiniteLorentzSpace, *tables)
    report = tr.call("core.validate_axioms", core.validate_axioms, bad,
                     tag="planted")
    tr.count("core.validate_axioms.triples", 48 ** 3)
    checks.append(partial(oracles.check_axioms, tables, report, axiom))

    for n in (200, 400):
        cs = tr.call("sampling.sprinkle_causal_set",
                     sampling.sprinkle_causal_set, n, seed, weighted=True,
                     tag=f"n{n}")
        tr.count("sampling.sprinkle_causal_set.pairs", n * n)
        i, j, related = tr.call("bench.glue", widest_pair, cs)
        tr.count("chains.maximize_tau.related_pairs", related)
        result = tr.call("chains.maximize_tau", chains.maximize_tau, cs, i, j,
                         tag=f"n{n}")
        checks.append(partial(oracles.check_longest_chain, cs, i, j, result))
    return checks


# ---------------------------------------------------------------------------
# splitting: the user path of ``lorentz-lab split`` on the golden product

SPLIT_KNOTS = [-2.0 + 0.5 * k for k in range(9)]   # --t-grid=-2:2:0.5
CAUCHY_LEVELS = [-1.0, 0.0, 1.0]


def _cover_sample(space, step):
    """Grid points the map must cover, as the split command selects them."""
    lo, hi = SPLIT_KNOTS[0] - 0.5 * step, SPLIT_KNOTS[-1] + 0.5 * step
    return [z for z in space.sample_points() if lo <= z[0] <= hi]


def split(tr, seed, index):
    checks = []
    space, meta = tr.call("cli.load_space", cli.load_space, SEGMENT)
    # the command's line loading: check the chain is a line, then index it
    chain = tr.call("cli.load_chain", cli.load_chain, VERTICAL_LINE,
                    meta["kind"])
    check = tr.call("chains.is_line", chains.is_line, space, chain, EPS)
    checks.append(partial(oracles.check_vertical_line, check, chain))
    anchor = min(range(len(chain.points)), key=lambda i: abs(chain.points[i][0]))
    line = tr.call("asymptotics.line_from_chain", asymptotics.line_from_chain,
                   space, chain, anchor=anchor, tol=EPS)
    knots = len(chain.points)
    tr.count("asymptotics.line_from_chain.knot_pairs", knots * (knots - 1) // 2)

    # the command's tolerance: Busemann error bounds at the probe points in
    # the timelike past of the line's first horizon point
    factor = space.factor.sample()
    bus_bound = max(
        (tr.call("asymptotics.busemann_value", asymptotics.busemann_value,
                 space, line, (0.0, q), HORIZONS).error_bound
         for q in factor[::max(1, len(factor) // 5)]
         if space.ll((0.0, q), line.point_at(HORIZONS[0]))),
        default=space.mesh)
    tolerance = 3.0 * (space.mesh + bus_bound)

    sl = tr.call("splitting.extract_slice", splitting.extract_slice, space,
                 line, [(0.0, q) for q in factor], HORIZONS,
                 tolerance=tolerance, knot_extent=2.5)
    tr.count("splitting.extract_slice.members", len(sl))
    checks.append(partial(oracles.check_slice, sl, factor, tolerance))

    step = SPLIT_KNOTS[1] - SPLIT_KNOTS[0]
    cover = tr.call("bench.glue", _cover_sample, space, step)
    result = tr.call("splitting.build_splitting_map",
                     splitting.build_splitting_map, space, sl, SPLIT_KNOTS,
                     tolerance=tolerance, cover_sample=cover,
                     cover_radius=0.5 * step + 2.0 * space.mesh)
    tr.count("splitting.build_splitting_map.n_pairs", result.n_pairs)
    checks.append(partial(oracles.check_splitting_map, result,
                          len(SPLIT_KNOTS), len(factor), tolerance))

    rng = random.Random(seed)
    for _ in range(6):
        a, b = rng.sample(range(len(sl)), 2)
        verdict = tr.call("parallel.test_parallel", parallel.test_parallel,
                          space, sl.lines[a], sl.lines[b], tolerance)
        checks.append(partial(oracles.check_parallel, verdict, factor[a],
                              factor[b], tolerance))

    probes = tr.call("sampling.spanning_timelike_chains",
                     sampling.spanning_timelike_chains, space, 8, seed)
    cauchy = tr.call("splitting.check_cauchy_slices",
                     splitting.check_cauchy_slices, space, result, probes,
                     levels=CAUCHY_LEVELS)
    tr.count("splitting.check_cauchy_slices.chain_levels", len(cauchy.statuses))
    checks.append(partial(oracles.check_cauchy, cauchy, probes, CAUCHY_LEVELS,
                          space.mesh))

    curv = tr.call("splitting.check_slice_alexandrov",
                   splitting.check_slice_alexandrov, sl, tol=1e-6,
                   metric_tol=tolerance)
    tr.count("splitting.check_slice_alexandrov.quadruples", curv.n_quadruples)
    tr.count("splitting.check_slice_alexandrov.useful_ratio",
             curv.n_quadruples / (curv.n_quadruples + curv.skipped))
    checks.append(partial(oracles.check_slice_curvature, curv, sl))
    return checks


# ---------------------------------------------------------------------------
# curvature: comparison testers on analytic spaces and one small table


def _round_trip_sides(rng, count):
    """Side triples realizable in the flat model, half with the middle vertex
    between the others (chain), half with it a time endpoint."""
    out = []
    while len(out) < count:
        a = 0.2 * 25.0 ** rng.random()
        b = 0.2 * 25.0 ** rng.random()
        if len(out) % 2 == 0:
            out.append((a, b, a + b + rng.uniform(0.01, 3.0), "chain"))
        elif abs(a - b) >= 0.5:
            out.append((a, b, abs(a - b) * rng.uniform(0.2, 0.9), "endpoint"))
    return out


def _solve_angle(a, b, c, config):
    return comparison.solve_angle(comparison.SideTriple(a, b, c, config))


def _product_samples(space, rng):
    """The grid, 25 grid points for push-up and 12 causally related grid
    pairs for the diamond scan."""
    grid = space.sample_points()
    points = rng.sample(grid, 25)
    pairs = []
    while len(pairs) < 12:
        p, q = rng.sample(grid, 2)
        if q[0] - p[0] >= abs(q[1] - p[1]):
            pairs.append((p, q))
    return grid, points, pairs


def curvature(tr, seed, index):
    checks = []
    strip, _ = tr.call("cli.load_space", cli.load_space, STRIP)
    segment, _ = tr.call("cli.load_space", cli.load_space, SEGMENT)
    for space in (strip, segment):
        triangles = tr.call("sampling.minkowski_triangles",
                            sampling.minkowski_triangles, space, 50, seed)
        for mode in ("lower", "upper"):
            report = tr.call("comparison.test_curvature_lower0",
                             comparison.test_curvature_lower0, space,
                             triangles, mode=mode, tol=FLAT_TOL, seed=seed)
            tr.count("comparison.test_curvature_lower0.pairs", report.n_pairs)
            checks.append(partial(oracles.check_flat_triangles, report, 50))

    for leg_a, leg_b in tr.call("sampling.product_hinges",
                                sampling.product_hinges, segment, 20, seed):
        for sense in ("lower", "upper"):
            report = tr.call("comparison.test_monotonicity_comparison",
                             comparison.test_monotonicity_comparison, segment,
                             leg_a, leg_b, sense, tol=ANGLE_TOL)
            tr.count("comparison.test_monotonicity_comparison.n_defined",
                     report.n_defined)
            checks.append(partial(oracles.check_flat_monotonicity, report))

    table = tr.call("sampling.flat_finite_space", sampling.flat_finite_space,
                    32, seed)
    triangles = tr.call("sampling.finite_triangles", sampling.finite_triangles,
                        table, 20, seed)
    tr.count("sampling.finite_triangles.triples_scanned", 32 ** 3)
    tr.count("sampling.finite_triangles.bent_sides",
             sum(len(side.knots) > 2 for tri in triangles
                 for side in tri.sides.values()))
    for mode in ("lower", "upper"):
        report = tr.call("comparison.test_curvature_lower0",
                         comparison.test_curvature_lower0, table, triangles,
                         mode=mode, tol=FLAT_TOL, seed=seed)
        tr.count("comparison.test_curvature_lower0.pairs", report.n_pairs)
        checks.append(partial(oracles.check_table_triangles, report, table,
                              triangles))

    rng = random.Random(seed)
    grid, points, pairs = tr.call("bench.glue", _product_samples, segment, rng)
    push = tr.call("core.check_pushup", core.check_pushup, segment, points)
    tr.count("core.check_pushup.triples", push.n_triples)
    checks.append(partial(oracles.check_pushup, push, points))

    ghyp = tr.call("models.check_product_glob_hyp",
                   models.check_product_glob_hyp, segment, pairs)
    tr.count("models.check_product_glob_hyp.points_scanned",
             len(pairs) * len(grid))
    checks.append(partial(oracles.check_glob_hyp, ghyp, segment, pairs))

    sides = tr.call("bench.glue", _round_trip_sides, rng, 500)
    for a, b, c, config in sides:
        angle = tr.call("comparison.solve_angle", _solve_angle, a, b, c, config)
        back = tr.call("comparison.law_of_cosines_side",
                       comparison.law_of_cosines_side, a, b, angle.omega,
                       angle.sigma)
        checks.append(partial(oracles.check_round_trip, c, back))
    return checks


WORKLOADS = {"causal-sets": causal_sets, "splitting": split,
             "curvature": curvature}

# Span names of every public call the jobs make, plus the benchmark's glue.
CALLS = (
    "bench.glue",
    "cli.load_space", "cli.load_chain",
    "core.FiniteLorentzSpace", "core.validate_axioms", "core.check_pushup",
    "sampling.flat_finite_space", "sampling.sprinkle_causal_set",
    "sampling.spanning_timelike_chains", "sampling.minkowski_triangles",
    "sampling.product_hinges", "sampling.finite_triangles",
    "chains.maximize_tau", "chains.is_line",
    "asymptotics.line_from_chain", "asymptotics.busemann_value",
    "splitting.extract_slice", "splitting.build_splitting_map",
    "splitting.check_cauchy_slices", "splitting.check_slice_alexandrov",
    "parallel.test_parallel",
    "comparison.test_curvature_lower0",
    "comparison.test_monotonicity_comparison",
    "comparison.solve_angle", "comparison.law_of_cosines_side",
    "models.check_product_glob_hyp",
)
# Calls timed one by one at each tagged input size.
SIZED = {
    "core.validate_axioms": ("n48", "n64", "planted"),
    "sampling.sprinkle_causal_set": ("n200", "n400"),
    "chains.maximize_tau": ("n200", "n400"),
}
PER_CALL = ("parallel.test_parallel",)
COUNTS = {
    "core.validate_axioms.triples": "count",
    "sampling.sprinkle_causal_set.pairs": "count",
    "chains.maximize_tau.related_pairs": "count",
    "asymptotics.line_from_chain.knot_pairs": "count",
    "splitting.extract_slice.members": "count",
    "splitting.build_splitting_map.n_pairs": "count",
    "splitting.check_cauchy_slices.chain_levels": "count",
    "splitting.check_slice_alexandrov.quadruples": "count",
    "splitting.check_slice_alexandrov.useful_ratio": "ratio",
    "comparison.test_curvature_lower0.pairs": "count",
    "comparison.test_monotonicity_comparison.n_defined": "count",
    "sampling.finite_triangles.triples_scanned": "count",
    "sampling.finite_triangles.bent_sides": "count",
    "core.check_pushup.triples": "count",
    "models.check_product_glob_hyp.points_scanned": "count",
}
