"""The line lookups and array forms of the split path, pinned to the loop
versions they replaced.

The loops below are the former implementations of ``LineDescriptor.point_at``
and ``has_param``, ``line_point``, ``validate_chain``,
``reparametrize_tau_arclength``, ``is_line``, ``product_image_defect``,
``build_splitting_map``, ``check_slice_alexandrov``, ``c_functions``,
``test_parallel`` (with its least-squares shift), ``extract_slice`` (its
per-seed steps, the pairwise distance loop and the footpoint dedupe),
``build_asymptotic_line`` (both asymptotes and their join), the crossing
count of ``check_cauchy_slices``, the per-point synchronized time and
``in_timelike_envelope``, kept as oracles: each bisection, array form and
knot-pair table must give the same answers, the same first failures, the
same witnesses in the same order and the same values, bit for bit.  The
oracles of the parallel verdicts and of the slice curvature test are
written in the arithmetic that README "Numerical conventions" states for
those kernels: squares as plain products, sums left to right from +0.0,
spreads that a NaN entry makes NaN, and ``np.arccos``.  The
array forms of ``tau`` and ``leq`` are compared with the scalar forms on
every factor kind and on finite tables.
"""

import functools
import gc
import itertools
import math
import operator
import random
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lorentz_lab import chains, cli, splitting
from lorentz_lab import asymptotics
from lorentz_lab.asymptotics import (LineDescriptor, build_asymptote,
                                     build_asymptotic_line,
                                     build_asymptotic_lines, busemann_value,
                                     in_timelike_envelope,
                                     join_asymptotic_line, line_point,
                                     vertical_line)
from lorentz_lab.chains import (CausalChain, LineCheck, is_line,
                                reparametrize_tau_arclength, validate_chain)
from lorentz_lab.core import (EPS, FiniteLorentzSpace, PointTuple,
                              PreconditionError)
from lorentz_lab.models import (EuclideanSegment, ExplicitTable, PlaneSample,
                                ProductSpace, TripodGraph, _product_tau,
                                minkowski_space, product_image_defect)
from lorentz_lab.parallel import (CFunctionTable, ParallelRealisation,
                                  ParallelVerdict, c_functions, decide_parallel)
from lorentz_lab.parallel import test_parallel as parallel_verdict
from lorentz_lab.sampling import sprinkle_causal_set
from lorentz_lab.splitting import (MAX_PAIRS, SliceCurvatureReport,
                                   SpacelikeSlice, build_splitting_map,
                                   check_slice_alexandrov, extract_slice,
                                   slice_from_table, synchronized_times)

from conftest import BUSEMANN_TOL, HORIZONS, column_lattice_table

# the oracles evaluate inf - inf and overflowing products on numpy scalars
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:divide by zero encountered:RuntimeWarning")

SEEDS = st.integers(0, 10_000)
GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "golden"


def bits(values):
    """Bit patterns of floats: equal only when the values agree bit for bit,
    signed zeros included."""
    return np.asarray(values, dtype=float).reshape(-1).view(np.uint64).tolist()


def outcome(fn, *args):
    """Return value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (PreconditionError, ValueError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# loop oracles


def left_sum(values):
    """The sum of values left to right from +0.0, on every Python version
    (3.12 made ``sum`` of floats compensated)."""
    return functools.reduce(operator.add, values, 0.0)


def spread_loops(values):
    """Largest minus smallest value, NaN when any value is NaN."""
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values) - min(values)


def point_at_loops(line, t):
    for p, pt in zip(line.params, line.chain.points):
        if math.isfinite(t) and abs(p - t) <= 1e-9 * max(1.0, abs(t)):
            return pt
    raise PreconditionError(f"parameter {t} is not a knot of this line")


def has_param_loops(line, t):
    return math.isfinite(t) and \
        any(abs(p - t) <= 1e-9 * max(1.0, abs(t)) for p in line.params)


def line_point_loops(space, line, param):
    if has_param_loops(line, param):
        return point_at_loops(line, param)
    ps, pts = line.params, line.chain.points
    for i in range(len(ps) - 1):
        if ps[i] < param < ps[i + 1]:
            if hasattr(space, "realizer_point"):
                return space.realizer_point(pts[i], pts[i + 1], param - ps[i])
            return pts[i] if param - ps[i] <= ps[i + 1] - param else pts[i + 1]
    raise PreconditionError(f"parameter {param} outside the line extent")


def validate_chain_loops(space, chain):
    nonconstant = False
    for a, b in chain.pairs():
        if not space.leq(a, b):
            raise PreconditionError(f"chain step {a} -> {b} is not causal")
        if a != b:
            nonconstant = True
    if not nonconstant:
        raise PreconditionError("chain is constant")


def reparametrize_loops(space, chain):
    validate_chain_loops(space, chain)
    steps = [space.tau(a, b) for a, b in chain.pairs()]
    for (a, b), step in zip(chain.pairs(), steps):
        if step <= 0.0:
            raise PreconditionError(f"null step {a} -> {b}: cannot parametrize")
    return list(itertools.accumulate(steps, initial=0.0))


def is_line_loops(space, chain, tol=EPS):
    validate_chain_loops(space, chain)
    pts = chain.points
    steps = [space.tau(a, b) for a, b in chain.pairs()]
    cum = [0.0]
    for s in steps:
        cum.append(cum[-1] + s)

    first_failure = None
    ray_ok = True
    line_ok = True
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            defect = abs((cum[j] - cum[i]) - space.tau(pts[i], pts[j]))
            if defect > tol:
                line_ok = False
                if i == 0:
                    ray_ok = False
                if first_failure is None:
                    first_failure = (i, j)
    return LineCheck(ray_ok, line_ok, first_failure, cum[-1])


def in_timelike_envelope_loops(space, line, p):
    pts = line.chain.points
    return any(space.ll(g, p) for g in pts) and any(space.ll(p, g) for g in pts)


def build_asymptotic_line_loops(space, line, p, horizons, shift=0.0,
                                knot_extent=None):
    """The former ``build_asymptotic_line``: both asymptotes, their join
    and the shift."""
    fut = build_asymptote(space, line, p, "future", horizons, knot_extent)
    pst = build_asymptote(space, line, p, "past", horizons, knot_extent)
    joined = join_asymptotic_line(space, p, fut, pst, 10.0 * space.mesh)
    return joined.shifted(shift) if shift else joined


def extract_slice_loops(space, line, seeds, horizons, tolerance,
                        knot_extent=None):
    """The former ``extract_slice``: the per-seed steps in seed order, each
    footpoint screened against the members kept so far."""
    dedupe_radius = 0.25 * space.mesh
    members, lines = [], []
    for seed in seeds:
        if not in_timelike_envelope_loops(space, line, seed):
            raise PreconditionError(f"seed {seed} outside the timelike envelope")
        b = busemann_value(space, line, seed, horizons)
        asym = build_asymptotic_line_loops(space, line, seed, horizons,
                                           b.value, knot_extent)
        foot = line_point_loops(space, asym, 0.0)
        if any(space.d(foot, m) < dedupe_radius for m in members):
            continue
        members.append(foot)
        lines.append(asym)

    n = len(members)
    first, second = np.triu_indices(n, 1)
    verdicts = decide_parallel(space, lines, first, second, tolerance)
    failed = np.flatnonzero(~verdicts.parallel)
    if len(failed):
        k = failed[0]
        i, j = int(first[k]), int(second[k])
        verdicts.verdict(k, lines[i], lines[j])
        raise PreconditionError(f"asymptotes through members {i} and {j} "
                                "fail the parallelity test")
    d = np.zeros((n, n))
    d[first, second] = d[second, first] = verdicts.distance_c
    out = SpacelikeSlice(tuple(members), d, tuple(lines), line, tuple(horizons))
    ok, worst = out.validate_metric(tolerance)
    if not ok:
        raise PreconditionError(f"slice distances violate the metric axioms "
                                f"by {worst}")
    return out


def synchronized_time_loops(space, line, p, horizons):
    usable = [t for t in horizons
              if has_param_loops(line, t)
              and space.ll(p, point_at_loops(line, t))]
    if len(usable) < 2:
        raise PreconditionError(
            f"fewer than two horizons remain timelike related to {p}")
    return busemann_value(space, line, p, usable).value


def product_image_defect_loops(space, pairs, null_band):
    tau_defect = 0.0
    mismatched = []
    for p, q, dt, dx, label in pairs:
        if abs(dt - dx) <= null_band:
            continue
        tau_defect = max(tau_defect, abs(space.tau(p, q) - _product_tau(dt, dx)))
        if space.leq(p, q) != (dt >= dx):
            mismatched.append(label)
    return tau_defect, mismatched


def build_splitting_map_loops(space, sl, time_knots, tolerance,
                              cover_sample=None, cover_radius=None):
    if cover_radius is None:
        cover_radius = 2.0 * getattr(space, "mesh", EPS)
    time_knots = tuple(time_knots)
    images = {}
    for ki, t in enumerate(time_knots):
        for mi, line in enumerate(sl.lines):
            images[(ki, mi)] = line_point_loops(space, line, t)

    witnesses = []
    bijective = True
    dedupe = getattr(space, "mesh", EPS) * 0.25
    for ki in range(len(time_knots)):
        for mi in range(len(sl.members)):
            for mj in range(mi + 1, len(sl.members)):
                if space.d(images[(ki, mi)], images[(ki, mj)]) < dedupe:
                    bijective = False
                    witnesses.append(("duplicate-image", ki, mi, mj))

    keys = list(images)
    all_pairs = list(itertools.combinations(range(len(keys)), 2))
    if len(all_pairs) > MAX_PAIRS:
        all_pairs = random.Random(0).sample(all_pairs, MAX_PAIRS)

    def image_pairs():
        for ia, ib in all_pairs:
            (ka, ma), (kb, mb) = keys[ia], keys[ib]
            u, v = images[keys[ia]], images[keys[ib]]
            sa, sb = time_knots[ka], time_knots[kb]
            for (p, q, s, t, i, j) in ((u, v, sa, sb, ma, mb),
                                       (v, u, sb, sa, mb, ma)):
                yield p, q, t - s, sl.d_S[i, j], ("leq-mismatch", (i, s), (j, t))

    tau_defect, mismatched = product_image_defect_loops(space, image_pairs(),
                                                        tolerance)
    witnesses.extend(mismatched)

    if cover_sample is not None:
        image_list = list(images.values())
        for z in cover_sample:
            if min(space.d(z, w) for w in image_list) > cover_radius:
                bijective = False
                witnesses.append(("uncovered", z))
    return (images, tau_defect, len(mismatched), bijective, tuple(witnesses),
            2 * len(all_pairs))


def check_slice_alexandrov_loops(sl, tol=1e-6, metric_tol=None):
    n = len(sl.members)
    if n < 4:
        raise PreconditionError("need at least four slice members")
    ok, worst_metric = sl.validate_metric(metric_tol if metric_tol is not None
                                          else max(tol, EPS))
    if not ok:
        raise PreconditionError(f"slice table is not a metric (defect {worst_metric})")
    d = sl.d_S

    def angle(x, a, b):
        da, db, dab = d[x, a], d[x, b], d[a, b]
        if da <= EPS or db <= EPS:
            return None
        c = (da * da + db * db - dab * dab) / (2.0 * da * db)
        return np.arccos(min(1.0, max(-1.0, c)))

    quads = [(x, trip) for x in range(n)
             for trip in itertools.combinations(
                 [i for i in range(n) if i != x], 3)]

    worst = -math.inf
    witness = None
    skipped = 0
    count = 0
    for x, (a, b, c) in quads:
        angs = (angle(x, a, b), angle(x, b, c), angle(x, a, c))
        if any(v is None for v in angs):
            skipped += 1
            continue
        count += 1
        excess = (angs[0] + angs[1]) + angs[2] - 2.0 * math.pi
        if excess > worst:
            worst, witness = excess, (x, a, b, c)
    if count == 0:
        raise PreconditionError("all quadruples degenerate")
    return SliceCurvatureReport(worst <= tol, worst, witness, count, skipped)


def c_functions_loops(space, alpha, beta):
    a_knots = list(zip(alpha.params, alpha.chain.points))
    b_knots = list(zip(beta.params, beta.chain.points))
    c_ab, c_ba, n_ab, n_ba = {}, {}, {}, {}
    flags = 0
    for s, pa in a_knots:
        for t, pb in b_knots:
            if space.leq(pa, pb):
                gap, tau = t - s, space.tau(pa, pb)
                rad = gap * gap - tau * tau
                if rad < -EPS:
                    flags += 1
                else:
                    c_ab[(s, t)] = math.sqrt(max(rad, 0.0))
            if space.leq(pb, pa):
                gap, tau = s - t, space.tau(pb, pa)
                rad = gap * gap - tau * tau
                if rad < -EPS:
                    flags += 1
                else:
                    c_ba[(s, t)] = math.sqrt(max(rad, 0.0))

    def null_scan(src_knots, dst_knots, out):
        for s, pa in src_knots:
            qualifying = [t for t, pb in dst_knots if space.leq(pa, pb)]
            if not qualifying:
                continue
            tmin = min(qualifying)
            below = [t for t, _ in dst_knots if t < tmin]
            edge = not below
            prev_gap = (max(below) - s) if below else -math.inf
            out[s] = (tmin - s, edge, prev_gap)

    null_scan(a_knots, b_knots, n_ab)
    null_scan(b_knots, a_knots, n_ba)
    return CFunctionTable(c_ab, c_ba, n_ab, n_ba, flags)


def affine_slope_loops(points):
    if len(points) < 2:
        return None
    gs = [g for g, _ in points]
    ys = [y for _, y in points]
    n = len(points)
    gbar = left_sum(gs) / n
    ybar = left_sum(ys) / n
    den = left_sum((g - gbar) * (g - gbar) for g in gs)
    if den <= EPS:
        return None
    return left_sum((g - gbar) * (y - ybar) for g, y in zip(gs, ys)) / den


def fit_shift_loops(raw):
    """The least-squares shift, and which branch gave it: "fit" (some
    family of timelike gaps), "nulls" (the null-minima midpoints) or
    "none"."""
    estimates = []
    s_ab = affine_slope_loops([((t - s), v * v) for (s, t), v in raw.c_ab.items()])
    if s_ab is not None:
        estimates.append(-s_ab / 2.0)
    s_ba = affine_slope_loops([((s - t), v * v) for (s, t), v in raw.c_ba.items()])
    if s_ba is not None:
        estimates.append(s_ba / 2.0)
    if estimates:
        return left_sum(estimates) / len(estimates), "fit"
    nab = [v for v, _, _ in raw.n_ab.values()]
    nba = [v for v, _, _ in raw.n_ba.values()]
    if nab and nba:
        return (left_sum(nba) / len(nba) - left_sum(nab) / len(nab)) / 2.0, \
            "nulls"
    return 0.0, "none"


def parallel_verdict_loops(space, alpha, beta, tolerance):
    raw = c_functions_loops(space, alpha, beta)
    shift, _ = fit_shift_loops(raw)

    synced = beta.shifted(shift)
    table = c_functions_loops(space, alpha, synced)
    values = table.timelike_values()
    if not values:
        return ParallelVerdict(False, math.nan, shift, math.nan,
                               table.per_function_spreads(), math.nan, 0,
                               None, table.complex_flags)
    spread = spread_loops(values)
    c_mean = left_sum(values) / len(values)
    ok = spread <= tolerance
    for low, high in table.null_brackets():
        if c_mean < low - tolerance or c_mean > high + tolerance:
            ok = False

    tau_defect = 0.0
    mismatches = 0
    if ok:
        pairs = []
        for s, pa in zip(alpha.params, alpha.chain.points):
            for t, pb in zip(synced.params, synced.chain.points):
                pairs += [(pa, pb, t - s, c_mean, None),
                          (pb, pa, s - t, c_mean, None)]
        tau_defect, mismatched = product_image_defect_loops(space, pairs,
                                                            tolerance)
        mismatches = len(mismatched)
        ok = tau_defect <= tolerance and mismatches == 0

    realisation = ParallelRealisation(alpha, synced, shift, c_mean) if ok else None
    return ParallelVerdict(ok, c_mean, shift, spread,
                           table.per_function_spreads(), tau_defect,
                           mismatches, realisation, table.complex_flags)


# ---------------------------------------------------------------------------
# knot lookups


@st.composite
def knot_params(draw):
    """Strictly increasing parameters at any scale, with gaps below, at and
    above the 1e-9 lookup tolerance."""
    base = draw(st.sampled_from([0.0, -1.0, 3.0, -1e3, 1e6, -1e12, 1e15]))
    gaps = draw(st.lists(st.sampled_from(
        [1e-12, 4e-10, 1e-9, 1.5e-9, 3e-9, 1e-6, 0.25, 1.0, 7.0]),
        min_size=1, max_size=12))
    scale = max(1.0, abs(base))
    params = [base]
    for g in gaps:
        params.append(params[-1] + g * draw(st.sampled_from([1.0, scale])))
    assume(all(b > a for a, b in zip(params, params[1:])))
    return params


def queries(params, extra):
    """Every knot, both tolerance edges of every knot and their
    neighbouring floats, midpoints, and the extra values."""
    out = list(extra)
    for p in params:
        tol = 1e-9 * max(1.0, abs(p))
        for t in (p, p - tol, p + tol):
            out += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    out += [(a + b) / 2 for a, b in zip(params, params[1:])]
    return out


EXTRA = [0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 1e300, -1e300]


class TestKnotLookupsMatchLoops:
    @settings(max_examples=150, deadline=None)
    @given(params=knot_params(), extra=st.lists(
        st.floats(allow_nan=True, allow_infinity=True), max_size=5))
    def test_point_at_and_has_param(self, params, extra):
        line = LineDescriptor(CausalChain(tuple(range(len(params)))), params)
        for t in queries(params, EXTRA + extra):
            assert line.has_param(t) == has_param_loops(line, t), t
            assert outcome(line.point_at, t) == outcome(point_at_loops, line, t)

    @settings(max_examples=100, deadline=None)
    @given(params=knot_params(), extra=st.lists(
        st.floats(allow_nan=True, allow_infinity=True), max_size=5))
    def test_line_point_nearest_knot(self, params, extra):
        # a space without maximizers: the nearer bracketing knot
        line = LineDescriptor(CausalChain(tuple(range(len(params)))), params)
        space = object()
        for t in queries(params, EXTRA + extra):
            assert outcome(line_point, space, line, t) == \
                outcome(line_point_loops, space, line, t), t

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0]),
                                    st.sampled_from([-0.25, 0.0, 0.25])),
                          min_size=1, max_size=8),
           stretch=st.sampled_from([0.5, 1.0, 3.0]),
           extra=st.lists(st.floats(-20, 20), max_size=5))
    def test_line_point_on_maximizers(self, steps, stretch, extra):
        # a product: the point along the maximizer between bracketing knots,
        # with parameters that need not match the separations
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        pts = [(0.0, 0.0)]
        for dt, dx in steps:
            pts.append((pts[-1][0] + dt, pts[-1][1] + dx))
        params = [stretch * p[0] for p in pts]
        line = LineDescriptor(CausalChain(tuple(pts)), params)
        for t in queries(params, EXTRA + extra):
            assert outcome(line_point, space, line, t) == \
                outcome(line_point_loops, space, line, t), t


# ---------------------------------------------------------------------------
# array forms of tau and leq

TIMES = [-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0,
         1e200, math.inf, -math.inf, math.nan]
OFFSETS = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]


def factor_point(kind, draw):
    if kind == "segment":
        return draw(st.sampled_from(OFFSETS + [-1.0, 1e200, math.inf, math.nan]))
    if kind == "plane":
        return (draw(st.sampled_from(OFFSETS + [math.inf])),
                draw(st.sampled_from([0.0, 0.5, -1.0, math.nan])))
    if kind == "tripod":
        return (draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from(OFFSETS)))
    return draw(st.integers(0, 3))


FACTORS = {
    "segment": EuclideanSegment(0.0, 1.0, 5),
    "plane": PlaneSample(((0.0, 0.0), (1.0, 0.0)), 0.5),
    "tripod": TripodGraph(1.0, 5),
    "table": ExplicitTable(((0.0, 0.5, 1.0, math.inf),
                            (0.5, 0.0, 0.5, 2.0),
                            (1.0, 0.5, 0.0, 0.25),
                            (math.inf, 2.0, 0.25, 0.0)), 0.25),
}


@st.composite
def product_points(draw, kind):
    n = draw(st.integers(1, 10))
    return [(draw(st.sampled_from(TIMES)), factor_point(kind, draw))
            for _ in range(n)]


def index_pairs(draw, n):
    size = draw(st.integers(0, 30))
    return (draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)),
            draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))


def scalar_forms(space, points, i, j):
    pairs = [(points[a], points[b]) for a, b in zip(i, j)]
    return ([space.tau(p, q) for p, q in pairs],
            [space.leq(p, q) for p, q in pairs],
            [space.d(p, q) for p, q in pairs])


def finite_space(n, seed):
    """Unstructured finite table with ties and inf separations."""
    rng = np.random.default_rng(seed)
    d = rng.choice([0.0, 0.5, 1.0, math.inf], size=(n, n))
    leq = rng.random((n, n)) < 0.5
    tau = rng.choice([0.0, 0.5, 1.0, math.inf], size=(n, n))
    return FiniteLorentzSpace(d, leq, leq & (tau > 0), tau)


class TestArrayFormsMatchScalar:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(FACTORS)), data=st.data())
    def test_product_factors(self, kind, data):
        space = ProductSpace(FACTORS[kind])
        points = data.draw(product_points(kind))
        i, j = index_pairs(data.draw, len(points))
        tau, leq, d = scalar_forms(space, points, i, j)
        assert bits(space.tau_array(points, i, j)) == bits(tau)
        assert space.leq_array(points, i, j).tolist() == leq
        # d_array: np.hypot, within the relative 1e-12 the cover check
        # settles with d
        got = space.d_array(points, i, j)
        want = np.array(d)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.array_equal(got[~np.isfinite(got)], want[~np.isfinite(want)],
                              equal_nan=True)
        fin = np.isfinite(want)
        assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * want[fin])

    def test_ties_at_the_light_cone(self):
        space = ProductSpace(FACTORS["segment"])
        points = [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.25, 0.5)]
        i, j = [0, 0, 1, 2, 3], [1, 2, 2, 3, 1]
        tau, leq, _ = scalar_forms(space, points, i, j)
        assert leq[0] and tau[0] == 0.0       # dt == dist: causal, tau 0
        assert bits(space.tau_array(points, i, j)) == bits(tau)
        assert space.leq_array(points, i, j).tolist() == leq

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=SEEDS, data=st.data())
    def test_finite_tables(self, n, seed, data):
        space = finite_space(n, seed)
        points = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=10))
        i, j = index_pairs(data.draw, len(points))
        tau, leq, d = scalar_forms(space, points, i, j)
        assert bits(space.tau_array(points, i, j)) == bits(tau)
        assert space.leq_array(points, i, j).tolist() == leq
        assert bits(space.d_array(points, i, j)) == bits(d)


# ---------------------------------------------------------------------------
# is_line


@st.composite
def product_chains(draw):
    """Causal chains on a quarter grid: straight runs, kinks and null steps,
    so that additivity holds, fails and ties at the tolerance."""
    pts = [(0.0, 0.0)]
    for _ in range(draw(st.integers(1, 9))):
        dt = draw(st.sampled_from([0.25, 0.5, 1.0]))
        dx = draw(st.sampled_from([-dt, -0.25, 0.0, 0.0, 0.25, dt]))
        if abs(dx) > dt:
            dx = 0.0
        pts.append((pts[-1][0] + dt, pts[-1][1] + dx))
    return CausalChain(tuple(pts))


def finite_chain(space, seed):
    """A random walk along the causal relation of a finite table."""
    rng = random.Random(seed)
    v = rng.randrange(space.n)
    chain = [v]
    for _ in range(space.n):
        nxt = [u for u in range(space.n) if u != v and space.leq(v, u)]
        if not nxt:
            break
        v = rng.choice(nxt)
        chain.append(v)
    return chain


def chain_outcomes(space, chain):
    """validate_chain and reparametrize_tau_arclength against their loops:
    the same parameters bit for bit, or the same error."""
    assert outcome(validate_chain, space, chain) == \
        outcome(validate_chain_loops, space, chain)
    got = outcome(reparametrize_tau_arclength, space, chain)
    want = outcome(reparametrize_loops, space, chain)
    if isinstance(want, list):
        assert bits(got) == bits(want)
    else:
        assert got == want
    return want


class TestChainChecksMatchLoops:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(FACTORS)), data=st.data())
    def test_product_points(self, kind, data):
        # any points: non-causal, null and repeated steps, inf and NaN
        points = data.draw(product_points(kind))
        assume(len(points) >= 2)
        chain_outcomes(ProductSpace(FACTORS[kind]), CausalChain(tuple(points)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=SEEDS, data=st.data())
    def test_finite_tables(self, n, seed, data):
        points = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=10))
        chain_outcomes(finite_space(n, seed), CausalChain(tuple(points)))

    def test_first_failure_in_order(self):
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        for points, message in (
                # two non-causal steps: the first is reported
                ([(0.0, 0.0), (1.0, 0.0), (1.5, 2.0), (1.6, -3.0)],
                 "chain step (1.0, 0.0) -> (1.5, 2.0) is not causal"),
                ([(1.0, 0.5), (1.0, 0.5), (1.0, 0.5)], "chain is constant"),
                # a null step after a timelike one
                ([(0.0, 0.0), (1.0, 0.0), (1.5, 0.5), (2.0, 0.0)],
                 "null step (1.0, 0.0) -> (1.5, 0.5): cannot parametrize")):
            chain = CausalChain(tuple(points))
            assert chain_outcomes(space, chain) == (PreconditionError, message)


class TestIsLineMatchesLoops:
    @settings(max_examples=120, deadline=None)
    @given(chain=product_chains(), tol=st.sampled_from([0.0, EPS, 0.05, 0.5]))
    def test_product_chains(self, chain, tol):
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        assert outcome(is_line, space, chain, tol) == \
            outcome(is_line_loops, space, chain, tol)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 14), seed=SEEDS, weighted=st.booleans(),
           tol=st.sampled_from([0.0, EPS, 0.1]))
    def test_finite_chains(self, n, seed, weighted, tol):
        space = sprinkle_causal_set(n, seed, weighted)
        pts = finite_chain(space, seed)
        assume(len(pts) >= 2)
        chain = CausalChain(tuple(pts))
        assert outcome(is_line, space, chain, tol) == \
            outcome(is_line_loops, space, chain, tol)

    def test_non_causal_step_raises_alike(self):
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        chain = CausalChain(((0.0, 0.0), (1.0, 2.0)))
        got = outcome(is_line, space, chain)
        assert got == outcome(is_line_loops, space, chain)
        assert got[0] is PreconditionError

    def test_long_vertical_line(self):
        space = ProductSpace(EuclideanSegment(0.0, 1.0, 21))
        chain = CausalChain(tuple((float(t), 0.5) for t in range(-260, 261)))
        assert is_line(space, chain) == is_line_loops(space, chain)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @settings(max_examples=40, deadline=None)
    @given(chain=product_chains(), tol=st.sampled_from([0.0, EPS, 0.05, 0.5]))
    def test_block_boundaries(self, block, chain, tol):
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", block)
            assert outcome(is_line, space, chain, tol) == \
                outcome(is_line_loops, space, chain, tol)

    def test_failure_past_the_first_block(self):
        # in a product space any failure shows in row 0 first, so a doctored
        # table places the first failures at rows 200 and 201 (row-major
        # pair 59999 and later, in the second block), and one in the third
        n = 400
        k = np.arange(n)
        tau = np.maximum(k[None, :] - k[:, None], 0).astype(float)
        tau[200, 300] += 0.5
        tau[201, 203] += 0.5
        tau[390, 399] += 0.5
        space = FiniteLorentzSpace(np.abs(k[None, :] - k[:, None]),
                                   k[:, None] <= k[None, :],
                                   k[:, None] < k[None, :], tau)
        chain = CausalChain(tuple(range(n)))
        check = is_line(space, chain)
        assert check == is_line_loops(space, chain)
        assert check == LineCheck(True, False, (200, 300), n - 1.0)

    @pytest.mark.parametrize("block", [1, 5, 16, 100])
    def test_rows_longer_than_the_band(self, block):
        # 60 knots of a doctored table, the band a few entries: every band
        # holds one row, cut to the columns after it, and no call exceeds
        # max(block, one row); failures planted late and in two rows
        n = 60
        k = np.arange(n)
        tau = np.maximum(k[None, :] - k[:, None], 0).astype(float)
        tau[40, 59] += 0.5
        tau[41, 43] += 0.5
        space = FiniteLorentzSpace(np.abs(k[None, :] - k[:, None]),
                                   k[:, None] <= k[None, :],
                                   k[:, None] < k[None, :], tau)
        sizes = []

        def tau_array(points, i, j):
            sizes.append(math.prod(np.broadcast_shapes(np.shape(i),
                                                       np.shape(j))))
            return FiniteLorentzSpace.tau_array(space, points, i, j)

        chain = CausalChain(tuple(range(n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", block)
            mp.setattr(space, "tau_array", tau_array)
            check = is_line(space, chain)
        assert check == is_line_loops(space, chain)
        assert check == LineCheck(True, False, (40, 59), n - 1.0)
        # the steps, then the bands up to the one holding row 40: one row
        # each while a row is longer than the band
        assert sizes[0] == n - 1
        assert max(sizes[1:]) <= max(block, n - 1)
        if block < 19:
            assert sizes[1:] == list(range(n - 1, n - 42, -1))

    def test_memory_bounded_by_the_block(self):
        # all 2001 * 2000 / 2 pairs at once would take about 16 MB per
        # float64 array
        space = ProductSpace(EuclideanSegment(0.0, 1.0, 21))
        chain = CausalChain(tuple((float(t), 0.5) for t in range(2001)))
        tracemalloc.start()
        try:
            check = is_line(space, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check == LineCheck(True, True, None, 2000.0)
        assert peak < 8 * 2 ** 20


class TestEnvelopeMatchesLoops:
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(sorted(FACTORS)), data=st.data())
    def test_product_points(self, kind, data):
        # the line's knots need not be related to each other
        space = ProductSpace(FACTORS[kind])
        p, *knots = data.draw(product_points(kind))
        assume(len(knots) >= 2)
        line = LineDescriptor(CausalChain(tuple(knots)), range(len(knots)))
        assert in_timelike_envelope(space, line, p) is \
            in_timelike_envelope_loops(space, line, p)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 8), seed=SEEDS, data=st.data())
    def test_finite_tables(self, n, seed, data):
        space = finite_space(n, seed)
        p = data.draw(st.integers(0, n - 1))
        knots = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                   max_size=6))
        line = LineDescriptor(CausalChain(tuple(knots)), range(len(knots)))
        assert in_timelike_envelope(space, line, p) is \
            in_timelike_envelope_loops(space, line, p)

    def test_golden_line(self):
        # seeds on both sides of the line and past its ends
        space = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)
        line = vertical_line(space, 0.5, range(-260, 261))
        probes = [(t, q) for t in (-300.0, -260.0, -259.5, 0.0, 259.5, 260.0)
                  for q in space.factor.sample()]
        got = [in_timelike_envelope(space, line, p) for p in probes]
        assert got == [in_timelike_envelope_loops(space, line, p)
                       for p in probes]
        assert True in got and False in got

    @pytest.mark.parametrize("block", [1, 9, 18, 27, chains.PAIR_BLOCK])
    def test_bands(self, block):
        # bands of one, two and three points of a nine-knot line, and all
        # points in one band
        space = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)
        line = vertical_line(space, 0.5, range(-4, 5))
        probes = [(t, q) for t in (-6.0, -4.0, -3.5, 0.0, 3.5, 4.0)
                  for q in space.factor.sample()[::4]]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", block)
            got = asymptotics.in_timelike_envelopes(space, line, probes)
        assert got.tolist() == [in_timelike_envelope_loops(space, line, p)
                                for p in probes]
        assert got.any() and not got.all()

    def test_memory_bounded_by_the_block(self):
        # 401 seeds against the 521-knot golden line: one band would hold
        # 0.4M pairs per direction
        space = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)
        line = vertical_line(space, 0.5, range(-260, 261))
        seeds = [(0.01 * k, 0.3) for k in range(-200, 201)]

        def peak():
            tracemalloc.start()
            try:
                inside = asymptotics.in_timelike_envelopes(space, line, seeds)
                return tracemalloc.get_traced_memory()[1], inside
            finally:
                tracemalloc.stop()

        blocked, inside = peak()
        assert inside.all()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", len(seeds) * 521)
            unblocked, _ = peak()
        assert blocked < 4 * 2 ** 20 < unblocked


# ---------------------------------------------------------------------------
# product_image_defect

DIFFS = [-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0, math.inf, math.nan]


class TestProductImageDefectMatchesLoops:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["segment", "tripod"]), data=st.data(),
           band=st.sampled_from([0.0, 0.25, 0.5]))
    def test_defect_and_labels(self, kind, data, band):
        space = ProductSpace(FACTORS[kind])
        points = data.draw(product_points(kind))
        i, j = index_pairs(data.draw, len(points))
        dt = data.draw(st.lists(st.sampled_from(DIFFS), min_size=len(i),
                                max_size=len(i)))
        dx = data.draw(st.lists(st.sampled_from(DIFFS), min_size=len(i),
                                max_size=len(i)))
        assert_defects_match(space, points, i, j, dt, dx, band)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), seed=SEEDS, data=st.data(),
           band=st.sampled_from([0.0, 0.25]))
    def test_finite_tables(self, n, seed, data, band):
        # inf separations against an inf product separation: NaN defects
        space = finite_space(n, seed)
        points = list(range(n))
        i, j = index_pairs(data.draw, n)
        dt = data.draw(st.lists(st.sampled_from(DIFFS), min_size=len(i),
                                max_size=len(i)))
        dx = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                min_size=len(i), max_size=len(i)))
        assert_defects_match(space, points, i, j, dt, dx, band)


def assert_defects_match(space, points, i, j, dt, dx, band):
    pairs = [(points[a], points[b], s, t, k)
             for k, (a, b, s, t) in enumerate(zip(i, j, dt, dx))]
    want = product_image_defect_loops(space, pairs, band)
    got = product_image_defect(space.tau_array(points, i, j),
                               space.leq_array(points, i, j), dt, dx, band)
    assert got[1] == want[1]
    assert bits(got[0]) == bits(want[0]) and type(got[0]) is float


# ---------------------------------------------------------------------------
# build_splitting_map

@functools.lru_cache(maxsize=None)
def product_slice(factor_points=21, t_step=0.05):
    """The canonical product (or a finer one), its slice and the parallel
    tolerance."""
    space = ProductSpace(EuclideanSegment(0.0, 1.0, factor_points), -2.0, 2.0,
                         t_step)
    gamma = vertical_line(space, 0.5, range(-260, 261))
    tol = 3.0 * (space.mesh + 0.5 ** 2 / (2.0 * HORIZONS[-1]))
    seeds = [(0.0, q) for q in space.factor.sample()]
    return space, extract_slice(space, gamma, seeds, HORIZONS, tolerance=tol,
                                knot_extent=4.0), tol


@functools.lru_cache(maxsize=None)
def minkowski_slice():
    """A flat strip, its slice through five seeds and the parallel
    tolerance."""
    space = minkowski_space(-6.0, 6.0, -6.0, 6.0, 0.25)
    gamma = vertical_line(space, 0.0, range(-260, 261))
    tol = 3.0 * (0.05 + BUSEMANN_TOL)
    seeds = [(0.0, x) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    return space, extract_slice(space, gamma, seeds, HORIZONS, tolerance=tol,
                                knot_extent=4.0), tol


def splitting_fields(result):
    return (result.images, result.tau_defect, result.leq_mismatches,
            result.bijective, result.witnesses, result.n_pairs)


def distorted(sl, factor, seed):
    """The slice with its distance table scaled and jittered, so that the
    product test finds separations and causal order to disagree."""
    rng = np.random.default_rng(seed)
    # a large negative entry puts the later image causally before the
    # earlier one, so that mismatches occur in both orders of a pair
    d = sl.d_S * factor + rng.choice([0.0, 0.0, 0.05, -0.05, -1.0],
                                     size=sl.d_S.shape)
    return SpacelikeSlice(sl.members, d, sl.lines, sl.reference_line,
                          sl.horizons)


def tie_point(space, p, target):
    """A point q with ``space.d(p, q) == target`` exactly, whose ``d_array``
    distance from p rounds otherwise (np.hypot against math.hypot), so
    that only the scalar d puts the pair on its side of the threshold."""
    rng = random.Random(3)
    while True:
        dx = (p[1] + rng.uniform(0.2, 0.8) * target) - p[1]
        dt = math.sqrt(target * target - dx * dx)
        for _ in range(16):
            q = (p[0] + dt, p[1] + dx)
            d = space.d(p, q)
            if d == target:
                break
            dt = math.nextafter(dt, math.inf if d < target else 0.0)
        if d == target and space.d_array([p, q], [0], [1])[0] != target:
            return q


def nudged(x, nudge):
    """x moved by one float up (nudge 1) or down (nudge -1)."""
    return x if nudge == 0 else math.nextafter(x, nudge * math.inf)


class TestBuildSplittingMapMatchesLoops:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, nudge=st.sampled_from([-1, 0, 1]),
           factor=st.sampled_from([1.0, 0.6, 1.6]),
           knots=st.sampled_from([[0.0], [-0.5, 0.5], [-1.0, 0.0, 0.75]]))
    def test_planted_cover_ties(self, seed, nudge, factor, knots):
        space, sl, tol = product_slice()
        sl = distorted(sl, factor, seed)
        rng = random.Random(seed)
        images = [line_point_loops(space, line, t)
                  for t in knots for line in sl.lines]
        # the radius is the exact distance of a planted point to an image,
        # then moved by at most one float either way
        w = rng.choice(images)
        z = (w[0] + rng.choice([0.1, 0.3, 0.7]), w[1] + rng.choice([0.0, 0.2]))
        radius = space.d(z, w)
        for _ in range(abs(nudge)):
            radius = math.nextafter(radius, nudge * math.inf)
        cover = [z, (w[0] + radius, w[1]), (w[0] - radius, w[1]),
                 (w[0], w[1] + radius)]
        cover += [(rng.uniform(-3, 3), rng.uniform(-0.5, 1.5))
                  for _ in range(20)]
        got = build_splitting_map(space, sl, knots, tol, cover_sample=cover,
                                  cover_radius=radius)
        want = build_splitting_map_loops(space, sl, knots, tol,
                                         cover_sample=cover,
                                         cover_radius=radius)
        assert splitting_fields(got) == want
        assert bits(got.tau_defect) == bits(want[1])

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_hypot_rounding_at_the_radius(self, nudge):
        # a point whose distance to an image rounds differently under
        # np.hypot and math.hypot, with the radius at that distance: only
        # the scalar d decides whether it is covered
        space, sl, tol = product_slice()
        knots = [0.0]
        w = line_point_loops(space, sl.lines[10], 0.0)
        rng = random.Random(1)
        while True:
            z = (w[0] + rng.uniform(0.001, 0.02), w[1] + rng.uniform(0.001, 0.02))
            dt, dist = z[0] - w[0], abs(z[1] - w[1])
            if float(np.hypot(dt, dist)) != math.hypot(dt, dist):
                break
        radius = space.d(z, w)
        for _ in range(abs(nudge)):
            radius = math.nextafter(radius, nudge * math.inf)
        got = build_splitting_map(space, sl, knots, tol, cover_sample=[z],
                                  cover_radius=radius)
        want = build_splitting_map_loops(space, sl, knots, tol,
                                         cover_sample=[z], cover_radius=radius)
        assert splitting_fields(got) == want
        assert (("uncovered", z) in got.witnesses) == (nudge < 0)

    def test_sampled_pairs(self):
        # 10 knots x 21 members: more than MAX_PAIRS pairs, so sampled
        space, sl, tol = product_slice()
        sl = distorted(sl, 1.6, 0)
        knots = [-2.0 + 0.4 * k for k in range(10)]
        cover = list(space.sample_points())[::7]
        got = build_splitting_map(space, sl, knots, tol, cover_sample=cover)
        want = build_splitting_map_loops(space, sl, knots, tol,
                                         cover_sample=cover)
        assert got.n_pairs == 2 * MAX_PAIRS
        assert got.leq_mismatches > 0
        assert splitting_fields(got) == want
        assert bits(got.tau_defect) == bits(want[1])


    @pytest.mark.parametrize("position", [0, 1])
    def test_nan_distances_as_min_takes_them(self, position):
        # a member whose image has a NaN factor point: a NaN distance to the
        # first image covers every sample point, as min() then returns NaN,
        # and one to a later image is passed over
        space, sl, tol = product_slice()
        nan_line = LineDescriptor(CausalChain(((0.0, math.nan),
                                               (1.0, math.nan))), (0.0, 1.0))
        lines = list(sl.lines[:3])
        lines.insert(position, nan_line)
        members = tuple(line.chain.points[0] for line in lines)
        sl = SpacelikeSlice(members, sl.d_S[:4, :4], tuple(lines), None, ())
        cover = [(0.0, 0.0), (0.5, 0.5), (1.9, 1.0), (-1.0, 0.25)]
        got = build_splitting_map(space, sl, [0.0], tol, cover_sample=cover,
                                  cover_radius=0.3)
        want = build_splitting_map_loops(space, sl, [0.0], tol,
                                         cover_sample=cover, cover_radius=0.3)
        assert splitting_fields(got) == want
        assert got.bijective == (position == 0)

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_planted_duplicate_images(self, nudge):
        # at knot 0.0 the images of members 1 and 3 lie at 0.25 * mesh from
        # those of members 0 and 2, or one float nearer or farther, where
        # np.hypot rounds the distance otherwise than math.hypot; exact
        # duplicates at every knot surround them
        space, _, tol = product_slice()
        p = (0.0, 0.5)
        q = tie_point(space, p, nudged(0.25 * space.mesh, nudge))
        knots = (-1.0, 0.0, 1.0)
        columns = [[(-1.0, 0.5), p, (1.0, 0.5)],
                   [(-1.0, 0.5), q, (1.0, 0.9)],
                   [(-1.0, 0.1), p, (1.0, 0.5)],
                   [(-1.0, 0.3), q, (1.0, 0.7)]]
        lines = tuple(LineDescriptor(CausalChain(tuple(c)), knots)
                      for c in columns)
        members = tuple(c[1] for c in columns)
        d = np.abs(np.subtract.outer([0.5, 0.6, 0.1, 0.3],
                                     [0.5, 0.6, 0.1, 0.3]))
        sl = SpacelikeSlice(members, d, lines, None, ())
        got = build_splitting_map(space, sl, knots, tol)
        want = build_splitting_map_loops(space, sl, knots, tol)
        assert splitting_fields(got) == want
        duplicates = [w for w in got.witnesses if w[0] == "duplicate-image"]
        ties = [(1, 0, 1), (1, 0, 3), (1, 1, 2), (1, 2, 3)]
        assert duplicates == [("duplicate-image",) + w for w in sorted(
            [(0, 0, 1), (1, 0, 2), (1, 1, 3), (2, 0, 2)]
            + (ties if nudge < 0 else []))]

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_samples_at_the_window_edge(self, nudge):
        # sample points at an image's factor point whose time differs from
        # the image's by exactly the radius (so d == |dt| == radius), or by
        # one float less or more, on both sides of every third image
        space, sl, tol = product_slice()
        knots = [-1.0, 0.0, 1.0]
        w = line_point_loops(space, sl.lines[9], 0.0)
        radius = (w[0] + 0.02) - w[0]    # below the member spacing
        cover = []
        for t in knots:
            for line in sl.lines[::3]:
                v = line_point_loops(space, line, t)
                cover += [(nudged(v[0] + radius, nudge), v[1]),
                          (nudged(v[0] - radius, -nudge), v[1])]
        got = build_splitting_map(space, sl, knots, tol, cover_sample=cover,
                                  cover_radius=radius)
        want = build_splitting_map_loops(space, sl, knots, tol,
                                         cover_sample=cover,
                                         cover_radius=radius)
        assert splitting_fields(got) == want
        z = (nudged(w[0] + radius, nudge), w[1])
        assert space.d(z, w) == nudged(radius, nudge)
        assert (("uncovered", z) in got.witnesses) == (nudge > 0)

    def test_window_bounds_round_apart(self):
        # images at small times such as -1e-5 and 1e-5, each with a sample
        # point at fl(w + r) or fl(w - r), exactly the radius from it: yet
        # fl(z - r) lies above a negative image time and fl(z + r) below a
        # positive one, so a window cut at z -+ r would miss the image
        space, _, tol = product_slice()
        radius, xs = 0.02, (0.1, 0.3, 0.5, 0.7)
        times = (-1e-5, 1e-5, -3e-5, 2e-6)
        lines = tuple(LineDescriptor(CausalChain(((-1.0, x), (t, x),
                                                  (1.0, x))), (-1.0, 0.0, 1.0))
                      for t, x in zip(times, xs))
        sl = SpacelikeSlice(tuple(line.chain.points[1] for line in lines),
                            np.abs(np.subtract.outer(xs, xs)), lines, None, ())
        cover = [(t + radius, x) if t < 0 else (t - radius, x)
                 for t, x in zip(times, xs)]
        for (t, x), z in zip(sl.members, cover):
            assert abs(z[0] - t) == radius
            assert (z[0] - radius > t) if t < 0 else (z[0] + radius < t)
        got = build_splitting_map(space, sl, [0.0], tol, cover_sample=cover,
                                  cover_radius=radius)
        want = build_splitting_map_loops(space, sl, [0.0], tol,
                                         cover_sample=cover,
                                         cover_radius=radius)
        assert splitting_fields(got) == want
        assert got.bijective

    @pytest.mark.parametrize("lean", ["shifted", "tilted"])
    def test_images_off_their_knot_time(self, lean):
        # lines whose point at a time knot lies at another time: shifted
        # parameters, or knots whose times lean with the factor point
        space, sl, tol = product_slice()
        rng = random.Random(5)
        if lean == "shifted":
            lines = tuple(line.shifted(rng.uniform(-0.3, 0.3))
                          for line in sl.lines)
        else:
            lines = tuple(LineDescriptor(CausalChain(tuple(
                (p[0] * (1.0 + 0.2 * p[1]) + 0.3 * p[1], p[1])
                for p in line.chain.points)), line.params)
                for line in sl.lines)
        sl = SpacelikeSlice(sl.members, sl.d_S, lines, None, ())
        knots = [-1.0, 0.0, 0.5]
        cover = list(space.sample_points())[::3]
        got = build_splitting_map(space, sl, knots, tol, cover_sample=cover,
                                  cover_radius=0.1)
        want = build_splitting_map_loops(space, sl, knots, tol,
                                         cover_sample=cover, cover_radius=0.1)
        assert splitting_fields(got) == want
        assert 0 < sum(w[0] == "uncovered" for w in got.witnesses) < len(cover)

    @pytest.mark.parametrize("position", [0, 1])
    def test_nan_times_as_min_takes_them(self, position):
        # an image with a NaN time is never pruned from a window: at
        # position 0 its NaN distance covers every sample point, later it is
        # passed over; sample points with a NaN time meet NaN everywhere
        space, sl, tol = product_slice()
        nan_line = LineDescriptor(CausalChain(((math.nan, 0.5),
                                               (math.nan, 0.5))), (0.0, 1.0))
        lines = list(sl.lines[:3])
        lines.insert(position, nan_line)
        members = tuple(line.chain.points[-1] for line in lines)
        sl = SpacelikeSlice(members, sl.d_S[:4, :4], tuple(lines), None, ())
        cover = [(0.0, 0.0), (0.5, 0.5), (1.9, 1.0), (-1.0, 0.25),
                 (math.nan, 0.5), (math.nan, 0.05)]
        got = build_splitting_map(space, sl, [0.0], tol, cover_sample=cover,
                                  cover_radius=0.3)
        want = build_splitting_map_loops(space, sl, [0.0], tol,
                                         cover_sample=cover, cover_radius=0.3)
        assert splitting_fields(got) == want
        assert got.bijective == (position == 0)

    def test_samples_beyond_every_window(self):
        # sample points far before, after and between the images' times,
        # infinite ones among them, with a few covered points mixed in
        space, sl, tol = product_slice()
        knots = [-1.0, 1.0]
        cover = [(t, x) for t in (-math.inf, -1e300, -50.0, -1.2, 0.0, 1.05,
                                  3.5, 1e300, math.inf)
                 for x in (0.0, 0.45, 1.0)]
        got = build_splitting_map(space, sl, knots, tol, cover_sample=cover,
                                  cover_radius=0.1)
        want = build_splitting_map_loops(space, sl, knots, tol,
                                         cover_sample=cover, cover_radius=0.1)
        assert splitting_fields(got) == want
        assert sum(w[0] == "uncovered" for w in got.witnesses) == 8 * 3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tables_take_every_image(self, seed):
        # a finite table has no time coordinate: each sample point goes
        # against every image, decided as min() decides
        space = finite_space(12, seed)
        rng = random.Random(seed)
        images = PointTuple(rng.sample(range(12), 5))
        sample = tuple(rng.choice(range(12)) for _ in range(20))
        for radius in (0.0, 0.5, 1.0):
            assert splitting._uncovered(space, sample, images, radius) == [
                z for z in sample
                if min(space.d(z, w) for w in images) > radius]

    def test_cover_work_is_the_windows(self, monkeypatch, capsys):
        # the golden split command: the cover pass takes d_array only on
        # image 0 and the images within the radius in time of each sample
        # point (up to the window's relative 1e-12 widening), a fifth of
        # the sample x images scan
        class Counting(ProductSpace):
            entries = 0

            def d_array(self, points, i, j):
                Counting.entries += math.prod(np.broadcast_shapes(
                    np.shape(i), np.shape(j)))
                return super().d_array(points, i, j)

        calls, uncovered = [], splitting._uncovered

        def counted(space, sample, images, radius):
            counting = Counting(space.factor, space.t_min, space.t_max,
                                space.t_step)
            out = uncovered(counting, sample, images, radius)
            calls.append((Counting.entries, sample, images, radius, out))
            return out

        monkeypatch.setattr(splitting, "_uncovered", counted)
        golden = GOLDEN / "product_segment.json", \
            GOLDEN / "product_vertical_line.json"
        assert cli.main(["split", str(golden[0]), "--line", str(golden[1]),
                         "--t-grid=-2:2:0.5"]) == 0
        capsys.readouterr()
        (entries, sample, images, radius, out), = calls
        t = np.array([w[0] for w in images])
        windows = sum(int((np.abs(t - z[0]) <= radius + 1e-9).sum())
                      for z in sample)
        assert (len(sample), len(images), out) == (1701, 189, [])
        assert 0 < entries <= windows + len(sample)
        assert entries < len(sample) * len(images) / 4


# ---------------------------------------------------------------------------
# check_cauchy_slices


def crossings_loops(vals, tol):
    """Crossings of zero along vals: each run of on-level values (within
    tol) once, and each step from below to above the band."""
    crossings = 0
    k = 0
    while k < len(vals):
        if abs(vals[k]) <= tol:
            crossings += 1
            while k + 1 < len(vals) and abs(vals[k + 1]) <= tol:
                k += 1
        elif k + 1 < len(vals) and vals[k] < 0 < vals[k + 1] \
                and abs(vals[k + 1]) > tol:
            crossings += 1
        k += 1
    return crossings


class TestCauchyCrossingsMatchLoops:
    @settings(max_examples=200, deadline=None)
    @given(tol=st.sampled_from([0.0, 1e-9, 0.1, 0.5]), data=st.data())
    def test_rows(self, tol, data):
        # values on, just inside and just outside the band, signed zeros,
        # infinities and NaN among arbitrary ones
        edges = [0.0, -0.0, tol, -tol, math.nextafter(tol, math.inf),
                 -math.nextafter(tol, math.inf), math.inf, -math.inf,
                 math.nan]
        value = st.sampled_from(edges) | st.floats(-1.0, 1.0)
        length = data.draw(st.integers(1, 12))
        rows = data.draw(st.lists(st.lists(value, min_size=length,
                                           max_size=length),
                                  min_size=1, max_size=4))
        got = splitting._crossings(np.array(rows, dtype=float), tol)
        assert got.tolist() == [crossings_loops(r, tol) for r in rows]


# ---------------------------------------------------------------------------
# synchronized_times


def any_outcome(fn, *args):
    """Bit patterns of the values, or the type and message of whatever
    exception is raised (a division by zero included)."""
    try:
        return bits(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def synchronized_times_loops(space, line, points, horizons):
    return [synchronized_time_loops(space, line, p, horizons) for p in points]


def assert_times_match(space, line, points, horizons):
    got = any_outcome(synchronized_times, space, line, points, horizons)
    assert got == any_outcome(synchronized_times_loops, space, line, points,
                              horizons)
    return got


# horizon values: knots of the lines below, ints and floats alike, with
# repeats, values off the knots and non-numbers
SYNC_HORIZONS = [1, 2, 3, 4, 6, 8, 2.0, 2.5, 16, -1, 0.0, math.inf, math.nan]


class TestSynchronizedTimesMatchLoops:
    @settings(max_examples=150, deadline=None)
    @given(x0=st.sampled_from([0.0, 0.25]),
           stretch=st.sampled_from([0.5, 1.0, 2.0]),
           horizons=st.lists(st.sampled_from(SYNC_HORIZONS), max_size=7),
           points=st.lists(st.tuples(
               st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0, 5.0, 12.0,
                                math.nan]),
               st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, math.inf])),
               max_size=8))
    def test_product_lines(self, x0, stretch, horizons, points):
        # stretch 2 puts knot k at parameter 2k, so the samples increase
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        line = LineDescriptor(
            CausalChain(tuple((float(k), x0) for k in range(-8, 17))),
            [stretch * k for k in range(-8, 17)])
        assert_times_match(space, line, points, horizons)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 8), seed=SEEDS, data=st.data())
    def test_finite_tables(self, n, seed, data):
        # unstructured tables with infinite separations: samples rise, tie
        # and meet inf - inf, and a repeated horizon divides by zero
        space = finite_space(n, seed)
        knots = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                   max_size=6))
        line = LineDescriptor(CausalChain(tuple(knots)), range(len(knots)))
        horizons = data.draw(st.lists(st.sampled_from(
            [0, 1, 2, 3, 4, 5, 1.0, 1.5]), max_size=6))
        points = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
        assert_times_match(space, line, points, horizons)

    def test_first_failing_point_in_order(self):
        # the second point lies above every horizon but one, the fourth
        # above all of them: the second's error is raised
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        line = vertical_line(space, 0.0, range(-8, 17))
        points = [(0.0, 0.5), (5.0, 0.0), (1.0, 0.0), (20.0, 0.0)]
        got = assert_times_match(space, line, points, [2, 4, 8])
        assert got == (PreconditionError, "fewer than two horizons remain "
                       "timelike related to (5.0, 0.0)")
        got = assert_times_match(space, line, points[:1] + points[2:3],
                                 [2, 4, 8, 16])
        assert len(got) == 2

    def test_increasing_samples(self):
        # a line parametrized at twice its separation: t - tau(p, line(t))
        # grows with t
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        line = LineDescriptor(
            CausalChain(tuple((float(k), 0.0) for k in range(0, 17))),
            [2.0 * k for k in range(0, 17)])
        got = assert_times_match(space, line, [(-1.0, 0.0)], [4, 8, 16])
        assert got[0] is PreconditionError
        assert got[1].startswith("samples increase along the line")

    def test_timelike_without_separation(self):
        # knots 1e-200 apart in time: related to p, but the squared
        # separation underflows, so tau is 0 at the first usable horizon
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        line = LineDescriptor(
            CausalChain(tuple((k * 1e-200, 0.0) for k in range(-4, 9))),
            range(-4, 9))
        got = assert_times_match(space, line, [(0.0, 0.0)], [8, 2, 4])
        assert got == (PreconditionError, "point is not timelike related to "
                       "the line at parameter 2")

    @pytest.mark.parametrize("knots, outcome_", [
        # tau 0 at the first usable horizon, the samples falling after it
        ([(1e-200, 0.0), (3.0, 0.0), (7.0, 0.0), (15.0, 0.0)],
         "point is not timelike related to the line at parameter 1"),
        # the third horizon spacelike: the last two usable are 2 and 8
        ([(2.0, 0.0), (3.0, 0.0), (1.0, 5.0), (10.0, 0.0)], None),
        # the second sample above the first by less than EPS
        ([(2.0, 0.0), (3.0 - 1e-10, 0.0), (5.0, 0.0), (9.5, 0.0)], None)],
        ids=["untimelike", "gap", "within-eps"])
    def test_planted_samples(self, knots, outcome_):
        # knots of a chain offered as a line at parameters 1, 2, 4 and 8
        space = ProductSpace(EuclideanSegment(-5.0, 5.0, 41))
        line = LineDescriptor(CausalChain(tuple(knots)), (1, 2, 4, 8))
        got = assert_times_match(space, line, [(0.0, 0.0)], [1, 2, 4, 8])
        if outcome_ is None:
            assert len(got) == 1
        else:
            assert got == (PreconditionError, outcome_)

    def test_golden_cauchy_points(self):
        space, sl, _ = product_slice()
        rng = random.Random(0)
        points = [(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1.0))
                  for _ in range(200)]
        got = assert_times_match(space, sl.reference_line, points,
                                 sl.horizons)
        assert len(got) == 200


# ---------------------------------------------------------------------------
# kept coordinate arrays


class TestKeptPointArrays:
    def test_freed_with_the_line(self):
        space = ProductSpace(EuclideanSegment(0.0, 1.0, 21))
        line = vertical_line(space, 0.5, range(-260, 261))
        assert in_timelike_envelope(space, line, (0.0, 0.25))
        arrays = space.point_arrays(line.chain.points)
        # converted once: the envelope's arrays are the ones kept
        assert all(a is b for a, b in
                   zip(arrays, space.point_arrays(line.chain.points)))
        refs = [weakref.ref(a) for a in arrays]
        del line, arrays
        gc.collect()
        assert [r() for r in refs] == [None, None]

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(FACTORS)), data=st.data())
    def test_joined_arrays(self, kind, data):
        # kept arrays with the appended points' arrays appended equal a
        # conversion of the whole
        space = ProductSpace(FACTORS[kind])
        points = data.draw(product_points(kind))
        head = CausalChain(tuple(points) * 2).points
        space.point_arrays(head)
        whole = head.joined(points)
        got, want = space.point_arrays(whole), space._convert(tuple(whole))
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert [bits(a) if a.dtype == float else a.tolist() for a in got] \
            == [bits(a) if a.dtype == float else a.tolist() for a in want]


# ---------------------------------------------------------------------------
# check_slice_alexandrov


def curvature_table(n, seed):
    """Distances of points in the plane, on a circle or at random, with
    coincident points, exact EPS entries, inf, NaN and asymmetric noise."""
    rng = np.random.default_rng(seed)
    kind = seed % 4
    if kind == 0:
        xy = rng.choice([0.0, 0.5, 1.0, 2.0], size=(n, 2))
        d = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    elif kind == 1:
        phi = rng.random(n) * 2 * math.pi
        d = 2 * np.abs(np.sin((phi[:, None] - phi[None, :]) / 2))
    else:
        d = rng.choice([EPS, 0.5, 1.0, 1.5, 2.0], size=(n, n))
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
    if kind == 3:
        d = d + rng.choice([0.0, 1e-12, math.inf, math.nan], size=(n, n),
                           p=[0.85, 0.05, 0.05, 0.05])
    return d


class TestSliceAlexandrovMatchesLoops:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 9), seed=SEEDS,
           metric_tol=st.sampled_from([None, 0.1, math.inf]))
    def test_reports(self, n, seed, metric_tol):
        sl = slice_from_table(range(n), curvature_table(n, seed))
        got = outcome(check_slice_alexandrov, sl, 1e-6, metric_tol)
        want = outcome(check_slice_alexandrov_loops, sl, 1e-6, metric_tol)
        assert got == want
        if isinstance(got, SliceCurvatureReport):
            assert bits(got.worst_excess) == bits(want.worst_excess)
            assert all(type(v) is int for v in got.witness)

    def test_product_slice(self):
        _, sl, tol = product_slice()
        got = check_slice_alexandrov(sl, metric_tol=tol)
        want = check_slice_alexandrov_loops(sl, metric_tol=tol)
        assert got == want and bits(got.worst_excess) == bits(want.worst_excess)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 12), seed=SEEDS, block=st.sampled_from([7, 37, 256]),
           metric_tol=st.sampled_from([None, math.inf]))
    def test_reports_across_bands(self, n, seed, block, metric_tol):
        # bands of a few quadruples: the witness, the counts and the
        # angles of a centre cross band boundaries
        sl = slice_from_table(range(n), curvature_table(n, seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", block)
            got = outcome(check_slice_alexandrov, sl, 1e-6, metric_tol)
        want = outcome(check_slice_alexandrov_loops, sl, 1e-6, metric_tol)
        assert got == want
        if isinstance(got, SliceCurvatureReport):
            assert bits(got.worst_excess) == bits(want.worst_excess)

    def test_all_degenerate(self):
        sl = slice_from_table(range(4), np.zeros((4, 4)))
        got = outcome(check_slice_alexandrov, sl)
        assert got == outcome(check_slice_alexandrov_loops, sl)
        assert got == (PreconditionError, "all quadruples degenerate")


# ---------------------------------------------------------------------------
# c_functions and test_parallel


def table_fields(table):
    """Every entry of a c-function table, keys and values as bit patterns,
    in insertion order."""
    return ([[(bits(k), bits(v)) for k, v in d.items()]
             for d in (table.c_ab, table.c_ba)]
            + [[(bits(k), bits([v, prev]), edge)
                for k, (v, edge, prev) in d.items()]
               for d in (table.n_ab, table.n_ba)]
            + [table.complex_flags])


def verdict_fields(v, bits=bits):
    """Every field of a parallel verdict; the realisation by its lines,
    synced parameters and distance."""
    real = v.realisation
    return (v.parallel, bits([v.distance_c, v.shift, v.spread, v.tau_defect]),
            list(v.per_function), bits(list(v.per_function.values())),
            v.leq_mismatches, v.complex_flags,
            None if real is None else
            (real.line_a, real.line_b.chain, bits(real.line_b.params),
             bits([real.shift_b, real.distance_c])))


def nan_blind_bits(values):
    """``bits`` with every NaN read as one: when both operands are NaN,
    Python's float arithmetic returns the second and numpy the first, so
    the sign of a NaN made from two NaNs is not pinned."""
    values = np.asarray(values, dtype=float).reshape(-1)
    return bits(np.where(np.isnan(values), np.nan, values))


def assert_parallel_matches(space, alpha, beta, tolerance):
    for a, b in ((alpha, beta), (beta, alpha)):
        assert table_fields(c_functions(space, a, b)) == \
            table_fields(c_functions_loops(space, a, b))
        assert verdict_fields(parallel_verdict(space, a, b, tolerance)) == \
            verdict_fields(parallel_verdict_loops(space, a, b, tolerance))


PARALLEL_SPACES = {
    "segment": ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05),
    "minkowski": minkowski_space(-6.0, 6.0, -6.0, 6.0, 0.25),
}


@st.composite
def product_lines(draw):
    """A vertical line, a vertical line with shifted parameters or a
    boosted line, on a grid of 2 to 9 knots."""
    x = draw(st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0]))
    t0 = draw(st.sampled_from([-4.0, -2.0, -0.5, 0.0]))
    step = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    ts = [t0 + step * k for k in range(draw(st.integers(2, 9)))]
    kind = draw(st.sampled_from(["vertical", "shifted", "boosted"]))
    if kind == "boosted":
        phi = draw(st.sampled_from([-0.3, 0.05, 0.3]))
        pts = tuple((s * math.cosh(phi), x + s * math.sinh(phi)) for s in ts)
        return LineDescriptor(CausalChain(pts), ts)
    line = LineDescriptor(CausalChain(tuple((t, x) for t in ts)), ts)
    if kind == "shifted":
        line = line.shifted(draw(st.sampled_from([-1.5, -0.3, 0.25, 2.0])))
    return line


def lattice_chains():
    space, doctored = column_lattice_table()
    return space, [tuple(range(5 * c, 5 * c + 5)) for c in range(4)] + [doctored]


@st.composite
def lattice_lines(draw):
    """Lines through the column lattice: part of a column or of the
    doctored chain, with parameters that may disagree with the
    separations (complex flags) and knots at levels the other line never
    reaches (unrelated pairs, null minima at the grid edge)."""
    chain = draw(st.sampled_from(lattice_chains()[1]))
    levels = sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=5,
                                  unique=True)))
    scale = draw(st.sampled_from([0.5, 1.0, 1.5]))
    offset = draw(st.sampled_from([-2.0, 0.0, 0.5]))
    return LineDescriptor(CausalChain(tuple(chain[k] for k in levels)),
                          [offset + scale * k for k in levels])


TOLERANCES = [1e-9, 0.05, 0.2, 1.0]


@functools.lru_cache(maxsize=None)
def lattice_grid():
    """The lattice grid, built once per module: the first two or all five
    knots of each lattice chain, at the matching parameters or squeezed to
    half of them (complex flags), and for every ordered pair (i, j) the
    loop oracle's c-function table fields, verdict fields at tolerance
    1e-9 and shift branch."""
    space, chains_ = lattice_chains()
    lines = [LineDescriptor(CausalChain(chain[:n]),
                            [scale * k for k in range(n)])
             for chain in chains_ for scale in (0.5, 1.0) for n in (2, 5)]
    loops = {}
    for (i, a), (j, b) in itertools.product(enumerate(lines), repeat=2):
        raw = c_functions_loops(space, a, b)
        loops[i, j] = (table_fields(raw),
                       verdict_fields(parallel_verdict_loops(space, a, b, 1e-9)),
                       fit_shift_loops(raw)[1])
    return space, lines, loops


def outcome_of(verdict):
    if verdict.realisation is not None:
        return "parallel"
    if math.isnan(verdict.distance_c):
        return "no timelike pair"
    if verdict.tau_defect > 0.0 or verdict.leq_mismatches:
        return "realisation refuted"
    return "spread or null bracket"


class TestParallelMatchesLoops:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(PARALLEL_SPACES)),
           alpha=product_lines(), beta=product_lines(),
           tolerance=st.sampled_from(TOLERANCES))
    def test_product_lines(self, kind, alpha, beta, tolerance):
        assert_parallel_matches(PARALLEL_SPACES[kind], alpha, beta, tolerance)

    @settings(max_examples=80, deadline=None)
    @given(alpha=lattice_lines(), beta=lattice_lines(),
           tolerance=st.sampled_from(TOLERANCES))
    def test_lattice_lines(self, alpha, beta, tolerance):
        assert_parallel_matches(lattice_chains()[0], alpha, beta, tolerance)

    def test_lattice_grid_reaches_every_outcome(self):
        space, lines, loops = lattice_grid()
        outcomes, flagged = set(), False
        for (i, j), (table, fields, _) in loops.items():
            a, b = lines[i], lines[j]
            assert table_fields(c_functions(space, a, b)) == table
            verdict = parallel_verdict(space, a, b, 1e-9)
            assert verdict_fields(verdict) == fields
            outcomes.add(outcome_of(verdict))
            flagged = flagged or verdict.complex_flags > 0
        assert flagged and outcomes == {"parallel", "no timelike pair",
                                        "realisation refuted",
                                        "spread or null bracket"}

    def test_slice_lines(self):
        # asymptotic lines as extract_slice builds them on the canonical
        # product, every fifth member against every other
        space, sl, tol = product_slice()
        for a in sl.lines[::5]:
            for b in sl.lines:
                assert verdict_fields(parallel_verdict(space, a, b, tol)) == \
                    verdict_fields(parallel_verdict_loops(space, a, b, tol))


# ---------------------------------------------------------------------------
# extract_slice


def slice_distances_loops(space, lines, tolerance):
    """The distance table of ``extract_slice`` by one pairwise verdict per
    member pair, with the verdicts."""
    n = len(lines)
    d = np.zeros((n, n))
    verdicts = {}
    for i in range(n):
        for j in range(i + 1, n):
            verdict = parallel_verdict_loops(space, lines[i], lines[j],
                                             tolerance)
            if not verdict.parallel:
                raise PreconditionError(
                    f"asymptotes through members {i} and {j} fail the "
                    "parallelity test")
            d[i, j] = d[j, i] = verdict.distance_c
            verdicts[i, j] = verdict
    return d, verdicts


def dedupe_loops(space, feet, radius):
    """Indices of the footpoints that ``extract_slice`` keeps: each one
    farther than ``radius`` from every footpoint kept before it."""
    kept = []
    for k, foot in enumerate(feet):
        if not any(space.d(foot, feet[m]) < radius for m in kept):
            kept.append(k)
    return kept


def batch_verdicts(space, lines, pairs, tolerance):
    """The verdicts of the (i, j) pairs of lines from one
    ``decide_parallel`` call."""
    first, second = zip(*pairs)
    verdicts = decide_parallel(space, lines, first, second, tolerance)
    return [verdicts.verdict(k, lines[i], lines[j])
            for k, (i, j) in enumerate(pairs)]


def assert_batch_matches(space, lines, pairs, tolerance, bits=bits):
    got = batch_verdicts(space, lines, pairs, tolerance)
    assert [verdict_fields(v, bits) for v in got] == [
        verdict_fields(parallel_verdict_loops(space, lines[i], lines[j],
                                              tolerance), bits)
        for i, j in pairs]


@st.composite
def line_batches(draw, lines):
    """One to five lines and one to twelve pairs of them, in any order,
    repeats and a line against itself included."""
    batch = draw(st.lists(lines, min_size=1, max_size=5))
    index = st.integers(0, len(batch) - 1)
    return batch, draw(st.lists(st.tuples(index, index), min_size=1,
                                max_size=12))


PARAMS = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.5]


@st.composite
def table_lines(draw, n, extra=()):
    """Any two to five points of an n-point table, at increasing
    parameters that need not match their separations."""
    points = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=5))
    params = sorted(draw(st.lists(
        st.sampled_from(PARAMS + list(extra)),
        min_size=len(points), max_size=len(points), unique=True)))
    return LineDescriptor(CausalChain(tuple(points)), params)


# blocks of one pair, of a few pairs and of all pairs at once
BLOCKS = [1, 9, 40, chains.PAIR_BLOCK]


class TestBatchedVerdictsMatchLoops:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(PARALLEL_SPACES)),
           batch=line_batches(product_lines()),
           tolerance=st.sampled_from(TOLERANCES),
           block=st.sampled_from(BLOCKS))
    def test_product_lines(self, kind, batch, tolerance, block):
        # knot counts from 2 to 9 in one batch: padded tables
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", block)
            assert_batch_matches(PARALLEL_SPACES[kind], *batch, tolerance)

    @settings(max_examples=60, deadline=None)
    @given(batch=line_batches(lattice_lines()),
           tolerance=st.sampled_from(TOLERANCES),
           block=st.sampled_from(BLOCKS))
    def test_lattice_lines(self, batch, tolerance, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", block)
            assert_batch_matches(lattice_chains()[0], *batch, tolerance)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), seed=SEEDS, data=st.data(),
           tolerance=st.sampled_from(TOLERANCES),
           block=st.sampled_from(BLOCKS))
    def test_unstructured_tables(self, n, seed, data, tolerance, block):
        # random relations and inf separations: complex flags, unrelated
        # lines and null minima anywhere
        space = finite_space(n, seed)
        batch = data.draw(line_batches(table_lines(n)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", block)
            assert_batch_matches(space, *batch, tolerance)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), seed=SEEDS, data=st.data(),
           tolerance=st.sampled_from(TOLERANCES))
    def test_infinite_parameters(self, n, seed, data, tolerance):
        # infinite parameters against infinite separations: NaN c-values,
        # gaps, shifts and means, equal up to the sign of a NaN
        space = finite_space(n, seed)
        batch = data.draw(line_batches(table_lines(n, [-math.inf,
                                                       math.inf])))
        assert_batch_matches(space, *batch, tolerance, bits=nan_blind_bits)

    def test_nan_after_the_first_entry(self):
        # alpha(0) precedes beta's first two knots, which fit a shift of
        # -0.5, and beta's knot at parameter inf precedes alpha's: its gap
        # inf - inf makes the last c-value NaN.  A NaN entry makes a spread
        # NaN wherever it stands, so the pair is not parallel
        leq = np.eye(5, dtype=bool)
        leq[0, 2] = leq[0, 3] = leq[4, 1] = True
        space = FiniteLorentzSpace(1.0 - np.eye(5), leq,
                                   np.zeros((5, 5), dtype=bool),
                                   np.zeros((5, 5)))
        alpha = LineDescriptor(CausalChain((0, 1)), (0.0, math.inf))
        beta = LineDescriptor(CausalChain((2, 3, 4)), (0.0, 1.0, math.inf))
        table = c_functions(space, alpha, beta)
        assert bits(table.defined_values()[:2]) == bits([0.0, 1.0])
        assert math.isnan(table.spread)
        verdict = parallel_verdict(space, alpha, beta, 0.1)
        assert verdict.shift == -0.5 and math.isnan(verdict.spread)
        assert not verdict.parallel and verdict.realisation is None
        assert_batch_matches(space, [alpha, beta], [(0, 1)], 0.1,
                             bits=nan_blind_bits)

    def test_zero_slope_on_one_family(self):
        # verticals 0.75 apart with exact c-values 0.75 (a 3-4-5 triangle):
        # two forward entries fit a slope of +0.0, one backward entry fits
        # none, and the shift is the sum of [-0.0] from +0.0, which is +0.0
        space = PARALLEL_SPACES["minkowski"]
        alpha = LineDescriptor(CausalChain(((0.0, 0.0), (1.5, 0.0))), (0.0, 1.5))
        beta = LineDescriptor(CausalChain(((0.75, 0.75), (1.25, 0.75))),
                              (0.75, 1.25))
        assert_batch_matches(space, [alpha, beta], [(0, 1)], 1e-9)
        assert bits(parallel_verdict(space, alpha, beta, 1e-9).shift) == \
            bits(0.0)

    def test_shift_merging_knots(self):
        # only alpha(0) <= beta(1) and beta(1 + 2^-52) <= alpha(10) relate
        # across the lines, so the null minima give a shift near 4, which
        # merges beta's knots: not parallel, and its verdict raises as the
        # pairwise shift did
        leq = np.eye(4, dtype=bool)
        leq[0, 1] = leq[2, 3] = leq[0, 2] = leq[3, 1] = True
        space = FiniteLorentzSpace(1.0 - np.eye(4), leq,
                                   np.zeros((4, 4), dtype=bool),
                                   np.zeros((4, 4)))
        alpha = LineDescriptor(CausalChain((0, 1)), (0.0, 10.0))
        beta = LineDescriptor(CausalChain((2, 3)), (1.0, 1.0 + 2.0 ** -52))
        got = outcome(parallel_verdict, space, alpha, beta, 0.1)
        assert got == outcome(parallel_verdict_loops, space, alpha, beta, 0.1)
        assert got == (PreconditionError,
                       "parameters must be strictly increasing")
        assert not decide_parallel(space, (alpha, beta), [0], [1],
                                   0.1).parallel[0]

    def test_lattice_grid_reaches_every_branch(self):
        # every ordered pair of the lattice grid in one batch, of small
        # blocks and of one block: shifts fitted to timelike gaps, taken
        # from the null minima and left at zero, with complex flags
        space, lines, loops = lattice_grid()
        pairs = list(loops)
        for block in (9, chains.PAIR_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(chains, "PAIR_BLOCK", block)
                verdicts = batch_verdicts(space, lines, pairs, 1e-9)
            assert [verdict_fields(v) for v in verdicts] == \
                [loops[p][1] for p in pairs]
        assert {loops[p][2] for p in pairs} == {"fit", "nulls", "none"}
        assert any(v.complex_flags for v in verdicts)


class TestExtractSliceMatchesLoops:
    @pytest.mark.parametrize("make", [
        product_slice, minkowski_slice,
        functools.partial(product_slice, 41, 0.025),
        functools.partial(product_slice, 101, 0.01)],
        ids=["segment", "minkowski", "segment-41", "segment-101"])
    def test_distances_and_verdicts(self, make):
        space, sl, tol = make()
        d, verdicts = slice_distances_loops(space, sl.lines, tol)
        assert sl.d_S.tobytes() == d.tobytes()
        # every pair's verdict from one batch, as extract_slice takes them
        pairs = list(verdicts)
        assert len(pairs) == len(sl) * (len(sl) - 1) // 2
        assert [verdict_fields(v)
                for v in batch_verdicts(space, sl.lines, pairs, tol)] == \
            [verdict_fields(verdicts[p]) for p in pairs]

    def test_first_failure_in_row_major_order(self):
        # the asymptote through the middle seed of the flat strip's five
        # swapped for a boosted line through that seed: the pairs (0, 2),
        # (1, 2), (2, 3) and (2, 4) fail, and the first of them in
        # row-major order is named
        space, sl, tol = minkowski_slice()
        seeds = [(0.0, x) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        params = (-4.0, -2.0, 0.0, 2.0, 4.0)
        boosted = LineDescriptor(CausalChain(tuple(
            (s * math.cosh(0.3), s * math.sinh(0.3)) for s in params)), params)
        lines = sl.lines[:2] + (boosted,) + sl.lines[3:]
        first, second = np.triu_indices(len(lines), 1)
        failed = ~decide_parallel(space, lines, first, second, tol).parallel
        assert list(zip(first[failed].tolist(), second[failed].tolist())) \
            == [(0, 2), (1, 2), (2, 3), (2, 4)]

        built = splitting._asymptotic_lines

        def build(space_, line, points, horizons, shifts, knot_extent):
            return [boosted if p == seeds[2] else out for p, out in zip(
                points, built(space_, line, points, horizons, shifts,
                              knot_extent))]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitting, "_asymptotic_lines", build)
            got = outcome(lambda: extract_slice(
                space, sl.reference_line, seeds, sl.horizons, tol,
                knot_extent=4.0))
        assert got == (PreconditionError, "asymptotes through members 0 and "
                       "2 fail the parallelity test")
        assert got == outcome(slice_distances_loops, space, lines, tol)

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_footpoint_at_the_dedupe_radius(self, nudge):
        # five seeds of the canonical product with their footpoints planted:
        # the third lies at dedupe_radius from the second, or one float
        # nearer or farther, where np.hypot rounds the distance otherwise
        # than math.hypot; the fifth repeats the first
        space, sl, tol = product_slice()
        seeds = [(0.0, x) for x in (0.0, 0.5, 0.25, 0.75, 1.0)]
        feet = [(0.0, 0.0), (0.0, 0.5), None, (0.0, 0.75), (0.0, 0.0)]
        feet[2] = tie_point(space, feet[1], nudged(0.25 * space.mesh, nudge))
        planted = {}
        built = splitting._asymptotic_lines

        def build(space_, line, points, horizons, shifts, knot_extent):
            lines = built(space_, line, points, horizons, shifts, knot_extent)
            for p, out in zip(points, lines):
                planted[id(out)] = feet[seeds.index(p)]
            return lines

        def foot(space_, lines, t):
            assert t == 0.0
            return [planted[id(line)] for line in lines]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitting, "_asymptotic_lines", build)
            mp.setattr(splitting, "_line_points", foot)
            got = extract_slice(space, sl.reference_line, seeds, sl.horizons,
                                tol, knot_extent=4.0)
        kept = dedupe_loops(space, feet, 0.25 * space.mesh)
        assert kept == ([0, 1, 3] if nudge < 0 else [0, 1, 2, 3])
        assert got.members == tuple(feet[k] for k in kept)
        d, _ = slice_distances_loops(space, got.lines, tol)
        assert got.d_S.tobytes() == d.tobytes()

    def test_dedupe_against_kept_members_only(self):
        # footpoints 0.6 dedupe radius apart in a row: the second lies near
        # the first and is dropped, the third lies near the dropped one
        # only and is kept
        space, sl, tol = product_slice()
        radius = 0.25 * space.mesh
        seeds = [(0.0, x) for x in (0.0, 0.5, 1.0)]
        feet = [(0.0, 0.5 + k * 0.6 * radius) for k in range(3)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splitting, "_line_points",
                       lambda space_, lines, t: feet[:len(lines)])
            got = extract_slice(space, sl.reference_line, seeds, sl.horizons,
                                tol, knot_extent=4.0)
        assert dedupe_loops(space, feet, radius) == [0, 2]
        assert got.members == (feet[0], feet[2])

    def test_memory_bounded_by_the_block(self):
        # 301 three-knot verticals a unit apart: 45150 pairs of 9 knot pairs
        # each, one block for all of them would hold 0.8M entries per
        # array; only lines up to 2 apart are related, so few entries are
        # squared
        space = ProductSpace(EuclideanSegment(0.0, 300.0, 301))
        lines = [vertical_line(space, q, (-1.0, 0.0, 1.0))
                 for q in space.factor.sample()]
        first, second = np.triu_indices(len(lines), 1)

        def peak():
            tracemalloc.start()
            try:
                verdicts = decide_parallel(space, lines, first, second, 1e-9)
                return tracemalloc.get_traced_memory()[1], verdicts
            finally:
                tracemalloc.stop()

        blocked, verdicts = peak()
        assert verdicts.parallel.sum() == 300 + 299
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", 9 * len(first))
            unblocked, _ = peak()
        assert blocked < 16 * 2 ** 20 < unblocked


# ---------------------------------------------------------------------------
# build_asymptotic_lines and the per-seed steps of extract_slice


def line_fields(line):
    """A line's knots by their repr, its parameters as bit patterns and its
    anchor."""
    return repr(tuple(line.chain.points)), bits(line.params), line.anchor


def fields_outcome(fields, fn, *args):
    """``fields`` of the return value, or the type and message of any
    exception raised (a maximizer over infinite separations fails its
    reconstruction with an AssertionError)."""
    try:
        return fields(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def lines_fields(lines):
    return [line_fields(line) for line in lines]


def slice_fields(sl):
    return (repr(sl.members), sl.d_S.tobytes(), lines_fields(sl.lines),
            sl.horizons)


def asymptotic_lines_loops(space, line, points, horizons, shifts,
                           knot_extent):
    return [build_asymptotic_line_loops(space, line, p, horizons, shift,
                                        knot_extent)
            for p, shift in zip(points, shifts)]


def assert_lines_match(space, line, points, horizons, shifts, knot_extent):
    args = (space, line, points, horizons, shifts, knot_extent)
    got = fields_outcome(lines_fields, build_asymptotic_lines, *args)
    assert got == fields_outcome(lines_fields, asymptotic_lines_loops, *args)
    return got


LINE_AT = {"segment": 0.5, "plane": (0.5, 0.0), "tripod": (0, 0.5),
           "table": 1}
HORIZON_SETS = [(1, 2, 4, 8), (2, 4), (8,), (4, 4, 8), (3,), (8, 2),
                (1, 16), ()]
EXTENTS = [None, 0.01, 0.5, 2.5, 4.0, math.inf, math.nan, -1.0]
SHIFTS = [0.0, -0.0, 0.3, -1.5, math.nan, 1e300]


class TestAsymptoticLinesMatchLoops:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(FACTORS)), data=st.data(),
           horizons=st.sampled_from(HORIZON_SETS),
           knot_extent=st.sampled_from(EXTENTS + ["mesh"]))
    def test_product_points(self, kind, data, horizons, knot_extent):
        # points anywhere, infinite and NaN coordinates included, on every
        # factor kind (a table factor has no minimizers); a knot extent of
        # one mesh is too short for a knot
        space = ProductSpace(FACTORS[kind])
        if knot_extent == "mesh":
            knot_extent = space.mesh
        line = vertical_line(space, LINE_AT[kind], range(-8, 9))
        points = data.draw(product_points(kind))
        shifts = data.draw(st.lists(st.sampled_from(SHIFTS),
                                    min_size=len(points),
                                    max_size=len(points)))
        assert_lines_match(space, line, points, horizons, shifts, knot_extent)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(FACTORS)), data=st.data(),
           horizons=st.sampled_from([(2, 4, 8), (4, 4, 8), (8,), (8, 2),
                                     (3,)]),
           knot_extent=st.sampled_from([None, 0.75, 4.0]),
           block=st.sampled_from([1, 9, chains.PAIR_BLOCK]))
    def test_points_near_the_line(self, kind, data, horizons, knot_extent,
                                  block):
        # points inside the envelope: every line is built, with one to four
        # knots a side, its additivity checked in bands of one chain, of a
        # few chains or of all
        space = ProductSpace(FACTORS[kind])
        line = vertical_line(space, LINE_AT[kind], range(-8, 9))
        offsets = data.draw(st.lists(st.sampled_from(OFFSETS[:4]),
                                     min_size=1, max_size=6))
        size = dict(min_size=len(offsets), max_size=len(offsets))
        times = data.draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25]), **size))
        shifts = data.draw(st.lists(st.sampled_from(SHIFTS[:4]), **size))
        factor = {"segment": lambda x: x, "plane": lambda x: (x, 0.0),
                  "tripod": lambda x: (1, x),
                  "table": lambda x: LINE_AT["table"]}[kind]
        points = [(t, factor(x)) for t, x in zip(times, offsets)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "PAIR_BLOCK", block)
            got = assert_lines_match(space, line, points, horizons, shifts,
                                     knot_extent)
        assert isinstance(got, list)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 7), seed=SEEDS, data=st.data(),
           horizons=st.sampled_from([(0.5, 1.0), (1.0, 2.0), (2.0,),
                                     (0.25, 0.5, 1.0), (1.0, 1.0)]))
    def test_finite_tables(self, n, seed, data, horizons):
        # random relations and inf separations
        space = finite_space(n, seed)
        line = data.draw(table_lines(n))
        points = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=5))
        shifts = data.draw(st.lists(st.sampled_from(SHIFTS),
                                    min_size=len(points),
                                    max_size=len(points)))
        assert_lines_match(space, line, points, horizons, shifts, None)

    @pytest.mark.parametrize("horizons", [(4, 8), (2, 8), (8,)])
    def test_bent_line(self, horizons):
        # knots at parameters 8 and -8 nearer the points than those at 4
        # and -4: legs shorter than the knot extent, knots beyond a leg
        space = ProductSpace(FACTORS["segment"])
        params = (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)
        points = [(0.0, 0.5), (0.0, 0.25), (-0.5, 0.5), (0.25, 0.75)]
        for top in (2.5, 2.0 - 1.5e-9):
            # at 2 - 1.5e-9 the knot at 2 lies beyond the last leg by more
            # than EPS (Leg.point_at refuses it) but within a relative EPS
            # (realizer_point would take it)
            times = (-2.5, -4.0, -2.0, 0.0, 2.0, 4.0, top)
            line = LineDescriptor(CausalChain(tuple((t, 0.5) for t in times)),
                                  params)
            for p in points:
                assert_lines_match(space, line, [p], horizons, [0.0], 4.0)
            assert_lines_match(space, line, points, horizons, [0.0] * 4, 1.0)
        assert "leg parameter 2.0 outside" in outcome(
            build_asymptotic_line, space, line, points[0], (2, 8), 0.0,
            4.0)[1]

    def test_infinite_maximizer_after_an_earlier_refusal(self):
        # the maximizer from point 3 to the line's knot 2 has an infinite
        # separation, so its reconstruction fails with an AssertionError;
        # point 4 before it is not timelike related to that knot, and its
        # refusal is raised first
        leq = np.eye(5, dtype=bool)
        tau = np.zeros((5, 5))
        for i, j, t in [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0), (0, 3, 1.0),
                        (3, 2, math.inf), (0, 4, 1.0), (4, 1, 0.5)]:
            leq[i, j], tau[i, j] = True, t
        space = FiniteLorentzSpace(np.zeros((5, 5)), leq, tau > 0, tau)
        line = LineDescriptor(CausalChain((0, 1, 2)), (-1.0, 0.0, 1.0))
        assert fields_outcome(lines_fields, build_asymptotic_lines, space,
                              line, [3], (1.0,), [0.0], None)[0] \
            is AssertionError
        got = assert_lines_match(space, line, [4, 3], (1.0,), [0.0, 0.0],
                                 None)
        assert got[0] is PreconditionError

    def test_lattice_columns(self):
        # every lattice point against a column of the lattice, one at a
        # time and all at once: lines built, and each kind of refusal
        space, chains_ = lattice_chains()
        line = LineDescriptor(CausalChain(chains_[1]), (-2.0, -1.0, 0.0, 1.0,
                                                        2.0))
        outcomes = set()
        for horizons in [(1.0, 2.0), (2.0,), (1.0,), (2.0, 2.0)]:
            for p in range(space.n):
                got = assert_lines_match(space, line, [p], horizons, [0.5],
                                         None)
                outcomes.add(got[0] if isinstance(got, tuple) else list)
            assert_lines_match(space, line, range(space.n), horizons,
                               [0.0] * space.n, None)
            assert_lines_match(space, line, [6, 7, 8, 11, 12, 13], horizons,
                               [0.0, 1.0, -1.0, 2.0, 0.0, 0.5], None)
        assert outcomes == {list, PreconditionError}

    @pytest.mark.parametrize("make", [
        product_slice, minkowski_slice,
        functools.partial(product_slice, 41, 0.025)],
        ids=["segment", "minkowski", "segment-41"])
    def test_slice_lines(self, make):
        # every seed of the split fixtures at its synchronized time
        space, sl, _ = make()
        seeds = [(0.0, q) for q in space.factor.sample()] \
            if make is not minkowski_slice else list(sl.members)
        shifts = [busemann_value(space, sl.reference_line, p,
                                 sl.horizons).value for p in seeds]
        for extent in (2.5, 4.0):
            got = assert_lines_match(space, sl.reference_line, seeds,
                                     sl.horizons, shifts, extent)
            assert isinstance(got, list)


SPLIT_SEEDS = {
    # valid seeds, then one seed failing at each step of extract_slice with
    # horizons (2, 4) and knot extent 0.75: outside the envelope, a sample
    # not timelike related, a past horizon not timelike related, horizons
    # too short for a knot and the footpoint outside its line
    "segment": (product_slice, [(0.0, q) for q in
                                (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0)],
                [(300.0, 0.5), (5.0, 0.5), (-5.0, 0.5), (1.95, 0.5),
                 (1.0, 0.5)]),
    "strip": (minkowski_slice, [(0.0, x) for x in (-1.0, -0.5, 0.0, 0.5,
                                                   1.0)],
              [(300.0, 0.0), (5.0, 0.0), (-5.0, 0.0), (1.6, 0.0),
               (1.0, 0.0)]),
}
STAGE_ERRORS = ["outside the timelike envelope",
                "not timelike related to the line at parameter 2",
                "not timelike related to the horizon point at parameter -2",
                "horizons too short for even one knot",
                "parameter 0.0 outside the line extent"]


def slices_match(kind, seeds, horizons, knot_extent):
    make, _, _ = SPLIT_SEEDS[kind]
    space, sl, tol = make()
    args = (space, sl.reference_line, seeds, horizons, tol, knot_extent)
    got = fields_outcome(slice_fields, extract_slice, *args)
    assert got == fields_outcome(slice_fields, extract_slice_loops, *args)
    return got


class TestExtractSliceSeedSteps:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(SPLIT_SEEDS)), data=st.data(),
           horizons=st.sampled_from([tuple(HORIZONS), (2, 4)]),
           knot_extent=st.sampled_from([4.0, 0.75]))
    def test_seed_lists(self, kind, data, horizons, knot_extent):
        # valid seeds, repeated ones (duplicate footpoints) and seeds
        # failing at each step, in any order
        _, valid, bad = SPLIT_SEEDS[kind]
        seeds = data.draw(st.lists(st.sampled_from(valid + bad), min_size=1,
                                   max_size=8))
        slices_match(kind, seeds, horizons, knot_extent)

    @pytest.mark.parametrize("kind", sorted(SPLIT_SEEDS))
    @pytest.mark.parametrize("stage", range(len(STAGE_ERRORS)))
    def test_each_step_fails(self, kind, stage):
        _, valid, bad = SPLIT_SEEDS[kind]
        got = slices_match(kind, valid[:2] + [bad[stage]] + valid[2:3],
                           (2, 4), 0.75)
        assert got[0] is PreconditionError and STAGE_ERRORS[stage] in got[1]

    @pytest.mark.parametrize("kind", sorted(SPLIT_SEEDS))
    def test_first_failing_seed_wins(self, kind):
        # a footpoint error of seed 3 comes before a build error of seed 4,
        # and the other way round
        _, valid, bad = SPLIT_SEEDS[kind]
        got = slices_match(kind, valid[:3] + [bad[4], bad[2]], (2, 4), 0.75)
        assert STAGE_ERRORS[4] in got[1]
        got = slices_match(kind, valid[:3] + [bad[2], bad[4]], (2, 4), 0.75)
        assert STAGE_ERRORS[2] in got[1]

    @pytest.mark.parametrize("kind", sorted(SPLIT_SEEDS))
    def test_rising_samples(self, kind):
        # a line whose knot at 4 sits at 3.5: every seed's samples rise, so
        # busemann_value refuses seeds whose asymptotes and footpoints
        # (at the extrapolated value) exist
        make, valid, _ = SPLIT_SEEDS[kind]
        space, sl, tol = make()
        x = sl.reference_line.chain.points[0][1]
        line = LineDescriptor(CausalChain(tuple(
            (t, x) for t in (-4.0, -2.0, 0.0, 2.0, 3.5))),
            (-4.0, -2.0, 0.0, 2.0, 4.0))
        args = (space, line, valid[:3], (2, 4), tol, 4.0)
        got = fields_outcome(slice_fields, extract_slice, *args)
        assert got == fields_outcome(slice_fields, extract_slice_loops, *args)
        assert "samples increase" in got[1]
        lines = build_asymptotic_lines(space, line, valid[:3], (2, 4),
                                       [0.9375] * 3, 4.0)
        assert None not in asymptotics._line_points(space, lines, 0.0)

    @pytest.mark.parametrize("kind", sorted(SPLIT_SEEDS))
    def test_duplicate_footpoints(self, kind):
        _, valid, _ = SPLIT_SEEDS[kind]
        got = slices_match(kind, valid + valid[::-1], tuple(HORIZONS), 4.0)
        assert list(eval(got[0])) == valid
