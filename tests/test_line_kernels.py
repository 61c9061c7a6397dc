"""The line lookups and array forms of the split path, pinned to the loop
versions they replaced.

The loops below are the former implementations of ``LineDescriptor.point_at``
and ``has_param``, ``line_point``, ``is_line``, ``product_image_defect``,
``build_splitting_map`` and ``check_slice_alexandrov``, kept as oracles: each
bisection and array form must give the same answers, the same first
failures, the same witnesses in the same order and the same values, bit for
bit.  The array forms of ``tau`` and ``leq`` are compared with the scalar
forms on every factor kind and on finite tables.
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lorentz_lab.asymptotics import LineDescriptor, line_point, vertical_line
from lorentz_lab.chains import CausalChain, LineCheck, is_line, validate_chain
from lorentz_lab.core import EPS, FiniteLorentzSpace, PreconditionError
from lorentz_lab.models import (EuclideanSegment, ExplicitTable, PlaneSample,
                                ProductSpace, TripodGraph, _product_tau,
                                product_image_defect)
from lorentz_lab.sampling import sprinkle_causal_set
from lorentz_lab.splitting import (MAX_PAIRS, SliceCurvatureReport,
                                   SpacelikeSlice, build_splitting_map,
                                   check_slice_alexandrov, extract_slice,
                                   slice_from_table)

from conftest import HORIZONS

# the oracles evaluate inf - inf and overflowing products on numpy scalars
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:divide by zero encountered:RuntimeWarning")

SEEDS = st.integers(0, 10_000)


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


def point_at_loops(line, t):
    for p, pt in zip(line.params, line.chain.points):
        if abs(p - t) <= 1e-9 * max(1.0, abs(t)):
            return pt
    raise PreconditionError(f"parameter {t} is not a knot of this line")


def has_param_loops(line, t):
    return any(abs(p - t) <= 1e-9 * max(1.0, abs(t)) for p in line.params)


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


def is_line_loops(space, chain, tol=EPS):
    validate_chain(space, chain)
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
        return math.acos(min(1.0, max(-1.0, c)))

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
        excess = sum(angs) - 2.0 * math.pi
        if excess > worst:
            worst, witness = excess, (x, a, b, c)
    if count == 0:
        raise PreconditionError("all quadruples degenerate")
    return SliceCurvatureReport(worst <= tol, worst, witness, count, skipped)


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
    got = product_image_defect(space, points, i, j, dt, dx, band)
    assert got[1] == want[1]
    assert bits(got[0]) == bits(want[0]) and type(got[0]) is float


# ---------------------------------------------------------------------------
# build_splitting_map

@functools.lru_cache(maxsize=None)
def product_slice():
    """The canonical product, its slice and the parallel tolerance."""
    space = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)
    gamma = vertical_line(space, 0.5, range(-260, 261))
    tol = 3.0 * (space.mesh + 0.5 ** 2 / (2.0 * HORIZONS[-1]))
    seeds = [(0.0, q) for q in space.factor.sample()]
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

    def test_all_degenerate(self):
        sl = slice_from_table(range(4), np.zeros((4, 4)))
        got = outcome(check_slice_alexandrov, sl)
        assert got == outcome(check_slice_alexandrov_loops, sl)
        assert got == (PreconditionError, "all quadruples degenerate")
