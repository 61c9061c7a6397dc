"""The array kernels of the curvature testers, pinned to the loops they
replaced.

The loops below are the former implementations of ``check_pushup``,
``check_product_glob_hyp``, ``check_diamond_basis``,
``test_monotonicity_comparison`` and ``test_curvature_lower0``, kept as
oracles: each array kernel must give the same reports (``repr``-equal), the
same verdicts and the same errors.  The monotonicity loop counts its
upper-sense warnings by the law of cosines, the closed form that is itself
checked against planted hinges.  ``solve_angles`` is pinned to
``solve_angle`` bit for bit.  Work guards count, through counting
subclasses of the space classes, the conversions and passes each tester
makes.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_lab import chains, comparison
from lorentz_lab.comparison import (CurvatureReport, KnotLeg, Leg,
                                    MonotonicityReport, SideTriple,
                                    SpaceTriangle, TriangleSide,
                                    UnrealizableError, _hinge_points,
                                    _realize_triangles,
                                    hinge_angle,
                                    realize_triangle, solve_angle,
                                    solve_angles)
from lorentz_lab.comparison import test_curvature_lower0 as curvature_bound
from lorentz_lab.comparison import test_monotonicity_comparison as \
    monotonicity_bound
from lorentz_lab.core import (EPS, FiniteLorentzSpace, PreconditionError,
                              PushupReport, check_pushup)
from lorentz_lab.models import (EuclideanSegment, ExplicitTable,
                                GlobalHyperbolicityReport, PlaneSample,
                                ProductSpace, TripodGraph, _diamond_within,
                                check_diamond_basis,
                                check_product_glob_hyp,
                                factor_properness_scan, minkowski_space,
                                tau_minkowski)
from lorentz_lab.sampling import (finite_triangles, flat_finite_space,
                                  minkowski_triangles, product_hinges,
                                  sprinkle_causal_set)

from conftest import (flat_six_point_table, null_coray_table,
                      violated_six_point_table)

SEEDS = st.integers(0, 10_000)
CONFIGS = ("123", "321", "213", "231", "132", "312")


def outcome(fn, *args, **kwargs):
    """Return value, or the type and message of the exception raised."""
    try:
        return fn(*args, **kwargs)
    except (PreconditionError, ValueError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# loop oracles


def check_pushup_loops(space, sample):
    pts = list(sample)
    violations = []
    count = 0
    for x in pts:
        for y in pts:
            for z in pts:
                count += 1
                if space.ll(x, y) and space.leq(y, z) and not space.ll(x, z):
                    violations.append(("ll-leq", x, y, z))
                if space.leq(x, y) and space.ll(y, z) and not space.ll(x, z):
                    violations.append(("leq-ll", x, y, z))
    return PushupReport(count, tuple(violations))


def check_product_glob_hyp_loops(space, diamond_pairs):
    proper = factor_properness_scan(space.factor)
    bounded = True
    worst = 0.0
    for p, q in diamond_pairs:
        if not space.leq(p, q):
            continue
        r, t = p[0], q[0]
        radius = 2.0 * abs(r) + 2.0 * abs(t)
        for (s, y) in space.sample_points():
            if not (space.leq(p, (s, y)) and space.leq((s, y), q)):
                continue
            if s < r - EPS or s > t + EPS:
                bounded = False
                worst = max(worst, max(r - s, s - t))
            excess = space.factor.distance(p[1], y) - radius
            if excess > EPS:
                bounded = False
                worst = max(worst, excess)
    return GlobalHyperbolicityReport(proper, bounded, proper == bounded, worst)


def check_diamond_basis_loops(space, t_lo, t_hi, center, radius, witness):
    b, y = witness
    dxy = space.factor.distance(center, y)
    if not (t_lo < b < t_hi) or not (dxy < radius):
        raise PreconditionError("witness outside the open set")
    eps = min(b - t_lo, t_hi - b, radius - dxy)
    if eps <= EPS:
        raise PreconditionError("degenerate construction: empty diamond")
    return diamond_within_loops(space, (b - eps, y), (b + eps, y), t_lo, t_hi,
                                center, radius)


def diamond_within_loops(space, p, q, t_lo, t_hi, center, radius):
    dist = space.factor.distance
    for (s, z) in space.sample_points():
        if space.ll(p, (s, z)) and space.ll((s, z), q):
            if not (t_lo < s < t_hi and dist(center, z) < radius):
                # within EPS of both rims: a boundary point
                margin = min((s - p[0]) - dist(p[1], z),
                             (q[0] - s) - dist(z, q[1]))
                excess = max(t_lo - s, s - t_hi, dist(center, z) - radius)
                if margin <= EPS and excess <= EPS:
                    continue
                return False
    return True


def cosh_gap(s, t, cross):
    """cosh(omega) - 1 at the base of a hinge whose legs s and t point one
    time direction and whose leg points are cross apart, in the arithmetic
    of ``solve_angle``, negative values clamped to 0."""
    gap = abs(s - t)
    u = (gap - cross) * (gap + cross) / (2.0 * s * t)
    return 0.0 if u < 0.0 else u


def images_related(s2, t2, u, mixed):
    """Whether the points at leg parameters s2 and t2 of a flat hinge with
    cosh(omega) - 1 = u are timelike related: always when the legs point to
    opposite time directions, else when their squared separation
    (s2 - t2)^2 - 2 s2 t2 u is positive."""
    return mixed or (s2 - t2) * (s2 - t2) > 2.0 * s2 * t2 * u


def monotonicity_loops(space, leg_a, leg_b, sense="lower", tol=EPS):
    if sense not in ("lower", "upper"):
        raise PreconditionError(f"unknown sense {sense!r}")
    svals = leg_a.param_grid(8)
    tvals = leg_b.param_grid(8)
    theta = {}
    for s in svals:
        for t in tvals:
            try:
                ang = hinge_angle(space, leg_a, leg_b, s, t)
            except UnrealizableError:
                continue
            if ang is not None:
                theta[(s, t)] = ang.signed
    if not theta:
        raise PreconditionError("no timelike related parameter pairs on the grid")

    direction = 1.0 if sense == "lower" else -1.0
    worst = 0.0
    witness = None

    def scan(pairs):
        nonlocal worst, witness
        prev_key, prev_val = None, None
        for key in pairs:
            if key not in theta:
                continue
            val = theta[key]
            if prev_val is not None:
                viol = direction * (prev_val - val)
                if viol > worst:
                    worst, witness = viol, (prev_key, key)
            prev_key, prev_val = key, val

    for t in tvals:
        scan([(s, t) for s in svals])
    for s in svals:
        scan([(s, t) for t in tvals])

    warnings = 0
    if sense == "upper":
        for s2 in svals:
            for t2 in tvals:
                if (s2, t2) in theta:
                    continue
                dominating = sorted((s, t) for (s, t) in theta
                                    if s >= s2 and t >= t2)
                if not dominating:
                    continue
                s, t = dominating[0]
                p, q = leg_a.point_at(s), leg_b.point_at(t)
                cross = max(space.tau(p, q), space.tau(q, p))
                if images_related(s2, t2, cosh_gap(s, t, cross),
                                  leg_a.direction != leg_b.direction):
                    warnings += 1
    return MonotonicityReport(worst <= tol, worst, witness, len(theta),
                              sense, warnings)


def curvature_loops(space, triangles, pairs_per_triangle=8, mode="lower",
                    tol=EPS, seed=0, pair_sampler=None):
    if mode not in ("lower", "upper"):
        raise PreconditionError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    lo, hi = math.inf, -math.inf
    witness_lo = witness_hi = None
    n_pairs = 0
    n_tris = 0
    for tidx, tri in enumerate(triangles):
        n_tris += 1
        planted = realize_triangle(tri.side_triple())
        if pair_sampler is not None:
            pair_list = pair_sampler(rng, tri)
        else:
            pair_list = []
            for _ in range(pairs_per_triangle):
                sa = rng.choice(SpaceTriangle.SIDES)
                sb = rng.choice(SpaceTriangle.SIDES)
                pair_list.append(((sa, tri.sides[sa].sample_params(rng)),
                                  (sb, tri.sides[sb].sample_params(rng))))
        for (sa, pa), (sb, pb) in pair_list:
            p = tri.point_at(sa, pa)
            q = tri.point_at(sb, pb)
            pbar = planted.point_on_side(*sa, pa)
            qbar = planted.point_on_side(*sb, pb)
            for u, v, ub, vb in ((p, q, pbar, qbar), (q, p, qbar, pbar)):
                defect = tri.space.tau(u, v) - tau_minkowski(ub, vb)
                n_pairs += 1
                if defect > hi:
                    hi, witness_hi = defect, (tidx, (sa, pa), (sb, pb))
                if defect < lo:
                    lo, witness_lo = defect, (tidx, (sa, pa), (sb, pb))
    if n_pairs == 0:
        raise PreconditionError("no on-triangle pairs sampled")
    if mode == "lower":
        return CurvatureReport("lower", hi <= tol, hi, witness_hi,
                               n_tris, n_pairs, lo, hi)
    return CurvatureReport("upper", -lo <= tol, lo, witness_lo,
                           n_tris, n_pairs, lo, hi)


def same_reports(fn, loops, *args, **kwargs):
    got = outcome(fn, *args, **kwargs)
    want = outcome(loops, *args, **kwargs)
    assert repr(got) == repr(want)
    return got


# ---------------------------------------------------------------------------
# spaces


def random_relation_table(n, seed):
    """Tables with random relations (not axiom-valid), so that push-up
    violations of both kinds occur."""
    rng = np.random.default_rng(seed)
    leq = rng.random((n, n)) < 0.5
    ll = leq & (rng.random((n, n)) < 0.6)
    np.fill_diagonal(leq, True)
    tau = np.where(ll, 1.0, 0.0)
    return FiniteLorentzSpace(np.ones((n, n)) - np.eye(n), leq, ll, tau)


def light_ray_points(space, base_idx, steps):
    """Grid points plus points reached from them along light rays, where
    ``dt == dx`` in exact arithmetic and rounding decides the relation."""
    grid = space.sample_points()
    pts = []
    for k, (h, sign) in zip(base_idx, steps):
        t, x = grid[k % len(grid)]
        pts += [(t, x), (t + h, x + sign * h), (t + 2 * h, x)]
    return pts


SEGMENT = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)
MINK = minkowski_space(-2.0, 2.0, -2.0, 2.0, 0.25)


# ---------------------------------------------------------------------------
# check_pushup


class TestPushupMatchesLoop:
    @settings(max_examples=40, deadline=None)
    @given(base=st.lists(st.integers(0, 10_000), max_size=4),
           steps=st.lists(st.tuples(st.sampled_from([0.05, 0.1, 0.15, 0.3, 0.35]),
                                    st.sampled_from([-1, 1])),
                          min_size=4, max_size=4),
           grid=st.lists(st.integers(0, 1700), max_size=6))
    def test_products_with_light_ray_ties(self, base, steps, grid):
        pts = light_ray_points(SEGMENT, base, steps)
        pts += [SEGMENT.sample_points()[k] for k in grid]
        same_reports(check_pushup, check_pushup_loops, SEGMENT, pts)

    def test_light_ray_ties_do_occur(self):
        # the product grid rounds some exact light-ray pairs to a spurious
        # violation; array and loop report the same ones
        pts = light_ray_points(SEGMENT, range(0, 1700, 97),
                               [(0.15, 1), (0.35, -1)] * 9)
        report = same_reports(check_pushup, check_pushup_loops, SEGMENT, pts)
        assert report.violations

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 10), seed=SEEDS, weighted=st.booleans(),
           picks=st.lists(st.integers(0, 9), max_size=8))
    def test_flat_tables(self, n, seed, weighted, picks):
        space = sprinkle_causal_set(n, seed, weighted)
        same_reports(check_pushup, check_pushup_loops, space, range(n))
        same_reports(check_pushup, check_pushup_loops, space,
                     [k % n for k in picks])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=SEEDS)
    def test_random_relations(self, n, seed):
        space = random_relation_table(n, seed)
        same_reports(check_pushup, check_pushup_loops, space, range(n))

    def test_handmade_violation(self):
        leq = np.triu(np.ones((3, 3), dtype=bool))
        ll = np.zeros((3, 3), dtype=bool)
        ll[0, 1] = True
        tau = np.zeros((3, 3))
        tau[0, 1] = 1.0
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        space = FiniteLorentzSpace(d, leq, ll, tau)
        report = same_reports(check_pushup, check_pushup_loops, space, range(3))
        assert report.violations == (("ll-leq", 0, 1, 2),)

    def test_empty_sample(self):
        assert same_reports(check_pushup, check_pushup_loops, MINK, []) == \
            PushupReport(0, ())


# ---------------------------------------------------------------------------
# solve_angles


def bits(values):
    return ["nan" if math.isnan(v) else (v, math.copysign(1.0, v))
            for v in values]


def scalar_angles(a12, a23, a13, config):
    out = []
    for a, b, c in zip(a12, a23, a13):
        try:
            out.append(solve_angle(SideTriple(a, b, c, config)).omega)
        except UnrealizableError:
            out.append(math.nan)
    return out


SIDE = st.floats(1e-3, 1e3)


@st.composite
def side_triples(draw, config):
    """Side triples of one configuration: generic ones, ones at the
    ``lng + EPS`` bound of the size check, and ones whose cosh - 1 lands in
    [-1e-12, 0)."""
    a, b = draw(SIDE), draw(SIDE)
    kind = draw(st.sampled_from(["free", "bound", "negative-u"]))
    if kind == "free":
        return a, b, draw(st.floats(-1.0, 2e3))
    sides = {(1, 2): a, (2, 3): b}
    lo, mid, hi = SideTriple(1.0, 1.0, 1.0, config).ordered()
    if (min(lo, hi), max(lo, hi)) != (1, 3):
        # the long side is a12 or a23: set it, the draw fixes the other two
        c = draw(SIDE)
        sides[(1, 3)] = c
        short = [sides[tuple(sorted(e))] for e in ((lo, mid), (mid, hi))]
        lng = sum(short) - EPS * draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
        sides[tuple(sorted((lo, hi)))] = max(lng, 1e-3)
        return sides[(1, 2)], sides[(2, 3)], sides[(1, 3)]
    if kind == "bound":
        return a, b, a + b - EPS * draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    # u = (c - (a + b))(c + a + b) / (2ab) or (|a - b| - c)(|a - b| + c) / (2ab)
    f = draw(st.floats(0.0, 1e-12))
    if config[1] == "2":
        return a, b, (a + b) * (1.0 - f * a * b / (a + b) ** 2)
    gap = abs(a - b)
    return a, b, gap + f * a * b / max(gap, 1e-3)


class TestSolveAnglesMatchesScalar:
    @pytest.mark.parametrize("config", CONFIGS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bit_for_bit(self, config, data):
        triples = data.draw(st.lists(side_triples(config), min_size=1,
                                     max_size=8))
        a12, a23, a13 = zip(*triples)
        got = solve_angles(np.array(a12), np.array(a23), np.array(a13),
                           config).tolist()
        assert bits(got) == bits(scalar_angles(a12, a23, a13, config))

    def test_boundary_cases_occur(self):
        # both rejection rules and the clamped negative u are exercised
        a12, a23 = [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]
        a13 = [3.0 - 2 * EPS, 3.0 * (1 - 1e-13), 3.0]
        got = solve_angles(a12, a23, a13, "123").tolist()
        assert bits(got) == bits(scalar_angles(a12, a23, a13, "123"))
        assert math.isnan(got[0]) and got[1] == 0.0 and got[2] == 0.0

    def test_bad_configuration(self):
        with pytest.raises(PreconditionError):
            solve_angles([1.0], [1.0], [2.0], "chain")


# ---------------------------------------------------------------------------
# check_product_glob_hyp and check_diamond_basis


def clustered_table(n, gap):
    """Points on a line, the last two ``gap`` apart: below an eighth of the
    mesh the properness scan calls the factor non-proper."""
    xs = [0.25 * k for k in range(n - 1)] + [0.25 * (n - 2) + gap]
    return ExplicitTable(tuple(tuple(abs(a - b) for b in xs) for a in xs), 0.25)


def skewed_table(n, seed):
    """Asymmetric table with negative entries: not a metric, so causal
    diamonds leave their time slab and the factor ball."""
    rng = random.Random(seed)
    return ExplicitTable(tuple(tuple(round(rng.uniform(-0.5, 1.0), 2)
                                     for _ in range(n)) for _ in range(n)),
                         0.25)


def factors(seed):
    rng = random.Random(seed)
    pts = tuple((round(rng.uniform(0, 1), 2), round(rng.uniform(0, 1), 2))
                for _ in range(6))
    return [EuclideanSegment(0.0, 1.0, rng.randrange(2, 9)),
            PlaneSample(pts, 0.25),
            TripodGraph(1.0, rng.randrange(2, 5)),
            clustered_table(5, 0.01),
            skewed_table(4, seed)]


def random_pairs(space, rng, count):
    grid = space.sample_points()
    pairs = []
    for _ in range(count):
        p, q = rng.choice(grid), rng.choice(grid)
        if rng.random() < 0.3:   # off the time grid
            p = (p[0] + rng.uniform(-0.1, 0.1), p[1])
        pairs.append((p, q))
    return pairs


class TestGlobHypMatchesLoop:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, count=st.integers(0, 12))
    def test_factors(self, seed, count):
        rng = random.Random(seed)
        for factor in factors(seed):
            space = ProductSpace(factor, -1.0, 1.0, 0.25)
            pairs = random_pairs(space, rng, count)
            same_reports(check_product_glob_hyp, check_product_glob_hyp_loops,
                         space, pairs)

    def test_verdicts_cover_both_sides(self):
        # proper and bounded on the segment; non-proper (clustered) but
        # bounded; diamonds that break the slab and the ball
        seg = ProductSpace(EuclideanSegment(0.0, 1.0, 5), -1.0, 1.0, 0.25)
        pairs = [((-1.0, 0.0), (1.0, 0.5)), ((0.0, 0.5), (0.75, 0.25))]
        report = same_reports(check_product_glob_hyp,
                              check_product_glob_hyp_loops, seg, pairs)
        assert report.proper_factor and report.diamonds_bounded
        clustered = ProductSpace(clustered_table(5, 0.01), -1.0, 1.0, 0.25)
        report = same_reports(check_product_glob_hyp,
                              check_product_glob_hyp_loops, clustered,
                              [((-1.0, 0), (1.0, 4))])
        assert not report.proper_factor and not report.verdict_consistent
        skewed = ProductSpace(ExplicitTable(((-0.5, 3.0), (3.0, 0.0)), 1.0),
                              -1.0, 1.0, 0.25)
        report = same_reports(check_product_glob_hyp,
                              check_product_glob_hyp_loops, skewed,
                              [((0.0, 0), (0.5, 0)), ((0.0, 1), (0.0, 1))])
        assert not report.diamonds_bounded and report.worst_excess > 0.4
        # a diamond that leaves its slab by less than 2 EPS
        skewed = ProductSpace(ExplicitTable(((0.0, 0.0), (-2 * EPS, 0.0)), 1.0),
                              -1.0, 1.0, 0.25)
        report = same_reports(check_product_glob_hyp,
                              check_product_glob_hyp_loops, skewed,
                              [((0.0, 0), (0.25 - 1.5 * EPS, 0))])
        assert not report.diamonds_bounded and report.worst_excess < 2 * EPS


class TestGlobHypOnMetricFactors:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, count=st.integers(1, 12), n=st.integers(3, 7),
           gap=st.sampled_from([0.001, 0.01, 0.03, 0.25]))
    def test_slab_and_ball_bound_holds(self, seed, count, n, gap):
        # inside a diamond d(p, y) <= s - r <= |r| + |t|: the bound cannot
        # fail, so the verdict is consistent exactly when the factor is
        # proper (a clustered factor is reported inconsistent)
        rng = random.Random(seed)
        for factor in factors(seed)[:3] + [clustered_table(n, gap)]:
            space = ProductSpace(factor, -1.0, 1.0, 0.25)
            report = check_product_glob_hyp(space, random_pairs(space, rng,
                                                                count))
            assert report.diamonds_bounded and report.worst_excess == 0.0
            assert report.verdict_consistent == report.proper_factor


class TestDiamondBasisMatchesLoop:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS)
    def test_factors(self, seed):
        rng = random.Random(seed)
        for factor in factors(seed):
            space = ProductSpace(factor, -1.0, 1.0, 0.25)
            sample = factor.sample()
            for _ in range(4):
                t_lo = rng.uniform(-1.2, 0.5)
                t_hi = t_lo + rng.uniform(0.0, 1.5)
                witness = (rng.uniform(t_lo - 0.1, t_hi + 0.1),
                           rng.choice(sample))
                args = (space, t_lo, t_hi, rng.choice(sample),
                        rng.uniform(0.0, 1.2), witness)
                assert outcome(check_diamond_basis, *args) == \
                    outcome(check_diamond_basis_loops, *args)
            # diamonds of any grid pairs, most of them leaving the set
            for p, q in random_pairs(space, rng, 4):
                args = (space, p, q, rng.uniform(-1.2, 0.0),
                        rng.uniform(0.0, 1.2), rng.choice(sample),
                        rng.uniform(0.0, 1.2))
                assert _diamond_within(*args) is diamond_within_loops(*args)

    def test_both_verdicts(self):
        space = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)
        # at radius 0.3 grid points such as (1.0, 0.2) round onto the rims
        # of both the diamond and the ball: boundary points, not violations
        for radius in (0.4, 0.3):
            args = (space, 0.0, 2.0, 0.5, radius, (1.0, 0.5))
            assert check_diamond_basis(*args) is True
            assert check_diamond_basis_loops(*args) is True
        # the same diamond widened by one mesh leaves the ball
        args = (space, (0.65, 0.5), (1.35, 0.5), 0.0, 2.0, 0.5, 0.3)
        assert _diamond_within(*args) is False
        assert diamond_within_loops(*args) is False
        # the diamond's rim touches the ball's rim at the grid point (0, 0):
        # only the strict (timelike) diamond stays inside
        coarse = ProductSpace(EuclideanSegment(0.0, 1.0, 5), -1.0, 1.0, 0.25)
        args = (coarse, -1.0, 1.0, 0.5, 0.5, (0.0, 0.5))
        assert check_diamond_basis(*args) is True
        assert check_diamond_basis_loops(*args) is True
        skewed = ProductSpace(ExplicitTable(((0.0, -1.0), (-1.0, 0.0)), 1.0),
                              -1.0, 1.0, 0.25)
        args = (skewed, -0.5, 0.5, 0, 0.5, (0.0, 0))
        assert check_diamond_basis(*args) is False
        assert check_diamond_basis_loops(*args) is False


# ---------------------------------------------------------------------------
# test_monotonicity_comparison


def random_knot_leg(space, rng):
    k = rng.randrange(1, 5)
    params = [round(rng.uniform(0.0, 3.0), 1) for _ in range(k)]
    points = [rng.randrange(space.n) for _ in range(k)]
    return KnotLeg(points, params, rng.choice(["future", "past"]))


class TestMonotonicityMatchesLoop:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS)
    def test_analytic_legs(self, seed):
        for space in (SEGMENT, MINK):
            for leg_a, leg_b in product_hinges(space, 3, seed):
                for sense in ("lower", "upper"):
                    same_reports(monotonicity_bound, monotonicity_loops,
                                 space, leg_a, leg_b, sense, tol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.integers(4, 12))
    def test_knot_legs(self, seed, n):
        rng = random.Random(seed)
        for space in (flat_finite_space(n, seed), violated_six_point_table()):
            leg_a, leg_b = random_knot_leg(space, rng), random_knot_leg(space, rng)
            for sense in ("lower", "upper"):
                same_reports(monotonicity_bound, monotonicity_loops,
                             space, leg_a, leg_b, sense, tol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    def test_table_legs(self, seed):
        # legs along maximizing chains of a flat table, both time directions
        space = flat_finite_space(24, seed)
        rng = random.Random(seed)
        related = np.argwhere(space._ll).tolist()
        for _ in range(3):
            x, y = rng.choice(related)
            u, v = rng.choice(related)
            base, tips = (x, (y, v)) if rng.random() < 0.5 else (y, (x, v))
            try:
                legs = [Leg(space, base, tip) for tip in tips]
            except PreconditionError:
                continue
            for sense in ("lower", "upper"):
                same_reports(monotonicity_bound, monotonicity_loops,
                             space, *legs, sense, tol=1e-9)

    def test_upper_warnings_and_violations_occur(self):
        tripod = ProductSpace(TripodGraph(1.0, 11), -2.0, 2.0, 0.1)
        x = (0.0, (0, 0.5))
        legs = (Leg(tripod, x, (2.2, (1, 0.5))), Leg(tripod, x, (4.8, (2, 0.7))))
        lower = same_reports(monotonicity_bound, monotonicity_loops, tripod,
                             *legs, "lower", tol=1e-9)
        assert not lower.passed
        # a flat product warns nowhere: its leg points are related exactly
        # where their comparison images are
        for space in (SEGMENT, MINK):
            warned = [same_reports(monotonicity_bound, monotonicity_loops,
                                   space, *legs, "upper", tol=1e-9).warnings
                      for legs in product_hinges(space, 20, 0)]
            assert max(warned) == 0
        # knot legs pin arbitrary table points to their parameters
        rng = random.Random(0)
        warned = []
        for seed in range(20):
            space = flat_finite_space(8, seed)
            got = same_reports(monotonicity_bound, monotonicity_loops, space,
                               random_knot_leg(space, rng),
                               random_knot_leg(space, rng), "upper", tol=1e-9)
            if isinstance(got, MonotonicityReport):
                warned.append(got.warnings)
        assert max(warned) > 0
        table = violated_six_point_table()
        legs = (KnotLeg([1, 2], [1.0, 2.0], "future"),
                KnotLeg([3, 5], [2.25, 4.5], "future"))
        assert not same_reports(monotonicity_bound, monotonicity_loops, table,
                                *legs, "lower", tol=1e-9).passed


    def test_knot_order(self):
        # a KnotLeg's grid rises whatever the order of its knots, so a
        # permutation of (knot, parameter) pairs changes no report
        table = violated_six_point_table()
        leg_b = KnotLeg([3, 5], [2.25, 4.5], "future")
        for sense in ("lower", "upper"):
            reports = {repr(same_reports(monotonicity_bound,
                                         monotonicity_loops, table,
                                         KnotLeg(points, params, "future"),
                                         leg_b, sense, tol=1e-9))
                       for points, params in (([1, 2], [1.0, 2.0]),
                                              ([2, 1], [2.0, 1.0]))}
            assert len(reports) == 1
        rng = random.Random(0)
        for seed in range(10):
            space = flat_finite_space(10, seed)
            legs = []
            for _ in range(2):
                params = rng.sample([0.5, 1.0, 1.5, 2.0, 2.5], 3)
                points = [rng.randrange(space.n) for _ in params]
                legs.append((points, params, rng.choice(["future", "past"])))
            (pa, sa, da), leg_b = legs[0], KnotLeg(*legs[1])
            order = sorted(range(3), key=sa.__getitem__)
            for sense in ("lower", "upper"):
                assert repr(outcome(monotonicity_bound, space,
                                    KnotLeg(pa, sa, da), leg_b, sense)) == \
                    repr(outcome(monotonicity_bound, space,
                                 KnotLeg([pa[k] for k in order],
                                         [sa[k] for k in order], da),
                                 leg_b, sense))

    def test_mixed_kinds_on_a_table(self):
        # a Leg along a maximizing chain beside a KnotLeg, either way round
        rng = random.Random(1)
        for seed in range(8):
            space = flat_finite_space(12, seed)
            base, tip = rng.choice(np.argwhere(space._ll).tolist())
            if rng.random() < 0.5:
                base, tip = tip, base
            legs = (Leg(space, base, tip), random_knot_leg(space, rng))
            for pair in (legs, legs[::-1]):
                for sense in ("lower", "upper"):
                    same_reports(monotonicity_bound, monotonicity_loops,
                                 space, *pair, sense, tol=1e-9)

    def test_factor_without_minimizers(self):
        # an explicit-table factor interpolates nothing: a leg that moves
        # in the factor raises, a vertical one does not
        space = ProductSpace(REALIZER_FACTORS["table"])
        base = (0.0, 1)
        vertical, moving = Leg(space, base, (1.0, 1)), Leg(space, base, (2.0, 2))
        seen = set()
        for legs in ((vertical, moving), (moving, vertical), (moving, moving),
                     (vertical, Leg(space, base, (-1.5, 1)))):
            for sense in ("lower", "upper"):
                got = same_reports(monotonicity_bound, monotonicity_loops,
                                   space, *legs, sense, tol=1e-9)
                seen.add(type(got))
        assert seen == {tuple, MonotonicityReport}

    def test_error_of_the_first_leg_first(self):
        space = ProductSpace(REALIZER_FACTORS["table"])
        base = (0.0, 1)
        vertical, moving = Leg(space, base, (1.0, 1)), Leg(space, base, (2.0, 2))
        no_minimizer = (PreconditionError, "factor has no minimizer structure")
        for legs, svals, tvals, want in (
                ((moving, vertical), [0.5], [9.0], no_minimizer),
                ((vertical, moving), [0.5], [9.0],
                 (PreconditionError,
                  f"leg parameter 9.0 outside (0, {moving.total}]")),
                ((vertical, moving), [9.0], [0.5],
                 (PreconditionError, "leg parameter 9.0 outside (0, 1.0]")),
                ((vertical, moving), [0.5], [0.5], no_minimizer)):
            assert outcome(_hinge_points, space, *legs, svals, tvals) == want
        points = _hinge_points(space, vertical, vertical, [0.25, 1.0], [0.5])
        assert list(points) == [(0.25, 1), (1.0, 1), (0.5, 1)]


# The hinge of each configuration, (a12, a23, a13) = (s, t, cross) with the
# base x2, from the two sides the draw fixes and the slack of the third
# (long) side over the reverse triangle inequality.
HINGE_SIDES = {
    "123": lambda s, t, c, slack: (s, t, s + t + slack),
    "321": lambda s, t, c, slack: (s, t, s + t + slack),
    "213": lambda s, t, c, slack: (s, s + c + slack, c),
    "312": lambda s, t, c, slack: (s, s + c + slack, c),
    "231": lambda s, t, c, slack: (t + c + slack, t, c),
    "132": lambda s, t, c, slack: (t + c + slack, t, c),
}


class TestUpperWarningImagesMatchPlanting:
    """The closed form of the upper-sense warnings against the planted
    hinge: the comparison points at leg parameters s2 and t2, measured from
    the base x2 along each planted side (the planting puts the causally
    lowest vertex at the bottom, so the base is the earlier end of a side
    or the later one), must be timelike related exactly when
    ``images_related`` says so.  Exactly null pairs are left out: their
    planted separation is rounding, so the closed form is the exact oracle
    and this check holds wherever the squared separation is more than 1e-9
    from 0."""

    @pytest.mark.parametrize("config", CONFIGS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_images(self, config, data):
        side = st.floats(0.05, 5.0)
        slack = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
        a12, a23, a13 = HINGE_SIDES[config](data.draw(side), data.draw(side),
                                            data.draw(side), data.draw(slack))
        tri = realize_triangle(SideTriple(a12, a23, a13, config))
        mixed = config[1] == "2"
        sigma = 1 if mixed else -1
        if mixed:
            u = (a13 - (a12 + a23)) * (a13 + a12 + a23) / (2.0 * a12 * a23)
        else:
            u = cosh_gap(a12, a23, a13)
        u = max(u, 0.0)
        grid = st.integers(1, 8).map(lambda k: k / 8)
        fractions = st.lists(st.tuples(st.one_of(grid, st.floats(0.0, 1.0)),
                                       st.one_of(grid, st.floats(0.0, 1.0))),
                             min_size=1, max_size=8)
        for fs, ft in data.draw(fractions):
            s2, t2 = fs * a12, ft * a23
            images = []
            for (i, j), length, param in (((1, 2), a12, s2),
                                          ((2, 3), a23, t2)):
                tip = i if j == 2 else j
                base_first = tri.vertex(2)[0] < tri.vertex(tip)[0]
                images.append(tri.point_on_side(
                    i, j, param if base_first else length - param))
            p, q = images
            planted = tau_minkowski(p, q) > 0 or tau_minkowski(q, p) > 0
            radicand = s2 * s2 + t2 * t2 + 2.0 * sigma * s2 * t2 * (1.0 + u)
            if abs(radicand) > 1e-9:
                assert planted == images_related(s2, t2, u, mixed)

    def test_time_reversed_configurations_are_planted_upside_down(self):
        # so a leg parameter measured from a side's earlier end would start
        # at a tip of "321", "312" and "231", not at the base
        for config in CONFIGS:
            tri = realize_triangle(SideTriple(*HINGE_SIDES[config](
                1.0, 2.0, 0.5, 0.25), config))
            planted = "".join(sorted("123", key=lambda v: tri.vertex(int(v))[0]))
            assert planted == (config[::-1] if config in ("321", "312", "231")
                               else config)


def counting(cls):
    """A subclass of the space class cls that counts its realizer-core
    calls, the points it converts and its ``tau_array`` calls."""
    class Counting(cls):
        def reset(self):
            self.cores = self.converted = self.tau_arrays = 0

        def _realizer_core(self, *args):
            self.cores += 1
            return super()._realizer_core(*args)

        def _convert(self, points):
            self.converted += len(points)
            return super()._convert(points)

        def tau_array(self, points, i, j):
            self.tau_arrays += 1
            return super().tau_array(points, i, j)
    return Counting


class TestOnePassPerCall:
    """Work guards: each tester converts every leg and side once."""

    def test_one_realizer_pass_per_hinge(self, monkeypatch):
        space = counting(ProductSpace)(EuclideanSegment(0.0, 1.0, 21),
                                       -2.0, 2.0, 0.05)
        seen = set()
        for leg_a, leg_b in product_hinges(space, 4, 0):
            for sense in ("lower", "upper"):
                space.reset()
                seen.add(type(outcome(monotonicity_bound, space, leg_a, leg_b,
                                      sense)))
                assert space.cores == 1 and space.converted == 4
        assert MonotonicityReport in seen
        lookups = []
        knots_at = comparison._knots_at
        monkeypatch.setattr(comparison, "_knots_at",
                            lambda *args: lookups.append(1) or knots_at(*args))
        table = flat_finite_space(12, 3)
        for base, tip in np.argwhere(table._ll)[:4].tolist():
            legs = (Leg(table, base, tip), KnotLeg([tip], [1.0], "future"))
            for sense in ("lower", "upper"):
                lookups.clear()
                outcome(monotonicity_bound, table, *legs, sense)
                assert len(lookups) == 1

    def test_upper_warnings_plant_no_triangle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("planted a triangle")
        monkeypatch.setattr(comparison, "_realize_triangles", refuse)
        monkeypatch.setattr(comparison, "realize_triangle", refuse)
        undefined = 0
        for leg_a, leg_b in product_hinges(SEGMENT, 8, 0):
            report = monotonicity_bound(SEGMENT, leg_a, leg_b, "upper")
            undefined += (len(leg_a.param_grid(8)) * len(leg_b.param_grid(8))
                          - report.n_defined)
        assert undefined > 0

    def test_side_endpoints_once_per_side(self):
        space = counting(ProductSpace)(EuclideanSegment(0.0, 1.0, 21),
                                       -2.0, 2.0, 0.05)
        triangles = minkowski_triangles(space, 7, 0)
        for per in (0, 1, 12):
            space.reset()
            outcome(curvature_bound, space, triangles, per)
            assert (space.cores, space.converted) == (1, 2 * 3 * 7)

    def test_table_sides_from_the_tau_table(self, monkeypatch):
        flat = flat_finite_space(16, 2)
        space = counting(FiniteLorentzSpace)(flat._d, flat._leq, flat._ll,
                                             flat._tau)
        validated = []
        validate = chains.validate_chain
        monkeypatch.setattr(chains, "validate_chain",
                            lambda *args: validated.append(1) or validate(*args))
        space.reset()
        triangles = finite_triangles(space, 6, 0)
        assert validated == [] and space.tau_arrays == 0
        for tri in triangles:
            for side in tri.sides.values():
                want = chains.reparametrize_tau_arclength(
                    flat, chains.maximize_tau(flat, side.start, side.end).chain)
                assert bits(side.params) == bits(want)

    def test_null_step_refused(self):
        # the maximizer from 4 to 2 runs through the null relay 5
        space = null_coray_table()
        chain = chains.maximize_tau(space, 4, 2).chain
        want = outcome(chains.reparametrize_tau_arclength, space, chain)
        assert want == (PreconditionError,
                        "null step 4 -> 5: cannot parametrize")
        assert outcome(TriangleSide, space, 4, 2) == want


# ---------------------------------------------------------------------------
# test_curvature_lower0


def knot_sampler(rng, tri):
    """Pairs of side knots, as a hand-written sampler would give them."""
    out = []
    for _ in range(rng.randrange(0, 4)):
        sa, sb = rng.choice(SpaceTriangle.SIDES), rng.choice(SpaceTriangle.SIDES)
        out.append(((sa, rng.choice(tri.sides[sa].params)),
                    (sb, rng.choice(tri.sides[sb].params))))
    return out


class TestCurvatureMatchesLoop:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, count=st.integers(1, 12), per=st.integers(0, 10))
    def test_analytic_triangles(self, seed, count, per):
        for space in (SEGMENT, MINK):
            triangles = minkowski_triangles(space, count, seed)
            for mode in ("lower", "upper"):
                same_reports(curvature_bound, curvature_loops, space,
                             triangles, per, mode=mode, tol=1e-9, seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, n=st.integers(6, 24), count=st.integers(1, 8))
    def test_table_triangles(self, seed, n, count):
        space = flat_finite_space(n, seed)
        try:
            triangles = finite_triangles(space, count, seed)
        except ValueError:
            return
        for mode in ("lower", "upper"):
            same_reports(curvature_bound, curvature_loops, space, triangles,
                         mode=mode, tol=1e-9, seed=seed)
            same_reports(curvature_bound, curvature_loops, space, triangles,
                         mode=mode, tol=1e-9, seed=seed,
                         pair_sampler=knot_sampler)

    def test_planted_violation_and_out_of_range_parameter(self):
        space = violated_six_point_table()
        tri = SpaceTriangle(space, 0, 2, 5)
        sampler = lambda rng, t: [(((1, 2), 1.0), ((1, 3), 2.25))]
        report = same_reports(curvature_bound, curvature_loops, space, [tri],
                              mode="lower", tol=1e-9, pair_sampler=sampler)
        assert not report.passed and report.witness == (0, ((1, 2), 1.0),
                                                        ((1, 3), 2.25))
        flat = flat_six_point_table()
        tri = SpaceTriangle(flat, 0, 2, 5)
        same_reports(curvature_bound, curvature_loops, flat, [tri],
                     pairs_per_triangle=12, mode="upper", tol=1e-9, seed=1)
        # parameters within EPS past a side's ends are clamped; beyond, the
        # planted side refuses them even where the space's maximizer (with
        # its relative tolerance) still reaches them
        tri = minkowski_triangles(MINK, 2, 0)[1]
        length = tri.sides[(1, 3)].length
        assert length > 2.0
        for s in (length + 0.5 * EPS, -0.5 * EPS, length * (1.0 + 0.9 * EPS),
                  length + 1e-6):
            sampler = lambda rng, t: [(((1, 2), 0.5), ((1, 3), s))]
            same_reports(curvature_bound, curvature_loops, MINK, [tri],
                         pair_sampler=sampler)
        assert outcome(curvature_bound, MINK, [tri], pair_sampler=lambda rng, t: [
            (((1, 3), length * (1.0 + 0.9 * EPS)), ((1, 2), 0.5))]) == (
            PreconditionError,
            f"parameter {length * (1.0 + 0.9 * EPS)} outside side of length {length}")
        assert outcome(curvature_bound, MINK, [], 8)[0] is PreconditionError


def any_outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


class TestCurvatureErrorsInLoopOrder:
    """The drawing loop defers its errors (a triangle in another space, a
    failing sampler, a malformed pair) behind the planted-triangle and
    point errors a per-pair loop meets before them."""

    def cases(self):
        good = minkowski_triangles(MINK, 2, 0)
        bad = minkowski_triangles(MINK, 1, 1)[0]
        bad.sides[(1, 3)].length = 0.1     # fails the size bound
        other = minkowski_triangles(SEGMENT, 1, 0)[0]
        far = lambda rng, tri: [(((1, 2), 3.0 * tri.sides[(1, 2)].length),
                                 ((1, 3), 0.1))]

        def failing_at(k, inner=far):
            def sampler(rng, tri):
                if tri is triangles[k]:
                    raise RuntimeError(f"sampler fails at {k}")
                return inner(rng, tri)
            return sampler

        def reversed_side(rng, tri):
            return [(((1, 2), 0.1), ((2, 1), 0.1))]

        ok = lambda rng, tri: [(((1, 2), 0.1), ((2, 3), 0.1))]
        for triangles, sampler in (
                ([good[0], bad, other], ok),        # unrealizable first
                ([good[0], other, bad], ok),        # other space first
                ([good[0], bad, good[1]], failing_at(2, ok)),
                # a point failing after an unrealizable triangle
                ([good[0], bad, good[1]],
                 lambda rng, tri: (far if tri is good[1] else ok)(rng, tri)),
                ([good[0], good[1], bad], failing_at(1, ok)),
                ([good[0], good[1]], failing_at(1)),   # the point fails first
                ([good[0], good[1]], failing_at(0)),
                ([good[0], good[1]], reversed_side),
                # the first point of the pair fails before its second side
                ([good[0]], lambda rng, tri: [
                    (((1, 2), 3.0 * tri.sides[(1, 2)].length), ((2, 1), 0.1))])):
            yield triangles, sampler

    def test_first_error_of_a_loop(self):
        def in_space(triangles):
            # the tester's space check, met where the loop reaches a triangle
            for tidx, tri in enumerate(triangles):
                if tri.space is not MINK:
                    raise PreconditionError(
                        f"triangle {tidx} lies in another space")
                yield tri

        seen = set()
        for triangles, sampler in self.cases():
            got = any_outcome(curvature_bound, MINK, triangles,
                              pair_sampler=sampler)
            want = any_outcome(curvature_loops, MINK, in_space(triangles),
                               pair_sampler=sampler)
            assert repr(got) == repr(want)
            seen.add(got[0])
        assert {UnrealizableError, PreconditionError, RuntimeError,
                KeyError} <= seen


class TestPlantedTrianglesMatchScalar:
    @pytest.mark.parametrize("config", CONFIGS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_bit_for_bit(self, config, data):
        # side triples at the size bound, generic ones and sides so long
        # that the planted coordinates overflow and the sides do not close
        triples = data.draw(st.lists(st.one_of(
            side_triples(config),
            st.tuples(*[st.sampled_from([1e200, 2.5e200, 1.0]) for _ in "abc"])),
            min_size=1, max_size=6))
        a12, a23, a13 = (np.array(v) for v in zip(*triples))
        verts, refused = _realize_triangles(a12, a23, a13, config)
        for k, sides in enumerate(triples):
            want = outcome(realize_triangle, SideTriple(*sides, config)) \
                if min(sides) > 0.0 else (UnrealizableError, "")
            assert refused[k] == isinstance(want, tuple)
            if not refused[k]:
                got = [(float(t[k]), float(x[k])) for t, x in verts]
                assert bits([c for v in got for c in v]) == \
                    bits([c for v in want.coords for c in v])

    def test_sides_that_do_not_close_up(self):
        sides = SideTriple(1e200, 1e200, 2.5e200, "123")
        with pytest.raises(UnrealizableError, match="do not close up"):
            realize_triangle(sides)
        _, refused = _realize_triangles([1e200], [1e200], [2.5e200], "123")
        assert refused.tolist() == [True]


# ---------------------------------------------------------------------------
# realizer_points and interpolate_array


def realizer_points_loops(space, starts, ends, params):
    return [space.realizer_point(p, q, s)
            for p, q, s in zip(starts, ends, params)]


def point_bits(value):
    """Bit patterns of the floats of a point, nested tuples flattened and
    other values kept: equal only when the points agree bit for bit,
    signed zeros and NaN included."""
    if isinstance(value, tuple):
        return [b for v in value for b in point_bits(v)]
    if isinstance(value, float):
        return [("float", np.float64(value).view(np.uint64).item())]
    return [value]


REALIZER_FACTORS = {
    "segment": EuclideanSegment(0.0, 1.0, 5),
    "plane": PlaneSample(((0.0, 0.0), (1.0, 0.5), (0.25, 1.0), (0.0, -0.0)),
                         0.5),
    "tripod": TripodGraph(1.0, 5),
    "table": ExplicitTable(((0.0, 0.5, 1.0), (0.5, 0.0, 0.5),
                            (1.0, 0.5, 0.0)), 0.5),
}
# fractions of a pair's separation: inside, at the ends, within and beyond
# EPS past them, and non-finite ones
FRACTIONS = [0.0, -0.0, 0.3, 0.5, 1.0, 1.0 + 0.5 * EPS, 1.0 + 2.0 * EPS,
             -0.5 * EPS, -2.0 * EPS, -1.0, 2.0, math.nan, math.inf]


@st.composite
def realizer_entries(draw, space):
    """Pairs (p, q) of a product and parameters along them: timelike pairs,
    pairs with one factor point (vertical), null and unrelated pairs."""
    sample = space.factor.sample()
    entries = []
    for _ in range(draw(st.integers(0, 8))):
        p = (draw(st.sampled_from([-1.0, -0.0, 0.0, 0.5])),
             draw(st.sampled_from(sample)))
        q = (p[0] + draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, -0.5])),
             draw(st.sampled_from(sample)))
        total = space.tau(p, q)
        if draw(st.integers(0, 3)):
            s = total * draw(st.sampled_from([0.0, -0.0, 0.3, 0.5, 1.0]))
        else:
            frac = draw(st.sampled_from(FRACTIONS))
            s = draw(st.sampled_from([total * frac, frac,
                                      draw(st.floats(-1.0, 3.0))]))
        entries.append((p, q, s))
    return entries


class TestRealizerPointsMatchScalar:
    @pytest.mark.parametrize("kind", sorted(REALIZER_FACTORS))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_entries(self, kind, data):
        space = ProductSpace(REALIZER_FACTORS[kind])
        entries = data.draw(realizer_entries(space))
        starts, ends, params = (list(col) for col in zip(*entries)) \
            if entries else ([], [], [])
        got = outcome(space.realizer_points, starts, ends, params)
        want = outcome(realizer_points_loops, space, starts, ends, params)
        if isinstance(want, list):
            assert [point_bits(p) for p in got] == \
                [point_bits(p) for p in want]
            # the kept arrays are the ones a conversion gives
            t, x = space.point_arrays(got)
            t_want, x_want = space._convert(want)
            assert bits(t.tolist()) == bits(t_want.tolist())
            assert [point_bits(v) for v in x.tolist()] == \
                [point_bits(v) for v in x_want.tolist()]
        else:
            assert got == want

    def test_first_failing_entry_in_order(self):
        seg = ProductSpace(REALIZER_FACTORS["segment"])
        ok = ((0.0, 0.0), (1.0, 0.5), 0.5)
        null = ((0.0, 0.0), (0.5, 0.5), 0.1)
        outside = ((0.0, 0.0), (1.0, 0.5), 2.0)
        for entries, message in (
                ([ok, outside, null],
                 "parameter outside the maximizer"),
                ([ok, null, outside],
                 "maximizer parametrization needs a timelike pair")):
            args = [list(col) for col in zip(*entries)]
            assert outcome(seg.realizer_points, *args) == \
                outcome(realizer_points_loops, seg, *args) == \
                (PreconditionError, message)
        # a table factor interpolates nothing: its first pair with two
        # factor points fails, unless an earlier entry does
        table = ProductSpace(REALIZER_FACTORS["table"])
        vertical = ((0.0, 1), (1.0, 1), 0.5)
        moving = ((0.0, 0), (2.0, 2), 0.5)
        beyond = ((0.0, 0), (2.0, 2), 5.0)
        for entries, message in (
                ([vertical, moving, beyond],
                 "factor has no minimizer structure"),
                ([vertical, beyond, moving],
                 "parameter outside the maximizer")):
            args = [list(col) for col in zip(*entries)]
            assert outcome(table.realizer_points, *args) == \
                outcome(realizer_points_loops, table, *args) == \
                (PreconditionError, message)
        assert list(table.realizer_points(*[list(col) for col in
                                            zip(vertical, vertical)])) == \
            realizer_points_loops(table, *[list(col) for col in
                                           zip(vertical, vertical)])
        # a NaN parameter lies on no maximizer
        args = [[(0.0, 0.0)], [(1.0, 0.5)], [math.nan]]
        assert outcome(seg.realizer_point, *(a[0] for a in args)) == \
            outcome(seg.realizer_points, *args) == \
            (PreconditionError, "parameter outside the maximizer")
        # a parameter of -0.0 stays -0.0, as min and max keep it
        args = [[(-0.0, 0.0)], [(1.0, 0.5)], [-0.0]]
        got = seg.realizer_points(*args)
        assert point_bits(got[0]) == point_bits(
            realizer_points_loops(seg, *args)[0])
        assert math.copysign(1.0, got[0][0]) == -1.0


class TestInterpolateArrayMatchesScalar:
    @pytest.mark.parametrize("kind", sorted(REALIZER_FACTORS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_pairs(self, kind, data):
        factor = REALIZER_FACTORS[kind]
        pts = st.sampled_from(factor.sample())
        n = data.draw(st.integers(0, 8))
        a = [data.draw(pts) for _ in range(n)]
        b = [data.draw(pts) for _ in range(n)]
        frac = [data.draw(st.sampled_from(FRACTIONS)) for _ in range(n)]
        got = factor.interpolate_array(factor.point_array(a),
                                       factor.point_array(b), np.array(frac))
        want = [factor.interpolate(x, y, f) for x, y, f in zip(a, b, frac)]
        assert [point_bits(v) for v in got.tolist()] == \
            [point_bits(v) for v in want]
