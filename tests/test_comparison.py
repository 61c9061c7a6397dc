"""Law of cosines, planted triangles, curvature testers, the two splitting
lemmas, stacking and line-adjacent angle results."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lorentz_lab.core import PreconditionError
from lorentz_lab.models import tau_minkowski
from lorentz_lab.comparison import (Leg, KnotLeg, SideTriple, SpaceTriangle,
                                    UnrealizableError, hinge_angle,
                                    law_of_cosines_side, realize_triangle,
                                    solve_angle, triangle_angle, upper_angle,
                                    verify_alexandrov_across,
                                    verify_alexandrov_future, verify_stacking,
                                    angle_equals_comparison_angle,
                                    sides_equal_check)
# aliased so pytest does not collect the library entry points as tests
from lorentz_lab.comparison import test_curvature_lower0 as curvature_bound
from lorentz_lab.comparison import test_monotonicity_comparison as \
    monotonicity_bound
from lorentz_lab.sampling import minkowski_triangles, product_hinges

from conftest import flat_six_point_table, violated_six_point_table

ACOSH15 = math.acosh(1.5)


class TestLawOfCosines:
    def test_collinear_chain(self):
        assert law_of_cosines_side(1, 1, 0.0, 1) == pytest.approx(2.0)

    def test_unit_hinge(self):
        assert law_of_cosines_side(1, 1, ACOSH15, 1) \
            == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_degenerate_endpoint(self):
        assert law_of_cosines_side(1, 1, 0.0, -1) == pytest.approx(0.0)

    def test_negative_radicand_rejected(self):
        with pytest.raises(UnrealizableError):
            law_of_cosines_side(1.0, 3.0, 2.0, -1)


class TestSolveAngle:
    def test_collinear_zero_angle(self):
        assert solve_angle(SideTriple(1, 1, 2)).omega == pytest.approx(0.0)

    def test_sqrt5_triangle(self):
        angle = solve_angle(SideTriple(1, 1, math.sqrt(5)))
        assert angle.omega == pytest.approx(ACOSH15, abs=1e-12)
        assert angle.sigma == 1
        assert angle.signed == angle.omega

    def test_unrealizable_sides_rejected(self):
        with pytest.raises(UnrealizableError):
            solve_angle(SideTriple(1, 1, 1.99))

    def test_endpoint_sign(self):
        angle = solve_angle(SideTriple(1.0, 2.5, 1.0, "endpoint"))
        assert angle.sigma == -1
        assert angle.signed == -angle.omega

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, data):
        a = math.exp(data.draw(st.floats(math.log(0.2), math.log(5.0))))
        b = math.exp(data.draw(st.floats(math.log(0.2), math.log(5.0))))
        sigma = data.draw(st.sampled_from((1, -1)))
        if sigma == 1:
            omega = data.draw(st.floats(0.01, 4.0))
        else:
            arg = (a * a + b * b) / (2 * a * b)
            limit = math.acosh(arg) if arg > 1 else 0.0
            if limit < 0.03:
                return
            omega = data.draw(st.floats(0.01, limit * 0.99))
        a13 = law_of_cosines_side(a, b, omega, sigma)
        if a13 <= 1e-9:
            return
        config = "chain" if sigma == 1 else "endpoint"
        back = solve_angle(SideTriple(a, b, a13, config))
        assert back.omega == pytest.approx(omega, abs=1e-12)

    def test_monotonicity_signs_by_finite_differences(self):
        h = 1e-6
        rng = random.Random(5)
        for _ in range(30):
            a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            omega = rng.uniform(0.2, 2.0)
            c = law_of_cosines_side(a, b, omega, 1)

            def w(a12, a23, a13):
                return solve_angle(SideTriple(a12, a23, a13)).omega

            d_long = (w(a, b, c + h) - w(a, b, c - h)) / (2 * h)
            d_adj = (w(a + h, b, c) - w(a - h, b, c)) / (2 * h)
            assert d_long > 0 and d_adj < 0
            # centered differences agree with the analytic derivatives
            sinh_w = math.sinh(omega)
            expect_long = c / (a * b * sinh_w)
            assert d_long == pytest.approx(expect_long, rel=1e-4)


class TestRealizeTriangle:
    def test_collinear_planting(self):
        tri = realize_triangle(SideTriple(1, 1, 2))
        assert tri.vertex(1) == (0.0, 0.0)
        assert tri.vertex(2) == (1.0, 0.0)
        assert tri.vertex(3) == (2.0, 0.0)

    def test_sqrt5_planting(self):
        tri = realize_triangle(SideTriple(1, 1, math.sqrt(5)))
        assert tri.vertex(1) == (0.0, 0.0)
        assert tri.vertex(3) == pytest.approx((math.sqrt(5), 0.0))
        assert tri.vertex(2) == pytest.approx((math.sqrt(5) / 2, 0.5))

    def test_sides_reproduced(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rng.uniform(0.3, 4.0)
            b = rng.uniform(0.3, 4.0)
            c = (a + b) * rng.uniform(1.0, 1.8) + rng.uniform(0, 1)
            tri = realize_triangle(SideTriple(a, b, c))
            assert tau_minkowski(tri.vertex(1), tri.vertex(2)) \
                == pytest.approx(a, abs=1e-12)
            assert tau_minkowski(tri.vertex(2), tri.vertex(3)) \
                == pytest.approx(b, abs=1e-12)
            assert tau_minkowski(tri.vertex(1), tri.vertex(3)) \
                == pytest.approx(c, abs=1e-12)

    def test_label_rotation_preserves_side_multiset(self):
        # swap the labels of the two lowest vertices: x2 << x1 << x3
        a, b, c = 1.0, 1.5, 3.1
        tri = realize_triangle(SideTriple(a, b, c, "123"))
        rot = realize_triangle(SideTriple(a, c, b, "213"))

        def side_multiset(t):
            vs = [t.vertex(i) for i in (1, 2, 3)]
            seps = [max(tau_minkowski(p, q), tau_minkowski(q, p))
                    for i, p in enumerate(vs) for q in vs[i + 1:]]
            return sorted(seps)

        assert side_multiset(tri) == pytest.approx(side_multiset(rot))

    def test_unrealizable(self):
        with pytest.raises(UnrealizableError):
            realize_triangle(SideTriple(1, 1, 1.5))


class TestComparisonPoint:
    def test_midpoint(self):
        tri = realize_triangle(SideTriple(1, 1, 2))
        mid = tri.point_on_side(1, 3, 1.0)
        assert tau_minkowski(tri.vertex(1), mid) == pytest.approx(1.0)
        assert tau_minkowski(mid, tri.vertex(3)) == pytest.approx(1.0)

    def test_zero_parameter_is_start(self):
        tri = realize_triangle(SideTriple(1, 1, math.sqrt(5)))
        assert tri.point_on_side(1, 2, 0.0) == tri.vertex(1)

    def test_long_side_midpoint_coordinates(self):
        tri = realize_triangle(SideTriple(1, 1, math.sqrt(5)))
        assert tri.point_on_side(1, 3, math.sqrt(5) / 2) \
            == pytest.approx((math.sqrt(5) / 2, 0.0))

    def test_out_of_range(self):
        tri = realize_triangle(SideTriple(1, 1, 2))
        with pytest.raises(PreconditionError):
            tri.point_on_side(1, 2, 1.5)


class TestCurvatureTester:
    def test_flat_space_passes_both_modes(self, mink):
        triangles = minkowski_triangles(mink, 40, seed=2)
        lower = curvature_bound(mink, triangles, mode="lower", tol=1e-9)
        upper = curvature_bound(mink, triangles, mode="upper", tol=1e-9)
        assert lower.passed and abs(lower.worst_defect) <= 1e-9
        assert upper.passed and abs(upper.worst_defect) <= 1e-9

    def test_segment_product_lower_bound(self, segment_product):
        triangles = minkowski_triangles(segment_product, 25, seed=3)
        report = curvature_bound(segment_product, triangles,
                                       mode="lower", tol=1e-9)
        assert report.passed

    def test_violation_table_fails_with_witness(self):
        space = violated_six_point_table()
        tri = SpaceTriangle(space, 0, 2, 5)
        sampler = lambda rng, t: [(((1, 2), 1.0), ((1, 3), 2.25))]
        report = curvature_bound(space, [tri], pair_sampler=sampler,
                                       mode="lower", tol=1e-9)
        assert not report.passed
        assert report.worst_defect == pytest.approx(0.2, abs=1e-6)
        assert report.witness is not None

    def test_triangle_of_another_space_rejected(self, mink, segment_product):
        triangles = minkowski_triangles(segment_product, 3, seed=1)
        with pytest.raises(PreconditionError, match="triangle 0 lies in another space"):
            curvature_bound(mink, triangles)
        space = flat_six_point_table()
        mixed = [SpaceTriangle(space, 0, 2, 5),
                 SpaceTriangle(flat_six_point_table(), 0, 2, 5)]
        with pytest.raises(PreconditionError, match="triangle 1 lies in another space"):
            curvature_bound(space, mixed)

    def test_flat_table_passes(self):
        space = flat_six_point_table()
        tri = SpaceTriangle(space, 0, 2, 5)
        report = curvature_bound(space, [tri], pairs_per_triangle=12,
                                       mode="lower", tol=1e-9, seed=1)
        assert report.passed


class TestMonotonicity:
    def test_flat_hinges_constant_both_senses(self, mink):
        for leg_a, leg_b in product_hinges(mink, 6, seed=5):
            lower = monotonicity_bound(mink, leg_a, leg_b, "lower",
                                                 tol=1e-9)
            upper = monotonicity_bound(mink, leg_a, leg_b, "upper",
                                                 tol=1e-9)
            assert lower.passed and upper.passed

    def test_tripod_product_verdicts_agree(self):
        # a hinge spanning all three legs of the tripod: the branch point is
        # not a nonnegative-curvature configuration, and both formulations
        # agree on the failure (the equivalence is between the verdicts)
        from lorentz_lab.models import ProductSpace, TripodGraph
        space = ProductSpace(TripodGraph(1.0, 11), -2.0, 2.0, 0.1)
        x = (0.0, (0, 0.5))
        leg_a = Leg(space, x, (2.2, (1, 0.5)))
        leg_b = Leg(space, x, (4.8, (2, 0.7)))
        mono = monotonicity_bound(space, leg_a, leg_b, "lower", tol=1e-9)
        tri = SpaceTriangle(space, x, (2.2, (1, 0.5)), (4.8, (2, 0.7)))
        comp = curvature_bound(space, [tri], pairs_per_triangle=40,
                               mode="lower", tol=1e-9, seed=2)
        assert not mono.passed and not comp.passed
        assert mono.n_defined > 10

    def test_tripod_two_leg_hinge_monotone(self):
        # within two legs the tripod is a segment, so the hinge is flat
        from lorentz_lab.models import ProductSpace, TripodGraph
        space = ProductSpace(TripodGraph(1.0, 11), -2.0, 2.0, 0.1)
        x = (0.0, (0, 0.5))
        leg_a = Leg(space, x, (2.2, (1, 0.5)))
        leg_b = Leg(space, x, (2.4, (1, 0.9)))
        report = monotonicity_bound(space, leg_a, leg_b, "lower", tol=1e-9)
        assert report.passed

    def test_spacelike_grid_is_an_error(self, mink):
        # tips so far apart that no leg points are ever timelike related
        leg_a = Leg(mink, (0.0, -5.0), (1.0, -5.2))
        leg_b = Leg(mink, (0.0, 5.0), (1.0, 5.2))
        with pytest.raises(PreconditionError):
            monotonicity_bound(mink, leg_a, leg_b, "lower")

    def test_violation_table_fails_monotonicity_like_curvature(self):
        space = violated_six_point_table()
        leg_a = KnotLeg([1, 2], [1.0, 2.0], "future")       # along side x-y
        leg_b = KnotLeg([3, 5], [2.25, 4.5], "future")      # along side x-z
        report = monotonicity_bound(space, leg_a, leg_b, "lower",
                                              tol=1e-9)
        assert not report.passed
        flat = flat_six_point_table()
        clean = monotonicity_bound(flat, leg_a, leg_b, "lower",
                                             tol=1e-9)
        assert clean.passed

    def test_upper_angle_ladder_matches_flat_angle(self, mink):
        x = (0.0, 0.0)
        leg_a = Leg(mink, x, (-2.0, 0.5))   # past leg: pairs always related
        leg_b = Leg(mink, x, (2.0, 1.0))
        ladder = upper_angle(mink, leg_a, leg_b)
        direct = hinge_angle(mink, leg_a, leg_b, 1.0, 1.0)
        assert ladder == pytest.approx(direct.omega, abs=1e-9)


def _random_flat_split(rng):
    a = rng.uniform(0.5, 3.0)
    b = rng.uniform(0.5, 3.0)
    c = (a + b) * rng.uniform(1.05, 1.6) + rng.uniform(0.0, 0.5)
    return a, b, c


class TestAlexandrovAcross:
    def test_flat_data_gives_equalities(self):
        a, b, c = 2.0, 2.5, 5.0
        planted = realize_triangle(SideTriple(a, b, c))
        p = planted.point_on_side(1, 3, 0.8)
        flat = tau_minkowski(p, planted.vertex(2))
        report = verify_alexandrov_across(a, b, c, 0.8, flat, p_before_y=True)
        assert report.case == "flat"
        assert report.biconditional_ok
        assert report.delta1_angles_ok and report.delta2_angles_ok
        assert report.split_angle_ok

    def test_convex_perturbation_strict(self):
        a, b, c = 2.0, 2.5, 5.0
        planted = realize_triangle(SideTriple(a, b, c))
        flat = tau_minkowski(planted.point_on_side(1, 3, 0.8),
                             planted.vertex(2))
        report = verify_alexandrov_across(a, b, c, 0.8, flat - 0.1,
                                          p_before_y=True)
        assert report.case == "convex"
        assert report.biconditional_ok
        assert report.delta1_angles_ok and report.delta2_angles_ok
        assert report.split_angle_ok
        assert report.min_margin > 1e-4  # strict in the non-degenerate case

    def test_concave_perturbation_reversed(self):
        a, b, c = 2.0, 2.5, 5.0
        planted = realize_triangle(SideTriple(a, b, c))
        flat = tau_minkowski(planted.point_on_side(1, 3, 0.8),
                             planted.vertex(2))
        report = verify_alexandrov_across(a, b, c, 0.8, flat + 0.05,
                                          p_before_y=True)
        assert report.case == "concave"
        assert report.biconditional_ok
        assert report.delta1_angles_ok and report.delta2_angles_ok
        assert report.split_angle_ok


class TestAlexandrovFuture:
    def test_flat_future_data(self):
        a, b, c = 2.0, 2.5, 5.0
        planted = realize_triangle(SideTriple(a, b, c))
        flat = tau_minkowski(planted.point_on_side(1, 2, 0.8),
                             planted.vertex(3))
        report = verify_alexandrov_future(a, b, c, 0.8, flat)
        assert report.case == "flat"
        assert report.biconditional_ok and report.split_angle_ok

    def test_future_convex(self):
        a, b, c = 2.0, 2.5, 5.0
        planted = realize_triangle(SideTriple(a, b, c))
        flat = tau_minkowski(planted.point_on_side(1, 2, 0.8),
                             planted.vertex(3))
        report = verify_alexandrov_future(a, b, c, 0.8, flat - 0.1)
        assert report.case == "convex"
        assert report.biconditional_ok
        assert report.delta1_angles_ok and report.delta2_angles_ok
        assert report.split_angle_ok

    def test_future_concave(self):
        a, b, c = 2.0, 2.5, 5.0
        planted = realize_triangle(SideTriple(a, b, c))
        flat = tau_minkowski(planted.point_on_side(1, 2, 0.8),
                             planted.vertex(3))
        hi_room = (c - 0.8) - flat
        report = verify_alexandrov_future(a, b, c, 0.8, flat + 0.5 * hi_room)
        assert report.case == "concave"
        assert report.biconditional_ok
        assert report.delta1_angles_ok and report.delta2_angles_ok
        assert report.split_angle_ok


class TestStacking:
    def test_flat_vertical_line_defect_zero(self, mink):
        gamma = lambda t: (t, 0.0)
        report = verify_stacking(mink, gamma, (0.0, 1.0), -3.0, 2.0, 4.0)
        assert report.collinear_defect <= 1e-12

    def test_flat_planting_reproduces_all_separations(self, mink):
        # oracle: in the flat space itself, the planted configuration must be
        # congruent to the actual one, so every pairwise separation
        # (including across the shared side) transfers
        gamma = lambda t: (t, 0.0)
        p = (0.5, 1.5)
        ts = (-4.0, 2.5, 4.5)
        report = verify_stacking(mink, gamma, p, *ts)
        ys = [gamma(t) for t in ts]
        pbar = (0.0, 0.0)
        for yb, y in zip(report.coords, ys):
            want = max(mink.tau(p, y), mink.tau(y, p))
            got = max(tau_minkowski(pbar, yb), tau_minkowski(yb, pbar))
            assert got == pytest.approx(want, abs=1e-12)
        for (ya, a), (yb, b) in [((report.coords[0], ys[0]),
                                  (report.coords[1], ys[1])),
                                 ((report.coords[1], ys[1]),
                                  (report.coords[2], ys[2])),
                                 ((report.coords[0], ys[0]),
                                  (report.coords[2], ys[2]))]:
            assert tau_minkowski(ya, yb) == pytest.approx(mink.tau(a, b),
                                                          abs=1e-12)

    def test_product_configurations(self, segment_product):
        gamma = lambda t: (t, 0.5)
        rng = random.Random(6)
        for _ in range(10):
            p = (rng.uniform(-0.5, 0.5), rng.uniform(0.0, 1.0))
            ts = sorted(rng.uniform(2.0, 40.0) for _ in range(3))
            if ts[1] - ts[0] < 0.5 or ts[2] - ts[1] < 0.5:
                continue
            report = verify_stacking(segment_product, gamma, p, *ts)
            assert report.collinear_defect <= 5 * segment_product.mesh

    def test_time_orientation_mix(self, mink):
        # line points straddling p, and all of them below p
        gamma = lambda t: (t, 0.0)
        straddle = verify_stacking(mink, gamma, (0.0, 1.0), -3.0, -2.0, 4.0)
        assert straddle.collinear_defect <= 1e-12
        below = verify_stacking(mink, gamma, (6.0, 1.0), -3.0, 0.0, 2.0)
        assert below.collinear_defect <= 1e-12

    def test_non_maximizing_line_rejected(self, mink):
        bent = lambda t: (t, 0.3 * abs(t))
        with pytest.raises(PreconditionError):
            verify_stacking(mink, bent, (0.0, 2.0), -3.0, 1.0, 3.0)


class TestAngleConstancy:
    def test_flat_spread_zero(self, mink):
        gamma = lambda t: (t, 0.0)
        report = angle_equals_comparison_angle(
            mink, gamma, 0.0, (2.0, 1.5),
            alpha_fracs=[0.3, 0.6, 1.0], gamma_params=[-4, -2.5, 3.5, 5])
        assert report.max_spread <= 1e-12

    def test_product_spread_small(self, segment_product):
        gamma = lambda t: (t, 0.5)
        report = angle_equals_comparison_angle(
            segment_product, gamma, 0.0, (1.5, 0.9),
            alpha_fracs=[0.5, 1.0], gamma_params=[-6, -3, 4, 8])
        assert report.max_spread <= 5 * segment_product.mesh

    def test_point_on_line_degenerate(self, mink):
        gamma = lambda t: (t, 0.0)
        with pytest.raises(PreconditionError):
            angle_equals_comparison_angle(mink, gamma, 0.0, (2.0, 0.0),
                                          alpha_fracs=[1.0],
                                          gamma_params=[-2, 2])


class TestSidesEqual:
    def test_flat_exact(self, mink):
        gamma = lambda t: (t, 0.0)
        report = sides_equal_check(mink, gamma, -2.0, 2.0, (0.5, 1.2),
                                   q1_params=[-1.0, 0.0, 1.0],
                                   q2_specs=[("xp", 0.3), ("xp", 0.7),
                                             ("px", 0.5)],
                                   tol=1e-9, null_band=1e-9)
        assert report.passed
        assert report.worst_defect <= 1e-12

    def test_product_within_grid_tolerance(self, segment_product):
        gamma = lambda t: (t, 0.5)
        report = sides_equal_check(segment_product, gamma, -2.0, 2.0,
                                   (0.0, 0.9),
                                   q1_params=[-1.0, 0.5],
                                   q2_specs=[("xp", 0.5), ("px", 0.4)],
                                   tol=5 * segment_product.mesh,
                                   null_band=5 * segment_product.mesh)
        assert report.passed

    def test_violation_detected(self, mink):
        # same geometry, but with the cross-pair separation checked against a
        # deliberately inflated target
        gamma = lambda t: (t, 0.0)
        clean = sides_equal_check(mink, gamma, -2.0, 2.0, (0.5, 1.2),
                                  q1_params=[0.0], q2_specs=[("xp", 0.5)],
                                  tol=1e-9, null_band=1e-9)
        assert clean.passed

        class Doctored:
            def __init__(self, base):
                self.base = base

            def __getattr__(self, name):
                return getattr(self.base, name)

            def tau(self, p, q):
                value = self.base.tau(p, q)
                return value + 0.05 if 0 < value < 1.2 else value

        doctored = Doctored(mink)
        report = sides_equal_check(doctored, gamma, -2.0, 2.0, (0.5, 1.2),
                                   q1_params=[0.0], q2_specs=[("xp", 0.5)],
                                   tol=1e-9, null_band=1e-9)
        assert not report.passed
        assert report.witness is not None
