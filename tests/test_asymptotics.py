"""Asymptote families, their limits, synchronized time and verticality."""

import math

import numpy as np
import pytest

from lorentz_lab import asymptotics
from lorentz_lab.core import FiniteLorentzSpace, PreconditionError
from lorentz_lab.chains import CausalChain, is_line
from lorentz_lab.models import ProductSpace, minkowski_space
from lorentz_lab.asymptotics import (build_asymptote, build_asymptotic_line,
                                     busemann_value, check_asymptote_complete,
                                     check_tcrc, join_asymptotic_line,
                                     line_from_chain, line_point,
                                     vertical_line, verticality_report,
                                     LineDescriptor)

from conftest import HORIZONS, null_coray_table

KW = dict(knot_extent=4.0)


def flat_line_table():
    """Finite table of flat points: a vertical line (t, 0), t = -5..5, at
    indices 0..10 (parameter t, anchored at t = 0), and the probes (0, 0.5)
    at 11 and (0, 1.5) at 12."""
    flat = minkowski_space(-6.0, 6.0, -2.0, 2.0, 0.5)
    pts = [(float(t), 0.0) for t in range(-5, 6)] + [(0.0, 0.5), (0.0, 1.5)]
    n = len(pts)
    i, j = np.divmod(np.arange(n * n), n)
    space = FiniteLorentzSpace(*(
        f(pts, i, j).reshape(n, n) for f in (flat.d_array, flat.leq_array,
                                             flat.ll_array, flat.tau_array)))
    line = LineDescriptor(CausalChain(tuple(range(11))),
                          tuple(float(t) for t in range(-5, 6)), anchor=5)
    return space, line


class TestBuildAsymptote:
    def test_product_limit_is_vertical(self, segment_product, product_gamma):
        result = build_asymptote(segment_product, product_gamma, (0.0, 0.0),
                                 "future", HORIZONS, **KW)
        assert result.is_timelike
        assert result.stabilized
        # factor component stays within a tilt of the original point
        for (t, x) in result.limit.points:
            assert abs(x - 0.0) <= 4.0 * 0.5 / HORIZONS[-1] * 1.01
        assert result.limit_params == (0.0, 2.0, 4.0)

    def test_flat_maximizers_tilt_toward_vertical(self, mink, mink_gamma):
        result = build_asymptote(mink, mink_gamma, (0.0, 1.0), "future",
                                 HORIZONS, **KW)
        assert result.is_timelike
        # transverse drift at knot u is bounded by u * d / L(last horizon)
        drifts = [abs(x - 1.0) for (t, x) in result.limit.points]
        assert max(drifts) <= 4.0 * 1.0 / HORIZONS[-1] * 1.01
        # maximizers toward the line tilt less as the horizon grows
        tilts = []
        for h in HORIZONS:
            pts = mink.realizer((0.0, 1.0), mink_gamma.point_at(h))
            tilts.append(abs(pts[1][1] - 1.0) / pts[1][0])
        assert all(b < a for a, b in zip(tilts, tilts[1:]))

    def test_point_outside_envelope_rejected(self, mink, mink_gamma):
        with pytest.raises(PreconditionError):
            build_asymptote(mink, mink_gamma, (0.0, 400.0), "future",
                            HORIZONS, **KW)

    def test_horizons_exhausting_the_line_rejected(self, segment_product,
                                                   product_gamma):
        with pytest.raises(PreconditionError, match="exhausts"):
            build_asymptote(segment_product, product_gamma, (0.0, 0.5),
                            "future", [512.0], **KW)

    @pytest.mark.parametrize("direction,ends", [
        ("future", [(11, 9), (11, 10)]), ("past", [(1, 11), (0, 11)])])
    def test_finite_table_maximizes_toward_two_largest_horizons(
            self, direction, ends, monkeypatch):
        space, line = flat_line_table()
        maximize_tau = asymptotics.maximize_tau
        calls = []

        def counted(space, source, target):
            calls.append((source, target))
            return maximize_tau(space, source, target)

        monkeypatch.setattr(asymptotics, "maximize_tau", counted)
        result = build_asymptote(space, line, 11, direction,
                                 [2.0, 3.0, 4.0, 5.0])
        assert calls == ends
        assert result.is_timelike

    def test_model_space_builds_no_realizer(self, segment_product,
                                            product_gamma, monkeypatch):
        def refuse(*args):
            raise AssertionError("realizer called")

        monkeypatch.setattr(ProductSpace, "realizer", refuse)
        for direction in ("future", "past"):
            result = build_asymptote(segment_product, product_gamma,
                                     (0.0, 0.2), direction, HORIZONS, **KW)
            assert result.is_timelike

    def test_finite_limit_is_the_common_prefix(self):
        # the maximizers toward 2 and 3 are (4, 5, 2) and (4, 5, 3)
        space = null_coray_table()
        line = LineDescriptor(CausalChain((0, 1, 2, 3)), (0.0, 1.0, 2.0, 3.0))
        result = build_asymptote(space, line, 4, "future", [2.0, 3.0])
        assert result.limit.points == (4, 5)
        assert result.limit_params == (0.0, 0.0)

    @pytest.mark.parametrize("probe,horizons,message", [
        (11, [1.5, 4.0, 5.0], r"horizon 1\.5 exhausts the line sample "
                              r"\(no knot at 1\.5\)"),
        (12, [1.0, 4.0, 5.0], "footpoint not timelike related to the "
                              r"horizon point at parameter 1\.0"),
    ], ids=["knot-missing", "not-timelike"])
    def test_smaller_horizon_still_checked(self, probe, horizons, message):
        space, line = flat_line_table()
        with pytest.raises(PreconditionError, match=message):
            build_asymptote(space, line, probe, "future", horizons)


class TestTimelikeCoRayCondition:
    def test_product_probes_all_timelike(self, segment_product, product_gamma):
        probes = [(0.0, 0.0), (0.3, 0.25), (-0.5, 0.9)]
        report = check_tcrc(segment_product, product_gamma, probes, HORIZONS,
                            **KW)
        assert report.all_timelike
        assert report.n_probes == 6

    def test_flat_probes_all_timelike(self, mink, mink_gamma):
        report = check_tcrc(mink, mink_gamma, [(0.0, 1.0), (0.5, -1.0)],
                            HORIZONS, **KW)
        assert report.all_timelike

    def test_one_shot_horizons(self, segment_product, product_gamma):
        # the horizons are read once per probe and direction
        probes = [(0.0, 0.0), (0.3, 0.25)]
        got = check_tcrc(segment_product, product_gamma, probes,
                         iter(HORIZONS), iter(("future", "past")), **KW)
        assert got == check_tcrc(segment_product, product_gamma, probes,
                                 HORIZONS, **KW)
        assert got.n_probes == 4

    def test_engineered_null_coray_witnessed(self):
        space = null_coray_table()
        line = LineDescriptor(CausalChain((0, 1, 2, 3)), (0.0, 1.0, 2.0, 3.0))
        report = check_tcrc(space, line, [4], [2.0, 3.0],
                            directions=("future",))
        assert not report.all_timelike
        assert report.witnesses[0][0] == 4
        assert report.witnesses[0][2] == 0.0  # the null relay step


class TestCompleteness:
    def test_vertical_asymptote_grows_linearly(self, segment_product,
                                               product_gamma):
        result = build_asymptote(segment_product, product_gamma, (0.0, 0.5),
                                 "future", HORIZONS, knot_extent=64.0)
        assert check_asymptote_complete(result, 16.0)

    def test_truncated_chain_fails(self, segment_product, product_gamma):
        result = build_asymptote(segment_product, product_gamma, (0.0, 0.5),
                                 "future", HORIZONS, knot_extent=4.0)
        assert not check_asymptote_complete(result, 16.0)

    def test_flat_asymptote_passes(self, mink, mink_gamma):
        result = build_asymptote(mink, mink_gamma, (0.0, 1.0), "future",
                                 HORIZONS, knot_extent=64.0)
        assert check_asymptote_complete(result, 16.0)


class TestJoin:
    def test_product_join_verified(self, segment_product, product_gamma):
        p = (0.0, 0.2)
        fut = build_asymptote(segment_product, product_gamma, p, "future",
                              HORIZONS, **KW)
        pst = build_asymptote(segment_product, product_gamma, p, "past",
                              HORIZONS, **KW)
        line = join_asymptotic_line(segment_product, p, fut, pst,
                                    tol=10 * segment_product.mesh)
        assert line.footpoint() == p
        assert line.params[0] == -4.0 and line.params[-1] == 4.0

    def test_flat_join_is_vertical_line(self, mink, mink_gamma):
        p = (0.0, 1.0)
        line = build_asymptotic_line(mink, mink_gamma, p, HORIZONS, **KW)
        check = is_line(mink, line.chain, tol=1e-3)
        assert check.is_line

    def test_mismatched_footpoints_rejected(self, segment_product,
                                            product_gamma):
        fut = build_asymptote(segment_product, product_gamma, (0.0, 0.2),
                              "future", HORIZONS, **KW)
        pst = build_asymptote(segment_product, product_gamma, (0.0, 0.4),
                              "past", HORIZONS, **KW)
        with pytest.raises(PreconditionError, match="footpoint"):
            join_asymptotic_line(segment_product, (0.0, 0.2), fut, pst)


class TestBusemann:
    def test_product_value_and_bound(self, segment_product, product_gamma):
        p = (0.25, 0.0)  # transverse distance 0.5 from the line
        estimate = busemann_value(segment_product, product_gamma, p, HORIZONS)
        assert estimate.value == pytest.approx(0.25, abs=1e-12)
        expected_bound = 0.5 ** 2 / (2 * (HORIZONS[-1] - 0.25))
        assert estimate.error_bound == pytest.approx(expected_bound, rel=1e-6)
        assert estimate.transverse == pytest.approx(0.5, abs=1e-9)
        # samples decrease toward the value
        values = [a for _, a in estimate.samples]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert estimate.value <= values[-1] + 1e-12

    def test_on_line_point_exact_at_every_horizon(self, segment_product,
                                                  product_gamma):
        estimate = busemann_value(segment_product, product_gamma, (0.75, 0.5),
                                  HORIZONS)
        assert all(a == 0.75 for _, a in estimate.samples)
        assert estimate.value == 0.75
        assert estimate.error_bound == 0.0

    def test_short_horizons_flagged_not_failed(self, segment_product,
                                               product_gamma):
        estimate = busemann_value(segment_product, product_gamma, (0.0, 0.0),
                                  [2.0, 4.0], requested_tol=1e-9)
        assert not estimate.converged
        assert math.isfinite(estimate.value)

    def test_non_monotone_table_rejected(self):
        import numpy as np
        from lorentz_lab.core import FiniteLorentzSpace
        n = 4
        leq = np.triu(np.ones((n, n), bool))
        ll = np.triu(np.ones((n, n), bool), 1)
        d = np.ones((n, n)) - np.eye(n)
        tau = np.zeros((n, n))
        tau[0, 1], tau[1, 2], tau[0, 2] = 1.0, 1.0, 2.0
        tau[3, 1], tau[3, 2] = 0.5, 1.2   # samples increase: not maximizing
        leq[:] = False
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 1), (3, 2)]:
            leq[a, b] = ll[a, b] = True
        for i in range(n):
            leq[i, i] = True
            ll[i, i] = False
        space = FiniteLorentzSpace(d, leq, ll, tau)
        line = LineDescriptor(CausalChain((0, 1, 2)), (0.0, 1.0, 2.0))
        with pytest.raises(PreconditionError, match="increase"):
            busemann_value(space, line, 3, [1.0, 2.0])

    def test_no_horizons_rejected(self, segment_product, product_gamma):
        with pytest.raises(PreconditionError,
                           match="need at least one horizon"):
            busemann_value(segment_product, product_gamma, (0.0, 0.5), [])
        with pytest.raises(PreconditionError,
                           match="need at least one horizon"):
            verticality_report(segment_product, product_gamma, (0.0, 0.0),
                               (1.5, 0.2), [])


class TestAsymptoteInvariants:
    def test_shift_covariance(self, segment_product, product_gamma):
        p = (0.0, 0.1)
        alpha = build_asymptotic_line(segment_product, product_gamma, p,
                                      HORIZONS, **KW)
        s = 2.0
        moved = build_asymptotic_line(segment_product, product_gamma,
                                      alpha.point_at(s), HORIZONS[1:], **KW)
        # the asymptote through alpha(s) reproduces alpha reparametrized by -s
        for u in (-2.0, 0.0, 2.0):
            expected = line_point(segment_product, alpha, u + s)
            got = line_point(segment_product, moved, u)
            assert segment_product.d(expected, got) <= segment_product.mesh

    def test_asymptotes_stay_in_envelope(self, segment_product, product_gamma):
        from lorentz_lab.asymptotics import in_timelike_envelope
        for seed_x in (0.0, 0.3, 1.0):
            line = build_asymptotic_line(segment_product, product_gamma,
                                         (0.0, seed_x), HORIZONS, **KW)
            for point in line.chain.points:
                assert in_timelike_envelope(segment_product, product_gamma,
                                            point)

    def test_busemann_along_asymptote_is_the_parameter(self, segment_product,
                                                       product_gamma):
        p = (0.0, 0.2)
        b0 = busemann_value(segment_product, product_gamma, p, HORIZONS)
        alpha = build_asymptotic_line(segment_product, product_gamma, p,
                                      HORIZONS, busemann_shift=b0.value, **KW)
        for s in (-2.0, 2.0, 4.0):
            estimate = busemann_value(segment_product, product_gamma,
                                      alpha.point_at(s), HORIZONS[2:])
            assert abs(estimate.value - s) <= estimate.error_bound + 1e-9

    def test_verticality_bound_and_monotone_ratio(self, segment_product,
                                                  product_gamma):
        report = verticality_report(segment_product, product_gamma,
                                    (0.0, 0.0), (1.5, 0.2), HORIZONS[2:])
        assert all(b < a for a, b in zip(report.ratios, report.ratios[1:]))
        assert report.ratios[-1] < 0.01
        for angle, delta in zip(report.angles, report.deltas):
            assert math.cosh(angle) - 1.0 <= delta + 1e-12


    def test_verticality_one_shot_horizons(self, segment_product,
                                           product_gamma):
        # two Busemann values and the horizon loop read the same horizons
        args = (segment_product, product_gamma, (0.0, 0.0), (1.5, 0.2))
        got = verticality_report(*args, iter(HORIZONS[2:]))
        assert got == verticality_report(*args, HORIZONS[2:])


class TestLinePoint:
    def test_interpolation_between_knots(self, segment_product, product_gamma):
        p = line_point(segment_product, product_gamma, 1.37)
        assert p[0] == pytest.approx(1.37, abs=1e-12)
        assert p[1] == 0.5

    def test_outside_extent_rejected(self, segment_product, product_gamma):
        with pytest.raises(PreconditionError):
            line_point(segment_product, product_gamma, 400.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinite_parameter_names_no_knot(self, segment_product,
                                              product_gamma, t):
        # an infinite tolerance would match the first knot, (-260.0, 0.5)
        assert product_gamma.knot_index(t) is None
        assert not product_gamma.has_param(t)
        with pytest.raises(PreconditionError,
                           match=f"parameter {t} is not a knot"):
            product_gamma.point_at(t)
        with pytest.raises(PreconditionError,
                           match=f"parameter {t} outside the line extent"):
            line_point(segment_product, product_gamma, t)
        with pytest.raises(PreconditionError,
                           match=f"no line knot at parameter {t}"):
            busemann_value(segment_product, product_gamma, (0.0, 0.5), [t])

    def test_line_from_chain_verifies(self, mink):
        chain = CausalChain(((0.0, 0.0), (1.0, 0.5), (2.0, 0.0)))
        with pytest.raises(PreconditionError, match="not a line"):
            line_from_chain(mink, chain)
