"""Slice extraction, the reconstruction map and its verification."""

import math

import numpy as np
import pytest

from lorentz_lab.core import PreconditionError
from lorentz_lab.chains import CausalChain
from lorentz_lab.splitting import (build_splitting_map, check_cauchy_slices,
                                   check_slice_alexandrov, check_tc_property,
                                   extract_slice, slice_from_table,
                                   synchronized_time)
from lorentz_lab.sampling import spanning_timelike_chains

from conftest import HORIZONS

KW = dict(knot_extent=4.0)


@pytest.fixture(scope="module")
def product_slice(segment_product, product_gamma, parallel_tolerance):
    seeds = [(0.0, q) for q in segment_product.factor.sample()]
    return extract_slice(segment_product, product_gamma, seeds, HORIZONS,
                         tolerance=parallel_tolerance, **KW)


@pytest.fixture(scope="module")
def product_split(segment_product, product_slice, parallel_tolerance):
    knots = [round(-2 + 0.5 * k, 10) for k in range(9)]
    return build_splitting_map(segment_product, product_slice, knots,
                               tolerance=parallel_tolerance,
                               cover_sample=segment_product.sample_points(),
                               cover_radius=0.25 + 2 * segment_product.mesh)


def hyperbolic_slice(n_ring=5, radius=1.5):
    def dist(a, b):
        (r1, t1), (r2, t2) = a, b
        ch = math.cosh(r1) * math.cosh(r2) \
            - math.sinh(r1) * math.sinh(r2) * math.cos(t1 - t2)
        return math.acosh(max(ch, 1.0))

    pts = [(0.0, 0.0)] + [(radius, 2 * math.pi * k / n_ring)
                          for k in range(n_ring)]
    table = np.array([[dist(a, b) for b in pts] for a in pts])
    return slice_from_table(list(range(len(pts))), table)


class TestExtractSlice:
    def test_product_recovers_factor(self, segment_product, product_slice):
        sl = product_slice
        assert len(sl) == 21
        worst = max(abs(sl.d_S[i, j]
                        - abs(sl.members[i][1] - sl.members[j][1]))
                    for i in range(len(sl)) for j in range(len(sl)))
        assert worst <= 2 * (segment_product.mesh + 0.001)
        ok, defect = sl.validate_metric(3 * segment_product.mesh)
        assert ok

    def test_flat_strip_slice_is_segment(self, mink, mink_gamma,
                                         parallel_tolerance):
        seeds = [(0.0, x) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        sl = extract_slice(mink, mink_gamma, seeds, HORIZONS,
                           tolerance=parallel_tolerance, **KW)
        assert len(sl) == 5
        for i in range(5):
            for j in range(5):
                want = abs(seeds[i][1] - seeds[j][1])
                assert sl.d_S[i, j] == pytest.approx(want, abs=0.05)

    def test_seeds_on_line_collapse_to_single_member(self, segment_product,
                                                     product_gamma,
                                                     parallel_tolerance):
        seeds = [(0.0, 0.5), (1.0, 0.5), (-1.0, 0.5)]
        sl = extract_slice(segment_product, product_gamma, seeds, HORIZONS,
                           tolerance=parallel_tolerance, **KW)
        assert len(sl) == 1
        assert sl.members[0] == (0.0, 0.5)
        assert sl.d_S[0, 0] == 0.0


    def test_one_shot_seeds_and_horizons(self, segment_product,
                                         product_gamma, parallel_tolerance,
                                         product_slice):
        seeds = [(0.0, q) for q in segment_product.factor.sample()]
        sl = extract_slice(segment_product, product_gamma, iter(seeds),
                           iter(HORIZONS), tolerance=parallel_tolerance, **KW)
        assert sl.members == product_slice.members
        assert sl.d_S.tobytes() == product_slice.d_S.tobytes()
        assert sl.horizons == tuple(HORIZONS)


class TestSplittingMap:
    def test_round_trip_bounds(self, segment_product, product_split):
        bound = 2 * (segment_product.mesh + 0.001)
        assert product_split.tau_defect <= bound
        assert product_split.leq_mismatches == 0
        assert product_split.bijective
        assert product_split.verified

    def test_line_maps_to_vertical_exactly(self, segment_product,
                                           product_split, product_gamma):
        sl = product_split.slice
        foot_ids = [i for i, m in enumerate(sl.members)
                    if segment_product.d(m, (0.0, 0.5)) < 1e-12]
        assert len(foot_ids) == 1
        mi = foot_ids[0]
        for ki, t in enumerate(product_split.time_knots):
            image = product_split.images[(ki, mi)]
            assert image == (t, 0.5)

    def test_degenerate_single_knot_map(self, segment_product, product_slice,
                                        parallel_tolerance):
        result = build_splitting_map(segment_product, product_slice, [0.0],
                                     tolerance=parallel_tolerance)
        assert result.bijective
        for (ki, mi), image in result.images.items():
            assert image == product_slice.members[mi]

    def test_level_sets_achronal(self, segment_product, product_split):
        knots = product_split.time_knots
        for ki in range(len(knots)):
            row = [product_split.images[(ki, mi)]
                   for mi in range(len(product_split.slice))]
            for a in row:
                for b in row:
                    if a != b:
                        assert not segment_product.ll(a, b)


class TestCauchySlices:
    def test_vertical_chains_cross_once(self, segment_product, product_split):
        chains = [CausalChain(tuple((t, x) for t in (-3.0, -1.0, 1.0, 3.0)))
                  for x in (0.1, 0.6)]
        report = check_cauchy_slices(segment_product, product_split, chains,
                                     levels=[-1.5, 0.0, 1.5])
        assert report.each_chain_hits_each_slice_once
        assert report.n_spanning == 2

    def test_zigzag_chains_cross_once(self, segment_product, product_split):
        chains = spanning_timelike_chains(segment_product, 8, seed=11)
        report = check_cauchy_slices(segment_product, product_split, chains,
                                     levels=[-1.0, 0.0, 1.0])
        assert report.each_chain_hits_each_slice_once
        assert report.n_spanning == 8

    def test_one_shot_levels(self, segment_product, product_split):
        chains = spanning_timelike_chains(segment_product, 4, seed=11)
        got = check_cauchy_slices(segment_product, product_split, chains,
                                  levels=iter([-1.0, 0.0, 1.0]))
        assert got == check_cauchy_slices(segment_product, product_split,
                                          chains, levels=[-1.0, 0.0, 1.0])
        assert got.n_spanning == 4

    def test_confined_chain_flagged_not_failed(self, segment_product,
                                               product_split):
        low = CausalChain(tuple((t, 0.4) for t in (-3.0, -2.5, -2.0)))
        report = check_cauchy_slices(segment_product, product_split, [low],
                                     levels=[0.0])
        assert report.each_chain_hits_each_slice_once
        assert report.n_spanning == 0
        assert report.statuses[0][2] == "not-spanning"

    def test_synchronized_time_strictly_increases_along_chains(
            self, segment_product, product_slice):
        chain = spanning_timelike_chains(segment_product, 1, seed=3)[0]
        times = [synchronized_time(segment_product,
                                   product_slice.reference_line, p, HORIZONS)
                 for p in chain.points]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestSliceCurvature:
    def test_segment_slice_flat(self, product_slice):
        report = check_slice_alexandrov(product_slice, tol=1e-6,
                                        metric_tol=0.05)
        assert report.nonneg_curvature
        assert report.worst_excess <= 1e-6

    def test_hyperbolic_control_fails(self):
        report = check_slice_alexandrov(hyperbolic_slice(), tol=1e-6)
        assert not report.nonneg_curvature
        assert report.worst_excess > 0.1
        assert report.witness is not None

    def test_tripod_table_reported(self):
        # three legs at the branch point: the quadruple test reports the
        # excess rather than asserting a verdict (branch points fail it)
        members = list(range(4))
        table = np.array([
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 2.0, 2.0],
            [1.0, 2.0, 0.0, 2.0],
            [1.0, 2.0, 2.0, 0.0],
        ])
        report = check_slice_alexandrov(slice_from_table(members, table))
        assert report.worst_excess == pytest.approx(math.pi, abs=1e-9)
        assert not report.nonneg_curvature

    def test_too_small_slice_rejected(self):
        sl = slice_from_table([0, 1], np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(PreconditionError):
            check_slice_alexandrov(sl)

    def test_degenerate_quadruples_counted(self):
        # a duplicated member produces zero distances, skipped with a count
        table = np.array([
            [0.0, 0.0, 1.0, 2.0, 1.5],
            [0.0, 0.0, 1.0, 2.0, 1.5],
            [1.0, 1.0, 0.0, 1.0, 0.9],
            [2.0, 2.0, 1.0, 0.0, 0.8],
            [1.5, 1.5, 0.9, 0.8, 0.0],
        ])
        report = check_slice_alexandrov(slice_from_table(range(5), table),
                                        tol=1e-6, metric_tol=10.0)
        assert report.skipped > 0


class TestTCProperty:
    def test_tilted_probe_extendible(self, segment_product, product_split):
        probe = CausalChain(tuple(segment_product.realizer((-1.0, 0.1),
                                                           (0.8, 0.7), 7)))
        report = check_tc_property(segment_product, product_split, [probe])
        assert report.all_extendible
        assert report.statuses[0][1] == "extendible"

    def test_vertical_probe_rejected(self, segment_product, product_split):
        probe = CausalChain(tuple((t, 0.3) for t in (-1.0, 0.0, 1.0)))
        report = check_tc_property(segment_product, product_split, [probe])
        assert report.statuses[0][1] == "rejected-infinite"

    def test_out_of_sample_probe_reported(self, segment_product,
                                          product_split):
        far = CausalChain(((290.0, 0.3), (291.0, 0.4)))
        report = check_tc_property(segment_product, product_split, [far])
        assert report.statuses[0][1] == "out-of-sample"
