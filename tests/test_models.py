"""Product-space formulas and the product-specific theorem checks."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lorentz_lab.core import PreconditionError, StructuralError
from lorentz_lab.chains import CausalChain
from lorentz_lab import sampling
from lorentz_lab.models import (EuclideanSegment, ExplicitTable, PlaneSample,
                                ProductSpace, TripodGraph, check_diamond_basis,
                                check_product_glob_hyp,
                                check_realizer_characterization,
                                factor_properness_scan, minkowski_space,
                                tau_minkowski)
from lorentz_lab.sampling import random_causal_chain, random_realizer_chain

SQRT3 = math.sqrt(3.0)


class TestTauMinkowski:
    def test_pure_time_translation(self):
        assert tau_minkowski((0, 0), (2, 0)) == 2.0

    def test_timelike_pair(self):
        assert tau_minkowski((0, 0), (2, 1)) == pytest.approx(SQRT3, abs=1e-12)

    def test_spacelike_pair_zero(self):
        assert tau_minkowski((0, 0), (1, 2)) == 0.0

    def test_past_pair_zero(self):
        assert tau_minkowski((2, 0), (0, 0)) == 0.0


class TestTauProduct:
    def test_matches_minkowski_on_segment(self, segment_product):
        assert segment_product.tau((0, 0.0), (2, 1.0)) \
            == pytest.approx(SQRT3, abs=1e-15)

    def test_null_boundary(self, segment_product):
        p, q = (0.0, 0.0), (1.0, 1.0)
        assert segment_product.tau(p, q) == 0.0
        assert segment_product.leq(p, q)
        assert not segment_product.ll(p, q)

    def test_bit_consistency_with_flat_formula(self, mink):
        rng = random.Random(3)
        for _ in range(200):
            p = (rng.uniform(-3, 3), rng.uniform(-4, 4))
            q = (rng.uniform(-3, 3), rng.uniform(-4, 4))
            assert mink.tau(p, q) == tau_minkowski(p, q)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_reverse_triangle_on_causal_triples(self, data, segment_product):
        space = segment_product
        xs = [data.draw(st.integers(0, 16), label=f"x{i}") / 16.0
              for i in range(3)]
        t0 = -data.draw(st.integers(0, 32), label="t0") / 16.0
        g1 = data.draw(st.integers(0, 32), label="g1") / 16.0
        g2 = data.draw(st.integers(0, 32), label="g2") / 16.0
        p = (t0, xs[0])
        q = (t0 + abs(xs[1] - xs[0]) + g1, xs[1])
        r = (q[0] + abs(xs[2] - xs[1]) + g2, xs[2])
        assert space.leq(p, q) and space.leq(q, r)
        assert space.tau(p, r) >= space.tau(p, q) + space.tau(q, r) - 1e-9


class TestRealizerCharacterization:
    def test_vertical_chain_degenerate_branch(self, segment_product):
        chain = CausalChain(((0.0, 0.3), (1.0, 0.3), (2.0, 0.3)))
        diag = check_realizer_characterization(segment_product, chain)
        assert diag.is_realizer and diag.factor_is_minimizer
        assert diag.time_component_affine
        assert math.isinf(diag.speed_c)
        assert diag.causal_character == "vertical"

    def test_tilted_realizer(self, segment_product):
        chain = CausalChain(((0.0, 0.0), (1.0, 0.5), (2.0, 1.0)))
        diag = check_realizer_characterization(segment_product, chain)
        assert diag.is_realizer
        assert diag.factor_is_minimizer and diag.time_component_affine
        assert diag.speed_c == pytest.approx(2.0, abs=1e-12)
        assert diag.causal_character == "timelike"

    def test_kinked_chain_rejected(self, segment_product):
        chain = CausalChain(((0.0, 0.0), (1.0, 0.9), (2.0, 1.0)))
        diag = check_realizer_characterization(segment_product, chain)
        assert not diag.is_realizer
        # the affinity ratios d(x1,x2)/(t2-t1) and d(x2,x3)/(t3-t2) disagree
        assert not (diag.factor_is_minimizer and diag.time_component_affine
                    and diag.tau_defect <= 2 * segment_product.mesh)

    def test_non_causal_chain_errors(self, segment_product):
        with pytest.raises(PreconditionError):
            check_realizer_characterization(
                segment_product, CausalChain(((0.0, 0.0), (0.1, 0.9))))

    def test_biconditional_on_random_chains(self, segment_product):
        tol = 2 * segment_product.mesh
        for seed in range(25):
            chain = random_realizer_chain(segment_product, seed)
            diag = check_realizer_characterization(segment_product, chain)
            assert diag.is_realizer
            assert diag.factor_is_minimizer and diag.time_component_affine
            if math.isfinite(diag.speed_c):
                assert diag.speed_c >= 1.0 - tol

    def test_tau_recomputed_from_speed_and_arclength(self, segment_product):
        for seed in range(20):
            chain = random_realizer_chain(segment_product, seed + 100)
            diag = check_realizer_characterization(segment_product, chain)
            if not math.isfinite(diag.speed_c):
                continue
            pts = chain.points
            arclen = sum(segment_product.factor.distance(a[1], b[1])
                         for a, b in zip(pts, pts[1:]))
            recomputed = arclen * math.sqrt(diag.speed_c ** 2 - 1.0)
            assert recomputed == pytest.approx(
                segment_product.tau(pts[0], pts[-1]), abs=1e-9)


class TestGlobalHyperbolicity:
    def test_proper_segment_consistent(self, segment_product):
        pairs = [((0.0, 0.5), (2.0, 0.5)), ((-1.0, 0.0), (1.5, 1.0))]
        report = check_product_glob_hyp(segment_product, pairs)
        assert report.proper_factor
        assert report.diamonds_bounded
        assert report.verdict_consistent

    def test_cauchy_divergent_sample_flagged(self):
        # points piling up on a missing limit: spacing collapses far below
        # the declared mesh
        pts = [0.5 - 2.0 ** -k for k in range(1, 12)]
        table = tuple(tuple(abs(a - b) for b in pts) for a in pts)
        factor = ExplicitTable(table, mesh=0.25)
        assert not factor_properness_scan(factor)
        report = check_product_glob_hyp(ProductSpace(factor, -1, 1, 0.25), [])
        assert not report.proper_factor

    def test_diamond_bound_from_time_endpoints(self, segment_product):
        space = segment_product
        x0 = 0.5
        T = 2.0
        p, q = (0.0, x0), (T, x0)
        radius = 2 * abs(0.0) + 2 * abs(T)
        for (s, y) in space.sample_points():
            if space.leq(p, (s, y)) and space.leq((s, y), q):
                assert 0.0 <= s <= T
                assert space.factor.distance(x0, y) <= radius


class TestDiamondBasis:
    def test_interior_witness_contained(self, segment_product):
        assert check_diamond_basis(segment_product, 0.0, 2.0, 0.5, 0.4,
                                   witness=(1.0, 0.5))

    def test_boundary_witness_rejected(self, segment_product):
        with pytest.raises(PreconditionError):
            check_diamond_basis(segment_product, 0.0, 2.0, 0.5, 0.4,
                                witness=(0.0, 0.5))

    def test_degenerate_radius_rejected(self, segment_product):
        with pytest.raises(PreconditionError):
            check_diamond_basis(segment_product, 0.0, 2.0, 0.5, 0.3,
                                witness=(1.0, 0.8))


class TestProductInvariants:
    def test_sqrt2_bound_on_causal_chains(self, segment_product):
        for seed in range(30):
            chain = random_causal_chain(segment_product, seed)
            pts = chain.points
            polygon = sum(segment_product.d(a, b) for a, b in zip(pts, pts[1:]))
            assert polygon <= math.sqrt(2.0) * (pts[-1][0] - pts[0][0]) + 1e-9

    def test_relations_stable_under_grid_refinement(self):
        # the same formulas answer on both grids; sampled convergent
        # sequences keep their relation in the limit
        coarse = ProductSpace(EuclideanSegment(0.0, 1.0, 11), -1, 1, 0.2)
        fine = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -1, 1, 0.1)
        rng = random.Random(9)
        for _ in range(100):
            p = (rng.uniform(-1, 0), rng.uniform(0, 1))
            q = (rng.uniform(0, 1), rng.uniform(0, 1))
            assert coarse.leq(p, q) == fine.leq(p, q)
            assert coarse.tau(p, q) == fine.tau(p, q)
        # limit consistency: relation holds along the sequence, then at the limit
        q = (0.5, 0.975)
        for k in range(1, 12):
            pk = (-2.0 ** -k, 0.475)
            assert fine.leq(pk, q)
        assert fine.leq((0.0, 0.475), q)

    def test_tripod_distances(self):
        tripod = TripodGraph(1.0, 6)
        assert tripod.distance((0, 0.4), (0, 0.9)) == pytest.approx(0.5)
        assert tripod.distance((0, 0.4), (1, 0.2)) == pytest.approx(0.6)
        mid = tripod.interpolate((0, 0.4), (1, 0.4), 0.5)
        assert tripod.distance((0, 0.4), mid) == pytest.approx(0.4)

    def test_minkowski_space_is_a_product(self, mink):
        assert isinstance(mink, ProductSpace)
        assert mink.factor.kind == "euclidean-segment"

    def test_plane_sample_factor(self):
        from lorentz_lab.models import PlaneSample
        pts = tuple((0.5 * i, 0.5 * j) for i in range(3) for j in range(3))
        plane = PlaneSample(pts, mesh=0.5)
        space = ProductSpace(plane, -1.0, 1.0, 0.5)
        p, q = (0.0, (0.0, 0.0)), (2.0, (1.0, 1.0))
        assert space.tau(p, q) == pytest.approx(math.sqrt(4 - 2), abs=1e-12)
        chain = CausalChain(tuple(space.realizer(p, q, 5)))
        diag = check_realizer_characterization(space, chain)
        assert diag.is_realizer and diag.time_component_affine
        assert diag.speed_c == pytest.approx(2.0 / math.sqrt(2.0), abs=1e-12)

    def test_explicit_table_realizer_falls_back_to_endpoints(self):
        table = ((0.0, 1.0), (1.0, 0.0))
        factor = ExplicitTable(table, mesh=1.0)
        space = ProductSpace(factor, -1.0, 3.0, 1.0)
        pts = space.realizer((0.0, 0), (2.0, 1), 9)
        assert pts == [(0.0, 0), (2.0, 1)]

    def test_null_realizer_diagnosed(self, segment_product):
        chain = CausalChain(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))
        diag = check_realizer_characterization(segment_product, chain)
        assert diag.is_realizer
        assert diag.speed_c == pytest.approx(1.0, abs=1e-12)
        assert diag.causal_character == "null"


class TestDegenerateGrids:
    @pytest.mark.parametrize("grid", [
        (math.nan, 2.0, 0.05), (-2.0, math.nan, 0.05), (-2.0, 2.0, math.nan),
        (-math.inf, 2.0, 0.05), (-2.0, math.inf, 0.05), (-2.0, 2.0, math.inf),
        (2.0, -2.0, 0.05), (-2.0, 2.0, 0.0),
    ])
    def test_product_time_grid_refused(self, grid):
        with pytest.raises(StructuralError):
            ProductSpace(EuclideanSegment(0.0, 1.0, 21), *grid)

    @pytest.mark.parametrize("make", [lambda: EuclideanSegment(0.0, 1.0, 1),
                                      lambda: EuclideanSegment(0.0, 1.0, 0),
                                      lambda: TripodGraph(1.0, 1)],
                             ids=["segment-1", "segment-0", "tripod-1"])
    def test_factor_with_fewer_than_two_points_refused(self, make):
        with pytest.raises(StructuralError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: EuclideanSegment(5.0, 1.0, 21),
        lambda: EuclideanSegment(1.0, 1.0, 21),
        lambda: EuclideanSegment(0.0, math.nan, 21),
        lambda: EuclideanSegment(0.0, math.inf, 21),
        lambda: EuclideanSegment(-math.inf, 1.0, 21),
        lambda: TripodGraph(-1.0, 5),
        lambda: TripodGraph(0.0, 5),
        lambda: TripodGraph(math.nan, 5),
        lambda: TripodGraph(math.inf, 5),
        lambda: PlaneSample(((0.0, 0.0), (math.nan, 1.0)), 0.5),
        lambda: PlaneSample(((0.0, 0.0), (1.0, -math.inf)), 0.5),
        lambda: PlaneSample(((0.0, 0.0), (1.0, 0.0)), math.inf),
        lambda: minkowski_space(step=math.nan),
        lambda: minkowski_space(step=0.0),
        lambda: minkowski_space(x_max=math.inf),
    ], ids=["segment-inverted", "segment-empty", "segment-hi-nan",
            "segment-hi-inf", "segment-lo-inf", "tripod-negative",
            "tripod-zero", "tripod-nan", "tripod-inf", "plane-nan",
            "plane-inf", "plane-mesh-inf", "flat-step-nan", "flat-step-zero",
            "flat-x-max-inf"])
    def test_non_finite_or_inverted_factor_refused(self, make):
        with pytest.raises(StructuralError):
            make()


NON_SEGMENT_PRODUCTS = [
    ProductSpace(TripodGraph(1.0, 5)),
    ProductSpace(PlaneSample(((0.0, 0.0), (1.0, 0.0)), 0.5)),
]
TWO_POINT_CHAIN = CausalChain(((0.0, (0, 0.0)), (1.0, (0, 0.0))))


@pytest.mark.parametrize("space", NON_SEGMENT_PRODUCTS,
                         ids=["tripod", "plane"])
@pytest.mark.parametrize("sample", [
    lambda space: sampling.minkowski_triangles(space, 3, 0),
    lambda space: sampling.product_hinges(space, 3, 0),
    lambda space: sampling.random_realizer_chain(space, 0),
    lambda space: sampling.perturb_chain(space, TWO_POINT_CHAIN, 0),
    lambda space: sampling.spanning_timelike_chains(space, 3, 0),
    lambda space: sampling.random_causal_chain(space, 0),
], ids=["triangles", "hinges", "realizer-chain", "perturb-chain",
        "spanning-chains", "causal-chain"])
def test_coordinate_samplers_need_a_segment(space, sample):
    with pytest.raises(PreconditionError, match="needs a segment-like factor"):
        sample(space)
