"""The c-criterion, parallelity verdicts, uniqueness and transitivity."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from lorentz_lab.core import PreconditionError
from lorentz_lab.chains import CausalChain
from lorentz_lab.asymptotics import LineDescriptor, line_from_chain, vertical_line
from lorentz_lab.models import EuclideanSegment, ProductSpace
from lorentz_lab.parallel import (c_functions, strong_causality_trick_check,
                                  ParallelRealisation, UniquenessReport,
                                  _coincide, _passes_through)
from lorentz_lab.parallel import test_parallel as parallel_verdict
from lorentz_lab.parallel import test_parallel_uniqueness as uniqueness_count
from lorentz_lab.parallel import test_two_asymptotes_synchronized as \
    synchronized_verdict
from lorentz_lab.parallel import test_weak_transitivity as weak_transitivity
from lorentz_lab.models import tau_minkowski

from conftest import HORIZONS, column_lattice_table


def _verticals(space, xa, xb, params=range(-4, 5)):
    return (vertical_line(space, xa, params), vertical_line(space, xb, params))


class TestCFunctions:
    def test_product_verticals_all_constant_one(self, segment_product):
        alpha, beta = _verticals(segment_product, 0.0, 1.0)
        table = c_functions(segment_product, alpha, beta)
        spreads = table.per_function_spreads()
        assert all(s <= 1e-9 for s in spreads.values())
        assert table.mean == pytest.approx(1.0, abs=1e-9)
        assert table.complex_flags == 0

    def test_identical_lines_zero(self, segment_product):
        alpha, _ = _verticals(segment_product, 0.0, 1.0)
        table = c_functions(segment_product, alpha, alpha)
        assert table.mean == pytest.approx(0.0, abs=1e-12)
        assert table.spread <= 1e-12

    def test_boosted_line_spread_positive(self, mink):
        vert = vertical_line(mink, 0.0, range(-5, 6))
        phi = 0.3
        pts = tuple((s * math.cosh(phi), 1.0 + s * math.sinh(phi))
                    for s in range(-5, 6))
        boosted = line_from_chain(mink, CausalChain(pts), anchor=5)
        table = c_functions(mink, vert, boosted)
        assert table.spread > 0.1

    def test_crossing_minima_equal_constant(self, segment_product):
        # when the lines enter each other's futures, the null minima agree
        # with the timelike constant
        alpha, beta = _verticals(segment_product, 0.0, 1.0)
        table = c_functions(segment_product, alpha, beta)
        for value, edge, _ in list(table.n_ab.values()) + list(table.n_ba.values()):
            if not edge:
                assert value == pytest.approx(1.0, abs=1e-12)


class TestParallelVerdict:
    def test_product_verticals(self, segment_product):
        alpha, beta = _verticals(segment_product, 0.0, 1.0)
        verdict = parallel_verdict(segment_product, alpha, beta, 1e-9)
        assert verdict.parallel
        assert verdict.distance_c == pytest.approx(1.0, abs=1e-9)
        assert abs(verdict.shift) <= 1e-9
        assert verdict.realisation is not None

    def test_flat_verticals_distance_two(self, mink):
        alpha = vertical_line(mink, -1.0, range(-4, 5))
        beta = vertical_line(mink, 1.0, range(-4, 5))
        verdict = parallel_verdict(mink, alpha, beta, 1e-9)
        assert verdict.parallel and verdict.distance_c == pytest.approx(2.0)

    def test_boosted_rejected(self, mink):
        vert = vertical_line(mink, 0.0, range(-5, 6))
        phi = 0.3
        pts = tuple((s * math.cosh(phi), 1.0 + s * math.sinh(phi))
                    for s in range(-5, 6))
        boosted = line_from_chain(mink, CausalChain(pts), anchor=5)
        verdict = parallel_verdict(mink, vert, boosted, 0.05)
        assert not verdict.parallel

    def test_self_parallel(self, segment_product):
        alpha, _ = _verticals(segment_product, 0.3, 1.0)
        verdict = parallel_verdict(segment_product, alpha, alpha, 1e-9)
        assert verdict.parallel
        assert verdict.distance_c == pytest.approx(0.0, abs=1e-12)
        assert verdict.shift == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_verdict(self, segment_product):
        alpha, beta = _verticals(segment_product, 0.2, 0.9)
        ab = parallel_verdict(segment_product, alpha, beta, 1e-9)
        ba = parallel_verdict(segment_product, beta, alpha, 1e-9)
        assert ab.parallel == ba.parallel
        assert ab.distance_c == pytest.approx(ba.distance_c, abs=1e-9)

    def test_shift_recovered(self, segment_product):
        alpha, _ = _verticals(segment_product, 0.0, 1.0)
        pts = tuple((float(t), 1.0) for t in range(-4, 5))
        shifted = line_from_chain(segment_product, CausalChain(pts), anchor=2)
        verdict = parallel_verdict(segment_product, alpha, shifted, 1e-9)
        assert verdict.parallel
        assert verdict.shift == pytest.approx(-2.0, abs=1e-9)
        assert verdict.distance_c == pytest.approx(1.0, abs=1e-9)

    def test_realisation_preserves_relations(self, segment_product):
        alpha, beta = _verticals(segment_product, 0.0, 0.75)
        verdict = parallel_verdict(segment_product, alpha, beta, 1e-9)
        real = verdict.realisation
        assert isinstance(real, ParallelRealisation)
        # images are injective and reproduce relations on the sample
        images = {}
        for s in real.line_a.params:
            images[("a", s)] = real.map_a(s)
        for t in real.line_b.params:
            images[("b", t)] = real.map_b(t)
        assert len(set(images.values())) == len(images)
        for s in real.line_a.params:
            pa = real.line_a.point_at(s)
            for t in real.line_b.params:
                pb = real.line_b.point_at(t)
                dt = t - s
                if abs(abs(dt) - real.distance_c) <= 1e-9:
                    continue
                assert segment_product.leq(pa, pb) == (dt >= real.distance_c)
                assert segment_product.tau(pa, pb) == pytest.approx(
                    tau_minkowski(real.map_a(s), real.map_b(t)), abs=1e-9)


class TestStrongCausalityTrick:
    def test_identical_realizers_forced_equal(self, segment_product):
        p, q = (0.0, 0.2), (3.0, 0.8)
        pts = tuple(segment_product.realizer(p, q, 7))
        alpha = line_from_chain(segment_product, CausalChain(pts))
        # angles near zero resolve only to ~sqrt(eps) in double precision
        report = strong_causality_trick_check(segment_product, alpha, alpha,
                                              tol_angle=1e-7,
                                              coincidence_radius=1e-9)
        assert report.forced_equal
        assert report.max_gap == 0.0

    def test_zero_angle_with_gap_reported_as_inconsistency(self):
        import numpy as np
        from lorentz_lab.core import FiniteLorentzSpace
        # x = 0; two realizers (0,1,2) and (0,3,4) with all cross angles zero
        # but pointwise distinct: only possible because the table ignores the
        # separation structure a genuine space would impose
        n = 5
        d = np.ones((n, n)) * 0.7
        np.fill_diagonal(d, 0.0)
        leq = np.eye(n, dtype=bool)
        ll = np.zeros((n, n), dtype=bool)
        tau = np.zeros((n, n))
        for a, b, t in [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0),
                        (0, 3, 1.0), (0, 4, 2.0), (3, 4, 1.0),
                        (1, 4, 1.0), (3, 2, 1.0)]:
            leq[a, b] = ll[a, b] = True
            tau[a, b] = t
        space = FiniteLorentzSpace(d, leq, ll, tau)
        alpha = LineDescriptor(CausalChain((0, 1, 2)), (0.0, 1.0, 2.0))
        beta = LineDescriptor(CausalChain((0, 3, 4)), (0.0, 1.0, 2.0))
        report = strong_causality_trick_check(space, alpha, beta,
                                              tol_angle=1e-9,
                                              coincidence_radius=0.1)
        assert not report.forced_equal
        assert report.max_gap == pytest.approx(0.7)
        assert report.max_angle <= 1e-9

    def test_positive_angle_not_applicable(self, segment_product):
        x = (0.0, 0.3)
        a = tuple(segment_product.realizer(x, (2.0, 0.1), 5))
        b = tuple(segment_product.realizer(x, (2.0, 0.9), 5))
        alpha = line_from_chain(segment_product, CausalChain(a))
        beta = line_from_chain(segment_product, CausalChain(b))
        with pytest.raises(PreconditionError, match="angle"):
            strong_causality_trick_check(segment_product, alpha, beta,
                                         tol_angle=1e-9)


class TestUniqueness:
    def test_unique_vertical_through_point(self, segment_product):
        alpha = vertical_line(segment_product, 0.0, range(-4, 5))
        candidate = vertical_line(segment_product, 0.6, range(-4, 5))
        report = uniqueness_count(segment_product, alpha, (0.0, 0.6),
                                  [candidate], tolerance=1e-9, radius=0.01)
        assert report.distinct_count == 1

    def test_duplicates_deduplicated(self, segment_product):
        alpha = vertical_line(segment_product, 0.0, range(-4, 5))
        c1 = vertical_line(segment_product, 0.6, range(-4, 5))
        c2 = vertical_line(segment_product, 0.6, range(-4, 5))
        report = uniqueness_count(segment_product, alpha, (0.0, 0.6),
                                  [c1, c2], tolerance=1e-9, radius=0.01)
        assert report.distinct_count == 1

    def test_engineered_duplicate_parallels_flagged(self):
        space, doctored = column_lattice_table()
        alpha = LineDescriptor(CausalChain(tuple(range(5))), range(5))
        gamma = LineDescriptor(CausalChain(tuple(range(10, 15))), range(5))
        fake = LineDescriptor(CausalChain(doctored), range(5))
        report = uniqueness_count(space, alpha, 12, [gamma, fake],
                                  tolerance=1e-9, radius=0.1)
        assert report.distinct_count == 2


class TestTwoAsymptotesSynchronized:
    def test_same_busemann_height(self, segment_product, product_gamma,
                                  parallel_tolerance):
        report = synchronized_verdict(segment_product, product_gamma,
                                      (0.0, 0.0), (0.0, 1.0), HORIZONS,
                                      tolerance=parallel_tolerance,
                                      knot_extent=4.0)
        assert report.synchronized
        assert report.distance == pytest.approx(1.0, abs=0.05)

    def test_different_heights_still_synchronized(self, segment_product,
                                                  product_gamma,
                                                  parallel_tolerance):
        report = synchronized_verdict(segment_product, product_gamma,
                                      (0.0, 0.0), (0.8, 1.0), HORIZONS,
                                      tolerance=parallel_tolerance,
                                      knot_extent=4.0)
        assert report.synchronized
        assert report.distance == pytest.approx(1.0, abs=0.05)
        assert abs(report.shift) <= parallel_tolerance

    def test_seed_outside_envelope_rejected(self, segment_product,
                                            product_gamma,
                                            parallel_tolerance):
        with pytest.raises(PreconditionError):
            synchronized_verdict(segment_product, product_gamma,
                                 (0.0, 0.0), (300.0, 1.0), HORIZONS,
                                 tolerance=parallel_tolerance)


class TestWeakTransitivity:
    def test_three_product_verticals(self, segment_product):
        alpha = vertical_line(segment_product, 0.0, range(-4, 5))
        beta = vertical_line(segment_product, 0.5, range(-4, 5))
        gamma = vertical_line(segment_product, 1.0, range(-4, 5))
        assert weak_transitivity(segment_product, alpha, beta, gamma,
                                 (0.0, 1.0), candidate=gamma,
                                 tolerance=1e-9, radius=0.01)

    def test_shifted_copy_synchronizes(self, segment_product):
        alpha = vertical_line(segment_product, 0.0, range(-4, 5))
        beta = vertical_line(segment_product, 0.5, range(-4, 5))
        gamma = vertical_line(segment_product, 1.0, range(-4, 5))
        shifted = gamma.shifted(1.0)
        assert weak_transitivity(segment_product, alpha, beta, gamma,
                                 (0.0, 1.0), candidate=shifted,
                                 tolerance=1e-9, radius=0.01)

    def test_engineered_failure_table(self):
        space, doctored = column_lattice_table()
        alpha = LineDescriptor(CausalChain(tuple(range(5))), range(5))
        beta = LineDescriptor(CausalChain(tuple(range(5, 10))), range(5))
        gamma = LineDescriptor(CausalChain(tuple(range(10, 15))), range(5))
        fake = LineDescriptor(CausalChain(doctored), range(5))
        assert not weak_transitivity(space, alpha, beta, gamma, 12,
                                     candidate=fake, tolerance=1e-9,
                                     radius=0.1)


# ---------------------------------------------------------------------------
# the lemma checks against their former pairwise loops


def uniqueness_loops(space, alpha, p, candidates, tolerance, radius):
    """``test_parallel_uniqueness`` as it was: one ``test_parallel`` per
    candidate, in order."""
    verified = []
    for cand in candidates:
        verdict = parallel_verdict(space, alpha, cand, tolerance)
        if not verdict.parallel:
            raise PreconditionError("candidate fails the parallelity test")
        if not _passes_through(space, cand, p, radius):
            raise PreconditionError("candidate does not pass through p")
        verified.append(cand.shifted(verdict.shift))
    groups = []
    for cand in verified:
        for g in groups:
            if _coincide(space, g[0], cand, radius):
                g.append(cand)
                break
        else:
            groups.append([cand])
    return UniquenessReport(len(groups), tuple(tuple(g) for g in groups))


def weak_transitivity_loops(space, alpha, beta, gamma, p, candidate,
                            tolerance, radius):
    """``test_weak_transitivity`` as it was: one ``test_parallel`` per
    pair, in order."""
    if not parallel_verdict(space, alpha, beta, tolerance).parallel:
        raise PreconditionError("alpha and beta are not parallel")
    if not parallel_verdict(space, beta, gamma, tolerance).parallel:
        raise PreconditionError("beta and gamma are not parallel")
    if not _passes_through(space, gamma, p, radius):
        raise PreconditionError("p does not lie on gamma")
    cand_verdict = parallel_verdict(space, alpha, candidate, tolerance)
    if not cand_verdict.parallel or not _passes_through(space, candidate, p,
                                                        radius):
        raise PreconditionError("candidate is not a parallel to alpha through p")
    verdict = parallel_verdict(space, candidate, gamma, tolerance)
    if not verdict.parallel or verdict.distance_c > radius:
        return False
    synced = gamma.shifted(verdict.shift)
    return _coincide(space, candidate, synced, max(radius, tolerance))


def outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return PreconditionError, str(exc)


SEGMENT = ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)
COLUMNS = [0.0, 0.3, 0.6, 1.0]
LATTICE, DOCTORED = column_lattice_table()


@st.composite
def segment_lines(draw):
    """Verticals of two to nine knots, some with shifted parameters."""
    x = draw(st.sampled_from(COLUMNS))
    line = vertical_line(SEGMENT, x, range(-4, -4 + draw(st.integers(2, 9))))
    shift = draw(st.sampled_from([0.0, 0.0, -1.0, 0.5, 2.0]))
    return line.shifted(shift) if shift else line


@st.composite
def lattice_lines(draw):
    """Parts of the lattice columns or of the doctored chain, at their own
    levels or at squeezed parameters (complex flags)."""
    chain = draw(st.sampled_from([tuple(range(5 * c, 5 * c + 5))
                                  for c in range(4)] + [DOCTORED]))
    levels = sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=5,
                                  unique=True)))
    scale = draw(st.sampled_from([0.5, 1.0, 1.0]))
    return LineDescriptor(CausalChain(tuple(chain[k] for k in levels)),
                          [scale * k for k in levels])


LEMMA_CASES = {
    "segment": (SEGMENT, segment_lines(),
                st.tuples(st.sampled_from([-2.0, 0.0, 1.0]),
                          st.sampled_from(COLUMNS + [0.45]))),
    "lattice": (LATTICE, lattice_lines(), st.integers(0, 19)),
}


class TestLemmasMatchPairwiseLoops:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(LEMMA_CASES)), data=st.data(),
           tolerance=st.sampled_from([1e-9, 0.05, 0.5]),
           radius=st.sampled_from([0.01, 0.1, 1.0]))
    def test_uniqueness(self, kind, data, tolerance, radius):
        space, lines, points = LEMMA_CASES[kind]
        alpha, p = data.draw(lines), data.draw(points)
        candidates = data.draw(st.lists(lines, max_size=4))
        args = (space, alpha, p, candidates, tolerance, radius)
        assert outcome(uniqueness_count, *args) == \
            outcome(uniqueness_loops, *args)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(LEMMA_CASES)), data=st.data(),
           tolerance=st.sampled_from([1e-9, 0.05, 0.5]),
           radius=st.sampled_from([0.01, 0.1, 1.0]))
    def test_weak_transitivity(self, kind, data, tolerance, radius):
        space, lines, points = LEMMA_CASES[kind]
        alpha, beta, gamma, candidate = (data.draw(lines) for _ in range(4))
        args = (space, alpha, beta, gamma, data.draw(points), candidate,
                tolerance, radius)
        assert outcome(weak_transitivity, *args) == \
            outcome(weak_transitivity_loops, *args)

    def test_first_failure_in_candidate_order(self):
        # a candidate off p comes before one that is not parallel: the
        # pass-through failure is raised, as the pairwise loop raised it
        alpha = vertical_line(SEGMENT, 0.0, range(-4, 5))
        off_p = vertical_line(SEGMENT, 0.3, range(-4, 5))
        on_p = vertical_line(SEGMENT, 0.6, range(-4, 5))
        # on the lattice, a column at squeezed parameters is not parallel
        column = LineDescriptor(CausalChain(tuple(range(5))), range(5))
        squeezed = LineDescriptor(CausalChain(tuple(range(10, 15))),
                                  [0.5 * k for k in range(5)])
        fake = LineDescriptor(CausalChain(DOCTORED), range(5))
        cases = [
            (SEGMENT, alpha, (0.0, 0.6), [on_p, off_p, alpha.shifted(0.5)],
             "candidate does not pass through p"),
            (LATTICE, column, 12, [fake, squeezed, column],
             "candidate fails the parallelity test"),
            (LATTICE, column, 12, [fake, column, squeezed],
             "candidate does not pass through p"),
        ]
        for space, a, p, candidates, message in cases:
            args = (space, a, p, candidates, 1e-9, 0.01)
            got = outcome(uniqueness_count, *args)
            assert got == outcome(uniqueness_loops, *args)
            assert got == (PreconditionError, message)
        assert uniqueness_count(SEGMENT, alpha, (0.0, 0.6), [], 1e-9, 0.01) \
            == uniqueness_loops(SEGMENT, alpha, (0.0, 0.6), [], 1e-9, 0.01) \
            == UniquenessReport(0, ())
