"""Axiom validation, push-up, diamonds and causal convexity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_lab.core import (FiniteLorentzSpace, StructuralError,
                              check_causal_convexity, check_pushup, diamond,
                              validate_axioms)
from lorentz_lab.sampling import flat_finite_space

from conftest import three_chain, diamond_table


def minimal_pair(tau01=1.0, ll01=True):
    d = [[0.0, 1.0], [1.0, 0.0]]
    leq = [[True, True], [False, True]]
    ll = [[False, ll01], [False, False]]
    tau = [[0.0, tau01], [0.0, 0.0]]
    return FiniteLorentzSpace(d, leq, ll, tau)


class TestValidateAxioms:
    def test_minimal_chain_passes(self):
        report = validate_axioms(minimal_pair())
        assert report.passed

    def test_zero_tau_on_timelike_pair_fails(self):
        report = validate_axioms(minimal_pair(tau01=0.0))
        failing = report["tau positive iff timelike"]
        assert not failing.passed
        assert failing.witness == (0, 1)

    def test_reverse_triangle_violation_witnessed(self):
        report = validate_axioms(three_chain(t02=1.5))
        failing = report["reverse triangle inequality"]
        assert not failing.passed
        assert failing.witness == (0, 1, 2)

    def test_malformed_tables_raise_structural_error(self):
        with pytest.raises(StructuralError):
            FiniteLorentzSpace(np.zeros((2, 3)), np.eye(2, dtype=bool),
                               np.zeros((2, 2), dtype=bool), np.zeros((2, 2)))
        with pytest.raises(StructuralError):
            FiniteLorentzSpace(np.zeros((2, 2)), np.eye(3, dtype=bool),
                               np.zeros((2, 2), dtype=bool), np.zeros((2, 2)))

    @pytest.mark.parametrize("table", ["d", "tau"])
    def test_nan_in_the_last_entry_is_refused(self, table):
        tables = dict(d=[[0.0, 1.0], [1.0, 0.0]], leq=np.eye(2, dtype=bool),
                      ll=np.zeros((2, 2), dtype=bool), tau=np.zeros((2, 2)))
        tables[table] = np.array(tables[table])
        tables[table][-1, -1] = np.nan
        with pytest.raises(StructuralError,
                           match="NaN entries are not permitted"):
            FiniteLorentzSpace(**tables)

    def test_idempotent_and_deterministic(self):
        space = diamond_table()
        first = validate_axioms(space)
        second = validate_axioms(space)
        assert first == second
        assert first.passed

    def test_infinite_separation_marker(self):
        import math
        space = minimal_pair(tau01=math.inf)
        assert space.has_infinite_tau
        assert validate_axioms(space).passed
        assert not minimal_pair().has_infinite_tau

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 9), seed=st.integers(0, 10_000))
    def test_flat_sprinkles_always_pass(self, n, seed):
        assert validate_axioms(flat_finite_space(n, seed)).passed


class TestPushup:
    def test_minkowski_sample_holds(self, mink):
        # first pair timelike, second exactly null
        sample = [(0.0, 0.0), (1.0, 0.875), (2.0, 1.875)]
        assert mink.ll(sample[0], sample[1])
        assert mink.leq(sample[1], sample[2]) and not mink.ll(sample[1], sample[2])
        assert check_pushup(mink, sample).passed

    def test_handmade_violation_reported(self):
        # x << y, y <= z, but not x << z
        leq = np.triu(np.ones((3, 3), dtype=bool))
        ll = np.zeros((3, 3), dtype=bool)
        ll[0, 1] = True
        tau = np.zeros((3, 3))
        tau[0, 1] = 1.0
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        space = FiniteLorentzSpace(d, leq, ll, tau)
        report = check_pushup(space, range(3))
        assert not report.passed
        assert ("ll-leq", 0, 1, 2) in report.violations

    def test_empty_sample_vacuous(self, mink):
        assert check_pushup(mink, []).passed

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 8), seed=st.integers(0, 10_000))
    def test_valid_spaces_always_push_up(self, n, seed):
        space = flat_finite_space(n, seed)
        assert validate_axioms(space).passed
        assert check_pushup(space, range(n)).passed


class TestDiamond:
    def test_three_chain_causal(self):
        space = three_chain()
        assert diamond(space, 0, 2, "causal").members == (0, 1, 2)

    def test_timelike_diamond_empty_when_middle_only_causal(self):
        space = three_chain()
        # demote the middle point to null-related
        ll = np.array(space._ll)
        tau = np.array(space._tau)
        ll[0, 1] = ll[1, 2] = False
        tau[0, 1] = tau[1, 2] = 0.0
        weak = FiniteLorentzSpace(space._d, space._leq, ll, tau)
        assert diamond(weak, 0, 2, "timelike").members == ()

    def test_product_diamond_matches_direct_scan(self, segment_product):
        space = segment_product
        x0 = 0.5
        p, q = (0.0, x0), (2.0, x0)
        got = set(diamond(space, p, q, "causal").members)
        expected = {(s, y) for (s, y) in space.sample_points()
                    if space.factor.distance(x0, y) <= min(s - 0.0, 2.0 - s)}
        assert got == expected
        assert len(got) > 100

    def test_monotone_nesting(self):
        space = diamond_table()
        inner = diamond(space, 0, 1, "causal")
        outer = diamond(space, 0, 3, "causal")
        assert set(inner.members) <= set(outer.members)

    def test_shipped_spaces_have_zero_self_separation(self, segment_product):
        for space in (three_chain(), diamond_table()):
            for i in space.sample_points():
                assert space.tau(i, i) == 0.0
        for p in list(segment_product.sample_points())[::97]:
            assert segment_product.tau(p, p) == 0.0


class TestCausalConvexity:
    def test_full_space_convex(self):
        space = three_chain()
        assert check_causal_convexity(space, [0, 1, 2])

    def test_chain_minus_middle_not_convex(self):
        space = three_chain()
        assert not check_causal_convexity(space, [0, 2])

    def test_product_envelope_convex(self):
        from lorentz_lab.models import EuclideanSegment, ProductSpace
        space = ProductSpace(EuclideanSegment(0.0, 1.0, 6), -1.0, 1.0, 0.25)
        # a causal diamond inside the envelope of a line is causally convex
        box = diamond(space, (-0.75, 0.4), (0.75, 0.4), "causal").members
        assert len(box) > 2
        assert check_causal_convexity(space, box)
        # removing an interior point breaks convexity
        trimmed = [r for r in box if r != (0.0, 0.4)]
        assert not check_causal_convexity(space, trimmed)
