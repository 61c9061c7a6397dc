"""The longest-chain optimizer and its oracle, line checks."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from lorentz_lab.core import PreconditionError
from lorentz_lab.chains import (CausalChain, check_nonbranching, is_line,
                                maximize_tau, reparametrize_tau_arclength)
from lorentz_lab.sampling import sprinkle_causal_set

from conftest import brute_force_tau, three_chain, diamond_table


class TestMaximizeTau:
    def test_three_chain_tie(self):
        space = three_chain()
        result = maximize_tau(space, 0, 2)
        assert result.value == pytest.approx(2.0)
        assert result.chain.points == (0, 1, 2)
        assert result.tie_count >= 2

    def test_diamond_routes_through_long_side(self):
        result = maximize_tau(diamond_table(), 0, 3)
        assert result.value == pytest.approx(2.0)
        assert result.chain.points == (0, 1, 3)
        assert result.tie_count == 2
        assert result.value == pytest.approx(brute_force_tau(diamond_table(), 0, 3))

    def test_unrelated_endpoints_error(self):
        space = diamond_table()
        with pytest.raises(PreconditionError, match="not related"):
            maximize_tau(space, 1, 2)
        with pytest.raises(PreconditionError, match="distinct"):
            maximize_tau(space, 1, 1)

    def test_two_cycle_rejected(self):
        import numpy as np
        leq = np.eye(2, dtype=bool)
        leq[0, 1] = leq[1, 0] = True
        from lorentz_lab.core import FiniteLorentzSpace
        space = FiniteLorentzSpace([[0, 1], [1, 0]], leq,
                                   np.zeros((2, 2), bool), np.zeros((2, 2)))
        with pytest.raises(PreconditionError, match="non-causal"):
            maximize_tau(space, 0, 1)

    def test_causal_order_computed_once_per_space(self):
        import numpy as np
        from unittest import mock
        from lorentz_lab import chains
        from lorentz_lab.core import FiniteLorentzSpace
        space = sprinkle_causal_set(12, 3)
        pairs = [(i, j) for i in range(12) for j in range(12)
                 if i != j and space.leq(i, j)]
        with mock.patch.object(chains, "_topological_order",
                               wraps=chains._topological_order) as order:
            for i, j in pairs:
                maximize_tau(space, i, j)
        assert order.call_count == 1
        # a cyclic space is refused on every call, with the 2-cycle named
        leq = np.array(space._leq)
        leq[pairs[0][1], pairs[0][0]] = True
        cyclic = FiniteLorentzSpace(space._d, leq, space._ll, space._tau)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="leq has a 2-cycle"):
                maximize_tau(cyclic, *pairs[0])

    def test_superadditivity_through_midpoints(self):
        for seed in range(15):
            space = sprinkle_causal_set(9, seed)
            for s in range(space.n):
                for m in range(space.n):
                    for t in range(space.n):
                        if s == m or m == t or s == t:
                            continue
                        if space.leq(s, m) and space.leq(m, t):
                            total = maximize_tau(space, s, t).value
                            split = maximize_tau(space, s, m).value \
                                + maximize_tau(space, m, t).value
                            assert split <= total + 1e-9
            break  # one space scanned exhaustively is enough here


class TestBruteForce:
    def test_matches_dp_on_three_chain(self):
        space = three_chain()
        assert brute_force_tau(space, 0, 2) == maximize_tau(space, 0, 2).value

    def test_random_seeds_match(self):
        for seed in range(10):
            space = sprinkle_causal_set(10, seed)
            for i in range(space.n):
                for j in range(space.n):
                    if i != j and space.leq(i, j):
                        assert brute_force_tau(space, i, j) == pytest.approx(
                            maximize_tau(space, i, j).value, abs=1e-12)

    def test_size_limit(self):
        space = sprinkle_causal_set(21, 0)
        pairs = [(i, j) for i in range(21) for j in range(21)
                 if i != j and space.leq(i, j)]
        with pytest.raises(PreconditionError, match="brute force"):
            brute_force_tau(space, *pairs[0])


class TestIsLine:
    def test_vertical_product_chain(self, segment_product):
        chain = CausalChain(tuple((float(t), 0.5) for t in range(-2, 3)))
        check = is_line(segment_product, chain)
        assert check.is_line and check.is_ray
        assert check.tau_length == pytest.approx(4.0)

    def test_kink_pinpointed(self, mink):
        chain = CausalChain(((0.0, 0.0), (1.0, 0.5), (2.0, 0.0)))
        check = is_line(mink, chain)
        assert not check.is_line
        assert check.first_failure == (0, 2)

    def test_two_point_chain_trivially_line(self, mink):
        check = is_line(mink, CausalChain(((0.0, 0.0), (1.0, 0.2))))
        assert check.is_line

    def test_ray_but_not_line(self):
        # additive from the first point, broken in the interior
        space = three_chain()
        import numpy as np
        tau = np.array(space.tau_table())
        tau[1, 2] = 0.7  # 0->1->2 sums to 1.7
        tau[0, 2] = 1.7  # anchored sums still match
        from lorentz_lab.core import FiniteLorentzSpace
        bent = FiniteLorentzSpace(space._d, space._leq, space._ll, tau)
        chain = CausalChain((0, 1, 2))
        check = is_line(bent, chain)
        assert check.is_ray and check.is_line  # all pairs include (1,2): 0.7 == 0.7
        tau[0, 2] = 1.9
        bent2 = FiniteLorentzSpace(space._d, space._leq, space._ll, tau)
        check2 = is_line(bent2, chain)
        assert not check2.is_ray and not check2.is_line
        assert check2.first_failure == (0, 2)


class TestReparametrize:
    def test_unit_steps(self, segment_product):
        chain = CausalChain(tuple((float(t), 0.5) for t in range(3)))
        assert reparametrize_tau_arclength(segment_product, chain) \
            == [0.0, 1.0, 2.0]

    def test_tilted_chain(self, mink):
        chain = CausalChain(((0.0, 0.0), (1.0, 0.5), (2.0, 1.0)))
        params = reparametrize_tau_arclength(mink, chain)
        step = math.sqrt(0.75)
        assert params == pytest.approx([0.0, step, 2 * step], abs=1e-12)

    def test_null_step_rejected(self, mink):
        chain = CausalChain(((0.0, 0.0), (1.0, 1.0), (3.0, 1.0)))
        with pytest.raises(PreconditionError, match="null step"):
            reparametrize_tau_arclength(mink, chain)

    def test_invariant_under_on_chain_refinement(self, mink):
        coarse = CausalChain(((0.0, 0.0), (2.0, 1.0)))
        fine = CausalChain(((0.0, 0.0), (1.0, 0.5), (2.0, 1.0)))
        pc = reparametrize_tau_arclength(mink, coarse)
        pf = reparametrize_tau_arclength(mink, fine)
        assert pc[-1] == pytest.approx(pf[-1], abs=1e-12)
        assert pf[1] == pytest.approx(pc[-1] / 2.0, abs=1e-12)


class TestNonbranching:
    def test_product_realizers_do_not_branch(self, segment_product):
        space = segment_product
        chains = [
            CausalChain(tuple(space.realizer((0.0, 0.2), (2.0, 0.8), 5))),
            CausalChain(tuple(space.realizer((0.0, 0.2), (2.0, 0.4), 5))),
            CausalChain(tuple((float(t), 0.5) for t in range(-2, 3))),
        ]
        assert check_nonbranching(space, chains, tol=1e-9) == []

    def test_engineered_branching_table_reported(self):
        import numpy as np
        from lorentz_lab.core import FiniteLorentzSpace
        # two maximal chains share the first edge then split and rejoin
        n = 5  # 0 -> 1 -> {2, 3} -> 4
        leq = np.eye(n, dtype=bool)
        for a, b in [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4),
                     (0, 2), (0, 3), (0, 4), (1, 4)]:
            leq[a, b] = True
        ll = leq & ~np.eye(n, dtype=bool)
        d = np.ones((n, n)) - np.eye(n)
        tau = np.zeros((n, n))
        for a, b in [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]:
            tau[a, b] = 1.0
        tau[0, 2] = tau[0, 3] = 2.0
        tau[1, 4] = 2.0
        tau[0, 4] = 3.0
        space = FiniteLorentzSpace(d, leq, ll, tau)
        branch_a = CausalChain((0, 1, 2, 4))
        branch_b = CausalChain((0, 1, 3, 4))
        violations = check_nonbranching(space, [branch_a, branch_b])
        assert len(violations) == 1
        assert violations[0][2] == 2  # shared prefix length

    def test_single_realizer_clean(self, segment_product):
        chain = CausalChain(tuple(
            segment_product.realizer((0.0, 0.2), (2.0, 0.8), 5)))
        assert check_nonbranching(segment_product, [chain], tol=1e-9) == []
        table = diamond_table()
        assert maximize_tau(table, 0, 3).chain.points == (0, 1, 3)


class TestIntrinsicness:
    def test_shipped_length_space_examples_have_zero_defect(self):
        for space in (three_chain(), diamond_table()):
            for i in range(space.n):
                for j in range(space.n):
                    if i != j and space.leq(i, j):
                        value = maximize_tau(space, i, j).value
                        assert value == pytest.approx(space.tau(i, j), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(4, 9), seed=st.integers(0, 5000))
    def test_flat_sprinkles_are_intrinsic(self, n, seed):
        from lorentz_lab.sampling import flat_finite_space
        space = flat_finite_space(n, seed)
        for i in range(n):
            for j in range(n):
                if i != j and space.leq(i, j):
                    value = maximize_tau(space, i, j).value
                    assert value == pytest.approx(space.tau(i, j), abs=1e-9)
