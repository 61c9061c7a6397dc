"""The array scans over finite tables, pinned to the loop versions they
replaced.

The loops below are the former implementations of ``validate_axioms``,
``_check_causal``, ``_topological_order``, ``finite_triangles`` and
``SpacelikeSlice.validate_metric``, kept as oracles: each array scan must
give the same verdicts, the same first witnesses, the same errors and the
same values, bit for bit.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_lab import chains
from lorentz_lab.chains import maximize_tau
from lorentz_lab.comparison import SpaceTriangle
from lorentz_lab.core import (EPS, AxiomCheck, FiniteLorentzSpace,
                              PreconditionError, ValidationReport,
                              validate_axioms)
from lorentz_lab.sampling import (finite_triangles, flat_finite_space,
                                  sprinkle_causal_set)
from lorentz_lab.splitting import slice_from_table

from conftest import three_chain

# the loop oracles evaluate inf - inf on numpy scalars, which warns
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")

SIZES = st.integers(3, 12)
SEEDS = st.integers(0, 10_000)


# ---------------------------------------------------------------------------
# loop oracles


def validate_axioms_loops(space):
    n = space.n
    d, leq, ll, tau = space._d, space._leq, space._ll, space._tau
    checks = []

    def record(name, witness):
        checks.append(AxiomCheck(name, witness is None, witness))

    # metric axioms
    w = None
    for i in range(n):
        if abs(d[i, i]) > EPS:
            w = (i,)
            break
    record("d zero diagonal", w)

    w = None
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j] - d[j, i]) > EPS:
                w = (i, j)
                break
        if w:
            break
    record("d symmetric", w)

    w = None
    for i in range(n):
        for j in range(n):
            if i != j and d[i, j] <= EPS:
                w = (i, j)
                break
        if w:
            break
    record("d positive off diagonal", w)

    w = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i, k] > d[i, j] + d[j, k] + EPS:
                    w = (i, j, k)
                    break
            if w:
                break
        if w:
            break
    record("d triangle inequality", w)

    # relation axioms
    w = next(((i,) for i in range(n) if not leq[i, i]), None)
    record("leq reflexive", w)

    w = None
    for i in range(n):
        for j in range(n):
            if leq[i, j]:
                for k in range(n):
                    if leq[j, k] and not leq[i, k]:
                        w = (i, j, k)
                        break
            if w:
                break
        if w:
            break
    record("leq transitive", w)

    w = None
    for i in range(n):
        for j in range(n):
            if ll[i, j]:
                for k in range(n):
                    if ll[j, k] and not ll[i, k]:
                        w = (i, j, k)
                        break
            if w:
                break
        if w:
            break
    record("ll transitive", w)

    w = None
    for i in range(n):
        for j in range(n):
            if ll[i, j] and not leq[i, j]:
                w = (i, j)
                break
        if w:
            break
    record("ll contained in leq", w)

    # time separation axioms
    w = None
    for i in range(n):
        for j in range(n):
            if not leq[i, j] and tau[i, j] > EPS:
                w = (i, j)
                break
        if w:
            break
    record("tau zero when unrelated", w)

    w = None
    for i in range(n):
        for j in range(n):
            pos = tau[i, j] > EPS
            if pos != bool(ll[i, j]):
                w = (i, j)
                break
        if w:
            break
    record("tau positive iff timelike", w)

    w = None
    for i in range(n):
        for j in range(n):
            if not leq[i, j]:
                continue
            for k in range(n):
                if leq[j, k] and tau[i, k] < tau[i, j] + tau[j, k] - EPS:
                    w = (i, j, k)
                    break
            if w:
                break
        if w:
            break
    record("reverse triangle inequality", w)

    return ValidationReport(tuple(checks))


def check_causal_loops(space):
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if space.leq(i, j) and space.leq(j, i):
                raise PreconditionError(
                    f"non-causal space: leq has a 2-cycle between {i} and {j}")


def topological_order_loops(space):
    n = space.n
    succ = [[j for j in range(n) if j != i and space.leq(i, j)] for i in range(n)]
    indeg = [0] * n
    for i in range(n):
        for j in succ[i]:
            indeg[j] += 1
    stack = sorted((i for i in range(n) if indeg[i] == 0), reverse=True)
    order = []
    while stack:
        i = stack.pop()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
        stack.sort(reverse=True)
    if len(order) != n:
        raise PreconditionError("non-causal space: leq is cyclic")
    return order, succ


def finite_triangles_loops(space, count, seed):
    rng = random.Random(seed)
    triples = [(i, j, k)
               for i in range(space.n) for j in range(space.n)
               for k in range(space.n)
               if space.ll(i, j) and space.ll(j, k) and space.ll(i, k)]
    rng.shuffle(triples)
    out = []
    for (i, j, k) in triples:
        try:
            out.append(SpaceTriangle(space, i, j, k))
        except Exception:
            continue
        if len(out) >= count:
            break
    if not out:
        raise ValueError("space contains no usable timelike triangles")
    return out


def validate_metric_loops(d, tol):
    n = len(d)
    worst = 0.0
    for i in range(n):
        worst = max(worst, abs(d[i, i]))
        for j in range(n):
            worst = max(worst, abs(d[i, j] - d[j, i]))
            for k in range(n):
                worst = max(worst, d[i, k] - d[i, j] - d[j, k])
    return worst <= tol, worst


def outcome(fn, *args):
    """Return value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (AssertionError, PreconditionError, ValueError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# table generators


def random_table(n, seed):
    """Unstructured table: entries from small value sets, so that ties,
    exact EPS boundaries and inf - inf all occur."""
    rng = np.random.default_rng(seed)
    d = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, math.inf], size=(n, n),
                   p=[0.1, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1])
    leq = rng.random((n, n)) < 0.6
    ll = leq & (rng.random((n, n)) < 0.7) | (rng.random((n, n)) < 0.05)
    tau = rng.choice([0.0, EPS, 0.5, 1.0, 2.0, math.inf], size=(n, n),
                     p=[0.4, 0.05, 0.2, 0.2, 0.1, 0.05])
    if seed % 2:  # let the scans get past the first metric axioms
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        np.fill_diagonal(leq, True)
    return FiniteLorentzSpace(d, leq, ll, tau)


def random_dag(n, seed):
    """Causal table: a random partial order on a shuffled labelling with
    small integer weights, so that maximizer ties are common."""
    rng = np.random.default_rng(seed)
    rank = rng.permutation(n)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    leq = upper[np.ix_(rank, rank)] | np.eye(n, dtype=bool)
    tau = np.where(leq, rng.integers(0, 3, size=(n, n)), 0).astype(float)
    np.fill_diagonal(tau, 0.0)
    return FiniteLorentzSpace(np.ones((n, n)) - np.eye(n), leq, tau > 0, tau)


def planted(space, axiom, pick):
    """The table with one violation of a cubic axiom planted at a triple
    chosen by ``pick`` (an index into the candidate triples)."""
    n = space.n
    d, leq, ll, tau = (np.array(a) for a in
                       (space._d, space._leq, space._ll, space._tau))
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
               if len({i, j, k}) == 3]
    if axiom in ("leq transitive", "reverse triangle inequality"):
        triples = [t for t in triples if leq[t[0], t[1]] and leq[t[1], t[2]]]
    elif axiom == "ll transitive":
        triples = [t for t in triples if ll[t[0], t[1]] and ll[t[1], t[2]]]
    if not triples:
        return space
    i, j, k = triples[pick % len(triples)]
    if axiom == "d triangle inequality":
        d[i, k] = d[k, i] = d[i, j] + d[j, k] + 1.0
    elif axiom == "leq transitive":
        leq[i, k] = ll[i, k] = False
        tau[i, k] = 0.0
    elif axiom == "ll transitive":
        ll[i, k] = False
        tau[i, k] = 0.0
    else:
        tau[i, k] = 0.5 * tau[i, k]
    return FiniteLorentzSpace(d, leq, ll, tau)


CUBIC_AXIOMS = ["d triangle inequality", "leq transitive", "ll transitive",
                "reverse triangle inequality"]


# ---------------------------------------------------------------------------
# validate_axioms


class TestValidateAxiomsMatchesLoops:
    @settings(max_examples=40, deadline=None)
    @given(n=SIZES, seed=SEEDS, weighted=st.booleans())
    def test_sprinkles(self, n, seed, weighted):
        space = sprinkle_causal_set(n, seed, weighted)
        assert validate_axioms(space) == validate_axioms_loops(space)

    @settings(max_examples=60, deadline=None)
    @given(n=SIZES, seed=SEEDS, axiom=st.sampled_from(CUBIC_AXIOMS),
           pick=st.integers(0, 10_000))
    def test_planted_violations(self, n, seed, axiom, pick):
        space = planted(flat_finite_space(n, seed), axiom, pick)
        assert validate_axioms(space) == validate_axioms_loops(space)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), seed=SEEDS)
    def test_unstructured_tables(self, n, seed):
        space = random_table(n, seed)
        assert validate_axioms(space) == validate_axioms_loops(space)

    @settings(max_examples=20, deadline=None)
    @given(n=SIZES, seed=SEEDS)
    def test_infinite_markers(self, n, seed):
        space = flat_finite_space(n, seed)
        tau = np.array(space._tau)
        tau[tau > 1.0] = math.inf
        marked = FiniteLorentzSpace(space._d, space._leq, space._ll, tau)
        assert validate_axioms(marked) == validate_axioms_loops(marked)

    def test_witnesses_are_plain_ints(self):
        witness = validate_axioms(three_chain(t02=1.5))[
            "reverse triangle inequality"].witness
        assert witness == (0, 1, 2)
        assert all(type(v) is int for v in witness)

    def test_empty_table(self):
        space = FiniteLorentzSpace(np.zeros((0, 0)), np.zeros((0, 0), bool),
                                   np.zeros((0, 0), bool), np.zeros((0, 0)))
        assert validate_axioms(space) == validate_axioms_loops(space)


# ---------------------------------------------------------------------------
# chains: _check_causal, _topological_order, maximize_tau


def maximize_all(space):
    """Every related pair's maximizer result, or its error."""
    return [outcome(maximize_tau, space, p, q)
            for p in range(space.n) for q in range(space.n)
            if p != q and space.leq(p, q)]


class TestChainScansMatchLoops:
    @settings(max_examples=40, deadline=None)
    @given(n=SIZES, seed=SEEDS, kind=st.sampled_from(["flat", "weighted", "dag"]))
    def test_order_and_maximizers(self, n, seed, kind):
        space = random_dag(n, seed) if kind == "dag" else \
            sprinkle_causal_set(n, seed, kind == "weighted")
        assert chains._topological_order(space) == topological_order_loops(space)
        got = maximize_all(space)
        with mock.patch.object(chains, "_topological_order",
                               topological_order_loops), \
                mock.patch.object(chains, "_check_causal", check_causal_loops):
            want = maximize_all(space)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), seed=SEEDS)
    def test_two_cycles_reported_alike(self, n, seed):
        space = random_dag(n, seed)
        rng = random.Random(seed)
        leq = np.array(space._leq)
        for _ in range(rng.randrange(1, 3)):
            i, j = rng.sample(range(n), 2)
            leq[i, j] = leq[j, i] = True
        cyclic = FiniteLorentzSpace(space._d, leq, space._ll, space._tau)
        got = outcome(chains._check_causal, cyclic)
        assert got == outcome(check_causal_loops, cyclic)
        assert got[0] is PreconditionError
        assert got[1].startswith("non-causal space: leq has a 2-cycle between")
        assert outcome(chains._topological_order, cyclic) == \
            outcome(topological_order_loops, cyclic)


# ---------------------------------------------------------------------------
# finite_triangles


def vertex_lists(fn, space, count, seed):
    out = outcome(fn, space, count, seed)
    return out if isinstance(out, tuple) else [t.vertices for t in out]


class TestFiniteTrianglesMatchLoops:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 10), seed=SEEDS, weighted=st.booleans(),
           count=st.integers(1, 6))
    def test_sprinkles(self, n, seed, weighted, count):
        space = sprinkle_causal_set(n, seed, weighted)
        assert vertex_lists(finite_triangles, space, count, seed) == \
            vertex_lists(finite_triangles_loops, space, count, seed)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 10), seed=SEEDS, axiom=st.sampled_from(CUBIC_AXIOMS),
           pick=st.integers(0, 10_000))
    def test_planted_tables(self, n, seed, axiom, pick):
        space = planted(flat_finite_space(n, seed), axiom, pick)
        assert vertex_lists(finite_triangles, space, 4, seed) == \
            vertex_lists(finite_triangles_loops, space, 4, seed)


# ---------------------------------------------------------------------------
# metric_defect through SpacelikeSlice.validate_metric


def slice_table(n, seed):
    """Near-metric table from points on a line, with random perturbations
    and inf entries."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.random(n) * 4.0)
    d = np.abs(x[:, None] - x[None, :])
    d = d + rng.choice([0.0, 1e-10, -1e-3, 0.3], size=(n, n),
                       p=[0.9, 0.04, 0.04, 0.02])
    if seed % 3 == 0:
        d[rng.random((n, n)) < 0.05] = math.inf
    if rng.random() < 0.5:
        d = np.minimum(d, d.T)
    return d


class TestMetricDefectMatchesLoops:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), seed=SEEDS,
           tol=st.sampled_from([EPS, 1e-3, 0.5]))
    def test_slice_tables(self, n, seed, tol):
        d = slice_table(n, seed)
        got = slice_from_table(range(n), d).validate_metric(tol)
        assert got == validate_metric_loops(d, tol)

    @pytest.mark.parametrize("entries", [
        [[0.0, math.inf], [math.inf, 0.0]],
        [[math.inf, 1.0], [1.0, 0.0]],
        [[0.0, 1.0, math.inf], [1.0, 0.0, 1.0], [math.inf, 1.0, 0.0]],
    ])
    def test_infinite_entries(self, entries):
        d = np.array(entries)
        got = slice_from_table(range(len(d)), d).validate_metric(EPS)
        assert got == validate_metric_loops(d, EPS)
