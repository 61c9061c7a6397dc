"""The array scans over finite tables, pinned to the loop versions they
replaced.

The loops below are the former implementations of ``validate_axioms``,
``_check_causal``, ``_topological_order``, ``finite_triangles``,
``SpacelikeSlice.validate_metric`` and ``sprinkle_causal_set``, kept as
oracles: each array scan must give the same verdicts, the same first
witnesses, the same errors and the same values, bit for bit.  The level
order of ``_topological_order`` has its own loop, ``level_order_loops``,
which also gives the successor lists that ``_successors`` packs; the
former smallest-vertex-first loop stays as a second order that the
maximizers must not notice, and the former ``maximize_tau`` as the
maximizers' oracle.  The sprinkle's distances are pinned to the flat
product's ``sqrt(dt * dt + dx * dx)`` and its bulk draws to
``random.Random.random``.
"""

import bisect
import math
import pickle
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_lab import chains, core, sampling
from lorentz_lab.chains import CausalChain, MaximizerResult, maximize_tau
from lorentz_lab.comparison import SpaceTriangle
from lorentz_lab.core import (EPS, AxiomCheck, FiniteLorentzSpace,
                              PreconditionError, StructuralError,
                              ValidationReport, metric_defect,
                              validate_axioms)
from lorentz_lab.models import minkowski_space, tau_minkowski
from lorentz_lab.sampling import (finite_triangles, flat_finite_space,
                                  sprinkle_causal_set)
from lorentz_lab.splitting import check_slice_alexandrov, slice_from_table

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


def maximize_tau_loops(space, source, target):
    """The former ``maximize_tau``: dictionaries keyed by the vertices
    relaxed so far, one ``space.tau`` call per relation, in the
    smallest-vertex-first order of ``topological_order_loops``."""
    if source == target:
        raise PreconditionError("endpoints must be distinct")
    if not space.leq(source, target):
        raise PreconditionError(f"points {source} and {target} are not related")
    check_causal_loops(space)
    order, succ = topological_order_loops(space)
    best = {target: 0.0}
    ways = {target: 1}
    for v in reversed(order):
        if v == target or not space.leq(v, target):
            continue
        b = -math.inf
        w = 0
        for u in succ[v]:
            if u not in best:
                continue
            cand = space.tau(v, u) + best[u]
            if cand > b + EPS:
                b, w = cand, ways[u]
            elif abs(cand - b) <= EPS:
                w += ways[u]
        best[v] = b
        ways[v] = w
    value = best[source]
    chain = [source]
    v = source
    remaining = value
    while v != target:
        for u in succ[v]:
            if u in best and abs(space.tau(v, u) + best[u] - remaining) \
                    <= EPS * (1 + len(chain)):
                chain.append(u)
                remaining -= space.tau(v, u)
                v = u
                break
        else:
            raise AssertionError("optimal chain reconstruction failed")
    return MaximizerResult(value, CausalChain(tuple(chain)), ways[source])


def level_order_loops(space):
    """Kahn's algorithm by levels: each round takes every vertex left
    without predecessors, in increasing index order, then removes their
    relations (the order ``chains._topological_order`` returns)."""
    n = space.n
    succ = [[j for j in range(n) if j != i and space.leq(i, j)] for i in range(n)]
    indeg = [0] * n
    for i in range(n):
        for j in succ[i]:
            indeg[j] += 1
    placed = [False] * n
    order = []
    ready = [i for i in range(n) if indeg[i] == 0]
    while ready:
        order.extend(ready)
        for i in ready:
            placed[i] = True
            for j in succ[i]:
                indeg[j] -= 1
        ready = [i for i in range(n) if not placed[i] and indeg[i] == 0]
    if len(order) != n:
        raise PreconditionError("non-causal space: leq is cyclic")
    return order, succ


def smallest_first_order(space):
    """The order of ``topological_order_loops`` (smallest ready vertex
    first), the return shape of ``chains._topological_order``: a different
    order, so a space maximized with it checks that the maximizers do not
    depend on which topological order they run in."""
    return topological_order_loops(space)[0]


def unpacked(start, targets, weights):
    """The successor lists packed by ``chains._successors``, and their
    weights as one array."""
    return [targets[a:b].tolist() for a, b in zip(start, start[1:])], weights


def successor_weights(space, succ):
    """``tau[v, u]`` of every successor u of every v, in packed order."""
    return np.array([space._tau[v, u] for v, row in enumerate(succ)
                     for u in row], dtype=float)


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
        raise PreconditionError("space contains no usable timelike triangles")
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


def sprinkle_causal_set_loops(n, seed, weighted=True):
    # points through the module, so that a test can plant its own
    pts = sampling.sprinkle_points(n, seed)
    rng = random.Random(seed + 10_000)
    d = np.zeros((n, n))
    leq = np.zeros((n, n), dtype=bool)
    ll = np.zeros((n, n), dtype=bool)
    tau = np.zeros((n, n))
    for i, p in enumerate(pts):
        leq[i, i] = True
        for j, q in enumerate(pts):
            if i == j:
                continue
            dt, dx = q[0] - p[0], q[1] - p[1]
            d[i, j] = max(math.sqrt(dt * dt + dx * dx), 1e-6)
            if q[0] - p[0] >= abs(q[1] - p[1]) and q != p:
                leq[i, j] = True
                ll[i, j] = q[0] - p[0] > abs(q[1] - p[1])
                if ll[i, j]:
                    tau[i, j] = rng.uniform(0.05, 2.0) if weighted \
                        else tau_minkowski(p, q)
    # symmetrize d deterministically
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return FiniteLorentzSpace(d, leq, ll, tau)


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


def planted(space, axiom, pick, rows=None):
    """The table with one violation of a cubic axiom planted at a triple
    chosen by ``pick`` (an index into the candidate triples), or one at
    each first index in ``rows``, with the other two indices above it."""
    n = space.n
    d, leq, ll, tau = (np.array(a) for a in
                       (space._d, space._leq, space._ll, space._tau))
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
               if len({i, j, k}) == 3]
    if rows is not None:
        triples = [t for t in triples if t[0] in rows and t[0] < min(t[1:])]
    if axiom in ("leq transitive", "reverse triangle inequality"):
        triples = [t for t in triples if leq[t[0], t[1]] and leq[t[1], t[2]]]
    elif axiom == "ll transitive":
        triples = [t for t in triples if ll[t[0], t[1]] and ll[t[1], t[2]]]
    if not triples:
        return space
    if rows is None:
        chosen = [triples[pick % len(triples)]]
    else:
        chosen = [next(t for t in triples if t[0] == r) for r in rows]
    for i, j, k in chosen:
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

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("axiom", CUBIC_AXIOMS)
    def test_block_boundaries(self, axiom, block):
        """With ``PAIR_BLOCK`` at ``block`` · n², the cubic scans take
        ``block`` first indices per pass.  A violation in the last row of
        the second block, in the first row of the third, or in both, is
        found there and reported as the loops report it."""
        n = 10
        # a timelike zigzag: every pair is related, so every row below the
        # last two holds triples of every kind
        zigzag = [(float(i), 0.3 * (-1) ** i) for i in range(n)]
        with mock.patch.object(sampling, "sprinkle_points",
                               lambda n, seed: zigzag):
            flat = flat_finite_space(n, 0)
        last, first = 2 * block - 1, 2 * block
        with mock.patch.object(core, "PAIR_BLOCK", block * n * n):
            for rows in ([last], [first], [last, first]):
                space = planted(flat, axiom, 0, rows)
                report = validate_axioms(space)
                assert report[axiom].witness[0] == rows[0]
                assert report == validate_axioms_loops(space)

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


def maximize_all(space, maximize=maximize_tau):
    """Every related pair's maximizer result, or its error."""
    return [outcome(maximize, space, p, q)
            for p in range(space.n) for q in range(space.n)
            if p != q and space.leq(p, q)]


def relaxed_kinds(space, pairs=None):
    """The kinds of vertex set that ``maximize_tau`` relaxes over the
    related pairs (every one by default), each result checked against the
    loop oracle: "diamond" when the source–target diamond is relaxed and
    is smaller than the target's past, "past" when the past is relaxed and
    the diamond is smaller, "same" when the two coincide."""
    kinds = set()
    relaxed = chains._relaxed_vertices

    def spy(leq, source, target):
        mask = relaxed(leq, source, target)
        past = leq[:, target].copy()
        past[target] = True
        diamond = past & leq[source]
        diamond[source] = True
        if (diamond == past).all():
            kinds.add("same")
        else:
            kinds.add("past" if (mask == past).all() else "diamond")
            assert (mask == past).all() or (mask == diamond).all()
        return mask

    if pairs is None:
        pairs = [(p, q) for p in range(space.n) for q in range(space.n)
                 if p != q and space.leq(p, q)]
    with mock.patch.object(chains, "_relaxed_vertices", spy):
        got = [outcome(maximize_tau, space, p, q) for p, q in pairs]
    assert got == [outcome(maximize_tau_loops, space, p, q) for p, q in pairs]
    return kinds


def widest_pair(space):
    """A related pair with many points between it: the point with the most
    successors and, among those, the one with the most predecessors."""
    leq = space.leq_table()
    i = int(np.argmax(np.count_nonzero(leq, axis=1)))
    j = int(np.argmax(np.where(leq[i], np.count_nonzero(leq, axis=0), -1)))
    return i, j


def irreflexive_dag(n, seed):
    """``random_dag`` with leq False on the diagonal."""
    space = random_dag(n, seed)
    return FiniteLorentzSpace(space._d, space._leq & ~np.eye(n, dtype=bool),
                              space._ll, space._tau)


class TestChainScansMatchLoops:
    @settings(max_examples=40, deadline=None)
    @given(n=SIZES, seed=SEEDS,
           kind=st.sampled_from(["flat", "weighted", "dag", "irreflexive"]))
    def test_order_and_maximizers(self, n, seed, kind):
        if kind in ("flat", "weighted"):
            space = sprinkle_causal_set(n, seed, kind == "weighted")
        else:
            space = (random_dag if kind == "dag" else irreflexive_dag)(n, seed)
        order, succ = level_order_loops(space)
        assert chains._topological_order(space) == order
        targets, weights = unpacked(*chains._successors(space))
        assert targets == succ
        assert weights.tobytes() == successor_weights(space, succ).tobytes()
        got = maximize_all(space)
        assert got == maximize_all(space, maximize_tau_loops)
        # a fresh instance, since a space keeps the order of its first
        # maximization
        twin = FiniteLorentzSpace(space._d, space._leq, space._ll, space._tau)
        with mock.patch.object(chains, "_topological_order",
                               smallest_first_order), \
                mock.patch.object(chains, "_check_causal", check_causal_loops):
            want = maximize_all(twin)
        assert got == want

    @pytest.mark.parametrize("kind, kinds", [
        ("flat", {"diamond", "same"}),
        ("weighted", {"diamond", "same"}),
        ("dag", {"diamond", "past", "same"}),
    ])
    def test_both_diamond_branches(self, kind, kinds):
        """The generators of ``test_order_and_maximizers`` reach both
        branches of ``_relaxed_vertices``: a sprinkle's order is transitive,
        so its diamonds are closed and some are smaller than the past; a
        random DAG is not, and some of its diamonds have a relation leaving
        them, so the whole past is relaxed."""
        seen = set()
        for seed in range(3):
            space = random_dag(12, seed) if kind == "dag" else \
                sprinkle_causal_set(12, seed, kind == "weighted")
            seen |= relaxed_kinds(space)
        assert seen == kinds

    def test_relation_leaving_the_diamond(self):
        """0 < 1 < 2 < 3 with 0 and 2 unrelated: the longest chain from 0
        to 3 runs through 2, outside the diamond {0, 1, 3}."""
        leq = np.eye(4, dtype=bool)
        for i, j in [(0, 1), (1, 2), (2, 3), (1, 3), (0, 3)]:
            leq[i, j] = True
        space = FiniteLorentzSpace(np.ones((4, 4)) - np.eye(4), leq,
                                   leq & ~np.eye(4, dtype=bool),
                                   (leq & ~np.eye(4, dtype=bool)).astype(float))
        assert relaxed_kinds(space, [(0, 3)]) == {"past"}
        assert maximize_tau(space, 0, 3) == \
            MaximizerResult(3.0, CausalChain((0, 1, 2, 3)), 1)

    def test_irreflexive_source(self):
        """With ``leq[source, source]`` False the source is still relaxed:
        left out of its own diamond, its value would read as 0."""
        space = three_chain(t02=1.5)
        irreflexive = FiniteLorentzSpace(
            space._d, space._leq & ~np.eye(3, dtype=bool), space._ll,
            space._tau)
        want = MaximizerResult(2.0, CausalChain((0, 1, 2)), 1)
        assert maximize_tau(irreflexive, 0, 2) == want
        assert maximize_tau_loops(irreflexive, 0, 2) == want
        assert relaxed_kinds(irreflexive) == {"diamond", "same"}

    def test_longest_chain_of_a_large_product_order(self):
        """1000 points uniform in the unit square of light-cone coordinates
        (u, v) under the product order, with unit weights on strict
        relations, between the corners (0, 0) and (1, 1): the longest chain
        steps through a longest increasing run of v in u order (patience
        sorting), so its value is that run's length plus 1, and it
        increases in both coordinates."""
        m = 1000
        rng = np.random.default_rng(7)
        uv = np.vstack([[0.0, 0.0], rng.random((m, 2)), [1.0, 1.0]])
        u, v = uv[:, 0], uv[:, 1]
        leq = (u[:, None] <= u) & (v[:, None] <= v)
        strict = leq & ~np.eye(m + 2, dtype=bool)
        space = FiniteLorentzSpace(np.ones(leq.shape), leq, strict,
                                   strict.astype(float))
        piles = []
        for k in np.argsort(u[1:-1]).tolist():
            at = bisect.bisect_left(piles, v[1 + k])
            piles[at:at + 1] = [v[1 + k]]
        result = maximize_tau(space, 0, m + 1)
        assert result.value == len(piles) + 1
        chain = list(result.chain.points)
        assert len(chain) == len(piles) + 2
        assert chain[0] == 0 and chain[-1] == m + 1
        assert (np.diff(u[chain]) > 0).all() and (np.diff(v[chain]) > 0).all()

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
            outcome(level_order_loops, cyclic)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 12), seed=SEEDS,
           length=st.one_of(st.just(2), st.integers(3, 12)),
           pick=st.integers(0, 10_000))
    def test_planted_cycles(self, n, seed, length, pick):
        """A cycle planted in a random DAG: ``length`` vertices drawn by
        ``pick``, related in the DAG's rank order and the last back to the
        first.  A 2-cycle is named on every call, a longer
        cycle (with the forward relation from the first to the last
        vertex dropped, so that no 2-cycle arises) reads "leq is cyclic",
        and every pair's outcome is the loop oracle's."""
        space = random_dag(n, seed)
        leq = np.array(space._leq)
        # random_dag relates vertices in the order of its rank permutation
        rank = np.random.default_rng(seed).permutation(n)
        cycle = sorted(random.Random(pick).sample(range(n), min(length, n)),
                       key=lambda v: rank[v])
        for a, b in zip(cycle, cycle[1:]):
            leq[a, b] = True
        if len(cycle) > 2:
            leq[cycle[0], cycle[-1]] = False
        leq[cycle[-1], cycle[0]] = True
        cyclic = FiniteLorentzSpace(space._d, leq, space._ll, space._tau)
        pairs = [(p, q) for p in range(n) for q in range(n)]
        got = [outcome(maximize_tau, cyclic, p, q) for p, q in pairs]
        assert got == [outcome(maximize_tau_loops, cyclic, p, q)
                       for p, q in pairs]
        refusals = {message for kind, message in got
                    if message.startswith("non-causal")}
        if len(cycle) == 2:
            assert refusals == {"non-causal space: leq has a 2-cycle between "
                                f"{min(cycle)} and {max(cycle)}"}
        else:
            assert refusals == {"non-causal space: leq is cyclic"}

    def test_first_maximization_memory(self):
        """A first maximization at n = 800 keeps 12 bytes per relation (the
        int32 targets and float64 weights of ``_successors``) besides the
        order and the row starts, and its traced peak is what it keeps plus
        the larger of one row block's temporaries (an int64 index and a
        bool copy per entry) and what a second maximization of the same
        pair takes.  The former order, an int64 ``np.nonzero`` of a strict
        copy of ``leq``, peaked about 400 KB above that."""
        n = 800
        space = sprinkle_causal_set(n, 1)
        relations = int(np.count_nonzero(space.leq_table())) - n
        i, j = widest_pair(space)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            maximize_tau(space, i, j)
            kept, first = (v - base for v in tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            maximize_tau(space, i, j)
            second = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert kept <= 12 * relations + 64 * n
        assert first <= kept + max(9 * chains.PAIR_BLOCK, second)


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


    def test_no_triangle_is_a_precondition(self):
        # three points, one timelike pair: no timelike triple
        space = FiniteLorentzSpace(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
            [[True, True, False], [False, True, False], [False, False, True]],
            [[False, True, False], [False, False, False], [False] * 3],
            [[0.0, 1.0, 0.0], [0.0] * 3, [0.0] * 3])
        with pytest.raises(PreconditionError,
                           match="no usable timelike triangles"):
            finite_triangles(space, 5, 0)

    def test_only_preconditions_are_skipped(self):
        def broken(*vertices):
            raise RuntimeError("not a precondition")

        with mock.patch.object(sampling, "SpaceTriangle", broken):
            with pytest.raises(RuntimeError, match="not a precondition"):
                finite_triangles(flat_finite_space(8, 0), 3, 0)


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

    def test_one_scan_per_slice(self):
        # the slice keeps its defect: two validations and the curvature
        # check scan its table once; the table is a read-only copy, so the
        # kept defect cannot go stale
        x = np.array([0.0, 0.5, 1.25, 2.0, 3.5])
        d = np.abs(x[:, None] - x[None, :])
        sl = slice_from_table(range(len(x)), d)
        with mock.patch("lorentz_lab.splitting.metric_defect",
                        wraps=metric_defect) as scan:
            assert sl.validate_metric(EPS) == (True, 0.0)
            assert sl.validate_metric(-1.0) == (False, 0.0)
            check_slice_alexandrov(sl)
        assert scan.call_count == 1
        d[0, 1] = 9.0
        assert sl.validate_metric(EPS) == (True, 0.0)
        with pytest.raises(ValueError):
            sl.d_S[0, 1] = 9.0


# ---------------------------------------------------------------------------
# sprinkle_causal_set


def table_bytes(space):
    return [(a.dtype, a.shape, a.tobytes())
            for a in (space._d, space._leq, space._ll, space._tau)]


# coordinates on a coarse grid, so that coincident points, equal times and
# exact light-cone ties (0.3 - 0.1 against 0.2 included) all occur
GRID = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0])


class TestSprinkleMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 40), seed=SEEDS, weighted=st.booleans(),
           block=st.sampled_from([1, 7, chains.PAIR_BLOCK]))
    def test_sprinkles(self, n, seed, weighted, block):
        with mock.patch.object(chains, "PAIR_BLOCK", block):
            got = sprinkle_causal_set(n, seed, weighted)
        assert table_bytes(got) == \
            table_bytes(sprinkle_causal_set_loops(n, seed, weighted))

    @pytest.mark.parametrize("weighted", [True, False])
    def test_two_hundred_points(self, weighted):
        want = table_bytes(sprinkle_causal_set_loops(200, 5, weighted))
        for block in (1, 7, chains.PAIR_BLOCK):
            with mock.patch.object(chains, "PAIR_BLOCK", block):
                assert table_bytes(sprinkle_causal_set(200, 5, weighted)) == want

    def test_flat_finite_space(self):
        assert table_bytes(flat_finite_space(60, 11)) == \
            table_bytes(sprinkle_causal_set_loops(60, 11, weighted=False))

    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_distances_are_the_flat_products(self, n):
        """A sprinkle's distances are the flat product's ``d_array`` over
        its points, bit for bit, clamped at 1e-6 off the diagonal."""
        flat = minkowski_space(x_min=-2.0, x_max=2.0)
        i, j = np.indices((n, n))
        for seed in range(5):
            want = flat.d_array(sampling.sprinkle_points(n, seed), i, j)
            np.maximum(want, 1e-6, out=want)
            np.fill_diagonal(want, 0.0)
            assert flat_finite_space(n, seed)._d.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(pts=st.lists(st.tuples(GRID, GRID), max_size=14), seed=SEEDS,
           weighted=st.booleans(), block=st.sampled_from([1, 7, 40]))
    def test_planted_ties(self, pts, seed, weighted, block):
        with mock.patch.object(sampling, "sprinkle_points",
                               lambda n, seed: pts), \
                mock.patch.object(chains, "PAIR_BLOCK", block):
            got = sprinkle_causal_set(len(pts), seed, weighted)
            want = sprinkle_causal_set_loops(len(pts), seed, weighted)
        assert table_bytes(got) == table_bytes(want)

    @pytest.mark.parametrize("n", [400, 800])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_peak_memory(self, n, weighted):
        """The space takes the sprinkle's tables without a copy and builds
        its distance table only when it is read, so the peak is the three
        other tables once, the largest block's rows with their
        temporaries, and at most 64 KiB for the points and the draw
        generator, a quarter of one block-sized float64 array.  (When the
        constructor copied the tables, the weighted sprinkle peaked at
        5 934 850 and 23 701 250 bytes at n = 400 and 800, each measured in
        a fresh process.)"""
        with mock.patch.object(sampling, "_sprinkle_rows",
                               wraps=sampling._sprinkle_rows) as spy:
            space = sprinkle_causal_set(n, 1, weighted)
        filled = (space._leq, space._ll, space._tau)
        tables = sum(a.nbytes for a in filled)
        draws = sampling._random_stream(random.Random(10_001)) \
            if weighted else None
        # the space's tables are read-only: the blocks are filled again
        # into copies made before tracing starts
        copies = [np.array(a) for a in filled]
        del space, filled
        tracemalloc.start()
        try:
            block = 0
            for call in spy.call_args_list:
                t, x, rows = call.args[:3]
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                sampling._sprinkle_rows(t, x, rows, draws, *copies)
                block = max(block, tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.reset_peak()
            sprinkle_causal_set(n, 1, weighted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tables + block + 65536


class TestDeferredDistances:
    """A sprinkle builds its distance table on the first read of it, from
    the points it keeps; longest-chain work never reads it."""

    def test_maximization_builds_no_distances(self):
        with mock.patch.object(sampling, "_product_d_array",
                               wraps=sampling._product_d_array) as kernel:
            space = sprinkle_causal_set(300, 2)
            i, j = widest_pair(space)
            assert maximize_tau(space, i, j) == maximize_tau_loops(space, i, j)
            assert kernel.call_count == 0
            space._d
            assert kernel.call_count > 0

    @pytest.mark.parametrize("weighted", [True, False])
    def test_first_read_builds_once(self, weighted):
        with mock.patch.object(sampling, "_product_d_array",
                               wraps=sampling._product_d_array) as kernel:
            space = sprinkle_causal_set(60, 3, weighted)
            d = space._d
            built = kernel.call_count
            assert space._d is d and not d.flags.writeable
            space.d(0, 1), space.d_array(range(60), [0], [1])
            validate_axioms(space)
            assert space._d is d and kernel.call_count == built
        assert d.tobytes() == sprinkle_causal_set_loops(60, 3, weighted)._d.tobytes()

    def test_unread_sprinkle_pickles(self):
        space = sprinkle_causal_set(30, 4)
        copy = pickle.loads(pickle.dumps(space))
        assert "_d" not in vars(copy)
        assert table_bytes(copy) == table_bytes(space)

    def test_built_table_is_checked(self):
        n = 3
        nan = np.zeros((n, n))
        nan[-1, -1] = np.nan
        space = FiniteLorentzSpace._of_own_tables(
            lambda: nan, np.eye(n, dtype=bool), np.zeros((n, n), dtype=bool),
            np.zeros((n, n)))
        with pytest.raises(StructuralError,
                           match="NaN entries are not permitted"):
            space._d

    def test_sprinkle_memory(self):
        """A weighted sprinkle of 800 points traces below 12 bytes per pair:
        10 for ``leq``, ``ll`` and ``tau`` and the rest for one block's
        temporaries.  With its distance table it peaked at 19.06."""
        n = 800
        tracemalloc.start()
        try:
            sprinkle_causal_set(n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * n * n


class TestRandomStreamMatchesRandom:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, skip=st.integers(0, 1500),
           blocks=st.lists(st.integers(0, 700), max_size=8))
    def test_blocks(self, seed, skip, blocks):
        """Blocks of draws, from states part-way through the 624-word
        buffer, continue ``rng.random()`` across every refill, and
        ``rng`` itself does not advance."""
        rng = random.Random(seed)
        for _ in range(skip):
            rng.random()
        stream = sampling._random_stream(rng)
        got = np.concatenate([np.zeros(0)] + [stream.random(k) for k in blocks])
        want = np.array([rng.random() for _ in range(sum(blocks))], dtype=float)
        assert got.tobytes() == want.tobytes()
