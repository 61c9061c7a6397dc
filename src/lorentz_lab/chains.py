"""Causal chains: discrete stand-ins for causal curves.

A chain is an ordered point sequence with consecutive points causally
related.  Its time-separation length is the sum over consecutive pairs; by
the reverse triangle inequality that sum never exceeds the endpoint
separation, and maximizing chains are those attaining it.  The chain
optimizer below computes the exact longest-chain value over a finite causal
table by dynamic programming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import (EPS, PAIR_BLOCK, FiniteLorentzSpace, LorentzQuery,
                   PointTuple, PreconditionError, _first)


@dataclass(frozen=True)
class CausalChain:
    """The points, as a PointTuple: the chain keeps their coordinate arrays
    for the array forms."""
    points: tuple

    def __post_init__(self):
        if not isinstance(self.points, PointTuple):
            object.__setattr__(self, "points", PointTuple(self.points))
        if len(self.points) < 2:
            raise PreconditionError("a chain needs at least two points")

    def __len__(self):
        return len(self.points)

    def pairs(self):
        return zip(self.points, self.points[1:])


def _steps(chain: CausalChain):
    """Index arrays of the chain's consecutive knot pairs."""
    k = np.arange(len(chain.points))
    return k[:-1], k[1:]


def validate_chain(space: LorentzQuery, chain: CausalChain):
    """Raise unless consecutive points are causally related (future
    directed) and the chain is non-constant.  The steps are checked by one
    ``leq_array`` pass; the first non-causal one is reported."""
    pts = chain.points
    causal = space.leq_array(pts, *_steps(chain))
    if not causal.all():
        i = int(np.argmin(causal))
        raise PreconditionError(
            f"chain step {pts[i]} -> {pts[i + 1]} is not causal")
    if all(a == b for a, b in chain.pairs()):
        raise PreconditionError("chain is constant")


@dataclass(frozen=True)
class MaximizerResult:
    value: float
    chain: CausalChain
    tie_count: int


def _check_causal(space: FiniteLorentzSpace):
    leq = space.leq_table()
    hit = _first(np.triu(leq & leq.T, 1))
    if hit is not None:
        raise PreconditionError(
            f"non-causal space: leq has a 2-cycle between {hit[0]} and {hit[1]}")


def _topological_order(space: FiniteLorentzSpace):
    """A topological order of the strict relation (a DAG once antisymmetry
    holds), by Kahn's algorithm one level at a time: each round takes every
    vertex left without predecessors, in increasing index order, and
    removes their relations, reading their rows of ``leq`` at most
    ``max(1, PAIR_BLOCK // n)`` at a time.  The in-degrees are column
    counts less the diagonal, so no copy of ``leq`` without it is made."""
    leq = space.leq_table()
    step = max(1, PAIR_BLOCK // max(space.n, 1))
    indeg = np.count_nonzero(leq, axis=0) - np.diagonal(leq)
    order = []
    ready = np.flatnonzero(indeg == 0)
    while ready.size:
        order += ready.tolist()
        # a ready vertex has no predecessor left, so only its own column
        # takes a diagonal entry here, and it is overwritten below
        for r in range(0, ready.size, step):
            indeg -= np.count_nonzero(leq[ready[r:r + step]], axis=0)
        indeg[ready] = -1
        ready = np.flatnonzero(indeg == 0)
    if len(order) != space.n:
        raise PreconditionError("non-causal space: leq is cyclic")
    return order


def _successors(space: FiniteLorentzSpace):
    """The successor lists of the strict relation, packed: the successors
    of v, in increasing order, are ``targets[start[v]:start[v + 1]]``
    (int32), and ``weights`` holds ``tau[v, u]`` of each (float64), 12
    bytes per relation.  The rows go in blocks of ``max(1, PAIR_BLOCK //
    n)``: a copy of the block with its diagonal cleared, one
    ``flatnonzero`` over it, the weights taken from the block's raveled tau
    rows and the targets as the flat indices modulo n."""
    leq, tau, n = space.leq_table(), space.tau_table(), space.n
    step = max(1, PAIR_BLOCK // max(n, 1))
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(leq, axis=1) - np.diagonal(leq),
              out=start[1:])
    targets = np.empty(start[-1], dtype=np.int32)
    weights = np.empty(start[-1])
    for r in range(0, n, step):
        rows = slice(r, min(n, r + step))
        block = leq[rows].reshape(-1).copy()
        block[r::n + 1] = False   # the diagonal entries of the block's rows
        flat = np.flatnonzero(block)
        packed = slice(start[rows.start], start[rows.stop])
        # every index is in bounds, and "clip" writes into out without the
        # buffer that the default "raise" takes
        np.take(tau[rows].reshape(-1), flat, mode="clip",
                out=weights[packed])
        flat %= n
        targets[packed] = flat
    return start, targets, weights


def _causal_order(space: FiniteLorentzSpace):
    """``_topological_order`` and ``_successors`` of a finite space, run on
    its first maximization and kept on the instance: its tables are
    read-only, so none of this changes.  Only a cyclic relation runs
    ``_check_causal``, so that a 2-cycle, itself a cycle, is named; nothing
    is kept then, and every call refuses alike."""
    if space._causal_order is None:
        try:
            order = _topological_order(space)
        except PreconditionError:
            _check_causal(space)
            raise
        space._causal_order = (order, *_successors(space))
    return space._causal_order


def _relaxed_vertices(leq, source, target):
    """The mask of the vertices ``maximize_tau`` relaxes: the source–target
    diamond (the target and its past within ``leq[source]``, plus the source
    itself, which ``leq[source, source]`` may leave out), unless ``leq``
    relates one of its vertices to a vertex of the target's past outside
    it; then the whole past."""
    past = leq[:, target].copy()
    past[target] = True
    diamond = past & leq[source]
    diamond[source] = True
    if (leq[diamond] & (past & ~diamond)).any():
        return past
    return diamond


def maximize_tau(space: FiniteLorentzSpace, source: int, target: int) -> MaximizerResult:
    """Exact longest-chain time separation from source to target over the DAG
    of the strict causal relation.

    Ties are broken toward the lexicographically smallest chain and the
    number of optimal chains is reported.  Requires an antisymmetric causal
    relation (a causal space); raises when the endpoints are unrelated.

    Only the vertices whose best value is read are relaxed: those of the
    source–target diamond D, the target's past within ``leq[source]`` (the
    source itself included), when no relation leaves D for the rest of the
    target's past; otherwise the whole past.  The value, the tie count and
    the forward walk read only vertices reachable from the source, and when
    no relation leaves D they all lie in D; a transitive ``leq`` always
    closes D.  A few array passes cut the relations into the relaxed
    vertices, with their weights, from the packed successor lists, and the
    relaxation runs over them in reverse topological order, each vertex's
    successors in increasing order, with plain Python numbers and no
    per-relation method or numpy call.
    """
    if source == target:
        raise PreconditionError("endpoints must be distinct")
    if not space.leq(source, target):
        raise PreconditionError(f"points {source} and {target} are not related")
    order, start, targets, weights = _causal_order(space)
    relaxed = _relaxed_vertices(space.leq_table(), source, target)
    kept = np.flatnonzero(relaxed[targets])
    # the successors of v that are relaxed are heads[bounds[v]:bounds[v + 1]];
    # a memoryview yields Python numbers one at a time, so that no list of
    # every relation is built
    bounds = np.searchsorted(kept, start).tolist()
    heads = memoryview(targets[kept])
    weights = memoryview(weights[kept])
    relaxed = relaxed.tolist()

    # best[v]: longest chain value from v to target, counting chains
    best = [0.0] * space.n
    ways = [0] * space.n
    ways[target] = 1
    for v in reversed(order):
        if v == target or not relaxed[v]:
            continue
        b = -math.inf
        w = 0
        lo, hi = bounds[v], bounds[v + 1]
        for u, tv in zip(heads[lo:hi], weights[lo:hi]):
            cand = tv + best[u]
            if cand > b + EPS:
                b, w = cand, ways[u]
            elif abs(cand - b) <= EPS:
                w += ways[u]
        best[v] = b
        ways[v] = w

    value = best[source]
    # greedy forward walk: smallest next vertex still able to attain the value
    chain = [source]
    v = source
    remaining = value
    while v != target:
        lo, hi = bounds[v], bounds[v + 1]
        for u, tv in zip(heads[lo:hi], weights[lo:hi]):
            if abs(tv + best[u] - remaining) <= EPS * (1 + len(chain)):
                chain.append(u)
                remaining -= tv
                v = u
                break
        else:
            raise AssertionError("optimal chain reconstruction failed")
    return MaximizerResult(value, CausalChain(tuple(chain)), ways[source])


@dataclass(frozen=True)
class LineCheck:
    is_ray: bool
    is_line: bool
    first_failure: tuple | None
    tau_length: float


def is_line(space: LorentzQuery, chain: CausalChain, tol: float = EPS) -> LineCheck:
    """A chain is a line when the time separation is additive between every
    index pair, and a ray when additivity holds from the first point onward.
    The first failing pair (if any) is reported; total tau-length is returned
    so callers can compare against their completeness horizon.

    The pairs (i, j > i) are scanned in bands of whole rows, rows[:, None]
    against the columns after the band's first row, of at most
    ``max(PAIR_BLOCK, one row)`` entries, so memory stays bounded however
    long the chain; the scan stops at the first band holding a failure,
    and the band's row-major first failure is the first."""
    validate_chain(space, chain)
    pts = chain.points
    n = len(pts)
    k = np.arange(n)
    cum = np.array(list(accumulate(
        space.tau_array(pts, k[:-1], k[1:]).tolist(), initial=0.0)))
    i0 = 0
    while i0 < n - 1:
        cols = k[i0 + 1:]
        rows = k[i0:min(n - 1, i0 + max(1, PAIR_BLOCK // len(cols)))]
        ii, jj = rows[:, None], cols[None, :]
        # an infinite separation makes inf - inf, which fails no pair
        with np.errstate(invalid="ignore"):
            bad = ((np.abs((cum[jj] - cum[ii]) - space.tau_array(pts, ii, jj))
                    > tol) & (jj > ii))
        if bad.any():
            # later pairs change nothing: the line fails, and a failure in
            # row 0 comes first, so the first row settles the ray
            r, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
            i, j = int(rows[r]), int(cols[c])
            return LineCheck(i > 0, False, (i, j), float(cum[-1]))
        i0 += len(rows)
    return LineCheck(True, True, None, float(cum[-1]))


def reparametrize_tau_arclength(space: LorentzQuery, chain: CausalChain):
    """Cumulative time-separation parameters along a timelike chain.

    Returns the list phi with phi[i] the chain length up to knot i; strictly
    increasing.  A null step (consecutive separation zero) is an error since
    the parametrization would degenerate there.
    """
    validate_chain(space, chain)
    return _arclength(chain.points,
                      space.tau_array(chain.points, *_steps(chain)))


def _arclength(points, steps):
    """The cumulative sums, from 0.0, of the array ``steps`` of separations
    between consecutive ``points``; raises at the first null step."""
    if (steps <= 0.0).any():
        i = int(np.argmax(steps <= 0.0))
        a, b = points[i], points[i + 1]
        raise PreconditionError(f"null step {a} -> {b}: cannot parametrize")
    return list(accumulate(steps.tolist(), initial=0.0))


def check_nonbranching(space: LorentzQuery, chains, tol: float = EPS):
    """Scan pairs of maximizing timelike chains between identical endpoints:
    report any pair sharing a nontrivial initial segment but differing later.
    Under a lower curvature bound the returned list must be empty."""
    maximal = []
    for ch in chains:
        lc = is_line(space, ch, tol)
        if lc.is_line:
            maximal.append(ch)
    violations = []
    for i, a in enumerate(maximal):
        for b in maximal[i + 1:]:
            if a.points[0] != b.points[0] or a.points[-1] != b.points[-1]:
                continue
            shared = 0
            for pa, pb in zip(a.points, b.points):
                if pa != pb:
                    break
                shared += 1
            if shared >= 2 and (len(a.points) != len(b.points)
                                or a.points != b.points):
                violations.append((a, b, shared))
    return violations
