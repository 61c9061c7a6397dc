"""Causal chains: discrete stand-ins for causal curves.

A chain is an ordered point sequence with consecutive points causally
related.  Its time-separation length is the sum over consecutive pairs; by
the reverse triangle inequality that sum never exceeds the endpoint
separation, and maximizing chains are those attaining it.  The chain
optimizer below computes the exact longest-chain value over a finite causal
table by dynamic programming; an exhaustive enumerator serves as its oracle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import (EPS, FiniteLorentzSpace, LorentzQuery, PreconditionError,
                   _first)

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class CausalChain:
    points: tuple
    direction: str = "future"

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 2:
            raise PreconditionError("a chain needs at least two points")
        if self.direction not in ("future", "past"):
            raise PreconditionError(f"bad direction {self.direction!r}")

    def __len__(self):
        return len(self.points)

    def pairs(self):
        return zip(self.points, self.points[1:])


def validate_chain(space: LorentzQuery, chain: CausalChain):
    """Raise unless consecutive points are causally related in the stated
    direction and the chain is non-constant."""
    fwd = chain.direction == "future"
    nonconstant = False
    for a, b in chain.pairs():
        x, y = (a, b) if fwd else (b, a)
        if not space.leq(x, y):
            raise PreconditionError(f"chain step {a} -> {b} is not causal")
        if a != b:
            nonconstant = True
    if not nonconstant:
        raise PreconditionError("chain is constant")


@dataclass(frozen=True)
class ChainLengths:
    tau_length: float
    d_length: float


def chain_lengths(space: LorentzQuery, chain: CausalChain) -> ChainLengths:
    validate_chain(space, chain)
    fwd = chain.direction == "future"
    tau_total = 0.0
    d_total = 0.0
    for a, b in chain.pairs():
        x, y = (a, b) if fwd else (b, a)
        tau_total += space.tau(x, y)
        d_total += space.d(x, y)
    first, last = chain.points[0], chain.points[-1]
    x, y = (first, last) if fwd else (last, first)
    if tau_total > space.tau(x, y) + EPS:
        raise PreconditionError(
            "chain sum exceeds endpoint separation; table violates the "
            "reverse triangle inequality")
    return ChainLengths(tau_total, d_total)


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
    # strict relation is a DAG once antisymmetry holds; Kahn's algorithm,
    # always taking the smallest ready vertex
    strict = space.leq_table() & ~np.eye(space.n, dtype=bool)
    succ = [np.flatnonzero(row).tolist() for row in strict]
    indeg = strict.sum(axis=0).tolist()
    ready = [i for i in range(space.n) if indeg[i] == 0]  # sorted, so a heap
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != space.n:
        raise PreconditionError("non-causal space: leq is cyclic")
    return order, succ


def maximize_tau(space: FiniteLorentzSpace, source: int, target: int) -> MaximizerResult:
    """Exact longest-chain time separation from source to target over the DAG
    of the strict causal relation.

    Ties are broken toward the lexicographically smallest chain and the
    number of optimal chains is reported.  Requires an antisymmetric causal
    relation (a causal space); raises when the endpoints are unrelated.
    """
    if source == target:
        raise PreconditionError("endpoints must be distinct")
    if not space.leq(source, target):
        raise PreconditionError(f"points {source} and {target} are not related")
    _check_causal(space)

    order, succ = _topological_order(space)
    # best[v]: longest chain value from v to target, counting chains
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
    # greedy forward walk: smallest next vertex still able to attain the value
    chain = [source]
    v = source
    remaining = value
    while v != target:
        for u in sorted(succ[v]):
            if u in best and abs(space.tau(v, u) + best[u] - remaining) <= EPS * (1 + len(chain)):
                chain.append(u)
                remaining -= space.tau(v, u)
                v = u
                break
        else:
            raise AssertionError("optimal chain reconstruction failed")
    return MaximizerResult(value, CausalChain(tuple(chain)), ways[source])


def brute_force_tau(space: FiniteLorentzSpace, source: int, target: int) -> float:
    """Oracle for maximize_tau: exhaustive enumeration of every causal chain
    from source to target.  Refuses spaces with more than 20 points."""
    if space.n > BRUTE_FORCE_LIMIT:
        raise PreconditionError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} points, got {space.n}")
    if not space.leq(source, target):
        raise PreconditionError(f"points {source} and {target} are not related")
    _check_causal(space)

    best = -math.inf

    def walk(v, acc):
        nonlocal best
        if v == target:
            best = max(best, acc)
            return
        for u in range(space.n):
            if u != v and space.leq(v, u) and space.leq(u, target):
                walk(u, acc + space.tau(v, u))

    walk(source, 0.0)
    return best


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
    so callers can compare against their completeness horizon."""
    validate_chain(space, chain)
    pts = chain.points
    steps = [space.tau(a, b) for a, b in chain.pairs()]
    cum = [0.0]
    for s in steps:
        cum.append(cum[-1] + s)

    # one row i at a time: defect of every pair (i, j > i)
    cum_arr = np.array(cum)
    first_failure = None
    ray_ok = True
    for i in range(len(pts) - 1):
        js = np.arange(1, len(pts) - i)       # pts[i + js] after pts[i]
        defect = np.abs((cum_arr[i + 1:] - cum[i])
                        - space.tau_array(pts[i:], np.zeros_like(js), js))
        bad = defect > tol
        if bad.any():
            # later rows change nothing: the line fails and row 0 settled
            # the ray
            ray_ok = i > 0
            first_failure = (i, i + 1 + int(np.argmax(bad)))
            break
    return LineCheck(ray_ok, first_failure is None, first_failure, cum[-1])


def reparametrize_tau_arclength(space: LorentzQuery, chain: CausalChain):
    """Cumulative time-separation parameters along a timelike chain.

    Returns the list phi with phi[i] the chain length up to knot i; strictly
    increasing.  A null step (consecutive separation zero) is an error since
    the parametrization would degenerate there.
    """
    validate_chain(space, chain)
    params = [0.0]
    for a, b in chain.pairs():
        step = space.tau(a, b)
        if step <= 0.0:
            raise PreconditionError(f"null step {a} -> {b}: cannot parametrize")
        params.append(params[-1] + step)
    return params


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
