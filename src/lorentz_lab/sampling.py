"""Seeded generators for random spaces, triangles, hinges and chains.

Everything here is deterministic given its seed; these feed both the test
suite and the command-line samplers.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .core import FiniteLorentzSpace
from .chains import CausalChain
from .comparison import Leg, SpaceTriangle
from .models import ProductSpace, tau_minkowski


def sprinkle_points(n, seed):
    """n points drawn uniformly from the box [-2, 2] x [-2, 2]."""
    rng = random.Random(seed)
    return [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]


def sprinkle_causal_set(n, seed, weighted=True) -> FiniteLorentzSpace:
    """Random causal set: points sprinkled into a flat box with the induced
    order.  With ``weighted`` the separations of related pairs are drawn
    uniformly (a pure longest-chain instance, not required to satisfy the
    reverse triangle inequality); otherwise the flat separations are kept
    and every axiom holds."""
    pts = sprinkle_points(n, seed)
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
            d[i, j] = max(math.hypot(q[0] - p[0], q[1] - p[1]), 1e-6)
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


def flat_finite_space(n, seed) -> FiniteLorentzSpace:
    """Axiom-valid random space: sprinkled points with flat separations."""
    return sprinkle_causal_set(n, seed, weighted=False)


def _random_future_step(rng, min_tau=0.3, max_tau=1.5, max_rapidity=1.0):
    a = rng.uniform(min_tau, max_tau)
    phi = rng.uniform(-max_rapidity, max_rapidity)
    return a * math.cosh(phi), a * math.sinh(phi)


def minkowski_triangles(space, count, seed):
    """Random timelike triangles in a flat product: two independent future
    steps from a random base point, factor coordinates folded into the
    segment."""
    if not hasattr(space.factor, "lo"):
        raise ValueError("triangle sampler needs a segment-like factor")
    rng = random.Random(seed)
    lo = space.factor.lo
    hi = space.factor.hi
    out = []
    while len(out) < count:
        t0 = rng.uniform(space.t_min, 0.0)
        x0 = rng.uniform(lo, hi)
        dt1, dx1 = _random_future_step(rng)
        dt2, dx2 = _random_future_step(rng)
        x = (t0, x0)
        y = (t0 + dt1, x0 + dx1)
        z = (t0 + dt1 + dt2, x0 + dx1 + dx2)
        if not (lo <= y[1] <= hi and lo <= z[1] <= hi):
            continue
        if space.ll(x, y) and space.ll(y, z) and space.ll(x, z):
            out.append(SpaceTriangle(space, x, y, z))
    return out


def product_hinges(space, count, seed):
    """Random hinges: a base point with two timelike legs, alternating
    between mixed time orientation and both future."""
    rng = random.Random(seed)
    lo, hi = space.factor.lo, space.factor.hi
    out = []
    while len(out) < count:
        x = (rng.uniform(-1.0, 1.0), rng.uniform(lo, hi))
        dt1, dx1 = _random_future_step(rng)
        dt2, dx2 = _random_future_step(rng)
        if len(out) % 2 == 0:
            tip_a = (x[0] - dt1, x[1] - dx1)
        else:
            tip_a = (x[0] + dt1, x[1] + dx1)
        tip_b = (x[0] + dt2, x[1] + dx2)
        if not (lo <= tip_a[1] <= hi and lo <= tip_b[1] <= hi):
            continue
        if space.d(tip_a, tip_b) <= 1e-9:
            continue
        out.append((Leg(space, x, tip_a), Leg(space, x, tip_b)))
    return out


def random_realizer_chain(space: ProductSpace, seed):
    """Random timelike maximizer chain of seven knots inside the product
    window."""
    rng = random.Random(seed)
    lo, hi = space.factor.lo, space.factor.hi
    while True:
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        t0 = rng.uniform(space.t_min, space.t_min + 1.0)
        dt = abs(b - a) * rng.uniform(1.2, 3.0) + rng.uniform(0.5, 1.5)
        p, q = (t0, a), (t0 + dt, b)
        if space.ll(p, q):
            return CausalChain(tuple(space.realizer(p, q, 7)))


def perturb_chain(space: ProductSpace, chain: CausalChain, seed):
    """Replace the interior of a maximizer by a near-null detour through a
    displaced midpoint, so that additivity fails by more than three grid
    meshes (beyond the diagnosis tolerance) while both steps stay causal."""
    min_defect = 3.0 * space.mesh
    rng = random.Random(seed)
    p, q = chain.points[0], chain.points[-1]
    lo, hi = space.factor.lo, space.factor.hi
    dt = q[0] - p[0]
    total = space.tau(p, q)
    signs = [1, -1] if rng.random() < 0.5 else [-1, 1]
    best = None
    # push the midpoint toward a corner of the causal diamond of (p, q),
    # where both legs go null and the chain sum collapses
    for margin_frac in (0.02, 0.05, 0.1, 0.2, 0.3):
        margin = margin_frac * dt
        for sign in signs:
            corner = (p[1] + q[1] + sign * dt) / 2.0
            xm = min(max(corner - sign * margin, lo), hi)
            lo_t = p[0] + abs(xm - p[1])
            hi_t = q[0] - abs(q[1] - xm)
            if hi_t - lo_t <= 1e-12:
                continue
            span = hi_t - lo_t
            for tm in (lo_t + 0.05 * span, lo_t + 0.25 * span,
                       lo_t + 0.5 * span, hi_t - 0.25 * span,
                       hi_t - 0.05 * span):
                cand = (p, (tm, xm), q)
                if not all(space.leq(a, b) for a, b in zip(cand, cand[1:])):
                    continue
                tau_sum = sum(space.tau(a, b) for a, b in zip(cand, cand[1:]))
                if total - tau_sum > min_defect:
                    return CausalChain(cand)
    raise RuntimeError("could not build a perturbed chain with a large defect")


def spanning_timelike_chains(space: ProductSpace, count, seed):
    """Zigzag timelike chains crossing the whole time window in steps of
    about 0.5."""
    rng = random.Random(seed)
    t_lo, t_hi, step = space.t_min, space.t_max, 0.5
    lo, hi = space.factor.lo, space.factor.hi
    chains = []
    for c in range(count):
        t = t_lo - step
        x = rng.uniform(lo, hi)
        pts = [(t, x)]
        while t < t_hi + step:
            dt = step * rng.uniform(0.8, 1.2)
            dx = rng.uniform(-0.9, 0.9) * dt
            x = min(max(x + dx, lo), hi)
            t = t + dt
            pts.append((t, x))
        chains.append(CausalChain(tuple(pts)))
    return chains


def finite_triangles(space: FiniteLorentzSpace, count, seed):
    """Timelike triangles of a table space: vertex triples that are pairwise
    timelike related and admit maximizing side chains."""
    rng = random.Random(seed)
    ll = space._ll
    triples = []
    for i in range(space.n):
        # [j, k] of row i: ll[i, j] and ll[j, k] and ll[i, k]
        hits = np.argwhere(ll[i, :, None] & ll & ll[i, None, :])
        triples.extend((i, j, k) for j, k in hits.tolist())
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


def random_causal_chain(space: ProductSpace, seed):
    """Random future-directed causal chain (not necessarily maximizing) of
    two to nine steps."""
    rng = random.Random(seed)
    lo, hi = space.factor.lo, space.factor.hi
    t = rng.uniform(space.t_min, 0.0)
    x = rng.uniform(lo, hi)
    pts = [(t, x)]
    for _ in range(rng.randrange(2, 10)):
        dt = rng.uniform(0.05, 0.6)
        dx = rng.uniform(-1.0, 1.0) * dt
        x = min(max(x + dx, lo), hi)
        t += dt
        pts.append((t, x))
    return CausalChain(tuple(pts))
