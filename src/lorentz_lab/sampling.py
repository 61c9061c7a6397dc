"""Seeded generators for random spaces, triangles, hinges and chains.

Everything here is deterministic given its seed; these feed both the test
suite and the command-line samplers.
"""

from __future__ import annotations

import math
import random
from functools import partial

import numpy as np

from .core import FiniteLorentzSpace, PreconditionError
from . import chains
from .chains import CausalChain
from .comparison import Leg, SpaceTriangle
from .models import (EuclideanSegment, ProductSpace, _product_d_array,
                     _product_tau_array)


def sprinkle_points(n, seed):
    """n points drawn uniformly from the box [-2, 2] x [-2, 2]."""
    rng = random.Random(seed)
    return [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]


def _random_stream(rng: random.Random):
    """A numpy generator that continues ``rng``'s Mersenne Twister stream:
    ``.random(k)`` returns the next k values of ``rng.random()`` bit for bit,
    since both build a double as (a >> 5 · 2^26 + b >> 6) / 2^53 from two
    32-bit outputs.  ``rng`` itself does not advance."""
    *key, pos = rng.getstate()[1]
    bits = np.random.MT19937(0)
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(key, dtype=np.uint32), "pos": pos}}
    return np.random.Generator(bits)


def _distance_rows(t, x, rows, d):
    """Fill the rows ``rows`` (a slice) of the distance table ``d`` of the
    sprinkled points in place: the flat distances, clamped at 1e-6."""
    d_rows = _product_d_array(t - t[rows, None], np.abs(x - x[rows, None]),
                              out=d[rows])
    np.maximum(d_rows, 1e-6, out=d_rows)


def _distance_table(t, x, blocks):
    """The distance table of the sprinkled points, filled in the row
    blocks ``blocks`` (slices), with a zero diagonal."""
    n = len(t)
    d = np.empty((n, n))
    for rows in blocks:
        _distance_rows(t, x, rows, d)
    np.fill_diagonal(d, 0.0)
    return d


def _sprinkle_rows(t, x, rows, draws, leq, ll, tau):
    """Fill the rows ``rows`` (a slice) of the tables ``leq``, ``ll`` and
    ``tau`` of the sprinkled points in place: ``leq`` is ``dt >= dx``,
    coincident points included (``_clear_coincident`` clears them), the
    weights come from ``draws`` in row-major order, or are the flat
    separations when ``draws`` is None.  The flat kernel gives 0 wherever
    ``dt > dx`` fails, so it runs on the whole block; ``tau`` must come
    zeroed for drawn weights."""
    dt, dx = t - t[rows, None], np.abs(x - x[rows, None])
    np.greater_equal(dt, dx, out=leq[rows])
    ll_rows = np.greater(dt, dx, out=ll[rows])
    if draws is None:
        tau[rows] = _product_tau_array(dt, dx)
    else:
        tau[rows][ll_rows] = 0.05 + (2.0 - 0.05) * draws.random(
            np.count_nonzero(ll_rows))


def _clear_coincident(t, x, leq):
    """Relate no two distinct points at the same coordinates, keeping the
    diagonal: the groups of such points are runs of one sort of the
    points."""
    order = np.lexsort((x, t))
    ts, xs = t[order], x[order]
    same = (ts[1:] == ts[:-1]) & (xs[1:] == xs[:-1])
    if same.any():
        for group in np.split(order, np.flatnonzero(~same) + 1):
            if len(group) > 1:
                leq[np.ix_(group, group)] = np.eye(len(group), dtype=bool)


def sprinkle_causal_set(n, seed, weighted=True) -> FiniteLorentzSpace:
    """Random causal set: points sprinkled into a flat box with the induced
    order.  With ``weighted`` the separations of related pairs are drawn
    uniformly (a pure longest-chain instance, not required to satisfy the
    reverse triangle inequality); otherwise the flat separations are kept
    and every axiom holds.

    The tables are filled in place in blocks of whole rows, at most
    ``chains.PAIR_BLOCK`` entries and at most a quarter of the rows at a
    time, and handed to the space without a copy, so that the peak memory
    is the tables once plus one block's temporaries: 10 n² bytes for
    ``leq``, ``ll`` and ``tau``.  The distance table ``d`` is not among
    them: the space builds it from the points on its first read, in the
    same blocks, and holds 8 n² bytes more from then on.  Distances are
    those of the flat product's ``d_array`` (``_product_d_array``) on whole
    rows: ``t[j] - t[i]`` is ``-(t[i] - t[j])`` exactly and the kernel
    squares it, so the table is symmetric bit for bit.  The weights of a
    weighted sprinkle are the values ``rng.uniform(0.05, 2.0)`` would draw
    one per timelike pair in row-major order, drawn a block at a time from
    ``_random_stream``."""
    pts = np.array(sprinkle_points(n, seed), dtype=float).reshape(n, 2)
    t, x = pts[:, 0], pts[:, 1]
    draws = _random_stream(random.Random(seed + 10_000)) if weighted else None
    leq = np.empty((n, n), dtype=bool)
    ll = np.empty((n, n), dtype=bool)
    tau = np.zeros((n, n))
    step = max(1, min(chains.PAIR_BLOCK // max(n, 1), n // 4))
    blocks = [slice(i, i + step) for i in range(0, n, step)]
    for rows in blocks:
        _sprinkle_rows(t, x, rows, draws, leq, ll, tau)
    _clear_coincident(t, x, leq)
    return FiniteLorentzSpace._of_own_tables(
        partial(_distance_table, t, x, blocks), leq, ll, tau)


def flat_finite_space(n, seed) -> FiniteLorentzSpace:
    """Axiom-valid random space: sprinkled points with flat separations."""
    return sprinkle_causal_set(n, seed, weighted=False)


def _random_future_step(rng):
    a = rng.uniform(0.3, 1.5)
    phi = rng.uniform(-1.0, 1.0)
    return a * math.cosh(phi), a * math.sinh(phi)


def _segment_ends(space):
    """The ends of a product's segment factor, the only factor the
    coordinate samplers below draw from."""
    if not isinstance(space.factor, EuclideanSegment):
        raise PreconditionError("triangle sampler needs a segment-like factor")
    return space.factor.lo, space.factor.hi


def minkowski_triangles(space, count, seed):
    """Random timelike triangles in a flat product: two independent future
    steps from a random base point, factor coordinates folded into the
    segment."""
    lo, hi = _segment_ends(space)
    rng = random.Random(seed)
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
    lo, hi = _segment_ends(space)
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
    lo, hi = _segment_ends(space)
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
    lo, hi = _segment_ends(space)
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
    lo, hi = _segment_ends(space)
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
    timelike related and admit maximizing side chains; none for a count
    below one."""
    if count <= 0:
        return []
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
        except PreconditionError:
            continue
        if len(out) >= count:
            break
    if not out:
        raise PreconditionError("space contains no usable timelike triangles")
    return out


def random_causal_chain(space: ProductSpace, seed):
    """Random future-directed causal chain (not necessarily maximizing) of
    two to nine steps."""
    rng = random.Random(seed)
    lo, hi = _segment_ends(space)
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
