"""Asymptote construction along maximizing lines.

An asymptote at p is the limit of maximizers from p to runaway points on a
line.  At desk scale the limit is certified pointwise: the limit chain knot
at cumulative separation k*h is the corresponding point of the
highest-horizon maximizer, accepted once the last two horizons move it by
less than the grid mesh.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import chains
from .core import (EPS, FiniteLorentzSpace, LorentzQuery, PointTuple,
                   PreconditionError)
from .chains import CausalChain, is_line, maximize_tau, reparametrize_tau_arclength
from .comparison import Leg


class NotALineError(PreconditionError):
    """A chain offered as a line fails additivity between some knot pair."""


@dataclass(frozen=True)
class LineDescriptor:
    """A verified line with explicit parameter values at its knots."""

    chain: CausalChain
    params: tuple
    anchor: int = 0

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if len(self.params) != len(self.chain.points):
            raise PreconditionError("one parameter per chain point required")
        if any(b - a <= 0 for a, b in zip(self.params, self.params[1:])):
            raise PreconditionError("parameters must be strictly increasing")
        if not (0 <= self.anchor < len(self.params)):
            raise PreconditionError("anchor index out of range")

    def knot_index(self, t):
        """Index of the first knot p with |p - t| <= 1e-9 max(1, |t|), or
        None; a parameter that is not finite names no knot (at t = inf the
        tolerance would be infinite).  p - t rounds monotonically in p, so
        over the increasing parameters the matching knots are one run,
        starting at the first p with p - t >= -tol.  Bisecting for t - tol
        lands next to it (t - tol rounds otherwise than p - t), and the
        predicate itself walks the last steps."""
        if not math.isfinite(t):
            return None
        ps = self.params
        tol = 1e-9 * max(1.0, abs(t))
        i = bisect.bisect_left(ps, t - tol)
        while i > 0 and ps[i - 1] - t >= -tol:
            i -= 1
        while i < len(ps) and not ps[i] - t >= -tol:
            i += 1
        if i < len(ps) and abs(ps[i] - t) <= tol:
            return i
        return None

    def point_at(self, t):
        i = self.knot_index(t)
        if i is None:
            raise PreconditionError(f"parameter {t} is not a knot of this line")
        return self.chain.points[i]

    def has_param(self, t):
        return self.knot_index(t) is not None

    def footpoint(self):
        return self.chain.points[self.anchor]

    def shifted(self, offset):
        params = tuple(p + offset for p in self.params)
        return LineDescriptor(self.chain, params, self.anchor)


def line_from_chain(space, chain: CausalChain, anchor: int = 0,
                    tol: float = EPS) -> LineDescriptor:
    """Parametrize a chain by cumulative time separation anchored at the
    given knot, verifying additivity between all index pairs first."""
    check = is_line(space, chain, tol)
    if not check.is_line:
        raise NotALineError(
            f"chain is not a line; first failing pair {check.first_failure}")
    params = reparametrize_tau_arclength(space, chain)
    offset = params[anchor]
    return LineDescriptor(chain, tuple(p - offset for p in params), anchor)


def vertical_line(space, x0, t_params) -> LineDescriptor:
    """Line with constant factor point in a product space: exact knots, exact
    parameters."""
    t_params = sorted(t_params)
    chain = CausalChain(tuple((t, x0) for t in t_params))
    anchor = min(range(len(t_params)), key=lambda i: abs(t_params[i]))
    return LineDescriptor(chain, tuple(t - t_params[anchor] for t in t_params), anchor)


def in_timelike_envelope(space, line: LineDescriptor, p) -> bool:
    """Whether p is timelike related to some line point in both
    directions."""
    return bool(in_timelike_envelopes(space, line, (p,))[0])


def in_timelike_envelopes(space, line: LineDescriptor, points):
    """``in_timelike_envelope`` of each point, as a boolean array, decided
    by ``ll_array`` calls over both directions on the line's kept knot
    arrays joined with the points, in bands of ``max(1,
    chains.PAIR_BLOCK // knots)`` points."""
    n, m = len(line.chain.points), len(points)
    joined = line.chain.points.joined(points)
    step = max(1, chains.PAIR_BLOCK // n)
    out = np.empty(m, dtype=bool)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        # [0, s] pairs each knot with point s, [1, s] point s with each knot
        pairs = np.empty((2, hi - lo, n), dtype=np.intp)
        pairs[0] = np.arange(n)
        pairs[1] = np.arange(n + lo, n + hi)[:, None]
        related = space.ll_array(joined, pairs, pairs[::-1])
        out[lo:hi] = related[0].any(axis=1) & related[1].any(axis=1)
    return out


def line_point(space, line: LineDescriptor, param):
    """Line point at an arbitrary parameter: the knot when one exists, the
    point of the connecting maximizer between the bracketing knots otherwise
    (model spaces only)."""
    found = _bracket(line, param)
    if found is None:
        raise PreconditionError(f"parameter {param} outside the line extent")
    i, on_knot = found
    ps, pts = line.params, line.chain.points
    if on_knot:
        return pts[i]
    if hasattr(space, "realizer_point"):
        return space.realizer_point(pts[i], pts[i + 1], param - ps[i])
    return pts[i] if param - ps[i] <= ps[i + 1] - param else pts[i + 1]


def _bracket(line, param):
    """``(i, True)`` for the knot i that param names, ``(i, False)`` for
    the knots ``ps[i] < param < ps[i + 1]`` around it, or None outside the
    line extent."""
    ps = line.params
    i = line.knot_index(param)
    if i is not None:
        return i, True
    i = bisect.bisect_left(ps, param) - 1   # ps[i] < param <= ps[i + 1]
    if 0 <= i < len(ps) - 1 and param < ps[i + 1]:
        return i, False
    return None


def _line_points(space, lines, param):
    """``line_point(space, line, param)`` of each line, or None where it
    raises; the points between knots of a model space come from one
    ``realizer_points`` call."""
    out = [None] * len(lines)
    between = []
    for k, line in enumerate(lines):
        found = _bracket(line, param)
        if found is None:
            continue
        i, on_knot = found
        if not on_knot and hasattr(space, "realizer_point"):
            between.append((k, line.chain.points[i], line.chain.points[i + 1],
                            param - line.params[i]))
        else:
            out[k] = line_point(space, line, param)
    if between:
        ks, starts, ends, params = zip(*between)
        pts, m = PointTuple(starts).joined(ends), len(ks)
        got, good = _realized(space, pts, np.arange(m), np.arange(m, 2 * m),
                              np.array(params, dtype=float))
        for k, q in zip(np.array(ks)[good].tolist(), got):
            out[k] = q
    return out


@dataclass(frozen=True)
class AsymptoteResult:
    footpoint: object
    direction: str
    limit: CausalChain
    limit_params: tuple    # cumulative separation from the footpoint (signed)
    is_timelike: bool
    min_step: float
    stabilized: bool


def _analytic_limit(space, p, targets, direction, knot_step, knot_extent):
    """Pointwise-stabilized limit of the maximizer family in a model space:
    the legs from p to the two largest-horizon targets, walked in step."""
    legs = [Leg(space, p, t) for t in targets]
    extent = min(knot_extent, legs[0].total)
    n_knots = int(math.floor(extent / knot_step + 1e-12))
    if n_knots < 1:
        if extent <= space.mesh:
            raise PreconditionError("horizons too short for even one knot")
        # trusted window shorter than one knot step: single knot at its end
        knot_step = extent
        n_knots = 1

    knots = [p]
    params = [0.0]
    stabilized = True
    for k in range(1, n_knots + 1):
        u = k * knot_step
        last = legs[-1].point_at(u)
        if len(legs) > 1 and space.d(legs[0].point_at(u), last) >= space.mesh:
            # knot still moving between the two largest horizons: the
            # limit point is taken anyway, without the certificate
            stabilized = False
        knots.append(last)
        params.append(u)
    if direction == "past":
        knots.reverse()
        params = [-u for u in reversed(params)]
    return knots, params, stabilized


def _finite_limit(space, p, targets, direction):
    """Stabilized prefix (suffix for past direction) common to the two
    largest-horizon maximizers in a finite table (one chain when there is
    a single horizon), parametrized by cumulative separation from p."""
    step = 1 if direction == "future" else -1
    ends = [(p, g) if direction == "future" else (g, p) for g in targets]
    walks = [maximize_tau(space, *e).chain.points[::step] for e in ends]
    a, b = walks[-1], walks[0]
    n = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    common = a[:max(n, 2)][::step]
    cum = list(accumulate((space.tau(x, y) for x, y in zip(common, common[1:])),
                          initial=0.0))
    params = [c - cum[-1] for c in cum] if step < 0 else cum
    return common, params, True


def build_asymptote(space: LorentzQuery, line: LineDescriptor, p, direction,
                    horizons, knot_extent=None) -> AsymptoteResult:
    """Pointwise-stabilized limit of the maximizers from p to line points at
    increasing horizons.

    Horizons are parameter magnitudes along the line (targets sit at -t for
    the past direction); every horizon must name a knot timelike related to
    p, but only the maximizers toward the two largest are built, since the
    limit and its certificate read no others.  A limit step of separation
    10 EPS or less is null.  In a model space every limit knot lies on the
    largest-horizon maximizer, so each step's separation is its parameter
    spacing, at least one mesh, and is never null.  Knots sit max(2, 20
    mesh) apart up to ``knot_extent`` (default: the smallest horizon, at
    least one knot step).

    This is the fixed-footpoint construction.  The general notion also
    allows the footpoints to converge from the side (z_n -> z) rather than
    sit still; everything downstream only ever probes with a fixed
    footpoint, so that generality is not implemented.
    """
    if direction not in ("future", "past"):
        raise PreconditionError(f"bad direction {direction!r}")
    horizons = sorted(horizons)
    if not horizons:
        raise PreconditionError("need at least one horizon")
    if not in_timelike_envelope(space, line, p):
        raise PreconditionError("footpoint is not timelike related to the line "
                                "in both directions")
    knot_step = max(2.0, 20.0 * space.mesh)
    if knot_extent is None:
        knot_extent = max(horizons[0], knot_step)

    targets = []
    for t in horizons:
        param = t if direction == "future" else -t
        i = line.knot_index(param)
        if i is None:
            raise PreconditionError(
                f"horizon {t} exhausts the line sample (no knot at {param})")
        g = line.chain.points[i]
        related = space.ll(p, g) if direction == "future" else space.ll(g, p)
        if not related:
            raise PreconditionError(f"footpoint not timelike related to the "
                                    f"horizon point at parameter {param}")
        targets.append(g)
    targets = targets[-2:]

    if isinstance(space, FiniteLorentzSpace):
        pts, params, stabilized = _finite_limit(space, p, targets, direction)
    else:
        pts, params, stabilized = _analytic_limit(
            space, p, targets, direction, knot_step, knot_extent)

    limit = CausalChain(tuple(pts))
    min_step = min(space.tau(a, b) for a, b in limit.pairs())
    return AsymptoteResult(p, direction, limit, tuple(params),
                           min_step > 10.0 * EPS, min_step, stabilized)


@dataclass(frozen=True)
class TimelikeCoRayReport:
    all_timelike: bool
    witnesses: tuple
    n_probes: int


def check_tcrc(space, line: LineDescriptor, probes, horizons,
               directions=("future", "past"),
               knot_extent=None) -> TimelikeCoRayReport:
    """Build asymptotes at every probe point and flag any whose limit chain
    contains a null-leaning step."""
    horizons, directions = list(horizons), list(directions)
    witnesses = []
    n = 0
    for p in probes:
        for direction in directions:
            n += 1
            result = build_asymptote(space, line, p, direction, horizons,
                                     knot_extent)
            if not result.is_timelike:
                witnesses.append((p, direction, result.min_step))
    return TimelikeCoRayReport(not witnesses, tuple(witnesses), n)


def check_asymptote_complete(result: AsymptoteResult, growth_horizon) -> bool:
    """Certified linear growth standing in for infinite length: the chain
    length reached by parameter 2H must exceed the one reached by H by at
    least 0.9 H."""
    if not result.is_timelike:
        raise PreconditionError("completeness certificate needs a timelike asymptote")
    mags = [abs(u) for u in result.limit_params]
    l_h = max((u for u in mags if u <= growth_horizon), default=0.0)
    l_2h = max((u for u in mags if u <= 2.0 * growth_horizon), default=0.0)
    return (l_2h - l_h) >= 0.9 * growth_horizon


def join_asymptotic_line(space, p, future: AsymptoteResult,
                         past: AsymptoteResult, tol=EPS) -> LineDescriptor:
    """Concatenate a past and a future asymptote from the same footpoint and
    verify the result is a line; the check pinpoints the first cross pair
    violating additivity."""
    if future.direction != "future" or past.direction != "past":
        raise PreconditionError("need one future and one past asymptote")
    if future.footpoint != p or past.footpoint != p:
        raise PreconditionError("asymptote footpoints do not match the join point")
    if not (future.is_timelike and past.is_timelike):
        raise PreconditionError("both asymptotes must be timelike")
    pts = tuple(past.limit.points) + tuple(future.limit.points[1:])
    params = tuple(past.limit_params) + tuple(future.limit_params[1:])
    chain = CausalChain(pts)
    check = is_line(space, chain, tol)
    if not check.is_line:
        i, j = check.first_failure
        raise PreconditionError(
            f"joined chain fails additivity between knots {i} and {j} "
            f"(params {params[i]}, {params[j]})")
    return LineDescriptor(chain, params, len(past.limit.points) - 1)


def build_asymptotic_line(space, line: LineDescriptor, p, horizons,
                          busemann_shift=0.0,
                          knot_extent=None) -> LineDescriptor:
    """Both-direction asymptote through p as a single verified line, its
    additivity checked to ten grid meshes.  The parameters are cumulative
    separation from p shifted by ``busemann_shift`` (pass the
    synchronization value of p to put the line into synchronized
    parametrization)."""
    fut = build_asymptote(space, line, p, "future", horizons, knot_extent)
    pst = build_asymptote(space, line, p, "past", horizons, knot_extent)
    joined = join_asymptotic_line(space, p, fut, pst, 10.0 * space.mesh)
    return joined.shifted(busemann_shift) if busemann_shift else joined


def build_asymptotic_lines(space, line: LineDescriptor, points, horizons,
                           shifts, knot_extent=None):
    """``build_asymptotic_line`` of each point at its shift, bit for bit, as
    a list; the error raised is the one the per-point loop meets first.

    The envelope, the horizon knots and the relatedness of every point to
    them are decided in array passes, the limits of every point at once
    (``_asymptotic_lines``); a point on which any step may fail, and every
    point of a finite table, is built by ``build_asymptotic_line``, which
    raises its error."""
    points, horizons = tuple(points), sorted(horizons)
    lines = [None] * len(points)
    inside = np.flatnonzero(in_timelike_envelopes(space, line, points))
    built = _asymptotic_lines(space, line, [points[k] for k in inside],
                              horizons, [shifts[k] for k in inside],
                              knot_extent)
    for k, out in zip(inside.tolist(), built):
        lines[k] = out
    return [build_asymptotic_line(space, line, p, horizons, shift,
                                  knot_extent)
            if out is None else out
            for p, shift, out in zip(points, shifts, lines)]


def _asymptotic_lines(space, line, points, horizons, shifts, knot_extent):
    """``build_asymptotic_line`` of each point inside the timelike envelope
    of the line, over the sorted horizons, or None where a step of it may
    raise.  On a finite table every entry is None: ``maximize_tau`` works
    per pair, so its points take the per-point steps.

    One ``ll_array`` pass per direction relates the points to the horizon
    knots.  The limit knots of every point come from one
    ``realizer_points`` call over the legs toward the two largest
    horizons (the second only for the failures it raises).  The steps of
    every joined chain and the additivity of its knot pairs to ten meshes
    are then checked in array passes over all of them."""
    n = len(points)
    targets = [[line.knot_index(sign * t) for t in horizons]
               for sign in (1, -1)]
    if (not (n and horizons) or None in targets[0] + targets[1]
            or isinstance(space, FiniteLorentzSpace)):
        return [None] * n
    m = len(line.chain.points)
    pts = line.chain.points.joined(points)
    here = np.arange(m, m + n)
    fut, pst = (np.array(k[-2:], dtype=np.intp) for k in targets)
    ok = (space.ll_array(pts, here[:, None], np.array(targets[0])).all(axis=1)
          & space.ll_array(pts, np.array(targets[1]), here[:, None]).all(axis=1))
    knot_step = max(2.0, 20.0 * space.mesh)
    if knot_extent is None:
        knot_extent = max(horizons[0], knot_step)
    ok, chain, params, past, lengths = _analytic_limits(
        space, pts, here, fut, pst, ok, knot_step, knot_extent)
    return _joined_lines(space, chain, params, past, lengths, ok, shifts)


def _analytic_limits(space, pts, here, fut, pst, ok, knot_step,
                     knot_extent):
    """``_analytic_limit`` of every point pts[here[s]] in both directions,
    toward the knots pts[fut] (future) and pts[pst] (past) of the two
    largest horizons: the joined chains, their parameters before the
    shift, the past knot counts and the chain lengths, as
    ``_joined_lines`` reads them.

    The leg totals and knot counts are array passes, and the knots of both
    legs in both directions come from one ``realizer_points`` call (the
    second largest horizon's leg only for the errors it raises).  Points on
    which ``Leg.point_at`` or ``realizer_point`` would raise are taken out
    of ``ok``."""
    n = len(here)
    directions = []
    for sign, ends in ((-1, pst), (1, fut)):
        # a future leg runs from the point to its target, a past one back
        a, b = np.broadcast_arrays(*((here[:, None], ends) if sign > 0
                                     else (ends, here[:, None])))
        total = space.tau_array(pts, a, b)
        # min(knot_extent, total) over the second largest horizon's leg
        extent = np.where(total[:, 0] < knot_extent, total[:, 0], knot_extent)
        with np.errstate(invalid="ignore", over="ignore"):
            count = np.floor(extent / knot_step + 1e-12)
        ok &= np.isfinite(count) & ((count >= 1) | (extent > space.mesh))
        step = np.where(count >= 1, knot_step, extent)
        count = np.where(ok, np.maximum(count, 1), 0).astype(np.intp)
        first = np.cumsum(count) - count
        owner = np.repeat(np.arange(n), count)
        u = (np.arange(len(owner)) - first[owner] + 1) * step[owner]
        # Leg.point_at and realizer_point refuse a knot beyond a leg's
        # total (by EPS): such points take the per-point steps
        tot = total[owner]
        ok[owner[(u[:, None] > tot).any(axis=1)]] = False
        legs = [(a[owner, c], b[owner, c], u if sign > 0 else tot[:, c] - u)
                for c in range(total.shape[1] - 1, -1, -1)]   # the last first
        directions.append((count, first, owner, u, legs))

    (cp, sp, _, up, past_legs), (cf, sf, _, uf, fut_legs) = directions
    starts, ends, params = map(np.concatenate, zip(*past_legs, *fut_legs))
    owners = np.concatenate([d[2] for d in directions for _ in d[4]])
    knots, good = _realized(space, pts, starts, ends, params)
    ok[owners[~good]] = False
    at = len(pts) + np.cumsum(good) - 1    # entry -> index in pts + knots
    fut_at = at[len(up) * len(past_legs):]

    # per point: its past knots from the farthest, itself, its future knots
    cp, cf = np.where(ok, cp, 0), np.where(ok, cf, 0)
    lengths = np.where(ok, cp + 1 + cf, 0)
    owner = np.repeat(np.arange(n), lengths)
    j = np.arange(len(owner)) - (np.cumsum(lengths) - lengths)[owner]
    index = here[owner]
    params = np.full(len(owner), -0.0)
    before, after = j < cp[owner], j > cp[owner]
    e = (sp + cp - 1)[owner[before]] - j[before]
    index[before], params[before] = at[e], -up[e]
    e = (sf - cp - 1)[owner[after]] + j[after]
    index[after], params[after] = fut_at[e], uf[e]
    joined = pts.joined(knots)
    space.point_arrays(joined)
    return ok, joined.take(index), params, cp, lengths


def _realized(space, pts, starts, ends, params):
    """``realizer_point(pts[starts[k]], pts[ends[k]], params[k])`` of each
    entry on which it does not raise, from one ``realizer_points`` call,
    with the mask of those entries (none when the factor has no minimizer
    structure, as the call then raises)."""
    total = space.tau_array(pts, starts, ends)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = params / total
    good = (total > 0.0) & (-EPS <= lam) & (lam <= 1.0 + EPS)
    try:
        return space.realizer_points(pts.take(starts[good]),
                                     pts.take(ends[good]), params[good]), good
    except PreconditionError:
        return PointTuple(()), np.zeros_like(good)


def _joined_lines(space, chain, params, past, lengths, ok, shifts):
    """The lines of the joined chains, or None where ``build_asymptote``,
    ``join_asymptotic_line`` or the shift would raise.  Point s in ``ok``
    owns ``lengths[s]`` knots of ``chain``, one point after another, with
    ``past[s]`` knots before its own; ``params`` are their parameters
    before the shift.

    Every step is checked in one pass: timelike beyond 10 EPS, with
    increasing parameters.  ``validate_chain`` then passes: on a product
    a timelike step is causal and joins distinct points.
    The cumulative separations and the additivity of every knot pair of a
    chain to ten meshes, as ``is_line`` decides it, are checked in bands
    of whole chains of at most ``max(chains.PAIR_BLOCK, one chain)``
    entries."""
    n = len(ok)
    start = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(n), lengths)
    j = np.arange(len(owner)) - start[owner]
    k = np.flatnonzero(owner[:-1] == owner[1:])
    steps = space.tau_array(chain, k, k + 1)
    bad = ~(steps > 10.0 * EPS) | (params[k + 1] - params[k] <= 0)
    ok[owner[k[bad]]] = False

    width = int(lengths.max(initial=0))
    cum = np.zeros((n, width))
    cum[owner[k], j[k] + 1] = steps
    cum = np.cumsum(cum, axis=1)      # left to right, as is_line sums
    a = np.arange(width)
    pair = a[:, None] < a
    live = np.flatnonzero(lengths)
    rows = max(1, chains.PAIR_BLOCK // max(1, width * width))
    for r in (live[i:i + rows] for i in range(0, len(live), rows)):
        first, last = start[r, None, None], (start + lengths - 1)[r, None, None]
        sep = space.tau_array(chain, np.minimum(first + a[:, None], last),
                              np.minimum(first + a, last))
        c = cum[r]
        wrong = ((np.abs((c[:, None, :] - c[:, :, None]) - sep)
                  > 10.0 * space.mesh) & pair & (a < lengths[r, None, None]))
        ok[r[wrong.any(axis=(1, 2))]] = False

    shifts = np.repeat(np.asarray(shifts, dtype=float), lengths)
    with np.errstate(over="ignore", invalid="ignore"):
        params = np.where(shifts != 0, params + shifts, params).tolist()
    lines = [None] * n
    for s in np.flatnonzero(ok).tolist():
        span = slice(start[s], start[s] + lengths[s])
        try:
            lines[s] = LineDescriptor(CausalChain(chain[span]), params[span],
                                      int(past[s]))
        except PreconditionError:
            pass
    return lines


# ---------------------------------------------------------------------------
# synchronized time along a line


@dataclass(frozen=True)
class BusemannEstimate:
    point: object
    samples: tuple          # (horizon, horizon - tau(p, line(horizon)))
    value: float
    error_bound: float
    transverse: float
    converged: bool


def busemann_value(space, line: LineDescriptor, p, horizons,
                   requested_tol=None) -> BusemannEstimate:
    """Synchronized time of p with respect to the line: the limit of
    t - tau(p, line(t)).

    Samples decrease monotonically (a consequence of the reverse triangle
    inequality along a maximizing line); the value is extrapolated by solving
    the two-parameter model a(t) = b + transverse^2-correction exactly from
    the last two samples, with the remaining error bounded by
    transverse^2 / (2 (t_max - value)).
    """
    horizons = sorted(horizons)
    if not horizons:
        raise PreconditionError("need at least one horizon")
    samples = []
    for t in horizons:
        i = line.knot_index(t)
        if i is None:
            raise PreconditionError(f"no line knot at parameter {t}")
        g = line.chain.points[i]
        sep = space.tau(p, g)
        if sep <= 0.0:
            raise PreconditionError(
                f"point is not timelike related to the line at parameter {t}")
        samples.append((t, t - sep))
    for (_, a1), (_, a2) in zip(samples, samples[1:]):
        if a2 > a1 + EPS:
            raise PreconditionError(
                "samples increase along the line: input is not a maximizing "
                "line or the table is not intrinsic")

    if len(samples) == 1:
        t1, a1 = samples[0]
        value, csq = a1, 0.0
    else:
        (t1, a1), (t2, a2) = samples[-2], samples[-1]
        if abs(a1 - a2) <= 1e-15 * max(1.0, abs(a1)):
            value = a2
        else:
            value = (2.0 * t2 * a2 - 2.0 * t1 * a1 - (a2 * a2 - a1 * a1)) \
                / (2.0 * (t2 - t1))
        csq = max((a2 - value) * (2.0 * t2 - a2 - value), 0.0)
    t_max = samples[-1][0]
    denom = 2.0 * (t_max - value)
    error_bound = csq / denom if denom > 0 else math.inf
    converged = requested_tol is None or error_bound <= requested_tol
    return BusemannEstimate(p, tuple(samples), value, error_bound,
                            math.sqrt(csq), converged)


def _busemann_values(space, line: LineDescriptor, points, horizons):
    """``busemann_value(space, line, p, horizons).value`` of each point, as
    an array, with the mask of the points on which ``busemann_value``
    raises (there the value is meaningless): no horizon, a horizon
    without a knot, a separation <= 0, rising samples or a division by
    zero.  One ``tau_array`` pass over points x horizon knots on the
    line's kept knot arrays gives every sample."""
    hs = sorted(horizons)
    knots = [line.knot_index(t) for t in hs]
    if not hs or None in knots:
        return np.zeros(len(points)), np.ones(len(points), dtype=bool)
    n = len(line.chain.points)
    sep = space.tau_array(line.chain.points.joined(points),
                          np.arange(n, n + len(points))[:, None],
                          np.array(knots, dtype=np.intp))
    return _extrapolated(np.array(hs, dtype=float)[None, :], sep,
                        np.ones(sep.shape, dtype=bool))


def _extrapolated(t, sep, usable):
    """``busemann_value``'s samples and two-sample extrapolation over the
    usable horizons of each row, elementwise: t holds the sorted horizons
    in one row, ``sep[r, k]`` the separation of point r to the knot at
    ``t[0, k]``.  Returns the values and the rows on which
    ``busemann_value`` over their usable horizons raises: a separation
    <= 0, rising samples or a division by zero (a row with one usable
    horizon takes its sample)."""
    rows = np.arange(len(sep))
    # the last usable horizon up to each column, and the one before it
    last = np.maximum.accumulate(
        np.where(usable, np.arange(sep.shape[1]), -1), axis=1)
    prev = np.full_like(last, -1)
    prev[:, 1:] = last[:, :-1]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        a = t - sep
        rising = usable & (prev >= 0) & (
            a > a[rows[:, None], np.maximum(prev, 0)] + EPS)
        # the last two usable samples (the last one twice when it is alone)
        i2 = last[:, -1]
        i1 = np.where(prev[rows, i2] >= 0, prev[rows, i2], i2)
        t1, t2, a1, a2 = t[0, i1], t[0, i2], a[rows, i1], a[rows, i2]
        close = np.abs(a1 - a2) <= 1e-15 * np.fmax(1.0, np.abs(a1))
        failing = ((usable & (sep <= 0.0)).any(axis=1) | rising.any(axis=1)
                   | (~close & (t2 - t1 == 0.0)))
        return np.where(close, a2, (2.0 * t2 * a2 - 2.0 * t1 * a1
                                    - (a2 * a2 - a1 * a1))
                        / (2.0 * (t2 - t1))), failing


# ---------------------------------------------------------------------------
# verticality of the comparison images


@dataclass(frozen=True)
class VerticalityReport:
    horizons: tuple
    deltas: tuple       # | tau(a, g(t)) - tau(b, g(t)) - dt |
    ratios: tuple       # transverse / time coordinate of the planted apex
    angles: tuple       # rapidity of the apex ray from the lower base point


def verticality_report(space, line: LineDescriptor, a, b,
                       horizons) -> VerticalityReport:
    """Plant the comparison triangles of (a, b, line(t)) over the fixed base
    realizing the synchronized-time offsets of a and b, and track how the
    apex direction approaches the vertical as the horizon grows."""
    horizons = sorted(horizons)
    if not space.ll(a, b):
        raise PreconditionError("base points must satisfy a << b")
    s0 = busemann_value(space, line, a, horizons).value
    t0 = busemann_value(space, line, b, horizons).value
    dt = t0 - s0
    tau_ab = space.tau(a, b)
    csq = dt * dt - tau_ab * tau_ab
    if csq < -EPS:
        raise PreconditionError("synchronized offsets violate the base separation")
    c0 = math.sqrt(max(csq, 0.0))

    deltas, ratios, angles = [], [], []
    for t in horizons:
        g = line.point_at(t)
        ra, rb = space.tau(a, g), space.tau(b, g)
        if min(ra, rb) <= 0.0:
            raise PreconditionError(f"horizon {t} not timelike related to the base")
        deltas.append(abs(ra - rb - dt))
        # apex (T, X) relative to the planted image of a:
        #   T^2 - X^2 = ra^2,  (T-dt)^2 - (X-c0)^2 = rb^2
        if c0 <= EPS:
            T, X = ra, 0.0
        else:
            # X = alpha*T + beta from the difference of the two equations;
            # of the two mirror apexes keep the one above the base line
            # (positive cross product with the base direction)
            alpha = dt / c0
            beta = (rb * rb - ra * ra - dt * dt + c0 * c0) / (2.0 * c0)
            qa = 1.0 - alpha * alpha
            qb = -2.0 * alpha * beta
            qc = -(beta * beta + ra * ra)
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0 or abs(qa) < 1e-14:
                raise PreconditionError("comparison apex is not realizable")
            roots = [(-qb + math.sqrt(disc)) / (2.0 * qa),
                     (-qb - math.sqrt(disc)) / (2.0 * qa)]
            T = X = None
            for r in roots:
                x_r = alpha * r + beta
                if r > 0 and r * c0 - x_r * dt >= -EPS:
                    T, X = r, x_r
                    break
            if T is None:
                raise PreconditionError("no apex above the base line")
        ratios.append(abs(X) / T)
        angles.append(abs(math.atanh(min(abs(X) / T, 1.0 - 1e-15))))
    return VerticalityReport(tuple(horizons), tuple(deltas),
                             tuple(ratios), tuple(angles))
