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

from .core import EPS, FiniteLorentzSpace, LorentzQuery, PreconditionError
from .chains import CausalChain, is_line, maximize_tau, reparametrize_tau_arclength


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

    def _knot_index(self, t):
        """Index of the first knot p with |p - t| <= 1e-9 max(1, |t|), or
        None.  p - t rounds monotonically in p, so over the increasing
        parameters the matching knots are one run, found by bisection."""
        tol = 1e-9 * max(1.0, abs(t))
        i = bisect.bisect_left(self.params, -tol, key=lambda p: p - t)
        if i < len(self.params) and abs(self.params[i] - t) <= tol:
            return i
        return None

    def point_at(self, t):
        i = self._knot_index(t)
        if i is None:
            raise PreconditionError(f"parameter {t} is not a knot of this line")
        return self.chain.points[i]

    def has_param(self, t):
        return self._knot_index(t) is not None

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
    """Whether p is timelike related to some line point in both directions."""
    pts = line.chain.points
    return any(space.ll(g, p) for g in pts) and any(space.ll(p, g) for g in pts)


def line_point(space, line: LineDescriptor, param):
    """Line point at an arbitrary parameter: the knot when one exists, the
    point of the connecting maximizer between the bracketing knots otherwise
    (model spaces only)."""
    if line.has_param(param):
        return line.point_at(param)
    ps, pts = line.params, line.chain.points
    i = bisect.bisect_left(ps, param) - 1   # ps[i] < param <= ps[i + 1]
    if 0 <= i < len(ps) - 1 and param < ps[i + 1]:
        if hasattr(space, "realizer_point"):
            return space.realizer_point(pts[i], pts[i + 1], param - ps[i])
        return pts[i] if param - ps[i] <= ps[i + 1] - param else pts[i + 1]
    raise PreconditionError(f"parameter {param} outside the line extent")


@dataclass(frozen=True)
class AsymptoteResult:
    footpoint: object
    direction: str
    family: tuple          # ((horizon, chain), ...)
    limit: CausalChain
    limit_params: tuple    # cumulative separation from the footpoint (signed)
    is_timelike: bool
    min_step: float
    stabilized: bool


def _analytic_limit(space, p, targets, direction, knot_step, knot_extent, mesh):
    """Pointwise-stabilized limit of the maximizer family in a model space."""
    totals = [space.tau(p, t) if direction == "future" else space.tau(t, p)
              for t in targets]
    extent = min(knot_extent, totals[-2] if len(totals) > 1 else totals[-1])
    n_knots = int(math.floor(extent / knot_step + 1e-12))
    if n_knots < 1:
        if extent <= mesh:
            raise PreconditionError("horizons too short for even one knot")
        # trusted window shorter than one knot step: single knot at its end
        knot_step = extent
        n_knots = 1

    def family_point(target, total, param):
        if direction == "future":
            return space.realizer_point(p, target, param)
        return space.realizer_point(target, p, total - param)

    knots = [p]
    params = [0.0]
    stabilized = True
    for k in range(1, n_knots + 1):
        u = k * knot_step
        last = family_point(targets[-1], totals[-1], u)
        if len(targets) > 1:
            prev = family_point(targets[-2], totals[-2], u)
            if space.d(prev, last) >= mesh:
                # knot still moving between the two largest horizons: the
                # limit point is taken anyway, without the certificate
                stabilized = False
        knots.append(last)
        params.append(u)
    if direction == "past":
        knots.reverse()
        params = [-u for u in reversed(params)]
    return knots, params, stabilized


def _finite_limit(family_chains, direction):
    """Stabilized prefix (suffix for past direction) common to the two
    largest-horizon maximizers in a finite table."""
    a = list(family_chains[-1].points)
    b = list(family_chains[-2].points) if len(family_chains) > 1 else a
    if direction == "past":
        a, b = a[::-1], b[::-1]
    common = []
    for x, y in zip(a, b):
        if x != y:
            break
        common.append(x)
    if len(common) < 2:
        common = a[:2]
    if direction == "past":
        common.reverse()
    return common


def build_asymptote(space: LorentzQuery, line: LineDescriptor, p, direction,
                    horizons, knot_extent=None,
                    tol_null=None) -> AsymptoteResult:
    """Maximizer family from p to line points at increasing horizons plus its
    pointwise-stabilized limit chain.

    Horizons are parameter magnitudes along the line (targets sit at -t for
    the past direction).  ``tol_null`` separates genuinely timelike limit
    steps from discretization noise; it defaults to ten grid meshes, and the
    knot step is twice that threshold (at least 2) so a genuinely timelike
    limit is never misread as null.

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
    mesh = getattr(space, "mesh", EPS)
    if tol_null is None:
        tol_null = 10.0 * mesh
    knot_step = max(2.0, 2.0 * tol_null)
    if knot_extent is None:
        knot_extent = max(horizons[0], knot_step)

    targets = []
    for t in horizons:
        param = t if direction == "future" else -t
        if not line.has_param(param):
            raise PreconditionError(
                f"horizon {t} exhausts the line sample (no knot at {param})")
        g = line.point_at(param)
        related = space.ll(p, g) if direction == "future" else space.ll(g, p)
        if not related:
            raise PreconditionError(f"footpoint not timelike related to the "
                                    f"horizon point at parameter {param}")
        targets.append(g)

    family = []
    if isinstance(space, FiniteLorentzSpace):
        for t, g in zip(horizons, targets):
            src, dst = (p, g) if direction == "future" else (g, p)
            family.append((t, maximize_tau(space, src, dst).chain))
        pts = _finite_limit([c for _, c in family], direction)
        params = None
        stabilized = True
    else:
        for t, g in zip(horizons, targets):
            src, dst = (p, g) if direction == "future" else (g, p)
            family.append((t, CausalChain(tuple(space.realizer(src, dst)))))
        pts, params, stabilized = _analytic_limit(
            space, p, targets, direction, knot_step, knot_extent, mesh)

    limit = CausalChain(tuple(pts))
    steps = [space.tau(a, b) for a, b in limit.pairs()]
    min_step = min(steps)
    if params is None:
        cum = [0.0]
        for s in steps:
            cum.append(cum[-1] + s)
        if direction == "past":
            params = [c - cum[-1] for c in cum]
        else:
            params = cum
    return AsymptoteResult(p, direction, tuple(family), limit, tuple(params),
                           min_step > tol_null, min_step, stabilized)


@dataclass(frozen=True)
class TimelikeCoRayReport:
    all_timelike: bool
    witnesses: tuple
    n_probes: int


def check_tcrc(space, line: LineDescriptor, probes, horizons,
               directions=("future", "past"), **kw) -> TimelikeCoRayReport:
    """Build asymptotes at every probe point and flag any whose limit chain
    contains a null-leaning step."""
    witnesses = []
    n = 0
    for p in probes:
        for direction in directions:
            n += 1
            result = build_asymptote(space, line, p, direction, horizons, **kw)
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


def join_asymptotic_line(space, line: LineDescriptor, p,
                         future: AsymptoteResult, past: AsymptoteResult,
                         tol=EPS) -> LineDescriptor:
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
                          busemann_shift=0.0, **kw) -> LineDescriptor:
    """Both-direction asymptote through p as a single verified line, its
    additivity checked to ten grid meshes.  The parameters are cumulative
    separation from p shifted by ``busemann_shift`` (pass the
    synchronization value of p to put the line into synchronized
    parametrization)."""
    fut = build_asymptote(space, line, p, "future", horizons, **kw)
    pst = build_asymptote(space, line, p, "past", horizons, **kw)
    tol = 10.0 * getattr(space, "mesh", EPS)
    joined = join_asymptotic_line(space, line, p, fut, pst, tol)
    return joined.shifted(busemann_shift) if busemann_shift else joined


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
    samples = []
    for t in horizons:
        if not line.has_param(t):
            raise PreconditionError(f"no line knot at parameter {t}")
        g = line.point_at(t)
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
    for t in sorted(horizons):
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
    return VerticalityReport(tuple(sorted(horizons)), tuple(deltas),
                             tuple(ratios), tuple(angles))
