"""Analytic model spaces: the flat two-dimensional model and products of a
time axis with a metric space.

Points of a product are ``(t, a)`` pairs where ``a`` lives in the metric
factor.  Relations and time separations are always computed from the defining
formulas, never stored; the declared point sample only feeds global scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import EPS, LorentzQuery, PointTuple, PreconditionError, StructuralError


# ---------------------------------------------------------------------------
# metric factors


class MetricFactor:
    """A metric space with a declared finite sample at mesh ``eta``.

    Subclasses provide ``distance`` everywhere on their carrier and, where the
    space is strictly intrinsic, ``interpolate`` for points along minimizers.
    """

    kind = "abstract"
    eta = 0.0

    def distance(self, a, b) -> float:
        raise NotImplementedError

    def point_array(self, points):
        """The factor points as the array ``distance_array`` reads."""
        return np.fromiter(points, dtype=object, count=len(points))

    def distance_array(self, points, i, j):
        """``distance(points[i], points[j])`` over the index arrays i and j
        broadcast against each other, as an array of their shape."""
        i, j = np.broadcast_arrays(np.asarray(i, dtype=np.intp),
                                   np.asarray(j, dtype=np.intp))
        return np.array([self.distance(points[a], points[b])
                         for a, b in zip(i.ravel().tolist(),
                                         j.ravel().tolist())],
                        dtype=float).reshape(i.shape)

    def distance_grids(self, a, b):
        """``distance(a[k], b[m])`` at [0, k, m] and ``distance(b[m],
        a[k])`` at [1, k, m], for a and b as ``point_array`` gives them,
        each entry as ``distance_array`` gives it; an array of shape (2,
        len(a), len(b)) or one that broadcasts to it."""
        ij = np.indices((len(a), len(b)))
        ij[1] += len(a)
        return self.distance_array(np.concatenate((a, b)), ij, ij[::-1])

    def sample(self):
        raise NotImplementedError

    def interpolate(self, a, b, frac):
        """Point at the given fraction of a minimizer from a to b, or None
        when the factor carries no minimizer structure."""
        return None

    def interpolate_array(self, a, b, frac):
        """``interpolate(a[k], b[k], frac[k])`` for each k, as the array
        ``point_array`` gives; a and b come in that form.  An entry is None
        where ``interpolate`` gives None."""
        return self.point_array([self.interpolate(x, y, f) for x, y, f in
                                 zip(a, b, np.asarray(frac).tolist())])


@dataclass(frozen=True)
class EuclideanSegment(MetricFactor):
    """Interval [lo, hi] of the real line, sampled uniformly."""

    lo: float = 0.0
    hi: float = 1.0
    n_points: int = 21

    kind = "euclidean-segment"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)
                and self.lo < self.hi):
            raise StructuralError("a segment needs finite ends with lo < hi")
        if self.n_points < 2:
            raise StructuralError("a segment sample needs at least two points")

    @property
    def eta(self):
        return (self.hi - self.lo) / (self.n_points - 1)

    def distance(self, a, b):
        return abs(b - a)

    def point_array(self, points):
        return np.asarray(points, dtype=float)

    def distance_array(self, points, i, j):
        x = np.asarray(points, dtype=float)
        return np.abs(x[j] - x[i])

    def distance_grids(self, a, b):
        # |b - a| is |a - b| bit for bit, so one grid serves both ways
        return np.abs(b - a[:, None])

    def sample(self):
        step = self.eta
        return tuple(self.lo + k * step for k in range(self.n_points))

    def interpolate(self, a, b, frac):
        return a + frac * (b - a)

    def interpolate_array(self, a, b, frac):
        # silent on inf * 0, as the scalar form is
        with np.errstate(invalid="ignore", over="ignore"):
            return a + frac * (b - a)


@dataclass(frozen=True)
class PlaneSample(MetricFactor):
    """Euclidean plane carrier with a declared finite sample of 2-tuples."""

    points: tuple
    mesh: float

    kind = "euclidean-plane-sample"

    def __post_init__(self):
        coords = [c for pt in self.points for c in pt]
        if not all(map(math.isfinite, [self.mesh] + coords)):
            raise StructuralError("a plane sample needs finite points and mesh")

    @property
    def eta(self):
        return self.mesh

    def distance(self, a, b):
        return math.hypot(b[0] - a[0], b[1] - a[1])

    def sample(self):
        return self.points

    def interpolate(self, a, b, frac):
        return (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))


@dataclass(frozen=True)
class TripodGraph(MetricFactor):
    """Three segments of equal length glued at a center point.

    Points are ``(leg, offset)`` with offset in [0, leg_length]; all three
    ``(leg, 0.0)`` encodings name the center.  Distances follow the glued path
    metric, so the space is a geodesic tree.
    """

    leg_length: float = 1.0
    n_per_leg: int = 11

    kind = "metric-graph"

    def __post_init__(self):
        if not (math.isfinite(self.leg_length) and self.leg_length > 0):
            raise StructuralError("a tripod needs a finite leg length > 0")
        if self.n_per_leg < 2:
            raise StructuralError("a tripod sample needs at least two points per leg")

    @property
    def eta(self):
        return self.leg_length / (self.n_per_leg - 1)

    def distance(self, a, b):
        if a[0] == b[0]:
            return abs(a[1] - b[1])
        return a[1] + b[1]

    def sample(self):
        step = self.eta
        pts = [(0, 0.0)]
        for leg in range(3):
            pts.extend((leg, k * step) for k in range(1, self.n_per_leg))
        return tuple(pts)

    def interpolate(self, a, b, frac):
        if a[0] == b[0]:
            return (a[0], a[1] + frac * (b[1] - a[1]))
        total = a[1] + b[1]
        x = frac * total
        if x <= a[1]:
            return (a[0], a[1] - x)
        return (b[0], x - a[1])


@dataclass(frozen=True)
class ExplicitTable(MetricFactor):
    """Distance matrix over indexed points; no minimizer structure."""

    table: tuple  # row-major tuple of tuples
    mesh: float

    kind = "explicit-table"

    @property
    def eta(self):
        return self.mesh

    def distance(self, a, b):
        return self.table[a][b]

    def sample(self):
        return tuple(range(len(self.table)))


def factor_properness_scan(factor: MetricFactor) -> bool:
    """Desk-scale properness: closed balls within the sample bounds are
    finite (automatic) and the sample shows no spacing collapse far below the
    declared mesh.  A cluster of points with gaps an order of magnitude under
    eta is how a finite sample approximates a missing limit point, so it is
    flagged as non-proper at this resolution."""
    pts = list(factor.sample())
    eta = factor.eta
    if eta <= 0 or len(pts) < 2:
        return True
    min_gap = min(factor.distance(a, b)
                  for i, a in enumerate(pts) for b in pts[i + 1:])
    return min_gap >= eta / 8.0


# ---------------------------------------------------------------------------
# product spaces


def _product_tau(dt: float, dist: float) -> float:
    if dt < dist:
        return 0.0
    rad = dt * dt - dist * dist
    return math.sqrt(rad) if rad > 0.0 else 0.0


def _product_tau_array(dt, dist):
    """``_product_tau`` elementwise over arrays, bit for bit (NaN gives 0)."""
    with np.errstate(invalid="ignore", over="ignore"):
        rad = dt * dt - dist * dist
        return np.where((dt < dist) | ~(rad > 0.0), 0.0, np.sqrt(rad))


def _product_d_array(dt, dist, out=None):
    """``sqrt(dt * dt + dist * dist)`` elementwise, within 2.2e-16 relative
    of ``math.hypot``; ``np.hypot`` where that leaves [1e-150, 1e150], where
    the squares may overflow or underflow.  The distances of a product's
    ``d_array`` and of a sprinkled causal set, written into ``out`` when it
    is given."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.sqrt(dt * dt + dist * dist, out=out)
        wide = ~((out >= 1e-150) & (out <= 1e150))
    if wide.any():
        out[wide] = np.hypot(dt[wide], dist[wide])
    return out


def _realizer_lams(total, params):
    """The lam and clip steps of the realizer: the fractions params / total
    (total broadcast against params), clipped to [0, 1] as
    ``realizer_point`` clips them, up to the first parameter that it
    refuses, and the error it raises there (None when it refuses none),
    to be raised once the fractions before it are interpolated."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.asarray(params, dtype=float) / total
    failed = (total <= 0.0) | ~((-EPS <= lam) & (lam <= 1.0 + EPS))
    if not failed.any():
        return _clip_unit(lam), None
    stop = int(failed.argmax())
    if np.broadcast_to(total, lam.shape)[stop] <= 0.0:
        error = "maximizer parametrization needs a timelike pair"
    else:
        error = "parameter outside the maximizer"
    return _clip_unit(lam[:stop]), PreconditionError(error)


def _clip_unit(lam):
    """``min(max(lam, 0.0), 1.0)`` elementwise, bit for bit, as a new array:
    Python keeps the first argument on ties, so -0.0 and NaN pass
    through."""
    lam = np.array(lam, dtype=float)
    lam[0.0 > lam] = 0.0
    lam[1.0 < lam] = 1.0
    return lam


def tau_minkowski(p, q) -> float:
    """Time separation of two (t, x) points of the flat two-dimensional
    model; zero unless q lies in the causal future of p."""
    return _product_tau(q[0] - p[0], abs(q[1] - p[1]))


def product_image_terms(tau, leq, dt, dx, null_band):
    """The elementwise terms of ``product_image_defect``: |tau - product
    tau|, whether a pair lies outside the null band, and whether it does
    and its causal relation disagrees with ``dt >= dx``."""
    dt, dx = np.asarray(dt, dtype=float), np.asarray(dx, dtype=float)
    with np.errstate(invalid="ignore"):
        # the square root amplifies grid noise inside the band and both
        # separations vanish at its centre
        kept = ~(np.abs(dt - dx) <= null_band)
        defect = np.abs(tau - _product_tau_array(dt, dx))
        return defect, kept, kept & (leq != (dt >= dx))


def product_image_defect(tau, leq, dt, dx, null_band):
    """Compare a space against the product model it is claimed to realize.

    Pair k has separation ``tau[k]`` and relation ``leq[k]`` in the space;
    its product images differ by ``dt[k]`` in time and ``dx[k]`` in the
    factor.  Pairs within ``null_band`` of the null boundary ``dt == dx``
    are skipped.  Returns the largest |tau - product tau| (a NaN defect
    counts as none) and the indices k, in input order, of the pairs whose
    causal relation disagrees with ``dt >= dx``."""
    defect, kept, mismatched = product_image_terms(tau, leq, dt, dx, null_band)
    return (float(np.fmax.reduce(defect, where=kept, initial=0.0)),
            np.flatnonzero(mismatched).tolist())


# the time differences of a point pair, taken one way and the other
_BOTH_WAYS = np.array([1.0, -1.0])[:, None, None]


class ProductSpace(LorentzQuery):
    """Time axis crossed with a metric factor.

    The time coordinate is continuous; ``sample_points`` returns the declared
    scanning grid ``[t_min, t_max] x factor sample``.  ``mesh`` (time step
    plus factor mesh) is the resolution every grid-scale tolerance downstream
    is expressed in.
    """

    def __init__(self, factor: MetricFactor, t_min=-2.0, t_max=2.0, t_step=0.05):
        if not (all(map(math.isfinite, (t_min, t_max, t_step)))
                and t_min < t_max and t_step > 0):
            raise StructuralError("time grid must be finite with t_min < t_max, "
                                  "t_step > 0")
        self.factor = factor
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.t_step = float(t_step)

    @property
    def mesh(self) -> float:
        return self.t_step + self.factor.eta

    def time_knots(self):
        n = int(round((self.t_max - self.t_min) / self.t_step)) + 1
        return tuple(self.t_min + k * self.t_step for k in range(n))

    def sample_points(self):
        return tuple((t, a) for t in self.time_knots() for a in self.factor.sample())

    def d(self, p, q):
        return math.hypot(q[0] - p[0], self.factor.distance(p[1], q[1]))

    def leq(self, p, q):
        return q[0] - p[0] >= self.factor.distance(p[1], q[1])

    def ll(self, p, q):
        return q[0] - p[0] > self.factor.distance(p[1], q[1])

    def tau(self, p, q):
        return _product_tau(q[0] - p[0], self.factor.distance(p[1], q[1]))

    def _convert(self, points):
        return (np.fromiter(map(itemgetter(0), points), dtype=float,
                            count=len(points)),
                self.factor.point_array(list(map(itemgetter(1), points))))

    def _coordinate_kind(self):
        return type(self.factor)

    def _dt_dist(self, arrays, i, j):
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        t, x = arrays
        with np.errstate(over="ignore", invalid="ignore"):
            return t[j] - t[i], self.factor.distance_array(x, i, j)

    def _d_at(self, arrays, i, j):
        return _product_d_array(*self._dt_dist(arrays, i, j))

    def _leq_at(self, arrays, i, j):
        return np.greater_equal(*self._dt_dist(arrays, i, j))

    def _ll_at(self, arrays, i, j):
        return np.greater(*self._dt_dist(arrays, i, j))

    def _tau_at(self, arrays, i, j):
        return _product_tau_array(*self._dt_dist(arrays, i, j))

    # -- analytic maximizers ------------------------------------------------

    def realizer(self, p, q, n_knots=9):
        """Points of the maximizing curve from p to q at n_knots equally
        spaced parameters (time linear, factor along a minimizer at constant
        speed).  Falls back to the bare endpoint pair when the factor has no
        minimizer structure."""
        if not self.leq(p, q):
            raise PreconditionError("realizer endpoints are not causally related")
        if n_knots < 2:
            raise PreconditionError("need at least the two endpoints")
        dist = self.factor.distance(p[1], q[1])
        if dist == 0.0:
            return [(p[0] + (q[0] - p[0]) * k / (n_knots - 1), p[1])
                    for k in range(n_knots)]
        if self.factor.interpolate(p[1], q[1], 0.5) is None:
            return [p, q]
        pts = []
        for k in range(n_knots):
            lam = k / (n_knots - 1)
            pts.append((p[0] + lam * (q[0] - p[0]),
                        self.factor.interpolate(p[1], q[1], lam)))
        return pts

    def realizer_point(self, p, q, tau_param):
        """Exact point at the given cumulative time separation along the
        maximizer from p to q."""
        total = self.tau(p, q)
        if total <= 0.0:
            raise PreconditionError("maximizer parametrization needs a timelike pair")
        lam = tau_param / total
        if not -EPS <= lam <= 1.0 + EPS:
            raise PreconditionError("parameter outside the maximizer")
        lam = min(max(lam, 0.0), 1.0)
        if self.factor.distance(p[1], q[1]) == 0.0:
            a = p[1]
        else:
            a = self.factor.interpolate(p[1], q[1], lam)
            if a is None:
                raise PreconditionError("factor has no minimizer structure")
        return (p[0] + lam * (q[0] - p[0]), a)

    def realizer_points(self, starts, ends, params):
        """``realizer_point(starts[k], ends[k], params[k])`` for each k, bit
        for bit, as a PointTuple that keeps its coordinate arrays.  Raises
        the error ``realizer_point`` raises for the first failing entry, in
        input order; the factor interpolates, through
        ``interpolate_array``, only the entries before it.  The points are
        converted, then go to ``_realizer_core``."""
        t, x = self._realizer_core(self.point_arrays(starts),
                                   self.point_arrays(ends), params)
        out = PointTuple(zip(t.tolist(), x.tolist()))
        out.arrays(self._coordinate_kind(), lambda _: (t, x))
        return out

    def _realizer_core(self, starts, ends, params):
        """``realizer_points`` on coordinate arrays: those of the starts
        and of the ends in, those of the points out, so that callers with
        few distinct endpoints convert each once and gather them."""
        (t0, x0), (t1, x1) = starts, ends
        k = np.arange(len(t0))
        dist = self.factor.distance_array(np.concatenate((x0, x1)), k, k + len(k))
        lam, error = _realizer_lams(_product_tau_array(t1 - t0, dist), params)
        stop = len(lam)
        moving = dist[:stop] != 0.0
        x = x0[:stop].copy()
        x[moving] = self._interpolated(x0[:stop][moving], x1[:stop][moving],
                                       lam[moving])
        if error is not None:
            raise error
        return t0 + lam * (t1 - t0), x

    def _side_arrays(self, start, end, total, params):
        """The coordinate arrays of ``realizer_point(start, end, s)`` for
        each s of params, total being ``tau(start, end)``, bit for bit, by
        the steps of ``_realizer_core``: the two endpoints are converted
        once, and no point is built."""
        t, x = self.point_arrays((start, end))
        lam, error = _realizer_lams(total, params)
        k = np.zeros(len(lam), dtype=np.intp)
        x0 = x[k]
        if self.factor.distance_array(x, 0, 1) != 0.0:
            x0 = self._interpolated(x0, x[k + 1], lam)
        if error is not None:
            raise error
        return t[0] + lam * (t[1] - t[0]), x0

    def _interpolated(self, x0, x1, lam):
        """The interpolate step of the realizer: ``interpolate_array``,
        refused when the factor gives None."""
        moved = self.factor.interpolate_array(x0, x1, lam)
        if moved.dtype == object and any(a is None for a in moved.tolist()):
            raise PreconditionError("factor has no minimizer structure")
        return moved

    def _tau_grids(self, a, b):
        (ta, xa), (tb, xb) = a, b
        # t(p) - t(q) is -(t(q) - t(p)) bit for bit, but for the sign of
        # a zero, which _product_tau_array does not read
        dt = (tb - ta[:, None]) * _BOTH_WAYS
        return _product_tau_array(dt, self.factor.distance_grids(xa, xb))


def minkowski_space(t_min=-2.0, t_max=2.0, x_min=-1.0, x_max=1.0, step=0.25):
    """The flat model as a product over a Euclidean segment: identical
    formula path as any other product, so the two agree bit for bit."""
    if not (all(map(math.isfinite, (x_min, x_max, step))) and step > 0):
        raise StructuralError("a flat window needs finite x bounds and step > 0")
    n = int(round((x_max - x_min) / step)) + 1
    return ProductSpace(EuclideanSegment(x_min, x_max, n), t_min, t_max, step)


# ---------------------------------------------------------------------------
# theorem checks


@dataclass(frozen=True)
class RealizerDiagnosis:
    is_realizer: bool
    factor_is_minimizer: bool
    time_component_affine: bool
    speed_c: float
    tau_defect: float
    affine_defect: float

    @property
    def causal_character(self):
        if not self.is_realizer:
            return "not-maximizing"
        if math.isinf(self.speed_c):
            return "vertical"
        return "null" if abs(self.speed_c - 1.0) <= EPS else "timelike"


def check_realizer_characterization(space: ProductSpace, chain) -> RealizerDiagnosis:
    """Diagnose whether a causal chain maximizes the time separation of its
    endpoints, and cross-check the structural characterisation: maximizers
    are exactly the chains whose factor projection minimizes distance and
    whose time component is affine (slope c >= 1) against factor arclength.
    """
    pts = chain.points
    for a, b in zip(pts, pts[1:]):
        if not space.leq(a, b):
            raise PreconditionError(f"chain step {a} -> {b} is not causal")

    tol = 2.0 * space.mesh
    tau_sum = sum(space.tau(a, b) for a, b in zip(pts, pts[1:]))
    tau_defect = abs(space.tau(pts[0], pts[-1]) - tau_sum)
    is_realizer = tau_defect <= tol

    # factor projection: cumulative arclength and minimality
    arcs = [0.0]
    for a, b in zip(pts, pts[1:]):
        arcs.append(arcs[-1] + space.factor.distance(a[1], b[1]))
    total_arc = arcs[-1]
    end_dist = space.factor.distance(pts[0][1], pts[-1][1])
    factor_is_minimizer = abs(total_arc - end_dist) <= tol

    dt = pts[-1][0] - pts[0][0]
    if total_arc <= EPS:
        # vertical branch: constant factor, degenerate slope
        return RealizerDiagnosis(is_realizer, True, True, math.inf, tau_defect, 0.0)

    # affinity of time against unit-speed factor parametrization
    c = dt / total_arc
    affine_defect = max(abs((p[0] - pts[0][0]) - c * u) for p, u in zip(pts, arcs))
    time_affine = affine_defect <= tol
    return RealizerDiagnosis(is_realizer, factor_is_minimizer, time_affine, c,
                             tau_defect, affine_defect)


@dataclass(frozen=True)
class GlobalHyperbolicityReport:
    proper_factor: bool
    diamonds_bounded: bool
    verdict_consistent: bool
    worst_excess: float


def _grid_diamond(space: ProductSpace, knots, sample, p, q):
    """Mask over the grid ``knots x sample`` (row-major, as
    ``sample_points`` lists it) of the points r with p <= r <= q, together
    with the factor distances from p's point to each sample point.
    Distances are taken in the scalar argument order, once per sample
    point, so the mask holds len(knots) x len(sample) entries."""
    dp = _factor_distances(space.factor, p[1], sample)
    dq = _factor_distances(space.factor, q[1], sample, to_point=True)
    s = knots[:, None]
    return (s - p[0] >= dp) & (q[0] - s >= dq), dp


def _factor_distances(factor: MetricFactor, a, sample, to_point=False):
    """``factor.distance(a, y)`` for each sample point y, or
    ``distance(y, a)`` when ``to_point``, as an array."""
    ends = np.arange(1, len(sample) + 1)
    base = np.zeros_like(ends)
    pts = [a, *sample]
    if to_point:
        return factor.distance_array(pts, ends, base)
    return factor.distance_array(pts, base, ends)


def check_product_glob_hyp(space: ProductSpace, diamond_pairs) -> GlobalHyperbolicityReport:
    """Global hyperbolicity of a product at sample scale: the factor's
    properness scan beside the bound of each sampled causal diamond J(p, q)
    by [r,t] x closed ball of radius 2|r| + 2|t| about p's factor point.
    Factor distances >= 0 imply the bound (d(p, y) <= s - r <= |r| + |t|),
    so ``diamonds_bounded`` fails only on tables with negative entries, and
    on a metric factor ``verdict_consistent`` equals ``proper_factor``."""
    proper = factor_properness_scan(space.factor)
    knots = np.array(space.time_knots())
    sample = space.factor.sample()
    bounded = True
    worst = 0.0
    for p, q in diamond_pairs:
        if not space.leq(p, q):
            continue
        r, t = p[0], q[0]
        radius = 2.0 * abs(r) + 2.0 * abs(t)
        inside, dp = _grid_diamond(space, knots, sample, p, q)
        rows, cols = np.nonzero(inside)
        s = knots[rows]
        slab = (s < r - EPS) | (s > t + EPS)
        excess = dp[cols] - radius
        ball = excess > EPS
        if slab.any() or ball.any():
            bounded = False
            # every value taken is positive, so the order of the maxima
            # does not matter
            worst = max(worst,
                        float(np.maximum(r - s, s - t)[slab].max(initial=0.0)),
                        float(excess[ball].max(initial=0.0)))
    return GlobalHyperbolicityReport(proper, bounded, proper == bounded, worst)


def _diamond_within(space: ProductSpace, p, q, t_lo, t_hi, center, radius) -> bool:
    """Whether every grid point of the timelike diamond of (p, q) lies in the
    open set (t_lo, t_hi) x B_radius(center), checked as one mask over the
    grid time knots x factor sample.  A grid point within EPS of both the
    diamond's rim and the set's rim is a boundary point, not a violation:
    rounding decides on which side of either rim it falls."""
    knots = np.array(space.time_knots())[:, None]
    sample = space.factor.sample()
    dp = _factor_distances(space.factor, p[1], sample)
    dq = _factor_distances(space.factor, q[1], sample, to_point=True)
    dc = _factor_distances(space.factor, center, sample)
    after, before = knots - p[0], q[0] - knots
    inside = (after > dp) & (before > dq)
    outside = ~((t_lo < knots) & (knots < t_hi) & (dc < radius))
    on_rims = ((np.minimum(after - dp, before - dq) <= EPS)
               & (np.maximum(np.maximum(t_lo - knots, knots - t_hi),
                             dc - radius) <= EPS))
    return not (inside & outside & ~on_rims).any()


def check_diamond_basis(space: ProductSpace, t_lo, t_hi, center, radius, witness) -> bool:
    """Reconstruct the defining construction of the diamond basis: around a
    witness (b, y) inside (t_lo, t_hi) x B_radius(center), the timelike
    diamond of (b-eps, y), (b+eps, y) with eps = min(b-t_lo, t_hi-b,
    radius - d(center, y)) must stay inside the open set, checked on the
    sample grid.  The diamond's rim then touches the set's rim, so grid
    points within EPS of both count as boundary (``_diamond_within``)."""
    b, y = witness
    dxy = space.factor.distance(center, y)
    if not (t_lo < b < t_hi) or not (dxy < radius):
        raise PreconditionError("witness outside the open set")
    eps = min(b - t_lo, t_hi - b, radius - dxy)
    if eps <= EPS:
        raise PreconditionError("degenerate construction: empty diamond")
    return _diamond_within(space, (b - eps, y), (b + eps, y), t_lo, t_hi,
                           center, radius)
