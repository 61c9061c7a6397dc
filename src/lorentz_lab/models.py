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

from .core import EPS, LorentzQuery, PreconditionError, StructuralError


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

    def distance_array(self, points, i, j):
        """``distance(points[i[k]], points[j[k]])`` for each k, as an array."""
        return np.array([self.distance(points[a], points[b])
                         for a, b in zip(np.asarray(i, dtype=np.intp).tolist(),
                                         np.asarray(j, dtype=np.intp).tolist())],
                        dtype=float)

    def sample(self):
        raise NotImplementedError

    def interpolate(self, a, b, frac):
        """Point at the given fraction of a minimizer from a to b, or None
        when the factor carries no minimizer structure."""
        return None


@dataclass(frozen=True)
class EuclideanSegment(MetricFactor):
    """Interval [lo, hi] of the real line, sampled uniformly."""

    lo: float = 0.0
    hi: float = 1.0
    n_points: int = 21

    kind = "euclidean-segment"

    def __post_init__(self):
        if self.n_points < 2:
            raise StructuralError("a segment sample needs at least two points")

    @property
    def eta(self):
        return (self.hi - self.lo) / (self.n_points - 1)

    def distance(self, a, b):
        return abs(b - a)

    def distance_array(self, points, i, j):
        x = np.asarray(points, dtype=float)
        return np.abs(x[j] - x[i])

    def sample(self):
        step = self.eta
        return tuple(self.lo + k * step for k in range(self.n_points))

    def interpolate(self, a, b, frac):
        return a + frac * (b - a)


@dataclass(frozen=True)
class PlaneSample(MetricFactor):
    """Euclidean plane carrier with a declared finite sample of 2-tuples."""

    points: tuple
    mesh: float

    kind = "euclidean-plane-sample"

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


def tau_minkowski(p, q) -> float:
    """Time separation of two (t, x) points of the flat two-dimensional
    model; zero unless q lies in the causal future of p."""
    return _product_tau(q[0] - p[0], abs(q[1] - p[1]))


def product_image_defect(space, points, i, j, dt, dx, null_band):
    """Compare a space against the product model it is claimed to realize.

    Pair k is the space points ``points[i[k]]`` and ``points[j[k]]``, whose
    product images differ by ``dt[k]`` in time and ``dx[k]`` in the factor.
    Pairs within ``null_band`` of the null boundary ``dt == dx`` are
    skipped.  Returns the largest |tau - product tau| (a NaN defect counts
    as none) and the indices k, in input order, of the pairs whose causal
    relation disagrees with ``dt >= dx``."""
    dt, dx = np.asarray(dt, dtype=float), np.asarray(dx, dtype=float)
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    with np.errstate(invalid="ignore"):
        # the square root amplifies grid noise inside the band and both
        # separations vanish at its centre
        kept = ~(np.abs(dt - dx) <= null_band)
        defect = np.abs(space.tau_array(points, i, j) - _product_tau_array(dt, dx))
        mismatched = kept & (space.leq_array(points, i, j) != (dt >= dx))
    return (float(np.fmax.reduce(defect, where=kept, initial=0.0)),
            np.flatnonzero(mismatched).tolist())


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

    def _dt_dist(self, points, i, j):
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        t = np.fromiter(map(itemgetter(0), points), dtype=float,
                        count=len(points))
        return (t[j] - t[i],
                self.factor.distance_array(list(map(itemgetter(1), points)),
                                           i, j))

    def d_array(self, points, i, j):
        return np.hypot(*self._dt_dist(points, i, j))

    def leq_array(self, points, i, j):
        dt, dist = self._dt_dist(points, i, j)
        return dt >= dist

    def tau_array(self, points, i, j):
        return _product_tau_array(*self._dt_dist(points, i, j))

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
        if lam < -EPS or lam > 1.0 + EPS:
            raise PreconditionError("parameter outside the maximizer")
        lam = min(max(lam, 0.0), 1.0)
        if self.factor.distance(p[1], q[1]) == 0.0:
            a = p[1]
        else:
            a = self.factor.interpolate(p[1], q[1], lam)
            if a is None:
                raise PreconditionError("factor has no minimizer structure")
        return (p[0] + lam * (q[0] - p[0]), a)


def minkowski_space(t_min=-2.0, t_max=2.0, x_min=-1.0, x_max=1.0, step=0.25):
    """The flat model as a product over a Euclidean segment: identical
    formula path as any other product, so the two agree bit for bit."""
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
    pts = list(chain.points) if hasattr(chain, "points") else list(chain)
    if len(pts) < 2:
        raise PreconditionError("chain needs at least two points")
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


def check_product_glob_hyp(space: ProductSpace, diamond_pairs) -> GlobalHyperbolicityReport:
    """Check the product characterisation of global hyperbolicity at sample
    scale: the factor passes the properness scan iff sampled causal diamonds
    satisfy the explicit slab-and-ball bound [r,t] x closed ball of radius
    2|r| + 2|t| around the base factor point."""
    proper = factor_properness_scan(space.factor)
    bounded = True
    worst = 0.0
    for p, q in diamond_pairs:
        if not space.leq(p, q):
            continue
        r, t = p[0], q[0]
        radius = 2.0 * abs(r) + 2.0 * abs(t)
        for (s, y) in space.sample_points():
            if not (space.leq(p, (s, y)) and space.leq((s, y), q)):
                continue
            if s < r - EPS or s > t + EPS:
                bounded = False
                worst = max(worst, max(r - s, s - t))
            excess = space.factor.distance(p[1], y) - radius
            if excess > EPS:
                bounded = False
                worst = max(worst, excess)
    return GlobalHyperbolicityReport(proper, bounded, proper == bounded, worst)


def check_diamond_basis(space: ProductSpace, t_lo, t_hi, center, radius, witness) -> bool:
    """Reconstruct the defining construction of the diamond basis: around a
    witness (b, y) inside (t_lo, t_hi) x B_radius(center), the timelike
    diamond of (b-eps, y), (b+eps, y) with eps = min(b-t_lo, t_hi-b,
    radius - d(center, y)) must stay inside the open set, checked on the
    sample grid."""
    b, y = witness
    dxy = space.factor.distance(center, y)
    if not (t_lo < b < t_hi) or not (dxy < radius):
        raise PreconditionError("witness outside the open set")
    eps = min(b - t_lo, t_hi - b, radius - dxy)
    if eps <= EPS:
        raise PreconditionError("degenerate construction: empty diamond")
    p, q = (b - eps, y), (b + eps, y)
    for (s, z) in space.sample_points():
        if space.ll(p, (s, z)) and space.ll((s, z), q):
            if not (t_lo < s < t_hi and space.factor.distance(center, z) < radius):
                return False
    return True
