"""Flat two-dimensional comparison geometry.

Triangles with timelike-related vertices are planted in the flat model by
their three side separations; curvature bounds are then statements comparing
time separations of on-triangle point pairs against their planted images.
The hyperbolic angle at a vertex solves

    a13^2 = a12^2 + a23^2 + 2*sigma*a12*a23*cosh(omega)

with sigma = +1 when the vertex sits between the other two in the causal
order and sigma = -1 when it is a time endpoint.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import EPS, FiniteLorentzSpace, PreconditionError
from .models import _clip_unit, _product_tau_array, tau_minkowski
from . import chains as _chains


class UnrealizableError(ValueError):
    """Side lengths admit no triangle in the flat model."""


# ---------------------------------------------------------------------------
# law of cosines


def _acosh1p(u: float) -> float:
    # arccosh(1 + u) without cancellation for small u
    if u < 0.0:
        if u < -1e-12:
            raise UnrealizableError(f"cosh(omega) - 1 = {u} < 0")
        u = 0.0
    return math.log1p(u + math.sqrt(u * (u + 2.0)))


# The vertex labels of each of the six configurations bottom to top in the
# causal order, canonicalizing time reversal; the rank in that order of
# vertex 1, 2 and 3; and the SideTriple field of each side, either way round.
_ORDERS = {"123": (1, 2, 3), "321": (1, 2, 3), "213": (2, 1, 3),
           "312": (2, 1, 3), "132": (1, 3, 2), "231": (1, 3, 2)}
_RANKS = {config: tuple(order.index(v) for v in (1, 2, 3))
          for config, order in _ORDERS.items()}
_SIDE_FIELD = {(1, 2): "a12", (2, 1): "a12", (2, 3): "a23", (3, 2): "a23",
               (1, 3): "a13", (3, 1): "a13"}
_SIDES = ((1, 2), (2, 3), (1, 3))


@dataclass(frozen=True)
class SideTriple:
    """Three positive side separations with the causal configuration of the
    vertices.  ``config`` lists the vertex labels in causal order, e.g.
    "123" for x1 << x2 << x3; the sign at x2 is +1 exactly when x2 is not a
    time endpoint of the triangle."""

    a12: float
    a23: float
    a13: float
    config: str = "123"

    def __post_init__(self):
        if min(self.a12, self.a23, self.a13) <= 0.0:
            raise UnrealizableError("side separations must be positive")
        if self.config == "chain":
            object.__setattr__(self, "config", "123")
        elif self.config == "endpoint":
            # x2 a time endpoint; the long side is the one away from x2
            object.__setattr__(self, "config",
                               "213" if self.a23 >= self.a12 else "132")
        if not (isinstance(self.config, str) and self.config in _ORDERS):
            raise PreconditionError(f"bad configuration {self.config!r}")

    @property
    def sigma(self) -> int:
        return 1 if self.config[1] == "2" else -1

    def side(self, i: int, j: int) -> float:
        return getattr(self, _SIDE_FIELD[i, j])

    def ordered(self):
        """Vertex labels bottom-to-top in the causal order, canonicalizing
        time reversal."""
        return _ORDERS[self.config]

    def check_size_bounds(self):
        b, m, t = _ORDERS[self.config]
        lng, s1, s2 = self.side(b, t), self.side(b, m), self.side(m, t)
        if lng + EPS < s1 + s2:
            raise UnrealizableError(
                f"reverse triangle inequality fails: {lng} < {s1} + {s2}")


@dataclass(frozen=True)
class SignedAngle:
    omega: float
    sigma: int

    @property
    def signed(self) -> float:
        return self.sigma * self.omega


def law_of_cosines_side(a12, a23, omega, sigma) -> float:
    """Third side from two sides and the angle between them."""
    if a12 <= 0 or a23 <= 0:
        raise UnrealizableError("side separations must be positive")
    if omega < 0 or sigma not in (-1, 1):
        raise PreconditionError("need omega >= 0 and sigma in {-1, +1}")
    rad = a12 * a12 + a23 * a23 + 2.0 * sigma * a12 * a23 * math.cosh(omega)
    if rad < 0.0:
        if rad < -EPS:
            raise UnrealizableError(f"negative radicand {rad}")
        rad = 0.0
    return math.sqrt(rad)


def solve_angle(sides: SideTriple) -> SignedAngle:
    """Angle at x2.  Unique nonnegative solution of the law of cosines;
    raises when the sides violate the flat-model size bounds."""
    sides.check_size_bounds()
    a, b, c = sides.a12, sides.a23, sides.a13
    if sides.sigma == 1:
        # x2 in the middle: cosh - 1 = (c - (a+b))(c + a + b) / (2ab)
        u = (c - (a + b)) * (c + a + b) / (2.0 * a * b)
    else:
        gap = abs(a - b)
        u = (gap - c) * (gap + c) / (2.0 * a * b)
    return SignedAngle(_acosh1p(u), sides.sigma)


def solve_angles(a12, a23, a13, config):
    """Array form of ``solve_angle`` for one configuration (one of the six
    orders of "123"): the angle omega at x2 of each side triple
    (a12[k], a23[k], a13[k]), NaN where ``solve_angle`` raises.  Equal to
    ``solve_angle(...).omega`` bit for bit: the same expressions evaluated
    elementwise, then ``math.log1p`` on each element, since ``np.log1p``
    can round differently."""
    if not (isinstance(config, str) and config in _ORDERS):
        raise PreconditionError(f"bad configuration {config!r}")
    a, b, c = (np.asarray(v, dtype=float) for v in (a12, a23, a13))
    return _omegas(a, b, c, config[1] == "2",
                   _long_and_short(config, a, b, c))[0]


def _omegas(a, b, c, middle, bound):
    """``solve_angles`` of the side arrays a, b and c (broadcast against
    each other) with x2 between the others when ``middle``, and with the
    long side and the two short sides of the size bound given as
    ``bound``; with it the grid u = cosh(omega) - 1 that the angles come
    from, negative values clamped to 0."""
    lng, s1, s2 = bound
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if middle:
            u = (c - (a + b)) * (c + a + b) / (2.0 * a * b)
        else:
            gap = np.abs(a - b)
            u = (gap - c) * (gap + c) / (2.0 * a * b)
        raises = ((a <= 0.0) | (b <= 0.0) | (c <= 0.0) | (lng + EPS < s1 + s2)
                  | (u < -1e-12))
        u = np.where(u < 0.0, 0.0, u)
        w = u + np.sqrt(u * (u + 2.0))
    omega = np.array([math.log1p(v) for v in w.ravel().tolist()]).reshape(w.shape)
    omega[raises] = np.nan
    return omega, u


# ---------------------------------------------------------------------------
# planted triangles


@dataclass(frozen=True)
class ComparisonTriangle:
    """Side data realized as coordinates in the flat model.

    Planting convention: the causally lowest vertex at the origin, the long
    side along the positive time axis, the remaining vertex at x >= 0.
    """

    sides: SideTriple
    coords: tuple  # coords[i] is the planted image of vertex i+1

    def vertex(self, label: int):
        return self.coords[label - 1]

    def _side_endpoints(self, i, j):
        rank = _RANKS[self.sides.config]
        if rank[i - 1] > rank[j - 1]:
            i, j = j, i
        return self.vertex(i), self.vertex(j)

    def point_on_side(self, i, j, s):
        """Affine point at cumulative separation s from the causally earlier
        endpoint of side ij."""
        a, b = self._side_endpoints(i, j)
        total = self.sides.side(i, j)
        if s < -EPS or s > total + EPS:
            raise PreconditionError(f"parameter {s} outside side of length {total}")
        lam = min(max(s / total, 0.0), 1.0)
        return (a[0] + lam * (b[0] - a[0]), a[1] + lam * (b[1] - a[1]))


def _long_and_short(config, a12, a23, a13):
    """The long side of a configuration (bottom to top) and its two short
    sides (bottom to middle, middle to top)."""
    b, m, t = _ORDERS[config]
    side = {"a12": a12, "a23": a23, "a13": a13}
    return (side[_SIDE_FIELD[b, t]], side[_SIDE_FIELD[b, m]],
            side[_SIDE_FIELD[m, t]])


def realize_triangle(sides: SideTriple) -> ComparisonTriangle:
    sides.check_size_bounds()
    b, m, t = _ORDERS[sides.config]
    lng = sides.side(b, t)
    s1 = sides.side(b, m)
    s2 = sides.side(m, t)
    tm = (lng * lng + s1 * s1 - s2 * s2) / (2.0 * lng)
    rad = tm * tm - s1 * s1
    xm = math.sqrt(rad) if rad > 0.0 else 0.0
    # the vertices by rank: bottom, middle, top
    slots = ((0.0, 0.0), (tm, xm), (lng, 0.0))
    r1, r2, r3 = _RANKS[sides.config]
    tri = ComparisonTriangle(sides, (slots[r1], slots[r2], slots[r3]))
    for (i, j) in _SIDES:
        want = sides.side(i, j)
        a, c = tri._side_endpoints(i, j)
        got = tau_minkowski(a, c)
        if abs(got - want) > 1e-9 * max(1.0, want):
            raise UnrealizableError(
                f"sides do not close up: side {i}{j} reproduces {got}, want {want}")
    return tri


def _realize_triangles(a12, a23, a13):
    """Array form of ``realize_triangle`` for the configuration "123": the
    planted vertices 1, 2 and 3 of each side triple (a12[k], a23[k],
    a13[k]) as ``(t, x)`` pairs of arrays, bit for bit, and the mask of the
    triples ``realize_triangle`` refuses (a side not positive, the size
    bound, a side that does not close up)."""
    sides = s1, s2, lng = tuple(np.asarray(v, dtype=float)
                                for v in (a12, a23, a13))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tm = (lng * lng + s1 * s1 - s2 * s2) / (2.0 * lng)
        rad = tm * tm - s1 * s1
        xm = np.sqrt(np.where(rad > 0.0, rad, 0.0))
        zero = np.zeros_like(lng)
        verts = ((zero, zero), (tm, xm), (lng, zero))
        refused = ((s1 <= 0.0) | (s2 <= 0.0) | (lng <= 0.0)
                   | (lng + EPS < s1 + s2))
        for (i, j), want in zip(_SIDES, sides):
            (a0, a1), (c0, c1) = verts[i - 1], verts[j - 1]
            got = _product_tau_array(c0 - a0, np.abs(c1 - a1))
            refused |= np.abs(got - want) > 1e-9 * np.maximum(1.0, want)
    return verts, refused


def triangle_angle(sides: SideTriple, vertex: int) -> SignedAngle:
    """Angle of the planted triangle at the given vertex label."""
    labels = [1, 2, 3]
    labels.remove(vertex)
    u, w = labels
    order = "".join(str(l) for l in
                    sorted([u, vertex, w],
                           key=lambda l: sides.config.index(str(l))))
    triple = SideTriple(sides.side(vertex, u), sides.side(vertex, w),
                        sides.side(u, w),
                        order.translate(str.maketrans(
                            {str(u): "1", str(vertex): "2", str(w): "3"})))
    return solve_angle(triple)


# ---------------------------------------------------------------------------
# triangles inside a space


def _knot_picks(table, ss, what):
    """For each s of ss, the index of the first knot within EPS of s in its
    row of the knot parameter table (a row per s, or one for all); raises
    for the first s that names no knot, ``what(k)`` ending its message."""
    hit = np.abs(table - np.asarray(ss, dtype=float)[:, None]) <= EPS
    found = hit.any(axis=1)
    if not found.all():
        k = int(np.argmin(found))
        raise PreconditionError(f"parameter {ss[k]} is not a knot{what(k)}")
    return hit.argmax(axis=1).tolist()


def _knots_at(side, ss):
    """The knots of a table side or a KnotLeg at the parameters ss, from
    one lookup."""
    knots = side.knots
    return [knots[k] for k in _knot_picks(
        np.array(side.params, dtype=float), ss, lambda k: side.not_a_knot)]


def _knot_arrays(side, space, ss):
    """The coordinate arrays of ``_knots_at(side, ss)``."""
    return space._convert(_knots_at(side, ss))


class TriangleSide:
    """Maximizer between two triangle vertices, walked by cumulative time
    separation from the causally earlier vertex: along the knots of a
    maximizing chain in a finite table, else (``params`` None) along the
    model space's realizer."""

    def __init__(self, space, start, end):
        self.space = space
        self.start = start
        self.end = end
        self.length = space.tau(start, end)
        if self.length <= 0.0:
            raise PreconditionError("triangle sides must be timelike")
        self.knots = self.params = None
        if isinstance(space, FiniteLorentzSpace):
            # the maximizer walks strict leq relations, so its chain is
            # causal and not constant: the steps come from the tau table
            knots = _chains.maximize_tau(space, start, end).chain.points
            k = np.array(knots)
            self.knots = list(knots)
            self.params = _chains._arclength(
                knots, space.tau_table()[k[:-1], k[1:]])
            if abs(self.params[-1] - self.length) > EPS:
                raise PreconditionError("side chain is not maximizing")

    not_a_knot = " of this side"   # the end of a failed lookup's message

    def point_at(self, s):
        if self.params is None:
            return self.space.realizer_point(self.start, self.end, s)
        return _knots_at(self, [s])[0]

    def _arrays(self, space, ss):
        """The coordinate arrays of ``point_at(s)`` for each s of ss, from
        one knot lookup, or from the realizer steps on the endpoints."""
        if self.params is None:
            return space._side_arrays(self.start, self.end, self.length, ss)
        return _knot_arrays(self, space, ss)


class SpaceTriangle:
    """Three timelike related vertices x << y << z with maximizing sides."""

    SIDES = _SIDES

    def __init__(self, space, x, y, z):
        if not (space.ll(x, y) and space.ll(y, z) and space.ll(x, z)):
            raise PreconditionError("vertices must be causally ordered and timelike related")
        self.space = space
        self.vertices = (x, y, z)
        self.sides = {
            (1, 2): TriangleSide(space, x, y),
            (2, 3): TriangleSide(space, y, z),
            (1, 3): TriangleSide(space, x, z),
        }

    def side_triple(self) -> SideTriple:
        return SideTriple(self.sides[(1, 2)].length,
                          self.sides[(2, 3)].length,
                          self.sides[(1, 3)].length, "123")

    def point_at(self, side, s):
        return self.sides[side].point_at(s)


# ---------------------------------------------------------------------------
# curvature testers


@dataclass(frozen=True)
class CurvatureReport:
    mode: str
    passed: bool
    worst_defect: float
    witness: tuple | None
    n_triangles: int
    n_pairs: int
    min_defect: float
    max_defect: float


# the shifts from row 3 * t + k, side k of triangle t, to the indices of its
# earlier and later end among the vertices; the side index of each label
_SHIFTS = np.array(_SIDES).T - 1 - np.arange(3)
_SIDE_INDEX = {side: k for k, side in enumerate(_SIDES)}
_TRIANGLE_SIDES = itemgetter(*_SIDES)


def _pick(getrandbits, seq):
    """``rng.choice(seq)``, draw for draw, as CPython draws it: an index of
    ``len(seq).bit_length()`` random bits, redrawn until it is in range."""
    n, k = len(seq), len(seq).bit_length()
    i = getrandbits(k)
    while i >= n:
        i = getrandbits(k)
    return seq[i]


def _side_points(space, tris, sides, rows, spans, ss):
    """``sides[r].point_at(s)`` for r in the array rows and s in ss (sides
    three per triangle of tris) as the function of index arrays i and j
    giving tau(point i, point j); raises the first failing point's error.
    A table's pass is one knot lookup, giving the knot indices; an analytic
    space's one ``_realizer_core`` call on the vertices, gathered by
    ``spans``, their sides' ends."""
    if isinstance(space, FiniteLorentzSpace):
        sizes = np.array([len(side.params) for side in sides], dtype=np.intp)
        held = np.arange(sizes.max(initial=1)) < sizes[:, None]
        params, knots = np.full(held.shape, np.nan), np.zeros_like(held, np.intp)
        params[held] = [p for side in sides for p in side.params]
        knots[held] = [k for side in sides for k in side.knots]
        coords = (knots[rows, _knot_picks(
            params[rows], ss, lambda m: sides[rows[m]].not_a_knot)],)
    else:
        vertices = space.point_arrays([v for tri in tris for v in tri.vertices])
        coords = space._realizer_core(*zip(*(a[spans] for a in vertices)), ss)
    return lambda i, j: space._tau_at(coords, i, j)


def test_curvature_lower0(space, triangles, pairs_per_triangle=8, mode="lower",
                          tol=EPS, seed=0, pair_sampler=None) -> CurvatureReport:
    """Triangle comparison against the flat model.

    For every sampled on-triangle pair (p, q) the lower-bound mode demands
    tau(p, q) <= taubar(pbar, qbar) + tol; the upper-bound mode reverses the
    inequality.  The worst signed defect tau - taubar and its witness are
    reported.  Every triangle must lie in ``space``.

    The loop over the triangles only draws a per-pair loop's random numbers
    in its order, inline and bit for bit (``rng.choice`` of a side, then of
    a knot parameter or ``rng.uniform(0.0, length)``), into two flat lists:
    each point's row 3 * triangle + side and its parameter.  The points on
    the vertices, converted once and gathered by row, their separations and
    the planted images are array passes; only the extreme pairs' witnesses
    are built.  The error raised is a per-pair loop's first: one met while
    drawing waits for the triangles and points before it.
    """
    if mode not in ("lower", "upper"):
        raise PreconditionError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    table = isinstance(space, FiniteLorentzSpace)
    tris, sides, lengths = [], [], []   # the sides three per triangle
    rows, params, labels = [], [], []   # per point; labels from a sampler
    try:
        for tidx, tri in enumerate(triangles):
            if tri.space is not space:
                raise PreconditionError(f"triangle {tidx} lies in another space")
            tris.append(tri)
            own = _TRIANGLE_SIDES(tri.sides)
            sides += own
            lengths += (own[0].length, own[1].length, own[2].length)
            base = 3 * tidx
            if pair_sampler is not None:
                for (sa, pa), (sb, pb) in pair_sampler(rng, tri):
                    for label, s in ((sa, pa), (sb, pb)):
                        rows.append(base + _SIDE_INDEX[label])
                        params.append(s)
                        labels.append(label)
                continue
            for _ in range(pairs_per_triangle):
                # the two side picks, then a parameter on each side
                a = getrandbits(2)
                while a == 3:
                    a = getrandbits(2)
                b = getrandbits(2)
                while b == 3:
                    b = getrandbits(2)
                rows += base + a, base + b
                params += ((_pick(getrandbits, own[a].params),
                            _pick(getrandbits, own[b].params)) if table
                           else (own[a].length * uniform(),
                                 own[b].length * uniform()))
        drawing_error = None
    except Exception as exc:
        drawing_error = exc

    lengths = np.array(lengths, dtype=float)
    (v1, v2, v3), refused = _realize_triangles(*lengths.reshape(-1, 3).T)
    refused = np.flatnonzero(refused)
    planted = int(refused[0]) if refused.size else len(tris)
    row = np.array(rows, dtype=np.intp)
    stop = int(np.searchsorted(row, 3 * planted))
    # a planted side refuses a parameter beyond EPS outside it once the
    # points of its pair pass; a pair the drawing left unfinished is not met
    param, total = np.array(params[:stop], dtype=float), lengths[row[:stop]]
    outside = np.flatnonzero(((param < -EPS) | (param > total + EPS))[:stop & ~1])
    cut = (outside[0] | 1) + 1 if outside.size else stop   # its pair's end
    spans = row + _SHIFTS[:, row % 3]
    taus = _side_points(space, tris[:planted], sides[:3 * planted], row[:cut],
                        spans[:, :cut], params[:cut])
    if outside.size:
        k = outside[0]
        raise PreconditionError(
            f"parameter {params[k]} outside side of length {float(total[k])}")
    if refused.size:
        # raises the error the mask found
        realize_triangle(tris[planted].side_triple())
    if drawing_error is not None:
        raise drawing_error
    n_pairs = len(params)   # each sampled pair in both directions
    if n_pairs == 0:
        raise PreconditionError("no on-triangle pairs sampled")

    # planted images as ComparisonTriangle.point_on_side computes them
    lam = _clip_unit(param / total)
    (a0, b0), (a1, b1) = (np.stack(coord, axis=1).ravel()[spans]
                          for coord in zip(v1, v2, v3))
    bar_t = a0 + lam * (b0 - a0)
    bar_x = a1 + lam * (b1 - a1)
    # entry 2k is (p, q) of pair k, entry 2k + 1 is (q, p)
    i = np.arange(n_pairs)
    j = i ^ 1
    defect = taus(i, j) - _product_tau_array(bar_t[j] - bar_t[i],
                                             np.abs(bar_x[j] - bar_x[i]))
    # the first extreme, as a strict comparison in a loop picks it; the
    # witness is its pair as drawn, with a pair sampler's own objects
    k_lo, k_hi = int(np.argmin(defect)), int(np.argmax(defect))
    lo, hi = float(defect[k_lo]), float(defect[k_hi])
    k = (k_hi if mode == "lower" else k_lo) & ~1
    sa, sb = labels[k:k + 2] or (_SIDES[rows[k] % 3], _SIDES[rows[k + 1] % 3])
    witness = rows[k] // 3, (sa, params[k]), (sb, params[k + 1])
    if mode == "lower":
        return CurvatureReport("lower", hi <= tol, hi, witness, len(tris),
                               n_pairs, lo, hi)
    return CurvatureReport("upper", -lo <= tol, lo, witness, len(tris),
                           n_pairs, lo, hi)


# ---------------------------------------------------------------------------
# hinges and monotonicity


class Leg:
    """Timelike maximizer emanating from a hinge base point, parametrized by
    the time separation to the base: the triangle side between base and tip,
    walked from the base."""

    def __init__(self, space, base, tip):
        if space.ll(base, tip):
            self.direction = "future"
            self._side = TriangleSide(space, base, tip)
        elif space.ll(tip, base):
            self.direction = "past"
            self._side = TriangleSide(space, tip, base)
        else:
            raise PreconditionError("hinge tip must be timelike related to the base")
        self.total = self._side.length

    def point_at(self, s):
        if s <= 0 or s > self.total + EPS:
            raise PreconditionError(f"leg parameter {s} outside (0, {self.total}]")
        return self._side.point_at(s if self.direction == "future"
                                   else self.total - s)

    def _arrays(self, space, ss):
        """The coordinate arrays of ``point_at(s)`` for each s of ss, from
        one pass over the side; raises for the first s outside the leg."""
        for s in ss:
            if s <= 0 or s > self.total + EPS:
                raise PreconditionError(
                    f"leg parameter {s} outside (0, {self.total}]")
        return self._side._arrays(space, ss if self.direction == "future"
                                  else [self.total - s for s in ss])

    def param_grid(self, n):
        ps = self._side.params
        if ps is None:
            return [self.total * k / n for k in range(1, n + 1)]
        out = [p for p in ps if p > EPS] if self.direction == "future" \
            else [self.total - p for p in ps if self.total - p > EPS]
        return sorted(out)


class KnotLeg:
    """Leg given by explicit knots and parameters (finite-table hinges).  It
    is its own side: a knot lookup reads its ``params`` and ``knots`` as it
    reads a table TriangleSide's."""

    not_a_knot = ""

    def __init__(self, points, params, direction):
        self.points = list(points)
        self.params = list(params)
        self.direction = direction
        self.total = max(params)

    @property
    def knots(self):
        return self.points

    def point_at(self, s):
        return _knots_at(self, [s])[0]

    _arrays = _knot_arrays

    def param_grid(self, n=None):
        """The positive parameters in rising order, as the scans read them;
        a repeated parameter names one point and stays repeated."""
        return sorted(p for p in self.params if p > EPS)


def _hinge_config(dir_a, dir_b, a_first):
    """Causal-order tag for the triangle (leg-a point, base, leg-b point)."""
    if dir_a != dir_b:
        return "123" if dir_a == "past" else "321"
    if dir_a == "future":
        return "213" if a_first else "231"
    return "132" if a_first else "312"


def _hinge(s, t, tpq, tqp, dir_a, dir_b) -> SignedAngle | None:
    """Signed comparison angle of the hinge with legs of separations s and t
    (directions dir_a, dir_b) ending at p and q, tau(p, q) = tpq and
    tau(q, p) = tqp; None when p and q are not timelike related."""
    cross = max(tpq, tqp)
    if cross <= 0.0:
        return None
    return solve_angle(SideTriple(s, t, cross,
                                  _hinge_config(dir_a, dir_b, tpq > 0.0)))


def hinge_angle(space, leg_a, leg_b, s, t) -> SignedAngle | None:
    """Signed comparison angle of the hinge at parameters (s, t), or None
    when the two leg points are not timelike related."""
    p, q = leg_a.point_at(s), leg_b.point_at(t)
    return _hinge(s, t, space.tau(p, q), space.tau(q, p),
                  leg_a.direction, leg_b.direction)


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    max_violation: float
    witness: tuple | None
    n_defined: int
    sense: str
    warnings: int = 0


def test_monotonicity_comparison(space, leg_a, leg_b, sense="lower",
                                 tol=EPS) -> MonotonicityReport:
    """Monotonicity form of the curvature bound: the signed comparison angle
    theta(s, t) of a hinge must be non-decreasing in each argument for a
    lower bound and non-increasing for an upper bound, over the grid of
    timelike related parameter pairs (eight steps per analytic leg).

    In the upper sense, parameter pairs that lose timelike relatedness while
    their comparison images keep it are counted as warnings, not failures.
    The image of an undefined pair (s2, t2) lies in the flat hinge of the
    lexicographically first defined pair (s, t) with s >= s2 and t >= t2,
    at that pair's angle omega.  The images are related when the legs point
    to opposite time directions, and otherwise exactly when
    (s2 - t2)^2 > 2 s2 t2 (cosh(omega) - 1), by the law of cosines.

    Each leg's points come from one pass over its side, leg a's first (the
    realizer steps on the side's endpoints, converted once, on a product;
    a knot lookup on a table), and the separations of the s x t grid, both
    ways, from one broadcast of their coordinate arrays (two gathers from
    the tau table on a table).  The angles, the scans (down each column,
    then along each row; the first strict maximum is the witness) and the
    warnings are array passes over the grid.  A parameter repeated on a
    leg names the same point, so its entries agree and it counts once
    among the defined pairs.
    """
    if sense not in ("lower", "upper"):
        raise PreconditionError(f"unknown sense {sense!r}")
    svals = leg_a.param_grid(8)
    tvals = leg_b.param_grid(8)
    ns, nt = len(svals), len(tvals)
    # entry [k, m] pairs leg-a point k with leg-b point m, both ways
    tpq, tqp = space._tau_grids(leg_a._arrays(space, svals),
                                leg_b._arrays(space, tvals))
    cross = np.maximum(tpq, tqp)
    # hinge_angle per pair: undefined unless timelike related, NaN where
    # solve_angle raises (such pairs are left out like undefined ones).
    # x2 is the base; it lies between the leg points exactly when the legs
    # point to opposite time directions, and the size bound's sides depend
    # on which leg point comes first
    mixed = leg_a.direction != leg_b.direction
    sv = np.array(svals, dtype=float)[:, None]
    tv = np.array(tvals, dtype=float)[None, :]
    a_first = tpq > 0.0
    when_first, when_second = (
        _long_and_short(_hinge_config(leg_a.direction, leg_b.direction, f),
                        sv, tv, cross) for f in (True, False))
    bound = [np.where(a_first, x, y) for x, y in zip(when_first, when_second)]
    omega, gaps = _omegas(sv, tv, cross, mixed, bound)
    signed = (1 if mixed else -1) * omega
    defined = ~np.isnan(signed)
    rows = list({s: k for k, s in enumerate(svals)}.values())
    cols = list({t: m for m, t in enumerate(tvals)}.values())
    n_defined = int(np.count_nonzero(defined[rows][:, cols]))
    if n_defined == 0:
        raise PreconditionError("no timelike related parameter pairs on the grid")

    direction = 1.0 if sense == "lower" else -1.0
    # the scans in their order, as one sequence: down each column (s
    # rising, entries of signed.T), then along each row (t rising, entries
    # of signed); a step joins two consecutive defined entries of one line
    seq = np.concatenate((signed.T.ravel(), signed.ravel()))
    line = np.concatenate((np.repeat(np.arange(nt), ns),
                           np.repeat(np.arange(nt, nt + ns), nt)))
    flat = np.flatnonzero(~np.isnan(seq))
    vals, line = seq[flat], line[flat]
    same = line[1:] == line[:-1]
    steps = (direction * (vals[:-1] - vals[1:]))[same]
    top = float(np.fmax.reduce(steps, initial=-math.inf))
    worst = top if top > 0.0 else 0.0
    witness = None
    if worst > 0.0:
        k = int(np.argmax(steps == worst))

        def key(f):
            # the (s, t) pair of an entry of seq
            if f < ns * nt:
                m, r = divmod(f, ns)
            else:
                r, m = divmod(f - ns * nt, nt)
            return svals[r], tvals[m]
        witness = (key(int(flat[:-1][same][k])), key(int(flat[1:][same][k])))

    warnings = 0
    if sense == "upper":
        warnings = _upper_warnings(svals, tvals, defined, gaps, mixed)
    return MonotonicityReport(worst <= tol, worst, witness, n_defined,
                              sense, warnings)


def _upper_warnings(svals, tvals, defined, gaps, mixed):
    """The undefined grid pairs (s2, t2) whose comparison points are
    timelike related in the flat hinge of the lexicographically first
    defined pair (s, t) with s >= s2 and t >= t2: the hinge with legs s and
    t at that pair's angle omega, ``gaps`` holding u = cosh(omega) - 1 per
    pair.  Its points at leg parameters s2 and t2 are always related when
    the legs point to opposite time directions (``mixed``); otherwise their
    squared separation is (s2 - t2)^2 - 2 s2 t2 u, and they are related
    when that is > 0 (a null pair is not)."""
    sv, tv = np.array(svals, dtype=float), np.array(tvals, dtype=float)
    dk, dm = np.nonzero(defined)
    by_key = np.lexsort((tv[dm], sv[dk]))
    dk, dm = dk[by_key], dm[by_key]
    uk, um = np.nonzero(~defined)
    dominated = ((sv[dk][None, :] >= sv[uk][:, None])
                 & (tv[dm][None, :] >= tv[um][:, None]))
    has = dominated.any(axis=1)
    if mixed:
        return int(np.count_nonzero(has))
    pick = dominated.argmax(axis=1)[has]
    s2, t2 = sv[uk[has]], tv[um[has]]
    u = gaps[dk[pick], dm[pick]]
    return int(np.count_nonzero((s2 - t2) * (s2 - t2) > 2.0 * s2 * t2 * u))


def upper_angle(space, leg_a, leg_b):
    """Upper angle of a hinge approximated on the geometric parameter ladder
    (s, t) = 2^-k (leg_a.total, leg_b.total), k < 8; the maximum over the
    last three defined rungs."""
    values = []
    for k in range(8):
        ang = hinge_angle(space, leg_a, leg_b, leg_a.total * 2.0 ** -k,
                          leg_b.total * 2.0 ** -k)
        if ang is not None:
            values.append(ang.omega)
    if not values:
        raise PreconditionError("angle undefined along the entire ladder")
    return max(values[-3:])


# ---------------------------------------------------------------------------
# Alexandrov lemmas


@dataclass(frozen=True)
class AlexandrovReport:
    case: str  # "convex", "concave" or "flat"
    biconditional_ok: bool
    delta1_angles_ok: bool
    delta2_angles_ok: bool
    split_angle_ok: bool
    min_margin: float
    split_margin: float
    flat_cross: float


def _angles(sides: SideTriple):
    return {v: triangle_angle(sides, v).omega for v in (1, 2, 3)}


def _compare_angles(big: SideTriple, small: SideTriple, direction: int, tol):
    """Check every angle of ``big`` is >= (direction=+1) or <= (-1) the
    corresponding angle of ``small``; returns (ok, min margin)."""
    ba, sa = _angles(big), _angles(small)
    margin = math.inf
    ok = True
    for v in (1, 2, 3):
        diff = direction * (ba[v] - sa[v])
        margin = min(margin, diff)
        if diff < -tol:
            ok = False
    return ok, margin


def verify_alexandrov_across(txy, tyz, txz, txp, cross, p_before_y=True,
                             tol=EPS) -> AlexandrovReport:
    """Split a triangle x << y << z by a point p on the side xz and verify
    the across-version comparison statements numerically.

    ``txp`` locates p on the long side; ``cross`` is the measured separation
    between p and y (direction fixed by ``p_before_y``).  Checks: convexity
    at p is equivalent to cross <= its flat value; in the convex (concave)
    case every angle of the two glued comparison triangles dominates (is
    dominated by) the corresponding angle of the subdivided big comparison
    triangle; and the glued angle at y dominates the comparison angle of the
    big triangle in any case.
    """
    if not (0.0 < txp < txz):
        raise PreconditionError("p must lie strictly inside the side xz")
    if cross <= 0.0:
        raise PreconditionError("p and y must be timelike related")
    tpz = txz - txp
    big = SideTriple(txy, tyz, txz, "123")
    planted = realize_triangle(big)
    ptilde = planted.point_on_side(1, 3, txp)
    ytilde = planted.vertex(2)
    flat = tau_minkowski(ptilde, ytilde) if p_before_y else tau_minkowski(ytilde, ptilde)

    # labels within subtriangles: 1=x, 2=p, 3=y for d1; 1=p, 2=y, 3=z for d2
    if p_before_y:
        d1 = SideTriple(txp, cross, txy, "123")          # x << p << y
        d2 = SideTriple(cross, tyz, tpz, "123")          # p << y << z
        ang1 = triangle_angle(d1, 2).omega               # at p, between x and y
        ang2 = triangle_angle(d2, 1).omega               # at p, between y and z
        d1f = SideTriple(txp, flat, txy, "123")
        d2f = SideTriple(flat, tyz, tpz, "123")
    else:
        d1 = SideTriple(txy, cross, txp, "123")          # x << y << p: 1=x,2=y,3=p
        d2 = SideTriple(cross, tpz, tyz, "123")          # y << p << z: 1=y,2=p,3=z
        ang1 = triangle_angle(d1, 3).omega               # at p, between x and y
        ang2 = triangle_angle(d2, 2).omega               # at p, between y and z
        d1f = SideTriple(txy, flat, txp, "123")
        d2f = SideTriple(flat, tpz, tyz, "123")

    if abs(cross - flat) <= tol:
        case = "flat"
    elif cross < flat:
        case = "convex"
    else:
        case = "concave"
    # with y << p the whole figure is the time reversal of the p << y one,
    # which swaps the roles of the two glued triangles in the convexity test
    if p_before_y:
        angle_says_convex = ang1 >= ang2 - tol
    else:
        angle_says_convex = ang2 >= ang1 - tol
    tau_says_convex = cross <= flat + tol
    bic_ok = (angle_says_convex == tau_says_convex) or case == "flat"

    direction = 1 if case != "concave" else -1
    ok1, m1 = _compare_angles(d1, d1f, direction, tol)
    ok2, m2 = _compare_angles(d2, d2f, direction, tol)

    # glued angle at y against the big comparison angle at y
    if p_before_y:
        glued = triangle_angle(d1, 3).omega + triangle_angle(d2, 2).omega
    else:
        glued = triangle_angle(d1, 2).omega + triangle_angle(d2, 1).omega
    tilde_y = triangle_angle(big, 2).omega
    split_margin = glued - tilde_y
    return AlexandrovReport(case, bic_ok, ok1, ok2, split_margin >= -tol,
                            min(m1, m2), split_margin, flat)


def verify_alexandrov_future(txy, tyz, txz, txp, cross, tol=EPS) -> AlexandrovReport:
    """Future version: the triangle x << y << z is split by p on the side xy,
    with ``cross`` the measured separation from p to z.  Same statements as
    the across version except the angle comparison for the second glued
    triangle flips, and the glued angle at z is dominated by the comparison
    angle of the big triangle."""
    if not (0.0 < txp < txy):
        raise PreconditionError("p must lie strictly inside the side xy")
    if cross <= 0.0:
        raise PreconditionError("p and z must be timelike related")
    tpy = txy - txp
    big = SideTriple(txy, tyz, txz, "123")
    planted = realize_triangle(big)
    ptilde = planted.point_on_side(1, 2, txp)
    flat = tau_minkowski(ptilde, planted.vertex(3))

    d1 = SideTriple(txp, cross, txz, "123")   # x << p << z: 1=x, 2=p, 3=z
    d2 = SideTriple(tpy, tyz, cross, "123")   # p << y << z: 1=p, 2=y, 3=z
    d1f = SideTriple(txp, flat, txz, "123")
    d2f = SideTriple(tpy, tyz, flat, "123")

    ang_xz_at_p = triangle_angle(d1, 2).omega     # between x and z
    ang_yz_at_p = triangle_angle(d2, 1).omega     # between y and z

    if abs(cross - flat) <= tol:
        case = "flat"
    elif cross < flat:
        case = "convex"
    else:
        case = "concave"
    # shrinking the splitting side grows every angle of the first glued
    # triangle and shrinks those of the second, so convexity shows up as the
    # x-side angle dominating at p
    angle_says_convex = ang_xz_at_p >= ang_yz_at_p - tol
    tau_says_convex = cross <= flat + tol
    bic_ok = (angle_says_convex == tau_says_convex) or case == "flat"

    direction = 1 if case != "concave" else -1
    ok1, m1 = _compare_angles(d1, d1f, direction, tol)
    ok2, m2 = _compare_angles(d2, d2f, -direction, tol)

    glued = triangle_angle(d1, 3).omega + triangle_angle(d2, 3).omega
    tilde_z = triangle_angle(big, 3).omega
    split_margin = tilde_z - glued
    return AlexandrovReport(case, bic_ok, ok1, ok2, split_margin >= -tol,
                            min(m1, m2), split_margin, flat)


# ---------------------------------------------------------------------------
# line-adjacent comparisons


def _point_angle(space, x, a, b):
    """Comparison angle at x between points a and b (each timelike related
    to x), or None when a, b are not timelike related to each other."""
    sa = max(space.tau(x, a), space.tau(a, x))
    sb = max(space.tau(x, b), space.tau(b, x))
    if min(sa, sb) <= 0.0:
        return None
    dir_a = "future" if space.ll(x, a) else "past"
    dir_b = "future" if space.ll(x, b) else "past"
    return _hinge(sa, sb, space.tau(a, b), space.tau(b, a), dir_a, dir_b)


@dataclass(frozen=True)
class StackingReport:
    collinear_defect: float
    coords: tuple  # planted (y1bar, y2bar, y3bar)


def verify_stacking(space, gamma_point, p, t1, t2, t3) -> StackingReport:
    """Plant the comparison triangles of (p, y1, y2) and (p, y2, y3) about a
    shared side and measure how far ybar2 sits from the segment ybar1 ybar3;
    with the line maximizing and curvature bounded below the three planted
    points are collinear."""
    if not (t1 < t2 < t3):
        raise PreconditionError("need t1 < t2 < t3")
    y1, y2, y3 = gamma_point(t1), gamma_point(t2), gamma_point(t3)
    segs = (space.tau(y1, y2), space.tau(y2, y3), space.tau(y1, y3))
    if abs(segs[2] - segs[0] - segs[1]) > EPS * max(1.0, segs[2]):
        raise PreconditionError("the three line points are not on a maximizer")
    eps_sign = []
    taus = []
    for y in (y1, y2, y3):
        if space.ll(p, y):
            eps_sign.append(1.0)
            taus.append(space.tau(p, y))
        elif space.ll(y, p):
            eps_sign.append(-1.0)
            taus.append(space.tau(y, p))
        else:
            raise PreconditionError("every line point must be timelike related to p")

    ang12 = _point_angle(space, p, y1, y2)
    ang23 = _point_angle(space, p, y2, y3)
    if ang12 is None or ang23 is None:
        raise PreconditionError("line points must be timelike related to each other")

    def plant(eps, a, phi):
        return (eps * a * math.cosh(phi), eps * a * math.sinh(phi))

    y1b = plant(eps_sign[0], taus[0], -eps_sign[0] * ang12.omega)
    y2b = plant(eps_sign[1], taus[1], 0.0)
    y3b = plant(eps_sign[2], taus[2], eps_sign[2] * ang23.omega)

    # Euclidean distance of y2bar from the segment y1bar-y3bar
    vx, vt = y3b[1] - y1b[1], y3b[0] - y1b[0]
    wx, wt = y2b[1] - y1b[1], y2b[0] - y1b[0]
    vv = vx * vx + vt * vt
    lam = min(max((wx * vx + wt * vt) / vv, 0.0), 1.0) if vv > 0 else 0.0
    defect = math.hypot(wx - lam * vx, wt - lam * vt)
    return StackingReport(defect, (y1b, y2b, y3b))


@dataclass(frozen=True)
class AngleSpreadReport:
    max_spread: float
    n_probes: int
    values: tuple


def angle_equals_comparison_angle(space, gamma_point, x_param, p,
                                  alpha_fracs, gamma_params) -> AngleSpreadReport:
    """Spread of the comparison angle at a line point x between a maximizer
    toward p and the line, over the maximizer's points at the fractions
    ``alpha_fracs`` (each in (0, 1]) of its separation and probe parameters
    in both line directions.  Constancy is the expected behaviour adjacent
    to a maximizing line under a lower curvature bound."""
    x = gamma_point(x_param)
    if not (space.ll(x, p) or space.ll(p, x)):
        raise PreconditionError("p must be timelike related to x")
    alpha = Leg(space, x, p)
    for t in gamma_params:
        if space.d(p, gamma_point(t)) <= EPS:
            raise PreconditionError("p lies on the line: hinge is degenerate")
    values = []
    for frac in alpha_fracs:
        a = alpha.point_at(frac * alpha.total)
        for t in gamma_params:
            if abs(t - x_param) <= EPS:
                continue
            ang = _point_angle(space, x, a, gamma_point(t))
            if ang is not None:
                values.append(ang.omega)
    if not values:
        raise PreconditionError("no valid probe pairs")
    return AngleSpreadReport(max(values) - min(values), len(values), tuple(values))


@dataclass(frozen=True)
class SidesEqualReport:
    passed: bool
    worst_defect: float
    relation_mismatches: int
    witness: tuple | None


def sides_equal_check(space, gamma_point, t1, t2, p, q1_params, q2_specs,
                      tol=EPS, null_band=0.0) -> SidesEqualReport:
    """For a triangle with one side on a maximizing line, separations between
    a point on the line side and a point on another side must match their
    comparison values, and causal relatedness must transfer both ways.

    ``q1_params`` are line parameters in (t1, t2); ``q2_specs`` are
    (side, fraction) pairs with side "xp" naming the maximizer between x1 and
    p and "px" the one between p and x2.  Pairs within ``null_band`` of the
    comparison null boundary are skipped for the relation check.
    """
    x1, x2 = gamma_point(t1), gamma_point(t2)
    if not space.ll(x1, x2):
        raise PreconditionError("line points must be timelike related")
    for v in (x1, x2):
        if not (space.ll(v, p) or space.ll(p, v)):
            raise PreconditionError("p must be timelike related to both line points")

    verts = {"x1": x1, "x2": x2, "p": p}
    if space.ll(p, x1):
        names = ("p", "x1", "x2")
    elif space.ll(x2, p):
        names = ("x1", "x2", "p")
    else:
        names = ("x1", "p", "x2")
    label = {nm: i + 1 for i, nm in enumerate(names)}
    vs = [verts[nm] for nm in names]
    sides = SideTriple(space.tau(vs[0], vs[1]), space.tau(vs[1], vs[2]),
                       space.tau(vs[0], vs[2]), "123")
    planted = realize_triangle(sides)

    def walk(nm_a, nm_b):
        lo, hi = sorted((nm_a, nm_b), key=label.get)
        return label[lo], label[hi], TriangleSide(space, verts[lo], verts[hi])

    xp, px = walk("x1", "p"), walk("p", "x2")

    worst = 0.0
    mismatches = 0
    witness = None
    for tq1 in q1_params:
        if not (t1 < tq1 < t2):
            raise PreconditionError("q1 parameters must lie inside (t1, t2)")
        q1 = gamma_point(tq1)
        bar1 = planted.point_on_side(label["x1"], label["x2"], space.tau(x1, q1))
        for side_name, frac in q2_specs:
            lo, hi, side = xp if side_name == "xp" else px
            q2 = side.point_at(frac * side.length)
            bar2 = planted.point_on_side(lo, hi, frac * side.length)
            for u, v, ub, vb in ((q1, q2, bar1, bar2), (q2, q1, bar2, bar1)):
                defect = abs(space.tau(u, v) - tau_minkowski(ub, vb))
                if defect > worst:
                    worst, witness = defect, (tq1, side_name, frac)
                dt = vb[0] - ub[0]
                dx = abs(vb[1] - ub[1])
                if abs(dt - dx) <= null_band:
                    continue
                if space.leq(u, v) != (dt >= dx):
                    mismatches += 1
    return SidesEqualReport(worst <= tol and mismatches == 0, worst,
                            mismatches, witness)
