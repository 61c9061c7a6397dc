"""The analytic-space contract of ``core.LorentzQuery`` is complete.

``FlatPlane`` is the flat two-dimensional model written against the contract
alone: points ``(t, x)``, coordinate arrays (times, positions), no metric
factor.  Triangle comparison, hinge monotonicity, slice extraction and the
splitting map must give it the reports they give the segment products with
the same points, bit for bit, so none of them may read anything of a
product beyond the contract.
"""

import math

import numpy as np
import pytest

from lorentz_lab.asymptotics import vertical_line
from lorentz_lab.comparison import (Leg, SpaceTriangle, test_curvature_lower0
                                    as lower0_bound,
                                    test_monotonicity_comparison
                                    as monotonicity_bound)
from lorentz_lab.core import LorentzQuery, PointTuple
from lorentz_lab.models import (EuclideanSegment, ProductSpace,
                                _product_d_array, _product_tau_array,
                                _realizer_lams, minkowski_space, tau_minkowski)
from lorentz_lab.sampling import minkowski_triangles, product_hinges
from lorentz_lab.splitting import build_splitting_map, extract_slice

from conftest import HORIZONS

# the time differences of a point pair, taken one way and the other
BOTH_WAYS = np.array([1.0, -1.0])[:, None, None]


class FlatPlane(LorentzQuery):
    """The flat model on a declared point sample at a given mesh: the
    scalar forms, the array forms on coordinate arrays and the maximizers
    (straight segments) of an analytic space, and nothing else.

    ``realizer_point`` and ``_side_arrays`` are the one-entry and
    one-maximizer cases of ``_realizer_core``; ``_side_arrays`` recomputes
    the total, which equals ``tau(start, end)`` bit for bit."""

    def __init__(self, sample, mesh):
        self._sample = tuple(sample)
        self.mesh = mesh

    def sample_points(self):
        return self._sample

    def d(self, p, q):
        return math.hypot(q[0] - p[0], abs(q[1] - p[1]))

    def leq(self, p, q):
        return q[0] - p[0] >= abs(q[1] - p[1])

    def ll(self, p, q):
        return q[0] - p[0] > abs(q[1] - p[1])

    def tau(self, p, q):
        return tau_minkowski(p, q)

    def _convert(self, points):
        return tuple(np.array([p[k] for p in points], dtype=float)
                     for k in (0, 1))

    def _dt_dx(self, arrays, i, j):
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        t, x = arrays
        with np.errstate(over="ignore", invalid="ignore"):
            return t[j] - t[i], np.abs(x[j] - x[i])

    def _tau_at(self, arrays, i, j):
        return _product_tau_array(*self._dt_dx(arrays, i, j))

    def _leq_at(self, arrays, i, j):
        return np.greater_equal(*self._dt_dx(arrays, i, j))

    def _ll_at(self, arrays, i, j):
        return np.greater(*self._dt_dx(arrays, i, j))

    def _d_at(self, arrays, i, j):
        return _product_d_array(*self._dt_dx(arrays, i, j))

    def _tau_grids(self, a, b):
        (ta, xa), (tb, xb) = a, b
        return _product_tau_array((tb - ta[:, None]) * BOTH_WAYS,
                                  np.abs(xb - xa[:, None]))

    def _realizer_core(self, starts, ends, params):
        (t0, x0), (t1, x1) = starts, ends
        dx = np.abs(x1 - x0)
        lam, error = _realizer_lams(_product_tau_array(t1 - t0, dx), params)
        if error is not None:
            raise error
        with np.errstate(invalid="ignore", over="ignore"):
            x = np.where(dx != 0.0, x0 + lam * (x1 - x0), x0)
        return t0 + lam * (t1 - t0), x

    def realizer_points(self, starts, ends, params):
        t, x = self._realizer_core(self.point_arrays(starts),
                                   self.point_arrays(ends), params)
        out = PointTuple(zip(t.tolist(), x.tolist()))
        out.arrays(self._coordinate_kind(), lambda _: (t, x))
        return out

    def realizer_point(self, p, q, s):
        return self.realizer_points((p,), (q,), (s,))[0]

    def _side_arrays(self, start, end, total, params):
        ends = self._convert((start, end))
        n = len(params)
        return self._realizer_core(tuple(a[:1].repeat(n) for a in ends),
                                   tuple(a[1:].repeat(n) for a in ends),
                                   params)


SPACES = {
    # the canonical product, a 21-point unit segment at mesh 0.05, and the
    # wide flat strip
    "segment": lambda: ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0,
                                    2.0, 0.05),
    "strip": lambda: minkowski_space(-6.0, 6.0, -6.0, 6.0, 0.25)}


def twin(space):
    flat = FlatPlane(space.sample_points(), space.mesh)
    assert not hasattr(flat, "factor")
    return flat


def leg_in(space, leg):
    """The leg of the same base and tip in another space."""
    side = leg._side
    base, tip = ((side.start, side.end) if leg.direction == "future"
                 else (side.end, side.start))
    return Leg(space, base, tip)


@pytest.mark.parametrize("name", list(SPACES))
def test_triangle_comparison_matches_the_product(name):
    space = SPACES[name]()
    flat = twin(space)
    triangles = minkowski_triangles(space, 50, 0)
    twins = [SpaceTriangle(flat, *tri.vertices) for tri in triangles]
    for mode in ("lower", "upper"):
        want = lower0_bound(space, triangles, mode=mode, seed=3)
        assert repr(lower0_bound(flat, twins, mode=mode, seed=3)) == repr(want)


@pytest.mark.parametrize("name", list(SPACES))
def test_hinge_monotonicity_matches_the_product(name):
    space = SPACES[name]()
    flat = twin(space)
    for leg_a, leg_b in product_hinges(space, 20, 0):
        twin_a, twin_b = leg_in(flat, leg_a), leg_in(flat, leg_b)
        for sense in ("lower", "upper"):
            want = monotonicity_bound(space, leg_a, leg_b, sense)
            got = monotonicity_bound(flat, twin_a, twin_b, sense)
            assert repr(got) == repr(want)


def fingerprint(result):
    """Every field of a splitting result and its slice, as text that tells
    floats apart by their bits."""
    sl = result.slice
    lines = [(line.chain.points, line.params, line.anchor)
             for line in sl.lines]
    return repr((sl.members, sl.d_S.tobytes(), lines, result.time_knots,
                 result.images, result.tau_defect, result.leq_mismatches,
                 result.bijective, result.witnesses, result.n_pairs))


@pytest.mark.parametrize("name, xs", [
    ("segment", None), ("strip", (-1.0, -0.5, 0.0, 0.5, 1.0))])
def test_slice_and_splitting_map_match_the_product(name, xs):
    space = SPACES[name]()
    flat = twin(space)
    x0 = 0.5 if xs is None else 0.0
    seeds = [(0.0, x) for x in (xs or [p[1] for p in space.sample_points()
                                       if p[0] == space.t_min])]
    knots = [-2.0 + 0.5 * k for k in range(9)]
    tol = 3.0 * (space.mesh + 0.5 ** 2 / (2.0 * HORIZONS[-1]))
    cover = [p for p in space.sample_points() if abs(p[0]) <= 2.25]
    results = []
    for s in (space, flat):
        sl = extract_slice(s, vertical_line(s, x0, range(-260, 261)), seeds,
                           HORIZONS, tolerance=tol, knot_extent=4.0)
        results.append(build_splitting_map(s, sl, knots, tolerance=tol,
                                           cover_sample=cover,
                                           cover_radius=0.25 + 2 * s.mesh))
    want, got = results
    # the strip's five members leave most of the cover sample uncovered
    assert want.bijective == (name == "segment")
    assert fingerprint(got) == fingerprint(want)
