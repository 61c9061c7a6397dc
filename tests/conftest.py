"""Shared fixtures: canonical spaces, reference lines, constructed tables."""

import math

import numpy as np
import pytest

from lorentz_lab.chains import _check_causal
from lorentz_lab.core import FiniteLorentzSpace, PreconditionError
from lorentz_lab.models import EuclideanSegment, ProductSpace, minkowski_space
from lorentz_lab.asymptotics import vertical_line

HORIZONS = [2 ** k for k in range(1, 9)]          # 2 .. 256
BUSEMANN_TOL = 0.5 ** 2 / (2.0 * HORIZONS[-1])    # worst transverse in the strip


@pytest.fixture(scope="session")
def segment_product():
    """The canonical product: 21-point unit segment at mesh 0.05."""
    return ProductSpace(EuclideanSegment(0.0, 1.0, 21), -2.0, 2.0, 0.05)


@pytest.fixture(scope="session")
def mink():
    """Wide flat strip for comparison-geometry sampling."""
    return minkowski_space(-6.0, 6.0, -6.0, 6.0, 0.25)


@pytest.fixture(scope="session")
def product_gamma(segment_product):
    """Vertical reference line through the segment midpoint, long enough for
    every shipped horizon."""
    return vertical_line(segment_product, 0.5, range(-260, 261))


@pytest.fixture(scope="session")
def mink_gamma(mink):
    return vertical_line(mink, 0.0, range(-260, 261))


@pytest.fixture(scope="session")
def parallel_tolerance(segment_product):
    return 3.0 * (segment_product.mesh + BUSEMANN_TOL)


BRUTE_FORCE_LIMIT = 20


def brute_force_tau(space, source, target):
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


def three_chain(t01=1.0, t12=1.0, t02=2.0):
    """Three totally ordered points with prescribed separations."""
    leq = np.triu(np.ones((3, 3), dtype=bool))
    ll = np.triu(np.ones((3, 3), dtype=bool), 1)
    d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    tau = np.zeros((3, 3))
    tau[0, 1], tau[1, 2], tau[0, 2] = t01, t12, t02
    return FiniteLorentzSpace(d, leq, ll, tau)


def diamond_table():
    """a << b, b' << c with a slow and a fast middle route."""
    leq = np.eye(4, dtype=bool)
    for a, b in [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]:
        leq[a, b] = True
    ll = leq & ~np.eye(4, dtype=bool)
    d = np.ones((4, 4)) - np.eye(4)
    tau = np.zeros((4, 4))
    tau[0, 1] = tau[1, 3] = 1.0
    tau[0, 2] = tau[2, 3] = 0.5
    tau[0, 3] = 2.0
    return FiniteLorentzSpace(d, leq, ll, tau)


def _planted_six_points(inflate=0.0):
    """Triangle x << y << z with one knot per side, separations taken from an
    exact flat planting; ``inflate`` is added to the separation between the
    knot on the x-y side and the knot on the x-z side."""
    txy, tyz, txz = 2.0, 2.0, 4.5
    t_y = (txz * txz + txy * txy - tyz * tyz) / (2.0 * txz)
    x_y = math.sqrt(t_y * t_y - txy * txy)
    pos = {
        0: (0.0, 0.0),                       # x
        1: (t_y / 2.0, x_y / 2.0),           # knot on side x-y
        2: (t_y, x_y),                       # y
        3: (txz / 2.0, 0.0),                 # knot on side x-z
        4: ((t_y + txz) / 2.0, x_y / 2.0),   # knot on side y-z
        5: (txz, 0.0),                       # z
    }
    n = 6
    d = np.zeros((n, n))
    tau = np.zeros((n, n))
    leq = np.eye(n, dtype=bool)
    ll = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            (ti, xi), (tj, xj) = pos[i], pos[j]
            d[i, j] = max(math.hypot(tj - ti, xj - xi), 1e-6)
            dt, dx = tj - ti, abs(xj - xi)
            if dt >= dx:
                leq[i, j] = True
                if dt > dx:
                    ll[i, j] = True
                    tau[i, j] = math.sqrt(dt * dt - dx * dx)
    tau[1, 3] += inflate
    return FiniteLorentzSpace(d, leq, ll, tau)


def flat_six_point_table():
    return _planted_six_points(0.0)


def violated_six_point_table(inflate=0.2):
    return _planted_six_points(inflate)


def null_coray_table():
    """Line 0 << 1 << 2 << 3 plus a probe (4) whose maximizers to the far
    line points all route through a null-related relay (5)."""
    n = 6
    d = np.ones((n, n)) - np.eye(n)
    leq = np.eye(n, dtype=bool)
    ll = np.zeros((n, n), dtype=bool)
    tau = np.zeros((n, n))
    for i in range(4):
        for j in range(i + 1, 4):
            leq[i, j] = ll[i, j] = True
            tau[i, j] = float(j - i)
    entries = [
        (0, 4, 0.5, True),    # keeps the probe inside the envelope
        (4, 5, 0.0, False),   # null relay step
        (5, 2, 4.5, True),
        (5, 3, 6.0, True),
        (4, 2, 2.0, True),
        (4, 3, 3.0, True),
        (0, 5, 0.6, True),
    ]
    for i, j, t, timelike in entries:
        leq[i, j] = True
        ll[i, j] = timelike
        tau[i, j] = t
    return FiniteLorentzSpace(d, leq, ll, tau)


def column_lattice_table():
    """Four vertical columns of five knots each, plus a doctored line.

    Columns: 0..4 at transverse position 0, 5..9 at 1, 10..14 at 2 and
    15..19 at 2.4.  The doctored chain (15, 16, 12, 18, 19) borrows the
    middle knot of the third column and its cross separations against the
    first column imitate a genuine parallel at distance 2, while its actual
    points stray 0.4 away from that column.  The table deliberately violates
    curvature-bound consequences (parallels through a common point are not
    unique here).
    """
    coords = {}
    for k in range(5):
        coords[k] = (float(k), 0.0)
        coords[5 + k] = (float(k), 1.0)
        coords[10 + k] = (float(k), 2.0)
        coords[15 + k] = (float(k), 2.4)
    n = 20
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                (ti, xi), (tj, xj) = coords[i], coords[j]
                d[i, j] = max(math.hypot(tj - ti, xj - xi), 1e-6)

    # declared transverse distances between columns; the fourth column
    # pretends to sit at distance 2 from the first
    dist = {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 2.0,
            (1, 2): 1.0, (1, 3): 1.4, (2, 3): 0.4}

    def col_of(i):
        return i // 5

    def level(i):
        return i % 5

    leq = np.eye(n, dtype=bool)
    ll = np.zeros((n, n), dtype=bool)
    tau = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ci, cj = col_of(i), col_of(j)
            dt = level(j) - level(i)
            if ci == cj:
                if dt > 0:
                    leq[i, j] = ll[i, j] = True
                    tau[i, j] = float(dt)
                continue
            c = dist[(min(ci, cj), max(ci, cj))]
            if dt >= c:
                leq[i, j] = True
                if dt > c:
                    ll[i, j] = True
                    tau[i, j] = math.sqrt(dt * dt - c * c)
    # exact line separations along the doctored chain through the shared knot
    doctored = (15, 16, 12, 18, 19)
    for a in range(5):
        for b in range(a + 1, 5):
            i, j = doctored[a], doctored[b]
            leq[i, j] = ll[i, j] = True
            leq[j, i] = ll[j, i] = False
            tau[i, j] = float(b - a)
            tau[j, i] = 0.0
    return FiniteLorentzSpace(d, leq, ll, tau), doctored
