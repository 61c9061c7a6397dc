"""Parallelity of timelike lines.

Two complete timelike lines are parallel when they admit a joint
separation- and order-preserving realization as parallel verticals in the
flat model.  With both lines parametrized by cumulative separation this is
equivalent to constancy and agreement of four transverse-gap functions (the
c-criterion); the common constant is the distance between the lines and the
residual parameter offset is the synchronization shift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import EPS, PreconditionError
from .models import product_image_defect
from .comparison import UnrealizableError, _hinge
from .asymptotics import (LineDescriptor, build_asymptotic_line,
                          busemann_value)


@dataclass(frozen=True)
class CFunctionTable:
    c_ab: dict       # (s, t) -> sqrt((t-s)^2 - tau(alpha(s), beta(t))^2)
    c_ba: dict       # (s, t) -> sqrt((s-t)^2 - tau(beta(t), alpha(s))^2)
    n_ab: dict       # s -> (min gap, at_grid_edge, previous-knot gap)
    n_ba: dict
    complex_flags: int

    def timelike_values(self):
        return list(self.c_ab.values()) + list(self.c_ba.values())

    def defined_values(self):
        vals = self.timelike_values()
        vals += [v for v, _, _ in self.n_ab.values()]
        vals += [v for v, _, _ in self.n_ba.values()]
        return vals

    @property
    def mean(self):
        vals = self.defined_values()
        return sum(vals) / len(vals) if vals else math.nan

    @property
    def spread(self):
        vals = self.defined_values()
        return max(vals) - min(vals) if vals else math.nan

    def per_function_spreads(self):
        out = {}
        for name, vals in (("c_ab", list(self.c_ab.values())),
                           ("c_ba", list(self.c_ba.values())),
                           ("n_ab", [v for v, _, _ in self.n_ab.values()]),
                           ("n_ba", [v for v, _, _ in self.n_ba.values()])):
            out[name] = (max(vals) - min(vals)) if vals else math.nan
        return out

    def null_brackets(self):
        """(low, high) intervals certain to contain the true crossing gap,
        one per defined null-minimum entry."""
        out = []
        for table in (self.n_ab, self.n_ba):
            for v, edge, prev_gap in table.values():
                out.append((-math.inf if edge else prev_gap, v))
        return out


def _knot_pairs(space, alpha: LineDescriptor, *betas: LineDescriptor):
    """``leq`` and ``tau`` of each pair of an alpha knot and a beta knot, for
    every beta at once (one array call each), as one table per beta: entry
    [a, b, 0] relates alpha knot a to beta knot b, [a, b, 1] the reverse.
    A shift moves a line's parameters, not its points, so a table serves
    every parametrization of its two lines."""
    na = len(alpha.params)
    sizes = [len(beta.params) for beta in betas]
    nb = sum(sizes)
    a, b = np.divmod(np.arange(na * nb), nb)
    b += na
    i, j = np.stack([a, b], axis=-1).ravel(), np.stack([b, a], axis=-1).ravel()
    points = alpha.chain.points + tuple(
        itertools.chain.from_iterable(beta.chain.points for beta in betas))
    cuts = np.cumsum(sizes)[:-1]
    return list(zip(
        np.split(space.leq_array(points, i, j).reshape(na, nb, 2), cuts, axis=1),
        np.split(space.tau_array(points, i, j).reshape(na, nb, 2), cuts, axis=1)))


def _null_minima(src_params, dst_params, related_rows):
    """Per source parameter s: the gap to the first related destination
    knot, whether that knot opens the grid, and the previous knot's gap."""
    out = {}
    for s, row in zip(src_params, related_rows):
        qualifying = [t for t, related in zip(dst_params, row) if related]
        if not qualifying:
            continue
        tmin = min(qualifying)
        below = [t for t in dst_params if t < tmin]
        prev_gap = (max(below) - s) if below else -math.inf
        out[s] = (tmin - s, not below, prev_gap)
    return out


def _c_table(a_params, b_params, pairs) -> CFunctionTable:
    """The four parallelity functions over a ``_knot_pairs`` table."""
    leq, tau = pairs
    c_ab, c_ba = {}, {}
    flags = 0
    for s, leq_row, tau_row in zip(a_params, leq.tolist(), tau.tolist()):
        for t, (ab, ba), (tab, tba) in zip(b_params, leq_row, tau_row):
            if ab:
                rad = (t - s) ** 2 - tab ** 2
                if rad < -EPS:
                    flags += 1
                else:
                    c_ab[(s, t)] = math.sqrt(max(rad, 0.0))
            if ba:
                rad = (s - t) ** 2 - tba ** 2
                if rad < -EPS:
                    flags += 1
                else:
                    c_ba[(s, t)] = math.sqrt(max(rad, 0.0))
    return CFunctionTable(c_ab, c_ba,
                          _null_minima(a_params, b_params, leq[:, :, 0].tolist()),
                          _null_minima(b_params, a_params, leq[:, :, 1].T.tolist()),
                          flags)


def c_functions(space, alpha: LineDescriptor,
                beta: LineDescriptor) -> CFunctionTable:
    """Evaluate the four parallelity functions on the knot grids.

    Entries with a negative radicand (possible on tables violating the
    reverse triangle inequality across the two lines) are counted as complex
    flags and excluded.  The null-gap minima are knot-resolution upper
    bounds on the true crossing gap; each entry records the gap of the
    preceding knot (a lower bound) and whether it sat at the grid edge,
    where no bracket exists.
    """
    return _c_table(alpha.params, beta.params, _knot_pairs(space, alpha, beta)[0])


@dataclass(frozen=True)
class ParallelRealisation:
    line_a: LineDescriptor
    line_b: LineDescriptor   # already shifted into synchronized parameters
    shift_b: float
    distance_c: float

    def map_a(self, s):
        return (s, 0.0)

    def map_b(self, t):
        return (t, self.distance_c)


@dataclass(frozen=True)
class ParallelVerdict:
    parallel: bool
    distance_c: float
    shift: float
    spread: float
    per_function: dict
    tau_defect: float
    leq_mismatches: int
    realisation: ParallelRealisation | None
    complex_flags: int


def _affine_slope(points):
    if len(points) < 2:
        return None
    gs = [g for g, _ in points]
    ys = [y for _, y in points]
    n = len(points)
    gbar = sum(gs) / n
    ybar = sum(ys) / n
    den = sum((g - gbar) ** 2 for g in gs)
    if den <= EPS:
        return None
    return sum((g - gbar) * (y - ybar) for g, y in zip(gs, ys)) / den


def _fit_shift(raw: CFunctionTable):
    """Least-squares synchronization offset.

    For genuinely parallel lines whose second parameter runs ahead of
    synchronized time by b, the squared timelike gap functions are affine in
    the parameter gap with slope 2b (forward family) resp. -2b (backward
    family); each family is fit separately since their intercepts differ.
    Falls back to the null-minima midpoint difference when the lines never
    cross timelike."""
    estimates = []
    # forward family: value^2 = -2 b g - b^2 + c^2 over the gap g = t - s
    s_ab = _affine_slope([((t - s), v * v) for (s, t), v in raw.c_ab.items()])
    if s_ab is not None:
        estimates.append(-s_ab / 2.0)
    # backward family: value^2 = +2 b g' - b^2 + c^2 over g' = s - t
    s_ba = _affine_slope([((s - t), v * v) for (s, t), v in raw.c_ba.items()])
    if s_ba is not None:
        estimates.append(s_ba / 2.0)
    if estimates:
        return sum(estimates) / len(estimates)
    nab = [v for v, _, _ in raw.n_ab.values()]
    nba = [v for v, _, _ in raw.n_ba.values()]
    if nab and nba:
        return (sum(nba) / len(nba) - sum(nab) / len(nab)) / 2.0
    return 0.0


def test_parallel(space, alpha: LineDescriptor, beta: LineDescriptor,
                  tolerance) -> ParallelVerdict:
    """Decide parallelity of two separation-parametrized lines.

    The synchronization shift is recovered by least squares from the
    timelike gap functions, the candidate distance is the mean of their
    entries after shifting, the null minima must bracket that distance at
    knot resolution, and on success the vertical realization is re-verified
    directly: separations and causal order of all sampled knot pairs must
    transfer to the flat model within tolerance, pairs within ``tolerance``
    of the null boundary excepted.
    """
    return _verdict(alpha, beta, _knot_pairs(space, alpha, beta)[0], tolerance)


def _verdict(alpha: LineDescriptor, beta: LineDescriptor, pairs,
             tolerance) -> ParallelVerdict:
    """``test_parallel`` over the ``_knot_pairs`` table of its two lines."""
    shift = _fit_shift(_c_table(alpha.params, beta.params, pairs))

    synced = beta.shifted(shift)
    table = _c_table(alpha.params, synced.params, pairs)
    values = table.timelike_values()
    if not values:
        return ParallelVerdict(False, math.nan, shift, math.nan,
                               table.per_function_spreads(), math.nan, 0,
                               None, table.complex_flags)
    spread = max(values) - min(values)
    c_mean = sum(values) / len(values)
    ok = spread <= tolerance
    # the quantized null minima must stay consistent with the distance
    for low, high in table.null_brackets():
        if c_mean < low - tolerance or c_mean > high + tolerance:
            ok = False

    # re-verify the realization: alpha(s) -> (s, 0), synced beta(t) -> (t, c)
    tau_defect = 0.0
    mismatches = 0
    if ok:
        # each (alpha(s), synced beta(t)) pair in both orders, as in the table
        leq, tau = pairs
        s = np.array(alpha.params)[:, None]
        t = np.array(synced.params)[None, :]
        dt = np.stack([t - s, s - t], axis=-1).ravel()
        tau_defect, mismatched = product_image_defect(
            tau.ravel(), leq.ravel(), dt, np.full(dt.shape, c_mean), tolerance)
        mismatches = len(mismatched)
        ok = tau_defect <= tolerance and mismatches == 0

    realisation = ParallelRealisation(alpha, synced, shift, c_mean) if ok else None
    return ParallelVerdict(ok, c_mean, shift, spread,
                           table.per_function_spreads(), tau_defect,
                           mismatches, realisation, table.complex_flags)


@dataclass(frozen=True)
class StrongCausalityReport:
    forced_equal: bool
    max_gap: float
    max_angle: float
    n_pairs: int


def strong_causality_trick_check(space, alpha: LineDescriptor,
                                 beta: LineDescriptor, tol_angle=EPS,
                                 coincidence_radius=EPS) -> StrongCausalityReport:
    """Two separation-parametrized realizers from a common start whose
    comparison angles all vanish must coincide pointwise; report the largest
    pointwise gap at matched parameters.

    A configuration with a genuinely positive angle is outside the scope of
    the statement and is rejected.
    """
    x1, x2 = alpha.point_at(0.0), beta.point_at(0.0)
    if space.d(x1, x2) > EPS:
        raise PreconditionError("realizers must share their start point")
    sv = [s for s in alpha.params if s > EPS]
    tv = [t for t in beta.params if t > EPS]
    max_angle = 0.0
    n_pairs = 0
    for s in sv:
        pa = alpha.point_at(s)
        for t in tv:
            pb = beta.point_at(t)
            try:
                ang = _hinge(s, t, space.tau(pa, pb), space.tau(pb, pa),
                             "future", "future")
            except UnrealizableError:
                continue
            if ang is not None:
                n_pairs += 1
                max_angle = max(max_angle, ang.omega)
    if n_pairs == 0:
        raise PreconditionError("no timelike related parameter pairs")
    if max_angle > tol_angle:
        raise PreconditionError(
            f"comparison angles reach {max_angle}; the vanishing-angle "
            "hypothesis fails")
    max_gap = 0.0
    for s in sv:
        if beta.has_param(s):
            max_gap = max(max_gap, space.d(alpha.point_at(s), beta.point_at(s)))
    return StrongCausalityReport(max_gap <= coincidence_radius, max_gap,
                                 max_angle, n_pairs)


def _passes_through(space, line: LineDescriptor, p, radius) -> bool:
    return any(space.d(pt, p) <= radius for pt in line.chain.points)


def _coincide(space, a: LineDescriptor, b: LineDescriptor, radius) -> bool:
    matched = 0
    for s in a.params:
        if b.has_param(s):
            matched += 1
            if space.d(a.point_at(s), b.point_at(s)) > radius:
                return False
    return matched > 0


@dataclass(frozen=True)
class UniquenessReport:
    distinct_count: int
    groups: tuple


def test_parallel_uniqueness(space, alpha: LineDescriptor, p, candidates,
                             tolerance, radius) -> UniquenessReport:
    """Count pointwise-distinct lines among candidates that are parallel to
    the reference line and pass through p.  Under a lower curvature bound
    the count must be one."""
    verified = []
    for cand in candidates:
        verdict = test_parallel(space, alpha, cand, tolerance)
        if not verdict.parallel:
            raise PreconditionError("candidate fails the parallelity test")
        if not _passes_through(space, cand, p, radius):
            raise PreconditionError("candidate does not pass through p")
        verified.append(cand.shifted(verdict.shift))
    groups = []
    for cand in verified:
        for g in groups:
            if _coincide(space, g[0], cand, radius):
                g.append(cand)
                break
        else:
            groups.append([cand])
    return UniquenessReport(len(groups), tuple(tuple(g) for g in groups))


@dataclass(frozen=True)
class SynchronizedReport:
    synchronized: bool
    distance: float
    shift: float


def test_two_asymptotes_synchronized(space, line: LineDescriptor, p, q,
                                     horizons, tolerance,
                                     **asymptote_kw) -> SynchronizedReport:
    """Build the asymptotes through p and q in synchronized-time
    parametrization and test that they are parallel with no residual shift."""
    bp = busemann_value(space, line, p, horizons)
    bq = busemann_value(space, line, q, horizons)
    alpha = build_asymptotic_line(space, line, p, horizons,
                                  busemann_shift=bp.value, **asymptote_kw)
    beta = build_asymptotic_line(space, line, q, horizons,
                                 busemann_shift=bq.value, **asymptote_kw)
    verdict = test_parallel(space, alpha, beta, tolerance)
    sync = verdict.parallel and abs(verdict.shift) <= tolerance
    return SynchronizedReport(sync, verdict.distance_c, verdict.shift)


def test_weak_transitivity(space, alpha: LineDescriptor, beta: LineDescriptor,
                           gamma: LineDescriptor, p, candidate: LineDescriptor,
                           tolerance, radius) -> bool:
    """Given alpha parallel to beta and beta parallel to gamma, a line through
    p on gamma that is parallel to alpha must be gamma itself (up to a
    parameter shift)."""
    if not test_parallel(space, alpha, beta, tolerance).parallel:
        raise PreconditionError("alpha and beta are not parallel")
    if not test_parallel(space, beta, gamma, tolerance).parallel:
        raise PreconditionError("beta and gamma are not parallel")
    if not _passes_through(space, gamma, p, radius):
        raise PreconditionError("p does not lie on gamma")
    cand_verdict = test_parallel(space, alpha, candidate, tolerance)
    if not cand_verdict.parallel or not _passes_through(space, candidate, p, radius):
        raise PreconditionError("candidate is not a parallel to alpha through p")
    verdict = test_parallel(space, candidate, gamma, tolerance)
    if not verdict.parallel or verdict.distance_c > radius:
        return False
    synced = gamma.shifted(verdict.shift)
    return _coincide(space, candidate, synced, max(radius, tolerance))
