"""Parallelity of timelike lines.

Two complete timelike lines are parallel when they admit a joint
separation- and order-preserving realization as parallel verticals in the
flat model.  With both lines parametrized by cumulative separation this is
equivalent to constancy and agreement of four transverse-gap functions (the
c-criterion); the common constant is the distance between the lines and the
residual parameter offset is the synchronization shift.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import EPS, PointTuple, PreconditionError
from . import chains
from .models import product_image_terms
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
        return (functools.reduce(operator.add, vals, 0.0) / len(vals)
                if vals else math.nan)

    @property
    def spread(self):
        vals = self.defined_values()
        return float(np.ptp(vals)) if vals else math.nan

    def per_function_spreads(self):
        out = {}
        for name, vals in (("c_ab", list(self.c_ab.values())),
                           ("c_ba", list(self.c_ba.values())),
                           ("n_ab", [v for v, _, _ in self.n_ab.values()]),
                           ("n_ba", [v for v, _, _ in self.n_ba.values()])):
            out[name] = float(np.ptp(vals)) if vals else math.nan
        return out

    def null_brackets(self):
        """(low, high) intervals certain to contain the true crossing gap,
        one per defined null-minimum entry."""
        out = []
        for table in (self.n_ab, self.n_ba):
            for v, edge, prev_gap in table.values():
                out.append((-math.inf if edge else prev_gap, v))
        return out


def _pair_tables(space, lines, first, second, na, nb):
    """``leq`` and ``tau`` of every knot pair of the line pairs
    (lines[first[k]], lines[second[k]]), with one ``leq_array`` and one
    ``tau_array`` call: entry [k, 0, a, b] relates knot a of the first line
    to knot b of the second, [k, 1, a, b] the reverse.  Tables are padded
    to na x nb knots; ``valid`` marks the real entries, and ``leq`` is False
    off them.  A shift moves a line's parameters, not its points, so a
    table serves every parametrization of its two lines."""
    knots = np.array([len(line.params) for line in lines], dtype=np.intp)
    start = np.cumsum(knots) - knots
    # converted once for both array forms
    points = PointTuple(itertools.chain.from_iterable(line.chain.points
                                                      for line in lines))
    ka, kb = knots[first][:, None, None], knots[second][:, None, None]
    a, b = np.arange(na)[:, None], np.arange(nb)
    # padding repeats a line's last knot
    ia, ib = np.broadcast_arrays(start[first][:, None, None]
                                 + np.minimum(a, ka - 1),
                                 start[second][:, None, None]
                                 + np.minimum(b, kb - 1))
    i = np.stack([ia, ib], axis=1)
    j = i[:, ::-1]
    valid = ((a < ka) & (b < kb))[:, None]
    leq = space.leq_array(points, i, j) & valid
    return leq, space.tau_array(points, i, j), valid


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


FUNCTIONS = ("c_ab", "c_ba", "n_ab", "n_ba")   # keys of per_function


@dataclass(frozen=True)
class ParallelVerdicts:
    """The verdicts of a batch of line pairs, one array entry per pair:
    every ``ParallelVerdict`` field but the realisation, ``per_function``
    as one column per name in ``FUNCTIONS``.  A pair whose shift would
    merge knots of its second line is not parallel."""
    parallel: np.ndarray
    distance_c: np.ndarray
    shift: np.ndarray
    spread: np.ndarray
    per_function: np.ndarray
    tau_defect: np.ndarray
    leq_mismatches: np.ndarray
    complex_flags: np.ndarray

    def verdict(self, k, alpha: LineDescriptor,
                beta: LineDescriptor) -> ParallelVerdict:
        """Pair k as a ``ParallelVerdict``; alpha and beta are its lines.
        Shifting beta raises ``PreconditionError`` when the shift merges
        knots."""
        shift = float(self.shift[k])
        synced = beta.shifted(shift)
        ok, distance = bool(self.parallel[k]), float(self.distance_c[k])
        return ParallelVerdict(
            ok, distance, shift, float(self.spread[k]),
            dict(zip(FUNCTIONS, self.per_function[k].tolist())),
            float(self.tau_defect[k]), int(self.leq_mismatches[k]),
            ParallelRealisation(alpha, synced, shift, distance) if ok else None,
            int(self.complex_flags[k]))


def _sum(x, mask):
    """Each row's sum of its entries under mask, left to right from +0.0
    (masked entries add +0.0, which changes no partial sum), not in numpy's
    pairwise order."""
    return np.add.accumulate(np.where(mask, x, 0.0), axis=-1)[..., -1] + 0.0


def _rows(x):
    """x with every axis but the first flattened, row-major."""
    return x.reshape(len(x), math.prod(x.shape[1:]))


def _spread(x, mask):
    """Each row's largest minus smallest entry under mask: a NaN entry
    makes it NaN, and so does a row with no entries."""
    high = np.max(x, axis=1, where=mask, initial=-np.inf)
    low = np.min(x, axis=1, where=mask, initial=np.inf)
    return np.where(mask.any(axis=1), high - low, np.nan)


def _c_values(s, t, leq, tau_sq):
    """The c-functions of the pairs with knot parameters s (first line) and
    t (second): the gaps (t - s, s - t), the values
    sqrt(gap^2 - tau^2) and where they are defined (related, radicand not
    below -EPS), and the number of complex flags per pair."""
    dt = np.stack([t[:, None, :] - s[:, :, None],
                   s[:, :, None] - t[:, None, :]], axis=1)
    rad = dt * dt - tau_sq
    flagged = leq & (rad < -EPS)
    c = np.sqrt(np.where(0.0 > rad, 0.0, rad))
    return dt, c, leq & ~flagged, flagged.sum(axis=(1, 2, 3))


def _null_minima(s, t, leq):
    """The null minima of the pairs, forward (per first-line knot) and
    backward (per second-line knot): whether some knot of the other line is
    related, the gap to the first one, whether that knot opens the grid,
    and the low end of the bracket (the previous knot's gap, -inf at the
    grid edge)."""
    rows = np.arange(len(s))[:, None]
    out = []
    for src, dst, related in ((s, t, leq[:, 0]),
                              (t, s, leq[:, 1].transpose(0, 2, 1))):
        k = related.argmax(axis=2)
        low = dst[rows, np.maximum(k - 1, 0)] - src
        out.append((related.any(axis=2), dst[rows, k] - src, k == 0,
                    np.where(k == 0, -np.inf, low)))
    return out


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
    a_params, b_params = alpha.params, beta.params
    leq, tau, _ = _pair_tables(space, (alpha, beta), [0], [1],
                               len(a_params), len(b_params))
    s, t = np.array([a_params], dtype=float), np.array([b_params], dtype=float)
    with np.errstate(all="ignore"):
        _, c, live, flags = _c_values(s, t, leq, tau * tau)
        n_ab, n_ba = _null_minima(s, t, leq)
    keys = list(itertools.product(a_params, b_params))     # row-major

    def values(family):
        defined = live[0, family]
        return dict(zip((keys[k] for k in np.flatnonzero(defined)),
                        c[0, family][defined].tolist()))

    def minima(params, has, gap, edge, low):
        return {p: (v, e, prev) for p, related, v, e, prev in zip(
            params, has[0].tolist(), gap[0].tolist(), edge[0].tolist(),
            low[0].tolist()) if related}

    return CFunctionTable(values(0), values(1), minima(a_params, *n_ab),
                          minima(b_params, *n_ba), int(flags[0]))


def _shifts(dt, c, live, nulls):
    """Least-squares synchronization offset of each pair.

    For genuinely parallel lines whose second parameter runs ahead of
    synchronized time by b, the squared timelike gap functions are affine in
    the parameter gap with slope 2b (forward family) resp. -2b (backward
    family); each family is fit separately since their intercepts differ.
    Falls back to the null-minima midpoint difference when the lines never
    cross timelike."""
    g, y, m = (v.reshape(len(v), 2, math.prod(v.shape[2:]))
               for v in (dt, c * c, live))
    n = m.sum(axis=2)
    gbar, ybar = _sum(np.stack([g, y]), m) / n
    dg = g - gbar[..., None]
    den, cross = _sum(np.stack([dg * dg, dg * (y - ybar[..., None])]), m)
    # forward family: value^2 = -2 b g - b^2 + c^2 over g = t - s;
    # backward family: value^2 = +2 b g' - b^2 + c^2 over g' = s - t
    slope = cross / den
    estimates = np.stack([-slope[:, 0], slope[:, 1]], axis=1) / 2.0
    fitted = (n >= 2) & ~(den <= EPS)
    (has_ab, gap_ab, _, _), (has_ba, gap_ba, _, _) = nulls
    midpoints = (_sum(gap_ba, has_ba) / has_ba.sum(axis=1)
                 - _sum(gap_ab, has_ab) / has_ab.sum(axis=1)) / 2.0
    return np.where(fitted.any(axis=1),
                    _sum(estimates, fitted) / fitted.sum(axis=1),
                    np.where(has_ab.any(axis=1) & has_ba.any(axis=1),
                             midpoints, 0.0))


def _decide(space, lines, params, first, second, na, nb, tolerance):
    """``decide_parallel`` on one block of pairs: the field arrays."""
    leq, tau, valid = _pair_tables(space, lines, first, second, na, nb)
    s, t = params[first, :na], params[second, :nb]
    tau_sq = tau * tau
    dt, c, live, _ = _c_values(s, t, leq, tau_sq)
    shift = _shifts(dt, c, live, _null_minima(s, t, leq))

    synced = t + shift[:, None]
    merged = ((np.diff(synced, axis=1) <= 0) & valid[:, 0, 0, 1:]).any(axis=1)
    dt, c, live, flags = _c_values(s, synced, leq, tau_sq)
    n_ab, n_ba = _null_minima(s, synced, leq)
    values, defined = _rows(c), _rows(live)
    none = ~defined.any(axis=1)
    c_mean = np.where(none, np.nan,
                      _sum(values, defined) / defined.sum(axis=1))
    half = values.shape[1] // 2    # c_ab's entries, then c_ba's
    spread = _spread(values, defined)
    per_function = np.stack([
        _spread(values[:, :half], defined[:, :half]),
        _spread(values[:, half:], defined[:, half:]),
        _spread(n_ab[1], n_ab[0]), _spread(n_ba[1], n_ba[0])], axis=1)
    ok = spread <= tolerance
    # the quantized null minima must stay consistent with the distance
    mean = c_mean[:, None]
    for has, gap, _, low in (n_ab, n_ba):
        ok &= ~(has & ((mean < low - tolerance)
                       | (mean > gap + tolerance))).any(axis=1)

    # re-verify the realization: alpha(s) -> (s, 0), synced beta(t) -> (t, c)
    defect, kept, mismatched = product_image_terms(
        tau, leq, dt, c_mean[:, None, None, None], tolerance)
    kept &= valid
    tau_defect = np.where(ok, np.fmax.reduce(_rows(defect), axis=1,
                                             where=_rows(kept), initial=0.0),
                          0.0)
    mismatches = np.where(ok, (mismatched & valid).sum(axis=(1, 2, 3)), 0)
    ok &= (tau_defect <= tolerance) & (mismatches == 0)

    return (ok & ~merged, c_mean, shift, spread, per_function,
            np.where(none, np.nan, tau_defect), mismatches, flags)


def decide_parallel(space, lines, first, second,
                    tolerance) -> ParallelVerdicts:
    """``test_parallel`` for every line pair (lines[first[k]],
    lines[second[k]]) at once, in array passes over blocks of pairs whose
    padded knot-pair tables hold at most ``chains.PAIR_BLOCK`` entries per
    direction (a single pair may exceed it).

    The arithmetic is stated, so that the pairwise loop kept as a test
    oracle gives the same values bit for bit, up to the sign of a NaN made
    of two NaNs: squares are plain products, sums run left to right from
    +0.0 in the order of the pairwise dictionaries (``c_ab`` before
    ``c_ba``, row-major), and a spread is largest minus smallest entry,
    NaN when any entry is."""
    first = np.asarray(first, dtype=np.intp)
    second = np.asarray(second, dtype=np.intp)
    knots = np.array([len(line.params) for line in lines], dtype=np.intp)
    params = np.zeros((len(lines), knots.max(initial=1)))
    for row, line in zip(params, lines):
        row[:len(line.params)] = line.params
    na, nb = knots[first].max(initial=1), knots[second].max(initial=1)
    step = max(1, chains.PAIR_BLOCK // (na * nb))
    # at least one block, so that an empty batch gives empty arrays; the
    # pairwise loop met inf - inf and overflow in silence
    with np.errstate(all="ignore"):
        blocks = [_decide(space, lines, params, first[k:k + step],
                          second[k:k + step], na, nb, tolerance)
                  for k in range(0, max(len(first), 1), step)]
    return ParallelVerdicts(*map(np.concatenate, zip(*blocks)))


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
    return decide_parallel(space, (alpha, beta), [0], [1],
                           tolerance).verdict(0, alpha, beta)


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
        k = beta.knot_index(s)
        if k is not None:
            max_gap = max(max_gap, space.d(alpha.point_at(s),
                                           beta.chain.points[k]))
    return StrongCausalityReport(max_gap <= coincidence_radius, max_gap,
                                 max_angle, n_pairs)


def _passes_through(space, line: LineDescriptor, p, radius) -> bool:
    return any(space.d(pt, p) <= radius for pt in line.chain.points)


def _coincide(space, a: LineDescriptor, b: LineDescriptor, radius) -> bool:
    matched = 0
    for s in a.params:
        k = b.knot_index(s)
        if k is not None:
            matched += 1
            if space.d(a.point_at(s), b.chain.points[k]) > radius:
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
    the count must be one.  The candidates are decided in one
    ``decide_parallel`` batch and checked in order."""
    candidates = tuple(candidates)
    batch = decide_parallel(space, (alpha, *candidates), [0] * len(candidates),
                            range(1, len(candidates) + 1), tolerance)
    verified = []
    for k, cand in enumerate(candidates):
        verdict = batch.verdict(k, alpha, cand)
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
                                     knot_extent=None) -> SynchronizedReport:
    """Build the asymptotes through p and q in synchronized-time
    parametrization and test that they are parallel with no residual shift."""
    bp = busemann_value(space, line, p, horizons)
    bq = busemann_value(space, line, q, horizons)
    alpha = build_asymptotic_line(space, line, p, horizons, bp.value,
                                  knot_extent)
    beta = build_asymptotic_line(space, line, q, horizons, bq.value,
                                 knot_extent)
    verdict = test_parallel(space, alpha, beta, tolerance)
    sync = verdict.parallel and abs(verdict.shift) <= tolerance
    return SynchronizedReport(sync, verdict.distance_c, verdict.shift)


def test_weak_transitivity(space, alpha: LineDescriptor, beta: LineDescriptor,
                           gamma: LineDescriptor, p, candidate: LineDescriptor,
                           tolerance, radius) -> bool:
    """Given alpha parallel to beta and beta parallel to gamma, a line through
    p on gamma that is parallel to alpha must be gamma itself (up to a
    parameter shift).  The four pairs are decided in one
    ``decide_parallel`` batch and checked in order."""
    lines = (alpha, beta, gamma, candidate)
    batch = decide_parallel(space, lines, [0, 1, 0, 3], [1, 2, 3, 2], tolerance)
    if not batch.verdict(0, alpha, beta).parallel:
        raise PreconditionError("alpha and beta are not parallel")
    if not batch.verdict(1, beta, gamma).parallel:
        raise PreconditionError("beta and gamma are not parallel")
    if not _passes_through(space, gamma, p, radius):
        raise PreconditionError("p does not lie on gamma")
    cand_verdict = batch.verdict(2, alpha, candidate)
    if not cand_verdict.parallel or not _passes_through(space, candidate, p, radius):
        raise PreconditionError("candidate is not a parallel to alpha through p")
    verdict = batch.verdict(3, candidate, gamma)
    if not verdict.parallel or verdict.distance_c > radius:
        return False
    synced = gamma.shifted(verdict.shift)
    return _coincide(space, candidate, synced, max(radius, tolerance))
