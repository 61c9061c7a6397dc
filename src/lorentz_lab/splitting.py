"""Slice extraction and splitting verification.

Around a complete timelike line the space is spanned by synchronized
asymptotes.  Their zero-time footpoints form the spacelike slice, metrized by
parallel-line distance; sending (time, footpoint) to the asymptote point at
that synchronized time reconstructs the space as a product, and this module
measures how faithfully the reconstruction preserves separations, causal
order and one-to-one coverage.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .core import EPS, PreconditionError, metric_defect
from .models import product_image_defect
from .asymptotics import (LineDescriptor, build_asymptotic_line,
                          busemann_value, in_timelike_envelope, line_point)
from .parallel import test_parallel

# image pairs checked by build_splitting_map; larger maps are sampled with
# seed 0 so that reports stay reproducible
MAX_PAIRS = 20000


@dataclass(frozen=True)
class SpacelikeSlice:
    members: tuple                 # footpoints at synchronized time zero
    d_S: np.ndarray                # parallel-line distance table
    lines: tuple                   # synchronized asymptotic line per member
    reference_line: LineDescriptor | None
    horizons: tuple

    def __post_init__(self):
        d = np.asarray(self.d_S, dtype=float)
        if d.shape != (len(self.members), len(self.members)):
            raise PreconditionError("distance table does not match member count")
        object.__setattr__(self, "d_S", d)

    def __len__(self):
        return len(self.members)

    def validate_metric(self, tol=EPS):
        """Symmetry, vanishing diagonal and the triangle inequality of the
        distance table: ``(metric_defect(d_S) <= tol, metric_defect(d_S))``."""
        worst = metric_defect(self.d_S)
        return worst <= tol, worst


def slice_from_table(members, d_S) -> SpacelikeSlice:
    """Slice carrying an externally supplied distance table (controls and
    negative tests)."""
    n = len(members)
    return SpacelikeSlice(tuple(members), np.asarray(d_S, dtype=float),
                          (None,) * n, None, ())


def extract_slice(space, line: LineDescriptor, seeds, horizons,
                  tolerance, **asymptote_kw) -> SpacelikeSlice:
    """One synchronized asymptote per seed, deduplicated by footpoint, with
    the parallel-line distance table over the surviving members.

    The asymptote knot extent must exceed the largest synchronized-time
    magnitude among the seeds, or the zero-time footpoint falls off the
    sampled part of its line.  The distance table is checked to be a metric
    before it is returned; a violation beyond ``tolerance`` means the
    asymptote family is broken and raises."""
    dedupe_radius = 0.25 * getattr(space, "mesh", EPS)
    members, lines = [], []
    for seed in seeds:
        if not in_timelike_envelope(space, line, seed):
            raise PreconditionError(f"seed {seed} outside the timelike envelope")
        b = busemann_value(space, line, seed, horizons)
        asym = build_asymptotic_line(space, line, seed, horizons,
                                     busemann_shift=b.value, **asymptote_kw)
        foot = line_point(space, asym, 0.0)
        if any(space.d(foot, m) < dedupe_radius for m in members):
            continue
        members.append(foot)
        lines.append(asym)

    n = len(members)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            verdict = test_parallel(space, lines[i], lines[j], tolerance)
            if not verdict.parallel:
                raise PreconditionError(
                    f"asymptotes through members {i} and {j} fail the "
                    "parallelity test")
            d[i, j] = d[j, i] = verdict.distance_c
    out = SpacelikeSlice(tuple(members), d, tuple(lines), line, tuple(horizons))
    ok, worst = out.validate_metric(tolerance)
    if not ok:
        raise PreconditionError(f"slice distances violate the metric axioms "
                                f"by {worst}")
    return out


@dataclass(frozen=True)
class SplittingResult:
    slice: SpacelikeSlice
    time_knots: tuple
    images: dict                   # (knot index, member index) -> space point
    tau_defect: float
    leq_mismatches: int
    bijective: bool
    witnesses: tuple
    n_pairs: int

    @property
    def verified(self):
        return self.bijective and self.leq_mismatches == 0


def build_splitting_map(space, sl: SpacelikeSlice, time_knots,
                        tolerance, cover_sample=None,
                        cover_radius=None) -> SplittingResult:
    """Tabulate the reconstruction map on time knots x slice members and
    verify it: separations must match the product formula over the slice
    distances, causal order must transfer outside the null band of width
    ``tolerance``, images must be pairwise distinct, and (when a cover sample
    is supplied) every sampled point of the timelike envelope must be within
    ``cover_radius`` of some image.  Above ``MAX_PAIRS`` image pairs a fixed
    random sample of them is checked."""
    if any(l is None for l in sl.lines):
        raise PreconditionError("slice carries no asymptote lines")
    if cover_radius is None:
        cover_radius = 2.0 * getattr(space, "mesh", EPS)
    time_knots = tuple(time_knots)
    images = {}
    for ki, t in enumerate(time_knots):
        for mi, line in enumerate(sl.lines):
            images[(ki, mi)] = line_point(space, line, t)

    # injectivity per time knot (cross-knot duplicates would break the
    # separation check anyway)
    witnesses = []
    bijective = True
    dedupe = getattr(space, "mesh", EPS) * 0.25
    for ki in range(len(time_knots)):
        for mi in range(len(sl.members)):
            for mj in range(mi + 1, len(sl.members)):
                if space.d(images[(ki, mi)], images[(ki, mj)]) < dedupe:
                    bijective = False
                    witnesses.append(("duplicate-image", ki, mi, mj))

    keys = list(images)
    image_list = list(images.values())
    # pair number k of itertools.combinations(range(n), 2), drawn as a
    # number so that the pairs are never listed: row a holds the pairs
    # (a, b > a) from number first[a] on
    n = len(keys)
    n_all = n * (n - 1) // 2
    numbers = np.array(random.Random(0).sample(range(n_all), MAX_PAIRS)
                       if n_all > MAX_PAIRS else range(n_all), dtype=np.intp)
    first = np.arange(n) * (2 * n - np.arange(n) - 1) // 2
    a = np.searchsorted(first, numbers, side="right") - 1
    b = numbers - first[a] + a + 1
    # every pair in both orders, (a, b) then (b, a); image a sits at time
    # knot knot[a] on the line of member[a]
    src, dst = np.empty(2 * len(a), np.intp), np.empty(2 * len(a), np.intp)
    src[0::2], src[1::2], dst[0::2], dst[1::2] = a, b, b, a
    del numbers, a, b    # the pair arrays below set the peak memory
    knot, member = np.array(keys, dtype=np.intp).reshape(-1, 2).T
    times = np.array(time_knots, dtype=float)
    tau_defect, mismatched = product_image_defect(
        space, image_list, src, dst, times[knot[dst]] - times[knot[src]],
        sl.d_S[member[src], member[dst]], tolerance)
    for k in mismatched:
        (ka, ma), (kb, mb) = keys[src[k]], keys[dst[k]]
        witnesses.append(("leq-mismatch", (ma, time_knots[ka]),
                          (mb, time_knots[kb])))
    mismatches = len(mismatched)

    if cover_sample is not None:
        uncovered = _uncovered(space, list(cover_sample), image_list,
                               cover_radius)
        bijective = bijective and not uncovered
        witnesses.extend(("uncovered", z) for z in uncovered)

    return SplittingResult(sl, time_knots, images, tau_defect, mismatches,
                           bijective, tuple(witnesses), len(src))


def _uncovered(space, sample, images, radius):
    """The sample points farther than ``radius`` from every image, in sample
    order.  Distances are screened as arrays, at most 2 * MAX_PAIRS at a
    time.  ``d_array`` may differ from ``d`` in the last bit, so a point
    with no screened distance clearly below the radius but one within a
    relative 1e-12 of it (or NaN) is settled by ``min`` over ``space.d``."""
    if sample and not images:
        raise PreconditionError("no images to cover the sample with")
    out = []
    block = max(1, 2 * MAX_PAIRS // max(1, len(images)))
    for start in range(0, len(sample), block):
        zs = sample[start:start + block]
        # row z, column w: d(z, w) over the points images + zs
        zi = np.repeat(np.arange(len(images), len(images) + len(zs)),
                       len(images))
        wi = np.tile(np.arange(len(images)), len(zs))
        dist = space.d_array(images + zs, zi, wi).reshape(len(zs), len(images))
        with np.errstate(invalid="ignore"):
            near = ~(np.abs(dist - radius)
                     > 1e-12 * np.maximum(dist, abs(radius)))
        below = (dist < radius) & ~near
        for z, far, tie in zip(zs, ~below.any(axis=1), near.any(axis=1)):
            if far and (not tie
                        or min(space.d(z, w) for w in images) > radius):
                out.append(z)
    return out


@dataclass(frozen=True)
class CauchyReport:
    each_chain_hits_each_slice_once: bool
    statuses: tuple                # (chain index, level, status)
    n_spanning: int


def synchronized_time(space, line: LineDescriptor, p, horizons):
    """Synchronized-time value of p using only the horizons still timelike
    related to p (at least two are required)."""
    usable = [t for t in horizons
              if line.has_param(t) and space.ll(p, line.point_at(t))]
    if len(usable) < 2:
        raise PreconditionError(
            f"fewer than two horizons remain timelike related to {p}")
    return busemann_value(space, line, p, usable).value


def check_cauchy_slices(space, result: SplittingResult, test_chains,
                        levels=None) -> CauchyReport:
    """Every spanning causal chain must cross each synchronized-time level
    exactly once, detected as a sign change (or a single on-level knot) of
    the synchronized time along the chain.  Knots within one grid mesh of a
    level count as lying on it."""
    sl = result.slice
    if sl.reference_line is None:
        raise PreconditionError("splitting result carries no reference line")
    if levels is None:
        ts = sorted(result.time_knots)
        levels = ts[1:-1] if len(ts) > 2 else ts
    on_slice_tol = getattr(space, "mesh", EPS)

    statuses = []
    all_ok = True
    n_spanning = 0
    for ci, chain in enumerate(test_chains):
        times = [synchronized_time(space, sl.reference_line, p, sl.horizons)
                 for p in chain.points]
        lo, hi = min(levels), max(levels)
        if not (times[0] < lo - on_slice_tol and times[-1] > hi + on_slice_tol):
            statuses.append((ci, None, "not-spanning"))
            continue
        n_spanning += 1
        for level in levels:
            vals = [b - level for b in times]
            crossings = 0
            k = 0
            while k < len(vals):
                if abs(vals[k]) <= on_slice_tol:
                    crossings += 1
                    while k + 1 < len(vals) and abs(vals[k + 1]) <= on_slice_tol:
                        k += 1
                elif k + 1 < len(vals) and vals[k] < 0 < vals[k + 1] \
                        and abs(vals[k + 1]) > on_slice_tol:
                    crossings += 1
                k += 1
            status = "ok" if crossings == 1 else f"crossings={crossings}"
            if crossings != 1:
                all_ok = False
            statuses.append((ci, level, status))
    return CauchyReport(all_ok, tuple(statuses), n_spanning)


@dataclass(frozen=True)
class SliceCurvatureReport:
    nonneg_curvature: bool
    worst_excess: float
    witness: tuple | None
    n_quadruples: int
    skipped: int


def check_slice_alexandrov(sl: SpacelikeSlice, tol=1e-6,
                           metric_tol=None) -> SliceCurvatureReport:
    """Quadruple comparison test for nonnegative curvature of the slice: for
    every center x and triple (a, b, c), the three flat comparison angles at
    x must sum to at most a full turn.  Degenerate quadruples are skipped
    and counted.

    ``metric_tol`` bounds how far the table may stray from the metric axioms
    before the test refuses to run (extracted tables carry grid-scale
    noise)."""
    n = len(sl.members)
    if n < 4:
        raise PreconditionError("need at least four slice members")
    ok, worst_metric = sl.validate_metric(metric_tol if metric_tol is not None
                                          else max(tol, EPS))
    if not ok:
        raise PreconditionError(f"slice table is not a metric (defect {worst_metric})")
    d = sl.d_S
    worst = -math.inf
    witness = None
    count = 0
    for x in range(n):
        others = [i for i in range(n) if i != x]
        # comparison angle at x over each pair a < b of the others, rounded
        # as the scalar law of cosines rounds it (a degenerate row gives
        # NaN or inf here, and its quadruples are skipped below)
        da, dab = d[x, others], d[np.ix_(others, others)]
        with np.errstate(all="ignore"):
            cos = ((da[:, None] * da[:, None] + da[None, :] * da[None, :])
                   - dab * dab) / (2.0 * da[:, None] * da[None, :])
        cos = np.where(cos > -1.0, cos, -1.0)    # max(-1.0, c): NaN gives -1
        ang = np.where(cos < 1.0, cos, 1.0).tolist()
        for a, row in enumerate(ang):
            row[a + 1:] = map(math.acos, row[a + 1:])
        # a quadruple is degenerate when x nearly meets one of its points
        live = [k for k in range(len(others)) if not da[k] <= EPS]
        for a, b, c in itertools.combinations(live, 3):
            excess = ((ang[a][b] + ang[b][c]) + ang[a][c]) - 2.0 * math.pi
            if excess > worst:
                worst = excess
                witness = (x, others[a], others[b], others[c])
        count += math.comb(len(live), 3)
    skipped = n * math.comb(n - 1, 3) - count
    if count == 0:
        raise PreconditionError("all quadruples degenerate")
    return SliceCurvatureReport(worst <= tol, worst, witness, count, skipped)


@dataclass(frozen=True)
class TCReport:
    all_extendible: bool
    statuses: tuple


def check_tc_property(space, result: SplittingResult, probes) -> TCReport:
    """Probe finite-length timelike maximizing chains for continuous
    extendibility through the reconstruction: the factor component must have
    finite slice length with its limit candidate present in the sampled
    slice, with the endpoint within two grid meshes of the limit candidate's
    asymptote.

    Vertical probes (constant factor component) carry a linear growth
    certificate and are rejected as out of scope; probe points outside the
    sampled envelope are reported, not judged.
    """
    sl = result.slice
    if sl.reference_line is None:
        raise PreconditionError("splitting result carries no reference line")
    radius = 2.0 * getattr(space, "mesh", EPS)
    statuses = []
    all_ok = True
    for ci, chain in enumerate(probes):
        pts = list(chain.points)
        try:
            for p in pts:
                if not in_timelike_envelope(space, sl.reference_line, p):
                    raise _OutOfSample
        except _OutOfSample:
            statuses.append((ci, "out-of-sample"))
            continue
        member_ids = [_nearest_member(space, sl, p) for p in pts]
        factor_moves = any(space.d(sl.members[i], sl.members[member_ids[0]])
                           > EPS for i in member_ids)
        if not factor_moves:
            statuses.append((ci, "rejected-infinite"))
            continue
        # factor length through the slice metric and the limit candidate
        flen = sum(sl.d_S[i, j] for i, j in zip(member_ids, member_ids[1:]))
        end_time = synchronized_time(space, sl.reference_line, pts[-1],
                                     sl.horizons)
        endpoint_gap = space.d(
            pts[-1], line_point(space, sl.lines[member_ids[-1]], end_time))
        if math.isfinite(flen) and endpoint_gap <= radius:
            statuses.append((ci, "extendible"))
        else:
            statuses.append((ci, "stuck"))
            all_ok = False
    return TCReport(all_ok, tuple(statuses))


class _OutOfSample(Exception):
    pass


def _nearest_member(space, sl: SpacelikeSlice, p):
    """Index of the slice member whose asymptote passes closest to p."""
    best, best_i = math.inf, 0
    for i, line in enumerate(sl.lines):
        gap = min(space.d(p, z) for z in line.chain.points)
        if gap < best:
            best, best_i = gap, i
    return best_i
