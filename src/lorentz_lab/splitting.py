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

from .core import EPS, PreconditionError
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
        distance table, checked entry by entry."""
        d = self.d_S
        n = len(self.members)
        worst = 0.0
        for i in range(n):
            worst = max(worst, abs(d[i, i]))
            for j in range(n):
                worst = max(worst, abs(d[i, j] - d[j, i]))
                for k in range(n):
                    worst = max(worst, d[i, k] - d[i, j] - d[j, k])
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
    all_pairs = list(itertools.combinations(range(len(keys)), 2))
    if len(all_pairs) > MAX_PAIRS:
        all_pairs = random.Random(0).sample(all_pairs, MAX_PAIRS)

    def image_pairs():
        for ia, ib in all_pairs:
            (ka, ma), (kb, mb) = keys[ia], keys[ib]
            u, v = images[keys[ia]], images[keys[ib]]
            sa, sb = time_knots[ka], time_knots[kb]
            for (p, q, s, t, i, j) in ((u, v, sa, sb, ma, mb),
                                       (v, u, sb, sa, mb, ma)):
                yield p, q, t - s, sl.d_S[i, j], ("leq-mismatch", (i, s), (j, t))

    tau_defect, mismatched = product_image_defect(space, image_pairs(),
                                                  tolerance)
    mismatches = len(mismatched)
    witnesses.extend(mismatched)

    if cover_sample is not None:
        image_list = list(images.values())
        for z in cover_sample:
            if min(space.d(z, w) for w in image_list) > cover_radius:
                bijective = False
                witnesses.append(("uncovered", z))

    return SplittingResult(sl, time_knots, images, tau_defect, mismatches,
                           bijective, tuple(witnesses), 2 * len(all_pairs))


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

    def angle(x, a, b):
        da, db, dab = d[x, a], d[x, b], d[a, b]
        if da <= EPS or db <= EPS:
            return None
        c = (da * da + db * db - dab * dab) / (2.0 * da * db)
        return math.acos(min(1.0, max(-1.0, c)))

    quads = [(x, trip) for x in range(n)
             for trip in itertools.combinations(
                 [i for i in range(n) if i != x], 3)]

    worst = -math.inf
    witness = None
    skipped = 0
    count = 0
    for x, (a, b, c) in quads:
        angs = (angle(x, a, b), angle(x, b, c), angle(x, a, c))
        if any(v is None for v in angs):
            skipped += 1
            continue
        count += 1
        excess = sum(angs) - 2.0 * math.pi
        if excess > worst:
            worst, witness = excess, (x, a, b, c)
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
