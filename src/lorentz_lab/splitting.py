"""Slice extraction and splitting verification.

Around a complete timelike line the space is spanned by synchronized
asymptotes.  Their zero-time footpoints form the spacelike slice, metrized by
parallel-line distance; sending (time, footpoint) to the asymptote point at
that synchronized time reconstructs the space as a product, and this module
measures how faithfully the reconstruction preserves separations, causal
order and one-to-one coverage.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from . import chains
from .core import EPS, PointTuple, PreconditionError, metric_defect
from .models import ProductSpace, product_image_defect
from .asymptotics import (LineDescriptor, _asymptotic_lines,
                          _busemann_values, _extrapolated, _line_points,
                          build_asymptotic_line, busemann_value,
                          in_timelike_envelope, in_timelike_envelopes,
                          line_point)
from .parallel import decide_parallel

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
        # a read-only copy, so that the defect kept below cannot go stale
        d = np.array(self.d_S, dtype=float)
        if d.shape != (len(self.members), len(self.members)):
            raise PreconditionError("distance table does not match member count")
        d.flags.writeable = False
        object.__setattr__(self, "d_S", d)

    def __len__(self):
        return len(self.members)

    @cached_property
    def defect(self):
        """``metric_defect(d_S)``, taken on first use and kept."""
        return metric_defect(self.d_S)

    def validate_metric(self, tol=EPS):
        """Symmetry, vanishing diagonal and the triangle inequality of the
        distance table: ``(metric_defect(d_S) <= tol, metric_defect(d_S))``."""
        return self.defect <= tol, self.defect


def slice_from_table(members, d_S) -> SpacelikeSlice:
    """Slice carrying an externally supplied distance table (controls and
    negative tests)."""
    n = len(members)
    return SpacelikeSlice(tuple(members), np.asarray(d_S, dtype=float),
                          (None,) * n, None, ())


def extract_slice(space, line: LineDescriptor, seeds, horizons,
                  tolerance, knot_extent=None) -> SpacelikeSlice:
    """One synchronized asymptote per seed, deduplicated by footpoint, with
    the parallel-line distance table over the surviving members.

    The asymptote knot extent must exceed the largest synchronized-time
    magnitude among the seeds, or the zero-time footpoint falls off the
    sampled part of its line.  The distance table is checked to be a metric
    before it is returned; a violation beyond ``tolerance`` means the
    asymptote family is broken and raises.

    Each step runs over all seeds at once: the envelope check, the
    synchronized times (``busemann_value``), the asymptotic lines and their
    footpoints, each telling where it may raise.  The first seed flagged by
    any of them goes through the per-seed steps, which raise the error of
    the first failing seed as a loop over the seeds meets it (or give its
    line and footpoint, and the next flagged seed follows).  A footpoint is
    kept when it lies at ``space.d`` 0.25 mesh or more from every footpoint
    kept before it, decided by one ``_screened_d`` pass over the seed
    pairs."""
    seeds, horizons = PointTuple(seeds), list(horizons)
    n = len(seeds)
    flagged = ~in_timelike_envelopes(space, line, seeds)
    shifts, failing = _busemann_values(space, line, seeds, horizons)
    flagged |= failing
    lines, feet = [None] * n, [None] * n
    built = np.flatnonzero(~flagged)
    for k, asym in zip(built.tolist(), _asymptotic_lines(
            space, line, seeds.take(built), sorted(horizons), shifts[built],
            knot_extent)):
        lines[k] = asym
    built = [k for k in built.tolist() if lines[k] is not None]
    for k, foot in zip(built, _line_points(space, [lines[k] for k in built],
                                           0.0)):
        feet[k] = foot
    for k in range(n):
        if feet[k] is None:
            lines[k], feet[k] = _seed_steps(space, line, seeds[k], horizons,
                                            knot_extent)

    radius = 0.25 * space.mesh
    later, earlier = np.tril_indices(n, -1)
    near = np.zeros((n, n), dtype=bool)
    near[later, earlier] = _screened_d(space, PointTuple(feet), later, earlier,
                                       radius) < radius
    kept = []
    for k in range(n):
        if not near[k, kept].any():
            kept.append(k)
    members, lines = [feet[k] for k in kept], [lines[k] for k in kept]

    n = len(members)
    first, second = np.triu_indices(n, 1)
    verdicts = decide_parallel(space, lines, first, second, tolerance)
    failed = np.flatnonzero(~verdicts.parallel)
    if len(failed):
        # the row-major first failure, as a pairwise loop meets it (its
        # verdict raises first when the shift merges knots)
        k = failed[0]
        i, j = int(first[k]), int(second[k])
        verdicts.verdict(k, lines[i], lines[j])
        raise PreconditionError(f"asymptotes through members {i} and {j} "
                                "fail the parallelity test")
    d = np.zeros((n, n))
    d[first, second] = d[second, first] = verdicts.distance_c
    out = SpacelikeSlice(tuple(members), d, tuple(lines), line, tuple(horizons))
    ok, worst = out.validate_metric(tolerance)
    if not ok:
        raise PreconditionError(f"slice distances violate the metric axioms "
                                f"by {worst}")
    return out


def _seed_steps(space, line, seed, horizons, knot_extent):
    """The asymptotic line and footpoint of one seed by the per-seed steps
    of ``extract_slice``, raising the error the first failing one
    raises."""
    if not in_timelike_envelope(space, line, seed):
        raise PreconditionError(f"seed {seed} outside the timelike envelope")
    b = busemann_value(space, line, seed, horizons)
    asym = build_asymptotic_line(space, line, seed, horizons, b.value,
                                 knot_extent)
    return asym, line_point(space, asym, 0.0)


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
    ``cover_radius`` of some image (only those within it in time can be).
    Above ``MAX_PAIRS`` image pairs a fixed random sample of them is
    checked."""
    if any(l is None for l in sl.lines):
        raise PreconditionError("slice carries no asymptote lines")
    time_knots = tuple(time_knots)
    images = {(ki, mi): line_point(space, line, t)
              for ki, t in enumerate(time_knots)
              for mi, line in enumerate(sl.lines)}
    keys, image_list = list(images), PointTuple(images.values())
    # injectivity per time knot (cross-knot duplicates fail the product test)
    witnesses = []
    m, dedupe = len(sl.members), space.mesh * 0.25
    mi, mj = np.triu_indices(m, 1)
    for ki in range(len(time_knots)):
        dup = _screened_d(space, image_list, ki * m + mi, ki * m + mj,
                          dedupe) < dedupe
        witnesses.extend(("duplicate-image", ki, i, j)
                         for i, j in zip(mi[dup].tolist(), mj[dup].tolist()))
    bijective = not witnesses

    # pair number k of itertools.combinations(range(n), 2), drawn as a
    # number so that the pairs are never listed: row a holds the pairs
    # (a, b > a) from number first[a] on
    n = len(keys)
    n_all = n * (n - 1) // 2
    numbers = (np.array(random.Random(0).sample(range(n_all), MAX_PAIRS),
                        dtype=np.intp)
               if n_all > MAX_PAIRS else np.arange(n_all))
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
        space.tau_array(image_list, src, dst),
        space.leq_array(image_list, src, dst),
        times[knot[dst]] - times[knot[src]],
        sl.d_S[member[src], member[dst]], tolerance)
    for k in mismatched:
        (ka, ma), (kb, mb) = keys[src[k]], keys[dst[k]]
        witnesses.append(("leq-mismatch", (ma, time_knots[ka]),
                          (mb, time_knots[kb])))

    if cover_sample is not None:
        uncovered = _uncovered(space, tuple(cover_sample), image_list,
                               2.0 * space.mesh if cover_radius is None
                               else cover_radius)
        bijective = bijective and not uncovered
        witnesses.extend(("uncovered", z) for z in uncovered)

    return SplittingResult(sl, time_knots, images, tau_defect, len(mismatched),
                           bijective, tuple(witnesses), len(src))


def _screened_d(space, points, i, j, threshold):
    """``space.d_array(points, i, j)`` over the index arrays i and j (of
    one number of axes) broadcast against each other, in bands of whole
    rows (first axis) of at most ``max(chains.PAIR_BLOCK, one row)``
    entries, with entries within a relative 1e-12 of ``threshold`` (or NaN)
    re-taken from ``space.d``: compared with ``threshold``, it decides as
    ``d`` does."""
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    shape = np.broadcast_shapes(i.shape, j.shape)
    rows = max(1, chains.PAIR_BLOCK // max(1, math.prod(shape[1:])))
    # a band takes an axis of length one whole, so that d_array broadcasts
    # the small index arrays
    bands = [space.d_array(points, *(x if len(x) == 1 else x[k:k + rows]
                                     for x in (i, j)))
             for k in range(0, max(shape[0], 1), rows)]
    # one band is used as it is: a copy of it would cost page faults
    dist = bands[0] if len(bands) == 1 else np.concatenate(bands)
    with np.errstate(invalid="ignore"):
        near = ~(np.abs(dist - threshold)
                 > 1e-12 * np.maximum(dist, abs(threshold)))
    i, j = np.broadcast_arrays(i, j)
    for k in np.flatnonzero(near).tolist():
        dist.flat[k] = space.d(points[i.flat[k]], points[j.flat[k]])
    return dist


def _uncovered(space, sample, images, radius):
    """The sample points farther than ``radius`` from every image, in sample
    order: ``min(space.d(z, w) for w in images) > radius``, so a NaN distance
    to the first image covers z and any later NaN is passed over.  As
    ``d >= |dt|`` on a product, z goes against image 0 and its window: the
    images within the radius of it in time, widened by a relative 1e-12.  A
    NaN time, or a space without time, makes every window whole.  A band of
    windows is one ``_screened_d`` call (README, numerical conventions)."""
    if not sample:
        return []
    if not images:
        raise PreconditionError("no images to cover the sample with")
    n = len(images)
    points = images.joined(sample)
    if isinstance(space, ProductSpace):
        times = space.point_arrays(points)[0]
    else:
        times = np.full(len(points), np.nan)
    order = np.argsort(times[:n])
    t, z = times[:n][order], times[n:]
    reach = abs(radius) + 1e-12 * (np.abs(z) + abs(radius))
    with np.errstate(invalid="ignore"):
        lo = np.searchsorted(t, z - reach, side="left")
        hi = np.maximum(np.searchsorted(t, z + reach, side="right"), lo)
    whole = np.isnan(z) | np.isnan(t[-1])
    lo[whole], hi[whole] = 0, n
    # a row is image 0 then its window: run k of a band is row k's
    width = hi - lo + 1
    rows = max(1, chains.PAIR_BLOCK // int(width.max()))
    out = []
    for start in range(0, len(sample), rows):
        w = width[start:start + rows]
        firsts = np.cumsum(w) - w
        offset = np.arange(firsts[-1] + w[-1]) - np.repeat(firsts, w)
        columns = order[np.repeat(lo[start:start + rows] - 1, w) + offset]
        columns[firsts] = 0
        zs = np.repeat(np.arange(n + start, n + start + len(w)), w)
        dist = _screened_d(space, points, zs, columns, radius)
        far = np.logical_and.reduceat((dist > radius) | np.isnan(dist), firsts)
        far &= ~np.isnan(dist[firsts])
        out.extend(points[n + start + k] for k in np.flatnonzero(far).tolist())
    return out


@dataclass(frozen=True)
class CauchyReport:
    each_chain_hits_each_slice_once: bool
    statuses: tuple                # (chain index, level, status)
    n_spanning: int


def synchronized_time(space, line: LineDescriptor, p, horizons):
    """Synchronized-time value of p using only the horizons still timelike
    related to p (at least two are required)."""
    return float(synchronized_times(space, line, [p], horizons)[0])


def synchronized_times(space, line: LineDescriptor, points, horizons):
    """``synchronized_time`` of every point, as an array, bit for bit.

    The horizons with a knot on the line are looked up once and sorted;
    one ``ll_array`` and one ``tau_array`` pass over points x horizon knots
    (on the line's kept knot arrays) give every sample, and
    ``busemann_value``'s two-sample extrapolation over each point's usable
    horizons is taken elementwise.  The error raised is the one the
    per-point loop meets first: of the first failing point, in order."""
    points = tuple(points)
    if not points:
        return np.zeros(0)
    found = sorted(((t, k) for t in horizons
                    if (k := line.knot_index(t)) is not None),
                   key=itemgetter(0))
    hs = [t for t, _ in found]
    knots = np.array([k for _, k in found], dtype=np.intp)[None, :]
    n = len(line.chain.points)
    pts = line.chain.points.joined(points)
    here = np.arange(n, n + len(points))[:, None]
    usable = space.ll_array(pts, here, knots)
    few = usable.sum(axis=1) < 2
    if few.all():    # so also when no horizon has a knot
        _raise_synchronized(space, line, points[0], usable[0], hs)
    values, failing = _extrapolated(np.array(hs, dtype=float)[None, :],
                                    space.tau_array(pts, here, knots), usable)
    failing |= few
    if failing.any():
        r = int(np.argmax(failing))
        _raise_synchronized(space, line, points[r], usable[r], hs)
    return values


def _raise_synchronized(space, line, p, usable, hs):
    """The error of ``synchronized_time`` at p, given its row of usable
    horizons in the ``synchronized_times`` pass: too few of them, or the
    error ``busemann_value`` raises over them."""
    if usable.sum() < 2:
        raise PreconditionError(
            f"fewer than two horizons remain timelike related to {p}")
    busemann_value(space, line, p, [hs[k] for k in np.flatnonzero(usable)])


def check_cauchy_slices(space, result: SplittingResult, test_chains,
                        levels=None) -> CauchyReport:
    """Every spanning causal chain must cross each synchronized-time level
    exactly once, detected as a sign change (or a single on-level knot) of
    the synchronized time along the chain.  Knots within one grid mesh of a
    level count as lying on it.  The synchronized times of every chain
    point come from one ``synchronized_times`` pass."""
    sl = result.slice
    if sl.reference_line is None:
        raise PreconditionError("splitting result carries no reference line")
    if levels is None:
        ts = sorted(result.time_knots)
        levels = ts[1:-1] if len(ts) > 2 else ts
    levels = list(levels)
    on_slice_tol = space.mesh

    test_chains = list(test_chains)
    all_times = synchronized_times(
        space, sl.reference_line,
        [p for chain in test_chains for p in chain.points], sl.horizons)
    statuses, all_ok, n_spanning, start = [], True, 0, 0
    for ci, chain in enumerate(test_chains):
        times = all_times[start:start + len(chain.points)]
        start += len(chain.points)
        lo, hi = min(levels), max(levels)
        if not (times[0] < lo - on_slice_tol and times[-1] > hi + on_slice_tol):
            statuses.append((ci, None, "not-spanning"))
            continue
        n_spanning += 1
        counts = _crossings(np.subtract.outer(times, levels).T, on_slice_tol)
        statuses.extend((ci, level, "ok" if c == 1 else f"crossings={c}")
                        for level, c in zip(levels, counts.tolist()))
        all_ok = all_ok and bool((counts == 1).all())
    return CauchyReport(all_ok, tuple(statuses), n_spanning)


def _crossings(v, tol):
    """Crossings of zero along each row of v: the starts of runs with
    ``|v| <= tol``, plus the steps from ``v < -tol`` to ``v > tol``."""
    on = np.abs(v) <= tol
    return (on.sum(axis=1) - (on[:, 1:] & on[:, :-1]).sum(axis=1)
            + ((v[:, :-1] < -tol) & (v[:, 1:] > tol)).sum(axis=1))


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
    noise).

    The quadruples (x, a < b < c) are scanned in that order, in bands of at
    most ``chains.PAIR_BLOCK`` entries, each band one array pass over the
    comparison angles of its centres; the witness is the first quadruple of
    the largest excess, as a loop keeping the first strict maximum meets
    it."""
    n = len(sl.members)
    if n < 4:
        raise PreconditionError("need at least four slice members")
    ok, worst_metric = sl.validate_metric(metric_tol if metric_tol is not None
                                          else max(tol, EPS))
    if not ok:
        raise PreconditionError(f"slice table is not a metric (defect {worst_metric})")
    d = sl.d_S
    # the others of centre x, in order, and which of them x does not
    # nearly meet: a quadruple is degenerate when x nearly meets a point
    others = np.array([[i for i in range(n) if i != x] for x in range(n)])
    live = ~(d[np.arange(n)[:, None], others] <= EPS)
    count = sum(math.comb(k, 3) for k in live.sum(axis=1).tolist())
    if count == 0:
        raise PreconditionError("all quadruples degenerate")
    # the triples a < b < c of the others' positions, numbered in order,
    # are drawn a band at a time from their numbers, never all listed: the
    # triples with first index a run from number first[a] on, and their
    # pairs (b, c) are the upper-triangle pairs from number row[a + 1] on
    m = n - 1
    pb, pc = np.triu_indices(m, 1)
    row = np.concatenate(([0], np.cumsum(np.arange(m - 1, -1, -1))))
    first = np.concatenate(([0], np.cumsum(
        [math.comb(m - 1 - i, 2) for i in range(m)])))
    n_triples = int(first[-1])
    # a band is whole centres times all their triples, or one centre times
    # a run of its triples
    per = max(1, chains.PAIR_BLOCK // n_triples)
    span = min(n_triples, chains.PAIR_BLOCK)
    worst, witness = -math.inf, None
    for x0 in range(0, n, per):
        centres = np.arange(x0, min(x0 + per, n))
        flat = _angles(d, others, centres).reshape(len(centres), m * m)
        for lo in range(0, n_triples, span):
            hi = min(lo + span, n_triples)
            a = np.repeat(np.arange(m), np.diff(np.clip(first, lo, hi)))
            pair = row[a + 1] - first[a] + np.arange(lo, hi)
            b, c = pb[pair], pc[pair]
            excess = ((flat[:, a * m + b] + flat[:, b * m + c])
                      + flat[:, a * m + c] - 2.0 * math.pi)
            if not live[centres].all():
                alive = live[centres]
                excess[~(alive[:, a] & alive[:, b] & alive[:, c])] = -math.inf
            i, k = divmod(int(np.argmax(excess)), hi - lo)
            if excess[i, k] > worst:
                worst = float(excess[i, k])
                y = int(centres[i])
                witness = (y, *others[y, [a[k], b[k], c[k]]].tolist())
    skipped = n * math.comb(n - 1, 3) - count
    return SliceCurvatureReport(worst <= tol, worst, witness, count, skipped)


def _angles(d, others, centres):
    """The comparison angles at each centre x over each pair (a, b) of its
    others, at [x, a, b]: ``np.arccos`` of the law of cosines' cosine,
    clamped to [-1, 1] with NaN read as -1 (a degenerate row gives NaN or
    inf in the cosine, and its quadruples are skipped)."""
    o = others[centres]
    da, dab = d[centres[:, None], o], d[o[:, :, None], o[:, None, :]]
    with np.errstate(all="ignore"):
        cos = ((da[:, :, None] * da[:, :, None]
                + da[:, None, :] * da[:, None, :]) - dab * dab) \
            / (2.0 * da[:, :, None] * da[:, None, :])
    cos = np.where(cos > -1.0, cos, -1.0)    # max(-1.0, c): NaN gives -1
    return np.arccos(np.where(cos < 1.0, cos, 1.0))


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
    radius = 2.0 * space.mesh
    statuses = []
    all_ok = True
    for ci, chain in enumerate(probes):
        pts = list(chain.points)
        if not all(in_timelike_envelope(space, sl.reference_line, p)
                   for p in pts):
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


def _nearest_member(space, sl: SpacelikeSlice, p):
    """Index of the slice member whose asymptote passes closest to p."""
    best, best_i = math.inf, 0
    for i, line in enumerate(sl.lines):
        gap = min(space.d(p, z) for z in line.chain.points)
        if gap < best:
            best, best_i = gap, i
    return best_i
