"""Oracles the benchmark owns, one for every verdict a job produces.

They run after the job's clock has stopped and share no code with
lorentz_lab: finite tables are re-checked with numpy, analytic spaces against
closed forms of the flat product.  Each check raises ``Mismatch`` when the
library's answer disagrees.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS = 1e-9            # the axiom tolerance lorentz_lab documents
FLAT_TOL = 1e-9       # curvature defects of flat spaces
# Hinge angles near zero come from acosh(1 + u) with u rounded to a few ulp,
# so they are resolved only to a few times sqrt(machine epsilon) ~ 1.5e-8
# (lorentz-lab documents "about 1e-8"); monotonicity is judged above that.
ANGLE_TOL = 1e-7
ROUND_TRIP_TOL = 1e-12


class Mismatch(Exception):
    """A verdict disagrees with the benchmark's oracle."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# finite tables


def table_arrays(space):
    """Copies of the four tables of a finite space, read through its public
    interface."""
    idx = range(space.n)
    d = np.array([[space.d(i, j) for j in idx] for i in idx])
    ll = np.array([[space.ll(i, j) for j in idx] for i in idx], dtype=bool)
    return (d, np.array(space.leq_table(), dtype=bool), ll,
            np.array(space.tau_table(), dtype=float))


def _first(mask):
    hits = np.argwhere(mask)
    return tuple(int(v) for v in hits[0]) if len(hits) else None


def _first_triple(n, mask_at):
    """Lexicographically first (i, j, k) where the (j, k) mask
    ``mask_at(i)`` holds.  One i at a time, so the oracle's arrays stay n²
    and the measuring process's peak memory is the library's."""
    for i in range(n):
        hit = _first(mask_at(i))
        if hit is not None:
            return (i,) + hit
    return None


def axiom_witnesses(d, leq, ll, tau):
    """Lexicographically first violation of every axiom (None when it holds),
    in the order lorentz_lab reports them."""
    n = len(d)
    off = ~np.eye(n, dtype=bool)
    diag = np.arange(n)
    return {
        "d zero diagonal": _first(np.abs(d[diag, diag]) > EPS),
        "d symmetric": _first(np.triu(np.abs(d - d.T) > EPS, 1)),
        "d positive off diagonal": _first(off & (d <= EPS)),
        # [i, j, k] -> d[i, k] > d[i, j] + d[j, k] + EPS
        "d triangle inequality": _first_triple(
            n, lambda i: d[i, None, :] > d[i, :, None] + d + EPS),
        "leq reflexive": _first(~leq[diag, diag]),
        "leq transitive": _first_triple(
            n, lambda i: leq[i, :, None] & leq & ~leq[i, None, :]),
        "ll transitive": _first_triple(
            n, lambda i: ll[i, :, None] & ll & ~ll[i, None, :]),
        "ll contained in leq": _first(ll & ~leq),
        "tau zero when unrelated": _first(~leq & (tau > EPS)),
        "tau positive iff timelike": _first((tau > EPS) != ll),
        "reverse triangle inequality": _first_triple(
            n, lambda i: leq[i, :, None] & leq
            & (tau[i, None, :] < tau[i, :, None] + tau - EPS)),
    }


def check_axioms(arrays, report, planted=None):
    """Every axiom verdict and witness must match the numpy scan; a planted
    axiom must fail."""
    want = axiom_witnesses(*arrays)
    got = {c.name: (c.passed, c.witness) for c in report.checks}
    expect(list(got) == list(want),
           f"axiom names {list(got)} differ from {list(want)}")
    for name, witness in want.items():
        expect(got[name] == (witness is None, witness),
               f"{name}: library says {got[name]}, oracle witness {witness}")
    if planted is None:
        expect(report.passed, "a valid flat table was rejected")
    else:
        expect(want[planted] is not None and not got[planted][0],
               f"planted violation of {planted} went undetected")


def longest_chain_value(tau, leq, source, target):
    """Longest tau-chain from source to target by dynamic programming over a
    topological order (a strict predecessor has strictly fewer
    predecessors)."""
    n = len(tau)
    order = np.argsort(leq.sum(axis=0), kind="stable")
    best = np.full(n, -np.inf)
    best[target] = 0.0
    for v in order[::-1]:
        if v == target or not leq[v, target]:
            continue
        succ = leq[v].copy()
        succ[v] = False
        if succ.any():
            best[v] = np.max(tau[v, succ] + best[succ])
    return best[source]


def check_longest_chain(space, source, target, result):
    tau = np.array(space.tau_table(), dtype=float)
    leq = np.array(space.leq_table(), dtype=bool)
    want = longest_chain_value(tau, leq, source, target)
    expect(abs(result.value - want) <= EPS,
           f"maximize_tau({source}, {target}) = {result.value}, DP {want}")
    pts = result.chain.points
    expect(pts[0] == source and pts[-1] == target,
           f"chain {pts} does not join {source} to {target}")
    expect(all(a != b and leq[a, b] for a, b in zip(pts, pts[1:])),
           f"chain {pts} has a non-causal step")
    length = sum(tau[a, b] for a, b in zip(pts, pts[1:]))
    expect(abs(length - result.value) <= EPS * len(pts),
           f"chain length {length} differs from the value {result.value}")


# ---------------------------------------------------------------------------
# splitting of the segment product


def check_vertical_line(check, chain):
    """A chain at one factor point with increasing time is a line of the
    product: tau is the time difference, so it is additive on every pair."""
    times = [p[0] for p in chain.points]
    expect(len({p[1] for p in chain.points}) == 1
           and all(b > a for a, b in zip(times, times[1:])),
           "the golden line is not a vertical future-directed chain")
    length = times[-1] - times[0]
    expect(check.is_line and check.is_ray and check.first_failure is None,
           f"vertical line rejected at {check.first_failure}")
    expect(abs(check.tau_length - length) <= EPS * len(times),
           f"line length {check.tau_length}, want {length}")


def check_slice(sl, factor_points, tolerance):
    """One member per seed, and the slice distance of members i, j is the
    factor distance |q_i - q_j| of their seeds."""
    q = np.asarray(factor_points, dtype=float)
    expect(len(sl) == len(q), f"{len(sl)} slice members for {len(q)} seeds")
    err = np.abs(np.asarray(sl.d_S) - np.abs(q[:, None] - q[None, :])).max()
    expect(err <= tolerance, f"slice distances off by {err} > {tolerance}")


def check_splitting_map(result, n_knots, n_members, tolerance):
    images = n_knots * n_members
    expect(result.bijective and result.leq_mismatches == 0,
           f"product map rejected: {result.witnesses[:3]}")
    expect(result.tau_defect <= tolerance,
           f"map tau defect {result.tau_defect} > {tolerance}")
    expect(result.n_pairs == images * (images - 1),
           f"{result.n_pairs} ordered image pairs for {images} images")


def check_parallel(verdict, qa, qb, tolerance):
    expect(verdict.parallel, f"asymptotes at {qa} and {qb} judged not parallel")
    expect(abs(verdict.distance_c - abs(qa - qb)) <= tolerance,
           f"distance_c {verdict.distance_c} vs |{qa} - {qb}|")


def cauchy_statuses(chains, levels, on_slice_tol):
    """Level crossings read off the time coordinate, which is synchronized
    time in a product split along a vertical line."""
    out = []
    for ci, chain in enumerate(chains):
        times = [p[0] for p in chain.points]
        if not (times[0] < min(levels) - on_slice_tol
                and times[-1] > max(levels) + on_slice_tol):
            out.append((ci, None, "not-spanning"))
            continue
        expect(all(b > a for a, b in zip(times, times[1:])),
               f"chain {ci} is not future directed")
        for level in levels:
            hits = sum(1 for a, b in zip(times, times[1:]) if a < level <= b)
            out.append((ci, level, "ok" if hits == 1 else f"crossings={hits}"))
    return tuple(out)


def check_cauchy(report, chains, levels, on_slice_tol):
    want = cauchy_statuses(chains, levels, on_slice_tol)
    expect(report.statuses == want,
           f"Cauchy statuses {report.statuses} differ from {want}")
    expect(report.each_chain_hits_each_slice_once
           == all(s[2] in ("ok", "not-spanning") for s in want),
           "Cauchy verdict disagrees with its statuses")


def angle_sum_excess(d):
    """Largest sum of the three flat comparison angles at a centre, minus a
    full turn, over all quadruples; and the number of quadruples."""
    n = len(d)
    i, j, k = np.array(list(itertools.combinations(range(n - 1), 3))).T
    worst = -math.inf
    for x in range(n):
        others = [v for v in range(n) if v != x]
        dx = d[x, others]
        dab = d[np.ix_(others, others)]
        cos = (dx[:, None] ** 2 + dx[None, :] ** 2 - dab ** 2) \
            / (2.0 * dx[:, None] * dx[None, :])
        ang = np.arccos(np.clip(cos, -1.0, 1.0))
        excess = ang[i, j] + ang[j, k] + ang[i, k] - 2.0 * math.pi
        worst = max(worst, float(excess.max()))
    return worst, n * len(i)


def check_slice_curvature(report, sl):
    worst, count = angle_sum_excess(np.asarray(sl.d_S))
    expect(report.n_quadruples + report.skipped == count,
           f"{report.n_quadruples} + {report.skipped} quadruples, want {count}")
    expect(abs(report.worst_excess - worst) <= EPS,
           f"worst angle excess {report.worst_excess}, oracle {worst}")
    expect(report.nonneg_curvature and worst <= 1e-6,
           f"flat slice judged curved (excess {worst})")


# ---------------------------------------------------------------------------
# comparison geometry on flat spaces


def check_flat_triangles(report, n_triangles):
    """Both triangle testers must find every defect of a flat space zero, on
    both orientations of the tester's default 8 pairs per triangle."""
    expect(report.passed, f"{report.mode} triangle test failed on a flat space")
    expect(max(abs(report.min_defect), abs(report.max_defect)) <= FLAT_TOL,
           f"flat defects reach [{report.min_defect}, {report.max_defect}]")
    expect(report.n_triangles == n_triangles
           and report.n_pairs == 2 * 8 * n_triangles,
           f"{report.n_pairs} pairs over {report.n_triangles} triangles")


def bent_sides(space, triangles):
    """Sides of finite-table triangles whose maximal chain passes through an
    interior point.  Each must be an EPS tie with the direct pair: the chain
    is no longer than the direct separation and falls short of it by at most
    EPS per step, as the chain optimizer's tie-breaking allows."""
    bent = 0
    for tri in triangles:
        for side in tri.sides.values():
            knots = side.knots
            if len(knots) == 2:
                continue
            bent += 1
            length = sum(space.tau(a, b) for a, b in zip(knots, knots[1:]))
            direct = space.tau(knots[0], knots[-1])
            expect(direct - EPS * len(knots) <= length <= direct + EPS,
                   f"side {knots} is no EPS tie: {length} vs {direct}")
    return bent


def check_table_triangles(report, space, triangles):
    """A flat table's triangles are flat at 1e-9 when every side is the
    direct pair.  A side bent through an EPS tie sits up to about
    sqrt(EPS * tau) off the straight side, which moves separations by far
    more than 1e-9; then the verdict must only agree with the defects."""
    if not bent_sides(space, triangles):
        check_flat_triangles(report, len(triangles))
        return
    worst = report.max_defect if report.mode == "lower" else -report.min_defect
    expect(report.passed == (worst <= FLAT_TOL),
           f"{report.mode} verdict {report.passed} with worst defect {worst}")


def check_flat_monotonicity(report):
    expect(report.passed and report.max_violation <= ANGLE_TOL,
           f"{report.sense} monotonicity violated by {report.max_violation}")
    expect(report.n_defined > 0, "no defined hinge angles")


def _causal(points):
    t = np.array([p[0] for p in points])
    x = np.array([p[1] for p in points])
    dt = t[None, :] - t[:, None]
    dx = np.abs(x[None, :] - x[:, None])
    return dt >= dx, dt > dx


def check_pushup(report, points):
    """The push-up violations must be exactly those of the relations
    recomputed from the coordinates, in scan order.  Grid points on a common
    light ray can round to a spurious violation; library and oracle must
    then report the same one."""
    leq, ll = _causal(points)
    first = ll[:, :, None] & leq[None, :, :] & ~ll[:, None, :]
    second = leq[:, :, None] & ll[None, :, :] & ~ll[:, None, :]
    want = []
    for a, b, c in np.argwhere(first | second):
        triple = (points[a], points[b], points[c])
        if first[a, b, c]:
            want.append(("ll-leq",) + triple)
        if second[a, b, c]:
            want.append(("leq-ll",) + triple)
    expect(report.n_triples == len(points) ** 3,
           f"{report.n_triples} push-up triples for {len(points)} points")
    expect(report.violations == tuple(want),
           f"push-up violations {report.violations[:3]}, oracle {want[:3]}")


def check_glob_hyp(report, space, pairs):
    """In a product over a segment every causal diamond lies in its time slab
    and within the factor ball of radius 2|r| + 2|t|."""
    pts = space.sample_points()
    s = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    worst = 0.0
    for p, q in pairs:
        inside = (s - p[0] >= np.abs(y - p[1])) & (q[0] - s >= np.abs(q[1] - y))
        slab = np.maximum(p[0] - s, s - q[0])[inside]
        ball = np.abs(y - p[1])[inside] - (2 * abs(p[0]) + 2 * abs(q[0]))
        worst = max(worst, float(np.max(slab, initial=0.0)),
                    float(np.max(ball, initial=0.0)))
    expect(report.proper_factor and report.diamonds_bounded
           and report.verdict_consistent and report.worst_excess <= EPS
           and worst <= EPS,
           f"product global hyperbolicity misjudged: {report}, oracle {worst}")


def check_round_trip(c, back):
    expect(abs(back - c) <= ROUND_TRIP_TOL * max(1.0, c),
           f"law of cosines round trip {c} -> {back}")
