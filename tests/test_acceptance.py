"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is pinned here; run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import random
import time

import numpy as np
import pytest

from lorentz_lab.chains import CausalChain, maximize_tau
from lorentz_lab.comparison import (SideTriple, law_of_cosines_side,
                                    realize_triangle, solve_angle,
                                    verify_alexandrov_across,
                                    verify_alexandrov_future, verify_stacking,
                                    angle_equals_comparison_angle)
from lorentz_lab.comparison import test_curvature_lower0 as curvature_bound
from lorentz_lab.comparison import test_monotonicity_comparison as \
    monotonicity_bound
from lorentz_lab.models import (EuclideanSegment, ProductSpace,
                                check_product_glob_hyp,
                                check_realizer_characterization,
                                tau_minkowski)
from lorentz_lab.asymptotics import busemann_value, vertical_line
from lorentz_lab.parallel import c_functions
from lorentz_lab.parallel import test_parallel as parallel_verdict
from lorentz_lab.splitting import (build_splitting_map, check_cauchy_slices,
                                   check_slice_alexandrov, extract_slice,
                                   slice_from_table)
from lorentz_lab.sampling import (minkowski_triangles, perturb_chain,
                                  product_hinges, random_causal_chain,
                                  random_realizer_chain, sprinkle_causal_set,
                                  spanning_timelike_chains)
from lorentz_lab.asymptotics import line_from_chain

from conftest import HORIZONS, brute_force_tau


def verdict(criterion, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert passed, line


def test_ac1_maximizer_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    n_pairs = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(6, 12)
        space = sprinkle_causal_set(n, seed)
        related = [(i, j) for i in range(n) for j in range(n)
                   if i != j and space.leq(i, j)]
        rng.shuffle(related)
        for (i, j) in related[:6]:
            n_pairs += 1
            gap = abs(maximize_tau(space, i, j).value
                      - brute_force_tau(space, i, j))
            worst = max(worst, gap)
    elapsed = time.time() - t0
    verdict("AC1 maximizer oracle equivalence",
            worst <= 1e-12 and elapsed < 5.0,
            f"worst gap {worst:.2e} over {n_pairs} pairs / 100 seeds, "
            f"{elapsed:.2f}s")


def test_ac2_law_of_cosines_round_trip():
    rng = random.Random(42)
    worst = 0.0
    count = 0
    while count < 10_000:
        a = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        b = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        sigma = rng.choice((1, -1))
        if sigma == 1:
            omega = rng.uniform(0.01, 4.0)
        else:
            arg = (a * a + b * b) / (2 * a * b)
            limit = math.acosh(arg) if arg > 1 else 0.0
            if limit < 0.03:
                continue
            omega = rng.uniform(0.01, 0.99 * limit)
        a13 = law_of_cosines_side(a, b, omega, sigma)
        if a13 <= 1e-9:
            continue
        config = "chain" if sigma == 1 else "endpoint"
        back = solve_angle(SideTriple(a, b, a13, config)).omega
        worst = max(worst, abs(back - omega))
        count += 1

    # finite-difference monotonicity of the angle in the side lengths
    h = 1e-6
    signs_ok = True
    fd_worst = 0.0
    for _ in range(40):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.5, 3.0)
        omega = rng.uniform(0.2, 2.0)
        c = law_of_cosines_side(a, b, omega, 1)

        def w(a12, a23, a13):
            return solve_angle(SideTriple(a12, a23, a13)).omega

        d_long = (w(a, b, c + h) - w(a, b, c - h)) / (2 * h)
        d_adj = (w(a + h, b, c) - w(a - h, b, c)) / (2 * h)
        signs_ok &= d_long > 0 and d_adj < 0
        analytic = c / (a * b * math.sinh(omega))
        fd_worst = max(fd_worst, abs(d_long - analytic) / analytic)
    verdict("AC2 law-of-cosines round trip",
            worst <= 1e-12 and signs_ok and fd_worst <= 1e-4,
            f"10^4 round trips worst {worst:.2e}; monotonicity signs hold, "
            f"FD vs analytic rel err {fd_worst:.2e}")


def test_ac3_model_space_flatness(mink):
    triangles = minkowski_triangles(mink, 500, seed=0)
    lower = curvature_bound(mink, triangles, pairs_per_triangle=6,
                            mode="lower", tol=1e-9, seed=0)
    upper = curvature_bound(mink, triangles, pairs_per_triangle=6,
                            mode="upper", tol=1e-9, seed=0)
    mono_ok = True
    for leg_a, leg_b in product_hinges(mink, 40, seed=1):
        mono_ok &= monotonicity_bound(mink, leg_a, leg_b, "lower",
                                      tol=1e-9).passed
        mono_ok &= monotonicity_bound(mink, leg_a, leg_b, "upper",
                                      tol=1e-9).passed
    agree = (lower.passed and upper.passed) == mono_ok
    verdict("AC3 model-space flatness",
            lower.passed and upper.passed and mono_ok and agree
            and abs(lower.worst_defect) <= 1e-9
            and abs(upper.worst_defect) <= 1e-9,
            f"500 triangles, defects lower {lower.worst_defect:.2e} / "
            f"upper {upper.worst_defect:.2e}; monotonicity agrees")


def test_ac4_product_theorem_checks(segment_product):
    space = segment_product
    tol = 2 * space.mesh
    confirmed = 0
    for seed in range(50):
        diag = check_realizer_characterization(
            space, random_realizer_chain(space, seed))
        if diag.is_realizer and diag.factor_is_minimizer \
                and diag.time_component_affine:
            confirmed += 1
    refuted = 0
    for seed in range(50):
        chain = perturb_chain(space, random_realizer_chain(space, seed), seed)
        if not check_realizer_characterization(space, chain).is_realizer:
            refuted += 1

    bound_ok = True
    for seed in range(50):
        chain = random_causal_chain(space, seed)
        pts = chain.points
        polygon = sum(space.d(u, v) for u, v in zip(pts, pts[1:]))
        bound_ok &= polygon <= math.sqrt(2.0) * (pts[-1][0] - pts[0][0]) + 1e-9

    ghyp = check_product_glob_hyp(
        space, [((0.0, 0.5), (2.0, 0.5)), ((-1.5, 0.0), (1.0, 1.0))])
    verdict("AC4 product theorem checks",
            confirmed == 50 and refuted == 50 and bound_ok
            and ghyp.verdict_consistent,
            f"{confirmed}/50 realizers confirmed, {refuted}/50 perturbed "
            f"refuted, sqrt(2) bound holds, properness verdict consistent")


def test_ac5_stacking_and_angle_constancy(segment_product, mink):
    tol = 5 * segment_product.mesh
    gamma = lambda t: (t, 0.5)
    rng = random.Random(12)
    worst_stack = 0.0
    worst_angle = 0.0
    configs = 0
    while configs < 20:
        p = (rng.uniform(-0.5, 0.5), rng.uniform(0.0, 1.0))
        ts = sorted(rng.uniform(2.0, 60.0) for _ in range(3))
        if ts[1] - ts[0] < 0.5 or ts[2] - ts[1] < 0.5:
            continue
        stack = verify_stacking(segment_product, gamma, p, *ts)
        worst_stack = max(worst_stack, stack.collinear_defect)
        if abs(p[1] - 0.5) > 1e-6:
            spread = angle_equals_comparison_angle(
                segment_product, gamma, 0.0, (p[0] + 2.0, p[1]),
                alpha_fracs=[0.5, 1.0],
                gamma_params=[-ts[0], -2.0, ts[1], ts[2]])
            worst_angle = max(worst_angle, spread.max_spread)
        configs += 1

    flat_gamma = lambda t: (t, 0.0)
    flat_stack = verify_stacking(mink, flat_gamma, (0.0, 1.0), -3.0, 2.0, 5.0)
    flat_angle = angle_equals_comparison_angle(
        mink, flat_gamma, 0.0, (2.0, 1.5),
        alpha_fracs=[0.25, 0.75], gamma_params=[-4.0, -2.5, 3.0, 5.0])
    verdict("AC5 stacking and angle constancy",
            worst_stack <= tol and worst_angle <= tol
            and flat_stack.collinear_defect <= 1e-12
            and flat_angle.max_spread <= 1e-12,
            f"20 product configs: stacking defect {worst_stack:.2e} <= {tol}, "
            f"angle spread {worst_angle:.2e}; flat exact "
            f"({flat_stack.collinear_defect:.1e}, {flat_angle.max_spread:.1e})")


def test_ac6_busemann_accuracy(segment_product, product_gamma):
    space = segment_product
    x0 = 0.5
    t_max = float(HORIZONS[-1])
    worst_ratio = 0.0
    n_probes = 0
    ok = True
    for qi in range(21):
        q = space.factor.sample()[qi]
        for k in range(9):
            s = -2.0 + 0.25 * k    # dyadic values, exactly representable
            estimate = busemann_value(space, product_gamma, (s, q), HORIZONS)
            bound = space.factor.distance(q, x0) ** 2 / (2 * (t_max - s))
            err = abs(estimate.value - s)
            ok &= err <= bound
            n_probes += 1
            if bound > 0:
                worst_ratio = max(worst_ratio, err / bound)
    verdict("AC6 synchronized-time accuracy",
            ok,
            f"{n_probes} grid probes within the expansion bound "
            f"(worst error/bound ratio {worst_ratio:.2e})")


def test_ac7_c_criterion(segment_product, mink):
    alpha = vertical_line(segment_product, 0.0, range(-4, 5))
    beta = vertical_line(segment_product, 1.0, range(-4, 5))
    table = c_functions(segment_product, alpha, beta)
    spreads = table.per_function_spreads()
    spreads_ok = all(s <= 1e-9 for s in spreads.values())
    value_ok = abs(table.mean - 1.0) <= 1e-9

    vert = vertical_line(mink, 0.0, range(-5, 6))
    phi = 0.3
    boosted = line_from_chain(
        mink, CausalChain(tuple((s * math.cosh(phi), 1.0 + s * math.sinh(phi))
                                for s in range(-5, 6))), anchor=5)
    rejected = not parallel_verdict(mink, vert, boosted, 0.05).parallel
    verdict("AC7 c-criterion",
            spreads_ok and value_ok and rejected,
            f"four spreads {max(spreads.values()):.1e} <= 1e-9, value "
            f"{table.mean:.12f}; boosted line rejected")


def _hyperbolic_control():
    def dist(a, b):
        (r1, t1), (r2, t2) = a, b
        ch = math.cosh(r1) * math.cosh(r2) \
            - math.sinh(r1) * math.sinh(r2) * math.cos(t1 - t2)
        return math.acosh(max(ch, 1.0))

    pts = [(0.0, 0.0)] + [(1.5, 2 * math.pi * k / 5) for k in range(5)]
    table = np.array([[dist(a, b) for b in pts] for a in pts])
    return slice_from_table(list(range(len(pts))), table)


def test_ac8_splitting_round_trip(segment_product, product_gamma,
                                  parallel_tolerance):
    space = segment_product
    bus_tol = 0.5 ** 2 / (2.0 * HORIZONS[-1])
    seeds = [(0.0, q) for q in space.factor.sample()]
    sl = extract_slice(space, product_gamma, seeds, HORIZONS,
                       tolerance=parallel_tolerance, knot_extent=4.0)
    distortion = max(abs(sl.d_S[i, j] - abs(sl.members[i][1] - sl.members[j][1]))
                     for i in range(len(sl)) for j in range(len(sl)))
    bound = 2 * (space.mesh + bus_tol)
    knots = [round(-2 + 0.05 * k, 10) for k in range(81)]
    result = build_splitting_map(space, sl, knots,
                                 tolerance=parallel_tolerance,
                                 cover_sample=space.sample_points())
    chains = spanning_timelike_chains(space, 20, seed=8)
    cauchy = check_cauchy_slices(space, result, chains,
                                 levels=[-1.0, 0.0, 1.0])
    default_ok = (distortion <= bound and distortion <= 0.2
                  and result.tau_defect <= bound and result.tau_defect <= 0.2
                  and result.bijective and result.leq_mismatches == 0
                  and cauchy.each_chain_hits_each_slice_once
                  and cauchy.n_spanning == 20)

    # tightened demonstration: factor mesh 0.005, horizon 2^8
    t0 = time.time()
    tight_space = ProductSpace(EuclideanSegment(0.0, 1.0, 201), -2.0, 2.0,
                               0.005)
    tight_gamma = vertical_line(tight_space, 0.5, range(-260, 261))
    tight_bus = 0.5 ** 2 / (2.0 * HORIZONS[-1])
    tight_tol = 3 * (tight_space.mesh + tight_bus)
    tight_seeds = [(0.0, q) for q in tight_space.factor.sample()[::4]]
    tight_slice = extract_slice(tight_space, tight_gamma, tight_seeds,
                                HORIZONS, tolerance=tight_tol,
                                knot_extent=2.5)
    tight_distortion = max(
        abs(tight_slice.d_S[i, j]
            - abs(tight_slice.members[i][1] - tight_slice.members[j][1]))
        for i in range(len(tight_slice)) for j in range(len(tight_slice)))
    tight_knots = [round(-2 + 0.1 * k, 10) for k in range(41)]
    tight_result = build_splitting_map(tight_space, tight_slice, tight_knots,
                                       tolerance=tight_tol)
    elapsed = time.time() - t0
    tight_ok = (tight_distortion <= 0.02 and tight_result.tau_defect <= 0.02
                and tight_result.bijective and elapsed < 60.0)
    verdict("AC8 splitting round trip",
            default_ok and tight_ok,
            f"default: distortion {distortion:.4f} / tau defect "
            f"{result.tau_defect:.4f} <= {bound:.3f}; bijective; 20/20 chains "
            f"cross once; tightened: {tight_distortion:.4f} / "
            f"{tight_result.tau_defect:.4f} <= 0.02 in {elapsed:.1f}s")


def test_ac9_slice_curvature(segment_product, product_gamma,
                             parallel_tolerance):
    seeds = [(0.0, q) for q in segment_product.factor.sample()]
    sl = extract_slice(segment_product, product_gamma, seeds, HORIZONS,
                       tolerance=parallel_tolerance, knot_extent=4.0)
    flat = check_slice_alexandrov(sl, tol=1e-6, metric_tol=0.05)
    control = check_slice_alexandrov(_hyperbolic_control(), tol=1e-6)
    verdict("AC9 slice curvature",
            flat.nonneg_curvature and flat.worst_excess <= 1e-6
            and not control.nonneg_curvature and control.worst_excess > 0,
            f"segment slice excess {flat.worst_excess:.2e} <= 1e-6; "
            f"hyperbolic control excess {control.worst_excess:.3f} > 0")


def test_ac10_alexandrov_lemmas():
    rng = random.Random(99)
    checked = {"across-convex": 0, "across-concave": 0,
               "future-convex": 0, "future-concave": 0}
    ok = True
    while min(checked.values()) < 50:
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.5, 3.0)
        c = (a + b) * rng.uniform(1.05, 1.6) + rng.uniform(0.0, 0.5)
        planted = realize_triangle(SideTriple(a, b, c))
        y = planted.vertex(2)

        u = rng.uniform(0.05, 0.95) * c
        p = planted.point_on_side(1, 3, u)
        fwd, bwd = tau_minkowski(p, y), tau_minkowski(y, p)
        if max(fwd, bwd) > 1e-3:
            p_before = fwd > 0
            flat = fwd if p_before else bwd
            if p_before:
                room_up = min(a - u - flat, (c - u) - flat - b)
            else:
                room_up = min(u - a - flat, b - flat - (c - u))
            for case, delta in (("convex", -rng.uniform(0.1, 0.9) * 0.5 * flat),
                                ("concave", rng.uniform(0.1, 0.9)
                                 * max(room_up, 0.0))):
                if case == "concave" and room_up <= 1e-3:
                    continue
                if abs(delta) < 1e-4:
                    continue
                rep = verify_alexandrov_across(a, b, c, u, flat + delta,
                                               p_before_y=p_before, tol=1e-11)
                good = (rep.case == case and rep.biconditional_ok
                        and rep.delta1_angles_ok and rep.delta2_angles_ok
                        and rep.split_angle_ok and rep.min_margin > 1e-9)
                ok &= good
                checked[f"across-{case}"] += 1

        u2 = rng.uniform(0.05, 0.95) * a
        pf = planted.point_on_side(1, 2, u2)
        flat2 = tau_minkowski(pf, planted.vertex(3))
        room_dn = flat2 - ((a - u2) + b)
        room_up = (c - u2) - flat2
        for case, delta in (("convex", -rng.uniform(0.1, 0.9)
                             * max(room_dn, 0.0)),
                            ("concave", rng.uniform(0.1, 0.9)
                             * max(room_up, 0.0))):
            room = room_dn if case == "convex" else room_up
            if room <= 1e-3 or abs(delta) < 1e-4:
                continue
            rep = verify_alexandrov_future(a, b, c, u2, flat2 + delta,
                                           tol=1e-11)
            good = (rep.case == case and rep.biconditional_ok
                    and rep.delta1_angles_ok and rep.delta2_angles_ok
                    and rep.split_angle_ok and rep.min_margin > 1e-9)
            ok &= good
            checked[f"future-{case}"] += 1
    verdict("AC10 triangle-splitting lemmas",
            ok and all(v >= 50 for v in checked.values()),
            "biconditional, angle directions and split angle confirmed on "
            + ", ".join(f"{v} {k}" for k, v in checked.items())
            + " configurations, strict in all of them")
