"""Command-line front end: space ingestion, command dispatch, reports.

Space files are JSON with an explicit format version; tables are row-major
and every real is carried as a decimal string so files stay bit-stable
across locales.  Exit codes: 0 pass, 1 mathematical failure or negative
verdict, 2 I/O or parse trouble, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from .core import (EPS, FiniteLorentzSpace, PreconditionError, StructuralError,
                   check_pushup, validate_axioms)
from .models import (EuclideanSegment, ExplicitTable, PlaneSample,
                     ProductSpace, TripodGraph, minkowski_space)
from .chains import CausalChain, maximize_tau
from .comparison import UnrealizableError, test_curvature_lower0, \
    test_monotonicity_comparison
from .asymptotics import (NotALineError, build_asymptote, busemann_value,
                          line_from_chain)
from .splitting import build_splitting_map, extract_slice
from . import sampling

FORMAT_VERSION = 1


class InputError(Exception):
    """Malformed command-line input, surfaced through exit code 2."""


def _real(x) -> str:
    return repr(float(x))


def _parse_real(s) -> float:
    try:
        return float(s)
    except (TypeError, ValueError):
        raise StructuralError(f"not a real number: {s!r}") from None


def _parse_int(s) -> int:
    try:
        return int(s)
    except (TypeError, ValueError):
        raise StructuralError(f"not an integer: {s!r}") from None


def _table_out(arr):
    return [[_real(v) for v in row] for row in np.asarray(arr, dtype=float)]


def _table_in(rows):
    return np.array([[_parse_real(v) for v in row] for row in rows], dtype=float)


def save_space(space, path, mesh=None, tolerances=None):
    if isinstance(space, FiniteLorentzSpace):
        payload = {
            "n": space.n,
            "d": _table_out(space._d),
            "leq": [[bool(v) for v in row] for row in space._leq],
            "ll": [[bool(v) for v in row] for row in space._ll],
            "tau": _table_out(space._tau),
        }
        kind = "finite"
    elif isinstance(space, ProductSpace):
        payload = {
            "factor": _factor_out(space.factor),
            "time_grid": {"t_min": _real(space.t_min), "t_max": _real(space.t_max),
                          "t_step": _real(space.t_step)},
        }
        kind = "product"
    else:
        raise StructuralError(f"cannot serialize {type(space).__name__}")
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}
    if mesh is not None:
        doc["mesh"] = _real(mesh)
    if tolerances:
        doc["tolerances"] = {k: _real(v) for k, v in tolerances.items()}
    _atomic_write(path, json.dumps(doc, indent=1))


def _factor_out(factor):
    if isinstance(factor, EuclideanSegment):
        return {"kind": factor.kind, "lo": _real(factor.lo), "hi": _real(factor.hi),
                "points": factor.n_points}
    if isinstance(factor, TripodGraph):
        return {"kind": factor.kind, "leg_length": _real(factor.leg_length),
                "points_per_leg": factor.n_per_leg}
    if isinstance(factor, PlaneSample):
        return {"kind": factor.kind, "mesh": _real(factor.mesh),
                "points": [[_real(a), _real(b)] for a, b in factor.points]}
    if isinstance(factor, ExplicitTable):
        return {"kind": factor.kind, "mesh": _real(factor.mesh),
                "table": _table_out(factor.table)}
    raise StructuralError(f"cannot serialize factor {type(factor).__name__}")


def _factor_in(doc):
    kind = doc["kind"]
    if kind == "euclidean-segment":
        return EuclideanSegment(_parse_real(doc["lo"]), _parse_real(doc["hi"]),
                                _parse_int(doc["points"]))
    if kind == "metric-graph":
        return TripodGraph(_parse_real(doc["leg_length"]),
                           _parse_int(doc["points_per_leg"]))
    if kind == "euclidean-plane-sample":
        pts = tuple((_parse_real(a), _parse_real(b)) for a, b in doc["points"])
        return PlaneSample(pts, _parse_real(doc["mesh"]))
    if kind == "explicit-table":
        table = tuple(tuple(_parse_real(v) for v in row) for row in doc["table"])
        return ExplicitTable(table, _parse_real(doc["mesh"]))
    raise StructuralError(f"unknown factor kind {kind!r}")


def load_space(path):
    """Parse a space file; returns (space, metadata dict)."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise StructuralError(f"unsupported format_version {doc.get('format_version')}")
    kind = doc.get("kind")
    payload = doc.get("payload", {})
    try:
        space = _space_in(kind, payload)
    except KeyError as exc:
        raise StructuralError(f"missing key {exc}") from None
    meta = {"kind": kind,
            "mesh": _parse_real(doc["mesh"]) if "mesh" in doc else None,
            "tolerances": {k: _parse_real(v)
                           for k, v in doc.get("tolerances", {}).items()}}
    return space, meta


def _space_in(kind, payload):
    if kind == "finite":
        tau = _table_in(payload["tau"])
        return FiniteLorentzSpace(_table_in(payload["d"]), payload["leq"],
                                  payload["ll"], tau)
    if kind == "product":
        grid = payload["time_grid"]
        return ProductSpace(_factor_in(payload["factor"]),
                            _parse_real(grid["t_min"]), _parse_real(grid["t_max"]),
                            _parse_real(grid["t_step"]))
    if kind == "minkowski":
        return minkowski_space(
            _parse_real(payload.get("t_min", "-2.0")),
            _parse_real(payload.get("t_max", "2.0")),
            _parse_real(payload.get("x_min", "-1.0")),
            _parse_real(payload.get("x_max", "1.0")),
            _parse_real(payload.get("step", "0.25")))
    raise StructuralError(f"unknown space kind {kind!r}")


def load_chain(path, space_kind, n_points=None):
    """Parse a chain file: a list of ``points``, each an integer index in
    0..n_points-1 (finite spaces) or a ``[t, x]`` pair of reals."""
    with open(path) as fh:
        doc = json.load(fh)
    pts = doc.get("points") if isinstance(doc, dict) else None
    if not isinstance(pts, list):
        raise InputError(f"chain file {path} has no list of points")
    if space_kind == "finite":
        return CausalChain(tuple(_point_index(p, n_points) for p in pts))
    for p in pts:
        if not (isinstance(p, list) and len(p) == 2):
            raise InputError(f"chain point {p!r} is not a [t, x] pair")
    return CausalChain(tuple((_parse_real(t), _parse_real(x)) for t, x in pts))


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lorentz-lab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _point_index(raw, n):
    # int() would truncate 1.7 and take True for 1
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise InputError(f"point {raw!r} is not an integer index")
    try:
        index = int(raw)
    except ValueError:
        raise InputError(f"cannot parse point {raw!r}") from None
    if not 0 <= index < n:
        raise InputError(f"point index {index} outside 0..{n - 1}")
    return index


def parse_point(raw, space):
    """A point index of a finite table, or a "t,x" pair of an analytic
    space."""
    if isinstance(space, FiniteLorentzSpace):
        return _point_index(raw, space.n)
    try:
        parts = raw.split(",")
        return (float(parts[0]), float(parts[1]))
    except (ValueError, IndexError):
        raise InputError(f"cannot parse point {raw!r}") from None


class RunReport:
    def __init__(self, command, seed=None):
        self.doc = {"command": command, "verdicts": {}, "defects": {},
                    "witnesses": [], "seed": seed}
        self._t0 = time.time()

    def verdict(self, name, value):
        self.doc["verdicts"][name] = value

    def defect(self, name, value):
        self.doc["defects"][name] = value

    def witness(self, item):
        self.doc["witnesses"].append(item)

    def emit(self):
        self.doc["wall_time_s"] = round(time.time() - self._t0, 4)
        print(json.dumps(self.doc, indent=1, default=str))


def cmd_validate(args):
    report = RunReport(["validate", args.path])
    space, meta = load_space(args.path)
    if isinstance(space, FiniteLorentzSpace):
        result = validate_axioms(space)
        for check in result.checks:
            report.verdict(check.name, check.passed)
            if not check.passed:
                report.witness({"axiom": check.name, "witness": check.witness})
        report.emit()
        return 0 if result.passed else 1
    # analytic kinds: relations come from formulas; spot-check consistency
    sample = list(space.sample_points())[:: max(1, len(list(space.sample_points())) // 12)]
    push = check_pushup(space, sample)
    report.verdict("push-up on sample", push.passed)
    consistent = all(
        (space.tau(p, q) > 0) == space.ll(p, q) and
        (space.leq(p, q) or space.tau(p, q) == 0.0)
        for p in sample for q in sample)
    report.verdict("tau/relation consistency on sample", consistent)
    report.emit()
    return 0 if (push.passed and consistent) else 1


def cmd_tau(args):
    report = RunReport(["tau", args.path, args.src, args.dst], seed=None)
    space, meta = load_space(args.path)
    p = parse_point(args.src, space)
    q = parse_point(args.dst, space)
    stored = space.tau(p, q)
    report.defect("tau", stored)
    if stored == 0.0 and not space.leq(p, q):
        report.verdict("related", False)
    else:
        report.verdict("related", True)
    if args.intrinsic:
        if not isinstance(space, FiniteLorentzSpace):
            report.verdict("intrinsic", "analytic space: stored value is intrinsic")
        elif not space.leq(p, q) or p == q:
            report.verdict("intrinsic", "no causal chains between the points")
        else:
            result = maximize_tau(space, p, q)
            report.defect("intrinsic_tau", result.value)
            report.defect("intrinsicness_defect", abs(result.value - stored))
            report.witness({"chain": list(result.chain.points),
                            "tie_count": result.tie_count})
    report.emit()
    return 0


def _curvature_tolerance(space, meta, args):
    if args.tol is not None:
        return args.tol
    if meta["tolerances"].get("curvature"):
        return meta["tolerances"]["curvature"]
    mesh = meta["mesh"] or getattr(space, "mesh", None)
    return 5.0 * mesh if mesh else EPS


def cmd_curvature(args):
    report = RunReport(["curvature", args.path, args.bound], seed=args.seed)
    space, meta = load_space(args.path)
    tol = _curvature_tolerance(space, meta, args)
    if args.bound in ("lower0", "upper0"):
        mode = "lower" if args.bound == "lower0" else "upper"
        if isinstance(space, FiniteLorentzSpace):
            triangles = sampling.finite_triangles(space, args.samples, args.seed)
        else:
            triangles = sampling.minkowski_triangles(space, args.samples, args.seed)
        result = test_curvature_lower0(space, triangles, mode=mode, tol=tol,
                                       seed=args.seed)
        report.verdict("curvature", result.passed)
        report.defect("worst_defect", result.worst_defect)
        if result.witness is not None and not result.passed:
            report.witness({"triangle": result.witness[0],
                            "pair": [list(map(str, result.witness[1])),
                                     list(map(str, result.witness[2]))]})
        if args.out:
            _atomic_write(args.out, "mode,worst_defect,min_defect,max_defect\n"
                          f"{mode},{result.worst_defect},{result.min_defect},"
                          f"{result.max_defect}\n")
        report.emit()
        return 0 if result.passed else 1
    # monotonicity mode
    if isinstance(space, FiniteLorentzSpace):
        raise PreconditionError("monotonicity sampling needs an analytic space")
    hinges = sampling.product_hinges(space, args.samples, args.seed)
    worst = 0.0
    ok = True
    for la, lb in hinges:
        rep = test_monotonicity_comparison(space, la, lb, "lower", tol=tol)
        worst = max(worst, rep.max_violation)
        ok = ok and rep.passed
    report.verdict("monotonicity", ok)
    report.defect("worst_violation", worst)
    if args.out:
        _atomic_write(args.out, f"mode,worst_violation\nmonotonicity,{worst}\n")
    report.emit()
    return 0 if ok else 1


def _load_line(space, meta, path, tol):
    chain = load_chain(path, meta["kind"], getattr(space, "n", None))
    return line_from_chain(space, chain,
                           anchor=min(range(len(chain.points)),
                                      key=lambda i: abs(chain.points[i][0])
                                      if meta["kind"] != "finite" else i),
                           tol=tol)


def cmd_asymptote(args):
    report = RunReport(["asymptote", args.path, args.src, args.direction],
                       seed=None)
    space, meta = load_space(args.path)
    line = _load_line(space, meta, args.line, args.tol_line)
    p = parse_point(args.src, space)
    horizons = [float(h) for h in args.horizons.split(",")]
    result = build_asymptote(space, line, p, args.direction, horizons)
    report.verdict("timelike", result.is_timelike)
    report.verdict("stabilized", result.stabilized)
    report.defect("min_step", result.min_step)
    report.witness({"limit_points": [list(map(str, pt)) if meta["kind"] != "finite"
                                     else pt for pt in result.limit.points],
                    "params": list(result.limit_params)})
    estimate = busemann_value(space, line, p, horizons)
    report.defect("synchronized_time", estimate.value)
    report.defect("error_bound", estimate.error_bound)
    if args.tol_busemann is not None and estimate.error_bound > args.tol_busemann:
        report.verdict("busemann_converged", False)
        report.witness({"note": "horizons too short for requested tolerance",
                        "error_bound": estimate.error_bound})
    report.emit()
    return 0 if result.is_timelike else 1


def cmd_split(args):
    report = RunReport(["split", args.path], seed=None)
    space, meta = load_space(args.path)
    if isinstance(space, FiniteLorentzSpace):
        raise PreconditionError("splitting reconstruction needs an analytic space")
    try:
        lo, hi, step = (float(v) for v in args.t_grid.split(":"))
    except ValueError:
        raise InputError(f"--t-grid {args.t_grid!r} is not lo:hi:step") from None
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi >= lo):
        raise InputError(f"--t-grid {args.t_grid!r} needs finite lo <= hi "
                         "and step > 0")
    if step < space.t_step:
        # checked before the knot list is built: a tiny step asks for an
        # unbounded number of knots
        raise InputError(f"--t-grid step {step!r} is finer than the space's "
                         f"time step {space.t_step!r}")
    line = _load_line(space, meta, args.line, args.tol_line)
    horizons = [float(h) for h in args.horizons.split(",")]
    bus_bound = max((busemann_value(space, line, (0.0, q), horizons).error_bound
                     for q in space.factor.sample()[:: max(1, len(space.factor.sample()) // 5)]
                     if space.ll((0.0, q), line.point_at(horizons[0]))),
                    default=space.mesh)
    tolerance = args.tol if args.tol is not None else 3.0 * (space.mesh + bus_bound)
    seeds = [(0.0, q) for q in space.factor.sample()]
    sl = extract_slice(space, line, seeds, horizons, tolerance=tolerance,
                       knot_extent=args.knot_extent)
    knots = [lo + step * k for k in range(int(round((hi - lo) / step)) + 1)]
    cover_radius = 0.5 * step + 2.0 * space.mesh
    covered = [z for z in space.sample_points()
               if lo - 0.5 * step <= z[0] <= hi + 0.5 * step]
    result = build_splitting_map(space, sl, knots, tolerance=tolerance,
                                 cover_sample=covered,
                                 cover_radius=cover_radius)
    report.verdict("bijective", result.bijective)
    report.verdict("order_preserving", result.leq_mismatches == 0)
    report.defect("tau_defect", result.tau_defect)
    report.defect("members", len(sl))
    for w in result.witnesses[:10]:
        report.witness(w)
    if args.out:
        doc = {
            "format_version": FORMAT_VERSION,
            "members": [list(map(_real, m)) for m in sl.members],
            "d_S": _table_out(sl.d_S),
            "time_knots": [_real(t) for t in result.time_knots],
            "tau_defect": _real(result.tau_defect),
            "leq_mismatches": result.leq_mismatches,
            "bijective": result.bijective,
        }
        _atomic_write(args.out, json.dumps(doc, indent=1))
    if args.plot:
        rows = ["member,b_plus,slice_id," +
                ",".join(f"d{j}" for j in range(len(sl)))]
        for i, m in enumerate(sl.members):
            rows.append(",".join(["\"" + repr(m) + "\"", "0.0", str(i)]
                                 + [_real(v) for v in sl.d_S[i]]))
        _atomic_write(args.plot, "\n".join(rows) + "\n")
    if args.plot_svg:
        _atomic_write(args.plot_svg, _slice_scatter_svg(sl))
    report.emit()
    return 0 if result.verified else 1


def _slice_scatter_svg(sl, size=360, pad=20):
    """Static scatter of the slice through a two-anchor distance embedding."""
    n = len(sl.members)
    anchor = int(np.argmax(sl.d_S[0])) if n > 1 else 0
    xs = [sl.d_S[0, i] for i in range(n)]
    ys = [sl.d_S[anchor, i] for i in range(n)]
    span = max(max(xs), max(ys), 1e-9)
    scale = (size - 2 * pad) / span
    dots = "\n".join(
        f'<circle cx="{pad + x * scale:.1f}" cy="{size - pad - y * scale:.1f}" '
        f'r="3" fill="black"><title>member {i}</title></circle>'
        for i, (x, y) in enumerate(zip(xs, ys)))
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">\n{dots}\n</svg>\n')


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lorentz-lab",
        description="desk-scale checks for synthetic Lorentzian geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms of a space file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("tau", help="time separation between two points")
    p.add_argument("path")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--intrinsic", action="store_true",
                   help="also maximize over causal chains")
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("curvature", help="sampled curvature-bound tests")
    p.add_argument("path")
    p.add_argument("--bound", choices=["lower0", "upper0", "monotonicity"],
                   default="lower0")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-curvature", dest="tol", type=float, default=None)
    p.add_argument("--out", default=None, help="worst-defect CSV path")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("asymptote", help="build an asymptote to a line")
    p.add_argument("path")
    p.add_argument("--line", required=True, help="chain file for the line")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--direction", choices=["future", "past"], default="future")
    p.add_argument("--horizons", default="2,4,8,16,32,64,128,256")
    p.add_argument("--tol-busemann", dest="tol_busemann", type=float,
                   default=None)
    p.add_argument("--tol-line", dest="tol_line", type=float, default=EPS)
    p.set_defaults(fn=cmd_asymptote)

    p = sub.add_parser("split", help="slice extraction and product reconstruction")
    p.add_argument("path")
    p.add_argument("--line", required=True)
    p.add_argument("--t-grid", dest="t_grid", default="-2:2:0.5")
    p.add_argument("--horizons", default="2,4,8,16,32,64,128,256")
    p.add_argument("--knot-extent", dest="knot_extent", type=float, default=2.5)
    p.add_argument("--tol-parallel", dest="tol", type=float, default=None)
    p.add_argument("--tol-line", dest="tol_line", type=float, default=EPS)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None, help="slice distance rows as CSV")
    p.add_argument("--plot-svg", dest="plot_svg", default=None,
                   help="static scatter of the slice embedding")
    p.set_defaults(fn=cmd_split)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 2
    except NotALineError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, UnrealizableError) as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
