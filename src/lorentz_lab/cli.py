"""Command-line front end: space ingestion, command dispatch, reports.

Space files are JSON with an explicit format version; tables are row-major
and every real is carried as a decimal string so files stay bit-stable
across locales.  Exit codes: 0 pass, 1 mathematical failure or negative
verdict, 2 I/O or parse trouble, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import bisect
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
                          line_from_chain, line_point)
from .splitting import build_splitting_map, extract_slice
from . import sampling

FORMAT_VERSION = 1


class InputError(Exception):
    """Malformed command-line input, surfaced through exit code 2."""


def _real(x) -> str:
    return repr(float(x))


def _parse_real(s) -> float:
    # a JSON boolean is no number, though Python reads True as 1
    if isinstance(s, bool):
        raise StructuralError(f"not a real number: {s!r}")
    try:
        return float(s)
    except (TypeError, ValueError):
        raise StructuralError(f"not a real number: {s!r}") from None


def _parse_setting(s, name, positive=False) -> float:
    """A finite real setting of a space file: at least 0, or above 0 when
    ``positive``."""
    value = _parse_real(s)
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise StructuralError(f"{name} must be a finite real "
                              f"{'>' if positive else '>='} 0, got {s!r}")
    return value


def _parse_int(s) -> int:
    if isinstance(s, bool):
        raise StructuralError(f"not an integer: {s!r}")
    try:
        return int(s)
    except (TypeError, ValueError):
        raise StructuralError(f"not an integer: {s!r}") from None


def _parse_bool(s) -> bool:
    if not isinstance(s, bool):
        raise StructuralError(f"not a JSON boolean: {s!r}")
    return s


def _object_in(doc, name) -> dict:
    if not isinstance(doc, dict):
        raise StructuralError(f"{name} must be a JSON object, got "
                              f"{type(doc).__name__}")
    return doc


def _table_out(arr):
    return [[_real(v) for v in row] for row in np.asarray(arr, dtype=float)]


def _table_in(rows, name, parse=_parse_real, dtype=float):
    """A row-major table of a space file: a list of equally long lists, each
    entry read by ``parse``."""
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and len({len(r) for r in rows}) <= 1):
        raise StructuralError(f"{name} must be a list of equally long rows")
    return np.array([[parse(v) for v in row] for row in rows], dtype=dtype)


def save_space(space, path, mesh=None):
    """Write a finite table space as a space file."""
    if not isinstance(space, FiniteLorentzSpace):
        raise StructuralError(f"cannot serialize {type(space).__name__}")
    payload = {
        "n": space.n,
        "d": _table_out(space._d),
        "leq": [[bool(v) for v in row] for row in space._leq],
        "ll": [[bool(v) for v in row] for row in space._ll],
        "tau": _table_out(space._tau),
    }
    doc = {"format_version": FORMAT_VERSION, "kind": "finite", "payload": payload}
    if mesh is not None:
        doc["mesh"] = _real(mesh)
    _atomic_write(path, json.dumps(doc, indent=1))


def _factor_in(doc):
    kind = _object_in(doc, "factor")["kind"]
    if kind == "euclidean-segment":
        return EuclideanSegment(_parse_real(doc["lo"]), _parse_real(doc["hi"]),
                                _parse_int(doc["points"]))
    if kind == "metric-graph":
        return TripodGraph(_parse_real(doc["leg_length"]),
                           _parse_int(doc["points_per_leg"]))
    if kind == "euclidean-plane-sample":
        pts = _table_in(doc["points"], "plane points")
        if len(pts) and pts.shape[1:] != (2,):
            raise StructuralError("plane points must be [x, y] pairs")
        return PlaneSample(tuple(map(tuple, pts.tolist())),
                           _parse_real(doc["mesh"]))
    if kind == "explicit-table":
        table = _table_in(doc["table"], "factor table")
        if len(table) and table.shape[1:] != (len(table),):
            raise StructuralError("a factor table must be square")
        return ExplicitTable(tuple(map(tuple, table.tolist())),
                             _parse_real(doc["mesh"]))
    raise StructuralError(f"unknown factor kind {kind!r}")


def _read_json(path):
    """The JSON document of the file ``path``, read as UTF-8.  A file that
    is not UTF-8 text, or that nests deeper than the parser can recurse,
    raises InputError (exit 2) like any other unreadable document."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc.reason} "
                             f"at byte {exc.start}") from None
        except RecursionError:
            raise InputError(f"{path} nests too deeply") from None


def load_space(path):
    """Parse a space file; returns (space, metadata dict)."""
    doc = _object_in(_read_json(path), "space file")
    version = doc.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise StructuralError(f"unsupported format_version {version}")
    kind = doc.get("kind")
    payload = _object_in(doc.get("payload", {}), "payload")
    try:
        space = _space_in(kind, payload)
    except KeyError as exc:
        raise StructuralError(f"missing key {exc}") from None
    meta = {"kind": kind,
            "mesh": _parse_setting(doc["mesh"], "mesh", positive=True)
            if "mesh" in doc else None,
            "tolerances": {k: _parse_setting(v, f"tolerance {k!r}")
                           for k, v in _object_in(doc.get("tolerances", {}),
                                                  "tolerances").items()}}
    return space, meta


def _space_in(kind, payload):
    if kind == "finite":
        tau, d = _table_in(payload["tau"], "tau"), _table_in(payload["d"], "d")
        leq, ll = (_table_in(payload[k], k, _parse_bool, bool)
                   for k in ("leq", "ll"))
        return FiniteLorentzSpace(d, leq, ll, tau)
    if kind == "product":
        grid = _object_in(payload["time_grid"], "time_grid")
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
    0..n_points-1 (finite spaces) or a ``[t, x]`` pair of finite reals."""
    doc = _read_json(path)
    pts = doc.get("points") if isinstance(doc, dict) else None
    if not isinstance(pts, list):
        raise InputError(f"chain file {path} has no list of points")
    if len(pts) < 2:
        raise InputError(f"chain file {path} has fewer than two points")
    if space_kind == "finite":
        return CausalChain(tuple(_point_index(p, n_points) for p in pts))
    for p in pts:
        if not (isinstance(p, list) and len(p) == 2):
            raise InputError(f"chain point {p!r} is not a [t, x] pair")
    points = tuple((_parse_real(t), _parse_real(x)) for t, x in pts)
    for p, (t, x) in zip(pts, points):
        if not (math.isfinite(t) and math.isfinite(x)):
            raise InputError(f"chain point {p!r} is not finite")
    return CausalChain(points)


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


def _cli_real(raw) -> float:
    """A finite real from the command line.  Raises
    ``argparse.ArgumentTypeError``, which argparse reports as a usage error
    (exit 2) when this parses a flag."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a real number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{raw!r} is not finite")
    return value


def _cli_nonnegative(raw) -> float:
    """A finite real from the command line that is at least 0."""
    value = _cli_real(raw)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"{raw!r} is negative")
    return value


def parse_point(raw, space):
    """A point index of a finite table, or a "t,x" pair of an analytic
    space."""
    if isinstance(space, FiniteLorentzSpace):
        return _point_index(raw, space.n)
    _require_segment(space)
    try:
        t, x = raw.split(",")   # exactly two fields
        return (_cli_real(t), _cli_real(x))
    except (argparse.ArgumentTypeError, ValueError):
        raise InputError(f"cannot parse point {raw!r}") from None


def _require_segment(space):
    """Coordinate points ``t,x`` name points of a product over a segment
    only."""
    if not isinstance(space.factor, EuclideanSegment):
        raise InputError("t,x points need a segment factor, not "
                         f"{space.factor.kind!r}")


def _parse_horizons(raw):
    """The comma-separated ``--horizons`` list: finite reals."""
    try:
        return [_cli_real(h) for h in raw.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"--horizons {raw!r}: {exc}") from None


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
    points = list(space.sample_points())
    sample = points[:: max(1, len(points) // 12)]
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
    if "curvature" in meta["tolerances"]:
        return meta["tolerances"]["curvature"]
    # a finite table's mesh comes from its file alone
    mesh = meta["mesh"] or (isinstance(space, ProductSpace) and space.mesh)
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
    if not hinges:
        raise PreconditionError("no hinges sampled")
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
    if meta["kind"] != "finite":
        _require_segment(space)
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
    horizons = _parse_horizons(args.horizons)
    result = build_asymptote(space, line, p, args.direction, horizons)
    report.verdict("timelike", result.is_timelike)
    report.verdict("stabilized", result.stabilized)
    report.defect("min_step", result.min_step)
    report.witness({"limit_points": [list(map(str, pt)) if meta["kind"] != "finite"
                                     else pt for pt in result.limit.points],
                    "params": list(result.limit_params)})
    estimate = busemann_value(space, line, p, horizons, args.tol_busemann)
    report.defect("synchronized_time", estimate.value)
    report.defect("error_bound", estimate.error_bound)
    if not estimate.converged:
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
        lo, hi, step = (_cli_real(v) for v in args.t_grid.split(":"))
    except (argparse.ArgumentTypeError, ValueError):
        raise InputError(f"--t-grid {args.t_grid!r} is not lo:hi:step of "
                         "finite reals") from None
    if not (step > 0 and hi >= lo):
        raise InputError(f"--t-grid {args.t_grid!r} needs lo <= hi and step > 0")
    if step < space.t_step:
        # checked before the knot list is built: a tiny step asks for an
        # unbounded number of knots
        raise InputError(f"--t-grid step {step!r} is finer than the space's "
                         f"time step {space.t_step!r}")
    line = _load_line(space, meta, args.line, args.tol_line)
    horizons = _parse_horizons(args.horizons)
    bus_bound = max((busemann_value(space, line, (0.0, q), horizons).error_bound
                     for q in space.factor.sample()[:: max(1, len(space.factor.sample()) // 5)]
                     if space.ll((0.0, q), line.point_at(horizons[0]))),
                    default=space.mesh)
    tolerance = args.tol if args.tol is not None else 3.0 * (space.mesh + bus_bound)
    seeds = [(0.0, q) for q in space.factor.sample()]
    sl = extract_slice(space, line, seeds, horizons, tolerance=tolerance,
                       knot_extent=args.knot_extent)
    n_knots = int(round((hi - lo) / step)) + 1
    _check_knot_extent(space, sl.lines, lo, step, n_knots)
    knots = [lo + step * k for k in range(n_knots)]
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


def _check_knot_extent(space, lines, lo, step, n_knots):
    """Raise what ``build_splitting_map`` raises on the first knot
    ``lo + step * k`` (k < n_knots) that some line does not reach, without
    listing the knots.  Each line reaches one interval of parameters and the
    knots increase, so the knots every line reaches are one run; when knot 0
    is in it, the first knot past it is found by bisection."""
    def reached(k):
        try:
            for line in lines:
                line_point(space, line, lo + step * k)
        except PreconditionError:
            return False
        return True

    first = bisect.bisect_left(range(n_knots), True,
                               key=lambda k: not reached(k)) if reached(0) else 0
    if first < n_knots:
        for line in lines:
            line_point(space, line, lo + step * first)


def _slice_scatter_svg(sl):
    """Static scatter of the slice through a two-anchor distance embedding."""
    size, pad = 360, 20
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
    p.add_argument("--tol-curvature", dest="tol", type=_cli_nonnegative,
                   default=None)
    p.add_argument("--out", default=None, help="worst-defect CSV path")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("asymptote", help="build an asymptote to a line")
    p.add_argument("path")
    p.add_argument("--line", required=True, help="chain file for the line")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--direction", choices=["future", "past"], default="future")
    p.add_argument("--horizons", default="2,4,8,16,32,64,128,256")
    p.add_argument("--tol-busemann", dest="tol_busemann", type=_cli_nonnegative,
                   default=None)
    p.add_argument("--tol-line", dest="tol_line", type=_cli_nonnegative,
                   default=EPS)
    p.set_defaults(fn=cmd_asymptote)

    p = sub.add_parser("split", help="slice extraction and product reconstruction")
    p.add_argument("path")
    p.add_argument("--line", required=True)
    p.add_argument("--t-grid", dest="t_grid", default="-2:2:0.5")
    p.add_argument("--horizons", default="2,4,8,16,32,64,128,256")
    p.add_argument("--knot-extent", dest="knot_extent", type=_cli_nonnegative,
                   default=2.5)
    p.add_argument("--tol-parallel", dest="tol", type=_cli_nonnegative,
                   default=None)
    p.add_argument("--tol-line", dest="tol_line", type=_cli_nonnegative,
                   default=EPS)
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
