"""Causal-structure carriers and axiom validation.

Two kinds of spaces live here: finite tables (every relation and time
separation stored explicitly) and analytic spaces (relations computed from
formulas, see :mod:`lorentz_lab.models`).  Both present the same read
interface so that the geometric machinery downstream does not care which
kind it is scanning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Single absolute tolerance for axiom-level float comparisons.  All shipped
# formulas are algebraic, so 1e-9 cleanly separates genuine violations from
# rounding noise.
EPS = 1e-9

INF = math.inf

# entries per array pass of the blocked kernels: the axiom scans here, and
# through ``chains`` the line check, the sprinkle, the parallel verdicts and
# the distance screen of the split path.  A float64 block is 120 KiB, below
# glibc's default mmap threshold of 128 KiB: a block of exactly 128 KiB sits
# on it, and whether its temporaries are mapped and page-faulted afresh
# then depends on allocation history, not on the code
PAIR_BLOCK = 15 << 10


class StructuralError(ValueError):
    """Malformed input tables (shape/dtype problems, not axiom failures)."""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class PointTuple(tuple):
    """A tuple of points that keeps the coordinate arrays the array forms
    read it through, converted once per kind of space and freed with it.

    ``joined(more)`` is this tuple with more points appended; its arrays
    are the kept arrays of this tuple with those of the new points
    appended (kept ones when they come as a PointTuple), so a few points
    added to a long line cost only their own conversion.  ``take(index)``
    is the points at an index array, with the arrays kept so far taken at
    it."""

    def __new__(cls, points):
        self = super().__new__(cls, points)
        self._arrays = {}
        self._head = self._tail = None
        return self

    def joined(self, more):
        more = more if isinstance(more, PointTuple) else PointTuple(more)
        out = PointTuple(self + more)
        out._head, out._tail = self, more
        return out

    def take(self, index):
        out = PointTuple(map(self.__getitem__, index.tolist()))
        out._arrays = {kind: tuple(a[index] for a in arrays)
                       for kind, arrays in self._arrays.items()}
        return out

    def arrays(self, kind, convert):
        """``convert(self)``, a tuple of arrays with one entry per point,
        taken on the first call for ``kind`` and kept."""
        if kind not in self._arrays:
            head = self._head
            self._arrays[kind] = convert(self) if head is None else tuple(
                np.concatenate(pair) for pair in zip(
                    head.arrays(kind, convert),
                    self._tail.arrays(kind, convert)))
        return self._arrays[kind]


class LorentzQuery:
    """Uniform read interface over any space kind.

    Finite tables answer from storage, analytic spaces from formulas; either
    way the answers must be deterministic and mutually consistent (``tau > 0``
    iff ``ll``, ``tau == 0`` when not ``leq``, ...) on any finite sample.
    """

    mesh = EPS   # unit of grid-scale tolerances; products override it

    def sample_points(self):
        """Finite point sample used by global scans."""
        raise NotImplementedError

    def d(self, p, q) -> float:
        raise NotImplementedError

    def leq(self, p, q) -> bool:
        raise NotImplementedError

    def ll(self, p, q) -> bool:
        raise NotImplementedError

    def tau(self, p, q) -> float:
        raise NotImplementedError

    # Array forms: i and j are index arrays broadcast against each other,
    # and each entry is the scalar answer for the pair (points[i],
    # points[j]), bit for bit, in an array of the broadcast shape.  The
    # points are converted to coordinate arrays on every call, or once
    # when they come as a PointTuple.

    def _convert(self, points):
        """The coordinate arrays of points: a tuple of arrays, one entry
        per point."""
        raise NotImplementedError

    def point_arrays(self, points):
        """``_convert(points)``, kept on points when they are a
        PointTuple, under ``_coordinate_kind()``: spaces that convert points
        alike (products over factors of one class) share the kept
        arrays."""
        if isinstance(points, PointTuple):
            return points.arrays(self._coordinate_kind(), self._convert)
        return self._convert(points)

    def _coordinate_kind(self):
        return type(self)

    def tau_array(self, points, i, j):
        raise NotImplementedError

    def leq_array(self, points, i, j):
        raise NotImplementedError

    def ll_array(self, points, i, j):
        raise NotImplementedError

    def d_array(self, points, i, j):
        """Array form of ``d``; unlike the others it may differ from the
        scalar form in the last bit (a product's is not ``math.hypot``), so
        threshold decisions go through ``splitting._screened_d``, which
        settles near-ties with ``d``."""
        raise NotImplementedError


def _as_square(convert, arr, n, name, dtype):
    out = convert(arr, dtype=dtype)
    if out.shape != (n, n):
        raise StructuralError(f"{name} table must be {n}x{n}, got {out.shape}")
    return out


def _sealed(table):
    """The float table ``table``, refused when it holds a NaN and made
    read-only.  The test is a minimum, which propagates NaN, so that it
    allocates no mask of the table's size."""
    if np.isnan(np.min(table, initial=np.inf)):
        raise StructuralError("NaN entries are not permitted")
    table.setflags(write=False)
    return table


class FiniteLorentzSpace(LorentzQuery):
    """Point set 0..n-1 with explicit metric, relation and time-separation tables.

    ``tau`` entries may be ``math.inf`` (explicit marker for an infinite time
    separation); globally hyperbolic examples must be marker-free.

    The constructor copies its tables, so that a caller's arrays stay the
    caller's; ``_of_own_tables`` takes over tables the library has just
    built, with the same checks, and copies none.  Either way the instance
    holds its tables read-only.  A table the library built may instead be
    built on its first read: ``_of_own_tables`` takes a builder in place
    of ``d``.
    """

    def __init__(self, d, leq, ll, tau):
        self._hold(np.array, d, leq, ll, tau)  # instances own their tables

    @classmethod
    def _of_own_tables(cls, d, leq, ll, tau):
        """The space on tables that no one else holds, taken without a copy
        when they already have the table dtypes.  ``d`` may be a function
        of no arguments that returns the table, run on the first read."""
        space = cls.__new__(cls)
        space._hold(np.asarray, d, leq, ll, tau)
        return space

    def _hold(self, convert, d, leq, ll, tau):
        if callable(d):
            self._build_d, n = d, len(leq)
        else:
            d = convert(d, dtype=float)
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise StructuralError(
                    f"d table must be square, got shape {d.shape}")
            n = d.shape[0]
        self.n = n
        self._leq = _as_square(convert, leq, n, "leq", bool)
        self._ll = _as_square(convert, ll, n, "ll", bool)
        self._tau = _sealed(_as_square(convert, tau, n, "tau", float))
        if not callable(d):
            self._d = _sealed(d)
        self._leq.setflags(write=False)
        self._ll.setflags(write=False)
        # topological order, successors of leq and their tau weights,
        # filled in by the chain optimizer on first use
        self._causal_order = None

    @cached_property
    def _d(self):
        """The distance table of a space given its builder, built and
        checked on the first read; it then replaces this property as a
        plain attribute, so that later reads cost nothing extra."""
        d = _sealed(self._build_d())
        del self._build_d
        return d

    def sample_points(self):
        return range(self.n)

    def d(self, p, q):
        return float(self._d[p, q])

    def leq(self, p, q):
        return bool(self._leq[p, q])

    def ll(self, p, q):
        return bool(self._ll[p, q])

    def tau(self, p, q):
        return float(self._tau[p, q])

    def _convert(self, points):
        return (np.asarray(points, dtype=np.intp),)

    def _gather(self, table, points, i, j):
        pts, = self.point_arrays(points)
        return table[pts[np.asarray(i, dtype=np.intp)],
                     pts[np.asarray(j, dtype=np.intp)]]

    def tau_array(self, points, i, j):
        return self._gather(self._tau, points, i, j)

    def leq_array(self, points, i, j):
        return self._gather(self._leq, points, i, j)

    def ll_array(self, points, i, j):
        return self._gather(self._ll, points, i, j)

    def d_array(self, points, i, j):
        return self._gather(self._d, points, i, j)

    @property
    def has_infinite_tau(self) -> bool:
        return bool(np.isinf(self._tau).any())

    def tau_table(self):
        return self._tau

    def leq_table(self):
        return self._leq


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _first(mask):
    """Lexicographically first index tuple where ``mask`` holds, as plain
    ints, or None."""
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(np.argmax(mask)), mask.shape))


def _first_triple(n, mask_at):
    """Lexicographically first (i, j, k) where the (rows, n, n) mask
    ``mask_at(rows)`` of the first indices ``rows`` (a slice) holds, or
    None.  The first indices go in blocks of ``max(1, PAIR_BLOCK // n²)``,
    so no mask grows beyond ``max(PAIR_BLOCK, n²)`` entries; a block's
    row-major first hit is its lexicographically first, and the first block
    holding one ends the scan."""
    step = max(1, PAIR_BLOCK // max(1, n * n))
    for i in range(0, n, step):
        hit = _first(mask_at(slice(i, i + step)))
        if hit is not None:
            return (i + hit[0],) + hit[1:]
    return None


def _first_transitivity_gap(rel):
    """Lexicographically first (i, j, k) with ``rel[i, j]`` and
    ``rel[j, k]`` but not ``rel[i, k]``, or None.  One float32 product
    counts the two-step paths of every pair, exactly below 2^24 points; the
    first row i holding a path to a k that ``rel[i, k]`` misses holds the
    first gap, and only that row's (j, k) mask is scanned."""
    paths = rel.astype(np.float32)
    hit = _first(((paths @ paths) > 0) & ~rel)
    if hit is None:
        return None
    i = hit[0]
    return (i,) + _first(rel[i, :, None] & rel & ~rel[i, None, :])


def validate_axioms(space: FiniteLorentzSpace) -> ValidationReport:
    """Check every structural axiom of a finite space, reporting one named
    outcome per axiom together with the lexicographically first
    counterexample tuple."""
    if not isinstance(space, FiniteLorentzSpace):
        raise StructuralError("validate_axioms expects a finite table space")
    n = space.n
    d, leq, ll, tau = space._d, space._leq, space._ll, space._tau
    # inf - inf in a table gives NaN, which compares as no violation
    with np.errstate(invalid="ignore"):
        witnesses = {
            # metric axioms
            "d zero diagonal": _first(np.abs(np.diagonal(d)) > EPS),
            "d symmetric": _first(np.triu(np.abs(d - d.T) > EPS, 1)),
            "d positive off diagonal": _first(~np.eye(n, dtype=bool) & (d <= EPS)),
            # [i, j, k], i in the block r: d[i, k] > d[i, j] + d[j, k] + EPS
            "d triangle inequality": _first_triple(
                n, lambda r: d[r, None, :] > (d[r, :, None] + d) + EPS),
            # relation axioms
            "leq reflexive": _first(~np.diagonal(leq)),
            "leq transitive": _first_transitivity_gap(leq),
            "ll transitive": _first_transitivity_gap(ll),
            "ll contained in leq": _first(ll & ~leq),
            # time separation axioms
            "tau zero when unrelated": _first(~leq & (tau > EPS)),
            "tau positive iff timelike": _first((tau > EPS) != ll),
            "reverse triangle inequality": _first_triple(
                n, lambda r: leq[r, :, None] & leq
                & (tau[r, None, :] < (tau[r, :, None] + tau) - EPS)),
        }
    return ValidationReport(tuple(AxiomCheck(name, w is None, w)
                                  for name, w in witnesses.items()))


def metric_defect(d) -> float:
    """Largest violation of the metric axioms by a distance table: the
    largest of |d[i, i]|, |d[i, j] - d[j, i]| and the triangle excess
    d[i, k] - d[i, j] - d[j, k], never below zero.  NaN (from inf - inf)
    counts as no violation."""
    d = np.asarray(d, dtype=float)
    with np.errstate(invalid="ignore"):
        worst = max(np.nanmax(np.abs(np.diagonal(d)), initial=0.0),
                    np.nanmax(np.abs(d - d.T), initial=0.0))
        for i in range(len(d)):
            # [j, k] of row i: d[i, k] - d[i, j] - d[j, k]
            worst = max(worst, np.nanmax((d[i, None, :] - d[i, :, None]) - d,
                                         initial=0.0))
    return float(worst)


@dataclass(frozen=True)
class PushupReport:
    n_triples: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def check_pushup(space: LorentzQuery, sample) -> PushupReport:
    """Verify the push-up rules on all ordered triples of the sample:
    a timelike step followed by a causal one (or vice versa) must compose to
    a timelike relation.  An empty sample passes vacuously.

    The sample's n x n relation tables are gathered once and scanned one
    first point x at a time (n² memory per step).  Violations are listed in
    (x, y, z) order, "ll-leq" before "leq-ll" for the same triple."""
    pts = list(sample)
    n = len(pts)
    i, j = np.divmod(np.arange(n * n), n)
    leq = space.leq_array(pts, i, j).reshape(n, n)
    ll = space.ll_array(pts, i, j).reshape(n, n)
    violations = []
    for x in range(n):
        # [y, z] of x: x << y <= z (or x <= y << z) without x << z
        ll_leq = ll[x, :, None] & leq & ~ll[x, None, :]
        leq_ll = leq[x, :, None] & ll & ~ll[x, None, :]
        for y, z in np.argwhere(ll_leq | leq_ll).tolist():
            if ll_leq[y, z]:
                violations.append(("ll-leq", pts[x], pts[y], pts[z]))
            if leq_ll[y, z]:
                violations.append(("leq-ll", pts[x], pts[y], pts[z]))
    return PushupReport(n ** 3, tuple(violations))


@dataclass(frozen=True)
class DiamondSet:
    base: tuple
    kind: str  # "causal" or "timelike"
    members: tuple


def diamond(space: LorentzQuery, p, q, kind="causal") -> DiamondSet:
    """Points between p and q: causal kind collects every r with p<=r<=q,
    timelike kind every r with p<<r<<q, scanned over the space sample."""
    if kind == "causal":
        members = tuple(r for r in space.sample_points()
                        if space.leq(p, r) and space.leq(r, q))
    elif kind == "timelike":
        members = tuple(r for r in space.sample_points()
                        if space.ll(p, r) and space.ll(r, q))
    else:
        raise StructuralError(f"unknown diamond kind {kind!r}")
    return DiamondSet((p, q), kind, members)


def check_causal_convexity(space: LorentzQuery, subset) -> bool:
    """True iff the causal diamond of every pair drawn from the subset stays
    inside the subset."""
    members = set(subset)
    sample = list(space.sample_points())
    outside = [r for r in sample if r not in members]
    for p in members:
        for q in members:
            if not space.leq(p, q):
                continue
            for r in outside:
                if space.leq(p, r) and space.leq(r, q):
                    return False
    return True
