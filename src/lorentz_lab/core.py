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

import numpy as np

# Single absolute tolerance for axiom-level float comparisons.  All shipped
# formulas are algebraic, so 1e-9 cleanly separates genuine violations from
# rounding noise.
EPS = 1e-9

INF = math.inf


class StructuralError(ValueError):
    """Malformed input tables (shape/dtype problems, not axiom failures)."""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class LorentzQuery:
    """Uniform read interface over any space kind.

    Finite tables answer from storage, analytic spaces from formulas; either
    way the answers must be deterministic and mutually consistent (``tau > 0``
    iff ``ll``, ``tau == 0`` when not ``leq``, ...) on any finite sample.
    """

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

    # Array forms: entry k is the scalar answer for the pair
    # (points[i[k]], points[j[k]]), bit for bit, as a numpy array.

    def tau_array(self, points, i, j):
        raise NotImplementedError

    def leq_array(self, points, i, j):
        raise NotImplementedError

    def d_array(self, points, i, j):
        """Array form of ``d``; unlike the others it may differ from the
        scalar form in the last bit (``np.hypot`` is not ``math.hypot``), so
        a threshold decision on it settles near-ties with ``d``."""
        raise NotImplementedError


def _as_square(arr, n, name, dtype):
    out = np.array(arr, dtype=dtype)  # always copy: instances own their tables
    if out.shape != (n, n):
        raise StructuralError(f"{name} table must be {n}x{n}, got {out.shape}")
    return out


class FiniteLorentzSpace(LorentzQuery):
    """Point set 0..n-1 with explicit metric, relation and time-separation tables.

    ``tau`` entries may be ``math.inf`` (explicit marker for an infinite time
    separation); globally hyperbolic examples must be marker-free.
    """

    def __init__(self, d, leq, ll, tau):
        d = np.array(d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise StructuralError(f"d table must be square, got shape {d.shape}")
        n = d.shape[0]
        self.n = n
        self._d = d
        self._leq = _as_square(leq, n, "leq", bool)
        self._ll = _as_square(ll, n, "ll", bool)
        self._tau = _as_square(tau, n, "tau", float)
        if np.isnan(self._d).any() or np.isnan(self._tau).any():
            raise StructuralError("NaN entries are not permitted")
        for a in (self._d, self._leq, self._ll, self._tau):
            a.setflags(write=False)

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

    def _gather(self, table, points, i, j):
        pts = np.asarray(points, dtype=np.intp)
        return table[pts[np.asarray(i, dtype=np.intp)],
                     pts[np.asarray(j, dtype=np.intp)]]

    def tau_array(self, points, i, j):
        return self._gather(self._tau, points, i, j)

    def leq_array(self, points, i, j):
        return self._gather(self._leq, points, i, j)

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
    """Lexicographically first (i, j, k) where the (j, k) mask ``mask_at(i)``
    holds, or None.  One i at a time, so no array grows beyond n x n."""
    for i in range(n):
        hit = _first(mask_at(i))
        if hit is not None:
            return (i,) + hit
    return None


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
            # [j, k] of row i: d[i, k] > d[i, j] + d[j, k] + EPS
            "d triangle inequality": _first_triple(
                n, lambda i: d[i, None, :] > (d[i, :, None] + d) + EPS),
            # relation axioms
            "leq reflexive": _first(~np.diagonal(leq)),
            "leq transitive": _first_triple(
                n, lambda i: leq[i, :, None] & leq & ~leq[i, None, :]),
            "ll transitive": _first_triple(
                n, lambda i: ll[i, :, None] & ll & ~ll[i, None, :]),
            "ll contained in leq": _first(ll & ~leq),
            # time separation axioms
            "tau zero when unrelated": _first(~leq & (tau > EPS)),
            "tau positive iff timelike": _first((tau > EPS) != ll),
            "reverse triangle inequality": _first_triple(
                n, lambda i: leq[i, :, None] & leq
                & (tau[i, None, :] < (tau[i, :, None] + tau) - EPS)),
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
    a timelike relation.  An empty sample passes vacuously."""
    pts = list(sample)
    violations = []
    count = 0
    for x in pts:
        for y in pts:
            for z in pts:
                count += 1
                if space.ll(x, y) and space.leq(y, z) and not space.ll(x, z):
                    violations.append(("ll-leq", x, y, z))
                if space.leq(x, y) and space.ll(y, z) and not space.ll(x, z):
                    violations.append(("leq-ll", x, y, z))
    return PushupReport(count, tuple(violations))


@dataclass(frozen=True)
class DiamondSet:
    base: tuple
    kind: str  # "causal" or "timelike"
    members: tuple
    d_bound: float = 0.0  # diameter of the member set; finite-sample stand-in for compactness

    def __contains__(self, r):
        return r in self.members

    def __len__(self):
        return len(self.members)


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
    bound = 0.0
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            bound = max(bound, space.d(a, b))
    return DiamondSet((p, q), kind, members, bound)


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
