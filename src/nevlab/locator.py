"""Zero and pole location inside a disk via the argument principle.

Winding numbers are measured by phase continuation along boundary paths:
sample the function, and wherever the phase (or the magnitude) jumps too much
between neighbours, insert midpoints until every step is tame.  Each entire
atom takes the first of these routes that holds.  Its disk winding is
measured first.  Then an atom that is a polynomial in one exponential
exp(lambda z) is read from its exact form (module lattice), when the
multiplicities read add up to the winding.  Then a disk of winding 1 to
W_MAX is read from its circle's moments (module moments).  Each reading
certifies its own points, so neither looks at the seeds (points known in
advance).  Else the seeds' small circles are measured in one batch, and the
other zeros are isolated by a depth-first rectangle subdivision driven by
boundary windings, one split measured at a time and the first error ending
the search, and polished with a Newton iteration on f/f', one call to a
joint program for f, f' and f'' (compile_expr of the tuple) per step.
The search accepts a Newton point only in a seed-free cell of winding 1, so
it is that cell's one simple zero and takes multiplicity 1 from the cell
accounting; a seed gets its circle's winding when the circle's moments
put those zeros on it, and is dropped otherwise.  The counts are
cross-checked: the multiplicities found inside the disk must add up to
the winding of the full circle, which also catches two cells whose Newton
points coincide.

One search completes the measurement of each rectangle edge at most once.
Edge phases are memoised by their endpoints, and a neighbour walking an edge
the other way reads back the negated phase.  Child edges are never derived
from the parent's samples or by subtraction from the parent's edges, so the
check that the four quadrant windings add up to the parent's stays an
independent test of every new edge.

Paths are segments and circles given by their geometry, so every path of a
batch is sampled, evaluated and refined as one set of arrays: one evaluator
call per refinement round however many paths are open.  Each path keeps its
own samples, caps and agreement test, so its phase does not depend on the
rest of the batch.

Split lines avoid the coordinate axes as they avoid seed points, since
real-coefficient and odd functions have zeros there.  Around a multiple zero
every split line near it is rounding noise, so a seed-free cell of two or
more zeros that fails its first split tries once to close as one point: on
the largest circle about the cell inside its top (the largest ancestor of
the same winding), whose winding certifies that it holds the cell's zeros
and no other, the moments of f'/f must show a single point in the cell.
A cell whose certificate and every split fail raises RingTooCloseError.

The machinery never factors anything numerically; products, integer powers and
exponential factors are split structurally first, so a squared factor is
located once and its multiplicity doubled exactly.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import (Add, Const, Div, Exp, Expr, IntPow, Mul, Neg, compile_expr,
                   differentiate, sub)
from .exppoly import canonical_quotient
from .lattice import lattice_zeros
from .moments import _cell_point, _disk_zeros, _moments, _polish

__all__ = [
    "Divisor", "DivisorPoint", "LocatorError", "RingTooCloseError",
    "NonIntegerResidualError", "MaxDepthExceededError", "RadiusMismatchError",
    "ConservationError", "winding_number", "find_zeros", "divisor_of",
    "divisor_pair_at", "negotiate", "clear_radius",
]


class LocatorError(Exception):
    """Base class for locator failures."""


class RingTooCloseError(LocatorError):
    """A zero or pole sits on (or hugs) an integration path."""


class NonIntegerResidualError(LocatorError):
    """A boundary winding refused to settle near an integer."""


class MaxDepthExceededError(LocatorError):
    """Subdivision gave up before separating a zero cluster."""


class RadiusMismatchError(LocatorError):
    """Divisors combined at different radii."""


class ConservationError(LocatorError):
    """Located multiplicities disagree with the disk winding."""


# Points closer to the circle than this (relative) make quadrature fragile.
RING_CLEARANCE = 1e-4
# Relative tolerance for identifying two located points.
MERGE_TOL = 1e-7
# |p| below this times the radius is treated as the origin.
ORIGIN_TOL = 1e-12
MAX_DEPTH = 40
MAX_CELLS = 60000
W_MAX = 8   # the largest disk winding read from moments first
# Phase / magnitude continuity thresholds for path refinement.
_PHASE_STEP = 0.5 * math.pi
_MAG_STEP = 4.0
_TINY = 1e-280
_WINDING_SLACK = 0.25


# ---------------------------------------------------------------------------
# divisors

@dataclass(frozen=True, order=True)
class DivisorPoint:
    re: float
    im: float
    multiplicity: int

    @property
    def location(self) -> complex:
        return complex(self.re, self.im)


def _point(z: complex, mult: int) -> DivisorPoint:
    return DivisorPoint(float(z.real), float(z.imag), int(mult))


# The error of a result built on a divisor that the search left partial
# (valid is False), before the names of the partial divisors.
PARTIAL_RESULT = "divisor computation returned a partial result for "


@dataclass(frozen=True)
class Divisor:
    """A finite multiset of points in the closed disk |z| <= radius."""
    radius: float
    points: tuple[DivisorPoint, ...]
    valid: bool = True

    @property
    def degree(self) -> int:
        return sum(p.multiplicity for p in self.points)

    @property
    def locations(self) -> tuple[complex, ...]:
        return tuple(p.location for p in self.points)

    @functools.cached_property
    def _weighted(self) -> dict:
        return {}

    def weighted(self, mode) -> tuple[tuple[float, int], ...]:
        """(|a|, mode.weight(multiplicity)) of each point a whose weight is
        not 0, in the order of points; kept per mode, which must be
        hashable."""
        got = self._weighted.get(mode)
        if got is None:
            got = self._weighted[mode] = tuple(
                (abs(p.location), w) for p in self.points
                if (w := mode.weight(p.multiplicity)))
        return got

    def restrict(self, r: float) -> "Divisor":
        """Exact sub-divisor supported in the smaller closed disk."""
        if r > self.radius * (1 + 1e-12):
            raise RadiusMismatchError(
                f"cannot restrict radius {self.radius} divisor to {r}")
        kept = tuple(p for p in self.points if abs(p.location) <= r)
        return Divisor(r, kept, self.valid)

    def subtract(self, other: "Divisor") -> "Divisor":
        """Pointwise multiplicity difference, clamped at zero."""
        self._check_radius(other)
        tol = MERGE_TOL * max(self.radius, 1.0)
        theirs = [(q.location, q.multiplicity) for q in other.points]
        out = []
        for p in self.points:
            z, m = p.location, p.multiplicity
            for w, k in theirs:
                if abs(z - w) <= tol:
                    m -= k
            if m > 0:
                out.append(_point(z, m))
        return Divisor(self.radius, tuple(sorted(out)),
                       self.valid and other.valid)

    def __add__(self, other: "Divisor") -> "Divisor":
        self._check_radius(other)
        pts = _merge_points(list(self.points) + list(other.points),
                            MERGE_TOL * max(self.radius, 1.0))
        return Divisor(self.radius, pts, self.valid and other.valid)

    def _check_radius(self, other: "Divisor"):
        if not math.isclose(self.radius, other.radius, rel_tol=1e-12):
            raise RadiusMismatchError(
                f"divisor radii differ: {self.radius} vs {other.radius}")

    def to_rows(self) -> list[dict]:
        return [{"re": p.re, "im": p.im, "mult": p.multiplicity}
                for p in self.points]


def _merge_points(points: list[DivisorPoint], tol: float,
                  origin_tol: float = 0.0) -> tuple[DivisorPoint, ...]:
    """Cluster points within tol, summing multiplicities; snap near-origin
    points to the exact origin."""
    clusters: list[list] = []   # [location, total_mult]
    for p in points:
        z = p.location
        if origin_tol and abs(z) <= origin_tol:
            z = 0j
        for c in clusters:
            if abs(c[0] - z) <= tol:
                c[0] = (c[0] * c[1] + z * p.multiplicity) / (c[1] + p.multiplicity)
                c[1] += p.multiplicity
                break
        else:
            clusters.append([z, p.multiplicity])
    return tuple(sorted(_point(z, m) for z, m in clusters if m != 0))


# ---------------------------------------------------------------------------
# phase continuation along paths
#
# Local step guards alone cannot detect aliasing: a factor exp(i*c*z) rotates
# uniformly, and a true step of 2*pi - x reports as -x with perfectly smooth
# magnitude.  Two defences close the hole: the initial sample count is sized
# from the exponential frequencies present in the expression, and the total is
# only accepted once two successive global refinements agree.

def _freq_collect(e: Expr) -> dict:
    """Map from exponent derivative to combined power, over all exponential
    factors of e.  Sums over products, takes the max over sums of terms."""
    if isinstance(e, Neg):
        return _freq_collect(e.child)
    if isinstance(e, Mul):
        out: dict = {}
        for f in e.factors:
            for k, p in _freq_collect(f).items():
                out[k] = out.get(k, 0) + p
        return out
    if isinstance(e, IntPow):
        return {k: abs(e.power) * p
                for k, p in _freq_collect(e.base).items()}
    if isinstance(e, Add):
        out = {}
        for t in e.terms:
            for k, p in _freq_collect(t).items():
                out[k] = max(out.get(k, 0), p)
        return out
    if isinstance(e, Div):
        out = _freq_collect(e.num)
        for k, p in _freq_collect(e.den).items():
            out[k] = out.get(k, 0) + p
        return out
    if isinstance(e, Exp):
        return {differentiate(e.arg): 1}
    return {}


def _rate_of(e: Expr):
    """Estimator of the maximal phase rotation rate per unit arclength."""
    terms = tuple(sorted(_freq_collect(e).items(), key=lambda kv: str(kv[0])))
    fns = tuple((compile_expr(d), p) for d, p in terms)

    def rate(z: np.ndarray) -> np.ndarray:
        """One estimate per row of z, from one evaluator call per term."""
        tot = np.zeros(z.shape[0])
        for dfn, p in fns:
            a = np.abs(np.asarray(dfn(z.ravel()))).reshape(z.shape)
            a = np.where(np.isfinite(a), a, -np.inf).max(axis=1)
            tot += np.where(np.isfinite(a), p * a, 0.0)
        return tot
    return rate


def _segment(a: complex, b: complex) -> tuple:
    """The path a + t (b - a), t in [0, 1]."""
    return (a, b - a, False)


def _circle(center: complex, radius: float) -> tuple:
    """The path center + radius exp(2 pi i t), t in [0, 1]."""
    return (center, complex(radius), True)


def _path_z(geo: tuple, ids: np.ndarray, counts: np.ndarray,
            t: np.ndarray) -> np.ndarray:
    """Points at parameters t, the first counts[0] on path ids[0] and so on;
    geo holds the base, scale and circle flag of every path as arrays."""
    base, scale, circle = (np.repeat(a[ids], counts) for a in geo)
    if np.any(circle):
        t = np.where(circle, np.exp(2j * np.pi * t), t)
    return base + t * scale


def _path_phases(fn, paths: list, rate, joint: bool = False) -> list:
    """Total continuous phase change of fn along each path, t in [0, 1].

    paths are _segment or _circle triples.  Each path keeps its own samples,
    caps and two-refinement agreement test, so its result does not depend on
    the other paths.  An entry of the result is the phase as a float, the
    RingTooCloseError (not raised) of a path that failed, or None for a path
    dropped unfinished: when joint, the paths are needed together, so the
    round in which one fails drops every path still open.

    All open paths refine together, with one evaluator call per round and
    the per-path bookkeeping done on arrays; a path still open after 64
    rounds fails.  The samples of the open paths lie end to end in t and v,
    sizes[k] of them for path ids[k], and a step across two paths is never
    refined."""
    n = len(paths)
    if not n:
        return []
    base, scale, circle = zip(*paths)
    geo = (np.array(base, dtype=complex), np.array(scale, dtype=complex),
           np.array(circle, dtype=bool))
    length = np.abs(geo[1]) * np.where(geo[2], 2.0 * math.pi, 1.0)
    ns = np.where(geo[2], 64, 16)
    probed = np.flatnonzero(length > 0.0)
    if len(probed):
        s = np.linspace(0.0, 1.0, 33)
        z = _path_z(geo, probed, s.size, np.tile(s, probed.size))
        for i, r in zip(probed.tolist(), rate(z.reshape(-1, s.size)).tolist()):
            if math.isfinite(r):
                ns[i] = max(ns[i], min(int(1.25 * float(length[i]) * r) + 8,
                                       150000))
    # np.linspace(0, 1, n + 1) of every path, end to end
    sizes = ns + 1
    ends = np.cumsum(sizes)
    t = (np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)) \
        * np.repeat(1.0 / ns, sizes)
    t[ends - 1] = 1.0
    ids = np.arange(n)
    v = np.asarray(fn(_path_z(geo, ids, sizes, t)), dtype=complex)
    out: list = [None] * n
    prev = np.full(n, math.nan)         # the last clean total
    for _ in range(64):
        ends = np.cumsum(sizes)
        starts = ends - sizes
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = v[1:] / v[:-1]
            dphi = np.angle(ratio)
            mag = np.abs(ratio)
        ok = (np.isfinite(ratio)
              & (np.abs(dphi) <= _PHASE_STEP)
              & (mag <= _MAG_STEP) & (mag >= 1.0 / _MAG_STEP))
        ok[ends[:-1] - 1] = True
        vanishes = np.logical_or.reduceat(
            ~np.isfinite(v) | (np.abs(v) < _TINY), starts)
        # refine[j]: bisect the step from sample j to sample j + 1
        refine = np.zeros(v.size, dtype=bool)
        refine[:-1] = ~ok
        n_bad = np.add.reduceat(refine, starts, dtype=np.intp)
        clean = ~vanishes & (n_bad == 0)
        done = again = np.zeros(ids.size, dtype=bool)
        if clean.any():
            # Each path's steps summed on their own, so a total does not
            # depend on the neighbours: reduceat over [start, end - 1).
            bounds = np.column_stack([starts, ends - 1]).ravel()
            with np.errstate(invalid="ignore"):
                totals = np.add.reduceat(np.append(dphi, 0.0), bounds)[::2]
            done = clean & (np.abs(totals - prev[ids])
                            <= 3e-7 * np.maximum(1.0, np.abs(totals)))
            for k in np.flatnonzero(done).tolist():
                out[ids[k]] = float(totals[k])
            again = clean & ~done   # clean once: refine every step
            refine |= np.repeat(again, sizes)
            refine[ends - 1] = False
            n_bad[again] = sizes[again] - 1
        prev[ids] = np.where(again, totals, math.nan) \
            if again.any() else math.nan
        capped = ~vanishes & ~done & (sizes + n_bad > 600000)
        keep = ~(done | vanishes | capped)
        if not keep.all():
            for k in np.flatnonzero(vanishes).tolist():
                out[ids[k]] = RingTooCloseError(
                    "function vanishes or blows up on path")
            for k in np.flatnonzero(capped).tolist():
                out[ids[k]] = RingTooCloseError(
                    "path refinement did not converge")
            if joint and (vanishes | capped).any():
                return out
            mask = np.repeat(keep, sizes)
            t, v, refine = t[mask], v[mask], refine[mask]
            ids, sizes, n_bad = ids[keep], sizes[keep], n_bad[keep]
            if not ids.size:
                return out
        bad = np.flatnonzero(refine)
        tm = 0.5 * (t[bad] + t[bad + 1])
        vm = np.asarray(fn(_path_z(geo, ids, n_bad, tm)), dtype=complex)
        t = np.insert(t, bad + 1, tm)
        v = np.insert(v, bad + 1, vm)
        sizes = sizes + n_bad
    for i in ids.tolist():
        out[i] = RingTooCloseError("path refinement did not converge")
    return out


def _rect_edges(x0, x1, y0, y1) -> list[tuple[complex, complex]]:
    """The four directed edges of a rectangle, counter-clockwise."""
    c = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    return [(c[i], c[(i + 1) % 4]) for i in range(4)]


def _as_int(w_raw: float, what: str) -> int:
    w = round(w_raw)
    if abs(w_raw - w) > _WINDING_SLACK:
        raise NonIntegerResidualError(
            f"{what} winding {w_raw:.6f} is {abs(w_raw - w):.3f} from an integer")
    return int(w)


def _circle_windings(fn, circles: list, rate) -> list:
    """Winding of fn along each (center, radius) circle, measured in one
    batch: an int, or the RingTooCloseError or NonIntegerResidualError
    (not raised) of that circle."""
    out = []
    for phase in _path_phases(fn, [_circle(c, rho) for c, rho in circles],
                              rate):
        if isinstance(phase, float):
            try:
                phase = _as_int(phase / (2.0 * math.pi), "circle")
            except NonIntegerResidualError as exc:
                phase = exc
        out.append(phase)
    return out


def _circle_winding(fn, center: complex, radius: float, rate) -> int:
    w, = _circle_windings(fn, [(center, radius)], rate)
    if isinstance(w, LocatorError):
        raise w
    return w


# ---------------------------------------------------------------------------
# structural factorisation of entire expressions

def _vanishing_factors(e: Expr) -> list[tuple[Expr, int]]:
    """Split an entire expression into (factor, power) pairs that can vanish.

    Exponentials and nonzero constants are dropped; they have no zeros."""
    if isinstance(e, Const):
        if e.value == 0:
            raise LocatorError("expression is identically zero")
        return []
    if isinstance(e, Exp):
        return []
    if isinstance(e, Neg):
        return _vanishing_factors(e.child)
    if isinstance(e, Mul):
        out = []
        for f in e.factors:
            out.extend(_vanishing_factors(f))
        return out
    if isinstance(e, IntPow):
        if e.power <= 0:
            raise LocatorError("negative power inside an entire factor")
        return [(b, p * e.power) for b, p in _vanishing_factors(e.base)]
    return [(e, 1)]


# ---------------------------------------------------------------------------
# rectangle subdivision

_SPLIT_FRACTIONS = (0.5, 0.46, 0.54, 0.42, 0.58, 0.37, 0.63, 0.31, 0.69)


@dataclass
class _Search:
    fn: object
    jet: object                 # z -> (f, f', f'') from one program
    rate: object
    disk_radius: float
    seeds: list[tuple[complex, int]]
    # (location, multiplicity); None marks a Newton point, multiplicity 1.
    found: list[tuple[complex, int | None]] = field(default_factory=list)
    cells: int = 0
    # Phase along each measured edge (a, b), keyed in the direction measured.
    # Floats only: a failed measurement is not stored, since its exception
    # would keep the path's sample arrays alive through its traceback.
    phases: dict[tuple[complex, complex], float] = field(default_factory=dict)

    def rect_windings(self, rects: list[tuple]) -> list[float]:
        """Raw boundary winding of each (x0, x1, y0, y1) rectangle.

        Every edge not yet in the memo is measured in one batch; an edge
        shared by two rectangles is measured once, and an edge met again in
        reverse takes the negated phase.  Raises the RingTooCloseError of
        the first failing edge; the edges finished before it stay in the
        memo."""
        edges = [e for q in rects for e in _rect_edges(*q)]
        todo: list = []
        for a, b in edges:
            if not any(k in self.phases or k in todo
                       for k in ((a, b), (b, a))):
                todo.append((a, b))
        failed = None
        for key, phase in zip(todo, _path_phases(
                self.fn, [_segment(a, b) for a, b in todo], self.rate,
                joint=True)):
            if isinstance(phase, float):
                self.phases[key] = phase
            elif phase is not None:
                failed = failed or phase
        if failed is not None:
            raise failed
        ph = [self.phases[(a, b)] if (a, b) in self.phases
              else -self.phases[(b, a)] for a, b in edges]
        return [sum(ph[k:k + 4]) / (2.0 * math.pi)
                for k in range(0, len(ph), 4)]

    def seed_mult_in(self, x0, x1, y0, y1) -> int:
        return sum(m for z, m in self.seeds
                   if x0 < z.real <= x1 and y0 < z.imag <= y1)

    def outside_disk(self, x0, x1, y0, y1) -> bool:
        dx = max(x0, -x1, 0.0)
        dy = max(y0, -y1, 0.0)
        return math.hypot(dx, dy) > self.disk_radius


def _pick_fraction(lo: float, hi: float, coords: list[float]) -> list[float]:
    """Candidate split coordinates not hugging any known point."""
    width = hi - lo
    out = []
    for f in _SPLIT_FRACTIONS:
        c = lo + f * width
        if all(abs(c - x) > 1e-3 * width for x in coords):
            out.append(c)
    return out or [lo + 0.5 * width]


def _quads(rect: tuple, xm: float, ym: float) -> list[tuple]:
    x0, x1, y0, y1 = rect
    return [(x0, xm, y0, ym), (xm, x1, y0, ym),
            (x0, xm, ym, y1), (xm, x1, ym, y1)]


def _cluster_circle(rect: tuple, top: tuple) -> tuple[complex, float]:
    """(centre, radius) of a cluster cell's certificate circle: centred on
    the cell, as large as fits in its top, and never smaller than the
    circle through the cell's corners."""
    x0, x1, y0, y1 = rect
    tx0, tx1, ty0, ty1 = top
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    inside = min(cx - tx0, tx1 - cx, cy - ty0, ty1 - cy)
    return complex(cx, cy), max(inside, 0.5 * math.hypot(x1 - x0, y1 - y0))


def _subdivide(s: _Search, x0, x1, y0, y1, w: int, depth: int = 0,
               top: tuple | None = None):
    """Locate the zeros in a cell of winding w, depth-first, into s.found
    and s.cells; top is the rect of the cell's largest ancestor of winding
    w (the cell itself by default).

    The cell's steps, in order: the conservation check, the cell budget,
    Newton, MAX_DEPTH; then each split candidate until one gives integer
    quadrant windings that add up to w, after which each quadrant is
    searched in turn."""
    rect = (x0, x1, y0, y1)
    top = top or rect
    unknown = w - s.seed_mult_in(*rect)
    if unknown < 0:
        raise ConservationError("cell winding below its seeded multiplicity")
    if unknown == 0 or s.outside_disk(*rect):
        # Everything here lies beyond the disk; callers never count it.
        return
    s.cells += 1
    if s.cells > MAX_CELLS:
        raise MaxDepthExceededError("subdivision cell budget exhausted")
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    seeded = any(x0 < z.real <= x1 and y0 < z.imag <= y1 for z, _ in s.seeds)
    if unknown == 1 and not seeded:
        z = _polish(s.jet, complex(cx, cy), s.disk_radius)
        if z is not None:
            # Accept only if the iteration stayed in this cell; its winding
            # is 1, so the point is the cell's one simple zero, and anything
            # outside is some other cell's zero.
            pad_x, pad_y = 1e-9 * (x1 - x0), 1e-9 * (y1 - y0)
            if (x0 - pad_x <= z.real <= x1 + pad_x
                    and y0 - pad_y <= z.imag <= y1 + pad_y):
                s.found.append((z, None))
                return
    if depth >= MAX_DEPTH:
        raise MaxDepthExceededError(
            f"cluster near {complex(cx, cy):.6g} not separated at depth "
            f"{depth}")
    # The axes are avoided like seeds: real-coefficient functions have zeros
    # on y = 0, odd functions at 0, and the bounding square is centred there.
    seed_x = [z.real for z, _ in s.seeds if x0 < z.real <= x1] + [0.0]
    seed_y = [z.imag for z, _ in s.seeds if y0 < z.imag <= y1] + [0.0]
    closable = unknown >= 2 and not seeded
    for xm in _pick_fraction(x0, x1, seed_x):
        for ym in _pick_fraction(y0, y1, seed_y):
            quads = _quads(rect, xm, ym)
            try:
                ws = [_as_int(wq, "cell") for wq in s.rect_windings(quads)]
            except (RingTooCloseError, NonIntegerResidualError):
                ws = None
            if ws is not None and sum(ws) == w:
                for q, wq in zip(quads, ws):
                    _subdivide(s, *q, wq, depth + 1, top if wq == w else q)
                return
            # Around a multiple zero every split line may be rounding noise,
            # so a cluster cell whose first split failed first tries to close
            # at its centroid.
            if closable:
                closable = False
                centre, rho = _cluster_circle(rect, top)
                if _circle_windings(s.fn, [(centre, rho)], s.rate) == [unknown]:
                    z = _cell_point(s.jet, rect, centre, rho, unknown)
                    if z is not None:
                        s.found.append((z, unknown))
                        return
    raise RingTooCloseError("no clean split line found for cell")


def _locate_entire(e: Expr, r: float,
                   seeds: tuple[complex, ...] = ()) -> tuple[list, int, bool]:
    """All zeros of one entire factor in |z| <= r as (location, mult) pairs,
    plus the disk winding of the factor.

    seeds are externally known candidate locations (typically the zeros of a
    denominator that may be cancelled).  They are read only when both the
    lattice and the moment reading decline: then their multiplicities are
    measured by small-circle windings and only the remainder is searched
    for.  A seed keeps its circle's winding m only when the moments put
    those zeros on it (s0 rounds to m, s1/s0 within Divisor.subtract's
    MERGE_TOL); else they are searched for too."""
    fn = compile_expr(e)
    rate = _rate_of(e)
    w_disk = _circle_winding(fn, 0j, r, rate)
    lattice = lattice_zeros(e, r)
    if lattice is not None and sum(m for _, m in lattice) == w_disk:
        return lattice, w_disk, True
    de = differentiate(e)
    jet = compile_expr((e, de, differentiate(de)))
    if 1 <= w_disk <= W_MAX:
        found = _disk_zeros(jet, r, w_disk, MERGE_TOL * max(r, 1.0))
        if found is not None:
            return found, w_disk, True

    inside = [z for z in seeds if abs(z) <= r * (1 + 10 * RING_CLEARANCE)]
    circles = []
    for z in inside:
        others = [abs(z - w) for w in inside if w is not z] + [abs(r - abs(z))]
        circles.append((z, max(1e-3 * min(others, default=1.0), 1e-9)))
    tol = MERGE_TOL * max(r, 1.0)
    points: list[tuple[complex, int]] = []      # the seeds kept, first
    for (z, rho), m in zip(circles, _circle_windings(fn, circles, rate)):
        if isinstance(m, LocatorError):
            raise m
        if m < 0:
            raise ConservationError("negative multiplicity at seeded point")
        if m:
            (s0, s1), _ = _moments(jet, z, rho, 2)
            if abs(s0 - m) < 0.5 and abs(rho * s1 / s0) <= tol:
                points.append((z, m))

    known = sum(m for z, m in points if abs(z) <= r)
    ok = True
    if w_disk != known:
        s = _Search(fn, jet, rate, r, list(points))
        half = r * (1 + 3 * RING_CLEARANCE)
        try:
            w_sq = _as_int(s.rect_windings([(-half, half, -half, half)])[0],
                           "bounding square")
            _subdivide(s, -half, half, -half, half, w_sq)
        except MaxDepthExceededError:
            ok = False
        # Newton points found twice merge into one of multiplicity 1, and
        # the shortfall then fails find_zeros' conservation check.
        points += [(z, 1 if m is None else m)
                   for z, m in _merge_raw(s.found, tol)]
    return points, w_disk, ok


def _merge_raw(found: list[tuple[complex, int | None]], tol: float):
    out: list[list] = []
    for z, m in found:
        for c in out:
            if abs(c[0] - z) <= tol:
                if c[1] is not None and m is not None:
                    c[1] += m
                elif m is not None:
                    c[1] = m
                break
        else:
            out.append([z, m])
    return [(z, m) for z, m in out]


def find_zeros(e: Expr, r: float, seeds: tuple[complex, ...] = (),
               memo: dict | None = None) -> Divisor:
    """Divisor of zeros of an entire expression in the closed disk |z| <= r.

    memo maps (atom, r, seeds) to the located zeros of that entire factor;
    pass one dict to several calls to locate a shared factor once."""
    total_pts: list[DivisorPoint] = []
    valid = True
    w_expected = 0
    memo = {} if memo is None else memo
    for atom, power in _vanishing_factors(e):
        key = (atom, r, seeds)
        if key not in memo:
            memo[key] = _locate_entire(atom, r, seeds)
        pts, w_disk, ok = memo[key]
        valid = valid and ok
        w_expected += w_disk * power
        for z, m in pts:
            if abs(z) <= r:
                total_pts.append(_point(z, m * power))
    merged = _merge_points(total_pts, MERGE_TOL * max(r, 1.0),
                           origin_tol=ORIGIN_TOL * max(r, 1.0))
    if valid:
        got = sum(p.multiplicity for p in merged)
        if got != w_expected:
            raise ConservationError(
                f"located multiplicity {got} but disk winding is {w_expected}")
    return Divisor(r, merged, valid)


# ---------------------------------------------------------------------------
# public winding number of a meromorphic expression

def winding_number(f: Expr, r: float) -> int:
    """Winding of f along |z| = r: zeros minus poles inside, by multiplicity."""
    q = canonical_quotient(f)
    w = _circle_winding(compile_expr(q.num), 0j, r, _rate_of(q.num))
    if not isinstance(q.den, Const):
        w -= _circle_winding(compile_expr(q.den), 0j, r, _rate_of(q.den))
    return w


# ---------------------------------------------------------------------------
# radius negotiation

_OFFSETS = (0.0, 2.5e-4, -2.5e-4, 5e-4, -5e-4, 7.5e-4, -7.5e-4, 1e-3, -1e-3)


def clear_radius(r: float, known: list[float],
                 rmax: float | None = None) -> tuple[float, bool]:
    """Nudge r away from the known point moduli, which must be sorted.

    Returns (usable radius, whether it was perturbed); prefers outward moves,
    never exceeds rmax, and gives up after +-1e-3 relative.  Only the two
    moduli next to a candidate are checked: |rt - a| grows with a above rt
    and falls with it below."""
    for off in _OFFSETS:
        rt = r * (1 + off)
        if rmax is not None and rt > rmax * (1 + 1e-12):
            continue
        if rt <= 0:
            continue
        i = bisect.bisect_left(known, rt)
        if all(abs(rt - a) >= RING_CLEARANCE * rt
               for a in known[max(i - 1, 0):i + 1]):
            return rt, off != 0.0
    raise RingTooCloseError(
        f"no usable radius near {r}: points crowd every candidate ring")


def negotiate(r: float, attempt) -> tuple[float, bool, object]:
    """Run attempt(radius) over the perturbation schedule until it succeeds.

    Lets several divisor computations that must share one radius be retried
    together when any of them lands on a zero ring."""
    last: Exception | None = None
    for off in _OFFSETS:
        rt = r * (1 + off)
        try:
            return rt, off != 0.0, attempt(rt)
        except (RingTooCloseError, NonIntegerResidualError) as exc:
            last = exc
    raise RingTooCloseError(f"all candidate radii near {r} failed: {last}")


def _finite_target(target) -> complex:
    tc = complex(target)
    if not cmath.isfinite(tc):
        raise ValueError(f"target {target!r} is not a finite complex number")
    return tc


def divisor_pair_at(f: Expr, r: float, target,
                    memo: dict | None = None) -> tuple[Divisor, Divisor]:
    """(zeros of f - target, poles of f) at exactly radius r, no retries."""
    tc = _finite_target(target)
    q = canonical_quotient(f if tc == 0 else sub(f, Const(tc)))
    if isinstance(q.den, Const):
        dden = Divisor(r, ())
    else:
        dden = find_zeros(q.den, r, memo=memo)
    dnum = find_zeros(q.num, r, seeds=dden.locations, memo=memo)
    return dnum.subtract(dden), dden.subtract(dnum)


def divisor_of(f: Expr, r: float, target) -> tuple[Divisor, Divisor]:
    """(zeros of f - target, poles of f) in |z| <= r as reduced divisors,
    target a complex number.

    Cancellation between numerator and denominator is removed by pointwise
    subtraction, so the result is the divisor of the function itself, not of
    a particular representation.  The radius is nudged over the perturbation
    schedule if a ring is hit.  A non-finite target raises ValueError
    before anything is located."""
    _finite_target(target)
    _, _, pair = negotiate(r, lambda rt: divisor_pair_at(f, rt, target))
    return pair
