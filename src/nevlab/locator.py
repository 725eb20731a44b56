"""Zero and pole location inside a disk via the argument principle.

Winding numbers are measured by phase continuation along boundary paths:
sample the function, and wherever the phase (or the magnitude) jumps too much
between neighbours, insert midpoints until every step is tame.  Zeros are then
isolated by rectangle subdivision driven by boundary windings and
polished with a Newton iteration on f/f'.  Each iteration makes one call to
a joint program for f, f' and f'' (compile_expr of the tuple), which shares
their common subtrees and runs on the point as generated straight-line code.
A Newton point is accepted only inside a seed-free cell of winding 1, so it
is that cell's one simple zero and takes multiplicity 1 from the cell
accounting; seeds (points known in advance) still get theirs from
small-circle windings.  The counts are cross-checked:
the multiplicities found inside the disk must add up to the winding of the
full circle, which also catches two cells whose Newton points coincide.

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

The subdivision is a frontier search.  Each cell is keyed by its quadrant
path from the root, so tuple order is the pre-order of a depth-first
search.  Each round, the pending cells of smallest key (up to _BATCH_CELLS)
propose their next split, and all their new edges are measured in one
batch; a failing edge fails only the splits that need it.  Found points and
errors are tagged with their cell's key, and the search ends as the
depth-first search would: the first event in key order wins, the points
before it are kept in key order, and cells past the earliest event known
are not expanded.  The MAX_CELLS budget runs out at the (MAX_CELLS + 1)-th
smallest counted key.

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
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import (Add, Const, Div, Exp, Expr, IntPow, Mul, Neg, QuotientForm,
                   compile_expr, differentiate, sub)
from .exppoly import canonical_quotient

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


@functools.cache
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


def _path_phases(fn, paths: list, rate=None, owners: list | None = None) -> list:
    """Total continuous phase change of fn along each path, t in [0, 1].

    paths are _segment or _circle triples.  Each path keeps its own samples,
    caps and two-refinement agreement test, so its result does not depend on
    the other paths.  An entry of the result is the phase as a float, the
    RingTooCloseError (not raised) of a path that failed, or None for a path
    dropped unfinished.  owners[i] lists the groups that need path i (by
    default each path is its own group): a failing path fails its groups,
    and a path whose groups have all failed is dropped.

    All open paths refine together, with one evaluator call per round and
    the per-path bookkeeping done on arrays; a path still open after 64
    rounds fails.  The samples of the open paths lie end to end in t and v,
    sizes[k] of them for path ids[k], and a step across two paths is never
    refined."""
    n = len(paths)
    if not n:
        return []
    owners = owners or [[i] for i in range(n)]
    base, scale, circle = zip(*paths)
    geo = (np.array(base, dtype=complex), np.array(scale, dtype=complex),
           np.array(circle, dtype=bool))
    length = np.abs(geo[1]) * np.where(geo[2], 2.0 * math.pi, 1.0)
    ns = np.where(geo[2], 64, 16)
    probed = np.flatnonzero(length > 0.0) if rate is not None else []
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
    dead: set = set()                   # failed groups

    def fail(i: int, why: str):
        out[i] = RingTooCloseError(why)
        dead.update(owners[i])

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
            if (vanishes | capped).any():
                for k in np.flatnonzero(vanishes).tolist():
                    fail(ids[k], "function vanishes or blows up on path")
                for k in np.flatnonzero(capped).tolist():
                    fail(ids[k], "path refinement did not converge")
                keep &= [not dead.issuperset(owners[i])
                         for i in ids.tolist()]
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
        if not dead.issuperset(owners[i]):
            fail(i, "path refinement did not converge")
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


def _circle_windings(fn, circles: list, rate=None) -> list:
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


def _circle_winding(fn, center: complex, radius: float, rate=None) -> int:
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
# Newton polishing on f / f'  (quadratic near zeros of any multiplicity)

def _polish(jet, z0: complex, scale: float) -> complex | None:
    # z stays an np.complex128 under errstate, so a compiled jet's generated
    # code runs directly, without the evaluator's per-call checks; a jet
    # with no program is called as it is.
    prog = getattr(jet, "program", None)
    point = jet if prog is None else functools.partial(prog.straight,
                                                       exp=np.exp)
    z = np.complex128(z0)
    with np.errstate(all="ignore"):
        for _ in range(60):
            f0, f1, f2 = point(z)
            if not (cmath.isfinite(f0) and cmath.isfinite(f1)
                    and cmath.isfinite(f2)):
                return None
            denom = f1 * f1 - f0 * f2
            if denom == 0:
                return None
            step = np.complex128(f0 * f1) / denom
            if not cmath.isfinite(step):
                return None
            z -= step
            if abs(step) < 1e-13 * scale:
                return complex(z)
    return None


# ---------------------------------------------------------------------------
# rectangle subdivision

_SPLIT_FRACTIONS = (0.5, 0.46, 0.54, 0.42, 0.58, 0.37, 0.63, 0.31, 0.69)
# Cells whose splits are measured together in one round.  A batch takes the
# pending cells in key order up to this many, which bounds the samples in
# flight however wide the frontier grows.
_BATCH_CELLS = 16


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

    def split_windings(self, groups: list[list[tuple]]) -> list:
        """Raw boundary winding of each (x0, x1, y0, y1) rectangle of each
        group, or the RingTooCloseError (not raised) of a failing edge.

        Every edge not yet in the memo is measured in one batch; an edge
        shared by several groups is measured once, in the direction of the
        first group that has it, and an edge met again in reverse takes the
        negated phase.  A failing edge fails only the groups that have it."""
        edges = [[e for q in rects for e in _rect_edges(*q)]
                 for rects in groups]
        todo: dict = {}
        for g, es in enumerate(edges):
            for a, b in es:
                if (a, b) in self.phases or (b, a) in self.phases:
                    continue
                own = todo.get((a, b)) or todo.get((b, a))
                if own is None:
                    todo[(a, b)] = [g]
                elif own[-1] != g:
                    own.append(g)
        failed: list = [None] * len(groups)
        for (key, own), phase in zip(todo.items(), _path_phases(
                self.fn, [_segment(a, b) for a, b in todo], self.rate,
                list(todo.values()))):
            if isinstance(phase, float):
                self.phases[key] = phase
            elif phase is not None:
                for g in own:
                    failed[g] = failed[g] or phase
        out = []
        for es, err in zip(edges, failed):
            if err is not None:
                out.append(err)
                continue
            ph = [self.phases[(a, b)] if (a, b) in self.phases
                  else -self.phases[(b, a)] for a, b in es]
            out.append([sum(ph[k:k + 4]) / (2.0 * math.pi)
                        for k in range(0, len(ph), 4)])
        return out

    def rect_windings(self, rects: list[tuple]) -> list[float]:
        """Raw boundary winding of each rectangle, as one group of
        split_windings; raises the group's RingTooCloseError."""
        out, = self.split_windings([rects])
        if isinstance(out, RingTooCloseError):
            raise out
        return out

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


@dataclass
class _Cell:
    """A cell still to be split; key is its quadrant path from the root."""
    key: tuple
    rect: tuple
    w: int
    unknown: int
    top: tuple          # the rect of the largest ancestor of winding w
    closable: bool
    xs: list            # split candidates, each ym in ys for each xm in xs
    ys: list
    tried: int = 0
    certify: bool = False

    def split(self) -> tuple[float, float]:
        """The next (xm, ym) candidate."""
        i, j = divmod(self.tried, len(self.ys))
        return self.xs[i], self.ys[j]


class _Frontier:
    """Events of one subdivision, each tagged with its cell's key.

    Keys are quadrant paths from the root, so tuple order is the pre-order
    of a depth-first search, and that search's outcome is the first event
    in key order: points at smaller keys are kept, the rest discarded."""

    def __init__(self, s: _Search):
        self.s = s
        self.pending: list = []     # heap of (key, _Cell)
        self.found: list = []       # (key, (location, multiplicity))
        self.errors: list = []      # (key, exception)
        self.counted: list = []     # sorted keys of the cells counted
        self.stop = None            # key of the earliest event known

    def past(self, key: tuple) -> bool:
        """Whether key comes after the earliest event known."""
        return self.stop is not None and key > self.stop

    def halt(self, key: tuple):
        if self.stop is None or key < self.stop:
            self.stop = key

    def event(self, key: tuple, exc: LocatorError):
        self.errors.append((key, exc))
        self.halt(key)

    def budget(self) -> tuple | None:
        """Key of the cell that exhausts MAX_CELLS, if one is known."""
        if len(self.counted) > MAX_CELLS:
            return self.counted[MAX_CELLS]
        return None

    def enter(self, key: tuple, rect: tuple, w: int, top: tuple):
        """A new cell's steps before its first split, in order: the
        conservation check, the cell budget, Newton, MAX_DEPTH; then it
        joins the pending cells with its split candidates.  top is the
        parent's top if w is the parent's winding, else rect."""
        s = self.s
        if self.past(key):
            return
        x0, x1, y0, y1 = rect
        unknown = w - s.seed_mult_in(*rect)
        if unknown < 0:
            self.event(key, ConservationError(
                "cell winding below its seeded multiplicity"))
            return
        if unknown == 0 or s.outside_disk(*rect):
            # Everything here lies beyond the disk; callers never count it.
            return
        bisect.insort(self.counted, key)
        over = self.budget()
        if over is not None:
            self.halt(over)
            if key >= over:
                return
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        seeded = any(x0 < z.real <= x1 and y0 < z.imag <= y1
                     for z, _ in s.seeds)
        if unknown == 1 and not seeded:
            z = _polish(s.jet, complex(cx, cy), s.disk_radius)
            if z is not None:
                # Accept only if the iteration stayed in this cell; its
                # winding is 1, so the point is the cell's one simple zero,
                # and anything outside is some other cell's zero.
                pad_x, pad_y = 1e-9 * (x1 - x0), 1e-9 * (y1 - y0)
                if (x0 - pad_x <= z.real <= x1 + pad_x
                        and y0 - pad_y <= z.imag <= y1 + pad_y):
                    self.found.append((key, (z, None)))
                    return
        if len(key) >= MAX_DEPTH:
            self.event(key, MaxDepthExceededError(
                f"cluster near {complex(cx, cy):.6g} not separated at depth "
                f"{len(key)}"))
            return
        # The axes are avoided like seeds: real-coefficient functions have
        # zeros on y = 0, odd functions at 0, and the bounding square is
        # centred there.
        seed_x = [z.real for z, _ in s.seeds if x0 < z.real <= x1] + [0.0]
        seed_y = [z.imag for z, _ in s.seeds if y0 < z.imag <= y1] + [0.0]
        heapq.heappush(self.pending, (key, _Cell(
            key, rect, w, unknown, top, unknown >= 2 and not seeded,
            _pick_fraction(x0, x1, seed_x), _pick_fraction(y0, y1, seed_y))))

    def round(self):
        """Measure the proposals of the next batch of cells, then act on
        each cell's outcome in key order."""
        s = self.s
        batch = []
        while self.pending and len(batch) < _BATCH_CELLS:
            key, cell = heapq.heappop(self.pending)
            if self.past(key):
                self.pending.clear()
                break
            batch.append(cell)
        split_out = iter(s.split_windings(
            [_quads(c.rect, *c.split()) for c in batch if not c.certify]))
        circles = [_cluster_circle(c.rect, c.top) for c in batch if c.certify]
        cert_out = zip(circles, _circle_windings(s.fn, circles, s.rate))
        for c in batch:
            if c.certify:
                c.certify = False
                # w is an int, or the circle's error
                (centre, rho), w = next(cert_out)
                z = _moment_centroid(s.jet, c.rect, centre, rho, c.unknown) \
                    if w == c.unknown else None
                if z is not None:
                    self.found.append((c.key, (z, c.unknown)))
                    continue
            else:
                quads = _quads(c.rect, *c.split())
                c.tried += 1
                ws = next(split_out)    # raw windings, or the error
                try:
                    ws = None if isinstance(ws, LocatorError) else \
                        [_as_int(wq, "cell") for wq in ws]
                except NonIntegerResidualError:
                    ws = None
                if ws is not None and sum(ws) == c.w:
                    for j, (q, wq) in enumerate(zip(quads, ws)):
                        self.enter(c.key + (j,), q, wq,
                                   c.top if wq == c.w else q)
                    continue
                # Around a multiple zero every split line may be rounding
                # noise, so a cluster cell whose first split failed first
                # tries to close at its centroid.
                if c.closable:
                    c.closable, c.certify = False, True
                    heapq.heappush(self.pending, (c.key, c))
                    continue
            if c.tried < len(c.xs) * len(c.ys):
                heapq.heappush(self.pending, (c.key, c))
            else:
                self.event(c.key, RingTooCloseError(
                    "no clean split line found for cell"))


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


def _subdivide(s: _Search, x0, x1, y0, y1, w: int):
    """Locate the zeros in a cell of winding w, into s.found and s.cells.

    A frontier search: each round, the pending cells of smallest key propose
    their next split (or centroid certificate), all measured in one batch.
    The outcome is the one a depth-first search gives: the points before
    the first event in key order, in that order, and then that event's
    error, if any.  The cell budget is spent at the (MAX_CELLS + 1)-th
    smallest counted key."""
    fr = _Frontier(s)
    fr.enter((), (x0, x1, y0, y1), w, (x0, x1, y0, y1))
    while fr.pending:
        fr.round()
    stop = fr.stop
    if stop is None:
        s.found = [p for _, p in sorted(fr.found)]
        s.cells = len(fr.counted)
        return
    s.found = [p for k, p in sorted(fr.found) if k < stop]
    s.cells = bisect.bisect_right(fr.counted, stop)
    if stop == fr.budget():
        raise MaxDepthExceededError("subdivision cell budget exhausted")
    raise dict(fr.errors)[stop]


def _moment_centroid(jet, rect: tuple, c: complex, rho: float,
                     unknown: int) -> complex | None:
    """The one point of multiplicity `unknown` that holds the zeros of the
    cell rect, from the circle |z - c| = rho around the cell, whose winding
    has certified that it holds those zeros and no other; None unless they
    are one point in the cell.

    With t = (z - c) / rho, s_k is the integral of t^k f'/f over the circle
    divided by 2 pi i, taken by the trapezoid rule on N = 512 and 2N points;
    its error is the change from N to 2N points plus a rounding floor, eps
    times the integral of |f'/f|.  s1/s0 is the centroid of the zeros in t
    (Delves and Lyness), and the spread s2/s0 - (s1/s0)^2 is the mean of
    their squared offsets from it, 0 for a single point.  The point is
    accepted when s0 rounds to `unknown`, the spread is within the errors
    of the moments (relative to s0), and the centroid lies in the cell."""
    t = np.exp(1j * np.pi * np.arange(1024) / 512)
    with np.errstate(all="ignore"):
        f, df, _ = jet(c + rho * t)
        g = t * df / f * rho
    # the same for every s_k, since |t| = 1
    floor = float(np.finfo(float).eps * np.mean(np.abs(g)))
    s, err = [], 0.0
    for k in range(3):
        gk = g * t ** k
        s.append(complex(np.mean(gk)))
        err += abs(s[-1] - complex(np.mean(gk[::2]))) + floor
    s0, s1, s2 = s
    if not abs(s0 - unknown) < 0.5:     # also false for a NaN
        return None
    z = c + rho * s1 / s0
    x0, x1, y0, y1 = rect
    if (abs(s2 / s0 - (s1 / s0) ** 2) <= err / abs(s0)
            and x0 <= z.real <= x1 and y0 <= z.imag <= y1):
        return z
    return None


def _locate_entire(e: Expr, r: float,
                   seeds: tuple[complex, ...] = ()) -> tuple[list, int, bool]:
    """All zeros of one entire factor in |z| <= r as (location, mult) pairs,
    plus the disk winding of the factor.

    seeds are externally known candidate locations (typically the zeros of a
    denominator that may be cancelled); their multiplicities are measured by
    small-circle windings and only the remainder is searched for."""
    fn = compile_expr(e)
    de = differentiate(e)
    jet = compile_expr((e, de, differentiate(de)))
    rate = _rate_of(e)
    inside = [z for z in seeds if abs(z) <= r * (1 + 10 * RING_CLEARANCE)]
    circles = [(0j, r)]
    for z in inside:
        others = [abs(z - w) for w in inside if w is not z] + [abs(r - abs(z))]
        circles.append((z, max(1e-3 * min(others, default=1.0), 1e-9)))
    # One batch; failures are raised in the order of the circles.
    w_disk, *ms = _circle_windings(fn, circles, rate)
    if isinstance(w_disk, LocatorError):
        raise w_disk

    seed_list: list[tuple[complex, int]] = []
    for z, m in zip(inside, ms):
        if isinstance(m, LocatorError):
            raise m
        if m < 0:
            raise ConservationError("negative multiplicity at seeded point")
        if m:
            seed_list.append((z, m))

    known = sum(m for z, m in seed_list if abs(z) <= r)
    points = [(z, m) for z, m in seed_list]
    ok = True
    if w_disk != known:
        s = _Search(fn, jet, rate, r, seed_list)
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
                   for z, m in _merge_raw(s.found, MERGE_TOL * max(r, 1.0))]
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

def winding_number(f: Expr | QuotientForm, r: float) -> int:
    """Winding of f along |z| = r: zeros minus poles inside, by multiplicity."""
    q = f if isinstance(f, QuotientForm) else canonical_quotient(f)
    w = _circle_winding(compile_expr(q.num), 0j, r, _rate_of(q.num))
    if not isinstance(q.den, Const):
        w -= _circle_winding(compile_expr(q.den), 0j, r, _rate_of(q.den))
    return w


# ---------------------------------------------------------------------------
# radius negotiation

_OFFSETS = (0.0, 2.5e-4, -2.5e-4, 5e-4, -5e-4, 7.5e-4, -7.5e-4, 1e-3, -1e-3)


def clear_radius(r: float, known: list[float], rmax: float | None = None,
                 clearance: float = RING_CLEARANCE) -> tuple[float, bool]:
    """Nudge r away from the known point moduli.

    Returns (usable radius, whether it was perturbed); prefers outward moves,
    never exceeds rmax, and gives up after +-1e-3 relative."""
    for off in _OFFSETS:
        rt = r * (1 + off)
        if rmax is not None and rt > rmax * (1 + 1e-12):
            continue
        if rt <= 0:
            continue
        if all(abs(rt - a) >= clearance * rt for a in known):
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


def _as_target_expr(f: Expr, target) -> tuple[Expr, bool]:
    is_inf = (isinstance(target, str) and target.lower() in ("inf", "infinity")) \
        or (isinstance(target, float) and math.isinf(target))
    if is_inf:
        return f, True
    tc = complex(target)
    return (f if tc == 0 else sub(f, Const(tc))), False


def divisor_pair_at(f: Expr, r: float, target,
                    memo: dict | None = None) -> tuple[Divisor, Divisor]:
    """(zeros of f - target, poles of f) at exactly radius r, no retries."""
    h, is_inf = _as_target_expr(f, target)
    q = canonical_quotient(h)
    if isinstance(q.den, Const):
        dden = Divisor(r, ())
    else:
        dden = find_zeros(q.den, r, memo=memo)
    dnum = find_zeros(q.num, r, seeds=dden.locations, memo=memo)
    zeros = dnum.subtract(dden)
    poles = dden.subtract(dnum)
    if is_inf:
        return poles, poles
    return zeros, poles


def divisor_of(f: Expr, r: float, target) -> tuple[Divisor, Divisor]:
    """(zeros of f - target, poles of f) in |z| <= r as reduced divisors.

    target may be a complex number or the string "inf" / math.inf, in which
    case both slots carry the pole divisor.  Cancellation between numerator
    and denominator is removed by pointwise subtraction, so the result is the
    divisor of the function itself, not of a particular representation.  The
    radius is nudged over the perturbation schedule if a ring is hit."""
    _, _, pair = negotiate(r, lambda rt: divisor_pair_at(f, rt, target))
    return pair
