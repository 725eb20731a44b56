"""Zero and pole location inside a disk via the argument principle.

Winding numbers are measured by phase continuation along boundary paths:
sample the function, and wherever the phase (or the magnitude) jumps too much
between neighbours, insert midpoints until every step is tame.  Zeros are then
isolated by recursive rectangle subdivision driven by boundary windings and
polished with a Newton iteration on f/f'.  A Newton point is accepted only
inside a seed-free cell of winding 1, so it is that cell's one simple zero and
takes multiplicity 1 from the cell accounting; seeds (points known in advance)
still get theirs from small-circle windings.  The counts are cross-checked:
the multiplicities found inside the disk must add up to the winding of the
full circle, which also catches two cells whose Newton points coincide.

One search completes the measurement of each rectangle edge at most once.
Edge phases are memoised by their endpoints, and a neighbour walking an edge
the other way reads back the negated phase.  A split refines all of its new
edges together, sharing one evaluator call per refinement round.  Child edges
are never derived from the parent's samples or by subtraction from the
parent's edges, so the check that the four quadrant windings add up to the
parent's stays an independent test of every new edge.

Split lines avoid the coordinate axes as they avoid seed points, since
real-coefficient and odd functions have zeros there.  Around a multiple zero
every split line of a small enough cell is rounding noise; such a cell that
fails its first split closes at the centroid of its zeros, the moment ratio
s1/s0 on a circle whose winding certifies that it holds the cell's zeros
and no other.

The machinery never factors anything numerically; products, integer powers and
exponential factors are split structurally first, so a squared factor is
located once and its multiplicity doubled exactly.
"""

from __future__ import annotations

import cmath
import functools
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
# Below this size (relative) a cell's split lines may all lie in the rounding
# noise around a multiple zero; such a cell can close at its centroid.
CLUSTER_SIZE = 1e-6
MAX_DEPTH = 40
MAX_CELLS = 60000
# Phase / magnitude continuity thresholds for path refinement.
_PHASE_STEP = 0.5 * math.pi
_MAG_STEP = 4.0
_TINY = 1e-280
_WINDING_SLACK = 0.25
# Rounds in which all paths of a batch refine together (see _path_phases).
_LOCKSTEP_ROUNDS = 8


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
        out = []
        for p in self.points:
            m = p.multiplicity
            for q in other.points:
                if abs(p.location - q.location) <= tol:
                    m -= q.multiplicity
            if m > 0:
                out.append(_point(p.location, m))
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


def _path_phases(fn, paths: list, rate=None) -> list:
    """Total continuous phase change of fn along each path(t), t in [0, 1].

    paths holds (path, n0, length) triples.  Each path keeps its own samples,
    caps and two-refinement agreement test, so its result does not depend on
    the other paths.  An entry of the result is the phase as a float, the
    RingTooCloseError (not raised) of a path that failed, or None for a path
    left unfinished: the batch stops at its first failure, since every caller
    then discards the whole batch.

    All paths refine together for the first _LOCKSTEP_ROUNDS rounds, with one
    evaluator call per round; on the benchmark workloads no converging path
    needs more than 7.  The paths still open after that are finished one at
    a time, in order.  They are nearly always split lines through the
    rounding noise around a multiple zero, which run to the round cap and
    fail, so finishing them one by one pays for the first failure only."""
    if not paths:
        return []
    ns = [n0 for _, n0, _ in paths]
    probed = [i for i, (_, _, length) in enumerate(paths)
              if rate is not None and length > 0.0]
    if probed:
        s = np.linspace(0.0, 1.0, 33)
        r_est = rate(np.stack([paths[i][0](s) for i in probed]))
        for i, r in zip(probed, r_est.tolist()):
            if math.isfinite(r):
                ns[i] = max(ns[i], min(int(1.25 * paths[i][2] * r) + 8, 150000))
    ts = [np.linspace(0.0, 1.0, n + 1) for n in ns]
    z = np.concatenate([p(tk) for (p, _, _), tk in zip(paths, ts)])
    group = (np.concatenate(ts), np.asarray(fn(z), dtype=complex),
             list(range(len(paths))), np.cumsum([0] + [tk.size for tk in ts]))
    out: list = [None] * len(paths)
    prev: list = [None] * len(paths)
    t, v, ids, bounds = _refine(fn, paths, group, prev, out, _LOCKSTEP_ROUNDS)
    for k, i in enumerate(ids):
        lo, hi = bounds[k], bounds[k + 1]
        alone = (t[lo:hi], v[lo:hi], [i], np.array([0, hi - lo]))
        if _refine(fn, paths, alone, prev, out, 64 - _LOCKSTEP_ROUNDS)[2]:
            out[i] = RingTooCloseError("path refinement did not converge")
        if not isinstance(out[i], float):
            break
    return out


def _refine(fn, paths: list, group: tuple, prev: list, out: list,
            rounds: int) -> tuple:
    """Run up to `rounds` refinement rounds on a group of paths.

    The group's samples lie end to end in t and v; path ids[k] owns
    t[bounds[k]:bounds[k + 1]], and a step across two paths is never
    refined.  A path that converges or fails gets its entry in out; the
    group returned holds the paths still open, and no path once one failed."""
    t, v, ids, bounds = group
    for _ in range(rounds):
        starts, ends = bounds[:-1], bounds[1:]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = v[1:] / v[:-1]
            dphi = np.angle(ratio)
            mag = np.abs(ratio)
        ok = (np.isfinite(ratio)
              & (np.abs(dphi) <= _PHASE_STEP)
              & (mag <= _MAG_STEP) & (mag >= 1.0 / _MAG_STEP))
        ok[ends[:-1] - 1] = True
        vanishes = np.logical_or.reduceat(~np.isfinite(v) | (np.abs(v) < _TINY),
                                          starts).tolist()
        # refine[j]: bisect the step from sample j to sample j + 1
        refine = np.zeros(v.size, dtype=bool)
        refine[:-1] = ~ok
        n_bad = np.add.reduceat(refine, starts, dtype=np.intp).tolist()
        keep = []
        for k, i in enumerate(ids):
            lo, hi = int(starts[k]), int(ends[k]) - 1     # the path's steps
            if vanishes[k]:
                out[i] = RingTooCloseError("function vanishes or blows up on path")
            elif n_bad[k] == 0:
                total = float(dphi[lo:hi].sum())
                if prev[i] is not None and abs(total - prev[i]) <= 3e-7 * max(1.0, abs(total)):
                    out[i] = total
                else:
                    prev[i] = total
                    refine[lo:hi] = True
                    n_bad[k] = hi - lo
            else:
                prev[i] = None
            if out[i] is None and hi + 1 - lo + n_bad[k] > 600000:
                out[i] = RingTooCloseError("path refinement did not converge")
            keep.append(out[i] is None)
        if not all(keep):
            if any(isinstance(out[i], RingTooCloseError) for i in ids):
                return t, v, [], bounds
            mask = np.repeat(keep, ends - starts)
            t, v, refine = t[mask], v[mask], refine[mask]
            ids = [i for i, kp in zip(ids, keep) if kp]
            bounds = np.cumsum([0] + [int(e - s) for s, e, kp in
                                      zip(starts, ends, keep) if kp])
            if not ids:
                break
        bad = np.nonzero(refine)[0]
        tm = 0.5 * (t[bad] + t[bad + 1])
        cut = np.searchsorted(bad, bounds)
        vm = np.asarray(fn(np.concatenate([paths[i][0](tm[cut[k]:cut[k + 1]])
                                           for k, i in enumerate(ids)])),
                        dtype=complex)
        t = np.insert(t, bad + 1, tm)
        v = np.insert(v, bad + 1, vm)
        bounds = bounds + cut
    return t, v, ids, bounds


def _circle_winding_raw(fn, center: complex, radius: float, rate=None) -> float:
    path = lambda t: center + radius * np.exp(2j * np.pi * t)
    phase, = _path_phases(fn, [(path, 64, 2.0 * math.pi * radius)], rate)
    if isinstance(phase, RingTooCloseError):
        raise phase
    return phase / (2.0 * math.pi)


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


def _circle_winding(fn, center: complex, radius: float, rate=None) -> int:
    return _as_int(_circle_winding_raw(fn, center, radius, rate), "circle")


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

def _polish(fn, dfn, d2fn, z0: complex, scale: float) -> complex | None:
    z = np.complex128(z0)
    with np.errstate(all="ignore"):
        for _ in range(60):
            f0, f1, f2 = fn(z), dfn(z), d2fn(z)
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


@dataclass
class _Search:
    fn: object
    dfn: object
    d2fn: object
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

        Every edge not yet in the memo is measured in one batch, including
        those of the rectangles after a failing one.  An edge met again in
        reverse takes the negated phase.  Raises the first failing edge's
        RingTooCloseError once the others are stored."""
        edges = [e for q in rects for e in _rect_edges(*q)]
        todo: dict = {}
        for a, b in edges:
            if not ((a, b) in self.phases or (b, a) in self.phases
                    or (b, a) in todo):
                todo[(a, b)] = (lambda t, a=a, b=b: a + t * (b - a), 16, abs(b - a))
        failed = None
        for key, phase in zip(todo, _path_phases(self.fn, list(todo.values()),
                                                 self.rate)):
            if isinstance(phase, float):
                self.phases[key] = phase
            elif failed is None:
                failed = phase
        if failed is not None:
            raise failed
        ph = [self.phases[(a, b)] if (a, b) in self.phases else -self.phases[(b, a)]
              for a, b in edges]
        return [sum(ph[k:k + 4]) / (2.0 * math.pi) for k in range(0, len(ph), 4)]

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


def _descend(s: _Search, x0, x1, y0, y1, w: int, depth: int):
    unknown = w - s.seed_mult_in(x0, x1, y0, y1)
    if unknown < 0:
        raise ConservationError("cell winding below its seeded multiplicity")
    if unknown == 0:
        return
    if s.outside_disk(x0, x1, y0, y1):
        # Everything here lies beyond the disk; callers never count it.
        return
    s.cells += 1
    if s.cells > MAX_CELLS:
        raise MaxDepthExceededError("subdivision cell budget exhausted")
    diam = math.hypot(x1 - x0, y1 - y0)
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    seeded = any(x0 < z.real <= x1 and y0 < z.imag <= y1 for z, _ in s.seeds)
    if unknown == 1 and not seeded:
        z = _polish(s.fn, s.dfn, s.d2fn, complex(cx, cy), s.disk_radius)
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
            f"cluster near {complex(cx, cy):.6g} not separated at depth {depth}")
    small = diam < CLUSTER_SIZE * max(s.disk_radius, 1.0)
    closable = small and unknown >= 2 and not seeded
    # The axes are avoided like seeds: real-coefficient functions have zeros
    # on y = 0, odd functions at 0, and the bounding square is centred there.
    seed_x = [z.real for z, _ in s.seeds if x0 < z.real <= x1] + [0.0]
    seed_y = [z.imag for z, _ in s.seeds if y0 < z.imag <= y1] + [0.0]
    for xm in _pick_fraction(x0, x1, seed_x):
        for ym in _pick_fraction(y0, y1, seed_y):
            quads = [(x0, xm, y0, ym), (xm, x1, y0, ym),
                     (x0, xm, ym, y1), (xm, x1, ym, y1)]
            try:
                ws = [_as_int(wq, "cell") for wq in s.rect_windings(quads)]
            except (RingTooCloseError, NonIntegerResidualError):
                ws = None
            if ws is not None and sum(ws) == w:
                for q, wq in zip(quads, ws):
                    _descend(s, *q, wq, depth + 1)
                return
            # A small cell around a multiple zero whose first split failed:
            # its other split lines are most likely rounding noise too.
            if closable:
                closable = False
                z = _cluster_centroid(s, complex(cx, cy), unknown)
                if z is not None:
                    s.found.append((z, unknown))
                    return
    # Every split line is contaminated.  For a tight multiple zero the
    # boundary signal drowns in rounding noise below ~1e-8; accept the cell
    # as a single point once it is already small, otherwise give up.
    if small:
        s.found.append((complex(cx, cy), unknown))
        return
    raise RingTooCloseError("no clean split line found for cell")


def _cluster_centroid(s: _Search, c: complex, unknown: int) -> complex | None:
    """Mean of the `unknown` zeros near c, or None if not certified.

    The circle of radius rho = CLUSTER_SIZE * max(r, 1) about c contains the
    cell; its winding must equal `unknown`, so it holds no other zero.  The
    centroid is then the moment ratio s1/s0 of Delves and Lyness, with s_k
    the integral of z^k f'/f over the circle divided by 2 pi i, taken by the
    trapezoid rule on N = 32, 64, ... points until two successive estimates
    agree within 1e-3 rho."""
    rho = CLUSTER_SIZE * max(s.disk_radius, 1.0)
    try:
        if _circle_winding(s.fn, c, rho, s.rate) != unknown:
            return None
    except (RingTooCloseError, NonIntegerResidualError):
        return None
    prev = None
    with np.errstate(all="ignore"):
        for n in (32, 64, 128, 256, 512, 1024):
            u = rho * np.exp(2j * np.pi * np.arange(n) / n)
            z = c + u
            est = c + complex(np.mean(u * u * s.dfn(z) / s.fn(z))) / unknown
            if prev is not None and abs(est - prev) <= 1e-3 * rho:
                return est
            prev = est
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
    dfn = compile_expr(de)
    d2fn = compile_expr(differentiate(de))
    rate = _rate_of(e)
    w_disk = _circle_winding(fn, 0j, r, rate)

    seed_list: list[tuple[complex, int]] = []
    inside = [z for z in seeds if abs(z) <= r * (1 + 10 * RING_CLEARANCE)]
    for z in inside:
        others = [abs(z - w) for w in inside if w is not z] + [abs(r - abs(z))]
        rho = max(1e-3 * min(others, default=1.0), 1e-9)
        m = _circle_winding(fn, z, rho, rate)
        if m < 0:
            raise ConservationError("negative multiplicity at seeded point")
        if m:
            seed_list.append((z, m))

    known = sum(m for z, m in seed_list if abs(z) <= r)
    points = [(z, m) for z, m in seed_list]
    ok = True
    if w_disk != known:
        s = _Search(fn, dfn, d2fn, rate, r, seed_list)
        half = r * (1 + 3 * RING_CLEARANCE)
        try:
            w_sq = _as_int(s.rect_windings([(-half, half, -half, half)])[0],
                           "bounding square")
            _descend(s, -half, half, -half, half, w_sq, 0)
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
