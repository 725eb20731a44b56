"""Value-distribution functionals: proximity, integrated counting, and the
characteristic.

Counting functions are exact sums over located divisors.  The proximity mean
is an adaptive Simpson quadrature of max(0, log|f|) over a circle, evaluated
through the quotient form so that poles on the circle show up as explicit
failures instead of silent garbage.  Log magnitudes are computed structurally
(powers and exponentials contribute p*log|base| and Re(arg) directly), which
keeps quantities like a 31st power of a trigonometric factor at radius 40
inside floating-point range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exppoly import canonical_quotient
from .expr import Expr, QuotientForm, _evaluator, _lower
from .locator import Divisor, LocatorError, clear_radius, divisor_of

__all__ = [
    "CountingMode", "QuadratureError", "counting", "proximity",
    "characteristic", "RadialSample", "radial_grid", "nevanlinna_rows",
    "compile_log_abs",
]


class QuadratureError(Exception):
    """The proximity integral could not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


# ---------------------------------------------------------------------------
# counting functions

_MODE_KINDS = ("full", "reduced", "trunc_le", "trunc_le_reduced",
               "trunc_ge", "trunc_ge_reduced", "capped")


@dataclass(frozen=True)
class CountingMode:
    """How multiplicities are weighted in a counting function.

    full            m
    reduced         1
    trunc_le(k)     m if m <= k else 0
    trunc_le_reduced(k)  1 if m <= k else 0
    trunc_ge(k)     m if m >= k else 0
    trunc_ge_reduced(k)  1 if m >= k else 0
    capped(k)       min(m, k)
    """
    kind: str
    level: int | None = None

    def __post_init__(self):
        if self.kind not in _MODE_KINDS:
            raise ValueError(f"unknown counting mode '{self.kind}'")
        needs_level = self.kind not in ("full", "reduced")
        if needs_level and (self.level is None or self.level < 1):
            raise ValueError(f"mode '{self.kind}' needs a level >= 1")
        if not needs_level and self.level is not None:
            raise ValueError(f"mode '{self.kind}' takes no level")

    @classmethod
    def full(cls):
        return cls("full")

    @classmethod
    def reduced(cls):
        return cls("reduced")

    @classmethod
    def trunc_le(cls, k: int):
        return cls("trunc_le", k)

    @classmethod
    def trunc_le_reduced(cls, k: int):
        return cls("trunc_le_reduced", k)

    @classmethod
    def trunc_ge(cls, k: int):
        return cls("trunc_ge", k)

    @classmethod
    def trunc_ge_reduced(cls, k: int):
        return cls("trunc_ge_reduced", k)

    @classmethod
    def capped(cls, k: int):
        return cls("capped", k)

    def weight(self, m: int) -> int:
        if m <= 0:
            return 0
        k = self.level
        if self.kind == "full":
            return m
        if self.kind == "reduced":
            return 1
        if self.kind == "trunc_le":
            return m if m <= k else 0
        if self.kind == "trunc_le_reduced":
            return 1 if m <= k else 0
        if self.kind == "trunc_ge":
            return m if m >= k else 0
        if self.kind == "trunc_ge_reduced":
            return 1 if m >= k else 0
        return min(m, k)


def counting(divisor: Divisor, r: float, mode: CountingMode | None = None) -> float:
    """Integrated counting function at radius r over a located divisor.

    Each point a with 0 < |a| <= r contributes w(mult) * log(r / |a|) and a
    point at the origin contributes w(mult) * log(r)."""
    if mode is None:
        mode = CountingMode.full()
    if r > divisor.radius * (1 + 1e-9):
        raise ValueError(
            f"counting at r={r} outside divisor radius {divisor.radius}")
    total = 0.0
    for p in divisor.points:
        w = mode.weight(p.multiplicity)
        if w == 0:
            continue
        a = abs(p.location)
        if a <= 1e-12 * r:
            total += w * math.log(r)
        elif a <= r:
            total += w * math.log(r / a)
    return total


# ---------------------------------------------------------------------------
# structural log magnitude

@functools.cache
def compile_log_abs(e: Expr):
    """Vectorised ln|e(z)|, exploiting structure to dodge overflow.

    Products, quotients and integer powers turn into sums of logs; an
    exponential factor contributes Re(arg) exactly.  Only irreducible sums
    fall back to log(abs(value)).  These steps and the values they read are
    one shared-subexpression program (see expr._lower)."""
    return _evaluator(_lower((e,), log_abs=True), False)


# ---------------------------------------------------------------------------
# proximity by adaptive Simpson quadrature

_POLE_MESSAGE = "log|f| not finite on the circle (pole on or near the ring?)"

_SIMPSON_MAX_ROUNDS = 64
_SIMPSON_MAX_INTERVALS = 200000
# Radii join a batch while fewer intervals than this are open, which bounds
# the arrays in flight however many radii are asked for.
_BATCH_OPEN_INTERVALS = 512

_N0 = 64
_EDGES = np.linspace(0.0, 2.0 * math.pi, _N0 + 1)
_LO0, _HI0 = _EDGES[:-1], _EDGES[1:]
_MID0 = 0.5 * (_LO0 + _HI0)
_START = np.concatenate([_LO0, _MID0, _HI0])   # a new radius's first points


def proximity(f: Expr | QuotientForm, r: float | list[float],
              tol: float = 1e-10) -> float | list:
    """m(r, f): mean of max(0, log|f|) over the circle |z| = r.

    ``r`` is one radius or a sequence of radii.  One radius returns a float
    and raises QuadratureError on failure; a sequence returns, in order, a
    float or a QuadratureError instance per radius.  Either way every radius
    gets the same bits as if it were integrated alone."""
    q = f if isinstance(f, QuotientForm) else canonical_quotient(f)
    single = np.ndim(r) == 0
    radii = [float(r)] if single else [float(x) for x in r]
    out = [v if isinstance(v, QuadratureError) else v / (2.0 * math.pi)
           for v in _simpson_circles(compile_log_abs(q.num),
                                     compile_log_abs(q.den), radii,
                                     tol * 2.0 * math.pi)]
    if not single:
        return out
    if isinstance(out[0], QuadratureError):
        raise out[0]
    return out[0]


def _simpson_circles(ln_num, ln_den, radii: list[float], tol: float) -> list:
    """Vectorised adaptive Simpson of max(0, ln|num| - ln|den|) over theta in
    [0, 2pi] on each circle |z| = radii[i].

    Returns the integral or a QuadratureError per radius.  The open
    intervals of all radii in flight are refined together, one evaluator
    call per round.  Each radius keeps its intervals contiguous and in the
    order a lone run would give them, its own round cap, interval budget and
    pole check, and its own sums over its own slice (numpy's pairwise sum,
    as a lone run takes it), so its result does not depend on its
    neighbours."""
    n = len(radii)
    rs = np.asarray(radii, dtype=float)
    out: list = [None] * n
    total = [0.0] * n
    err_sum = [0.0] * n
    seen = [_N0] * n
    rounds = [0] * n
    span = 2.0 * math.pi

    # open intervals, one column each: lo, mid, hi, g(lo), g(mid), g(hi) and
    # the Simpson estimate on [lo, hi]; row is the radius of each column
    state = np.empty((7, 0))
    row = np.empty(0, dtype=np.intp)
    active: list[int] = []   # radii with open intervals, in row order
    sizes: list[int] = []    # their open interval counts
    admitted = 0
    while active or admitted < n:
        new = []
        while admitted < n and sum(sizes) + _N0 * len(new) < \
                _BATCH_OPEN_INTERVALS:
            new.append(admitted)
            admitted += 1
        # One call: the quarter points of every open interval, then the
        # starting lo, mid and hi points of each newly admitted radius.
        lo, mid, hi, flo, fmid, fhi, whole = state
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        rr = rs[row]
        theta = np.concatenate([lm, rm] + [_START] * len(new))
        rad = np.concatenate([rr, rr] + [np.full(3 * _N0, rs[i]) for i in new])
        z = rad * np.exp(1j * theta)
        with np.errstate(invalid="ignore"):
            d = ln_num(z) - ln_den(z)
        # num == 0 gives -inf, harmless under the positive part; a pole or
        # an inf - inf collision is a real failure.
        vals = np.maximum(d, 0.0)
        bad = ~np.isfinite(vals)
        m = lo.size
        flm, frm = vals[:m], vals[m:2 * m]
        poles = set(row[bad[:m] | bad[m:2 * m]].tolist())

        h = hi - lo
        left = h / 12.0 * (flo + 4.0 * flm + fmid)
        right = h / 12.0 * (fmid + 4.0 * frm + fhi)
        better = left + right
        err = np.abs(better - whole) / 15.0
        done = err <= tol * h / span
        keep = ~done
        nfin = np.bincount(row[done], minlength=n).tolist()
        gain_done = (better + (better - whole) / 15.0)[done]
        err_done = err[done]

        still, still_sizes = [], []
        s = p = 0
        for i, size in zip(active, sizes):
            e, q = s + size, p + nfin[i]
            if i in poles:
                out[i] = QuadratureError(_POLE_MESSAGE)
            else:
                total[i] += float(gain_done[p:q].sum())
                err_sum[i] += float(err_done[p:q].sum())
                k = size - nfin[i]
                seen[i] += 2 * k
                rounds[i] += 1
                if seen[i] > _SIMPSON_MAX_INTERVALS:
                    out[i] = QuadratureError(
                        "quadrature interval budget exhausted",
                        achieved=err_sum[i] + float(err[s:e][keep[s:e]].sum()))
                elif rounds[i] == _SIMPSON_MAX_ROUNDS:
                    out[i] = QuadratureError(
                        "quadrature refinement did not converge",
                        achieved=err_sum[i])
                elif k == 0:
                    out[i] = total[i]
                else:
                    still.append(i)
                    still_sizes.append(2 * k)
            if out[i] is not None:
                keep[s:e] = False
            s, p = e, q

        # Halve the kept intervals; a stable sort by row puts each radius's
        # left halves, then its right halves, back together in order.
        kept = np.flatnonzero(keep)
        halves = np.concatenate([row[kept], row[kept]])
        order = np.argsort(halves, kind="stable")
        row = halves[order]
        pick = np.concatenate([kept, kept + m])[order]
        state = np.concatenate(
            [np.array([lo, lm, mid, flo, flm, fmid, left]),
             np.array([mid, rm, hi, fmid, frm, fhi, right])], axis=1)[:, pick]

        starts = vals[2 * m:].reshape(len(new), 3, _N0)
        start_poles = bad[2 * m:].reshape(len(new), 3 * _N0).any(axis=1)
        for i, (f0, f1, f2), pole in zip(new, starts, start_poles):
            if pole:
                out[i] = QuadratureError(_POLE_MESSAGE)
                continue
            first = np.array([_LO0, _MID0, _HI0, f0, f1, f2,
                              (_HI0 - _LO0) / 6.0 * (f0 + 4.0 * f1 + f2)])
            state = np.concatenate([state, first], axis=1)
            row = np.concatenate([row, np.full(_N0, i)])
            still.append(i)
            still_sizes.append(_N0)
        active, sizes = still, still_sizes
    return out


def characteristic(f: Expr | QuotientForm, r: float, poles: Divisor,
                   tol: float = 1e-10) -> float:
    """T(r, f) = m(r, f) + N(r, poles of f)."""
    return proximity(f, r, tol) + counting(poles, r, CountingMode.full())


# ---------------------------------------------------------------------------
# radial grids and per-radius summaries

def radial_grid(start: float, stop: float, count: int,
                spacing: str = "log") -> list[float]:
    if not (0 < start < stop):
        raise ValueError("need 0 < start < stop")
    if count < 1:
        raise ValueError("need at least one radius")
    if spacing == "log":
        return [float(x) for x in np.geomspace(start, stop, count)]
    if spacing == "linear":
        return [float(x) for x in np.linspace(start, stop, count)]
    raise ValueError(f"unknown spacing '{spacing}'")


@dataclass(frozen=True)
class RadialSample:
    r: float
    m: float
    N: float
    T: float
    perturbed_r: bool
    error: str | None = None


def nevanlinna_rows(f: Expr, radii: list[float],
                    tol: float = 1e-10) -> list[RadialSample]:
    """m, N, T of f at each requested radius.

    The pole divisor is located once just beyond the largest radius and then
    restricted; each row runs at a nearby radius cleared of divisor points,
    so a requested radius that collides with a pole modulus is nudged and
    flagged instead of failing.  All rows share one batched proximity call."""
    rmax = max(radii) * (1 + 2e-3)
    try:
        _, poles = divisor_of(f, rmax, "inf")
    except LocatorError as exc:
        return [RadialSample(r, math.nan, math.nan, math.nan, False,
                             f"{type(exc).__name__}: {exc}") for r in radii]
    moduli = [abs(p.location) for p in poles.points]

    def failed(r: float, exc: Exception) -> RadialSample:
        return RadialSample(r, math.nan, math.nan, math.nan, False,
                            f"{type(exc).__name__}: {exc}")

    cleared = []
    for r in radii:
        try:
            cleared.append(clear_radius(r, moduli, rmax=rmax))
        except LocatorError as exc:
            cleared.append(exc)
    ms = iter(proximity(f, [c[0] for c in cleared if isinstance(c, tuple)],
                        tol))
    rows = []
    for r, c in zip(radii, cleared):
        m = next(ms) if isinstance(c, tuple) else c
        if isinstance(m, Exception):
            rows.append(failed(r, m))
            continue
        rt, perturbed = c
        try:
            n = counting(poles.restrict(rt), rt, CountingMode.full())
        except LocatorError as exc:
            rows.append(failed(r, exc))
            continue
        rows.append(RadialSample(rt, m, n, m + n, perturbed))
    return rows
