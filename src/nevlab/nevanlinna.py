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
from .expr import Div, Expr, QuotientForm, _evaluator, _lower
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
_BATCH_OPEN_INTERVALS = 1024

_N0 = 64
_EDGES = np.linspace(0.0, 2.0 * math.pi, _N0 + 1)
_LO0, _HI0 = _EDGES[:-1], _EDGES[1:]
_MID0 = 0.5 * (_LO0 + _HI0)
_START = np.concatenate([_LO0, _MID0, _HI0])   # a new radius's first points
_UNIT_START = np.exp(1j * _START)
_W0 = (_HI0 - _LO0) / 6.0


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
    # The raw Div, not div(): its log form is the one step
    # ln|num| - ln|den|, with the subtrees of num and den computed once.
    out = [v if isinstance(v, QuadratureError) else v / (2.0 * math.pi)
           for v in _simpson_circles(compile_log_abs(Div(q.num, q.den)),
                                     radii, tol * 2.0 * math.pi)]
    if not single:
        return out
    if isinstance(out[0], QuadratureError):
        raise out[0]
    return out[0]


def _simpson_circles(ln_f, radii: list[float], tol: float) -> list:
    """Vectorised adaptive Simpson of max(0, ln|f|) over theta in [0, 2pi]
    on each circle |z| = radii[i].

    Returns the integral or a QuadratureError per radius.  The open
    intervals of all radii in flight are refined together, one ln_f call
    per round.  Each radius keeps its intervals contiguous and in the order
    a lone run would give them, its own round cap, interval budget and pole
    check, and its own sums over its own slice (numpy's pairwise sum, as a
    lone run takes it), so its result does not depend on its neighbours."""
    n = len(radii)
    rs = np.asarray(radii, dtype=float)
    out: list = [None] * n
    total = [0.0] * n
    err_sum = [0.0] * n
    seen = [_N0] * n
    rounds = [0] * n

    # open intervals, one column each of the seven rows lo, mid, hi, g(lo),
    # g(mid), g(hi) and the Simpson estimate on [lo, hi]; row is the radius
    # of each column.  Each row is its own array: small allocations reuse
    # memory that earlier work freed, where one 7-row block raised a nev
    # job's resident high-water mark by up to 0.8 MB at this batch size.
    state = [np.empty(0)] * 7
    row = np.empty(0, dtype=np.intp)
    active: list[int] = []   # radii with open intervals, in row order
    sizes: list[int] = []    # their open interval counts
    admitted = 0
    while active or admitted < n:
        new = []
        in_flight = sum(sizes)
        while admitted < n and in_flight + _N0 * len(new) < \
                _BATCH_OPEN_INTERVALS:
            new.append(admitted)
            admitted += 1
        m = len(row)
        halves, bad = _sample(ln_f, state, rs[row], rs[new])
        poles = set(row[bad[:m] | bad[m:2 * m]].tolist())
        start_poles = bad[2 * m:].reshape(len(new), 3 * _N0).any(axis=1)

        ge, done = _estimates(halves, state, tol)
        keep = ~done
        # finished intervals up to the end of each radius's slice
        fin_ends = np.cumsum(done)[np.cumsum(sizes, dtype=np.intp) - 1]
        ge_done = ge.compress(done, axis=1)   # C order: rows sum pairwise
        del state    # before the next state is allocated

        still, still_sizes = [], []
        s = p = 0
        for i, size, q in zip(active, sizes, fin_ends.tolist()):
            e = s + size
            if i in poles:
                out[i] = QuadratureError(_POLE_MESSAGE)
            else:
                if q > p:
                    gain, err_done = ge_done[:, p:q].sum(axis=1).tolist()
                    total[i] += gain
                    err_sum[i] += err_done
                else:    # as the empty sum would: -0.0 + 0.0 is 0.0
                    total[i] += 0.0
                    err_sum[i] += 0.0
                k = size - (q - p)
                seen[i] += 2 * k
                rounds[i] += 1
                if seen[i] > _SIMPSON_MAX_INTERVALS:
                    out[i] = QuadratureError(
                        "quadrature interval budget exhausted",
                        achieved=err_sum[i]
                        + float(ge[1, s:e][keep[s:e]].sum()))
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
        # This round's arrays go before the next evaluation, which is where
        # memory peaks.
        del ge, ge_done

        new_ok = []
        for i, pole in zip(new, start_poles):
            if pole:
                out[i] = QuadratureError(_POLE_MESSAGE)
            else:
                new_ok.append(i)
        state = _next_intervals(halves, keep, still_sizes, ~start_poles)
        del halves
        active = still + new_ok
        sizes = still_sizes + [_N0] * len(new_ok)
        row = np.repeat(np.array(active, dtype=np.intp), sizes)
    return out


def _sample(ln_f, state, rr, new_rs):
    """One ln_f call on the quarter points lm, rm of every open interval
    (rr holds its radius) and on the starting lo, mid and hi points of each
    new radius (new_rs).

    Returns (halves, bad).  halves[k] is a 2 x width array: its row 0 holds
    row k of state for the left halves of the m open intervals in columns
    :m, its row 1 the same for the right halves, and the Simpson estimates
    (k = 6) are still to be written.  Columns m: of halves[3:6] row 0 hold
    the starting values, radius by radius.  bad flags the points where the
    positive part of ln_f is not finite."""
    m = rr.size
    quarter = np.empty((2, m))
    np.add(state[0], state[1], out=quarter[0])
    np.add(state[1], state[2], out=quarter[1])
    quarter *= 0.5
    z = np.empty(2 * m + 3 * _N0 * new_rs.size, dtype=complex)
    zq = z[:2 * m].reshape(2, m)
    np.multiply(1j, quarter, out=zq)
    np.exp(zq, out=zq)
    np.multiply(rr, zq, out=zq)
    np.multiply(new_rs[:, None], _UNIT_START,
                out=z[2 * m:].reshape(new_rs.size, 3 * _N0))
    vals = ln_f(z)
    del z, zq
    # num == 0 gives -inf, harmless under the positive part; a pole or an
    # inf - inf collision is a real failure.
    np.maximum(vals, 0.0, out=vals)
    halves = [np.empty((2, m + _N0 * new_rs.size)) for _ in range(7)]
    halves[1][:, :m] = quarter
    halves[4][:, :m] = vals[:2 * m].reshape(2, m)
    for k, (a, b) in ((0, (0, 1)), (2, (1, 2)), (3, (3, 4)), (5, (4, 5))):
        halves[k][0, :m] = state[a]
        halves[k][1, :m] = state[b]
    starts = vals[2 * m:].reshape(new_rs.size, 3, _N0)
    for k in range(3):
        halves[3 + k][0, m:] = starts[:, k].reshape(-1)
    return halves, ~np.isfinite(vals)


def _estimates(halves, state, tol):
    """Write the left and right Simpson estimates of each open interval to
    halves[6].  Returns the gain and the error of each interval as two rows,
    so that one call sums a radius's finished intervals, and the mask of
    the intervals that meet tol."""
    m = state[0].size
    h = state[2] - state[0]
    simpson = halves[6][:, :m]
    np.multiply(halves[4][:, :m], 4.0, out=simpson)
    simpson += halves[3][:, :m]
    simpson += halves[5][:, :m]
    simpson *= h / 12.0
    ge = np.empty((2, m))
    np.add(simpson[0], simpson[1], out=ge[0])
    np.subtract(ge[0], state[6], out=ge[1])
    ge[1] /= 15.0
    ge[0] += ge[1]
    np.abs(ge[1], out=ge[1])
    return ge, ge[1] <= tol * h / (2.0 * math.pi)


def _next_intervals(halves, keep, still_sizes, start_ok):
    """The next round's state: each radius's kept left halves, then its
    kept right halves, in order, then the starting intervals of each new
    radius whose starting values are all finite.

    The j-th kept column of a radius with k kept columns, of which c lie in
    earlier radii, goes to c + j and c + j + k."""
    m = keep.size
    width = halves[0].shape[1]
    kept = np.flatnonzero(keep)
    counts = np.array(still_sizes, dtype=np.intp) // 2
    left = np.arange(kept.size) + np.repeat(np.cumsum(counts) - counts,
                                            counts)
    source = np.empty(2 * kept.size, dtype=np.intp)
    source[left] = kept
    source[left + np.repeat(counts, counts)] = kept + width
    k2 = source.size
    fresh = int(np.count_nonzero(start_ok))
    state = [np.empty(k2 + _N0 * fresh) for _ in range(7)]
    for half, dest in zip(halves, state):
        # "clip" lets take write straight into the view (indices are in range)
        np.take(half.reshape(-1), source, mode="clip", out=dest[:k2])
    for k, edge in enumerate((_LO0, _MID0, _HI0)):
        state[k][k2:].reshape(fresh, _N0)[:] = edge
        state[3 + k][k2:] = \
            halves[3 + k][0, m:].reshape(-1, _N0)[start_ok].reshape(-1)
    f0, f1, f2, first = (state[k][k2:] for k in (3, 4, 5, 6))
    np.multiply(f1, 4.0, out=first)
    first += f0
    first += f2
    first.reshape(fresh, _N0)[:] *= _W0
    return state


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
