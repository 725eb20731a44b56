"""Value-distribution functionals: proximity, integrated counting, and the
characteristic.

Counting functions are exact sums over located divisors.  The proximity mean
is a Gauss-Kronrod quadrature of max(0, log|f|) over a circle, on the pieces
between its kinks, evaluated through the quotient form so that poles on the
circle show up as explicit failures instead of silent garbage.  When the
exact forms of f's quotient prove that the mirror z -> conj(z), the
half-turn z -> -z or the reflection z -> -conj(z) keeps |f|
(exppoly.circle_symmetries), the mean is taken over a half circle, or over
a quarter circle when all three do, sampled on the same 2*pi/256 lattice.  Log
magnitudes are computed structurally (powers and exponentials contribute
p*log|base| and Re(arg) directly), which keeps quantities like a 31st power
of a trigonometric factor at radius 40 inside floating-point range.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exppoly import canonical_quotient, circle_symmetries
from .expr import Div, Expr, _evaluator, _lower
from .locator import (PARTIAL_RESULT, Divisor, LocatorError, clear_radius,
                      divisor_pair_at, negotiate)

__all__ = [
    "CountingMode", "QuadratureError", "counting", "proximity",
    "characteristic", "RadialSample", "radial_grid", "nevanlinna_rows",
    "row_error", "compile_log_abs", "default_radii", "EvalContext",
    "DEFAULT_QUAD_TOL",
]


class QuadratureError(Exception):
    """The proximity integral could not reach the requested tolerance.

    achieved, when known, bounds the error of m(r, f) itself: the error
    bound of the integral over the arc, divided by the arc's length."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


# ---------------------------------------------------------------------------
# counting functions

@dataclass(frozen=True)
class CountingMode:
    """How multiplicities are weighted in a counting function: a point of
    multiplicity m counts min(m, cap) when least <= m <= most, else 0.

    full            m
    reduced         1
    trunc_le(k)     m if m <= k else 0
    trunc_le_reduced(k)  1 if m <= k else 0
    trunc_ge(k)     m if m >= k else 0
    trunc_ge_reduced(k)  1 if m >= k else 0
    capped(k)       min(m, k)
    """
    least: int = 1
    most: float = math.inf
    cap: float = math.inf

    @classmethod
    def full(cls):
        return cls()

    @classmethod
    def reduced(cls):
        return cls(cap=1)

    @classmethod
    def trunc_le(cls, k: int):
        return cls(most=k)

    @classmethod
    def trunc_le_reduced(cls, k: int):
        return cls(most=k, cap=1)

    @classmethod
    def trunc_ge(cls, k: int):
        return cls(least=k)

    @classmethod
    def trunc_ge_reduced(cls, k: int):
        return cls(least=k, cap=1)

    @classmethod
    def capped(cls, k: int):
        return cls(cap=k)

    def weight(self, m: int) -> int:
        return min(m, self.cap) if self.least <= m <= self.most else 0


def counting(divisor: Divisor, r: float, mode: CountingMode | None = None) -> float:
    """Integrated counting function at radius r over a located divisor.

    Each point a with 0 < |a| <= r contributes w(mult) * log(r / |a|), a
    point at the origin w(mult) * log(r), and a point beyond r nothing, so a
    divisor located at a larger radius needs no restrict."""
    if mode is None:
        mode = CountingMode.full()
    if r > divisor.radius * (1 + 1e-9):
        raise ValueError(
            f"counting at r={r} outside divisor radius {divisor.radius}")
    total = 0.0
    for a, w in divisor.weighted(mode):
        if a <= 1e-12 * r:
            total += w * math.log(r)
        elif a <= r:
            total += w * math.log(r / a)
    return total


# ---------------------------------------------------------------------------
# structural log magnitude

def compile_log_abs(e: Expr):
    """Vectorised ln|e(z)|, exploiting structure to dodge overflow.

    Products, quotients and integer powers turn into sums of logs; an
    exponential factor contributes Re(arg) exactly.  Only irreducible sums
    fall back to log(abs(value)).  These steps and the values they read are
    one shared-subexpression program (see expr._lower)."""
    return _evaluator(_lower((e,), log_abs=True), False)


# ---------------------------------------------------------------------------
# proximity by Gauss-Kronrod quadrature between the kinks of log+|f|

_POLE_MESSAGE = "log|f| not finite on the circle (pole on or near the ring?)"
# The default tolerance of a proximity mean, and of a spec's
# tolerances.quadrature_tol.
DEFAULT_QUAD_TOL = 1e-10

# Angles per whole circle sampled to find the kinks; a half or quarter arc
# keeps the lattice.  An arc where log|f| > 0 that fits between two samples
# with log|f| < 0 is not seen.
_SAMPLES = 256
_STEP = 2.0 * math.pi / _SAMPLES
_BATCH_RADII = 128                   # radii integrated together
# Points per evaluator call, which bounds the memory of the program's
# intermediates.
_CHUNK = 4096
_KINK_ROUNDS = 64                    # a cap on regula falsi rounds
_MAX_PIECES = 2048                   # pieces a radius may be cut into
_EPS = float(np.finfo(float).eps)


# Gauss-Kronrod pairs on [-1, 1]: the Kronrod rule of 2n + 1 points extends
# the n-point Gauss-Legendre rule, whose nodes are every other one of its
# own.  As in QUADPACK, only the nonnegative half is stored, largest node
# first: _XKm are the Kronrod rule's nodes, the Gauss nodes at the odd
# indices, and _WKm and _WGn the two rules' weights.  Computed with mpmath
# at 80 digits and rounded once.
_XK17 = (
    0.9933798758817162, 0.9602898564975363, 0.8941209068474564,
    0.7966664774136267, 0.6723540709451586, 0.525532409916329,
    0.36070109792813193, 0.1834346424956498, 0.0)
_WK17 = (
    0.017822383320710355, 0.04943939500213931, 0.08248229893135833,
    0.11164637082683962, 0.1362631092551722, 0.1566526061681884,
    0.1720706085552113, 0.18140002506803465, 0.18444640574469165)
_WG8 = (
    0.10122853629037626, 0.22238103445337448, 0.31370664587788727,
    0.362683783378362)
_XK65 = (
    0.9995459021243644, 0.9972638618494816, 0.9926280352629719,
    0.9856115115452684, 0.9763102836146638, 0.9647622555875064,
    0.9509546848486612, 0.9349060759377397, 0.9166772666513643,
    0.8963211557660521, 0.8738697689453107, 0.84936761373257,
    0.8228829501360513, 0.7944837959679424, 0.7642282519978038,
    0.7321821187402897, 0.6984265577952105, 0.6630442669302152,
    0.626112937701824, 0.5877157572407623, 0.5479463141991525,
    0.5068999089322294, 0.4646693084819922, 0.42135127613063533,
    0.3770494211541211, 0.33186860228212767, 0.28591245858945974,
    0.23928736225213706, 0.1921036089831425, 0.1444719615827965,
    0.09650269687689436, 0.04830766568773832, 0.0)
_WK65 = (
    0.001223360817951472, 0.003426818775772371, 0.005841737079166694,
    0.008172504038531668, 0.010423987398806818, 0.012676054806654402,
    0.014936103606086028, 0.017149805209784253, 0.01929877143032681,
    0.021408913184821916, 0.023486659672163325, 0.025505695480894652,
    0.027452098422210403, 0.02933695668962066, 0.031163325561973737,
    0.0329150776439036, 0.03458212274473303, 0.0361697694756423,
    0.0376791306456134, 0.03909942013330661, 0.0404234923703731,
    0.041654019985643054, 0.042791115596446744, 0.04382754403013975,
    0.04475863874976694, 0.04558582656454707, 0.046308756738025716,
    0.046922968281703614, 0.04742606187388238, 0.04781890873698847,
    0.04810096918545775, 0.04827019307577739, 0.04832638398656776)
_WG32 = (
    0.007018610009470096, 0.01627439473090567, 0.02539206530926206,
    0.03427386291302143, 0.04283589802222668, 0.050998059262376175,
    0.058684093478535544, 0.06582222277636185, 0.0723457941088485,
    0.07819389578707031, 0.08331192422694675, 0.08765209300440381,
    0.09117387869576389, 0.09384439908080457, 0.09563872007927486,
    0.0965400885147278)


def _pair(xk, wk, wg):
    """Nodes, Kronrod weights and Gauss weights of a whole pair, the n Gauss
    nodes first, from the stored halves."""
    xk, wk, wg = (np.array(v) for v in (xk, wk, wg))
    xg, xo, wo = xk[1::2], xk[0::2], wk[0::2]
    return (np.concatenate([xg, -xg, xo, -xo[:-1]]),
            np.concatenate([wk[1::2], wk[1::2], wo, wo[:-1]]),
            np.concatenate([wg, wg]))


# G8 within K17 for the first round, G32 within K65 for every later one
_RULES = (_pair(_XK17, _WK17, _WG8), _pair(_XK65, _WK65, _WG32))


def proximity(f: Expr, r: float | list[float],
              tol: float = DEFAULT_QUAD_TOL) -> float | list:
    """m(r, f): mean of max(0, log|f|) over the circle |z| = r.

    The mean is taken over an arc of each circle of length 2*pi/2^k, where
    2^k is the order of the group that the identity and the maps
    exppoly.circle_symmetries proves keep |f| form: the mirror
    z -> conj(z), the half-turn z -> -z and the reflection z -> -conj(z).
    Any one of them halves the circle, and two prove the third and leave a
    quarter, [0, pi/2].  The half circle is [0, pi], or [-pi/2, pi/2] when
    the reflection alone is proven.  The arc is sampled on the whole
    circle's lattice of angles j*2*pi/256.

    ``r`` is one radius or a sequence of radii.  One radius returns a float
    and raises QuadratureError on failure; a sequence returns, in order, a
    float or a QuadratureError instance per radius.  Either way every radius
    gets the same bits as if it were integrated alone.  An arc narrower than
    2*pi/256 where |f| > 1, between two sampled angles where |f| < 1, is not
    seen."""
    q = canonical_quotient(f)
    mirror, half_turn, reflection = circle_symmetries(f)
    # the arc's first and last samples
    if mirror and half_turn:
        first, last = 0, _SAMPLES // 4
    elif reflection:
        first, last = -_SAMPLES // 4, _SAMPLES // 4
    else:
        first, last = 0, _SAMPLES // 2 if mirror or half_turn else _SAMPLES
    single = np.ndim(r) == 0
    radii = [float(r)] if single else [float(x) for x in r]
    # The raw Div, not div(): its log form is the one step
    # ln|num| - ln|den|, with the subtrees of num and den computed once.
    ln_f = compile_log_abs(Div(q.num, q.den))
    out = []
    for s in range(0, len(radii), _BATCH_RADII):
        out += _gauss_circles(ln_f, radii[s:s + _BATCH_RADII], tol, first,
                              last)
    if not single:
        return out
    if isinstance(out[0], QuadratureError):
        raise out[0]
    return out[0]


def _gauss_circles(ln_f, radii: list[float], tol: float, first: int,
                   last: int) -> list:
    """m(r, f) or a QuadratureError for each radius r in radii, as the mean
    over the arc [first * _STEP, last * _STEP].

    ln|f| is sampled at the angles j * _STEP, first <= j <= last; each sign
    change is refined to a kink of max(0, ln|f|) by Illinois regula falsi,
    and each piece between the arc's ends and kinks that starts positive is
    integrated by Gauss-Kronrod pairs, halved when G32 within K65 does not
    settle it.  The open brackets, then the open pieces, of all radii share
    one round of ln_f calls of _CHUNK points.  A radius's pieces are summed
    on their own by math.fsum, so its result does not depend on its
    neighbours."""
    rs = np.asarray(radii, dtype=float)
    n = rs.size
    pole = np.zeros(n, dtype=bool)

    def g(row, theta):
        vals = np.concatenate([
            ln_f(rs[row[s:s + _CHUNK]] * np.exp(1j * theta[s:s + _CHUNK]))
            for s in range(0, row.size, _CHUNK)])
        # num == 0 gives -inf, harmless under the positive part; a pole or
        # an inf - inf collision is a real failure.
        pole[row[~np.isfinite(np.maximum(vals, 0.0))]] = True
        return vals

    cols = last - first + 1
    gs = g(np.repeat(np.arange(n), cols),
           np.tile(_STEP * np.arange(first, last + 1), n)).reshape(n, cols)
    gs[pole] = 1.0                     # a failed circle has no kinks
    # a sample at rounding level is a kink at that sample
    floor = 4.0 * _EPS * np.where(np.isfinite(gs), np.abs(gs), 0.0).max(
        axis=1, initial=0.0)
    sign = np.sign(np.where(np.abs(gs) <= floor[:, None], 0.0, gs)).astype(
        np.int8)
    # a kink at the arc's end starts no piece
    zrow, zj = np.nonzero(sign[:, :-1] == 0)
    brow, bj = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)

    # Illinois regula falsi on all brackets at once.  A kink placed at x
    # costs about ln|f(x)|^2 / (2 s), s the slope of ln|f| across the first
    # bracket, and at most |ln|f(x)|| times the bracket width over 2.  A
    # bracket stops once either is within its share tol * _STEP / 2 of the
    # error, or at rounding level.
    kink = np.empty(bj.size)
    a, fa = (bj + first) * _STEP, gs[brow, bj]
    b, fb = a + _STEP, gs[brow, bj + 1]
    enough = np.nan_to_num(np.abs(fb - fa), posinf=0.0) * tol
    moved = np.zeros(bj.size)          # +1: a moved last, -1: b moved last
    fx = fa                            # ln|f| at each kink placed so far
    live = np.arange(bj.size)
    for _ in range(_KINK_ROUNDS):
        if not live.size:
            break
        with np.errstate(invalid="ignore", divide="ignore"):
            x = (a * fb - b * fa) / (fb - fa)
        x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
        row = brow[live]
        fx = g(row, x)
        left = np.sign(fx) == np.sign(fa)
        fb = np.where(left & (moved > 0), 0.5 * fb, fb)
        fa = np.where(~left & (moved < 0), 0.5 * fa, fa)
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        b, fb = np.where(left, b, x), np.where(left, fb, fx)
        moved = np.where(left, 1.0, -1.0)
        done = (fx * fx <= enough) | (np.abs(fx) * (b - a) <= tol * _STEP) \
            | pole[row] \
            | (np.abs(fx) <= floor[row]) | (b - a <= 8.0 * _EPS * b)
        kink[live] = x
        keep = ~done
        live, a, fa, b, fb, moved, enough, fx = (
            v[keep] for v in (live, a, fa, b, fb, moved, enough, fx))
    # A kink still open after the cap fails its radius; its error is at
    # most |ln|f(x)|| times its bracket.
    stuck = np.zeros(n)
    np.add.at(stuck, brow[live], np.abs(fx) * (b - a))

    # The pieces: from the arc's start and from each kink to the next kink
    # of its radius or to the arc's end, taken when the first sample past a
    # kink, or sample 0 for the arc's start, is positive.
    krow = np.concatenate([np.arange(n), zrow, brow])
    order = np.lexsort((np.concatenate([np.full(n, -1), 2 * zj, 2 * bj + 1]),
                        krow))
    krow = krow[order]
    start = np.concatenate([np.full(n, first * _STEP), (zj + first) * _STEP,
                            kink])[order]
    past = np.concatenate([np.zeros(n, dtype=int), zj + 1, bj + 1])[order]
    end = np.empty_like(start)
    end[:-1] = start[1:]
    end[np.diff(krow, append=n) != 0] = last * _STEP
    take = sign[krow, past] > 0
    return _integrate(g, pole, stuck, start[take], end[take], krow[take], tol,
                      (last - first) * _STEP)


def _integrate(g, pole, stuck, lo, hi, row, tol: float, span: float) -> list:
    """Gauss-Kronrod quadrature of max(0, g) on the pieces [lo, hi] of the
    arcs of length span whose index is row, divided by span; one g call per
    round and _CHUNK points.

    The first round applies G8 within K17 to every piece, each later one G32
    within K65.  A piece's estimate is the Kronrod sum, and it stops when
    the two sums agree to tol times its width: their difference plus a
    rounding floor, eps times the integral, is its error, so a tol below
    rounding is never met.  A piece that fails at G32 within K65 is halved,
    and its radius fails at once if the floor alone exceeds the piece's
    share of tol, since one of its halves then does too.  A radius with a
    stuck kink is not integrated."""
    n = pole.size
    parts: list = [[] for _ in range(n)]
    errs: list = [[] for _ in range(n)]
    over = np.zeros(n, dtype=bool)              # the budget ran out
    achieved = {}
    count = np.bincount(row, minlength=n)
    for rnd in itertools.count():
        live = ~(pole | over | (stuck > 0.0))[row]
        lo, hi, row = lo[live], hi[live], row[live]
        if not lo.size:
            break
        nodes, wk, wg = _RULES[min(rnd, 1)]
        gauss = wg.size                         # the Gauss nodes come first
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        est, err = np.empty(lo.size), np.empty(lo.size)
        step = _CHUNK // nodes.size
        for s in range(0, lo.size, step):
            i = slice(s, s + step)
            v = np.maximum(g(np.repeat(row[i], nodes.size),
                             (mid[i, None] + half[i, None] * nodes).ravel()),
                           0.0).reshape(-1, nodes.size)
            est[i] = (v * wk).sum(axis=1) * half[i]
            err[i] = np.abs(est[i] - (v[:, :gauss] * wg).sum(axis=1) * half[i])
        err += _EPS * est
        done = err <= tol * (hi - lo)
        for i, e, d in zip(row[done].tolist(), est[done].tolist(),
                           err[done].tolist()):
            parts[i].append(e)
            errs[i].append(d)
        floored = _EPS * est > tol * (hi - lo)
        lo, hi, mid, row, err, floored = (
            v[~done] for v in (lo, hi, mid, row, err, floored))
        if rnd == 0:
            continue
        count += np.bincount(row, minlength=n)
        stop = (count > _MAX_PIECES) | (np.bincount(row[floored],
                                                    minlength=n) > 0)
        for i in np.flatnonzero(stop & ~over).tolist():
            over[i] = True
            achieved[i] = math.fsum(errs[i] + err[row == i].tolist()) / span
        lo, hi, row = (np.concatenate(v) for v in
                       ((lo, mid), (mid, hi), (row, row)))
    return [QuadratureError(_POLE_MESSAGE) if pole[i] else
            QuadratureError("quadrature refinement did not converge",
                            achieved=float(stuck[i]) / span) if stuck[i] else
            QuadratureError("quadrature interval budget exhausted",
                            achieved=achieved[i]) if over[i] else
            math.fsum(parts[i]) / span for i in range(n)]


def characteristic(f: Expr, r: float, poles: Divisor,
                   tol: float = DEFAULT_QUAD_TOL) -> float:
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


def row_error(exc: LocatorError | QuadratureError) -> str:
    """The error text of a row that exc failed."""
    return f"{type(exc).__name__}: {exc}"


def default_radii() -> list[float]:
    return radial_grid(2.0, 40.0, 32)


# Divisors are located this far, relatively, beyond the largest row radius.
_DIVISOR_PAD = 4e-3


class EvalContext:
    """Caches divisor pairs and proximity values across rows and checks,
    and the entire factors located for them, so a factor shared by several
    requests (cos(z) for tan(z)) is located once per radius and context.

    A proximity miss integrates its expression at every row radius not yet
    cached, in one batched call; each value has the bits of the single-radius
    call.  Keyed by expression, a lookup hashes the expression once."""

    def __init__(self, f: Expr, radii: list[float] | None = None,
                 quad_tol: float = DEFAULT_QUAD_TOL):
        self.f = f
        self.radii = default_radii() if radii is None else sorted(
            float(r) for r in radii)
        self.quad_tol = quad_tol
        self.div_radius = max(self.radii) * (1 + _DIVISOR_PAD)
        self._pairs: dict = {}
        self._prox: dict = {}              # {expr: {radius: m or error}}
        self._atoms: dict = {}
        self.row_radii: list[float] = []   # working radii of the rows

    def pair_at(self, expr: Expr, rt: float) -> tuple[Divisor, Divisor]:
        key = (expr, rt)
        if key not in self._pairs:
            self._pairs[key] = divisor_pair_at(expr, rt, 0, self._atoms)
        return self._pairs[key]

    def resolve(self, requests: dict) -> dict:
        """All requested divisor pairs at one shared negotiated radius."""
        def attempt(rt):
            return {name: self.pair_at(expr, rt)
                    for name, expr in requests.items()}
        return negotiate(self.div_radius, attempt)[2]

    def prox(self, expr: Expr, r: float) -> float:
        done = self._prox.setdefault(expr, {})
        if r not in done:
            radii = [rt for rt in dict.fromkeys([r] + self.row_radii)
                     if rt not in done]
            done.update(zip(radii, proximity(expr, radii, self.quad_tol)))
        m = done[r]
        if isinstance(m, QuadratureError):
            raise m
        return m

    def rows(self, requests: dict, row, failed, each) -> list:
        """The one row loop: each(work) maps work over the rows' radii, and
        the requests, {name: expr}, are located at one negotiated radius.
        work(r) is row(rt, perturbed, D, m): rt is r cleared of every
        located modulus within the located radius, D maps each name to its
        (zeros, poles) as located and m = m(rt, f), batched over the rows.
        It is failed(r, text) if the location fails or is partial, no
        radius near r clears, or row or m raises a LocatorError or
        QuadratureError."""
        try:
            divs = self.resolve(requests)
            partial = [name for name, ds in divs.items()
                       if not all(d.valid for d in ds)]
            text = PARTIAL_RESULT + ", ".join(partial) if partial else None
        except (LocatorError, QuadratureError) as exc:
            text = row_error(exc)
        if text:
            return each(lambda r: failed(r, text))
        located = [d for ds in divs.values() for d in ds]
        within = min(d.radius for d in located)
        moduli = sorted({abs(p.location) for d in located for p in d.points})
        cleared = {}
        for r in self.radii:
            try:
                cleared[r] = clear_radius(r, moduli, rmax=within)
            except LocatorError as exc:
                cleared[r] = row_error(exc)
        self.row_radii = [c[0] for c in cleared.values()
                          if isinstance(c, tuple)]

        def work(r):
            if isinstance(cleared[r], str):
                return failed(r, cleared[r])
            rt, perturbed = cleared[r]
            try:
                return row(rt, perturbed, divs, self.prox(self.f, rt))
            except (LocatorError, QuadratureError) as exc:
                return failed(r, row_error(exc))
        return each(work)


def nevanlinna_rows(f: Expr, radii: list[float],
                    tol: float = DEFAULT_QUAD_TOL) -> list[RadialSample]:
    """m, N, T of f at each requested radius, in the order given.

    f's divisors are located once just beyond the largest radius; each row
    runs at a nearby radius cleared of their points, so a requested radius
    that collides with a zero or pole modulus is nudged and flagged instead
    of failing.  All rows share one batched proximity call."""
    def row(rt, perturbed, D, m):
        n = counting(D["poles"][1], rt, CountingMode.full())
        return RadialSample(rt, m, n, m + n, perturbed)

    def failed(r, text):
        return RadialSample(r, math.nan, math.nan, math.nan, False, text)

    return EvalContext(f, radii, tol).rows(
        {"poles": f}, row, failed, lambda work: [work(r) for r in radii])
