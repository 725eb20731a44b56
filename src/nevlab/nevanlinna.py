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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exppoly import canonical_quotient
from .expr import Expr, QuotientForm, _lower, _vectorised
from .locator import Divisor, LocatorError, clear_radius, divisor_of

__all__ = [
    "CountingMode", "QuadratureError", "counting", "proximity",
    "characteristic", "RadialSample", "radial_grid", "nevanlinna_rows",
    "compile_log_abs", "map_radii",
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
    return _vectorised(_lower(e, log_abs=True))


# ---------------------------------------------------------------------------
# proximity by adaptive Simpson quadrature

_SIMPSON_MAX_INTERVALS = 200000


def proximity(f: Expr | QuotientForm, r: float, tol: float = 1e-10) -> float:
    """m(r, f): mean of max(0, log|f|) over the circle |z| = r."""
    q = f if isinstance(f, QuotientForm) else canonical_quotient(f)
    ln_num = compile_log_abs(q.num)
    ln_den = compile_log_abs(q.den)

    def g(theta):
        z = r * np.exp(1j * np.asarray(theta))
        with np.errstate(invalid="ignore"):
            d = ln_num(z) - ln_den(z)
        # num == 0 gives -inf, harmless under the positive part; a pole or
        # an inf - inf collision is a real failure.
        out = np.maximum(d, 0.0)
        if np.any(np.isnan(out)) or np.any(np.isposinf(out)):
            raise QuadratureError(
                "log|f| not finite on the circle (pole on or near the ring?)")
        return out

    total, achieved = _adaptive_simpson(g, 0.0, 2.0 * math.pi,
                                        tol * 2.0 * math.pi)
    return total / (2.0 * math.pi)


def _adaptive_simpson(g, a: float, b: float, tol: float) -> tuple[float, float]:
    """Vectorised adaptive Simpson; returns (integral, error estimate)."""
    n0 = 64
    edges = np.linspace(a, b, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    flo, fmid, fhi = g(lo), g(mid), g(hi)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    total = 0.0
    err_sum = 0.0
    seen = n0
    for _ in range(64):
        if lo.size == 0:
            return total, err_sum
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm, frm = g(lm), g(rm)
        h = hi - lo
        left = h / 12.0 * (flo + 4.0 * flm + fmid)
        right = h / 12.0 * (fmid + 4.0 * frm + fhi)
        better = left + right
        err = np.abs(better - whole) / 15.0
        budget = tol * h / (b - a)
        done = err <= budget
        total += float((better[done] + (better[done] - whole[done]) / 15.0).sum())
        err_sum += float(err[done].sum())
        keep = ~done
        seen += 2 * int(keep.sum())
        if seen > _SIMPSON_MAX_INTERVALS:
            raise QuadratureError(
                "quadrature interval budget exhausted",
                achieved=err_sum + float(err[keep].sum()))
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        mid = np.concatenate([lm[keep], rm[keep]])
        fmid = np.concatenate([flm[keep], frm[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    raise QuadratureError("quadrature refinement did not converge",
                          achieved=err_sum)


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


def map_radii(work, radii: list[float], threads: int = 1) -> list:
    """Apply ``work`` to each radius, optionally on a thread pool.

    Results come back in input order either way, so callers get identical
    output whether or not they parallelise."""
    if threads <= 1 or len(radii) <= 1:
        return [work(r) for r in radii]
    with ThreadPoolExecutor(max_workers=min(threads, len(radii))) as pool:
        return list(pool.map(work, radii))


def nevanlinna_rows(f: Expr, radii: list[float], tol: float = 1e-10,
                    threads: int = 1) -> list[RadialSample]:
    """m, N, T of f at each requested radius.

    The pole divisor is located once just beyond the largest radius and then
    restricted; each row runs at a nearby radius cleared of divisor points,
    so a requested radius that collides with a pole modulus is nudged and
    flagged instead of failing."""
    rmax = max(radii) * (1 + 2e-3)
    try:
        _, poles = divisor_of(f, rmax, "inf")
    except LocatorError as exc:
        return [RadialSample(r, math.nan, math.nan, math.nan, False,
                             f"{type(exc).__name__}: {exc}") for r in radii]
    moduli = [abs(p.location) for p in poles.points]

    def one(r: float) -> RadialSample:
        try:
            rt, perturbed = clear_radius(r, moduli, rmax=rmax)
            m = proximity(f, rt, tol)
            n = counting(poles.restrict(rt), rt, CountingMode.full())
            return RadialSample(rt, m, n, m + n, perturbed)
        except (LocatorError, QuadratureError) as exc:
            return RadialSample(r, math.nan, math.nan, math.nan, False,
                                f"{type(exc).__name__}: {exc}")

    return map_radii(one, radii, threads)
