"""Zeros in a circle |z - c| = rho from the moments s_k = (1/2 pi i) * the
integral of t^k f'/f dz, t = (z - c) / rho, the sums of t^k over the zeros
inside (Delves and Lyness, 1967); Newton on f/f'; jet: z -> (f, f', f'')."""

from __future__ import annotations

import cmath
import math

import numpy as np

MOMENT_TOL = 1e-14     # the largest moment error a disk reading admits


def _polish(jet, z0: complex, scale: float) -> complex | None:
    """Newton on f/f' from z0, quadratic near zeros of any multiplicity,
    one call of the jet per step."""
    z = np.complex128(z0)
    with np.errstate(all="ignore"):
        for _ in range(60):
            f0, f1, f2 = jet(z)
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


def _moments(jet, c: complex, rho: float, n: int) -> tuple[list, list]:
    """s_0, ..., s_(n-1) on |z - c| = rho by the trapezoid rule on N = 512
    and 2N points, and their errors: the change from N to 2N points plus a
    rounding floor, eps times the integral of |f'/f|."""
    t = np.exp(1j * np.pi * np.arange(1024) / 512)
    with np.errstate(all="ignore"):
        f, df, _ = jet(c + rho * t)
        g = t * df / f * rho
    # the same for every s_k, since |t| = 1
    floor = float(np.finfo(float).eps * np.mean(np.abs(g)))
    s, err, tk, gk = [], [], np.ones_like(t), np.empty_like(t)
    for _ in range(n):
        np.multiply(g, tk, out=gk)
        s.append(complex(gk.sum() / 1024))     # np.mean's bits, less overhead
        err.append(abs(s[-1] - complex(gk[::2].sum() / 512)) + floor)
        tk *= t
    return s, err


def _cell_point(jet, rect: tuple, c: complex, rho: float,
                unknown: int) -> complex | None:
    """The one point of multiplicity `unknown` holding the zeros of the cell
    rect, whose circle |z - c| = rho has that winding: s0 rounds to it, the
    spread s2/s0 - (s1/s0)^2 is within the errors relative to s0, and s1/s0
    lies in the cell; else None.  No higher central sum: on a small circle
    an expanded multiple zero's rounding cloud (eps^(1/m) wide) shows."""
    (s0, s1, s2), err = _moments(jet, c, rho, 3)
    if not abs(s0 - unknown) < 0.5:     # also false for a NaN
        return None
    z = c + rho * s1 / s0
    x0, x1, y0, y1 = rect
    if (abs(s2 / s0 - (s1 / s0) ** 2) <= sum(err) / abs(s0)
            and x0 <= z.real <= x1 and y0 <= z.imag <= y1):
        return z
    return None


def _disk_zeros(jet, r: float, w: int, tol: float) -> list | None:
    """(location, multiplicity) pairs of the zeros in |z| <= r, a disk of
    winding w, from s_0..s_w, each within MOMENT_TOL; None if no reading
    holds.  First, w simple points: the roots of the zeros' polynomial
    (Newton's identities), polished on f, inside the circle, more than tol
    apart, and with power sums that match s_1..s_w within their errors plus
    1e-12*w*k (a point 1e-12*r off, as f's rounding leaves a close pair).
    A rounding cloud polishes to points about r*eps^(1/w) apart that miss
    them.  Else one point of multiplicity w >= 2 at s1/s0: s0 rounds to w
    and every central sum of order 2..w is within its error.  Zeros closer
    than about r*eps^(1/w) that Newton does not polish also read so."""
    s, err = _moments(jet, 0j, r, w + 1)
    if not max(err) <= MOMENT_TOL:
        return None
    e = [1.0]       # k e_k = sum over i <= k of (-1)^(i-1) e_(k-i) s_i
    for k in range(1, w + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i]
                     for i in range(1, k + 1)) / k)
    pts = [_polish(jet, r * x, r)
           for x in _aberth([(-1) ** k * x for k, x in enumerate(e)])]
    if None not in pts and all(abs(z) < r for z in pts) and all(
            abs(z - y) > tol for j, z in enumerate(pts) for y in pts[:j]) \
            and all(abs(sum((z / r) ** k for z in pts) - s[k])
                    <= err[k] + 1e-12 * w * k for k in range(1, w + 1)):
        return [(z, 1) for z in pts]
    u = -s[1] / s[0]    # each c: the central sum of order k from s_0..s_k
    if w >= 2 and abs(s[0] - w) < 0.5 and all(
            abs(sum(x * y for x, y in zip(c, s)))
            <= sum(abs(x) * y for x, y in zip(c, err))
            for c in ([math.comb(k, i) * u ** (k - i) for i in range(k + 1)]
                      for k in range(2, w + 1))):
        return [(r * s[1] / s[0], w)]
    return None


def _aberth(coef: list) -> list:
    """Roots of coef (highest degree first) by Aberth iteration, in turn,
    until no step exceeds 1e-14 of the largest root estimate (or of 1)."""
    t = [0.5 * cmath.exp(2j * math.pi * (k + 0.25) / (len(coef) - 1))
         for k in range(len(coef) - 1)]
    try:
        for _ in range(100):
            big = 0.0
            for k, x in enumerate(t):
                p = dp = 0j
                for c in coef:
                    p, dp = p * x + c, dp * x + p
                step = p / (dp - p * sum(1 / (x - y) for y in t if y != x))
                t[k], big = x - step, max(big, abs(step))
            if big <= 1e-14 * max(1.0, max(map(abs, t))):
                break
    except (ZeroDivisionError, OverflowError):
        pass
    return t
