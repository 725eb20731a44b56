"""Zeros of one-frequency exponential atoms, read from their exact form.

An entire atom whose exact form (exppoly.to_exp_poly) is a sum of terms
a_k exp(n_k lambda z), each a_k a constant, each n_k an integer and lambda
one frequency, is exp(min(n) lambda z) P(exp(lambda z)) for the polynomial
P(w) = sum_k a_k w^(n_k - min(n)), and P(0) != 0.  So its zeros are the
lattices z = (Log w_j + 2 pi i n)/lambda over the roots w_j of P, each with
the multiplicity of w_j (Ritt, Trans. AMS 31, 1929).  Yun's square-free
decomposition (SYMSAC 1976) gives those multiplicities exactly: it runs on
Gaussian integers, with a primitive pseudo-remainder gcd.  Each square-free
factor's roots come from moments._aberth, then Newton on that factor, whose
roots are simple; f itself is never evaluated.

A Gaussian integer is a pair (re, im) of ints; a polynomial is a list of
them, highest degree first, with no leading zero, and [] is zero.
"""

from __future__ import annotations

import cmath
import functools
import math

from .diffpoly import contains_exponential
from .expr import Expr
from .exppoly import _ZERO_F, to_exp_poly
from .moments import _aberth

__all__ = ["lattice_zeros"]

# The largest degree of P read.  The reading's cost grows about as the cube
# of the degree: on exp(n*z) + exp(z) - 1 it took 0.03 s at n = 64, 0.22 s
# at 128 and 1.6 s at 256, where the search of |z| <= 3 took 0.03 s.
MAX_DEGREE = 64
# Roots of P closer than this (relative) are refused as one root.
_ROOT_TOL = 1e-7


def _gmul(x: tuple, y: tuple) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gdiv(x: tuple, y: tuple) -> tuple[int, int]:
    """x/y rounded to a nearest Gaussian integer: exact when y divides x."""
    n = y[0] * y[0] + y[1] * y[1]
    re, im = x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1]
    return (2 * re + n) // (2 * n), (2 * im + n) // (2 * n)


def _ggcd(x: tuple, y: tuple) -> tuple:
    while y != (0, 0):
        q = _gmul(_gdiv(x, y), y)
        x, y = y, (x[0] - q[0], x[1] - q[1])
    return x


def _trim(p: list) -> list:
    k = 0
    while k < len(p) and p[k] == (0, 0):
        k += 1
    return p[k:]


def _sub(p: list, q: list) -> list:
    n = max(len(p), len(q))
    p, q = [(0, 0)] * (n - len(p)) + p, [(0, 0)] * (n - len(q)) + q
    return _trim([(a - c, b - d) for (a, b), (c, d) in zip(p, q)])


def _deriv(p: list) -> list:
    n = len(p) - 1
    return _trim([(a * (n - i), b * (n - i)) for i, (a, b) in enumerate(p[:-1])])


def _primitive(*ps: list) -> list[list]:
    """Each of ps divided by the Gaussian gcd of all their coefficients."""
    g = (0, 0)
    for p in ps:
        for c in p:
            g = _ggcd(c, g)
    return [[_gdiv(c, g) for c in p] for p in ps] if g != (0, 0) else list(ps)


def _reduce(p: list, a: list, scale: tuple) -> tuple[list, list]:
    """(quotient, remainder) of scale*p by a; scale is a power of lc(a)
    large enough that every quotient coefficient is a Gaussian integer."""
    r, q = [_gmul(scale, c) for c in p], []
    while len(r) >= len(a):
        c = _gdiv(r[0], a[0])
        q.append(c)
        r = [(x - u, y - v) for (x, y), (u, v) in
             zip(r[1:], (_gmul(c, t) for t in a[1:] + [(0, 0)] * len(r)))]
    return q, _trim(r)


def _power(x: tuple, k: int) -> tuple:
    out = (1, 0)
    for _ in range(k):
        out = _gmul(out, x)
    return out


def _gcd(p: list, q: list) -> list:
    """A gcd of p and q over Q(i), by the primitive remainder sequence."""
    p, q = _primitive(p)[0], _primitive(q)[0]
    if len(p) < len(q):
        p, q = q, p
    while q:
        _, r = _reduce(p, q, _power(q[0], len(p) - len(q) + 1))
        p, q = q, _primitive(r)[0]
    return p


def _square_free(f: list) -> list[tuple[list, int]]:
    """Yun: (factor, multiplicity) pairs, f = unit * prod factor^multiplicity
    with each factor square-free and of degree at least 1, pairwise
    coprime.  b and c are divided by the same a, with the same power of
    its leading coefficient, so that d = c - b' stays exact."""
    out, b, c = [], f, _deriv(f)
    a, i = _gcd(b, c), 0
    while True:
        scale = _power(a[0], len(b) - len(a) + 1)
        b, c = _primitive(_reduce(b, a, scale)[0], _reduce(c, a, scale)[0])
        if len(b) < 2:
            return out
        c = _sub(c, _deriv(b))
        a, i = _gcd(b, c), i + 1
        if len(a) > 1:
            out.append((a, i))


def _roots(p: list) -> list[complex] | None:
    """The roots of a square-free p: Aberth, then Newton on p to a step
    below 1e-14 of the root; None when one does not settle."""
    s = max(abs(x) for c in p for x in c).bit_length()
    coef = [complex(a / 2 ** s, b / 2 ** s) for a, b in p]
    out = []
    try:
        for w in _aberth(coef):
            for _ in range(50):
                v = dv = 0j
                for c in coef:
                    v, dv = v * w + c, dv * w + v
                step = v / dv
                w -= step
                if abs(step) <= 1e-14 * abs(w):
                    break
            else:
                return None
            if not (cmath.isfinite(w) and w != 0):
                return None
            out.append(w)
    except (OverflowError, ZeroDivisionError):
        return None
    return out


@functools.cache
def _reading(e: Expr) -> tuple[complex, list] | None:
    """(lambda, [(Log w_j, multiplicity)]) of a one-frequency atom, or None
    when e's form is not one or a root of P is not read cleanly."""
    ep = to_exp_poly(e)
    if ep is None or not ep.terms or any(
            c != _ZERO_F or len(cs) > 1 for (_, c), cs in ep.terms.items()):
        return None
    # Each frequency as t * lambda_1 with t = num/den rational, lambda_1 the
    # first nonzero frequency; lambda = lambda_1 * gcd(nums) / lcm(dens).
    f1 = next((f for f, _ in ep.terms if f != _ZERO_F), None)
    if f1 is None:
        return None
    a, b, d = f1
    ts = []
    for (p, q, k), _ in ep.terms:
        if a * q != b * p:
            return None
        num, den = (p * d, k * a) if a else (q * d, k * b)
        ts.append((-num, -den) if den < 0 else (num, den))
    g, m = math.gcd(*(n for n, _ in ts)), math.lcm(*(k for _, k in ts))
    ns = [n * (m // k) // g for n, k in ts]
    lo = min(ns)
    if max(ns) - lo > MAX_DEGREE:
        return None
    poly = [(0, 0)] * (max(ns) - lo + 1)
    for n, cs in zip(ns, ep.terms.values()):
        poly[max(ns) - n] = cs[0]
    roots = []
    for factor, mult in _square_free(poly):
        ws = _roots(factor)
        if ws is None:
            return None
        roots += [(w, mult) for w in ws]
    if any(abs(w - v) <= _ROOT_TOL * max(abs(w), abs(v))
           for j, (w, _) in enumerate(roots) for v, _ in roots[:j]):
        return None
    return (complex(a * g / (d * m), b * g / (d * m)),
            [(cmath.log(w), mult) for w, mult in roots])


def lattice_zeros(e: Expr, r: float) -> list[tuple[complex, int]] | None:
    """(location, multiplicity) of the zeros of the entire atom e in |z| <=
    r, when e has an Exp node and is a one-frequency polynomial in
    exp(lambda z) with constant coefficients; else None.  An atom with no
    Exp node is refused before its form is built."""
    read = _reading(e) if contains_exponential(e) else None
    if read is None:
        return None
    lam, logs = read
    big = r * abs(lam)
    out = []
    for log, mult in logs:
        # |Log w + 2 pi i n| <= r |lambda|; the range keeps one n to spare at
        # each end and |z| <= r decides.
        s = math.sqrt(max(big * big - log.real ** 2, 0.0))
        lo = math.floor((-s - log.imag) / (2 * math.pi))
        for n in range(lo, math.ceil((s - log.imag) / (2 * math.pi)) + 1):
            z = complex(log.real, log.imag + 2 * math.pi * n) / lam
            if abs(z) <= r:
                out.append((z, mult))
    return out
