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
"""

from __future__ import annotations

import cmath
import math

from .diffpoly import contains_exponential
from .expr import Expr
from .exppoly import one_frequency, to_exp_poly
from .gaussian import _square_free
from .moments import _aberth

__all__ = ["lattice_zeros"]

# The largest degree of P read.  The reading's cost grows about as the cube
# of the degree: on exp(n*z) + exp(z) - 1 it took 0.03 s at n = 64, 0.22 s
# at 128 and 1.6 s at 256, where the search of |z| <= 3 took 0.03 s.
MAX_DEGREE = 64
# Roots of P closer than this (relative) are refused as one root.
_ROOT_TOL = 1e-7


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


def lattice_zeros(e: Expr, r: float) -> list[tuple[complex, int]] | None:
    """(location, multiplicity) of the zeros of the entire atom e in |z| <=
    r, when e has an Exp node and is a one-frequency polynomial in
    exp(lambda z) with constant coefficients, of degree at most MAX_DEGREE,
    whose roots are read cleanly; else None.  An atom with no Exp node is
    refused before its form is built."""
    ep = to_exp_poly(e) if contains_exponential(e) else None
    read = None if ep is None else one_frequency(ep)
    if read is None:
        return None
    (a, b, d), coef = read
    lo, hi = min(coef), max(coef)
    if hi - lo > MAX_DEGREE:
        return None
    poly = [coef.get(n, (0, 0)) for n in range(hi, lo - 1, -1)]
    roots = []
    for factor, mult in _square_free(poly):
        ws = _roots(factor)
        if ws is None:
            return None
        roots += [(w, mult) for w in ws]
    if any(abs(w - v) <= _ROOT_TOL * max(abs(w), abs(v))
           for j, (w, _) in enumerate(roots) for v, _ in roots[:j]):
        return None
    lam = complex(a / d, b / d)
    big = r * abs(lam)
    out = []
    for w, mult in roots:
        log = cmath.log(w)
        # |Log w + 2 pi i n| <= r |lambda|; the range keeps one n to spare at
        # each end and |z| <= r decides.
        s = math.sqrt(max(big * big - log.real ** 2, 0.0))
        first = math.floor((-s - log.imag) / (2 * math.pi))
        for n in range(first, math.ceil((s - log.imag) / (2 * math.pi)) + 1):
            z = complex(log.real, log.imag + 2 * math.pi * n) / lam
            if abs(z) <= r:
                out.append((z, mult))
    return out
