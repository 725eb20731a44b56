"""Gaussian integers, Gaussian rationals and polynomials over Z[i], exactly.

A Gaussian integer is a pair (re, im) of ints, and a Gaussian rational
(re + im*i)/den the triple (re, im, den): ints, den > 0, no common factor.
A polynomial is a list of Gaussian integers, highest degree first, with no
leading zero, and [] is zero.
"""

import math

_ZERO_F = (0, 0, 1)


def _fadd(f: tuple, g: tuple, n: int = 1) -> tuple[int, int, int]:
    """The triple of f + n*g; g need not be reduced."""
    if f[2] == g[2] == 1:
        return f[0] + n * g[0], f[1] + n * g[1], 1
    re, im = f[0] * g[2] + n * g[0] * f[2], f[1] * g[2] + n * g[1] * f[2]
    k = math.gcd(re, im, f[2] * g[2])
    return re // k, im // k, f[2] * g[2] // k


def _conj(f: tuple) -> tuple[int, int, int]:
    return f[0], -f[1], f[2]


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
