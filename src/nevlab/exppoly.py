"""Exact exponential polynomials and decidable identity tests.

An ExpPoly is a finite sum  sum_k  p_k(z) * exp(c_k + lambda_k * z)  over
distinct pairs (lambda_k, c_k), with lambda_k, c_k and the coefficients of
p_k exact Gaussian rationals; every float enters at its exact dyadic value.
The class is closed under +, * and d/dz, and the sum vanishes iff every p_k
does (distinct frequencies are independent, and by Lindemann-Weierstrass so
are the exp(c) of distinct algebraic c): an ExpPoly is zero iff it has no
terms.  Expressions in the class (polynomials, exp of linear arguments, the
trig desugarings, division by one exponential) get exact Zero/NonZero
verdicts, except a nonzero sum whose every frequency mixes several exp(c_k):
in exp(z + 1) - exp(1)*exp(z) the parser folds exp(1) to a float that may be
meant to cancel.  Such sums and expressions outside the class get a seeded
probabilistic verdict.
"""

from __future__ import annotations

import cmath
import collections
import enum
import functools
from itertools import zip_longest
import math
import random

from .expr import (
    Add, Const, Div, Exp, Expr, IntPow, InvalidExpressionError, Mul, Neg,
    PoleSignal, QuotientForm, Var, Z,
    add, differentiate, div, evaluate, exp_e, intpow, mul, neg, sub,
    to_quotient,
)

__all__ = [
    "ExpPoly", "to_exp_poly", "exp_poly_to_expr", "compact",
    "canonical", "canonical_quotient",
    "ZeroVerdict", "Constancy", "is_identically_zero", "is_constant",
    "derivative_chain", "set_probabilistic_seed",
]

_DEFAULT_PROB_SEED = 0x5EED
_prob_seed = _DEFAULT_PROB_SEED


def set_probabilistic_seed(seed: int | None):
    """Override the seed of the probabilistic identity fallback (None resets)."""
    global _prob_seed
    _prob_seed = _DEFAULT_PROB_SEED if seed is None else int(seed)


# A Gaussian rational (re + im*i)/den is the triple (re, im, den): ints,
# den > 0, no common factor.  A term's key is the pair (lambda, c) of triples
# for exp(c)*exp(lambda*z).  A coefficient is a Gaussian integer (a, b).
_ZERO_F = (0, 0, 1)
_ZERO_K = (_ZERO_F, _ZERO_F)


def _fadd(f: tuple, g: tuple, n: int = 1) -> tuple[int, int, int]:
    """The key of f + n*g; g need not be reduced."""
    if f[2] == g[2] == 1:
        return f[0] + n * g[0], f[1] + n * g[1], 1
    re, im = f[0] * g[2] + n * g[0] * f[2], f[1] * g[2] + n * g[1] * f[2]
    k = math.gcd(re, im, f[2] * g[2])
    return re // k, im // k, f[2] * g[2] // k


def _kadd(k: tuple, g: tuple, n: int = 1) -> tuple:
    """The key of the product of terms keyed k and g (quotient for n = -1)."""
    return _fadd(k[0], g[0], n), _fadd(k[1], g[1], n)


class ExpPoly:
    """An exact exponential polynomial: a value that no operation changes.

    terms maps each key (lambda, c) to the coefficients of the polynomial
    that multiplies exp(c)*exp(lambda*z), constant term first, all over the
    one positive int den.  Trailing zero coefficients and empty terms are
    stripped and den is reduced, so the zero function has no terms."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict, den: int = 1):
        for f, cs in list(terms.items()):
            while cs and cs[-1] == (0, 0):
                cs.pop()
            if not cs:
                del terms[f]
        g = den if den == 1 else math.gcd(
            den, *(x for cs in terms.values() for c in cs for x in c))
        if g > 1:
            terms = {f: [(a // g, b // g) for a, b in cs]
                     for f, cs in terms.items()}
            den //= g
        self.terms, self.den = terms, den

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        terms = {f: [(a * s, b * s) for a, b in cs]
                 for f, cs in self.terms.items()}
        for f, cs in other.terms.items():
            acc = terms.setdefault(f, [])
            acc.extend([(0, 0)] * (len(cs) - len(acc)))
            for i, (a, b) in enumerate(cs):
                x, y = acc[i]
                acc[i] = (x + a * t, y + b * t)
        return ExpPoly(terms, den)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({f: [(-a, -b) for a, b in cs]
                        for f, cs in self.terms.items()}, self.den)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        out: dict = {}
        for f1, c1 in self.terms.items():
            for f2, c2 in other.terms.items():
                f = _kadd(f1, f2)
                n = len(c1) + len(c2) - 1
                re, im = out.setdefault(f, ([], []))
                re.extend([0] * (n - len(re)))
                im.extend([0] * (n - len(im)))
                for i, (a, b) in enumerate(c1):
                    for j, (c, d) in enumerate(c2, i):
                        re[j] += a * c - b * d
                        im[j] += a * d + b * c
        return ExpPoly({f: list(zip(re, im)) for f, (re, im) in out.items()},
                       self.den * other.den)

    def diff(self) -> "ExpPoly":
        # (p e^{fz})' = (p' + f p)e^{fz}, over den*s where s clears the
        # denominators of all frequencies
        s = math.lcm(*(f[2] for f, _ in self.terms))
        out = {}
        for (f, c), cs in self.terms.items():
            x, y = f[0] * (s // f[2]), f[1] * (s // f[2])
            out[f, c] = [(a * x - b * y + k * s * p, a * y + b * x + k * s * q)
                         for k, ((a, b), (p, q))
                         in enumerate(zip(cs, cs[1:] + [(0, 0)]), 1)]
        return ExpPoly(out, self.den * s)

    def pow(self, n: int) -> "ExpPoly":
        acc = _constant(1)
        for bit in bin(n)[2:]:
            acc = acc * acc
            if bit == "1":
                acc = acc * self
        return acc

    def over(self, g: "ExpPoly") -> "ExpPoly":
        """self / g for a single term g = c*exp(lambda*z), c != 0, exactly:
        1/c = den*conj(c)/|c|^2 for c = (a + b*i)/den."""
        (key, ((a, b),)), = g.terms.items()
        s = g.den
        return ExpPoly({_kadd(f, key, -1): [((p * a + q * b) * s,
                                              (q * a - p * b) * s)
                                             for p, q in cs]
                        for f, cs in self.terms.items()},
                       self.den * (a * a + b * b))

    def rounded(self) -> list[tuple[complex, list[complex]]]:
        """(frequency, coefficients) as complex floats, frequencies in
        increasing (real, imaginary) order: each coefficient rounded once,
        times the rounded exp(c) of its term, summed over the terms of its
        frequency.  Raises OverflowError when a float overflows."""
        d, out = self.den, {}
        for (f, c), cs in self.terms.items():
            vals = [complex(a / d, b / d) for a, b in cs]
            if c != _ZERO_F:
                w = cmath.exp(complex(c[0] / c[2], c[1] / c[2]))
                vals = [v * w for v in vals]
            acc = out.get(f)
            out[f] = vals if acc is None else [x + y for x, y in
                                               zip_longest(acc, vals,
                                                           fillvalue=0j)]
        scale = math.lcm(*(f[2] for f in out))
        return [(complex(f[0] / f[2], f[1] / f[2]), out[f])
                for f in sorted(out, key=lambda f: (
                    f[0] * (scale // f[2]), f[1] * (scale // f[2])))]


def _single(ep: ExpPoly, degree: int = 0) -> bool:
    """ep is p(z)*exp(lambda*z) with p != 0 of at most this degree."""
    return len(ep.terms) == 1 and \
        len(next(iter(ep.terms.values()))) <= degree + 1


# ---------------------------------------------------------------------------
# conversion from expression trees

_CHILDREN = {Add: lambda e: e.terms, Mul: lambda e: e.factors,
             Neg: lambda e: (e.child,), Div: lambda e: (e.num, e.den),
             IntPow: lambda e: (e.base,), Exp: lambda e: (e.arg,),
             Const: lambda e: (), Var: lambda e: ()}


def _combine(e: Expr, forms: list) -> ExpPoly | None:
    """The form of e from the forms of its children, or None when e leaves
    the class."""
    t = type(e)
    if t is Mul or t is Add:
        acc = forms[0]
        for p in forms[1:]:
            acc = acc * p if t is Mul else acc + p
        return acc
    if t is Const:
        return _constant(e.value)
    if t is Neg:
        return -forms[0]
    if t is Var:
        return ExpPoly({_ZERO_K: [(0, 0), (1, 0)]})
    if t is Div:
        return forms[0].over(forms[1]) if _single(forms[1]) else None
    if t is IntPow:
        if e.power >= 0:
            return forms[0].pow(e.power)
        return _constant(1).over(forms[0]).pow(-e.power) \
            if _single(forms[0]) else None
    arg = forms[0]                                  # Exp
    cs = arg.terms.get(_ZERO_K, [])
    if arg.terms.keys() - {_ZERO_K} or len(cs) > 2:     # not linear
        return None
    (a, b), (p, q) = (cs + [(0, 0), (0, 0)])[:2]
    d = arg.den
    return ExpPoly({(_fadd(_ZERO_F, (p, q, d)), _fadd(_ZERO_F, (a, b, d))):
                    [(1, 0)]})


def _constant(c: complex) -> ExpPoly | None:
    """c at its exact dyadic value; None for inf or nan."""
    try:
        (a, da), (b, db) = c.real.as_integer_ratio(), c.imag.as_integer_ratio()
    except (OverflowError, ValueError):
        return None
    d = max(da, db)             # both are powers of two
    return ExpPoly({_ZERO_K: [(a * (d // da), b * (d // db))]}, d)


def to_exp_poly(e: Expr) -> ExpPoly | None:
    """ExpPoly of an entire expression, or None when the expression leaves
    the class (exp of a non-linear argument, division by a non-constant,
    negative powers of sums, ...)."""
    forms = [to_exp_poly(c) for c in _CHILDREN[type(e)](e)]
    return None if None in forms else _combine(e, forms)


def exp_poly_to_expr(ep: ExpPoly) -> Expr:
    parts = []
    for f, cs in ep.rounded():
        poly = add(*(mul(Const(c), intpow(Z, j))
                     for j, c in enumerate(cs) if c != 0))
        parts.append(poly if f == 0 else mul(poly, exp_e(mul(Const(f), Z))))
    return add(*parts)


def _rewrite(ep: ExpPoly | None, e: Expr) -> Expr:
    """ep as an expression; e when ep is None or a coefficient overflows."""
    try:
        return e if ep is None else exp_poly_to_expr(ep)
    except (OverflowError, InvalidExpressionError):
        return e


def compact(e: Expr) -> Expr:
    """Canonical rewrite when e is in the ExpPoly class, otherwise e itself."""
    return _rewrite(to_exp_poly(e), e)


def canonical(e: Expr) -> Expr:
    """Collapse exponential sums that are secretly a single product term.

    A sum like sin(z) - i*cos(z) is mathematically one exponential
    -i*exp(i*z), but evaluated term by term the surviving part is absorbed
    below the rounding error of the cancelling pair once the circle radius
    passes ~18, and the sum collapses to an exact float zero.  Merging the
    frequencies exposes the cancellation and the single surviving term
    evaluates with small relative error at every point.

    Only that total collapse is adopted.  A merged form that is still a sum
    trades the tree's product structure for expanded coefficients, and near
    a multiple zero the expanded sum drowns in its own rounding noise while
    the factored original stays accurate, so anything short of a single
    low-degree term is returned as written."""
    return _canonical(e, False)[0]


_REBUILD = {Add: lambda e, k: add(*k), Mul: lambda e, k: mul(*k),
            Neg: lambda e, k: neg(*k), Div: lambda e, k: div(*k),
            IntPow: lambda e, k: intpow(*k, e.power)}


def _canonical(e: Expr, need: bool) -> tuple[Expr, ExpPoly | None]:
    """(canonical(e), the form of e).  The form is built bottom-up, once,
    where a sum needs it (need, or e is a sum), and is None otherwise or
    when e leaves the class."""
    rebuild = _REBUILD.get(type(e))
    if rebuild is None:
        return e, to_exp_poly(e) if need else None
    is_sum = isinstance(e, Add)
    parts = [_canonical(c, need or is_sum) for c in _CHILDREN[type(e)](e)]
    rebuilt = rebuild(e, [x for x, _ in parts])
    forms = [p for _, p in parts]
    if not (need or is_sum) or any(p is None for p in forms):
        return rebuilt, None
    ep = _combine(e, forms)
    if is_sum and isinstance(rebuilt, Add) and ep is not None and (
            not ep.terms or _single(ep, 1)):
        return _rewrite(ep, rebuilt), ep
    return rebuilt, ep


@functools.cache
def canonical_quotient(e: Expr) -> QuotientForm:
    """to_quotient with both parts passed through canonical()."""
    forms = _forms(e)
    den = forms.q.den
    if not isinstance(den, Const) and _verdict(forms.den[1], den) in (
            ZeroVerdict.ZERO, ZeroVerdict.PROBABLY_ZERO):
        raise InvalidExpressionError("denominator vanishes identically")
    return QuotientForm(forms.num[0], forms.den[0])


class _Forms:
    """The quotient of an expression and (canonical rewrite, form) of each
    part, converted once; the denominator's only when asked for."""

    def __init__(self, e: Expr):
        self.q = to_quotient(e, check=False)
        self.num = _canonical(self.q.num, True)

    @functools.cached_property
    def den(self) -> tuple[Expr, ExpPoly | None]:
        return _canonical(self.q.den, True)


# Small and bounded: the verdicts and canonical quotient of one expression
# come back to back, and a cache for the life of the process would keep
# every form it made.
_forms = functools.lru_cache(maxsize=16)(_Forms)


# ---------------------------------------------------------------------------
# identity verdicts

class ZeroVerdict(enum.Enum):
    ZERO = "Zero"
    NONZERO = "NonZero"
    PROBABLY_ZERO = "ProbablyZero"
    PROBABLY_NONZERO = "ProbablyNonZero"


class Constancy(enum.Enum):
    CONSTANT = "Constant"
    NON_CONSTANT = "NonConstant"
    UNKNOWN = "Unknown"


def _samples(e: Expr) -> list[complex]:
    """The values of e at 16 seeded points, |z| in {0.7, 1.3}, less poles."""
    rng = random.Random(_prob_seed)
    vals = (evaluate(e, r * cmath.exp(1j * rng.uniform(0.0, 2.0 * cmath.pi)))
            for r in (0.7, 1.3) for _ in range(8))
    return [v for v in vals if not isinstance(v, PoleSignal)]


def _decided(ep: ExpPoly | None) -> ZeroVerdict | None:
    """ZERO or NONZERO when the form ep decides it; None for no form, and for
    a nonzero form whose every frequency mixes several exp(c), which a float
    stand-in for one exp(c) may be meant to cancel."""
    if ep is not None and (not ep.terms or 1 in collections.Counter(
            f for f, _ in ep.terms).values()):
        return ZeroVerdict.NONZERO if ep.terms else ZeroVerdict.ZERO
    return None


def _verdict(ep: ExpPoly | None, e: Expr) -> ZeroVerdict:
    """The zero verdict of e, whose numerator has the form ep."""
    verdict = _decided(ep)
    if verdict is None:
        vals = _samples(e)
        verdict = ZeroVerdict.PROBABLY_ZERO if vals and max(
            abs(v) for v in vals) <= 1e-9 else ZeroVerdict.PROBABLY_NONZERO
    return verdict


def is_identically_zero(e: Expr) -> ZeroVerdict:
    """Exact Zero/NonZero when the numerator's form decides it; otherwise a
    probabilistic verdict from 16 seeded sample points (|z| in {0.7, 1.3},
    threshold 1e-9)."""
    return _verdict(_forms(e).num[1], e)


def is_constant(e: Expr) -> tuple[Constancy, complex | None]:
    """Decide constancy, with the constant when it is known.  When num and
    den have forms, num/den is constant iff num'*den - num*den' vanishes
    identically, and that is decided as is_identically_zero decides.
    Otherwise 16 seeded samples can only show that e is not constant."""
    forms = _forms(e)
    nep = forms.num[1]
    dep = forms.den[1] if nep is not None else None
    if dep is not None and dep.terms:
        if not nep.terms:
            return Constancy.CONSTANT, 0j
        flat = _decided(nep.diff() * dep - nep * dep.diff())
        if flat is ZeroVerdict.NONZERO:
            return Constancy.NON_CONSTANT, None
        if flat is ZeroVerdict.ZERO:
            return Constancy.CONSTANT, _ratio(nep, dep)
    vals = _samples(e)
    if len(vals) < 2:
        return Constancy.UNKNOWN, None
    scale = max(1.0, max(abs(v) for v in vals))
    spread = max(abs(v - vals[0]) for v in vals)
    if spread <= 1e-9 * scale:
        # numerically flat, but agreement at 16 points proves nothing
        return Constancy.UNKNOWN, None
    return Constancy.NON_CONSTANT, None


def _ratio(nep: ExpPoly, dep: ExpPoly) -> complex | None:
    """The constant nep/dep, rounded once from a pair of matching
    coefficients; None when a term carries exp(c) or a float overflows."""
    if any(c != _ZERO_F for _, c in (*nep.terms, *dep.terms)):
        return None
    f, cs = next(iter(dep.terms.items()))
    (a, b), (p, q) = cs[-1], nep.terms[f][len(cs) - 1]
    d = (a * a + b * b) * nep.den
    try:
        return complex((p * a + q * b) * dep.den / d,
                       (q * a - p * b) * dep.den / d)
    except OverflowError:
        return None


# ---------------------------------------------------------------------------
# derivative chains
#
# Repeated quotient differentiation normally doubles the denominator and lets
# the numerator pile up cancelling terms; near a multiple zero those cancel
# catastrophically in floating point.  Differentiating n/d^p as
# (n' d - p n d')/d^(p+1) keeps the denominator a structural power of the
# original entire part, and compacting the numerator through its canonical
# ExpPoly removes the cancellations exactly.

def derivative_chain(f: Expr, k: int) -> list[Expr]:
    """[f, f', ..., f^(k)] with compacted numerators and structural
    denominator powers."""
    if k < 0:
        raise ValueError("negative derivative order")
    out = [f]
    q = to_quotient(f, check=False)
    if isinstance(q.den, Const):
        cur = f
        for _ in range(k):
            cur = compact(differentiate(cur))
            out.append(cur)
        return out
    num, den = q.num, q.den
    dden = compact(differentiate(den))
    p = 1
    for _ in range(k):
        num = compact(sub(mul(differentiate(num), den),
                          mul(Const(p), num, dden)))
        p += 1
        out.append(div(num, intpow(den, p)))
    return out
