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
    _CHILDREN, Add, Const, Div, Expr, IntPow, InvalidExpressionError, Mul,
    Neg, PoleSignal, QuotientForm, Var, Z,
    add, differentiate, div, evaluate, exp_e, intpow, mul, neg, sub,
    to_quotient,
)
from .gaussian import _ZERO_F, _conj, _fadd, _gmul

__all__ = [
    "ExpPoly", "to_exp_poly", "exp_poly_to_expr", "one_frequency",
    "canonical", "canonical_quotient",
    "ZeroVerdict", "Constancy", "is_identically_zero", "is_constant",
    "derivative_chain", "set_probabilistic_seed", "circle_symmetries",
]

_DEFAULT_PROB_SEED = 0x5EED
_prob_seed = _DEFAULT_PROB_SEED


def set_probabilistic_seed(seed: int | None):
    """Override the seed of the probabilistic identity fallback (None resets)."""
    global _prob_seed
    _prob_seed = _DEFAULT_PROB_SEED if seed is None else int(seed)


# A term's key is the pair (lambda, c) of Gaussian-rational triples for
# exp(c)*exp(lambda*z).  A coefficient is a Gaussian integer (a, b).
_ZERO_K = (_ZERO_F, _ZERO_F)


def _kadd(k: tuple, g: tuple, n: int = 1) -> tuple:
    """The key of the product of terms keyed k and g (quotient for n = -1)."""
    return _fadd(k[0], g[0], n), _fadd(k[1], g[1], n)


# The most coefficient pairs that one product in ExpPoly.pow or in the form
# of a Mul may multiply.  Unbounded, is_identically_zero((z + 1)^4000 - 1)
# spent 11 s (2 vCPU, CPython 3.11) expanding the power, and eight factors
# (z + 1)^500 multiplied out took 6 s.  The benchmark's largest power has
# degree 8; (z + 1)^511 is the largest power of z + 1 kept.
_MAX_PAIRS = 2 ** 16


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

    def pow(self, n: int) -> "ExpPoly | None":
        """self^n, or None (it leaves the class) when one squaring or
        product would multiply more than _MAX_PAIRS coefficient pairs."""
        acc = _constant(1)
        for bit in bin(n)[2:]:
            for y in (acc, self) if bit == "1" else (acc,):
                if _size(acc) * _size(y) > _MAX_PAIRS:
                    return None
                acc = acc * y
        return acc

    def over(self, g: "ExpPoly") -> "ExpPoly":
        """self / g for a single term g = c*exp(lambda*z), c != 0, exactly:
        1/c = den*conj(c)/|c|^2 for c = (a + b*i)/den."""
        (key, ((a, b),)), = g.terms.items()
        inv = a * g.den, -b * g.den
        return ExpPoly({_kadd(f, key, -1): [_gmul(c, inv) for c in cs]
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


def _size(ep: ExpPoly) -> int:
    """The number of coefficients that ep holds."""
    return sum(map(len, ep.terms.values()))


def one_frequency(ep: ExpPoly) -> tuple[tuple, dict] | None:
    """(lambda, {n_k: a_k}) when ep is sum a_k exp(n_k lambda z) over ep.den,
    a_k Gaussian integers, n_k ints, lambda a nonzero triple; else None."""
    # Each frequency as t * lambda_1 with t = num/den rational, lambda_1 the
    # first nonzero frequency; lambda = lambda_1 * gcd(nums) / lcm(dens).
    f1 = next((f for f, _ in ep.terms if f != _ZERO_F), None)
    if f1 is None or any(c != _ZERO_F or len(cs) > 1
                         for (_, c), cs in ep.terms.items()):
        return None
    a, b, d = f1
    ts = []
    for (p, q, k), _ in ep.terms:
        if a * q != b * p:
            return None
        num, den = (p * d, k * a) if a else (q * d, k * b)
        ts.append((-num, -den) if den < 0 else (num, den))
    g, m = math.gcd(*(n for n, _ in ts)), math.lcm(*(k for _, k in ts))
    return _fadd(_ZERO_F, (a * g, b * g, d * m)), {
        n * (m // k) // g: cs[0] for (n, k), cs in zip(ts, ep.terms.values())}


# ---------------------------------------------------------------------------
# conversion from expression trees

def _combine(e: Expr, forms: list) -> ExpPoly | None:
    """The form of e from the forms of its children, or None when e leaves
    the class."""
    t = type(e)
    if t is Mul or t is Add:
        acc = forms[0]
        for p in forms[1:]:
            if t is Add:
                acc = acc + p
            elif _size(acc) * _size(p) > _MAX_PAIRS:
                return None
            else:
                acc = acc * p
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


def _rewrite(ep: ExpPoly | None, e: Expr | None) -> Expr | None:
    """ep as an expression; e when ep is None or a coefficient overflows."""
    try:
        return e if ep is None else exp_poly_to_expr(ep)
    except (OverflowError, InvalidExpressionError):
        return e


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
    return _canonical(e)[0]


_REBUILD = {Add: lambda e, k: add(*k), Mul: lambda e, k: mul(*k),
            Neg: lambda e, k: neg(*k), Div: lambda e, k: div(*k),
            IntPow: lambda e, k: intpow(*k, e.power)}


# The decisions on one function keep meeting the same subtrees (its
# derivatives' trees, the factors f^(j)^q of P[f]), so _canonical converts
# each distinct subtree once, through its recursive calls too.  The entries
# are pure functions of structure and no ExpPoly is changed after it is
# built, so sharing one is safe.  512 entries raised the exact benchmark's
# peak memory by 0.1-0.5 MB; 4096 raised it by 4 MB, a tenth of the whole.
_CANONICAL_MEMO = 512


@functools.lru_cache(maxsize=_CANONICAL_MEMO)
def _canonical(e: Expr) -> tuple[Expr, ExpPoly | None]:
    """(canonical(e), the form of e), both built bottom-up in one walk; the
    form is None when e leaves the class."""
    rebuild = _REBUILD.get(type(e))
    if rebuild is None:
        return e, to_exp_poly(e)
    parts = [_canonical(c) for c in _CHILDREN[type(e)](e)]
    rebuilt = rebuild(e, [x for x, _ in parts])
    forms = [p for _, p in parts]
    if None in forms:
        return rebuilt, None
    ep = _combine(e, forms)
    if isinstance(e, Add) and isinstance(rebuilt, Add) and ep is not None \
            and (not ep.terms or _single(ep, 1)):
        return _rewrite(ep, rebuilt), ep
    return rebuilt, ep


@functools.lru_cache(maxsize=_CANONICAL_MEMO)
def canonical_quotient(e: Expr) -> QuotientForm:
    """to_quotient with both parts passed through canonical(); memoised,
    bounded like _canonical, since a process may make many quotients."""
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
        self.q = to_quotient(e)
        self.num = _canonical(self.q.num)

    @functools.cached_property
    def den(self) -> tuple[Expr, ExpPoly | None]:
        return _canonical(self.q.den)


# Small and bounded: the verdicts and canonical quotient of one expression
# come back to back.  A cache for the life of the process would keep every
# form it made; the subtrees they share are held by _canonical's own
# bounded memo.
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


# ---------------------------------------------------------------------------
# symmetries of |f| on circles centred at 0
#
# A map M proves |f(M z)| = |f(z)| when it sends each part of f's quotient to
# u times itself, u one constant.  Each map below is an involution, so
# |u| = 1 follows.  The image is compared with the part exactly, key by key,
# so u is a Gaussian rational: exp(z + 0.5*i) is sent to exp(-i) times
# itself, which this does not prove.

_MAPS = (
    # the mirror z -> conj(z), read as conj(p(conj(z))): every coefficient,
    # frequency and constant conjugated
    lambda f, c, cs: ((_conj(f), _conj(c)), [(a, -b) for a, b in cs]),
    # the half-turn z -> -z: the frequency negated, the coefficient of z^j
    # times (-1)^j
    lambda f, c, cs: (((-f[0], -f[1], f[2]), c),
                      [(-a, -b) if j % 2 else (a, b)
                       for j, (a, b) in enumerate(cs)]),
    # the reflection z -> -conj(z), the two composed: the frequency's real
    # part negated, the constant conjugated, and the coefficient of z^j
    # conjugated and times (-1)^j
    lambda f, c, cs: (((-f[0], f[1], f[2]), _conj(c)),
                      [(-a, b) if j % 2 else (a, -b)
                       for j, (a, b) in enumerate(cs)]),
)


def _sends_to_multiple(ep: ExpPoly, image) -> bool:
    """The map image sends ep to u*ep for one constant u."""
    got = dict(image(f, c, cs) for (f, c), cs in ep.terms.items())
    if got.keys() != ep.terms.keys():
        return False
    if not got:
        return True
    # u = p0/q0 for a last coefficient q0, which is not zero; then the image
    # is u*ep iff p*q0 == q*p0 for every pair of coefficients (p, q)
    k0 = next(iter(got))
    p0, q0 = got[k0][-1], ep.terms[k0][-1]
    return all(_gmul(p, q0) == _gmul(q, p0)
               for k, cs in got.items() for p, q in zip(cs, ep.terms[k]))


def circle_symmetries(e: Expr) -> tuple[bool, bool, bool]:
    """Whether |e(conj(z))| = |e(z)|, whether |e(-z)| = |e(z)| and whether
    |e(-conj(z))| = |e(z)| are proven from the exact forms of both parts of
    e's quotient.  Each map composes the other two, so two proven maps prove
    the third.  A part with no form proves none."""
    forms = _forms(e)
    parts = (forms.num[1], forms.den[1])
    return tuple(None not in parts and
                 all(_sends_to_multiple(ep, m) for ep in parts)
                 for m in _MAPS)


def _ratio(nep: ExpPoly, dep: ExpPoly) -> complex | None:
    """The constant nep/dep, rounded once from a pair of matching
    coefficients; None when a term carries exp(c) or a float overflows."""
    if any(c != _ZERO_F for _, c in (*nep.terms, *dep.terms)):
        return None
    f, cs = next(iter(dep.terms.items()))
    (a, b), p = cs[-1], nep.terms[f][len(cs) - 1]
    d = (a * a + b * b) * nep.den
    x, y = _gmul(p, (a * dep.den, -b * dep.den))
    try:
        return complex(x / d, y / d)
    except OverflowError:
        return None


# ---------------------------------------------------------------------------
# derivative chains
#
# Repeated quotient differentiation normally doubles the denominator and lets
# the numerator pile up cancelling terms; near a multiple zero those cancel
# catastrophically in floating point.  Differentiating n/d^p as
# (n' d - p n d')/d^(p+1) keeps the denominator a structural power of the
# original entire part, and running that recurrence on the exact forms of
# the quotient's parts, which _forms already holds, removes the
# cancellations exactly: each numerator is rounded once, from its form.

def derivative_chain(f: Expr, k: int) -> list[Expr]:
    """[f, f', ..., f^(k)].  For the quotient N/D of f, f^(j) is N_j/D^(j+1)
    with N_0 = N and N_(j+1) = N_j' D - (j+1) N_j D', or N_j/D with
    N_(j+1) = N_j' when D is a constant.  Where a form is missing, or a
    coefficient of N_j overflows a float, N_j is that recurrence's tree."""
    if k < 0:
        raise ValueError("negative derivative order")
    forms = _forms(f)
    num, den = forms.q.num, forms.q.den
    ep, dep = forms.num[1], forms.den[1]
    entire = isinstance(den, Const)
    if not entire:
        ddep = None if dep is None else dep.diff()
        dden = _rewrite(ddep, differentiate(den))
        ep = None if dep is None else ep
    out = [f]
    # _rewrite(ep, None) is None only where the tree is needed, so the tree
    # is built there alone.
    for p in range(1, k + 1):
        if entire:
            ep = None if ep is None else ep.diff()
            num = _rewrite(ep, None) or differentiate(num)
            out.append(div(num, den))
        else:
            ep = None if ep is None else \
                ep.diff() * dep - _constant(p) * ep * ddep
            num = _rewrite(ep, None) or sub(mul(differentiate(num), den),
                                            mul(Const(p), num, dden))
            out.append(div(num, intpow(den, p + 1)))
    return out
