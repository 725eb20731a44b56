"""Exact exponential-polynomial reduction, identity and constancy tests."""

import cmath
import collections
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevlab.diffpoly import DiffPolynomial
from nevlab.expr import (Add, Const, Z, add, compile_expr, differentiate, div,
                         evaluate, exp_e, intpow, mul, neg, parse_expr, sub,
                         to_grammar)
from nevlab import exppoly
from nevlab.exppoly import (Constancy, ZeroVerdict, canonical,
                            canonical_quotient, circle_symmetries,
                            derivative_chain,
                            is_constant, is_identically_zero,
                            set_probabilistic_seed, to_exp_poly)
from nevlab.expr import InvalidExpressionError


@pytest.fixture(autouse=True)
def default_seed():
    set_probabilistic_seed(None)
    yield
    set_probabilistic_seed(None)


def _at(p, z):
    """p at z, summed term by term from its rounded coefficients."""
    return sum(sum(c * z ** j for j, c in enumerate(cs)) * cmath.exp(f * z)
               for f, cs in p.rounded())


def test_product_of_exponentials_collects_frequencies():
    p = to_exp_poly(parse_expr("exp(2*z)*exp(3*z)"))
    assert p is not None
    for z in (0.3 + 0.4j, -1.1j, 2.0):
        assert _at(p, z) == pytest.approx(cmath.exp(5 * z), rel=1e-12)


def test_polynomials_are_frequency_zero():
    p = to_exp_poly(parse_expr("z^2 + 1"))
    assert p is not None
    assert _at(p, 2.0) == pytest.approx(5.0)
    assert _at(p, 1j) == pytest.approx(0.0, abs=1e-15)


def test_nonlinear_exponent_is_not_representable():
    assert to_exp_poly(parse_expr("exp(z^2)")) is None


@pytest.mark.parametrize("src", [
    "sin(z)^2 + cos(z)^2 - 1",
    "exp(z)*exp(-z) - 1",
    "z - z",
    "(exp(z) - 1)*(exp(z) + 1) - exp(2*z) + 1",
])
def test_exact_zero_detection(src):
    assert is_identically_zero(parse_expr(src)) is ZeroVerdict.ZERO


@pytest.mark.parametrize("src", [
    "exp(z) - exp(2*z)",
    "z^2 - z",
    "sin(z) - z",
])
def test_exact_nonzero_detection(src):
    assert is_identically_zero(parse_expr(src)) is ZeroVerdict.NONZERO


def test_probabilistic_fallback():
    """Non-linear exponentials fall back to deterministic seeded sampling."""
    diff = parse_expr("sin(z^2) - sin(z^2)")
    assert is_identically_zero(diff) is ZeroVerdict.PROBABLY_ZERO
    mism = parse_expr("sin(z^2) - cos(z^2)")
    assert is_identically_zero(mism) is ZeroVerdict.PROBABLY_NONZERO


def test_probabilistic_verdicts_are_seed_stable():
    e = parse_expr("sin(z^2) - cos(z^2)")
    set_probabilistic_seed(99)
    first = is_identically_zero(e)
    set_probabilistic_seed(99)
    assert is_identically_zero(e) is first


def test_tiny_coefficient_survives_the_exact_layer():
    # equals 1e-13*z*exp(z), which is neither zero nor constant
    e = parse_expr("(1 + 0.0000000000001*z)*exp(z) - exp(z)")
    assert is_identically_zero(e) is ZeroVerdict.NONZERO
    assert is_constant(e)[0] is Constancy.NON_CONSTANT


@pytest.mark.parametrize("src", [
    "exp(0.0000000000001*z) - 1",
    "exp((1+0.0000000000001)*z) - exp(z)",
])
def test_close_frequencies_stay_distinct(src):
    e = parse_expr(src)
    assert is_identically_zero(e) is ZeroVerdict.NONZERO
    assert is_constant(e)[0] is Constancy.NON_CONSTANT


def test_exp_of_a_nonzero_constant_is_decided_by_sampling():
    """The parser folds exp(1) to a float, while exp(z + 1) keeps exp(1)
    exact: the form holds both at frequency 1, and the difference is zero
    only up to the rounding of that float, so the verdict is
    probabilistic."""
    e = parse_expr("exp(z + 1) - exp(1)*exp(z)")
    assert len(to_exp_poly(e).terms) == 2
    assert is_identically_zero(e) is ZeroVerdict.PROBABLY_ZERO
    assert is_constant(e)[0] is Constancy.UNKNOWN
    assert is_constant(parse_expr("exp(z + 1)"))[0] is Constancy.NON_CONSTANT


@pytest.mark.parametrize("src,verdict", [
    ("exp(z + 1)*exp(z - 1) - exp(2*z)", ZeroVerdict.ZERO),
    ("exp(z + 1)^2 - exp(2*z + 2)", ZeroVerdict.ZERO),
    ("exp(z + 1 + i) - exp(z + 1)*exp(i*0.5)^2", ZeroVerdict.PROBABLY_ZERO),
    ("exp(z + 1)", ZeroVerdict.NONZERO),
    # nonzero by Lindemann-Weierstrass, but exp(1) and 1 at one frequency
    # look like a float stand-in that fails to cancel, so it is sampled
    ("exp(z + 1) - exp(z)", ZeroVerdict.PROBABLY_NONZERO),
    ("exp(z + 1) - exp(1)*exp(z) + z", ZeroVerdict.NONZERO),
])
def test_exp_of_a_constant_is_kept_exactly(src, verdict):
    """exp(c) of an argument c + lambda*z is a symbol of the form, so
    products and powers of such exponentials cancel exactly; a frequency
    that carries one exp(c) alone decides that the sum is nonzero."""
    assert is_identically_zero(parse_expr(src)) is verdict


def test_quotient_of_shifted_exponentials_is_constant():
    # exp(1) carried by the form: constant, but not rounded into a value
    assert is_constant(parse_expr("exp(z + 1)/exp(z)")) == \
        (Constancy.CONSTANT, None)
    assert is_constant(parse_expr("exp(2*z + 1)/exp(z)"))[0] \
        is Constancy.NON_CONSTANT


def test_constant_too_large_for_a_float_has_no_value():
    # the ratio 1e400 is constant, but it has no float
    assert is_constant(parse_expr("(10*z)^200/(0.1*z)^200")) == \
        (Constancy.CONSTANT, None)


@pytest.mark.parametrize("src", ["(z + 1)^4000", "(exp(z) + z)^200",
                                 "(z + 1)^512"])
def test_a_power_past_the_pair_bound_leaves_the_class(src):
    """ExpPoly.pow declines a squaring or product of more than _MAX_PAIRS
    coefficient pairs, rather than expanding it: (z + 1)^512 squares 257
    coefficients by 257."""
    assert to_exp_poly(parse_expr(src)) is None


@pytest.mark.parametrize("n", [200, 511])
def test_a_power_within_the_pair_bound_keeps_its_exact_form(n):
    """(z + 1)^n expands to the binomial coefficients; at n = 511 the last
    squaring multiplies 256 coefficients by 256, exactly _MAX_PAIRS."""
    p = to_exp_poly(parse_expr(f"(z + 1)^{n}"))
    assert p.den == 1 and p.terms == {
        exppoly._ZERO_K: [(math.comb(n, k), 0) for k in range(n + 1)]}


def test_a_product_within_the_pair_bound_keeps_its_exact_form():
    """(z + 1)^255*(z + 1)^255 multiplies 256 coefficients by 256, exactly
    _MAX_PAIRS, and keeps the binomial coefficients of (z + 1)^510."""
    p = to_exp_poly(parse_expr("(z + 1)^255*(z + 1)^255"))
    assert p.den == 1 and p.terms == {
        exppoly._ZERO_K: [(math.comb(510, k), 0) for k in range(511)]}


@pytest.mark.parametrize("n,power", [(2, 256), (8, 500)])
def test_a_product_past_the_pair_bound_leaves_the_class(n, power):
    """A Mul's form declines each product of more than _MAX_PAIRS
    coefficient pairs, as ExpPoly.pow does: 257 by 257 for two factors
    (z + 1)^256, and 501 by 501 already at the first of eight factors
    (z + 1)^500, rather than expanding all eight to degree 4000."""
    src = "*".join([f"(z + 1)^{power}"] * n)
    assert to_exp_poly(parse_expr(src)) is None
    assert is_identically_zero(parse_expr(src + " - 1")) != ZeroVerdict.ZERO


@pytest.mark.parametrize("e", [
    intpow(mul(Const(1e200), Z), 3),                 # f' = 3e600*z^2
    parse_expr("exp(z + 700)*exp(z + 700)"),         # exp(1400)
    mul(Const(1e300), parse_expr("exp(z + 400)")),   # 1e300 * exp(400)
])
def test_chain_keeps_a_tree_whose_coefficients_overflow(e):
    assert derivative_chain(e, 1) == [e, differentiate(e)]


def test_chain_raises_where_the_tree_overflows_too():
    # f = (1e200*z)^2: f' = 2e400*z has no float form and no float tree
    with pytest.raises(InvalidExpressionError, match="overflows"):
        derivative_chain(intpow(mul(Const(1e200), Z), 2), 1)


@pytest.mark.parametrize("den", [
    "exp(z) - exp(z)",
    "exp(z + 1)^2 - exp(2*z + 2)",
    "exp(z + 1) - exp(1)*exp(z)",
    "sin(z^2) - sin(z^2)",
])
def test_canonical_quotient_rejects_a_vanishing_denominator(den):
    with pytest.raises(InvalidExpressionError, match="vanishes"):
        canonical_quotient(parse_expr(f"z/({den})"))


def test_floats_enter_at_their_dyadic_value():
    # 0.1 + 0.2 != 0.3 in binary floating point, and the exact layer says so
    assert is_identically_zero(parse_expr("(0.1 + 0.2)*z - 0.3*z")) \
        is ZeroVerdict.NONZERO
    assert is_identically_zero(parse_expr("(0.5 + 0.25)*z - 0.75*z")) \
        is ZeroVerdict.ZERO


@pytest.mark.xfail(reason="the smart constructors fold 1/49 and 1/3 to "
                          "doubles before the exact layer reads the tree "
                          "(ROADMAP item 2)")
@pytest.mark.parametrize("src", ["49*(z/49) - z", "(z/3)^2*9 - z^2"])
def test_folded_reciprocals_cancel(src):
    assert is_identically_zero(parse_expr(src)) is ZeroVerdict.ZERO


@pytest.mark.xfail(reason="derivative_chain rounds c^2 to a double before "
                          "the exact layer reads the tree (ROADMAP item 2)")
def test_wronskian_of_an_exponential_cancels():
    """f f'' - f'^2 = 0 for f = exp(c z), here with c = 0.1."""
    poly = DiffPolynomial.from_exponents((1, (1, 0, 1)), (-1, (0, 2)))
    assert is_identically_zero(poly.apply(parse_expr("exp(0.1*z)"))) \
        is ZeroVerdict.ZERO


@pytest.mark.parametrize("src,kind,value", [
    ("5", Constancy.CONSTANT, 5),
    ("sin(z)^2 + cos(z)^2", Constancy.CONSTANT, 1),
    ("exp(z)", Constancy.NON_CONSTANT, None),
    ("z", Constancy.NON_CONSTANT, None),
    ("tan(z)", Constancy.NON_CONSTANT, None),
])
def test_constancy(src, kind, value):
    got_kind, got_value = is_constant(parse_expr(src))
    assert got_kind is kind
    if value is not None:
        assert got_value == pytest.approx(value)


def test_derivative_chain_of_exponential():
    chain = derivative_chain(parse_expr("exp(2*z)"), 3)
    assert len(chain) == 4
    for k, e in enumerate(chain):
        for z in (0.5, 0.2 + 0.3j):
            assert evaluate(e, z) == pytest.approx(2 ** k * cmath.exp(2 * z),
                                                   rel=1e-12)


def test_derivative_chain_of_tangent():
    """Third derivative of tan agrees with 2*sec^4 + 4*tan^2*sec^2."""
    chain = derivative_chain(parse_expr("tan(z)"), 3)

    def reference(z):
        sec2 = 1 / cmath.cos(z) ** 2
        return 2 * sec2 ** 2 + 4 * cmath.tan(z) ** 2 * sec2

    for z in (0.3, 0.25 - 0.4j, 1.0 + 0.2j):
        assert evaluate(chain[3], z) == pytest.approx(reference(z), rel=1e-10)


def test_chain_converts_its_function_once(monkeypatch):
    """The chain runs on the forms the exact layer holds for f, so a longer
    chain converts no more trees."""
    calls = collections.Counter()
    memo = exppoly._canonical
    for name in ("_canonical", "to_exp_poly"):
        def counted(e, real=getattr(exppoly, name), name=name):
            calls[name] += 1
            return real(e)
        monkeypatch.setattr(exppoly, name, counted)
    counts = []
    for k in (1, 8):
        calls.clear()
        exppoly._forms.cache_clear()
        memo.cache_clear()
        derivative_chain(parse_expr("tan(z)"), k)
        counts.append(dict(calls))
    assert counts[0] and counts[0] == counts[1]


def _complex_power(c: complex, j: int) -> complex:
    """c**j computed exactly, then rounded once."""
    a, b = Fraction(c.real), Fraction(c.imag)
    x, y = Fraction(1), Fraction(0)
    for _ in range(j):
        x, y = x * a - y * b, x * b + y * a
    return complex(float(x), float(y))


@pytest.mark.parametrize("src,c", [
    ("exp(0.1*z)", 0.1),
    ("exp(0.3*z)", 0.3),
    ("exp((0.1 + 0.7*i)*z)", 0.1 + 0.7j),
])
def test_chain_of_an_exponential_rounds_each_derivative_once(src, c):
    chain = derivative_chain(parse_expr(src), 8)
    for j, e in enumerate(chain):
        assert to_exp_poly(e).rounded() == [(c, [_complex_power(c, j)])]


def test_chain_of_a_quotient_rounds_each_numerator_once():
    """f = exp(lz)/(z + 1) with l = 0.3: f^(j) = N_j/(z + 1)^(j+1), with
    N_j = P_j(z) exp(lz) and P_(j+1) = (P_j' + l P_j)(z + 1) - (j+1) P_j."""
    lam = Fraction(0.3)
    chain = derivative_chain(parse_expr("exp(0.3*z)/(z + 1)"), 8)
    poly = [Fraction(1)]
    for j in range(1, 9):
        grown = [lam * a for a in poly] + [Fraction(0)]
        for i in range(1, len(poly)):
            grown[i - 1] += i * poly[i]
        poly = [a + b - j * c for a, b, c in
                zip(grown, [Fraction(0)] + grown, poly + [0, 0])]
        assert to_exp_poly(chain[j].num).rounded() == \
            [(0.3, [complex(float(a)) for a in poly])]
    # the constant of N_4, rounded once where a chain of roundings was not
    assert to_exp_poly(chain[4].num).rounded()[0][1][0] == 17.7801


def test_derivative_chain_starts_at_the_function():
    f = parse_expr("tan(z)")
    chain = derivative_chain(f, 2)
    for z in (0.3, 0.7j):
        assert evaluate(chain[0], z) == pytest.approx(cmath.tan(z), rel=1e-12)


def test_canonical_collapses_hidden_single_exponential():
    """sin - i*cos is -i*exp(i*z); the collapsed form survives radius 40."""
    e = canonical(parse_expr("sin(z) - i*cos(z)"))
    assert not isinstance(e, Add)
    z = 40j   # top of a radius-40 circle, where the raw sum absorbs to 0.0
    assert evaluate(e, z) == pytest.approx(-1j * cmath.exp(1j * z), rel=1e-12)
    assert abs(evaluate(e, z)) > 0


def test_canonical_keeps_genuine_sums_factored():
    src = "(z - 1)*exp(z) - i*z"
    e = canonical(parse_expr(src))
    for z in (0.4 + 0.2j, -1.5, 2.0 - 1.0j):
        assert evaluate(e, z) == pytest.approx(
            evaluate(parse_expr(src), z), rel=1e-12)
    # a two-frequency sum must stay a sum; expanding it buys nothing
    assert isinstance(e, Add)


def test_canonical_recurses_through_products():
    e = canonical(parse_expr("cos(z)*(sin(z) - i*cos(z))"))
    z = 35j
    want = cmath.cos(z) * (-1j) * cmath.exp(1j * z)
    assert evaluate(e, z) == pytest.approx(want, rel=1e-10)


def test_canonical_exact_zero_sum_becomes_constant():
    e = canonical(parse_expr("exp(i*z) - exp(i*z)"))
    assert isinstance(e, Const)
    assert e.value == 0


# ---------------------------------------------------------------------------
# property tests of the exact layer against pointwise evaluation

# Gaussian-integer coefficients and frequencies, widened with coefficients
# 10^-k and frequencies 1 + 10^-k (k <= 15): values that a relative prune of
# coefficients or a tolerance on frequencies would drop or merge.  The exact
# layer keeps every one, so its form still agrees with pointwise evaluation
# within 1e-12 of the term scale.
_GAUSS = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
_TINY = st.integers(1, 15).map(lambda k: 10.0 ** -k)


def _leaves(coeffs, freqs):
    return st.one_of(st.just(Z), coeffs.map(Const),
                     freqs.map(lambda c: exp_e(mul(Const(c), Z))))


_ENTIRE_LEAVES = st.one_of(
    _leaves(st.one_of(_GAUSS, _TINY),
            st.one_of(_GAUSS, _TINY.map(lambda t: 1 + t))),
    # exp(c + lambda*z): exp(c) is carried as a symbol, not as a float
    st.builds(lambda c, f: exp_e(add(Const(c), mul(Const(f), Z))),
              _GAUSS, _GAUSS))


def _entire_branches(children):
    return st.one_of(st.builds(add, children, children),
                     st.builds(mul, children, children),
                     st.builds(sub, children, children),
                     st.builds(neg, children),
                     st.builds(intpow, children, st.integers(0, 3)))


_ENTIRE = st.recursive(_ENTIRE_LEAVES, _entire_branches, max_leaves=6)
_POINTS = np.array([0.3 + 0.4j, -0.7 + 0.2j, 1.1 - 0.5j])
_PROPERTIES = settings(derandomize=True, database=None, deadline=None,
                       max_examples=150)


def _values(e):
    return np.broadcast_to(compile_expr(e)(_POINTS), _POINTS.shape)


def _scale(p):
    """sum |c| |z|^j |exp(f z)| over the terms of p, at each point."""
    return np.array([sum(abs(c) * abs(z) ** j * abs(cmath.exp(f * z))
                         for f, cs in p.rounded() for j, c in enumerate(cs))
                     for z in _POINTS])


def _agrees(p, e, scale):
    got = np.array([_at(p, z) for z in _POINTS])
    return np.all(np.abs(got - _values(e)) <= 1e-12 * (1.0 + scale))


@_PROPERTIES
@given(_ENTIRE, _ENTIRE)
def test_exp_poly_ring_agrees_with_pointwise_evaluation(a, b):
    pa, pb = to_exp_poly(a), to_exp_poly(b)
    sa, sb = _scale(pa), _scale(pb)
    assert _agrees(pa, a, sa) and _agrees(pb, b, sb)
    assert _agrees(pa + pb, add(a, b), sa + sb)
    assert _agrees(pa - pb, sub(a, b), sa + sb)
    assert _agrees(pa * pb, mul(a, b), (1.0 + sa) * (1.0 + sb))
    order = 1 + max((abs(f) + len(cs) for f, cs in pa.rounded()), default=0)
    assert _agrees(pa.diff(), differentiate(a), order * (1.0 + sa))
    # nothing is pruned or merged: the ring laws hold exactly
    assert _same((pa + pb) - pa, pb)
    assert _same(pa * pb, pb * pa)
    assert _same((pa * pb).diff(), pa.diff() * pb + pa * pb.diff())


def _same(p, q):
    return (p.terms, p.den) == (q.terms, q.den)


def _trees(children):
    return st.one_of(_entire_branches(children),
                     st.builds(lambda n, d: div(n, add(d, exp_e(Z))),
                               children, children))


@_PROPERTIES
@given(st.recursive(_leaves(_GAUSS, _GAUSS), _trees, max_leaves=8))
def test_grammar_round_trip(e):
    """parse_expr(to_grammar(e)) evaluates bit for bit as e, and a parsed
    tree reads back as the same tree.  A negative or non-real constant
    prints as a sum or a negation of literals, so only a parsed tree is
    compared whole."""
    once = parse_expr(to_grammar(e))
    with np.errstate(all="ignore"):
        assert np.array_equal(_values(once), _values(e), equal_nan=True)
    assert parse_expr(to_grammar(once)) == once


@_PROPERTIES
@given(st.recursive(_leaves(*[st.integers(0, 3).map(complex)] * 2), _trees,
                    max_leaves=8))
def test_grammar_round_trip_is_the_identity_on_trees(e):
    """With non-negative real constants every literal prints as itself,
    and the tree reads back whole: a negated product or quotient keeps its
    parentheses."""
    assert parse_expr(to_grammar(e)) == e


@pytest.mark.parametrize("e", [neg(mul(Z, exp_e(Z))), neg(div(Z, exp_e(Z))),
                               add(Z, neg(mul(Const(2), Z, exp_e(Z))))])
def test_negated_products_print_with_parentheses(e):
    assert parse_expr(to_grammar(e)) == e


# ---------------------------------------------------------------------------
# division by one term: the Div and negative IntPow branches of _combine

def _form(src):
    return to_exp_poly(parse_expr(src))


@pytest.mark.parametrize("src,same", [
    ("z/exp(2*z)", "z*exp(-2*z)"),
    ("(z^2 + 1)/exp((1 + 2*i)*z)", "(z^2 + 1)*exp((0-1-2*i)*z)"),
    ("z/exp(z + 1)", "z*exp(-z - 1)"),
    ("exp(z)^-2", "exp(-2*z)"),
    ("exp(2*z + 1)^-3", "exp(-6*z - 3)"),
])
def test_division_by_one_exponential_is_the_negated_frequency(src, same):
    assert _same(_form(src), _form(same))


def test_division_by_one_term_inverts_its_coefficient_exactly():
    """1/c for c = (a + b*i)/den is den*conj(c)/|c|^2, as Gaussian
    rationals: 1/(3 e^z) is (1/3) e^-z, 1/((1 + 2i) e^z) is
    (1 - 2i)/5 e^-z and ((1 + 2i) e^z)^-2 is (-3 - 4i)/25 e^-2z."""
    zero = exppoly._ZERO_F
    third = exppoly.ExpPoly({exppoly._ZERO_K: [(1, 0)]}, 3)
    assert _same(_form("(z^2 + 1)/(3*exp(z))"),
                 _form("(z^2 + 1)*exp(-z)") * third)
    assert _same(_form("1/((1 + 2*i)*exp(z))"),
                 exppoly.ExpPoly({((-1, 0, 1), zero): [(1, -2)]}, 5))
    assert _same(_form("((1 + 2*i)*exp(z))^-2"),
                 exppoly.ExpPoly({((-2, 0, 1), zero): [(-3, -4)]}, 25))
    assert _same(_form("(i*exp(z))^-3"), _form("i*exp(-3*z)"))


@pytest.mark.parametrize("src", ["z/(z + 1)", "exp(z)/(z*exp(z))",
                                 "1/(exp(z) + 1)", "(exp(z) + 1)^-1",
                                 "(z*exp(z))^-2"])
def test_division_by_more_than_one_constant_term_leaves_the_class(src):
    assert _form(src) is None


# ---------------------------------------------------------------------------
# _canonical's memo

_QUOTIENTS = st.recursive(_leaves(_GAUSS, _GAUSS), _trees, max_leaves=8)


def _decisions(e):
    """canonical_quotient's text (or its error) and both verdicts of e, with
    the caches above _canonical's memo cleared."""
    exppoly.canonical_quotient.cache_clear()
    exppoly._forms.cache_clear()
    try:
        q = canonical_quotient(e)
        text = (to_grammar(q.num), to_grammar(q.den))
    except InvalidExpressionError as exc:
        text = str(exc)
    constancy, value = is_constant(e)
    return text, is_identically_zero(e), constancy, repr(value)


@_PROPERTIES
@given(_QUOTIENTS, st.lists(_QUOTIENTS, max_size=3))
def test_canonical_memo_changes_no_decision(e, others):
    """The same text and verdicts from a cold memo, from one warmed by
    unrelated trees, and from one warmed by e itself."""
    exppoly._canonical.cache_clear()
    cold = _decisions(e)
    exppoly._canonical.cache_clear()
    for other in others:
        _decisions(other)
    assert _decisions(e) == cold
    assert _decisions(e) == cold


def test_canonical_quotient_memo_is_bounded():
    """A process keeps at most _CANONICAL_MEMO quotients, however many
    distinct expressions it decides."""
    memo = exppoly.canonical_quotient
    assert memo.cache_info().maxsize == exppoly._CANONICAL_MEMO
    memo.cache_clear()
    for k in range(exppoly._CANONICAL_MEMO + 8):
        canonical_quotient(parse_expr(f"exp({k + 1}*z) + z"))
    assert memo.cache_info().currsize == exppoly._CANONICAL_MEMO


# ---------------------------------------------------------------------------
# symmetries of |f| on circles: (mirror z -> conj(z), half-turn z -> -z,
# reflection z -> -conj(z)); a map M is proven when conj(p(M z)), or p(-z)
# for the half-turn, is u*p(z) for each part p and one constant u

@pytest.mark.parametrize("src, proven", [
    # sin goes to sin, -sin and -sin, and cos to cos under all three
    ("tan(z)", (True, True, True)),
    ("sin(z)^3", (True, True, True)),
    # real coefficients and even powers only
    ("z^2 + 1", (True, True, True)),
    # conj(i*sin(conj(z))) = -i*sin(z), i*sin(-z) = -i*sin(z) and
    # conj(i*sin(-conj(z))) = i*sin(z): u = -1, -1 and 1
    ("(0+1*i)*sin(z)", (True, True, True)),
    # the mirror fixes exp(z); the other two give exp(-z), no constant
    # times exp(z)
    ("exp(z)", (True, False, False)),
    # the other two send z - 1 to -z - 1, no constant times z - 1
    ("tan(z)^3*(z - 1)", (True, False, False)),
    ("exp(z)*(z^2 - 1)/(z^2 + 4)", (True, False, False)),
    # the quotient is cos(z)/(-i*exp(i*z)); the mirror and the half-turn
    # send -i*exp(i*z) to i*exp(-i*z) and -i*exp(-i*z), while the
    # reflection keeps the frequency i, since -conj(i) = i, and gives
    # i*exp(i*z): u = -1, and cos(z) goes to cos(z)
    ("1/(tan(z) - (i))", (False, False, True)),
    # the frequency i goes to -i, -i and i
    ("exp((0+1*i)*z)", (False, False, True)),
    # z + i, -z - i and -z + i = -(z - i)
    ("z - (i)", (False, False, True)),
    # cos(z) - i*z, cos(z) - i*z and cos(z) + conj(-i*conj(z)) = cos(z) + i*z
    ("cos(z) + (i)*z", (False, False, True)),
    # no form
    ("exp(z^2)", (False, False, False)),
    # the mirror gives exp(-i)*exp(z + 0.5*i): u = exp(-i) is no Gaussian
    # rational, so the key (1, 0.5*i) becomes (1, -0.5*i) and the mirror is
    # not proven, though |f| is symmetric under it; the other two give
    # exp(-z + 0.5*i) and exp(-z - 0.5*i)
    ("exp(z + 0.5*i)", (False, False, False)),
])
def test_circle_symmetries_by_hand(src, proven):
    assert circle_symmetries(parse_expr(src)) == proven


_UNIT = st.sampled_from([1, 2, -1, 1j, -1j, 1 + 1j])
_SYMMETRIC_LEAVES = st.one_of(
    _leaves(_UNIT, _UNIT),
    st.builds(lambda c, f: exp_e(add(Const(c), mul(Const(f), Z))),
              _UNIT, _UNIT))
_SYMMETRIC = st.recursive(
    _SYMMETRIC_LEAVES,
    lambda children: st.one_of(_entire_branches(children),
                               st.builds(div, children, children)),
    max_leaves=5)


@_PROPERTIES
@given(_SYMMETRIC)
def test_proven_symmetries_hold_pointwise(e):
    """Where a map is proven, |e| takes the same value at z and at its
    image, at points off every pole; the leaves' constants and frequencies
    are drawn from a few real and imaginary units, so many trees are
    symmetric."""
    try:
        proven = circle_symmetries(e)
    except InvalidExpressionError:
        return
    value = compile_expr(e)
    with np.errstate(all="ignore"):
        here = np.abs(np.broadcast_to(value(_POINTS), _POINTS.shape))
        for ok, image in zip(proven, (np.conj(_POINTS), -_POINTS,
                                      -np.conj(_POINTS)), strict=True):
            there = np.abs(np.broadcast_to(value(image), _POINTS.shape))
            seen = np.isfinite(here) & np.isfinite(there)
            if ok:
                assert np.allclose(there[seen], here[seen], rtol=1e-9,
                                   atol=1e-12)
