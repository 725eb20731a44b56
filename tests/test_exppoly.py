"""Exact exponential-polynomial reduction, identity and constancy tests."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevlab.expr import (Add, Const, Z, add, compile_expr, differentiate, div,
                         evaluate, exp_e, intpow, mul, neg, parse_expr, sub,
                         to_grammar)
from nevlab.exppoly import (Constancy, ZeroVerdict, canonical,
                            canonical_quotient, compact, derivative_chain,
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


@pytest.mark.parametrize("e", [
    intpow(mul(Const(1e200), Z), 2),                 # 1e400 / den
    parse_expr("exp(z + 700)*exp(z + 700)"),         # exp(1400)
    mul(Const(1e300), parse_expr("exp(z + 400)")),   # 1e300 * exp(400)
])
def test_compact_keeps_a_tree_whose_coefficients_overflow(e):
    assert compact(e) is e


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
