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
                            derivative_chain, is_constant,
                            is_identically_zero, set_probabilistic_seed,
                            to_exp_poly)


@pytest.fixture(autouse=True)
def default_seed():
    set_probabilistic_seed(None)
    yield
    set_probabilistic_seed(None)


def test_product_of_exponentials_collects_frequencies():
    p = to_exp_poly(parse_expr("exp(2*z)*exp(3*z)"))
    assert p is not None
    for z in (0.3 + 0.4j, -1.1j, 2.0):
        assert p.eval(z) == pytest.approx(cmath.exp(5 * z), rel=1e-12)


def test_polynomials_are_frequency_zero():
    p = to_exp_poly(parse_expr("z^2 + 1"))
    assert p is not None
    assert p.eval(2.0) == pytest.approx(5.0)
    assert p.eval(1j) == pytest.approx(0.0, abs=1e-15)


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: ExpPoly prunes "
                   "coefficients below 1e-12 of the largest")
def test_tiny_coefficient_survives_the_exact_layer():
    # equals 1e-13*z*exp(z), which is neither zero nor constant
    e = parse_expr("(1 + 0.0000000000001*z)*exp(z) - exp(z)")
    assert is_identically_zero(e) is ZeroVerdict.NONZERO
    assert is_constant(e)[0] is Constancy.NON_CONSTANT


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

# Small Gaussian-integer coefficients and frequencies: every coefficient the
# ring operations make is an exact integer far above COEFF_TOL times the
# largest, so the pruning in ExpPoly._normalise never drops one.
_GAUSS = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
_ENTIRE_LEAVES = st.one_of(st.just(Z), _GAUSS.map(Const),
                           _GAUSS.map(lambda c: exp_e(mul(Const(c), Z))))


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
                         for f, cs in p.terms for j, c in enumerate(cs))
                     for z in _POINTS])


def _agrees(p, e, scale):
    got = np.array([p.eval(z) for z in _POINTS])
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
    order = 1 + max((abs(f) + len(cs) for f, cs in pa.terms), default=0)
    assert _agrees(pa.diff(), differentiate(a), order * (1.0 + sa))


def _trees(children):
    return st.one_of(_entire_branches(children),
                     st.builds(lambda n, d: div(n, add(d, exp_e(Z))),
                               children, children))


@_PROPERTIES
@given(st.recursive(_ENTIRE_LEAVES, _trees, max_leaves=8))
def test_grammar_round_trip(e):
    """parse_expr(to_grammar(e)) evaluates bit for bit as e.  A negated
    product prints as -a*b, which parses as (-a)*b, so the first trip may
    move a sign; after it the text is stable."""
    once = parse_expr(to_grammar(e))
    with np.errstate(all="ignore"):
        assert np.array_equal(_values(once), _values(e), equal_nan=True)
    assert parse_expr(to_grammar(once)) == parse_expr(
        to_grammar(parse_expr(to_grammar(once))))
