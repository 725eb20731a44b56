"""Expression grammar, evaluation, and symbolic calculus."""

import cmath
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from nevlab.diffpoly import DiffPolynomial
from nevlab.exppoly import canonical_quotient
from nevlab.expr import (ONE, Z, Add, Const, Div, Exp, IntPow,
                         InvalidExpressionError, Mul, Neg, ParseError,
                         PoleSignal, Var, _lower, _run, add, compile_expr,
                         differentiate, div, evaluate, exp_e, intpow, mul, neg,
                         parse_expr, sub, to_grammar, to_quotient)

POINTS = [0.3 + 0.4j, -1.2 + 0.9j, 2.0 - 0.5j, 0.9j, -0.7 - 2.1j]


def ev(src, z):
    return evaluate(parse_expr(src), z)


def test_literals_and_variable():
    assert ev("42", 1j) == 42
    assert ev("2.5", 0) == 2.5
    assert ev("z", 3 + 4j) == 3 + 4j
    assert ev("i", 0) == 1j
    assert ev("2 + 3*4", 0) == 14


@pytest.mark.parametrize("src,fn", [
    ("z^2 + 3*z - 5", lambda z: z * z + 3 * z - 5),
    ("(z - 1)*(z + 2)", lambda z: (z - 1) * (z + 2)),
    ("1/(z - 2)", lambda z: 1 / (z - 2)),
    ("-z^2", lambda z: -(z * z)),
    ("2*z^3", lambda z: 2 * z ** 3),
    ("exp(2*z)", lambda z: cmath.exp(2 * z)),
    ("sin(z)", cmath.sin),
    ("cos(z)", cmath.cos),
    ("tan(z)", cmath.tan),
    ("exp(i*z)", lambda z: cmath.exp(1j * z)),
    ("sin(z)^2 + cos(z)^2", lambda z: 1.0 + 0j),
    ("(z^2 - 1)/(z^2 + 1)", lambda z: (z * z - 1) / (z * z + 1)),
])
def test_evaluation_matches_reference(src, fn):
    e = parse_expr(src)
    for z in POINTS:
        assert evaluate(e, z) == pytest.approx(fn(z), rel=1e-12, abs=1e-12)


def test_pole_is_signalled_not_raised():
    assert isinstance(ev("1/(z - 1)", 1.0), PoleSignal)
    assert isinstance(ev("z/z", 0.0), PoleSignal)
    assert isinstance(ev("(z - 1)^-2", 1.0), PoleSignal)
    assert isinstance(ev("exp(z^2)", 40.0), PoleSignal)
    assert ev("exp(z^2)", 40.0).overflow
    assert not ev("1/(z - 1)", 1.0).overflow


def test_division_by_literal_zero_rejected():
    with pytest.raises(InvalidExpressionError):
        parse_expr("1/0")


@pytest.mark.parametrize("src", ["exp(1000)", "10^400", "9" * 400,
                                 "10^200*10^200", "1/10^-320"])
def test_overflowing_constant_rejected(src):
    """Constant folding never yields an infinite constant."""
    with pytest.raises(InvalidExpressionError):
        parse_expr(src)


@pytest.mark.parametrize("src", ["exp(1/z)", "exp(tan(z))", "sin(1/(z - 3))",
                                 "cos(z^-1)", "tan(exp(z)/z)"])
def test_call_on_an_argument_with_poles_rejected(src):
    """exp, sin, cos and tan of a non-entire argument are outside the
    class: not meromorphic, so no T(r) of theirs means anything."""
    with pytest.raises(InvalidExpressionError):
        parse_expr(src)


@pytest.mark.parametrize("src,fn", [
    ("exp(z/exp(z))", lambda z: cmath.exp(z / cmath.exp(z))),
    ("sin(z/(-2*exp(z))^3)",
     lambda z: cmath.sin(z / (-2 * cmath.exp(z)) ** 3)),
])
def test_call_on_an_argument_over_exponentials_accepted(src, fn):
    """A denominator of constants and exponentials never vanishes."""
    for z in POINTS:
        assert ev(src, z) == pytest.approx(fn(z), rel=1e-12)


@pytest.mark.parametrize("src", ["", "z +", "exp(", "2z", "w", "z ^ z", "(z"])
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse_expr(src)


@pytest.mark.parametrize("src", [
    "z^5",
    "exp(3*z)",
    "sin(z)*cos(z)",
    "(z^2 + 1)/(z - 3)",
    "exp(z)*sin(z) - z^4/(z^2 + 2)",
    "tan(z)",
])
def test_derivative_matches_central_difference(src):
    e = parse_expr(src)
    de = differentiate(e)
    h = 1e-6
    for z in POINTS:
        numeric = (evaluate(e, z + h) - evaluate(e, z - h)) / (2 * h)
        assert evaluate(de, z) == pytest.approx(numeric, rel=5e-5, abs=5e-5)


def test_fourth_derivative_of_sine_cycles_back():
    e = parse_expr("sin(z)")
    d4 = e
    for _ in range(4):
        d4 = differentiate(d4)
    for z in POINTS:
        assert evaluate(d4, z) == pytest.approx(evaluate(e, z),
                                                rel=1e-10, abs=1e-12)


def test_quotient_form_clears_nested_fractions():
    e = parse_expr("1/(z - 1) + 1/(z + 1)")
    q = to_quotient(e)
    for z in POINTS:
        got = evaluate(q.num, z) / evaluate(q.den, z)
        assert got == pytest.approx(evaluate(e, z), rel=1e-12)


def test_quotient_form_of_tan_has_entire_parts():
    """Both parts stay finite even at the poles of the quotient."""
    q = to_quotient(parse_expr("tan(z)"))
    z = math.pi / 2
    assert cmath.isfinite(complex(evaluate(q.num, z)))
    assert cmath.isfinite(complex(evaluate(q.den, z)))


@pytest.mark.parametrize("e", [
    "z^3 - 2*z + 1",
    "exp(2*z)/(z - 1)",
    "sin(z)*exp(-z)",
    "(z + i)^2",
    Const(1e-13),
    Const(1e20),
    Const(1 / 3),
    Const(1 + 1e-15),
    Const(0.1 - 1j / 3),
], ids=str)
def test_grammar_round_trip(e):
    """The text reads back as an expression with the same values, bit for
    bit: every constant prints as a decimal that reads back as itself."""
    e = parse_expr(e) if isinstance(e, str) else e
    back = parse_expr(to_grammar(e))
    for z in POINTS:
        assert evaluate(back, z) == evaluate(e, z)


def test_derivatives_of_tan_match_mpmath():
    """Vector and scalar evaluation of the first four derivatives of tan
    against mpmath at 50 digits, at points off the poles."""
    zs = np.array(POINTS, dtype=complex)
    e = parse_expr("tan(z)")
    with mpmath.workdps(50):
        for k in range(1, 5):
            e = differentiate(e)
            want = np.array([complex(mpmath.diff(mpmath.tan, mpmath.mpc(z), k))
                             for z in POINTS])
            vector = compile_expr(e)(zs)
            scalar = np.array([evaluate(e, z) for z in POINTS])
            assert np.all(np.abs(vector - want) <= 1e-12 * np.abs(want)), k
            assert np.all(np.abs(scalar - want) <= 1e-12 * np.abs(want)), k


def test_compiled_overflow_is_silent_inf():
    """Blowups propagate as inf without tripping warning filters."""
    fn = compile_expr(parse_expr("exp(z^2)"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fn(np.array([60.0 + 0.0j]))
    assert np.isinf(np.abs(out)).all()


def _bits(values) -> list[bytes]:
    return [np.asarray(v, dtype=complex).tobytes() for v in values]


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return Z
        return Const(complex(rng.uniform(-2, 2), rng.choice([0.0, -0.0, 1.5])))
    kids = [_random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    op = rng.randrange(6)
    if op == 0:
        return add(*kids)
    if op == 1:
        return mul(*kids)
    if op == 2:
        return neg(kids[0])
    if op == 3 and len(kids) > 1 and not isinstance(kids[1], Const):
        return div(kids[0], kids[1])
    if op == 4:
        return intpow(kids[0], rng.choice([-3, -2, 2, 3, 4]))
    return exp_e(mul(Const(0.3), kids[0]))


def _lem_35_numerators():
    """Numerators of P(f) - 1 and P(f)' for P = f*f'' on tan(z)."""
    applied = DiffPolynomial.from_exponents((1, (1, 0, 1))).apply(
        parse_expr("tan(z)"))
    return [canonical_quotient(sub(applied, ONE)).num,
            canonical_quotient(differentiate(applied)).num]


def _jets():
    rng = random.Random(7304)
    trees = _lem_35_numerators() + [_random_tree(rng, 4) for _ in range(40)]
    for e in trees:
        de = differentiate(e)
        yield e, de, differentiate(de)


def test_joint_program_is_bitwise_the_separate_programs():
    """f, f' and f'' lowered together give the bits of their separate
    programs, on single points and on arrays."""
    zs = np.array(POINTS + [0.0, 1.5, -2.5j, 3.0 + 3.0j])
    for jet in _jets():
        joint = compile_expr(jet)
        separate = [compile_expr(e) for e in jet]
        got = joint(zs)
        assert isinstance(got, tuple) and len(got) == 3
        assert _bits(got) == _bits(fn(zs) for fn in separate)
        for z in zs:
            point = np.complex128(z)
            assert _bits(joint(point)) == _bits(fn(point) for fn in separate)


def test_outputs_are_not_clobbered_on_arrays():
    """An output read by a later root, and a root given twice, come back
    with their own values."""
    zs = np.linspace(-2, 2, 9) + 0.5j
    shifted = add(Z, ONE)
    product = mul(shifted, exp_e(Z))
    first, second = compile_expr((shifted, product))(zs)
    assert _bits([first, second]) == _bits(
        [compile_expr(shifted)(zs), compile_expr(product)(zs)])
    assert _bits([first]) == _bits([zs + 1])
    e = _lem_35_numerators()[0]
    assert _bits(compile_expr((e, e))(zs)) == _bits([compile_expr(e)(zs)] * 2)


@pytest.mark.parametrize("c", [complex(-0.0, -1.0), complex(1 / 3, -2 / 7),
                               complex(5e-324, -0.0)])
def test_constants_reach_the_executor_bit_for_bit(c):
    """A constant keeps its sign bits and last digits through _run, on an
    np.complex128 point with np.exp and on a complex point with cmath.exp."""
    prog = _lower((Const(c), mul(Const(c), Z)))
    for z, exp in ((np.complex128(0.5), np.exp), (0.5 + 0j, cmath.exp)):
        value, product = _run(prog, z, exp)
        assert _bits([value]) == _bits([c])
        assert _bits([product]) == _bits([c * z])


def test_signed_zero_constants_get_their_own_programs():
    """Constants equal as numbers but not in the sign of a zero part are
    different keys, with the same hash, so a compiled constant keeps its
    sign whatever the process compiled before it."""
    positive, negative = Const(complex(0.0, -1.0)), Const(complex(-0.0, -1.0))
    assert positive != negative and hash(positive) == hash(negative)
    assert positive == Const(complex(0.0, -1.0))
    compile_expr(positive)(0.5)
    assert _bits([compile_expr(negative)(0.5)]) == _bits([negative.value])


@pytest.mark.parametrize("src", ["tan(z)^3*(z - 1)", "sin(z) - i*cos(z)",
                                 "exp((1 + i)*z)/(z^2 + 4) - z^-2"])
def test_trees_built_apart_are_equal_and_hash_equal(src):
    """Nodes compare by structure, not identity: two trees built separately
    (parsed twice, differentiated from each) are equal and hash equal."""
    a, b = parse_expr(src), parse_expr(src)
    da = differentiate(a)
    db = differentiate.__wrapped__(b)           # built anew, not from the cache
    for x, y in ((a, b), (da, db)):
        assert x is not y
        assert x == y and not x != y and hash(x) == hash(y)
    assert {a: 1}[b] == 1 and a != da


def test_node_equality_is_by_class_and_fields():
    assert Const(0.0) != Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
    assert Const(2) == Const(2.0 + 0j)
    assert Z == Var() and hash(Z) == hash(Var())
    assert Neg(Z) != Exp(Z) and IntPow(Z, 2) != IntPow(Z, 3)
    assert Div(Z, ONE) != Div(ONE, Z)
    assert Add((Z, ONE)) != Mul((Z, ONE))
    assert Mul((Const(-0.0), Z)) != Mul((Const(0.0), Z))
    assert Z != "z" and Const(1.0) != 1.0


def test_node_repr_names_its_fields():
    assert repr(parse_expr("2*z - exp(z)^-3")) == (
        "Add(terms=(Mul(factors=(Const(value=(2+0j)), Var())), "
        "Neg(child=IntPow(base=Exp(arg=Var()), power=-3))))")
    assert str(Div(Z, Add((Z, ONE)))) == "z/(z+1)"
