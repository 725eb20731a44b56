"""Expression trees for a restricted class of meromorphic functions.

The working class is built from the variable z and complex constants by
+, -, *, /, nonzero integer powers and exp of entire subexpressions.
sin, cos and tan are accepted by the parser and rewritten through the
exponential (Euler) form, so every function handled downstream is a
quotient of entire expressions involving only polynomials and exponentials.
The parser rejects exp, sin, cos or tan of an argument whose quotient form
has a denominator other than a product of constants and exponentials, such
as exp(1/z) or exp(tan(z)).

Trees are immutable by convention.  Equality is structural, and each node
hashes once, when it is built, from its children's stored hashes, so the
heavier modules memoise compiled evaluators, derivative chains and exact
forms at the cost of one hash per lookup.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Neg", "Div", "IntPow", "Exp",
    "PoleSignal", "QuotientForm", "ParseError", "InvalidExpressionError",
    "add", "sub", "mul", "neg", "div", "intpow", "exp_e",
    "Z", "ONE", "ZERO",
    "parse_expr", "differentiate", "evaluate", "compile_expr",
    "to_quotient", "to_grammar",
]


class InvalidExpressionError(ValueError):
    """Raised for structurally invalid expressions (e.g. a literal 0 denominator)."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Expr:
    """A tree node, immutable by convention.  Its hash is computed once, at
    construction, from its children's stored hashes: hash of the tuple of
    its fields, as a frozen dataclass would give.  Equality is structural;
    it is settled at once by identity or by unequal hashes."""

    __slots__ = ("_hash",)
    _key = staticmethod(lambda e: ())        # the fields, as one value

    def __init__(self):
        self._hash = hash(())

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._key = operator.attrgetter(*cls.__slots__)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and \
            self._key(self) == other._key(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__) + ")"

    def __str__(self) -> str:
        return to_grammar(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: complex):
        self.value = value = complex(value)
        self._hash = hash((value,))

    def __eq__(self, other):
        # 0.0 == -0.0, yet the sign of a zero part reaches results, so two
        # constants are equal only when their parts also agree in that sign.
        # The hash, hash((value,)), stays consistent with this.
        if other.__class__ is not Const:
            return NotImplemented
        a, b = self.value, other.value
        sign = math.copysign
        return a is b or a == b and (
            (a.real != 0.0 or sign(1.0, a.real) == sign(1.0, b.real))
            and (a.imag != 0.0 or sign(1.0, a.imag) == sign(1.0, b.imag)))

    __hash__ = Expr.__hash__


class Var(Expr):
    __slots__ = ()


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms
        self._hash = hash((terms,))


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors
        self._hash = hash((factors,))


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child
        self._hash = hash((child,))


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        self.num, self.den = num, den
        self._hash = hash((num, den))


class IntPow(Expr):
    __slots__ = ("base", "power")

    def __init__(self, base: Expr, power: int):
        self.base, self.power = base, power
        self._hash = hash((base, power))


class Exp(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._hash = hash((arg,))


@dataclass(frozen=True)
class PoleSignal:
    """Returned by evaluate() where the expression has (or overflows into) a pole."""
    overflow: bool = False


Z = Var()
ZERO = Const(0.0)
ONE = Const(1.0)

# The children of each node, in order.
_CHILDREN = {Add: lambda e: e.terms, Mul: lambda e: e.factors,
             Neg: lambda e: (e.child,), Div: lambda e: (e.num, e.den),
             IntPow: lambda e: (e.base,), Exp: lambda e: (e.arg,),
             Const: lambda e: (), Var: lambda e: ()}


# ---------------------------------------------------------------------------
# smart constructors
#
# These keep derivative trees small: they flatten nested sums/products, drop
# additive zeros and multiplicative ones, and fold constant subtrees.  They
# never reorder non-constant operands, so construction stays deterministic.

def _folded(value: complex) -> Const:
    """A folded constant; overflow makes the expression invalid rather than
    a silent Const(inf)."""
    if not cmath.isfinite(value):
        raise InvalidExpressionError("a constant overflows")
    return Const(value)


def add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    kept = [t for t in flat if not (isinstance(t, Const) and t.value == 0)]
    if not kept:
        return ZERO
    if len(kept) == 1:
        return kept[0]
    return Add(tuple(kept))


def mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    coeff = complex(1.0)
    kept: list[Expr] = []
    for f in flat:
        if isinstance(f, Const):
            coeff *= f.value
        else:
            kept.append(f)
    if coeff == 0:
        return ZERO
    if coeff != 1:
        kept.insert(0, _folded(coeff))
    if not kept:
        return ONE
    if len(kept) == 1:
        return kept[0]
    return Mul(tuple(kept))


def neg(x: Expr) -> Expr:
    if isinstance(x, Neg):
        return x.child
    return Neg(x)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def intpow(base: Expr, power: int) -> Expr:
    if power == 0:
        return ONE
    if power == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0:
            if power > 0:
                return ZERO
            raise InvalidExpressionError("0 raised to a negative power")
        try:
            return _folded(base.value ** power)
        except OverflowError:
            raise InvalidExpressionError(
                "a constant power overflows") from None
    if isinstance(base, IntPow):
        return intpow(base.base, base.power * power)
    return IntPow(base, power)


def div(num: Expr, den: Expr) -> Expr:
    if isinstance(den, Const):
        if den.value == 0:
            raise InvalidExpressionError("denominator is the literal constant 0")
        if den.value == 1:
            return num
        return mul(_folded(1.0 / den.value), num)
    if isinstance(num, Const) and num.value == 0:
        return ZERO
    return Div(num, den)


def exp_e(arg: Expr) -> Expr:
    if isinstance(arg, Const):
        try:
            return _folded(cmath.exp(arg.value))
        except OverflowError:
            raise InvalidExpressionError(
                "a constant exponential overflows") from None
    return Exp(arg)


# ---------------------------------------------------------------------------
# parser

_I = Const(1j)
_NEG_I = Const(-1j)
_FUNCS = ("exp", "sin", "cos", "tan")


def _zero_free(e: Expr) -> bool:
    """True for a product of nonzero constants and exponentials."""
    if isinstance(e, (Mul, Neg, IntPow)):
        return all(map(_zero_free, _CHILDREN[type(e)](e)))
    return isinstance(e, Exp) or isinstance(e, Const) and e.value != 0


def _desugar_call(name: str, w: Expr) -> Expr:
    """name(w) in exponential form; w must be entire, which its quotient
    form shows when the denominator cannot vanish."""
    if name == "exp":
        out = exp_e(w)
    else:
        plus = exp_e(mul(_I, w))
        minus = exp_e(mul(_NEG_I, w))
        if name == "sin":
            out = div(sub(plus, minus), Const(2j))
        elif name == "cos":
            out = div(add(plus, minus), Const(2.0))
        else:
            out = div(div(sub(plus, minus), Const(2j)),
                      div(add(plus, minus), Const(2.0)))
    if not _zero_free(to_quotient(w).den):
        raise InvalidExpressionError(
            f"{name} of an argument that may have poles is outside the class")
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.error(f"expected '{ch}'")

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                terms.append(self.term())
            elif c == "-":
                self.pos += 1
                terms.append(neg(self.term()))
            else:
                break
        return add(*terms) if len(terms) > 1 else terms[0]

    def term(self) -> Expr:
        e = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                e = mul(e, self.factor())
            elif c == "/":
                self.pos += 1
                e = div(e, self.factor())
            else:
                break
        return e

    def factor(self) -> Expr:
        # '^' binds tighter than unary minus: -z^2 reads as -(z^2)
        if self.peek() == "-":
            self.pos += 1
            return neg(self.factor())
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            return intpow(base, self.signed_int())
        return base

    def signed_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer exponent")
        return int(self.text[start:self.pos])

    def base(self) -> Expr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha():
            return self.ident()
        self.error("expected a number, identifier or '('")

    def number(self) -> Expr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        lit = self.text[start:self.pos]
        if lit in ("", "."):
            self.error("malformed number")
        return _folded(float(lit))

    def ident(self) -> Expr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        name = self.text[start:self.pos]
        if name == "z":
            return Z
        if name == "i":
            return _I
        if name in _FUNCS:
            self.expect("(")
            w = self.expr()
            self.expect(")")
            return _desugar_call(name, w)
        self.pos = start
        self.error(f"unknown identifier '{name}'")


def parse_expr(text: str) -> Expr:
    """Parse the grammar (z, i, decimal numbers, + - * / ^int, exp/sin/cos/tan)."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# differentiation

@functools.cache
def differentiate(e: Expr) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Add):
        return add(*(differentiate(t) for t in e.terms))
    if isinstance(e, Neg):
        return neg(differentiate(e.child))
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            parts.append(mul(*fs[:i], differentiate(f), *fs[i + 1:]))
        return add(*parts)
    if isinstance(e, Div):
        n, d = e.num, e.den
        return div(sub(mul(differentiate(n), d), mul(n, differentiate(d))),
                   intpow(d, 2))
    if isinstance(e, IntPow):
        return mul(Const(e.power), intpow(e.base, e.power - 1),
                   differentiate(e.base))
    if isinstance(e, Exp):
        return mul(differentiate(e.arg), e)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


# ---------------------------------------------------------------------------
# lowered evaluation
#
# Derivative trees repeat their subtrees many times over: the Newton second
# derivative in lem_35 on tan(z) has 3819 nodes but only 84 distinct
# subtrees.  _lower turns a tuple of trees into one branch-free program
# that computes each structurally distinct subtree once, in topological
# order (sums and products as chains of binary steps), with one output slot
# per tree; the nodes' structural equality and stored hash do the
# deduplication, so f, f' and f'' lowered together share their common
# subtrees.  Operands keep their order in the tree, so every value comes
# from the same float operations that a walk of the tree would make,
# whichever program it is lowered into.
#
# _run is the one executor.  It steps through a program on an array, on
# one np.complex128 point or on one Python complex point, with the
# exponential it is given (cmath.exp on complex, which raises where numpy
# gives inf or nan).  Constants stay scalars, and a wholly constant output
# is broadcast to the shape of z at the end (a 0-d array for a point).
# Each intermediate is released after its last use, and on complex arrays
# a dying intermediate takes the result of the elementwise step that reads
# it, so peak memory follows the number of values live at once, not the
# length of the program; an output slot is never released and never
# taken.

_Z, _CONST, _ADD, _SUB, _MUL, _NEG, _DIV, _POW, _EXP = range(9)
_SCALE, _REAL, _LOG_ABS = range(9, 12)     # log-magnitude steps only
_UFUNCS = {_ADD: np.add, _SUB: np.subtract, _MUL: np.multiply,
           _DIV: np.divide, _NEG: np.negative, _EXP: np.exp}


@dataclass(frozen=True)
class _Program:
    # Instruction i is (op, a, b, arg, reuse, last_a, last_b): a and b are
    # operand slots (b is None for one operand), reuse is an operand slot
    # whose array may hold the result, and last_a, last_b flag the operands
    # that i reads for the last time.  Slot i holds the result of i.
    code: tuple[tuple, ...]
    outputs: tuple[int, ...]               # the slot of each root
    constant: tuple[bool, ...]             # per output: it never reads z


@functools.cache
def _lower(roots: tuple[Expr, ...], log_abs: bool = False) -> _Program:
    """Branch-free program computing each root, or ln|root| when log_abs
    is set, in one output slot per root.

    The log-magnitude form is structural, which keeps it inside floating
    point range where the value itself overflows: products, quotients and
    integer powers become sums, differences and multiples of logs, an
    exponential contributes Re(arg) exactly, and only sums and z itself fall
    back to log|value|."""
    code: list = []
    slots: dict = {}

    def emit(key, op: int, a=None, b=None, arg=None) -> int:
        if key is not None:
            slots[key] = len(code)
        code.append((op, a, b, arg))
        return len(code) - 1

    def fold(key, op: int, items, lower) -> int:
        # A left fold of binary steps, each operand lowered just before its
        # step, so a long sum holds two values live instead of all its terms.
        acc = lower(items[0])
        for k in range(1, len(items)):
            acc = emit(key if k == len(items) - 1 else None, op,
                       acc, lower(items[k]))
        return acc

    def value(x: Expr) -> int:
        i = slots.get(x)
        if i is not None:
            return i
        if isinstance(x, Const):
            return emit(x, _CONST, arg=x.value)
        if isinstance(x, Var):
            return emit(x, _Z)
        if isinstance(x, Add):
            return fold(x, _ADD, x.terms, value)
        if isinstance(x, Mul):
            return fold(x, _MUL, x.factors, value)
        if isinstance(x, Neg):
            return emit(x, _NEG, value(x.child))
        if isinstance(x, Div):
            return emit(x, _DIV, value(x.num), value(x.den))
        if isinstance(x, IntPow):
            return emit(x, _POW, value(x.base), arg=x.power)
        if isinstance(x, Exp):
            return emit(x, _EXP, value(x.arg))
        raise TypeError(f"cannot evaluate {type(x).__name__}")

    def log(x: Expr) -> int:
        if isinstance(x, Neg):
            return log(x.child)
        key = ("log", x)
        i = slots.get(key)
        if i is not None:
            return i
        if isinstance(x, Const):
            v = abs(x.value)
            return emit(key, _CONST, arg=math.log(v) if v else -math.inf)
        if isinstance(x, Mul):
            return fold(key, _ADD, x.factors, log)
        if isinstance(x, Div):
            return emit(key, _SUB, log(x.num), log(x.den))
        if isinstance(x, IntPow):
            return emit(key, _SCALE, log(x.base), arg=x.power)
        if isinstance(x, Exp):
            return emit(key, _REAL, value(x.arg))
        if isinstance(x, (Var, Add)):
            return emit(key, _LOG_ABS, value(x))
        raise TypeError(f"cannot evaluate {type(x).__name__}")

    outputs = tuple((log if log_abs else value)(e) for e in roots)
    last = {s: i for i, (_, a, b, _) in enumerate(code) for s in (a, b)}
    last.update(dict.fromkeys(outputs, len(code)))   # outputs live to the end
    # At its last read, an array this program made may take the result of
    # an elementwise step, unless it is z or a real-part view shares it.
    varies: list[bool] = []
    for op, a, b, _ in code:
        varies.append(op == _Z or any(varies[s] for s in (a, b)
                                      if s is not None))
    pinned = {a for op, a, _, _ in code if op == _REAL}
    lowered = []
    for i, (op, a, b, arg) in enumerate(code):
        reuse = None
        if op in _UFUNCS:
            reuse = next((s for s in (a, b) if s is not None and last[s] == i
                          and varies[s] and s not in pinned
                          and code[s][0] not in (_Z, _REAL)), None)
        lowered.append((op, a, b, arg, reuse, a is not None and last[a] == i,
                        b is not None and last[b] == i))
    return _Program(tuple(lowered), outputs,
                    tuple(not varies[s] for s in outputs))


def _run(prog: _Program, z, exp=np.exp) -> tuple:
    # Overwriting is safe only when every array is complex and of z's shape.
    inplace = isinstance(z, np.ndarray) and z.dtype == complex
    vals: list = [None] * len(prog.code)
    for i, (op, a, b, arg, reuse, last_a, last_b) in enumerate(prog.code):
        if inplace and reuse is not None:
            if b is None:
                v = _UFUNCS[op](vals[a], out=vals[reuse])
            else:
                v = _UFUNCS[op](vals[a], vals[b], out=vals[reuse])
        elif op == _MUL:
            v = vals[a] * vals[b]
        elif op == _ADD:
            v = vals[a] + vals[b]
        elif op == _POW:
            v = vals[a] ** arg
        elif op == _NEG:
            v = -vals[a]
        elif op == _DIV:
            v = vals[a] / vals[b]
        elif op == _EXP:
            v = exp(vals[a])
        elif op == _CONST:
            v = arg
        elif op == _Z:
            v = z
        elif op == _SUB:
            v = vals[a] - vals[b]
        elif op == _SCALE:
            v = arg * vals[a]
        elif op == _REAL:
            v = np.real(vals[a])
        else:
            v = np.log(np.abs(vals[a]))
        vals[i] = v
        if last_a:
            vals[a] = None
        if last_b:
            vals[b] = None
    return tuple(np.full(np.shape(z), vals[s]) if const else vals[s]
                 for s, const in zip(prog.outputs, prog.constant))


def _evaluator(prog: _Program, joint: bool):
    """Evaluator of prog through _run, on an array or on one point as
    np.complex128.  Returns the tuple of outputs when joint, otherwise the
    one output."""
    def run(z):
        with np.errstate(all="ignore"):
            out = _run(prog, z if np.ndim(z) else np.complex128(z))
        return out if joint else out[0]
    return run


@functools.cache
def compile_expr(e: Expr | tuple[Expr, ...]):
    """Vectorised evaluator; overflow and division produce inf/nan silently.

    Given a tuple of expressions, the evaluator returns the tuple of their
    values from one program that computes each shared subtree once, bit for
    bit as the separate evaluators would."""
    joint = isinstance(e, tuple)
    return _evaluator(_lower(e if joint else (e,)), joint)


def evaluate(e: Expr, z: complex):
    """Evaluate at a point, through _run on complex with cmath.exp.
    Returns a complex value, or a PoleSignal when a denominator vanishes
    (overflow is reported as a PoleSignal with the magnitude flag set)."""
    try:
        v, = _run(_lower((e,)), complex(z), cmath.exp)
    except ZeroDivisionError:
        return PoleSignal()
    except OverflowError:
        return PoleSignal(overflow=True)
    v = complex(v)                  # a constant output is a 0-d array
    if not cmath.isfinite(v):
        return PoleSignal(overflow=True)
    return v


# ---------------------------------------------------------------------------
# quotient form

@dataclass(frozen=True)
class QuotientForm:
    """A meromorphic expression as a quotient of two entire expressions."""
    num: Expr
    den: Expr


def _q(e: Expr) -> tuple[Expr, Expr]:
    if isinstance(e, (Const, Var, Exp)):
        return e, ONE
    if isinstance(e, Neg):
        n, d = _q(e.child)
        return neg(n), d
    if isinstance(e, Add):
        acc_n, acc_d = _q(e.terms[0])
        for t in e.terms[1:]:
            n, d = _q(t)
            if d == acc_d:
                acc_n = add(acc_n, n)
            else:
                acc_n = add(mul(acc_n, d), mul(n, acc_d))
                acc_d = mul(acc_d, d)
        return acc_n, acc_d
    if isinstance(e, Mul):
        ns, ds = [], []
        for f in e.factors:
            n, d = _q(f)
            ns.append(n)
            ds.append(d)
        return mul(*ns), mul(*ds)
    if isinstance(e, Div):
        nn, nd = _q(e.num)
        dn, dd = _q(e.den)
        return mul(nn, dd), mul(nd, dn)
    if isinstance(e, IntPow):
        n, d = _q(e.base)
        if e.power > 0:
            return intpow(n, e.power), intpow(d, e.power)
        return intpow(d, -e.power), intpow(n, -e.power)
    raise TypeError(f"cannot form quotient of {type(e).__name__}")


def to_quotient(e: Expr) -> QuotientForm:
    """Rewrite as num/den with entire num and den.

    Exp factors stay atomic (their arguments are required to be entire by the
    class definition).  The denominator is not tested for vanishing
    identically; exppoly.canonical_quotient does that.
    """
    return QuotientForm(*_q(e))


# ---------------------------------------------------------------------------
# unparser

def _fmt_real(x: float) -> str:
    """The shortest decimal that reads back as x, without an exponent."""
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return np.format_float_positional(x, unique=True, trim="-")


def format_complex(c: complex) -> str:
    re, im = c.real, c.imag
    if im == 0:
        return _fmt_real(re) if re >= 0 else f"(0-{_fmt_real(-re)})"
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "(0-i)"
        if im > 0:
            return f"({_fmt_real(im)}*i)"
        return f"(0-{_fmt_real(-im)}*i)"
    im_part = "i" if im == 1 else f"{_fmt_real(abs(im))}*i" if im > 0 else None
    if im > 0:
        return f"({_fmt_real(re) if re > 0 else '0-' + _fmt_real(-re)}+{im_part})"
    im_abs = "i" if im == -1 else f"{_fmt_real(-im)}*i"
    return f"({_fmt_real(re) if re > 0 else '0-' + _fmt_real(-re)}-{im_abs})"


def to_grammar(e: Expr) -> str:
    """Serialise back to the input grammar.  Each part of a constant prints
    as the shortest decimal that reads back as it, so parsing the text gives
    an expression that evaluates identically to e, and e itself unless a
    constant is negative or non-real: those print as sums or negations of
    literals."""
    if isinstance(e, Const):
        return format_complex(e.value)
    if isinstance(e, Var):
        return "z"
    if isinstance(e, Add):
        parts = [to_grammar(e.terms[0])]
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                parts.append(f"-{_wrap_term(t.child)}")
            else:
                parts.append(f"+{_wrap_term(t)}")
        return "".join(parts)
    if isinstance(e, Neg):
        # a bare -a*b would read back as (-a)*b
        return f"-{_wrap_factor(e.child)}"
    if isinstance(e, Mul):
        return "*".join(_wrap_factor(f) for f in e.factors)
    if isinstance(e, Div):
        return f"{_wrap_factor(e.num)}/{_wrap_factor(e.den)}"
    if isinstance(e, IntPow):
        return f"{_wrap_base(e.base)}^{e.power}"
    if isinstance(e, Exp):
        return f"exp({to_grammar(e.arg)})"
    raise TypeError(f"cannot serialise {type(e).__name__}")


def _wrap_term(e: Expr) -> str:
    if isinstance(e, Add):
        return f"({to_grammar(e)})"
    return to_grammar(e)


def _wrap_factor(e: Expr) -> str:
    if isinstance(e, (Add, Neg, Div, Mul)):
        return f"({to_grammar(e)})"
    return to_grammar(e)


def _wrap_base(e: Expr) -> str:
    if isinstance(e, (Add, Neg, Div, Mul, IntPow)):
        return f"({to_grammar(e)})"
    return to_grammar(e)
