"""nevlab: differential polynomials and Nevanlinna functionals, numerically.

The package is organised as a pipeline.  ``gaussian`` holds the exact
arithmetic of Gaussian integers, Gaussian rationals and polynomials over
Z[i]; ``expr`` holds the expression trees and the grammar; ``exppoly``
reduces entire expressions to an exact exponential-polynomial form for
identity and constancy decisions; ``diffpoly`` models differential
polynomials and their combinatorial statistics; ``moments`` reads a disk's
zeros from the moments of f'/f on its circle; ``lattice`` reads the zeros of
one-frequency exponential atoms from their exact form; ``locator`` finds
zeros and poles in closed disks by the argument principle; ``nevanlinna``
integrates proximity and counting functions over located divisors;
``theorems`` assembles those pieces into named inequality and identity
checks with a uniform verdict model; ``cli`` drives everything from
declarative JSON run specifications.
"""

from .expr import (Add, Const, Div, Exp, Expr, IntPow, Mul, Neg, ParseError,
                   InvalidExpressionError, PoleSignal, QuotientForm, Var,
                   compile_expr, differentiate, evaluate, parse_expr,
                   to_grammar, to_quotient)
from .exppoly import (Constancy, ExpPoly, ZeroVerdict, canonical,
                      canonical_quotient, derivative_chain, is_constant,
                      is_identically_zero, set_probabilistic_seed,
                      to_exp_poly)
from .diffpoly import (DiffMonomial, DiffPolynomial, PolyStats,
                       contains_exponential, poly_stats, validate_hypotheses)
from .locator import (ConservationError, Divisor, DivisorPoint, LocatorError,
                      MaxDepthExceededError, NonIntegerResidualError,
                      RadiusMismatchError, RingTooCloseError, clear_radius,
                      divisor_of, divisor_pair_at, find_zeros, winding_number)
from .nevanlinna import (CountingMode, QuadratureError, RadialSample,
                         characteristic, counting, nevanlinna_rows, proximity,
                         radial_grid)
from .theorems import (CHECKS, CheckReport, CheckRow, DEFAULT_EPSILON,
                       DEFAULT_EQ_TOLERANCE, EvalContext, TooFewRowsError,
                       default_radii, run_check, verdict)

__version__ = "0.1.0"

__all__ = [
    "Add", "CHECKS", "CheckReport", "CheckRow", "Const", "Constancy",
    "ConservationError", "CountingMode", "DEFAULT_EPSILON",
    "DEFAULT_EQ_TOLERANCE", "DiffMonomial", "DiffPolynomial", "Div",
    "Divisor", "DivisorPoint", "EvalContext", "Exp", "ExpPoly", "Expr",
    "IntPow", "InvalidExpressionError", "LocatorError",
    "MaxDepthExceededError", "Mul", "Neg", "NonIntegerResidualError",
    "ParseError", "PoleSignal", "PolyStats", "QuadratureError",
    "QuotientForm", "RadialSample", "RadiusMismatchError",
    "RingTooCloseError", "TooFewRowsError", "Var", "ZeroVerdict",
    "canonical", "canonical_quotient", "characteristic", "clear_radius",
    "compile_expr", "contains_exponential",
    "counting", "default_radii", "derivative_chain", "differentiate",
    "divisor_of", "divisor_pair_at", "evaluate", "find_zeros", "is_constant",
    "is_identically_zero", "nevanlinna_rows", "parse_expr", "poly_stats",
    "proximity", "radial_grid", "run_check", "set_probabilistic_seed",
    "to_exp_poly", "to_grammar", "to_quotient", "validate_hypotheses",
    "verdict", "winding_number", "__version__",
]
