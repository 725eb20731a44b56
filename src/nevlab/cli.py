"""Command-line front end: declarative JSON run specifications in, reports out.

The run spec is validated fail-closed: unknown keys anywhere in the document
are errors, because a silently ignored typo ("epsiln") would turn a strict
verification run into a vacuous one.  All floating-point output is printed
with 12 significant digits, and byte-identical output for identical spec and
seed is part of the contract (--reproducible drops the one timestamp line).
A JSON check entry is CheckReport.summary() with the check's params after
its id, and a nev row carries the fields of RadialSample.

Exit codes: 0 every requested check passed; 1 at least one check failed;
2 hypothesis violation or nothing but vacuous instances; 3 the spec or an
expression in it did not parse; 4 a numerical budget was exhausted (root
location or quadrature).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone

from .diffpoly import HYPOTHESIS_CHECKS, DiffPolynomial, poly_stats
from .expr import Expr, InvalidExpressionError, ParseError, parse_expr
from .exppoly import set_probabilistic_seed
from .locator import PARTIAL_RESULT, LocatorError, divisor_pair_at, negotiate
from .nevanlinna import (DEFAULT_QUAD_TOL, QuadratureError, RadialSample,
                         nevanlinna_rows, radial_grid)
from .theorems import (DEFAULT_EPSILON, DEFAULT_EQ_TOLERANCE, MIN_ROWS,
                       CheckReport, EvalContext, resolve_check, run_check)

__all__ = ["main", "load_spec", "SpecError", "RunSpec"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_VACUOUS = 2
EXIT_SPEC = 3
EXIT_NUMERIC = 4

DEFAULT_SEED = 0x5EED

_TOP_KEYS = {"function", "polynomial", "radii", "checks", "tolerances", "seed"}
_RADII_KEYS = {"start", "stop", "count", "spacing"}
# The most radii a run takes: far past any grid that runs in useful time,
# and far below what the grid's allocation can refuse (README).
_COUNT_MOST = 100000
_POLY_KEYS = {"monomials"}
_MONOMIAL_KEYS = {"coeff", "exponents"}
_CHECK_KEYS = {"id", "params"}
_TOL_KEYS = {"epsilon", "eq_tolerance", "quadrature_tol"}


class SpecError(Exception):
    """The run spec file is malformed or fails validation."""


@dataclass
class RunSpec:
    function: Expr | None
    function_src: str | None
    polynomial: DiffPolynomial | None
    polynomial_src: dict | None
    radii: list[float] | None
    radii_src: dict | None
    checks: list[tuple[str, dict]]
    epsilon: float
    eq_tolerance: float
    quad_tol: float
    seed: int


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise SpecError(f"unknown key(s) in {where}: {', '.join(extra)}")


def _positive(v, key: str) -> float:
    """A positive JSON number, not a boolean or a string, as a float."""
    try:
        if not isinstance(v, bool) and isinstance(v, (int, float)) and v > 0:
            return float(v)
    except OverflowError:
        pass
    raise SpecError(f"{key} must be a positive number in the float range")


def _parse_radii(raw, need_count: int) -> tuple[list[float], dict]:
    if not isinstance(raw, dict):
        raise SpecError("radii must be an object")
    _reject_unknown(raw, _RADII_KEYS, "radii")
    try:
        start = _positive(raw["start"], "radii.start")
        stop = _positive(raw["stop"], "radii.stop")
        count = raw["count"]
    except KeyError as exc:
        raise SpecError(f"radii needs {exc.args[0]}") from None
    spacing = raw.get("spacing", "log")
    if isinstance(count, bool) or not isinstance(count, int):
        raise SpecError("radii.count must be an integer")
    if not (0 < start < stop):
        raise SpecError("radii need 0 < start < stop")
    if count < need_count:
        raise SpecError(f"radii.count must be at least {need_count}")
    if count > _COUNT_MOST:
        raise SpecError(f"radii.count must be at most {_COUNT_MOST}")
    if spacing not in ("log", "linear"):
        raise SpecError("radii.spacing must be 'log' or 'linear'")
    return radial_grid(start, stop, count, spacing), dict(raw)


def _parse_polynomial(raw) -> tuple[DiffPolynomial, dict]:
    if not isinstance(raw, dict):
        raise SpecError("polynomial must be an object")
    _reject_unknown(raw, _POLY_KEYS, "polynomial")
    monomials = raw.get("monomials")
    if not isinstance(monomials, list) or not monomials:
        raise SpecError("polynomial.monomials must be a non-empty list")
    terms = []
    for i, m in enumerate(monomials):
        if not isinstance(m, dict):
            raise SpecError(f"monomial #{i} must be an object")
        _reject_unknown(m, _MONOMIAL_KEYS, f"monomial #{i}")
        if "exponents" not in m:
            raise SpecError(f"monomial #{i} needs exponents")
        exps = m["exponents"]
        if (not isinstance(exps, list) or not exps
                or any(isinstance(e, bool) or not isinstance(e, int)
                       for e in exps)):
            raise SpecError(f"monomial #{i} exponents must be integers")
        terms.append((m.get("coeff", 1), tuple(exps)))
    return DiffPolynomial.from_exponents(*terms), dict(raw)


def _parse_checks(raw) -> list[tuple[str, dict]]:
    if not isinstance(raw, list) or not raw:
        raise SpecError("checks must be a non-empty list")
    out = []
    for i, c in enumerate(raw):
        if isinstance(c, str):
            cid, params = c, {}
        elif isinstance(c, dict):
            _reject_unknown(c, _CHECK_KEYS, f"check #{i}")
            cid = c.get("id")
            params = c.get("params", {})
            if not isinstance(cid, str):
                raise SpecError(f"check #{i} needs a string id")
            if not isinstance(params, dict):
                raise SpecError(f"check #{i} params must be an object")
        else:
            raise SpecError(f"check #{i} must be a string or an object")
        try:
            resolve_check(cid, params)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        out.append((cid, dict(params)))
    return out


def _finite(text: str) -> float:
    """A JSON float that must be finite: NaN fails every comparison and
    Infinity (or a literal such as 1e400) passes every bound, so the checks
    below would let both through."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"number {text} is not finite")
    return x


def load_spec(path: str, command: str) -> RunSpec:
    """Read and validate a run spec for the given subcommand."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise SpecError(f"cannot read spec: {exc}") from None
    except ValueError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecError("spec must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "spec")

    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        raise SpecError("tolerances must be an object")
    _reject_unknown(tol, _TOL_KEYS, "tolerances")
    eps, eqt, qtol = (
        _positive(tol.get(name, default), f"tolerances.{name}")
        for name, default in (("epsilon", DEFAULT_EPSILON),
                              ("eq_tolerance", DEFAULT_EQ_TOLERANCE),
                              ("quadrature_tol", DEFAULT_QUAD_TOL)))

    seed = raw.get("seed", DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SpecError("seed must be an integer")
    env_seed = os.environ.get("NEVLAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise SpecError(f"NEVLAB_SEED must be an integer, "
                            f"got {env_seed!r}") from None

    function = function_src = None
    if "function" in raw:
        if not isinstance(raw["function"], str):
            raise SpecError("function must be a grammar string")
        function_src = raw["function"]
        try:
            function = parse_expr(function_src)
        except (ParseError, InvalidExpressionError) as exc:
            raise SpecError(f"function does not parse: {exc}") from None
    elif command != "stats":
        raise SpecError(f"'{command}' needs a function")

    polynomial = polynomial_src = None
    if "polynomial" in raw:
        try:
            polynomial, polynomial_src = _parse_polynomial(raw["polynomial"])
        except (ParseError, InvalidExpressionError, ValueError) as exc:
            raise SpecError(f"polynomial does not parse: {exc}") from None
    elif command == "stats":
        raise SpecError("'stats' needs a polynomial")

    radii = radii_src = None
    if "radii" in raw:
        radii, radii_src = _parse_radii(raw["radii"],
                                        MIN_ROWS if command == "check" else 1)
    elif command in ("zeros", "nev", "check"):
        raise SpecError(f"'{command}' needs radii")

    checks: list[tuple[str, dict]] = []
    if command == "check":
        if "checks" not in raw:
            raise SpecError("'check' needs a checks list")
        checks = _parse_checks(raw["checks"])
        for cid, _ in checks:
            if cid in HYPOTHESIS_CHECKS and polynomial is None:
                raise SpecError(
                    f"check '{cid}' needs a polynomial in the spec")
    elif "checks" in raw:
        raise SpecError(f"'{command}' does not take checks")

    return RunSpec(function, function_src, polynomial, polynomial_src,
                   radii, radii_src, checks, eps, eqt, qtol, seed)


# ---------------------------------------------------------------------------
# output formatting

def _fmt(x) -> str:
    return f"{x:.12g}"


def _round12(obj):
    """Recursively round floats to 12 significant digits for JSON output.

    Non-finite values become null: strict JSON has no NaN, and a row that
    errored carries its explanation in the error field anyway."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump_json(path: str, obj) -> None:
    _write(path, json.dumps(_round12(obj), indent=2, allow_nan=False) + "\n")


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _dump_csv(path: str, header: list[str], rows: list[list],
              comments: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # csv quotes "a,b"
        fh.writelines(f"# {c}\n" for c in comments)
        csv.writer(fh, lineterminator="\n").writerows(
            [header] + [[_csv_value(v) for v in row] for row in rows])


def _timestamp_lines(reproducible: bool) -> list[str]:
    if reproducible:
        return []
    return [f"generated {datetime.now(timezone.utc).isoformat(timespec='seconds')}"]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_stats(spec: RunSpec, out: str, fmt: str, args) -> int:
    stats = poly_stats(spec.polynomial).to_dict()
    if fmt == "json":
        _dump_json(out, stats)
    else:
        keys = list(stats)
        _dump_csv(out, keys, [[stats[k] for k in keys]],
                  _timestamp_lines(args.reproducible))
    return EXIT_PASS


def _cmd_zeros(spec: RunSpec, out: str, fmt: str, args) -> int:
    r = spec.radii[-1]
    try:
        rt, perturbed, pair = negotiate(
            r, lambda q: divisor_pair_at(spec.function, q, 0))
    except LocatorError as exc:
        print(f"nevlab: zero location failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    zeros = pair[0]
    if not zeros.valid:
        print(f"nevlab: zero location failed: {PARTIAL_RESULT}zeros",
              file=sys.stderr)
        return EXIT_NUMERIC
    rows = sorted(zeros.to_rows(), key=lambda w: (w["re"], w["im"]))
    if fmt == "json":
        _dump_json(out, {"function": spec.function_src, "radius": rt,
                         "perturbed": perturbed, "points": rows})
    else:
        comments = _timestamp_lines(args.reproducible)
        comments.append(f"function {spec.function_src}")
        comments.append(f"radius {_fmt(rt)} perturbed {str(perturbed).lower()}")
        _dump_csv(out, ["re", "im", "mult"],
                  [[w["re"], w["im"], w["mult"]] for w in rows], comments)
    return EXIT_PASS


def _cmd_nev(spec: RunSpec, out: str, fmt: str, args) -> int:
    rows = nevanlinna_rows(spec.function, spec.radii, spec.quad_tol)
    # getattr, not asdict/astuple: those deep-copy every field of every row.
    names = [f.name for f in fields(RadialSample)]
    table = [[getattr(w, n) for n in names] for w in rows]
    if fmt == "json":
        _dump_json(out, {"function": spec.function_src, "seed": spec.seed,
                         "rows": [dict(zip(names, row)) for row in table]})
    else:
        comments = _timestamp_lines(args.reproducible)
        comments.append(f"function {spec.function_src}")
        _dump_csv(out, names, table, comments)
    return EXIT_NUMERIC if any(w.error for w in rows) else EXIT_PASS


def _write_sidecar(out: str, index: int, rep: CheckReport) -> None:
    stem, _ = os.path.splitext(out)
    lines = [f"# {rep.check_id} residuals (r, (lhs-rhs)/max(T,1)); "
             f"verdict {rep.verdict}"]
    lines += [f"{_fmt(w.r)} {_fmt(w.residual)}" for w in rep.rows]
    _write(f"{stem}.{index:02d}_{rep.check_id}.dat", "\n".join(lines) + "\n")


def _cmd_check(spec: RunSpec, out: str, fmt: str, args) -> int:
    ctx = EvalContext(spec.function, spec.radii, spec.quad_tol)
    reports = []
    for cid, params in spec.checks:
        poly = spec.polynomial if cid in HYPOTHESIS_CHECKS else None
        try:
            rep = run_check(cid, spec.function, poly, params,
                            epsilon=spec.epsilon,
                            eq_tolerance=spec.eq_tolerance,
                            context=ctx)
        except ValueError as exc:
            raise SpecError(f"check '{cid}': {exc}") from None
        reports.append((cid, params, rep))

    payload = {
        "function": spec.function_src,
        "polynomial": spec.polynomial_src,
        "radii": spec.radii_src,
        "seed": spec.seed,
        "epsilon": spec.epsilon,
        "eq_tolerance": spec.eq_tolerance,
    }
    ts = _timestamp_lines(args.reproducible)
    if ts:
        payload["generated"] = ts[0].split(" ", 1)[1]
    payload["checks"] = [{"check_id": cid, "params": params, **rep.summary()}
                         for cid, params, rep in reports]

    if fmt == "json":
        _dump_json(out, payload)
    else:
        comments = ts + [f"function {spec.function_src}"]
        comments += [f"{cid} verdict {rep.verdict}"
                     for cid, _, rep in reports]
        rows = [[cid, w.r, w.lhs, w.rhs, w.residual, w.error]
                for cid, _, rep in reports for w in rep.rows]
        _dump_csv(out, ["check_id", "r", "lhs", "rhs", "residual", "error"],
                  rows, comments)
    for i, (_, _, rep) in enumerate(reports):
        if rep.rows:
            _write_sidecar(out, i, rep)

    verdicts = [rep.verdict for _, _, rep in reports]
    broken = any(rep.rows and all(w.error is not None for w in rep.rows)
                 for _, _, rep in reports)
    if broken:
        return EXIT_NUMERIC
    if "fail" in verdicts:
        return EXIT_FAIL
    if "hypothesis_violation" in verdicts:
        return EXIT_VACUOUS
    if all(v == "vacuous" for v in verdicts):
        return EXIT_VACUOUS
    return EXIT_PASS


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nevlab",
        description="Differential-polynomial value distribution toolkit.")
    sub = ap.add_subparsers(dest="command", required=True)
    defaults = {"stats": "json", "zeros": "csv", "nev": "csv",
                "check": "json"}
    helps = {
        "stats": "combinatorial statistics of the differential polynomial",
        "zeros": "zero divisor of the function in the disk of radius "
                 "radii.stop",
        "nev": "proximity / counting / characteristic along the radial grid",
        "check": "run the named inequality and identity checks",
    }
    for name in ("stats", "zeros", "nev", "check"):
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--spec", required=True, help="run spec JSON file")
        p.add_argument("--out", required=True, help="report output file")
        p.add_argument("--format", choices=("csv", "json"),
                       default=defaults[name])
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: every command runs on "
                            "one thread, so it never changes a byte of "
                            "output")
        p.add_argument("--reproducible", action="store_true",
                       help="omit the timestamp so reruns are byte-identical")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print("nevlab: --threads must be at least 1", file=sys.stderr)
        return EXIT_SPEC
    handlers = {"stats": _cmd_stats, "zeros": _cmd_zeros,
                "nev": _cmd_nev, "check": _cmd_check}
    try:
        spec = load_spec(args.spec, args.command)
        set_probabilistic_seed(spec.seed)
        return handlers[args.command](spec, args.out, args.format, args)
    except SpecError as exc:
        print(f"nevlab: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (ParseError, InvalidExpressionError) as exc:
        print(f"nevlab: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (LocatorError, QuadratureError) as exc:
        print(f"nevlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
