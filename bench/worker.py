"""One job of a benchmark pass, in a fresh interpreter.

Usage: worker.py JOB.json RESULT.json SPAWN_TIME [--trace]

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process; on Linux that clock is CLOCK_MONOTONIC and shared between
processes, so setup_s (interpreter start to ``import nevlab`` done) is
measured across the process boundary.  The job's wall and CPU time cover
only the nevlab calls.  The answers go to RESULT.json for the parent to check
against its oracles.
"""

import sys
import time

import json
import os
import resource
import traceback


def _ready():
    import nevlab  # noqa: F401  (the import is what setup_s measures)
    return time.perf_counter()


def run_cli(job: dict) -> dict:
    import nevlab.cli as cli
    code = cli.main(job["argv"])
    return {"code": code}


def run_locate(job: dict) -> dict:
    import nevlab.expr as expr
    import nevlab.locator as locator
    answers = {}
    for case in job["cases"]:
        try:
            f = expr.parse_expr(case["src"])
            if case["api"] == "find_zeros":
                d = locator.find_zeros(f, case["r"])
            else:
                d, _ = locator.divisor_of(f, case["r"], 0)
            answers[case["id"]] = {
                "radius": d.radius, "valid": d.valid,
                "points": [[p.re, p.im, p.multiplicity] for p in d.points]}
        except Exception as exc:  # one failed operation, not a failed job
            answers[case["id"]] = {"error": f"{type(exc).__name__}: {exc}"}
    return {"answers": answers}


def run_exact(job: dict) -> dict:
    import nevlab.diffpoly as diffpoly
    import nevlab.exppoly as exppoly
    import nevlab.expr as expr
    answers = {}
    for case in job["cases"]:
        try:
            f = expr.parse_expr(case["f"])
            if case["family"] == "chain":
                chain = exppoly.derivative_chain(f, case["k"])
                answers[case["id"]] = {"constancy": [
                    exppoly.is_constant(g)[0].name for g in chain[1:]]}
                continue
            P = diffpoly.DiffPolynomial.from_exponents(
                *((src, exps) for src, exps in case["monomials"]))
            applied = P.apply(f)
            s = diffpoly.poly_stats(P)
            diffpoly.validate_hypotheses(P, "thm_1")
            q = exppoly.canonical_quotient(applied)
            answers[case["id"]] = {
                "zero": exppoly.is_identically_zero(applied).name,
                "constancy": exppoly.is_constant(applied)[0].name,
                "quotient_zero": isinstance(q.num, expr.Const)
                and q.num.value == 0,
                "stats": [s.max_degree, s.min_degree, s.weight_excess,
                          s.order]}
        except Exception as exc:  # one failed operation, not a failed job
            answers[case["id"]] = {"error": f"{type(exc).__name__}: {exc}"}
    return {"answers": answers}


RUNNERS = {"cli": run_cli, "locate": run_locate, "exact": run_exact}


def main(argv: list[str]) -> int:
    job_path, result_path, spawned = argv[0], argv[1], float(argv[2])
    traced = "--trace" in argv[3:]
    ready = _ready()
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        out = RUNNERS[job["kind"]](job)
    except Exception:
        out = {"crash": traceback.format_exc()}
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    out.update({
        "setup_s": ready - spawned,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    })
    if tracer is not None:
        out["trace"] = tracer.report()
    tmp = result_path + ".part"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
