"""Inputs and oracles of the four benchmark workloads.

Each workload is a list of jobs; each job runs in its own fresh interpreter
(see worker.py).  The oracles in this file never call nevlab: they use closed
forms, numpy.roots, and exact Gaussian-integer arithmetic, so a wrong answer
from nevlab cannot also be the expected one.

An operation is one check verdict (suite), one ``nev`` row (nev_dense), one
located disk (locate) or one decision (exact).  ``check_*`` functions turn a
job's output into a list of ``(operation id, failure or None)``.
"""

from __future__ import annotations

import cmath
import csv
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("suite", "nev_dense", "locate", "exact")

# --- suite: the acceptance specs of criterion 8, one `nevlab check` each ----

_SUITE_RADII = {"start": 2, "stop": 40, "count": 32}

SUITE_SPECS = [
    ("ez_core", {
        "function": "exp(z)", "radii": _SUITE_RADII,
        "checks": ["thm_a",
                   {"id": "thm_b", "params": {"k": 2}},
                   {"id": "thm_d", "params": {"l": 3, "n": 1, "k": 1}}],
    }),
    ("ez_thm1", {
        "function": "exp(z)", "radii": _SUITE_RADII, "checks": ["thm_1"],
        "polynomial": {"monomials": [{"coeff": 1, "exponents": [2, 0, 2]}]},
    }),
    ("ez_thm2", {
        "function": "exp(z)", "radii": _SUITE_RADII, "checks": ["thm_2"],
        "polynomial": {"monomials": [
            {"coeff": 1, "exponents": [6, 1, 0, 1]},
            {"coeff": 2, "exponents": [6, 0, 1, 1]}]},
    }),
    ("ez_thm3", {
        "function": "exp(z)", "radii": _SUITE_RADII, "checks": ["thm_3"],
        "polynomial": {"monomials": [
            {"coeff": 1, "exponents": [5, 3]},
            {"coeff": 1, "exponents": [3, 5]}]},
    }),
    ("ez_lem33", {
        "function": "exp(z)", "radii": _SUITE_RADII, "checks": ["lem_33"],
        "polynomial": {"monomials": [{"coeff": 1, "exponents": [2, 0, 2]}]},
    }),
    ("tan_lem32", {
        "function": "tan(z)", "radii": _SUITE_RADII,
        "checks": [{"id": "lem_32", "params": {"k": 2}},
                   {"id": "lem_32", "params": {"k": 3}}],
    }),
    ("tan_threshold", {
        "function": "tan(z)", "radii": _SUITE_RADII,
        "checks": ["lem_35", "lem_36"],
        "polynomial": {"monomials": [{"coeff": 1, "exponents": [1, 0, 1]}]},
    }),
]

# --- nev_dense: `nevlab nev` on a dense log grid ----------------------------

NEV_FUNCTIONS = (
    ("tan", "tan(z)"),
    ("tan_shift_i", "1/(tan(z) - (i))"),
    ("sin_cubed", "sin(z)^3"),
    ("tan_cubed_linear", "tan(z)^3*(z - 1)"),
    ("exp", "exp(z)"),
)
NEV_RADII = {"start": 2, "stop": 40, "count": 512}
EXP_T_TOL = 1e-8

# --- locate: library find_zeros / divisor_of --------------------------------

LOCATE_RANDOM_POLYS = 100
ROOT_TOL = 1e-8

# --- exact: decisions on P(exp(c z)) ----------------------------------------

GAUSSIAN_C = ((1, 0), (-1, 0), (2, 0), (0, 1), (0, -1), (1, 1), (2, -1),
              (0, -2))
EXACT_RANDOM_CASES = 1000
NEAR_CANCEL_K = tuple(range(6, 16))
CHAIN_FUNCTIONS = ("exp(z)", "tan(z)", "(z - 1)*exp(z)/z",
                   "sin(z)*(z^2 + 4)", "cos(z)", "exp(3*z) - 1",
                   "(z^2 - 1)/(z^2 + 1)")
CHAIN_ORDER = 3
CRITERION_1 = (
    ([((1, 0), (2, 1, 2, 2)), ((-1, 0), (2, 2, 1, 2))], (1, 0)),
    ([((1, 0), (6, 1, 0, 1)), ((1, 0), (6, 0, 1, 1))], (-1, 0)),
    ([((1, 0), (5, 3)), ((-1, 0), (3, 5))], (1, 0)),
)

# Defects that are known, reproduced and left in the workloads on purpose.
# They count in `failed`; `correct` only turns false on any other failure.
# - The tan(z)^3*(z - 1) row near r = 29.84 fails with QuadratureError: a
#   triple pole sits 2.5e-4*r from the ring, which still clears
#   locator.RING_CLEARANCE (1e-4).
# - ExpPoly prunes coefficients below 1e-12 of the largest, so the
#   near-cancelling cases with k >= 12 come back ZERO (ROADMAP item 4).
KNOWN_NEV_DEFECT = ("tan_cubed_linear", 29.8372, "QuadratureError")
KNOWN_EXACT_DEFECT_K = 12


def is_known_defect(op: str) -> bool:
    kind, _, rest = op.partition(":")
    if kind == "nev":
        job, r, _ = rest.split("@")
        name, r_bad, _ = KNOWN_NEV_DEFECT
        return job == name and abs(float(r) - r_bad) < 1e-3
    if kind == "exact" and rest.startswith("near_cancel_k"):
        return int(rest[len("near_cancel_k"):]) >= KNOWN_EXACT_DEFECT_K
    return False


# ---------------------------------------------------------------------------
# job lists

def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The jobs of one pass.  The same seed gives the same jobs; ``tiny``
    shrinks every workload to a smoke-test size."""
    rng = random.Random(seed)
    if workload == "suite":
        # tiny: ez_lem33, the quickest spec
        specs = SUITE_SPECS[4:5] if tiny else SUITE_SPECS
        jobs = [{"kind": "cli", "name": name, "command": "check",
                 "spec": spec} for name, spec in specs]
    elif workload == "nev_dense":
        radii = dict(NEV_RADII, count=8) if tiny else NEV_RADII
        funcs = NEV_FUNCTIONS[-1:] if tiny else NEV_FUNCTIONS  # tiny: exp
        jobs = [{"kind": "cli", "name": name, "command": "nev",
                 "spec": {"function": src, "radii": radii}}
                for name, src in funcs]
    elif workload == "locate":
        cases = (locate_cases(rng, 2, LOCATE_FIXED[-1:]) if tiny else
                 locate_cases(rng, LOCATE_RANDOM_POLYS))
        return [{"kind": "locate", "name": "locate", "cases": cases}]
    elif workload == "exact":
        return [{"kind": "exact", "name": "exact",
                 "cases": exact_cases(rng, 3 if tiny else
                                      EXACT_RANDOM_CASES)}]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Fixed specs: the seed only orders the jobs.  Each job is a fresh
    # process, so order does not change what any job computes.
    rng.shuffle(jobs)
    return jobs


def cli_argv(job: dict, spec_path: str, out_path: str) -> list[str]:
    return [job["command"], "--spec", spec_path, "--out", out_path,
            "--reproducible", "--threads", "2"]


# --- locate -----------------------------------------------------------------

def _poly_src(coeffs: list[int]) -> str:
    terms = []
    for j, c in enumerate(coeffs):
        if c:
            terms.append(f"({c})" + ("" if j == 0 else
                                     "*z" if j == 1 else f"*z^{j}"))
    return " + ".join(terms)


def random_polynomials(rng: random.Random, count: int):
    """Criterion-5 stream: integer polynomials of degree 2..8 with roots at
    least 1e-3 apart, each on a disk 1.3x its largest root plus 0.5."""
    out = []
    for _ in range(count):
        deg = rng.randint(2, 8)
        while True:
            coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
            if coeffs[0] == 0 or coeffs[-1] == 0:
                continue
            roots = np.roots(coeffs[::-1])
            sep = np.min(np.abs(roots[:, None] - roots[None, :])
                         + np.eye(deg) * 1e9)
            if sep > 1e-3:
                break
        r = float(np.max(np.abs(roots))) * 1.3 + 0.5
        out.append((coeffs, r, [complex(w) for w in roots]))
    return out


def locate_cases(rng: random.Random, n_random: int,
                 fixed: tuple = None) -> list[dict]:
    cases = [{"id": f"poly{i}", "src": _poly_src(coeffs), "r": r,
              "api": "find_zeros",
              "expect": [[w.real, w.imag, 1] for w in roots]}
             for i, (coeffs, r, roots) in
             enumerate(random_polynomials(rng, n_random))]
    for name, src, r, zeros in (LOCATE_FIXED if fixed is None else fixed):
        # divisor_of may nudge the radius; keep a margin of expected points
        # so the oracle can restrict to whatever radius was used.
        cases.append({"id": name, "src": src, "r": r, "api": "divisor_of",
                      "expect": [[w.real, w.imag, m]
                                 for w, m in zeros(r * 1.01)]})
    return cases


def exp_z2_minus_1_zeros(r: float) -> list[tuple[complex, int]]:
    """exp(z^2) = 1 iff z^2 = 2 pi i k: a double zero at 0 and the square
    roots of 2 pi i k for k != 0."""
    out = [(0j, 2)]
    k = 1
    while math.sqrt(2 * math.pi * k) <= r:
        for kk in (k, -k):
            w = cmath.sqrt(2j * math.pi * kk)
            out += [(w, 1), (-w, 1)]
        k += 1
    return out


def sin_cubed_zeros(r: float) -> list[tuple[complex, int]]:
    n = int(r // math.pi)
    return [(complex(j * math.pi), 3) for j in range(-n, n + 1)]


def lambert_w(k: int, x: complex) -> complex:
    """Branch k of the Lambert W function, by Halley iteration from the
    asymptotic expansion log x + 2 pi i k - log(log x + 2 pi i k).

    Valid for the branches whose asymptotic start is far from the branch
    point, i.e. every k except 0 and -1 at x = -1/e."""
    l1 = cmath.log(x) + 2j * math.pi * k
    w = l1 - cmath.log(l1)
    for _ in range(100):
        ew = cmath.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1) - (w + 2) * f / (2 * w + 2))
        w -= step
        if abs(step) <= 1e-15 * max(1.0, abs(w)):
            break
    return w


def exp_minus_1_minus_z_zeros(r: float) -> list[tuple[complex, int]]:
    """exp(z) = 1 + z iff w = -(1 + z) solves w e^w = -1/e, so the zeros are
    -1 - W_k(-1/e).  W_0 and W_-1 meet at -1 there, giving the double zero
    at 0; every other branch gives a simple zero, with |z| growing in |k|."""
    out = [(0j, 2)]
    for k in itertools.chain.from_iterable((j, -1 - j)
                                           for j in itertools.count(1)):
        z = -1 - lambert_w(k, -1 / math.e)
        if abs(z) > r:
            if k < 0:
                break
            continue
        out.append((z, 1))
    return out


LOCATE_FIXED = (
    ("exp_z2_minus_1", "exp(z^2) - 1", 6.0, exp_z2_minus_1_zeros),
    ("exp_minus_1_minus_z", "exp(z) - 1 - z", 20.0,
     exp_minus_1_minus_z_zeros),
    ("sin_cubed", "sin(z)^3", 12.0, sin_cubed_zeros),
)


def check_divisor(points: list, radius: float, expect: list,
                  tol: float = ROOT_TOL) -> str | None:
    """Match located (re, im, mult) points one-to-one against the expected
    points inside the radius used; None when they agree."""
    want = [(complex(a, b), m) for a, b, m in expect if abs(complex(a, b))
            <= radius]
    got = [(complex(a, b), m) for a, b, m in points]
    if sum(m for _, m in got) != sum(m for _, m in want):
        return (f"degree {sum(m for _, m in got)} != "
                f"{sum(m for _, m in want)}")
    for z, m in got:
        if not want:
            return f"extra point {z:.6g}"
        best = min(range(len(want)), key=lambda i: abs(want[i][0] - z))
        w, mw = want.pop(best)
        if abs(w - z) > tol or m != mw:
            return f"point {z:.12g} x{m} vs expected {w:.12g} x{mw}"
    return None


def check_locate(cases: list[dict], answers: dict) -> list[tuple]:
    out = []
    for case in cases:
        got = answers.get(case["id"])
        op = f"locate:{case['id']}"
        if got is None or "error" in got:
            out.append((op, (got or {}).get("error", "no answer")))
        elif not got["valid"]:
            out.append((op, "invalid divisor"))
        else:
            out.append((op, check_divisor(got["points"], got["radius"],
                                          case["expect"])))
    return out


# --- exact ------------------------------------------------------------------

def _gi(c) -> complex:
    return complex(c[0], c[1])


def _gi_src(c) -> str:
    a, b = c
    return f"({a} {'-' if b < 0 else '+'} {abs(b)}*i)"


def _excess(exps) -> int:
    return sum(i * q for i, q in enumerate(exps))


def zero_closed_form(monomials, c) -> bool:
    """P(exp(cz)) == 0 exactly.  Each monomial a * prod (f^(j))^q_j becomes
    a * c^(sum j q_j) * exp(d c z) with d = sum q_j, and for c != 0 the
    exponentials of distinct d are independent, so P(exp(cz)) vanishes iff
    every degree group sums to zero.  Gaussian integers this small are exact
    in complex floats, so the sums are exact."""
    groups: dict = {}
    cc = _gi(c)
    for a, exps in monomials:
        d = sum(exps)
        groups[d] = groups.get(d, 0) + _gi(a) * cc ** _excess(exps)
    return all(v == 0 for v in groups.values())


def expected_stats(monomials) -> list[int]:
    """[max degree, min degree, weight excess, order] of a polynomial."""
    exps = [e for _, e in monomials]
    return [max(sum(e) for e in exps), min(sum(e) for e in exps),
            max(_excess(e) for e in exps),
            max(max(i for i, q in enumerate(e) if q) for e in exps)]


def _tuples(length: int, total: int):
    if length == 1:
        yield (total,)
        return
    for q in range(total + 1):
        for rest in _tuples(length - 1, total - q):
            yield (q,) + rest


def random_exact_case(rng: random.Random):
    """A polynomial of order 1..3 with one or two degree groups; each group
    is made to cancel on exp(cz) with probability 1/2, by solving for the
    coefficient of its lowest-excess monomial (a Gaussian integer, because
    c is one)."""
    c = rng.choice(GAUSSIAN_C)
    k = rng.randint(1, 3)
    monomials = []
    for d in rng.sample(range(1, 6), rng.randint(1, 2)):
        shapes = [t for t in _tuples(k + 1, d)]
        picked = rng.sample(shapes, min(len(shapes), rng.randint(2, 3)))
        picked.sort(key=_excess)
        coeffs = [(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in picked[1:]]
        rest = sum((_gi(a) * _gi(c) ** (_excess(e) - _excess(picked[0]))
                    for a, e in zip(coeffs, picked[1:])), 0j)
        if rng.random() < 0.5:
            lead = (-int(rest.real), -int(rest.imag))
        else:
            lead = (rng.randint(-3, 3), rng.randint(-3, 3))
        if lead == (0, 0):
            lead = (1, 0)
        group = [(lead, picked[0])] + list(zip(coeffs, picked[1:]))
        monomials += [(a, e) for a, e in group if a != (0, 0)]
    return monomials, c


def _poly_case(case_id: str, monomials, c, coeff_src=None) -> dict:
    srcs = coeff_src or [_gi_src(a) for a, _ in monomials]
    return {"id": case_id, "family": "poly",
            "monomials": [[s, list(e)] for s, (_, e) in zip(srcs, monomials)],
            "f": f"exp({_gi_src(c)}*z)"}


def exact_cases(rng: random.Random, n_random: int) -> list[dict]:
    """Criterion-1 cancellations, near-cancelling coefficients 1 + 10^-k z,
    derivative chains of the acceptance functions, then the seeded stream.
    Each case carries its expected answers under ``expect``."""
    cases = []
    for i, (monos, c) in enumerate(CRITERION_1):
        case = _poly_case(f"criterion1_{i}", monos, c)
        case["expect"] = {"zero": True, "stats": expected_stats(monos)}
        cases.append(case)
    for k in NEAR_CANCEL_K:
        # (1 + 10^-k z) f' - f on exp(z) is 10^-k z exp(z), never zero.
        monos = [((1, 0), (0, 1)), ((-1, 0), (1, 0))]
        small = "0." + "0" * (k - 1) + "1"
        case = _poly_case(f"near_cancel_k{k}", monos, (1, 0),
                          [f"1 + {small}*z", "(-1)"])
        case["expect"] = {"zero": False, "stats": expected_stats(monos)}
        cases.append(case)
    for src in CHAIN_FUNCTIONS:
        cases.append({"id": f"chain_{src}", "family": "chain", "f": src,
                      "k": CHAIN_ORDER})
    for i in range(n_random):
        monos, c = random_exact_case(rng)
        case = _poly_case(f"random{i}", monos, c)
        case["expect"] = {"zero": zero_closed_form(monos, c),
                          "stats": expected_stats(monos)}
        cases.append(case)
    return cases


def check_exact(cases: list[dict], answers: dict) -> list[tuple]:
    out = []
    for case in cases:
        op = f"exact:{case['id']}"
        got = answers.get(case["id"])
        if got is None or "error" in got:
            out.append((op, (got or {}).get("error", "no answer")))
            continue
        if case["family"] == "chain":
            bad = [v for v in got["constancy"] if v != "NON_CONSTANT"]
            out.append((op, f"derivative constancy {bad}" if bad else None))
            continue
        want = case["expect"]
        zero = want["zero"]
        problems = []
        if got["zero"] != ("ZERO" if zero else "NONZERO"):
            problems.append(f"verdict {got['zero']}")
        if got["constancy"] != ("CONSTANT" if zero else "NON_CONSTANT"):
            problems.append(f"constancy {got['constancy']}")
        if got["quotient_zero"] != zero:
            problems.append("canonical quotient")
        if got["stats"] != want["stats"]:
            problems.append(f"stats {got['stats']} != {want['stats']}")
        out.append((op, "; ".join(problems) or None))
    return out


# --- cli jobs: suite and nev_dense ------------------------------------------

def check_suite_job(job: dict, code: int, out_path: Path) -> list[tuple]:
    """Every requested check passes and the exit code is 0."""
    n = len(job["spec"]["checks"])
    ops = [f"suite:{job['name']}#{i}" for i in range(n)]
    try:
        report = json.loads(out_path.read_text())
        verdicts = [c["verdict"] for c in report["checks"]]
    except (OSError, ValueError, KeyError) as exc:
        return [(op, f"unreadable report: {exc}") for op in ops]
    out = []
    for i, op in enumerate(ops):
        v = verdicts[i] if i < len(verdicts) else "missing"
        if v != "pass":
            out.append((op, f"verdict {v}"))
        elif code != 0:
            out.append((op, f"exit code {code}"))
        else:
            out.append((op, None))
    return out


def exp_characteristic(r: float) -> float:
    """T(r, exp) = m(r, exp) = (1/2pi) int max(0, r cos t) dt = r / pi."""
    return r / math.pi


def check_nev_job(job: dict, code: int, out_path: Path) -> list[tuple]:
    """No row has an error, and every exp(z) row has T = r/pi."""
    radii = job["spec"]["radii"]
    grid = np.geomspace(radii["start"], radii["stop"], radii["count"])
    try:
        lines = [ln for ln in out_path.read_text().splitlines()
                 if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
    except OSError as exc:
        rows, missing = [], f"unreadable rows: {exc}"
    else:
        missing = "missing row"
    if code not in (0, 4):
        return [(f"nev:{job['name']}@{r:.6f}@{i}", f"exit code {code}")
                for i, r in enumerate(grid)]
    out = []
    for i, r in enumerate(grid):
        op = f"nev:{job['name']}@{r:.6f}@{i}"
        if i >= len(rows):
            out.append((op, missing))
            continue
        row = rows[i]
        if row["error"]:
            out.append((op, row["error"]))
        elif job["spec"]["function"] == "exp(z)" and abs(
                float(row["T"]) - exp_characteristic(float(row["r"]))) \
                > EXP_T_TOL:
            out.append((op, f"T {row['T']} != r/pi at r={row['r']}"))
        else:
            out.append((op, None))
    return out


def check_cli_job(job: dict, code: int, out_path: Path) -> list[tuple]:
    if job["command"] == "check":
        return check_suite_job(job, code, out_path)
    return check_nev_job(job, code, out_path)
