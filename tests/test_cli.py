"""End-to-end runs of the command-line interface."""

import csv
import json
import math
from dataclasses import dataclass, field

import pytest

from nevlab import cli, locator
from nevlab.cli import main
from nevlab.theorems import run_check

STATS_SPEC = {
    "polynomial": {"monomials": [
        {"coeff": 1, "exponents": [2, 1, 2, 2]},
        {"coeff": -1, "exponents": [2, 2, 1, 2]},
    ]},
}

CHECK_SPEC = {
    "function": "exp(z)",
    "polynomial": {"monomials": [{"coeff": 1, "exponents": [2, 0, 2]}]},
    "radii": {"start": 2, "stop": 20, "count": 8},
    "checks": ["thm_1", {"id": "thm_b", "params": {"k": 2}}],
    "seed": 7,
}


@dataclass
class _Instead:
    """What a mutation of a spec returns when it replaces the whole document
    or sets environment variables rather than edit the spec in place."""
    doc: object
    env: dict = field(default_factory=dict)


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def data_lines(path):
    return [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]


def test_stats_json(tmp_path):
    out = tmp_path / "stats.json"
    code = run(["stats", "--spec", write_spec(tmp_path, STATS_SPEC),
                "--out", out])
    assert code == 0
    got = json.loads(out.read_text())
    assert (got["d"], got["nu"], got["qstar"], got["k"]) == (7, 11, 2, 3)
    assert got["homogeneous"] is True


def test_stats_csv(tmp_path):
    out = tmp_path / "stats.csv"
    code = run(["stats", "--spec", write_spec(tmp_path, STATS_SPEC),
                "--out", out, "--format", "csv", "--reproducible"])
    assert code == 0
    header, values = data_lines(out)
    row = dict(zip(header.split(","), values.split(",")))
    assert row["d"] == "7" and row["nu"] == "11"


def test_zeros_of_shifted_exponential(tmp_path):
    spec = {"function": "exp(3*z) - 1",
            "radii": {"start": 1, "stop": 3, "count": 2}}
    out = tmp_path / "zeros.csv"
    code = run(["zeros", "--spec", write_spec(tmp_path, spec), "--out", out,
                "--reproducible"])
    assert code == 0
    rows = data_lines(out)
    assert rows[0] == "re,im,mult"
    pts = [tuple(map(float, ln.split(",")[:2])) for ln in rows[1:]]
    assert len(pts) == 3
    imag = sorted(p[1] for p in pts)
    assert imag == pytest.approx([-2 * math.pi / 3, 0.0, 2 * math.pi / 3],
                                 abs=1e-9)


def test_zeros_json_format(tmp_path):
    spec = {"function": "exp(3*z) - 1",
            "radii": {"start": 1, "stop": 3, "count": 2}}
    out = tmp_path / "zeros.json"
    code = run(["zeros", "--spec", write_spec(tmp_path, spec), "--out", out,
                "--format", "json", "--reproducible"])
    assert code == 0
    got = json.loads(out.read_text())
    assert len(got["points"]) == 3
    assert got["perturbed"] is False


def test_radial_table(tmp_path):
    spec = {"function": "exp(z)", "radii": {"start": 2, "stop": 20, "count": 8}}
    out = tmp_path / "nev.csv"
    code = run(["nev", "--spec", write_spec(tmp_path, spec), "--out", out,
                "--reproducible"])
    assert code == 0
    rows = data_lines(out)
    assert rows[0] == "r,m,N,T,perturbed_r,error"
    assert len(rows) == 9
    for ln in rows[1:]:
        r, m, n, t = map(float, ln.split(",")[:4])
        assert t == pytest.approx(r / math.pi, abs=1e-8)
        assert n == 0.0


def test_exp_of_a_function_with_poles_is_a_spec_error(tmp_path):
    """exp(tan(z)) is not meromorphic: nev printed T rows for it that fell
    from r = 2 to r = 2.71, where T of a meromorphic f only rises."""
    spec = {"function": "exp(tan(z))",
            "radii": {"start": 2, "stop": 20, "count": 8}}
    assert run(["nev", "--spec", write_spec(tmp_path, spec),
                "--out", tmp_path / "nev.csv"]) == 3


def test_check_pass_with_sidecars(tmp_path):
    out = tmp_path / "report.json"
    code = run(["check", "--spec", write_spec(tmp_path, CHECK_SPEC),
                "--out", out, "--reproducible"])
    assert code == 0
    got = json.loads(out.read_text())
    assert [c["verdict"] for c in got["checks"]] == ["pass", "pass"]
    assert got["seed"] == 7
    assert "generated" not in got
    side = tmp_path / "report.00_thm_1.dat"
    assert side.exists()
    assert len(data_lines(side)) == 8


def test_check_csv_has_fixed_columns(tmp_path):
    out = tmp_path / "report.csv"
    code = run(["check", "--spec", write_spec(tmp_path, CHECK_SPEC),
                "--out", out, "--format", "csv", "--reproducible"])
    assert code == 0
    rows = data_lines(out)
    assert rows[0] == "check_id,r,lhs,rhs,residual,error"
    assert all(ln.count(",") == 5 for ln in rows)
    assert len(rows) == 1 + 16


def test_json_check_entries_are_the_report_summaries(tmp_path, monkeypatch):
    """Each JSON check entry is its check id, its params and the
    CheckReport.summary() of the same run, in the report's key order."""
    reports = []

    def recorded(*args, **kwargs):
        reports.append(run_check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "run_check", recorded)
    out = tmp_path / "report.json"
    assert run(["check", "--spec", write_spec(tmp_path, CHECK_SPEC),
                "--out", out, "--reproducible"]) == 0
    got = json.loads(out.read_text())["checks"]
    want = [{"check_id": rep.check_id, "params": params, **rep.summary()}
            for rep, params in zip(reports, [{}, {"k": 2}])]
    assert json.dumps(got) == json.dumps(cli._round12(want))
    assert [list(c) for c in got] == [[
        "check_id", "params", "verdict", "worst_residual", "violations",
        "stats", "rows"]] * 2
    assert {tuple(w) for c in got for w in c["rows"]} == {
        ("r", "lhs", "rhs", "residual", "perturbed_r", "error")}


def test_reproducible_runs_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, CHECK_SPEC)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["check", "--spec", spec, "--out", a, "--reproducible"]) == 0
    assert run(["check", "--spec", spec, "--out", b, "--reproducible",
                "--threads", 3]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.00_thm_1.dat").read_bytes() == \
        (tmp_path / "b.00_thm_1.dat").read_bytes()


def test_reproducible_nev_is_the_same_at_any_thread_count(tmp_path):
    spec = write_spec(tmp_path, {"function": "tan(z)",
                                 "radii": {"start": 2, "stop": 20,
                                           "count": 12}})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["nev", "--spec", spec, "--out", a, "--reproducible",
                "--threads", 1]) == 0
    assert run(["nev", "--spec", spec, "--out", b, "--reproducible",
                "--threads", 2]) == 0
    assert len(data_lines(a)) == 13
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("NEVLAB_SEED", "12345")
    out = tmp_path / "seeded.json"
    code = run(["check", "--spec", write_spec(tmp_path, CHECK_SPEC),
                "--out", out, "--reproducible"])
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 12345


def test_exit_fail(tmp_path):
    spec = {"function": "exp(z)",
            "polynomial": {"monomials": [{"coeff": 1, "exponents": [1, 0, 1]}]},
            "radii": {"start": 2, "stop": 40, "count": 8},
            "checks": ["lem_35"]}
    out = tmp_path / "fail.json"
    code = run(["check", "--spec", write_spec(tmp_path, spec), "--out", out])
    assert code == 1
    assert json.loads(out.read_text())["checks"][0]["verdict"] == "fail"


def test_lem_36_runs_at_order_zero(tmp_path):
    """P = f^2 has order k = 0, which lem_36's hypotheses admit; its
    N_{k)} term then counts nothing instead of failing the spec."""
    spec = {"function": "tan(z)",
            "polynomial": {"monomials": [{"coeff": 1, "exponents": [2]}]},
            "radii": {"start": 2, "stop": 20, "count": 8},
            "checks": ["lem_36"], "seed": 7}
    out = tmp_path / "lem36.json"
    code = run(["check", "--spec", write_spec(tmp_path, spec), "--out", out])
    assert code == 0
    assert json.loads(out.read_text())["checks"][0]["verdict"] == "pass"


def test_exit_vacuous_only(tmp_path):
    spec = dict(CHECK_SPEC, polynomial=STATS_SPEC["polynomial"],
                checks=["thm_1"])
    code = run(["check", "--spec", write_spec(tmp_path, spec),
                "--out", tmp_path / "vac.json"])
    assert code == 2


def test_exit_hypothesis_violation(tmp_path):
    spec = dict(CHECK_SPEC,
                polynomial={"monomials": [{"coeff": 1,
                                           "exponents": [1, 0, 1]}]},
                checks=["thm_1"])
    code = run(["check", "--spec", write_spec(tmp_path, spec),
                "--out", tmp_path / "viol.json"])
    assert code == 2


def test_exit_numerical_budget(tmp_path):
    spec = dict(CHECK_SPEC, checks=["thm_a"])
    del spec["polynomial"]
    spec["tolerances"] = {"quadrature_tol": 1e-30}
    code = run(["check", "--spec", write_spec(tmp_path, spec),
                "--out", tmp_path / "budget.json"])
    assert code == 4


PARTIAL = "divisor computation returned a partial result for "


def test_partial_zero_divisor_is_a_numerical_failure(tmp_path, monkeypatch,
                                                     capsys):
    """With the depth cap at 1 and the lattice reading off, the zeros of
    tan(z) are not located in full; the command says so and writes no
    report."""
    monkeypatch.setattr(locator, "MAX_DEPTH", 1)
    monkeypatch.setattr(locator, "lattice_zeros", lambda e, r: None)
    spec = {"function": "tan(z)", "radii": {"start": 2, "stop": 20,
                                            "count": 8}}
    out = tmp_path / "zeros.csv"
    code = run(["zeros", "--spec", write_spec(tmp_path, spec), "--out", out])
    assert code == 4
    assert PARTIAL + "zeros" in capsys.readouterr().err
    assert not out.exists()


def test_csv_error_text_with_a_comma_stays_one_field(tmp_path, monkeypatch):
    """A partial divisor's error names "f, fk"; csv quotes it, so every row
    reads back as the header's 6 fields with the text intact."""
    monkeypatch.setattr(locator, "MAX_DEPTH", 1)
    monkeypatch.setattr(locator, "lattice_zeros", lambda e, r: None)
    spec = {"function": "tan(z)", "radii": {"start": 2, "stop": 20,
                                            "count": 8},
            "checks": ["lem_32"]}
    out = tmp_path / "report.csv"
    run(["check", "--spec", write_spec(tmp_path, spec), "--out", out,
         "--format", "csv", "--reproducible"])
    rows = list(csv.reader(data_lines(out)))
    assert rows[0] == ["check_id", "r", "lhs", "rhs", "residual", "error"]
    assert all(len(row) == 6 for row in rows)
    assert PARTIAL + "f, fk" in {row[5] for row in rows[1:]}


def test_partial_pole_divisor_fails_every_nev_row(tmp_path, monkeypatch):
    monkeypatch.setattr(locator, "MAX_DEPTH", 1)
    monkeypatch.setattr(locator, "lattice_zeros", lambda e, r: None)
    spec = {"function": "tan(z)", "radii": {"start": 2, "stop": 20,
                                            "count": 8}}
    out = tmp_path / "nev.json"
    code = run(["nev", "--spec", write_spec(tmp_path, spec), "--out", out,
                "--format", "json"])
    assert code == 4
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 8
    assert {(w["N"], w["error"]) for w in rows} == {(None, PARTIAL + "poles")}


@pytest.mark.parametrize("mutate,reason", [
    (lambda s: s.update(radi=s.pop("radii")), "misspelled top key"),
    (lambda s: s.update(function="exp("), "unparsable function"),
    (lambda s: s.update(function="exp(1000)"), "overflowing exponential"),
    (lambda s: s.update(function="10^400"), "overflowing power"),
    (lambda s: s.update(function="9" * 400), "overflowing literal"),
    (lambda s: s["radii"].update(count=7), "too few radii for checks"),
    (lambda s: s["radii"].update(spacing="cubic"), "unknown spacing"),
    (lambda s: s.update(checks=["thm_99"]), "unknown check id"),
    (lambda s: s.update(checks=[{"id": "thm_b", "params": {"q": 1}}]),
     "unknown check parameter"),
    (lambda s: s.update(tolerances={"epsilon": -1}), "negative tolerance"),
    (lambda s: s.update(seed="abc"), "non-integer seed"),
    (lambda s: s.pop("function"), "function missing"),
    (lambda s: s.update(tolerances={"epsilon": math.inf}),
     "infinite tolerance"),
    (lambda s: s.update(tolerances={"epsilon": math.nan}), "NaN tolerance"),
    (lambda s: s.update(tolerances={"quadrature_tol": math.nan}),
     "NaN quadrature tolerance"),
    (lambda s: s.update(checks=[{"id": "thm_b", "params": {"k": math.inf}}]),
     "infinite check parameter"),
    (lambda s: s.update(checks=[{"id": "thm_b", "params": {"k": 10**30}}]),
     "check parameter above its bound"),
    (lambda s: s["radii"].update(stop=math.inf), "infinite radius"),
    (lambda s: s.update(tolerances={"eq_tolerance": math.inf}),
     "infinite identity tolerance"),
    (lambda s: s.update(radii=[2, 20, 8]), "radii not an object"),
    (lambda s: s["radii"].pop("start"), "radii without start"),
    (lambda s: s["radii"].update(count=8.5), "non-integer radii count"),
    (lambda s: s["radii"].update(start=20), "start not below stop"),
    (lambda s: s.update(polynomial=[[2, 0, 2]]), "polynomial not an object"),
    (lambda s: s["polynomial"].update(monomials=[]), "no monomials"),
    (lambda s: s["polynomial"].update(monomials=[[2, 0, 2]]),
     "monomial not an object"),
    (lambda s: s["polynomial"].update(monomials=[{"coeff": 1}]),
     "monomial without exponents"),
    (lambda s: s["polynomial"].update(monomials=[{"exponents": [2, 0.5]}]),
     "non-integer exponent"),
    (lambda s: s.update(checks=[]), "empty checks list"),
    (lambda s: s.update(checks=[{"id": 7}]), "check id not a string"),
    (lambda s: s.update(checks=[{"id": "thm_b", "params": [2]}]),
     "check params not an object"),
    (lambda s: s.update(checks=[7]), "check neither string nor object"),
    (lambda s: _Instead([s]), "spec not an object"),
    (lambda s: s.update(tolerances=[1e-3]), "tolerances not an object"),
    (lambda s: s.update(function=7), "function not a string"),
    (lambda s: _Instead(s, {"NEVLAB_SEED": "abc"}), "non-integer NEVLAB_SEED"),
    (lambda s: s.pop("radii"), "radii missing"),
    (lambda s: s.pop("checks"), "checks missing"),
    (lambda s: s.pop("polynomial"), "polynomial missing for thm_1"),
])
def test_spec_validation_failures(tmp_path, monkeypatch, mutate, reason):
    spec = json.loads(json.dumps(CHECK_SPEC))
    instead = mutate(spec)
    if isinstance(instead, _Instead):
        spec = instead.doc
        for name, value in instead.env.items():
            monkeypatch.setenv(name, value)
    code = run(["check", "--spec", write_spec(tmp_path, spec),
                "--out", tmp_path / "out.json"])
    assert code == 3, reason


def test_threads_below_one_exit_3(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = run(["check", "--spec", write_spec(tmp_path, CHECK_SPEC),
                "--out", out, "--threads", 0])
    assert code == 3 and not out.exists()
    assert "--threads must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,mutate,message", [
    ("stats", lambda s: s.pop("polynomial"), "'stats' needs a polynomial"),
    ("zeros", lambda s: None, "'zeros' does not take checks"),
    ("nev", lambda s: s.pop("radii"), "'nev' needs radii"),
])
def test_spec_validation_depends_on_the_command(tmp_path, capsys, command,
                                                mutate, message):
    spec = json.loads(json.dumps(CHECK_SPEC))
    mutate(spec)
    code = run([command, "--spec", write_spec(tmp_path, spec),
                "--out", tmp_path / "out.json"])
    assert code == 3 and message in capsys.readouterr().err


def test_malformed_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check", "--spec", bad, "--out", tmp_path / "o.json"]) == 3
    assert run(["check", "--spec", tmp_path / "absent.json",
                "--out", tmp_path / "o.json"]) == 3


def test_overflowing_number_literal_is_a_spec_error(tmp_path):
    """1e400 is valid JSON text but no finite float."""
    text = json.dumps(CHECK_SPEC).replace('"stop": 20', '"stop": 1e400')
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert run(["check", "--spec", path, "--out", tmp_path / "o.json"]) == 3


def _radii(key, value):
    def mutate(spec):
        spec["radii"][key] = value
    return "check", mutate


def _coeff(value):
    def mutate(spec):
        spec["polynomial"]["monomials"][0]["coeff"] = value
    return "stats", mutate


def _param(check, key, value):
    def mutate(spec):
        spec["checks"] = [{"id": check, "params": {key: value}}]
    return "check", mutate


@pytest.mark.parametrize("case,key", [
    (_radii("start", "abc"), "radii.start"),
    (_radii("start", [1]), "radii.start"),
    (_radii("start", None), "radii.start"),
    (_radii("start", True), "radii.start"),
    (_radii("start", "2"), "radii.start"),
    (_radii("start", 10**400), "radii.start"),
    (_radii("stop", "20"), "radii.stop"),
    (_radii("stop", False), "radii.stop"),
    (_coeff([1]), "coeff"),
    (_coeff(None), "coeff"),
    (_coeff({"a": 1}), "coeff"),
    (_coeff(True), "coeff"),
    (_coeff(10**400), "coeff"),
    (_param("thm_c", "a", True), "'a'"),
    (_param("thm_c", "alpha", False), "'alpha'"),
    (_param("thm_c", "a", 10**400), "'a'"),
    (_param("lem_33", "b", True), "'b'"),
])
def test_spec_numbers_are_fail_closed(tmp_path, capsys, case, key):
    """Each number of the spec is a JSON number (radii) or a number or a
    grammar string (coefficients and rational parameters); a boolean, a
    string that stands for a number, null, a list, an object or an integer
    beyond the float range exits 3 with a message that names the key."""
    command, mutate = case
    spec = json.loads(json.dumps(CHECK_SPEC))
    mutate(spec)
    if command == "stats":
        spec = {"polynomial": spec["polynomial"]}
    code = run([command, "--spec", write_spec(tmp_path, spec),
                "--out", tmp_path / "o.json"])
    assert code == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["nev", "check", "zeros"])
@pytest.mark.parametrize("count", [10**30, cli._COUNT_MOST + 1])
def test_radii_count_has_an_upper_bound(tmp_path, capsys, command, count):
    """A count past the bound exits 3, with a message that states the
    bound, before any radius is made; 10^30 is past what numpy can
    allocate."""
    spec = dict(CHECK_SPEC, radii={"start": 2, "stop": 20, "count": count})
    code = run([command, "--spec", write_spec(tmp_path, spec),
                "--out", tmp_path / "o.json"])
    assert code == 3
    assert f"radii.count must be at most {cli._COUNT_MOST}" in \
        capsys.readouterr().err


def test_param_type_error_is_a_spec_error(tmp_path):
    spec = dict(CHECK_SPEC, checks=[{"id": "thm_b", "params": {"k": "two"}}])
    del spec["polynomial"]
    code = run(["check", "--spec", write_spec(tmp_path, spec),
                "--out", tmp_path / "o.json"])
    assert code == 3
