"""Tests of the benchmark itself: smoke passes of every workload at a tiny
size, and the closed-form oracles against hand-worked cases."""

import cmath
import importlib.util
import json
import math
import random
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import (check_divisor, check_nev_job, exp_characteristic,
                       exp_minus_1_minus_z_zeros, exp_z2_minus_1_zeros,
                       expected_stats, is_known_defect, lambert_w,
                       sin_cubed_zeros, zero_closed_form)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_suite_specs_are_the_acceptance_specs():
    path = ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("_acceptance", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod._suite_specs() == workloads.SUITE_SPECS


def test_benchmark_json_lists_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        tracer.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass(workload, capsys):
    summary = run.run_workload(workload, 3, 0, False, tiny=True)
    result = run.print_summary(summary, False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    out = capsys.readouterr().out
    for name in list(run.END_TO_END) + ["fail_ratio"]:
        assert f"\n{name} " in out
    assert f"n={run.MIN_PASSES}" in out
    assert '"nproc"' in out and '"git_sha"' in out


def test_traced_smoke_reports_every_layer(capsys):
    summary = run.run_workload("locate", 3, 0, True, tiny=True)
    result = run.print_summary(summary, True)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        tracer.PER_LAYER
    layers = summary["per_layer"]
    for name in ("locator.find_zeros_calls", "locator.path_points",
                 "locator.polish_evals", "locator.points_located",
                 "locator.negotiate_attempts", "expr.eval_s",
                 "expr.parse_s", "expr.compile_calls"):
        assert layers[name] > 0, name
    assert layers["nevanlinna.proximity_calls"] == 0


def test_untraced_worker_installs_no_wrapper(tmp_path):
    job = workloads.make_jobs("exact", 3, tiny=True)[0]
    result = run.run_job(job, tmp_path / "job", False,
                         time.perf_counter() + 60)
    assert "trace" not in result
    assert all(why is None or is_known_defect(op)
               for op, why in result["ops"])


# --- closed-form oracles against hand-worked cases --------------------------

def test_exact_grouping_rule():
    one, i, two = (1, 0), (0, 1), (2, 0)
    # f' - f on exp(2z): 2 - 1 != 0
    assert not zero_closed_form([(one, (0, 1)), ((-1, 0), (1, 0))], two)
    # f' - 2f on exp(2z): 2 - 2 = 0
    assert zero_closed_form([(one, (0, 1)), ((-2, 0), (1, 0))], two)
    # f'' + f on exp(iz): i^2 + 1 = 0
    assert zero_closed_form([(one, (0, 0, 1)), (one, (1, 0, 0))], i)
    # ... but f'' + f + f^2 has a degree-2 group that cannot cancel
    assert not zero_closed_form(
        [(one, (0, 0, 1)), (one, (1, 0, 0)), (one, (2, 0, 0))], i)
    # f f'' - (f')^2 vanishes on every exponential
    for c in workloads.GAUSSIAN_C:
        assert zero_closed_form([(one, (1, 0, 1)), ((-1, 0), (0, 2, 0))], c)
    for monos, c in workloads.CRITERION_1:
        assert zero_closed_form(monos, c)
    # criterion 2 gives (d, nu, k) = (7, 11, 3) for P_A
    assert expected_stats(workloads.CRITERION_1[0][0]) == [7, 7, 11, 3]


def test_random_exact_cases_cover_both_answers():
    rng = random.Random(11)
    answers = [zero_closed_form(*workloads.random_exact_case(rng))
               for _ in range(200)]
    assert 20 < sum(answers) < 180


def test_lambert_w_roots_of_exp_minus_1_minus_z():
    x = -1 / math.e
    for k in (1, -2, 2, -3, 5):
        w = lambert_w(k, x)
        assert abs(w * cmath.exp(w) - x) < 1e-14
    # W_1 and W_-2 are conjugate at a real argument on the cut
    assert abs(lambert_w(1, x) - lambert_w(-2, x).conjugate()) < 1e-14
    zeros = exp_minus_1_minus_z_zeros(20.0)
    assert zeros[0] == (0j, 2)
    for z, m in zeros[1:]:
        assert m == 1 and abs(z) <= 20.0
        assert abs(cmath.exp(z) - 1 - z) <= 1e-12 * abs(1 + z)
    assert len({(round(z.real, 9), round(z.imag, 9)) for z, _ in zeros}) \
        == len(zeros)
    # each branch pair adds a conjugate pair, |z| ~ 2 pi k: 7.75 and 14.1
    assert len(zeros) == 1 + 2 * 2


def test_lambert_w_against_scipy():
    special = pytest.importorskip("scipy.special")
    for k in (1, -2, 3, -4):
        assert abs(lambert_w(k, -1 / math.e)
                   - complex(special.lambertw(-1 / math.e, k))) < 1e-12


def test_exp_z2_minus_1_and_sin_cubed_zeros():
    zeros = exp_z2_minus_1_zeros(6.0)
    assert sum(m for _, m in zeros) == 22 and (0j, 2) in zeros
    for z, _ in zeros:
        assert abs(cmath.exp(z * z) - 1) < 1e-12
    assert sin_cubed_zeros(12.0) == [(complex(n * math.pi), 3)
                                     for n in range(-3, 4)]


def test_check_divisor():
    expect = [[0.0, 0.0, 2], [1.0, 0.0, 1], [30.0, 0.0, 1]]
    assert check_divisor([[1e-12, 0.0, 2], [1.0, 1e-10, 1]], 10.0,
                         expect) is None
    assert "degree" in check_divisor([[1.0, 0.0, 1]], 10.0, expect)
    assert check_divisor([[0.0, 0.0, 1], [1.0, 0.0, 2]], 10.0, expect)
    assert check_divisor([[1e-6, 0.0, 2], [1.0, 0.0, 1]], 10.0, expect)


def test_exp_characteristic_oracle(tmp_path):
    assert exp_characteristic(math.pi) == 1.0
    job = {"name": "exp", "command": "nev",
           "spec": {"function": "exp(z)",
                    "radii": {"start": 2, "stop": 40, "count": 2}}}
    out = tmp_path / "rows.csv"
    good = [f"{r!r},{r / math.pi!r},0,{r / math.pi!r},false,"
            for r in (2.0, 40.0)]
    out.write_text("# function exp(z)\nr,m,N,T,perturbed_r,error\n"
                   + "\n".join(good) + "\n")
    assert [why for _, why in check_nev_job(job, 0, out)] == [None, None]
    bad = good[:1] + [f"40.0,0,0,{40 / math.pi + 1e-6!r},false,"]
    out.write_text("r,m,N,T,perturbed_r,error\n" + "\n".join(bad) + "\n")
    whys = [why for _, why in check_nev_job(job, 0, out)]
    assert whys[0] is None and "r/pi" in whys[1]


def test_known_defects_are_exactly_the_two_reported():
    assert is_known_defect("nev:tan_cubed_linear@29.837171@461")
    assert not is_known_defect("nev:tan_cubed_linear@29.9@462")
    assert not is_known_defect("nev:tan@29.837171@461")
    assert is_known_defect("exact:near_cancel_k12")
    assert not is_known_defect("exact:near_cancel_k11")
    assert not is_known_defect("locate:poly3")
