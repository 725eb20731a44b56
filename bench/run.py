"""nevlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {suite,nev_dense,locate,exact}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; nevlab is imported from ``src/``.
Each pass runs the workload's jobs one after another (a closed loop with one
client), every job in a fresh interpreter, because nevlab keeps process-wide
``functools.cache`` tables and a user's ``nevlab`` run always starts cold.
Passes repeat until ``--seconds`` would be exceeded (at least two passes).

With ``--trace 0`` the last line holds the end-to-end metrics (medians over
passes); with ``--trace 1`` passes alternate untraced and traced, and the
last line holds the per-layer metrics of the traced passes.  The lines
before it give quartiles and sample counts, fail_ratio, report hashes and
the environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_HASHES = BENCH / "reference_hashes.json"
DEFAULT_SEED = 20260823
RUN_LIMIT_S = 170.0      # a run must end inside 180 s, set-up included
# Two passes at least, so a run has a median to report even when one pass
# of `suite` takes more than half of --seconds.
MIN_PASSES = 2
MAX_PASSES = 500

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure (not a wrong answer from nevlab)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(cmd: list[str], cwd: Path, deadline: float) -> None:
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=_env(),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} overran the {RUN_LIMIT_S:.0f} s run "
                         f"limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}: "
                         f"{proc.stderr[-2000:]}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_job(job: dict, jobdir: Path, traced: bool, deadline: float) -> dict:
    """Run one job in a fresh worker; returns its measurements, its checked
    operations and the hashes of the files it wrote."""
    jobdir.mkdir()
    out_path = None
    if job["kind"] == "cli":
        spec_path = jobdir / "spec.json"
        spec_path.write_text(json.dumps(job["spec"]))
        out_path = jobdir / ("report.json" if job["command"] == "check"
                             else "rows.csv")
        job = dict(job, argv=workloads.cli_argv(job, str(spec_path),
                                                str(out_path)))
    job_path, result_path = jobdir / "job.json", jobdir / "result.json"
    job_path.write_text(json.dumps(job))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(job_path),
           str(result_path)]
    cmd.append(repr(time.perf_counter()))
    if traced:
        cmd.append("--trace")
    _run_child(cmd, jobdir, deadline)
    result = json.loads(result_path.read_text())
    if "crash" in result:
        raise BenchError(f"job {job['name']} crashed:\n{result['crash']}")
    hashes = {}
    if job["kind"] == "cli":
        ops = workloads.check_cli_job(job, result["code"], out_path)
        for f in sorted(jobdir.iterdir()):
            if f.name.startswith(out_path.stem + "."):
                hashes[f"{job['name']}/{f.name}"] = _sha256(f)
    elif job["kind"] == "locate":
        ops = workloads.check_locate(job["cases"], result["answers"])
    else:
        ops = workloads.check_exact(job["cases"], result["answers"])
    result["ops"] = ops
    result["hashes"] = hashes
    return result


def run_pass(jobs: list[dict], workdir: Path, traced: bool,
             deadline: float) -> dict:
    workdir.mkdir()
    try:
        results = [run_job(job, workdir / f"{i:02d}_{job['name']}", traced,
                           deadline) for i, job in enumerate(jobs)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "setup_s": sum(r["setup_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "ops": [op for r in results for op in r["ops"]],
        "hashes": {k: v for r in results for k, v in r["hashes"].items()},
    }
    if traced:
        out["layers"] = tracer.layer_metrics(
            tracer.merge_raw([r["trace"] for r in results]))
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Measure one workload; returns the summary that main() prints."""
    if not (SRC / "nevlab" / "__init__.py").is_file():
        raise BenchError(f"no nevlab sources under {SRC}")
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    jobs = workloads.make_jobs(workload, seed, tiny)
    plain, traced = [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        # Compile the package's bytecode once, outside any measurement.
        _run_child([sys.executable, "-c", "import nevlab"], Path(tmp),
                   deadline)
        while True:
            n = len(plain)
            plain.append(run_pass(jobs, Path(tmp) / f"p{n}", False,
                                  deadline))
            if trace:
                traced.append(run_pass(jobs, Path(tmp) / f"t{n}", True,
                                       deadline))
            elapsed = time.perf_counter() - start
            if n + 1 >= MIN_PASSES and (elapsed * (n + 2) / (n + 1) > seconds
                                        or n + 1 >= MAX_PASSES):
                break

    summary = {"workload": workload, "seed": seed, "passes": len(plain)}
    summary["end_to_end"] = {
        name: _quartiles([p[name] for p in plain]) for name in END_TO_END}
    ops = [op for p in plain + traced for op in p["ops"]]
    failures = [(op, why) for op, why in ops if why is not None]
    summary["attempted"] = len(ops)
    summary["failures"] = failures
    summary["correct"] = all(workloads.is_known_defect(op)
                             for op, _ in failures)
    hashes = plain[0]["hashes"]
    summary["hashes"] = hashes
    summary["hashes_varying"] = sorted(
        {k for p in plain + traced for k, v in p["hashes"].items()
         if hashes.get(k) != v})
    if trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - summary["end_to_end"]["wall_s"][1])
        summary["per_layer"] = layers
        summary["traced_passes"] = len(traced)
    return summary


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def _reference_hashes(workload: str) -> dict:
    try:
        return json.loads(REFERENCE_HASHES.read_text()).get(workload, {})
    except (OSError, ValueError):
        return {}


def print_summary(s: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    print(f"workload {s['workload']} seed {s['seed']} passes {s['passes']}"
          + (f" traced_passes {s['traced_passes']}" if trace else ""))
    print("env " + json.dumps(environment()))
    n = s["passes"]
    for name, unit in END_TO_END.items():
        q1, med, q3 = s["end_to_end"][name]
        print(f"{name:<12} median {med:.6g} {unit}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  n={n}")
    failed = len(s["failures"])
    print(f"fail_ratio   {failed / s['attempted']:.6g} ratio  "
          f"({failed} of {s['attempted']} operations over "
          f"{n + s.get('traced_passes', 0)} passes)")
    for op, why in sorted(set(s["failures"]))[:20]:
        known = " (known defect)" if workloads.is_known_defect(op) else ""
        print(f"  failed {op}: {why}{known}")
    ref = _reference_hashes(s["workload"])
    if s["hashes"]:
        changed = sorted(k for k in set(ref) | set(s["hashes"])
                         if ref.get(k) != s["hashes"].get(k))
        print(f"report_hashes changed {len(changed)} of "
              f"{len(s['hashes'])}; varying between passes "
              f"{len(s['hashes_varying'])}")
        for k in changed:
            print(f"  changed {k}")
        print("report_hashes " + json.dumps(s["hashes"], sort_keys=True))
    if trace:
        metrics = {}
        for name, unit in tracer.PER_LAYER.items():
            value = s["per_layer"][name]
            print(f"{name:<40} {value:.6g} {unit}  "
                  f"n={s['traced_passes']}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": s["end_to_end"][name][1], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": s["correct"], "attempted": s["attempted"],
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        summary = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(print_summary(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
