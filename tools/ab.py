"""A/B benchmark of two commits: alternating pairs of bench/run.py runs.

    python3 tools/ab.py --parent REV --change REV --out BENCH_<n>.json
                        [--workload NAME ...] [--seed N ...] [--pairs N]
                        [--what TEXT] [--work DIR]

Each commit is exported with ``git archive`` into its own directory (both at
the same moment, since copies made at different times can read differently
on peak_rss_mb), and ``bench/run.py`` runs from each copy's own checkout,
for its own default run length; the default seed is its DEFAULT_SEED.
Pair k runs the parent first when k is even and the change first when k is
odd; all runs go strictly one after another.  The output file keeps every
run's printed lines (less the report_hashes dictionary, compared between
the sides instead: the names of the report files whose hashes differ in
any pair are kept), each run's pass count, and per metric both sides'
medians, the interquartile range of each side's runs and the number of
pairs in which the change read lower.  peak_rss_mb grows with a run's pass
count, so its medians are also given per pass count that both sides
reached.  --workload and --seed may be given more than once; without
--workload every workload that BENCHMARK.json declares runs, in its order.
Each (workload, seed) gets its own entry, written to the output file as
soon as its pairs are done.  An existing output file of the same two
commits keeps its other entries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")

sys.path.insert(0, str(ROOT / "bench"))
from run import DEFAULT_SEED  # noqa: E402


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def benchmark_workloads() -> list[str]:
    """The workload names that BENCHMARK.json declares, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def export(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(copy: Path, workload: str, seed: int) -> dict:
    """One bench/run.py run: its lines, pass count, summary and hashes."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ab: run in {copy} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    hashes = None
    kept = []
    for line in lines:
        if line.startswith("report_hashes {"):
            hashes = json.loads(line.split(" ", 1)[1])
        else:
            kept.append(line)
    passes = int(lines[0].split("passes")[1].split()[0])
    return {"lines": kept, "passes": passes, "summary": json.loads(lines[-1]),
            "hashes": hashes}


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def differing_reports(pairs: list[dict]) -> list[str]:
    """The report files whose hash differs between the sides in any pair."""
    out = set()
    for p in pairs:
        a, b = p["parent"]["hashes"] or {}, p["change"]["hashes"] or {}
        out |= {k for k in a.keys() | b.keys() if a.get(k) != b.get(k)}
    return sorted(out)


def rss_by_passes(pairs: list[dict]) -> dict:
    """For each pass count that both sides reached, each side's median
    peak_rss_mb over its runs of that count, and the number of those runs.
    A run's peak_rss_mb grows with its pass count, so only readings at equal
    counts compare."""
    seen: dict = {"parent": {}, "change": {}}
    for p in pairs:
        for side in seen:
            seen[side].setdefault(p[side]["passes"], []).append(
                p[side]["summary"]["metrics"]["peak_rss_mb"]["value"])
    out = {}
    for n in sorted(seen["parent"].keys() & seen["change"].keys()):
        out[str(n)] = {}
        for side, by in seen.items():
            out[str(n)][f"{side}_median"] = round(statistics.median(by[n]), 6)
            out[str(n)][f"{side}_runs"] = len(by[n])
    return out


def summarise(pairs: list[dict]) -> dict:
    out = {}
    for m in METRICS:
        a = [p["parent"]["summary"]["metrics"][m]["value"] for p in pairs]
        b = [p["change"]["summary"]["metrics"][m]["value"] for p in pairs]
        pa, pb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = _quartiles(a), _quartiles(b)
        out[m] = {
            "parent_median": round(pa, 6), "change_median": round(pb, 6),
            "parent_iqr": round(a3 - a1, 6), "change_iqr": round(b3 - b1, 6),
            "ratio": round(pb / pa, 4),
            "change_lower_in_pairs":
                f"{sum(y < x for x, y in zip(a, b))}/{len(pairs)}",
            "parent_runs": [round(x, 6) for x in a],
            "change_runs": [round(y, 6) for y in b]}
    return out


def environment() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c",
                            "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append", default=None,
                    help="a workload to run (default: every workload in "
                         "BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, action="append", default=None)
    ap.add_argument("--what", default="")
    ap.add_argument("--work", default=None,
                    help="directory for the two copies (default: a new "
                         "temporary directory)")
    args = ap.parse_args(argv)
    revs = {"parent": _git("rev-parse", args.parent),
            "change": _git("rev-parse", args.change)}
    work = Path(args.work or tempfile.mkdtemp(prefix="nevlab-ab-"))
    copies = {side: work / side for side in revs}
    for side, rev in revs.items():
        export(rev, copies[side])
    result = {
        "what": args.what, "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "command": "python3 bench/run.py --workload <name> --seed <seed>, "
                   "each side in its own git archive copy of its commit",
        "pair_order": "pair k runs the parent first when k is even and the "
                      "change first when k is odd; all runs strictly one "
                      "after another",
        "environment": environment(), "workloads": {}}
    out = Path(args.out)
    if out.exists():
        old = json.loads(out.read_text())
        if (old["parent_commit"], old["change_commit"]) == \
                (revs["parent"], revs["change"]):
            result["workloads"] = old["workloads"]
    for workload, seed in [(w, s)
                           for w in args.workload or benchmark_workloads()
                           for s in args.seed or [DEFAULT_SEED]]:
        pairs = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else \
                ("change", "parent")
            pair = {}
            for side in order:
                pair[side] = run_once(copies[side], workload, seed)
                s = pair[side]["summary"]
                print(f"{workload} seed {seed} pair {k} {side}: wall_s "
                      f"{s['metrics']['wall_s']['value']:.4f} passes "
                      f"{pair[side]['passes']} failed {s['failed']}",
                      file=sys.stderr, flush=True)
            pairs.append(pair)
        result["workloads"][f"{workload} seed {seed}"] = {
            "pairs": len(pairs), "summary": summarise(pairs),
            "peak_rss_mb_by_passes": rss_by_passes(pairs),
            "passes_parent": [p["parent"]["passes"] for p in pairs],
            "passes_change": [p["change"]["passes"] for p in pairs],
            "failed_per_run": [[side, p[side]["summary"]["failed"],
                                p[side]["summary"]["attempted"]]
                               for p in pairs for side in p],
            "correct": all(p[side]["summary"]["correct"]
                           for p in pairs for side in p),
            "report_hashes_equal_parent_vs_change": all(
                p["parent"]["hashes"] == p["change"]["hashes"]
                for p in pairs),
            "report_files_differing": differing_reports(pairs),
            "runs": {f"pair{k}": {side: p[side]["lines"] for side in p}
                     for k, p in enumerate(pairs)}}
        out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
