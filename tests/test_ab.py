"""tools/ab.py's summaries of A/B benchmark runs."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _run(passes, rss):
    return {"passes": passes,
            "summary": {"metrics": {"peak_rss_mb": {"value": rss}}}}


def test_rss_is_compared_at_equal_pass_counts():
    """Readings pair up by pass count, not by pair: the parent's 14-pass
    runs meet the change's 14-pass runs, and a count only one side reached
    (13 for the parent, 15 for the change) is left out."""
    pairs = [
        {"parent": _run(14, 38.0), "change": _run(15, 38.9)},
        {"parent": _run(14, 38.2), "change": _run(14, 38.1)},
        {"parent": _run(13, 37.5), "change": _run(14, 38.3)},
        {"parent": _run(14, 38.4), "change": _run(14, 38.5)},
    ]
    assert ab.rss_by_passes(pairs) == {
        "14": {"parent_median": 38.2, "parent_runs": 3,
               "change_median": 38.3, "change_runs": 3}}


def test_rss_by_passes_keeps_every_shared_count_in_order():
    pairs = [{"parent": _run(n, float(n)), "change": _run(n, n + 0.5)}
             for n in (16, 9, 12)]
    got = ab.rss_by_passes(pairs)
    assert list(got) == ["9", "12", "16"]
    assert got["12"] == {"parent_median": 12.0, "parent_runs": 1,
                         "change_median": 12.5, "change_runs": 1}


def test_without_workload_every_benchmark_workload_runs(tmp_path,
                                                        monkeypatch):
    """No --workload runs each workload BENCHMARK.json declares, in its
    order, and writes one entry for each."""
    ran = []

    def run_once(copy, workload, seed):
        ran.append((copy.name, workload))
        metrics = {m: {"value": 1.0} for m in ab.METRICS}
        return {"lines": [], "passes": 2, "hashes": None,
                "summary": {"metrics": metrics, "failed": 0,
                            "attempted": 1, "correct": True}}

    monkeypatch.setattr(ab, "_git", lambda *args: args[-1])
    monkeypatch.setattr(ab, "export", lambda rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(ab, "environment", dict)
    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "ab.json"
    assert ab.main(["--parent", "p", "--change", "c", "--out", str(out),
                    "--pairs", "1", "--work", str(tmp_path / "w")]) == 0
    names = ab.benchmark_workloads()
    assert names == ["suite", "nev_dense", "locate", "exact"]
    assert ran == [(side, w) for w in names for side in ("parent", "change")]
    assert list(json.loads(out.read_text())["workloads"]) == [
        f"{w} seed {ab.DEFAULT_SEED}" for w in names]
