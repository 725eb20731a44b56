"""tools/ab.py's summaries of A/B benchmark runs."""

import importlib.util
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
