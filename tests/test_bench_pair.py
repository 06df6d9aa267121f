import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
)
bench_pair = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pair)

METRICS = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
]


def side(digest="d", **values):
    return {"summary": {"metrics": {name: {"value": v} for name, v in values.items()}}, "digest": digest}


def pair(parent: dict, change: dict) -> dict:
    return {"parent": parent, "change": change}


def test_report_counts_wins_by_each_metrics_direction():
    runs = {"w": [
        pair(side(items_per_s=1.0, peak_rss_mb=5.0), side(items_per_s=2.0, peak_rss_mb=4.0)),
        pair(side(items_per_s=3.0, peak_rss_mb=5.0), side(items_per_s=2.0, peak_rss_mb=6.0)),
        pair(side(items_per_s=1.0, peak_rss_mb=5.0), side(items_per_s=4.0, peak_rss_mb=4.5)),
    ]}
    table = bench_pair.report(runs, METRICS)["w"]
    assert table["items_per_s"]["change_wins"] == 2  # higher is better
    assert table["peak_rss_mb"]["change_wins"] == 2  # lower is better
    assert table["items_per_s"]["pairs"] == table["peak_rss_mb"]["pairs"] == 3
    assert table["items_per_s"]["parent"]["runs"] == [1.0, 3.0, 1.0]
    assert table["items_per_s"]["change"]["median"] == 2.0
    assert table["items_per_s"]["better"] == "higher" and table["peak_rss_mb"]["unit"] == "MB"
    assert table["digests_equal"]


def test_report_counts_ties_for_neither_side():
    runs = {"w": [pair(side(items_per_s=2.0, peak_rss_mb=5.0), side(items_per_s=2.0, peak_rss_mb=5.0))] * 4}
    table = bench_pair.report(runs, METRICS)["w"]
    for name in ("items_per_s", "peak_rss_mb"):
        assert table[name]["change_wins"] == 0
        assert table[name]["pairs"] == 4


def test_report_skips_missing_values():
    runs = {"w": [
        pair(side(items_per_s=1.0), side(items_per_s=2.0)),
        pair(side(items_per_s=1.0), side()),  # the change reported no value
        pair(side(), side(items_per_s=0.5)),  # nor did the parent
    ]}
    row = bench_pair.report(runs, METRICS)["w"]["items_per_s"]
    assert row["pairs"] == 1 and row["change_wins"] == 1
    assert row["parent"]["runs"] == [1.0, 1.0]
    assert row["change"]["runs"] == [2.0, 0.5]
    missing = bench_pair.report(runs, METRICS)["w"]["peak_rss_mb"]
    assert missing["pairs"] == 0 and missing["parent"]["median"] is None


@pytest.mark.parametrize(
    "digests, equal",
    [((("a", "a"), ("b", "b")), True), ((("a", "a"), ("b", None)), False),
     ((("a", "a"), (None, "b")), False), (((None, None),), False), ((("a", "b"),), False)],
    ids=["equal", "change-missing", "parent-missing", "both-missing", "differ"],
)
def test_digests_equal_needs_both_digests_in_every_pair(digests, equal):
    runs = {"w": [pair(side(p, items_per_s=1.0), side(c, items_per_s=1.0)) for p, c in digests]}
    assert bench_pair.report(runs, METRICS)["w"]["digests_equal"] is equal


def test_spread_of_one_value_and_of_none():
    assert bench_pair.spread([3.5]) == {"runs": [3.5], "median": 3.5, "q1": 3.5, "q3": 3.5}
    assert bench_pair.spread([]) == {"runs": [], "median": None, "q1": None, "q3": None}
    assert bench_pair.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "runs": [1.0, 2.0, 3.0, 4.0, 5.0], "median": 3.0, "q1": 2.0, "q3": 4.0,
    }


def ratio_runs(ratios):
    """Pairs whose parent reads 1.0 on both metrics and whose change reads
    ``ratio``, so each pair's change/parent ratio is ``ratio`` exactly."""
    return {"w": [pair(side(items_per_s=1.0, peak_rss_mb=1.0), side(items_per_s=r, peak_rss_mb=r)) for r in ratios]}


def test_sign_test_p_of_ten_wins_and_of_an_even_split():
    ten = bench_pair.report(ratio_runs([1.1 + 0.01 * i for i in range(10)]), METRICS)["w"]
    assert ten["items_per_s"]["change_wins"] == 10 and ten["items_per_s"]["sign_test_p"] == 2 / 1024
    assert ten["peak_rss_mb"]["change_wins"] == 0 and ten["peak_rss_mb"]["sign_test_p"] == 2 / 1024
    even = bench_pair.report(ratio_runs([1.1] * 5 + [0.9] * 5), METRICS)["w"]["items_per_s"]
    assert even["change_wins"] == 5 and even["sign_test_p"] == 1.0


def test_sign_test_counts_ties_for_neither_side():
    # 6 wins, 0 losses and 4 ties: the test sees 6 pairs
    row = bench_pair.report(ratio_runs([1.2] * 6 + [1.0] * 4), METRICS)["w"]["items_per_s"]
    assert row["change_wins"] == 6 and row["sign_test_p"] == 2 / 64
    ties = bench_pair.report(ratio_runs([1.0] * 10), METRICS)["w"]["items_per_s"]
    assert ties["sign_test_p"] == 1.0


def test_ratio_interval_of_ten_pairs_is_the_2nd_and_9th_ratio():
    ratios = [1.05, 0.91, 1.3, 0.97, 1.12, 0.88, 1.01, 1.2, 0.95, 1.08]
    row = bench_pair.report(ratio_runs(ratios), METRICS)["w"]["items_per_s"]
    ordered = sorted(ratios)
    assert row["ratio_interval"] == [ordered[1], ordered[8]]
    assert row["ratio_median"] == (ordered[4] + ordered[5]) / 2


def test_ratio_interval_needs_six_pairs():
    assert bench_pair.median_interval([0.9, 1.0, 1.1, 1.2, 1.3]) is None
    assert bench_pair.median_interval([1.3, 0.9, 1.0, 1.1, 1.2, 1.4]) == [0.9, 1.4]
    row = bench_pair.report(ratio_runs([]), METRICS)["w"]["items_per_s"]
    assert row["ratio_median"] is None and row["ratio_interval"] is None and row["sign_test_p"] == 1.0
