"""Tests of the benchmark's own helpers.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

from common import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    Tally,
    check_metric_name,
    quantile,
    result_line,
    self_times,
    per_item_best,
    tail,
    tail_percentile,
)


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_honours_candidates():
    assert tail_percentile(1000, candidates=(50.0, 75.0)) == 75.0
    assert tail_percentile(5, candidates=(50.0,)) is None


def test_quantile_interpolates_between_order_statistics():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert quantile(samples, 0.0) == 1.0
    assert quantile(samples, 1.0) == 4.0
    assert quantile(samples, 0.5) == pytest.approx(2.5)
    assert quantile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_tail_falls_back_to_supported_percentile():
    samples = [float(i) for i in range(1, 11)]  # 10 samples: median only
    assert tail(samples, 95) == quantile(samples, 0.5)
    many = [float(i) for i in range(1000)]
    assert tail(many, 99) == quantile(many, 0.99)
    assert tail(many, 99.9) == quantile(many, 0.99)


def test_per_item_best_ignores_slow_passes():
    passes = [[1.2, 2.0, 3.0], [1.1, 2.1, 9.0], [9.0, 9.0, 3.5]]
    assert per_item_best(passes) == [1.1, 2.0, 3.0]
    assert per_item_best([[1.0, 2.0], [1.5]]) == [1.0]


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["setup_s", "cell_p95_ms", "simkernel.cross_cpu_slowdown", "a", "0-x",
     "x" * 64],
)
def test_metric_name_accepts_pattern(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize(
    "name",
    ["", ".hidden", "_x", "two words", "rate/s", "é", "x" * 65, None],
)
def test_metric_name_rejects_everything_else(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_declared_metrics_are_valid_and_unique():
    names = [name for name, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
    assert ("setup_s", "s") in END_TO_END


def test_benchmark_json_matches_declarations():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json in this tree")
    spec = json.loads(path.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------


def test_tally_counts_wrong_answers_as_failures():
    tally = Tally()
    assert not tally.correct  # nothing attempted is not a pass
    assert tally.check(True, "unused")
    assert not tally.check(False, "digest differs")
    tally.ok(3)
    tally.fail("non-2xx", n=2)
    assert (tally.attempted, tally.failed) == (7, 3)
    assert tally.reasons == ["digest differs", "non-2xx"]
    assert not tally.correct


def test_tally_merge_and_round_trip():
    a, b = Tally(), Tally()
    a.ok(5)
    b.fail("x")
    a.merge(b)
    assert (a.attempted, a.failed) == (6, 1)
    again = Tally.from_dict(json.loads(json.dumps(a.to_dict())))
    assert again.to_dict() == a.to_dict()


def test_tally_caps_reasons_but_not_counts():
    tally = Tally()
    for i in range(Tally.MAX_REASONS + 5):
        tally.fail(f"r{i}")
    assert tally.failed == Tally.MAX_REASONS + 5
    assert len(tally.reasons) == Tally.MAX_REASONS


def test_result_line_has_exactly_the_contract_keys():
    tally = Tally()
    tally.ok(2)
    line = result_line(tally, {"a": 1.5, "b": 2}, [("a", "s"), ("b", "ms")])
    body = json.loads(line)
    assert set(body) == {"correct", "attempted", "failed", "metrics"}
    assert body["correct"] is True
    assert body["metrics"]["b"] == {"value": 2.0, "unit": "ms"}
    with pytest.raises(ValueError):
        result_line(tally, {"a": 1.0}, [("a", "s"), ("b", "ms")])


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cell", 0.0, 10.0, 1),
        ("run", 1.0, 4.0, 1),
        ("analyze", 5.0, 9.0, 1),
        ("index", 5.5, 6.5, 1),  # grandchild: charged to analyze only
    ]
    got = self_times(spans)
    assert got["cell"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert got["run"] == pytest.approx(3.0)
    assert got["analyze"] == pytest.approx(4.0 - 1.0)
    assert got["index"] == pytest.approx(1.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_sums_repeated_names_and_separates_threads():
    spans = [
        ("cell", 0.0, 2.0, 1),
        ("run", 0.5, 1.0, 1),
        ("cell", 3.0, 4.0, 1),
        ("run", 0.0, 5.0, 2),  # another thread: not a child of a cell
    ]
    got = self_times(spans)
    assert got["cell"] == pytest.approx(1.5 + 1.0)
    assert got["run"] == pytest.approx(0.5 + 5.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("parent", 0.0, 10.0, 1),
        ("a", 1.0, 5.0, 1),
        ("b", 4.0, 6.0, 1),  # partly overlaps a: a sibling, not a child
    ]
    got = self_times(spans)
    assert got["parent"] == pytest.approx(10.0 - 5.0)
    assert got["a"] == pytest.approx(4.0)
    assert got["b"] == pytest.approx(2.0)


def test_self_time_of_nothing_is_empty():
    assert self_times([]) == {}
