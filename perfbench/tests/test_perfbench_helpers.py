"""Unit tests of the benchmark's own helpers (no program run needed).

Run from the checkout root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import pbstats  # noqa: E402
import pbtrace  # noqa: E402
import run  # noqa: E402


# --------------------------------------------------------------------------- #
# The percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "count, percentile",
    [(1000, 99.0), (999, 98.0), (100, 90.0), (50, 80.0), (40, 75.0), (20, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, percentile):
    values = list(range(1, count + 1))
    found, value, samples = pbstats.tail_percentile(values)
    assert found == percentile
    assert samples == count
    assert count - value >= pbstats.MIN_SAMPLES_BEYOND
    assert value == pbstats.nearest_rank(sorted(values), percentile)


def test_tail_needs_ten_samples_beyond_the_median():
    assert pbstats.tail_percentile(list(range(19))) is None


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert pbstats.tail_percentile(values) == pbstats.tail_percentile(sorted(values))


# --------------------------------------------------------------------------- #
# Open-loop latency, timed from due time
# --------------------------------------------------------------------------- #
def test_open_loop_latency_runs_from_due_time_not_send_time():
    records = [
        {"due": 1.000, "sent": 1.000, "done": 1.002, "ok": True},
        # queued behind a stall: sent 50 ms late, served in 2 ms
        {"due": 1.010, "sent": 1.060, "done": 1.062, "ok": True},
    ]
    assert pbstats.open_loop_latencies(records) == pytest.approx([2.0, 52.0])


def test_open_loop_latency_skips_requests_that_never_completed():
    records = [{"due": 0.0, "ok": False}, {"due": 0.0, "done": 0.003, "ok": True}]
    assert pbstats.open_loop_latencies(records) == pytest.approx([3.0])


def test_rung_fails_objective_on_failure_or_growing_backlog():
    fast = [{"due": i / 100, "done": i / 100 + 0.002, "ok": True} for i in range(200)]
    assert pbstats.rung_summary(fast, 100, 20.0, 1.0)["meets_slo"]
    failed = fast[:-1] + [{"due": 1.99, "ok": False}]
    assert not pbstats.rung_summary(failed, 100, 20.0, 1.0)["meets_slo"]
    backlog = [dict(record, done=record["done"] + 1.5 * i / 200) for i, record in enumerate(fast)]
    summary = pbstats.rung_summary(backlog, 100, 20.0, 1.0)
    assert summary["drain_s"] > 1.0 and not summary["meets_slo"]


# --------------------------------------------------------------------------- #
# Span self time
# --------------------------------------------------------------------------- #
def test_union_length_merges_overlapping_intervals():
    assert pbtrace.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert pbtrace.union_length([]) == 0.0


def test_self_time_subtracts_union_of_children_not_their_sum():
    spans = [
        (0, None, "outer", 0.0, 10.0),
        (1, 0, "child", 1.0, 4.0),
        (2, 0, "child", 3.0, 6.0),  # overlaps the first child
        (3, 1, "grandchild", 1.5, 2.0),
    ]
    times = pbtrace.self_times(spans)
    assert times["outer"] == pytest.approx(10.0 - 5.0)
    assert times["child"] == pytest.approx((3.0 - 0.5) + 3.0)
    assert times["grandchild"] == pytest.approx(0.5)


def test_tracer_nests_spans_and_counts():
    tracer = pbtrace.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    tracer.count("things", 2)
    spans = tracer.closed_spans()
    assert [span[1] for span in spans] == [None, outer]
    assert tracer.counters["things"] == 2


def test_patch_wraps_classmethods_and_undoes():
    class Owner:
        @classmethod
        def make(cls, value):
            return (cls.__name__, value)

    module = type(sys)("perfbench_test_owner")
    module.Owner = Owner
    sys.modules["perfbench_test_owner"] = module
    tracer = pbtrace.Tracer()
    try:
        undo = pbtrace.patch(tracer, "perfbench_test_owner.Owner", "make", "owner.make")
        assert Owner.make(3) == ("Owner", 3)
        assert [span[2] for span in tracer.closed_spans()] == ["owner.make"]
        undo()
        Owner.make(4)
        assert len(tracer.closed_spans()) == 1
    finally:
        del sys.modules["perfbench_test_owner"]


# --------------------------------------------------------------------------- #
# Names against BENCHMARK.json
# --------------------------------------------------------------------------- #
SPEC = run.load_spec(ROOT)


def test_workload_names_match_the_definition():
    from workloads import WORKLOADS

    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_the_code_emits_is_declared():
    per_layer = set(run.declared(SPEC, "per_layer"))
    emitted = set(pbtrace.layer_metrics([], {}))
    assert emitted <= per_layer, sorted(emitted - per_layer)


def test_validate_metrics_rejects_unknown_and_missing_names():
    names = run.declared(SPEC, "end_to_end")
    produced = {name: 1.0 for name in names}
    block = run.validate_metrics(produced, names, fill_missing=False)
    assert {name: entry["unit"] for name, entry in block.items()} == names
    with pytest.raises(ValueError, match="not declared"):
        run.validate_metrics(dict(produced, typo_ms=1.0), names, fill_missing=False)
    with pytest.raises(ValueError, match="not measured"):
        run.validate_metrics({}, names, fill_missing=False)
    filled = run.validate_metrics({}, names, fill_missing=True)
    assert all(entry["value"] == 0.0 for entry in filled.values())


def test_definition_keeps_setup_time_with_the_largest_bound():
    bounds = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert json.loads(json.dumps(SPEC)) == SPEC
