"""Tests for cluster validity measures and reporting."""

import pytest

from repro.evaluation.fmeasure import f_measure_breakdown, overall_f_measure, pairwise_f
from repro.evaluation.reporting import format_accuracy_table, format_series, format_table

REFERENCE = {
    "a1": "A", "a2": "A", "a3": "A",
    "b1": "B", "b2": "B",
    "c1": "C",
}

PERFECT = [["a1", "a2", "a3"], ["b1", "b2"], ["c1"]]
MERGED = [["a1", "a2", "a3", "b1", "b2", "c1"]]
HALF = [["a1", "a2", "b1"], ["a3", "b2", "c1"]]


class TestPairwiseF:
    def test_harmonic_mean(self):
        assert pairwise_f(0.5, 1.0) == pytest.approx(2 / 3)

    def test_zero_when_both_zero(self):
        assert pairwise_f(0.0, 0.0) == 0.0


class TestOverallFMeasure:
    def test_perfect_clustering_scores_one(self):
        assert overall_f_measure(PERFECT, REFERENCE) == pytest.approx(1.0)

    def test_single_merged_cluster_scores_less(self):
        value = overall_f_measure(MERGED, REFERENCE)
        assert 0.0 < value < 1.0

    def test_mixed_clustering_between_the_two(self):
        merged = overall_f_measure(MERGED, REFERENCE)
        half = overall_f_measure(HALF, REFERENCE)
        assert half < 1.0
        assert merged < 1.0

    def test_empty_reference(self):
        assert overall_f_measure(PERFECT, {}) == 0.0

    def test_empty_clustering(self):
        assert overall_f_measure([], REFERENCE) == 0.0

    def test_unclustered_objects_reduce_recall(self):
        missing = [["a1", "a2"], ["b1", "b2"], ["c1"]]  # a3 unclustered
        assert overall_f_measure(missing, REFERENCE) < 1.0

    def test_extra_unlabelled_ids_do_not_crash(self):
        clusters = [["a1", "a2", "a3", "zzz"], ["b1", "b2"], ["c1"]]
        value = overall_f_measure(clusters, REFERENCE)
        assert 0.0 < value <= 1.0

    def test_breakdown_identifies_best_cluster_per_class(self):
        breakdown = f_measure_breakdown(PERFECT, REFERENCE)
        by_class = {entry.class_label: entry for entry in breakdown}
        assert by_class["A"].best_cluster == 0
        assert by_class["B"].best_cluster == 1
        assert by_class["A"].precision == 1.0 and by_class["A"].recall == 1.0


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bbbb", 2]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in text
        assert len(lines) == 4

    def test_format_table_pads_missing_cells(self):
        text = format_table(["a", "b", "c"], [["only"]])
        assert "only" in text

    def test_format_series_renders_bars(self):
        text = format_series({1: 10.0, 3: 5.0, 5: 2.5}, title="runtime")
        assert text.splitlines()[0] == "runtime"
        assert "#" in text
        assert "10.0000" in text

    def test_format_series_empty(self):
        assert format_series({}, title="empty") == "empty"

    def test_format_accuracy_table_layout(self):
        results = {"DBLP": {1: 0.8, 3: 0.7}, "IEEE": {1: 0.6, 3: 0.5}}
        text = format_accuracy_table(results, cluster_counts={"DBLP": 6, "IEEE": 8})
        assert "DBLP" in text and "IEEE" in text
        assert "0.800" in text and "0.500" in text
