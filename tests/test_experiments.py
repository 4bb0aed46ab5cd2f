"""Tests for the experiment drivers (tables, figures and ablations).

These tests run miniature versions of every experiment (tiny corpora, few
node counts, one f value) so the whole suite remains fast; the benchmark
harness runs the full-size versions.
"""

import pytest

from repro.core.partition import PartitioningScheme
from repro.datasets.registry import get_dataset
from repro.experiments.ablation import (
    collaborativeness_ablation,
    cost_model_check,
    gamma_sweep,
)
from repro.experiments.figure7 import Figure7Config, run_figure7
from repro.experiments.figure8 import Figure8Config, run_figure8
from repro.experiments.runner import (
    GOAL_F_VALUES,
    ExperimentSweep,
    aggregate_records,
    make_algorithm,
    pivot,
    run_configuration,
)
from repro.experiments.table1 import AccuracyTableConfig, AccuracyTableResult, run_table1
from repro.experiments.table2 import equal_vs_unequal_degradation, run_table2
from repro.network.costmodel import CostModel
from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.pkmeans import PKMeans
from repro.core.xkmeans import XKMeans

TINY_SCALE = 0.15
FAST_ITERATIONS = 3


@pytest.fixture(scope="module")
def tiny_dblp():
    return get_dataset("DBLP", scale=TINY_SCALE, seed=0)


class TestRunner:
    def test_goal_f_ranges_match_the_paper(self):
        assert all(0.0 <= f <= 0.3 for f in GOAL_F_VALUES["content"])
        assert all(0.4 <= f <= 0.6 for f in GOAL_F_VALUES["hybrid"])
        assert all(0.7 <= f <= 1.0 for f in GOAL_F_VALUES["structure"])

    def test_make_algorithm_dispatch(self):
        config = ClusteringConfig(k=2)
        assert isinstance(make_algorithm("cxk", config), CXKMeans)
        assert isinstance(make_algorithm("PK-means", config), PKMeans)
        assert isinstance(make_algorithm("centralized", config), XKMeans)
        with pytest.raises(ValueError):
            make_algorithm("mystery", config)

    def test_run_configuration_produces_a_complete_record(self, tiny_dblp):
        record = run_configuration(
            tiny_dblp,
            goal="hybrid",
            nodes=2,
            f=0.5,
            gamma=0.7,
            seed=0,
            max_iterations=FAST_ITERATIONS,
        )
        assert record.dataset == "DBLP"
        assert record.nodes == 2
        assert 0.0 <= record.f_measure <= 1.0
        assert record.simulated_seconds > 0
        assert record.k == 16

    def test_run_configuration_with_xk_algorithm(self, tiny_dblp):
        record = run_configuration(
            tiny_dblp,
            goal="content",
            nodes=1,
            f=0.2,
            gamma=0.7,
            seed=0,
            algorithm="xk",
            max_iterations=FAST_ITERATIONS,
        )
        assert record.algorithm == "XK-means"
        assert record.transferred_transactions == 0.0

    def test_aggregate_records_averages(self, tiny_dblp):
        records = [
            run_configuration(
                tiny_dblp, "hybrid", 2, f, 0.7, 0, max_iterations=FAST_ITERATIONS
            )
            for f in (0.4, 0.6)
        ]
        aggregate = aggregate_records(records)
        assert aggregate.runs == 2
        low = min(r.f_measure for r in records)
        high = max(r.f_measure for r in records)
        assert low <= aggregate.f_measure <= high

    def test_aggregate_requires_records(self):
        with pytest.raises(ValueError):
            aggregate_records([])

    def test_sweep_and_pivot(self):
        sweep = ExperimentSweep(
            datasets=("DBLP",),
            goal="hybrid",
            node_counts=(1, 2),
            scale=TINY_SCALE,
            f_values=(0.5,),
            max_iterations=FAST_ITERATIONS,
        )
        aggregates = sweep.run()
        assert len(aggregates) == 2
        table = pivot(aggregates, value="f_measure")
        assert set(table["DBLP"]) == {1, 2}


class TestFigure7:
    def test_runtime_curves_and_saturation(self):
        config = Figure7Config(
            datasets=("DBLP",),
            node_counts=(1, 2, 3),
            scales=(TINY_SCALE,),
            f_values=(0.5,),
            max_iterations=FAST_ITERATIONS,
        )
        result = run_figure7(config)
        series = result.curves["DBLP"][TINY_SCALE]
        assert set(series) == {1, 2, 3}
        assert all(value > 0 for value in series.values())
        assert result.saturation["DBLP"][TINY_SCALE] in (1, 2, 3)
        report = result.report()
        assert "Figure 7" in report and "DBLP" in report


class TestTables:
    def test_table1_structure_goal_layout(self):
        config = AccuracyTableConfig(
            goals=("structure",),
            node_counts=(1, 2),
            scale=TINY_SCALE,
            f_values=(0.9,),
            max_iterations=FAST_ITERATIONS,
            datasets=("DBLP",),
        )
        result = run_table1(config)
        assert result.scheme == "equal"
        assert set(result.tables["structure"]["DBLP"]) == {1, 2}
        assert result.cluster_counts["structure"]["DBLP"] == 4
        assert "Table 1" in result.report()

    def test_table1_rejects_unequal_scheme(self):
        config = AccuracyTableConfig(scheme=PartitioningScheme.UNEQUAL)
        with pytest.raises(ValueError):
            run_table1(config)

    def test_table2_uses_unequal_scheme_and_degradation_helper(self):
        base = dict(
            goals=("content",),
            node_counts=(1, 2),
            scale=TINY_SCALE,
            f_values=(0.2,),
            max_iterations=FAST_ITERATIONS,
            datasets=("DBLP",),
        )
        equal = run_table1(AccuracyTableConfig(**base))
        unequal = run_table2(AccuracyTableConfig(**base))
        assert unequal.scheme == "unequal"
        degradation = equal_vs_unequal_degradation(equal, unequal)
        assert set(degradation["content"]["DBLP"]) == {1, 2}

    def test_degradation_covers_only_what_both_tables_hold(self):
        equal = AccuracyTableResult(
            "equal",
            {
                "content": {"DBLP": {1: 0.8, 2: 0.7}, "IEEE": {1: 0.6}},
                "hybrid": {"DBLP": {1: 0.5}},
            },
            {},
        )
        unequal = AccuracyTableResult(
            "unequal", {"content": {"DBLP": {1: 0.8, 2: 0.6, 4: 0.5}}}, {}
        )
        degradation = equal_vs_unequal_degradation(equal, unequal)
        assert set(degradation) == {"content"}
        assert degradation["content"]["DBLP"] == pytest.approx({1: 0.0, 2: 0.1})
        assert degradation["content"]["IEEE"] == {}


class TestFigure8:
    def test_comparison_produces_both_algorithms(self):
        config = Figure8Config(
            datasets=("DBLP",),
            node_counts=(2, 3),
            scale=TINY_SCALE,
            f_values=(0.5,),
            max_iterations=FAST_ITERATIONS,
        )
        result = run_figure8(config)
        assert set(result.runtime["DBLP"]) == {"CXK-means", "PK-means"}
        assert set(result.accuracy["DBLP"]["CXK-means"]) == {2, 3}
        assert isinstance(result.accuracy_advantage(), float)
        assert "Figure 8" in result.report()

    def test_pk_means_moves_more_data(self):
        config = Figure8Config(
            datasets=("DBLP",),
            node_counts=(3,),
            scale=TINY_SCALE,
            f_values=(0.5,),
            max_iterations=FAST_ITERATIONS,
        )
        result = run_figure8(config)
        cxk_traffic = result.traffic["DBLP"]["CXK-means"][3]
        pk_traffic = result.traffic["DBLP"]["PK-means"][3]
        assert pk_traffic > cxk_traffic


class TestAblations:
    def test_gamma_sweep_returns_scores_per_threshold(self, tiny_dblp):
        results = gamma_sweep(
            tiny_dblp, goal="hybrid", gammas=(0.6, 0.9), nodes=2, max_iterations=FAST_ITERATIONS
        )
        assert set(results) == {0.6, 0.9}
        assert all(0.0 <= value <= 1.0 for value in results.values())

    def test_collaborativeness_ablation(self, tiny_dblp):
        results = collaborativeness_ablation(
            tiny_dblp, goal="hybrid", nodes=(2,), max_iterations=FAST_ITERATIONS
        )
        assert set(results[2]) == {"collaborative", "non_collaborative"}

    def test_cost_model_check_compares_curves(self, tiny_dblp):
        check = cost_model_check(
            tiny_dblp,
            k=6,
            node_counts=(1, 2, 3),
            max_iterations=FAST_ITERATIONS,
            cost_model=CostModel(),
        )
        assert set(check.analytic_curve) == {1, 2, 3}
        assert set(check.empirical_curve) == {1, 2, 3}
        assert check.analytic_optimum > 0
        assert check.analytic_saturation in (1, 2, 3)
        assert check.empirical_saturation in (1, 2, 3)
