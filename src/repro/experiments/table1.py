"""Tables 1(a)-(c) reproduction: accuracy vs. number of nodes, equal partitioning.

For every corpus and for the three clustering settings (content-driven,
structure/content-driven and structure-driven, controlled by the f range),
the paper reports the average F-measure of CXK-means for 1, 3, 5, 7 and 9
nodes with the data equally distributed over the peers.  The expected shape
is a monotone (on average) decrease of accuracy as the number of nodes grows,
with the centralized case as the upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.partition import PartitioningScheme
from repro.datasets.registry import cluster_count, profile
from repro.evaluation.reporting import format_accuracy_table
from repro.experiments.runner import ExperimentSweep, pivot
from repro.network.costmodel import CostModel

#: Datasets evaluated per clustering goal: the paper omits Wikipedia from the
#: structure/content and structure-driven tables because its articles have no
#: structural differences (Sec. 5.2).
GOAL_DATASETS: Dict[str, Sequence[str]] = {
    "content": ("DBLP", "IEEE", "Shakespeare", "Wikipedia"),
    "hybrid": ("DBLP", "IEEE", "Shakespeare"),
    "structure": ("DBLP", "IEEE", "Shakespeare"),
}

#: Paper sub-table labels per goal.
GOAL_SUBTABLE: Dict[str, str] = {
    "content": "(a) f in [0, 0.3] -- content-driven",
    "hybrid": "(b) f in [0.4, 0.6] -- structure/content-driven",
    "structure": "(c) f in [0.7, 1] -- structure-driven",
}


@dataclass
class AccuracyTableConfig:
    """Parameters of the Tables 1 / 2 sweeps."""

    goals: Sequence[str] = ("content", "hybrid", "structure")
    node_counts: Sequence[int] = (1, 3, 5, 7, 9)
    scheme: PartitioningScheme = PartitioningScheme.EQUAL
    gamma: float = 0.85
    scale: float = 1.0
    f_values: Optional[Sequence[float]] = None
    seeds: Sequence[int] = (0,)
    max_iterations: int = 6
    cost_model: CostModel = field(default_factory=CostModel)
    datasets: Optional[Sequence[str]] = None
    #: Similarity backend spec driving the clustering hot path
    #: (``"python"`` or ``"numpy"``).
    backend: str = "python"
    #: Transport of the collaborative rounds (``"sim"`` / ``"real"``).
    network: str = "sim"
    #: Per-round deadline of the real transport (``None`` = config default).
    network_timeout: Optional[float] = None


@dataclass
class AccuracyTableResult:
    """F-measure per goal, dataset and node count."""

    scheme: str
    #: {goal: {dataset: {nodes: F-measure}}}
    tables: Dict[str, Dict[str, Dict[int, float]]]
    #: {goal: {dataset: k}}
    cluster_counts: Dict[str, Dict[str, int]]

    def report(self, table_number: int = 1) -> str:
        """Render the three sub-tables in the layout of the paper."""
        blocks: List[str] = []
        for goal, per_dataset in self.tables.items():
            blocks.append(
                format_accuracy_table(
                    per_dataset,
                    cluster_counts=self.cluster_counts.get(goal, {}),
                    title=(
                        f"Table {table_number}{GOAL_SUBTABLE[goal]} -- "
                        f"{self.scheme} data distribution"
                    ),
                )
            )
        return "\n\n".join(blocks)


def run_accuracy_table(config: Optional[AccuracyTableConfig] = None) -> AccuracyTableResult:
    """Run the accuracy-vs-nodes sweep for the configured partitioning scheme."""
    config = config or AccuracyTableConfig()
    tables: Dict[str, Dict[str, Dict[int, float]]] = {}
    counts: Dict[str, Dict[str, int]] = {}
    for goal in config.goals:
        datasets = config.datasets or GOAL_DATASETS[goal]
        datasets = [
            name
            for name in datasets
            if goal == "content" or profile(name).supports_structure
        ]
        sweep = ExperimentSweep(
            datasets=datasets,
            goal=goal,
            node_counts=config.node_counts,
            scheme=config.scheme,
            algorithm="cxk",
            gamma=config.gamma,
            scale=config.scale,
            f_values=config.f_values,
            seeds=config.seeds,
            max_iterations=config.max_iterations,
            cost_model=config.cost_model,
            backend=config.backend,
            network=config.network,
            network_timeout=config.network_timeout,
        )
        aggregates = sweep.run()
        tables[goal] = pivot(aggregates, value="f_measure")
        counts[goal] = {name: cluster_count(name, goal) for name in datasets}
    return AccuracyTableResult(
        scheme=config.scheme.value, tables=tables, cluster_counts=counts
    )


def run_table1(config: Optional[AccuracyTableConfig] = None) -> AccuracyTableResult:
    """Reproduce Tables 1(a)-(c): equal data distribution."""
    config = config or AccuracyTableConfig()
    if config.scheme is not PartitioningScheme.EQUAL:
        raise ValueError("Table 1 uses the equal partitioning scheme")
    return run_accuracy_table(config)
