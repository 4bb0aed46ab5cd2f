"""Figure 8 reproduction: CXK-means vs. PK-means runtimes (and accuracy).

Fig. 8 compares the collaborative CXK-means with the adapted, non-
collaborative PK-means baseline on DBLP and IEEE (structure/content-driven
setting, equal partitioning) as the number of peers grows.  The expected
shape: the two algorithms are comparable on small networks, and PK-means
degrades on larger ones because of its all-to-all exchange of local
representatives; accuracy is essentially the same, with CXK-means slightly
ahead (+0.03 on average in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.partition import PartitioningScheme
from repro.evaluation.reporting import format_series, format_table
from repro.experiments.runner import ExperimentSweep, pivot
from repro.network.costmodel import CostModel


@dataclass
class Figure8Config:
    """Parameters of the Fig. 8 comparison."""

    datasets: Sequence[str] = ("DBLP", "IEEE")
    node_counts: Sequence[int] = (1, 3, 5, 7, 9, 11)
    goal: str = "hybrid"
    gamma: float = 0.85
    scale: float = 1.0
    f_values: Sequence[float] = (0.5,)
    seeds: Sequence[int] = (0,)
    max_iterations: int = 6
    cost_model: CostModel = field(default_factory=CostModel)
    #: Similarity backend spec driving the clustering hot path
    #: (``"python"`` or ``"numpy[:block=N]"``).
    backend: str = "python"


@dataclass
class Figure8Result:
    """Runtime and accuracy of both algorithms per dataset and node count."""

    #: {dataset: {algorithm: {nodes: simulated seconds}}}
    runtime: Dict[str, Dict[str, Dict[int, float]]]
    #: {dataset: {algorithm: {nodes: F-measure}}}
    accuracy: Dict[str, Dict[str, Dict[int, float]]]
    #: {dataset: {algorithm: {nodes: transferred transactions}}}
    traffic: Dict[str, Dict[str, Dict[int, float]]]

    # ------------------------------------------------------------------ #
    def accuracy_advantage(self) -> float:
        """Mean F-measure advantage of CXK-means over PK-means (paper: ~0.03)."""
        deltas: List[float] = []
        for dataset, per_algo in self.accuracy.items():
            cxk = per_algo.get("CXK-means", {})
            pk = per_algo.get("PK-means", {})
            for nodes in cxk:
                if nodes in pk:
                    deltas.append(cxk[nodes] - pk[nodes])
        return sum(deltas) / len(deltas) if deltas else 0.0

    def report(self) -> str:
        """Render runtime series and the accuracy comparison table."""
        blocks: List[str] = []
        for dataset, per_algo in self.runtime.items():
            for algorithm, series in per_algo.items():
                blocks.append(
                    format_series(
                        series,
                        x_label="nodes",
                        y_label="seconds",
                        title=f"Figure 8 -- {dataset}: {algorithm} runtime vs. nodes",
                    )
                )
        rows = []
        for dataset, per_algo in self.accuracy.items():
            for algorithm, series in per_algo.items():
                for nodes in sorted(series):
                    rows.append([dataset, algorithm, nodes, series[nodes]])
        blocks.append(
            format_table(
                ["dataset", "algorithm", "nodes", "F-measure"],
                rows,
                title=(
                    "Figure 8 companion -- accuracy "
                    f"(CXK advantage: {self.accuracy_advantage():+.3f})"
                ),
            )
        )
        return "\n\n".join(blocks)


def run_figure8(config: Optional[Figure8Config] = None) -> Figure8Result:
    """Run the CXK-means vs. PK-means comparison."""
    config = config or Figure8Config()
    runtime: Dict[str, Dict[str, Dict[int, float]]] = {}
    accuracy: Dict[str, Dict[str, Dict[int, float]]] = {}
    traffic: Dict[str, Dict[str, Dict[int, float]]] = {}
    for algorithm, label in (("cxk", "CXK-means"), ("pk", "PK-means")):
        sweep = ExperimentSweep(
            datasets=config.datasets,
            goal=config.goal,
            node_counts=config.node_counts,
            scheme=PartitioningScheme.EQUAL,
            algorithm=algorithm,
            gamma=config.gamma,
            scale=config.scale,
            f_values=config.f_values,
            seeds=config.seeds,
            max_iterations=config.max_iterations,
            cost_model=config.cost_model,
            backend=config.backend,
        )
        aggregates = sweep.run()
        for dataset, series in pivot(aggregates, value="simulated_seconds").items():
            runtime.setdefault(dataset, {})[label] = series
        for dataset, series in pivot(aggregates, value="f_measure").items():
            accuracy.setdefault(dataset, {})[label] = series
        for dataset, series in pivot(
            aggregates, value="transferred_transactions"
        ).items():
            traffic.setdefault(dataset, {})[label] = series
    return Figure8Result(runtime=runtime, accuracy=accuracy, traffic=traffic)
