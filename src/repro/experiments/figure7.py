"""Figure 7 reproduction: clustering runtime vs. number of nodes.

The paper's Fig. 7 plots, for each of the four corpora, the clustering time
of CXK-means as the number of peers grows from 1 to 19, once on the full
dataset and once on a halved dataset (structure/content-driven setting,
equal partitioning).  The expected shape is a hyperbolic decrease followed by
a flat region (the saturation point) and a slight increase when communication
starts to dominate; halving the dataset moves the saturation point to the
left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.partition import PartitioningScheme
from repro.evaluation.reporting import format_series
from repro.experiments.runner import ExperimentSweep, pivot
from repro.network.costmodel import CostModel, saturation_point


@dataclass
class Figure7Config:
    """Parameters of the Fig. 7 sweep."""

    datasets: Sequence[str] = ("DBLP", "IEEE", "Shakespeare", "Wikipedia")
    node_counts: Sequence[int] = (1, 3, 5, 7, 9, 11)
    scales: Sequence[float] = (1.0, 0.5)
    goal: str = "hybrid"
    gamma: float = 0.85
    f_values: Sequence[float] = (0.5,)
    seeds: Sequence[int] = (0,)
    max_iterations: int = 6
    cost_model: CostModel = field(default_factory=CostModel)
    #: Optional per-dataset multiplier applied on top of ``scales``; used to
    #: keep the transaction counts of the four corpora comparable when the
    #: harness runs at reduced scale (e.g. the IEEE profile produces fewer
    #: documents per scale unit than DBLP or Wikipedia).
    dataset_scale_multipliers: Dict[str, float] = field(default_factory=dict)
    #: Similarity backend spec driving the clustering hot path
    #: (``"python"`` or ``"numpy"``).
    backend: str = "python"
    #: Transport of the collaborative rounds (``"sim"`` / ``"real"``).
    network: str = "sim"
    #: Per-round deadline of the real transport (``None`` = config default).
    network_timeout: Optional[float] = None


@dataclass
class Figure7Result:
    """Runtime curves per dataset and scale plus derived saturation points."""

    #: {dataset: {scale: {nodes: simulated seconds}}}
    curves: Dict[str, Dict[float, Dict[int, float]]]
    #: {dataset: {scale: saturation node count}}
    saturation: Dict[str, Dict[float, int]]

    def report(self) -> str:
        """Render the figure as text series (one block per dataset/scale)."""
        blocks: List[str] = []
        for dataset, per_scale in self.curves.items():
            largest_scale = max(per_scale.keys())
            for scale, series in per_scale.items():
                label = "full" if scale == largest_scale else "half"
                blocks.append(
                    format_series(
                        series,
                        x_label="nodes",
                        y_label="seconds",
                        title=(
                            f"Figure 7 -- {dataset} ({label} dataset, scale={scale}): "
                            f"runtime vs. nodes "
                            f"[saturation @ {self.saturation[dataset][scale]} nodes]"
                        ),
                    )
                )
        return "\n\n".join(blocks)


def run_figure7(config: Optional[Figure7Config] = None) -> Figure7Result:
    """Run the Fig. 7 sweep and return the runtime curves."""
    config = config or Figure7Config()
    curves: Dict[str, Dict[float, Dict[int, float]]] = {}
    saturation: Dict[str, Dict[float, int]] = {}
    for scale in config.scales:
        for dataset_name in config.datasets:
            multiplier = config.dataset_scale_multipliers.get(dataset_name, 1.0)
            sweep = ExperimentSweep(
                datasets=(dataset_name,),
                goal=config.goal,
                node_counts=config.node_counts,
                scheme=PartitioningScheme.EQUAL,
                algorithm="cxk",
                gamma=config.gamma,
                scale=scale * multiplier,
                f_values=config.f_values,
                seeds=config.seeds,
                max_iterations=config.max_iterations,
                cost_model=config.cost_model,
                backend=config.backend,
                network=config.network,
                network_timeout=config.network_timeout,
            )
            aggregates = sweep.run()
            runtime = pivot(aggregates, value="simulated_seconds")
            for dataset, series in runtime.items():
                curves.setdefault(dataset, {})[scale] = series
                saturation.setdefault(dataset, {})[scale] = saturation_point(series)
    return Figure7Result(curves=curves, saturation=saturation)
