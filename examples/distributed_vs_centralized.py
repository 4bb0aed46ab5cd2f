"""Distributed vs. centralized clustering: runtime, traffic and accuracy.

This example reproduces, at demonstration scale, the core experimental story
of the paper on the synthetic DBLP corpus:

* the simulated clustering time drops sharply when the corpus is distributed
  over a few collaborating peers (Fig. 7),
* the clustering accuracy decreases only moderately (Tables 1-2),
* the non-collaborative PK-means baseline exchanges considerably more data
  per round than CXK-means (Fig. 8).

Run with ``python examples/distributed_vs_centralized.py`` (takes a couple of
minutes on a laptop -- lower ``SCALE`` for a quicker look).
"""

from __future__ import annotations

from repro import ClusteringConfig, CXKMeans, PKMeans, SimilarityConfig
from repro.core.partition import partition_equally
from repro.datasets.registry import cluster_count, get_dataset
from repro.evaluation.fmeasure import overall_f_measure
from repro.evaluation.reporting import format_series, format_table
from repro.network.costmodel import CostModel

SCALE = 0.35
NODE_COUNTS = (1, 3, 5, 7)
GOAL = "hybrid"


def main() -> None:
    dataset = get_dataset("DBLP", scale=SCALE, seed=0)
    reference = dataset.labels_for(GOAL)
    k = cluster_count("DBLP", GOAL)
    config = ClusteringConfig(
        k=k,
        similarity=SimilarityConfig(f=0.5, gamma=0.8),
        seed=0,
        max_iterations=5,
    )
    cost_model = CostModel(t_comm=1.5e-3, unit_comm=1.0e-5)

    print("DBLP synthetic corpus:", dataset.summary())
    print(f"clusters (k): {k}, clustering goal: {GOAL}\n")

    runtime = {}
    rows = []
    for nodes in NODE_COUNTS:
        partitions = partition_equally(dataset.transactions, nodes, seed=0)
        cxk = CXKMeans(config, cost_model=cost_model).fit(partitions)
        pk = PKMeans(config, cost_model=cost_model).fit(partitions)
        runtime[nodes] = cxk.simulated_seconds
        rows.append(
            [
                nodes,
                round(cxk.simulated_seconds, 2),
                round(pk.simulated_seconds, 2),
                round(overall_f_measure(cxk.partition(), reference), 3),
                round(overall_f_measure(pk.partition(), reference), 3),
                int(cxk.network["transferred_transactions"]),
                int(pk.network["transferred_transactions"]),
            ]
        )

    print(
        format_table(
            [
                "peers",
                "CXK time [s]",
                "PK time [s]",
                "CXK F",
                "PK F",
                "CXK reps sent",
                "PK reps sent",
            ],
            rows,
            title="CXK-means vs PK-means on distributed DBLP",
        )
    )
    print()
    print(
        format_series(
            runtime,
            y_label="seconds",
            title="CXK-means simulated runtime vs. number of peers (Fig. 7 shape)",
        )
    )


if __name__ == "__main__":
    main()
