"""Experiment driver shared by every table / figure reproduction.

The driver knows how to run one clustering configuration -- a corpus, a
clustering goal (content / structure-content / structure), a number of peers,
a partitioning scheme and an algorithm -- and to average F-measure and
runtime over the ``f`` values of the goal's range and over repeated runs, as
done by the paper (Sec. 5.5: "results refer to multiple runs of the algorithm
and correspond to F-measure scores averaged over the range of f values
specific of the clustering setting").

Every experiment module (:mod:`figure7`, :mod:`table1`, ...) builds on
:func:`run_configuration` and :class:`ExperimentSweep`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.partition import PartitioningScheme, partition
from repro.core.pkmeans import PKMeans
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import cluster_count, get_dataset
from repro.evaluation.fmeasure import overall_f_measure
from repro.network.costmodel import CostModel
from repro.similarity.corpus_store import prepare_engine_corpus
from repro.similarity.item import SimilarityConfig
from repro.transactions.dataset import TransactionDataset

#: The paper's f ranges per clustering goal (Sec. 5.1).  The full grid uses a
#: step of 0.1; the defaults below sample each range sparsely so a complete
#: table reproduction stays laptop-sized, and can be overridden per run.
GOAL_F_VALUES: Dict[str, List[float]] = {
    "content": [0.1, 0.2],
    "hybrid": [0.4, 0.5, 0.6],
    "structure": [0.8, 0.9],
}

#: Mapping from clustering goal to the ground-truth labelling it is scored on.
GOAL_LABELING: Dict[str, str] = {
    "content": "content",
    "hybrid": "hybrid",
    "structure": "structure",
}


@dataclass
class RunRecord:
    """Outcome of a single clustering run."""

    dataset: str
    algorithm: str
    goal: str
    nodes: int
    scheme: str
    f: float
    gamma: float
    seed: int
    k: int
    f_measure: float
    simulated_seconds: float
    elapsed_seconds: float
    iterations: int
    trash: int
    transferred_transactions: float
    messages: float
    #: Similarity backend the run executed on.
    backend: str = "python"
    #: Tag-path cache statistics after the run (entries / hits / misses);
    #: with up-front precomputation the misses stay at their precompute
    #: level, which is the behaviour Sec. 4.3.2 prescribes.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Fitted-model persistence outcome (``{"model": "off"}`` when auto-save
    #: was not requested, else ``saved``/``error`` with the directory).
    model: Dict[str, object] = field(default_factory=lambda: {"model": "off"})
    #: Transport the collaborative rounds ran on (``sim`` / ``real``).
    network: str = "sim"
    #: Cost-model predictions next to transport measurements (real-transport
    #: runs only; empty for simulated runs).  Keys: ``predicted_seconds`` /
    #: ``predicted_communication_seconds`` from the cost model,
    #: ``measured_wall_seconds`` / ``wire_bytes`` / ``control_bytes`` from
    #: the wire (see :meth:`repro.network.realnet.RealNetwork.summary`).
    predicted_vs_measured: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class AggregateRecord:
    """Averages over the f-values / seeds of one experimental cell."""

    dataset: str
    algorithm: str
    goal: str
    nodes: int
    scheme: str
    k: int
    f_measure: float
    f_measure_std: float
    simulated_seconds: float
    elapsed_seconds: float
    transferred_transactions: float
    runs: int

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


def make_algorithm(
    name: str,
    config: ClusteringConfig,
    cost_model: Optional[CostModel] = None,
):
    """Instantiate an algorithm by name (``cxk``, ``pk`` or ``xk``)."""
    key = name.lower()
    if key in ("cxk", "cxk-means", "cxkmeans"):
        return CXKMeans(config, cost_model=cost_model)
    if key in ("pk", "pk-means", "pkmeans"):
        return PKMeans(config, cost_model=cost_model)
    if key in ("xk", "xk-means", "xkmeans", "centralized"):
        return XKMeans(config)
    raise ValueError(f"unknown algorithm: {name}")


def run_configuration(
    dataset: TransactionDataset,
    goal: str,
    nodes: int,
    f: float,
    gamma: float,
    seed: int,
    algorithm: str = "cxk",
    scheme: PartitioningScheme = PartitioningScheme.EQUAL,
    k: Optional[int] = None,
    max_iterations: int = 8,
    cost_model: Optional[CostModel] = None,
    backend: str = "python",
    save_model_dir: Optional[str] = None,
    network: str = "sim",
    network_timeout: Optional[float] = None,
) -> RunRecord:
    """Run one clustering configuration and score it against the ground truth.

    When *save_model_dir* is given, the fitted model (representatives,
    config, vocabulary, registries) is persisted there through
    :func:`repro.core.model_store.save_model`; persistence failures degrade
    to an ``error`` entry in the record's ``model`` field instead of
    failing the run.

    *network* selects the transport of the collaborative rounds (``"sim"``
    / ``"real"``; CXK-means only for ``"real"``); real runs additionally
    fill the record's ``predicted_vs_measured`` fields with the cost-model
    predictions next to the measured wire bytes and wall-clock.
    """
    labeling = GOAL_LABELING[goal]
    reference = dataset.labels_for(labeling)
    if k is None:
        k = len(set(reference.values()))
    config = ClusteringConfig(
        k=k,
        similarity=SimilarityConfig(f=f, gamma=gamma),
        seed=seed,
        max_iterations=max_iterations,
        backend=backend,
        network=network,
        **(
            {"network_timeout": network_timeout}
            if network_timeout is not None
            else {}
        ),
    )
    algo = make_algorithm(algorithm, config, cost_model=cost_model)
    prepare_engine_corpus(algo.engine, dataset.transactions)
    if isinstance(algo, XKMeans):
        result = algo.fit(dataset.transactions)
    else:
        parts = partition(dataset.transactions, nodes, scheme=scheme, seed=seed)
        result = algo.fit(parts)
    model_status: Dict[str, object] = {"model": "off"}
    if save_model_dir is not None:
        from repro.core.model_store import ModelStoreError, save_model

        try:
            save_model(save_model_dir, result, config, dataset=dataset)
            model_status = {"model": "saved", "directory": str(save_model_dir)}
        except ModelStoreError as error:
            model_status = {
                "model": "error",
                "directory": str(save_model_dir),
                "error": str(error),
            }
    f_measure = overall_f_measure(result.partition(), reference)
    network_stats = result.network or {}
    predicted_vs_measured: Dict[str, float] = {}
    if "wire_bytes" in network_stats:
        predicted_vs_measured = {
            "predicted_seconds": float(network_stats.get("simulated_seconds", 0.0)),
            "predicted_communication_seconds": float(
                network_stats.get("communication_seconds", 0.0)
            ),
            "measured_wall_seconds": float(
                network_stats.get("measured_wall_seconds", 0.0)
            ),
            "wire_bytes": float(network_stats.get("wire_bytes", 0.0)),
            "control_bytes": float(network_stats.get("control_bytes", 0.0)),
        }
    return RunRecord(
        dataset=dataset.name,
        algorithm=result.metadata.get("algorithm", algorithm),
        goal=goal,
        nodes=nodes,
        scheme=scheme.value,
        f=f,
        gamma=gamma,
        seed=seed,
        k=k,
        f_measure=f_measure,
        simulated_seconds=result.simulated_seconds
        if result.simulated_seconds is not None
        else result.elapsed_seconds,
        elapsed_seconds=result.elapsed_seconds,
        iterations=result.iterations,
        trash=result.trash_size(),
        transferred_transactions=network_stats.get("transferred_transactions", 0.0),
        messages=network_stats.get("messages", 0.0),
        backend=backend,
        cache_stats=algo.engine.cache.stats(),
        model=model_status,
        network=network,
        predicted_vs_measured=predicted_vs_measured,
    )


def aggregate_records(records: Sequence[RunRecord]) -> AggregateRecord:
    """Average a group of runs belonging to the same experimental cell."""
    if not records:
        raise ValueError("cannot aggregate an empty record list")
    first = records[0]
    f_scores = [record.f_measure for record in records]
    return AggregateRecord(
        dataset=first.dataset,
        algorithm=first.algorithm,
        goal=first.goal,
        nodes=first.nodes,
        scheme=first.scheme,
        k=first.k,
        f_measure=statistics.fmean(f_scores),
        f_measure_std=statistics.pstdev(f_scores) if len(f_scores) > 1 else 0.0,
        simulated_seconds=statistics.fmean(
            record.simulated_seconds for record in records
        ),
        elapsed_seconds=statistics.fmean(record.elapsed_seconds for record in records),
        transferred_transactions=statistics.fmean(
            record.transferred_transactions for record in records
        ),
        runs=len(records),
    )


@dataclass
class ExperimentSweep:
    """Declarative sweep over (dataset, nodes, f, seed) cells.

    Attributes mirror the knobs of the paper's experimental setting; the
    defaults keep a full sweep small enough for a benchmark run while the
    ``scale`` / ``f_values`` / ``seeds`` fields allow arbitrarily faithful
    (and slow) reproductions.
    """

    datasets: Sequence[str] = ("DBLP", "IEEE", "Shakespeare", "Wikipedia")
    goal: str = "hybrid"
    node_counts: Sequence[int] = (1, 3, 5, 7, 9)
    scheme: PartitioningScheme = PartitioningScheme.EQUAL
    algorithm: str = "cxk"
    gamma: float = 0.85
    scale: float = 1.0
    f_values: Optional[Sequence[float]] = None
    seeds: Sequence[int] = (0,)
    max_iterations: int = 8
    cost_model: CostModel = field(default_factory=CostModel)
    dataset_seed: int = 0
    #: Similarity backend spec driving the clustering hot path
    #: (``"python"`` or ``"numpy[:block=N]"``).
    backend: str = "python"
    #: Root directory for fitted-model auto-save (``None`` = off); each run
    #: persists its model under ``<root>/<dataset>-<algo>-n<nodes>-f<f>-s<seed>``
    #: for later serving (``repro serve`` / ``repro classify``).
    save_model_dir: Optional[str] = None
    #: Transport of the collaborative rounds (``"sim"`` / ``"real"``; the
    #: real transport is CXK-means only and fills each record's
    #: ``predicted_vs_measured`` fields).
    network: str = "sim"
    #: Per-round deadline of the real transport in seconds (``None`` keeps
    #: the :class:`~repro.core.config.ClusteringConfig` default).
    network_timeout: Optional[float] = None

    def effective_f_values(self) -> List[float]:
        if self.f_values is not None:
            return list(self.f_values)
        return list(GOAL_F_VALUES[self.goal])

    # ------------------------------------------------------------------ #
    def run(self) -> List[AggregateRecord]:
        """Execute the sweep; returns one aggregate per (dataset, nodes) cell."""
        aggregates: List[AggregateRecord] = []
        for dataset_name in self.datasets:
            dataset = get_dataset(dataset_name, scale=self.scale, seed=self.dataset_seed)
            k = cluster_count(dataset_name, self.goal)
            for nodes in self.node_counts:
                records: List[RunRecord] = []
                for f in self.effective_f_values():
                    for seed in self.seeds:
                        save_model_dir = None
                        if self.save_model_dir is not None:
                            cell = (
                                f"{dataset_name}-{self.algorithm}"
                                f"-n{nodes}-f{f}-s{seed}"
                            )
                            save_model_dir = str(
                                Path(self.save_model_dir) / cell
                            )
                        records.append(
                            run_configuration(
                                dataset,
                                goal=self.goal,
                                nodes=nodes,
                                f=f,
                                gamma=self.gamma,
                                seed=seed,
                                algorithm=self.algorithm,
                                scheme=self.scheme,
                                k=k,
                                max_iterations=self.max_iterations,
                                cost_model=self.cost_model,
                                backend=self.backend,
                                save_model_dir=save_model_dir,
                                network=self.network,
                                network_timeout=self.network_timeout,
                            )
                        )
                aggregates.append(aggregate_records(records))
        return aggregates


def pivot(
    aggregates: Iterable[AggregateRecord], value: str = "f_measure"
) -> Dict[str, Dict[int, float]]:
    """Pivot aggregates into {dataset: {nodes: value}} for report rendering."""
    table: Dict[str, Dict[int, float]] = {}
    for record in aggregates:
        table.setdefault(record.dataset, {})[record.nodes] = getattr(record, value)
    return table
