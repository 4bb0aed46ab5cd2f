"""One measured repetition, run in a fresh interpreter.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/pbjobs.py JOB.json

``JOB.json`` names the job ``kind`` (``fit``, ``stream`` or ``model``),
its inputs and settings, where to write the result and, for traced
runs, where to dump the spans.  Each job calls the program only through
its public entry points and times those calls itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Dict, List, Sequence

from pbinputs import read_documents

#: fit-collab: the paper's collaborative job on the real TCP transport.
FIT_SETTINGS = {"k": 16, "f": 0.5, "gamma": 0.85, "max_iterations": 6, "peers": 2}

#: serve-http: the served model (gamma 0.5: nearly every query lands in a
#: real cluster, the opposite regime to fit-collab).
MODEL_SETTINGS = {"k": 16, "f": 0.5, "gamma": 0.5, "max_iterations": 6}

#: stream-ingest: out-of-core streaming at the drift-heavy gamma.
STREAM_SETTINGS = {
    "k": 8,
    "f": 0.5,
    "gamma": 0.65,
    "max_iterations": 6,
    "chunk_docs": 32,
    "retain_threshold": 0.25,
    "drift_threshold": 0.5,
}


def _config(settings: Dict[str, float], seed: int):
    from repro.core.config import ClusteringConfig
    from repro.similarity.item import SimilarityConfig

    return ClusteringConfig(
        k=int(settings["k"]),
        similarity=SimilarityConfig(f=settings["f"], gamma=settings["gamma"]),
        seed=seed,
        max_iterations=int(settings["max_iterations"]),
        backend="numpy",
    )


def partition_signature(parts: Sequence[Sequence[str]], extra: Sequence = ()) -> str:
    """SHA-256 of a partition (cluster order kept, members sorted)."""
    digest = hashlib.sha256()
    for cluster in parts:
        digest.update(("|".join(sorted(cluster)) + "\n").encode("utf-8"))
    for entry in extra:
        digest.update(repr(entry).encode("utf-8"))
    return digest.hexdigest()


def _directory_mb(path: str) -> float:
    total = 0
    for folder, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
    return total / 1e6


# --------------------------------------------------------------------------- #
# Jobs
# --------------------------------------------------------------------------- #
def fit_job(job: Dict[str, object]) -> Dict[str, object]:
    """Parse, transact, compile, then one CXK-means fit over 2 peers."""
    from repro.core.cxkmeans import CXKMeans
    from repro.core.partition import partition_equally
    from repro.evaluation.fmeasure import overall_f_measure
    from repro.similarity import corpus_store
    from repro.transactions import builder
    from repro.xmlmodel import parser

    seed = int(job["seed"])
    documents, labels = read_documents(job["inputs"])
    config = _config(FIT_SETTINGS, seed).with_network(job["network"], 60.0)

    started = time.perf_counter()
    trees = [parser.parse_xml(text, doc_id=doc_id) for doc_id, text in documents]
    dataset = builder.build_dataset("DBLP", trees, doc_labels={"hybrid": labels})
    algorithm = CXKMeans(config)
    status = corpus_store.prepare_engine_corpus(
        algorithm.engine, dataset.transactions, cache_dir=job["store_dir"]
    )
    setup_s = time.perf_counter() - started

    parts = partition_equally(dataset.transactions, FIT_SETTINGS["peers"], seed=seed)
    started = time.perf_counter()
    result = algorithm.fit(parts)
    fit_s = time.perf_counter() - started

    assignments = result.assignments(include_trash=True)
    representatives = [
        [item.item_id for item in cluster.representative.items]
        if cluster.representative is not None
        else None
        for cluster in result.clusters
    ]
    return {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "documents": len(documents),
        "transactions": len(dataset.transactions),
        "clustered": sum(len(cluster) for cluster in result.partition()),
        "trash": result.trash_size(),
        "assigned": len(assignments),
        "signature": partition_signature(
            result.partition(include_trash=True), representatives
        ),
        "overall_f": overall_f_measure(
            result.partition(include_trash=False), dataset.labels_for("hybrid")
        ),
        "iterations": result.iterations,
        "network": result.network,
        "store": status.get("store"),
    }


def stream_job(job: Dict[str, object]) -> Dict[str, object]:
    """Stream XML text chunk by chunk into an out-of-core clusterer."""
    from repro.core.streaming import StreamingClusterer
    from repro.evaluation.fmeasure import overall_f_measure
    from repro.similarity import corpus_store
    from repro.transactions import builder
    from repro.xmlmodel import parser

    seed = int(job["seed"])
    documents, labels = read_documents(job["inputs"])
    size = STREAM_SETTINGS["chunk_docs"]
    chunks = [documents[start : start + size] for start in range(0, len(documents), size)]
    config = _config(STREAM_SETTINGS, seed).with_streaming(
        chunk_size=size,
        retain_threshold=STREAM_SETTINGS["retain_threshold"],
        drift_threshold=STREAM_SETTINGS["drift_threshold"],
    )
    reference: Dict[str, str] = {}
    built = 0

    def ingest(clusterer, chunk) -> None:
        nonlocal built
        trees = [parser.parse_xml(text, doc_id=doc_id) for doc_id, text in chunk]
        dataset = builder.build_dataset(
            "DBLP", trees, doc_labels={"hybrid": {doc_id: labels[doc_id] for doc_id, _ in chunk}}
        )
        reference.update(dataset.labels_for("hybrid"))
        built += len(dataset.transactions)
        clusterer.ingest(dataset.transactions)

    started = time.perf_counter()
    chain = corpus_store.BlockCorpusStore.create(job["store_dir"], config.similarity)
    clusterer = StreamingClusterer(config, store=chain, keep_members=False)
    ingest(clusterer, chunks[0])
    setup_s = time.perf_counter() - started
    if not clusterer.bootstrapped:
        raise RuntimeError("the first chunk did not bootstrap the stream")

    chunk_s: List[float] = []
    stream_started = time.perf_counter()
    for chunk in chunks[1:]:
        started = time.perf_counter()
        ingest(clusterer, chunk)
        chunk_s.append(time.perf_counter() - started)
    committed = sum(len(part) for part in clusterer.partition(include_trash=True))
    retained = clusterer.stats.retained
    started = time.perf_counter()
    result = clusterer.finalize()
    chunk_s[-1] += time.perf_counter() - started
    stream_s = time.perf_counter() - stream_started

    parts = clusterer.partition(include_trash=True)
    return {
        "setup_s": setup_s,
        "stream_s": stream_s,
        "chunk_s": chunk_s,
        "stream_docs": len(documents) - len(chunks[0]),
        "built": built,
        "ingested": clusterer.stats.transactions_ingested,
        "committed_before_finalize": committed,
        "retained_before_finalize": retained,
        "final_members": sum(len(part) for part in parts),
        "signature": partition_signature(parts),
        "overall_f": overall_f_measure(parts[:-1], reference),
        "streaming": result.metadata.get("streaming", {}),
        "chain_mb": _directory_mb(job["store_dir"]),
    }


def model_job(job: Dict[str, object]) -> Dict[str, object]:
    """Fit and save the served model, then classify a reference sample."""
    from repro.core.model_store import load_model, save_model
    from repro.core.xkmeans import XKMeans
    from repro.similarity import corpus_store
    from repro.transactions import builder
    from repro.xmlmodel import parser

    seed = int(job["seed"])
    documents, labels = read_documents(job["inputs"])
    config = _config(MODEL_SETTINGS, seed)
    trees = [parser.parse_xml(text, doc_id=doc_id) for doc_id, text in documents]
    dataset = builder.build_dataset("DBLP", trees, doc_labels={"hybrid": labels})
    algorithm = XKMeans(config)
    corpus_store.prepare_engine_corpus(
        algorithm.engine, dataset.transactions, cache_dir=job["store_dir"]
    )
    started = time.perf_counter()
    result = algorithm.fit(dataset.transactions)
    fit_s = time.perf_counter() - started
    save_model(job["model_dir"], result, config, dataset=dataset, engine=algorithm.engine)

    queries, _ = read_documents(job["queries"])
    reference = load_model(job["model_dir"], backend="python")
    expected = [
        reference.classify(text, doc_id=doc_id).cluster_id
        for doc_id, text in queries[: int(job["sample"])]
    ]
    reference.close()
    return {"fit_s": fit_s, "transactions": len(dataset.transactions), "expected": expected}


JOBS = {"fit": fit_job, "stream": stream_job, "model": model_job}


def main(argv: List[str]) -> int:
    """Run the job described by ``argv[0]`` and write its result."""
    with open(argv[0], "r", encoding="utf-8") as handle:
        job = json.load(handle)
    tracer = None
    if job.get("trace"):
        from pbtrace import Tracer, install

        tracer = Tracer()
        install(tracer)
    result = JOBS[job["kind"]](job)
    if tracer is not None:
        tracer.dump(job["trace"])
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
