"""Benchmark inputs: DBLP-like XML text generated from a seed.

The program under test only ever sees XML text plus ground-truth labels;
the text comes from the repository's synthetic DBLP generator,
serialised once here so that every layer from the parser up is measured.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

#: Seed offsets that keep the query and warm-up documents of a workload
#: disjoint from its training corpus.
QUERY_SEED_OFFSET = 1_000_003
WARMUP_SEED_OFFSET = 2_000_003


def dblp_documents(scale: float, seed: int) -> Tuple[List[Tuple[str, str]], Dict[str, str]]:
    """``([(doc_id, xml_text), ...], {doc_id: hybrid_label})`` at *scale*.

    DBLP scale 1 is 120 documents; scale 5 (600 documents) yields about
    1100 transactions.
    """
    from repro.datasets.registry import get_corpus
    from repro.xmlmodel.serializer import serialize

    corpus = get_corpus("DBLP", scale=scale, seed=seed)
    documents = [(tree.doc_id, serialize(tree)) for tree in corpus.trees]
    return documents, dict(corpus.doc_labels["hybrid"])


def write_documents(path: str, scale: float, seed: int) -> int:
    """Generate documents into *path* (JSON); returns the document count."""
    documents, labels = dblp_documents(scale, seed)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"docs": documents, "labels": labels}, handle)
    return len(documents)


def read_documents(path: str) -> Tuple[List[Tuple[str, str]], Dict[str, str]]:
    """Read a :func:`write_documents` file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return [tuple(doc) for doc in payload["docs"]], payload["labels"]
