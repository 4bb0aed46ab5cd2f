"""Structure + content clustering of heterogeneous software catalogues.

The paper's introduction describes users in a P2P network sharing software
descriptions encoded in XML with *different logical structures*: one source
uses a flat, text-centric layout (full review text repeated under ``review``
elements), another a data-centric layout (a ``reviews`` subtree with one
sub-element per aspect).  Structure/content-driven clustering should match
records about the same kind of software across the two layouts, while
structure-driven clustering separates the two catalogue formats.

This example generates both kinds of records for two software categories
(games and office tools), runs CXK-means twice with different ``f`` settings
and shows how the blend factor changes what the clusters mean.

Run with ``python examples/software_catalog_p2p.py``.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro import ClusteringConfig, CXKMeans, SimilarityConfig, parse_xml
from repro.core.partition import partition_equally
from repro.evaluation.fmeasure import overall_f_measure
from repro.transactions.builder import build_dataset

CATEGORY_WORDS = {
    "game": [
        "game", "player", "level", "graphics", "multiplayer", "quest",
        "arcade", "puzzle", "adventure", "score", "controller", "engine",
    ],
    "office": [
        "document", "spreadsheet", "editor", "presentation", "formula",
        "template", "paragraph", "table", "export", "formatting", "macro",
        "collaboration",
    ],
}


def text_centric_record(rng: random.Random, category: str, index: int) -> str:
    """Flat layout: whole reviews as repeated text elements."""
    words = CATEGORY_WORDS[category]
    name = f"{category}-app-{index}"
    reviews = "".join(
        f"<review>{' '.join(rng.choices(words, k=14))} rating {rng.randint(1, 5)} stars</review>"
        for _ in range(2)
    )
    return (
        f"<software><name>{name}</name>"
        f"<developer>Studio {rng.randint(1, 30)}</developer>"
        f"<platform>{rng.choice(['linux', 'windows', 'macos'])}</platform>"
        f"{reviews}</software>"
    )


def data_centric_record(rng: random.Random, category: str, index: int) -> str:
    """Structured layout: aspects split into dedicated sub-elements."""
    words = CATEGORY_WORDS[category]
    name = f"{category}-pkg-{index}"
    return (
        f'<package id="pkg{index}"><title>{name}</title>'
        f"<license>{rng.choice(['gpl', 'mit', 'proprietary'])}</license>"
        f"<reviews>"
        f"<positive>{' '.join(rng.choices(words, k=8))}</positive>"
        f"<negative>{' '.join(rng.choices(words, k=6))}</negative>"
        f"<rating>{rng.randint(1, 5)}</rating>"
        f"<recommendation>{' '.join(rng.choices(words, k=5))}</recommendation>"
        f"</reviews></package>"
    )


def build_collection(documents: int = 28, seed: int = 5):
    rng = random.Random(seed)
    trees = []
    labels: Dict[str, Dict[str, str]] = {"category": {}, "layout": {}}
    for index in range(documents):
        category = "game" if index % 2 == 0 else "office"
        layout = "text-centric" if index % 4 < 2 else "data-centric"
        xml = (
            text_centric_record(rng, category, index)
            if layout == "text-centric"
            else data_centric_record(rng, category, index)
        )
        doc_id = f"sw{index:03d}"
        trees.append(parse_xml(xml, doc_id=doc_id))
        labels["category"][doc_id] = category
        labels["layout"][doc_id] = layout
    return build_dataset("software", trees, doc_labels=labels)


def run(dataset, f: float, gamma: float, k: int, reference: Dict[str, str], title: str) -> None:
    config = ClusteringConfig(
        k=k,
        similarity=SimilarityConfig(f=f, gamma=gamma),
        seed=3,
        max_iterations=10,
    )
    partitions = partition_equally(dataset.transactions, 3, seed=3)
    result = CXKMeans(config).fit(partitions)
    score = overall_f_measure(result.partition(), reference)
    print(f"\n{title} (f={f}, gamma={gamma})")
    print(f"  F-measure vs. this ground truth: {score:.3f}")
    for cluster in result.clusters:
        counts: Dict[str, int] = {}
        for member in cluster.member_ids():
            label = reference[member]
            counts[label] = counts.get(label, 0) + 1
        print(f"  cluster {cluster.cluster_id}: size {cluster.size():3d} {counts}")


def main() -> None:
    dataset = build_collection()
    print("Software catalogue:", dataset.summary())

    # content-leaning run: clusters should follow the software category,
    # regardless of which catalogue layout described the package
    run(
        dataset,
        f=0.1,
        gamma=0.4,
        k=2,
        reference=dataset.labels_for("category"),
        title="Content-driven clustering (what is the software about?)",
    )

    # structure-driven run: clusters should follow the catalogue layout
    run(
        dataset,
        f=1.0,
        gamma=0.8,
        k=2,
        reference=dataset.labels_for("layout"),
        title="Structure-driven clustering (which source format?)",
    )


if __name__ == "__main__":
    main()
