"""Quickstart: from raw XML strings to a collaborative clustering.

This example walks the full pipeline of the paper on a handful of inline XML
documents:

1. parse the documents into XML trees,
2. decompose them into tree tuples and build the transactional dataset,
3. cluster the transactions with the centralized XK-means,
4. cluster them again with CXK-means over three simulated peers,
5. compare the two solutions.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

from repro import (
    ClusteringConfig,
    CXKMeans,
    SimilarityConfig,
    XKMeans,
    parse_xml,
)
from repro.core.partition import partition_equally
from repro.transactions.builder import build_dataset

# --------------------------------------------------------------------------- #
# 1. A tiny heterogeneous collection: conference papers and journal articles
#    about two different topics (data mining vs. networking).
# --------------------------------------------------------------------------- #
DOCUMENTS = {
    "paper-1": """
        <inproceedings key="conf/kdd/1">
          <author>M. Rossi</author>
          <title>Mining frequent patterns in large transaction databases</title>
          <booktitle>KDD</booktitle><year>2007</year>
        </inproceedings>""",
    "paper-2": """
        <inproceedings key="conf/kdd/2">
          <author>A. Keller</author>
          <title>Clustering transactional data with frequent itemsets</title>
          <booktitle>KDD</booktitle><year>2008</year>
        </inproceedings>""",
    "paper-3": """
        <inproceedings key="conf/sigcomm/1">
          <author>J. Tanaka</author>
          <title>Routing protocols for wireless mesh networks</title>
          <booktitle>SIGCOMM</booktitle><year>2007</year>
        </inproceedings>""",
    "article-1": """
        <article>
          <author>P. Novak</author>
          <title>Frequent itemset mining over data streams</title>
          <journal>Data Mining Journal</journal><year>2008</year>
        </article>""",
    "article-2": """
        <article>
          <author>L. Silva</author>
          <title>Congestion control in packet switched networks</title>
          <journal>Networking Letters</journal><year>2006</year>
        </article>""",
    "article-3": """
        <article>
          <author>R. Dubois</author>
          <title>Wireless network routing with adaptive protocols</title>
          <journal>Networking Letters</journal><year>2009</year>
        </article>""",
}


def main() -> None:
    # ----------------------------------------------------------------- #
    # 2. Parse and build the transactional dataset
    # ----------------------------------------------------------------- #
    trees = [parse_xml(text, doc_id=doc_id) for doc_id, text in DOCUMENTS.items()]
    dataset = build_dataset("quickstart", trees)
    print("Dataset:", dataset.summary())

    config = ClusteringConfig(
        k=2,
        similarity=SimilarityConfig(f=0.1, gamma=0.35),  # content-leaning
        seed=1,
        max_iterations=10,
    )

    # ----------------------------------------------------------------- #
    # 3. Centralized clustering (the m = 1 baseline)
    # ----------------------------------------------------------------- #
    centralized = XKMeans(config).fit(dataset.transactions)
    print("\nCentralized XK-means")
    for cluster in centralized.clusters:
        print(f"  cluster {cluster.cluster_id}: {sorted(cluster.member_ids())}")
    print(f"  trash: {sorted(centralized.trash.member_ids())}")

    # ----------------------------------------------------------------- #
    # 4. Collaborative distributed clustering over three peers
    # ----------------------------------------------------------------- #
    partitions = partition_equally(dataset.transactions, 3, seed=0)
    collaborative = CXKMeans(config).fit(partitions)
    print("\nCXK-means over 3 peers")
    for cluster in collaborative.clusters:
        print(f"  cluster {cluster.cluster_id}: {sorted(cluster.member_ids())}")
    print(f"  trash: {sorted(collaborative.trash.member_ids())}")
    print(
        "  network: "
        f"{collaborative.network['messages']:.0f} messages, "
        f"{collaborative.network['transferred_transactions']:.0f} representatives exchanged, "
        f"{collaborative.iterations} collaborative rounds"
    )

    # ----------------------------------------------------------------- #
    # 5. Inspect the global cluster representatives (the summaries that
    #    peers exchange instead of raw data)
    # ----------------------------------------------------------------- #
    print("\nGlobal cluster representatives")
    for cluster in collaborative.clusters:
        rep = cluster.representative
        if rep is None or rep.is_empty():
            continue
        print(f"  cluster {cluster.cluster_id}:")
        for item in rep.items:
            answer = item.answer if len(item.answer) <= 60 else item.answer[:57] + "..."
            print(f"    {item.path} = {answer!r}")


if __name__ == "__main__":
    main()
