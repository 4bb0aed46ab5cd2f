"""Clustering distributed XML news feeds (the paper's motivating scenario).

The introduction of the paper motivates distributed clustering with Web news
services that must cluster XML articles arriving from thousands of sources
every few minutes: shipping all articles to one central machine is
prohibitive, so every peer clusters its local feed and only compact cluster
representatives travel over the network.

This example builds a small fleet of "news feed" peers, each holding
articles from three topics (sports, politics, medicine) encoded with
slightly different markup per provider, and shows that:

* the collaborative clustering recovers the three topics without moving the
  articles themselves, and
* the amount of exchanged data (representatives) is a small fraction of the
  corpus.

Run with ``python examples/news_feed_clustering.py``.
"""

from __future__ import annotations

import random

from repro import ClusteringConfig, CXKMeans, SimilarityConfig, parse_xml
from repro.datasets.corpus import TOPICS
from repro.evaluation.fmeasure import overall_f_measure
from repro.transactions.builder import build_dataset

TOPIC_NAMES = ["sports", "politics", "medicine"]
PROVIDER_SCHEMAS = ["rss", "newsml"]


def make_article(rng: random.Random, provider: str, topic: str, index: int) -> str:
    """Render one article with the provider's markup convention."""
    words = TOPICS[topic]
    headline = " ".join(rng.sample(words, 5))
    body = " ".join(rng.choices(words, k=25))
    byline = rng.choice(["agency desk", "staff reporter", "correspondent"])
    if provider == "rss":
        return (
            f"<item><title>{headline}</title><description>{body}</description>"
            f"<source>{byline}</source></item>"
        )
    return (
        f'<newsItem guid="n{index}"><headline>{headline}</headline>'
        f"<contentSet><inlineText>{body}</inlineText></contentSet>"
        f"<byline>{byline}</byline></newsItem>"
    )


def main() -> None:
    rng = random.Random(11)
    peers = 4
    articles_per_peer = 9

    # ------------------------------------------------------------------ #
    # Each peer holds its own local feed; no peer sees the others' data.
    # ------------------------------------------------------------------ #
    partitions = []
    labels = {}
    all_trees = []
    index = 0
    for peer in range(peers):
        local_trees = []
        for _ in range(articles_per_peer):
            topic = rng.choice(TOPIC_NAMES)
            provider = rng.choice(PROVIDER_SCHEMAS)
            doc_id = f"feed{peer}-art{index}"
            tree = parse_xml(make_article(rng, provider, topic, index), doc_id=doc_id)
            local_trees.append(tree)
            all_trees.append(tree)
            labels[doc_id] = topic
            index += 1
        partitions.append(local_trees)

    # The transactional model needs corpus-level term statistics; in a real
    # deployment each peer would build its local statistics -- here we build
    # the dataset once and split the transactions along peer boundaries.
    dataset = build_dataset("news", all_trees, doc_labels={"topic": labels})
    by_peer = {f"feed{p}": [] for p in range(peers)}
    for transaction in dataset.transactions:
        feed = transaction.doc_id.split("-")[0]
        by_peer[feed].append(transaction)
    transaction_partitions = [by_peer[f"feed{p}"] for p in range(peers)]

    print("Corpus:", dataset.summary())
    print(f"Peers: {peers}, articles per peer: {articles_per_peer}")

    # ------------------------------------------------------------------ #
    # Collaborative, content-driven clustering (f small): the goal is to
    # group articles by topic regardless of the provider's markup.
    # ------------------------------------------------------------------ #
    config = ClusteringConfig(
        k=len(TOPIC_NAMES),
        similarity=SimilarityConfig(f=0.1, gamma=0.45),
        seed=3,
        max_iterations=10,
    )
    result = CXKMeans(config).fit(transaction_partitions)

    reference = dataset.labels_for("topic")
    f_measure = overall_f_measure(result.partition(), reference)

    print("\nCollaborative clustering result")
    print(f"  F-measure vs. topic ground truth: {f_measure:.3f}")
    print(f"  collaborative rounds: {result.iterations}")
    print(
        f"  representatives exchanged: "
        f"{result.network['transferred_transactions']:.0f} "
        f"(vs. {len(dataset)} articles kept local)"
    )

    for cluster in result.clusters:
        topics = {}
        for member_id in cluster.member_ids():
            topic = reference[member_id]
            topics[topic] = topics.get(topic, 0) + 1
        dominant = max(topics, key=topics.get) if topics else "-"
        print(
            f"  cluster {cluster.cluster_id}: {cluster.size():3d} articles, "
            f"dominant topic: {dominant:9s} {topics}"
        )
    if result.trash_size():
        print(f"  unclustered (trash): {result.trash_size()} articles")


if __name__ == "__main__":
    main()
