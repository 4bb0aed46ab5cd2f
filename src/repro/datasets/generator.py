"""Shared machinery for the synthetic XML corpus generators.

Every corpus generator produces a :class:`SyntheticCorpus`: a list of XML
trees plus per-document ground-truth labellings (content, structure and
hybrid classes) and headline metadata.  The generators are deterministic
given their seed, so every experiment and benchmark is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.corpus import FILLER_WORDS, GIVEN_NAMES, SURNAMES, TOPICS
from repro.transactions.builder import BuilderConfig, build_dataset
from repro.transactions.dataset import TransactionDataset
from repro.xmlmodel.tree import XMLTree


@dataclass
class SyntheticCorpus:
    """A generated XML collection together with its ground truth.

    Attributes
    ----------
    name:
        Corpus name (``"DBLP"``, ``"IEEE"``, ...).
    trees:
        The generated XML document trees.
    doc_labels:
        Ground-truth labellings per document: mapping labelling name
        (``"content"``, ``"structure"``, ``"hybrid"``) -> {doc_id: class}.
    class_counts:
        Number of distinct classes per labelling (the "# of clusters" column
        of the paper's tables).
    """

    name: str
    trees: List[XMLTree] = field(default_factory=list)
    doc_labels: Dict[str, Dict[str, str]] = field(default_factory=dict)
    class_counts: Dict[str, int] = field(default_factory=dict)

    def document_count(self) -> int:
        return len(self.trees)

    def to_dataset(
        self, builder_config: Optional[BuilderConfig] = None
    ) -> TransactionDataset:
        """Convert the corpus into a :class:`TransactionDataset`."""
        return build_dataset(
            self.name, self.trees, doc_labels=self.doc_labels, config=builder_config
        )


class TextSampler:
    """Samples topic-flavoured text snippets.

    A snippet of a topical class draws ``topic_ratio`` of its words from the
    class vocabulary and the remainder from the shared filler vocabulary,
    which produces realistic overlap between classes.
    """

    def __init__(self, rng: random.Random, topic_ratio: float = 0.7) -> None:
        if not 0.0 <= topic_ratio <= 1.0:
            raise ValueError(f"topic_ratio must lie in [0, 1], got {topic_ratio}")
        self.rng = rng
        self.topic_ratio = topic_ratio

    def words(self, topic: str, count: int) -> List[str]:
        """Return *count* words flavoured by *topic*."""
        vocabulary = TOPICS[topic]
        chosen: List[str] = []
        for _ in range(count):
            if self.rng.random() < self.topic_ratio:
                chosen.append(self.rng.choice(vocabulary))
            else:
                chosen.append(self.rng.choice(FILLER_WORDS))
        return chosen

    def sentence(self, topic: str, count: int) -> str:
        """Return a space-separated snippet of *count* topic-flavoured words."""
        return " ".join(self.words(topic, count))

    def title(self, topic: str, min_words: int = 4, max_words: int = 9) -> str:
        """Return a title-like snippet."""
        return self.sentence(topic, self.rng.randint(min_words, max_words))

    def paragraph(self, topic: str, min_words: int = 20, max_words: int = 60) -> str:
        """Return a paragraph-like snippet."""
        return self.sentence(topic, self.rng.randint(min_words, max_words))

    def person_name(self) -> str:
        """Return a synthetic person name."""
        return f"{self.rng.choice(GIVEN_NAMES)} {self.rng.choice(SURNAMES)}"

    def year(self, start: int = 1995, end: int = 2009) -> str:
        """Return a publication-year-like string."""
        return str(self.rng.randint(start, end))


def spread_classes(
    count: int, classes: Sequence[str], rng: random.Random
) -> List[str]:
    """Assign *count* documents to classes, keeping class sizes balanced.

    Documents are assigned round-robin over a shuffled class order, then the
    sequence is shuffled so consecutive documents do not share a class.
    """
    if not classes:
        raise ValueError("at least one class is required")
    order = list(classes)
    rng.shuffle(order)
    assigned = [order[i % len(order)] for i in range(count)]
    rng.shuffle(assigned)
    return assigned
