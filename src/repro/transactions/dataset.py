"""Transaction datasets: the collection ``S`` of XML transactions.

A :class:`TransactionDataset` bundles the transactions extracted from an XML
collection with the shared item domain, the corpus term statistics used for
ttf.itf weighting, and (optionally) one or more ground-truth labellings used
by the external cluster-validity measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.text.weighting import CorpusTermStatistics
from repro.transactions.items import ItemDomain, TreeTupleItem
from repro.transactions.transaction import Transaction


@dataclass
class TransactionDataset:
    """The full transactional view of an XML document collection.

    Attributes
    ----------
    name:
        Human readable dataset name (e.g. ``"DBLP"``).
    transactions:
        The list of transactions (``S`` in the paper).
    item_domain:
        The shared item domain (Fig. 4(b)).
    statistics:
        The corpus term statistics used for ttf.itf weighting.
    labelings:
        Ground-truth labellings keyed by labelling name (``"content"``,
        ``"structure"``, ``"hybrid"``); each maps transaction identifiers to
        class labels.
    """

    name: str
    transactions: List[Transaction] = field(default_factory=list)
    item_domain: ItemDomain = field(default_factory=ItemDomain)
    statistics: Optional[CorpusTermStatistics] = None
    labelings: Dict[str, Dict[str, str]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self.transactions[index]

    # ------------------------------------------------------------------ #
    # Summary statistics (used by experiments and reports)
    # ------------------------------------------------------------------ #
    def transaction_count(self) -> int:
        return len(self.transactions)

    def item_count(self) -> int:
        """Return the number of distinct items in the domain."""
        return len(self.item_domain)

    def max_transaction_length(self) -> int:
        """Return ``|tr_max|``: the length of the longest transaction."""
        return max((len(tr) for tr in self.transactions), default=0)

    def max_tcu_size(self) -> int:
        """Return ``|u_max|``: the largest TCU vector dimensionality."""
        return max((tr.max_tcu_size() for tr in self.transactions), default=0)

    def vocabulary_size(self) -> int:
        """Return ``|V|``: the number of distinct index terms."""
        return len(self.statistics.vocabulary) if self.statistics else 0

    def document_ids(self) -> List[str]:
        """Return the distinct originating document identifiers, in order."""
        seen: Dict[str, None] = {}
        for transaction in self.transactions:
            if transaction.doc_id not in seen:
                seen[transaction.doc_id] = None
        return list(seen.keys())

    def summary(self) -> Dict[str, float]:
        """Return headline statistics comparable to the paper's Sec. 5.2."""
        return {
            "documents": len(self.document_ids()),
            "transactions": self.transaction_count(),
            "distinct_items": self.item_count(),
            "vocabulary": self.vocabulary_size(),
            "max_transaction_length": self.max_transaction_length(),
            "max_tcu_size": self.max_tcu_size(),
        }

    # ------------------------------------------------------------------ #
    # Labelings
    # ------------------------------------------------------------------ #
    def add_labeling(self, name: str, labels: Dict[str, str]) -> None:
        """Attach a ground-truth labelling keyed by transaction identifier."""
        self.labelings[name] = dict(labels)

    def labels_for(self, name: str) -> Dict[str, str]:
        """Return the labelling registered under *name*.

        Raises
        ------
        KeyError
            When no such labelling was registered.
        """
        return self.labelings[name]

    # ------------------------------------------------------------------ #
    # Slicing (used by data partitioning across peers)
    # ------------------------------------------------------------------ #
    def split(self, chunks: Sequence[Sequence[Transaction]]) -> List["TransactionDataset"]:
        """Wrap pre-computed transaction chunks as shared-domain datasets."""
        result = []
        for index, chunk in enumerate(chunks):
            result.append(
                TransactionDataset(
                    name=f"{self.name}-part{index}",
                    transactions=list(chunk),
                    item_domain=self.item_domain,
                    statistics=self.statistics,
                    labelings=self.labelings,
                )
            )
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionDataset({self.name!r}, {len(self.transactions)} transactions, "
            f"{len(self.item_domain)} items)"
        )
