"""Building transaction datasets from XML document collections.

This module implements the preprocessing phase of Fig. 1(b): XML documents
are decomposed into tree tuples, every leaf of every tuple becomes a tree
tuple item, item TCUs are weighted with ttf.itf, and transactions are
assembled into a :class:`~repro.transactions.dataset.TransactionDataset`.

The construction is a two-pass process because ttf.itf weights need corpus
level statistics: the first pass registers every TCU with the
:class:`~repro.text.weighting.CorpusTermStatistics` accumulator; the second
pass materialises items and transactions with their weighted vectors.

Items are de-duplicated by (path, answer); since the ttf.itf weight of a
term depends on the tuple and document the TCU occurs in, the vector attached
to a shared item is the **average** of the vectors of its occurrences.  This
is the natural collapse of the paper's per-occurrence weights onto the shared
item table of Fig. 4(b) and it is covered by a dedicated unit test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.text.preprocess import PreprocessingConfig, TextPreprocessor
from repro.text.vector import SparseVector, merge_vectors
from repro.text.weighting import CorpusTermStatistics, TtfItfWeighter
from repro.transactions.dataset import TransactionDataset
from repro.transactions.items import ItemDomain
from repro.transactions.transaction import Transaction, make_transaction
from repro.treetuples.decompose import extract_tree_tuples
from repro.treetuples.tupleobj import TreeTuple
from repro.xmlmodel.paths import XMLPath
from repro.xmlmodel.tree import XMLTree


@dataclass
class BuilderConfig:
    """Configuration of the XML-to-transactions pipeline."""

    #: Text preprocessing configuration applied to every TCU.
    preprocessing: PreprocessingConfig = field(default_factory=PreprocessingConfig)
    #: Upper bound on the number of tree tuples materialised per document
    #: (``None`` = unbounded); guards against combinatorial explosions in
    #: pathological documents.
    max_tuples_per_document: Optional[int] = None
    #: When True, transactions with no items (documents whose tuples carry no
    #: non-empty leaves) are dropped.
    drop_empty_transactions: bool = True


class TransactionDatasetBuilder:
    """Builds :class:`TransactionDataset` objects from XML trees."""

    def __init__(self, name: str, config: Optional[BuilderConfig] = None) -> None:
        self.name = name
        self.config = config or BuilderConfig()
        self._preprocessor = TextPreprocessor(self.config.preprocessing)

    # ------------------------------------------------------------------ #
    def build(
        self,
        trees: Sequence[XMLTree],
        doc_labels: Optional[Dict[str, Dict[str, str]]] = None,
        statistics: Optional[CorpusTermStatistics] = None,
    ) -> TransactionDataset:
        """Build the dataset for *trees*.

        Parameters
        ----------
        trees:
            The XML document collection.
        doc_labels:
            Optional ground-truth labellings **per document**: a mapping from
            labelling name to ``{doc_id: class label}``.  Labels are projected
            onto every transaction derived from the document, matching the
            paper's evaluation protocol (Sec. 5.3 operates on ``S``).
        statistics:
            The term statistics every TCU of *trees* is registered with and
            the ttf.itf weights are read from; a fresh
            :class:`CorpusTermStatistics` (the collection is *trees*) by
            default.  A served query passes statistics whose collection
            scope is pinned to the fitted corpus.
        """
        tuples = self._extract_tuples(trees)
        if statistics is None:
            statistics = CorpusTermStatistics()
        tuple_tcus = self._collect_statistics(tuples, statistics)
        dataset = self._assemble(tuples, statistics, tuple_tcus)
        if doc_labels:
            for labeling_name, per_doc in doc_labels.items():
                labels = {
                    transaction.transaction_id: per_doc[transaction.doc_id]
                    for transaction in dataset.transactions
                    if transaction.doc_id in per_doc
                }
                dataset.add_labeling(labeling_name, labels)
        return dataset

    # ------------------------------------------------------------------ #
    # Pass 0: tree tuple extraction
    # ------------------------------------------------------------------ #
    def _extract_tuples(self, trees: Sequence[XMLTree]) -> List[TreeTuple]:
        tuples: List[TreeTuple] = []
        for tree in trees:
            tuples.extend(
                extract_tree_tuples(tree, limit=self.config.max_tuples_per_document)
            )
        return tuples

    # ------------------------------------------------------------------ #
    # Pass 1: corpus statistics
    # ------------------------------------------------------------------ #
    def _collect_statistics(
        self, tuples: Sequence[TreeTuple], statistics: CorpusTermStatistics
    ) -> Dict[str, List[Tuple[XMLPath, str, Tuple[str, ...]]]]:
        """Register every TCU with *statistics*; return per-tuple TCU lists."""
        tuple_tcus: Dict[str, List[Tuple[XMLPath, str, Tuple[str, ...]]]] = {}
        for tree_tuple in tuples:
            tcus: List[Tuple[XMLPath, str, Tuple[str, ...]]] = []
            for path, answer in tree_tuple.as_pairs():
                terms = tuple(self._preprocessor.process(answer))
                statistics.add_tcu(tree_tuple.tuple_id, tree_tuple.source_doc_id, terms)
                tcus.append((path, answer, terms))
            tuple_tcus[tree_tuple.tuple_id] = tcus
        return tuple_tcus

    # ------------------------------------------------------------------ #
    # Pass 2: items, vectors and transactions
    # ------------------------------------------------------------------ #
    def _assemble(
        self,
        tuples: Sequence[TreeTuple],
        statistics: CorpusTermStatistics,
        tuple_tcus: Dict[str, List[Tuple[XMLPath, str, Tuple[str, ...]]]],
    ) -> TransactionDataset:
        weighter = TtfItfWeighter(statistics)
        domain = ItemDomain()
        # occurrence vectors per item id, averaged at the end
        occurrence_vectors: Dict[int, List[SparseVector]] = {}
        transactions: List[Transaction] = []

        for tree_tuple in tuples:
            items = []
            for path, answer, terms in tuple_tcus[tree_tuple.tuple_id]:
                item = domain.intern(path, answer, terms)
                vector = weighter.vector(
                    terms, tree_tuple.tuple_id, tree_tuple.source_doc_id
                )
                occurrence_vectors.setdefault(item.item_id, []).append(vector)
                items.append(item)
            if not items and self.config.drop_empty_transactions:
                continue
            transactions.append(
                make_transaction(
                    transaction_id=tree_tuple.tuple_id,
                    items=items,
                    doc_id=tree_tuple.source_doc_id,
                    tuple_id=tree_tuple.tuple_id,
                )
            )

        # Attach averaged vectors to the interned items, then rebuild the
        # transactions so they reference the weighted items.
        for item_id, vectors in occurrence_vectors.items():
            averaged = merge_vectors(vectors).scaled(1.0 / len(vectors))
            item = domain.get(item_id)
            domain.replace(item.with_vector(averaged))

        weighted_transactions = []
        for transaction in transactions:
            weighted_items = [domain.get(item.item_id) for item in transaction.items]
            weighted_transactions.append(transaction.with_items(weighted_items))

        return TransactionDataset(
            name=self.name,
            transactions=weighted_transactions,
            item_domain=domain,
            statistics=statistics,
        )


def build_dataset(
    name: str,
    trees: Sequence[XMLTree],
    doc_labels: Optional[Dict[str, Dict[str, str]]] = None,
    config: Optional[BuilderConfig] = None,
) -> TransactionDataset:
    """Convenience wrapper around :class:`TransactionDatasetBuilder`."""
    return TransactionDatasetBuilder(name, config=config).build(trees, doc_labels=doc_labels)
