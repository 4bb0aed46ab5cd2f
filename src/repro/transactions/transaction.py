"""XML transactions (paper Sec. 3.3).

A transaction ``I_tau = { <p, A_tau(p)> | p in P_tau }`` is the set of tree
tuple items associated to the leaves of a tree tuple.  Cluster
representatives produced by the CXK-means functions are also transactions
(made of synthetic, conflated items), so the class is deliberately agnostic
about where its items come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

from repro.transactions.items import TreeTupleItem


@dataclass(frozen=True)
class Transaction:
    """An immutable set of tree tuple items with provenance metadata.

    Attributes
    ----------
    transaction_id:
        Unique identifier within the dataset (``"<doc_id>#<tuple index>"``
        for transactions derived from tree tuples; representatives use a
        ``"rep:..."`` prefix).
    items:
        The tree tuple items, stored as a tuple in path order for determinism.
    doc_id / tuple_id:
        Provenance of the transaction; empty strings for representatives.
    """

    transaction_id: str
    items: Tuple[TreeTupleItem, ...]
    doc_id: str = ""
    tuple_id: str = ""

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[TreeTupleItem]:
        return iter(self.items)

    def __contains__(self, item: TreeTupleItem) -> bool:
        return item in self.items

    def is_empty(self) -> bool:
        return not self.items

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def item_set(self) -> Set[TreeTupleItem]:
        """Return the items as a set (used by union/intersection helpers)."""
        return set(self.items)

    def max_tcu_size(self) -> int:
        """Return the largest TCU vector dimensionality among the items."""
        return max((len(item.vector) for item in self.items), default=0)

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def with_items(self, items: Sequence[TreeTupleItem]) -> "Transaction":
        """Return a copy of the transaction with a different item set."""
        return Transaction(
            transaction_id=self.transaction_id,
            items=tuple(items),
            doc_id=self.doc_id,
            tuple_id=self.tuple_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transaction({self.transaction_id}, {len(self.items)} items)"


def union_size(tr1: Transaction, tr2: Transaction) -> int:
    """Return ``|tr1 ∪ tr2|`` counting distinct items across both transactions.

    Items compare by (id, path, answer); synthetic items from representatives
    therefore merge whenever their conflated content coincides.
    """
    return len(tr1.item_set() | tr2.item_set())


def same_items(first: Transaction, second: Transaction) -> bool:
    """Whether two transactions carry the same items in the same order.

    Items must agree on (id, path, answer), terms and TCU vector, weight
    order included: everything a similarity or a representative reads from
    a transaction.  Stricter than ``==``, whose item equality ignores the
    terms and vectors.
    """
    if first is second:
        return True
    if len(first.items) != len(second.items):
        return False
    for item_a, item_b in zip(first.items, second.items):
        if item_a is item_b:
            continue
        if item_a != item_b or item_a.terms != item_b.terms:
            return False
        vector_a, vector_b = item_a.vector, item_b.vector
        if vector_a is not vector_b and list(vector_a.items()) != list(vector_b.items()):
            return False
    return True


def make_transaction(
    transaction_id: str,
    items: Iterable[TreeTupleItem],
    doc_id: str = "",
    tuple_id: str = "",
    sort_items: bool = True,
) -> Transaction:
    """Build a :class:`Transaction`, sorting items by path for determinism."""
    items = list(items)
    if sort_items:
        items.sort(key=lambda item: (item.path, item.answer))
    return Transaction(
        transaction_id=transaction_id,
        items=tuple(items),
        doc_id=doc_id,
        tuple_id=tuple_id,
    )
