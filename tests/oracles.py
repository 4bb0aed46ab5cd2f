"""Paper definitions restated as plain code, for tests to check against.

Each helper follows one definition of the paper step by step and favours
clarity over speed; no program runs them.

* :func:`is_tree_tuple` / :func:`is_maximal_tree_tuple` -- the tree tuple
  of Sec. 3.2: every path of the source tree has an answer of size at most
  one on the subtree, and no single node can be added while keeping that.
* :func:`count_tree_tuples` -- the number of tuples the product
  construction of Sec. 3.2 yields, counted without materialising them.
* :func:`directed_gamma_match` -- one directed pass of Eq. 2,
  ``match_gamma(source -> target)``.
"""

from __future__ import annotations

from typing import List, Set

from repro.similarity.transaction import SimilarityEngine
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction
from repro.xmlmodel.paths import XMLPath, path_answer
from repro.xmlmodel.tree import XMLNode, XMLTree


def is_tree_tuple(subtree: XMLTree, original: XMLTree) -> bool:
    """True when every path (tag or complete) of *original* has an answer of
    size at most one on *subtree*."""
    paths = {XMLPath.for_node(node) for node in original.iter_nodes()}
    return all(len(path_answer(path, subtree)) <= 1 for path in paths)


def is_maximal_tree_tuple(subtree: XMLTree, original: XMLTree) -> bool:
    """True for a tree tuple that no single node of *original* extends.

    Maximality in the paper is node-wise: a node whose parent is kept is
    the weakest extension, so if adding it alone keeps the tree-tuple
    property the subtree is not maximal.
    """
    if not is_tree_tuple(subtree, original):
        return False
    kept = {node.node_id for node in subtree.iter_nodes()}
    for node in original.iter_nodes():
        if node.node_id in kept or node.parent is None:
            continue
        if node.parent.node_id not in kept:
            continue
        extended = original.restricted_to(kept | {node.node_id})
        if is_tree_tuple(extended, original):
            return False
    return True


def count_tree_tuples(tree: XMLTree) -> int:
    """Return the number of tree tuples of *tree* without materialising them.

    ``count(leaf) = 1`` and ``count(n)`` is the product, over the groups of
    equally labelled children of ``n``, of the sum of their counts.
    """

    def count(node: XMLNode) -> int:
        if node.is_leaf:
            return 1
        groups = {}
        for child in node.children:
            groups[child.label] = groups.get(child.label, 0) + count(child)
        total = 1
        for size in groups.values():
            total *= size
        return total

    return count(tree.root)


def directed_gamma_match(
    engine: SimilarityEngine, source: Transaction, target: Transaction
) -> Set[TreeTupleItem]:
    """Return ``match_gamma(source -> target)``.

    An item ``e`` of *source* is included when some item ``e_h`` of
    *target* is gamma-matched with it and no other item of *source* is
    strictly more similar to that ``e_h``.
    """
    if source.is_empty() or target.is_empty():
        return set()
    matched: Set[TreeTupleItem] = set()
    for target_item in target.items:
        best_similarity = -1.0
        best_items: List[TreeTupleItem] = []
        for source_item in source.items:
            similarity = engine.item_similarity(source_item, target_item)
            if similarity > best_similarity:
                best_similarity = similarity
                best_items = [source_item]
            elif similarity == best_similarity:
                best_items.append(source_item)
        if best_similarity >= engine.config.gamma:
            matched.update(best_items)
    return matched
