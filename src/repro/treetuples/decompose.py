"""Decomposition of XML trees into tree tuples (paper Sec. 3.2, Fig. 3).

A tree tuple is a maximal subtree on which every (tag or complete) path of
the original tree has an answer of size at most one.  Operationally, the set
of tree tuples of a tree is obtained by a product construction:

* the tuples of a leaf are the leaf itself;
* the tuples of an internal node are obtained by grouping its children by
  label, picking **exactly one child per label group** and **one tuple of
  that child**, and combining the choices across groups.

Choosing one child per group guarantees functionality (no label path can
reach two nodes) and taking one per *every* non-empty group guarantees
maximality (no further node can be added without repeating a label path).

The number of tuples is a product of group sizes and can therefore grow
combinatorially for documents with many repeated sibling labels at several
levels; :func:`extract_tree_tuples` accepts a ``limit`` that bounds
materialisation (the paper's corpora stay comfortably small because repeated
labels concentrate on one level, e.g. ``author`` under ``inproceedings``).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Set

from repro.treetuples.tupleobj import TreeTuple
from repro.xmlmodel.tree import XMLNode, XMLTree


def _group_children_by_label(node: XMLNode) -> List[List[XMLNode]]:
    """Group the children of *node* by label, preserving document order of
    the first occurrence of each label."""
    groups: Dict[str, List[XMLNode]] = {}
    order: List[str] = []
    for child in node.children:
        if child.label not in groups:
            groups[child.label] = []
            order.append(child.label)
        groups[child.label].append(child)
    return [groups[label] for label in order]


def _tuple_node_id_sets(node: XMLNode, limit: Optional[int]) -> List[Set[int]]:
    """Return, for the subtree rooted at *node*, the list of node-identifier
    sets corresponding to each tuple of that subtree.

    ``limit`` bounds the number of sets produced at every level (and hence
    globally); ``None`` means unbounded.
    """
    if node.is_leaf:
        return [{node.node_id}]

    group_choices: List[List[Set[int]]] = []
    for group in _group_children_by_label(node):
        choices: List[Set[int]] = []
        for child in group:
            for child_set in _tuple_node_id_sets(child, limit):
                choices.append(child_set)
                if limit is not None and len(choices) >= limit:
                    break
            if limit is not None and len(choices) >= limit:
                break
        group_choices.append(choices)

    results: List[Set[int]] = []
    for combination in product(*group_choices):
        merged: Set[int] = {node.node_id}
        for child_set in combination:
            merged |= child_set
        results.append(merged)
        if limit is not None and len(results) >= limit:
            break
    return results


def extract_tree_tuples(
    tree: XMLTree, limit: Optional[int] = None
) -> List[TreeTuple]:
    """Extract the tree tuples of *tree* (paper Sec. 3.2).

    Parameters
    ----------
    tree:
        The source XML tree.
    limit:
        Optional upper bound on the number of tuples materialised; when the
        document would generate more, only the first ``limit`` (in the
        document-order product enumeration) are returned.

    Returns
    -------
    list of :class:`TreeTuple`
        Tuples preserve the node identifiers of the original tree and are
        assigned identifiers ``"<doc_id>#<i>"``.
    """
    doc_id = tree.doc_id or "doc"
    node_id_sets = _tuple_node_id_sets(tree.root, limit)
    tuples: List[TreeTuple] = []
    for index, id_set in enumerate(node_id_sets):
        subtree = tree.restricted_to(id_set)
        tuples.append(
            TreeTuple(tree=subtree, source_doc_id=doc_id, tuple_id=f"{doc_id}#{index}")
        )
    return tuples
