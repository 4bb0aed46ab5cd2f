"""XML tree model (paper Sec. 3.1).

An XML tree ``XT = <T, delta>`` is a labelled rooted tree whose internal
nodes carry element tag names and whose leaves carry either attribute names
(``@name``) or the ``#PCDATA`` sentinel ``S``; the function ``delta`` maps
every leaf to the string value attached to it.

The implementation keeps nodes as light-weight objects with integer
identifiers assigned in document order, which mirrors the ``n1 .. n27``
numbering used in the paper's running example (Fig. 2) and makes tree tuples
easy to cross-check against the paper by hand.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.xmlmodel.errors import XMLTreeError
from repro.xmlmodel.names import (
    PCDATA,
    attribute_label,
    is_attribute_label,
    is_tag_label,
    is_text_label,
    validate_tag,
)


class XMLNode:
    """A single node of an :class:`XMLTree`.

    Attributes
    ----------
    node_id:
        Integer identifier, unique within the owning tree, assigned in
        document (pre-) order starting from 1.
    label:
        Element tag name for internal nodes; ``@name`` for attribute leaves;
        ``"S"`` for text (``#PCDATA``) leaves.
    value:
        Leaf string value (``delta``); ``None`` for internal nodes.
    parent:
        Parent node, or ``None`` for the root.
    children:
        Ordered list of child nodes (always empty for leaves).
    """

    __slots__ = ("node_id", "label", "value", "parent", "children")

    def __init__(
        self,
        node_id: int,
        label: str,
        value: Optional[str] = None,
        parent: Optional["XMLNode"] = None,
    ) -> None:
        self.node_id = node_id
        self.label = label
        self.value = value
        self.parent = parent
        self.children: List[XMLNode] = []

    # ------------------------------------------------------------------ #
    # Classification helpers
    # ------------------------------------------------------------------ #
    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return not self.children

    @property
    def is_text(self) -> bool:
        """True for ``#PCDATA`` leaves (label ``S``)."""
        return is_text_label(self.label)

    @property
    def is_attribute(self) -> bool:
        """True for attribute leaves (label ``@name``)."""
        return is_attribute_label(self.label)

    @property
    def is_element(self) -> bool:
        """True for element (tag) nodes."""
        return is_tag_label(self.label)

    # ------------------------------------------------------------------ #
    # Navigation helpers
    # ------------------------------------------------------------------ #
    def ancestors(self) -> Iterator["XMLNode"]:
        """Yield ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        """Return the number of edges from the root to this node."""
        return sum(1 for _ in self.ancestors())

    def label_path(self) -> Tuple[str, ...]:
        """Return the sequence of labels from the root down to this node."""
        labels = [self.label]
        for anc in self.ancestors():
            labels.append(anc.label)
        return tuple(reversed(labels))

    def iter_preorder(self) -> Iterator["XMLNode"]:
        """Yield this node and all descendants in document (pre-) order."""
        stack: List[XMLNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_leaves(self) -> Iterator["XMLNode"]:
        """Yield all leaf descendants (including self when it is a leaf)."""
        for node in self.iter_preorder():
            if node.is_leaf:
                yield node

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_leaf and self.value is not None:
            return f"XMLNode(n{self.node_id}, {self.label!r}={self.value!r})"
        return f"XMLNode(n{self.node_id}, {self.label!r}, {len(self.children)} children)"


class XMLTree:
    """A labelled rooted XML tree with leaf string values.

    Trees are normally built through :class:`XMLTreeBuilder` or
    :func:`repro.xmlmodel.parser.parse_xml`; the raw constructor accepts a
    pre-built root for internal use.
    """

    def __init__(self, root: XMLNode, doc_id: Optional[str] = None) -> None:
        if root.parent is not None:
            raise XMLTreeError("the root node must not have a parent")
        self.root = root
        #: Optional identifier of the originating document (file name, URI...).
        self.doc_id = doc_id
        self._nodes_by_id: Dict[int, XMLNode] = {
            node.node_id: node for node in root.iter_preorder()
        }
        self._validate()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        """Check the structural invariants required by the formal model."""
        for node in self.iter_nodes():
            if node.is_element:
                if node.value is not None:
                    raise XMLTreeError(
                        f"element node n{node.node_id} ({node.label}) must not carry a value"
                    )
            else:
                if node.children:
                    raise XMLTreeError(
                        f"leaf-labelled node n{node.node_id} ({node.label}) must not have children"
                    )
                if node.value is None:
                    raise XMLTreeError(
                        f"leaf node n{node.node_id} ({node.label}) must carry a string value"
                    )
            for child in node.children:
                if child.parent is not node:
                    raise XMLTreeError(
                        f"node n{child.node_id} has an inconsistent parent pointer"
                    )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def node(self, node_id: int) -> XMLNode:
        """Return the node with the given identifier.

        Raises
        ------
        KeyError
            If no node with that identifier exists in this tree.
        """
        return self._nodes_by_id[node_id]

    def iter_nodes(self) -> Iterator[XMLNode]:
        """Yield every node in document order."""
        return self.root.iter_preorder()

    def iter_leaves(self) -> Iterator[XMLNode]:
        """Yield every leaf node in document order."""
        return self.root.iter_leaves()

    def node_count(self) -> int:
        """Return the total number of nodes."""
        return len(self._nodes_by_id)

    def leaf_count(self) -> int:
        """Return the number of leaf nodes."""
        return sum(1 for _ in self.iter_leaves())

    def depth(self) -> int:
        """Return the depth of the tree measured in *path length* (number of
        labels on the longest root-to-leaf path), as used by the paper for
        ``depth(XT)``."""
        return max((leaf.depth() + 1 for leaf in self.iter_leaves()), default=1)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def restricted_to(self, keep_ids: Iterable[int]) -> "XMLTree":
        """Return the subtree induced by *keep_ids* (node identifiers).

        The root must be part of the kept set; children not in the set are
        dropped together with their descendants.  Node identifiers are
        preserved, which is what makes tree tuples directly comparable with
        the original tree (paper Fig. 3).
        """
        keep = set(keep_ids)
        if self.root.node_id not in keep:
            raise XMLTreeError("the root must belong to the restriction set")

        def clone(node: XMLNode, parent: Optional[XMLNode]) -> XMLNode:
            new = XMLNode(node.node_id, node.label, node.value, parent)
            for child in node.children:
                if child.node_id in keep:
                    new.children.append(clone(child, new))
            return new

        return XMLTree(clone(self.root, None), doc_id=self.doc_id)

    # ------------------------------------------------------------------ #
    # Comparison / hashing
    # ------------------------------------------------------------------ #
    def structure_signature(self) -> Tuple:
        """Return a hashable signature of labels+values (ignores node ids)."""

        def sig(node: XMLNode) -> Tuple:
            return (node.label, node.value, tuple(sig(c) for c in node.children))

        return sig(self.root)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XMLTree):
            return NotImplemented
        return self.structure_signature() == other.structure_signature()

    def __hash__(self) -> int:
        return hash(self.structure_signature())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"XMLTree(doc_id={self.doc_id!r}, nodes={self.node_count()}, "
            f"depth={self.depth()})"
        )


class XMLTreeBuilder:
    """Fluent builder used by the parser, generators and tests.

    Example
    -------
    >>> b = XMLTreeBuilder("example")
    >>> b.start("dblp")
    >>> b.start("inproceedings")
    >>> b.attribute("key", "conf/kdd/ZakiA03")
    >>> b.start("author"); b.text("M.J. Zaki"); b.end()
    >>> b.end(); b.end()
    >>> tree = b.finish()
    """

    def __init__(self, doc_id: Optional[str] = None) -> None:
        self._doc_id = doc_id
        self._next_id = 1
        self._root: Optional[XMLNode] = None
        self._stack: List[XMLNode] = []

    # -- internal -------------------------------------------------------- #
    def _new_node(self, label: str, value: Optional[str]) -> XMLNode:
        parent = self._stack[-1] if self._stack else None
        node = XMLNode(self._next_id, label, value, parent)
        self._next_id += 1
        if parent is None:
            if self._root is not None:
                raise XMLTreeError("a tree can only have a single root element")
            self._root = node
        else:
            parent.children.append(node)
        return node

    # -- public API ------------------------------------------------------ #
    def start(self, tag: str) -> "XMLTreeBuilder":
        """Open an element with the given tag name."""
        node = self._new_node(validate_tag(tag), None)
        self._stack.append(node)
        return self

    def end(self) -> "XMLTreeBuilder":
        """Close the most recently opened element."""
        if not self._stack:
            raise XMLTreeError("end() called with no open element")
        self._stack.pop()
        return self

    def attribute(self, name: str, value: str) -> "XMLTreeBuilder":
        """Attach an attribute leaf ``@name = value`` to the open element."""
        if not self._stack:
            raise XMLTreeError("attribute() requires an open element")
        self._new_node(attribute_label(name), str(value))
        return self

    def text(self, value: str) -> "XMLTreeBuilder":
        """Attach a ``#PCDATA`` leaf to the open element."""
        if not self._stack:
            raise XMLTreeError("text() requires an open element")
        self._new_node(PCDATA, str(value))
        return self

    def element(self, tag: str, text: Optional[str] = None, **attributes: str) -> "XMLTreeBuilder":
        """Convenience: open an element, add attributes/text, and close it."""
        self.start(tag)
        for name, value in attributes.items():
            self.attribute(name, value)
        if text is not None:
            self.text(text)
        return self.end()

    def finish(self) -> XMLTree:
        """Return the completed :class:`XMLTree`.

        Raises
        ------
        XMLTreeError
            If elements are still open or no root was created.
        """
        if self._stack:
            open_tags = ", ".join(n.label for n in self._stack)
            raise XMLTreeError(f"unclosed elements: {open_tags}")
        if self._root is None:
            raise XMLTreeError("no root element was created")
        return XMLTree(self._root, doc_id=self._doc_id)
