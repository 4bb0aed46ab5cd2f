"""XML paths and path answers (paper Sec. 3.1).

An XML path ``p = s1.s2.....sm`` is a dot-separated sequence of symbols in
``Tag ∪ Att ∪ {S}``.  Paths are *tag paths* when they end with a tag name and
*complete paths* when they end with an attribute label or the ``S`` symbol.

Applying a path to an XML tree yields the set of nodes reachable by matching
the labels along root-to-node chains; the *answer* of a path is either that
node set (tag paths) or the set of leaf string values (complete paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro.xmlmodel.errors import XMLPathError
from repro.xmlmodel.names import is_attribute_label, is_tag_label, is_text_label
from repro.xmlmodel.tree import XMLNode, XMLTree

#: Separator used in the textual rendering of paths (``dblp.inproceedings.S``).
PATH_SEPARATOR = "."


@dataclass(frozen=True, order=True)
class XMLPath:
    """An immutable XML path: a sequence of labels from the document root.

    Instances are hashable and totally ordered (lexicographically on their
    label sequence), which lets them serve as dictionary keys for the item
    domain of the transactional model.  The hash and the derived tag path are
    cached because similarity computations look paths up millions of times.
    """

    steps: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise XMLPathError("a path must have at least one step")
        for step in self.steps[:-1]:
            if not is_tag_label(step):
                raise XMLPathError(
                    f"only the last step of a path may be an attribute or 'S': {self}"
                )
        object.__setattr__(self, "_hash", hash(self.steps))
        object.__setattr__(self, "_tag_path", None)

    def __hash__(self) -> int:  # cached; steps are immutable
        return self._hash

    def __reduce__(self):
        """Rebuild through the constructor when unpickled.

        The cached ``_hash`` bakes in the per-process string-hash salt
        (``PYTHONHASHSEED``); restoring it verbatim in another process
        would make equal paths hash differently from locally constructed
        ones, silently breaking dict and set lookups that mix pickled and
        fresh paths (e.g. a worker probing its unpickled corpus registry
        with representatives decoded from the wire).
        """
        return (XMLPath, (self.steps,))

    # -- constructors ----------------------------------------------------- #

    @staticmethod
    def parse(text: str) -> "XMLPath":
        """Parse the dotted textual form, e.g. ``"dblp.inproceedings.@key"``."""
        if not text:
            raise XMLPathError("cannot parse an empty path")
        return XMLPath(tuple(text.split(PATH_SEPARATOR)))

    @staticmethod
    def for_node(node: XMLNode) -> "XMLPath":
        """Return the root-to-*node* label path."""
        return XMLPath(node.label_path())

    # -- classification --------------------------------------------------- #
    @property
    def last(self) -> str:
        return self.steps[-1]

    @property
    def is_complete(self) -> bool:
        """True when the path ends with an attribute label or ``S``."""
        return is_attribute_label(self.last) or is_text_label(self.last)

    @property
    def is_tag_path(self) -> bool:
        """True when the path ends with a tag name."""
        return not self.is_complete

    @property
    def length(self) -> int:
        return len(self.steps)

    # -- derived paths ----------------------------------------------------- #
    def tag_path(self) -> "XMLPath":
        """Return the maximal tag path obtained by dropping a trailing
        attribute / ``S`` step (complete paths), or the path itself.

        The result is computed once and cached on the instance.
        """
        cached = self._tag_path
        if cached is not None:
            return cached
        if self.is_complete:
            if len(self.steps) == 1:
                raise XMLPathError(f"complete path {self} has no tag prefix")
            result = XMLPath(self.steps[:-1])
        else:
            result = self
        object.__setattr__(self, "_tag_path", result)
        return result

    def parent(self) -> "XMLPath":
        """Return the path with the last step removed."""
        if len(self.steps) == 1:
            raise XMLPathError("the root path has no parent")
        return XMLPath(self.steps[:-1])

    def child(self, step: str) -> "XMLPath":
        """Return the path extended with one more step."""
        return XMLPath(self.steps + (step,))

    def startswith(self, prefix: "XMLPath") -> bool:
        """Return True if *prefix* is a prefix of this path."""
        return self.steps[: len(prefix.steps)] == prefix.steps

    # -- rendering --------------------------------------------------------- #
    def __str__(self) -> str:
        return PATH_SEPARATOR.join(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


# --------------------------------------------------------------------------- #
# Path application and answers
# --------------------------------------------------------------------------- #
def apply_path(path: XMLPath, tree: XMLTree) -> List[XMLNode]:
    """Return ``p(XT)``: the nodes identified by applying *path* to *tree*.

    A node ``n`` belongs to the result when the labels along the root-to-``n``
    chain coincide step by step with the path.
    """
    if tree.root.label != path.steps[0]:
        return []
    frontier: List[XMLNode] = [tree.root]
    for step in path.steps[1:]:
        next_frontier: List[XMLNode] = []
        for node in frontier:
            for child in node.children:
                if child.label == step:
                    next_frontier.append(child)
        frontier = next_frontier
        if not frontier:
            return []
    return frontier


def path_answer(path: XMLPath, tree: XMLTree) -> FrozenSet:
    """Return the *answer* ``A_XT(p)`` of *path* on *tree*.

    For tag paths the answer is the frozen set of node identifiers; for
    complete paths it is the frozen set of leaf string values (``delta``).
    """
    nodes = apply_path(path, tree)
    if path.is_tag_path:
        return frozenset(node.node_id for node in nodes)
    return frozenset(node.value for node in nodes if node.value is not None)


def complete_paths(tree: XMLTree) -> Set[XMLPath]:
    """Return ``P_XT``: the set of all complete paths occurring in *tree*."""
    return {XMLPath.for_node(leaf) for leaf in tree.iter_leaves()}
