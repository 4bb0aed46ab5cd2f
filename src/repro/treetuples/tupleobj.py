"""The :class:`TreeTuple` value object (paper Sec. 3.2).

A tree tuple is a *maximal* subtree ``tau`` of an XML tree ``XT`` such that
every (tag or complete) path of ``XT`` has an answer of size at most one on
``tau``.  Tree tuples resemble relational tuples: each complete path plays
the role of an attribute and its (single) answer plays the role of the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.xmlmodel.paths import XMLPath, complete_paths, path_answer
from repro.xmlmodel.tree import XMLTree


@dataclass(frozen=True)
class TreeTuple:
    """A tree tuple extracted from an XML tree.

    Attributes
    ----------
    tree:
        The tree-tuple subtree itself (node identifiers are preserved from
        the original document tree, as in the paper's Fig. 3).
    source_doc_id:
        Identifier of the originating document.
    tuple_id:
        Identifier of the tuple, unique within the originating document
        (``"<doc_id>#<index>"`` by convention when built by the extractor).
    """

    tree: XMLTree
    source_doc_id: str
    tuple_id: str

    # ------------------------------------------------------------------ #
    # Relational view
    # ------------------------------------------------------------------ #
    def paths(self) -> FrozenSet[XMLPath]:
        """Return ``P_tau``: the set of complete paths of the tuple."""
        return frozenset(complete_paths(self.tree))

    def answer(self, path: XMLPath) -> Optional[str]:
        """Return the single string answer of a complete *path*, or ``None``.

        By the defining property of tree tuples the answer set has size at
        most one, so it is safe to collapse it to a scalar.
        """
        values = path_answer(path, self.tree)
        if not values:
            return None
        if len(values) > 1:  # pragma: no cover - guarded by extraction invariant
            raise ValueError(
                f"tree tuple {self.tuple_id} has a non-functional path {path}"
            )
        return next(iter(values))

    def as_pairs(self) -> List[Tuple[XMLPath, str]]:
        """Return sorted (complete path, answer) pairs -- the relational view."""
        pairs = []
        for path in sorted(self.paths()):
            value = self.answer(path)
            if value is not None:
                pairs.append((path, value))
        return pairs

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def leaf_count(self) -> int:
        """Return the number of leaves (equivalently, of complete paths
        counted with multiplicity one, since answers are functional)."""
        return self.tree.leaf_count()

    def __len__(self) -> int:
        return self.leaf_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeTuple({self.tuple_id}, {self.leaf_count()} leaves)"
