"""Tree tuple items and the item domain (paper Sec. 3.3, Fig. 4).

An *XML tree tuple item* is a pair ``<p, A_tau(p)>`` made of a complete path
and its answer on a tree tuple.  The item embeds one distinct combination of
structure (the path) and content (the answer text, preprocessed into a TCU
vector) drawn from the original XML data.

Items are shared across transactions whenever the (path, answer) pair
coincides -- e.g. in the paper's running example the item for
``dblp.inproceedings.booktitle.S = 'KDD'`` is shared by all three tuples.
The :class:`ItemDomain` performs this de-duplication and assigns dense
integer identifiers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.text.vector import SparseVector
from repro.xmlmodel.paths import XMLPath


@dataclass(frozen=True)
class TreeTupleItem:
    """An immutable tree tuple item ``<path, answer>`` with its TCU vector.

    Attributes
    ----------
    item_id:
        Dense integer identifier within the owning :class:`ItemDomain`.
        Synthetic items created during representative computation (by
        ``conflateItems``) carry ``item_id = -1``.
    path:
        The complete path ``p`` of the item.
    answer:
        The raw answer text (attribute value or ``#PCDATA`` content).  For
        conflated items this is the concatenation of the merged answers.
    terms:
        The preprocessed index terms of the answer (the TCU).
    vector:
        The ttf.itf-weighted sparse TCU vector used by content similarity.
    """

    item_id: int
    path: XMLPath
    answer: str
    terms: Tuple[str, ...] = ()
    vector: SparseVector = field(default_factory=SparseVector)

    # ------------------------------------------------------------------ #
    @functools.cached_property
    def tag_path(self) -> XMLPath:
        """Return the maximal tag path of the item (path minus last step).

        Cached: similarity kernels access it millions of times per run.
        """
        return self.path.tag_path()

    def key(self) -> Tuple[XMLPath, str]:
        """Return the de-duplication key (path, answer)."""
        return (self.path, self.answer)

    def with_vector(self, vector: SparseVector) -> "TreeTupleItem":
        """Return a copy of the item carrying a different TCU vector."""
        return TreeTupleItem(
            item_id=self.item_id,
            path=self.path,
            answer=self.answer,
            terms=self.terms,
            vector=vector,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.answer if len(self.answer) <= 24 else self.answer[:21] + "..."
        return f"Item(e{self.item_id}, {self.path}, {preview!r})"

    # Equality / hashing intentionally rely on (item_id, path, answer) so that
    # synthetic items with identical content compare equal while items from
    # the domain keep identity through their ids.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeTupleItem):
            return NotImplemented
        return (
            self.item_id == other.item_id
            and self.path == other.path
            and self.answer == other.answer
        )

    def __hash__(self) -> int:
        return hash((self.item_id, self.path, self.answer))


class ItemDomain:
    """The global item domain of a transaction dataset.

    Maps (path, answer) pairs to unique :class:`TreeTupleItem` objects with
    dense identifiers, mirroring the item table of the paper's Fig. 4(b).
    """

    def __init__(self) -> None:
        self._items: List[TreeTupleItem] = []
        self._by_key: Dict[Tuple[XMLPath, str], int] = {}

    # ------------------------------------------------------------------ #
    def intern(
        self,
        path: XMLPath,
        answer: str,
        terms: Tuple[str, ...] = (),
        vector: Optional[SparseVector] = None,
    ) -> TreeTupleItem:
        """Return the canonical item for (path, answer), creating it if new."""
        key = (path, answer)
        index = self._by_key.get(key)
        if index is not None:
            return self._items[index]
        item = TreeTupleItem(
            item_id=len(self._items),
            path=path,
            answer=answer,
            terms=tuple(terms),
            vector=vector if vector is not None else SparseVector(),
        )
        self._by_key[key] = item.item_id
        self._items.append(item)
        return item

    def replace(self, item: TreeTupleItem) -> None:
        """Replace the stored item with the same identifier (e.g. to attach a
        freshly computed TCU vector after corpus statistics are complete)."""
        if item.item_id < 0 or item.item_id >= len(self._items):
            raise KeyError(f"unknown item id: {item.item_id}")
        self._items[item.item_id] = item
        self._by_key[item.key()] = item.item_id

    def get(self, item_id: int) -> TreeTupleItem:
        """Return the item with the given identifier."""
        return self._items[item_id]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[TreeTupleItem]:
        return iter(self._items)


def make_synthetic_item(
    path: XMLPath,
    answer: str,
    terms: Iterable[str] = (),
    vector: Optional[SparseVector] = None,
) -> TreeTupleItem:
    """Create a synthetic (representative) item outside any domain."""
    return TreeTupleItem(
        item_id=-1,
        path=path,
        answer=answer,
        terms=tuple(terms),
        vector=vector if vector is not None else SparseVector(),
    )
