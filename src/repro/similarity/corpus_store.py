"""Append-only block log of the transactions a stream ingests.

The streaming ingestion path (:mod:`repro.core.streaming`) appends each
chunk to a :class:`BlockCorpusStore` (also bound as :data:`CorpusStore`)
as one numbered immutable block; the stream never reads the chain back::

    <directory>/
        chain.json             # chain manifest, rewritten LAST per append
        block-00000/
            block.json         # per-block manifest, written LAST in block
            transactions.pkl   # only this block's transactions

Crash safety is two-staged: a block directory without its ``block.json``
(torn write) or a complete block not yet listed in ``chain.json`` is
invisible to :meth:`BlockCorpusStore.open` and is repaired (removed, then
rewritten) by the next append.

:func:`prepare_engine_corpus` is the one warm-up of an engine for a
corpus: it precomputes the tag-path similarities and compiles the corpus
into the backend.
"""

from __future__ import annotations

import bisect
import json
import os
import pickle
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.similarity.item import SimilarityConfig
from repro.transactions.transaction import Transaction

#: Version of the on-disk layout, checked in every chain manifest: a chain
#: of another version fails to open.
STORE_FORMAT_VERSION = 3

#: Name of the chain manifest (rewritten last on every append).
CHAIN_MANIFEST_NAME = "chain.json"

#: Name of the per-block manifest (written last within each block).
BLOCK_MANIFEST_NAME = "block.json"

#: Name of the file holding one block's pickled transactions.
BLOCK_TRANSACTIONS_NAME = "transactions.pkl"


class CorpusStoreError(RuntimeError):
    """A store directory is absent, incomplete, corrupted or incompatible."""


def _block_name(index: int) -> str:
    """Directory name of block *index* (``block-00000`` style)."""
    return f"block-{index:05d}"


def _is_count(value: object) -> bool:
    """Whether *value* is a non-negative int (``bool`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class BlockCorpusStore:
    """Append-only chain of immutable transaction blocks.

    Create an empty chain with :meth:`create` (or write a whole corpus as
    a one-block chain with :meth:`save`), reopen an existing one with
    :meth:`open`, and grow it one immutable block at a time with
    :meth:`append_block`.  Global row ``r`` is the ``r``-th transaction
    appended to the chain.

    :meth:`resolve_rows` loads one block's pickled transactions at a time
    without caching the whole corpus on the handle.
    """

    def __init__(self, directory, similarity: SimilarityConfig, manifest: Dict[str, object]) -> None:
        self._directory = Path(directory)
        self._similarity = similarity
        self._manifest = manifest
        # the full corpus, once transactions() has materialised it
        self._transactions: Optional[List[Transaction]] = None

    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        """The chain directory this handle points at."""
        return self._directory

    @property
    def manifest(self) -> Dict[str, object]:
        """The parsed chain manifest (version, similarity, block list)."""
        return self._manifest

    @property
    def similarity(self) -> SimilarityConfig:
        """The similarity configuration recorded when the chain was created."""
        return self._similarity

    @property
    def blocks(self) -> List[Dict[str, object]]:
        """The chain manifest's block records, in chain order."""
        return list(self._manifest["blocks"])

    @property
    def transaction_count(self) -> int:
        """Total transactions across every block of the chain."""
        return sum(int(block["transactions"]) for block in self.blocks)

    # ------------------------------------------------------------------ #
    # Save / create / open
    # ------------------------------------------------------------------ #
    @classmethod
    def save(
        cls,
        directory,
        transactions: Sequence[Transaction],
        similarity: SimilarityConfig,
    ) -> "BlockCorpusStore":
        """Write *transactions* as a one-block chain at *directory*."""
        store = cls.create(directory, similarity)
        store.append_block(transactions)
        return store

    @classmethod
    def create(cls, directory, similarity: SimilarityConfig) -> "BlockCorpusStore":
        """Initialise an empty chain at *directory* (manifest written last)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: Dict[str, object] = {
            "format_version": STORE_FORMAT_VERSION,
            "similarity": {"f": similarity.f, "gamma": similarity.gamma},
            "blocks": [],
        }
        store = cls(directory, similarity, manifest)
        store._write_chain_manifest()
        return store

    @classmethod
    def open(cls, directory) -> "BlockCorpusStore":
        """Validate the chain at *directory* and return a handle.

        Only blocks listed in ``chain.json`` are part of the chain: a
        torn append (block directory present but unlisted, or listed
        files half-written) either never becomes visible or raises
        :class:`CorpusStoreError` here, as do a chain manifest of a
        different :data:`STORE_FORMAT_VERSION` and a block record without
        a name or a transaction count.
        """
        directory = Path(directory)
        manifest_path = directory / CHAIN_MANIFEST_NAME
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as error:
            raise CorpusStoreError(
                f"cannot read block-chain manifest {manifest_path}: {error}"
            ) from error
        if not isinstance(manifest, dict) or not isinstance(
            manifest.get("blocks"), list
        ):
            raise CorpusStoreError(
                f"block-chain manifest {manifest_path} is not a chain object"
            )
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise CorpusStoreError(
                f"block chain {directory} has format version {version!r}, "
                f"expected {STORE_FORMAT_VERSION}"
            )
        similarity_doc = manifest.get("similarity")
        if not isinstance(similarity_doc, dict):
            raise CorpusStoreError(f"block chain {directory} has no similarity config")
        try:
            similarity = SimilarityConfig(
                f=float(similarity_doc["f"]), gamma=float(similarity_doc["gamma"])
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CorpusStoreError(
                f"block-chain manifest {manifest_path} has a bad similarity "
                f"config {similarity_doc!r}: {error!r}"
            ) from error
        for block in manifest["blocks"]:
            if not isinstance(block, dict) or not isinstance(block.get("name"), str):
                raise CorpusStoreError(
                    f"block-chain manifest {manifest_path} lists a block "
                    f"record without a name: {block!r}"
                )
            if not _is_count(block.get("transactions")):
                raise CorpusStoreError(
                    f"block-chain manifest {manifest_path} lists a block "
                    f"record without a transaction count: {block!r}"
                )
            block_dir = directory / block["name"]
            missing = [
                name
                for name in (BLOCK_MANIFEST_NAME, BLOCK_TRANSACTIONS_NAME)
                if not (block_dir / name).exists()
            ]
            if missing:
                raise CorpusStoreError(
                    f"block chain {directory} lists {block['name']} but "
                    f"{', '.join(missing)} is missing"
                )
        return cls(directory, similarity, manifest)

    def _write_chain_manifest(self) -> None:
        """Rewrite ``chain.json`` atomically (temp file + rename, last step)."""
        path = self._directory / CHAIN_MANIFEST_NAME
        temporary = self._directory / (CHAIN_MANIFEST_NAME + ".tmp")
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(self._manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temporary, path)

    # ------------------------------------------------------------------ #
    # Append
    # ------------------------------------------------------------------ #
    def repair(self) -> List[str]:
        """Remove torn block directories (present on disk, not in the chain).

        A crash during :meth:`append_block` can leave a half-written block
        (its ``block.json`` missing) or a complete block the chain
        manifest never adopted.  Both are invisible to :meth:`open`;
        this removes them so the next append rewrites the slot cleanly.
        Returns the removed directory names.
        """
        listed = {str(block["name"]) for block in self.blocks}
        removed: List[str] = []
        for entry in sorted(self._directory.glob("block-*")):
            if entry.is_dir() and entry.name not in listed:
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(entry.name)
        return removed

    def append_block(self, transactions: Sequence[Transaction]) -> Dict[str, object]:
        """Write *transactions* as the next immutable block.

        The block directory is written first (its ``block.json`` last
        within it), then the chain manifest adopts it; torn leftovers from
        a previous crash are repaired before writing.  Returns the new
        block's manifest record.
        """
        transactions = list(transactions)
        self.repair()
        name = _block_name(len(self.blocks))
        block_dir = self._directory / name
        block_dir.mkdir(parents=True, exist_ok=True)
        with open(block_dir / BLOCK_TRANSACTIONS_NAME, "wb") as handle:
            pickle.dump(transactions, handle, protocol=pickle.HIGHEST_PROTOCOL)
        record: Dict[str, object] = {"name": name, "transactions": len(transactions)}
        # last write inside the block: its presence marks the block complete
        with open(block_dir / BLOCK_MANIFEST_NAME, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")

        self._manifest["blocks"].append(record)
        # adopting the block into the chain is the final, atomic step
        self._write_chain_manifest()
        if self._transactions is not None:
            self._transactions = self._transactions + transactions
        return record

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def _load_block_transactions(self, index: int) -> List[Transaction]:
        """One block's pickled transactions, loaded fresh (never cached).

        A block that does not unpickle into a list of exactly the count
        its record states raises :class:`CorpusStoreError`.
        """
        record = self.blocks[index]
        path = self._directory / str(record["name"]) / BLOCK_TRANSACTIONS_NAME
        try:
            with open(path, "rb") as handle:
                transactions = pickle.load(handle)
        except Exception as error:
            # damaged bytes make pickle.load raise an open-ended set of
            # exceptions (UnpicklingError, EOFError, UnicodeDecodeError,
            # ImportError, ...), all of which mean the same damaged block
            raise CorpusStoreError(
                f"cannot read block transactions {path}: {error!r}"
            ) from error
        expected = record["transactions"]
        if not isinstance(transactions, list) or len(transactions) != expected:
            raise CorpusStoreError(
                f"block transactions {path} are not the list of {expected} "
                "transactions its record states"
            )
        return transactions

    def resolve_rows(self, rows: Sequence[int]) -> List[Transaction]:
        """Resolve global row ids to transactions, loading blocks at most once.

        Rows are grouped by owning block; only the touched blocks are
        unpickled (transiently -- nothing is cached on the handle), so the
        memory high-water mark is one block plus the result, not the
        corpus.
        """
        starts: List[int] = []
        position = 0
        for block in self.blocks:
            starts.append(position)
            position += int(block["transactions"])
        if any(row < 0 or row >= position for row in rows):
            raise CorpusStoreError(
                f"row out of range for chain {self._directory} "
                f"({position} transactions)"
            )
        if self._transactions is not None:
            corpus = self._transactions
            return [corpus[row] for row in rows]
        by_block: Dict[int, List[int]] = {}
        for order, row in enumerate(rows):
            index = bisect.bisect_right(starts, row) - 1
            by_block.setdefault(index, []).append(order)
        resolved: List[Optional[Transaction]] = [None] * len(rows)
        for index, orders in by_block.items():
            block = self._load_block_transactions(index)
            for order in orders:
                resolved[order] = block[rows[order] - starts[index]]
        return resolved

    def transactions(self) -> List[Transaction]:
        """The full chained corpus, concatenated from the blocks and cached.

        This materialises every block (store-backed refinement shards
        need arbitrary row access); out-of-core callers should prefer
        :meth:`resolve_rows`.
        """
        if self._transactions is None:
            corpus: List[Transaction] = []
            for index in range(len(self.blocks)):
                corpus.extend(self._load_block_transactions(index))
            self._transactions = corpus
        return self._transactions


#: The one store class under its historical name
#: (:meth:`CorpusStore.save` writes a one-block chain).
CorpusStore = BlockCorpusStore


# --------------------------------------------------------------------------- #
# Process-wide store cache
# --------------------------------------------------------------------------- #
#: Stores opened by this process, keyed by directory.  Store-backed
#: refinement shards resolve their member rows through this cache, so a
#: corpus is unpickled at most once per process however many shards
#: reference it.
_STORE_CACHE: Dict[str, BlockCorpusStore] = {}


def cached_store(directory) -> BlockCorpusStore:
    """This process' handle for the store at *directory*, opened once."""
    key = str(directory)
    store = _STORE_CACHE.get(key)
    if store is None:
        store = BlockCorpusStore.open(directory)
        _STORE_CACHE[key] = store
    return store


def clear_store_cache() -> None:
    """Drop every cached store handle (used by tests)."""
    _STORE_CACHE.clear()


# --------------------------------------------------------------------------- #
# Engine preparation (the single entry point runner / CLI / bench use)
# --------------------------------------------------------------------------- #
def prepare_engine_corpus(
    engine, transactions: Sequence[Transaction], cache_dir=None
) -> Dict[str, object]:
    """Prepare *engine* for *transactions* up front (Sec. 4.3.2).

    Precomputes the structural similarity of every pair of the corpus'
    distinct maximal tag paths -- the strategy the paper's complexity
    analysis prescribes instead of lazy filling -- and compiles the
    corpus into the similarity backend (a no-op on the ``python``
    reference).  Returns ``{"compiled": n}``, the number of transactions
    newly compiled.  *cache_dir* is ignored; it is accepted only because
    the benchmark's jobs still pass it.
    """
    engine.cache.precompute(
        {item.tag_path for transaction in transactions for item in transaction.items}
    )
    return {"compiled": engine.backend.compile_corpus(transactions)}
