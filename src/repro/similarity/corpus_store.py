"""Persistent, mmap-backed compiled-corpus store.

Compiling a corpus into the :class:`~repro.similarity.backend.NumpyBackend`
feature blocks (tag-path matrix, per-item id arrays, content-class
registries) is the dominant fixed cost of a clustering run.  The store
exports one compilation to an on-disk layout, so a later run over the same
corpus (``--corpus-cache``) attaches it with ``np.load(mmap_mode="r")``
instead of recompiling.  :func:`prepare_engine_corpus` is the one place a
store is attached, and only to the engine of the process that prepared
it: peer worker processes compile their own share and loaded models warm
their tag-path cache from the model directory.

Every store is an append-only chain of numbered immutable blocks
(:class:`BlockCorpusStore`, also bound as :data:`CorpusStore`).  A
``--corpus-cache`` store is a one-block chain written by
:meth:`BlockCorpusStore.save`; the streaming ingestion path
(:mod:`repro.core.streaming`) grows a chain one block per chunk and reads
back only the rows a re-refinement samples (:meth:`resolve_rows`)::

    <directory>/
        chain.json             # chain manifest, rewritten LAST per append
        block-00000/
            block.json         # per-block manifest, written LAST in block
            tp_rows.npy        # new matrix rows: (new_paths, total_paths)
            item_tag_path_ids.npy / item_content_ids.npy / item_uids.npy
            tx_spans.npy       # block-local item offsets
            tag_paths.json     # only the tag paths first seen in this block
            transactions.pkl   # only this block's transactions

Cache stores live in one directory per corpus fingerprint under the cache
root (:func:`store_directory`).  Staleness is handled entirely through the
fingerprint: the content hash covers the transactions (ids, paths,
answers, terms, TCU vectors), the similarity configuration and
:data:`STORE_FORMAT_VERSION`, so changed data, a changed ``(f, gamma)`` or
a bumped store format each land in a different directory and force a
recompile.

Registries continue *across* blocks (global first-occurrence ids), so
:meth:`BlockCorpusStore.append_block` compiles exactly the delta and an
attach reconstructs the full compiled corpus without recompiling any
block.  The arrays reproduce a fresh :meth:`NumpyBackend.compile_corpus`
of the same corpus *exactly* (identifiers are assigned in the same
first-occurrence order, matrix entries come from the same pure
``TagPathSimilarityCache.similarity`` floats), which is what makes the
attach path bit-exact with the fresh-compile path.  The chain fingerprint
is a rolling hash over the per-block content hashes.  Crash safety is
two-staged: a block directory without its ``block.json`` (torn write) or a
complete block not yet listed in ``chain.json`` is invisible to
:meth:`BlockCorpusStore.open` / attach and is repaired (removed, then
rewritten) by the next append -- so a crash mid-save is a miss on the
next run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.similarity.backend import NumpyBackend, _load_numpy
from repro.similarity.item import SimilarityConfig
from repro.transactions.transaction import Transaction
from repro.xmlmodel.paths import XMLPath

#: Version of the on-disk layout; part of every fingerprint *and* checked
#: in every chain manifest, so bumping it invalidates every existing store.
STORE_FORMAT_VERSION = 2

#: Name of the chain manifest (rewritten last on every append).
CHAIN_MANIFEST_NAME = "chain.json"

#: Name of the per-block manifest (written last within each block).
BLOCK_MANIFEST_NAME = "block.json"

#: The arrays every block carries (the matrix travels as ``tp_rows``
#: strips: the block's new tag paths against every path seen so far).
BLOCK_ARRAY_NAMES = (
    "tp_rows",
    "item_tag_path_ids",
    "item_content_ids",
    "item_uids",
    "tx_spans",
)


class CorpusStoreError(RuntimeError):
    """A store directory is absent, incomplete, corrupted or incompatible."""


def corpus_fingerprint(
    transactions: Sequence[Transaction], similarity: SimilarityConfig
) -> str:
    """Content hash of (corpus, similarity config, store format version).

    Hashes the *value* of every transaction -- ids, path steps, answers,
    terms and the ordered TCU term/weight pairs (exactly the information
    the compiled arrays are derived from) -- via ``repr``, which is purely
    value-based: floats render as their shortest round-trip form and tuples
    render element-wise, so two equal corpora hash identically regardless
    of object aliasing (unlike ``pickle``, whose memoisation encodes
    sharing structure and lazily cached fields).

    Integer *term identifiers* are the one per-process artifact in a
    transaction: the vocabulary assigns them in hash-randomised set order,
    so the same corpus carries a different (but bijective) term numbering
    in every process -- a numbering the compiled arrays never encode (item
    equality, content classes and cosine values are all invariant under
    it).  The fingerprint therefore relabels term ids by first occurrence
    in corpus order, which is process-independent because vector insertion
    order follows the generation text, not the id values.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-corpus-store/{STORE_FORMAT_VERSION}".encode("utf-8"))
    digest.update(b"\x00")
    digest.update(repr((similarity.f, similarity.gamma)).encode("utf-8"))
    canonical_terms: Dict[int, int] = {}

    def canonical_vector(vector) -> tuple:
        pairs = []
        for term, weight in vector.items():
            canonical = canonical_terms.get(term)
            if canonical is None:
                canonical = len(canonical_terms)
                canonical_terms[term] = canonical
            pairs.append((canonical, weight))
        return tuple(pairs)

    for transaction in transactions:
        digest.update(b"\x00")
        digest.update(
            repr(
                (
                    transaction.transaction_id,
                    transaction.doc_id,
                    transaction.tuple_id,
                    [
                        (
                            item.item_id,
                            item.path.steps,
                            item.answer,
                            item.terms,
                            canonical_vector(item.vector),
                        )
                        for item in transaction.items
                    ],
                )
            ).encode("utf-8")
        )
    return digest.hexdigest()


def store_directory(cache_dir, fingerprint: str) -> Path:
    """The store directory for *fingerprint* under the cache root."""
    return Path(cache_dir) / fingerprint[:16]


# --------------------------------------------------------------------------- #
# Block chains
# --------------------------------------------------------------------------- #
def _block_name(index: int) -> str:
    """Directory name of block *index* (``block-00000`` style)."""
    return f"block-{index:05d}"


def chain_base_fingerprint(similarity: SimilarityConfig) -> str:
    """Seed of the rolling chain hash: layout version + similarity config."""
    digest = hashlib.sha256()
    digest.update(f"repro-block-chain/{STORE_FORMAT_VERSION}".encode("utf-8"))
    digest.update(b"\x00")
    digest.update(repr((similarity.f, similarity.gamma)).encode("utf-8"))
    return digest.hexdigest()


def roll_chain_fingerprint(previous: str, block_fingerprint: str) -> str:
    """One step of the rolling chain hash.

    ``h_i = sha256(h_{i-1} || fp(block_i))`` -- the chain fingerprint
    therefore commits to the whole block sequence (content *and* chunking),
    and appending a block is an O(1) fingerprint update instead of a
    re-hash of the accumulated corpus.
    """
    digest = hashlib.sha256()
    digest.update(previous.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(block_fingerprint.encode("utf-8"))
    return digest.hexdigest()


class BlockCorpusStore:
    """Append-only chain of immutable compiled-corpus blocks.

    Write a whole corpus as a one-block chain with :meth:`save`, create an
    empty chain with :meth:`create`, reopen an existing one with
    :meth:`open`, grow it one immutable block at a time with
    :meth:`append_block`.  ``NumpyBackend.attach_store`` consumes the
    handle through ``arrays`` / ``tag_paths`` without ever recompiling a
    block: an attach re-assembles the full matrix from the per-block row
    strips and concatenates the per-item id arrays (which were compiled
    exactly once, when their block was appended).

    Out-of-core friendliness: :meth:`resolve_rows` loads one block's
    pickled transactions at a time without caching the whole corpus on
    the handle, so a streaming caller can keep only the active tail in
    process memory while older blocks stay on disk.
    """

    def __init__(self, directory, similarity: SimilarityConfig, manifest: Dict[str, object]) -> None:
        self._directory = Path(directory)
        self._similarity = similarity
        self._manifest = manifest
        # cumulative compile registries (continued across appends); after a
        # cold open the tag paths come back from the blocks' JSON files and
        # the uid / content indexes only when an append needs them
        self._tag_paths: Optional[List[XMLPath]] = None
        self._tag_index: Optional[Dict[XMLPath, int]] = None
        self._content_index: Optional[Dict[tuple, int]] = None
        self._uid_index: Optional[Dict[object, int]] = None
        # lazily assembled full-corpus views (invalidated by append_block)
        self._arrays: Optional[Dict[str, object]] = None
        self._transactions: Optional[List[Transaction]] = None

    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        """The chain directory this handle points at."""
        return self._directory

    @property
    def manifest(self) -> Dict[str, object]:
        """The parsed chain manifest (version, fingerprint, block list)."""
        return self._manifest

    @property
    def fingerprint(self) -> str:
        """The rolling chain fingerprint over the current block sequence."""
        return str(self._manifest["fingerprint"])

    @property
    def similarity(self) -> SimilarityConfig:
        """The similarity configuration the chain was compiled under."""
        return self._similarity

    @property
    def blocks(self) -> List[Dict[str, object]]:
        """The chain manifest's block records, in chain order."""
        return list(self._manifest["blocks"])

    @property
    def transaction_count(self) -> int:
        """Total transactions across every block of the chain."""
        return sum(int(block["transactions"]) for block in self.blocks)

    @property
    def item_count(self) -> int:
        """Total items across every block of the chain."""
        return sum(int(block["items"]) for block in self.blocks)

    # ------------------------------------------------------------------ #
    # Save / create / open
    # ------------------------------------------------------------------ #
    @classmethod
    def save(
        cls,
        directory,
        transactions: Sequence[Transaction],
        similarity: SimilarityConfig,
        cache,
        fingerprint: Optional[str] = None,
    ) -> "BlockCorpusStore":
        """Export a canonical compilation of *transactions* as a one-block chain.

        The registries are computed from scratch in corpus order -- the
        same first-occurrence insertion order a fresh backend compiling
        exactly this corpus would produce -- rather than copied from a live
        backend, whose registries may carry extra entries from
        representative compiles.  *fingerprint* is the corpus fingerprint
        when the caller already computed it (the corpus is then hashed
        once, not twice).
        """
        store = cls.create(directory, similarity)
        store.append_block(transactions, cache, fingerprint=fingerprint)
        return store

    @classmethod
    def create(cls, directory, similarity: SimilarityConfig) -> "BlockCorpusStore":
        """Initialise an empty chain at *directory* (manifest written last)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: Dict[str, object] = {
            "format_version": STORE_FORMAT_VERSION,
            "similarity": {"f": similarity.f, "gamma": similarity.gamma},
            "fingerprint": chain_base_fingerprint(similarity),
            "blocks": [],
        }
        store = cls(directory, similarity, manifest)
        store._tag_paths, store._tag_index = [], {}
        store._content_index, store._uid_index = {}, {}
        store._write_chain_manifest()
        return store

    @classmethod
    def open(cls, directory) -> "BlockCorpusStore":
        """Validate the chain at *directory* and return a handle.

        Only blocks listed in ``chain.json`` are part of the chain: a
        torn append (block directory present but unlisted, or listed
        files half-written) either never becomes visible or raises
        :class:`CorpusStoreError` here, as does a chain manifest of a
        different :data:`STORE_FORMAT_VERSION`.
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
            block_dir = directory / block["name"]
            if not (block_dir / BLOCK_MANIFEST_NAME).exists():
                raise CorpusStoreError(
                    f"block chain {directory} lists {block['name']} but its "
                    f"{BLOCK_MANIFEST_NAME} is missing"
                )
            missing = [
                name
                for name in [f"{name}.npy" for name in BLOCK_ARRAY_NAMES]
                + ["tag_paths.json", "transactions.pkl"]
                if not (block_dir / name).exists()
            ]
            if missing:
                raise CorpusStoreError(
                    f"block {block_dir} is missing {', '.join(missing)}"
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
        manifest never adopted.  Both are invisible to :meth:`open` /
        attach; this removes them so the next append rewrites the slot
        cleanly.  Returns the removed directory names.
        """
        listed = {str(block["name"]) for block in self.blocks}
        removed: List[str] = []
        for entry in sorted(self._directory.glob("block-*")):
            if entry.is_dir() and entry.name not in listed:
                shutil.rmtree(entry, ignore_errors=True)
                removed.append(entry.name)
        return removed

    def _ensure_tag_paths(self) -> None:
        """Read the tag-path registry from the blocks' ``tag_paths.json``."""
        if self._tag_paths is not None:
            return
        tag_paths: List[XMLPath] = []
        for index in range(len(self.blocks)):
            tag_paths.extend(self._block_tag_paths(index))
        self._tag_paths = tag_paths
        self._tag_index = {path: i for i, path in enumerate(tag_paths)}

    def _index_items(self, transactions: Sequence[Transaction]) -> None:
        """Extend the uid / content registries by first occurrence."""
        content_index = self._content_index
        uid_index = self._uid_index
        content_key = NumpyBackend._content_key
        for transaction in transactions:
            for item in transaction.items:
                key = content_key(item)
                if key not in content_index:
                    content_index[key] = len(content_index)
                if item not in uid_index:
                    uid_index[item] = len(uid_index)

    def _ensure_registries(self) -> None:
        """Rebuild the cumulative compile registries after a cold open.

        Walks the stored blocks once, in chain order: tag paths come from
        the per-block registries (no similarity recompute), uid / content
        ids are re-derived from the pickled transactions with the same
        first-occurrence rule that assigned them -- so the registries a
        warm handle would have carried are reproduced exactly, and the
        next append continues the global numbering seamlessly.
        """
        self._ensure_tag_paths()
        if self._uid_index is not None:
            return
        self._content_index, self._uid_index = {}, {}
        for index in range(len(self.blocks)):
            self._index_items(self._load_block_transactions(index))

    def append_block(
        self,
        transactions: Sequence[Transaction],
        cache,
        fingerprint: Optional[str] = None,
    ) -> Dict[str, object]:
        """Compile *transactions* into the next immutable block.

        Only the delta is compiled: new tag paths / content classes / item
        uids extend the cumulative registries in first-occurrence order
        (the numbering one compile of the concatenated corpus would
        assign), and the structural matrix grows by the new paths' row
        strip -- ``cache.similarity`` is evaluated for new-path pairs
        only, never for earlier blocks.  *fingerprint* is the block's
        :func:`corpus_fingerprint` when the caller already has it.  The
        block directory is written first (its ``block.json`` last within
        it), then the chain manifest adopts it; torn leftovers from a
        previous crash are repaired before writing.  Returns the new
        block's manifest record.
        """
        np = _load_numpy()
        transactions = list(transactions)
        self._ensure_registries()
        self.repair()

        tag_paths = self._tag_paths
        tag_index = self._tag_index
        content_index = self._content_index
        uid_index = self._uid_index
        content_key = NumpyBackend._content_key
        new_paths: List[XMLPath] = []
        tp_ids: List[int] = []
        content_ids: List[int] = []
        uids: List[int] = []
        spans: List[int] = [0]
        for transaction in transactions:
            for item in transaction.items:
                tag_path = item.tag_path
                tag_id = tag_index.get(tag_path)
                if tag_id is None:
                    tag_id = len(tag_paths)
                    tag_index[tag_path] = tag_id
                    tag_paths.append(tag_path)
                    new_paths.append(tag_path)
                key = content_key(item)
                content_id = content_index.get(key)
                if content_id is None:
                    content_id = len(content_index)
                    content_index[key] = content_id
                uid = uid_index.get(item)
                if uid is None:
                    uid = len(uid_index)
                    uid_index[item] = uid
                tp_ids.append(tag_id)
                content_ids.append(content_id)
                uids.append(uid)
            spans.append(len(tp_ids))

        total_paths = len(tag_paths)
        strip = np.empty((len(new_paths), total_paths), dtype=np.float64)
        similarity_of = cache.similarity
        for i, path_i in enumerate(new_paths):
            for j in range(total_paths):
                strip[i, j] = similarity_of(path_i, tag_paths[j])

        index = len(self.blocks)
        block_dir = self._directory / _block_name(index)
        block_dir.mkdir(parents=True, exist_ok=True)
        arrays = {
            "tp_rows": strip,
            "item_tag_path_ids": np.asarray(tp_ids, dtype=np.int64),
            "item_content_ids": np.asarray(content_ids, dtype=np.int64),
            "item_uids": np.asarray(uids, dtype=np.int64),
            "tx_spans": np.asarray(spans, dtype=np.int64),
        }
        for name, array in arrays.items():
            np.save(block_dir / f"{name}.npy", array)
        with open(block_dir / "tag_paths.json", "w", encoding="utf-8") as handle:
            json.dump([list(path.steps) for path in new_paths], handle)
        with open(block_dir / "transactions.pkl", "wb") as handle:
            pickle.dump(transactions, handle, protocol=pickle.HIGHEST_PROTOCOL)
        if fingerprint is None:
            fingerprint = corpus_fingerprint(transactions, self._similarity)
        record: Dict[str, object] = {
            "name": _block_name(index),
            "fingerprint": fingerprint,
            "transactions": len(transactions),
            "items": len(tp_ids),
            "new_tag_paths": len(new_paths),
            "tag_paths_total": total_paths,
        }
        # last write inside the block: its presence marks the block complete
        with open(block_dir / BLOCK_MANIFEST_NAME, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")

        self._manifest["blocks"].append(record)
        self._manifest["fingerprint"] = roll_chain_fingerprint(
            self.fingerprint if index else chain_base_fingerprint(self._similarity),
            fingerprint,
        )
        # adopting the block into the chain is the final, atomic step
        self._write_chain_manifest()
        # invalidate the assembled full-corpus views
        self._arrays = None
        if self._transactions is not None:
            self._transactions = self._transactions + transactions
        return record

    # ------------------------------------------------------------------ #
    # Per-block resources
    # ------------------------------------------------------------------ #
    def _block_dir(self, index: int) -> Path:
        return self._directory / str(self.blocks[index]["name"])

    def _block_tag_paths(self, index: int) -> List[XMLPath]:
        path = self._block_dir(index) / "tag_paths.json"
        try:
            with open(path, "r", encoding="utf-8") as handle:
                steps_lists = json.load(handle)
        except (OSError, ValueError) as error:
            raise CorpusStoreError(
                f"cannot read block tag paths {path}: {error}"
            ) from error
        return [XMLPath(tuple(steps)) for steps in steps_lists]

    def _load_block_transactions(self, index: int) -> List[Transaction]:
        """One block's pickled transactions, loaded fresh (never cached)."""
        path = self._block_dir(index) / "transactions.pkl"
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError) as error:
            raise CorpusStoreError(
                f"cannot read block transactions {path}: {error}"
            ) from error

    def _block_arrays(self, index: int) -> Dict[str, object]:
        np = _load_numpy()
        block_dir = self._block_dir(index)
        loaded: Dict[str, object] = {}
        for name in BLOCK_ARRAY_NAMES:
            path = block_dir / f"{name}.npy"
            try:
                loaded[name] = np.load(path, mmap_mode="r")
            except (OSError, ValueError) as error:
                raise CorpusStoreError(
                    f"cannot attach block array {path}: {error}"
                ) from error
        return loaded

    def resolve_rows(self, rows: Sequence[int]) -> List[Transaction]:
        """Resolve global row ids to transactions, loading blocks at most once.

        Rows are grouped by owning block; only the touched blocks are
        unpickled (transiently -- nothing is cached on the handle), so the
        memory high-water mark is one block plus the result, not the
        corpus.
        """
        if self._transactions is not None:
            corpus = self._transactions
            return [corpus[row] for row in rows]
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
        import bisect

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

    # ------------------------------------------------------------------ #
    # Full-corpus views
    # ------------------------------------------------------------------ #
    def arrays(self) -> Dict[str, object]:
        """The full-corpus arrays, memmap-backed and cached.

        ``tp_matrix`` (P, P), the per-item ``item_*`` id arrays (I,) and
        ``tx_spans`` (T + 1,) -- the keys ``NumpyBackend.attach_store``
        consumes.  A one-block chain *is* the full corpus, so its memmaps
        are returned as they are.  A longer chain rebuilds the
        structural matrix from the per-block row strips (pure copies of
        stored floats -- no ``cache.similarity`` calls, so no block is
        recompiled), concatenates the per-item id arrays and shifts the
        per-block span tables by their item offsets.
        """
        if self._arrays is None and len(self.blocks) == 1:
            # block 0's strip holds its paths against themselves -- the whole
            # (symmetric) matrix -- and its spans start at zero
            arrays = self._block_arrays(0)
            arrays["tp_matrix"] = arrays.pop("tp_rows")
            self._arrays = arrays
        if self._arrays is None:
            np = _load_numpy()
            blocks = self.blocks
            total_paths = (
                int(blocks[-1]["tag_paths_total"]) if blocks else 0
            )
            matrix = np.zeros((total_paths, total_paths), dtype=np.float64)
            item_arrays: Dict[str, List[object]] = {
                "item_tag_path_ids": [],
                "item_content_ids": [],
                "item_uids": [],
            }
            spans: List[object] = [np.zeros(1, dtype=np.int64)]
            item_offset = 0
            path_offset = 0
            for index in range(len(blocks)):
                arrays = self._block_arrays(index)
                strip = arrays["tp_rows"]
                new_paths, covered = strip.shape
                if new_paths:
                    matrix[path_offset : path_offset + new_paths, :covered] = strip
                    matrix[:covered, path_offset : path_offset + new_paths] = strip.T
                path_offset += new_paths
                for name in item_arrays:
                    item_arrays[name].append(arrays[name])
                spans.append(arrays["tx_spans"][1:] + item_offset)
                item_offset += int(blocks[index]["items"])
            assembled: Dict[str, object] = {"tp_matrix": matrix}
            for name, parts in item_arrays.items():
                assembled[name] = (
                    np.concatenate(parts)
                    if parts
                    else np.zeros(0, dtype=np.int64)
                )
            assembled["tx_spans"] = np.concatenate(spans)
            self._arrays = assembled
        return self._arrays

    def tag_paths(self) -> List[XMLPath]:
        """The cumulative tag-path registry, in global first-occurrence order.

        Read from the blocks' ``tag_paths.json`` files, so an attach never
        unpickles a block to list tag paths.
        """
        self._ensure_tag_paths()
        return list(self._tag_paths)

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


#: The one store class under the name the cache path has always used
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
def _precompute_and_compile(engine, transactions: Sequence[Transaction]) -> int:
    """The historical warm-up: precompute the tag-path cache, compile."""
    engine.cache.precompute(
        {item.tag_path for transaction in transactions for item in transaction.items}
    )
    return engine.backend.compile_corpus(transactions)


def prepare_engine_corpus(
    engine,
    transactions: Sequence[Transaction],
    cache_dir=None,
    fingerprint: Optional[str] = None,
) -> Dict[str, object]:
    """Prepare *engine* for *transactions*, through the store when enabled.

    This is the one place a compiled-corpus store is attached, and only to
    *engine*, the engine of the calling process.

    * ``cache_dir is None`` (the default-off configuration) or a backend
      without compiled corpora (the ``python`` reference): the historical
      precompute-and-compile path runs, status ``"off"`` /
      ``"unsupported"``.
    * Store **hit** (a valid one-block chain of exactly this corpus): the
      arrays are memmap-attached and *no* compile work happens -- the
      O(paths^2) cache precompute and the per-item compilation are both
      skipped, status ``"hit"`` with ``compiled == 0``.
    * Store **miss** (absent, stale-format, corrupted or crash-truncated
      directory): the corpus is compiled the historical way and exported
      with :meth:`CorpusStore.save` for the next run (best effort -- an
      unwritable cache directory degrades to status ``"error"`` without
      failing the run); this run keeps its freshly compiled engine.

    The corpus is hashed once: *fingerprint* (computed here when not
    given) both names the directory and becomes the block fingerprint.
    Returns a status dictionary (``store``, ``compiled``, and on the store
    paths ``fingerprint`` / ``directory``).
    """
    transactions = list(transactions)
    backend = engine.backend
    if cache_dir is None:
        compiled = _precompute_and_compile(engine, transactions)
        return {"store": "off", "compiled": compiled}
    if getattr(backend, "attach_store", None) is None:
        compiled = _precompute_and_compile(engine, transactions)
        return {"store": "unsupported", "compiled": compiled}
    if fingerprint is None:
        fingerprint = corpus_fingerprint(transactions, engine.config)
    directory = store_directory(cache_dir, fingerprint)
    try:
        store = BlockCorpusStore.open(directory)
    except CorpusStoreError:
        store = None
    one_block = roll_chain_fingerprint(
        chain_base_fingerprint(engine.config), fingerprint
    )
    if store is not None and store.fingerprint == one_block:
        backend.attach_store(store, transactions)
        return {
            "store": "hit",
            "compiled": 0,
            "fingerprint": fingerprint,
            "directory": str(directory),
        }
    compiled = _precompute_and_compile(engine, transactions)
    try:
        CorpusStore.save(
            directory,
            transactions,
            engine.config,
            engine.cache,
            fingerprint=fingerprint,
        )
    except (OSError, pickle.PickleError, TypeError, ValueError) as error:
        # pickle/json encoding failures degrade exactly like an unwritable
        # directory: the run keeps its compiled in-memory engine; the
        # fingerprint and target directory make the failure debuggable
        # from the run record alone
        return {
            "store": "error",
            "compiled": compiled,
            "error": str(error),
            "fingerprint": fingerprint,
            "directory": str(directory),
        }
    return {
        "store": "miss",
        "compiled": compiled,
        "fingerprint": fingerprint,
        "directory": str(directory),
    }
