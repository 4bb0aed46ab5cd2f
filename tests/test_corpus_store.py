"""Tests for the stream's block log and for engine preparation.

The block chain (``repro/similarity/corpus_store.py``) is an append-only
log of the transactions a stream reads back by global row.  These tests
pin its contract:

* appended transactions resolve back by row, in order, across blocks and
  after a reopen;
* a damaged or incompatible chain -- malformed manifest records, a
  damaged block file, a chain written in an earlier format -- fails with
  ``CorpusStoreError``, never an uncaught exception or a wrong row;
* a crash mid-append leaves a torn block that ``open`` ignores and the
  next append repairs;
* ``prepare_engine_corpus`` precomputes and compiles, and writes nothing
  to the ``cache_dir`` it still accepts.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.core.config import ClusteringConfig
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.similarity import corpus_store
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.corpus_store import (
    BLOCK_MANIFEST_NAME,
    BlockCorpusStore,
    CorpusStoreError,
    clear_store_cache,
    prepare_engine_corpus,
)
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine


@pytest.fixture(autouse=True)
def isolated_caches():
    """Every test starts and ends with an empty store cache."""
    clear_store_cache()
    yield
    clear_store_cache()


@pytest.fixture(scope="module")
def dblp_small():
    return get_dataset("DBLP", scale=0.2, seed=0)


SIMILARITY = SimilarityConfig(f=0.5, gamma=0.8)


def make_engine(backend: str = "numpy") -> SimilarityEngine:
    return SimilarityEngine(
        SIMILARITY, cache=TagPathSimilarityCache(), backend=backend
    )


def chunk3(transactions):
    """Split a corpus into three streaming chunks."""
    third = len(transactions) // 3
    return [
        transactions[:third],
        transactions[third : 2 * third],
        transactions[2 * third :],
    ]


def build_chain(directory, chunks):
    """Create a chain at *directory* and append *chunks* in order."""
    chain = BlockCorpusStore.create(directory, SIMILARITY)
    for chunk in chunks:
        chain.append_block(chunk)
    return chain


# --------------------------------------------------------------------------- #
# Engine preparation
# --------------------------------------------------------------------------- #
class TestPrepareEngineCorpus:
    def test_prepare_compiles_and_leaves_the_cache_dir_empty(
        self, dblp_small, tmp_path
    ):
        """The ``cache_dir`` callers still pass is ignored: preparing
        precomputes and compiles, and writes nothing there."""
        transactions = dblp_small.transactions
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        engine = make_engine()
        status = prepare_engine_corpus(engine, transactions, cache_dir=cache_dir)
        assert status == {"compiled": len(transactions)}
        assert engine.backend.corpus_compile_count == len(transactions)
        assert engine.cache.stats()["precomputed"] > 0
        assert list(cache_dir.iterdir()) == []
        reference = prepare_engine_corpus(
            make_engine("python"), transactions, cache_dir=cache_dir
        )
        assert reference == {"compiled": 0}
        assert list(cache_dir.iterdir()) == []


# --------------------------------------------------------------------------- #
# Damaged and incompatible chains
# --------------------------------------------------------------------------- #
def write_format_2_chain(directory, transactions):
    """Hand-write a one-block chain in the retired format 2.

    That layout kept the compiled arrays, the block's tag paths and a
    rolling fingerprint next to the pickled transactions.
    """
    import numpy as np

    block = Path(directory) / "block-00000"
    block.mkdir(parents=True)
    for name in (
        "tp_rows",
        "item_tag_path_ids",
        "item_content_ids",
        "item_uids",
        "tx_spans",
    ):
        np.save(block / f"{name}.npy", np.zeros(1, dtype=np.int64))
    (block / "tag_paths.json").write_text("[]", encoding="utf-8")
    (block / "transactions.pkl").write_bytes(pickle.dumps(list(transactions)))
    record = {
        "fingerprint": "ab" * 32,
        "items": 0,
        "name": "block-00000",
        "new_tag_paths": 0,
        "tag_paths_total": 0,
        "transactions": len(transactions),
    }
    (block / BLOCK_MANIFEST_NAME).write_text(json.dumps(record), encoding="utf-8")
    (Path(directory) / "chain.json").write_text(
        json.dumps(
            {
                "blocks": [record],
                "fingerprint": "cd" * 32,
                "format_version": 2,
                "similarity": {"f": SIMILARITY.f, "gamma": SIMILARITY.gamma},
            }
        ),
        encoding="utf-8",
    )


def flip_a_byte(path: Path) -> None:
    """Flip the first byte of the first document id pickled in *path*,
    which leaves a string that is no longer valid UTF-8."""
    data = bytearray(path.read_bytes())
    data[data.index(b"dblp-")] ^= 0xFF
    path.write_bytes(bytes(data))


class TestInvalidation:
    def test_format_2_chain_is_rejected_naming_both_versions(
        self, dblp_small, tmp_path
    ):
        write_format_2_chain(tmp_path / "old", dblp_small.transactions)
        with pytest.raises(CorpusStoreError, match="version 2, expected 3"):
            BlockCorpusStore.open(tmp_path / "old")

    @staticmethod
    def chain_corruptions():
        """Damage to a 2-block chain: unreadable JSON, well-formed JSON
        whose similarity config or block record is malformed, and a
        damaged block file."""

        def edited(edit):
            def corrupt(directory):
                path = directory / "chain.json"
                chain = json.loads(path.read_text(encoding="utf-8"))
                edit(chain)
                path.write_text(json.dumps(chain), encoding="utf-8")

            return corrupt

        def recount(delta):
            return edited(
                lambda chain: chain["blocks"][0].update(
                    transactions=chain["blocks"][0]["transactions"] + delta
                )
            )

        return {
            "truncated": lambda directory: (directory / "chain.json").write_text(
                "{ truncated", encoding="utf-8"
            ),
            "similarity lacks f": edited(lambda chain: chain["similarity"].pop("f")),
            "f is not a number": edited(
                lambda chain: chain["similarity"].update(f="x")
            ),
            "block lacks a name": edited(lambda chain: chain["blocks"][0].pop("name")),
            "block lacks a count": edited(
                lambda chain: chain["blocks"][0].pop("transactions")
            ),
            "count is not an int": edited(
                lambda chain: chain["blocks"][0].update(transactions="x")
            ),
            "count is a bool": edited(
                lambda chain: chain["blocks"][0].update(transactions=True)
            ),
            "count is negative": edited(
                lambda chain: chain["blocks"][0].update(transactions=-1)
            ),
            "count overstated": recount(+5),
            "count understated": recount(-5),
            "flipped pickle byte": lambda directory: flip_a_byte(
                directory / "block-00000" / "transactions.pkl"
            ),
        }

    def test_corrupted_chain_raises_a_typed_error(self, dblp_small, tmp_path):
        """Opening or reading a damaged chain raises ``CorpusStoreError``;
        no count mismatch silently resolves a row to another block's."""
        chunks = [dblp_small.transactions[:20], dblp_small.transactions[20:40]]
        for case, corrupt in self.chain_corruptions().items():
            directory = tmp_path / case.replace(" ", "-")
            build_chain(directory, chunks)
            corrupt(directory)
            with pytest.raises(CorpusStoreError):
                chain = BlockCorpusStore.open(directory)
                chain.resolve_rows(range(chain.transaction_count))
                pytest.fail(f"{case}: the damaged chain resolved every row")

    def test_missing_manifest_marks_a_crash_truncated_save(
        self, dblp_small, tmp_path
    ):
        # the block manifest is written last: a block without one (a crash
        # mid-save) must be rejected, not half-read
        build_chain(tmp_path / "chain", [dblp_small.transactions])
        (tmp_path / "chain" / "block-00000" / BLOCK_MANIFEST_NAME).unlink()
        with pytest.raises(CorpusStoreError, match="missing"):
            BlockCorpusStore.open(tmp_path / "chain")

    def test_missing_transactions_file_is_rejected(self, dblp_small, tmp_path):
        build_chain(tmp_path / "chain", [dblp_small.transactions])
        (tmp_path / "chain" / "block-00000" / "transactions.pkl").unlink()
        with pytest.raises(CorpusStoreError, match="transactions.pkl is missing"):
            BlockCorpusStore.open(tmp_path / "chain")


# --------------------------------------------------------------------------- #
# Block chains (streaming out-of-core ingestion)
# --------------------------------------------------------------------------- #
class TestBlockChain:
    def test_chain_resolves_the_appended_transactions_in_order(
        self, dblp_small, tmp_path
    ):
        """Rows are the appended transactions in order, across blocks, on
        the writing handle and after a reopen."""
        transactions = dblp_small.transactions
        chain = build_chain(tmp_path / "chain", chunk3(transactions))
        rows = range(len(transactions))
        assert chain.transaction_count == len(transactions)
        assert chain.resolve_rows(rows) == transactions
        reopened = BlockCorpusStore.open(tmp_path / "chain")
        assert reopened.resolve_rows(rows) == transactions
        assert reopened.resolve_rows([len(transactions) - 1, 0]) == [
            transactions[-1],
            transactions[0],
        ]
        assert reopened.transactions() == transactions
        with pytest.raises(CorpusStoreError, match="out of range"):
            reopened.resolve_rows([len(transactions)])
        assert sorted(
            entry.name for entry in (tmp_path / "chain" / "block-00000").iterdir()
        ) == [BLOCK_MANIFEST_NAME, "transactions.pkl"]

    def test_append_extends_without_touching_earlier_blocks(
        self, dblp_small, tmp_path
    ):
        """Appending rewrites nothing but the chain manifest."""
        chunks = chunk3(dblp_small.transactions)
        chain = build_chain(tmp_path / "chain", chunks[:2])
        first_block = (tmp_path / "chain" / "block-00000" / BLOCK_MANIFEST_NAME)
        before = first_block.stat().st_mtime_ns, first_block.read_bytes()
        chain.append_block(chunks[2])
        assert (first_block.stat().st_mtime_ns, first_block.read_bytes()) == before
        assert [record["name"] for record in chain.blocks] == [
            "block-00000",
            "block-00001",
            "block-00002",
        ]


class TestBlockChainCrashSafety:
    def torn_block(self, chain_dir):
        """Simulate a crash mid-append: block dir exists, chain untouched."""
        torn = chain_dir / "block-00002"
        torn.mkdir()
        (torn / "transactions.pkl").write_bytes(b"\x80garbage")
        return torn

    def test_partially_written_block_is_invisible(self, dblp_small, tmp_path):
        """A torn block (unlisted dir) does not corrupt open or reads."""
        transactions = dblp_small.transactions
        chunks = chunk3(transactions)
        build_chain(tmp_path / "chain", chunks[:2])
        self.torn_block(tmp_path / "chain")
        reopened = BlockCorpusStore.open(tmp_path / "chain")
        listed = [record["name"] for record in reopened.blocks]
        assert listed == ["block-00000", "block-00001"]
        visible = chunks[0] + chunks[1]
        assert reopened.transaction_count == len(visible)
        assert reopened.resolve_rows(range(len(visible))) == visible

    def test_next_append_repairs_the_torn_block(self, dblp_small, tmp_path):
        """The torn dir is removed and its index reused by the next append."""
        chunks = chunk3(dblp_small.transactions)
        chain = build_chain(tmp_path / "chain", chunks[:2])
        torn = self.torn_block(tmp_path / "chain")
        assert torn.exists()
        chain.append_block(chunks[2])
        assert [record["name"] for record in chain.blocks] == [
            "block-00000",
            "block-00001",
            "block-00002",
        ]
        assert (torn / BLOCK_MANIFEST_NAME).exists()  # rebuilt, now valid
        reopened = BlockCorpusStore.open(tmp_path / "chain")
        assert reopened.resolve_rows(
            range(reopened.transaction_count)
        ) == list(dblp_small.transactions)

    def test_explicit_repair_reports_removed_orphans(self, dblp_small, tmp_path):
        chunks = chunk3(dblp_small.transactions)
        chain = build_chain(tmp_path / "chain", chunks[:2])
        torn = self.torn_block(tmp_path / "chain")
        assert chain.repair() == ["block-00002"]
        assert not torn.exists()
        assert chain.repair() == []

    def test_listed_block_with_missing_manifest_is_rejected(
        self, dblp_small, tmp_path
    ):
        """Losing a *listed* block's manifest is corruption, not a torn tail."""
        chunks = chunk3(dblp_small.transactions)
        build_chain(tmp_path / "chain", chunks[:2])
        (tmp_path / "chain" / "block-00001" / BLOCK_MANIFEST_NAME).unlink()
        with pytest.raises(CorpusStoreError):
            BlockCorpusStore.open(tmp_path / "chain")


# --------------------------------------------------------------------------- #
# Models saved next to a retired compiled-corpus store
# --------------------------------------------------------------------------- #
def write_pre_chain_store(directory, transactions):
    """Hand-write a store in the retired monolithic layout (format 1)."""
    import numpy as np

    directory.mkdir(parents=True)
    np.save(directory / "tp_matrix.npy", np.zeros((1, 1)))
    (directory / "tag_paths.json").write_text("[]")
    (directory / "transactions.pkl").write_bytes(pickle.dumps(list(transactions)))
    (directory / "manifest.json").write_text(
        json.dumps({"format_version": 1, "fingerprint": "ef" * 32})
    )


class TestOneStoreFormat:
    def test_model_pointing_at_a_pre_chain_store_loads_cold(
        self, dblp_small, tmp_path
    ):
        """A model saved before the fold keeps classifying, bit-exactly."""
        from repro.core.model_store import load_model, save_model
        from repro.datasets.registry import get_corpus
        from repro.xmlmodel.serializer import serialize

        transactions = dblp_small.transactions
        config = ClusteringConfig(
            k=4, similarity=SIMILARITY, seed=0, max_iterations=3, backend="numpy"
        )
        algorithm = XKMeans(config)
        result = algorithm.fit(transactions)
        save_model(tmp_path / "model", result, config, dataset=dblp_small)
        old_directory = tmp_path / "cache" / ("ef" * 8)
        write_pre_chain_store(old_directory, transactions)
        manifest_path = tmp_path / "model" / "model.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["corpus"]["store_dir"] = str(old_directory)
        manifest["corpus"]["fingerprint"] = "ef" * 32
        manifest_path.write_text(json.dumps(manifest))
        clear_store_cache()

        model = load_model(tmp_path / "model")
        reference = load_model(tmp_path / "model", backend="python")
        assert corpus_store._STORE_CACHE == {}
        for tree in get_corpus("DBLP", scale=0.2, seed=0).trees[:6]:
            ours = model.classify(serialize(tree))
            theirs = reference.classify(serialize(tree))
            assert (ours.cluster_id, ours.score, ours.assignments) == (
                theirs.cluster_id,
                theirs.score,
                theirs.assignments,
            )
