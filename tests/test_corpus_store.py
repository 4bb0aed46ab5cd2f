"""Persistence, invalidation and bit-exact-attach tests for the corpus store.

The persistent compiled-corpus store (``repro/similarity/corpus_store.py``)
exports one ``NumpyBackend`` compilation as a block chain in a
fingerprinted directory that later runs attach zero-copy via
``np.load(mmap_mode="r")``.  These tests pin its contract:

* the fingerprint invalidates on changed transaction content, a changed
  similarity configuration and a bumped store-format version;
* corrupted or crash-truncated directories are rejected by ``open`` and
  transparently recompiled (then re-exported) by ``prepare_engine_corpus``,
  and so are directories in the pre-chain monolithic layout;
* a warm attach is a store **hit** that skips *all* compile work -- no
  tag-path cache precompute, ``corpus_compile_count == 0``, and
  ``compile_corpus`` returning 0 -- through a whole ``fit``;
* store-attached engines are **bit-exact** with fresh-compiled ones on the
  numpy backend, tiled and untiled (hypothesis property suite).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.core.config import ClusteringConfig
from repro.core.seeding import select_seed_transactions
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.network.mpengine import clear_process_engines
from repro.similarity import corpus_store
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.corpus_store import (
    CorpusStore,
    CorpusStoreError,
    clear_store_cache,
    corpus_fingerprint,
    prepare_engine_corpus,
    store_directory,
)
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine


@pytest.fixture(autouse=True)
def isolated_caches():
    """Every test starts and ends with empty engine and store caches, so
    attached stores and per-process engines never leak between tests."""
    clear_process_engines()
    clear_store_cache()
    yield
    clear_process_engines()
    clear_store_cache()


@pytest.fixture(scope="module")
def dblp_small():
    return get_dataset("DBLP", scale=0.2, seed=0)


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    """A module-lived store cache root (reused across hypothesis examples,
    so repeated configurations exercise the warm hit path too)."""
    return str(tmp_path_factory.mktemp("corpus-store"))


SIMILARITY = SimilarityConfig(f=0.5, gamma=0.8)


def make_engine(backend: str = "numpy") -> SimilarityEngine:
    return SimilarityEngine(
        SIMILARITY, cache=TagPathSimilarityCache(), backend=backend
    )


def fresh_compile(engine: SimilarityEngine, transactions) -> None:
    engine.cache.precompute(
        {item.tag_path for transaction in transactions for item in transaction.items}
    )
    engine.backend.compile_corpus(transactions)


# --------------------------------------------------------------------------- #
# Fingerprint
# --------------------------------------------------------------------------- #
class TestFingerprint:
    def test_equal_corpora_hash_identically(self, dblp_small):
        # a freshly regenerated (value-equal, object-distinct) corpus must
        # produce the same fingerprint: the hash is value-based, not
        # identity/aliasing-based
        regenerated = get_dataset("DBLP", scale=0.2, seed=0)
        assert corpus_fingerprint(
            dblp_small.transactions, SIMILARITY
        ) == corpus_fingerprint(regenerated.transactions, SIMILARITY)

    def test_fingerprint_is_stable_across_processes(self):
        """Regression: term identifiers are assigned in hash-randomised
        vocabulary order, so hashing raw ``vector.items()`` produced a
        different fingerprint in every process (and the CLI's second
        ``--corpus-cache`` run could never hit).  The canonical term
        relabeling must make the hash process-independent."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.datasets.registry import get_dataset\n"
            "from repro.similarity.corpus_store import corpus_fingerprint\n"
            "from repro.similarity.item import SimilarityConfig\n"
            "ds = get_dataset('DBLP', scale=0.2, seed=0)\n"
            "print(corpus_fingerprint("
            "ds.transactions, SimilarityConfig(f=0.5, gamma=0.8)))\n"
        )
        fingerprints = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(
                Path(__file__).resolve().parent.parent / "src"
            )
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
                timeout=300,
            )
            fingerprints.add(completed.stdout.strip())
        assert len(fingerprints) == 1

    def test_changed_transaction_content_changes_the_fingerprint(
        self, dblp_small
    ):
        other = get_dataset("DBLP", scale=0.2, seed=1)
        assert corpus_fingerprint(
            dblp_small.transactions, SIMILARITY
        ) != corpus_fingerprint(other.transactions, SIMILARITY)

    def test_dropped_transaction_changes_the_fingerprint(self, dblp_small):
        transactions = dblp_small.transactions
        assert corpus_fingerprint(transactions, SIMILARITY) != corpus_fingerprint(
            transactions[:-1], SIMILARITY
        )

    def test_changed_similarity_config_changes_the_fingerprint(
        self, dblp_small
    ):
        transactions = dblp_small.transactions
        assert corpus_fingerprint(transactions, SIMILARITY) != corpus_fingerprint(
            transactions, SimilarityConfig(f=0.6, gamma=0.8)
        )
        assert corpus_fingerprint(transactions, SIMILARITY) != corpus_fingerprint(
            transactions, SimilarityConfig(f=0.5, gamma=0.7)
        )

    def test_bumped_format_version_changes_the_fingerprint(
        self, dblp_small, monkeypatch
    ):
        transactions = dblp_small.transactions
        before = corpus_fingerprint(transactions, SIMILARITY)
        monkeypatch.setattr(
            corpus_store,
            "STORE_FORMAT_VERSION",
            corpus_store.STORE_FORMAT_VERSION + 1,
        )
        assert corpus_fingerprint(transactions, SIMILARITY) != before


# --------------------------------------------------------------------------- #
# Invalidation and recovery through prepare_engine_corpus
# --------------------------------------------------------------------------- #
class TestInvalidation:
    def test_miss_then_hit(self, dblp_small, tmp_path):
        transactions = dblp_small.transactions
        first = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        assert first["store"] == "miss"
        assert first["compiled"] == len(transactions)
        # one store format: a cache store is a one-block chain
        assert corpus_store.CorpusStore is corpus_store.BlockCorpusStore
        assert sorted(
            entry.name for entry in Path(first["directory"]).iterdir()
        ) == ["block-00000", "chain.json"]
        clear_store_cache()
        second = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        assert second["store"] == "hit"
        assert second["compiled"] == 0
        assert second["directory"] == first["directory"]

    def test_changed_corpus_misses(self, dblp_small, tmp_path):
        first = prepare_engine_corpus(
            make_engine(), dblp_small.transactions, cache_dir=tmp_path
        )
        other = get_dataset("DBLP", scale=0.2, seed=1)
        second = prepare_engine_corpus(
            make_engine(), other.transactions, cache_dir=tmp_path
        )
        assert second["store"] == "miss"
        assert second["directory"] != first["directory"]

    def test_changed_similarity_config_misses(self, dblp_small, tmp_path):
        transactions = dblp_small.transactions
        first = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        other = SimilarityEngine(
            SimilarityConfig(f=0.7, gamma=0.8),
            cache=TagPathSimilarityCache(),
            backend="numpy",
        )
        second = prepare_engine_corpus(other, transactions, cache_dir=tmp_path)
        assert second["store"] == "miss"
        assert second["directory"] != first["directory"]

    def test_bumped_format_version_misses_and_rejects_the_old_dir(
        self, dblp_small, tmp_path, monkeypatch
    ):
        transactions = dblp_small.transactions
        first = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        assert first["store"] == "miss"
        monkeypatch.setattr(
            corpus_store,
            "STORE_FORMAT_VERSION",
            corpus_store.STORE_FORMAT_VERSION + 1,
        )
        clear_store_cache()
        second = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        assert second["store"] == "miss"
        assert second["directory"] != first["directory"]
        # the old-format directory is now unloadable
        with pytest.raises(CorpusStoreError, match="format version"):
            CorpusStore.open(first["directory"])

    @staticmethod
    def chain_corruptions():
        """``chain.json`` rewrites: unreadable JSON, then well-formed JSON
        whose similarity config or block record is malformed."""

        def edited(edit):
            def corrupt(chain):
                edit(chain)
                return json.dumps(chain)

            return corrupt

        return {
            "truncated": lambda chain: "{ truncated",
            "similarity lacks f": edited(lambda chain: chain["similarity"].pop("f")),
            "f is not a number": edited(
                lambda chain: chain["similarity"].update(f="x")
            ),
            "block lacks a name": edited(lambda chain: chain["blocks"][0].pop("name")),
        }

    def test_corrupted_manifest_recovers_by_recompiling(
        self, dblp_small, tmp_path
    ):
        transactions = dblp_small.transactions
        first = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        directory = Path(first["directory"])
        chain_path = directory / "chain.json"
        for case, corrupt in self.chain_corruptions().items():
            chain = json.loads(chain_path.read_text(encoding="utf-8"))
            chain_path.write_text(corrupt(chain), encoding="utf-8")
            with pytest.raises(CorpusStoreError, match="manifest"):
                CorpusStore.open(directory)
            clear_store_cache()
            second = prepare_engine_corpus(
                make_engine(), transactions, cache_dir=tmp_path
            )
            assert second["store"] == "miss", case
            assert second["compiled"] == len(transactions), case
            clear_store_cache()
            third = prepare_engine_corpus(
                make_engine(), transactions, cache_dir=tmp_path
            )
            assert third["store"] == "hit", case

    def test_missing_manifest_marks_a_crash_truncated_save(
        self, dblp_small, tmp_path
    ):
        # the block manifest is written last: a block without one (a crash
        # mid-save) must be rejected and recompiled, not half-attached
        transactions = dblp_small.transactions
        first = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        directory = Path(first["directory"])
        (directory / "block-00000" / "block.json").unlink()
        with pytest.raises(CorpusStoreError):
            CorpusStore.open(directory)
        clear_store_cache()
        second = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        assert second["store"] == "miss"

    def test_missing_array_file_is_rejected(self, dblp_small, tmp_path):
        transactions = dblp_small.transactions
        first = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        directory = Path(first["directory"])
        (directory / "block-00000" / "tp_rows.npy").unlink()
        with pytest.raises(CorpusStoreError, match="missing"):
            CorpusStore.open(directory)

    def test_unwritable_cache_dir_degrades_to_error_status(
        self, dblp_small, tmp_path
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way", encoding="utf-8")
        status = prepare_engine_corpus(
            make_engine(),
            dblp_small.transactions,
            cache_dir=blocker / "cache",
        )
        # the run still got a compiled engine; only the export failed
        assert status["store"] == "error"
        assert status["compiled"] == len(dblp_small.transactions)
        # the error record names what failed where: fingerprint + target
        # directory make a failed save debuggable from run records alone
        assert status["fingerprint"] == corpus_fingerprint(
            dblp_small.transactions, SIMILARITY
        )
        assert status["directory"] == str(
            store_directory(blocker / "cache", status["fingerprint"])
        )

    def test_pickle_failure_during_save_degrades_to_error_status(
        self, dblp_small, tmp_path, monkeypatch
    ):
        # a pickling/encoding failure inside CorpusStore.save must degrade
        # exactly like an unwritable directory, not kill the run
        import pickle

        def refuse_to_pickle(*args, **kwargs):
            raise pickle.PicklingError("unpicklable corpus")

        monkeypatch.setattr(corpus_store.pickle, "dump", refuse_to_pickle)
        status = prepare_engine_corpus(
            make_engine(), dblp_small.transactions, cache_dir=tmp_path
        )
        assert status["store"] == "error"
        assert "unpicklable corpus" in status["error"]
        assert status["compiled"] == len(dblp_small.transactions)
        assert status["fingerprint"]
        assert status["directory"].startswith(str(tmp_path))
        # the torn write it left behind is a miss (then a hit) next time
        monkeypatch.undo()
        clear_store_cache()
        again = prepare_engine_corpus(
            make_engine(), dblp_small.transactions, cache_dir=tmp_path
        )
        assert again["store"] == "miss"
        assert again["directory"] == status["directory"]
        clear_store_cache()
        assert prepare_engine_corpus(
            make_engine(), dblp_small.transactions, cache_dir=tmp_path
        )["store"] == "hit"

    def test_store_off_and_unsupported_statuses(self, dblp_small, tmp_path):
        off = prepare_engine_corpus(make_engine(), dblp_small.transactions)
        assert off["store"] == "off"
        unsupported = prepare_engine_corpus(
            make_engine("python"), dblp_small.transactions, cache_dir=tmp_path
        )
        assert unsupported["store"] == "unsupported"

    def test_store_directory_is_keyed_by_fingerprint_prefix(self, tmp_path):
        fingerprint = "ab" * 32
        assert store_directory(tmp_path, fingerprint) == tmp_path / ("ab" * 8)


# --------------------------------------------------------------------------- #
# Warm attach skips all compile work (acceptance)
# --------------------------------------------------------------------------- #
class TestWarmAttachSkipsCompilation:
    def test_hit_engine_does_zero_compile_work(self, dblp_small, tmp_path):
        transactions = dblp_small.transactions
        prepare_engine_corpus(make_engine(), transactions, cache_dir=tmp_path)
        clear_store_cache()
        engine = make_engine()
        status = prepare_engine_corpus(engine, transactions, cache_dir=tmp_path)
        assert status["store"] == "hit"
        assert engine.backend.corpus_compile_count == 0
        # the O(paths^2) tag-path precompute was skipped too
        assert engine.cache.stats()["precomputed"] == 0
        # an explicit compile_corpus call resolves every transaction from
        # the attached arrays: zero transactions compiled
        assert engine.backend.compile_corpus(transactions) == 0
        assert engine.backend.corpus_compile_count == 0

    def test_full_fit_on_a_warm_engine_compiles_nothing(
        self, dblp_small, tmp_path
    ):
        transactions = dblp_small.transactions
        prepare_engine_corpus(make_engine(), transactions, cache_dir=tmp_path)
        clear_store_cache()
        engine = make_engine()
        assert (
            prepare_engine_corpus(engine, transactions, cache_dir=tmp_path)[
                "store"
            ]
            == "hit"
        )
        config = ClusteringConfig(
            k=4, similarity=SIMILARITY, seed=0, max_iterations=4, backend="numpy"
        )
        warm_result = XKMeans(config, engine=engine).fit(transactions)
        assert engine.backend.corpus_compile_count == 0

        fresh = XKMeans(config)
        fresh_compile(fresh.engine, transactions)
        fresh_result = fresh.fit(transactions)
        assert warm_result.partition() == fresh_result.partition()
        assert warm_result.iterations == fresh_result.iterations

    def test_attach_is_handle_only_on_an_already_compiled_engine(
        self, dblp_small, tmp_path
    ):
        transactions = dblp_small.transactions
        engine = make_engine()
        status = prepare_engine_corpus(engine, transactions, cache_dir=tmp_path)
        # the miss path compiled first, so the save's attach kept the
        # compiled registries and only recorded the handle
        assert status["store"] == "miss"
        assert engine.backend.attached_store is not None
        assert engine.backend.corpus_compile_count == len(transactions)


# --------------------------------------------------------------------------- #
# Bit-exact parity: store-attached vs fresh-compiled (acceptance)
# --------------------------------------------------------------------------- #
class TestAttachParity:
    @settings(max_examples=12, deadline=None)
    @given(
        backend=st.sampled_from(
            ["numpy", "numpy:block=64", "numpy:block=0"]
        ),
        f=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        gamma=st.sampled_from([0.6, 0.8]),
        k=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_property_store_attach_is_bit_exact(
        self, dblp_small, shared_cache_dir, backend, f, gamma, k, seed
    ):
        """``assign_all`` on a store-attached corpus equals the fresh
        compile exactly, across backends (numpy untiled / tiled),
        similarity configurations and seeds.  The shared cache dir is
        reused across examples, so repeat configurations exercise the warm
        hit path and first-seen ones the miss+export path."""
        similarity = SimilarityConfig(f=f, gamma=gamma)
        transactions = dblp_small.transactions
        representatives = select_seed_transactions(
            transactions, k, random.Random(seed)
        )

        fresh = SimilarityEngine(
            similarity, cache=TagPathSimilarityCache(), backend=backend
        )
        fresh_compile(fresh, transactions)
        expected = fresh.assign_all(transactions, representatives)

        clear_store_cache()
        attached = SimilarityEngine(
            similarity, cache=TagPathSimilarityCache(), backend=backend
        )
        status = prepare_engine_corpus(
            attached, transactions, cache_dir=shared_cache_dir
        )
        assert status["store"] in ("hit", "miss")
        result = attached.assign_all(transactions, representatives)
        assert result == expected

    def test_stored_arrays_equal_a_fresh_compilation(self, dblp_small, tmp_path):
        """The exported arrays are byte-for-byte what a fresh backend
        compiling exactly this corpus produces."""
        import numpy as np

        transactions = dblp_small.transactions
        engine = make_engine()
        fresh_compile(engine, transactions)
        status = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path
        )
        store = CorpusStore.open(status["directory"])
        arrays = store.arrays()
        backend = engine.backend
        spans = arrays["tx_spans"]
        assert spans[0] == 0
        for row, transaction in enumerate(transactions):
            compiled = backend._compile(transaction)
            start, stop = int(spans[row]), int(spans[row + 1])
            assert stop - start == compiled.length
            np.testing.assert_array_equal(
                arrays["item_tag_path_ids"][start:stop], compiled.tag_path_ids
            )
            np.testing.assert_array_equal(
                arrays["item_content_ids"][start:stop], compiled.content_ids
            )
            np.testing.assert_array_equal(
                arrays["item_uids"][start:stop], compiled.uids
            )
        np.testing.assert_array_equal(
            arrays["tp_matrix"], backend._ensure_tp_matrix()
        )


# --------------------------------------------------------------------------- #
# Block chains (streaming out-of-core ingestion)
# --------------------------------------------------------------------------- #
from repro.similarity.corpus_store import (  # noqa: E402  (section import)
    BLOCK_MANIFEST_NAME,
    BlockCorpusStore,
    chain_base_fingerprint,
    roll_chain_fingerprint,
)


def chunk3(transactions):
    """Split a corpus into three streaming chunks."""
    third = len(transactions) // 3
    return [
        transactions[:third],
        transactions[third : 2 * third],
        transactions[2 * third :],
    ]


def build_chain(directory, chunks, cache=None):
    """Create a chain at *directory* and append *chunks* in order."""
    cache = cache if cache is not None else TagPathSimilarityCache()
    chain = BlockCorpusStore.create(directory, SIMILARITY)
    for chunk in chunks:
        chain.append_block(chunk, cache)
    return chain


class TestBlockChain:
    def test_chunked_chain_matches_a_monolithic_compilation(
        self, dblp_small, tmp_path
    ):
        """Arrays assembled from blocks are bit-identical to one compile."""
        import numpy as np

        transactions = dblp_small.transactions
        chain = build_chain(tmp_path / "chain", chunk3(transactions))
        engine = make_engine()
        fresh_compile(engine, transactions)
        backend = engine.backend
        arrays = chain.arrays()
        spans = arrays["tx_spans"]
        assert chain.transaction_count == len(transactions)
        assert spans[0] == 0
        for row, transaction in enumerate(transactions):
            compiled = backend._compile(transaction)
            start, stop = int(spans[row]), int(spans[row + 1])
            np.testing.assert_array_equal(
                arrays["item_tag_path_ids"][start:stop], compiled.tag_path_ids
            )
            np.testing.assert_array_equal(
                arrays["item_content_ids"][start:stop], compiled.content_ids
            )
            np.testing.assert_array_equal(
                arrays["item_uids"][start:stop], compiled.uids
            )
        np.testing.assert_array_equal(
            arrays["tp_matrix"], backend._ensure_tp_matrix()
        )

    def test_append_extends_without_touching_earlier_blocks(
        self, dblp_small, tmp_path
    ):
        """Appending rewrites nothing but the chain manifest."""
        chunks = chunk3(dblp_small.transactions)
        cache = TagPathSimilarityCache()
        chain = build_chain(tmp_path / "chain", chunks[:2], cache)
        first_block = (tmp_path / "chain" / "block-00000" / BLOCK_MANIFEST_NAME)
        before = first_block.stat().st_mtime_ns, first_block.read_bytes()
        chain.append_block(chunks[2], cache)
        assert (first_block.stat().st_mtime_ns, first_block.read_bytes()) == before
        assert [record["name"] for record in chain.blocks] == [
            "block-00000",
            "block-00001",
            "block-00002",
        ]

    def test_chain_fingerprint_rolls_over_block_fingerprints(
        self, dblp_small, tmp_path
    ):
        """The manifest fingerprint is the documented rolling hash."""
        chunks = chunk3(dblp_small.transactions)
        chain = build_chain(tmp_path / "chain", chunks)
        expected = chain_base_fingerprint(SIMILARITY)
        for record in chain.blocks:
            expected = roll_chain_fingerprint(expected, record["fingerprint"])
        assert chain.fingerprint == expected
        reopened = BlockCorpusStore.open(tmp_path / "chain")
        assert reopened.fingerprint == expected

    def test_warm_multi_block_attach_compiles_nothing(self, dblp_small, tmp_path):
        """A chain attach is zero-compile and bit-exact with fresh compile."""
        transactions = dblp_small.transactions
        build_chain(tmp_path / "chain", chunk3(transactions))
        warm = make_engine()
        store = BlockCorpusStore.open(tmp_path / "chain")
        store.bind_transactions(transactions)
        assert store.attach(warm.backend)
        assert warm.backend.compile_corpus(transactions) == 0
        assert warm.backend.corpus_compile_count == 0
        fresh = make_engine()
        fresh_compile(fresh, transactions)
        rng = random.Random(7)
        pairs = [
            (rng.choice(transactions), rng.choice(transactions)) for _ in range(25)
        ]
        rows, columns = (list(side) for side in zip(*pairs))
        # the batch kernel reads the attached arrays (the engine's scalar
        # transaction_similarity is the python reference, which never does)
        expected = fresh.pairwise_transaction_similarity(rows, columns)
        assert warm.pairwise_transaction_similarity(rows, columns) == expected
        assert any(value for row in expected for value in row)
        assert warm.backend.corpus_compile_count == 0

    def test_refresh_adopts_blocks_appended_by_another_handle(
        self, dblp_small, tmp_path
    ):
        """A stale reader handle follows the chain after an append."""
        chunks = chunk3(dblp_small.transactions)
        cache = TagPathSimilarityCache()
        chain = build_chain(tmp_path / "chain", chunks[:2], cache)
        reader = BlockCorpusStore.open(tmp_path / "chain")
        assert reader.refresh() is False  # up to date: no-op
        chain.append_block(chunks[2], cache)
        assert reader.refresh() is True
        assert reader.fingerprint == chain.fingerprint
        assert reader.transaction_count == chain.transaction_count
        tail = reader.resolve_rows(
            [chain.transaction_count - len(chunks[2]), chain.transaction_count - 1]
        )
        assert tail[0].transaction_id == chunks[2][0].transaction_id
        assert tail[-1].transaction_id == chunks[2][-1].transaction_id


class TestBlockChainCrashSafety:
    def torn_block(self, chain_dir):
        """Simulate a crash mid-append: block dir exists, chain untouched."""
        torn = chain_dir / "block-00002"
        torn.mkdir()
        (torn / "tp_rows.npy").write_bytes(b"\x93NUMPY-garbage")
        return torn

    def test_partially_written_block_is_invisible(self, dblp_small, tmp_path):
        """A torn block (unlisted dir) does not corrupt open or attach."""
        transactions = dblp_small.transactions
        chunks = chunk3(transactions)
        build_chain(tmp_path / "chain", chunks[:2])
        self.torn_block(tmp_path / "chain")
        reopened = BlockCorpusStore.open(tmp_path / "chain")
        listed = [record["name"] for record in reopened.blocks]
        assert listed == ["block-00000", "block-00001"]
        visible = chunks[0] + chunks[1]
        assert reopened.transaction_count == len(visible)
        engine = make_engine()
        reopened.bind_transactions(visible)
        assert reopened.attach(engine.backend)
        assert engine.backend.compile_corpus(visible) == 0

    def test_next_append_repairs_the_torn_block(self, dblp_small, tmp_path):
        """The torn dir is removed and its index reused by the next append."""
        chunks = chunk3(dblp_small.transactions)
        cache = TagPathSimilarityCache()
        chain = build_chain(tmp_path / "chain", chunks[:2], cache)
        torn = self.torn_block(tmp_path / "chain")
        assert torn.exists()
        chain.append_block(chunks[2], cache)
        assert [record["name"] for record in chain.blocks] == [
            "block-00000",
            "block-00001",
            "block-00002",
        ]
        assert (torn / BLOCK_MANIFEST_NAME).exists()  # rebuilt, now valid
        reopened = BlockCorpusStore.open(tmp_path / "chain")
        assert reopened.transaction_count == sum(len(chunk) for chunk in chunks)

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
# One store format: every store is a block chain
# --------------------------------------------------------------------------- #
def write_pre_chain_store(cache_dir, transactions, monkeypatch):
    """Hand-write a store in the retired monolithic layout (format 1).

    Returns ``(directory, fingerprint)``: where that layout's cache lookup
    put the store, and the corpus fingerprint it recorded.
    """
    import json
    import pickle

    import numpy as np

    with monkeypatch.context() as patch:
        patch.setattr(corpus_store, "STORE_FORMAT_VERSION", 1)
        fingerprint = corpus_fingerprint(transactions, SIMILARITY)
    directory = store_directory(cache_dir, fingerprint)
    directory.mkdir(parents=True)
    source = build_chain(Path(cache_dir).parent / "pre-chain-source", [transactions])
    for name, array in source.arrays().items():
        np.save(directory / f"{name}.npy", np.asarray(array))
    (directory / "tag_paths.json").write_text(
        json.dumps([list(path.steps) for path in source.tag_paths()])
    )
    (directory / "transactions.pkl").write_bytes(pickle.dumps(list(transactions)))
    (directory / "manifest.json").write_text(
        json.dumps({"format_version": 1, "fingerprint": fingerprint})
    )
    return directory, fingerprint


class TestOneStoreFormat:
    def test_cold_prepare_hashes_the_corpus_once(
        self, dblp_small, tmp_path, monkeypatch
    ):
        calls = []
        real_fingerprint = corpus_store.corpus_fingerprint

        def counting_fingerprint(*args, **kwargs):
            calls.append(args)
            return real_fingerprint(*args, **kwargs)

        monkeypatch.setattr(corpus_store, "corpus_fingerprint", counting_fingerprint)
        status = prepare_engine_corpus(
            make_engine(), dblp_small.transactions, cache_dir=tmp_path
        )
        assert status["store"] == "miss"
        assert len(calls) == 1

    def test_attach_with_bound_transactions_never_unpickles_a_block(
        self, dblp_small, tmp_path, monkeypatch
    ):
        """Attach reads tag paths from JSON, not from the pickled corpus."""
        transactions = dblp_small.transactions
        build_chain(tmp_path / "chain", [transactions])
        status = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path / "cache"
        )
        clear_store_cache()

        def refuse(self, index):
            raise AssertionError(f"attach unpickled block {index}")

        monkeypatch.setattr(BlockCorpusStore, "_load_block_transactions", refuse)
        chain = BlockCorpusStore.open(tmp_path / "chain")
        chain.bind_transactions(transactions)
        engine = make_engine()
        assert chain.attach(engine.backend)
        assert engine.backend.compile_corpus(transactions) == 0
        warm = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path / "cache"
        )
        assert warm["store"] == "hit"
        assert warm["directory"] == status["directory"]

    def test_pre_chain_layout_misses_into_a_fresh_directory(
        self, dblp_small, tmp_path, monkeypatch
    ):
        transactions = dblp_small.transactions
        old_directory, _ = write_pre_chain_store(
            tmp_path / "cache", transactions, monkeypatch
        )
        status = prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path / "cache"
        )
        assert status["store"] == "miss"
        assert status["compiled"] == len(transactions)
        assert Path(status["directory"]) != old_directory
        assert (Path(status["directory"]) / "chain.json").exists()
        assert (old_directory / "manifest.json").exists()
        clear_store_cache()
        assert prepare_engine_corpus(
            make_engine(), transactions, cache_dir=tmp_path / "cache"
        )["store"] == "hit"

    def test_model_pointing_at_a_pre_chain_store_loads_cold(
        self, dblp_small, tmp_path, monkeypatch
    ):
        """A model saved before the fold keeps classifying, bit-exactly."""
        import json

        from repro.core.model_store import load_model, save_model
        from repro.datasets.registry import get_corpus
        from repro.xmlmodel.serializer import serialize

        transactions = dblp_small.transactions
        config = ClusteringConfig(
            k=4, similarity=SIMILARITY, seed=0, max_iterations=3, backend="numpy"
        )
        algorithm = XKMeans(config)
        result = algorithm.fit(transactions)
        save_model(
            tmp_path / "model", result, config, dataset=dblp_small,
            engine=algorithm.engine,
        )
        old_directory, old_fingerprint = write_pre_chain_store(
            tmp_path / "cache", transactions, monkeypatch
        )
        manifest_path = tmp_path / "model" / "model.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["corpus"]["store_dir"] = str(old_directory)
        manifest["corpus"]["fingerprint"] = old_fingerprint
        manifest_path.write_text(json.dumps(manifest))
        clear_store_cache()

        model = load_model(tmp_path / "model")
        reference = load_model(tmp_path / "model", backend="python")
        assert model.store_status == "cold"
        for tree in get_corpus("DBLP", scale=0.2, seed=0).trees[:6]:
            ours = model.classify(serialize(tree))
            theirs = reference.classify(serialize(tree))
            assert (ours.cluster_id, ours.score, ours.assignments) == (
                theirs.cluster_id,
                theirs.score,
                theirs.assignments,
            )
