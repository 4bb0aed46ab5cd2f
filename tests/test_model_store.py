"""Round-trip, validation and warm-query tests for the fitted-model store.

``repro/core/model_store.py`` persists a fitted clustering (representatives,
config, vocabulary + collection statistics, tag-path registry) and serves
classification queries from the reloaded model.  These tests pin its
contract:

* ``fit -> save_model -> load_model -> assign_all`` is **bit-exact** against
  the in-memory model on the python and numpy backends;
* payload encoding round-trips values exactly (hypothesis property suite:
  ordered sparse vectors, items, transactions through JSON);
* a model loads from its own directory: a manifest written with the
  corpus-store linkage of earlier releases loads without opening any store
  (intact, missing or corrupted) and classifies with zero corpus compile
  work;
* tampered manifests (format version, malformed config section),
  missing/corrupt blocks, seeded single-value mutants of the data files
  and unwritable directories are rejected with ``ModelStoreError`` (the
  CLI degrades instead of failing the run);
* manifests written before the tile-budget, refinement-worker and
  compiled-corpus-cache options were retired (a ``numpy:block=N`` spec
  among them) still load and classify bit-exactly;
* a manifest naming a backend that is no longer registered (models saved
  under the retired ``sharded`` / ``torch`` backends) fails with the
  unknown-backend ``ValueError`` before any data file is read, and still
  loads with an explicit backend override.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.core.config import ClusteringConfig
from repro.core import model_store
from repro.core.model_store import (
    MODEL_DATA_FILES,
    MODEL_FORMAT_VERSION,
    MODEL_MANIFEST_NAME,
    ModelStoreError,
    item_from_payload,
    item_payload,
    load_model,
    save_model,
    transaction_from_payload,
    transaction_payload,
    vector_from_payload,
    vector_payload,
)
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_corpus, get_dataset
from repro.similarity import corpus_store
from repro.similarity.corpus_store import (
    BlockCorpusStore,
    clear_store_cache,
    prepare_engine_corpus,
)
from repro.similarity.item import SimilarityConfig
from repro.text.vector import SparseVector
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.paths import XMLPath
from repro.xmlmodel.serializer import serialize


@pytest.fixture(autouse=True)
def isolated_caches():
    """Start and end every test with an empty store cache."""
    clear_store_cache()
    yield
    clear_store_cache()


@pytest.fixture(scope="module")
def dblp_small():
    return get_dataset("DBLP", scale=0.2, seed=0)


@pytest.fixture(scope="module")
def dblp_documents():
    """Serialized XML of the corpus the dataset was built from."""
    return [
        serialize(tree) for tree in get_corpus("DBLP", scale=0.2, seed=0).trees
    ]


SIMILARITY = SimilarityConfig(f=0.5, gamma=0.8)


def make_config(backend: str = "numpy", **overrides) -> ClusteringConfig:
    options = dict(
        k=4, similarity=SIMILARITY, seed=0, max_iterations=3, backend=backend
    )
    options.update(overrides)
    return ClusteringConfig(**options)


def fit_and_save(dataset, directory, backend="numpy", **overrides):
    """Fit XK-means, save the model, return (config, result, in-memory rows)."""
    config = make_config(backend, **overrides)
    algorithm = XKMeans(config)
    prepare_engine_corpus(algorithm.engine, dataset.transactions)
    result = algorithm.fit(dataset.transactions)
    in_memory = algorithm.engine.assign_all(
        dataset.transactions, result.representatives()
    )
    # the benchmark's model job passes the fit's engine, which save_model
    # accepts and ignores: the call must keep working
    save_model(directory, result, config, dataset=dataset, engine=algorithm.engine)
    return config, result, in_memory


# --------------------------------------------------------------------------- #
# Payload encoding (hypothesis round trip)
# --------------------------------------------------------------------------- #
weights = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)
vectors = st.dictionaries(st.integers(0, 999), weights, max_size=6).map(SparseVector)
labels = st.sampled_from(["article", "author", "title", "year", "venue"])
paths = st.lists(labels, min_size=1, max_size=3).map(
    lambda steps: XMLPath(tuple(steps))
)
answers = st.text(
    alphabet="abcdefghij XML&<>'\"0123456789", min_size=0, max_size=20
)
items = st.builds(
    TreeTupleItem,
    item_id=st.integers(-1, 500),
    path=paths,
    answer=answers,
    terms=st.lists(
        st.text(alphabet="abcdefg", min_size=1, max_size=6), max_size=4
    ).map(tuple),
    vector=vectors,
)
transactions = st.builds(
    Transaction,
    transaction_id=st.text(alphabet="abc#0123-", min_size=1, max_size=12),
    items=st.lists(items, max_size=5).map(tuple),
    doc_id=st.text(alphabet="abc-", max_size=8),
    tuple_id=st.text(alphabet="abc#-", max_size=8),
)


class TestPayloadRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(vector=vectors)
    def test_vector_payload_round_trips_exactly(self, vector):
        decoded = vector_from_payload(
            json.loads(json.dumps(vector_payload(vector)))
        )
        # identical values AND identical iteration order: dot products
        # accumulate in insertion order on the reference backend
        assert list(decoded.items()) == list(vector.items())

    @settings(max_examples=50, deadline=None)
    @given(item=items)
    def test_item_payload_round_trips_exactly(self, item):
        decoded = item_from_payload(json.loads(json.dumps(item_payload(item))))
        assert decoded == item
        assert decoded.terms == item.terms
        assert list(decoded.vector.items()) == list(item.vector.items())

    @settings(max_examples=50, deadline=None)
    @given(transaction=transactions)
    def test_transaction_payload_round_trips_exactly(self, transaction):
        decoded = transaction_from_payload(
            json.loads(json.dumps(transaction_payload(transaction)))
        )
        assert decoded == transaction
        assert decoded.items == transaction.items
        assert decoded.doc_id == transaction.doc_id
        assert decoded.tuple_id == transaction.tuple_id
        for ours, theirs in zip(decoded.items, transaction.items):
            assert list(ours.vector.items()) == list(theirs.vector.items())


# --------------------------------------------------------------------------- #
# fit -> save -> load -> assign_all bit-exactness (acceptance)
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize(
        "backend", ["python", "numpy", "numpy:block=64"]
    )
    def test_reloaded_model_assigns_bit_exactly(
        self, dblp_small, tmp_path, backend
    ):
        """*backend* is the spec the manifest records; ``numpy:block=64``
        (a retired tile budget older builds wrote) loads on ``numpy``."""
        name = backend.partition(":")[0]
        config, result, in_memory = fit_and_save(
            dblp_small, tmp_path / "model", backend=name
        )
        record_backend(tmp_path / "model", backend)
        model = load_model(tmp_path / "model")
        assert model.engine.backend_name == name
        try:
            assert model.assign_all(dblp_small.transactions) == in_memory
            assert model.representatives == result.representatives()
        finally:
            model.close()

    def test_manifest_round_trips_the_config(self, dblp_small, tmp_path):
        config, _, _ = fit_and_save(dblp_small, tmp_path / "model", backend="numpy")
        model = load_model(tmp_path / "model")
        loaded = model.config
        assert loaded == config
        assert loaded.backend == "numpy"

    def test_backend_override_serves_bit_exactly(self, dblp_small, tmp_path):
        _, _, in_memory = fit_and_save(dblp_small, tmp_path / "model")
        model = load_model(tmp_path / "model", backend="python")
        assert model.engine.backend_name == "python"
        assert model.assign_all(dblp_small.transactions) == in_memory

    def test_save_without_dataset_still_assigns_exactly(
        self, dblp_small, tmp_path
    ):
        # representatives + config alone are enough for assign_all parity;
        # the vocabulary block only powers content-aware classify
        config = make_config("numpy")
        algorithm = XKMeans(config)
        algorithm.engine.backend.compile_corpus(dblp_small.transactions)
        result = algorithm.fit(dblp_small.transactions)
        in_memory = algorithm.engine.assign_all(
            dblp_small.transactions, result.representatives()
        )
        save_model(tmp_path / "bare", result, config)
        model = load_model(tmp_path / "bare")
        assert model.assign_all(dblp_small.transactions) == in_memory
        assert model.stats()["vocabulary"] == 0


# --------------------------------------------------------------------------- #
# Query path: a model loads from its own directory, never from a store
# --------------------------------------------------------------------------- #
def write_recorded_store(store_dir: Path, state: str) -> None:
    """Hand-build the one-block store an earlier release exported next to
    a fit, then leave it intact or delete / corrupt its chain manifest."""
    block = store_dir / "block-00000"
    block.mkdir(parents=True)
    for name in ("block.json", "transactions.pkl", "tag_paths.json", "tp_rows.npy"):
        (block / name).write_bytes(b"")
    if state == "store-intact":
        (store_dir / "chain.json").write_text(
            json.dumps({"format_version": 2, "fingerprint": "ab" * 32, "blocks": []})
        )
    elif state == "chain-corrupted":
        (store_dir / "chain.json").write_text("{ truncated")


class TestWarmStorePath:
    @pytest.mark.parametrize(
        "state", ["store-intact", "chain-deleted", "chain-corrupted"]
    )
    def test_model_ignores_its_recorded_store(
        self, dblp_small, dblp_documents, tmp_path, monkeypatch, state
    ):
        """Earlier releases recorded the fit's compiled-corpus store in the
        manifest; such a model loads from its own directory in every store
        state and assigns bit-exactly like the in-memory fit."""
        _, _, in_memory = fit_and_save(dblp_small, tmp_path / "model")
        store_dir = tmp_path / "cache" / ("ab" * 8)
        write_recorded_store(store_dir, state)
        manifest_path = tmp_path / "model" / "model.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["corpus"]["fingerprint"] = "ab" * 32
        manifest["corpus"]["store_dir"] = str(store_dir)
        manifest_path.write_text(json.dumps(manifest))

        def refuse(directory):
            raise AssertionError(f"load_model opened the store {directory}")

        monkeypatch.setattr(BlockCorpusStore, "open", refuse)
        model = load_model(tmp_path / "model")
        assert model.assign_all(dblp_small.transactions) == in_memory
        for document in dblp_documents[:5]:
            model.classify(document)
        stats = model.stats()
        assert stats["corpus_compile_count"] == 0
        assert stats["queries"] == 5
        assert corpus_store._STORE_CACHE == {}

    def test_classify_parity_python_vs_numpy(
        self, dblp_small, dblp_documents, tmp_path
    ):
        fit_and_save(dblp_small, tmp_path / "model")
        reference = load_model(tmp_path / "model", backend="python")
        vectorised = load_model(tmp_path / "model", backend="numpy")
        for document in dblp_documents[:8]:
            ours = vectorised.classify(document)
            theirs = reference.classify(document)
            assert (ours.cluster_id, ours.score) == (
                theirs.cluster_id,
                theirs.score,
            )
            assert ours.assignments == theirs.assignments

    def test_classify_of_unknown_vocabulary_is_robust(
        self, dblp_small, tmp_path
    ):
        fit_and_save(dblp_small, tmp_path / "model")
        model = load_model(tmp_path / "model")
        unknown = "<dblp><article><zzz>qqqq wwww</zzz></article></dblp>"
        outcome = model.classify(unknown, doc_id="query")
        assert outcome.doc_id == "query"
        assert outcome.transactions >= 1
        assert outcome.cluster_id >= -1
        # deterministic across repeated queries
        again = model.classify(unknown, doc_id="query")
        assert (again.cluster_id, again.score) == (
            outcome.cluster_id,
            outcome.score,
        )


# --------------------------------------------------------------------------- #
# A classify leaves the loaded model as it found it
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def unseen_documents():
    """40 documents of a corpus seed the model was not fitted on."""
    trees = get_corpus("DBLP", scale=0.35, seed=7).trees[:40]
    assert len(trees) == 40
    return [serialize(tree) for tree in trees]


#: One article with 300 tags no fitted document has.
WIDE_DOCUMENT = (
    "<dblp><article>"
    + "".join(f"<tag{index}>word{index} data</tag{index}>" for index in range(300))
    + "</article></dblp>"
)


def retained_state(model):
    """The vocabulary and retained-state sizes ``stats()`` reports."""
    stats = model.stats()
    return stats["vocabulary"], stats["retained"]


def verdict(model, documents, index):
    """``(cluster, score, assignments)`` of classifying ``documents[index]``."""
    outcome = model.classify(documents[index], doc_id=f"query-{index}")
    return outcome.cluster_id, outcome.score, outcome.assignments


class TestQueriesLeaveNothingBehind:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_retained_state_does_not_grow_with_unseen_queries(
        self, dblp_small, unseen_documents, tmp_path, backend
    ):
        fit_and_save(dblp_small, tmp_path / "model")
        model = load_model(tmp_path / "model", backend=backend)
        loaded = retained_state(model)
        model.classify(unseen_documents[0])
        assert retained_state(model) == loaded
        for document in unseen_documents[1:]:
            model.classify(document)
        assert retained_state(model) == loaded
        assert model.classify(WIDE_DOCUMENT).transactions == 1
        assert retained_state(model) == loaded
        # the same documents assigned outside classify do intern state,
        # so the bound above is not vacuous
        for document in (WIDE_DOCUMENT, *unseen_documents):
            model.assign_all(model.transact(parse_xml(document)))
        grown = retained_state(model)[1]
        assert grown["tag_path_cache"] > loaded[1]["tag_path_cache"]
        if backend == "numpy":
            for key in ("tag_paths", "content_classes", "item_uids", "transient"):
                assert grown[key] > loaded[1][key]

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_a_classify_that_raises_also_rolls_back(
        self, dblp_small, tmp_path, backend
    ):
        fit_and_save(dblp_small, tmp_path / "model")
        model = load_model(tmp_path / "model", backend=backend)
        loaded = retained_state(model)
        backend_object = model.engine.backend
        assign = backend_object.assign_all

        def assign_then_fail(transactions, representatives):
            assign(transactions, representatives)
            raise RuntimeError("injected after the assignment")

        backend_object.assign_all = assign_then_fail
        with pytest.raises(RuntimeError, match="injected"):
            model.classify(WIDE_DOCUMENT)
        assert retained_state(model) == loaded

    def test_verdicts_do_not_depend_on_the_queries_served_before(
        self, dblp_small, unseen_documents, tmp_path
    ):
        """Forward, reversed and fresh-model runs on both backends give
        equal verdicts, scores and per-transaction assignments."""
        fit_and_save(dblp_small, tmp_path / "model")
        indices = range(len(unseen_documents))
        runs = []
        for backend in ("python", "numpy"):
            model = load_model(tmp_path / "model", backend=backend)
            runs.append([verdict(model, unseen_documents, i) for i in indices])
            backward = [verdict(model, unseen_documents, i) for i in reversed(indices)]
            runs.append(backward[::-1])
        reference = runs[0]
        assert any(cluster >= 0 for cluster, _, _ in reference)
        for run in runs[1:]:
            assert run == reference
        for index in (0, len(indices) // 2, len(indices) - 1):
            for backend in ("python", "numpy"):
                fresh = load_model(tmp_path / "model", backend=backend)
                assert verdict(fresh, unseen_documents, index) == reference[index]


#: Malformed config sections -> the fragment naming the key in the error:
#: a missing key, a value of the wrong type, and a well-typed value that
#: ClusteringConfig rejects.
#: Deletes the key instead of setting a value (see MALFORMED_CONFIGS).
DROP = object()

#: Malformed model directories: case -> (file, key path, new value, the
#: text the error must carry).  An empty key path replaces the whole
#: document.  First three config sections (a missing key, a value of the
#: wrong type and a well-typed value ClusteringConfig rejects), then the
#: other manifest sections and the data files holding the wrong shape.
MALFORMED_CONFIGS = {
    "missing-k": ("model.json", ("config", "k"), DROP, "lacks key 'k'"),
    "null-f": ("model.json", ("config", "f"), None, "bad 'f' value None"),
    "zero-k": ("model.json", ("config", "k"), 0, "k must be positive"),
    "int-stopwords": (
        "model.json", ("preprocessing", "stopwords"), 5, "bad 'stopwords' value 5"
    ),
    "list-preprocessing": (
        "model.json", ("preprocessing",), ["stem"], "bad 'preprocessing' value"
    ),
    "str-min-token-length": (
        "model.json",
        ("preprocessing", "min_token_length"),
        "x",
        "bad 'min_token_length' value 'x'",
    ),
    "int-files": ("model.json", ("files",), 5, "bad 'files' value 5"),
    "list-vocabulary": ("vocabulary.json", (), [], "vocabulary.json"),
    "list-registries": ("registries.json", (), [], "registries.json"),
    "list-term-tcus": (
        "vocabulary.json", ("term_tcus",), [["term", 1]], "vocabulary.json"
    ),
    # json.dumps writes NaN as a bare literal, which json.load accepts
    "nan-weight": (
        "representatives.json",
        ("representatives", 0, "items", 0, "vector", 0, 1),
        float("nan"),
        "representatives.json holds a non-finite number NaN",
    ),
    # a string weight float() turns into infinity
    "inf-string-weight": (
        "representatives.json",
        ("representatives", 0, "items", 0, "vector", 0, 1),
        "inf",
        "representatives.json",
    ),
    "bool-path-step": (
        "representatives.json",
        ("representatives", 0, "items", 0, "path", 0),
        False,
        "representatives.json",
    ),
    "empty-item-path": (
        "representatives.json",
        ("representatives", 0, "items", 0, "path"),
        [],
        "representatives.json",
    ),
    "lone-text-step-path": (
        "representatives.json",
        ("representatives", 0, "items", 0, "path"),
        ["S"],
        "representatives.json",
    ),
    "int-terms": (
        "representatives.json",
        ("representatives", 0, "items", 0, "terms"),
        [[1]],
        "representatives.json",
    ),
    # beyond int64: the numpy backend's term-id arrays cannot hold it
    "huge-term-id": (
        "representatives.json",
        ("representatives", 0, "items", 0, "vector", 0, 0),
        2**70,
        "representatives.json",
    ),
    "bool-tag-path-step": (
        "registries.json", ("tag_paths", 0, 0), True, "registries.json"
    ),
    "empty-tag-path": ("registries.json", ("tag_paths", 0), [], "registries.json"),
    "negative-term-tcus": (
        "vocabulary.json", ("term_tcus",), {"data": -1}, "vocabulary.json"
    ),
    "repeated-vocabulary-term": (
        "vocabulary.json", ("terms",), ["data", "data"], "repeats a term"
    ),
}

#: Values a seeded mutant writes in place of one value of a data file.
MUTANT_VALUES = (
    None, True, 0, -1, 7, 2**63, 2**70, 1.5, 1e308, "", "x", "S", "@id",
    "nan", "1e400", [], {}, [[]], [""], ["a", 1], [1, 2], {"a": 1},
)


def value_positions(node, position=()):
    """Key path of *node* itself and of every value nested inside it."""
    yield position
    if isinstance(node, dict):
        for key, value in node.items():
            yield from value_positions(value, position + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from value_positions(value, position + (index,))


def break_config(directory: Path, case: str) -> None:
    """Rewrite one file of the model *directory* into malformed *case*."""
    name, keys, value, _ = MALFORMED_CONFIGS[case]
    path = directory / name
    document = json.loads(path.read_text())
    if not keys:
        document = value
    else:
        parent = document
        for key in keys[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    path.write_text(json.dumps(document))


# --------------------------------------------------------------------------- #
# Validation: version, corruption, unwritable directories
# --------------------------------------------------------------------------- #
class TestValidation:
    def test_bumped_format_version_is_rejected(self, dblp_small, tmp_path):
        fit_and_save(dblp_small, tmp_path / "model")
        manifest_path = tmp_path / "model" / "model.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = MODEL_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ModelStoreError, match="format version"):
            load_model(tmp_path / "model")

    def test_missing_manifest_marks_a_crash_truncated_save(
        self, dblp_small, tmp_path
    ):
        fit_and_save(dblp_small, tmp_path / "model")
        (tmp_path / "model" / "model.json").unlink()
        with pytest.raises(ModelStoreError, match="missing"):
            load_model(tmp_path / "model")

    @pytest.mark.parametrize(
        "victim", ["representatives.json", "vocabulary.json", "registries.json"]
    )
    def test_missing_data_file_is_rejected(self, dblp_small, tmp_path, victim):
        fit_and_save(dblp_small, tmp_path / "model")
        (tmp_path / "model" / victim).unlink()
        with pytest.raises(ModelStoreError, match="missing"):
            load_model(tmp_path / "model")

    def test_corrupted_representatives_block_is_rejected(
        self, dblp_small, tmp_path
    ):
        fit_and_save(dblp_small, tmp_path / "model")
        (tmp_path / "model" / "representatives.json").write_text("{ truncated")
        with pytest.raises(ModelStoreError, match="representatives.json"):
            load_model(tmp_path / "model")

    def test_corrupted_vocabulary_block_is_rejected(self, dblp_small, tmp_path):
        fit_and_save(dblp_small, tmp_path / "model")
        (tmp_path / "model" / "vocabulary.json").write_text(
            json.dumps({"terms": ["a"], "total_tcus": "not-a-number"})
        )
        with pytest.raises(ModelStoreError, match="vocabulary"):
            load_model(tmp_path / "model")

    def test_recovery_by_resaving_over_a_corrupt_directory(
        self, dblp_small, tmp_path
    ):
        config, result, in_memory = fit_and_save(dblp_small, tmp_path / "model")
        (tmp_path / "model" / "representatives.json").write_text("{ truncated")
        save_model(tmp_path / "model", result, config, dataset=dblp_small)
        model = load_model(tmp_path / "model")
        assert model.assign_all(dblp_small.transactions) == in_memory

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_names_the_directory_and_the_key(
        self, dblp_small, tmp_path, case
    ):
        fit_and_save(dblp_small, tmp_path / "model")
        break_config(tmp_path / "model", case)
        with pytest.raises(ModelStoreError) as failure:
            load_model(tmp_path / "model")
        assert str(tmp_path / "model") in str(failure.value)
        assert MALFORMED_CONFIGS[case][-1] in str(failure.value)

    @pytest.mark.parametrize("name", MODEL_DATA_FILES)
    def test_seeded_mutants_load_and_classify_or_raise_model_store_error(
        self, dblp_small, dblp_documents, tmp_path, name
    ):
        """Each single-value mutant of a data file either loads and
        classifies, on both backends, or raises :class:`ModelStoreError`."""
        fit_and_save(dblp_small, tmp_path / "base")
        original = json.loads((tmp_path / "base" / name).read_text())
        positions = list(value_positions(original))
        rng = random.Random(f"mutants:{name}")
        for index in range(100):
            position = rng.choice(positions)
            value = rng.choice(MUTANT_VALUES)
            directory = shutil.copytree(tmp_path / "base", tmp_path / f"m{index}")
            document = json.loads(json.dumps(original))
            if position:
                parent = document
                for key in position[:-1]:
                    parent = parent[key]
                parent[position[-1]] = value
            else:
                document = value
            (directory / name).write_text(json.dumps(document))
            backend = ("python", "numpy")[index % 2]
            try:
                model = load_model(directory, backend=backend)
            except ModelStoreError:
                continue
            try:
                model.classify(dblp_documents[index % len(dblp_documents)])
            finally:
                model.close()

    def test_unwritable_directory_raises_model_store_error(
        self, dblp_small, tmp_path
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way", encoding="utf-8")
        config = make_config()
        algorithm = XKMeans(config)
        algorithm.engine.backend.compile_corpus(dblp_small.transactions)
        result = algorithm.fit(dblp_small.transactions)
        with pytest.raises(ModelStoreError, match="cannot save"):
            save_model(blocker / "model", result, config, dataset=dblp_small)


# --------------------------------------------------------------------------- #
# Manifests carrying retired options
# --------------------------------------------------------------------------- #
class TestRetiredOptionManifest:
    @pytest.mark.parametrize("backend", ["numpy", "numpy:block=64"])
    def test_retired_option_keys_load_and_classify_bit_exactly(
        self, dblp_small, dblp_documents, tmp_path, backend
    ):
        """A manifest carrying the retired tile-budget, refinement-worker,
        compiled-corpus-cache and representative-size-cap keys (every
        manifest written before they were removed has them), or a backend
        spec with the retired ``block=N`` tile budget, loads on ``numpy``,
        ignores them and classifies like the python reference."""
        _, _, in_memory = fit_and_save(dblp_small, tmp_path / "model", "numpy")
        manifest_path = tmp_path / "model" / MODEL_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        config = {}
        for key, value in manifest["config"].items():
            config[key] = backend if key == "backend" else value
            if key == "backend":
                config["batch_block_items"] = 64
                config["refine_workers"] = 2
                config["corpus_cache_dir"] = str(tmp_path / "cache")
                config["max_representative_items"] = 11
        manifest["config"] = config
        manifest_path.write_text(json.dumps(manifest))

        model = load_model(tmp_path / "model")
        reference = load_model(tmp_path / "model", backend="python")
        try:
            assert model.config.backend == "numpy"
            assert model.assign_all(dblp_small.transactions) == in_memory
            for document in dblp_documents[:8]:
                ours = model.classify(document)
                theirs = reference.classify(document)
                assert (ours.cluster_id, ours.score) == (
                    theirs.cluster_id,
                    theirs.score,
                )
                assert ours.assignments == theirs.assignments
        finally:
            model.close()
            reference.close()


# --------------------------------------------------------------------------- #
# Manifests naming a retired backend
# --------------------------------------------------------------------------- #
def record_backend(directory: Path, spec: str) -> None:
    """Rewrite the manifest as if the model had been fitted on *spec*."""
    manifest_path = directory / MODEL_MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["backend"] = spec
    manifest_path.write_text(json.dumps(manifest))


class TestRetiredBackendManifest:
    @pytest.mark.parametrize("spec", ["sharded:2", "torch"])
    def test_load_fails_before_any_data_file_is_read(
        self, dblp_small, tmp_path, monkeypatch, spec
    ):
        fit_and_save(dblp_small, tmp_path / "model")
        record_backend(tmp_path / "model", spec)
        read = []
        real_read_json = model_store._read_json

        def recording_read_json(directory, name):
            read.append(name)
            return real_read_json(directory, name)

        monkeypatch.setattr(model_store, "_read_json", recording_read_json)
        with pytest.raises(ValueError, match="unknown similarity backend"):
            load_model(tmp_path / "model")
        assert read == [MODEL_MANIFEST_NAME]

    @pytest.mark.parametrize("spec", ["sharded:2", "torch"])
    def test_cli_classify_exits_with_an_error_line(
        self, dblp_small, dblp_documents, tmp_path, spec
    ):
        fit_and_save(dblp_small, tmp_path / "model")
        record_backend(tmp_path / "model", spec)
        document = tmp_path / "query.xml"
        document.write_text(dblp_documents[0], encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "classify",
                "--model", str(tmp_path / "model"), str(document),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode != 0
        lines = completed.stderr.strip().splitlines()
        assert lines[-1].startswith("error: unknown similarity backend")
        assert "Traceback" not in completed.stderr

    def test_backend_override_loads_and_classifies_bit_exactly(
        self, dblp_small, dblp_documents, tmp_path
    ):
        _, _, in_memory = fit_and_save(dblp_small, tmp_path / "model")
        record_backend(tmp_path / "model", "sharded:2")
        vectorised = load_model(tmp_path / "model", backend="numpy")
        reference = load_model(tmp_path / "model", backend="python")
        assert vectorised.assign_all(dblp_small.transactions) == in_memory
        for document in dblp_documents[:8]:
            ours = vectorised.classify(document)
            theirs = reference.classify(document)
            assert (ours.cluster_id, ours.score) == (
                theirs.cluster_id,
                theirs.score,
            )
            assert ours.assignments == theirs.assignments
