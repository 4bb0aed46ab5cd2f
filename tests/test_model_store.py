"""Round-trip, validation and warm-query tests for the fitted-model store.

``repro/core/model_store.py`` persists a fitted clustering (representatives,
config, vocabulary + collection statistics, tag-path registry, corpus-store
linkage) and serves classification queries from the reloaded model.  These
tests pin its contract:

* ``fit -> save_model -> load_model -> assign_all`` is **bit-exact** against
  the in-memory model on the python / numpy / tiled backends;
* payload encoding round-trips values exactly (hypothesis property suite:
  ordered sparse vectors, items, transactions through JSON);
* a reload of a store-backed model is a store **hit** that performs zero
  corpus compile work through load *and* classify;
* tampered manifests (format version), missing/corrupt blocks and
  unwritable directories are rejected with ``ModelStoreError`` (the CLI and
  runner degrade instead of failing the run);
* a manifest naming a backend that is no longer registered (models saved
  under the retired ``sharded`` / ``torch`` backends) fails with the
  unknown-backend ``ValueError`` before any data file is read, and still
  loads with an explicit backend override;
* the CXK local phase narrows store-attach failures to expected errors,
  reports them as ``store_fallback`` and never recompiles an attached
  corpus (``corpus_compile_count == 0`` on the store-backed worker path).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans, LocalPhaseInput, run_local_phase
from repro.core import model_store
from repro.core.model_store import (
    MODEL_FORMAT_VERSION,
    MODEL_MANIFEST_NAME,
    ClusterModel,
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
from repro.experiments.runner import run_configuration
from repro.network.mpengine import clear_process_engines, store_process_engine
from repro.similarity.corpus_store import (
    clear_store_cache,
    prepare_engine_corpus,
)
from repro.similarity.item import SimilarityConfig
from repro.text.vector import SparseVector
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction
from repro.xmlmodel.paths import XMLPath
from repro.xmlmodel.serializer import serialize


@pytest.fixture(autouse=True)
def isolated_caches():
    """Start and end every test with empty engine and store caches."""
    clear_process_engines()
    clear_store_cache()
    yield
    clear_process_engines()
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


def fit_and_save(dataset, directory, backend="numpy", cache_dir=None, **overrides):
    """Fit XK-means, save the model, return (config, result, in-memory rows)."""
    config = make_config(
        backend, corpus_cache_dir=str(cache_dir) if cache_dir else None, **overrides
    )
    algorithm = XKMeans(config)
    prepare_engine_corpus(
        algorithm.engine, dataset.transactions, cache_dir=cache_dir
    )
    result = algorithm.fit(dataset.transactions)
    in_memory = algorithm.engine.assign_all(
        dataset.transactions, result.representatives()
    )
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
        config, result, in_memory = fit_and_save(
            dblp_small, tmp_path / "model", backend=backend
        )
        model = load_model(tmp_path / "model")
        try:
            assert model.assign_all(dblp_small.transactions) == in_memory
            assert model.representatives == result.representatives()
        finally:
            model.close()

    def test_manifest_round_trips_the_config(self, dblp_small, tmp_path):
        config, _, _ = fit_and_save(
            dblp_small,
            tmp_path / "model",
            backend="numpy",
            batch_block_items=64,
            refine_workers=2,
            max_representative_items=11,
        )
        model = load_model(tmp_path / "model")
        loaded = model.config
        assert loaded.k == config.k
        assert loaded.similarity == config.similarity
        assert loaded.seed == config.seed
        assert loaded.max_iterations == config.max_iterations
        assert loaded.max_representative_items == 11
        assert loaded.backend == config.backend
        assert loaded.batch_block_items == 64
        assert loaded.refine_workers == 2
        assert loaded.effective_backend == config.effective_backend

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
# Warm store path: zero compile work through load and classify
# --------------------------------------------------------------------------- #
class TestWarmStorePath:
    def test_store_hit_load_and_classify_compile_nothing(
        self, dblp_small, dblp_documents, tmp_path
    ):
        _, _, in_memory = fit_and_save(
            dblp_small, tmp_path / "model", cache_dir=tmp_path / "cache"
        )
        clear_store_cache()
        model = load_model(tmp_path / "model")
        assert model.store_status == "hit"
        assert model.assign_all(dblp_small.transactions) == in_memory
        for document in dblp_documents[:5]:
            model.classify(document)
        stats = model.stats()
        assert stats["corpus_compile_count"] == 0
        assert stats["queries"] == 5

    def test_missing_store_degrades_to_cold_with_exact_assignments(
        self, dblp_small, tmp_path
    ):
        _, _, in_memory = fit_and_save(
            dblp_small, tmp_path / "model", cache_dir=tmp_path / "cache"
        )
        clear_store_cache()
        manifest = json.loads((tmp_path / "model" / "model.json").read_text())
        store_dir = Path(manifest["corpus"]["store_dir"])
        (store_dir / "manifest.json").unlink()
        model = load_model(tmp_path / "model")
        assert model.store_status == "cold"
        assert model.assign_all(dblp_small.transactions) == in_memory

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


# --------------------------------------------------------------------------- #
# Runner integration: auto-save + store/store_fallback run-record fields
# --------------------------------------------------------------------------- #
class TestRunnerAutoSave:
    def test_run_configuration_saves_a_servable_model(
        self, dblp_small, tmp_path
    ):
        record = run_configuration(
            dblp_small,
            goal="hybrid",
            nodes=1,
            f=0.5,
            gamma=0.8,
            seed=0,
            algorithm="xk",
            max_iterations=2,
            backend="numpy",
            save_model_dir=str(tmp_path / "model"),
        )
        assert record.model["model"] == "saved"
        assert record.store == "off"
        assert record.store_fallback == 0
        model = load_model(tmp_path / "model")
        assert isinstance(model, ClusterModel)
        assert len(model.assignment_representatives) == record.k

    def test_run_configuration_degrades_on_unwritable_model_dir(
        self, dblp_small, tmp_path
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way", encoding="utf-8")
        record = run_configuration(
            dblp_small,
            goal="hybrid",
            nodes=1,
            f=0.5,
            gamma=0.8,
            seed=0,
            algorithm="xk",
            max_iterations=2,
            backend="numpy",
            save_model_dir=str(blocker / "model"),
        )
        assert record.model["model"] == "error"
        assert "error" in record.model
        # the clustering itself succeeded regardless
        assert record.iterations >= 1


# --------------------------------------------------------------------------- #
# CXK store-fallback accounting + no-recompile on the worker path
# --------------------------------------------------------------------------- #
def make_phase_input(dataset, store_dir=None, backend="numpy"):
    transactions = dataset.transactions
    return LocalPhaseInput(
        peer_id=0,
        transactions=list(transactions),
        global_representatives=list(transactions[:3]),
        config=make_config(backend),
        store_dir=str(store_dir) if store_dir is not None else None,
    )


class TestStoreFallback:
    def test_poisoned_store_dir_counts_a_fallback_and_still_clusters(
        self, dblp_small, tmp_path
    ):
        engine = XKMeans(make_config()).engine
        status = prepare_engine_corpus(
            engine, dblp_small.transactions, cache_dir=tmp_path
        )
        store_dir = Path(status["directory"])
        (store_dir / "manifest.json").write_text("{ truncated")
        clear_store_cache()
        clear_process_engines()

        clean = run_local_phase(make_phase_input(dblp_small, store_dir=None))
        poisoned = run_local_phase(
            make_phase_input(dblp_small, store_dir=store_dir)
        )
        assert poisoned.store_fallback == 1
        assert clean.store_fallback == 0
        assert poisoned.assignment == clean.assignment
        assert poisoned.local_representatives == clean.local_representatives

    def test_unexpected_attach_errors_propagate(
        self, dblp_small, tmp_path, monkeypatch
    ):
        import repro.core.cxkmeans as cxkmeans_module

        def explode(*args, **kwargs):
            raise RuntimeError("not a store problem")

        monkeypatch.setattr(cxkmeans_module, "store_process_engine", explode)
        with pytest.raises(RuntimeError, match="not a store problem"):
            run_local_phase(make_phase_input(dblp_small, store_dir=tmp_path))

    def test_store_backed_worker_phase_compiles_nothing(
        self, dblp_small, tmp_path
    ):
        engine = XKMeans(make_config()).engine
        status = prepare_engine_corpus(
            engine, dblp_small.transactions, cache_dir=tmp_path
        )
        store_dir = status["directory"]
        clear_store_cache()
        clear_process_engines()

        output = run_local_phase(make_phase_input(dblp_small, store_dir=store_dir))
        assert output.store_fallback == 0
        worker_engine = store_process_engine(SIMILARITY, "numpy", store_dir)
        assert worker_engine.backend.attached_store is not None
        assert worker_engine.backend.corpus_compile_count == 0

    def test_cxk_fit_metadata_reports_zero_fallbacks_on_a_healthy_run(
        self, dblp_small
    ):
        from repro.core.partition import PartitioningScheme, partition

        parts = partition(
            dblp_small.transactions, 2, PartitioningScheme.EQUAL, seed=0
        )
        result = CXKMeans(make_config(max_iterations=2)).fit(parts)
        assert result.metadata["store_fallback"] == 0
