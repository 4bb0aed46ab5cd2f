"""Tests for the durable model registry (``repro.store``).

Pin the catalog's lifecycle invariants: append-only versioning with
idempotent re-publish, content fingerprints that actually track content,
retire-as-status-flip (never delete), durable rows across re-opens, the
``save_model`` publish hook, the ``cxk models`` CLI surface, and registry
files written with the earlier schema that cataloged corpus stores.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

pytest.importorskip("numpy")

from repro.cli import main
from repro.core.config import ClusteringConfig
from repro.core.model_store import save_model
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.serving import ModelRouter
from repro.similarity.corpus_store import prepare_engine_corpus
from repro.similarity.item import SimilarityConfig
from repro.store import (
    ModelRegistry,
    RegistryError,
    SqliteModelRegistry,
    model_fingerprint,
    open_registry,
)
from repro.store.registry import STATUS_PUBLISHED, STATUS_RETIRED


def fit_and_save(directory, *, k=4, max_iterations=2, **save_kwargs):
    """Fit a small XK-means model and persist it to *directory*."""
    dataset = get_dataset("DBLP", scale=0.2, seed=0)
    config = ClusteringConfig(
        k=k,
        similarity=SimilarityConfig(f=0.5, gamma=0.8),
        seed=0,
        max_iterations=max_iterations,
        backend="numpy",
    )
    algorithm = XKMeans(config)
    prepare_engine_corpus(algorithm.engine, dataset.transactions)
    result = algorithm.fit(dataset.transactions)
    return save_model(directory, result, config, dataset=dataset, **save_kwargs)


@pytest.fixture(scope="module")
def model_dirs(tmp_path_factory):
    """Two saved model directories with different content (k=4 and k=3)."""
    root = tmp_path_factory.mktemp("registry-models")
    fit_and_save(root / "model-a", k=4)
    fit_and_save(root / "model-b", k=3)
    return root / "model-a", root / "model-b"


class TestFingerprint:
    def test_stable_for_identical_content(self, model_dirs):
        model_a, _ = model_dirs
        assert model_fingerprint(model_a) == model_fingerprint(model_a)

    def test_differs_for_different_content(self, model_dirs):
        model_a, model_b = model_dirs
        assert model_fingerprint(model_a) != model_fingerprint(model_b)

    def test_unreadable_directory_raises(self, tmp_path):
        with pytest.raises(RegistryError, match="cannot fingerprint"):
            model_fingerprint(tmp_path / "absent")


class TestPublish:
    def test_first_publish_is_version_one(self, tmp_path, model_dirs):
        registry = open_registry(tmp_path / "registry.db")
        record = registry.publish("dblp", model_dirs[0])
        assert record.version == 1
        assert record.status == STATUS_PUBLISHED
        assert record.fingerprint == model_fingerprint(model_dirs[0])
        assert record.config["k"] == 4
        assert record.fit

    def test_republish_same_content_is_idempotent(self, tmp_path, model_dirs):
        registry = open_registry(tmp_path / "registry.db")
        first = registry.publish("dblp", model_dirs[0])
        second = registry.publish("dblp", model_dirs[0])
        assert second.version == first.version
        assert len(registry.list_models("dblp")) == 1

    def test_new_content_appends_a_version(self, tmp_path, model_dirs):
        registry = open_registry(tmp_path / "registry.db")
        registry.publish("dblp", model_dirs[0])
        second = registry.publish("dblp", model_dirs[1])
        assert second.version == 2
        # append-only: version 1 is still cataloged, untouched
        versions = [r.version for r in registry.list_models("dblp")]
        assert versions == [1, 2]
        assert registry.active("dblp").version == 2

    def test_invalid_names_are_rejected(self, tmp_path, model_dirs):
        registry = open_registry(tmp_path / "registry.db")
        for bad in ("", "a/b"):
            with pytest.raises(RegistryError, match="invalid model name"):
                registry.publish(bad, model_dirs[0])

    def test_non_model_directory_is_rejected(self, tmp_path):
        registry = open_registry(tmp_path / "registry.db")
        with pytest.raises(RegistryError, match="no readable manifest"):
            registry.publish("dblp", tmp_path)

    def test_rows_survive_reopen(self, tmp_path, model_dirs):
        path = tmp_path / "registry.db"
        open_registry(path).publish("dblp", model_dirs[0])
        reopened = open_registry(path)
        assert reopened.active("dblp").fingerprint == model_fingerprint(
            model_dirs[0]
        )

    def test_sqlite_backend_satisfies_the_protocol(self, tmp_path):
        registry = open_registry(tmp_path / "registry.db")
        assert isinstance(registry, SqliteModelRegistry)
        assert isinstance(registry, ModelRegistry)


class TestLifecycle:
    def test_retire_flips_status_and_promotes_previous(self, tmp_path, model_dirs):
        registry = open_registry(tmp_path / "registry.db")
        registry.publish("dblp", model_dirs[0])
        registry.publish("dblp", model_dirs[1])
        retired = registry.retire("dblp")
        assert retired.version == 2
        assert retired.status == STATUS_RETIRED
        # never deleted: --all style listing still shows it
        assert [r.version for r in registry.list_models("dblp", include_retired=True)] == [1, 2]
        # the older published version becomes active again
        assert registry.active("dblp").version == 1

    def test_show_unknown_name_names_the_catalog(self, tmp_path, model_dirs):
        registry = open_registry(tmp_path / "registry.db")
        registry.publish("dblp", model_dirs[0])
        with pytest.raises(RegistryError, match="cataloged names: dblp"):
            registry.show("nope")

    def test_show_unknown_version_raises(self, tmp_path, model_dirs):
        registry = open_registry(tmp_path / "registry.db")
        registry.publish("dblp", model_dirs[0])
        with pytest.raises(RegistryError, match="no version 9"):
            registry.show("dblp", 9)

    def test_active_models_is_one_record_per_name(self, tmp_path, model_dirs):
        registry = open_registry(tmp_path / "registry.db")
        registry.publish("beta", model_dirs[1])
        registry.publish("alpha", model_dirs[0])
        records = registry.active_models()
        assert [record.name for record in records] == ["alpha", "beta"]

    def test_record_round_trips_to_json(self, tmp_path, model_dirs):
        registry = open_registry(tmp_path / "registry.db")
        record = registry.publish("dblp", model_dirs[0])
        encoded = json.loads(json.dumps(record.to_dict()))
        assert encoded["name"] == "dblp"
        assert encoded["version"] == 1
        assert encoded["fingerprint"] == record.fingerprint


class TestSaveModelHook:
    def test_save_model_publishes_into_the_registry(self, tmp_path):
        registry = open_registry(tmp_path / "registry.db")
        manifest = fit_and_save(
            tmp_path / "model", registry=registry, model_name="hooked"
        )
        assert manifest["registry"]["name"] == "hooked"
        assert manifest["registry"]["version"] == 1
        record = registry.active("hooked")
        assert record.fingerprint == manifest["registry"]["fingerprint"]

    def test_save_model_defaults_the_name_to_the_directory(self, tmp_path):
        registry = open_registry(tmp_path / "registry.db")
        fit_and_save(tmp_path / "dblp-default", registry=registry)
        assert registry.active("dblp-default") is not None



def write_corpus_column_registry(path, directory) -> None:
    """Hand-write a registry file in the schema that cataloged corpus stores.

    Schema version 1 with two nullable ``corpus_*`` columns in ``models``
    and a populated ``corpus_stores`` table, holding one published row
    for the model *directory*.
    """
    connection = sqlite3.connect(str(path))
    with connection:
        connection.executescript(
            "CREATE TABLE registry_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "INSERT INTO registry_meta VALUES ('schema_version', '1');"
            "CREATE TABLE models (name TEXT NOT NULL, version INTEGER NOT NULL,"
            " directory TEXT NOT NULL, fingerprint TEXT NOT NULL,"
            " status TEXT NOT NULL, created_at TEXT NOT NULL,"
            " config TEXT NOT NULL, fit TEXT NOT NULL,"
            " corpus_fingerprint TEXT, corpus_store_dir TEXT, bench TEXT,"
            " PRIMARY KEY (name, version));"
            "CREATE TABLE corpus_stores (fingerprint TEXT PRIMARY KEY,"
            " directory TEXT NOT NULL, transactions INTEGER NOT NULL,"
            " first_published TEXT NOT NULL);"
            "INSERT INTO corpus_stores VALUES"
            " ('c0ffee', '/cache/c0ffee', 42, '2026-01-01T00:00:00+00:00');"
        )
        connection.execute(
            "INSERT INTO models VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                "legacy",
                1,
                str(directory),
                model_fingerprint(directory),
                STATUS_PUBLISHED,
                "2026-01-01T00:00:00+00:00",
                json.dumps({"k": 4}),
                json.dumps({"iterations": 2}),
                "c0ffee",
                "/cache/c0ffee",
                None,
            ),
        )
    connection.close()


class TestCorpusColumnSchema:
    def test_corpus_column_file_keeps_working(
        self, tmp_path, model_dirs
    ):
        model_a, model_b = model_dirs
        path = tmp_path / "registry.db"
        write_corpus_column_registry(path, model_a)
        registry = open_registry(path)

        (listed,) = registry.list_models()
        assert (listed.name, listed.version) == ("legacy", 1)
        shown = registry.show("legacy")
        assert shown.directory == str(model_a)
        assert shown.config == {"k": 4}
        assert "corpus_store_dir" not in shown.to_dict()

        published = registry.publish("legacy", model_b)
        assert published.version == 2
        assert [r.version for r in registry.active_models()] == [2]
        targets = ModelRouter(registry=registry).targets()
        assert targets["legacy"].fingerprint == model_fingerprint(model_b)

        retired = registry.retire("legacy")
        assert (retired.version, retired.status) == (2, STATUS_RETIRED)
        assert [r.version for r in registry.active_models()] == [1]
        assert ModelRouter(registry=registry).targets()["legacy"].version == 1


class TestModelsCli:
    def test_publish_list_show_retire_round_trip(
        self, tmp_path, model_dirs, capsys
    ):
        registry_path = str(tmp_path / "registry.db")
        assert main(
            ["models", "--registry", registry_path, "publish", "dblp",
             str(model_dirs[0])]
        ) == 0
        assert "published dblp v1" in capsys.readouterr().out

        assert main(["models", "--registry", registry_path, "list"]) == 0
        listing = capsys.readouterr().out
        assert "dblp" in listing and "published" in listing

        assert main(["models", "--registry", registry_path, "show", "dblp"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["version"] == 1
        assert record["directory"] == str(model_dirs[0].resolve())

        assert main(["models", "--registry", registry_path, "retire", "dblp"]) == 0
        assert "retired dblp v1" in capsys.readouterr().out

        assert main(["models", "--registry", registry_path, "list"]) == 0
        assert "no models cataloged" in capsys.readouterr().out
        assert main(["models", "--registry", registry_path, "list", "--all"]) == 0
        assert "retired" in capsys.readouterr().out

    def test_show_of_an_unknown_name_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="error:"):
            main(
                ["models", "--registry", str(tmp_path / "registry.db"),
                 "show", "ghost"]
            )

    def test_cluster_registry_flag_publishes(self, tmp_path, capsys):
        status = main(
            [
                "cluster", "--corpus", "DBLP", "--scale", "0.2",
                "--algorithm", "xk", "--backend", "numpy",
                "--max-iterations", "2",
                "--save-model", str(tmp_path / "model"),
                "--registry", str(tmp_path / "registry.db"),
                "--model-name", "cli-published",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "registry  : published cli-published v1" in out
        assert open_registry(tmp_path / "registry.db").active("cli-published")

    def test_cluster_registry_requires_save_model(self):
        with pytest.raises(SystemExit, match="--registry requires --save-model"):
            main(
                ["cluster", "--corpus", "DBLP", "--scale", "0.2",
                 "--algorithm", "xk", "--registry", "r.db"]
            )
