"""Concurrency tests for the async multi-model server (``repro.serving``).

Pin the contracts that make the async server operable: parallel clients
against two routed models get **bit-exact** the verdicts a direct
:class:`~repro.core.model_store.ClusterModel` produces; a hot reload in
the middle of live traffic drops zero requests; a graceful drain
(`shutdown_threadsafe` in-process, SIGTERM against the real CLI
subprocess) finishes in-flight work and exits cleanly; and the routing /
stats / error surfaces answer what ``docs/SERVING.md`` documents.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.core.config import ClusteringConfig
from repro.core.model_store import load_model, save_model
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_corpus, get_dataset
from repro.serving import MAX_REQUEST_BYTES, AsyncModelServer, ModelRouter
from repro.similarity.corpus_store import clear_store_cache, prepare_engine_corpus
from repro.similarity.item import SimilarityConfig
from repro.store.registry import RegistryError, SqliteModelRegistry, model_fingerprint
from repro.xmlmodel.serializer import serialize


def fetch_with_retry(url, data=None, method="GET", attempts=100):
    """GET/POST *url*, retrying while the server socket is not yet bound."""
    request = urllib.request.Request(url, data=data, method=method)
    for attempt in range(attempts):
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.URLError:
            if attempt == attempts - 1:
                raise
            time.sleep(0.05)


def free_port():
    """An ephemeral localhost port number."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture(autouse=True)
def isolated_caches():
    """Start and end every test with an empty store cache."""
    clear_store_cache()
    yield
    clear_store_cache()


def fit_and_save(directory, *, k, max_iterations=2):
    """Fit a small XK-means model on DBLP scale 0.2 and persist it."""
    clear_store_cache()
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
    save_model(directory, result, config, dataset=dataset)
    return directory


@pytest.fixture(scope="module")
def registry_path(tmp_path_factory):
    """A registry cataloging two differently-shaped models (and a spare).

    ``spare`` is a third directory with different content, published as a
    new version of ``alpha`` by the hot-reload tests.
    """
    root = tmp_path_factory.mktemp("async-serving")
    fit_and_save(root / "alpha", k=4)
    fit_and_save(root / "beta", k=3)
    fit_and_save(root / "spare", k=5)
    registry = SqliteModelRegistry(root / "registry.db")
    registry.publish("alpha", root / "alpha")
    registry.publish("beta", root / "beta")
    return root / "registry.db"


@pytest.fixture(scope="module")
def documents():
    """Serialized corpus documents used as the query stream."""
    return [serialize(tree) for tree in get_corpus("DBLP", scale=0.2, seed=0).trees]


@contextmanager
def running_server(registry_path=None, *, router=None, **kwargs):
    """Run an :class:`AsyncModelServer` on a background thread (routing the
    registry at *registry_path* unless a *router* is given)."""
    port = free_port()
    server = AsyncModelServer(
        router or ModelRouter(registry=SqliteModelRegistry(registry_path)),
        port=port,
        **kwargs,
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run(install_signal_handlers=False)),
        daemon=True,
    )
    thread.start()
    assert server.started.wait(timeout=30)
    try:
        yield server, f"http://127.0.0.1:{port}"
    finally:
        server.shutdown_threadsafe()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestRouting:
    def test_parallel_clients_match_direct_classify_bit_exactly(
        self, registry_path, documents
    ):
        registry = SqliteModelRegistry(registry_path)
        expected = {}
        for name in ("alpha", "beta"):
            model = load_model(registry.active(name).directory)
            expected[name] = [
                model.classify(document).to_dict() for document in documents
            ]
            model.close()

        with running_server(registry_path) as (server, base):
            def query(task):
                name, index = task
                return name, index, fetch_with_retry(
                    f"{base}/models/{name}/classify",
                    data=documents[index].encode("utf-8"),
                    method="POST",
                )

            tasks = [
                (name, index)
                for name in ("alpha", "beta")
                for index in range(len(documents))
            ]
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(pool.map(query, tasks))

        assert len(responses) == len(tasks)
        for name, index, payload in responses:
            reference = expected[name][index]
            assert payload["model"] == name
            assert payload["cluster_id"] == reference["cluster_id"]
            assert payload["score"] == reference["score"]
            assert payload["assignments"] == reference["assignments"]

    def test_single_route_exposes_bare_classify(self, tmp_path, documents):
        fit_and_save(tmp_path / "solo", k=4)
        registry = SqliteModelRegistry(tmp_path / "solo.db")
        registry.publish("solo", tmp_path / "solo")
        with running_server(tmp_path / "solo.db") as (server, base):
            payload = fetch_with_retry(
                f"{base}/classify", data=documents[0].encode("utf-8"),
                method="POST",
            )
            assert payload["model"] == "solo"

    def test_unknown_model_answers_404_with_the_routes(self, registry_path):
        with running_server(registry_path) as (server, base):
            request = urllib.request.Request(
                f"{base}/models/ghost/classify", data=b"<a/>", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(request, timeout=10)
            assert failure.value.code == 404
            body = json.loads(failure.value.read())
            assert body["models"] == ["alpha", "beta"]

    def test_malformed_xml_answers_400_and_counts_an_error(
        self, registry_path
    ):
        with running_server(registry_path) as (server, base):
            request = urllib.request.Request(
                f"{base}/models/alpha/classify", data=b"<broken", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(request, timeout=10)
            assert failure.value.code == 400
            stats = fetch_with_retry(f"{base}/models/alpha/stats")
            assert stats["errors"] == 1
            assert stats["requests"] == 0

    def test_non_utf8_body_answers_400_and_counts_an_error(self, registry_path):
        with running_server(registry_path) as (server, base):
            request = urllib.request.Request(
                f"{base}/models/alpha/classify", data=b"<a>\xff\xfe</a>", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(request, timeout=10)
            assert failure.value.code == 400
            assert "utf-8" in json.loads(failure.value.read())["error"]
            stats = fetch_with_retry(f"{base}/models/alpha/stats")
            assert (stats["errors"], stats["requests"]) == (1, 0)

    @pytest.mark.parametrize(
        "length,message",
        [("abc", "invalid Content-Length"), (str(MAX_REQUEST_BYTES + 1), "exceeds")],
        ids=["not-a-number", "over-the-bound"],
    )
    def test_bad_content_length_answers_400_before_reading_a_body(
        self, registry_path, length, message
    ):
        import socket

        with running_server(registry_path) as (server, base):
            port = int(base.rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(
                    b"POST /models/alpha/classify HTTP/1.1\r\n"
                    + f"Content-Length: {length}\r\n\r\n".encode("ascii")
                )
                response = b""
                while chunk := sock.recv(4096):
                    response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0].split()[1] == b"400"
            assert message in json.loads(body)["error"]

    def test_models_route_lists_the_stats_of_every_route(self, registry_path):
        with running_server(registry_path) as (server, base):
            listing = fetch_with_retry(f"{base}/models")
            assert sorted(entry["model"] for entry in listing["models"]) == ["alpha", "beta"]
            assert all(entry["requests"] == 0 for entry in listing["models"])

    def test_deeply_nested_xml_answers_400(self, registry_path):
        with running_server(registry_path) as (server, base):
            request = urllib.request.Request(
                f"{base}/models/alpha/classify",
                data=b"<a>" * 3000,
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(request, timeout=10)
            assert failure.value.code == 400
            assert "nesting" in json.loads(failure.value.read())["error"]

    def test_stats_report_counters_and_percentiles(
        self, registry_path, documents
    ):
        with running_server(registry_path) as (server, base):
            for index in range(3):
                fetch_with_retry(
                    f"{base}/models/beta/classify",
                    data=documents[index].encode("utf-8"),
                    method="POST",
                )
            stats = fetch_with_retry(f"{base}/models/beta/stats")
            assert stats["model"] == "beta"
            assert stats["requests"] == 3
            assert stats["errors"] == 0
            assert stats["version"] == 1
            assert stats["latency_ms_p50"] > 0.0
            assert stats["latency_ms_p99"] >= stats["latency_ms_p50"]
            health = fetch_with_retry(f"{base}/healthz")
            assert health["status"] == "ok"
            assert set(health["models"]) == {"alpha", "beta"}

    def test_router_rejects_unknown_requested_names(self, registry_path):
        router = ModelRouter(
            registry=SqliteModelRegistry(registry_path), names=["alpha", "ghost"]
        )
        with pytest.raises(RegistryError, match="ghost"):
            router.targets()

    def test_static_router_serves_a_directory(self, tmp_path, documents):
        fit_and_save(tmp_path / "static-model", k=4)
        port = free_port()
        server = AsyncModelServer(
            ModelRouter(model_dirs={"static-model": str(tmp_path / "static-model")}),
            port=port,
        )
        thread = threading.Thread(
            target=lambda: asyncio.run(server.run(install_signal_handlers=False)),
            daemon=True,
        )
        thread.start()
        assert server.started.wait(timeout=30)
        try:
            payload = fetch_with_retry(
                f"http://127.0.0.1:{port}/models/static-model/classify",
                data=documents[0].encode("utf-8"),
                method="POST",
            )
            assert payload["model"] == "static-model"
        finally:
            server.shutdown_threadsafe()
            thread.join(timeout=30)

    def test_router_requires_exactly_one_source(self, registry_path):
        with pytest.raises(ValueError, match="exactly one source"):
            ModelRouter()
        with pytest.raises(ValueError, match="exactly one source"):
            ModelRouter(
                registry=SqliteModelRegistry(registry_path), model_dirs={"a": "b"}
            )


class TestHotReload:
    def test_reload_swaps_fingerprint_changed_models_mid_traffic(
        self, registry_path, documents
    ):
        """A publish + reload under live traffic drops zero requests."""
        registry = SqliteModelRegistry(registry_path)
        spare = Path(registry_path).parent / "spare"
        with running_server(registry_path) as (server, base):
            stop = threading.Event()
            outcomes = []

            def hammer():
                index = 0
                while not stop.is_set():
                    try:
                        payload = fetch_with_retry(
                            f"{base}/models/alpha/classify",
                            data=documents[index % len(documents)].encode("utf-8"),
                            method="POST",
                            attempts=1,
                        )
                        outcomes.append(("ok", payload["version"]))
                    except Exception as error:  # noqa: BLE001 - recorded
                        outcomes.append(("error", repr(error)))
                    index += 1

            clients = [threading.Thread(target=hammer) for _ in range(4)]
            for client in clients:
                client.start()
            time.sleep(0.3)
            registry.publish("alpha", spare)
            reloaded = fetch_with_retry(f"{base}/reload", data=b"", method="POST")
            assert reloaded["reloaded"]["swapped"] == ["alpha"]
            time.sleep(0.3)
            stop.set()
            for client in clients:
                client.join(timeout=30)

            dropped = [outcome for outcome in outcomes if outcome[0] == "error"]
            assert outcomes and not dropped
            versions = {version for _, version in outcomes}
            # traffic crossed the swap: both versions answered, none failed
            assert versions == {1, 2}
            stats = fetch_with_retry(f"{base}/models/alpha/stats")
            assert stats["version"] == 2
            assert stats["reloads"] == 1
            assert stats["requests"] == len(outcomes)
        # leave the registry as the other tests expect it
        registry.retire("alpha", 2)

    def test_identical_fingerprint_republish_swaps_nothing(self, registry_path):
        registry = SqliteModelRegistry(registry_path)
        with running_server(registry_path) as (server, base):
            registry.publish("beta", registry.active("beta").directory)
            reloaded = fetch_with_retry(f"{base}/reload", data=b"", method="POST")
            assert reloaded["reloaded"] == {
                "swapped": [], "added": [], "removed": [], "failed": {}
            }

    def test_failed_load_keeps_its_route_and_the_others_still_swap(
        self, registry_path, tmp_path, documents
    ):
        """A broken re-save of one route is reported with its error and
        keeps serving its old model; a good re-save of the next route
        still swaps in the same reload."""
        root = Path(registry_path).parent
        broken = shutil.copytree(root / "alpha", tmp_path / "broken")
        good = shutil.copytree(root / "beta", tmp_path / "good")
        router = ModelRouter(model_dirs={"broken": str(broken), "good": str(good)})
        with running_server(router=router) as (server, base):
            before = fetch_with_retry(f"{base}/models/broken/stats")
            manifest = json.loads((broken / "model.json").read_text())
            del manifest["config"]["k"]
            (broken / "model.json").write_text(json.dumps(manifest))
            shutil.rmtree(good)
            shutil.copytree(root / "spare", good)

            reloaded = fetch_with_retry(f"{base}/reload", data=b"", method="POST")

            assert reloaded["reloaded"]["swapped"] == ["good"]
            assert list(reloaded["reloaded"]["failed"]) == ["broken"]
            assert "lacks key 'k'" in reloaded["reloaded"]["failed"]["broken"]
            stats = fetch_with_retry(f"{base}/models/broken/stats")
            assert stats["fingerprint"] == before["fingerprint"]
            assert stats["reloads"] == 0
            payload = fetch_with_retry(
                f"{base}/models/broken/classify",
                data=documents[0].encode("utf-8"),
                method="POST",
            )
            assert payload["model"] == "broken"
            stats = fetch_with_retry(f"{base}/models/good/stats")
            assert stats["fingerprint"] == model_fingerprint(root / "spare")
            assert stats["reloads"] == 1

    def test_poll_interval_reloads_without_a_call(
        self, registry_path, documents
    ):
        registry = SqliteModelRegistry(registry_path)
        spare = Path(registry_path).parent / "spare"
        with running_server(registry_path, poll_interval=0.1) as (server, base):
            before = fetch_with_retry(f"{base}/models/alpha/stats")
            assert before["version"] == 1
            record = registry.publish("alpha", spare)
            deadline = time.time() + 10
            while time.time() < deadline:
                stats = fetch_with_retry(f"{base}/models/alpha/stats")
                if stats["version"] == record.version:
                    break
                time.sleep(0.05)
            assert stats["version"] == record.version
            assert stats["fingerprint"] == model_fingerprint(spare)
        registry.retire("alpha", record.version)


class TestDrain:
    def test_drain_finishes_inflight_and_refuses_new_work(
        self, registry_path, documents
    ):
        with running_server(registry_path) as (server, base):
            results = []

            def slow_burst():
                for index in range(5):
                    results.append(
                        fetch_with_retry(
                            f"{base}/models/alpha/classify",
                            data=documents[index].encode("utf-8"),
                            method="POST",
                        )
                    )

            burst = threading.Thread(target=slow_burst)
            burst.start()
            burst.join(timeout=30)
            server.shutdown_threadsafe()
            deadline = time.time() + 10
            while time.time() < deadline and not server._draining:
                time.sleep(0.01)
            # every request that was answered, was answered completely
            assert len(results) == 5
            assert all(payload["model"] == "alpha" for payload in results)
            with pytest.raises(urllib.error.URLError):
                request = urllib.request.Request(
                    f"{base}/models/alpha/classify",
                    data=documents[0].encode("utf-8"),
                    method="POST",
                )
                urllib.request.urlopen(request, timeout=2)

    def test_max_requests_drains_the_server(self, registry_path, documents):
        port = free_port()
        server = AsyncModelServer(
            ModelRouter(registry=SqliteModelRegistry(registry_path)),
            port=port,
            max_requests=2,
        )
        thread = threading.Thread(
            target=lambda: asyncio.run(server.run(install_signal_handlers=False)),
            daemon=True,
        )
        thread.start()
        assert server.started.wait(timeout=30)
        base = f"http://127.0.0.1:{port}"
        fetch_with_retry(f"{base}/healthz")
        fetch_with_retry(
            f"{base}/models/alpha/classify",
            data=documents[0].encode("utf-8"),
            method="POST",
        )
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_sigterm_drains_the_cli_server(self, registry_path, documents):
        """The real subprocess path: SIGTERM -> graceful drain -> exit 0."""
        port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--registry", str(registry_path),
                "--port", str(port),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            base = f"http://127.0.0.1:{port}"
            payload = fetch_with_retry(
                f"{base}/models/alpha/classify",
                data=documents[0].encode("utf-8"),
                method="POST",
                attempts=400,
            )
            assert payload["model"] == "alpha"
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
        assert process.returncode == 0, output
        assert "async router" in output
