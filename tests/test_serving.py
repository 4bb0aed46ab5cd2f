"""Tests for the serving layer (WSGI app, stdin protocol, CLI commands).

Pin the thin serving surface over a loaded model: the WSGI routes and
error statuses, the stdin line protocol (one XML file path in, one JSON
verdict out, per-line error isolation), the live HTTP server, and the
``cxk cluster --save-model`` / ``cxk classify`` / ``cxk serve`` CLI flows
including the grep-able ``store     : hit`` banner the CI smoke asserts.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.request
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.cli import main
from repro.core.config import ClusteringConfig
from repro.core.model_store import load_model, save_model
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_corpus, get_dataset
from repro.network.mpengine import clear_process_engines
from repro.serving import (
    classify_payload,
    make_wsgi_app,
    serve_http,
    serve_stdin,
)
from repro.similarity.corpus_store import clear_store_cache, prepare_engine_corpus
from repro.similarity.item import SimilarityConfig
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
def model_dir(tmp_path_factory):
    """A fitted, store-backed model directory shared by the module."""
    root = tmp_path_factory.mktemp("serving")
    dataset = get_dataset("DBLP", scale=0.2, seed=0)
    config = ClusteringConfig(
        k=4,
        similarity=SimilarityConfig(f=0.5, gamma=0.8),
        seed=0,
        max_iterations=3,
        backend="numpy",
        corpus_cache_dir=str(root / "cache"),
    )
    algorithm = XKMeans(config)
    prepare_engine_corpus(
        algorithm.engine, dataset.transactions, cache_dir=root / "cache"
    )
    result = algorithm.fit(dataset.transactions)
    save_model(
        root / "model", result, config, dataset=dataset, engine=algorithm.engine
    )
    return root / "model"


@pytest.fixture(scope="module")
def xml_files(tmp_path_factory):
    """A few corpus documents serialized to disk for file-based queries."""
    root = tmp_path_factory.mktemp("xml-docs")
    paths = []
    for tree in get_corpus("DBLP", scale=0.2, seed=0).trees[:3]:
        path = root / f"{tree.doc_id}.xml"
        path.write_text(serialize(tree), encoding="utf-8")
        paths.append(path)
    return paths


def fetch_with_retry(url, data=None, method="GET", attempts=100):
    """GET/POST *url*, retrying while the server socket is not yet bound."""
    import time
    import urllib.error

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


def call_wsgi(app, method="GET", path="/", body=b""):
    """Invoke a WSGI app directly; return (status, parsed JSON body)."""
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(body)),
        "wsgi.input": io.BytesIO(body),
    }
    chunks = b"".join(app(environ, start_response))
    return captured["status"], json.loads(chunks.decode("utf-8"))


class TestWsgiApp:
    def test_health_route_reports_stats(self, model_dir):
        model = load_model(model_dir)
        status, payload = call_wsgi(make_wsgi_app(model), "GET", "/healthz")
        assert status == "200 OK"
        assert payload["status"] == "ok"
        assert payload["store"] == "hit"
        assert payload["corpus_compile_count"] == 0

    def test_classify_route_returns_a_verdict(self, model_dir):
        model = load_model(model_dir)
        document = serialize(get_corpus("DBLP", scale=0.2, seed=0).trees[0])
        status, payload = call_wsgi(
            make_wsgi_app(model), "POST", "/classify", document.encode("utf-8")
        )
        assert status == "200 OK"
        assert payload["cluster_id"] >= -1
        assert payload["transactions"] >= 1
        assert payload["latency_ms"] >= 0.0
        assert payload["assignments"]

    def test_malformed_xml_answers_400(self, model_dir):
        model = load_model(model_dir)
        status, payload = call_wsgi(
            make_wsgi_app(model), "POST", "/classify", b"<broken"
        )
        assert status == "400 Bad Request"
        assert "error" in payload

    def test_unknown_route_answers_404(self, model_dir):
        model = load_model(model_dir)
        status, payload = call_wsgi(make_wsgi_app(model), "GET", "/nope")
        assert status == "404 Not Found"
        assert "error" in payload

    def test_classify_payload_reports_latency(self, model_dir):
        model = load_model(model_dir)
        document = serialize(get_corpus("DBLP", scale=0.2, seed=0).trees[1])
        payload = classify_payload(model, document)
        assert payload["latency_ms"] > 0.0
        assert payload["cluster_id"] >= -1


class TestStdinProtocol:
    def test_lines_in_verdicts_out(self, model_dir, xml_files):
        model = load_model(model_dir)
        source = io.StringIO(
            f"{xml_files[0]}\n\n{xml_files[1]}\n{xml_files[0].parent}/missing.xml\n"
        )
        sink = io.StringIO()
        answered = serve_stdin(model, source, sink)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert answered == 3
        assert lines[0]["file"] == str(xml_files[0])
        assert lines[0]["cluster_id"] >= -1
        assert lines[1]["cluster_id"] >= -1
        # a missing file yields an error line, not a crash
        assert "error" in lines[2]

    def test_deeply_nested_document_does_not_end_the_loop(
        self, model_dir, xml_files, tmp_path
    ):
        deep = tmp_path / "deep.xml"
        deep.write_text("<a>" * 3000, encoding="utf-8")
        model = load_model(model_dir)
        source = io.StringIO(f"{deep}\n{xml_files[0]}\n")
        sink = io.StringIO()
        answered = serve_stdin(model, source, sink)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert answered == 2
        assert lines[0]["file"] == str(deep)
        assert "nesting" in lines[0]["error"]
        assert lines[1]["file"] == str(xml_files[0])
        assert lines[1]["cluster_id"] >= -1


class TestHttpServer:
    def test_live_server_answers_health_and_classify(self, model_dir, xml_files):
        port = free_port()
        model = load_model(model_dir)
        server = threading.Thread(
            target=serve_http,
            kwargs=dict(model=model, host="127.0.0.1", port=port, max_requests=2),
            daemon=True,
        )
        server.start()
        health = fetch_with_retry(f"http://127.0.0.1:{port}/healthz")
        assert health["status"] == "ok"
        verdict = fetch_with_retry(
            f"http://127.0.0.1:{port}/classify",
            data=xml_files[0].read_bytes(),
            method="POST",
        )
        assert verdict["cluster_id"] >= -1
        server.join(timeout=10)
        assert not server.is_alive()

    def test_stalled_client_cannot_block_the_server(self, model_dir):
        """Regression: a client that connects and sends nothing used to
        block the single-threaded wsgiref loop forever; the per-connection
        timeout now drops it and the next client is served."""
        import socket

        port = free_port()
        model = load_model(model_dir)
        server = threading.Thread(
            target=serve_http,
            kwargs=dict(
                model=model, host="127.0.0.1", port=port, max_requests=2,
                request_timeout=0.5,
            ),
            daemon=True,
        )
        server.start()
        # connect but never send a request line: without the timeout this
        # holds the (one-request-at-a-time) server hostage
        import time

        for attempt in range(100):
            try:
                stalled = socket.create_connection(("127.0.0.1", port), timeout=10)
                break
            except OSError:
                if attempt == 99:
                    raise
                time.sleep(0.05)
        try:
            health = fetch_with_retry(f"http://127.0.0.1:{port}/healthz")
            assert health["status"] == "ok"
        finally:
            stalled.close()
        server.join(timeout=10)
        assert not server.is_alive()


class TestCli:
    def test_cluster_save_model_then_classify(
        self, tmp_path, xml_files, capsys
    ):
        status = main(
            [
                "cluster",
                "--corpus",
                "DBLP",
                "--scale",
                "0.2",
                "--algorithm",
                "xk",
                "--backend",
                "numpy",
                "--max-iterations",
                "2",
                "--corpus-cache",
                str(tmp_path / "cache"),
                "--save-model",
                str(tmp_path / "model"),
            ]
        )
        assert status == 0
        assert f"model     : saved -> {tmp_path / 'model'}" in capsys.readouterr().out
        clear_store_cache()
        status = main(
            ["classify", "--model", str(tmp_path / "model"), str(xml_files[0])]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "store     : hit (compiled 0 transactions)" in out
        assert f"{xml_files[0]}: cluster=" in out

    def test_cluster_save_model_degrades_on_unwritable_dir(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way", encoding="utf-8")
        status = main(
            [
                "cluster",
                "--corpus",
                "DBLP",
                "--scale",
                "0.2",
                "--algorithm",
                "xk",
                "--backend",
                "numpy",
                "--max-iterations",
                "2",
                "--save-model",
                str(blocker / "model"),
            ]
        )
        assert status == 0
        assert "model     : error" in capsys.readouterr().out

    def test_classify_of_a_missing_model_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="error:"):
            main(["classify", "--model", str(tmp_path / "absent"), "x.xml"])

    def test_serve_stdin_round_trip(
        self, model_dir, xml_files, capsys, monkeypatch
    ):
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{xml_files[0]}\n"))
        status = main(["serve", "--model", str(model_dir)])
        out = capsys.readouterr().out
        assert status == 0
        assert "serving   : stdin" in out
        verdict = json.loads(out.splitlines()[-1])
        assert verdict["cluster_id"] >= -1

    def test_serve_http_smoke(self, model_dir, capsys):
        port = free_port()

        fetcher = threading.Thread(
            target=fetch_with_retry,
            args=(f"http://127.0.0.1:{port}/healthz",),
            daemon=True,
        )
        fetcher.start()
        status = main(
            [
                "serve",
                "--model",
                str(model_dir),
                "--port",
                str(port),
                "--max-requests",
                "1",
            ]
        )
        fetcher.join(timeout=10)
        assert status == 0
        assert "serving   : http://127.0.0.1" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# classify --stdin: line-by-line streaming classification
# --------------------------------------------------------------------------- #
class _LazyStdin:
    """Iterable stdin stand-in that refuses bulk reads.

    ``classify --stdin`` must consume paths line by line (bounded
    memory); any ``read()``/``readlines()`` slurp is a regression.
    """

    def __init__(self, lines):
        self._lines = iter(lines)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._lines)

    def read(self, *args):  # pragma: no cover - the assertion IS the test
        raise AssertionError("classify --stdin must not bulk-read stdin")

    readlines = read


class TestClassifyStdin:
    def test_stdin_paths_stream_line_by_line(
        self, model_dir, xml_files, capsys, monkeypatch
    ):
        import sys

        lines = [f"{path}\n" for path in xml_files[:3]]
        lines.insert(1, "\n")  # blank lines are skipped, not classified
        monkeypatch.setattr(sys, "stdin", _LazyStdin(lines))
        status = main(["classify", "--model", str(model_dir), "--stdin"])
        out = capsys.readouterr().out
        assert status == 0
        for path in xml_files[:3]:
            assert f"{path}: cluster=" in out
        assert out.count("cluster=") == 3

    def test_positional_files_come_before_stdin(
        self, model_dir, xml_files, capsys, monkeypatch
    ):
        import sys

        monkeypatch.setattr(sys, "stdin", _LazyStdin([f"{xml_files[1]}\n"]))
        status = main(
            ["classify", "--model", str(model_dir), "--stdin", str(xml_files[0])]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert out.index(str(xml_files[0])) < out.index(f"{xml_files[1]}: cluster=")

    def test_classify_without_files_or_stdin_exits(self, model_dir):
        with pytest.raises(SystemExit, match="--stdin"):
            main(["classify", "--model", str(model_dir)])


# --------------------------------------------------------------------------- #
# cxk stream: incremental ingestion into a saved model directory
# --------------------------------------------------------------------------- #
class TestStreamCommand:
    def stream_args(self, model, extra=()):
        return [
            "stream",
            "--model", str(model),
            "--corpus", "DBLP",
            "--scale", "0.2",
            "--k", "4",
            "--gamma", "0.8",
            "--max-iterations", "2",
            "--chunk-size", "16",
            "--backend", "numpy",
            *extra,
        ]

    def test_stream_corpus_checkpoints_and_saves_a_model(
        self, tmp_path, capsys
    ):
        model = tmp_path / "streamed"
        status = main(self.stream_args(model, ["--checkpoint-every", "1"]))
        out = capsys.readouterr().out
        assert status == 0
        assert "algorithm : Streaming-XK-means" in out
        assert out.count(f"checkpoint: saved -> {model}") >= 2  # periodic + final
        assert "chunks    :" in out
        loaded = load_model(model)
        assert loaded.config.streaming is True
        assert loaded.config.chunk_size == 16

    def test_streamed_model_serves_classify(self, tmp_path, xml_files, capsys):
        model = tmp_path / "streamed"
        assert main(self.stream_args(model)) == 0
        capsys.readouterr()
        status = main(["classify", "--model", str(model), str(xml_files[0])])
        out = capsys.readouterr().out
        assert status == 0
        assert f"{xml_files[0]}: cluster=" in out

    def test_out_of_core_stream_builds_a_block_chain(
        self, tmp_path, xml_files, capsys
    ):
        from repro.similarity.corpus_store import BlockCorpusStore

        model = tmp_path / "streamed"
        status = main(self.stream_args(model, ["--out-of-core"]))
        out = capsys.readouterr().out
        assert status == 0
        assert "blocks    : out-of-core ->" in out
        chain = BlockCorpusStore.open(model / "blocks")
        assert chain.transaction_count > 0
        clear_store_cache()
        status = main(["classify", "--model", str(model), str(xml_files[0])])
        out = capsys.readouterr().out
        assert status == 0
        # the block chain re-attaches warm: zero compile work to classify
        assert "store     : hit (compiled 0 transactions)" in out

    def test_stream_from_stdin_paths(self, tmp_path, xml_files, capsys, monkeypatch):
        import sys

        model = tmp_path / "streamed"
        monkeypatch.setattr(
            sys, "stdin", io.StringIO("".join(f"{path}\n" for path in xml_files))
        )
        status = main(
            [
                "stream",
                "--model", str(model),
                "--stdin",
                "--k", "3",
                "--gamma", "0.7",
                "--max-iterations", "2",
                "--chunk-size", "4",
                "--backend", "numpy",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert f"checkpoint: saved -> {model} (final" in out

    def test_stream_input_modes_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="one or the other"):
            main(self.stream_args(tmp_path / "m", ["--stdin"]))

    def test_stream_without_input_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="stream needs"):
            main(
                ["stream", "--model", str(tmp_path / "m"), "--backend", "numpy"]
            )

    def test_under_k_stream_fails_loudly(self, tmp_path, xml_files, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{xml_files[0]}\n"))
        with pytest.raises(SystemExit, match="error:"):
            main(
                [
                    "stream",
                    "--model", str(tmp_path / "m"),
                    "--stdin",
                    "--k", "4",
                    "--backend", "numpy",
                ]
            )
