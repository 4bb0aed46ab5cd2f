"""Tests for the serving layer (HTTP routes, stdin protocol, CLI commands).

Pin the thin serving surface over a loaded model: the single-model static
route of the async server and its error statuses, the HTTP framing bounds
(malformed, oversized or stalled requests answer 400 or are dropped while
other clients keep being served), the stdin line protocol (one XML file
path in, one JSON verdict out, per-line error isolation), and the
``cxk cluster --save-model`` / ``cxk classify`` / ``cxk serve`` CLI flows
including the grep-able verdict lines the CI smoke asserts.
"""

from __future__ import annotations

import asyncio
import http.client
import io
import json
import shutil
import socket
import threading
import time
import urllib.request
from contextlib import contextmanager
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
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    AsyncModelServer,
    ModelRouter,
    classify_payload,
    serve_async,
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
    """A fitted model directory shared by the module."""
    root = tmp_path_factory.mktemp("serving")
    dataset = get_dataset("DBLP", scale=0.2, seed=0)
    config = ClusteringConfig(
        k=4,
        similarity=SimilarityConfig(f=0.5, gamma=0.8),
        seed=0,
        max_iterations=3,
        backend="numpy",
    )
    algorithm = XKMeans(config)
    prepare_engine_corpus(algorithm.engine, dataset.transactions)
    result = algorithm.fit(dataset.transactions)
    save_model(root / "model", result, config, dataset=dataset)
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
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@contextmanager
def static_server(model_dir, **kwargs):
    """Serve *model_dir* as one static route on a background thread.

    The route is named after the directory, as ``serve --model DIR
    --port N`` names it.
    """
    port = free_port()
    server = AsyncModelServer(
        ModelRouter(model_dirs={Path(model_dir).name: str(model_dir)}),
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
        yield server, port
    finally:
        server.shutdown_threadsafe()
        thread.join(timeout=30)
        assert not thread.is_alive()


def http_call(port, method, path, body=None):
    """One request on a fresh connection; return (status, parsed JSON)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def raw_exchange(port, payload):
    """Send raw bytes; return everything the server answers before closing."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as client:
        client.sendall(payload)
        received = b""
        while True:
            chunk = client.recv(65536)
            if not chunk:
                return received
            received += chunk


@pytest.fixture(scope="module")
def served(model_dir):
    """One running static-route server shared by the module's HTTP tests."""
    clear_store_cache()
    with static_server(model_dir) as running:
        yield running


class TestStaticRoute:
    def test_health_route_reports_stats(self, served):
        server, port = served
        status, payload = http_call(port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert server.routes["model"].model.stats()["corpus_compile_count"] == 0

    def test_classify_route_returns_a_verdict(self, served):
        _, port = served
        document = serialize(get_corpus("DBLP", scale=0.2, seed=0).trees[0])
        status, payload = http_call(
            port, "POST", "/classify", document.encode("utf-8")
        )
        assert status == 200
        assert payload["model"] == "model"
        assert payload["cluster_id"] >= -1
        assert payload["transactions"] >= 1
        assert payload["latency_ms"] >= 0.0
        assert payload["assignments"]

    def test_malformed_xml_answers_400(self, served):
        _, port = served
        status, payload = http_call(port, "POST", "/classify", b"<broken")
        assert status == 400
        assert "error" in payload

    def test_unknown_route_answers_404(self, served):
        _, port = served
        status, payload = http_call(port, "GET", "/nope")
        assert status == 404
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

    def test_undecodable_file_answers_an_error_line_and_the_loop_goes_on(
        self, model_dir, xml_files, tmp_path
    ):
        latin = tmp_path / "latin.xml"
        latin.write_bytes("<a>caf\u00e9</a>".encode("latin-1"))
        model = load_model(model_dir)
        source = io.StringIO(f"{latin}\n{xml_files[0]}\n")
        sink = io.StringIO()
        answered = serve_stdin(model, source, sink)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert answered == 2
        assert lines[0]["file"] == str(latin)
        assert "not utf-8 text" in lines[0]["error"]
        assert lines[1]["file"] == str(xml_files[0])
        assert lines[1]["cluster_id"] >= -1


class TestHttpServer:
    def test_live_server_answers_health_and_classify(self, model_dir, xml_files):
        port = free_port()
        server = threading.Thread(
            target=serve_async,
            kwargs=dict(
                model_dirs={"model": str(model_dir)}, port=port, max_requests=2
            ),
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
        """A client that connects and sends nothing is dropped after the
        request timeout, and other connections are served meanwhile."""
        with static_server(model_dir, request_timeout=0.5) as (_, port):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as stalled:
                status, health = http_call(port, "GET", "/healthz")
                assert (status, health["status"]) == (200, "ok")
                started = time.monotonic()
                assert stalled.recv(1) == b""  # the server closed it
                assert time.monotonic() - started < 5.0

    @pytest.mark.parametrize(
        "request_bytes, reason",
        [
            (b"POST /classify HTTP/1.1\r\nContent-Length: -5\r\n\r\n", b"negative"),
            (b"GET /" + b"a" * (MAX_LINE_BYTES + 1) + b" HTTP/1.1\r\n\r\n", b"request line"),
            (b"GET / HTTP/1.1\r\nX: " + b"a" * (MAX_LINE_BYTES + 1) + b"\r\n\r\n", b"header line"),
            (b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * (MAX_HEADER_LINES + 1) + b"\r\n", b"header lines"),
            (b"NONSENSE\r\n\r\n", b"malformed request line"),
        ],
        ids=["negative-length", "long-request-line", "long-header", "many-headers", "bad-request-line"],
    )
    def test_malformed_framing_answers_400_and_keeps_serving(
        self, served, request_bytes, reason
    ):
        _, port = served
        answer = raw_exchange(port, request_bytes)
        assert answer.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in answer
        assert reason in answer
        status, health = http_call(port, "GET", "/healthz")
        assert (status, health["status"]) == (200, "ok")

    def test_header_lines_up_to_the_cap_are_accepted(self, served):
        _, port = served
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.putrequest(
                "GET", "/healthz", skip_host=True, skip_accept_encoding=True
            )
            for index in range(MAX_HEADER_LINES):
                connection.putheader(f"X-Header-{index}", "y")
            connection.endheaders()
            assert connection.getresponse().status == 200
        finally:
            connection.close()


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
        assert f"model     : {tmp_path / 'model'}" in out
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


    #: Deletes the key instead of setting a value (see CORRUPTIONS).
    DROP = object()

    #: Corruption cases -> (file, key path, new value, the text the error
    #: line must carry); an empty key path replaces the whole document.  Besides a wrong-shaped
    #: representatives block, three malformed config sections (a missing
    #: key, a value of the wrong type and a well-typed value
    #: ClusteringConfig rejects), then the other manifest sections and the
    #: data files holding the wrong shape.
    CORRUPTIONS = {
        "representatives": (
            "representatives.json",
            ("representatives",),
            7,
            "corrupt representatives",
        ),
        "missing-k": ("model.json", ("config", "k"), DROP, "lacks key 'k'"),
        "null-f": ("model.json", ("config", "f"), None, "bad 'f' value None"),
        "zero-k": ("model.json", ("config", "k"), 0, "k must be positive"),
        "int-stopwords": (
            "model.json", ("preprocessing", "stopwords"), 5, "bad 'stopwords'"
        ),
        "list-preprocessing": (
            "model.json", ("preprocessing",), ["stem"], "bad 'preprocessing'"
        ),
        "str-min-token-length": (
            "model.json",
            ("preprocessing", "min_token_length"),
            "x",
            "bad 'min_token_length'",
        ),
        "int-files": ("model.json", ("files",), 5, "bad 'files'"),
        "list-vocabulary": ("vocabulary.json", (), [], "vocabulary.json"),
        "list-registries": ("registries.json", (), [], "registries.json"),
        "list-term-tcus": (
            "vocabulary.json", ("term_tcus",), [["term", 1]], "vocabulary.json"
        ),
    }

    @classmethod
    def corrupt(cls, model, case="representatives"):
        """Apply one of :attr:`CORRUPTIONS` to the model directory *model*."""
        name, keys, value, _ = cls.CORRUPTIONS[case]
        path = model / name
        document = json.loads(path.read_text(encoding="utf-8"))
        if not keys:
            document = value
        else:
            parent = document
            for key in keys[:-1]:
                parent = parent[key]
            if value is cls.DROP:
                del parent[keys[-1]]
            else:
                parent[keys[-1]] = value
        path.write_text(json.dumps(document), encoding="utf-8")

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_serve_http_of_a_corrupt_model_exits_cleanly(
        self, model_dir, xml_files, tmp_path, case
    ):
        """``serve --port`` and ``classify`` end in one ``error:`` line (a
        ``SystemExit`` message, never a traceback) naming the problem."""
        model = shutil.copytree(model_dir, tmp_path / "model")
        self.corrupt(model, case)
        for command in (
            ["serve", "--model", str(model), "--port", str(free_port())],
            ["classify", "--model", str(model), str(xml_files[0])],
        ):
            with pytest.raises(SystemExit) as failure:
                main(command)
            assert str(failure.value).startswith("error: ")
            assert self.CORRUPTIONS[case][-1] in str(failure.value)
            assert str(model) in str(failure.value)

    def test_serve_registry_with_a_corrupt_active_model_exits_cleanly(
        self, model_dir, tmp_path
    ):
        from repro.store import open_registry

        model = shutil.copytree(model_dir, tmp_path / "model")
        open_registry(tmp_path / "registry.db").publish("dblp", model)
        self.corrupt(model)
        with pytest.raises(SystemExit, match="error: corrupt representatives"):
            main(
                [
                    "serve",
                    "--registry",
                    str(tmp_path / "registry.db"),
                    "--port",
                    str(free_port()),
                ]
            )


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

    @pytest.mark.parametrize("stdin", [False, True])
    @pytest.mark.parametrize(
        "content",
        [b"<a><b></a>", "<a>caf\u00e9</a>".encode("latin-1")],
        ids=["malformed", "latin-1"],
    )
    def test_bad_document_exits_with_an_error_line(
        self, model_dir, tmp_path, monkeypatch, content, stdin
    ):
        """A malformed or non-UTF-8 document ends classify like an
        unreadable file: an ``error:`` message, not a traceback."""
        import sys

        from repro.xmlmodel.errors import XMLError

        bad = tmp_path / "bad.xml"
        bad.write_bytes(content)
        argv = ["classify", "--model", str(model_dir)]
        if stdin:
            monkeypatch.setattr(sys, "stdin", _LazyStdin([f"{bad}\n"]))
            argv.append("--stdin")
        else:
            argv.append(str(bad))
        with pytest.raises(SystemExit, match=f"^error: {bad}: ") as raised:
            main(argv)
        assert isinstance(raised.value.__cause__, XMLError)

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
        assert loaded.config.chunk_size == 16

    def test_streamed_corpus_model_keeps_the_corpus_vocabulary(
        self, tmp_path, capsys
    ):
        """A ``--corpus`` stream saves the vocabulary it streamed with, so
        the model classifies its own documents: without it every query
        vector is empty and (here) 21 of the 24 documents went to trash."""
        model = tmp_path / "streamed"
        args = self.stream_args(model)
        args[args.index("--gamma") + 1] = "0.65"
        assert main(args) == 0
        capsys.readouterr()
        loaded = load_model(model)
        corpus = get_dataset("DBLP", scale=0.2, seed=0)
        assert loaded.stats()["vocabulary"] > 0
        assert loaded._vocabulary.terms() == corpus.statistics.vocabulary.terms()
        trees = get_corpus("DBLP", scale=0.2, seed=0).trees
        trash = sum(loaded.classify_tree(tree).cluster_id == -1 for tree in trees)
        # bound: at most a quarter of its own documents (4 of 24 measured)
        assert trash <= len(trees) // 4

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
        # the model loads from its own directory, not from the block chain
        assert f"{xml_files[0]}: cluster=" in out

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
